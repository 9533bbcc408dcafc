"""Sum-rate maximization over (position, sparsity) for K users.

Both decision variables are handled by search, as the multipath balance
across users makes the objective highly multimodal: a one-dimensional grid
scan (with local refinement) over the position and an exhaustive scan over
the sparsity level, alternated until the objective stalls.

The first round scans the full coarse (y, eta) lattice instead of a single
eta. This costs eta_max batched profile evaluations, and in exchange the
returned objective is the exact lattice maximum, which makes the
domain-monotonicity guarantees structural: growing the movable region (with
nested grids) or raising eta_max can only enlarge the evaluated set. The
compact configuration (eta = 1 at the bottom of the region) is part of
every base grid, so the result never falls below the fixed-array baseline.
A (y, eta) value does not depend on its batch, so every value the search
compares is the one objective_metric gives at that point.
"""

from __future__ import annotations

import numpy as np

from .arrays import ArrayConfig
from .combining import LinkPowers, metric_profiles, objective_metric
from .optim import GmaSolution, GridSpec, OptimizerSettings, position_grid


def scan(etas, step: float, users, powers: LinkPowers,
         cfg: ArrayConfig) -> tuple[float, float, int, int]:
    """Lattice maximum over the levels etas and their position grids.

    Level eta is scanned on position_grid(*cfg.position_bounds(eta), step).
    Levels with the same bounds share one grid and one metric_profiles pass,
    so without confine_aperture the whole lattice is a single pass. Ties go
    to the earlier level in etas, then to the smaller grid index.

    Returns (value, y, eta, evals).
    """
    groups: dict[tuple[float, float], list[int]] = {}
    for eta in etas:
        groups.setdefault(cfg.position_bounds(eta), []).append(eta)
    best_val, best_y, best_eta, evals = -np.inf, None, None, 0
    for bounds, levels in groups.items():
        pts = position_grid(*bounds, step)
        for eta, vals in metric_profiles(pts, levels, users, powers, cfg):
            evals += pts.size
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val, best_y, best_eta = float(vals[i]), float(pts[i]), eta
    return best_val, best_y, best_eta, evals


def grid_position_search(eta: int, users, powers: LinkPowers, cfg: ArrayConfig,
                         grid: GridSpec = GridSpec()) -> tuple[float, float]:
    """Best position for a fixed sparsity level over the refined grid.

    Returns (y_star, metric). Ties go to the smallest grid index.
    """
    if cfg.validate_eta(eta) not in cfg.feasible_etas():
        raise ValueError(f"no admissible position at sparsity {eta}")
    step = grid.resolve_step(cfg.wavelength)
    val, y, _, _ = scan([eta], step, users, powers, cfg)
    y, val, _ = _refine_position(y, val, eta, step, users, powers, cfg, grid)
    return y, val


def sparsity_search(y: float, users, powers: LinkPowers,
                    cfg: ArrayConfig) -> tuple[int, float]:
    """Best sparsity level at a fixed position; ties go to the smaller eta."""
    etas = cfg.feasible_etas(y)
    if not etas:
        raise ValueError(f"no feasible sparsity level at y = {y}")
    best_eta, best_val = etas[0], -np.inf
    for eta, vals in metric_profiles([y], etas, users, powers, cfg):
        if vals[0] > best_val:
            best_eta, best_val = eta, float(vals[0])
    return best_eta, best_val


def optimize_multiuser(users, powers: LinkPowers, cfg: ArrayConfig,
                       grid: GridSpec = GridSpec(),
                       settings: OptimizerSettings = OptimizerSettings(),
                       extra_candidates=()) -> GmaSolution:
    """Alternating position / sparsity search for the best (y, eta).

    extra_candidates are (y, eta) pairs injected into the evaluated set,
    e.g. the solution of a run over a smaller region so that sweeps over
    growing domains are monotone even at refined resolution.

    A (y, eta) value does not depend on its batch, so the objective is at
    least the fixed-array baseline and every injected candidate, exactly.
    """
    if len(users) != powers.K:
        raise ValueError(f"got {len(users)} users for {powers.K} powers")
    feas = cfg.feasible_etas()
    if not feas:
        raise ValueError("movable region admits no feasible sparsity level")
    step = grid.resolve_step(cfg.wavelength)
    best_val, best_y, best_eta, evals = scan(feas, step, users, powers, cfg)
    for y_c, eta_c in extra_candidates:
        val = objective_metric(y_c, eta_c, users, powers, cfg)
        evals += 1
        if val > best_val:
            best_val, best_y, best_eta = val, y_c, eta_c

    trace = [best_val]
    prev = best_val
    y, eta, cur = best_y, best_eta, best_val
    rounds = 0
    for _ in range(settings.max_alt_iters):
        rounds += 1
        y2, v2, ev = _refine_position(y, cur, eta, step, users, powers, cfg, grid)
        evals += ev
        if v2 > best_val:
            best_val, best_y, best_eta = v2, y2, eta
        eta3, v3 = sparsity_search(y2, users, powers, cfg)
        evals += len(cfg.feasible_etas(y2))
        if v3 > best_val:
            best_val, best_y, best_eta = v3, y2, eta3
        y, eta, cur = y2, eta3, v3
        trace.append(best_val)
        if best_val - prev <= settings.epsilon * abs(prev):
            break
        prev = best_val
    return GmaSolution(y_star=best_y, eta_star=best_eta, objective=best_val,
                       trace=tuple(trace), evals=evals, rounds=rounds)


def _refine_position(y: float, val: float, eta: int, base_step: float, users,
                     powers: LinkPowers, cfg: ArrayConfig,
                     grid: GridSpec) -> tuple[float, float, int]:
    """Shrinking-window local scans around the incumbent position.

    Keeps the incumbent on ties so refinement never degrades the value.
    """
    lo, hi = cfg.position_bounds(eta)
    step = base_step
    evals = 0
    for _ in range(grid.refine_levels):
        fine = step / grid.refine_factor
        pts = position_grid(max(lo, y - step), min(hi, y + step), fine)
        _, vals = next(iter(metric_profiles(pts, [eta], users, powers, cfg)))
        evals += pts.size
        i = int(np.argmax(vals))
        if vals[i] > val:
            y, val = float(pts[i]), float(vals[i])
        step = fine
    return y, val, evals
