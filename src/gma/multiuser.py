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
compares is the one objective_metric gives at that point. After the scan,
every point is scored through a combining.PointScores memo, so a search
that returns to a point, or a later search of the same trial, reads it
there instead of scoring it again.
"""

from __future__ import annotations

import numpy as np

from .arrays import ArrayConfig
from .combining import LinkPowers, PointScores, metric_profiles
from .optim import GmaSolution, GridSpec, OptimizerSettings, position_grid


def scan(problems, step: float, users,
         powers: LinkPowers) -> list[tuple[float, float, int, int]]:
    """Lattice maxima of several configurations, scored in shared passes.

    problems holds (etas, cfg) pairs whose configurations share N, the
    wavelength and y_min (a ValueError otherwise), and users and powers.
    Level eta of a configuration is scanned on
    position_grid(*cfg.position_bounds(eta), step). Per level, the longest
    such grid is scored once, and each configuration whose grid is a
    bit-for-bit prefix of it reads its maximum off that pass; any other
    grid (an end that position_grid clamped to hi or appended) is scored on
    its own. Levels with the same grid share one metric_profiles pass. Per
    configuration, ties go to the earlier level in its etas, then to the
    smaller grid index.

    Returns one (value, y, eta, evals) per configuration; evals sums the
    sizes of its own grids.
    """
    cfgs = [cfg for _, cfg in problems]
    if len({(c.N, c.wavelength, c.y_min) for c in cfgs}) > 1:
        raise ValueError("configurations must share N, the wavelength and y_min")
    own = [[cfg.position_bounds(eta) for eta in etas] for etas, cfg in problems]
    grids = {b: position_grid(*b, step) for b in set(sum(own, []))}
    longest = {}  # level -> bounds of its longest grid
    for (etas, _), bounds in zip(problems, own):
        for eta, b in zip(etas, bounds):
            longest[eta] = max(longest.get(eta, b), b, key=lambda x: grids[x].size)
    readers = {}  # bounds scored -> level -> [(configuration, grid size)]
    for c, (etas, _) in enumerate(problems):
        for eta, b in zip(etas, own[c]):
            n, top = grids[b].size, longest[eta]
            if top != b and grids[top][:n].tobytes() != grids[b].tobytes():
                top = b
            readers.setdefault(top, {}).setdefault(eta, []).append((c, n))
    widest = max(cfgs, key=lambda c: c.eta_max)  # admits every level
    found = {}  # (configuration, level) -> (value, y)
    for bounds, levels in readers.items():
        pts = grids[bounds]
        for eta, vals in metric_profiles(pts, list(levels), users, powers, widest):
            for c, n in levels[eta]:
                i = int(np.argmax(vals[:n]))
                found[c, eta] = float(vals[i]), float(pts[i])
    out = []
    for c, (etas, _) in enumerate(problems):
        best = (-np.inf, None, None)
        for eta in etas:
            if found[c, eta][0] > best[0]:
                best = (*found[c, eta], eta)
        out.append((*best, sum(grids[b].size for b in own[c])))
    return out


def grid_position_search(eta: int, users, powers: LinkPowers, cfg: ArrayConfig,
                         grid: GridSpec = GridSpec()) -> tuple[float, float]:
    """Best position for a fixed sparsity level over the refined grid.

    Returns (y_star, metric). Ties go to the smallest grid index.
    """
    if cfg.validate_eta(eta) not in cfg.feasible_etas():
        raise ValueError(f"no admissible position at sparsity {eta}")
    step = grid.resolve_step(cfg.wavelength)
    val, y, _, _ = scan([([eta], cfg)], step, users, powers)[0]
    y, val, _ = _refine_position(y, val, eta, step, PointScores(users, powers),
                                 cfg, grid)
    return y, val


def sparsity_search(y: float, users, powers: LinkPowers, cfg: ArrayConfig,
                    scores: PointScores | None = None) -> tuple[int, float]:
    """Best sparsity level at a fixed position; ties go to the smaller eta.

    scores is the trial's memo of these users' values (see optimize_multiuser).
    """
    etas = cfg.feasible_etas(y)
    if not etas:
        raise ValueError(f"no feasible sparsity level at y = {y}")
    scores = PointScores.over(users, powers, scores)
    best_eta, best_val = etas[0], -np.inf
    for eta, val in zip(etas, scores.profiles([y], etas, cfg)[:, 0].tolist()):
        if val > best_val:
            best_eta, best_val = eta, val
    return best_eta, best_val


def optimize_multiuser(users, powers: LinkPowers, cfg: ArrayConfig,
                       grid: GridSpec = GridSpec(),
                       settings: OptimizerSettings = OptimizerSettings(),
                       extra_candidates=(), lattice=None,
                       scores: PointScores | None = None) -> GmaSolution:
    """Alternating position / sparsity search for the best (y, eta).

    extra_candidates are (y, eta) pairs injected into the evaluated set,
    e.g. the solution of a run over a smaller region so that sweeps over
    growing domains are monotone even at refined resolution. lattice is
    this configuration's scan result over its feasible levels, as run_sweep
    scores several configurations at once; None scans here. scores is the
    trial's memo of these users' values, which every score after the scan
    reads (the refinement windows, the sparsity searches and the injected
    candidates); None starts one here. evals counts the points compared,
    memo hits included.

    A (y, eta) value does not depend on its batch, so the objective is at
    least the fixed-array baseline and every injected candidate, exactly.
    """
    if len(users) != powers.K:
        raise ValueError(f"got {len(users)} users for {powers.K} powers")
    feas = cfg.feasible_etas()
    if not feas:
        raise ValueError("movable region admits no feasible sparsity level")
    step = grid.resolve_step(cfg.wavelength)
    scores = PointScores.over(users, powers, scores)
    if lattice is None:
        lattice = scan([(feas, cfg)], step, users, powers)[0]
    best_val, best_y, best_eta, evals = lattice
    for y_c, eta_c in extra_candidates:
        val = scores.point(y_c, eta_c, cfg)
        evals += 1
        if val > best_val:
            best_val, best_y, best_eta = val, y_c, eta_c

    trace = [best_val]
    prev = best_val
    y, eta, cur = best_y, best_eta, best_val
    rounds = 0
    for _ in range(settings.max_alt_iters):
        rounds += 1
        y2, v2, ev = _refine_position(y, cur, eta, step, scores, cfg, grid)
        evals += ev
        if v2 > best_val:
            best_val, best_y, best_eta = v2, y2, eta
        eta3, v3 = sparsity_search(y2, users, powers, cfg, scores)
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


def _refine_position(y: float, val: float, eta: int, base_step: float,
                     scores: PointScores, cfg: ArrayConfig,
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
        vals = scores.profiles(pts, [eta], cfg)[0]
        evals += pts.size
        i = int(np.argmax(vals))
        if vals[i] > val:
            y, val = float(pts[i]), float(vals[i])
        step = fine
    return y, val, evals
