"""Shared optimizer settings, grid specification, solution record, the
search grids and the alternating search that every GMA optimizer runs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import _as_int, _as_real


@dataclass(frozen=True)
class OptimizerSettings:
    """Stopping rules shared by the optimizers.

    Attributes:
        epsilon: stop when the fractional objective increase per outer round
            falls below this threshold.
        max_sca_iters: cap on surrogate-ascent iterations per position
            subproblem.
        max_alt_iters: cap on alternating (position / sparsity) rounds.
    """

    epsilon: float = 1e-4
    max_sca_iters: int = 200
    max_alt_iters: int = 50

    def __post_init__(self):
        for name in ("max_sca_iters", "max_alt_iters"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if not _as_real(self.epsilon, "epsilon") > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_sca_iters < 1 or self.max_alt_iters < 1:
            raise ValueError("iteration caps must be >= 1")


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the 1-D continuous position search.

    step None defers to wavelength/16 at the point of use. Each refinement
    level shrinks the step by refine_factor and re-scans a window of one
    previous step around the incumbent.
    """

    step: float | None = None
    refine_levels: int = 2
    refine_factor: int = 8

    def __post_init__(self):
        if self.step is not None and not _as_real(self.step, "grid step") > 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
        for name in ("refine_levels", "refine_factor"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.refine_levels < 0:
            raise ValueError("refine_levels must be >= 0")
        if self.refine_factor < 2:
            raise ValueError("refine_factor must be >= 2")

    def resolve_step(self, wavelength: float) -> float:
        return self.step if self.step is not None else wavelength / 16.0


@dataclass(frozen=True)
class GmaSolution:
    """Optimized configuration with its objective and search statistics.

    objective is the SNR for a single user and the sum rate otherwise.
    trace holds the start's objective, then the best after each round, and
    is non-decreasing; evals counts the (y, eta) points the search compared,
    whether or not they were scored in a pass shared with other searches.
    """

    y_star: float
    eta_star: int
    objective: float
    trace: tuple[float, ...]
    evals: int
    rounds: int = 0
    sca_iters: tuple[int, ...] = field(default=())


def position_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive uniform grid over [lo, hi] anchored at lo.

    Grids with a common anchor and step nest across growing regions, which
    the domain-monotonicity guarantees rely on. hi is appended when it does
    not land on the lattice so the boundary is always examined. No point
    lies above hi: the slack that lets the last step reach hi despite
    rounding can overshoot it by an ulp, and such a point becomes hi.
    grid_end gives its size and last point without building it.
    """
    count, last = grid_end(lo, hi, step)
    pts = grid_points(lo, step, np.arange(count))
    pts[-1] = last
    return pts


def grid_points(lo: float, step: float, idx) -> np.ndarray:
    """lo + i*step for each grid index i in idx: the points of every
    position_grid(lo, hi, step) before its last one, bit for bit."""
    return lo + step * np.asarray(idx)


def grid_end(lo: float, hi: float, step: float) -> tuple[int, float]:
    """(count, last) of position_grid(lo, hi, step): its first count - 1
    points are grid_points(lo, step, range(count - 1)), and its last point
    is last, bit for bit."""
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return 1, lo
    count = np.floor((hi - lo) / step + 1e-9)
    if not count < np.iinfo(np.intp).max:
        raise ValueError(f"grid step {step} over [{lo}, {hi}] gives {count + 1:.4g} "
                         "points, more than numpy can index")
    last = lo + step * count
    if last > hi:
        return int(count) + 1, hi
    if last < hi - 1e-12 * max(1.0, abs(hi)):
        return int(count) + 2, hi
    return int(count) + 1, last


def level_grids(lo: float, his, step: float):
    """(grid, parts): grid is position_grid(lo, max(his), step), and
    parts[i] = (n, end) rebuilds position_grid(lo, his[i], step) bit for bit
    as grid[:n] then end, at most the one point that position_grid clamped
    to his[i] or appended, in its own memory. Only grid is built."""
    grid = position_grid(lo, max(his), step)
    parts = {}
    for hi in his:
        if hi not in parts:
            count, last = grid_end(lo, hi, step)
            n = count - 1  # grid[:n] are the points lo + i*step before last
            parts[hi] = ((count, np.empty(0)) if n < grid.size and grid[n] == last
                         else (n, np.array([last])))
    return grid, [parts[hi] for hi in his]


def refine(y: float, val: float, lo: float, hi: float, step: float,
           grid: GridSpec, score) -> tuple[float, float, int]:
    """Shrinking-window scans around the incumbent (y, val), as GridSpec
    says, within [lo, hi]; score maps a window's positions to their values.
    Ties keep the incumbent. Returns (y, val, points scored).
    """
    evals = 0
    for _ in range(grid.refine_levels):
        fine = step / grid.refine_factor
        pts = position_grid(max(lo, y - step), min(hi, y + step), fine)
        vals = score(pts)
        evals += pts.size
        i = int(np.argmax(vals))
        if vals[i] > val:
            y, val = float(pts[i]), float(vals[i])
        step = fine
    return y, val, evals


def alternate(start, cfg, step: float, grid: GridSpec,
              settings: OptimizerSettings, profile, sparsity,
              polish=None) -> GmaSolution:
    """Alternating position / sparsity search from start = (value, y, eta,
    evals), a scan's maximum. A round refines the position within its
    level's bounds, profile(positions, eta) scoring the windows, then runs
    polish(y, value, eta) -> (y, value, points scored) when given; then
    sparsity(y) -> (eta, value) compares every feasible level at y. Ties
    keep the incumbent. Rounds stop once the best value rises by at most
    settings.epsilon of itself. trace holds start's value, then the best
    after each round; evals adds each round's points to start's.
    """
    best_val, best_y, best_eta, evals = start
    trace = [best_val]
    y, eta, cur = best_y, best_eta, best_val
    for rounds in range(1, settings.max_alt_iters + 1):
        y2, v2, ev = refine(y, cur, *cfg.position_bounds(eta), step, grid,
                            lambda pts: profile(pts, eta))
        if polish is not None:
            y2, v2, more = polish(y2, v2, eta)
            ev += more
        evals += ev
        if v2 > best_val:
            best_val, best_y, best_eta = v2, y2, eta
        eta3, v3 = sparsity(y2)
        evals += len(cfg.feasible_etas(y2))
        if v3 > best_val:
            best_val, best_y, best_eta = v3, y2, eta3
        y, eta, cur = y2, eta3, v3
        trace.append(best_val)
        if best_val - trace[-2] <= settings.epsilon * abs(trace[-2]):
            break
    return GmaSolution(y_star=best_y, eta_star=best_eta, objective=best_val,
                       trace=tuple(trace), evals=evals, rounds=rounds)
