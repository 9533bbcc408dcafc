"""Sum-rate maximization over (position, sparsity) for K users.

The multipath balance across users makes the objective highly multimodal,
so both variables are searched: scan scores the full (y, eta) lattice, then
optim.alternate refines the position and searches the sparsity in turn
until the objective stalls. The result is at least the exact lattice
maximum, so growing the movable region (with nested grids) or raising
eta_max can only enlarge the evaluated set, and the compact configuration
(eta = 1 at the bottom of the region), on every lattice, is a floor. A
(y, eta) value does not depend on its batch, so every value compared is
objective_metric's at that point. After the scan, every point is scored
through one combining.PointScores memo per trial, which scores it once.
"""

from __future__ import annotations

import numpy as np

from .arrays import ArrayConfig
from .combining import LinkPowers, PointScores, metric_profiles, point_values
from .optim import (GmaSolution, GridSpec, OptimizerSettings, alternate,
                    level_grids, refine)


def scan(problems, step: float, users,
         powers: LinkPowers) -> list[tuple[float, float, int, int]]:
    """Lattice maxima of several configurations, scored in one pass.

    problems holds (etas, cfg) pairs whose configurations share N, the
    wavelength and y_min (a ValueError otherwise), and users and powers.
    Level eta of a configuration is scanned on
    position_grid(*cfg.position_bounds(eta), step), which optim.level_grids
    gives as a prefix of one grid plus at most one end point. One
    metric_profiles call scores every level over that grid with the end
    points appended, and each (configuration, level) reads its maximum off
    its prefix and its end point. Per configuration, ties go to the earlier
    level in its etas, then to the smaller grid index.

    Where K > N > 2 that call screens (see combining): the rows of its lag
    runs come back as float32 sum rates R~ with bounds D >= |R~ - R| on
    their distance from the float64 values R, and its other rows (short
    runs, off-lattice end points) as float64 values with D = 0. Each
    configuration then scores in float64, through combining.point_values
    and in one call for all, exactly its rows of a screened level with
    R~ + D >= max(R~ - D) over its own rows, and takes its maximum over
    those and its levels scored in float64 alone. The true maximum, and
    every row tied with it, pass that test, and any other row is below it,
    so the result, evals included, is that of scoring every row in float64.
    Float32 values are only compared with each other, never returned.

    Returns one (value, y, eta, evals) per configuration; evals sums the
    sizes of its own grids.
    """
    cfgs = [cfg for _, cfg in problems]
    if len({(c.N, c.wavelength, c.y_min) for c in cfgs}) > 1:
        raise ValueError("configurations must share N, the wavelength and y_min")
    levels = [(c, eta) for c, (etas, _) in enumerate(problems) for eta in etas]
    grid, parts = level_grids(cfgs[0].y_min, [cfgs[c].position_bounds(eta)[1]
                                              for c, eta in levels], step)
    ends = list(dict.fromkeys(float(end[0]) for _, end in parts if end.size))
    col = {y: grid.size + j for j, y in enumerate(ends)}  # past the grid
    readers, evals = {}, [0] * len(problems)  # level -> [(c, prefix, end column)]
    for (c, eta), (n, end) in zip(levels, parts):
        readers.setdefault(eta, []).append((c, n, col[end[0]] if end.size else None))
        evals[c] += n + end.size
    pts = np.append(grid, ends) if ends else grid
    widest = max(cfgs, key=lambda c: c.eta_max)  # admits every level
    found = {}  # (configuration, level) -> (value, y)
    floor = [-np.inf] * len(problems)  # the largest R~ - D of each configuration
    screened = {}  # level -> (columns, R~ + D) that no floor rules out yet
    for eta, vals, bounds in metric_profiles(pts, list(readers), users, powers,
                                             widest, True):
        if bounds is None:
            for c, n, j in readers[eta]:
                i = int(np.argmax(vals[:n]))
                if j is not None and vals[j] > vals[i]:
                    i = j
                found[c, eta] = float(vals[i]), float(pts[i])
                floor[c] = max(floor[c], vals[i])
            continue
        low, high = vals - bounds, vals + bounds
        top = np.maximum.accumulate(low[:grid.size])  # over each prefix
        for c, n, j in readers[eta]:
            floor[c] = max(floor[c], top[n - 1], -np.inf if j is None else low[j])
        cols = np.flatnonzero(high >= min(floor[c] for c, _, _ in readers[eta]))
        screened[eta] = cols, high[cols]
        # free this level's arrays before the pass scores the next one
        del vals, bounds, low, high, top
    # every floor is final: score in float64 the rows it does not rule out
    live = {}  # (configuration, level) -> columns, in grid order
    for eta, (cols, high) in screened.items():
        for c, n, j in readers[eta]:
            own = (cols < n) | (cols == (-1 if j is None else j))
            live[c, eta] = cols[own & (high >= floor[c])]
    todo = sorted({(eta, i) for (_, eta), cols in live.items() for i in cols.tolist()})
    if todo:
        etas, cols = (np.array(x) for x in zip(*todo))
        exact = dict(zip(todo, point_values(pts[cols], etas, users, powers,
                                            widest).tolist()))
        for (c, eta), cols in live.items():
            if cols.size:  # the first of equal values wins
                i = max(cols.tolist(), key=lambda i: exact[eta, i])
                found[c, eta] = exact[eta, i], float(pts[i])
    out = []
    for c, (etas, _) in enumerate(problems):
        eta = max((e for e in etas if (c, e) in found),
                  key=lambda e: found[c, e][0])  # the first of equal values
        out.append((*found[c, eta], eta, evals[c]))
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
    scores = PointScores(users, powers)
    y, val, _ = refine(y, val, *cfg.position_bounds(eta), step, grid,
                       lambda pts: scores.profiles(pts, [eta], cfg)[0])
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
    """The lattice scan's maximum, then optim.alternate, scoring through
    scores and searching the sparsity with sparsity_search.

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
    return alternate((best_val, best_y, best_eta, evals), cfg, step, grid, settings,
                     lambda pts, eta: scores.profiles(pts, [eta], cfg)[0],
                     lambda y: sparsity_search(y, users, powers, cfg, scores))
