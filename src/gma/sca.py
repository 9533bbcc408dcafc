"""Single-user joint position / sparsity optimization.

The SNR at sparsity eta and reference position y is p_bar*||A(eta) f(y)||^2
with A(eta) = arrays.path_matrix (one column per path) and f(y) the vector
of per-path position phases: the factored order of the channel in arrays,
which its off-lattice rows share. One arithmetic path scores
it: pair products of the phases (_pair_products), summed per level with its
Gram entries (_level_sum). snr_profile scores with it, every level in one
pass, and so does snr_scan, the grid search (the GMA's start and the K = 1
oracle), which skips each level whose Gram bound p_bar*sum_ij |G_ij| is
below the best value found, and within a level scores knots about
wavelength/8 apart, then only the cells between them that a curvature bound
cannot rule out; its result is that of scoring every point.
optimize_single_user runs optim.alternate from snr_scan's maximum; each
position update ends with a successive convex approximation (SCA) ascent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arrays import ArrayConfig, PathSet, path_matrix, path_phases
from .optim import (GmaSolution, GridSpec, OptimizerSettings, alternate,
                    grid_end, grid_points)


@lru_cache
def _path_pairs(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) of the path pairs i < j, in row-major order."""
    i, j = np.triu_indices(L, k=1)
    i.flags.writeable = j.flags.writeable = False  # shared by every caller
    return i, j


def _pair_products(y_values: np.ndarray, paths: PathSet,
                   cfg: ArrayConfig) -> np.ndarray:
    """Re(conj(f_i) f_j) rows, then Im(conj(f_i) f_j) rows, for the path
    pairs i < j at a batch of positions, shape (L*(L-1), B).

    The products do not depend on eta. They are formed in real arithmetic,
    so each column gets the same bits in every batch.
    """
    f = path_phases(y_values, paths.aoas, cfg).T  # (L, B)
    re, im = f.real.copy(), f.imag.copy()
    del f  # before the pairs are allocated: a block's peak memory
    i, j = _path_pairs(paths.L)
    pairs = np.empty((2 * i.size, y_values.size))
    for p, (a, b) in enumerate(zip(i, j)):
        np.add(re[a] * re[b], im[a] * im[b], out=pairs[p])
        np.subtract(re[a] * im[b], im[a] * re[b], out=pairs[i.size + p])
    return pairs


class _Level(NamedTuple):
    """One level's Gram terms for the pair sums, from G = A(eta)^H A(eta).

    weights are 2*Re(G_ij), then -2*Im(G_ij), for i < j, in the row order of
    _pair_products. bound = trace + sum_ij |2*G_ij| is at least ||A f||^2 at
    every position, since the phases f_i have unit modulus. ||A f(y)||^2 is
    a trigonometric polynomial in y, so curvature =
    sum_ij |2*G_ij|*(k0*(sin(aoa_j) - sin(aoa_i)))^2 bounds its second
    derivative, k0 = 2*pi/wavelength.
    """

    trace: float
    weights: np.ndarray
    bound: float
    curvature: float


def _gram_level(eta: int, paths: PathSet, cfg: ArrayConfig) -> _Level:
    A = path_matrix(eta, paths, cfg)
    gram = A.conj().T @ A
    i, j = _path_pairs(paths.L)
    g = 2.0 * gram[i, j]
    abs_g = np.abs(g)
    freq = (2.0 * np.pi / cfg.wavelength) * np.sin(paths.aoas)
    trace = float(np.real(np.trace(gram)))
    weights = np.concatenate([g.real, -g.imag])
    weights.flags.writeable = False  # shared by every caller of the level
    return _Level(trace, weights,
                  trace + float(np.sum(abs_g)),
                  float(np.sum(abs_g * (freq[j] - freq[i]) ** 2)))


def _level(eta: int, paths: PathSet, cfg: ArrayConfig,
           levels: dict | None) -> _Level:
    """_gram_level(eta, ...), kept in levels when a caller shares one."""
    if levels is None:
        return _gram_level(eta, paths, cfg)
    if eta not in levels:
        levels[eta] = _gram_level(eta, paths, cfg)
    return levels[eta]


def _level_sum(out: np.ndarray, trace, weights: np.ndarray, pairs: np.ndarray,
               p_bar: float) -> None:
    """Write p_bar*||A f||^2 into out: the trace, plus each pair product
    times its weight, added pair by pair in a fixed order. With a row of
    out per level, trace and each weights[p] are columns over the levels,
    and each value gets the operations, so the bits, of its level alone."""
    out[...] = trace
    for w, pair in zip(weights, pairs):
        out += w * pair
    out *= p_bar


def snr_profile(y_values, etas, paths: PathSet, cfg: ArrayConfig,
                p_bar: float = 1.0, _levels: dict | None = None) -> np.ndarray:
    """p_bar*||A(eta) f(y)||^2 at each level in etas over a batch of
    positions, shape (len(etas), B).

    With G = A^H A and unit-modulus phases f_i(y),
    ||A f||^2 = sum_i G_ii + 2 sum_{i<j} Re(G_ij conj(f_i) f_j). The
    eta-independent pair products are formed once and summed for every
    level in one pass (_level_sum), so a value depends on neither its batch
    nor the other levels asked (a BLAS matvec rounds a column by its place
    in the batch). _levels, when given, holds the Gram terms across calls.
    """
    y_values = np.atleast_1d(np.asarray(y_values, dtype=np.float64))
    pairs = _pair_products(y_values, paths, cfg)
    levels = [_level(eta, paths, cfg, _levels) for eta in etas]
    out = np.empty((len(levels), y_values.size))
    weights = np.reshape([lv.weights for lv in levels], (len(levels), len(pairs)))
    _level_sum(out, np.array([lv.trace for lv in levels])[:, None],
               weights.T[:, :, None], pairs, p_bar)
    return out


_BLOCK_ENTRIES = 1 << 15  # pair products plus the level row per snr_scan block
_BOUND_MARGIN = 1e-9  # relative; rounding moves a value by under 1e-13 of its bound
_CELL_WAVELENGTHS = 1 / 8  # width of snr_scan's coarse cells


def _runs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integers of the ranges [a[k], b[k]), concatenated in order."""
    n = b - a
    return np.arange(n.sum()) + np.repeat(a - (np.cumsum(n) - n), n)


def snr_scan(paths: PathSet, cfg: ArrayConfig, step: float,
             p_bar: float = 1.0, _levels: dict | None = None
             ) -> tuple[float, float, int, int]:
    """Grid maximum (value, y, eta, evals) of p_bar*||A(eta) f(y)||^2.

    Level eta is searched on position_grid(*cfg.position_bounds(eta), step).
    No grid is built: its points come from optim.grid_end and grid_points.
    Pair products are formed in blocks of at most _BLOCK_ENTRIES pair
    products and level values.

    Branch and bound over the levels: no value of level eta exceeds
    b(eta) = p_bar*(sum_ij |G_ij(eta)|). Levels are visited in decreasing
    b(eta), and a level is skipped once b(eta)*(1 + _BOUND_MARGIN) is below
    the best value scored so far; such a level can neither win nor tie.

    Branch and bound over positions: a coarse pass scores each level's
    knots, every c-th point of its grid (c grid steps make about
    _CELL_WAVELENGTHS; c = 1 makes every point a knot), then its last point.
    snr is a trigonometric polynomial in y with |snr''| <= M2 =
    p_bar*curvature, so in a cell [a, b] between knots, H = y_b - y_a,
    snr <= max(snr(a), snr(b)) + M2*H^2/8, the error bound of linear
    interpolation. A computed value is within 1e-13*b(eta) of the exact one
    at its y, and the rounding of M2*H^2/8 is smaller still, so a cell whose
    computed max(v_a, v_b) + M2*H^2/8 + 2*_BOUND_MARGIN*b(eta) is below the
    best value scored holds no point that can win or tie. Only the inside
    points of the other cells are scored.

    The result is that of scoring every point: each level keeps its first
    maximum by grid index, ties go to the smaller eta, and evals sums the
    grid sizes, each point counted whether it was scored or covered by its
    level's or its cell's bound. _levels, when given, holds the levels'
    Gram terms across calls.
    """
    etas = cfg.feasible_etas()
    if not etas:
        raise ValueError("movable region admits no feasible sparsity level")
    lo = cfg.y_min
    size, last = zip(*(grid_end(lo, cfg.position_bounds(eta)[1], step)
                       for eta in etas))
    size, last = dict(zip(etas, size)), dict(zip(etas, last))
    levels = {eta: _level(eta, paths, cfg, _levels) for eta in etas}
    ceiling = {eta: p_bar * levels[eta].bound * (1.0 + _BOUND_MARGIN)
               for eta in etas}  # b(eta) with its margin
    order = sorted(etas, key=lambda e: -ceiling[e])
    c = max(1, round(_CELL_WAVELENGTHS * cfg.wavelength / step))
    knots = {n: np.append(np.arange(0, n - 1, c), n - 1)
             for n in set(size.values())}  # grid indices, by grid size
    knots = {eta: knots[size[eta]] for eta in etas}
    strided = {eta: knots[eta].size - 1 for eta in etas}  # knots 0, c, ...
    knot_vals = {}  # level -> its values at its knots, once it is scored
    best = {}  # level -> (value, -index, y) of its first maximum among scored points
    top = -np.inf  # best value scored so far

    def score(eta, idx, ys, pairs, out=None):
        nonlocal top
        out = np.empty(ys.size) if out is None else out
        _level_sum(out, levels[eta].trace, levels[eta].weights, pairs, p_bar)
        i = int(np.argmax(out))
        point = (float(out[i]), -int(idx[i]))
        if eta not in best or point > best[eta][:2]:
            best[eta] = (*point, float(ys[i]))
            top = max(top, point[0])

    def values(eta):
        if eta not in knot_vals:
            knot_vals[eta] = np.empty(knots[eta].size)
        return knot_vals[eta]

    live = order
    block = max(1, _BLOCK_ENTRIES // (paths.L * (paths.L - 1) + 1))
    for start in range(0, max(strided.values()), block):
        live = [eta for eta in live if strided[eta] > start and ceiling[eta] >= top]
        if not live:
            break
        idx = c * np.arange(start, min(start + block,
                                       max(strided[eta] for eta in live)))
        ys = grid_points(lo, step, idx)
        pairs = _pair_products(ys, paths, cfg)
        for eta in live:
            if ceiling[eta] < top:
                break  # and every level after it
            n = min(strided[eta] - start, ys.size)
            score(eta, idx[:n], ys[:n], pairs[:, :n], values(eta)[start:start + n])
    tails = [eta for eta in order if ceiling[eta] >= top]  # their last points
    ys = np.array([last[eta] for eta in tails])
    pairs = _pair_products(ys, paths, cfg)
    for j, eta in enumerate(tails):
        if ceiling[eta] >= top:
            score(eta, [size[eta] - 1], ys[j:j + 1], pairs[:, j:j + 1],
                  values(eta)[-1:])
    need = {}  # level -> grid indices inside the cells its bound keeps
    for eta in order:
        if ceiling[eta] < top:
            break
        a, b, v, level = knots[eta][:-1], knots[eta][1:], knot_vals[eta], levels[eta]
        y = np.append(grid_points(lo, step, a), last[eta])
        h = y[1:] - y[:-1]
        reach = (np.maximum(v[:-1], v[1:]) + (p_bar * level.curvature / 8.0) * h * h
                 + 2.0 * _BOUND_MARGIN * p_bar * level.bound)
        cells = (reach >= top) & (b - a > 1)
        if cells.any():
            need[eta] = _runs(a[cells] + 1, b[cells])
    if need:
        union = np.sort(np.concatenate(list(need.values())))
        union = union[np.append(True, union[1:] != union[:-1])]
        cols = {eta: np.searchsorted(union, idx) for eta, idx in need.items()}
        for start in range(0, union.size, block):
            stop = min(start + block, union.size)
            ys = grid_points(lo, step, union[start:stop])
            pairs = _pair_products(ys, paths, cfg)
            for eta, col in cols.items():
                i, j = np.searchsorted(col, [start, stop])
                if i == j or ceiling[eta] < top:
                    continue
                at = col[i:j] - start
                if at.size == ys.size:
                    score(eta, need[eta][i:j], ys, pairs)
                else:
                    score(eta, need[eta][i:j], ys[at], pairs[:, at])
    eta = max((e for e in etas if e in best), key=lambda e: best[e][0])
    return best[eta][0], best[eta][2], eta, sum(size.values())


@dataclass(frozen=True)
class ScaState:
    """Surrogate data at the current expansion position y_j.

    b = A^H A f(y_j) collects each path's aggregate contribution; g_prime is
    the ascent direction and xi the curvature cap that makes the quadratic
    model a global lower bound. objective is ||A f(y_j)||^2.
    """

    y_j: float
    b: np.ndarray
    g_prime: float
    xi: float
    objective: float


def make_sca_state(y_j: float, A: np.ndarray, paths: PathSet,
                   cfg: ArrayConfig) -> ScaState:
    f_j = path_phases([y_j], paths.aoas, cfg)[0]
    b = A.conj().T @ (A @ f_j)
    objective = float(np.real(np.vdot(f_j, b)))
    k0 = 2.0 * np.pi / cfg.wavelength
    sin_t = np.sin(paths.aoas)
    abs_b = np.abs(b)
    arg = k0 * y_j * sin_t - np.angle(b)
    g_prime = -k0 * float(np.sum(abs_b * sin_t * np.sin(arg)))
    xi = k0 * k0 * float(np.sum(abs_b))
    return ScaState(y_j=float(y_j), b=b, g_prime=g_prime, xi=xi,
                    objective=objective)


def surrogate_step(state: ScaState, bounds: tuple[float, float]) -> float:
    """Maximizer of the quadratic minorant over [lo, hi].

    The unconstrained peak sits at y_j + g'(y_j)/xi and is clamped to the
    movable region. A state with b = 0 (hence xi = 0) has a locally flat
    objective and maps to y_j unchanged.
    """
    lo, hi = bounds
    if state.xi == 0.0:
        return state.y_j
    return float(np.clip(state.y_j + state.g_prime / state.xi, lo, hi))


def optimize_position_sca(eta: int, paths: PathSet, y0: float,
                          settings: OptimizerSettings, cfg: ArrayConfig
                          ) -> tuple[float, float, list[float]]:
    """Ascend ||A(eta) f(y)||^2 from y0 by successive surrogate maximization.

    Returns (y_star, objective, trace); the trace starts at the objective of
    y0 and is non-decreasing because each step maximizes a global lower
    bound that is tight at the expansion point.
    """
    eta = cfg.validate_eta(eta)
    bounds = cfg.position_bounds(eta)
    y = cfg.validate_position(y0, eta)
    A = path_matrix(eta, paths, cfg)
    state = make_sca_state(y, A, paths, cfg)
    trace = [state.objective]
    for _ in range(settings.max_sca_iters):
        y_next = surrogate_step(state, bounds)
        if y_next == state.y_j:
            break
        nxt = make_sca_state(y_next, A, paths, cfg)
        trace.append(nxt.objective)
        increase = nxt.objective - state.objective
        stop = increase <= settings.epsilon * abs(state.objective)
        state = nxt
        if stop:
            break
    return state.y_j, state.objective, trace


def optimize_sparsity(y: float, paths: PathSet, cfg: ArrayConfig,
                      _levels: dict | None = None) -> tuple[int, float]:
    """Exhaustive sparsity search at fixed y; ties go to the smaller eta.
    _levels, when given, holds the levels' Gram terms across calls."""
    etas = cfg.feasible_etas(y)
    if not etas:
        raise ValueError(f"no feasible sparsity level at y = {y}")
    vals = snr_profile([y], etas, paths, cfg, _levels=_levels)[:, 0]
    i = int(np.argmax(vals))
    return etas[i], float(vals[i])


def optimize_single_user(paths: PathSet, settings: OptimizerSettings,
                         cfg: ArrayConfig, p_bar: float = 1.0,
                         grid: GridSpec = GridSpec(), extra_candidates=(),
                         _levels: dict | None = None) -> GmaSolution:
    """optimize_multiuser's search on snr_profile's values, run at p_bar = 1
    and scaled: snr_scan's maximum on the grid.resolve_step grid and the
    injected extra_candidates, then optim.alternate with optimize_sparsity.
    Each position update ends in the surrogate ascent (optimize_position_sca),
    kept only if snr_profile scores it higher; sca_iters holds its steps and
    evals its iterates and end point. _levels, when given, holds the levels'
    Gram terms across calls; a call builds each once otherwise.
    """
    levels = {} if _levels is None else _levels
    step = grid.resolve_step(cfg.wavelength)
    best_val, best_y, best_eta, evals = snr_scan(paths, cfg, step, _levels=levels)
    for y_c, eta_c in extra_candidates:
        val = float(snr_profile([y_c], [eta_c], paths, cfg, _levels=levels)[0, 0])
        evals += 1
        if val > best_val:
            best_val, best_y, best_eta = val, y_c, eta_c
    sca_iters: list[int] = []

    def ascend(y, val, eta):
        y_sca, _, trace = optimize_position_sca(eta, paths, y, settings, cfg)
        sca_iters.append(len(trace) - 1)
        v = float(snr_profile([y_sca], [eta], paths, cfg, _levels=levels)[0, 0])
        return (y_sca, v, len(trace)) if v > val else (y, val, len(trace))

    sol = alternate(
        (best_val, best_y, best_eta, evals), cfg, step, grid, settings,
        lambda pts, eta: snr_profile(pts, [eta], paths, cfg, _levels=levels)[0],
        lambda y: optimize_sparsity(y, paths, cfg, levels), ascend)
    return replace(sol, objective=p_bar * sol.objective,
                   trace=tuple(p_bar * v for v in sol.trace),
                   sca_iters=tuple(sca_iters))
