"""Single-user joint position / sparsity optimization.

The SNR at sparsity eta and reference position y is p_bar*||A(eta) f(y)||^2
with A(eta) the gain-weighted sparse steering matrix (one column per path)
and f(y) the vector of per-path position phases. One arithmetic path scores
that quantity: pair products of the phases (_pair_products), summed per
level with its Gram entries (_level_sum). snr_profile scores SCA's grids
and its sparsity search with it. snr_scan, the single-user grid search (SCA's
start and the K = 1 oracle), scores with it too, and skips each level once
the level's Gram bound p_bar*sum_ij |G_ij| falls below the best value found
(branch and bound over eta); its result is that of scoring every point. The
position subproblem is solved by ascending a concave quadratic minorant
(successive convex approximation); the sparsity subproblem by exhaustive
discrete search; the two alternate until the objective stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arrays import ArrayConfig, PathSet, path_phases, sparse_steering_matrix
from .optim import GmaSolution, OptimizerSettings, level_grids, position_grid


def path_matrix(eta: int, paths: PathSet, cfg: ArrayConfig) -> np.ndarray:
    """Gain-weighted sparse steering matrix, shape (N, L).

    Column l is gains[l] * sparse_steering_matrix(eta, aoas)[l]; the channel at
    position y is then A @ phase_vector(y).
    """
    abar = sparse_steering_matrix(eta, paths.aoas, cfg)  # (L, N)
    return (paths.gains[:, None] * abar).T


def phase_vector(y: float, paths: PathSet, cfg: ArrayConfig) -> np.ndarray:
    """Per-path position phases exp(1j*2*pi/wavelength * y * sin(aoa)), (L,)."""
    return np.exp(1j * (2.0 * np.pi / cfg.wavelength) * y * np.sin(paths.aoas))


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
    every position, since the phases f_i have unit modulus.
    """

    trace: float
    weights: list[float]
    bound: float


def _gram_level(eta: int, paths: PathSet, cfg: ArrayConfig) -> _Level:
    A = path_matrix(eta, paths, cfg)
    gram = A.conj().T @ A
    g = 2.0 * gram[_path_pairs(paths.L)]
    trace = float(np.real(np.trace(gram)))
    return _Level(trace, np.concatenate([g.real, -g.imag]).tolist(),
                  trace + float(np.sum(np.abs(g))))


def _level_sum(out: np.ndarray, level: _Level, pairs: np.ndarray,
               p_bar: float) -> None:
    """Write p_bar*||A f||^2 into out: the trace, plus each pair product
    times its weight, added pair by pair in a fixed order."""
    out[:] = level.trace
    for w, pair in zip(level.weights, pairs):
        out += w * pair
    out *= p_bar


def snr_profile(y_values, etas, paths: PathSet, cfg: ArrayConfig,
                p_bar: float = 1.0) -> np.ndarray:
    """p_bar*||A(eta) f(y)||^2 at each level in etas over a batch of
    positions, shape (len(etas), B).

    With G = A^H A and unit-modulus phases f_i(y),
    ||A f||^2 = sum_i G_ii + 2 sum_{i<j} Re(G_ij conj(f_i) f_j). A call forms
    the eta-independent pair products once, and each level sums them with
    its Gram entries in a fixed order (_level_sum), so a value does not
    depend on its batch (a BLAS matvec rounds a column by its place in the
    batch).
    """
    y_values = np.atleast_1d(np.asarray(y_values, dtype=np.float64))
    pairs = _pair_products(y_values, paths, cfg)
    out = np.empty((len(etas), y_values.size))
    for row, eta in zip(out, etas):
        _level_sum(row, _gram_level(eta, paths, cfg), pairs, p_bar)
    return out


_BLOCK_ENTRIES = 1 << 16  # pair products plus the level row per snr_scan block
_BOUND_MARGIN = 1e-9  # relative; rounding moves a value by under 1e-13 of its bound


def snr_scan(paths: PathSet, cfg: ArrayConfig, step: float,
             p_bar: float = 1.0) -> tuple[float, float, int, int]:
    """Grid maximum (value, y, eta, evals) of p_bar*||A(eta) f(y)||^2.

    Level eta is searched on position_grid(*cfg.position_bounds(eta), step),
    taken from optim.level_grids: a prefix of the grid of the largest upper
    end, scored in blocks of at most _BLOCK_ENTRIES pair products and level
    values, plus at most one end point, scored after the blocks.

    Branch and bound over the levels: no value of level eta exceeds
    b(eta) = p_bar*(sum_ij |G_ij(eta)|). A block visits its levels in
    decreasing b(eta) and skips a level, its upper end included, once
    b(eta)*(1 + _BOUND_MARGIN) is below the best value scored so far; such a
    level can neither win nor tie. The result is that of scoring every
    point: ties go to the smaller eta, then the smaller index, and evals
    sums the grid sizes, each point counted whether it was scored or
    covered by its level's bound.
    """
    etas = cfg.feasible_etas()
    if not etas:
        raise ValueError("movable region admits no feasible sparsity level")
    pts, parts = level_grids(cfg.y_min,
                             [cfg.position_bounds(eta)[1] for eta in etas], step)
    size, ends = ({eta: part[k] for eta, part in zip(etas, parts)} for k in (0, 1))
    levels = {eta: _gram_level(eta, paths, cfg) for eta in etas}
    ceiling = {eta: p_bar * levels[eta].bound * (1.0 + _BOUND_MARGIN)
               for eta in etas}  # b(eta) with its margin
    order = sorted(etas, key=lambda e: -ceiling[e])
    best = {}  # level -> (value, y) of its first maximum among scored points
    top = -np.inf  # best value scored so far

    def score(eta, ys, pairs, out):
        nonlocal top
        _level_sum(out, levels[eta], pairs, p_bar)
        i = int(np.argmax(out))
        if eta not in best or out[i] > best[eta][0]:
            best[eta] = (float(out[i]), float(ys[i]))
            top = max(top, best[eta][0])

    live = order
    block = max(1, _BLOCK_ENTRIES // (paths.L * (paths.L - 1) + 1))
    row = np.empty(min(block, pts.size))
    for start in range(0, max(size.values()), block):
        live = [eta for eta in live if size[eta] > start and ceiling[eta] >= top]
        if not live:
            break
        ys = pts[start:min(start + block, max(size[eta] for eta in live))]
        pairs = _pair_products(ys, paths, cfg)
        for eta in live:
            if ceiling[eta] < top:
                break  # and every level after it
            n = min(size[eta] - start, ys.size)
            score(eta, ys[:n], pairs[:, :n], row[:n])
    for eta in order:
        if ends[eta].size and ceiling[eta] >= top:
            score(eta, ends[eta], _pair_products(ends[eta], paths, cfg),
                  np.empty(ends[eta].size))
    eta = max((e for e in etas if e in best), key=lambda e: best[e][0])
    return (*best[eta], eta, sum(size[e] + ends[e].size for e in etas))


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
    f_j = phase_vector(y_j, paths, cfg)
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
        if state.xi == 0.0:
            break
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


def optimize_sparsity(y: float, paths: PathSet, cfg: ArrayConfig
                      ) -> tuple[int, float]:
    """Exhaustive sparsity search at fixed y; ties go to the smaller eta."""
    etas = cfg.feasible_etas(y)
    if not etas:
        raise ValueError(f"no feasible sparsity level at y = {y}")
    vals = snr_profile([y], etas, paths, cfg)[:, 0]
    i = int(np.argmax(vals))
    return etas[i], float(vals[i])


def optimize_single_user(paths: PathSet, settings: OptimizerSettings,
                         cfg: ArrayConfig, p_bar: float = 1.0) -> GmaSolution:
    """Alternate SCA position updates with discrete sparsity search.

    Initialization: the starting (position, sparsity) pair is the best
    point of snr_scan's wavelength/4 grid over every feasible sparsity
    level; alternation from the largest aperture alone stalls in
    joint local optima far more often.

    Each subsequent round seeds the position subproblem from the same grid
    plus the incumbent, runs the surrogate ascent, then re-optimizes the
    sparsity at the new position. Rounds stop when the fractional
    objective increase drops below settings.epsilon.
    """
    step = cfg.wavelength / 4.0
    best_val, best_y, best_eta, evals = snr_scan(paths, cfg, step)
    prev, y, eta = best_val, best_y, best_eta
    trace: list[float] = []
    sca_iters: list[int] = []
    rounds = 0
    for r in range(settings.max_alt_iters):
        rounds += 1
        if r == 0:
            y0 = y  # the initialization scan already found the coarse argmax
        else:
            cand = np.append(position_grid(*cfg.position_bounds(eta), step), y)
            vals = snr_profile(cand, [eta], paths, cfg)[0]
            evals += cand.size
            y0 = float(cand[int(np.argmax(vals))])
        y_r, _, sca_trace = optimize_position_sca(eta, paths, y0, settings, cfg)
        evals += len(sca_trace)
        sca_iters.append(len(sca_trace) - 1)
        eta_r, obj_full = optimize_sparsity(y_r, paths, cfg)
        evals += len(cfg.feasible_etas(y_r))
        if obj_full > best_val:
            best_val, best_y, best_eta = obj_full, y_r, eta_r
        trace.append(best_val)
        y, eta = y_r, eta_r
        if best_val - prev <= settings.epsilon * abs(prev):
            break
        prev = best_val
    return GmaSolution(
        y_star=best_y,
        eta_star=best_eta,
        objective=p_bar * best_val,
        trace=tuple(p_bar * v for v in trace),
        evals=evals,
        rounds=rounds,
        sca_iters=tuple(sca_iters),
    )
