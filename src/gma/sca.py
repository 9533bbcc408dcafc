"""Single-user joint position / sparsity optimization.

The SNR at sparsity eta and reference position y is p_bar*||A(eta) f(y)||^2
with A(eta) the gain-weighted sparse steering matrix (one column per path)
and f(y) the vector of per-path position phases. The position subproblem is
solved by ascending a concave quadratic minorant (successive convex
approximation); the sparsity subproblem by exhaustive discrete search; the
two alternate until the objective stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, PathSet, path_phases, sparse_steering_matrix
from .optim import GmaSolution, OptimizerSettings, position_grid


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


def snr_profile(y_values, eta: int, paths: PathSet, cfg: ArrayConfig,
                p_bar: float = 1.0) -> np.ndarray:
    """p_bar*||A(eta) f(y)||^2 over a batch of positions, shape (B,)."""
    y_values = np.atleast_1d(np.asarray(y_values, dtype=np.float64))
    A = path_matrix(eta, paths, cfg)
    Q = A.conj().T @ A
    W = path_phases(y_values, paths.aoas, cfg)
    return p_bar * np.einsum("bi,ij,bj->b", W.conj(), Q, W).real


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
    best_eta, best_val = None, -np.inf
    for eta in cfg.feasible_etas(y):
        val = float(snr_profile(np.array([y]), eta, paths, cfg)[0])
        if val > best_val:
            best_eta, best_val = eta, val
    if best_eta is None:
        raise ValueError(f"no feasible sparsity level at y = {y}")
    return best_eta, best_val


def optimize_single_user(paths: PathSet, settings: OptimizerSettings,
                         cfg: ArrayConfig, p_bar: float = 1.0) -> GmaSolution:
    """Alternate SCA position updates with discrete sparsity search.

    Initialization: the starting (position, sparsity) pair is the best
    point of a wavelength/4 multistart grid scanned across every feasible
    sparsity level; alternation from the largest aperture alone stalls in
    joint local optima far more often.

    Each subsequent round seeds the position subproblem from the same grid
    plus the incumbent, runs the surrogate ascent, then re-optimizes the
    sparsity at the new position. Rounds stop when the fractional
    objective increase drops below settings.epsilon.
    """
    feasible = cfg.feasible_etas()
    if not feasible:
        raise ValueError("movable region admits no feasible sparsity level")
    step = cfg.wavelength / 4.0
    evals = 0
    best_val, best_y, best_eta = -np.inf, None, None
    for e in feasible:
        cand = position_grid(*cfg.position_bounds(e), step)
        vals = snr_profile(cand, e, paths, cfg)
        evals += cand.size
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_y, best_eta = float(vals[i]), float(cand[i]), e
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
            vals = snr_profile(cand, eta, paths, cfg)
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
