"""Comparison schemes: fixed compact array, per-element movable antennas,
and a dense two-dimensional grid search.

The fixed-position array (FPA) is the compact selection (stride 1) parked
at the bottom of the movable region. The movable-antenna (MA) benchmark
lets each of the N elements move independently, subject to a half-wavelength
minimum spacing, over the span the group array can physically reach; it is
optimized by cyclic coordinate ascent. The grid search (the "oracle"
scheme) scans the full (position, sparsity) product grid: sca.snr_scan for
one user, multiuser.scan for several. It is a reference, not a bound: the
optimizers refine between its points and can score above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig
from .combining import LinkPowers, PointScores, batch_objective
from .multiuser import scan
from .optim import GridSpec, OptimizerSettings, position_grid
from .sca import snr_scan

_GAP_TOL = 1e-9


def fpa_metric(users, powers: LinkPowers, cfg: ArrayConfig,
               scores: PointScores | None = None) -> float:
    """Metric of the compact array fixed at the bottom of the region.

    scores is the trial's memo of these users' values, as optimize_multiuser
    takes it.
    """
    return PointScores.over(users, powers, scores).point(cfg.y_min, 1, cfg)


def ma_span(cfg: ArrayConfig) -> tuple[float, float]:
    """Per-element movable span: the reach of the group array's selections."""
    return cfg.y_min, cfg.y_max + (cfg.M - 1) * cfg.d


@dataclass(frozen=True)
class MaLayout:
    """Per-antenna positions with minimum-spacing and span constraints."""

    positions: np.ndarray
    min_gap: float
    lo: float
    hi: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64).copy()
        if pos.ndim != 1 or pos.size < 2:
            raise ValueError("layout needs at least two positions")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        slack = _GAP_TOL * self.min_gap
        if np.any(np.diff(pos) < self.min_gap - slack):
            raise ValueError("adjacent antennas closer than the minimum spacing")
        if pos[0] < self.lo - slack or pos[-1] > self.hi + slack:
            raise ValueError(f"layout leaves the span [{self.lo}, {self.hi}]")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)


def gma_element_positions(y: float, eta: int, cfg: ArrayConfig) -> np.ndarray:
    """Element positions y + n*eta*d of the group array's selection."""
    eta = cfg.validate_eta(eta)
    return y + np.arange(cfg.N) * eta * cfg.d


def layout_channel_stack(positions: np.ndarray, users, cfg: ArrayConfig) -> np.ndarray:
    """Channels for a batch of arbitrary layouts, shape (B, K, N).

    Element n of user k's channel is sum_l gain_l * exp(1j*2*pi/wavelength
    * positions[n] * sin(aoa_l)); this generalizes the group-array channel
    to non-uniform element placement.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    k0 = 2.0 * np.pi / cfg.wavelength
    per_user = []
    for u in users:
        phase = k0 * positions[:, :, None] * np.sin(u.aoas)
        per_user.append(np.exp(1j * phase) @ u.gains)
    return np.stack(per_user, axis=1)


def layout_metric(positions: np.ndarray, users, powers: LinkPowers,
                  cfg: ArrayConfig) -> float:
    """Scheme metric (SNR or sum rate) of one layout."""
    H = layout_channel_stack(np.asarray(positions)[None, :], users, cfg)
    return float(batch_objective(H, powers)[0])


def ma_optimize(users, powers: LinkPowers, cfg: ArrayConfig,
                grid: GridSpec = GridSpec(),
                settings: OptimizerSettings = OptimizerSettings(),
                init: np.ndarray | None = None,
                restarts: int = 0, seed: int = 0) -> tuple[MaLayout, float, int]:
    """Cyclic coordinate ascent over per-antenna positions.

    One antenna moves at a time over a refined grid between its neighbors'
    spacing buffers; sweeps repeat until the fractional improvement drops
    below settings.epsilon. Ascent never degrades the start, so seeding with
    a group-array solution's element positions guarantees at least its
    metric. Additional random feasible starts are controlled by restarts.

    Returns (layout, metric, evals); evals counts the layouts scored.
    """
    lo, hi = ma_span(cfg)
    gap = cfg.wavelength / 2.0
    n_el = cfg.N
    if hi - lo < (n_el - 1) * gap:
        raise ValueError("span too small for the required element spacing")
    starts = []
    if init is not None:
        starts.append(np.asarray(init, dtype=np.float64).copy())
    else:
        starts.append(lo + gap * np.arange(n_el))
    rng = np.random.default_rng(seed)
    free = (hi - lo) - (n_el - 1) * gap
    for _ in range(restarts):
        offsets = np.sort(rng.uniform(0.0, free, n_el))
        starts.append(lo + offsets + gap * np.arange(n_el))
    best_pos, best_val, evals = None, -np.inf, 0
    for start in starts:
        pos, val, ev = _coordinate_ascent(start, users, powers, cfg, grid,
                                          settings, lo, hi, gap)
        evals += ev
        if val > best_val:
            best_pos, best_val = pos, val
    layout = MaLayout(positions=best_pos, min_gap=gap, lo=lo, hi=hi)
    return layout, best_val, evals


def _coordinate_ascent(positions, users, powers, cfg, grid, settings,
                       lo, hi, gap):
    pos = np.asarray(positions, dtype=np.float64).copy()
    if pos.size != cfg.N or np.any(np.diff(pos) < gap - _GAP_TOL * gap):
        raise ValueError("infeasible starting layout")
    step = grid.resolve_step(cfg.wavelength)
    val, evals = layout_metric(pos, users, powers, cfg), 1
    for _ in range(settings.max_alt_iters):
        prev = val
        for n in range(pos.size):
            lo_n = pos[n - 1] + gap if n > 0 else lo
            hi_n = pos[n + 1] - gap if n < pos.size - 1 else hi
            if hi_n < lo_n:
                # neighbors at the minimum spacing leave no room, and
                # rounding can put hi_n an ulp below lo_n: keep the antenna
                continue
            pos[n], val, ev = _slot_scan(pos, n, lo_n, hi_n, step, val,
                                         users, powers, cfg, grid)
            evals += ev
        if val - prev <= settings.epsilon * abs(prev):
            break
    return pos, val, evals


def _slot_scan(pos, n, lo_n, hi_n, step, val, users, powers, cfg, grid):
    """Refined 1-D scan of antenna n's position; keeps the incumbent on ties.

    Returns (position, metric, layouts scored).
    """
    best_p, best_v, evals = float(pos[n]), val, 0
    window_lo, window_hi, scan_step = lo_n, hi_n, step
    for level in range(grid.refine_levels + 1):
        cand = position_grid(window_lo, window_hi, scan_step)
        batch = np.broadcast_to(pos, (cand.size, pos.size)).copy()
        batch[:, n] = cand
        vals = batch_objective(layout_channel_stack(batch, users, cfg), powers)
        evals += cand.size
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_p, best_v = float(cand[i]), float(vals[i])
        window_lo = max(lo_n, best_p - scan_step)
        window_hi = min(hi_n, best_p + scan_step)
        scan_step = scan_step / grid.refine_factor
    return best_p, best_v, evals


def exhaustive_search(users, powers: LinkPowers, cfg: ArrayConfig,
                      fine_step: float) -> tuple[float, int, float, int]:
    """Grid search: best (y, eta, metric, evals) over the full
    position-sparsity product grid.

    One user is scanned by sca.snr_scan, several by multiuser.scan; both
    search level eta on position_grid(*cfg.position_bounds(eta), fine_step).
    Ties resolve toward the smaller sparsity level, then the smaller grid
    index. evals counts the (y, eta) grid points searched, each whether it
    was scored or, on one user, covered by its level's Gram bound. It is a
    reference for the optimizers, not a bound on them: they refine between
    its points.
    """
    if not fine_step > 0:
        raise ValueError(f"grid step must be positive, got {fine_step}")
    feas = cfg.feasible_etas()
    if not feas:
        raise ValueError("movable region admits no feasible sparsity level")
    if powers.K == 1:
        val, y, eta, evals = snr_scan(users[0], cfg, fine_step,
                                      float(powers.p_bar[0]))
    else:
        val, y, eta, evals = scan([(feas, cfg)], fine_step, users, powers)[0]
    return y, eta, val, evals
