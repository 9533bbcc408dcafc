"""Comparison schemes: fixed compact array, per-element movable antennas,
and a dense two-dimensional grid search.

The fixed-position array (FPA) is the compact selection (stride 1) parked
at the bottom of the movable region. The movable-antenna (MA) benchmark
lets each of the N elements move independently, subject to a half-wavelength
minimum spacing, over the span the group array can physically reach; it is
optimized by cyclic coordinate ascent. Its channels are built per element
(arrays.element_channels), so a slot scan builds only the moving antenna's
column per candidate. The grid search (the "oracle" scheme) scans the full
(position, sparsity) product grid with the scans the GMA optimizers start
from, sca.snr_scan for one user and multiuser.scan for several, at a finer
step (wavelength/1000 by default). It is a reference, not a bound: the
optimizers refine between its points and can score above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, element_channels
from .combining import LinkPowers, PointScores, batch_objective
from .multiuser import scan
from .optim import GridSpec, OptimizerSettings, position_grid, refine
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
    """Channels for a batch of arbitrary layouts, shape (B, K, N): user k's
    element_channels at each layout's positions (B, N)."""
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    return np.stack([element_channels(positions, u, cfg) for u in users], axis=1)


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
    """Antenna n's position: a scan of [lo_n, hi_n] at step, then
    optim.refine's windows around the best; ties keep the incumbent.

    Returns (position, metric, layouts scored).
    """
    # not through layout_channel_stack, whose rows count the layouts scored
    fixed = np.stack([element_channels(pos, u, cfg) for u in users])

    def score(cand):
        H = np.repeat(fixed[None], cand.size, axis=0)
        H[:, :, n] = layout_channel_stack(cand[:, None], users, cfg)[:, :, 0]
        return batch_objective(H, powers)

    cand = position_grid(lo_n, hi_n, step)
    vals = score(cand)
    i = int(np.argmax(vals))
    y, v = (float(cand[i]), float(vals[i])) if vals[i] > val else (float(pos[n]), val)
    y, v, evals = refine(y, v, lo_n, hi_n, step, grid, score)
    return y, v, cand.size + evals


def exhaustive_search(users, powers: LinkPowers, cfg: ArrayConfig,
                      fine_step: float, _levels: dict | None = None
                      ) -> tuple[float, int, float, int]:
    """Grid search: best (y, eta, metric, evals) over the full
    position-sparsity product grid, level eta on
    position_grid(*cfg.position_bounds(eta), fine_step): sca.snr_scan for one
    user, multiuser.scan for several. Ties go to the smaller eta, then the
    smaller grid index. evals counts every grid point, scored or, on one
    user, covered by a Gram or curvature bound. _levels, when given, holds
    one user's Gram terms across calls, as optimize_single_user's. It is a
    reference for the optimizers, not a bound: they refine between its points.
    """
    if not fine_step > 0:
        raise ValueError(f"grid step must be positive, got {fine_step}")
    feas = cfg.feasible_etas()
    if not feas:
        raise ValueError("movable region admits no feasible sparsity level")
    if powers.K == 1:
        val, y, eta, evals = snr_scan(users[0], cfg, fine_step,
                                      float(powers.p_bar[0]), _levels)
    else:
        val, y, eta, evals = scan([(feas, cfg)], fine_step, users, powers)[0]
    return y, eta, val, evals
