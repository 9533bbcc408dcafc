"""Shared optimizer settings, grid specification, and solution record."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class OptimizerSettings:
    """Stopping rules and initialization knobs shared by the optimizers.

    Attributes:
        epsilon: stop when the fractional objective increase per outer round
            falls below this threshold.
        max_sca_iters: cap on surrogate-ascent iterations per position
            subproblem.
        max_alt_iters: cap on alternating (position / sparsity) rounds.
        multistart_grid_step: coarse-grid step (meters) used to seed each
            position subproblem; None means wavelength/4.
        eta_init: starting sparsity level for the single-user optimizer;
            None picks the best point of the coarse grid scanned over all
            feasible levels.
        warm_start: include the incumbent position among the multistart
            candidates of each round.
    """

    epsilon: float = 1e-4
    max_sca_iters: int = 200
    max_alt_iters: int = 50
    multistart_grid_step: float | None = None
    eta_init: int | None = None
    warm_start: bool = True

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_sca_iters < 1 or self.max_alt_iters < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.multistart_grid_step is not None and not self.multistart_grid_step > 0:
            raise ValueError("multistart grid step must be positive")


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
        if self.step is not None and not self.step > 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
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
    trace holds the best objective seen after each outer round and is
    non-decreasing; evals counts metric evaluations.
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
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return np.array([lo])
    count = int(np.floor((hi - lo) / step + 1e-9))
    pts = lo + step * np.arange(count + 1)
    if pts[-1] > hi:
        pts[-1] = hi
    elif pts[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        pts = np.append(pts, hi)
    return pts
