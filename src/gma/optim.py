"""Shared optimizer settings, grid specification, and solution record."""

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
    trace holds the best objective seen after each outer round and is
    non-decreasing; evals counts the (y, eta) points the search compared,
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
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return np.array([lo])
    count = np.floor((hi - lo) / step + 1e-9)
    if not count < np.iinfo(np.intp).max:
        raise ValueError(f"grid step {step} over [{lo}, {hi}] gives {count + 1:.4g} "
                         "points, more than numpy can index")
    pts = lo + step * np.arange(int(count) + 1)
    if pts[-1] > hi:
        pts[-1] = hi
    elif pts[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        pts = np.append(pts, hi)
    return pts
