"""Array geometry, steering vectors, and multipath channel synthesis.

The receiver is a uniform sparse array carved out of a dense physical
array of M half-wavelength-spaced elements: N of them (one per RF chain)
are activated with a uniform stride eta, and the whole selection slides
along the y-axis as a rigid group. The reference (bottom) element sits at
position y inside the movable region [y_min, y_max].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def wavelength_from_frequency(f_hz: float) -> float:
    """Carrier wavelength in meters for a carrier frequency in Hz."""
    if not f_hz > 0:
        raise ValueError(f"carrier frequency must be positive, got {f_hz}")
    return SPEED_OF_LIGHT / f_hz


def max_sparsity(M: int, N: int) -> int:
    """Largest stride eta such that N selected elements fit in M physical ones.

    The selected aperture (N-1)*eta*d may not exceed the physical aperture
    (M-1)*d, so eta_max = floor((M-1)/(N-1)).
    """
    M = _as_int(M, "M")
    N = _as_int(N, "N")
    if N < 2:
        raise ValueError(f"need at least 2 selected elements, got N={N}")
    if M < N:
        raise ValueError(f"physical array too small: M={M} < N={N}")
    return (M - 1) // (N - 1)


@dataclass(frozen=True)
class ArrayConfig:
    """Physical array plus movable-region geometry.

    Attributes:
        M: number of physical array elements.
        N: number of RF chains, i.e. selected (active) elements.
        wavelength: carrier wavelength in meters; the physical
            inter-element spacing d is wavelength/2.
        y_min, y_max: movable-region bounds for the reference element, meters.
        confine_aperture: if True, also require the top selected element to
            stay below y_max (y + (N-1)*eta*d <= y_max). The default follows
            the problem statement and constrains the reference element only.
            position_bounds applies it, feasible_etas derives the admissible
            levels from those bounds, and multiuser.scan gives each distinct
            interval its own grid.
    """

    M: int
    N: int
    wavelength: float
    y_min: float
    y_max: float
    confine_aperture: bool = False

    def __post_init__(self):
        object.__setattr__(self, "M", _as_int(self.M, "M"))
        object.__setattr__(self, "N", _as_int(self.N, "N"))
        if self.N < 2:
            raise ValueError(f"need at least 2 RF chains, got N={self.N}")
        if self.M < self.N:
            raise ValueError(f"M={self.M} must be >= N={self.N}")
        if not _as_real(self.wavelength, "wavelength") > 0:
            raise ValueError(f"invalid wavelength {self.wavelength}")
        _as_pair((self.y_min, self.y_max), "movable region bounds")
        if self.y_min > self.y_max:
            raise ValueError(f"empty movable region [{self.y_min}, {self.y_max}]")

    @property
    def d(self) -> float:
        return self.wavelength / 2.0

    @property
    def d_bar(self) -> float:
        """Spacing normalized by the wavelength."""
        return self.d / self.wavelength

    @property
    def eta_max(self) -> int:
        return max_sparsity(self.M, self.N)

    @property
    def physical_aperture(self) -> float:
        """Dimension (M-1)*d of the full physical array, meters."""
        return (self.M - 1) * self.d

    def sparse_aperture(self, eta: int) -> float:
        """Dimension (N-1)*eta*d of the selected array, meters."""
        return (self.N - 1) * self.validate_eta(eta) * self.d

    def validate_eta(self, eta) -> int:
        """Check that eta is an integer in {1, ..., eta_max} and return it."""
        if isinstance(eta, float) and not eta.is_integer():
            raise ValueError(f"sparsity level must be an integer, got {eta}")
        eta = _as_int(eta, "eta")
        if not 1 <= eta <= self.eta_max:
            raise ValueError(
                f"sparsity level {eta} outside {{1, ..., {self.eta_max}}}")
        return eta

    def position_bounds(self, eta: int) -> tuple[float, float]:
        """Admissible interval for the reference position at sparsity eta.

        With confine_aperture the selected array must fit entirely below
        y_max, which shrinks the upper bound; the interval can then be empty
        for large eta (lo > hi), which callers treat as infeasible.
        """
        eta = self.validate_eta(eta)
        if self.confine_aperture:
            return self.y_min, self.y_max - self.sparse_aperture(eta)
        return self.y_min, self.y_max

    def feasible_etas(self, y: float | None = None) -> list[int]:
        """Sparsity levels whose admissible position interval is non-empty.

        With y given, only the levels whose interval contains y.
        """
        out = []
        for eta in range(1, self.eta_max + 1):
            lo, hi = self.position_bounds(eta)
            if (lo <= hi) if y is None else (lo <= y <= hi):
                out.append(eta)
        return out

    def validate_position(self, y: float, eta: int) -> float:
        y = float(y)
        lo, hi = self.position_bounds(eta)
        if not (np.isfinite(y) and lo <= y <= hi):
            raise ValueError(f"position {y} outside movable region [{lo}, {hi}]")
        return y


@dataclass(frozen=True)
class PathSet:
    """One user's multipath description: L complex gains and L AoAs."""

    gains: np.ndarray
    aoas: np.ndarray

    def __post_init__(self):
        gains = np.atleast_1d(np.asarray(self.gains, dtype=np.complex128)).copy()
        aoas = np.atleast_1d(np.asarray(self.aoas, dtype=np.float64)).copy()
        if gains.ndim != 1 or aoas.shape != gains.shape or gains.size == 0:
            raise ValueError("gains and aoas must be equal-length non-empty 1-D arrays")
        if not np.all(np.isfinite(gains)):
            raise ValueError("path gains must be finite")
        if not np.all(np.isfinite(aoas)):
            raise ValueError("angles of arrival must be finite")
        if np.any(np.abs(aoas) > np.pi / 2):
            raise ValueError("angles of arrival must lie in [-pi/2, pi/2]")
        gains.flags.writeable = False
        aoas.flags.writeable = False
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "aoas", aoas)

    @property
    def L(self) -> int:
        return self.gains.size


def sparse_steering_matrix(eta: int, aoas: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Stacked sparse-array responses, shape (L, N), row l for AoA aoas[l]."""
    eta = cfg.validate_eta(eta)
    n = np.arange(cfg.N)
    phase = 2.0 * np.pi * eta * cfg.d_bar * np.outer(np.sin(aoas), n)
    return np.exp(1j * phase)


def path_phases(y_values, aoas: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Position phases exp(1j*2*pi/wavelength * y * sin(aoa)), shape (B, L).

    Row b holds every path's phase at y_values[b]. The table does not depend
    on the sparsity level, so dense (y, eta) scans compute it once and reuse
    it for every eta.
    """
    return np.exp(1j * (2.0 * np.pi / cfg.wavelength)
                  * np.outer(y_values, np.sin(aoas)))


def gain_weighted_shifts(y_values: np.ndarray, paths: PathSet,
                         cfg: ArrayConfig) -> np.ndarray:
    """Per-path gain times position phase for a batch of positions, (B, L)."""
    # real arithmetic: numpy's complex multiply rounds a one-entry product
    # (B = L = 1) in another loop than a longer one
    phases, gains = path_phases(y_values, paths.aoas, cfg), paths.gains
    out = np.empty(phases.shape, dtype=np.complex128)
    out.real = phases.real * gains.real - phases.imag * gains.imag
    out.imag = phases.real * gains.imag + phases.imag * gains.real
    return out


# -- the position lattice -----------------------------------------------------
#
# A channel row is built by one of two rules, chosen point by point from the
# reference position y alone, so a (y, eta) value never depends on its batch.
#
# The lattice has step u = d / LATTICE_STEPS (wavelength/1024 by default). y
# is on the lattice when y == y_min + t*u bit for bit, with
# t = rint((y - y_min) / u). Element n of a lattice candidate (y, eta) then
# sits at x = y_min + (t + LATTICE_STEPS*n*eta)*u, and its channel entry is
# c(x) = sum_l g_l exp(j k0 x sin theta_l): element_channels, which adds the
# gain_weighted_shifts columns in path order. It depends on the integer
# index only, so a scan reads every level's channels off one table of c per
# user (combining.metric_profiles). Off the lattice a row keeps the steering
# product sum_paths(gain_weighted_shifts(y), sparse_steering_matrix(eta)).
#
# The default wavelength/16 grid, and every position_grid anchored at y_min
# with a step of d/2**k, land on the lattice. Refinement windows and appended
# region ends mostly do not; they are few rows.

LATTICE_STEPS = 512  # lattice steps per element spacing d


def lattice_index(y_values, cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lattice indices t (int64, 0 off the lattice) and the on-lattice mask."""
    y = np.asarray(y_values, dtype=np.float64)
    u = cfg.d / LATTICE_STEPS
    t = np.rint((y - cfg.y_min) / u)
    on = (np.abs(t) < 2.0 ** 52) & (cfg.y_min + t * u == y)
    return np.where(on, t, 0.0).astype(np.int64), on


def element_channels(q: np.ndarray, paths: PathSet, cfg: ArrayConfig) -> np.ndarray:
    """Channel entries c(y_min + q*u) at integer lattice indices q, q's shape."""
    x = cfg.y_min + q.ravel() * (cfg.d / LATTICE_STEPS)
    shifts = gain_weighted_shifts(x, paths, cfg)
    acc = shifts[:, 0].copy()
    for col in shifts.T[1:]:
        acc += col
    return acc.reshape(q.shape)


def channel_profile(y_values: np.ndarray, eta: int, paths: PathSet,
                    cfg: ArrayConfig) -> np.ndarray:
    """Channels at many reference positions in one shot, shape (B, N).

    Row b holds the channel at (y_values[b], eta), built by the lattice rule
    above. Positions are not range-checked here; grid builders only produce
    in-region values.
    """
    eta = cfg.validate_eta(eta)
    y_values = np.asarray(y_values, dtype=np.float64)
    t, on = lattice_index(y_values, cfg)
    out = np.empty((y_values.size, cfg.N), dtype=np.complex128)
    if on.any():
        steps = LATTICE_STEPS * eta * np.arange(cfg.N)
        out[on] = element_channels(t[on, None] + steps, paths, cfg)
    if not on.all():
        out[~on] = sum_paths(gain_weighted_shifts(y_values[~on], paths, cfg),
                             sparse_steering_matrix(eta, paths.aoas, cfg))
    return out


def sum_paths(shifts: np.ndarray, abar: np.ndarray) -> np.ndarray:
    """Channels (B, N) from gain-weighted shifts (B, L) and steering rows (L, N).

    Adds the paths one at a time (each product spans N >= 2 entries), so row
    b gets the same bits in every batch; a BLAS matmul's summation order
    changes with the batch shape. Returns the transpose of an (N, B) array:
    batch_sinr runs faster with the batch axis fastest.
    """
    acc = abar[0][:, None] * shifts[:, 0]
    for row, weights in zip(abar[1:], shifts.T[1:]):
        acc += row[:, None] * weights
    return acc.T


def _as_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got bool")
    try:
        as_int = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if as_int != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return as_int


def _is_real(value) -> bool:
    """True for a finite int or float, numpy's included, but not a bool."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating)) and bool(np.isfinite(value))


def _as_real(value, name: str):
    if not _is_real(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _as_pair(value, name: str) -> tuple:
    """value, checked to be two finite numbers, as a tuple."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise ValueError(f"{name} must be a pair of numbers, got {value!r}")
    return tuple(_as_real(v, name) for v in value)
