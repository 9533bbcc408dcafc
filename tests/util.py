"""Shared builders and independent hand-computed oracles for the tests.

The per-user MMSE path below (one interference covariance and one Cholesky
solve per user, on loop_channel's channels) is the reference the package's
batched kernel is checked against; no package code calls it. The SCA
alignment term g and its derivatives are the references for sca's
surrogate.
"""

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from gma.arrays import ArrayConfig, PathSet, wavelength_from_frequency
from gma.combining import LinkPowers
from gma.sca import ScaState

WAVELENGTH = wavelength_from_frequency(28e9)
_UNIT_NORM_TOL = 1e-12


def make_cfg(M=16, N=4, span_wavelengths=20.0, y_min=0.0, **kwargs):
    return ArrayConfig(M=M, N=N, wavelength=WAVELENGTH, y_min=y_min,
                       y_max=y_min + span_wavelengths * WAVELENGTH, **kwargs)


def random_paths(rng, L=2, equal_amplitude=False):
    aoas = rng.uniform(-np.pi / 2, np.pi / 2, L)
    phases = rng.uniform(0.0, 2.0 * np.pi, L)
    if equal_amplitude:
        gains = np.exp(1j * phases)
    else:
        gains = rng.uniform(0.2, 1.5, L) * np.exp(1j * phases)
    return PathSet(gains=gains, aoas=aoas)


def loop_channel(y, eta, paths, cfg):
    """Element-by-element, path-by-path channel accumulation in pure Python."""
    out = []
    for n in range(cfg.N):
        acc = 0j
        for gain, theta in zip(paths.gains, paths.aoas):
            shift = cmath.exp(1j * 2.0 * cmath.pi / cfg.wavelength
                              * y * cmath.sin(theta))
            element = cmath.exp(1j * 2.0 * cmath.pi * n * eta * cfg.d_bar
                                * cmath.sin(theta))
            acc += complex(gain) * shift * element
        out.append(acc)
    return np.array(out)


def steering_vector(eta, theta, cfg):
    """Textbook sparse-array response to one AoA, element by element:
    exp(j*2*pi*n*eta*d_bar*sin(theta)), n = 0 ... N-1."""
    return np.array([cmath.exp(1j * 2.0 * cmath.pi * n * eta * cfg.d_bar
                               * cmath.sin(theta)) for n in range(cfg.N)])


def g_value(y, b: np.ndarray, aoas: np.ndarray, wavelength: float):
    """Alignment term g(y) = sum_i |b_i| cos(2*pi/wavelength*y*sin(aoa_i) - angle(b_i))."""
    y = np.asarray(y, dtype=np.float64)
    arg = ((2.0 * np.pi / wavelength) * np.multiply.outer(y, np.sin(aoas))
           - np.angle(b))
    return np.sum(np.abs(b) * np.cos(arg), axis=-1)


def g_derivative(y, b: np.ndarray, aoas: np.ndarray, wavelength: float):
    y = np.asarray(y, dtype=np.float64)
    k0 = 2.0 * np.pi / wavelength
    sin_t = np.sin(aoas)
    arg = k0 * np.multiply.outer(y, sin_t) - np.angle(b)
    return -k0 * np.sum(np.abs(b) * sin_t * np.sin(arg), axis=-1)


def g_second_derivative(y, b: np.ndarray, aoas: np.ndarray, wavelength: float):
    y = np.asarray(y, dtype=np.float64)
    k0 = 2.0 * np.pi / wavelength
    sin_t = np.sin(aoas)
    arg = k0 * np.multiply.outer(y, sin_t) - np.angle(b)
    return -k0 * k0 * np.sum(np.abs(b) * sin_t ** 2 * np.cos(arg), axis=-1)


def surrogate_value(y, state: ScaState, paths: PathSet, cfg: ArrayConfig):
    """Concave quadratic minorant of g expanded at state.y_j."""
    y = np.asarray(y, dtype=np.float64)
    g_j = g_value(state.y_j, state.b, paths.aoas, cfg.wavelength)
    dy = y - state.y_j
    return g_j + state.g_prime * dy - 0.5 * state.xi * dy ** 2


def g_highprec(y, b, aoas, wavelength):
    """Alignment term recomputed with 50-digit arithmetic.

    Central differences of g at small steps cancel catastrophically in
    float64; this oracle keeps the finite-difference checks at the stated
    step and tolerance.
    """
    import mpmath
    with mpmath.workdps(50):
        y = mpmath.mpf(y)
        total = mpmath.mpf(0)
        k0 = 2 * mpmath.pi / mpmath.mpf(wavelength)
        for bi, theta in zip(np.asarray(b), np.asarray(aoas)):
            total += abs(complex(bi)) * mpmath.cos(
                k0 * y * mpmath.sin(mpmath.mpf(theta))
                - mpmath.mpf(np.angle(bi)))
        return total


def fd_highprec(y, h, b, aoas, wavelength):
    """(first, second) central differences of g at step h, in high precision."""
    import mpmath
    with mpmath.workdps(50):
        h = mpmath.mpf(h)
        up = g_highprec(y + h, b, aoas, wavelength)
        mid = g_highprec(y, b, aoas, wavelength)
        dn = g_highprec(y - h, b, aoas, wavelength)
        return float((up - dn) / (2 * h)), float((up - 2 * mid + dn) / h ** 2)


def sherman_morrison_sinr(p1, h1, p2, h2):
    """SINR of user 1 under one rank-one interferer, by hand.

    gamma_1 = p1 * (||h1||^2 - p2*|h2^H h1|^2 / (1 + p2*||h2||^2)).
    """
    cross = np.vdot(h2, h1)
    return p1 * (np.vdot(h1, h1).real
                 - p2 * abs(cross) ** 2 / (1.0 + p2 * np.vdot(h2, h2).real))


@dataclass(frozen=True)
class Combiner:
    """Unit-norm receive combining vector."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.complex128).copy()
        if w.ndim != 1:
            raise ValueError("combiner weights must be a 1-D vector")
        norm = np.linalg.norm(w)
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"combiner must be unit-norm, got ||w|| = {norm}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def interference_covariance(k: int, channels, powers: LinkPowers) -> np.ndarray:
    """Interference-plus-noise covariance of user k (identity-normalized noise).

    C_k = I + sum_{i != k} p_bar_i h_i h_i^H, Hermitian positive definite.
    """
    hs = [np.asarray(h, dtype=np.complex128) for h in channels]
    if len(hs) != powers.K:
        raise ValueError(f"got {len(hs)} channels for {powers.K} users")
    if not 0 <= k < len(hs):
        raise ValueError(f"user index {k} out of range")
    n = hs[0].size
    if any(h.size != n for h in hs):
        raise ValueError("all channels must have the same length")
    cov = np.eye(n, dtype=np.complex128)
    for i, h in enumerate(hs):
        if i != k:
            cov += powers.p_bar[i] * np.outer(h, h.conj())
    return cov


def mmse_combiner(h_k, C_k: np.ndarray) -> Combiner:
    """SINR-maximizing unit-norm combiner C_k^-1 h_k / ||C_k^-1 h_k||.

    Solves the Hermitian positive-definite system by Cholesky factorization
    instead of forming the inverse.
    """
    h = np.asarray(h_k, dtype=np.complex128)
    if np.linalg.norm(h) == 0.0:
        raise ValueError("combiner undefined for an all-zero channel")
    x = cho_solve(cho_factor(C_k, lower=True), h)
    return Combiner(weights=x / np.linalg.norm(x))


def combiner_sinr(v, h_k, C_k: np.ndarray, p_bar_k: float) -> float:
    """SINR achieved by an arbitrary combiner v (generalized Rayleigh quotient).

    p_bar_k * |v^H h_k|^2 / (v^H C_k v); v need not be normalized since the
    quotient is scale-invariant.
    """
    v = np.asarray(v.weights if isinstance(v, Combiner) else v, dtype=np.complex128)
    h = np.asarray(h_k, dtype=np.complex128)
    num = p_bar_k * np.abs(np.vdot(v, h)) ** 2
    den = np.real(np.vdot(v, C_k @ v))
    return float(num / den)


def sinr(k: int, y: float, eta: int, users, powers: LinkPowers,
         cfg: ArrayConfig) -> float:
    """Post-MMSE SINR of user k at candidate (y, eta).

    Equals p_bar_k * h_k^H C_k^-1 h_k, the maximum of the Rayleigh quotient
    over unit-norm combiners.
    """
    channels = [loop_channel(y, eta, u, cfg) for u in users]
    return _sinr_from_channels(k, channels, powers)


def sum_rate(y: float, eta: int, users, powers: LinkPowers,
             cfg: ArrayConfig) -> float:
    """Achievable sum rate sum_k log2(1 + sinr_k) in bits/s/Hz at (y, eta)."""
    channels = [loop_channel(y, eta, u, cfg) for u in users]
    gammas = [_sinr_from_channels(k, channels, powers)
              for k in range(len(channels))]
    return float(np.sum(np.log2(1.0 + np.asarray(gammas))))


def _sinr_from_channels(k: int, channels, powers: LinkPowers) -> float:
    hs = [np.asarray(h, dtype=np.complex128) for h in channels]
    if len(hs) != powers.K:
        raise ValueError(f"got {len(hs)} channels for {powers.K} users")
    h_k = hs[k]
    p_k = powers.p_bar[k]
    if p_k == 0.0 or np.linalg.norm(h_k) == 0.0:
        return 0.0
    if len(hs) == 1:
        return float(p_k * np.sum(np.abs(h_k) ** 2))
    cov = interference_covariance(k, hs, powers)
    x = cho_solve(cho_factor(cov, lower=True), h_k)
    return float(p_k * np.real(np.vdot(h_k, x)))
