"""Seeded generation of uplink multipath scenarios.

Users are drawn uniformly over a disk in front of the array; each user
sees a fixed number of scattered paths with angles of arrival uniform over
the visible half-plane. Path gains follow a free-space model with equal
average power per path: gain = sqrt(beta / L) * exp(1j*phi) with
beta = (wavelength / (4*pi*r_user))^2 and phi uniform on [0, 2*pi). The
model choice is recorded in experiment metadata since it fixes the
absolute SNR scale.

Reproducibility: every trial draws from an independent stream derived from
(master seed, trial index) via numpy's SeedSequence, so trials can be
generated in any order, or in parallel, without changing their content.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .arrays import (ArrayConfig, PathSet, _as_int, _as_pair, _as_real,
                     wavelength_from_frequency)
from .combining import LinkPowers

PATH_GAIN_MODEL = "free-space-at-user-distance, equal average power per path"
RNG_SCHEME = "numpy SeedSequence((master_seed, trial_index))"


@dataclass(frozen=True)
class ScenarioParams:
    """Scenario geometry, powers, and array configuration knobs.

    Defaults describe a 28 GHz uplink with K = 5 users uniform in a disk of
    radius 50 m centered 100 m in front of the array, 5 scattered paths per
    user, 10 dBm transmit power, -174 dBm/Hz noise density, N = 4 RF
    chains and M = 128 physical elements. region None means the reference
    element may move over [0, 8 * (M - 1) * d].
    """

    f_carrier: float = 28e9
    K: int = 5
    center: tuple[float, float] = (100.0, 0.0)
    radius: float = 50.0
    paths_per_user: int = 5
    r_range: tuple[float, float] = (0.0, 75.0)
    theta_range: tuple[float, float] = (-np.pi / 2, np.pi / 2)
    p_tx_dbm: float | tuple[float, ...] = 10.0
    n0_dbm_hz: float = -174.0
    bandwidth_hz: float = 1e6
    N: int = 4
    M: int = 128
    region: tuple[float, float] | None = None
    confine_aperture: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("K", "paths_per_user", "N", "M", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        for name in ("f_carrier", "radius", "n0_dbm_hz", "bandwidth_hz"):
            _as_real(getattr(self, name), name)
        for name in ("center", "r_range", "theta_range", "region"):
            if name != "region" or self.region is not None:
                object.__setattr__(self, name, _as_pair(getattr(self, name), name))
        powers = self.p_tx_dbm
        powers = powers if isinstance(powers, (tuple, list)) else [powers]
        for value in powers:
            _as_real(value, "p_tx_dbm")
        if not isinstance(self.confine_aperture, bool):
            raise ValueError(
                f"confine_aperture must be a bool, got {self.confine_aperture!r}")
        if self.K < 1:
            raise ValueError(f"need at least one user, got K={self.K}")
        if self.paths_per_user < 1:
            raise ValueError("need at least one path per user")
        if not self.radius >= 0:
            raise ValueError(f"disk radius must be >= 0, got {self.radius}")
        if np.hypot(*self.center) <= self.radius:
            raise ValueError("user disk must not contain the array origin")
        if not self.r_range[0] <= self.r_range[1] or self.r_range[0] < 0:
            raise ValueError(f"bad scatterer range {self.r_range}")
        lo, hi = self.theta_range
        if not (-np.pi / 2 <= lo <= hi <= np.pi / 2):
            raise ValueError(f"bad angle range {self.theta_range}")
        if self.region is not None and not self.region[0] <= self.region[1]:
            raise ValueError(f"bad movable region {self.region}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if len(powers) not in (1, self.K):
            raise ValueError(f"p_tx_dbm must be scalar or length {self.K}")

    @property
    def wavelength(self) -> float:
        return wavelength_from_frequency(self.f_carrier)

    @property
    def d(self) -> float:
        return self.wavelength / 2.0

    def resolved_region(self) -> tuple[float, float]:
        if self.region is not None:
            return float(self.region[0]), float(self.region[1])
        return 0.0, 8.0 * (self.M - 1) * self.d

    def array_config(self) -> ArrayConfig:
        y_min, y_max = self.resolved_region()
        return ArrayConfig(M=self.M, N=self.N, wavelength=self.wavelength,
                           y_min=y_min, y_max=y_max,
                           confine_aperture=self.confine_aperture)

    def link_powers(self) -> LinkPowers:
        p = np.atleast_1d(np.asarray(self.p_tx_dbm, dtype=np.float64))
        if p.size == 1:
            p = np.full(self.K, p[0])
        return LinkPowers.from_dbm(p, self.n0_dbm_hz, self.bandwidth_hz)

    def digest(self) -> str:
        payload = asdict(self)
        payload["p_tx_dbm"] = np.atleast_1d(payload["p_tx_dbm"]).tolist()
        text = json.dumps(payload, sort_keys=True, default=float)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Scenario:
    """One realized multi-user instance, reproducible from (params, trial)."""

    users: tuple[PathSet, ...]
    powers: LinkPowers
    cfg: ArrayConfig
    user_positions: np.ndarray
    scatterer_r: np.ndarray
    seed: int
    trial: int
    params_digest: str

    def __post_init__(self):
        for name in ("user_positions", "scatterer_r"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def K(self) -> int:
        return len(self.users)


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent, order-insensitive random stream for one trial."""
    if trial < 0:
        raise ValueError(f"trial index must be >= 0, got {trial}")
    return np.random.default_rng(np.random.SeedSequence((int(master_seed), int(trial))))


def sample_scenario(params: ScenarioParams, trial: int = 0) -> Scenario:
    """Draw one scenario realization.

    Per user, the draw order is fixed: disk position (radial quantile and
    angle), scatterer distances, angles of arrival, and path phases. Users
    are area-uniform over the disk via the square-root radial transform.
    The draws depend only on K, paths_per_user, and the ranges, never on the
    array configuration, so sweeps over M or the movable region reuse
    identical geometry at a given (seed, trial).
    """
    rng = trial_rng(params.seed, trial)
    lam = params.wavelength
    L = params.paths_per_user
    center = np.asarray(params.center, dtype=np.float64)
    users = []
    positions = np.empty((params.K, 2))
    scatterer_r = np.empty((params.K, L))
    for k in range(params.K):
        radial = params.radius * np.sqrt(rng.uniform())
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        q_k = center + radial * np.array([np.cos(azimuth), np.sin(azimuth)])
        positions[k] = q_k
        scatterer_r[k] = rng.uniform(params.r_range[0], params.r_range[1], L)
        aoas = rng.uniform(params.theta_range[0], params.theta_range[1], L)
        phases = rng.uniform(0.0, 2.0 * np.pi, L)
        r_user = float(np.hypot(*q_k))
        beta = (lam / (4.0 * np.pi * r_user)) ** 2
        gains = np.sqrt(beta / L) * np.exp(1j * phases)
        users.append(PathSet(gains=gains, aoas=aoas))
    return Scenario(users=tuple(users), powers=params.link_powers(),
                    cfg=params.array_config(), user_positions=positions,
                    scatterer_r=scatterer_r, seed=params.seed, trial=trial,
                    params_digest=params.digest())
