"""SNR / sum-rate evaluation under optimal receive combining.

All powers enter as per-user ratios p_bar = P / sigma^2 (linear). For a
single user the optimal combiner is maximal-ratio combining and the metric
is the SNR p_bar*||h||^2; with interference the optimal combiner is the
MMSE one and the metric is the sum rate of the post-MMSE SINRs.

The package evaluates every candidate through one batched kernel,
batch_sinr, which reads all users' SINRs off one factorization per
candidate. The per-user MMSE combiner, built one interference covariance
at a time, lives in tests/util.py as the independent reference that the
tests check this kernel against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import (LATTICE_STEPS, ArrayConfig, channel_entries,
                     channel_profile, element_channels, gain_weighted_shifts,
                     lattice_index, sparse_steering_matrix, sum_paths)

_CHUNK = 1 << 11  # (y, eta) rows per batch_sinr call: its arrays stay in cache


def noise_power_dbm(n0_dbm_hz: float = -174.0, bandwidth_hz: float = 1e6) -> float:
    """Total noise power sigma^2 in dBm over the given bandwidth."""
    if not bandwidth_hz > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return n0_dbm_hz + 10.0 * np.log10(bandwidth_hz)


@dataclass(frozen=True)
class LinkPowers:
    """Per-user transmit-power-to-noise ratios p_bar (linear scale).

    Entries must be non-negative and finite. Zero is admitted so that
    silent users degrade gracefully to zero SINR.
    """

    p_bar: np.ndarray

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.p_bar, dtype=np.float64)).copy()
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p_bar must be a non-empty 1-D array")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ValueError("p_bar entries must be finite and >= 0")
        p.flags.writeable = False
        object.__setattr__(self, "p_bar", p)

    @classmethod
    def from_dbm(cls, p_tx_dbm, n0_dbm_hz: float = -174.0,
                 bandwidth_hz: float = 1e6) -> "LinkPowers":
        """Build p_bar from per-user transmit powers in dBm.

        sigma^2 is the noise density integrated over the system bandwidth;
        the bandwidth default (1 MHz) is a modeling choice recorded in the
        experiment metadata.
        """
        p_tx_dbm = np.atleast_1d(np.asarray(p_tx_dbm, dtype=np.float64))
        sigma2_dbm = noise_power_dbm(n0_dbm_hz, bandwidth_hz)
        return cls(p_bar=10.0 ** ((p_tx_dbm - sigma2_dbm) / 10.0))

    @property
    def K(self) -> int:
        return self.p_bar.size


def mrc_snr(h, p_bar: float) -> float:
    """SNR after maximal-ratio combining: p_bar * ||h||^2."""
    h = channel_entries(h)
    p_bar = float(p_bar)
    if not (np.isfinite(p_bar) and p_bar >= 0):
        raise ValueError(f"p_bar must be finite and >= 0, got {p_bar}")
    return p_bar * float(np.sum(np.abs(h) ** 2))


# -- batched evaluation ------------------------------------------------------
#
# Grid searches evaluate the metric at thousands of candidates, so the one
# kernel factors the total covariance S = I + sum_k p_k h_k h_k^H once per
# candidate and reads every user's SINR off it: with u_k = h_k^H S^-1 h_k,
# gamma_k = p_k u_k / (1 - p_k u_k). The tests check it against the
# per-user Cholesky reference in tests/util.py.
#
# The kernel is an LDL^H factorization unrolled over the N x N entries. The
# channels are split into real and imaginary planes, one (K, B) plane per
# array element with the batch axis fastest, and every step is an
# elementwise float64 operation over the B candidates: one numpy call covers
# the whole batch, and no result depends on B or on the other rows. So a
# (y, eta) value does not depend on its batch (arrays builds each channel
# row alone, by the lattice rule documented there), and optimizers store
# scan values that re-evaluate bit-identically. The sums over users and over the N pivots are explicit
# loops, never numpy reductions: numpy sums an axis pairwise from 8 terms
# on, in an order that follows the array layout, which would tie a row's
# bits to the batch shape. Small arrays also keep a call's working set in
# cache and off freshly mapped pages.
#
# No pivoting is needed: S is the identity plus a positive semidefinite
# matrix, so every pivot d_j is at least 1.

def batch_sinr(H: np.ndarray, powers: LinkPowers) -> np.ndarray:
    """Per-user SINRs for a batch of channel stacks.

    Args:
        H: complex array of shape (B, K, N); H[b, k] is user k's channel in
            candidate b.
        powers: K link powers.

    Returns:
        Real array of shape (B, K).
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 3 or H.shape[1] != powers.K:
        raise ValueError(f"expected channel stack (B, {powers.K}, N), got {H.shape}")
    p = powers.p_bar
    B, K, N = H.shape
    if K == 1:
        # C order: each row then sums the same way, whatever H's layout
        power = np.ascontiguousarray(np.abs(H[:, 0, :]) ** 2)
        return p[0] * power.sum(axis=1)[:, None]
    planes = H.transpose(1, 2, 0)
    # (K, B) planes per element n: the substitution overwrites them after
    # the covariance has read them
    hr = [planes[:, n].real.copy() for n in range(N)]
    hi = [planes[:, n].imag.copy() for n in range(N)]
    Sr, Si = _covariance_lower(hr, hi, p)
    pu = p[:, None] * _forward_substitute(Sr, Si, hr, hi)
    # 1 - p_k u_k > 0 analytically; the floor only guards fp rounding.
    # C order again, so that batch_sum_rate sums each row the same way.
    return np.ascontiguousarray((pu / np.maximum(1.0 - pu, 1e-300)).T)


def _covariance_lower(hr, hi, p):
    """Lower triangle of S = I + sum_k p_k h_k h_k^H, as rows of (B,) planes.

    Entry (i, j), j <= i, is Sr[i][j] + 1j*Si[i][j]; the diagonal is real,
    so Si[i] stops at j = i - 1.
    """
    Sr, Si = [], []
    for i in range(len(hr)):
        gr, gi = p[:, None] * hr[i], p[:, None] * hi[i]
        row_r, row_i = [], []
        for j in range(i + 1):
            # user k adds p_k h_ki conj(h_kj); users are added in order
            tr = gr * hr[j]
            tr += gi * hi[j]
            row_r.append(_add_rows(tr, 1.0 if j == i else 0.0))
            if j < i:
                ti = gi * hr[j]
                ti -= gr * hi[j]
                row_i.append(_add_rows(ti, 0.0))
        Sr.append(row_r)
        Si.append(row_i)
    return Sr, Si


def _add_rows(terms, start):
    acc = terms[0] + start
    for t in terms[1:]:
        acc += t
    return acc


def _forward_substitute(Sr, Si, zr, zi):
    """u_k = h_k^H S^-1 h_k for every user, shape (K, B).

    Factors S = L D L^H in place, right-looking, and solves L z_k = h_k for
    all users along the way, overwriting the channel planes zr, zi with z.
    Then u_k = sum_j |z_kj|^2 / d_j.
    """
    u = np.zeros(zr[0].shape)
    N = len(Sr)
    for j in range(N):
        d = Sr[j][j]
        t = zr[j] * zr[j]
        t += zi[j] * zi[j]
        t /= d
        u += t
        for i in range(j + 1, N):
            lr, li = Sr[i][j] / d, Si[i][j] / d  # L_ij
            for m in range(j + 1, i + 1):
                # S_im -= L_ij conj(S_mj), the Schur complement update
                x = lr * Sr[m][j]
                x += li * Si[m][j]
                Sr[i][m] -= x
                if m < i:
                    x = li * Sr[m][j]
                    x -= lr * Si[m][j]
                    Si[i][m] -= x
            x = lr * zr[j]
            x -= li * zi[j]
            zr[i] -= x
            x = lr * zi[j]
            x += li * zr[j]
            zi[i] -= x
    return u


def batch_sum_rate(H: np.ndarray, powers: LinkPowers) -> np.ndarray:
    """Sum rates (bits/s/Hz) for a batch of channel stacks, shape (B,)."""
    return np.log2(1.0 + batch_sinr(H, powers)).sum(axis=1)


def batch_objective(H: np.ndarray, powers: LinkPowers) -> np.ndarray:
    """Scheme-comparison metric for a batch: SNR if K == 1, else sum rate."""
    if powers.K == 1:
        return batch_sinr(H, powers)[:, 0]
    return batch_sum_rate(H, powers)


def channel_stack(y_values: np.ndarray, eta: int, users, cfg: ArrayConfig) -> np.ndarray:
    """Channel stacks for all users over a batch of positions, shape (B, K, N)."""
    return np.stack([channel_profile(y_values, eta, u, cfg) for u in users], axis=1)


def metric_profiles(y_values, etas, users, powers: LinkPowers, cfg: ArrayConfig):
    """Yield (eta, metric array over y_values) for each requested eta.

    Channels follow the lattice rule in arrays. The lattice rows of a call
    share one element-channel table per user, with stride s = the gcd of
    their index gaps and LATTICE_STEPS, and every level reads its channels
    off it; when the table would hold more entries than those rows read,
    they are built element by element instead. The off-lattice rows share
    one gain-weighted shift table per user across the levels. The (eta, y)
    rows of all levels go through batch_objective in calls of up to _CHUNK
    rows, and one call spans several levels when the position grid is
    short. A (y, eta) value does not depend on its batch: each entry equals
    objective_metric at that point.
    """
    y_values = np.asarray(y_values, dtype=np.float64)
    etas, B, N = list(etas), y_values.size, cfg.N
    t, on = lattice_index(y_values, cfg)
    # rows are scored lattice rows first, each class in row order
    order, n_on = np.argsort(~on, kind="stable"), int(on.sum())
    lat = t[order[:n_on]]
    shifts = None if n_on == B else [
        gain_weighted_shifts(y_values[order[n_on:]], u, cfg) for u in users]
    # lat holds lattice indices, or table positions of stride s once the
    # tables are built
    tables, s = None, 1
    if n_on:
        t0 = int(lat.min())
        g = int(np.gcd.reduce(np.append(lat - t0, LATTICE_STEPS)))
        size = (int(lat.max()) - t0) // g + 1 + (N - 1) * max(etas) * LATTICE_STEPS // g
        if size < n_on * N * len(etas):
            # built one user at a time; only the (size,) results are kept
            tables = [element_channels(t0 + g * np.arange(size), u, cfg)
                      for u in users]
            lat, s = (lat - t0) // g, g
    filling = {}  # level index -> its values, until the level is complete
    for start in range(0, len(etas) * B, _CHUNK):
        stop = min(start + _CHUNK, len(etas) * B)
        H = np.empty((len(users), N, stop - start), dtype=np.complex128)
        # (level index, first row, last row + 1, first row in H); rows
        # count in the scoring order
        pieces = []
        row = start
        while row < stop:
            lvl, a = divmod(row, B)
            b = min(B, a + stop - row)
            eta, p = etas[lvl], row - start
            m = p + max(0, min(b, n_on) - a)  # H's first off-lattice row
            if m > p:
                q = lat[a:a + m - p] + LATTICE_STEPS * eta // s * np.arange(N)[:, None]
                for k, u in enumerate(users):
                    H[k, :, p:m] = (element_channels(q, u, cfg) if tables is None
                                    else tables[k][q])
            if b > n_on:
                off = slice(max(a, n_on) - n_on, b - n_on)
                for k, u in enumerate(users):
                    abar = sparse_steering_matrix(eta, u.aoas, cfg)
                    H[k, :, m:p + b - a] = sum_paths(shifts[k][off], abar).T
            pieces.append((lvl, a, b, p))
            row += b - a
        vals = batch_objective(H.transpose(2, 0, 1), powers)
        for lvl, a, b, p in pieces:
            if a == 0:
                filling[lvl] = np.empty(B)
            filling[lvl][a:b] = vals[p:p + b - a]
            if b == B:
                out = np.empty(B)
                out[order] = filling.pop(lvl)
                yield etas[lvl], out


def objective_metric(y: float, eta: int, users, powers: LinkPowers,
                     cfg: ArrayConfig) -> float:
    """Single-point metric (SNR for K=1, sum rate otherwise).

    Validates (y, eta). A (y, eta) value does not depend on its batch, so
    this equals the metric_profiles entry at the same point.
    """
    eta = cfg.validate_eta(eta)
    y = cfg.validate_position(y, eta)
    H = channel_stack(np.array([y]), eta, users, cfg)
    return float(batch_objective(H, powers)[0])
