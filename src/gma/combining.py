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

# (y, eta) rows scored per step of metric_profiles: every batch_sinr call,
# and the lag rows of a run, cover at most this many rows, so their arrays
# stay in cache
_CHUNK = 1 << 11


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
#
# The lag rule. On the lattice (see arrays) element n of candidate (y, eta)
# sits at table position x + n*e, with e = LATTICE_STEPS*eta/s table steps
# of stride s. So S_ij = delta_ij + R[(i-j)*e](x + j*e), with the lag row
# R[m](x) = sum_k p_k c_k(x + m) conj(c_k(x)): one lag row serves every
# position and element pair of a level. metric_profiles builds the diagonal
# R[0] + 1 once per element-channel table, and for each run of consecutive
# table positions of one level, within a chunk of rows, the lag rows
# R[m*e], m = 1..N-1, over the run plus its (N-1-m)*e overhang
# (_lag_lower). Each lag row adds the users in order with the operations
# of _covariance_lower, so an entry has the bits that building S row by row
# gives it. The cost rule: a run takes the lag rows when K > 1, N > 2, the
# table is built and the run is longer than e, where they cost fewer
# operations than the row-by-row build; other rows (short runs, off-lattice
# rows, single-point calls) build S row by row.

def batch_sinr(H: np.ndarray, powers: LinkPowers, lower=None) -> np.ndarray:
    """Per-user SINRs for a batch of channel stacks.

    Args:
        H: complex array of shape (B, K, N); H[b, k] is user k's channel in
            candidate b.
        powers: K link powers.
        lower: the lower triangle of S, as _covariance_lower returns it, when
            the caller has built it (the lag rule above); None builds it from
            H. Its entries in columns j >= 1 are overwritten.

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
    Sr, Si = _covariance_lower(hr, hi, p) if lower is None else lower
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


def _lag_lower(tables, diag, p, j0, w, e, N):
    """Lower triangle of S for w lattice rows at table positions j0, j0+1, ...

    tables is the (K, T) element-channel table, diag its (T,) diagonal
    R[0] + 1, and e the table steps between elements. Entry (j+m, j) of row
    b is R[m*e] at table position j0 + b + j*e, so each lag row covers the
    run plus its (N-1-m)*e overhang, and every entry is a slice of one.
    """
    K, width = len(p), w + (N - 1) * e
    # what S keeps is allocated before the scratch block, which is then
    # freed in one piece: the lag rows, and copies of the (N-1)^2 entries
    # that _forward_substitute writes (columns j >= 1)
    lags, own = np.empty((2, N - 1, width)), iter(np.empty(((N - 1) ** 2, w)))
    # the users' planes over the span, flattened: user k's position x is
    # entry k*width + x, so a product of two shifted slices is one
    # contiguous operation, and its entries past a user's width are unused
    re, im, gr, gi, t, v = np.empty((6, K * width))
    span = tables[:, j0:j0 + width]
    np.copyto(re.reshape(K, width), span.real)
    np.copyto(im.reshape(K, width), span.imag)
    np.multiply(p[:, None], re.reshape(K, width), out=gr.reshape(K, width))
    np.multiply(p[:, None], im.reshape(K, width), out=gi.reshape(K, width))
    for m in range(1, N):
        # the operations of _covariance_lower, where element j+m is row i
        n, size = width - m * e, K * width - m * e
        tm, vm = t[:size], v[:size]
        per_user = [tm[k * width:k * width + n] for k in range(K)]
        np.multiply(gr[m * e:], re[:size], out=tm)
        tm += np.multiply(gi[m * e:], im[:size], out=vm)
        _add_rows(per_user, 0.0, out=lags[0, m - 1, :n])
        np.multiply(gi[m * e:], re[:size], out=tm)
        tm -= np.multiply(gr[m * e:], im[:size], out=vm)
        _add_rows(per_user, 0.0, out=lags[1, m - 1, :n])
    Sr = [[None] * i + [diag[j0 + i * e:j0 + i * e + w]] for i in range(N)]
    Si = [[None] * i for i in range(N)]
    for m in range(1, N):
        for j in range(N - m):
            Sr[j + m][j], Si[j + m][j] = lags[:, m - 1, j * e:j * e + w]
    for rows in (Sr, Si):
        for i in range(1, N):
            for j in range(1, len(rows[i])):
                cell = next(own)
                cell[...] = rows[i][j]
                rows[i][j] = cell
    return Sr, Si


def _lag_diagonal(tables, p):
    """R[0] + 1 = 1 + sum_k p_k |c_k|^2 over the table, users added in order."""
    diag = None
    for pk, c in zip(p, tables):
        t = (pk * c.real) * c.real
        t += (pk * c.imag) * c.imag
        if diag is None:
            diag = t + 1.0
        else:
            diag += t
    return diag


def _add_rows(terms, start, out=None):
    acc = np.add(terms[0], start, out=out)
    for t in terms[1:]:
        acc += t
    return acc


def _forward_substitute(Sr, Si, zr, zi):
    """u_k = h_k^H S^-1 h_k for every user, shape (K, B).

    Factors S = L D L^H in place, right-looking, and solves L z_k = h_k for
    all users along the way, overwriting the channel planes zr, zi with z.
    Then u_k = sum_j |z_kj|^2 / d_j. It writes S's entries (i, j) with
    j >= 1 and the planes of elements i >= 1 only: column 0 and element 0
    are read, never written, so they may be views of shared arrays.
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


def batch_sum_rate(H: np.ndarray, powers: LinkPowers, lower=None) -> np.ndarray:
    """Sum rates (bits/s/Hz) for a batch of channel stacks, shape (B,)."""
    return np.log2(1.0 + batch_sinr(H, powers, lower)).sum(axis=1)


def batch_objective(H: np.ndarray, powers: LinkPowers, lower=None) -> np.ndarray:
    """Scheme-comparison metric for a batch: SNR if K == 1, else sum rate."""
    if powers.K == 1:
        return batch_sinr(H, powers)[:, 0]
    return batch_sum_rate(H, powers, lower)


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
    one gain-weighted shift table per user across the levels.

    The (eta, y) rows of all levels are scored in chunks of up to _CHUNK
    rows, and one chunk spans several levels when the position grid is
    short. In a chunk, each run of consecutive table positions of one level
    that the lag rule above takes goes through batch_objective with its
    covariance built from lag rows; the chunk's other rows go through one
    call that builds it row by row. A (y, eta) value does not depend on its
    batch: each entry equals objective_metric at that point.
    """
    y_values = np.asarray(y_values, dtype=np.float64)
    etas, B, N, K = list(etas), y_values.size, cfg.N, len(users)
    t, on = lattice_index(y_values, cfg)
    # rows are scored lattice rows first, each class in row order
    order, n_on = np.argsort(~on, kind="stable"), int(on.sum())
    lat = t[order[:n_on]]
    shifts = None if n_on == B else [
        gain_weighted_shifts(y_values[order[n_on:]], u, cfg) for u in users]
    # lat holds lattice indices, or table positions of stride s once the
    # tables are built
    tables, diag, s, breaks = None, None, 1, np.empty(0, dtype=np.int64)
    if n_on:
        t0 = int(lat.min())
        g = int(np.gcd.reduce(np.append(lat - t0, LATTICE_STEPS)))
        size = (int(lat.max()) - t0) // g + 1 + (N - 1) * max(etas) * LATTICE_STEPS // g
        if size < n_on * N * len(etas):
            # built one user at a time; only the (K, size) table is kept
            tables = np.empty((K, size), dtype=np.complex128)
            for k, u in enumerate(users):
                tables[k] = element_channels(t0 + g * np.arange(size), u, cfg)
            lat, s = (lat - t0) // g, g
            if K > 1 and N > 2:
                diag = _lag_diagonal(tables, powers.p_bar)
                # runs of consecutive table positions end at these rows
                breaks = np.flatnonzero(np.diff(lat) != 1) + 1
    cuts = np.append(breaks, n_on)  # segments never mix lattice and off-lattice rows
    filling = {}  # level index -> its values, until the level is complete
    for start in range(0, len(etas) * B, _CHUNK):
        stop = min(start + _CHUNK, len(etas) * B)
        vals = np.empty(stop - start)
        # (level index, first row, last row + 1, first position in vals);
        # rows count in the scoring order
        segments, by_rows, row = [], [], start
        while row < stop:
            lvl, a = divmod(row, B)
            b = min(B, a + stop - row)
            inner = cuts[(cuts > a) & (cuts < b)].tolist()
            for x, z in zip([a] + inner, inner + [b]):
                segment = (lvl, x, z, row - start + x - a)
                segments.append(segment)
                e = LATTICE_STEPS * etas[lvl] // s
                if diag is None or z > n_on or z - x <= e:
                    by_rows.append(segment)
                    continue
                j0, w = int(lat[x]), z - x
                lower = _lag_lower(tables, diag, powers.p_bar, j0, w, e, N)
                vals[segment[3]:segment[3] + w] = batch_objective(
                    _table_view(tables, j0, w, e, N), powers, lower)
            row += b - a
        if by_rows:
            vals[np.concatenate([np.arange(p, p + z - x) for _, x, z, p in by_rows])] = \
                _score_rows(by_rows, etas, n_on, lat, s, tables, shifts, users, powers, cfg)
        for lvl, a, b, p in segments:
            if a == 0:
                filling[lvl] = np.empty(B)
            filling[lvl][a:b] = vals[p:p + b - a]
            if b == B:
                out = np.empty(B)
                out[order] = filling.pop(lvl)
                yield etas[lvl], out


def _table_view(tables, j0, w, e, N):
    """Read-only (w, K, N) view H of the table, H[b, k, n] = tables[k, j0 + b + n*e]."""
    item = tables.itemsize
    H = np.ndarray((w, len(tables), N), tables.dtype, tables, j0 * item,
                   (item, tables.strides[0], e * item))
    H.flags.writeable = False
    return H


def _score_rows(segments, etas, n_on, lat, s, tables, shifts, users, powers, cfg):
    """Values of the segments' rows, in order, with S built row by row.

    A segment holds lattice rows only (rows below n_on) or off-lattice rows
    only.
    """
    N = cfg.N
    H = np.empty((len(users), N, sum(z - x for _, x, z, _ in segments)),
                 dtype=np.complex128)
    p = 0
    for lvl, x, z, _ in segments:
        eta, q = etas[lvl], p + z - x
        if z <= n_on:
            idx = lat[x:z] + LATTICE_STEPS * eta // s * np.arange(N)[:, None]
            for k, u in enumerate(users):
                H[k, :, p:q] = (element_channels(idx, u, cfg) if tables is None
                                else tables[k][idx])
        else:
            for k, u in enumerate(users):
                abar = sparse_steering_matrix(eta, u.aoas, cfg)
                H[k, :, p:q] = sum_paths(shifts[k][x - n_on:z - n_on], abar).T
        p = q
    return batch_objective(H.transpose(2, 0, 1), powers)


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
