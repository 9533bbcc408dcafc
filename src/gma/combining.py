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

import math
from dataclasses import dataclass

import numpy as np

from .arrays import (LATTICE_STEPS, ArrayConfig, channel_profile,
                     element_channels, lattice_index, lattice_positions,
                     path_matrix, path_phases, sum_paths)

# (y, eta) rows per chunk of metric_profiles in float64, and four times as
# many in float32 (the screening pass below), so that a default 8,129-row
# level is one lag run: every batch_sinr call, and the lag rows of a run,
# cover at most one chunk. A chunk holds whole levels, or one piece of one
# level where a level's rows fill more than a chunk. The kernel's planes
# stay within the bytes of K users' planes of _CHUNK float64 rows
# (_Run.group_size), so that they stay in cache. point_values builds at
# most this many channel entries per user a batch.
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
# elementwise operation over the B candidates: one numpy call covers
# the whole batch, and no result depends on B or on the other rows. So a
# (y, eta) value does not depend on its batch (arrays builds each channel
# row alone, in one of the two orders documented there, picked by the row's
# position), and optimizers store scan values that re-evaluate
# bit-identically. The sums over users and over the N pivots are explicit
# loops, never numpy reductions: numpy sums an axis pairwise from 8 terms
# on, in an order that follows the array layout, which would tie a row's
# bits to the batch shape. Small arrays also keep a call's working set in
# cache and off freshly mapped pages.
#
# The dtype rule. The kernel computes in the dtype of its planes: complex128
# channels give float64 planes, and complex64 channels float32 ones, with
# the powers rounded to float32. Every value the package returns, stores or
# compares is float64; float32 serves only the screening pass below.
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
#
# The workspace rule. A metric_profiles call whose runs take the lag rows
# allocates one buffer, its _Workspace, sized once from its chunk and the
# largest level's overhang (N-1)*e, and every lag run carves its arrays out
# of it: the lag rows, S's entries, the channel planes, the kernel's
# temporaries, the SINRs and _screen's arrays. So a run maps no fresh
# pages, and the buffer is the call's: two calls in flight never share
# one, and it is freed when the call ends. To keep it small, the lag build
# adds its users up in as few groups as the buffer holds, and the kernel
# factors S once and then solves for its users in groups (_Run.group_size).
# Every operation is still one of the plain kernel, on the same operands,
# so no value changes a bit. A batch scored row by row gets a buffer of its
# own (_Run.rows).
#
# The screening pass. Where K > N > 2, multiuser.scan asks metric_profiles
# to screen: its lag runs are scored in float32, off a complex64 table, and
# each such row gets a float32 sum rate R~ and a bound D >= |R~ - R| on its
# distance from the float64 value R (_screen derives it, in the run's
# workspace). A screened chunk holds a level of up to 4 _CHUNK rows whole,
# so such a level is one lag run and one _screen call. Every other row
# (short runs, off-lattice rows) is scored in float64 as above. The scan
# then scores in float64 every row that the bounds cannot rule out, so its
# result is the one of scoring every row in float64. For K <= N the unit
# eigenvalues of S leave the bound too loose to rule rows out, so those
# scans, and every other caller, stay in float64.

def batch_sinr(H: np.ndarray, powers: LinkPowers, lower=None) -> np.ndarray:
    """Per-user SINRs for a batch of channel stacks.

    Args:
        H: complex array of shape (B, K, N); H[b, k] is user k's channel in
            candidate b. complex64 is computed in float32 (the dtype rule
            above); any other dtype is taken as complex128.
        powers: K link powers.
        lower: a lag run's _Run (the lag rule above): S's lower triangle,
            built from lag rows in the workspace of the metric_profiles
            call, which the kernel then uses; None builds S from H.

    Returns:
        Real array of shape (B, K): float32 for complex64 H, else float64.
        For a lag run it is a view of the call's workspace.
    """
    H = np.asarray(H)
    if H.dtype != np.complex64:
        H = H.astype(np.complex128, copy=False)
    if H.ndim != 3 or H.shape[1] != powers.K:
        raise ValueError(f"expected channel stack (B, {powers.K}, N), got {H.shape}")
    real = H.real.dtype
    p = powers.p_bar.astype(real, copy=False)
    B, K, N = H.shape
    if K == 1:
        # C order: each row then sums the same way, whatever H's layout
        power = np.ascontiguousarray(np.abs(H[:, 0, :]) ** 2)
        return p[0] * power.sum(axis=1)[:, None]
    planes = H.transpose(1, 2, 0)
    run = _Run.rows(planes, p) if lower is None else lower
    # the first rows of the group temporaries x, y are _factor's xs, ys
    _factor(run.Sr, run.Si, run.lr, run.li, *run.work[-2:, 0])
    # 1 - p_k u_k > 0 analytically; the floor only guards fp rounding (and
    # is float32's smallest normal number there)
    floor = max(1e-300, float(np.finfo(real).tiny))
    for a in range(0, K, run.g):
        zr, zi, x, y = run.group(a, planes)
        pu = np.multiply(p[a:a + len(x), None], _substitute(run.Sr, run.Si, zr, zi, x, y), zr[0])
        gamma = np.divide(pu, np.maximum(np.subtract(1.0, pu, x), floor, out=x), x)
        # C order, so that batch_sum_rate sums each row the same way
        np.copyto(run.out[:, a:a + len(x)], gamma.T)
    return run.out


class _Run:
    """What the kernel reads and writes for a batch of B rows, carved from
    one flat buffer: a lag run's workspace (_lag_lower), or one allocated
    for the batch (rows).

    Sr and Si hold S's lower triangle, and sjj, when set, its diagonal
    j >= 1 before the kernel factors it. The kernel solves for the users in
    groups of g, all in work: a group's channel planes, one (users, B) pair
    per element, then its temporaries x and y. loaded is the first user of
    the group whose planes work holds, and lr, li are _factor's
    temporaries. out holds the (B, K) SINRs, and spare is the rest of the
    buffer, free once they are out: _screen's.
    """

    def __init__(self, buf, K, N, B, g):
        self.g, self.loaded, self.Sr, self.Si, self.sjj = g, None, None, None, None
        self.out = buf[:K * B].reshape(B, K)
        self.lr, self.li = buf[K * B:(K + 2) * B].reshape(2, B)
        self.spare = buf[(K + 2) * B:]
        self.work = self.spare[:2 * (N + 1) * g * B].reshape(2 * N + 2, g, B)
        *planes, x, y = self.work
        self.views = planes[:N], planes[N:], x, y  # a whole group's

    @staticmethod
    def size(K, N, B, g):
        """The entries of a run's buffer."""
        return (K + 2) * B + max(2 * (N + 1) * g * B, (K + 3) * B)

    @staticmethod
    def group_size(K, B, itemsize):
        """Users per group: as many as keep a group's planes within the
        bytes of K users' planes of _CHUNK float64 rows, and at least one."""
        return max(1, min(K, K * 8 * _CHUNK // (B * itemsize)))

    @classmethod
    def rows(cls, planes, p):
        """The run of (K, N, B) complex planes, with S built row by row."""
        K, N, B = planes.shape
        run = cls(np.empty(cls.size(K, N, B, K), p.dtype), K, N, B, K)
        zr, zi, _, _ = run.group(0, planes)
        run.Sr, run.Si = _covariance_lower(zr, zi, p)
        return run

    def group(self, a, planes):
        """The channel planes (lists over the elements) and temporaries of
        the group of users from a, its planes copied from the (K, N, B)
        complex planes."""
        zr, zi, x, y = self.views
        g = min(self.g, len(planes) - a)
        if g < self.g:
            zr, zi = [z[:g] for z in zr], [z[:g] for z in zi]
            x, y = x[:g], y[:g]
        if self.loaded != a:
            h = planes[a:a + g].transpose(1, 0, 2)
            N = len(zr)
            np.copyto(self.work[:N, :g], h.real)
            np.copyto(self.work[N:2 * N, :g], h.imag)
            self.loaded = a
        return zr, zi, x, y


def _carve(buf, *shapes):
    """Consecutive C-contiguous views at the start of the flat buffer buf."""
    views, a = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(buf[a:a + n].reshape(shape))
        a += n
    return views


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


class _Workspace:
    """The buffer of one metric_profiles call's lag runs (the lag rule
    above), which every run reuses and which goes with the call. Sized once
    for runs of up to rows rows, whose lag rows span up to width table
    positions, and whose kernel takes its users in groups of g."""

    def __init__(self, K, N, rows, width, real):
        self.g = _Run.group_size(K, rows, np.dtype(real).itemsize)
        self.buf = np.empty(2 * (N - 1) * width + (N - 1) ** 2 * rows
                            + max(6 * width, _Run.size(K, N, rows, self.g)), real)


def _lag_lower(tables, diag, p, j0, w, e, N, ws):
    """The _Run of w lattice rows at table positions j0, j0+1, ...

    tables is the (K, T) element-channel table, diag its (T,) diagonal
    R[0] + 1, p the powers in diag's dtype, e the table steps between
    elements and ws the call's _Workspace, which the run's arrays are
    carved from. Entry (j+m, j) of row b is R[m*e] at table
    position j0 + b + j*e, so each lag row covers the run plus its
    (N-1-m)*e overhang, and every entry is a slice of one.
    """
    K, width = len(p), w + (N - 1) * e
    # what S keeps comes first: the lag rows, and the (N-1)^2 entries that
    # the kernel writes (columns j >= 1); the rest holds the lag build's
    # arrays, then the run's
    lags, own = _carve(ws.buf, (2, N - 1, width), ((N - 1) ** 2, w))
    rest = ws.buf[lags.size + own.size:]
    # the lag rows add up the users in groups of as many as the rest holds.
    # A group's planes over the span are flattened: its user k's position x
    # is entry k*width + x, so a product of two shifted slices is one
    # contiguous operation, and its entries past a user's width are unused
    step = min(K, rest.size // (6 * width))
    for a in range(0, K, step):
        g = min(step, K - a)
        re, im, gr, gi, t, v = _carve(rest, *[(g * width,)] * 6)
        span = tables[a:a + g, j0:j0 + width]
        np.copyto(re.reshape(g, width), span.real)
        np.copyto(im.reshape(g, width), span.imag)
        np.multiply(p[a:a + g, None], re.reshape(g, width), out=gr.reshape(g, width))
        np.multiply(p[a:a + g, None], im.reshape(g, width), out=gi.reshape(g, width))
        for m in range(1, N):
            # the operations of _covariance_lower, where element j+m is row i
            n, size = width - m * e, g * width - m * e
            tm, vm = t[:size], v[:size]
            per_user = [tm[k * width:k * width + n] for k in range(g)]
            real, imag = lags[:, m - 1, :n]
            np.multiply(gr[m * e:], re[:size], out=tm)
            tm += np.multiply(gi[m * e:], im[:size], out=vm)
            _add_rows(per_user, real if a else 0.0, out=real)
            np.multiply(gi[m * e:], re[:size], out=tm)
            tm -= np.multiply(gr[m * e:], im[:size], out=vm)
            _add_rows(per_user, imag if a else 0.0, out=imag)
    Sr = [[None] * i + [diag[j0 + i * e:j0 + i * e + w]] for i in range(N)]
    Si = [[None] * i for i in range(N)]
    for m in range(1, N):
        for j in range(N - m):
            Sr[j + m][j], Si[j + m][j] = lags[:, m - 1, j * e:j * e + w]
    run = _Run(rest, K, N, w, ws.g)
    run.sjj = [Sr[j][j] for j in range(1, N)]
    own = iter(own)
    for rows in (Sr, Si):
        for i in range(1, N):
            for j in range(1, len(rows[i])):
                cell = next(own)
                cell[...] = rows[i][j]
                rows[i][j] = cell
    run.Sr, run.Si = Sr, Si
    return run


def _lag_diagonal(tables, p):
    """R[0] + 1 = 1 + sum_k p_k |c_k|^2 over the table, users added in order;
    p is in the dtype of the table's real part."""
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


# The kernel factors S = L D L^H in place, right-looking (_factor), then
# solves L z_k = h_k for each group of users and reads u_k = h_k^H S^-1 h_k =
# sum_j |z_kj|^2 / d_j off z (_substitute). Every operation is the one a
# solve interleaved with the factorization makes, on the same operands.

def _factor(Sr, Si, lr, li, xs, ys):
    """S = L D L^H in place, right-looking: Sr[j][j] becomes the pivot d_j,
    and entry (i, j), i > j, becomes L_ij. lr, li, xs and ys are (B,)
    temporaries. L_ij takes S_ij's place in the lists by trading it with
    lr and li, so the arrays below the diagonal, and lr and li, are
    written; S_00 is only read, so it may be a view of a shared array."""
    N = len(Sr)
    for j in range(N):
        d = Sr[j][j]
        # the rows from the bottom: row i reads S_mj of the rows m <= i,
        # and then L_ij takes the place of S_ij
        for i in range(N - 1, j, -1):
            np.divide(Sr[i][j], d, lr)
            np.divide(Si[i][j], d, li)
            for m in range(j + 1, i + 1):
                # S_im -= L_ij conj(S_mj), the Schur complement update
                np.multiply(lr, Sr[m][j], xs)
                xs += np.multiply(li, Si[m][j], ys)
                Sr[i][m] -= xs
                if m < i:
                    np.multiply(li, Sr[m][j], xs)
                    xs -= np.multiply(lr, Si[m][j], ys)
                    Si[i][m] -= xs
            Sr[i][j], lr = lr, Sr[i][j]
            Si[i][j], li = li, Si[i][j]


def _substitute(L, Li, zr, zi, x, y):
    """u = sum_j |z_j|^2 / d_j for the (users, B) planes zr, zi of h, with
    L z = h, as _factor leaves L and the pivots d in L and Li; u is
    returned in zr[0]. It overwrites the planes, and x and y are
    temporaries of their shape."""
    N = len(L)
    for j in range(N):
        for i in range(j + 1, N):
            lr, li = L[i][j], Li[i][j]
            np.multiply(lr, zr[j], x)
            x -= np.multiply(li, zi[j], y)
            zr[i] -= x
            np.multiply(lr, zi[j], x)
            x += np.multiply(li, zr[j], y)
            zi[i] -= x
        # plane j is not read again: |z_j|^2 / d_j in its place
        t = np.multiply(zr[j], zr[j], zr[j])
        t += np.multiply(zi[j], zi[j], zi[j])
        t /= L[j][j]
        if j:
            zr[0] += t
    return zr[0]


def batch_sum_rate(H: np.ndarray, powers: LinkPowers, lower=None):
    """Sum rates (bits/s/Hz) for a batch of channel stacks, shape (B,).

    complex64 H, with K > 1, is the screening pass above: the result is
    the pair (R~, D) of float32 arrays, the sum rates of the float32 SINRs
    and a bound D >= |R~ - R| on their distance from the float64 sum rates
    R (see _screen).
    """
    H = np.asarray(H)
    if H.dtype != np.complex64:
        g = batch_sinr(H, powers, lower)
        return np.log2(np.add(g, 1.0, g), g).sum(axis=1)
    if powers.K == 1:
        raise ValueError("the screening bound needs K > 1")
    p = powers.p_bar.astype(np.float32)
    if lower is None:
        lower = _Run.rows(H.transpose(1, 2, 0), p)
        lower.sjj = [lower.Sr[j][j].copy() for j in range(1, len(lower.Sr))]
    return _screen(batch_sinr(H, powers, lower), lower.Sr, lower.sjj, p, lower.spare)


def batch_objective(H: np.ndarray, powers: LinkPowers, lower=None):
    """Scheme-comparison metric for a batch: SNR if K == 1, else sum rate
    (a pair for complex64 H, as batch_sum_rate says)."""
    if powers.K == 1:
        return batch_sinr(H, powers)[:, 0]
    return batch_sum_rate(H, powers, lower)


def channel_stack(y_values: np.ndarray, eta: int, users, cfg: ArrayConfig) -> np.ndarray:
    """Channel stacks for all users over a batch of positions, shape (B, K, N)."""
    return np.stack([channel_profile(y_values, eta, u, cfg) for u in users], axis=1)


def metric_profiles(y_values, etas, users, powers: LinkPowers, cfg: ArrayConfig,
                    screen: bool = False):
    """Yield (eta, metric array over y_values) for each requested eta.

    It serves the dense (y, eta) grids of multiuser.scan and
    experiments.landscape; a list of points goes through point_values.
    Channels are built in the two orders of arrays. The lattice rows of a
    call, built per element, share one element-channel table per user, with
    stride s = the gcd of their index gaps and LATTICE_STEPS, and every
    level reads its channels off it; when the table would hold more entries
    than those rows read, they are built element by element instead. The
    off-lattice rows, built factored as A(eta) f(y), share one table of path
    phases f per user and one path matrix A per level and user.

    The rows are scored in chunks of up to c = _CHUNK rows (4 _CHUNK when
    screening, so that a default level is one lag run). While a level's B
    rows fit in a chunk, a chunk holds floor(c / B) whole levels; otherwise
    it is one piece of one level, and the pieces start at the level's first
    row. So each level is complete when its group of chunks ends. In a
    chunk, each run of consecutive table positions of one level that the
    lag rule above takes goes through batch_objective with its covariance
    built from lag rows, in the call's workspace (the workspace rule
    above), which is freed when the call ends; the chunk's other rows go
    through one _score_rows call that builds it row by row. A (y, eta)
    value does not depend on its batch: each entry equals objective_metric
    at that point.

    With screen (multiuser.scan's pass), each item is (eta, values, bounds).
    Where K > N > 2 the table is complex64 and the lag runs are scored in
    float32 (the screening pass above): their entries in values are R~,
    and bounds holds their D, and 0 on the level's other rows, whose values
    are objective_metric's. bounds is None where no row of the level was
    screened: then every value is objective_metric's.
    """
    y_values = np.asarray(y_values, dtype=np.float64)
    etas, B, N, K = list(etas), y_values.size, cfg.N, len(users)
    screen, exact = bool(screen), not (screen and K > N > 2)
    p = powers.p_bar.astype(np.float64 if exact else np.float32)
    lat, on = lattice_index(y_values, cfg)
    n_on = int(on.sum())
    # rows are scored lattice rows first, each class in row order: row i
    # of the caller is scored row back[i] (no copy where the caller's rows
    # come in that order, as a scan's do)
    order = back = slice(None)
    if not on[:n_on].all():
        order = np.argsort(~on, kind="stable")
        back = np.argsort(order)
    lat = lat[order][:n_on]
    phases = None if n_on == B else [path_phases(y_values[order][n_on:], u.aoas, cfg)
                                     for u in users]
    # lat holds lattice indices base + s*lat: base = 0 and s = 1 until the
    # tables are built, then lat holds table positions
    tables, diag, base, s, breaks = None, None, 0, 1, np.empty(0, dtype=np.int64)
    if n_on:
        t0 = int(lat.min())
        g = int(np.gcd.reduce(np.append(lat - t0, LATTICE_STEPS)))
        size = (int(lat.max()) - t0) // g + 1 + (N - 1) * max(etas) * LATTICE_STEPS // g
        if size < n_on * N * len(etas):
            # only the (K, size) table is kept: each user's entries are
            # built in blocks of _CHUNK positions, straight into its dtype
            tables = np.empty((K, size), np.complex128 if exact else np.complex64)
            for k, u in enumerate(users):
                for a in range(0, size, _CHUNK):
                    b = min(a + _CHUNK, size)
                    tables[k, a:b] = element_channels(
                        lattice_positions(t0 + g * np.arange(a, b), cfg), u, cfg)
            lat, base, s = (lat - t0) // g, t0, g
            if K > 1 and N > 2:
                diag = _lag_diagonal(tables, p)
                # runs of consecutive table positions end at these rows
                breaks = np.flatnonzero(np.diff(lat) != 1) + 1
    cuts = np.append(breaks, n_on)  # runs never mix lattice and off-lattice rows
    chunk = _CHUNK if exact else 4 * _CHUNK
    ws = None if diag is None else _Workspace(
        K, N, min(chunk, B), min(chunk, B) + (N - 1) * LATTICE_STEPS * max(etas) // s, p.dtype)
    per = max(1, chunk // max(B, 1))  # whole levels per chunk; 1 when a level is cut
    for first in range(0, len(etas), per):
        group = range(first, min(first + per, len(etas)))
        vals, spread = np.empty((len(group), B)), [None] * len(group)
        for a in range(0, B, chunk):  # the pieces of a level that fills chunks
            b, by_rows = min(a + chunk, B), []
            inner = cuts[(cuts > a) & (cuts < b)].tolist()
            for i, lvl in enumerate(group):
                e = LATTICE_STEPS * etas[lvl] // s
                for x, z in zip([a] + inner, inner + [b]):
                    if diag is None or z > n_on or z - x <= e:
                        by_rows.append((lvl, x, z))
                        continue
                    j0, w = int(lat[x]), z - x
                    got = batch_objective(_table_view(tables, j0, w, e, N), powers,
                                          _lag_lower(tables, diag, p, j0, w, e, N, ws))
                    if exact:
                        vals[i, x:z] = got
                    else:
                        if spread[i] is None:
                            spread[i] = np.zeros(B)
                        vals[i, x:z], spread[i][x:z] = got
            if by_rows:
                got, q = _score_rows(by_rows, etas, n_on, lat, base, s,
                                     tables if exact else None, phases, users,
                                     powers, cfg), 0
                for lvl, x, z in by_rows:
                    vals[lvl - first, x:z], q = got[q:q + z - x], q + z - x
        for i, lvl in enumerate(group):  # in the caller's row order
            yield (etas[lvl], vals[i][back],
                   None if spread[i] is None else spread[i][back])[:2 + screen]


# u of the screening bound: float32's unit roundoff, plus float64's, which
# bounds the rounding of the float64 value R by the same argument
_U = 2.0 ** -24 + 2.0 ** -53


def _screen(gammas, Sr, sjj, p, spare=None):
    """(R~, D) of w float32 rows: R~ = sum_k log2(1 + gammas[:, k]), and
    D >= |R~ - R|, where R is the row's float64 sum rate, or D = +inf.

    gammas is batch_sinr's float32 (w, K) result, and Sr the real lower
    triangle of S it factored in place: its diagonal holds the pivots d_j.
    Both are overwritten. sjj[j - 1] holds S_jj before the factorization,
    j = 1 ... N - 1; p are the float32 powers. spare, a flat float32
    buffer of at least (K + 3) w entries, holds the temporaries and the
    result; None allocates one.

    The bound. Let u = _U, g_m = m u / (1 - m u), and S^ =
    diag(S)^-1/2 S diag(S)^-1/2, whose diagonal is 1 and whose eigenvalues
    lie in (0, N]. Scaled by sqrt(S_ii S_jj), a float32 row is exact for
    S + E and channels rounded to h (1 + delta), |delta| <= u, but for its
    last sums. Entry by entry (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3 and 10; a complex product in real arithmetic costs a
    factor sqrt(2); |L| D |L^H| <= sqrt(S_ii S_jj) (1 + O(u)) by
    Cauchy-Schwarz while every pivot is positive):
      - rounding the table to complex64 moves S by (2 + u) u;
      - a lag sum (p_k rounded, two products and an add per user, K users
        added in order) errs by sqrt(2) g_{K+3};
      - the unrolled LDL^H has L D L^H = S + E_1, |E_1| <= sqrt(2) g_{N+3}
        |L| D |L^H|;
      - the substitution solves (L + F) z = h, |F| <= sqrt(2) g_{N+1} |L|,
        which moves L D L^H by 2 sqrt(2) g_{N+1} (1 + O(u)).
    So |E^_ij| <= c_S u, c_S = 2 + sqrt(2) (K + 3N + 8), and ||E^||_2 <=
    N c_S u. If ||E^|| <= r lambda, lambda = lambda_min(S^), then
    h^H (S + E)^-1 h lies in [1/(1 + r), 1/(1 - r)] times h^H S^-1 h, and
    the channel rounding moves sqrt(h^H S^-1 h) by u sqrt(N / lambda)
    relative, so h^H S^-1 h by 3 u N / lambda. With c = c_S + 3 + 1 (the
    1 covers second-order terms) and rho = c N u / lambda, x = p_k u_k and
    the kernel's x~ thus satisfy |x - x~| <= eps x~ + tau, where
    eps = (rho / (1 - rho) + g_{N+5}) / (1 - g_{N+5}): g_{N+5} covers the
    sum over the pivots and the product by p_k. tau covers underflow: it
    adds 2^-149 at most per operation, nothing against S, whose diagonal
    is at least 1, and tau = N^4 (1 + max p) 2^-140 / lambda to x through
    the substitution and the last sums.

    lambda from the pivots: the matrix factored, scaled, has determinant
    det = prod_j d_j / S_jj, and a positive definite matrix of trace N has
    lambda_min >= det ((N - 1)/N)^(N - 1), as its other eigenvalues have a
    product of at most (N/(N - 1))^(N - 1). Its trace and scaling differ
    from S^'s by O(u), and the float32 ratios round 2N times: a factor
    1 - b u, b = 2N (K + N + 8), covers them. By Weyl's inequality,
    lambda >= lambda^ = det ((N - 1)/N)^(N - 1) (1 - b u) - c N u, so
    rho / (1 - rho) <= c N u q, q = 1 / (lambda^ - c N u).

    The rate. R_k = log2(1 + gamma_k) = -log2(1 - x), and the kernel
    returns gamma~ = x~ / (1 - x~) (1 + theta), |theta| <= g_2. Then
    (1 + gamma_k) / (1 + gamma~_k) lies within a factor (1 - a_k) (1 - g_2)
    of 1, a_k = (eps gamma~_k + tau (1 + gamma~_k)) / (1 - g_2), so
    |R_k - log2(1 + gamma~_k)| <= -log2(1 - a_k) - log2(1 - g_2)
    <= (1/(1 - a_k) - 1) / ln 2 - log2(1 - g_2), and D sums that over the
    users.

    Arithmetic. D is evaluated in float32 where lambda^ >= 4 c N u: with
    rho <= 1/4, tau <= N^4 (1 + max p) 2^-140 / (4 c N u), and each a_k is
    within a relative 2^-18 of its value, so it is raised by that factor
    before 1 - a_k, which then rounds exactly (Sterbenz) or by u. Raising
    the user sum by 1 + 2^-16 and adding 2^-16 (K + R~) covers these
    roundings, the cancellation in 1/(1 - a_k) - 1, those of R~ (float32
    logs, which numpy tests to 3 ulp, summed in float32) and of R, and
    the caller's R~ +- D in float64. D = +inf on every other row: a pivot
    <= 0, rho > 1/4, some a_k >= 1, or a value that is not finite.
    """
    N, K, w = len(Sr), len(p), gammas.shape[0]
    u, c = _U, 6.0 + np.sqrt(2.0) * (K + 3 * N + 8)
    cnu, g2, gn = c * N * u, 2 * u / (1 - 2 * u), (N + 5) * u / (1 - (N + 5) * u)
    lead = ((N - 1) / N) ** (N - 1) * (1 - 2 * N * (K + N + 8) * u)
    tau = N ** 4 * (1 + float(p.max())) * 2.0 ** -140 / (4 * cnu) / (1 - g2)
    # a_k = gamma~_k (q c1 + c0) + tau, with q = 1/(lambda^ - c N u) =
    # 1/(lead (det - 2 c N u / lead)), each raised by 2^-18
    c1 = cnu / ((1 - gn) * (1 - g2) * lead) * (1 + 2.0 ** -18)
    c0 = (gn / (1 - gn) / (1 - g2) + tau) * (1 + 2.0 ** -18)
    up = (1 + 2.0 ** -16) / np.log(2.0)
    if spare is None:
        spare = np.empty((K + 3) * w, gammas.dtype)
    g, q, spread, rate = _carve(spare, (K, w), (w,), (w,), (w,))
    np.copyto(g, gammas.T)  # (K, w): numpy loops over the rows
    with np.errstate(all="ignore"):
        det = Sr[1][1]
        for j in range(1, N):
            d = np.maximum(Sr[j][j], 0.0, out=Sr[j][j])
            d /= sjj[j - 1]
            if j > 1:
                det *= d
        det -= 2 * cnu / lead
        # q c1 + c0, or +inf where rho > 1/4, that is lambda^ < 4 c N u
        q.fill(np.inf)
        np.divide(c1, det, out=q, where=det >= 3 * cnu / lead)
        q += c0
        a = np.multiply(g, q, out=g)
        # 1/(1 - a_k), +inf where a_k >= 1
        np.maximum(np.subtract(1 - tau * (1 + 2.0 ** -18), a, out=a), 0.0, out=a)
        np.matmul(np.full(K, up, g.dtype), np.reciprocal(a, out=a), out=spread)
        np.matmul(np.log2(np.add(gammas, 1, out=gammas), out=gammas), np.ones(K, g.dtype),
                  out=rate)
        spread += 2.0 ** -16 * rate
        spread += K * (2.0 ** -16 - up - (1 + 2.0 ** -16) * np.log2(1 - g2))
        bad = ~(spread < np.inf)
    np.copyto(spread, np.inf, where=bad)
    np.copyto(rate, 0.0, where=bad)
    return rate, spread


def _table_view(tables, j0, w, e, N):
    """Read-only (w, K, N) view H of the table, H[b, k, n] = tables[k, j0 + b + n*e]."""
    item = tables.itemsize
    H = np.ndarray((w, len(tables), N), tables.dtype, tables, j0 * item,
                   (item, tables.strides[0], e * item))
    H.flags.writeable = False
    return H


def _score_rows(runs, etas, n_on, lat, base, s, tables, phases, users, powers, cfg):
    """Values of the runs' rows, in order, with S built row by row.

    A run (level index, first row, last row + 1) holds lattice rows only
    (rows below n_on) or off-lattice rows only. tables is the complex128
    table, or None: the channels at lattice indices base + s*lat are then
    built element by element, with the same bits, in one element_channels
    call per user. phases holds the off-lattice rows' path phases per user,
    and each off-lattice run builds its level's path matrix per user.
    """
    N = cfg.N
    H = np.empty((len(users), N, sum(z - x for _, x, z in runs)), complex)
    cols, idx, p = [], [], 0
    for lvl, x, z in runs:
        q = p + z - x
        if z <= n_on:
            cols.append(np.arange(p, q))
            idx.append(lat[x:z] + LATTICE_STEPS * etas[lvl] // s * np.arange(N)[:, None])
        else:
            for k, (f, u) in enumerate(zip(phases, users)):
                A = path_matrix(etas[lvl], u, cfg)
                H[k, :, p:q] = sum_paths(f[x - n_on:z - n_on], A).T
        p = q
    if idx:
        cols, idx = np.concatenate(cols), np.concatenate(idx, axis=1)
        x = lattice_positions(base + s * idx, cfg)
        for k, u in enumerate(users):
            H[k][:, cols] = element_channels(x, u, cfg) if tables is None else tables[k][idx]
    return batch_objective(H.transpose(2, 0, 1), powers)


def point_values(y_values, etas, users, powers: LinkPowers, cfg: ArrayConfig) -> np.ndarray:
    """objective_metric's value at each (y_values[i], etas[i]), unchecked.

    It scores the lists of points: the misses of a PointScores lookup and
    the rows that multiuser.scan scores again in float64. In batches that
    build at most _CHUNK channel entries per user, the points are ordered
    as metric_profiles orders its rows, lattice rows first, and then by
    level, and go through _score_rows in runs of one level. A value does
    not depend on its batch, so each equals objective_metric's at its point.
    """
    y_values, etas = np.asarray(y_values, dtype=np.float64), np.asarray(etas)
    out, size = np.empty(y_values.size), max(1, _CHUNK // cfg.N)
    for a in range(0, y_values.size, size):
        ys, es = y_values[a:a + size], etas[a:a + size]
        t, on = lattice_index(ys, cfg)
        order, n_on, levels = np.lexsort((es, ~on)), int(on.sum()), sorted(set(es.tolist()))
        lvl = np.searchsorted(levels, es[order])
        # a run ends where the level changes or the off-lattice rows begin
        cuts = np.flatnonzero(np.diff(lvl + len(levels) * (np.arange(ys.size) >= n_on)))
        cuts = (cuts + 1).tolist()
        runs = [(int(lvl[x]), x, z) for x, z in zip([0] + cuts, cuts + [ys.size])]
        phases = None if n_on == ys.size else [path_phases(ys[order[n_on:]], u.aoas, cfg)
                                               for u in users]
        out[a + order] = _score_rows(runs, levels, n_on, t[order[:n_on]], 0, 1, None,
                                     phases, users, powers, cfg)
    return out


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


class PointScores:
    """One trial's memo of (y, eta) values, for the scores made after a scan.

    It holds the values of one set of users and powers, and serves the
    configurations that share N, the wavelength and y_min (a ValueError
    otherwise), on which a value depends. Every lookup checks its points
    against the asking configuration, as objective_metric does, and scores
    only the points the memo has not seen: profiles through point_values,
    point through objective_metric. A (y, eta) value does not depend on its batch, so
    each value returned is objective_metric's at that point. Make one per
    trial: nothing in it outlives the searches it serves.
    """

    def __init__(self, users, powers: LinkPowers):
        self.users, self.powers = users, powers
        self._owner = _paths_key(users, powers)
        self._lattice = None  # (N, wavelength, y_min) of the configurations served
        self._levels = {}  # eta -> {y: value}

    @classmethod
    def over(cls, users, powers: LinkPowers, scores=None) -> "PointScores":
        """scores, checked to hold these users' and powers' values; a new
        memo when scores is None."""
        if scores is None:
            return cls(users, powers)
        if scores._owner != _paths_key(users, powers):
            raise ValueError("the point scores hold other users or powers")
        return scores

    def point(self, y: float, eta: int, cfg: ArrayConfig) -> float:
        """The value at (y, eta), validated as objective_metric validates it."""
        self._serve(cfg)
        eta = cfg.validate_eta(eta)
        y = cfg.validate_position(y, eta)
        level = self._levels.setdefault(eta, {})
        if y not in level:
            level[y] = objective_metric(y, eta, self.users, self.powers, cfg)
        return level[y]

    def profiles(self, y_values, etas, cfg: ArrayConfig) -> np.ndarray:
        """Values over etas x y_values, shape (len(etas), len(y_values)).

        etas are integers. Every point must lie in its level's position
        bounds, the check of validate_position (position_bounds runs
        validate_eta). The (y, eta) points the memo has not seen, and only
        those, go to one point_values call.
        """
        self._serve(cfg)
        ys = np.asarray(y_values, dtype=np.float64).tolist()
        etas = list(etas)
        for eta in etas:
            lo, hi = cfg.position_bounds(eta)
            for y in ys:
                if not lo <= y <= hi:
                    cfg.validate_position(y, eta)  # raises with its message
        levels = [self._levels.setdefault(eta, {}) for eta in etas]
        todo = list(dict.fromkeys((y, eta) for eta, level in zip(etas, levels)
                                  for y in ys if y not in level))
        if todo:
            new = point_values(*map(np.array, zip(*todo)), self.users, self.powers, cfg)
            for (y, eta), val in zip(todo, new.tolist()):
                self._levels[eta][y] = val
        values = np.fromiter((level[y] for level in levels for y in ys),
                             np.float64, len(levels) * len(ys))
        return values.reshape(len(levels), len(ys))

    def _serve(self, cfg: ArrayConfig) -> None:
        lattice = (cfg.N, cfg.wavelength, cfg.y_min)
        if self._lattice is None:
            self._lattice = lattice
        elif lattice != self._lattice:
            raise ValueError("configurations must share N, the wavelength and y_min")


def _paths_key(users, powers: LinkPowers):
    """The bits of the users' paths and the powers."""
    return (tuple(u.gains.tobytes() + u.aoas.tobytes() for u in users),
            powers.p_bar.tobytes())
