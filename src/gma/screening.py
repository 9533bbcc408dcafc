"""The screening pass of the K > N > 2 lattice scan, in complex64.

Where K > N > 2, multiuser.scan asks combining.metric_profiles to screen:
its lag runs are scored off a complex64 element-channel table, and each
row gets a float32 sum rate R~ and a bound D >= |R~ - R| on its distance
from the float64 value R (_screen). A screened chunk holds a level of up
to 4 combining._CHUNK rows whole: one lag run and one _screen call. Other
rows (short runs, off-lattice rows) are scored in float64, and the scan
scores in float64 every row that the bounds cannot rule out, so its result
is the one of scoring every row in float64. For K <= N the unit
eigenvalues of S leave the bound too loose, so those scans stay in float64.

The kernel is combining's in complex arithmetic, through numpy's complex64
loops, which form a complex product in one pass:
  - the lag rows R[m*e] = sum_k c_k(x + m*e) p_k conj(c_k(x)) take one
    p_k conj(c_k) pass per user, then a complex multiply and an add per
    user and lag (_lag_lower);
  - S's entries are split into real planes once, for combining._factor:
    on complex entries it would read strided real parts, three times as
    slow;
  - L is interleaved once, and the solve L z = h takes a complex multiply
    and a subtract per entry (i, j), reading h straight off the table
    (sinr).
Only R~, D and the set of rows scored again depend on this pass. The
float64 kernel stays on real planes: numpy's complex128 loops round a
short product differently from a long one, which would tie a stored value
to its batch.

The workspace rule is combining's: one float32 _Workspace per
metric_profiles call, out of which every lag run carves its arrays (_Run).
The solve takes its users in groups (_Run.group_size); a group does the
operations of any other group size, so no value changes a bit.
"""

from __future__ import annotations

import numpy as np

from . import combining


class _Run:
    """What the kernel reads and writes for w rows, carved from one flat
    float32 buffer: a lag run's share of its _Workspace, or one allocated
    for a batch (_rows).

    out holds the (K, w) SINRs, and piv S's diagonal j >= 1, which the
    factorization turns into the pivots d_j. Sr and Si list S's lower
    triangle as rows of (w,) planes, as combining._factor takes them, and
    sjj[j - 1] holds S_jj, j >= 1, before the factorization. x holds the
    lag rows, complex over a span of width table positions, and then L,
    interleaved. work holds the rest, in turn: the lag build's two complex
    rows; S's planes below the diagonal, then _factor's four temporaries;
    a group's planes in the solve; _screen's.
    """

    def __init__(self, buf, K, N, w, width):
        self.g = self.group_size(K, N, w, width)
        self.out, self.piv, self.x, self.work = combining._carve(
            buf, (K, w), (N - 1, w), (max(2 * (N - 1) * width, N * (N - 1) * w),),
            (max(self._shared(K, N, w, width), 3 * N * self.g * w),))
        self.Sr = self.Si = self.sjj = None

    @staticmethod
    def _shared(K, N, w, width):
        # what work holds outside the solve
        return max(4 * width, (N * (N - 1) + 4) * w, (K + 3) * w)

    @classmethod
    def size(cls, K, N, w, width):
        """The entries of a run's buffer."""
        return (K + N - 1) * w + max(2 * (N - 1) * width, N * (N - 1) * w) \
            + max(cls._shared(K, N, w, width), 3 * N * cls.group_size(K, N, w, width) * w)

    @staticmethod
    def group_size(K, N, w, width):
        """Users per group of the solve: as many as work holds outside the
        solve, and at least one."""
        return max(1, min(K, _Run._shared(K, N, w, width) // (3 * N * w)))

    def take(self, Sr, Si):
        """S's lower triangle, lists Sr, Si of (w,) planes, into the run: the
        diagonal j >= 1 into piv, the entries below it to the start of work.
        S_00 is only read, and sjj keeps the diagonal's planes."""
        N, w = len(Sr), self.out.shape[1]
        self.sjj = [Sr[j][j] for j in range(1, N)]
        own = iter(self.work[:N * (N - 1) * w].reshape(-1, w))
        self.Sr = [[None] * i + [Sr[0][0] if i == 0 else self.piv[i - 1]] for i in range(N)]
        self.Si = [[None] * i for i in range(N)]
        for i in range(1, N):
            np.copyto(self.Sr[i][i], Sr[i][i])
            for j in range(i):
                for mine, theirs in ((self.Sr, Sr), (self.Si, Si)):
                    mine[i][j] = next(own)
                    np.copyto(mine[i][j], theirs[i][j])


class _Workspace:
    """The buffer of one screening metric_profiles call's lag runs, which
    every run reuses and which goes with the call. Sized once for runs of
    up to rows rows whose lag rows span up to width table positions."""

    def __init__(self, K, N, rows, width):
        self.buf = np.empty(_Run.size(K, N, rows, width), np.float32)


def _lag_lower(tables, diag, p, j0, w, e, N, ws):
    """The _Run of w lattice rows at table positions j0, j0+1, ...

    tables is the (K, T) complex64 element-channel table, diag its (T,)
    float32 diagonal R[0] + 1, p the float32 powers, e the table steps
    between elements and ws the call's _Workspace. Entry (j+m, j) of row b
    is R[m*e] at table position j0 + b + j*e, so each lag row covers the
    run plus its (N-1-m)*e overhang; the users are added in order.
    """
    K, width = len(p), w + (N - 1) * e
    run = _Run(ws.buf, K, N, w, width)
    lags = run.x[:2 * (N - 1) * width].view(np.complex64).reshape(N - 1, width)
    pc, t = run.work[:4 * width].view(np.complex64).reshape(2, width)
    for k in range(K):
        c = tables[k, j0:j0 + width]
        np.conjugate(np.multiply(c, p[k], out=pc), out=pc)
        for m in range(1, N):
            n = width - m * e
            if k:
                np.add(lags[m - 1, :n], np.multiply(c[m * e:], pc[:n], out=t[:n]),
                       out=lags[m - 1, :n])
            else:
                np.multiply(c[m * e:], pc[:n], out=lags[m - 1, :n])
    # S's entries, split into real planes once
    diag = diag[j0:j0 + width]
    entry = [[lags[i - j - 1, j * e:j * e + w] for j in range(i)] for i in range(N)]
    run.take([[z.real for z in row] + [diag[i * e:i * e + w]] for i, row in enumerate(entry)],
             [[z.imag for z in row] for row in entry])
    return run


def _rows(planes, p):
    """The _Run of the (K, N, B) complex64 planes, with S built row by row
    (combining._covariance_lower) in float32."""
    K, N, B = planes.shape
    run = _Run(np.empty(_Run.size(K, N, B, B), np.float32), K, N, B, B)
    run.take(*combining._covariance_lower(planes.real.transpose(1, 0, 2),
                                          planes.imag.transpose(1, 0, 2), p))
    return run


def sinr(planes, p, run):
    """The (K, w) float32 SINRs of the (K, N, w) complex64 planes h, with S's
    lower triangle in run: a lag run (_lag_lower) or None, which builds S
    row by row. The result is a view of the run's buffer.

    The kernel factors S = L D L^H on real planes and interleaves L once.
    Then, for each group of users, it solves L z = h column by column,
    z_0 = h_0 being read off the planes, and reads u = sum_j |z_j|^2 / d_j,
    each |z_j|^2 the sum of its two squares, and gamma = p u / (1 - p u)
    off z, as combining's float64 kernel does.
    """
    if planes.strides[-1] != planes.itemsize:
        planes = np.ascontiguousarray(planes)  # the solve reads h_0's floats
    K, N, w = planes.shape
    run = _rows(planes, p) if run is None else run
    Sr, Si = run.Sr, run.Si
    combining._factor(Sr, Si, *run.work[N * (N - 1) * w:(N * (N - 1) + 4) * w].reshape(4, w))
    L = iter(run.x[:N * (N - 1) * w].view(np.complex64).reshape(-1, w))
    Lc = [[None] * i for i in range(N)]
    for i in range(1, N):
        for j in range(i):
            Lc[i][j] = next(L)
            np.copyto(Lc[i][j].real, Sr[i][j])
            np.copyto(Lc[i][j].imag, Si[i][j])
    # S's planes below the diagonal are free now: a group's z_1 ... z_{N-1},
    # their product t, and the |z_j|^2 / d_j
    g, pair = run.g, np.ones(2, np.float32)
    zs, ts, sqs = combining._carve(run.work, (N - 1, g, 2 * w), (g, 2 * w), (N, g, w))
    # 1 - p_k u_k > 0 analytically; the floor, float32's smallest normal
    # number, only guards rounding
    floor = np.finfo(np.float32).tiny
    for a in range(0, K, g):
        h = planes[a:a + g]
        n = len(h)
        zf, tf, sq = zs[:, :n], ts[:n], sqs[:, :n]
        z, t = [h[:, 0]] + list(zf.view(np.complex64)), tf.view(np.complex64)
        for j in range(N):
            for i in range(j + 1, N):
                np.multiply(Lc[i][j], z[j], out=t)
                np.subtract(h[:, i] if j == 0 else z[i], t, out=z[i])
        # |z_j|^2: the squares, added in pairs (a product by ones adds them
        # exactly as an add would)
        np.square(z[0].view(np.float32), out=tf)
        np.matmul(tf.reshape(n, w, 2), pair, out=sq[0])
        np.square(zf, out=zf)
        np.matmul(zf.reshape(N - 1, n, w, 2), pair, out=sq[1:])
        u = np.divide(sq[0], Sr[0][0], out=sq[0])
        np.divide(sq[1:], run.piv[:, None], out=sq[1:])
        for j in range(1, N):
            u += sq[j]
        pu = np.multiply(p[a:a + n, None], u, out=u)
        np.divide(pu, np.maximum(np.subtract(1.0, pu, out=sq[1]), floor, out=sq[1]),
                  out=run.out[a:a + n])
    return run.out


# u of the screening bound: float32's unit roundoff, plus float64's, which
# bounds the rounding of the float64 value R by the same argument
_U = 2.0 ** -24 + 2.0 ** -53


def _screen(gammas, Sr, sjj, p, spare=None):
    """(R~, D) of w float32 rows: R~ = sum_k log2(1 + gammas[k]), and
    D >= |R~ - R|, where R is the row's float64 sum rate, or D = +inf.

    gammas is sinr's float32 (K, w) result, and Sr the real lower triangle
    of S it factored in place: its diagonal holds the pivots d_j. Both are
    overwritten. sjj[j - 1] holds S_jj before the factorization,
    j = 1 ... N - 1; p are the float32 powers. spare, a flat float32
    buffer of at least (K + 3) w entries, holds the temporaries and the
    result; None allocates one.

    The bound. Let u = _U, g_m = m u / (1 - m u), and S^ =
    diag(S)^-1/2 S diag(S)^-1/2, whose diagonal is 1 and whose eigenvalues
    lie in (0, N]. Scaled by sqrt(S_ii S_jj), a float32 row is exact for
    S + E and channels rounded to h (1 + delta), |delta| <= u, but for its
    last sums. Entry by entry (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3 and 10; a complex product costs a factor sqrt(2), see
    below; |L| D |L^H| <= sqrt(S_ii S_jj) (1 + O(u)) by Cauchy-Schwarz
    while every pivot is positive):
      - rounding the table to complex64 moves S by (2 + u) u;
      - a lag sum (p_k rounded, a complex product and an add per user, K
        users added in order) errs by sqrt(2) g_{K+3};
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

    Complex products. The lag rows, the solve and |z_j|^2 take their
    products from numpy's complex64 loops, and the factorization from real
    planes. Each component of a complex product a b is two real products
    and a sum, a_r b_r - a_i b_i or a_r b_i + a_i b_r, and a loop rounds it
    either as two rounded products and a rounded sum, or, with a fused
    multiply-add, as one rounded product fused into the other and rounded
    once (Jeannerod, Kornerup, Louvet and Muller, Math. Comp., 2017). Both
    err by at most g_2 (|a_r b_r| + |a_i b_i|) in that component, the
    bound of Higham's Lemma 3.5 that gives the factor sqrt(2) above, so the
    constants hold whichever loop numpy dispatches. A product by a real
    number (p_k c_k, or a complex loop given p_k + 0j) and a complex sum
    round each component once.

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
    N, (K, w) = len(Sr), gammas.shape
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
    a, q, spread, rate = combining._carve(spare, (K, w), (w,), (w,), (w,))
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
        np.multiply(gammas, q, out=a)
        # 1/(1 - a_k), +inf where a_k >= 1
        np.maximum(np.subtract(1 - tau * (1 + 2.0 ** -18), a, out=a), 0.0, out=a)
        np.matmul(np.full(K, up, a.dtype), np.reciprocal(a, out=a), out=spread)
        np.matmul(np.ones(K, a.dtype), np.log2(np.add(gammas, 1, out=gammas), out=gammas),
                  out=rate)
        spread += 2.0 ** -16 * rate
        spread += K * (2.0 ** -16 - up - (1 + 2.0 ** -16) * np.log2(1 - g2))
        bad = ~(spread < np.inf)
    np.copyto(spread, np.inf, where=bad)
    np.copyto(rate, 0.0, where=bad)
    return rate, spread
