"""Overlap integrals of oppositely displaced Hermite functions.

The central quantity is

    O(N, k) = Integral H_N(x - a) H_k(x + a) exp(-x^2 - a^2) dx

with ladder-normalized Hermite polynomials (see specfun) and displacement
a = alpha. Two independent evaluation routes are provided and kept separate
on purpose, since they cross-validate each other in the tests:

* overlap_closed: the finite alternating sum
      sqrt(pi) e^{-a^2} sum_j (-1)^(N-j) C(N,j) C(k,j) j! c^(N+k-2j),
  with c = sqrt(2)*a. The constant c was calibrated once against quadrature
  at (N,k) = (1,1); the doubled variant c = 2a fails that comparison and is
  reported by the CLI diagnostics only as the rejected alternative. The sum
  cancels catastrophically (the max term exceeds the value by up to ~1e23 on
  the supported range), so it is evaluated exactly over integers with the
  displacement as a dyadic rational, and rounded once.

* overlap_quadrature: Gauss-Hermite quadrature of the defining integral.
  Nodes, weights, Hermite values and the accumulation are carried in
  double-double arithmetic; in plain doubles the e^{a^2} amplification eats
  the agreement budget at a = 3. Both Hermite factors come from one ladder
  scan: the nodes shifted to x - a and to x + a are stacked into one array
  of points, the scan runs max(N, k) steps, and each factor is read off its
  half of the scan's row for its degree.

The normalized overlaps O(N,k)/(norm_N norm_k) form the displacement matrix;
for that whole-matrix object the entrywise closed form is useless at large
cutoffs and a scaled associated-Laguerre recurrence is used instead (see
displacement_matrix).
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (InsufficientNodes, PrecisionError, ResourceError,
                     check_budget)
from .specfun import (MAX_COMBINED_DEGREE, _alternating_series, _check_degrees,
                      _dyadic, _laguerre_pair_scaled)

SQRT_PI = math.sqrt(math.pi)

# Calibrated scale in the closed-form base c = DISPLACEMENT_COEFF_SCALE * a.
# Fixed once by comparing both candidate conventions against quadrature at
# (N,k) = (1,1); a test re-runs that comparison against this constant.
DISPLACEMENT_COEFF_SCALE = math.sqrt(2.0)

# Steps of the Laguerre recurrence behind diagonal_overlap_ratio, one per
# level: level 200 000 takes about 2.2 s on one core of a 2-core VM, and a
# higher level raises ResourceError before any step.
MAX_RATIO_STEPS = 200_000


def weighted_norm_squared(N):
    """Squared weighted L2 norm of the degree-N ladder Hermite function."""
    return SQRT_PI * math.factorial(N)


def required_nodes(N, k):
    """Minimal Gauss-Hermite node count that integrates O(N,k) exactly."""
    return (N + k) // 2 + 1


@dataclass
class OverlapResult:
    N: int
    k: int
    alpha: float
    value: float
    method: str
    nodes: int | None = None

    @property
    def normalized(self):
        return self.value / math.sqrt(
            weighted_norm_squared(self.N) * weighted_norm_squared(self.k)
        )


def overlap_closed(N, k, alpha):
    """Closed-form O(N,k), exact alternating sum with one final rounding."""
    _check_degrees(N, k)
    mant, texp = _dyadic(alpha)
    numer = _alternating_series(N, k, mant, texp, N, half_powers=True)
    try:
        val = float(Fraction(numer, 1 << (texp * (N + k))))
    except OverflowError:
        val = math.inf
    if (N + k) & 1:
        val *= DISPLACEMENT_COEFF_SCALE
    if math.isinf(val):
        raise PrecisionError(
            "closed-form sum at alpha=%r overflows the double range" % alpha)
    return val * SQRT_PI * math.exp(-alpha * alpha)


# ---------------------------------------------------------------------------
# double-double helpers (Dekker splits, Knuth two_sum); operate elementwise on
# floats or numpy arrays. A dd number is the pair (hi, lo), hi + lo exact.

_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    # requires |a| >= |b| componentwise, which holds where used
    s = a + b
    return s, b - (s - a)


def _split(a):
    """Dekker split of a into (hi, lo), hi + lo = a, each half the bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    e = e + (xl + yl)
    return _fast_two_sum(s, e)


def _dd_sub(xh, xl, yh, yl):
    return _dd_add(xh, xl, -yh, -yl)


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return _fast_two_sum(p, e)


def _dd_mul_f(xh, xl, y):
    p, e = _two_prod(xh, y)
    e = e + xl * y
    return _fast_two_sum(p, e)


def _dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    rh, rl = _dd_sub(xh, xl, *_dd_mul_f(yh, yl, q1))
    q2 = (rh + rl) / yh
    return _fast_two_sum(q1, q2)


def _dd_sqrt(xh, xl):
    s = np.sqrt(xh)
    ph, pe = _two_prod(s, s)
    rh, rl = _dd_sub(xh, xl, ph, pe)
    return _fast_two_sum(s, (rh + rl) / (2.0 * s))


_PI_HI = 3.141592653589793
_PI_LO = 1.2246467991473532e-16


def _dd_const_quartic_root_inv_pi():
    # pi^(-1/4) as a dd pair
    s1 = _dd_sqrt(_PI_HI, _PI_LO)
    s2 = _dd_sqrt(*s1)
    return _dd_div(1.0, 0.0, *s2)


# ---------------------------------------------------------------------------
# Gauss-Hermite rules for weight e^{-x^2}. Nodes from Golub-Welsch, then
# polished by dd Newton on the orthonormal Hermite polynomial; weights from
# the Christoffel function 1/sum_j p_j(x)^2, accumulated in dd. Cached per
# node count (idempotent fill).

_gh_cache = {}

# Largest node count whose dd rule is finite: from 362 nodes the orthonormal
# scan overflows the double range. Kept as a hard contract boundary, so a
# request above it is refused before any rule is built or cached.
MAX_QUADRATURE_NODES = 361


def _orthonormal_coeffs_dd(n):
    # a_j = sqrt(j/2) as dd, j = 1..n
    ah = np.empty(n + 1)
    al = np.empty(n + 1)
    ah[0] = al[0] = 0.0
    for j in range(1, n + 1):
        v = j / 2.0  # exact dyadic
        s = math.sqrt(v)
        p, e = _two_prod(s, s)
        al[j] = ((v - p) - e) / (2.0 * s)
        ah[j] = s
    return ah, al


def _orthonormal_scan_dd(n, xh, xl, ah, al, p0h, p0l):
    """Returns dd values of p_n, p_{n-1} and K = sum_{j<n} p_j^2 at dd nodes."""
    zero = np.zeros_like(xh)
    ph, pl = zero, zero.copy()
    ch, cl = np.full_like(xh, p0h), np.full_like(xh, p0l)
    kh, kl = zero.copy(), zero.copy()
    for j in range(n):
        sq = _dd_mul(ch, cl, ch, cl)
        kh, kl = _dd_add(kh, kl, *sq)
        th, tl = _dd_mul(xh, xl, ch, cl)
        if j > 0:
            uh, ul = _dd_mul(ph, pl, ah[j], al[j])
            th, tl = _dd_sub(th, tl, uh, ul)
        nh, nl = _dd_div(th, tl, ah[j + 1], al[j + 1])
        ph, pl, ch, cl = ch, cl, nh, nl
    return ch, cl, ph, pl, kh, kl


def _gauss_hermite_dd(nodes):
    if nodes in _gh_cache:
        return _gh_cache[nodes]
    import scipy.linalg  # loads at the first call, not with the package
    if nodes < 1:
        raise ValueError("node count must be positive")
    diag = np.zeros(nodes)
    off = np.sqrt(np.arange(1.0, nodes) / 2.0)
    if nodes == 1:
        x = np.zeros(1)
    else:
        x = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    ah, al = _orthonormal_coeffs_dd(nodes)
    p0h, p0l = _dd_const_quartic_root_inv_pi()
    xh, xl = x.copy(), np.zeros_like(x)
    for _ in range(3):
        pnh, pnl, pmh, pml, _, _ = _orthonormal_scan_dd(nodes, xh, xl, ah, al, p0h, p0l)
        # p_n'(x) = sqrt(2n) p_{n-1}(x)
        dh, dl = _dd_mul_f(pmh, pml, math.sqrt(2.0 * nodes))
        sh, sl = _dd_div(pnh, pnl, dh, dl)
        xh, xl = _dd_sub(xh, xl, sh, sl)
    _, _, _, _, kh, kl = _orthonormal_scan_dd(nodes, xh, xl, ah, al, p0h, p0l)
    wh, wl = _dd_div(np.ones_like(kh), np.zeros_like(kh), kh, kl)
    rule = (xh, xl, wh, wl)
    _gh_cache[nodes] = rule
    return rule


def _hermite_pair_scan_dd(N, k, xh, xl):
    """(hi, lo of H_N, hi, lo of H_k): the ladder Hermite polynomials
    H_(n+1) = sqrt(2) x H_n - n H_(n-1) in dd, H_N at the first half of the
    dd points xh + xl and H_k at the second half, from one scan of
    max(N, k) steps over all the points.

    Each step is _dd_mul(sqrt(2) x, H_n) - _dd_mul_f(H_(n-1), n), with
    both products formed in one stacked pass: every operation of _dd_mul
    runs once on two rows, row 0 the factor n times H_(n-1) and row 1
    sqrt(2) x times H_n. For an integer n < 2^26 the Dekker split of n is
    (n, 0), so row 0, whose low parts are zero, gives the _dd_mul_f bits.
    _dd_sub(a, b) is _dd_add(a, -b); here its sums with -b are written
    as differences with b, which IEEE defines alike, and its two-sum error
    term (-b) - bb as the difference with b + bb, equal to it up to the
    sign of an exact zero (the tests compare the bits at signed-zero
    points too). H_n, its low part and its split sit in a history of
    max(N, k) + 2 rows, row n + 1 holding H_n and row 0 H_(-1) = 0, so a
    step reads the operands of both rows as one slice of each, writes
    H_(n+1) in place, and H_N, H_k are read off their rows at the end.
    The values are bitwise those of one scan per degree.
    """
    half = xh.size // 2
    sq_h = math.sqrt(2.0)
    # refine the sqrt(2) constant to dd
    p, e = _two_prod(sq_h, sq_h)
    sq_l = ((2.0 - p) - e) / (2.0 * sq_h)
    sxh, sxl = _dd_mul_f(xh, xl, sq_h)
    sxh, sxl = _dd_add(sxh, sxl, xh * sq_l, xl * sq_l)
    steps = max(N, k)
    lanes = xh.size
    # h_hi[j], h_lo[j], s_hi[j], s_lo[j]: hi, lo, split hi and split lo of
    # H_(j - 1)
    h_hi, h_lo, s_hi, s_lo = np.zeros((4, steps + 2, lanes))
    h_hi[1] = s_hi[1] = 1.0
    # the same four parts of the factors: row 0 n, row 1 sqrt(2) x
    fh, fl, fsh, fsl = fac = np.zeros((4, 2, lanes))
    fh[1], fl[1] = sxh, sxl
    fsh[1], fsl[1] = _split(sxh)
    n_parts = fac[::2, 0]
    # the dd products (ph, pl), row 0 y = n H_(n-1) and row 1
    # z = sqrt(2) x H_n; t and w are scratch, and their rows s, d, u, v
    # in the subtraction
    ph, pl, t, w = work = np.empty((4, 2, lanes))
    (yh, zh), (yl, zl) = ph, pl
    s, d, u, v = work[2:].reshape(4, lanes)
    mul, add, sub = np.multiply, np.add, np.subtract
    for n in range(steps):
        n_parts.fill(n)
        m = n + 2
        bh, bl, bsh, bsl = h_hi[n:m], h_lo[n:m], s_hi[n:m], s_lo[n:m]
        # (y, z), as _dd_mul
        mul(fh, bh, t)
        sub(mul(fsh, bsh, pl), t, pl)
        add(pl, mul(fsh, bsl, w), pl)
        add(pl, mul(fsl, bsh, w), pl)
        add(pl, mul(fsl, bsl, w), pl)
        add(mul(fh, bl, w), mul(fl, bh, ph), w)
        add(pl, w, pl)
        add(t, pl, ph)
        sub(pl, sub(ph, t, w), pl)
        # H_(n+1) = z - y, as _dd_sub, into row n + 2 of the history
        sub(zh, yh, s)
        sub(s, zh, u)
        sub(zh, sub(s, u, v), v)
        sub(v, add(u, yh, u), v)
        add(v, sub(zl, yl, d), v)
        ch = add(s, v, h_hi[m])
        sub(v, sub(ch, s, u), h_lo[m])
        # its split, as _split
        mul(ch, _SPLITTER, u)
        c_hi = sub(u, sub(u, ch, v), s_hi[m])
        sub(ch, c_hi, s_lo[m])
    return h_hi[N + 1, :half], h_lo[N + 1, :half], \
        h_hi[k + 1, half:], h_lo[k + 1, half:]


def overlap_quadrature(N, k, alpha, nodes=None):
    """Gauss-Hermite evaluation of O(N,k).

    nodes defaults to the exactness threshold (N+k)//2 + 1; fewer nodes than
    the threshold raise InsufficientNodes since the rule would no longer
    integrate the degree-(N+k) integrand exactly, and more than
    MAX_QUADRATURE_NODES raise PrecisionError.
    """
    _check_degrees(N, k)
    _dyadic(alpha)  # rejects a non-finite alpha, as overlap_closed does
    need = required_nodes(N, k)
    if nodes is None:
        nodes = need
    if nodes < need:
        raise InsufficientNodes(
            "%d nodes requested, %d required for degrees (%d, %d)"
            % (nodes, need, N, k)
        )
    if nodes > MAX_QUADRATURE_NODES:
        raise PrecisionError(
            "%d quadrature nodes exceed the supported cap %d"
            % (nodes, MAX_QUADRATURE_NODES))
    xh, xl, wh, wl = _gauss_hermite_dd(nodes)
    a = float(alpha)
    # the lanes x - a, then x + a
    shift = np.repeat((-a, a), nodes)
    hn_h, hn_l, hk_h, hk_l = _hermite_pair_scan_dd(
        N, k, *_dd_add(np.concatenate((xh, xh)), np.concatenate((xl, xl)),
                       shift, 0.0))
    th, tl = _dd_mul(hn_h, hn_l, hk_h, hk_l)
    th, tl = _dd_mul(th, tl, wh, wl)
    sh = sl = 0.0
    for h, l in zip(th.tolist(), tl.tolist()):
        # sh, sl = _dd_add(sh, sl, h, l), written out
        s = sh + h
        bb = s - sh
        e = ((sh - (s - bb)) + (h - bb)) + (sl + l)
        sh = s + e
        sl = e - (sh - s)
    if not math.isfinite(sh + sl):
        raise PrecisionError(
            "quadrature sum at alpha=%r overflows the double range" % alpha)
    return (sh + sl) * math.exp(-a * a)


def diagonal_overlap_ratio(N, alpha):
    """Normalized diagonal overlap O(N,N)/norm^2, equal to e^{-a^2} L_N(2 a^2).

    Goes through the exact closed form while the degree cap allows, through
    the Laguerre recurrence beyond it, up to level MAX_RATIO_STEPS
    (ResourceError above it, before any step). The recurrence rescales
    past 1e250 and keeps the discarded magnitude as a log, which e^{-a^2}
    offsets before it is applied, so a ratio below the double range is 0,
    not inf * 0. Where that scale, e^{log - a^2}, is itself below the
    normal range (from a^2 > 708 without a rescale), the ratio is
    sign(L) e^{log|L| + log - a^2}, so a scaled value L past 1 brings it
    back; elsewhere (without a rescale the log is 0) the ratio is
    e^{-a^2} L_N(2 a^2) as evaluated in doubles. A ratio that is not
    finite raises PrecisionError.
    """
    if 2 * N <= MAX_COMBINED_DEGREE:
        return overlap_closed(N, N, alpha) / weighted_norm_squared(N)
    if N > MAX_RATIO_STEPS:
        raise ResourceError(
            "diagonal overlap ratio at level %d takes %d recurrence steps, "
            "over the cap of %d" % (N, N, MAX_RATIO_STEPS))
    a2 = float(alpha) * float(alpha)
    with np.errstate(invalid="ignore"):  # a NaN raises below
        L, _, logscale = _laguerre_pair_scaled(N, 2.0 * a2)
    L, log_scale = float(L), float(logscale) - a2
    scale = math.exp(log_scale)
    if scale < sys.float_info.min and L != 0.0:
        # the scale alone is below the normal range, where L may bring the
        # ratio back: form it from the log of their product
        r = math.copysign(math.exp(math.log(abs(L)) + log_scale), L)
    else:
        r = L * scale
    if not math.isfinite(r):
        raise PrecisionError("diagonal overlap ratio at level %d, alpha=%r, "
                             "is not finite" % (N, alpha))
    return r


def displacement_matrix(cutoff, alpha):
    """Matrix of normalized overlaps D[N,k] for 0 <= N,k <= cutoff.

    Row N holds the expansion of the displaced-by-(-a) state against the
    displaced-by-(+a) frame, so columns have norm at most 1 and D is the
    truncation of an orthogonal matrix with D[k,N] = (-1)^(N+k) D[N,k].

    Row N from the diagonal on, and its mirror column, are generated at
    once from the upward associated-Laguerre recurrence in the degree N,
    vectorized over the order k - N, with per-lane rescaling once values
    leave the comfortable double range.
    The naive entrywise sum and the two-term ladder recurrence both lose all
    accuracy by cutoff a few hundred; this route was validated against the
    exact closed form to ~3e-14 at cutoff 400.

    D(-a) = S D(a) S with S = diag((-1)^k), so at alpha < 0 row N's part
    takes the signs that its column takes at alpha > 0.

    A cutoff whose (cutoff + 1)^2 array D would exceed
    errors.DENSE_BUDGET_BYTES raises ResourceError before it is formed.
    Beside D, at most 16 vectors of cutoff + 1 are held at once: 7 kept
    through the rows (m, mlogb, signs, lgam, the scales sc, the Laguerre
    values L0 and the L0 before, which Lm1 views), 4 kept from one row to
    the next (lpre, vals, signed and f) and 5 inside one statement, its new
    result and its temporaries (lpre's three terms, or L1's).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    d = cutoff + 1
    a = float(alpha)
    check_budget("the displacement matrix at cutoff %d needs" % cutoff,
                 8 * d * d)
    if a == 0.0:
        return np.eye(d)
    beta = math.sqrt(2.0) * abs(a)
    x = beta * beta
    m = np.arange(d, dtype=float)
    lgam = np.array([math.lgamma(i + 1) for i in range(d)])
    Lm1 = np.zeros(d)
    L0 = np.ones(d)
    sc = np.zeros(d)
    D = np.zeros((d, d))
    mlogb = m * math.log(beta)
    signs = (-1.0) ** np.arange(d)
    # row n reads the lanes m < d - n (column n + m), so after row n the
    # recurrence runs only on the d - n - 1 lanes that later rows read
    for n in range(d):
        live = d - n
        lpre = -0.5 * x + mlogb[:live] + 0.5 * (lgam[n] - lgam[n:d])
        vals = L0 * np.exp(lpre + sc)
        signed = signs[:live] * vals
        D[n, n:] = signed if a < 0.0 else vals
        D[n:, n] = vals if a < 0.0 else signed
        if n == d - 1:
            break
        live -= 1
        L1 = ((2 * n + 1 + m[:live] - x) * L0[:live]
              - (n + m[:live]) * Lm1[:live]) / (n + 1)
        Lm1, L0, sc = L0[:live], L1, sc[:live]
        big = np.abs(L0) > 1e250
        if np.any(big):
            f = np.where(big, np.abs(L0), 1.0)
            L0 = L0 / f
            Lm1 = Lm1 / f
            sc = sc + np.log(f)
    return D
