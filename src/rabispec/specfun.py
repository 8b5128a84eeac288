"""Laguerre machinery used by the overlap and spectral layers, and the one
Hermite convention of the overlap layer.

The Hermite polynomials of the overlaps are in the "ladder" convention: the
one generated by repeated application of the raising operator
(x - d/dx)/sqrt(2) to the Gaussian, i.e. 2^(-N/2) times the physicists'
polynomial, with recurrence

    H_{N+1}(x) = sqrt(2) x H_N(x) - N H_{N-1}(x).

In this convention the weighted L2 norm of degree N is sqrt(sqrt(pi) N!).
They are evaluated by one double-double scan of that recurrence,
overlaps._hermite_pair_scan_dd.

The alternating finite sums (p_polynomial and friends) are evaluated in exact
integer arithmetic over a dyadic representation of the float argument, with a
single rounding at the end. Doing these sums in floating point loses all
significance long before the supported degree cap; see the module tests.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (OBJECT_BYTES, DegenerateInput, NumericError,
                     PrecisionError, ResourceError, check_budget)

# Cap on N + k for the exact alternating sums. Kept as a hard contract
# boundary so callers cannot wander into multi-second big-integer territory
# by accident.
MAX_COMBINED_DEGREE = 120

ZERO_PROXIMITY_TOL = 1e-10

# Work bytes per degree, counted from the code: laguerre_zeros holds at most
# 11 float arrays and 4 boolean arrays of length N at once, beside
# errors.OBJECT_BYTES of Python objects: z throughout (diag and off go once
# the eigensolve returns), with the residual test's ten (L, L_(N-1),
# logscale, deriv, log_deriv, true_L, true_d and three temporaries) and
# its masks. A Newton step's scan (its five buffers, the rescaling factors
# and their log, and its mask) beside the step before's L, L_(N-1) and
# deriv holds as many floats and one mask; the sign-change scans hold
# fewer. The Sturm sweeps of avoid-seq hold no per-degree arrays, so
# MAX_STURM_STEPS, which bounds their time, is their only limit.
_ZEROS_BYTES_PER_DEGREE = 11 * 8 + 4

# Work of nondegenerate_sequence in Sturm steps, counted from the code:
# the proximity check and each of the jmax windows run one scalar sweep
# of up to kcap degrees, kcap (jmax + 1) steps in all, about 0.35 s per
# million on one core. The cap admits 10^7 steps, about 4 s; more work
# raises ResourceError before any sweep.
MAX_STURM_STEPS = 10 ** 7

# Work of laguerre_zeros in operations, counted from the code: about
# degree^2 for the tridiagonal eigensolve, degree^2 for each of the three
# scans of _laguerre_pair_scaled (degree steps over degree points) and at
# most 2 degree^2 for the sign-change scans (degree steps over at most
# degree points, one scan for each end). The cap admits degree 10 000,
# about 4 s with one BLAS thread on a 2-core VM (0.65 s at degree 4 128);
# a larger degree raises ResourceError before any work.
_ZEROS_WORK_PER_DEGREE_SQUARED = 6
MAX_ZEROS_WORK = _ZEROS_WORK_PER_DEGREE_SQUARED * 10_000 ** 2


def laguerre_poly(N, x):
    """Laguerre polynomial L_N at x (scalar or array), standard normalization."""
    if N < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for n in range(N):
        prev, cur = cur, ((2 * n + 1 - x) * cur - n * prev) / (n + 1)
    return cur if cur.ndim else float(cur)


def _laguerre_pair_scaled(N, x):
    """(L_N, L_{N-1}, logscale) with true values L * exp(logscale), vectorized.

    Laguerre values blow past double range near the largest zeros once the
    degree is in the hundreds, so the recurrence renormalizes per lane and
    tracks the discarded magnitude in log space. Ratios of the returned pair
    are unaffected.

    The scan runs in place: each step makes the five operations of
    ((2n + 1 - x) L_n - n L_(n-1)) / (n + 1), in that order, into three
    rotating buffers, so its values are bitwise those of the expression.
    """
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    nxt = np.empty_like(x)
    logscale = np.zeros_like(x)
    mag = np.empty_like(x)
    big = np.empty(x.shape, dtype=bool)
    for n in range(N):
        np.subtract(2 * n + 1, x, out=nxt)
        nxt *= cur
        prev *= n
        nxt -= prev
        nxt /= n + 1
        prev, cur, nxt = cur, nxt, prev
        np.greater(np.abs(cur, out=mag), 1e250, out=big)
        if big.any():
            f = np.where(big, mag, 1.0)
            cur /= f
            prev /= f
            logscale += np.log(f)
    return cur, prev, logscale


def laguerre_zeros(N):
    """All N zeros of L_N, ascending.

    Golub-Welsch on the Jacobi matrix (diagonal 2i+1, off-diagonal i), then
    Newton polish. Each zero is certified by a residual check
    |L_N(x)| <= 1e-12 * max(1, |L_N'(x)|) or, where that fails, by a sign
    change of L_N within two spacings of x (_brackets_a_zero): above 2^14,
    doubles are 3.6e-12 apart and need not pass the absolute test. Failing
    both raises NumericError.
    A degree whose work arrays would exceed errors.DENSE_BUDGET_BYTES,
    or whose work would exceed MAX_ZEROS_WORK operations, raises
    ResourceError before anything is allocated.
    """
    if N < 1:
        raise ValueError("degree must be at least 1")
    check_budget("Laguerre zeros of degree %d need" % N,
                 _ZEROS_BYTES_PER_DEGREE * N + OBJECT_BYTES)
    work = _ZEROS_WORK_PER_DEGREE_SQUARED * N * N
    if work > MAX_ZEROS_WORK:
        raise ResourceError(
            "Laguerre zeros of degree %d take %.3g operations, over the "
            "cap of %.3g" % (N, work, MAX_ZEROS_WORK))
    import scipy.linalg  # loads at the first call, not with the package
    diag = 2.0 * np.arange(N) + 1.0
    off = np.arange(1.0, N)
    z = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    del diag, off
    for _ in range(2):
        L, Lm1, _ = _laguerre_pair_scaled(N, z)
        # x L_N' = N (L_N - L_{N-1}), so the Newton step is scale free
        deriv = N * (L - Lm1) / z
        z = z - L / deriv
    del L, Lm1, deriv, _  # the last step's arrays, before the next scan
    bad = _fails_residual(N, z)
    if bad.any() and not _brackets_a_zero(N, z[bad]).all():
        raise NumericError(
            "Laguerre zero refinement failed residual check at degree %d" % N
        )
    return z


def _fails_residual(N, z):
    """Where the zeros z of L_N fail |L_N(x)| <= 1e-12 * max(1, |L_N'(x)|)."""
    L, Lm1, logscale = _laguerre_pair_scaled(N, z)
    deriv = N * (L - Lm1) / z
    # residual test split by whether |L'| is representable: where the scale
    # is huge, |L'| >= 1 certainly holds and the test reduces to a ratio
    log_deriv = logscale + np.log(np.maximum(np.abs(deriv), 1e-300))
    with np.errstate(over="ignore"):
        small = log_deriv < 700.0
        true_L = np.abs(L) * np.exp(np.where(small, logscale, 0.0))
        true_d = np.abs(deriv) * np.exp(np.where(small, logscale, 0.0))
    bad_small = small & (true_L > 1e-12 * np.maximum(1.0, true_d))
    return bad_small | (~small) & (np.abs(L) > 1e-12 * np.abs(deriv))


def _brackets_a_zero(N, z):
    """Whether L_N changes sign, or vanishes, over
    [x - 2 spacing(x), x + 2 spacing(x)] for each x in z: one scan of
    _laguerre_pair_scaled for each end, whose rescaling keeps the sign."""
    step = 2.0 * np.spacing(z)
    lower = np.sign(_laguerre_pair_scaled(N, z - step)[0])
    return lower * np.sign(_laguerre_pair_scaled(N, z + step)[0]) <= 0


def _dyadic(z):
    # exact representation z = mant / 2**texp for a finite float
    if not math.isfinite(z):
        raise ValueError("argument must be finite")
    num, den = float(z).as_integer_ratio()
    return num, den.bit_length() - 1


def _alternating_series(N, k, mant, texp, sign_parity, half_powers):
    """Exact integer numerator of sum_j (-1)^(sign_parity-j) C(N,j) C(k,j) j! z^P,

    P = N+k-2j, z = mant/2^texp, over the common denominator 2^(texp*(N+k)).
    With half_powers, each term gains an extra 2^(P//2) (used when the base
    carries a factor sqrt(2) whose integer part is folded in here).
    """
    total = 0
    for j in range(min(N, k) + 1):
        P = N + k - 2 * j
        term = math.comb(N, j) * math.comb(k, j) * math.factorial(j)
        term *= mant ** P
        term <<= texp * 2 * j
        if half_powers:
            term <<= P // 2
        if (sign_parity - j) & 1:
            term = -term
        total += term
    return total


def _check_degrees(N, k):
    if N < 0 or k < 0:
        raise ValueError("degrees must be nonnegative")
    if N + k > MAX_COMBINED_DEGREE:
        raise PrecisionError(
            "combined degree %d exceeds supported cap %d"
            % (N + k, MAX_COMBINED_DEGREE)
        )


def p_polynomial(N, k, Z):
    """The overlap kernel polynomial sum_j (-1)^(k-j) C(N,j) C(k,j) j! Z^(N+k-2j).

    Evaluated exactly over integers and rounded once. On the diagonal,
    p(N, N, c) equals N! L_N(c^2), so p(N, N, -sqrt(Z)) = N! L_N(Z).
    Degrees with N + k above MAX_COMBINED_DEGREE are refused.
    """
    _check_degrees(N, k)
    mant, texp = _dyadic(Z)
    numer = _alternating_series(N, k, mant, texp, k, half_powers=False)
    return numer / (1 << (texp * (N + k)))


def _first_degree_with_zero_in(x0, delta, kmax):
    """The least k <= kmax for which L_k has more zeros below x0 + delta
    than below x0 - delta, or None.

    The number of zeros of L_k below t is the number of negative pivots
    among the first k of the Sturm sequence of the order-kmax Jacobi
    matrix at t, because J_k is its leading principal submatrix. One loop
    runs the sequences at both ends and stops at the first degree whose
    count at the upper end exceeds the one at the lower end.
    """
    lo_t, hi_t = x0 - delta, x0 + delta
    lo = hi = 1.0
    lo_neg = hi_neg = 0
    tiny = 1e-300
    for i in range(kmax):
        a = 2.0 * i + 1.0
        b2 = float(i * i)
        lo = (a - lo_t) - b2 / lo
        if lo == 0.0:
            lo = tiny
        if lo < 0.0:
            lo_neg += 1
        hi = (a - hi_t) - b2 / hi
        if hi == 0.0:
            hi = tiny
        if hi < 0.0:
            hi_neg += 1
        if hi_neg > lo_neg:
            return i + 1
    return None


class AvoidanceEntry(NamedTuple):
    k: int
    delta: float
    nearest_zero: float
    distance: float


@dataclass
class AvoidanceSequence:
    x0: float
    entries: list
    exhausted: bool
    kcap: int


def nondegenerate_sequence(x0, jmax, kcap=4000):
    """Shrinking-window avoidance sequence for x0 against the Laguerre zero sets.

    Window j has half-width delta_j, starting at 1/10. k_j is the least degree
    with a zero inside the window; the next half-width is a tenth of the
    distance to that nearest zero. Stops early with the exhausted flag set if
    no degree up to kcap enters the current window.

    Raises DegenerateInput if x0 sits within 1e-10 of a zero of any L_k with
    k <= kcap, and ResourceError, before any sweep, if the work, kcap
    (jmax + 1) Sturm steps, is over MAX_STURM_STEPS, or once a window
    reaches a degree whose zeros laguerre_zeros refuses.
    """
    if jmax < 1:
        raise ValueError("jmax must be at least 1")
    if kcap < 1:
        raise ValueError("kcap must be at least 1")
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    if x0 <= 0:
        # zeros all live on the positive axis, nothing to avoid
        raise ValueError("x0 must be positive")
    if kcap * (jmax + 1) > MAX_STURM_STEPS:
        raise ResourceError(
            "avoidance sequence to kcap = %d over %d windows takes up to %d "
            "Sturm steps, over the cap of %d"
            % (kcap, jmax, kcap * (jmax + 1), MAX_STURM_STEPS))
    if _first_degree_with_zero_in(x0, ZERO_PROXIMITY_TOL, kcap) is not None:
        raise DegenerateInput(
            "x0 = %.17g is within %g of a Laguerre zero" % (x0, ZERO_PROXIMITY_TOL)
        )
    entries = []
    delta = 1.0 / 10.0
    exhausted = False
    for _ in range(jmax):
        kj = _first_degree_with_zero_in(x0, delta, kcap)
        if kj is None:
            exhausted = True
            break
        z = laguerre_zeros(kj)
        i = int(np.argmin(np.abs(z - x0)))
        dist = abs(float(z[i]) - x0)
        entries.append(AvoidanceEntry(kj, delta, float(z[i]), dist))
        delta = dist / 10.0
    return AvoidanceSequence(x0=x0, entries=entries, exhausted=exhausted, kcap=kcap)
