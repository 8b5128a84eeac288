"""Displaced-frame overlap integrals: closed form vs quadrature, the
normalized displacement matrix, and the diagonal ratio."""

import decimal
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rabispec import errors, overlaps
from rabispec.errors import InsufficientNodes, PrecisionError, ResourceError
from rabispec.overlaps import (
    MAX_QUADRATURE_NODES,
    SQRT_PI,
    diagonal_overlap_ratio,
    displacement_matrix,
    overlap_closed,
    overlap_quadrature,
    required_nodes,
    weighted_norm_squared,
)
from rabispec.specfun import (_alternating_series, _dyadic, laguerre_poly,
                              p_polynomial)
from test_specfun import lag_exact

# values frozen from a run cross-checked against quadrature and hand algebra
FROZEN_OVERLAPS = {
    (0, 0, 1.0): 0.6520493321732922,
    (0, 1, 1.0): 0.9221370088957892,
    (1, 1, 1.0): -0.6520493321732922,
    (2, 5, 0.5): 7.442625490765275,
    (3, 3, 2.0): -2.402308226329747,
    (10, 10, 1.0): -731296.7998083055,
    (7, 2, 0.3): -0.8798387907587474,
}

FROZEN_RATIOS = {
    (1, 1.0): -0.36787944117144233,
    (4, 1.0): 0.12262648039048078,
    (12, 0.5): -0.18040892014667445,
}


def test_closed_form_frozen_values():
    for (N, k, a), ref in FROZEN_OVERLAPS.items():
        assert overlap_closed(N, k, a) == pytest.approx(ref, rel=1e-13)


def test_closed_form_hand_checked_points():
    # O(0,0,a) = sqrt(pi) exp(-a^2), O(1,1,a) = sqrt(pi) exp(-a^2) L_1(2a^2)
    a = 1.0
    base = math.sqrt(math.pi) * math.exp(-1.0)
    assert overlap_closed(0, 0, a) == pytest.approx(base, rel=1e-15)
    assert overlap_closed(1, 1, a) == pytest.approx(base * (1 - 2.0), rel=1e-15)
    assert overlap_closed(0, 0, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    # degree-(0,1) overlap is linear in a times the ground overlap
    assert overlap_closed(0, 1, a) / overlap_closed(0, 0, a) == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )


def test_closed_matches_quadrature_grid():
    for a in (0.3, 1.0, 2.0):
        for N in range(6):
            for k in range(6):
                c = overlap_closed(N, k, a)
                q = overlap_quadrature(N, k, a)
                assert q == pytest.approx(c, rel=1e-12, abs=1e-13)


def test_quadrature_node_threshold():
    assert required_nodes(3, 2) == 3
    assert required_nodes(0, 0) == 1
    with pytest.raises(InsufficientNodes):
        overlap_quadrature(3, 2, 0.5, nodes=2)
    # extra nodes change nothing beyond roundoff
    lo = overlap_quadrature(4, 3, 0.8)
    hi = overlap_quadrature(4, 3, 0.8, nodes=required_nodes(4, 3) + 9)
    assert hi == pytest.approx(lo, rel=1e-13)


def test_quadrature_node_cap():
    # the cap is the largest node count whose dd rule is finite
    assert all(np.all(np.isfinite(part)) for part in
               overlaps._gauss_hermite_dd(MAX_QUADRATURE_NODES))
    with np.errstate(all="ignore"):
        over = overlaps._gauss_hermite_dd(MAX_QUADRATURE_NODES + 1)
    overlaps._gh_cache.pop(MAX_QUADRATURE_NODES + 1)
    assert not all(np.all(np.isfinite(part)) for part in over)
    cached = set(overlaps._gh_cache)
    with pytest.raises(PrecisionError):
        overlap_quadrature(1, 1, 0.5, nodes=MAX_QUADRATURE_NODES + 1)
    assert set(overlaps._gh_cache) == cached


def test_coefficient_scale_calibration():
    # the closed form's odd-degree scale factor is pinned by quadrature:
    # dividing it out would miss by a factor sqrt(2), far outside tolerance
    a = 1.0
    c = overlap_closed(0, 1, a)
    q = overlap_quadrature(0, 1, a)
    assert c == pytest.approx(q, rel=1e-13)
    assert abs(c / math.sqrt(2.0) - q) > 0.2 * abs(q)


def test_degree_cap_raises():
    with pytest.raises(PrecisionError):
        overlap_closed(61, 60, 0.5)
    # the exact sum, or its odd-degree sqrt(2) rescaling, overflows a double
    with pytest.raises(PrecisionError):
        overlap_closed(1, 1, 1e300)
    with pytest.raises(PrecisionError):
        overlap_closed(1, 0, 1.7e308)
    with pytest.raises(ValueError):
        overlap_closed(-1, 0, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=-32, max_value=32),
)
def test_overlap_antisymmetry(N, k, num):
    a = num / 16.0
    # exact integer core makes the swap relation hold bitwise
    assert overlap_closed(k, N, a) == (-1.0) ** (N + k) * overlap_closed(N, k, a)


def _fraction_rounded(N, k, z, sign_parity, half_powers):
    """The exact sum of _alternating_series over 2^(texp (N + k)), rounded
    once by Fraction, the oracle of the integer division; None where it
    overflows a double."""
    mant, texp = _dyadic(z)
    numer = _alternating_series(N, k, mant, texp, sign_parity, half_powers)
    try:
        return float(Fraction(numer, 1 << (texp * (N + k))))
    except OverflowError:
        return None


ALPHAS = st.one_of(
    st.integers(-2 ** 20, 2 ** 20).map(lambda i: i / 1024.0),  # dyadic
    st.floats(-30.0, 30.0),
    st.floats(-1e-307, 1e-307),  # subnormal at the ends
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e-300]),
    st.floats(1e100, 1.7e308).flatmap(lambda a: st.sampled_from([a, -a])))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60), st.integers(0, 60), ALPHAS)
@example(N=60, k=60, alpha=math.sqrt(800.0))
@example(N=1, k=1, alpha=1e300)
@example(N=3, k=0, alpha=5e-324)
def test_exact_sums_round_as_the_fraction_oracle(N, k, alpha):
    # p_polynomial and overlap_closed round their exact sum by one integer
    # true division: bitwise the Fraction's rounding, with the same
    # OverflowError (PrecisionError from overlap_closed)
    want = _fraction_rounded(N, k, alpha, k, half_powers=False)
    if want is None:
        with pytest.raises(OverflowError):
            p_polynomial(N, k, alpha)
    else:
        assert _bits(p_polynomial(N, k, alpha)) == _bits(want)
    val = _fraction_rounded(N, k, alpha, N, half_powers=True)
    if val is not None and (N + k) & 1:
        val *= overlaps.DISPLACEMENT_COEFF_SCALE
    if val is None or math.isinf(val):
        with pytest.raises(PrecisionError, match="overflows"):
            overlap_closed(N, k, alpha)
    else:
        assert _bits(overlap_closed(N, k, alpha)) == _bits(
            overlaps._scaled_product(val, SQRT_PI, -alpha * alpha))


def test_overlap_result_normalization():
    v = overlap_closed(1, 1, 1.0)
    assert v / weighted_norm_squared(1) == pytest.approx(
        diagonal_overlap_ratio(1, 1.0), rel=1e-14)
    assert weighted_norm_squared(0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert weighted_norm_squared(3) == pytest.approx(
        6.0 * math.sqrt(math.pi), rel=1e-15
    )


# ------------------------------------------------------- diagonal ratio


def test_diagonal_ratio_frozen_values():
    for (N, a), ref in FROZEN_RATIOS.items():
        assert diagonal_overlap_ratio(N, a) == pytest.approx(ref, rel=1e-13)


def test_diagonal_ratio_is_gaussian_laguerre():
    for N in (0, 1, 4, 12, 20):
        for a in (0.3, 0.5, 1.0):
            z = Fraction(2) * Fraction(a).limit_denominator(10 ** 12) ** 2
            ref = math.exp(-a * a) * float(lag_exact(N, z))
            assert diagonal_overlap_ratio(N, a) == pytest.approx(ref, rel=1e-11)


def test_diagonal_ratio_beyond_closed_form_cap():
    # degrees past the exact-arithmetic cap switch to direct evaluation
    v = diagonal_overlap_ratio(70, 0.5)
    ref = math.exp(-0.25) * float(lag_exact(70, Fraction(1, 2)))
    assert v == pytest.approx(ref, rel=1e-9)


def test_diagonal_ratio_keeps_its_bits_without_a_rescale():
    # no value of the recurrence passes 1e250, so the scaled route gives
    # e^(-a^2) L_N(2 a^2) as evaluated in doubles
    for N, a in ((61, 0.5), (70, 3.0), (200, -1.7), (5000, 0.3)):
        a2 = a * a
        assert diagonal_overlap_ratio(N, a) == (math.exp(-a2)
                                                * laguerre_poly(N, 2.0 * a2))


def test_diagonal_ratio_below_the_double_range_is_zero():
    # L_N(2 a^2) alone overflows, and e^(-a^2) inf was NaN; the ratios are
    # 9.5e-21450 and 2.7e-900 (by 50-digit arithmetic), 0 in doubles
    assert diagonal_overlap_ratio(100, 224.0) == 0.0
    assert diagonal_overlap_ratio(400, 60.0) == 0.0


def test_diagonal_ratio_keeps_a_ratio_whose_scale_underflows():
    # e^(-800) underflows to 0, and L_100(1600), 3.457e159, needs no
    # rescale: the ratio, 1.2680e-188, is formed from their logs
    L = lag_exact(100, Fraction(1600))
    assert float(L) == 3.4571714136007503e159
    want = math.exp(math.log(float(L)) - 800.0)
    got = diagonal_overlap_ratio(100, math.sqrt(800.0))
    assert abs(got - want) <= 1e-12 * want


def _laguerre_recurrence(N, x):
    """L_N(x) at a Fraction x by the three-term recurrence, exactly."""
    prev, cur = Fraction(0), Fraction(1)
    for n in range(N):
        prev, cur = cur, ((2 * n + 1 - x) * cur - n * prev) / (n + 1)
    return cur


@pytest.mark.parametrize("N,a2", [(60, 800.0), (30, 760.0), (10, 745.5),
                                  (5, 720.0)])
def test_closed_form_ratio_keeps_a_ratio_whose_scale_underflows(N, a2):
    # e^(-a^2) is 0, or subnormal at a^2 720: at levels the closed form
    # serves, the recurrence gives the ratio, 7.5e-239, 5.1e-268, 2.4e-299
    # and -1.0e-299, from logs, where e^(-a^2) times the closed form gave
    # 0.0, 0.0, 0.0 and 2.8e-12 off
    a = math.sqrt(a2)
    L = _laguerre_recurrence(N, 2 * Fraction(a) ** 2)
    e = abs(L.numerator).bit_length() - L.denominator.bit_length()
    log_l = math.log(abs(L) / Fraction(2) ** e) + e * math.log(2.0)
    want = math.copysign(math.exp(log_l - a * a), L)
    for alpha in (a, -a):
        got = diagonal_overlap_ratio(N, alpha)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(got) > 1e-300


def _exact_overlap(N, k, a):
    """O(N, k) at the double a, from the exact sum of the closed form and
    60-digit logarithms, rounded once: 0.0 below the double range."""
    a2 = Fraction(a) ** 2
    odd = (N + k) & 1
    s = sum((-1) ** (N - j) * math.comb(N, j) * math.comb(k, j)
            * math.factorial(j) * (2 * a2) ** ((N + k - 2 * j) // 2)
            for j in range(min(N, k) + 1))
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        log = (D(abs(s.numerator)).ln() - D(s.denominator).ln()
               + D(math.pi).ln() / 2 - D(a2.numerator) / D(a2.denominator))
        if odd:  # one more factor sqrt(2) a in every power
            log += (D(2 * a2.numerator) / D(a2.denominator)).ln() / 2
        sign = (-1 if s < 0 else 1) * (-1 if odd and a < 0 else 1)
        return sign * float(log.exp())


# e^(-a^2) below the normal range: the overlaps are 1.1e-156, -2.9e-158,
# 2.4e-235 and 1.5e-292, and below the double range at a = 261.16, where
# the float sum 1.2e308 times sqrt(pi) overflows
UNDERFLOW_POINTS = [(60, 60, math.sqrt(800.0)), (59, 60, math.sqrt(800.0)),
                    (30, 30, math.sqrt(760.0)), (10, 10, math.sqrt(745.5)),
                    (60, 60, 261.1602447949193)]


@pytest.mark.parametrize("N,k,a", UNDERFLOW_POINTS)
def test_overlaps_keep_a_value_whose_gaussian_underflows(N, k, a):
    want = _exact_overlap(N, k, a)
    routes = [overlap_closed]
    if a < 30.0:  # at a = 261.16 the quadrature sum overflows
        routes.append(overlap_quadrature)
    else:
        assert want == 0.0
        with pytest.raises(PrecisionError, match="overflows"), \
                np.errstate(over="ignore", invalid="ignore"):
            overlap_quadrature(N, k, a)
    for route in routes:
        got = route(N, k, a)
        assert not math.isnan(got)
        assert abs(got - want) <= 1e-12 * abs(want), route
        if want:
            assert abs(got) > 1e-300 and math.copysign(1.0, got) == \
                math.copysign(1.0, want)


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(min_value=1e-300, max_value=1e300),
       st.floats(min_value=-708.39, max_value=709.0))
@example(v=-0.0, c=SQRT_PI, t=-708.0)
@example(v=1.2e308, c=SQRT_PI, t=-0.5)
@example(v=3.0, c=1.0, t=math.log(sys.float_info.min))
def test_scaled_product_keeps_the_bits_where_the_scale_is_normal(v, c, t):
    assume(math.exp(t) >= sys.float_info.min)
    assert _bits(overlaps._scaled_product(v, c, t)) == _bits(
        v * c * math.exp(t))


def test_scaled_product_below_the_normal_range():
    # e^-800 is 0 in doubles: the product comes from the logs, a value
    # below the double range is 0, and a zero keeps its sign
    got = overlaps._scaled_product(-3.0e300, SQRT_PI, -800.0)
    want = -math.exp(math.log(3.0e300) + math.log(SQRT_PI) - 800.0)
    assert abs(got - want) <= 1e-13 * abs(want) and got < -1e-100
    assert overlaps._scaled_product(2.0, SQRT_PI, -800.0) == 0.0
    assert _bits(overlaps._scaled_product(-0.0, SQRT_PI, -800.0)) == \
        _bits(-0.0)


def test_diagonal_ratio_past_the_double_range_raises():
    # a^2 overflows at alpha 1e200, and the recurrence gives NaN
    with pytest.raises(PrecisionError, match="not finite"):
        diagonal_overlap_ratio(100, 1e200)


def test_diagonal_ratio_refuses_a_level_over_the_step_cap(monkeypatch):
    monkeypatch.setattr(overlaps, "MAX_RATIO_STEPS", 100)
    assert diagonal_overlap_ratio(100, 0.5) == pytest.approx(
        math.exp(-0.25) * float(lag_exact(100, Fraction(1, 2))), rel=1e-9)
    with pytest.raises(ResourceError, match="level 101"):
        diagonal_overlap_ratio(101, 0.5)


# ---------------------------------------------------- displacement matrix


def test_displacement_matrix_zero_shift_is_identity():
    D = displacement_matrix(7, 0.0)
    assert np.array_equal(D, np.eye(8))


def test_displacement_matrix_matches_closed_form():
    a = 0.7
    D = displacement_matrix(6, a)
    for N in range(7):
        for k in range(7):
            ref = overlap_closed(N, k, a) / math.sqrt(
                weighted_norm_squared(N) * weighted_norm_squared(k)
            )
            assert D[N, k] == pytest.approx(ref, rel=1e-13, abs=1e-15)


def test_displacement_matrix_negative_shift_checkerboard():
    Dp = displacement_matrix(5, 0.8)
    Dm = displacement_matrix(5, -0.8)
    idx = np.arange(6)
    sign = (-1.0) ** (idx[:, None] + idx[None, :])
    assert np.array_equal(Dm, sign * Dp)


def test_displacement_matrix_swap_relation():
    D = displacement_matrix(9, 1.3)
    idx = np.arange(10)
    sign = (-1.0) ** (idx[:, None] + idx[None, :])
    assert np.max(np.abs(D.T - sign * D)) == 0.0


def test_displacement_matrix_leading_block_orthogonality():
    # truncation of an orthogonal matrix: the leading block of D^T D is
    # close to the identity once the cutoff clears the displacement scale
    D = displacement_matrix(80, 1.0)
    g = D.T @ D
    assert np.max(np.abs(g[:15, :15] - np.eye(15))) < 1e-10
    # column norms never exceed 1 by more than roundoff
    assert np.max(np.sum(D * D, axis=0)) < 1.0 + 1e-12


def test_displacement_matrix_high_degree_entries():
    # recurrence route vs exact closed form at degrees the cap still allows
    D = displacement_matrix(300, 1.0)
    for N, k in ((55, 60), (60, 60), (20, 100), (3, 117)):
        ref = overlap_closed(N, k, 1.0) / math.sqrt(
            weighted_norm_squared(N) * weighted_norm_squared(k)
        )
        assert D[N, k] == pytest.approx(ref, rel=1e-11, abs=1e-290)


def test_displacement_matrix_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        displacement_matrix(-1, 0.5)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_displacement_matrix_rejects_a_nonfinite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        displacement_matrix(5, alpha)


@pytest.mark.parametrize("alpha", [1e160, -1e160, 9.5e153, 1e308])
def test_displacement_matrix_past_the_overflow_of_2_alpha_squared_is_zero(
        alpha):
    # past sqrt(DBL_MAX / 2) = 9.4807519081091762e153, x = 2 alpha^2 is
    # inf and the recurrence would fill D with NaN; every entry lies below
    # the double range there, as at alpha 1e150, where the recurrence
    # gives zero
    assert math.isinf(2.0 * alpha * alpha)
    assert np.array_equal(displacement_matrix(12, 1e150), np.zeros((13, 13)))
    assert np.array_equal(displacement_matrix(12, alpha), np.zeros((13, 13)))


@pytest.mark.parametrize("alpha", [0.8, 0.0, -0.8])
def test_displacement_matrix_refuses_a_cutoff_over_budget(alpha,
                                                          monkeypatch):
    # D is (cutoff + 1)^2 doubles at every alpha: the budget of cutoff 300
    # admits it and refuses 301 before allocating
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", 8 * 301 ** 2)
    assert displacement_matrix(300, alpha).shape == (301, 301)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="displacement matrix at "
                                                "cutoff 301 needs"):
            displacement_matrix(301, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


@pytest.mark.parametrize("cutoff", [0, 1, 2, 7, 40, 151, 600])
@pytest.mark.parametrize("a", [1e-8, 1e-3, 0.3, 1.0, 5.0, 40.0])
def test_displacement_matrix_at_minus_alpha_is_the_sign_conjugate(cutoff, a):
    # D(-a) = S D(a) S with S = diag((-1)^k), bit for bit: the signs are
    # written into the rows at alpha < 0 instead of multiplied in after
    signs = (-1.0) ** np.arange(cutoff + 1)
    want = displacement_matrix(cutoff, a) * np.outer(signs, signs)
    assert displacement_matrix(cutoff, -a).tobytes() == want.tobytes()


# ------------------------------------------- bitwise oracles of the routes


def _ladder_scan_dd(N, xh, xl):
    """One dd ladder scan per degree, H_N at the dd points xh + xl: the
    scan that overlap_quadrature ran once per factor before both factors
    shared one scan."""
    sq_h = math.sqrt(2.0)
    p, e = overlaps._two_prod(sq_h, sq_h)
    sq_l = ((2.0 - p) - e) / (2.0 * sq_h)
    sxh, sxl = overlaps._dd_mul_f(xh, xl, sq_h)
    sxh, sxl = overlaps._dd_add(sxh, sxl, xh * sq_l, xl * sq_l)
    zero = np.zeros_like(xh)
    ph, pl = zero, zero.copy()
    ch, cl = np.ones_like(xh), zero.copy()
    for n in range(N):
        th, tl = overlaps._dd_mul(sxh, sxl, ch, cl)
        if n > 0:
            uh, ul = overlaps._dd_mul_f(ph, pl, float(n))
            th, tl = overlaps._dd_sub(th, tl, uh, ul)
        ph, pl, ch, cl = ch, cl, th, tl
    return ch, cl


def _two_scan_quadrature(N, k, alpha, nodes):
    """overlap_quadrature with one ladder scan per Hermite factor."""
    xh, xl, wh, wl = overlaps._gauss_hermite_dd(nodes)
    a = float(alpha)
    hn = _ladder_scan_dd(N, *overlaps._dd_add(xh, xl, -a, 0.0))
    hk = _ladder_scan_dd(k, *overlaps._dd_add(xh, xl, a, 0.0))
    th, tl = overlaps._dd_mul(*hn, *hk)
    th, tl = overlaps._dd_mul(th, tl, wh, wl)
    sh = sl = 0.0
    for i in range(nodes):
        sh, sl = overlaps._dd_add(sh, sl, float(th[i]), float(tl[i]))
    return (sh + sl) * math.exp(-a * a)


def _row_loop_displacement(cutoff, alpha):
    """displacement_matrix with every recurrence step on all cutoff + 1
    lanes and the rows and columns written by index arrays."""
    d = cutoff + 1
    a = float(alpha)
    if a == 0.0:
        return np.eye(d)
    beta = math.sqrt(2.0) * abs(a)
    x = beta * beta
    m = np.arange(d, dtype=float)
    lgam = np.array([math.lgamma(i + 1) for i in range(2 * d + 1)])
    Lm1, L0, sc = np.zeros(d), np.ones(d), np.zeros(d)
    D = np.zeros((d, d))
    logb = math.log(beta)
    for n in range(d):
        mm = np.arange(d - n)
        lpre = -0.5 * x + mm * logb + 0.5 * (lgam[n] - lgam[n + mm])
        vals = L0[: d - n] * np.exp(lpre + sc[: d - n])
        D[n, n + mm] = vals
        D[n + mm, n] = (-1.0) ** mm * vals
        if n == d - 1:
            break
        L1 = ((2 * n + 1 + m - x) * L0 - (n + m) * Lm1) / (n + 1)
        Lm1, L0 = L0, L1
        big = np.abs(L0) > 1e250
        if np.any(big):
            f = np.where(big, np.abs(L0), 1.0)
            L0, Lm1, sc = L0 / f, Lm1 / f, sc + np.log(f)
    if a < 0.0:
        idx = np.arange(d)
        D = D * np.where(((idx[:, None] + idx[None, :]) & 1).astype(bool),
                         -1.0, 1.0)
    return D


def _bits(values):
    """The IEEE bit patterns, sign bits included, of a float or array."""
    return np.asarray(values, dtype=float).view(np.int64)


def test_quadrature_single_scan_is_bitwise_the_two_scan_route():
    cases = [(N, k, 3.0, None) for N in range(41) for k in range(41)]
    # the degree cap N + k = 120, nodes above the threshold, alpha < 0, 0
    cases += [(0, 120, 1.3, None), (60, 60, 0.4, None), (120, 0, 2.2, None),
              (5, 7, 1.1, 40), (9, 4, -0.7, None), (6, 6, 0.0, None),
              (0, 0, -1.0, None)]
    # N != k at small, negative and zero alpha; at alpha 0 an odd node
    # count puts a node on x = 0, where every odd H_n is a signed zero
    cases += [(N, k, a, None) for a in (0.5, -0.7, 0.0)
              for N, k in ((0, 1), (1, 0), (3, 8), (17, 4), (2, 33),
                           (29, 40), (40, 13), (25, 26))]
    cases += [(0, 1, 0.0, 5), (3, 4, 0.0, 41), (7, 2, 0.0, 9)]
    for N, k, a, nodes in cases:
        want = _two_scan_quadrature(N, k, a, nodes or required_nodes(N, k))
        assert _bits(overlap_quadrature(N, k, a, nodes)) == _bits(want), \
            (N, k, a, nodes)


def test_pair_scan_is_bitwise_the_per_degree_scan_at_signed_zeros():
    # points where the ladder's products are exact, so that low parts and
    # errors are zeros whose signs the stacked step must keep: x = +-0,
    # where every odd H_n vanishes, and sqrt(2) x = +-1, +-2, with random
    # points and signed zero low parts
    rng = np.random.default_rng(3)
    r = math.sqrt(0.5)
    xh = np.concatenate(([0.0, -0.0, r, -r, 2 * r, 0.5, 1.0],
                         rng.normal(size=5)))
    xl = np.concatenate(([0.0, -0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
                         rng.normal(size=5) * 1e-17))
    xh, xl = np.concatenate((xh, xh)), np.concatenate((xl, -xl))
    half = xh.size // 2
    for N in range(overlaps.MAX_COMBINED_DEGREE // 2 + 1):
        k = overlaps.MAX_COMBINED_DEGREE - N if N % 4 == 0 else N
        got = overlaps._hermite_pair_scan_dd(N, k, xh, xl)
        want = (_ladder_scan_dd(N, xh[:half], xl[:half])
                + _ladder_scan_dd(k, xh[half:], xl[half:]))
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w)), (N, k)


def test_pair_scan_is_the_ladder_convention():
    # H_0 .. H_3 of the ladder convention, 2^(-n/2) times the physicists'
    # polynomials, against a 50-digit evaluation, within dd rounding
    pts = [0.0, 0.7, -1.3, 2.5, 1e-3, -7.25]
    xh = np.array(pts + pts)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        r2 = D(2).sqrt()
        ladder = [lambda x: D(1), lambda x: r2 * x,
                  lambda x: 2 * x * x - 1,
                  lambda x: 2 * r2 * x ** 3 - 3 * r2 * x]
        for n, h in enumerate(ladder):
            got = overlaps._hermite_pair_scan_dd(n, n, xh, np.zeros_like(xh))
            for hi, lo in (got[:2], got[2:]):
                for x, gh, gl in zip(pts, hi.tolist(), lo.tolist()):
                    x = D(x)
                    scale = max(D(1), 4 * abs(x) ** 3)
                    assert abs(D(gh) + D(gl) - h(x)) <= D(1e-30) * scale, \
                        (n, x)


@pytest.mark.parametrize("cutoff, alpha", [
    (0, 1.0), (1, 1.0), (30, 1.0), (240, 1.0), (400, -0.7), (50, 0.0),
    # rescaled lanes: only lanes no later row reads (600 from n = 306, and
    # 800 at alpha 3), and live lanes too (1000 from n = 266)
    (600, 1.0), (800, 3.0), (1000, 1.0),
])
def test_displacement_matrix_is_bitwise_the_row_loop(cutoff, alpha):
    got = displacement_matrix(cutoff, alpha)
    assert np.array_equal(_bits(got), _bits(_row_loop_displacement(cutoff,
                                                                   alpha)))
