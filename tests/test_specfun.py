"""Scalar special-function layer: Hermite/Laguerre evaluation, zero sets,
the overlap kernel polynomial, and the zero-avoidance sequence."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from rabispec import errors, specfun
from rabispec.errors import (DegenerateInput, NumericError, PrecisionError,
                             ResourceError)
from rabispec.specfun import (
    LADDER,
    MAX_COMBINED_DEGREE,
    PHYSICISTS,
    ZERO_PROXIMITY_TOL,
    hermite_poly,
    laguerre_poly,
    laguerre_zero_set,
    laguerre_zeros,
    nondegenerate_sequence,
    p_polynomial,
    zero_set_distance,
)


def lag_exact(N, x):
    """L_N at an exactly representable point, as a Fraction."""
    xf = Fraction(x)
    return sum(
        Fraction((-1) ** j * math.comb(N, j), math.factorial(j)) * xf ** j
        for j in range(N + 1)
    )


# ---------------------------------------------------------------- Hermite


def test_hermite_physicists_low_degrees():
    x = 0.7
    assert hermite_poly(0, x, PHYSICISTS) == 1.0
    assert hermite_poly(1, x, PHYSICISTS) == pytest.approx(2 * x, rel=1e-15)
    assert hermite_poly(2, x, PHYSICISTS) == pytest.approx(4 * x ** 2 - 2, rel=1e-15)
    assert hermite_poly(3, x, PHYSICISTS) == pytest.approx(
        8 * x ** 3 - 12 * x, rel=1e-14
    )


def test_hermite_ladder_low_degrees():
    x = -1.3
    assert hermite_poly(0, x) == 1.0
    assert hermite_poly(1, x) == pytest.approx(math.sqrt(2) * x, rel=1e-15)
    assert hermite_poly(2, x) == pytest.approx(2 * x ** 2 - 1, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=14),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_hermite_convention_bridge(N, x):
    # the ladder normalization differs by 2^(-N/2)
    a = hermite_poly(N, x, LADDER)
    b = hermite_poly(N, x, PHYSICISTS) * 2.0 ** (-N / 2.0)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_hermite_rejects_bad_input():
    with pytest.raises(ValueError):
        hermite_poly(-1, 0.0)
    with pytest.raises(ValueError):
        hermite_poly(2, 0.0, convention="probabilists")


# ---------------------------------------------------------------- Laguerre


def test_laguerre_values_against_exact_sum():
    assert laguerre_poly(3, 2.0) == pytest.approx(float(lag_exact(3, 2)), rel=1e-14)
    assert float(lag_exact(3, 2)) == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert laguerre_poly(4, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert laguerre_poly(0, 17.5) == 1.0
    assert laguerre_poly(1, 0.25) == 0.75


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=18),
    st.integers(min_value=-64, max_value=256),
)
def test_laguerre_matches_fraction_oracle(N, num):
    x = num / 16.0  # exactly representable
    ref = float(lag_exact(N, Fraction(num, 16)))
    assert laguerre_poly(N, x) == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_laguerre_zeros_degree_one_and_two():
    z1 = laguerre_zeros(1)
    assert z1.shape == (1,)
    assert z1[0] == pytest.approx(1.0, abs=1e-14)
    z2 = laguerre_zeros(2)
    assert z2[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-13)
    assert z2[1] == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-13)


def test_laguerre_zeros_against_companion_roots():
    # independent route through the numpy Laguerre series companion matrix
    for N in (3, 7, 12, 20):
        mine = laguerre_zeros(N)
        coeffs = [0.0] * N + [1.0]
        ref = np.sort(np.polynomial.laguerre.lagroots(coeffs))
        assert np.allclose(mine, ref, rtol=1e-8, atol=1e-8)


def test_laguerre_zeros_are_certified_roots():
    for N in (5, 30, 90):
        z = laguerre_zeros(N)
        assert np.all(np.diff(z) > 0)
        if N <= 30:
            # residual measured against the all-positive series L_N(-x),
            # which bounds the cancellation scale of the evaluation
            for x in z:
                assert abs(laguerre_poly(N, x)) < 1e-12 * laguerre_poly(N, -x)
    z = laguerre_zeros(12)
    mids = 0.5 * (z[:-1] + z[1:])
    mv = np.array([laguerre_poly(12, x) for x in mids])
    assert np.all(mv[:-1] * mv[1:] < 0)


def test_zeros_above_two_to_the_fourteenth_are_certified_by_a_sign_change(
        monkeypatch):
    # above 2^14 doubles are 3.6e-12 apart: the one zero of L_4128 there
    # fails the absolute residual test, and L_4128 changes sign within two
    # spacings of it
    z = laguerre_zeros(4128)
    assert z.size == 4128 and np.all(np.diff(z) > 0)
    bad = specfun._fails_residual(4128, z)
    assert np.count_nonzero(bad) == 1 and z[bad][0] > 2.0 ** 14
    assert specfun._brackets_a_zero(4128, z[bad]).all()
    # a large zero moved by 1e-6 after the Newton steps fails the residual
    # test and has no sign change within two spacings
    residual = specfun._fails_residual

    def moved(N, zeros):
        zeros[-1] += 1e-6
        return residual(N, zeros)

    monkeypatch.setattr(specfun, "_fails_residual", moved)
    with pytest.raises(NumericError, match="degree 500"):
        laguerre_zeros(500)


def test_laguerre_zeros_rejects_degree_zero():
    with pytest.raises(ValueError):
        laguerre_zeros(0)


def _expression_laguerre_pair_scaled(N, x):
    """_laguerre_pair_scaled with each step one array expression."""
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    logscale = np.zeros_like(x)
    for n in range(N):
        prev, cur = cur, ((2 * n + 1 - x) * cur - n * prev) / (n + 1)
        big = np.abs(cur) > 1e250
        if np.any(big):
            f = np.where(big, np.abs(cur), 1.0)
            cur = cur / f
            prev = prev / f
            logscale = logscale + np.log(f)
    return cur, prev, logscale


@pytest.mark.parametrize("N", [1, 2, 150, 345, 681, 2000])
def test_laguerre_scan_in_place_is_bitwise_the_expression(N):
    # at the Golub-Welsch nodes laguerre_zeros starts its Newton steps from,
    # at their negatives and at signed zeros; the rescale path fires from
    # degree 345 on
    if N == 1:
        nodes = np.array([1.0])
    else:
        nodes = scipy.linalg.eigh_tridiagonal(
            2.0 * np.arange(N) + 1.0, np.arange(1.0, N), eigvals_only=True)
    x = np.concatenate((nodes, -nodes[:5], [0.0, -0.0]))
    got = specfun._laguerre_pair_scaled(N, x)
    want = _expression_laguerre_pair_scaled(N, x)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    assert np.any(got[2] != 0) == (N >= 345)


def test_laguerre_zeros_and_sturm_counts_refuse_over_the_budget(
        monkeypatch):
    # refused from the counted work bytes, before anything is allocated
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES",
                        specfun._ZEROS_BYTES_PER_DEGREE * 40
                        + errors.OBJECT_BYTES)
    assert laguerre_zeros(40).size == 40
    with pytest.raises(ResourceError, match="degree 41"):
        laguerre_zeros(41)
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES",
                        specfun._STURM_BYTES_PER_DEGREE * 1000)
    assert len(nondegenerate_sequence(0.5, 2, kcap=1000).entries) == 2
    with pytest.raises(ResourceError, match="kcap = 1001"):
        nondegenerate_sequence(0.5, 2, kcap=1001)


@pytest.mark.parametrize("N", [10, 2000, 5000])
def test_laguerre_zeros_peak_within_their_count(N):
    need = specfun._ZEROS_BYTES_PER_DEGREE * N + errors.OBJECT_BYTES
    laguerre_zeros(3)  # scipy loads at the first call
    tracemalloc.start()
    try:
        laguerre_zeros(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a bound, and the per-degree part alone within 5% of the peak
    assert peak <= need
    assert specfun._ZEROS_BYTES_PER_DEGREE * N <= 1.05 * peak


def test_laguerre_zero_set_collects_all_degrees():
    zs = laguerre_zero_set(4)
    assert sorted(zs.zeros.keys()) == [1, 2, 3, 4]
    flat = zs.all_zeros()
    assert len(flat) == 1 + 2 + 3 + 4
    vals = [t[0] for t in flat]
    assert vals == sorted(vals)
    # the smallest zero over all degrees belongs to L_4
    assert flat[0][1] == 4 and flat[0][2] == 0


# ------------------------------------------------- overlap kernel polynomial


def test_p_polynomial_degree_one_pair():
    for Z in (0.0, 0.5, -1.25, 3.0):
        assert p_polynomial(1, 1, Z) == pytest.approx(1.0 - Z * Z, rel=1e-15, abs=1e-15)


def test_p_polynomial_diagonal_is_scaled_laguerre():
    for N in (1, 2, 5, 9, 12):
        for Zq in (Fraction(1, 2), Fraction(2), Fraction(9, 4)):
            got = p_polynomial(N, N, -math.sqrt(float(Zq)))
            ref = math.factorial(N) * float(lag_exact(N, Zq))
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-11)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=-40, max_value=40),
)
def test_p_polynomial_matches_fraction_sum(N, k, num):
    Z = num / 8.0
    Zf = Fraction(num, 8)
    ref = sum(
        Fraction((-1) ** (k - j) * math.comb(N, j) * math.comb(k, j))
        * math.factorial(j)
        * Zf ** (N + k - 2 * j)
        for j in range(min(N, k) + 1)
    )
    got = p_polynomial(N, k, Z)
    assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-12)


def test_p_polynomial_degree_cap():
    assert MAX_COMBINED_DEGREE == 120
    p_polynomial(60, 60, 0.5)  # at the cap, fine
    with pytest.raises(PrecisionError):
        p_polynomial(61, 60, 0.5)
    with pytest.raises(ValueError):
        p_polynomial(-1, 2, 0.5)


# ------------------------------------------------------ zero-set distances


def test_zero_set_distance_exact_hit():
    hit = zero_set_distance(1.0, 5)
    assert hit.distance < 1e-13
    assert hit.degree == 1
    assert hit.index == 0


def test_zero_set_distance_matches_exhaustive_scan():
    for x0 in (0.5, 3.7, 10.1):
        got = zero_set_distance(x0, 25)
        best = math.inf
        for k in range(1, 26):
            coeffs = [0.0] * k + [1.0]
            z = np.polynomial.laguerre.lagroots(coeffs).real
            best = min(best, float(np.min(np.abs(z - x0))))
        assert got.distance == pytest.approx(best, rel=1e-8, abs=1e-10)


def test_zero_set_distance_rejects_empty_range():
    with pytest.raises(ValueError):
        zero_set_distance(0.5, 0)


# ------------------------------------------------- zero-avoidance sequence

# regression values for the shrinking-window walk, frozen from a verified run
FROZEN_WALKS = {
    0.5: {
        "k": (2, 15, 37, 681),
        "delta": (0.1, 0.008578643762690496, 0.0007308259698116049,
                  2.1293355773083222e-05),
        "distance": (0.08578643762690497, 0.007308259698116049,
                     0.00021293355773083222, 1.637657657527214e-05),
    },
    3.7: {
        "k": (9, 77, 345, 442),
        "delta": (0.1, 0.008347397333123263, 0.0005316574634350868,
                  3.265895148722997e-05),
        "distance": (0.08347397333123263, 0.005316574634350868,
                     0.0003265895148722997, 1.2944849821394655e-05),
    },
}


def test_avoidance_sequence_frozen_walks():
    for x0, ref in FROZEN_WALKS.items():
        seq = nondegenerate_sequence(x0, 4)
        assert not seq.exhausted
        assert tuple(e.k for e in seq.entries) == ref["k"]
        for e, d_ref, dist_ref in zip(seq.entries, ref["delta"], ref["distance"]):
            assert e.delta == pytest.approx(d_ref, rel=1e-12)
            assert e.distance == pytest.approx(dist_ref, rel=1e-9)


def test_avoidance_sequence_window_invariants():
    seq = nondegenerate_sequence(0.5, 4)
    ks = [e.k for e in seq.entries]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    for e in seq.entries:
        assert 0 < e.distance <= e.delta
        assert abs(e.nearest_zero - seq.x0) == pytest.approx(e.distance, rel=1e-12)
        assert e.distance > ZERO_PROXIMITY_TOL
    for prev, nxt in zip(seq.entries, seq.entries[1:]):
        assert nxt.delta == pytest.approx(prev.distance / 10.0, rel=1e-12)


def test_avoidance_sequence_minimality_of_first_degree():
    # no degree below the reported k has a zero inside that window
    seq = nondegenerate_sequence(0.5, 2)
    for e in seq.entries:
        for k in range(1, e.k):
            z = laguerre_zeros(k)
            assert np.min(np.abs(z - 0.5)) > e.delta


def test_avoidance_sequence_degenerate_start():
    with pytest.raises(DegenerateInput):
        nondegenerate_sequence(1.0, 3)


def test_avoidance_sequence_bad_arguments():
    with pytest.raises(ValueError):
        nondegenerate_sequence(0.5, 0)
    with pytest.raises(ValueError):
        nondegenerate_sequence(-2.0, 3)
    for kcap in (0, -5):
        with pytest.raises(ValueError, match="kcap must be at least 1"):
            nondegenerate_sequence(0.5, 3, kcap=kcap)


def test_avoidance_sequence_exhaustion_flag():
    # L_1 has its only zero at 1, outside every window around 0.5
    seq = nondegenerate_sequence(0.5, 3, kcap=1)
    assert seq.exhausted
    assert seq.entries == []
    assert seq.kcap == 1


def _cumulative_sturm_counts(t, kmax):
    """counts[k-1] = number of zeros of L_k strictly below t, k = 1..kmax,
    from one full Sturm sweep of the order-kmax Jacobi matrix."""
    counts = np.empty(kmax, dtype=np.int64)
    d = 1.0
    neg = 0
    for i in range(kmax):
        d = (2.0 * i + 1.0 - t) - float(i * i) / d
        if d == 0.0:
            d = 1e-300
        if d < 0.0:
            neg += 1
        counts[i] = neg
    return counts


def _two_sweep_first_degree(x0, delta, kmax):
    """The two full sweeps to kmax, kept as the oracle of the one-loop
    _first_degree_with_zero_in."""
    inside = (_cumulative_sturm_counts(x0 + delta, kmax)
              - _cumulative_sturm_counts(x0 - delta, kmax))
    hits = np.nonzero(inside > 0)[0]
    return None if hits.size == 0 else int(hits[0]) + 1


def test_first_degree_with_zero_in_matches_two_sweeps():
    rng = np.random.default_rng(5)
    cases = [(0.5, 0.1, 1), (0.5, 1e-10, 4000), (1.0, 1e-10, 50),
             (3.0, 0.0, 30), (0.5, 0.1, 4000), (1e-3, 1e-4, 300)]
    for _ in range(300):
        x0 = float(np.exp(rng.uniform(-6.0, 4.0)))
        delta = float(np.exp(rng.uniform(-25.0, 0.0)))
        cases.append((x0, delta, int(rng.integers(1, 400))))
    found = [specfun._first_degree_with_zero_in(*c) for c in cases]
    assert found == [_two_sweep_first_degree(*c) for c in cases]
    assert None in found and sum(k is not None for k in found) > 50
