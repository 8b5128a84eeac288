"""Two-term counting coefficients, the matrix symbol on the energy sphere,
and the empirical counting comparison."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from rabispec import errors
from rabispec.errors import ResourceError
from rabispec.fock_ops import ModelSpec, build
from rabispec.spectral_analysis import count_below
from rabispec.weyl_asymptotics import (
    SPHERE_RADIUS,
    WeylPrediction,
    a1_matrix,
    b1_matrix,
    empirical_counting,
    nonpositive_count,
    smges_gap_check,
    symbol_sample,
    weyl_prediction,
)

QR_SPEC = ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 100)
XI3 = ModelSpec.xi([1.0, 0.8], [0.3, 0.5], 0.05, [20, 20])
LAM4 = ModelSpec.lam([1.0, 0.8, 0.6], [0.1, 0.2, 0.3], 0.05, [8, 8, 8])


def _sphere_area(d, r):
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0) * r ** (d - 1)


def ball_volume_numeric(n, nodes=200):
    """vol{p2 <= 1} in 2n dimensions by a radial quadrature.

    Reduces to the radial integral of the sphere-area function out to
    radius sqrt(2); the oracle for the closed form (2 pi)^n / n! behind
    the leading coefficient of weyl_prediction.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    r = 0.5 * SPHERE_RADIUS * (t + 1.0)
    return float(np.sum(w * _sphere_area(2 * n, r)) * 0.5 * SPHERE_RADIUS)


def test_ball_volume_matches_closed_form():
    for n in (1, 2, 3):
        ref = (2.0 * math.pi) ** n / math.factorial(n)
        assert ball_volume_numeric(n) == pytest.approx(ref, abs=1e-10)


def test_prediction_leading_coefficients():
    p = weyl_prediction(QR_SPEC)
    assert p.n == 1 and p.Nlev == 2
    assert p.leading_coeff == pytest.approx(2.0, rel=1e-15)
    p3 = weyl_prediction(XI3)
    assert p3.leading_coeff == pytest.approx(3.0 / 2.0, rel=1e-15)
    p4 = weyl_prediction(LAM4)
    assert p4.leading_coeff == pytest.approx(4.0 / 6.0, rel=1e-15)


def test_prediction_subleading_vanishes():
    # the order-one symbol has zero diagonal, so its trace integral dies
    # identically, for one, two and three modes alike
    assert weyl_prediction(QR_SPEC).subleading_coeff == 0.0
    assert weyl_prediction(XI3).subleading_coeff == 0.0
    assert weyl_prediction(LAM4).subleading_coeff == 0.0


def test_prediction_three_modes_exact():
    for ctor in (ModelSpec.xi, ModelSpec.lam, ModelSpec.vee):
        spec = ctor([0.6, 0.7, 0.8], [0.1, 0.4, 0.6], 0.05, [4, 4, 4])
        p = weyl_prediction(spec)
        assert (p.n, p.Nlev) == (3, 4)
        assert (p.leading_coeff, p.subleading_coeff) == (4 / 6, 0.0)


def test_prediction_evaluate_two_terms():
    p = WeylPrediction(2, 3, 1.5, 0.25)
    lam = 9.0
    assert p.evaluate(lam) == pytest.approx(1.5 * 81.0 - 0.25 * 27.0, rel=1e-15)


def test_symbol_traceless_and_hermitian():
    rng = np.random.default_rng(3)
    specs = (QR_SPEC, XI3, LAM4,
             ModelSpec.vee([0.5, 0.7], [0.1, 0.4], 0.1, [10, 10]))
    for spec in specs:
        for _ in range(10):
            g = rng.standard_normal(2 * spec.modes)
            x = math.sqrt(2.0) * g / np.linalg.norm(g)
            a1 = a1_matrix(spec, x)
            assert np.trace(a1) == 0.0
            assert np.array_equal(a1, a1.T)
            s = a1 + 0.3 * b1_matrix(spec, x)
            assert np.max(np.abs(s - s.conj().T)) < 1e-14


def test_symbol_slot_magnitudes():
    # coupling k contributes alpha_k sqrt(x_k^2 + eps^2 xi_k^2) at its slot
    x = np.array([0.6, -0.3, 0.2, 1.1])
    eps = 0.4
    s = a1_matrix(XI3, x) + eps * b1_matrix(XI3, x)
    assert abs(s[0, 1]) == pytest.approx(
        1.0 * math.hypot(x[0], eps * x[2]), rel=1e-14
    )
    assert abs(s[1, 2]) == pytest.approx(
        0.8 * math.hypot(x[1], eps * x[3]), rel=1e-14
    )
    assert s[0, 2] == 0.0


def test_symbol_gap_degenerates_without_momentum_term():
    # on the section x_1 = 0 the leading symbol vanishes identically for
    # the two-level model and the pair collides
    smp = symbol_sample(QR_SPEC, np.array([0.0, math.sqrt(2.0)]), 0.0)
    assert smp.min_gap == 0.0
    assert np.max(np.abs(smp.a1_matrix)) == 0.0
    # two-level eigenvalues are symmetric around zero
    smp2 = symbol_sample(QR_SPEC, np.array([0.9, -0.7]), 0.3)
    assert smp2.eigenvalues[0] == pytest.approx(-smp2.eigenvalues[1], rel=1e-13)


def test_symbol_gap_opens_with_momentum_term():
    s1 = symbol_sample(XI3, np.array([0.0, 0.0, 1.0, 1.0]), 0.5)
    assert s1.min_gap > 0.0


FAMILIES = (ModelSpec.xi, ModelSpec.lam, ModelSpec.vee)


def _family_spec(ctor, alphas, eps):
    n = len(alphas)
    return ctor(list(alphas), [0.1, 0.3, 0.5, 0.7][:n], eps, [6] * n)


def _gap_infimum(spec, eps):
    """c sqrt(2) min|alpha_k| min(1, eps): c = 2 at one mode (eigenvalues
    +-w), 1 at two (0 and +-|w|) and 0 from three on (a double 0)."""
    c = {1: 2.0, 2: 1.0}.get(spec.modes, 0.0)
    return c * SPHERE_RADIUS * min(map(abs, spec.alphas)) * min(1.0, eps)


def _least_gap(spec, eps, points):
    """Least eigenvalue gap of a1 + eps b1 over a stack of points: the
    sampling oracle of smges_gap_check, never below the infimum."""
    s = a1_matrix(spec, points) + eps * b1_matrix(spec, points)
    return float(np.diff(np.linalg.eigvalsh(s), axis=-1).min())


def _sphere_samples(n, samples, seed):
    g = np.random.default_rng(seed).standard_normal((samples, 2 * n))
    return g * (SPHERE_RADIUS / np.linalg.norm(g, axis=1)[:, None])


def _sphere_grid(n, m):
    """|X| = sqrt(2) in 2n = 2 or 4 dimensions on a grid of angle step
    pi / (2 m), which holds the coordinate axes: S^1 by its angle, S^3 by
    its hyperspherical angles."""
    t = np.arange(4 * m) * (math.pi / (2 * m))
    if n == 1:
        return SPHERE_RADIUS * np.stack((np.cos(t), np.sin(t)), axis=1)
    chi, phi, psi = np.meshgrid(t[:2 * m + 1], t[:2 * m + 1], t,
                                indexing="ij")
    pts = np.stack((np.cos(chi), np.sin(chi) * np.cos(phi),
                    np.sin(chi) * np.sin(phi) * np.cos(psi),
                    np.sin(chi) * np.sin(phi) * np.sin(psi)), axis=-1)
    return SPHERE_RADIUS * pts.reshape(-1, 4)


GAP_EPS = (0.0, 0.05, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("ctor", FAMILIES)
@pytest.mark.parametrize("alphas", [(-0.7,), (1.0, -0.8), (0.8, -0.8),
                                    (1.0, 0.6, -0.9)])
def test_gap_check_is_the_closed_form_at_its_point(ctor, alphas):
    for eps in GAP_EPS:
        spec = _family_spec(ctor, alphas, eps)
        n = spec.modes
        g = smges_gap_check(spec, eps)
        # the weakest coupling first, on xi where eps < 1 and x otherwise;
        # x_2 from three modes on
        j = min(range(n), key=lambda k: abs(alphas[k]))
        want = np.zeros(2 * n)
        want[1 if n >= 3 else j if eps >= 1.0 else n + j] = SPHERE_RADIUS
        assert np.array_equal(g.X, want)
        assert g.min_gap == pytest.approx(_gap_infimum(spec, eps),
                                          rel=1e-15, abs=0.0)
        assert g.min_gap == float(np.diff(g.sample.eigenvalues).min())
        assert g.sample.min_gap == g.min_gap


@pytest.mark.parametrize("ctor", FAMILIES)
@pytest.mark.parametrize("n,m", [(1, 1024), (2, 12)])
def test_gap_check_matches_a_fine_grid_on_S1_and_S3(ctor, n, m):
    pts = _sphere_grid(n, m)
    for eps in GAP_EPS:
        spec = _family_spec(ctor, (1.0, -0.8)[:n], eps)
        got = smges_gap_check(spec, eps).min_gap
        grid = _least_gap(spec, eps, pts)
        # never above the grid's minimum, and reached on it: the grid holds
        # the minimizing point up to the rounding of cos(pi / 2)
        assert got <= grid + 1e-15
        assert grid == pytest.approx(got, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("spec", [QR_SPEC] + [
    ctor([1.0, 0.8, 0.6][:n], [0.1, 0.3, 0.5][:n], 0.05, [6] * n)
    for ctor in FAMILIES for n in (2, 3)
])
def test_gap_check_is_below_the_sampled_minimum(spec):
    pts = _sphere_samples(spec.modes, 100_000, 7)
    for eps in (0.0, 0.3, 2.0):
        got = smges_gap_check(spec, eps).min_gap
        assert got <= _least_gap(spec, eps, pts)
        assert got == pytest.approx(_gap_infimum(spec, eps), rel=1e-15,
                                    abs=0.0)


@pytest.mark.parametrize("ctor", FAMILIES)
def test_gap_check_three_mode_zero_gap_points_are_exact(ctor):
    for alphas in ((1.0, 0.8, 0.6), (0.6, -0.9, 1.2, 0.7)):
        spec = _family_spec(ctor, alphas, 0.1)
        g = smges_gap_check(spec, 0.1)
        s = a1_matrix(spec, g.X) + 0.1 * b1_matrix(spec, g.X)
        # every coupling but the second is 0 at X = sqrt(2) e(x_2), so all
        # levels off that coupling have zero rows: 0 is an exact eigenvalue
        # at least twice
        zero_rows = ~np.any(s, axis=1)
        assert np.count_nonzero(zero_rows) == spec.spin_dim - 2 >= 2
        w = SPHERE_RADIUS * abs(alphas[1])
        want = [-w] + [0.0] * (spec.spin_dim - 2) + [w]
        assert np.array_equal(g.sample.eigenvalues, want)
        assert g.min_gap == 0.0


def test_gap_check_sampling_stays_on_sphere():
    g = smges_gap_check(XI3, 0.5)
    assert np.linalg.norm(g.X) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert g.min_gap >= 0.0
    assert g.sample.min_gap == g.min_gap


def test_gap_check_argument_validation():
    for eps in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            smges_gap_check(XI3, eps)


def test_empirical_counting_matches_eigensolve():
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 200)
    lambdas = [20.0, 40.0, 60.0, 90.0, 120.0]
    rows = empirical_counting(spec, lambdas)
    ev = np.sort(scipy.linalg.eigvalsh(np.asarray(build(spec).matrix)))
    for r in rows:
        brute = int(np.count_nonzero(ev <= r.lam + 1e-9))
        assert r.count == brute
    assert [r.lam for r in rows] == lambdas
    # rows past half the cutoff carry the truncation flag
    assert [r.flagged for r in rows] == [False, False, False, False, True]


def test_empirical_counting_threaded_matches_serial():
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 150)
    lambdas = [10.0, 30.0, 50.0]
    a = empirical_counting(spec, lambdas, jobs=1)
    b = empirical_counting(spec, lambdas, jobs=3)
    assert a == b


def test_empirical_counting_past_the_dense_budget(monkeypatch):
    lambdas = [5.0, 10.0, 15.0, 20.0]
    want = empirical_counting(XI3, lambdas)
    # one byte short of the dense matrix of dimension 1323: the counts work
    # on the occupation-layer blocks and never assemble it
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES",
                        8 * XI3.basis().dim ** 2 - 1)
    assert empirical_counting(XI3, lambdas) == want
    with pytest.raises(ResourceError):
        build(XI3).matrix


def test_layered_count_peaks_below_a_quarter_of_the_dense_matrix():
    spec = XI3.with_cutoffs((40, 40))
    dense_bytes = 8 * spec.basis().dim ** 2  # dimension 5043: 203 MB
    tracemalloc.start()
    try:
        count_below(build(spec), 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4


def test_empirical_counting_prediction_column():
    rows = empirical_counting(QR_SPEC.with_cutoffs((150,)), [25.0])
    p = weyl_prediction(QR_SPEC)
    assert rows[0].prediction == pytest.approx(p.evaluate(25.0), rel=1e-15)
    assert rows[0].rel_err == pytest.approx(
        (rows[0].count - rows[0].prediction) / rows[0].prediction, rel=1e-15
    )


def test_empirical_counting_needs_a_finite_positive_fraction():
    for fraction in (math.nan, 0.0, -0.5, math.inf):
        with pytest.raises(ValueError, match="reliable fraction"):
            empirical_counting(QR_SPEC, [25.0], reliable_fraction=fraction)


def test_nonpositive_count_reports_low_modes():
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 100)
    npc = nonpositive_count(spec)
    ev = np.sort(scipy.linalg.eigvalsh(np.asarray(build(spec).matrix)))
    assert npc == int(np.count_nonzero(ev <= 1e-10))
    assert npc >= 0
