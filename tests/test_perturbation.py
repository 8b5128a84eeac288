"""Degenerate pair analysis at the harmonic levels: first-order splitting,
second-order quasimodes, and the finite-difference cross-checks."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from rabispec import errors, perturbation, spectral_analysis
from rabispec.errors import ResourceError, UsageError
from rabispec.fock_ops import ModelSpec, build
from rabispec.overlaps import displacement_matrix
from rabispec.perturbation import (
    DEGENERACY_TOL,
    SECOND_ORDER_SIGN,
    RabiParameters,
    branch_parity,
    expansion_residual,
    fd_pair_slopes,
    fd_signed_splitting,
    first_order,
    quasimode_form,
    quasimode_residual,
    quasimode_vectors,
)
from rabispec.spectral_analysis import ab_spectra

STD = RabiParameters(1.0, 1.0, -1.0)
# 2 a^2 = 1 puts the level-1 diagonal overlap on the first Laguerre zero
DEGEN_ALPHA = math.sqrt(0.5)


def test_parameters_betas_and_ordering():
    p = RabiParameters(0.8, 0.9, 0.3)
    assert p.beta1 == pytest.approx(0.6)
    assert p.beta2 == pytest.approx(0.3)
    RabiParameters(1.0, 0.5, 0.5)  # equal levels allowed, beta2 = 0
    with pytest.raises(ValueError):
        RabiParameters(1.0, -0.5, 0.5)


def test_first_order_ground_level():
    split = first_order(0, STD)
    r = math.exp(-1.0)
    assert split.overlap_ratio == pytest.approx(r, rel=1e-14)
    assert not split.degenerate
    assert split.mu_plus == pytest.approx(r, rel=1e-13)
    assert split.mu_minus == pytest.approx(-r, rel=1e-13)
    assert split.mu_plus - split.mu_minus == pytest.approx(
        2.0 * split.beta2 * abs(r), rel=1e-13
    )


def test_first_order_negative_ratio_orientation():
    split = first_order(1, STD)
    assert split.overlap_ratio == pytest.approx(-math.exp(-1.0), rel=1e-13)
    assert np.allclose(split.w_plus, np.array([-1.0, 1.0]) / math.sqrt(2))
    assert np.allclose(split.w_minus, np.array([-1.0, -1.0]) / math.sqrt(2))
    assert split.mu_plus > split.mu_minus


def test_first_order_degenerate_fallback():
    p = RabiParameters(DEGEN_ALPHA, 1.0, -1.0)
    split = first_order(1, p)
    assert abs(split.overlap_ratio) < DEGENERACY_TOL
    assert split.degenerate
    assert split.mu_plus == split.mu_minus == split.beta1
    assert np.allclose(split.w_plus, np.array([1.0, 1.0]) / math.sqrt(2))
    with pytest.raises(ValueError):
        first_order(-1, p)


def test_first_order_matches_fd_slopes():
    # eigensolver route never touches the overlap formulas
    for N in (0, 1, 4):
        split = first_order(N, STD)
        lo, hi = fd_pair_slopes(N, STD)
        assert lo == pytest.approx(split.mu_minus, abs=1e-8)
        assert hi == pytest.approx(split.mu_plus, abs=1e-8)


# ------------------------------------------------------- second order


def test_quasimode_form_is_scalar():
    form = quasimode_form(3, STD)
    assert form.matrix.shape == (2, 2)
    assert form.matrix[0, 1] == 0.0 and form.matrix[1, 0] == 0.0
    assert form.matrix[0, 0] == form.matrix[1, 1]
    assert form.mu2_plus == form.mu2_minus
    assert form.tail_estimate >= 0.0
    with pytest.raises(ValueError):
        quasimode_form(3, STD, K=3)


def test_quasimode_form_matches_direct_sum():
    # independent recomputation from the normalized overlap row
    from rabispec.overlaps import displacement_matrix

    N, K = 2, 40
    form = quasimode_form(N, STD, K=K)
    row = displacement_matrix(K, STD.alpha)[N]
    total = sum(
        2.0 * STD.beta2 ** 2 * row[k] ** 2 / (k - N)
        for k in range(K + 1)
        if k != N
    )
    assert form.mu2_plus == pytest.approx(total, rel=1e-13)


def test_quasimode_form_cutoff_converged():
    a = quasimode_form(4, STD, K=4 + 40).mu2_plus
    b = quasimode_form(4, STD, K=4 + 80).mu2_plus
    assert a == pytest.approx(b, abs=1e-10)
    assert quasimode_form(4, STD, K=80).tail_estimate < 1e-12


def test_quasimode_form_vanishes_without_level_splitting():
    p = RabiParameters(1.0, 0.5, 0.5)
    form = quasimode_form(2, p)
    assert form.mu2_plus == 0.0
    assert np.all(form.matrix == 0.0)


def test_quasimode_routines_refuse_a_cutoff_over_budget(monkeypatch):
    # each routine counts D at its cutoff, (n + 1)^2 doubles, the 16
    # vectors of n + 1 that displacement_matrix holds beside it and
    # errors.OBJECT_BYTES: quasimode_form and quasimode_vectors at K, the
    # residual step at its cutoff
    formed = []

    def counted(*args):
        formed.append(args)
        return displacement_matrix(*args)

    exp = quasimode_vectors(3, STD, K=30)
    monkeypatch.setattr(perturbation, "displacement_matrix", counted)
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES",
                        8 * (101 + 16) * 101 + errors.OBJECT_BYTES)
    with pytest.raises(ResourceError, match="form's arrays at K = 101 need"):
        quasimode_form(3, STD, K=101)
    with pytest.raises(ResourceError, match="vectors' arrays at K = 101 need"):
        quasimode_vectors(3, STD, K=101)
    with pytest.raises(ResourceError,
                       match="residual's arrays at cutoff 101 need"):
        expansion_residual(exp, STD, 1e-2, cutoff=101)
    assert formed == []
    assert quasimode_form(3, STD, K=100).tail_estimate >= 0.0
    assert quasimode_vectors(3, STD, K=100).K == 100
    assert expansion_residual(exp, STD, 1e-2, cutoff=100).residual > 0.0
    assert formed == [(100, STD.alpha)] * 3


@pytest.mark.parametrize("K", [2, 10, 61, 200, 400, 1000])
@pytest.mark.parametrize("alpha", [1.0, -1.0])
@pytest.mark.parametrize("routine", [quasimode_form, quasimode_vectors],
                         ids=["form", "vectors"])
def test_quasimode_budgets_bound_the_traced_peak(routine, alpha, K,
                                                 monkeypatch):
    # the budget patched to the count at K, D and 16 vectors: the routine
    # peaks within it, and K + 1 is refused before its arrays are formed
    need = 8 * (K + 1 + 16) * (K + 1) + errors.OBJECT_BYTES
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", need)
    params = RabiParameters(alpha, 1.0, -1.0)
    routine(0, params, 1)  # whatever loads at the first call
    tracemalloc.start()
    try:
        routine(1, params, K)
        ran = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kept = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ResourceError, match="at K = %d need" % (K + 1)):
            routine(1, params, K + 1)
        refused = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    assert need / 2 < ran <= need
    assert refused < 1e6


@pytest.mark.parametrize("C", [2, 10, 101, 400, 1000])
@pytest.mark.parametrize("alpha", [1.0, -1.0])
def test_residual_budget_bounds_the_traced_peak(alpha, C, monkeypatch):
    # the residual step counts D at its cutoff C and 16 vectors of C + 1,
    # as the spectral cutoff's routines do, and is refused at C + 1 before
    # D is formed
    need = 8 * (C + 1 + 16) * (C + 1) + errors.OBJECT_BYTES
    params = RabiParameters(alpha, 1.0, -1.0)
    exp = quasimode_vectors(1, params, 2)
    expansion_residual(exp, params, 1e-2, 2)  # whatever loads at first
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", need)
    tracemalloc.start()
    try:
        expansion_residual(exp, params, 1e-2, C)
        ran = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kept = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ResourceError, match="at cutoff %d need" % (C + 1)):
            expansion_residual(exp, params, 1e-2, C + 1)
        refused = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    # D is formed and held beside the vectors, within the count
    assert 8 * (C + 1) ** 2 < ran <= need
    assert refused < 1e6


def test_quasimode_vectors_avoid_unperturbed_eigenspace():
    exp = quasimode_vectors(2, STD)
    K = exp.K
    for v in (exp.u1_plus, exp.u1_minus, exp.u2_plus, exp.u2_minus):
        assert v.shape == (2 * (K + 1),)
        assert v[2] == 0.0
        assert v[K + 1 + 2] == 0.0
        assert np.all(np.isfinite(v))
    assert np.linalg.norm(exp.u1_plus) > 0.0


def test_quasimode_residual_zero_at_zero_coupling_strength():
    res = quasimode_residual(1, STD, 0.0)
    assert res.residual == 0.0
    assert not res.margin_violated


def test_quasimode_residual_cubic_scaling():
    r2 = quasimode_residual(4, STD, 2e-2).residual
    r1 = quasimode_residual(4, STD, 1e-2).residual
    ratio = r2 / r1
    assert 6.0 < ratio < 10.0  # eps^3 would give 8
    # absolute size sanity at the larger step
    assert r2 < 5e-5


def test_quasimode_residual_margin_flag():
    res = quasimode_residual(1, STD, 1e-2, K=30, cutoff=40)
    assert res.margin_violated
    res2 = quasimode_residual(1, STD, 1e-2, K=30, cutoff=70)
    assert not res2.margin_violated


def test_quasimode_computes_each_piece_once(monkeypatch):
    calls = Counter()

    def counted(name):
        fn = getattr(perturbation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(perturbation, name, wrapper)

    counted("displacement_matrix")
    counted("first_order")
    exp = quasimode_vectors(1, STD)
    assert calls == {"displacement_matrix": 1, "first_order": 1}
    calls.clear()
    # the residual forms D once more, at its own cutoff, and nothing else
    res = expansion_residual(exp, STD, 1e-2)
    assert calls == {"displacement_matrix": 1}
    calls.clear()
    assert res == quasimode_residual(1, STD, 1e-2)
    assert calls == {"displacement_matrix": 2, "first_order": 1}
    # the pieces shared with quasimode_form and first_order are bitwise theirs
    form = quasimode_form(1, STD)
    split = first_order(1, STD)
    assert (exp.mu2_plus, exp.tail_estimate) == (form.mu2_plus,
                                                 form.tail_estimate)
    assert (exp.mu1_plus, exp.mu1_minus) == (split.mu_plus, split.mu_minus)


# the frame route: the expansion and its residual on the whole 2 (K + 1)
# AB frame, as quasimode_vectors and expansion_residual formed them before
# they worked on the branch's parity sector; kept as their oracle

ORACLE_MODELS = [
    (1, RabiParameters(DEGEN_ALPHA, 1.0, -1.0)),
    (0, RabiParameters(0.7, 1.0, -1.0)),
    (4, RabiParameters(1.0, 1.0, -1.0)),
    (3, RabiParameters(1.3, 0.9, -1.1)),
    (2, RabiParameters(-0.8, 1.2, -0.6)),
]


def _frame_pieces(params, d):
    """(lam2, B) of the AB frame: the harmonic levels on both spin blocks,
    and B = [[beta1 I, beta2 D], [beta2 D^T, beta1 I]]."""
    K = d.shape[0] - 1
    lam = np.arange(K + 1) + 0.5
    b = np.eye(2 * (K + 1))
    b *= params.beta1
    b[:K + 1, K + 1:] = params.beta2 * d
    b[K + 1:, :K + 1] = params.beta2 * d.T
    return np.concatenate((lam, lam)), b


def _frame_vectors(N, params, K):
    """[(u1, u2) of the plus branch, then of the minus branch], each
    R0 (mu - B) applied on the frame to phi_N w and then to u1."""
    lam2, b = _frame_pieces(params, displacement_matrix(K, params.alpha))
    split = first_order(N, params)
    with np.errstate(divide="ignore"):
        weights = 1.0 / (lam2 - (N + 0.5))
    weights[[N, K + 1 + N]] = 0.0
    out = []
    for w, mu in ((split.w_plus, split.mu_plus),
                  (split.w_minus, split.mu_minus)):
        v0 = np.zeros(2 * (K + 1))
        v0[N], v0[K + 1 + N] = w
        u1 = weights * (mu * v0 - b @ v0)
        out.append((u1, weights * (mu * u1 - b @ u1)))
    return out


def _frame_residual(exp, params, eps, cutoff):
    """expansion_residual with the frame vectors embedded at cutoff and
    multiplied by the dense frame matrix of build."""
    N, K = exp.level, exp.K
    h = build(ModelSpec.ab_frame(params.alpha, params.gamma1, params.gamma2,
                                 eps, cutoff)).matrix

    def embed(vec):
        big = np.zeros(2 * (cutoff + 1))
        big[:K + 1] = vec[:K + 1]
        big[cutoff + 1:cutoff + 2 + K] = vec[K + 1:]
        return big

    worst = 0.0
    for w, u1, u2, mu, mu2 in ((exp.w_plus, exp.u1_plus, exp.u2_plus,
                                exp.mu1_plus, exp.mu2_plus),
                               (exp.w_minus, exp.u1_minus, exp.u2_minus,
                                exp.mu1_minus, exp.mu2_minus)):
        v0 = np.zeros(2 * (cutoff + 1))
        v0[N], v0[cutoff + 1 + N] = w
        u = v0 + eps * embed(u1) + eps * eps * embed(u2)
        lam = N + 0.5 + eps * mu + 0.5 * eps * eps * SECOND_ORDER_SIGN * mu2
        worst = max(worst, np.linalg.norm(h @ u - lam * u)
                    / np.linalg.norm(u))
    return worst


@pytest.mark.parametrize("N, params", ORACLE_MODELS)
def test_quasimode_vectors_match_the_frame_route(N, params):
    exp = quasimode_vectors(N, params)
    got = [(exp.u1_plus, exp.u2_plus), (exp.u1_minus, exp.u2_minus)]
    for pair, want in zip(got, _frame_vectors(N, params, exp.K)):
        for u, v in zip(pair, want):
            assert u.shape == v.shape
            assert np.max(np.abs(u - v)) <= 1e-14 * np.max(np.abs(v))


@pytest.mark.parametrize("N, params", ORACLE_MODELS)
def test_quasimode_residual_matches_the_frame_route(N, params):
    exp = quasimode_vectors(N, params)
    for eps in (1e-3, 1e-2, 0.05):
        for cutoff in (None, exp.K, exp.K + 15):
            got = expansion_residual(exp, params, eps, cutoff).residual
            want = _frame_residual(exp, params, eps,
                                   exp.K + 40 if cutoff is None else cutoff)
            assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("N, params", ORACLE_MODELS)
def test_sector_recursion_gives_the_second_order_sign(N, params):
    # Rayleigh-Schrodinger on the branch's sector: the eps^2 coefficient is
    # <v0, B u1> = 2 <x0, B_s y1>, with v0 = (x0, s (-1)^k x0) of norm 1;
    # the module writes it as (1/2) SECOND_ORDER_SIGN mu2
    exp = quasimode_vectors(N, params)
    d = displacement_matrix(exp.K, params.alpha)
    for w, u1, mu2, s in ((exp.w_plus, exp.u1_plus, exp.mu2_plus,
                           exp.parity[0]),
                          (exp.w_minus, exp.u1_minus, exp.mu2_minus,
                           exp.parity[1])):
        y1 = u1[:exp.K + 1]
        lam2 = 2.0 * w[0] * perturbation.sector_perturbation(
            d, s, params, y1)[N]
        want = 0.5 * SECOND_ORDER_SIGN * mu2
        assert abs(lam2 - want) <= 1e-15 + 1e-12 * abs(mu2)


def test_branch_sectors_hold_the_first_order_vectors():
    # phi_N w of each branch is the frame vector (x0, s (-1)^k x0) of its
    # sector s, x0 = w[0] e_N, and u1, u2 are frame vectors of that sector
    for N, params in ORACLE_MODELS:
        exp = quasimode_vectors(N, params)
        assert exp.parity == branch_parity(N, params)
        n = exp.K + 1
        signs = (-1.0) ** np.arange(n)
        for w, s, us in ((exp.w_plus, exp.parity[0],
                          (exp.u1_plus, exp.u2_plus)),
                         (exp.w_minus, exp.parity[1],
                          (exp.u1_minus, exp.u2_minus))):
            assert w[1] == s * (-1) ** N * w[0]
            for u in us:
                assert np.array_equal(u[n:], s * signs * u[:n])


def _ab_frame(params, eps, cutoff):
    return ModelSpec.ab_frame(params.alpha, params.gamma1, params.gamma2,
                              eps, cutoff)


def ab_sector_spectrum(params, eps, cutoff, sector):
    """Eigenvalues of one parity sector of the displaced-frame operator,
    ascending, read off ab_spectra.

    The parity here is spin-flip times mode-number parity; sector +1 carries
    the states whose spin part is the symmetric combination on even modes.
    Reduction: H_s = P + e beta1 + s e beta2 D diag((-1)^k), formed by
    fock_ops.ABSector, bitwise symmetric by the overlap antisymmetry.
    """
    if sector not in (+1, -1):
        raise ValueError("sector must be +1 or -1")
    (values, which), = ab_spectra([_ab_frame(params, eps, cutoff)])
    return values[which == (1 - sector) // 2]


def fd_second_differences(N, params, eps_fd=1e-2, cutoff=240):
    """Central second differences (lambda(e) - 2 lambda(0) + lambda(-e))/e^2
    per parity branch, returned as (value_plus_branch, value_minus_branch).

    This is the calibration oracle for SECOND_ORDER_SIGN: each value should
    equal SECOND_ORDER_SIGN * mu2 for its branch.
    """
    perturbation._check_level(N, cutoff)
    lp, lm = ([values[which == (1 - s) // 2][N] for s in
               branch_parity(N, params)]
              for values, which in ab_spectra(
                  [_ab_frame(params, e, cutoff) for e in (eps_fd, -eps_fd)]))
    l0 = N + 0.5
    return tuple((p - 2 * l0 + m) / eps_fd ** 2 for p, m in zip(lp, lm))


def test_fd_oracles_refuse_a_level_outside_their_cutoff():
    # each parity sector at cutoff 20 holds levels 0..20
    p = RabiParameters(0.9, 1.0, -0.6)
    for fd in (lambda N: fd_pair_slopes(N, p, cutoff=20),
               lambda N: fd_signed_splitting(N, p, 0.03, cutoff=20),
               lambda N: fd_second_differences(N, p, cutoff=20)):
        assert np.all(np.isfinite(fd(20)))
        for N in (21, -1):
            with pytest.raises(UsageError, match="cutoff 20"):
                fd(N)


def test_second_difference_calibrates_sign():
    form = quasimode_form(4, STD)
    d_plus, d_minus = fd_second_differences(4, STD)
    assert d_plus == pytest.approx(SECOND_ORDER_SIGN * form.mu2_plus, rel=2e-3)
    assert d_minus == pytest.approx(SECOND_ORDER_SIGN * form.mu2_minus, rel=2e-3)
    # the opposite sign choice is excluded by a wide margin
    assert abs(d_plus - (-SECOND_ORDER_SIGN) * form.mu2_plus) > abs(
        0.5 * form.mu2_plus
    )


# ------------------------------------------------------- parity tracking


def test_sector_union_recovers_full_spectrum():
    cutoff = 120
    eps = 0.07
    full = np.sort(scipy.linalg.eigvalsh(
        build(ModelSpec.ab_frame(1.0, 1.0, -1.0, eps, cutoff)).matrix))
    a = ab_sector_spectrum(STD, eps, cutoff, +1)
    b = ab_sector_spectrum(STD, eps, cutoff, -1)
    merged = np.sort(np.concatenate((a, b)))
    assert np.max(np.abs(full - merged)) < 1e-10
    with pytest.raises(ValueError):
        ab_sector_spectrum(STD, eps, cutoff, 0)


def _symmetrized_sector(params, eps, cutoff, sector):
    """The sector matrix as ab_sector_spectrum formed it itself, before
    fock_ops.ABSector: symmetrized by 0.5 (h + h^T)."""
    lam = np.arange(cutoff + 1) + 0.5
    d = displacement_matrix(cutoff, params.alpha)
    signs = (-1.0) ** np.arange(cutoff + 1)
    hs = np.diag(lam + eps * params.beta1) \
        + sector * eps * params.beta2 * (d * signs[None, :])
    return 0.5 * (hs + hs.T)


def test_ab_sector_spectrum_is_bitwise_the_symmetrized_formula():
    for params in (STD, RabiParameters(DEGEN_ALPHA, 1.0, -1.0),
                   RabiParameters(-0.8, 0.5, -0.2)):
        for eps in (0.07, -0.03):
            for sector in (+1, -1):
                want = np.sort(scipy.linalg.eigvalsh(
                    _symmetrized_sector(params, eps, 120, sector)))
                got = ab_sector_spectrum(params, eps, 120, sector)
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64))


def _dense_fd_pair_slopes(N, params, eps_fd=1e-3, cutoff=240):
    """fd_pair_slopes on the eigvalsh of the whole dense AB matrix."""

    def sorted_pair(eps):
        spec = ModelSpec.ab_frame(params.alpha, params.gamma1, params.gamma2,
                                  eps, cutoff)
        ev = np.sort(scipy.linalg.eigvalsh(build(spec).matrix))
        return ev[2 * N], ev[2 * N + 1]

    def central(eps):
        lo_p, hi_p = sorted_pair(eps)
        lo_m, hi_m = sorted_pair(-eps)
        return (lo_p - hi_m) / (2 * eps), (hi_p - lo_m) / (2 * eps)

    s1 = central(eps_fd)
    s2 = central(eps_fd / 2)
    return ((4 * s2[0] - s1[0]) / 3.0, (4 * s2[1] - s1[1]) / 3.0)


def test_fd_pair_slopes_match_the_dense_route():
    # the routes round the pair differently by a few ulp of N + 1/2; the
    # Richardson quotient divides that by about 1e-3
    for params in (STD, RabiParameters(1.2, 0.9, -1.1)):
        for N in (0, 3, 10):
            got = fd_pair_slopes(N, params)
            want = _dense_fd_pair_slopes(N, params)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-10


def test_branch_parity_labels_track_slopes():
    for N in (0, 1, 3):
        split = first_order(N, STD)
        p_plus, p_minus = branch_parity(N, STD)
        assert {p_plus, p_minus} == {1, -1}
        eps = 1e-4
        lp = ab_sector_spectrum(STD, eps, 200, p_plus)[N]
        lm = ab_sector_spectrum(STD, eps, 200, p_minus)[N]
        assert (lp - (N + 0.5)) / eps == pytest.approx(split.mu_plus, abs=1e-3)
        assert (lm - (N + 0.5)) / eps == pytest.approx(split.mu_minus, abs=1e-3)


def test_signed_splitting_first_order_dominates():
    N = 4
    split = first_order(N, STD)
    eps = 1e-3
    gap = fd_signed_splitting(N, STD, eps)
    assert gap == pytest.approx((split.mu_plus - split.mu_minus) * eps, rel=1e-3)


def test_fd_oracles_form_one_displacement_matrix_per_eps(monkeypatch):
    # every eps of one call comes from one ab_spectra, so one
    # displacement matrix per call, and the values are bitwise those of
    # ab_sector_spectrum sector by sector
    calls = Counter()

    def counted(*args):
        calls["d"] += 1
        return displacement_matrix(*args)

    p = RabiParameters(0.9, 1.0, -0.6)
    for N in (1, 4):
        plus, minus = branch_parity(N, p)

        def level(eps, sector):
            return ab_sector_spectrum(p, eps, 120, sector)[N]

        monkeypatch.setattr(spectral_analysis, "displacement_matrix",
                            counted)
        calls.clear()
        gap = fd_signed_splitting(N, p, 0.03, cutoff=120)
        assert calls["d"] == 1
        calls.clear()
        second = fd_second_differences(N, p, cutoff=120)
        assert calls["d"] == 1
        monkeypatch.undo()
        assert gap == level(0.03, plus) - level(0.03, minus)
        assert second == tuple(
            (level(1e-2, s) - 2 * (N + 0.5) + level(-1e-2, s)) / 1e-2 ** 2
            for s in (plus, minus))


def _bits(values):
    """The IEEE bit patterns, sign bits included, of floats."""
    return np.asarray(values, dtype=float).view(np.int64)


def _per_eps_fd_pair_slopes(N, params, eps_fd=1e-3, cutoff=240):
    """fd_pair_slopes with one ab_spectra, and so one displacement matrix,
    per eps."""

    def sorted_pair(eps):
        ev = ab_spectra([ModelSpec.ab_frame(params.alpha, params.gamma1,
                                            params.gamma2, eps, cutoff)])[0][0]
        return ev[2 * N], ev[2 * N + 1]

    def central(eps):
        lo_p, hi_p = sorted_pair(eps)
        lo_m, hi_m = sorted_pair(-eps)
        return (lo_p - hi_m) / (2 * eps), (hi_p - lo_m) / (2 * eps)

    s1 = central(eps_fd)
    s2 = central(eps_fd / 2)
    return ((4 * s2[0] - s1[0]) / 3.0, (4 * s2[1] - s1[1]) / 3.0)


def test_fd_pair_slopes_form_one_displacement_matrix(monkeypatch):
    calls = Counter()

    def counted(*args):
        calls["d"] += 1
        return displacement_matrix(*args)

    for params, N, cutoff in ((RabiParameters(0.9, 1.0, -0.6), 0, 120),
                              (RabiParameters(-0.7, 1.2, 0.3), 3, 120),
                              (STD, 2, 240)):
        monkeypatch.setattr(spectral_analysis, "displacement_matrix",
                            counted)
        calls.clear()
        got = fd_pair_slopes(N, params, cutoff=cutoff)
        assert calls["d"] == 1
        monkeypatch.undo()
        want = _per_eps_fd_pair_slopes(N, params, cutoff=cutoff)
        assert _bits(got).tolist() == _bits(want).tolist()


def test_signed_splitting_cubic_at_degenerate_point():
    # with the first-order ratio on a Laguerre zero the tracked gap opens
    # at third order; the eps^2 coefficient vanishes because the quadratic
    # form is scalar on the pair
    p = RabiParameters(DEGEN_ALPHA, 1.0, -1.0)
    c1 = fd_signed_splitting(1, p, 0.04) / 0.04 ** 3
    c2 = fd_signed_splitting(1, p, 0.02) / 0.02 ** 3
    assert c1 == pytest.approx(c2, rel=0.1)
    assert 0.3 < abs(c1) < 4.0
    # evenness check: signed gap is odd in eps
    g = fd_signed_splitting(1, p, 0.03)
    assert fd_signed_splitting(1, p, -0.03) == pytest.approx(-g, rel=1e-6)
