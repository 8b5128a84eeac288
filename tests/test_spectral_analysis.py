"""Spectrum extraction, cutoff convergence, parity-resolved merging,
inertia counting, and the unit-interval census."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from rabispec.errors import CoverageError
from rabispec.fock_ops import (
    BasisDescriptor,
    ModelSpec,
    TruncatedOperator,
    build,
    harmonic_matrix,
    parity_matrix,
)
from rabispec.spectral_analysis import (
    BOUNDARY_TOL,
    Spectrum,
    braak_intervals,
    converged_spectrum,
    count_below,
    eigen_spectrum,
    parity_split,
)


def _diag_op(values):
    n = len(values)
    assert n % 2 == 0
    basis = BasisDescriptor(1, (n // 2 - 1,), 2)
    return TruncatedOperator(basis, np.diag(np.asarray(values, dtype=float)))


def _sym_op(mat):
    n = mat.shape[0]
    basis = BasisDescriptor(1, (n // 2 - 1,), 2)
    return TruncatedOperator(basis, mat)


# ------------------------------------------------------- eigen_spectrum


def test_eigen_spectrum_sorts_diagonal():
    op = _diag_op([3.0, 1.0, 4.0, 2.0])
    assert np.array_equal(eigen_spectrum(op), [1.0, 2.0, 3.0, 4.0])


def test_eigen_spectrum_harmonic_levels():
    b = BasisDescriptor(1, (5,), 2)
    ev = eigen_spectrum(harmonic_matrix(b))
    assert np.allclose(ev, np.repeat(np.arange(6) + 0.5, 2))


def test_eigen_spectrum_accepts_sparse_build():
    ev = eigen_spectrum(build(ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 40)))
    # at eps 0 the displaced levels sit at N + 1/2 - a^2/2, each twice
    assert ev[0] == pytest.approx(0.0, abs=1e-8)
    assert ev[1] == pytest.approx(0.0, abs=1e-8)
    assert ev[2] == pytest.approx(1.0, abs=1e-6)


def test_eigen_spectrum_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        eigen_spectrum(TruncatedOperator(BasisDescriptor(1, (0,), 2), m))


# ------------------------------------------------------- convergence


def test_converged_spectrum_reaches_displaced_levels():
    s = converged_spectrum(ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 8), 10, 1e-10)
    expect = np.repeat(np.arange(5) + 0.5 - 0.5, 2)
    assert np.max(np.abs(s.eigenvalues[:10] - expect)) < 1e-9
    assert not s.partial
    assert s.converged_count == 10
    assert s.cutoffs_used[0] > 8  # at least one growth step happened
    assert s.parity is None


def test_converged_spectrum_half_shift_between_frames():
    sa = converged_spectrum(ModelSpec.qr(0.7, 1.0, -1.0, 0.05, 8), 8, 1e-9)
    sb = converged_spectrum(ModelSpec.qrabi(0.7, 1.0, 0.05, 8), 8, 1e-9)
    d = sa.eigenvalues[:8] - sb.eigenvalues[:8]
    assert np.max(np.abs(d - 0.5)) < 1e-8


def test_converged_spectrum_partial_at_cap():
    s = converged_spectrum(ModelSpec.qr(1.0, 1.0, -1.0, 0.3, 4), 6, 1e-14, cap=6)
    assert s.partial
    assert s.converged_count < 6
    assert all(c <= 6 for c in s.cutoffs_used)


def test_converged_spectrum_argument_validation():
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 8)
    with pytest.raises(ValueError):
        converged_spectrum(spec, 0, 1e-8)
    with pytest.raises(ValueError):
        converged_spectrum(spec, 4, 0.0)


def test_spectrum_to_dict_round_trip_fields():
    s = converged_spectrum(ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 8), 4, 1e-9)
    d = s.to_dict()
    assert d["converged_count"] == 4
    assert d["partial"] is False
    assert len(d["eigenvalues"]) == len(s.eigenvalues)
    assert "parity" not in d


# ------------------------------------------------------- parity split


def test_parity_split_matches_full_diagonalization():
    for spec in (ModelSpec.qrabi(0.8, 0.9, 0.04, 8),
                 ModelSpec.qr(1.03, 0.95, -1.07, -0.03, 9),
                 ModelSpec.qr(0.6, 0.4, -0.9, 0.1, 7)):
        ps = parity_split(spec, 12, 1e-10)
        cs = converged_spectrum(spec, 12, 1e-10)
        assert cs.parity is None
        assert cs.cutoffs_used == ps.cutoffs_used
        assert cs.converged_count == ps.converged_count == 12
        # oracle: the dense matrix at the final cutoff, whole and per sector
        final = spec.with_cutoffs(ps.cutoffs_used)
        h = build(final).matrix
        ref = scipy.linalg.eigvalsh(h)
        bound = 1e-12 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(ps.eigenvalues - ref) <= bound)
        assert np.all(np.abs(cs.eigenvalues - ref) <= bound)
        signs = np.diag(parity_matrix(final.basis()).matrix)
        vals, labels = [], []
        for label, sign in (("+", 1.0), ("-", -1.0)):
            idx = np.nonzero(signs == sign)[0]
            vals.append(np.sort(scipy.linalg.eigvalsh(h[np.ix_(idx, idx)])))
            labels.extend([label] * idx.size)
        order = np.argsort(np.concatenate(vals), kind="stable")
        assert ps.parity == [labels[i] for i in order]


def test_parity_split_degenerate_pairs_carry_both_labels():
    # decoupled limit: every level hosts one state of each parity
    ps = parity_split(ModelSpec.qrabi(1e-300, 0.5, 0.0, 8), 8, 1e-10)
    for i in range(0, 8, 2):
        assert {ps.parity[i], ps.parity[i + 1]} == {"+", "-"}


def test_parity_split_requires_two_level_family():
    with pytest.raises(ValueError):
        parity_split(ModelSpec.xi((1.0,), (0.5,), 0.0, (8,)), 4, 1e-8)


# ------------------------------------------------------- inertia counts


def test_count_below_diagonal_cases():
    op = _diag_op([1.0, 2.0, 3.0, 4.0])
    assert count_below(op, 0.5) == 0
    assert count_below(op, 2.0) == 2  # threshold tie is counted
    assert count_below(op, 100.0) == 4
    with pytest.raises(ValueError):
        count_below(op, np.inf)


def test_count_below_matches_eigensolve_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(12):
        n = 30
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        op = _sym_op(a)
        evs = np.sort(np.linalg.eigvalsh(a))
        for lam in (-2.0, 0.0, 1.3, evs[7] + 1e-13, 100.0):
            ref = int(np.count_nonzero(evs <= lam + 1e-11))
            assert count_below(op, lam) == ref


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=4, max_size=4),
    st.floats(min_value=-6, max_value=6),
    st.floats(min_value=0, max_value=3),
)
def test_count_below_monotone_in_threshold(diag, lam, step):
    op = _diag_op(diag)
    assert count_below(op, lam) <= count_below(op, lam + step)


# ------------------------------------------------------- interval census


def test_braak_census_two_per_interval():
    spm = parity_split(ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 16), 40, 1e-9)
    rep = braak_intervals(spm, 0.5, 10)
    assert all(c.total == 2 for c in rep.per_interval)
    assert all(c.plus == 1 and c.minus == 1 for c in rep.per_interval)
    assert set(rep.verdicts.keys()) == {"+", "-"}
    for v in rep.verdicts.values():
        assert v["max_two"] and v["no_adjacent_empty"] and v["no_adjacent_double"]
    assert rep.shift_applied == 0.5


def test_braak_census_boundary_rule():
    # synthetic spectrum with one value a hair under an integer boundary
    ev = np.array([0.3, 1.0 - 0.5 * BOUNDARY_TOL, 2.5, 3.2])
    s = Spectrum(ev, None, 4, (8,), None)
    rep = braak_intervals(s, 0.0, 2)
    totals = [c.total for c in rep.per_interval]
    assert totals == [2, 0, 1]
    assert len(rep.boundary_values) == 1
    assert rep.verdicts["total"]["max_two"]


def test_braak_census_exact_boundary_goes_down():
    ev = np.array([2.0, 3.5])
    s = Spectrum(ev, None, 2, (8,), None)
    rep = braak_intervals(s, 0.0, 1)
    # the value at the boundary 2 belongs to interval 1, and is flagged
    assert [c.total for c in rep.per_interval] == [0, 1]
    assert len(rep.boundary_values) == 1


def test_braak_census_translation_covariance():
    ev = np.array([0.2, 0.7, 1.4, 2.6, 3.8, 4.9])
    s0 = Spectrum(ev, None, 6, (8,), None)
    s1 = Spectrum(ev - 2.0, None, 6, (8,), None)
    r0 = braak_intervals(s0, 0.0, 3)
    r1 = braak_intervals(s1, 2.0, 3)
    assert [c.total for c in r0.per_interval] == [c.total for c in r1.per_interval]
    assert r1.shift_applied == 2.0


def test_braak_census_requires_coverage():
    spm = parity_split(ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 16), 40, 1e-9)
    with pytest.raises(CoverageError):
        braak_intervals(spm, 0.5, 200)


def test_braak_census_refuses_unconverged_interval():
    # an uncertified eigenvalue inside the requested range blocks the census
    ev = np.array([0.5, 1.5, 2.5, 2.6])
    s = Spectrum(ev, None, 3, (8,), None)
    with pytest.raises(CoverageError):
        braak_intervals(s, 0.0, 2)
    # once the uncertified value clears the range the census proceeds
    ev2 = np.array([0.5, 1.5, 2.5, 4.7])
    s2 = Spectrum(ev2, None, 3, (8,), None)
    rep = braak_intervals(s2, 0.0, 2)
    assert [c.total for c in rep.per_interval] == [1, 1, 1]


def test_braak_census_empty_range_is_vacuous():
    ev = np.array([0.5, 1.5])
    s = Spectrum(ev, None, 2, (8,), None)
    rep = braak_intervals(s, 0.0, -1)
    assert rep.per_interval == []
    assert rep.verdicts["total"]["max_two"]
    d = rep.to_dict()
    assert d["per_interval"] == [] and d["shift_applied"] == 0.0
