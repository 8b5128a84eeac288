"""Spectrum extraction, cutoff convergence, parity-resolved merging,
inertia counting, and the unit-interval census."""

import logging
import logging.handlers
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from rabispec import errors, fock_ops, spectral_analysis
from rabispec.errors import CoverageError, ModelSpecError, ResourceError
from rabispec.fock_ops import (
    BasisDescriptor,
    ModelSpec,
    TruncatedOperator,
    build,
    export_matrix,
    load_matrix,
    parity_matrix,
)
from rabispec.spectral_analysis import (
    BOUNDARY_TOL,
    CENSUS_BLOCK_ROWS,
    Spectrum,
    _dense_count,
    braak_intervals,
    converged_spectrum,
    count_below,
    eigen_spectrum,
    parity_split,
)
from test_fock_ops import (harmonic_matrix, index_of, occupation_layers,
                           state_of)


def _layered_op(basis, a):
    """a on basis with its occupation-layer blocks declared as one sector,
    in build's form, without bounds; count_below then takes the layered
    route in one sweep over every unsplit layer. a joins only states of
    adjacent layers, as every build does: its blocks on the layers are
    diagonal, the sector's diag holds them, and its entries are the
    nonzeros below the diagonal, by row."""
    layers = occupation_layers(basis)
    index = np.concatenate(layers)
    sizes = np.array([i.size for i in layers])
    layer = np.repeat(np.arange(sizes.size), sizes)
    rows, cols = np.nonzero(np.tril(a[np.ix_(index, index)], -1))
    assert np.all(layer[rows] == layer[cols] + 1)
    return TruncatedOperator(basis, a, [fock_ops.Sector(
        index, sizes, a[index, index], a[index[rows], index[cols]], rows,
        cols, 0, np.full(sizes.size, -math.inf), np.zeros(sizes.size))])


def _diag_op(values):
    n = len(values)
    assert n % 2 == 0
    basis = BasisDescriptor(1, (n // 2 - 1,), 2)
    return _layered_op(basis, np.diag(np.asarray(values, dtype=float)))


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


@pytest.mark.parametrize("spec", [ModelSpec.qr(1.03, 0.95, -1.07, -0.03, 60),
                                  ModelSpec.qr(1e-300, 0.5, -0.5, 0.2, 9),
                                  ModelSpec.qrabi(0.8, 0.9, 0.04, 75)],
                         ids=["qr", "qr-decoupled", "qrabi"])
def test_eigen_spectrum_solves_chain_sectors_as_parity_split(spec):
    # at the cap parity_split solves its chains once, at the spec's cutoff
    split = parity_split(spec, 1, 1e-8, cap=spec.cutoffs[0])
    assert split.cutoffs_used == spec.cutoffs
    assert eigen_spectrum(build(spec)).tobytes() \
        == np.sort(split.eigenvalues).tobytes()


SECTOR_SPECS = [
    ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (9, 12)),
    ModelSpec.lam((1.0, 0.9), (0.2, 0.6), 0.05, (10, 10)),
    ModelSpec.vee((-0.7, 1.1), (0.1, 0.4), 0.05, (1, 14)),
    ModelSpec.xi((1.0, 0.8, 0.7), (0.3, 0.5, 0.9), 0.05, (4, 3, 5)),
    ModelSpec.lam((0.9, 0.8, 0.6), (0.1, 0.2, 0.7), 0.05, (4, 4, 4)),
    ModelSpec.vee((0.6, 0.7, 0.8), (0.1, 0.4, 0.6), 0.05, (5, 2, 4)),
]


def _close_to(got, want):
    return np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("spec", SECTOR_SPECS,
                         ids=lambda s: "%s-%d" % (s.family, s.modes))
def test_eigen_spectrum_solves_each_sector(spec, monkeypatch):
    op = build(spec)
    want = scipy.linalg.eigvalsh(op.matrix)
    # one byte short of the dense matrix: the sectors never form it
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES",
                        8 * spec.basis().dim ** 2 - 1)
    got = eigen_spectrum(op)
    assert got.shape == want.shape and np.all(np.diff(got) >= 0)
    assert _close_to(got, want)


@pytest.mark.parametrize("spec,m,tol,cap", [
    (ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (4, 6)), 8, 1e-9, 20),
    (ModelSpec.lam((1.0, 0.9), (0.2, 0.6), 0.05, (5, 5)), 8, 1e-9, 20),
    (ModelSpec.vee((-0.7, 1.1), (0.1, 0.4), 0.05, (1, 6)), 8, 1e-9, 20),
    (ModelSpec.xi((1.0, 0.8, 0.7), (0.3, 0.5, 0.9), 0.05, (2, 3, 2)),
     6, 1e-6, 5),
    (ModelSpec.lam((0.9, 0.8, 0.6), (0.1, 0.2, 0.7), 0.05, (3, 3, 3)),
     6, 1e-6, 5),
    (ModelSpec.vee((0.6, 0.7, 0.8), (0.1, 0.4, 0.6), 0.05, (3, 2, 4)),
     6, 1e-6, 5),
], ids=["xi-2", "lambda-2", "vee-2", "xi-3", "lambda-3", "vee-3"])
def test_multimode_converged_spectrum_matches_dense_growth(spec, m, tol, cap):
    got = converged_spectrum(spec, m, tol, cap=cap)

    def dense(cutoffs):
        op = build(spec.with_cutoffs(cutoffs))
        return np.sort(scipy.linalg.eigvalsh(op.matrix)), None

    want = _eager_converge(spec, m, tol, cap, dense)
    _assert_agrees(got, want, m, tol)
    assert got.partial == want.partial and got.parity is None
    _assert_enclosed(got, m, tol)


# the AB frame's sector route vs its dense eigvalsh: both round the same
# spectrum, a few ulp apart at eigenvalues up to ~500
AB_ROUTE_TOL = 1e-11


@pytest.mark.parametrize("spec,m", [
    (ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 30), 20),
    (ModelSpec.ab_frame(-0.8, 0.5, -0.2, -0.07, 10), 40),
    (ModelSpec.ab_frame(1.1, 1.05, -0.9, 0.1, 30), 480),
], ids=["c03", "negative-alpha", "levels-480"])
def test_ab_converged_spectrum_matches_dense_growth(spec, m):
    got = converged_spectrum(spec, m, 1e-10)

    def dense(cutoffs):
        frame = build(spec.with_cutoffs(cutoffs)).matrix
        return np.sort(scipy.linalg.eigvalsh(frame)), None

    want = _eager_converge(spec, m, 1e-10, None, dense)
    # the stable-prefix values agree with the certified ones, and the
    # frame's dense solve at the returned box with its sectors' solve
    _assert_agrees(got, want, m, 1e-10)
    assert got.converged_count == want.converged_count == m
    assert not got.partial and not want.partial and got.parity is None
    frame, _ = dense(got.cutoffs_used)
    assert frame.shape == got.eigenvalues.shape
    assert np.max(np.abs(got.eigenvalues - frame)) <= AB_ROUTE_TOL
    _assert_enclosed(got, m, 1e-10)


def test_ab_growth_steps_keep_the_dense_refusal_point(monkeypatch):
    # AB at cutoff c has dimension 2 (c + 1): steps 20, 30 fit a dense
    # budget of dimension 62, step 45 (92) does not, though its two
    # sectors (46^2 each) would
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", 8 * 62 ** 2)
    spec = ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 20)
    s = converged_spectrum(spec, 60, 1e-14)
    assert s.partial and s.cutoffs_used == (30,)
    with pytest.raises(ResourceError, match="dense matrix of dimension 92"):
        converged_spectrum(spec.with_cutoffs((45,)), 60, 1e-14)


def test_eigen_spectrum_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        eigen_spectrum(TruncatedOperator(BasisDescriptor(1, (0,), 2), m))


def test_symmetry_check_tiles_report_the_full_asymmetry(monkeypatch):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((22, 22))
    a = a + a.T
    a[19, 2] += 0.25
    a[1, 6] -= 0.5
    d = a - a.T
    want = "max asymmetry %g" % max(d.max(), -d.min())
    for tile in (2048, 5, 3, 1):
        monkeypatch.setattr(spectral_analysis, "SYMMETRY_TILE", tile)
        with pytest.raises(ValueError, match=re.escape(want)):
            eigen_spectrum(_sym_op(a))


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


def test_converged_spectrum_partial_when_growth_exceeds_budget(monkeypatch):
    # Xi at per-mode cutoff c has dimension 3 (c + 1)^2: the growth steps
    # 4, 6, 9 fit a budget of dimension 300 and step 14 (675) does not
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", 8 * 300 ** 2)
    spec = ModelSpec.xi([1.0, 0.8], [0.3, 0.5], 0.05, [4, 4])
    s = converged_spectrum(spec, 60, 1e-14)
    assert s.partial
    assert s.cutoffs_used == (9, 9)
    assert s.converged_count < 60
    ref = eigen_spectrum(build(spec.with_cutoffs((9, 9))))
    assert np.array_equal(s.eigenvalues, ref)
    # an over-budget first step has nothing to fall back on
    with pytest.raises(ResourceError):
        converged_spectrum(spec.with_cutoffs((14, 14)), 60, 1e-14)


def test_converged_spectrum_refuses_dense_step_before_building():
    # dimension 121 203: 109 GiB dense, its sector blocks alone 0.18 GiB
    spec = ModelSpec.xi([1.0, 0.8], [0.3, 0.5], 0.05, [200, 200])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="dense matrix"):
            converged_spectrum(spec, 4, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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


# ------------------------------------------------------- growth driver


def _stable_prefix(prev, cur, m, tol):
    """How many of the first m values of two growth steps agree to tol."""
    mm = min(len(prev), len(cur), m)
    diffs = np.abs(np.asarray(prev[:mm]) - np.asarray(cur[:mm]))
    bad = np.nonzero(diffs >= tol)[0]
    return mm if bad.size == 0 else int(bad[0])


def _eager_converge(spec, m, tol, cap, solve):
    """The stable-prefix driver, kept as the oracle of _converge: it solves
    every step in turn and calls the first m values converged where two
    consecutive steps agree to tol."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if cap is None:
        cap = (spectral_analysis.SINGLE_MODE_CAP if spec.modes == 1
               else spectral_analysis.MULTI_MODE_CAP)
    cur = spec.cutoffs
    prev = None
    stable = 0
    while True:
        try:
            vals, labels = solve(cur)
        except ResourceError:
            if prev is None:
                raise
            return Spectrum(*prev, stable, prev_cur, spec, partial=True)
        if prev is not None:
            stable = _stable_prefix(prev[0], vals, m, tol)
            if stable >= m:
                return Spectrum(vals, labels, m, cur, spec, partial=False)
        if all(c >= cap for c in cur):
            return Spectrum(vals, labels, stable, cur, spec, partial=True)
        prev, prev_cur = (vals, labels), cur
        cur = spectral_analysis._grow(cur, cap)


def _checking_solve(spec, labelled):
    """A solve(cutoffs) that checks each step as it builds it: for every
    family but QR and QRabi the dense check, then build and its sectors'
    values, with parity labels for parity_split. The eager loop on it
    refuses a step only when building it does, independently of the
    driver's planned admit rule."""
    def solve(cutoffs):
        step = spec.with_cutoffs(cutoffs)
        if spec.family not in (fock_ops.QR, fock_ops.QRABI):
            fock_ops.check_dense_budget(step.basis())
        vals, sector = spectral_analysis._solve_sectors(build(step).sectors)
        if not labelled:
            return vals, None
        return vals, list(np.array(["+", "-"], dtype=object)[sector])

    return solve


def _against_eager(monkeypatch, call, spec, m, tol, cap=None):
    """(call(spec, m, tol, cap), _eager_converge on _checking_solve for
    call, the cutoffs each of them solved: the driver's as the steps it
    builds)."""
    asked = {"driver": [], "eager": []}
    real = spectral_analysis.build
    monkeypatch.setattr(spectral_analysis, "build",
                        lambda s: asked["driver"].append(s.cutoffs) or real(s))
    try:
        got = call(spec, m, tol, cap)
    finally:
        monkeypatch.setattr(spectral_analysis, "build", real)
    solve = _checking_solve(spec, call is parity_split)
    want = _eager_converge(spec, m, tol, cap,
                           lambda c: asked["eager"].append(c) or solve(c))
    return got, want, asked


def _assert_agrees(got, want, m, tol):
    """The enclosure driver's result got against the stable-prefix
    oracle's want: the first values that both call converged, at most m,
    agree within tol, and got's values and labels are bitwise those of
    solving the sectors of the box it names."""
    k = min(got.converged_count, want.converged_count, m)
    assert np.all(np.abs(got.eigenvalues[:k] - want.eigenvalues[:k]) <= tol)
    box = got.model.with_cutoffs(got.cutoffs_used)
    vals, sector = spectral_analysis._solve_sectors(build(box).sectors)
    assert got.eigenvalues.tobytes() == vals.tobytes()
    if got.parity is not None:
        assert got.parity == list(np.array(["+", "-"], dtype=object)[sector])


def _assert_same_spectrum(got, want):
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert got.parity == want.parity
    assert got.converged_count == want.converged_count
    assert got.cutoffs_used == want.cutoffs_used
    assert got.partial == want.partial


def _records(caplog):
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("converge ")]


def _record_width(caplog, head):
    """The largest width of the one converge record, which must read head
    followed by that width."""
    record, = _records(caplog)
    assert record.startswith(head), record
    return float(record[len(head):])


def test_driver_builds_no_step_with_fewer_than_m_values(monkeypatch,
                                                        caplog):
    # braak's shape, nmax 200: m = 2 (nmax + 2) = 404 levels from cutoff
    # 16; the steps 16 .. 183 (dimension 34 .. 368) have fewer than m
    # values and are not built, and 275 (552) encloses all 404 (the
    # stable-prefix oracle went on to 413)
    spec = ModelSpec.qr(1.03, 0.95, -1.07, -0.03, 16)
    with caplog.at_level(logging.DEBUG, logger="rabispec.spectral_analysis"):
        got, want, asked = _against_eager(monkeypatch, parity_split, spec,
                                          404, 1e-9)
    _assert_agrees(got, want, 404, 1e-9)
    assert not got.partial and got.converged_count == 404
    assert got.cutoffs_used == (275,) and want.cutoffs_used == (413,)
    assert asked["driver"] == [(275,)]
    assert _record_width(
        caplog, "converge stop=enclosed m=404 "
        "tried=16,24,36,54,81,122,183,275 solved=275:404:") <= 1e-9


def test_driver_cap_exit_solves_only_the_last_step(monkeypatch, caplog):
    # every step 4 .. 20 (dimension 10 .. 42) has fewer than m = 60 values:
    # only the cap step 20 is built, and its 42nd value lies above the
    # floor of layer 20, so it encloses none
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.3, 4)
    with caplog.at_level(logging.DEBUG, logger="rabispec.spectral_analysis"):
        got, want, asked = _against_eager(monkeypatch, parity_split, spec,
                                          60, 1e-3, cap=20)
    _assert_agrees(got, want, 60, 1e-3)
    assert got.partial and got.cutoffs_used == (20,)
    assert got.converged_count == 0
    assert asked["driver"] == [(20,)]
    assert _records(caplog) == [
        "converge stop=cap m=60 tried=4,6,9,14,20 solved=20:0:inf"]


def test_driver_budget_exit_solves_the_latest_admitted_step(monkeypatch,
                                                            caplog):
    # AB steps 10, 15, 23, 35, 53 have dimension 22, 32, 48, 72, 108; a
    # dense budget of dimension 100 refuses 53, so 35 is the last step: it
    # is built though it has fewer than m = 80 values, and 53 never is
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", 8 * 100 ** 2)
    spec = ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 10)
    with caplog.at_level(logging.DEBUG, logger="rabispec.spectral_analysis"):
        got, want, asked = _against_eager(monkeypatch, converged_spectrum,
                                          spec, 80, 1e-3)
    _assert_agrees(got, want, 80, 1e-3)
    assert got.partial and got.cutoffs_used == want.cutoffs_used == (35,)
    assert 0 < got.converged_count < 72
    assert asked["driver"] == [(35,)]
    assert asked["eager"] == [(10,), (15,), (23,), (35,), (53,)]
    assert _record_width(
        caplog, "converge stop=budget m=80 tried=10,15,23,35,53 "
        "solved=35:%d:" % got.converged_count) > 1e-3


@pytest.mark.parametrize("call", [parity_split, converged_spectrum],
                         ids=["parity_split", "converged_spectrum"])
def test_driver_encloses_at_the_step_before_a_refused_one(call, monkeypatch,
                                                          caplog):
    # QR steps from 4: 162 (dimension 326) is the first with m = 300
    # values, but its 300th lies above the floor of layer 162 and it
    # encloses none; the budget of a dense matrix of dimension 100, 10 000
    # words, admits the build of 243 (8 529) and refuses 365 (12 799), so
    # 243 is the last step, and it encloses all 300
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", 8 * 100 ** 2)
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 4)
    with caplog.at_level(logging.DEBUG, logger="rabispec.spectral_analysis"):
        got, want, asked = _against_eager(monkeypatch, call, spec, 300, 1e-8)
    _assert_agrees(got, want, 300, 1e-8)
    assert not got.partial and got.cutoffs_used == (243,)
    assert asked["driver"] == [(162,), (243,)]
    assert asked["eager"][-1] == (365,)
    assert _record_width(
        caplog, "converge stop=enclosed m=300 tried=4,6,9,14,21,32,48,72,"
        "108,162,243 solved=162:0:inf,243:300:") <= 1e-8


def test_driver_refused_first_step_still_raises(monkeypatch, caplog):
    # every step from 60 (dimension 122) on is over a budget of dimension
    # 100: the first step is refused before anything is built
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", 8 * 100 ** 2)
    spec = ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 60)
    built = []
    real = spectral_analysis.build
    monkeypatch.setattr(spectral_analysis, "build",
                        lambda s: built.append(s) or real(s))
    with caplog.at_level(logging.DEBUG, logger="rabispec.spectral_analysis"):
        with pytest.raises(ResourceError,
                           match="dense matrix of dimension 122 ") as got:
            converged_spectrum(spec, 500, 1e-8)
    with pytest.raises(ResourceError) as want:
        _eager_converge(spec, 500, 1e-8, None,
                        _checking_solve(spec, labelled=False))
    assert str(got.value) == str(want.value)
    assert built == []
    assert _records(caplog) == []


BUDGET_SPECS = [ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 4),
                ModelSpec.qrabi(0.7, 1.0, 0.05, 4),
                ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 10),
                ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (4, 4)),
                ModelSpec.vee((-0.7, 1.1), (0.1, 0.4), 0.05, (1, 6))]


@pytest.mark.parametrize("spec", BUDGET_SPECS, ids=lambda s: s.family)
@pytest.mark.parametrize("dim", [100, 300, 1000])
def test_driver_refuses_where_the_eager_loop_does(spec, dim, monkeypatch):
    # the driver's budget checked one step ahead against a solve that
    # refuses as it builds: both refuse the same first step, and where both
    # are partial they end at the same step; the driver builds its steps
    # ascending, each with at least m values or the last one
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", 8 * dim ** 2)
    calls = [converged_spectrum]
    if spec.family in (fock_ops.QR, fock_ops.QRABI):
        calls.append(parity_split)
    for call in calls:
        for m in (80, 300):
            try:
                got, want, asked = _against_eager(monkeypatch, call, spec, m,
                                                  1e-3)
            except ResourceError as exc:
                with pytest.raises(ResourceError, match=re.escape(str(exc))):
                    _eager_converge(spec, m, 1e-3, None,
                                    _checking_solve(spec, False))
                continue
            _assert_agrees(got, want, m, 1e-3)
            if got.partial and want.partial:
                assert got.cutoffs_used == want.cutoffs_used
            steps = asked["driver"]
            assert steps == sorted(steps) and steps[-1] == got.cutoffs_used
            assert all(spec.with_cutoffs(c).basis().dim >= m
                       for c in steps[:-1])


def test_driver_matches_the_eager_loop_on_multimode_steps(monkeypatch):
    # a start above the cap in one mode: the steps grow to (12, 12), the
    # first with m = 400 values and the cap, which both routes return
    spec = ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (30, 1))
    got, want, asked = _against_eager(monkeypatch, converged_spectrum, spec,
                                      400, 1e-6, cap=12)
    _assert_agrees(got, want, 400, 1e-6)
    assert got.partial and got.cutoffs_used == want.cutoffs_used == (12, 12)
    assert asked["driver"] == [(12, 12)]
    # m = 10 values: every step is built, as in multimode_weyl, up to the
    # one that encloses them
    spec = ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (4, 4))
    got, want, asked = _against_eager(monkeypatch, converged_spectrum, spec,
                                      10, 1e-9, cap=20)
    _assert_agrees(got, want, 10, 1e-9)
    assert not got.partial and got.converged_count == 10
    assert asked["driver"] == [(4, 4), (6, 6), (9, 9), (14, 14)]
    _assert_enclosed(got, 10, 1e-9)


# ------------------------------------------------------- enclosures


def _larger_box(box):
    """The eigenvalues of a box with three times box's cutoffs, twice with
    more than one mode."""
    grow = 3 if box.modes == 1 else 2
    return eigen_spectrum(build(box.with_cutoffs([grow * c
                                                  for c in box.cutoffs])))


def _assert_contains(big, lower, upper):
    """lower <= big <= upper, value by value, within a rounding band:
    upper holds a box's first eigenvalues, lower their bounds
    (_lower_bounds), big those of a larger box; -inf bounds hold
    anything."""
    big = big[:lower.size]
    band = 1e-10 * np.maximum(1.0, np.abs(big))
    assert np.all(lower - band <= big), np.max(lower - big)
    assert np.all(big <= upper[:lower.size] + band)


def _assert_enclosed(got, m, tol):
    """Each converged value of got lies within tol of its lower bound at
    the box it names, and the bounds and values of that box contain the
    values of a box three times larger."""
    box = got.model.with_cutoffs(got.cutoffs_used)
    lower = spectral_analysis._lower_bounds(box, build(box).sectors,
                                            got.eigenvalues, m)
    k = got.converged_count
    assert k <= lower.size == min(m, got.eigenvalues.size)
    assert np.all(got.eigenvalues[:k] - lower[:k] <= tol)
    assert k == lower.size or not got.eigenvalues[k] - lower[k] <= tol
    _assert_contains(_larger_box(box), lower, got.eigenvalues)


@pytest.mark.parametrize("spec,m,tol,call", [
    (ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 30), 20, 1e-10, converged_spectrum),
    (ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 30), 20, 1e-10,
     converged_spectrum)]
    + [(ModelSpec.qr(1.0, 1.0, -1.0, eps, 16), 26, 1e-9, parity_split)
       for eps in (0.05, -0.05, 0.02, -0.02)],
    ids=["c03-qr", "c03-ab", "c06-0.05", "c06--0.05", "c06-0.02",
         "c06--0.02"])
def test_gate_spectra_are_enclosed(spec, m, tol, call):
    got = call(spec, m, tol)
    assert not got.partial and got.converged_count == m
    _assert_enclosed(got, m, tol)


def _random_models(seed, per_family):
    """Small boxes of every family, with alpha, eps and the gammas drawn
    so that the enclosures are wide: eps beta2 of either sign and up to
    1.5 in size, and multimode cutoffs that differ by mode."""
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    for _ in range(per_family):
        cut = int(rng.integers(3, 20))
        yield ModelSpec.qr(u(0.3, 2.0), u(0.2, 1.5), -u(0.2, 1.5),
                           u(-0.5, 0.5), cut)
        yield ModelSpec.qrabi(u(0.3, 2.0), u(0.2, 2.0), u(-0.5, 0.5), cut)
        yield ModelSpec.ab_frame(u(-2.0, 2.0), u(0.2, 1.5), -u(0.2, 1.5),
                                 u(-1.0, 1.0), cut)
        n = int(rng.integers(2, 4))
        for ctor in (ModelSpec.xi, ModelSpec.lam, ModelSpec.vee):
            alphas = rng.uniform(0.3, 1.2, n) * rng.choice([-1.0, 1.0], n)
            yield ctor(alphas, np.sort(rng.uniform(0.0, 1.0, n)), 0.05,
                       rng.integers(4, 15 if n == 2 else 7, n))


RANDOM_MODELS = list(_random_models(31, 6))


@pytest.mark.parametrize("spec", RANDOM_MODELS,
                         ids=["%s-%d" % (s.family, i)
                              for i, s in enumerate(RANDOM_MODELS)])
def test_enclosures_contain_a_larger_box(spec):
    # at m = 1, 5, 20 and a quarter of the box's dimension: the bounds at
    # mu = lambda_m hold every value up to m, exact, wide and -inf alike
    sectors = build(spec).sectors
    vals = spectral_analysis._solve_sectors(sectors)[0]
    big = _larger_box(spec)
    for m in (1, 5, 20, vals.size // 4 + 1):
        lower = spectral_analysis._lower_bounds(spec, sectors, vals, m)
        assert lower.size == min(m, vals.size)
        # A' <= A, up to the rounding of the two solves
        band = 1e-12 * np.maximum(1.0, np.abs(vals[:m]))
        assert np.all(lower <= vals[:m] + band)
        _assert_contains(big, lower, vals)


def test_random_enclosures_are_exercised():
    # the sweep above reaches wide bounds, finite and infinite, on every
    # family
    for family in fock_ops.FAMILIES:
        widths = []
        for spec in RANDOM_MODELS:
            if spec.family != family:
                continue
            sectors = build(spec).sectors
            vals = spectral_analysis._solve_sectors(sectors)[0]
            for m in (1, 5, 20, vals.size // 4 + 1):
                lower = spectral_analysis._lower_bounds(spec, sectors, vals,
                                                        m)
                widths.append(np.max(vals[:lower.size] - lower))
        widths = np.array(widths)
        assert np.any((widths > 1e-2) & np.isfinite(widths)), family


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
    # refused before anything is built: an AB frame over the dense budget
    # is still a ValueError, not a ResourceError
    with pytest.raises(ValueError, match="QR-type"):
        parity_split(ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 10 ** 6), 4,
                     1e-8)


# ------------------------------------------------------- equal sectors


def _per_sector(sectors, solve):
    """The route that solves and sweeps every sector, kept as the oracle of
    _once_per_matrix, which solves each distinct matrix once."""
    return [solve(s) for s in sectors]


def _count_tridiagonal(monkeypatch):
    """The number of eigvalsh_tridiagonal calls from now on."""
    calls = []
    real = scipy.linalg.eigvalsh_tridiagonal

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", spy)
    return calls


def _solved_steps(caplog):
    record, = _records(caplog)
    return record.split(" solved=")[1].split()[0].split(",")


EQUAL_CHAIN_SPECS = [ModelSpec.qr(1.03, 0.95, -1.07, 0.0, 16),
                     ModelSpec.qrabi(0.8, 0.9, 0.0, 20)]


@pytest.mark.parametrize("spec", EQUAL_CHAIN_SPECS, ids=["qr", "qrabi"])
@pytest.mark.parametrize("call", [parity_split, converged_spectrum],
                         ids=["parity_split", "converged_spectrum"])
def test_equal_chains_are_solved_once_per_step(spec, call, monkeypatch,
                                               caplog):
    # at eps = 0 the two parity chains are one chain: bitwise what solving
    # both gives, with one tridiagonal solve per solved growth step
    calls = _count_tridiagonal(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="rabispec.spectral_analysis"):
        got = call(spec, 120, 1e-9)
    steps = _solved_steps(caplog)
    # one solve of A and one of A' per solved step
    assert len(steps) >= 1 and len(calls) == 2 * len(steps)
    monkeypatch.setattr(spectral_analysis, "_once_per_matrix", _per_sector)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="rabispec.spectral_analysis"):
        want = call(spec, 120, 1e-9)
    assert _solved_steps(caplog) == steps
    assert len(calls) == 6 * len(steps)
    _assert_same_spectrum(got, want)
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()


@pytest.mark.parametrize("spec", [ModelSpec.qr(1.03, 0.95, -1.07, 0.03, 16),
                                  ModelSpec.qrabi(0.8, 0.9, 0.04, 20)],
                         ids=["qr", "qrabi"])
def test_unequal_chains_are_both_solved(spec, monkeypatch, caplog):
    calls = _count_tridiagonal(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="rabispec.spectral_analysis"):
        got = parity_split(spec, 120, 1e-9)
    # both chains of A and of A' per solved step
    assert len(calls) == 4 * len(_solved_steps(caplog))
    monkeypatch.setattr(spectral_analysis, "_once_per_matrix", _per_sector)
    _assert_same_spectrum(got, parity_split(spec, 120, 1e-9))


@pytest.mark.parametrize("spec", [
    ModelSpec.qr(1.03, 0.95, -1.07, 0.0, 400),
    ModelSpec.qrabi(0.8, 0.9, 0.0, 300),
    ModelSpec.qr(1.03, 0.95, -1.07, 0.03, 400),
    ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.0, (9, 12)),
], ids=["qr", "qrabi", "qr-eps", "xi-eps0"])
def test_equal_sectors_count_once_with_the_same_record(spec, monkeypatch,
                                                       caplog):
    op = build(spec)
    ev = eigen_spectrum(op)
    lams = [-5.0, float(ev[7]), 0.5 * float(ev[40] + ev[41]), 50.0]
    sweeps = []
    for oracle in (False, True):
        if oracle:
            monkeypatch.setattr(spectral_analysis, "_once_per_matrix",
                                _per_sector)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger=spectral_analysis.__name__):
            counts = [count_below(op, lam) for lam in lams]
        sweeps.append((counts, [r.getMessage()
                                for r in _count_records(caplog)]))
    assert sweeps[0] == sweeps[1]
    assert sweeps[0][0] == [int(np.searchsorted(ev, lam, side="right"))
                            for lam in lams]


def _chain_op(diag, lows):
    """An operator of one chain sector per low buffer, all on diag."""
    n = diag.size
    basis = BasisDescriptor(1, (n * len(lows) // 2 - 1,), 2)
    return TruncatedOperator(basis, None, [
        _chain_sector(diag, low)._replace(index=np.arange(k * n, (k + 1) * n))
        for k, low in enumerate(lows)])


@pytest.mark.parametrize("where", [0, 17, 39])
def test_sectors_differing_in_one_entry_are_both_solved(where, monkeypatch):
    # sizes and diag equal, low apart in one entry: not one matrix
    rng = np.random.default_rng(where)
    diag = rng.normal(size=40)
    low = rng.normal(size=39)
    other = low.copy()
    other[min(where, 38)] += 1.5
    for lows in ([low, other], [low, low.copy(), other]):
        op = _chain_op(diag, lows)
        got = eigen_spectrum(op)
        counts = [count_below(op, lam) for lam in (-1.0, 0.0, 0.7)]
        monkeypatch.setattr(spectral_analysis, "_once_per_matrix",
                            _per_sector)
        assert got.tobytes() == eigen_spectrum(op).tobytes()
        assert counts == [count_below(op, lam) for lam in (-1.0, 0.0, 0.7)]
        monkeypatch.undo()
    # a diag apart in one entry, or a sector of other sizes, neither
    diag2 = diag.copy()
    diag2[where] = np.nextafter(diag2[where], np.inf)
    a = _chain_op(diag, [low]).sectors[0]
    b = _chain_op(diag2, [low]).sectors[0]
    parts = spectral_analysis._sector_parts
    assert not all(map(spectral_analysis._same_bits, parts(a), parts(b)))
    c = a._replace(sizes=np.r_[a.sizes[:-2], 2])
    assert not all(map(spectral_analysis._same_bits, parts(a), parts(c)))


def test_sectors_apart_past_the_first_layer_are_both_solved():
    # the cheap comparisons (sizes, first layer's diagonal) pass, so only the
    # whole buffers tell these sectors apart; equal ones are solved once
    rng = np.random.default_rng(3)
    diag, low = rng.normal(size=40), rng.normal(size=39)
    chain = _chain_op(diag, [low]).sectors[0]._replace(floor=np.zeros(40))
    xi = build(ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.0, (6, 7))).sectors[0]
    for a in (chain, xi):
        last = a.diag.copy()
        last[-1] = np.nextafter(last[-1], np.inf)
        floor = a.floor.copy()
        floor[-1] += 1.0
        twin = a._replace(diag=a.diag.copy(), low=a.low.copy(),
                          rows=a.rows.copy(), cols=a.cols.copy())
        for b, solves in ((a._replace(diag=last), 2),
                          (a._replace(floor=floor), 2), (twin, 1)):
            calls = []
            got = spectral_analysis._once_per_matrix(
                [a, b], lambda s: calls.append(s) or len(calls))
            assert len(calls) == solves and got == [1, solves]


def test_same_bits_is_exact():
    same = spectral_analysis._same_bits
    assert same(np.zeros(3), np.zeros(3))
    assert not same(np.zeros(1), np.array([-0.0]))
    assert not same(np.zeros(4), np.zeros((2, 2)))
    assert not same(np.zeros(4), np.zeros(4, dtype=np.int64))
    nan = np.array([np.nan])
    assert same(nan, nan.copy())
    assert same(np.empty(0), np.empty(0))


# ------------------------------------------------------- inertia counts


def test_count_below_diagonal_cases():
    op = _diag_op([1.0, 2.0, 3.0, 4.0])
    assert count_below(op, 0.5) == 0
    assert count_below(op, 2.0) == 2  # threshold tie is counted
    assert count_below(op, 100.0) == 4
    with pytest.raises(ValueError):
        count_below(op, np.inf)
    # 2 + tie, tie = 4 * macheps * max|diag - 2|, sits exactly on the
    # shifted threshold: the exactly zero pivot in the first layer must be
    # merged onward, not divided by, and the value is counted as a tie
    op = _diag_op([2.0 + 8 * np.finfo(float).eps, 1.0, 3.0, 4.0])
    assert count_below(op, 2.0) == 2 == _dense_count(op.matrix, 2.0)


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


# ------------------------------------------------------- layered counts

LAYERED_SPECS = [
    ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 150),
    ModelSpec.qrabi(0.8, 0.9, 0.04, 150),
    ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (20, 20)),
    ModelSpec.lam((1.0, 0.9), (0.2, 0.6), 0.05, (16, 16)),
    ModelSpec.vee((0.7, 1.1), (0.1, 0.4), 0.05, (16, 16)),
    ModelSpec.xi((1.0, 0.8, 0.7), (0.3, 0.5, 0.9), 0.05, (5, 5, 5)),
    ModelSpec.lam((0.9, 0.8, 0.6), (0.1, 0.2, 0.7), 0.05, (5, 5, 5)),
    ModelSpec.vee((0.6, 0.7, 0.8), (0.1, 0.4, 0.6), 0.05, (5, 5, 5)),
]


def _count_records(caplog):
    return [r for r in caplog.records if r.name == spectral_analysis.__name__]


def _spy_sweeps(monkeypatch, sectors):
    """The (sector, layers swept) of every layered or chain sweep of one of
    sectors from now on."""
    swept = []
    layered = spectral_analysis._layered_inertia
    chain = spectral_analysis._chain_inertia

    def spy_layered(sector, mu, growth):
        out = layered(sector, mu, growth)
        swept.append((sector, out[4]))
        return out

    def spy_chain(sector, mu):
        out = chain(sector, mu)
        swept.append((sector, out[4]))
        return out

    monkeypatch.setattr(spectral_analysis, "_layered_inertia", spy_layered)
    monkeypatch.setattr(spectral_analysis, "_chain_inertia", spy_chain)
    return swept


_RECORD = (r"count_below route=layered dim=%d sectors=%d merges=(\d+) "
           r"ties=\d+ max_block=(\d+) depth=(\d+) closed=(\d+)")


@pytest.mark.parametrize("spec", LAYERED_SPECS,
                         ids=lambda s: "%s-%d" % (s.family, s.modes))
def test_layered_count_matches_dense_and_eigvalsh(spec, caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger=spectral_analysis.__name__)
    op = build(spec)
    swept = _spy_sweeps(monkeypatch, op.sectors)
    ev = scipy.linalg.eigvalsh(op.matrix)
    # midpoints between low eigenvalues, and integer and half-integer
    # thresholds: there a state with no lower-layer neighbour (level 0,
    # n = (0, lam - 1) on two-mode Xi) leaves an exactly singular block
    lams = list(0.5 * (ev[:60:10] + ev[1:61:10])) + [1.0, 2.5, 4.0, 5.5,
                                                     7.0, 8.5, 10.0]
    unsplit = _layered_op(spec.basis(), op.matrix)
    merged = outgrown = 0
    for lam in lams:
        assert np.min(np.abs(ev - lam)) > 1e-8  # the oracle is unambiguous
        caplog.clear()
        swept.clear()
        got = count_below(op, lam)
        recs = _count_records(caplog)
        assert len(recs) == 1 and recs[0].levelno == logging.DEBUG
        found = re.fullmatch(_RECORD % (ev.size, len(op.sectors)),
                             recs[0].getMessage())
        assert found
        merges, max_block, depth, closed = map(int, found.groups())
        merged += merges
        assert len(swept) == len(op.sectors)
        assert depth == max(s.first + n - 1 for s, n in swept)
        assert closed == sum(n < s.sizes.size for s, n in swept)
        # without merges every pending block is one swept layer's Schur
        # block
        largest_swept = max(s.sizes[:n].max() for s, n in swept)
        assert max_block >= largest_swept
        if merges == 0:
            assert max_block == largest_swept
        outgrown += max_block > largest_swept
        # oracle: one sweep over the unsplit layers of the dense matrix
        assert got == count_below(unsplit, lam)
        assert got == _dense_count(op.matrix, lam)
        assert got == int(np.count_nonzero(ev <= lam))
    if spec.modes > 1:
        assert merged > 0
    if (spec.family, spec.modes) == ("Xi", 3):
        # merged eigendirections grow a block past the largest layer
        assert outgrown > 0


BOUND_SPECS = [
    ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (24, 24)),
    ModelSpec.lam((1.0, 0.9), (0.2, 0.6), 0.05, (24, 24)),
    ModelSpec.vee((0.7, 1.1), (-0.1, 0.4), 0.05, (24, 24)),
    ModelSpec.xi((1.0, 0.8, 0.7), (0.3, 0.5, 0.9), 0.05, (8, 8, 8)),
    ModelSpec.lam((0.9, 0.8, 0.6), (0.1, 0.2, 0.7), 0.05, (8, 8, 8)),
    ModelSpec.vee((0.6, 0.7, 0.8), (-0.2, 0.4, 0.6), 0.05, (8, 8, 8)),
]


@pytest.mark.parametrize("spec", BOUND_SPECS,
                         ids=lambda s: "%s-%d" % (s.family, s.modes))
def test_layer_bounds_hold_on_the_box(spec):
    # each sector's floor[L] is a lower bound of the dense matrix on the
    # box states above layer L (its smallest eigenvalue there, sector by
    # sector), and coupling[L] bounds the squared norm of the whole box's
    # block from layer L to L + 1
    op = build(spec)
    h = op.matrix
    layers = occupation_layers(spec.basis())
    for L in (0, 4, 8, 12):
        for s in op.sectors:
            if L < s.first:
                continue
            above = s.index[s.sizes[:L - s.first + 1].sum():]
            low = scipy.linalg.eigvalsh(h[np.ix_(above, above)],
                                        subset_by_index=[0, 0])[0]
            assert np.isfinite(s.floor[L - s.first])
            assert low >= s.floor[L - s.first] - 1e-9  # rounding
        # s (L + 1) / 2, rounded up by a few units of roundoff
        coupling = op.sectors[0].coupling[L]
        exact = 0.5 * sum(a * a for a in spec.alphas) * (L + 1)
        assert exact <= coupling <= exact * (1 + 1e-14)
        norm = np.linalg.norm(h[np.ix_(layers[L + 1], layers[L])], 2)
        assert norm <= np.sqrt(coupling) * (1 + 1e-12)
        if L == 0 and (spec.modes == 2 or spec.family != "Xi"):
            # one level meets every coupling: the bound is attained
            assert norm == pytest.approx(np.sqrt(coupling), rel=1e-12)


def _thresholds(ev, cutoffs):
    """The midpoint of every third pair of consecutive eigenvalues below
    12, and thresholds past min(cutoffs) / 2, where the count is flagged
    and the top ones reach the last layers of the box, those more than
    1e-8 from every eigenvalue."""
    below = ev[ev < 12.0]
    lams = np.concatenate((
        0.5 * (below[:-1:3] + below[1::3]),
        np.linspace(0.5 * min(cutoffs), 0.9 * sum(cutoffs), 7)[1:]))
    return [lam for lam in lams if np.min(np.abs(ev - lam)) > 1e-8]


@pytest.mark.parametrize("spec", LAYERED_SPECS[2:5],
                         ids=lambda s: "%s-%d" % (s.family, s.modes))
def test_early_exit_counts_match_the_full_sweep(spec, caplog):
    caplog.set_level(logging.DEBUG, logger=spectral_analysis.__name__)
    op = build(spec)
    # the same sectors with floors that never close sweep every layer
    full = TruncatedOperator(op.basis, None, [
        s._replace(floor=np.full(s.sizes.size, -np.inf)) for s in op.sectors])
    ev = scipy.linalg.eigvalsh(op.matrix)
    last = sum(spec.cutoffs)
    depths = []
    for lam in _thresholds(ev, spec.cutoffs):
        caplog.clear()
        got = count_below(op, lam)
        depths.append(int(re.fullmatch(_RECORD % (ev.size, len(op.sectors)),
                                       _count_records(caplog)[0].getMessage())
                          .group(3)))
        assert got == count_below(full, lam)
        assert got == int(np.count_nonzero(ev <= lam))
    # low thresholds close well before the last layer, the top ones do not
    assert min(depths) <= last // 2
    assert max(depths) == last


def test_layered_count_through_singular_schur_block():
    spec = ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (20, 20))
    op = build(spec)
    basis = spec.basis()
    # (level 0, n = (0, 9)) sits on the diagonal at 10 and couples only to
    # layer 10, so the Schur block of layer 9 at lam = 10 is singular
    i = index_of(basis, 0, (0, 9))
    row = op.matrix[i]
    assert row[i] == 10.0
    assert all(sum(state_of(basis, int(j))[1]) == 10
               for j in np.nonzero(row)[0] if j != i)
    ev = scipy.linalg.eigvalsh(op.matrix)
    assert count_below(op, 10.0) == _dense_count(op.matrix, 10.0) \
        == int(np.count_nonzero(ev <= 10.0))


def test_layered_count_includes_exact_ties():
    # at eps 0 and alpha 1 the QR levels are exactly the integers n, twice
    # each, so every integer threshold is a double eigenvalue
    op = build(ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 300))
    assert op.sectors is not None
    for n in (0, 1, 37, 100):
        assert count_below(op, float(n)) == _dense_count(op.matrix, float(n)) \
            == 2 * (n + 1)


@pytest.mark.parametrize("spec", [ModelSpec.qr(1.03, 0.95, -1.07, -0.03, 40),
                                  ModelSpec.qrabi(0.8, 0.9, 0.04, 40)],
                         ids=["qr", "qrabi"])
def test_chain_counts_match_parity_labelled_spectrum(spec):
    # inertia against eigensolve, parity by parity: the Sturm count of each
    # chain of build at the converged cutoff against the parity_split
    # eigenvalues with its label
    split = parity_split(spec, 30, 1e-10)
    assert not split.partial
    op = build(spec.with_cutoffs(split.cutoffs_used))
    ev = np.asarray(split.eigenvalues)
    labels = np.asarray(split.parity)
    for lam in 0.5 * (ev[:29] + ev[1:30]):
        for sector, label in zip(op.sectors, ("+", "-")):
            count = spectral_analysis._chain_inertia(sector, lam)[0]
            assert count == np.count_nonzero((ev <= lam) & (labels == label))


@st.composite
def _chains(draw):
    # small integers give exact zeros on both diagonals, and exactly zero
    # pivots at integer thresholds
    n = draw(st.integers(1, 12))
    entry = draw(st.sampled_from([st.integers(-2, 2).map(float),
                                  st.floats(-3, 3)]))
    return (draw(st.lists(entry, min_size=n, max_size=n)),
            draw(st.lists(entry, min_size=n - 1, max_size=n - 1)))


@settings(max_examples=150, deadline=None)
@given(_chains(), st.integers(-4, 4), st.sampled_from([0.0, 0.5, 1e-7]))
@example(([0.0, 0.0], [1.0]), 0, 0.0)  # the first pivot is exactly zero
def test_chain_inertia_counts_random_tridiagonals(chain, lam, frac):
    diag, off = np.array(chain[0]), np.array(chain[1])
    mu = lam + frac
    ev = scipy.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                               + np.diag(off, -1))
    assume(np.min(np.abs(ev - mu)) > 1e-8)
    count, merges, pivots, max_block, rows = spectral_analysis._chain_inertia(
        _chain_sector(diag, off), mu)
    assert count == int(np.count_nonzero(ev <= mu))
    assert (merges, pivots.size, max_block, rows) == (0, diag.size, 1,
                                                      diag.size)


EPS = np.finfo(float).eps
CHAIN_BOUND_SPECS = [
    ModelSpec.qr(0.5, 1.0, -1.0, 0.05, 40),
    ModelSpec.qr(1.03, 0.95, -1.07, -0.08, 40),
    ModelSpec.qr(2.3, 0.4, -1.2, -0.1, 40),
    ModelSpec.qrabi(0.8, 0.9, -0.04, 40),
    ModelSpec.qrabi(1.7, 0.3, 0.1, 40),
    ModelSpec.qrabi(0.4, 2.0, -0.1, 40),
]


@pytest.mark.parametrize("spec", CHAIN_BOUND_SPECS,
                         ids=lambda s: "%s-%g-%g" % (s.family, s.alphas[0],
                                                     s.eps))
def test_chain_bounds_hold_on_a_deeper_chain(spec):
    # floor[L] is at most the smallest eigenvalue of the rows above L, taken
    # from a chain four times deeper than the build it belongs to, and
    # coupling[L] bounds the squared entry from row L to row L + 1: on a
    # chain it is that entry, alpha^2 (L + 1) / 2, rounded up so that the
    # rounded entry's square stays below it
    op = build(spec)
    deep = build(spec.with_cutoffs((4 * spec.cutoffs[0] + 3,)))
    finite = 0
    for s, d in zip(op.sectors, deep.sectors):
        assert s.first == 0
        for L in range(s.sizes.size):
            if np.isfinite(s.floor[L]):
                finite += 1
                low = scipy.linalg.eigvalsh_tridiagonal(
                    d.diag[L + 1:], d.low[L + 1:], select="i",
                    select_range=(0, 0))[0]
                assert s.floor[L] <= low
            if L < s.low.size:
                assert s.coupling[L] >= s.low[L] ** 2
    assert finite > 0


CHAIN_COUNT_SPECS = [
    ModelSpec.qr(1.03, 0.95, -1.07, 0.03, 2000),
    ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 2000),
    ModelSpec.qr(2.5, 0.8, -1.1, -0.06, 2000),
    ModelSpec.qrabi(0.8, 0.9, 0.04, 2000),
]


@pytest.mark.parametrize("spec", CHAIN_COUNT_SPECS,
                         ids=["qr", "qr-eps0", "qr-alpha2.5", "qrabi"])
def test_chain_counts_stop_early_with_the_full_sweeps_count(spec, caplog):
    # count_below on the chains closes at the first row whose bracket
    # closes, and counts what the sweep over every row counts: at random
    # thresholds, at eigenvalues and inside the tie band above and below
    # them (at eps 0 and alpha 1 every integer is a double eigenvalue)
    caplog.set_level(logging.DEBUG, logger=spectral_analysis.__name__)
    op = build(spec)
    full = TruncatedOperator(op.basis, None, [
        s._replace(floor=np.full(s.sizes.size, -np.inf)) for s in op.sectors])
    ev = eigen_spectrum(op)
    rng = np.random.default_rng(7)
    picks = ev[rng.integers(0, ev.size // 2, 12)]
    lams = np.concatenate((rng.uniform(-5.0, 2100.0, 25), picks,
                           picks - 1e-10, picks + 1e-10,
                           np.nextafter(picks, -np.inf), [7.0, 300.0]))
    depths = []
    for lam in lams.tolist():
        caplog.clear()
        got = count_below(op, lam)
        found = re.fullmatch(_RECORD % (ev.size, 2),
                             _count_records(caplog)[0].getMessage())
        depths.append(int(found.group(3)))
        assert int(found.group(4)) == 2 * (depths[-1] < spec.cutoffs[0])
        assert got == count_below(full, lam), lam
    # thresholds low in the chain close long before its last row
    assert min(depths) < 50 and max(depths) == spec.cutoffs[0]


def test_closing_test_reads_its_own_rows_pivot_and_coupling():
    # a chain of three rows with valid bounds: floor[0] = 0.4 is below the
    # smallest eigenvalue 0.43 of rows 1..2, floor[1] = 1 is row 2, and
    # coupling[k] >= low[k]^2. At mu = 0 the pivots are 1, 0.01 and -3: the
    # bracket at row 1 is open (0 < 0.01 <= coupling[1] / floor[1]), and
    # the eigenvalue below 0 shows only at row 2. A test that dropped the
    # coupling term, or read row 0's pivot 1 at row 1, would close there
    # with the count 0
    diag, low = np.array([1.0, 0.5, 1.0]), np.array([0.7, 0.2])
    floor, coupling = np.array([0.4, 1.0, np.inf]), np.array([0.49, 0.05, 0])
    h = np.diag(diag) + np.diag(low, 1) + np.diag(low, -1)
    assert scipy.linalg.eigvalsh(h[1:, 1:])[0] >= floor[0]
    assert np.all(coupling[:2] >= low ** 2)
    sector = _chain_sector(diag, low, floor, coupling)
    t = np.array([-0.5, 0.0, 0.7, 2.0])
    want = [int(np.count_nonzero(scipy.linalg.eigvalsh(h) <= x)) for x in t]
    assert want[1] == 1
    got = [spectral_analysis._chain_inertia(sector, x) for x in t.tolist()]
    assert [g[0] for g in got] == want
    assert got[1][4] == 3
    count, closed = spectral_analysis._census_sweep(sector, t)
    assert count.tolist() == want
    assert closed[1] == 2


def _census_sweep_by_rows(sector, t):
    """The census sweep one chain row per step, kept as the oracle of
    spectral_analysis._census_sweep, which sweeps a block of rows per step
    and must give its (count, closed) bitwise."""
    q = np.ones_like(t)
    count = np.zeros(t.size, np.intp)
    closed = np.full(t.size, -1)
    diag, low, floor, coupling = (sector.diag, sector.low, sector.floor,
                                  sector.coupling)
    tiny = -float(np.finfo(float).tiny)
    shifted, update = np.empty_like(t), np.empty_like(t)
    nonpositive = np.empty(t.size, bool)
    # every threshold below lo is closed
    lo, k = 0, 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while k < len(diag) and lo < t.size:
            tl, ql, nl = t[lo:], q[lo:], nonpositive[lo:]
            # q = (d - t) - e (e / q), in place
            e = low[k - 1] if k else 0.0
            np.subtract(diag[k], tl, out=shifted[lo:])
            np.divide(e, ql, out=update[lo:])
            np.multiply(update[lo:], e, out=update[lo:])
            np.subtract(shifted[lo:], update[lo:], out=ql)
            np.less_equal(ql, 0.0, out=nl)
            np.add(count[lo:], nl, out=count[lo:], where=closed[lo:] < 0)
            if not ql.all():
                ql[ql == 0.0] = tiny
            # the open thresholds below floor[k] whose pivot lies outside
            # (0, coupling[k] / (floor[k] - t)] close at row k
            n = int(tl.searchsorted(floor[k]))
            if n:
                shut = (closed[lo:lo + n] < 0) & (
                    nl[:n] | (ql[:n] > coupling[k] / (floor[k] - tl[:n])))
                closed[lo:lo + n][shut] = k
                while lo < t.size and closed[lo] >= 0:
                    lo += 1
            k += 1
    return count, closed


def _chain_sector(diag, low, floor=None, coupling=None):
    """The chain sector (diag, low) with the bounds floor and coupling;
    without them its sweeps never close."""
    n = len(diag)
    if floor is None:
        floor, coupling = np.full(n, -math.inf), np.zeros(n)
    return fock_ops.Sector(np.arange(n), np.ones(n, int),
                           *(np.array(a, float) for a in (diag, low)),
                           np.arange(1, n), np.arange(n - 1), 0,
                           *(np.array(a, float) for a in (floor, coupling)))


def _sweeps_agree(sector, t):
    got = spectral_analysis._census_sweep(sector, t)
    want = _census_sweep_by_rows(sector, t)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    return got


@st.composite
def _census_chains(draw):
    # up to four blocks of rows, the last one short; small integers give
    # exactly zero pivots at integer thresholds, anywhere in a block
    n = draw(st.integers(1, 4 * CENSUS_BLOCK_ROWS + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        diag, low = (rng.integers(-3, 4, m).astype(float) for m in (n, n - 1))
    else:
        diag, low = (rng.uniform(-3, 3, m) for m in (n, n - 1))
    # floors in any order, a share of the rows at -inf (never closing),
    # some at +inf (closing every threshold still open)
    floor = rng.uniform(-4, 4, n)
    floor[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))] \
        = -math.inf
    floor[rng.random(n) < 0.02] = math.inf
    coupling = rng.uniform(0, 10, n)
    # integer, half-integer and random thresholds, and the eigenvalues of a
    # leading submatrix, at which a pivot is zero in exact arithmetic
    lead = draw(st.integers(1, n))
    t = np.concatenate((
        rng.integers(-8, 9, rng.integers(0, 20)) / 2.0,
        rng.uniform(-4, 4, rng.integers(0, 20)),
        scipy.linalg.eigvalsh(np.diag(diag[:lead]) + np.diag(low[:lead - 1], 1)
                              + np.diag(low[:lead - 1], -1))))
    return _chain_sector(diag, low, floor, coupling), np.sort(t)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_census_chains())
def test_census_sweep_is_bitwise_the_row_by_row_sweep(case):
    _sweeps_agree(*case)


def test_census_sweep_redoes_a_block_with_a_zero_pivot():
    # rows 39..41 alone are coupled, all ones: at t = 0 row 40's pivot is
    # 1 - 1 (1 / 1) = 0, in the middle of the second block. Replaced by
    # -tiny it makes row 41's pivot huge and positive, so the count is 1,
    # that of the eigenvalue 1 - sqrt 2; left at zero, row 41 would read
    # 1 - 1 / 0 = -inf and count a second
    n = 2 * CENSUS_BLOCK_ROWS + 7
    low = np.zeros(n - 1)
    low[39:41] = 1.0
    diag = np.ones(n)
    h = np.diag(diag) + np.diag(low, 1) + np.diag(low, -1)
    t = np.array([-1.0, 0.0, 0.5, 1.0, 2.5])
    count, closed = _sweeps_agree(
        _chain_sector(diag, low, np.full(n, -math.inf), np.zeros(n)), t)
    ev = scipy.linalg.eigvalsh(h)
    assert count.tolist() == [int(np.count_nonzero(ev <= x)) for x in t]
    assert count[1] == 1 and (closed == -1).all()


@pytest.mark.parametrize("row", [0, CENSUS_BLOCK_ROWS - 1, CENSUS_BLOCK_ROWS,
                                 2 * CENSUS_BLOCK_ROWS - 1,
                                 2 * CENSUS_BLOCK_ROWS,
                                 3 * CENSUS_BLOCK_ROWS + 4])
def test_census_sweep_closes_on_a_blocks_first_and_last_rows(row):
    # a QR chain whose only row with a floor above the thresholds is row:
    # its bound coupling / inf is 0, so every threshold closes there, with
    # the count of the rows up to it
    chain = build(ModelSpec.qr(1.0, 1.0, -1.0, 0.02,
                               3 * CENSUS_BLOCK_ROWS + 4)).sectors[0]
    floor = np.full(chain.diag.size, -math.inf)
    floor[row] = math.inf
    t = np.arange(-0.5, 40.0, 0.25)
    count, closed = _sweeps_agree(
        _chain_sector(chain.diag, chain.low, floor, chain.coupling), t)
    assert (closed == row).all()
    head = chain.diag[:row + 1], chain.low[:row]
    assert count.tolist() == [
        spectral_analysis._chain_inertia(_chain_sector(*head), x)[0]
        for x in t.tolist()]


_BANDED_BASES = [BasisDescriptor(1, (5,), 2), BasisDescriptor(1, (3,), 3),
                 BasisDescriptor(2, (2, 3), 3), BasisDescriptor(3, (1, 2, 1), 2)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(_BANDED_BASES),
       st.booleans(), st.integers(-6, 6))
def test_layered_count_on_random_banded_matrices(seed, basis, small_ints, lam):
    rng = np.random.default_rng(seed)
    n = basis.dim
    if small_ints:
        # exact zeros and exactly singular Schur blocks are common here
        a = rng.integers(-2, 3, (n, n)).astype(float)
    else:
        a = rng.standard_normal((n, n))
    a = a + a.T
    occ = np.empty(n, dtype=int)
    for k, idx in enumerate(occupation_layers(basis)):
        occ[idx] = k
    # only adjacent layers are joined, and no two states of one layer, as
    # in every build
    apart = np.abs(occ[:, None] - occ[None, :])
    a[(apart > 1) | (apart == 0) & ~np.eye(n, dtype=bool)] = 0.0
    ev = np.linalg.eigvalsh(a)
    assume(np.min(np.abs(ev - lam)) > 1e-8)
    want = int(np.count_nonzero(ev <= lam))
    assert count_below(_layered_op(basis, a), lam) == want
    assert count_below(TruncatedOperator(basis, a), lam) == want
    assert _dense_count(a, lam) == want


def test_count_below_dense_route_without_layer_structure(caplog, tmp_path):
    caplog.set_level(logging.DEBUG, logger=spectral_analysis.__name__)
    rng = np.random.default_rng(2025)
    a = rng.standard_normal((30, 30))
    c10 = TruncatedOperator(BasisDescriptor(1, (14,), 2), 0.5 * (a + a.T))
    # a loaded matrix declares no layers even where build would have
    path = tmp_path / "qr.bin"
    export_matrix(build(ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 20)), path)
    for op in (c10, load_matrix(path)):
        assert op.sectors is None
        caplog.clear()
        got = count_below(op, 0.5)
        recs = _count_records(caplog)
        assert len(recs) == 1
        assert recs[0].getMessage().startswith("count_below route=dense ")
        assert got == _dense_count(op.matrix, 0.5)


@pytest.mark.parametrize("entries", [{(0, 1): np.nan, (1, 0): 5.0},
                                     {(2, 2): np.inf}],
                         ids=["nan-and-5", "inf-on-diagonal"])
def test_stored_matrix_with_nonfinite_entries_is_refused(entries, tmp_path):
    # a NaN passed the symmetry gate, and count_below(op, 0.5) gave 0; an
    # infinity made the tie band infinite, and the count 4, where it is 0
    m = np.eye(4)
    for at, value in entries.items():
        m[at] = value
    basis = BasisDescriptor(1, (1,), 2)
    path = tmp_path / "m.bin"
    export_matrix(TruncatedOperator(basis, m), path)
    for op in (TruncatedOperator(basis, m), load_matrix(path)):
        with pytest.raises(ValueError, match="non-finite entries"):
            count_below(op, 0.5)
        with pytest.raises(ValueError, match="non-finite entries"):
            eigen_spectrum(op)


def _count_below_records(op, lam):
    """(count_below(op, lam), the messages it logged)."""
    records = logging.handlers.BufferingHandler(10)
    logger = logging.getLogger(spectral_analysis.__name__)
    level = logger.level
    logger.addHandler(records)
    logger.setLevel(logging.DEBUG)
    try:
        got = count_below(op, lam)
    finally:
        logger.removeHandler(records)
        logger.setLevel(level)
    return got, [r.getMessage() for r in records.buffer]


def _frame_tie(op, lam):
    """The tie band of an AB build's whole frame at lam."""
    m = op.matrix - lam * np.eye(op.basis.dim)
    return op.basis.dim * np.finfo(float).eps * max(1.0, np.abs(m).max())


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 2.0), st.booleans(),
       st.sampled_from([0.0, 1e-6, -1e-6, 0.03, -0.03, 0.2]),
       st.sampled_from([(1.0, -1.0), (0.5, -0.2), (1.2, 1.1)]),
       st.integers(1, 60), st.floats(-2.0, 64.0))
def test_ab_sector_count_is_the_frames_dense_count(alpha, negative, eps,
                                                   gammas, cut, lam):
    # the sum of the two sectors' sytrf counts is the count of the whole
    # frame, the dense oracle, at every threshold farther than the frame's
    # tie band from its eigenvalues, and each call logs one record
    op = build(ModelSpec.ab_frame(-alpha if negative else alpha, *gammas,
                                  eps, cut))
    frame = op.matrix
    assume(np.min(np.abs(np.linalg.eigvalsh(frame) - lam))
           > _frame_tie(op, lam))
    got, records = _count_below_records(op, lam)
    assert got == _dense_count(frame, lam)
    assert len(records) == 1
    assert re.fullmatch(r"count_below route=dense dim=%d merges=0 ties=\d+"
                        % frame.shape[0], records[0])


def test_ab_count_takes_the_frame_tie_band_and_both_sectors():
    # at eps = 0 both sectors are diag(n + 1/2), so the pivots of
    # H_s - lam I are n + 1/2 - lam. 0.75 of the frame's band below level
    # 3.5, both copies of it are counted; a band of a sector's dimension,
    # half the frame's, would miss them, and 1.5 bands below, neither is
    op = build(ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.0, 20))
    for below, want, ties in ((0.75, 8, 2), (1.5, 6, 0)):
        lam = 3.5 - below * _frame_tie(op, 3.5)
        got, records = _count_below_records(op, lam)
        assert got == want == _dense_count(op.matrix, lam)
        assert records == ["count_below route=dense dim=42 merges=0 ties=%d"
                           % ties]


def test_count_below_rejects_asymmetric_banded_matrix():
    spec = ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (6, 6))
    h = build(spec).matrix.copy()
    i, j = np.argwhere(np.triu(h, 1))[0]
    h[i, j] += 1e-3
    with pytest.raises(ValueError, match="not symmetric"):
        count_below(TruncatedOperator(spec.basis(), h), 3.0)


# ------------------------------------------------------- interval census


def _assign_interval(v):
    """The interval of one shifted value by the boundary rule, and whether
    it is flagged: the per-value loop kept as the oracle of the array
    assignment in braak_intervals."""
    b = round(v)
    if abs(v - b) <= BOUNDARY_TOL:
        return int(b) - 1, True
    return int(math.floor(v)), False


def _census_loop(spectrum, shift, Nmax):
    """(totals, plus, minus, boundary values) of braak_intervals by the
    per-value loop."""
    shifted = np.asarray(spectrum.eigenvalues, dtype=float) + shift
    totals, plus, minus = ([0] * (Nmax + 1) for _ in range(3))
    boundary = []
    for i in range(spectrum.converged_count):
        idx, flagged = _assign_interval(shifted[i])
        if flagged:
            boundary.append(shifted[i])
        if not 0 <= idx <= Nmax:
            continue
        totals[idx] += 1
        if spectrum.parity is not None:
            (plus if spectrum.parity[i] == "+" else minus)[idx] += 1
    return totals, plus, minus, boundary


@pytest.mark.parametrize("seed", range(6))
def test_braak_census_matches_the_per_value_loop(seed):
    rng = np.random.default_rng(seed)
    nmax = 12
    # values near and at every boundary from -2 to nmax + 2, half-integers
    # (round half to even), values within BOUNDARY_TOL on either side, and
    # plain ones, below interval 0 and above nmax included
    edges = np.arange(-2.0, nmax + 3)
    ev = np.concatenate([
        edges, edges + 0.5, edges - 0.4 * BOUNDARY_TOL,
        edges + 0.9 * BOUNDARY_TOL, edges + 1.1 * BOUNDARY_TOL,
        edges - 2 * BOUNDARY_TOL, rng.uniform(-3.0, nmax + 3.0, 60)])
    ev = np.sort(ev)
    shift = float(rng.choice([0.0, 0.5, -1.25]))
    ev -= shift
    conv = int(np.searchsorted(ev + shift, nmax + 2.0)) + int(rng.integers(3))
    labels = list(rng.choice(["+", "-"], ev.size))
    for parity in (labels, None):
        spectrum = Spectrum(ev, parity, conv, (8,), None)
        rep = braak_intervals(spectrum, shift, nmax)
        totals, plus, minus, boundary = _census_loop(spectrum, shift, nmax)
        assert [c.total for c in rep.per_interval] == totals
        if parity is None:
            assert all(c.plus is None and c.minus is None
                       for c in rep.per_interval)
        else:
            assert [c.plus for c in rep.per_interval] == plus
            assert [c.minus for c in rep.per_interval] == minus
        assert np.array(rep.boundary_values).tobytes() \
            == np.array(boundary).tobytes()
        assert len(boundary) > 2 * (nmax + 5)


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


# ------------------------------------------------------- certified census


def _old_census(spec, shift, nmax):
    """The census by the stable-prefix route, the oracle of braak_census:
    2 (nmax + 2) parity-labelled eigenvalues stable to 1e-9 across two
    growth steps (_eager_converge), counted per interval
    (braak_intervals)."""
    spectrum = _eager_converge(spec, 2 * (nmax + 2), 1e-9, None,
                               _checking_solve(spec, labelled=True))
    return spectrum, braak_intervals(spectrum, shift, nmax)


def _default_shift(spec):
    return 0.5 * spec.alphas[0] ** 2 + (0.5 if spec.family == "QRabi" else 0)


def _random_chain_models(n):
    rng = np.random.default_rng(20)
    for _ in range(n):
        alpha, eps = rng.uniform(0.3, 2.5), rng.uniform(-0.1, 0.1)
        cutoff, nmax = int(rng.integers(1, 40)), int(rng.integers(0, 401))
        if rng.random() < 0.5:
            spec = ModelSpec.qr(alpha, rng.uniform(0.3, 1.5),
                                -rng.uniform(0.3, 1.5), eps, cutoff)
        else:
            spec = ModelSpec.qrabi(alpha, rng.uniform(0.2, 2.0), eps, cutoff)
        yield spec, nmax


CENSUS_CASES = (
    # c06's models and the README example
    [(ModelSpec.qr(1.0, 1.0, -1.0, eps, 16), 9)
     for eps in (0.05, -0.05, 0.02, -0.02)]
    + [(ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 16), 3)]
    # the chain_spectra benchmark's qr_braak model at seeds 1 and 11
    + [(ModelSpec.qr(0.9754, 1.1573, -0.9544, -0.0333, 16), 1000),
       (ModelSpec.qr(1.0508, 1.0985, -1.174, -0.0382, 16), 1000)]
    + [(ModelSpec.qrabi(1.0, 1.0, 0.02, 16), 50),
       (ModelSpec.qrabi(0.5, 0.7, -0.1, 30), 300),
       (ModelSpec.qrabi(0.8, 0.9, 0.0, 20), 40),
       (ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 12), 30)]
    + list(_random_chain_models(24)))


@pytest.mark.parametrize("spec,nmax", CENSUS_CASES)
def test_certified_census_matches_the_stable_prefix_census(spec, nmax):
    shift = _default_shift(spec)
    report, depth = spectral_analysis.braak_census(spec, shift, nmax)
    spectrum, old = _old_census(spec, shift, nmax)
    assert report.to_dict() == old.to_dict()
    assert report.boundary_values == []
    # the box of the closing depth already has the operator's census, and
    # no box needs more than the stable-prefix route's last step
    assert 1 <= depth <= spectrum.cutoffs_used[0]
    box = parity_split(spec.with_cutoffs((depth,)), 1, 1.0, cap=depth)
    box.converged_count = box.eigenvalues.size
    assert braak_intervals(box, shift, nmax).per_interval \
        == report.per_interval


@pytest.mark.parametrize("spec", [ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 16),
                                  ModelSpec.qrabi(0.8, 0.9, 0.04, 20)],
                         ids=["qr", "qrabi"])
@pytest.mark.parametrize("k,off", [(5, 0.0), (6, 0.5e-10), (7, -0.9e-10),
                                   (8, 2e-10)])
def test_certified_census_assigns_a_boundary_value_downwards(spec, k, off):
    # a shift that puts eigenvalue k within BOUNDARY_TOL of the boundary 4
    # (or just outside it, off 2e-10): it goes to interval 3 and is listed
    # at its value to within the tie band of the old route's
    values = parity_split(spec, 40, 1e-9).eigenvalues
    shift = 4.0 - values[k] + off
    report, depth = spectral_analysis.braak_census(spec, shift, 8)
    spectrum, old = _old_census(spec, shift, 8)
    got, want = report.to_dict(), old.to_dict()
    assert got["per_interval"] == want["per_interval"]
    assert got["verdicts"] == want["verdicts"]
    assert len(old.boundary_values) == (abs(off) <= BOUNDARY_TOL)
    assert len(report.boundary_values) == len(old.boundary_values)
    # count_below's tie band on the old route's box at the eigenvalue
    box = build(spec.with_cutoffs(spectrum.cutoffs_used))
    scale = max(max(np.abs(s.diag - values[k]).max(), np.abs(s.low).max())
                for s in box.sectors)
    tie = box.basis.dim * EPS * max(1.0, scale)
    for a, b in zip(report.boundary_values, old.boundary_values):
        assert abs(a - b) <= tie


def test_chains_are_bitwise_prefixes_of_deeper_builds():
    # the census sweeps the chains of one build at the depth cap: every
    # buffer and bound of a chain is a bitwise prefix of a deeper build's,
    # so a count that closes in a shallower build closes at the same row
    # with the same count there, and the cutoff of the build is immaterial
    t = np.arange(-0.5, 60.0, 0.5)
    for spec in (ModelSpec.qr(1.03, 0.95, -1.07, -0.03, 16),
                 ModelSpec.qrabi(0.8, 0.9, 0.04, 16),
                 ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 16)):
        deep = build(spec.with_cutoffs((1000,))).sectors
        whole = [spectral_analysis._census_sweep(s, t) for s in deep]
        for cutoff in (16, 24, 36, 54):
            for s, d, (count, closed) in zip(
                    build(spec.with_cutoffs((cutoff,))).sectors, deep, whole):
                for name in ("diag", "low", "rows", "cols", "floor",
                             "coupling"):
                    a, b = getattr(s, name), getattr(d, name)
                    assert a.tobytes() == b[:a.size].tobytes(), name
                got, shut = spectral_analysis._census_sweep(s, t)
                done = shut >= 0
                assert done.any() and (closed >= 0).all()
                assert got[done].tobytes() == count[done].tobytes()
                assert shut[done].tobytes() == closed[done].tobytes()


@pytest.mark.parametrize("spec", EQUAL_CHAIN_SPECS, ids=["qr", "qrabi"])
def test_certified_census_sweeps_equal_chains_once(spec, monkeypatch):
    calls = []
    sweep = spectral_analysis._census_sweep

    def spy(sector, t):
        calls.append(1)
        return sweep(sector, t)

    monkeypatch.setattr(spectral_analysis, "_census_sweep", spy)
    got = spectral_analysis.braak_census(spec, _default_shift(spec), 30)
    once = len(calls)
    monkeypatch.setattr(spectral_analysis, "_once_per_matrix", _per_sector)
    assert spectral_analysis.braak_census(spec, _default_shift(spec), 30) \
        == got
    assert len(calls) == 3 * once


def test_certified_census_refusals():
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 16)
    census = spectral_analysis.braak_census
    with pytest.raises(ValueError, match="finite"):
        census(spec, math.inf, 3)
    with pytest.raises(ValueError, match="at least -1"):
        census(spec, 0.5, -2)
    with pytest.raises(ValueError, match="QR-type"):
        census(ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (6, 6)), 0.5, 3)
    # finite parameters whose level eps * gamma1 overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                  match="overflow"):
        census(ModelSpec.qr(1.0, 1e300, 1.0, 1e300, 6), 0.5, 1)
    # a cutoff the model refuses is refused here too, though the census
    # builds its own
    with pytest.raises(ModelSpecError):
        census(spec.with_cutoffs((0,)), 0.5, 3)
    # at alpha 100 the rows above depth L are bounded below only from
    # L + 3/2 >= alpha^2 / 2 on, past the cap: no bracket can close, which
    # is known before any threshold is formed
    with pytest.raises(CoverageError, match="open to depth 4096"):
        census(ModelSpec.qr(100.0, 1.0, -1.0, 0.02, 16), 0.0, 2)
    # boundaries above the floor of the last row cannot close either, and
    # a huge nmax is refused by that test alone
    with pytest.raises(CoverageError, match="boundary 1000000001"):
        census(spec, 0.5, 10 ** 9)
    # below it, the work arrays of 2 (nmax + 2) thresholds exceed the
    # memory budget
    with pytest.raises(ResourceError, match="census"):
        census(spec, 1e9, 10 ** 9)


def test_certified_census_of_an_empty_range():
    # nmax = -1 asks for no interval: braak_intervals' empty report, with
    # no boundary value even where an eigenvalue sits on boundary 0
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 12)
    for shift in (0.5, 0.25):
        report, depth = spectral_analysis.braak_census(spec, shift, -1)
        assert report.per_interval == [] and report.boundary_values == []
        assert report.verdicts == {k: spectral_analysis._verdict([])
                                   for k in "+-"}
        assert depth >= 1


def test_certified_census_reports_a_bracket_open_at_the_cap(monkeypatch):
    # with the cap at 16 rows and the top threshold just below the last
    # row's floor, every threshold may close there, so the early refusal
    # lets them through; but within a unit or two of the floor the bracket
    # (0, coupling / (floor - t)] is wide, and some stay open
    monkeypatch.setattr(spectral_analysis, "SINGLE_MODE_CAP", 16)
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 16)
    floor = min(s.floor[-1] for s in build(spec).sectors)
    shift = 3.0 + BOUNDARY_TOL - floor + 1e-9
    with pytest.raises(CoverageError, match="still open at depth 16"):
        spectral_analysis.braak_census(spec, shift, 2)
