"""Truncated operator assembly: basis bookkeeping, model builders, parity,
and the binary export format."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from rabispec import errors, fock_ops, spectral_analysis
from rabispec.errors import ModelSpecError, ResourceError
from rabispec.fock_ops import (
    BasisDescriptor,
    ModelSpec,
    TruncatedOperator,
    build,
    coupling_pattern,
    export_matrix,
    load_matrix,
    parity_matrix,
)
from rabispec.overlaps import displacement_matrix
from rabispec.spectral_analysis import ab_spectra

# ------------------------------------------------------- basis oracles
# Index arithmetic and mode operators on a BasisDescriptor (spin slowest,
# modes row-major), written out state by state: the independent views of
# the basis that the assembly and the layered counts are checked against.


def index_of(basis, spin, ns):
    """The basis index of spin level spin and mode occupations ns."""
    if not 0 <= spin < basis.spin_dim:
        raise ValueError("spin index out of range")
    flat = 0
    for n, d in zip(ns, basis.mode_dims):
        if not 0 <= n < d:
            raise ValueError("mode occupation out of range")
        flat = flat * d + n
    return spin * basis.mode_space_dim + flat


def state_of(basis, i):
    """(spin, occupations) of basis index i, the inverse of index_of."""
    if not 0 <= i < basis.dim:
        raise ValueError("index out of range")
    spin, flat = divmod(i, basis.mode_space_dim)
    ns = []
    for d in reversed(basis.mode_dims):
        flat, n = divmod(flat, d)
        ns.append(n)
    return spin, tuple(reversed(ns))


def mode_occupation(basis):
    """Total occupation sum_k n_k of each mode-space index."""
    return np.indices(basis.mode_dims).sum(axis=0).ravel()


def occupation_layers(basis):
    """Basis indices of total occupation N = sum_k n_k, one ascending index
    array per N = 0 .. sum of the cutoffs, every spin included."""
    occ = np.tile(mode_occupation(basis), basis.spin_dim)
    order = np.argsort(occ, kind="stable")
    return np.split(order, np.cumsum(np.bincount(occ))[:-1])


def position_matrix(basis, mode=1):
    """Multiplication by x_mode on every spin level, from the ladder
    entries build scatters (fock_ops._ladder)."""
    if not 1 <= mode <= basis.modes:
        raise ValueError("mode %d out of range" % mode)
    msd = basis.mode_space_dim
    lower, upper, value = fock_ops._ladder(basis, mode)
    mat = np.zeros((basis.dim, basis.dim))
    for s in range(basis.spin_dim):
        r, c = s * msd + lower, s * msd + upper
        mat[r, c] = mat[c, r] = value
    return TruncatedOperator(basis, mat)


def harmonic_matrix(basis):
    """Sum over modes of (n_j + 1/2), diagonal, tensored with spin identity."""
    occ = mode_occupation(basis) + 0.5 * basis.modes
    return TruncatedOperator(basis, np.diag(np.tile(occ, basis.spin_dim)))


# ---------------------------------------------------------------- basis


def test_basis_descriptor_dimensions():
    b = BasisDescriptor(2, (3, 5), 2)
    assert b.mode_dims == (4, 6)
    assert b.mode_space_dim == 24
    assert b.dim == 48


def test_basis_descriptor_validation():
    with pytest.raises(ValueError):
        BasisDescriptor(2, (3,), 2)
    with pytest.raises(ValueError):
        BasisDescriptor(1, (3,), 1)
    with pytest.raises(ValueError):
        BasisDescriptor(1, (-1,), 2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_index_state_round_trip(data):
    modes = data.draw(st.integers(min_value=1, max_value=3))
    cuts = tuple(
        data.draw(st.integers(min_value=0, max_value=4)) for _ in range(modes)
    )
    spin = data.draw(st.integers(min_value=2, max_value=4))
    b = BasisDescriptor(modes, cuts, spin)
    i = data.draw(st.integers(min_value=0, max_value=b.dim - 1))
    s, ns = state_of(b, i)
    assert index_of(b, s, ns) == i
    assert 0 <= s < spin
    assert all(0 <= n <= c for n, c in zip(ns, cuts))


@pytest.mark.parametrize("basis", [BasisDescriptor(1, (4,), 2),
                                   BasisDescriptor(2, (2, 3), 3),
                                   BasisDescriptor(3, (1, 0, 2), 4)])
def test_occupation_layers_partition_by_total_occupation(basis):
    layers = occupation_layers(basis)
    assert len(layers) == sum(basis.per_mode_cutoff) + 1
    assert np.array_equal(np.sort(np.concatenate(layers)),
                          np.arange(basis.dim))
    for total, idx in enumerate(layers):
        assert np.all(np.diff(idx) > 0)
        assert all(sum(state_of(basis, int(i))[1]) == total for i in idx)


def test_index_of_rejects_out_of_range():
    b = BasisDescriptor(1, (3,), 2)
    with pytest.raises(ValueError):
        index_of(b, 2, (0,))
    with pytest.raises(ValueError):
        index_of(b, 0, (4,))
    with pytest.raises(ValueError):
        state_of(b, b.dim)


# ------------------------------------------------------- Kronecker oracle


def _x(d):
    off = np.sqrt(np.arange(1.0, d) / 2.0)
    return np.diag(off, 1) + np.diag(off, -1)


def _mode_kron(dims, mode, op):
    """I x ... x op (at 1-based mode) x ... x I on the mode space."""
    out = np.eye(1)
    for j, d in enumerate(dims, start=1):
        out = np.kron(out, op if j == mode else np.eye(d))
    return out


def _kron_build(spec):
    """The Kronecker-sum assembly: I_spin x sum_j (n_j + 1/2), plus
    sum_k alpha_k (E_ij + E_ji) x x_k, plus the levels x I, with QRabi's
    -1/2."""
    dims = spec.basis().mode_dims
    number = sum(_mode_kron(dims, j, np.diag(np.arange(d) + 0.5))
                 for j, d in enumerate(dims, start=1))
    h = np.kron(np.eye(spec.spin_dim), number)
    for k in range(1, spec.spin_dim):
        i, j = coupling_pattern(spec.family, spec.spin_dim, k)
        e = np.zeros((spec.spin_dim, spec.spin_dim))
        e[i, j] = e[j, i] = 1.0
        h = h + spec.alphas[k - 1] * np.kron(e, _mode_kron(dims, k,
                                                           _x(dims[k - 1])))
    if spec.family in ("QR", "QRabi"):
        levels = spec.eps * np.asarray(spec.gammas)
    else:
        levels = np.concatenate(([0.0], spec.gammas))
    h = h + np.kron(np.diag(levels), np.eye(number.shape[0]))
    if spec.family == "QRabi":
        h = h - 0.5 * np.eye(h.shape[0])
    return h


@pytest.mark.parametrize("spec", [
    ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 12),
    ModelSpec.qr(1.03, 0.95, -1.07, 0.03, 16),
    ModelSpec.qr(0.7, 0.4, -0.3, -0.2, 9),
    ModelSpec.qrabi(0.8, 0.9, -0.04, 12),
    ModelSpec.xi((1.3,), (-0.7,), 0.3, (11,)),
    ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (5, 7)),
    ModelSpec.lam((1.0, 0.9, 0.7), (0.2, 0.6, 0.8), 0.05, (3, 4, 2)),
    ModelSpec.vee((-0.6, 0.7), (0.1, 0.4), 0.05, (6, 5)),
], ids=["qr-eps0", "qr-eps+", "qr-eps-", "qrabi", "xi-1", "xi-2",
        "lambda-3", "vee-negative"])
def test_build_equals_kronecker_sum_exactly(spec):
    assert np.array_equal(build(spec).matrix, _kron_build(spec))


@pytest.mark.parametrize("basis", [BasisDescriptor(1, (7,), 2),
                                   BasisDescriptor(2, (3, 5), 3),
                                   BasisDescriptor(3, (2, 3, 4), 4)])
def test_position_matrix_equals_kronecker_product_exactly(basis):
    for mode in range(1, basis.modes + 1):
        x = _mode_kron(basis.mode_dims, mode, _x(basis.mode_dims[mode - 1]))
        assert np.array_equal(position_matrix(basis, mode).matrix,
                              np.kron(np.eye(basis.spin_dim), x))


# ------------------------------------------------------- mode operators


def test_position_matrix_single_mode():
    b = BasisDescriptor(1, (3,), 2)
    x = position_matrix(b).matrix
    blk = x[:4, :4]
    for n in range(3):
        assert blk[n + 1, n] == pytest.approx(math.sqrt((n + 1) / 2.0), rel=1e-15)
        assert blk[n, n + 1] == blk[n + 1, n]
    # spin blocks identical, no cross-spin coupling
    assert np.array_equal(x[4:, 4:], blk)
    assert np.all(x[:4, 4:] == 0.0)


def test_position_matrix_mode_placement():
    b = BasisDescriptor(2, (2, 2), 2)
    x2 = position_matrix(b, mode=2).matrix
    i = index_of(b, 0, (1, 0))
    j = index_of(b, 0, (1, 1))
    assert x2[i, j] == pytest.approx(math.sqrt(0.5), rel=1e-15)
    # mode-1 occupation must stay fixed
    k = index_of(b, 0, (0, 1))
    assert x2[i, k] == 0.0
    with pytest.raises(ValueError):
        position_matrix(b, mode=3)


def test_harmonic_matrix_counts_all_modes():
    b = BasisDescriptor(2, (2, 3), 3)
    h = harmonic_matrix(b).matrix
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    for i in range(b.dim):
        _, ns = state_of(b, i)
        assert h[i, i] == pytest.approx(sum(n + 0.5 for n in ns), rel=1e-15)


# ------------------------------------------------------- model validation


def test_model_spec_rejects_bad_level_order():
    with pytest.raises(ModelSpecError):
        build(ModelSpec.qr(1.0, -1.0, 1.0, 0.1, 10))
    with pytest.raises(ModelSpecError):
        build(ModelSpec.qr(1.0, 1.0, 1.0, 0.1, 10))


def test_model_spec_rejects_zero_coupling():
    with pytest.raises(ModelSpecError):
        build(ModelSpec.xi((1.0, 0.0), (0.1, 0.2), 0.0, (5, 5)))


def test_model_spec_rejects_descending_gammas():
    with pytest.raises(ModelSpecError):
        build(ModelSpec.xi((1.0, 1.0), (0.5, 0.1), 0.0, (5, 5)))


@pytest.mark.parametrize("spec", [
    ModelSpec.xi((math.nan, 0.8), (0.3, 0.5), 0.05, (6, 6)),
    ModelSpec.qr(1.0, math.inf, -1.0, 0.1, 8),
    ModelSpec.qr(1.0, 1.0, -1.0, -math.inf, 8),
    ModelSpec("QRabi", 2, (1.0,), (1.0, -1.0), 0.1, (8,), delta=math.nan),
], ids=["alpha", "gamma", "eps", "delta"])
def test_model_spec_rejects_nonfinite_parameters(spec):
    with pytest.raises(ModelSpecError):
        spec.validate()


def test_model_spec_rejects_shape_mismatch():
    with pytest.raises(ModelSpecError):
        build(ModelSpec.xi((1.0, 1.0), (0.1, 0.2), 0.0, (5,)))
    with pytest.raises(ModelSpecError):
        build(ModelSpec("nosuch", 2, (1.0,), (1.0, -1.0), 0.0, (5,)))
    with pytest.raises(ModelSpecError):
        build(ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 0))


# ------------------------------------------------------- two-level builds


def test_qrabi_is_shifted_qr():
    a, delta, eps, cut = 1.0, 0.7, 0.05, 30
    qr = build(ModelSpec.qr(a, delta, -delta, eps, cut)).matrix
    qrabi = build(ModelSpec.qrabi(a, delta, eps, cut)).matrix
    assert np.array_equal(qrabi, qr - 0.5 * np.eye(qr.shape[0]))


def test_two_level_chain_build_matches_qr():
    # the two-level member of the nearest-neighbor chain family carries the
    # bare level diagonal (0, g); with eps = 1 the shifted QR build agrees
    g = -0.7
    qr = build(ModelSpec.qr(1.3, 0.0, g, 1.0, 25)).matrix
    xi = build(ModelSpec.xi((1.3,), (g,), 0.3, (25,))).matrix
    assert np.allclose(xi, qr, rtol=0, atol=1e-15)


def test_displaced_frame_matches_qr_spectrum():
    a, g1, g2, eps, cut = 1.0, 1.0, -0.5, 0.05, 160
    qr = np.linalg.eigvalsh(build(ModelSpec.qr(a, g1, g2, eps, cut)).matrix)
    ab = np.linalg.eigvalsh(build(ModelSpec.ab_frame(a, g1, g2, eps, cut)).matrix)
    # same operator in a displaced frame, offset by the coupling shift a^2/2
    assert np.max(np.abs(ab[:30] - (qr[:30] + 0.5 * a * a))) < 1e-10


def test_displaced_frame_block_structure():
    a, g1, g2, eps, cut = 0.8, 0.4, -0.2, 0.1, 12
    m = build(ModelSpec.ab_frame(a, g1, g2, eps, cut)).matrix
    d = cut + 1
    beta1, beta2 = 0.5 * (g1 + g2), 0.5 * (g1 - g2)
    dm = displacement_matrix(cut, a)
    p0 = np.diag(np.arange(d) + 0.5 + eps * beta1)
    assert np.array_equal(m[:d, :d], p0)
    assert np.array_equal(m[d:, d:], p0)
    assert np.array_equal(m[:d, d:], eps * beta2 * dm)
    assert np.array_equal(m[d:, :d], eps * beta2 * dm.T)


@pytest.mark.parametrize("a, g1, g2, eps, cut", [
    (1.0, 1.0, -1.0, 0.07, 120), (-0.8, 0.4, -0.2, -0.1, 40),
    (2.5, 1.2, 0.3, 0.3, 300), (0.0, 1.0, -1.0, 0.1, 5),
])
def test_ab_sectors_are_the_symmetric_parity_halves_of_the_frame(
        a, g1, g2, eps, cut):
    spec = ModelSpec.ab_frame(a, g1, g2, eps, cut)
    op = build(spec)
    plus, minus = (s.matrix() for s in op.sectors)
    m = op.matrix
    d = cut + 1
    # sector s is P + eps beta1 + s C diag((-1)^k), with C = eps beta2 D
    # the frame's coupling block, bit for bit
    signed = m[:d, d:] * (-1.0) ** np.arange(d)
    assert np.array_equal(plus.view(np.int64),
                          (m[:d, :d] + signed).view(np.int64))
    assert np.array_equal(minus.view(np.int64),
                          (m[:d, :d] - signed).view(np.int64))
    # bitwise symmetric, sign bits of zeros included
    for h in (plus, minus):
        assert np.array_equal(h.view(np.int64), h.T.view(np.int64))
    # ab_spectra solves the two sectors of the build, sector 0 holding +1
    (values, which), = ab_spectra([spec])
    for i, h in enumerate((plus, minus)):
        assert np.array_equal(values[which == i],
                              np.sort(scipy.linalg.eigvalsh(h)))
    assert np.allclose(values, np.linalg.eigvalsh(m), rtol=0, atol=1e-11)


def test_ab_sectors_refuse_like_build(monkeypatch):
    with pytest.raises(ValueError, match="AB frame"):
        ab_spectra([ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 8)])
    with pytest.raises(ModelSpecError):
        ab_spectra([ModelSpec.ab_frame(1.0, -1.0, 1.0, 0.1, 8)])
    # the dense frame's budget: dimension 42 fits, 44 does not
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", 8 * 42 ** 2)
    fits = ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 20)
    assert len(build(fits).sectors) == 2
    assert ab_spectra([fits])[0][0].size == 42
    over = ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 21)
    for refused in (lambda: build(over), lambda: ab_spectra([over])):
        with pytest.raises(ResourceError,
                           match="dense matrix of dimension 44"):
            refused()


def test_ab_sector_pairs_share_one_displacement_matrix(monkeypatch):
    specs = [ModelSpec.ab_frame(-0.8, g1, g2, eps, 60)
             for g1, g2, eps in ((1.0, -1.0, 0.07), (1.0, -1.0, -0.07),
                                 (0.4, -0.2, 0.3), (1.2, 1.1, 0.0))]
    formed = []

    def counted(*args):
        formed.append(args)
        return displacement_matrix(*args)

    monkeypatch.setattr(spectral_analysis, "displacement_matrix", counted)
    spectra = ab_spectra(specs)
    assert formed == [(60, -0.8)]
    monkeypatch.undo()
    # each model's values are bitwise those of its build's sectors
    for spec, (values, which) in zip(specs, spectra):
        for i, sector in enumerate(build(spec).sectors):
            assert np.array_equal(
                values[which == i].view(np.int64),
                np.sort(scipy.linalg.eigvalsh(sector.matrix())).view(
                    np.int64))
    # every spec is checked before D is formed
    monkeypatch.setattr(spectral_analysis, "displacement_matrix", counted)
    formed.clear()
    for bad, err in ((ModelSpec.ab_frame(-0.8, 1.0, -1.0, 0.1, 61),
                      ValueError),
                     (ModelSpec.ab_frame(0.8, 1.0, -1.0, 0.1, 60),
                      ValueError),
                     (ModelSpec.ab_frame(-0.8, -1.0, 1.0, 0.1, 60),
                      ModelSpecError)):
        with pytest.raises(err):
            ab_spectra(specs + [bad])
    assert formed == []


@pytest.mark.parametrize("cut", [60, 200, 255, 400])
def test_ab_build_peaks_within_its_dense_check(cut):
    # build holds D and the sectors' shared coupling block, half the
    # 8 dim^2 bytes of the frame it checks; reading op.matrix writes the
    # frame into one zeroed array, its own check plus a few kilobytes
    spec = ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, cut)
    checked = 8 * spec.basis().dim ** 2
    tracemalloc.start()
    try:
        op = build(spec)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kept = tracemalloc.get_traced_memory()[0]
        m = op.matrix
        read = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    assert m.shape == (spec.basis().dim,) * 2
    assert built <= checked
    assert checked <= read <= checked + 4096


def test_parity_commutes_with_two_level_builds():
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 40)
    h = build(spec).matrix
    p = parity_matrix(spec.basis()).matrix
    assert np.array_equal(p @ h, h @ p)
    with pytest.raises(ValueError):
        parity_matrix(BasisDescriptor(2, (3, 3), 2))


def _parity_chains(spec):
    """[(diag, off) of the "+" chain, of the "-" chain] of a QR/QRabi
    model: |n, spin n mod 2> and |n, spin 1 - n mod 2> for n = 0..cutoff,
    off-diagonal alpha sqrt(n / 2), formed by the floating operations of
    build."""
    n = np.arange(spec.cutoffs[0] + 1)
    off = spec.alphas[0] * np.sqrt(n[1:] / 2.0)
    levels = spec.eps * np.asarray(spec.gammas)
    shift = 0.5 if spec.family == "QRabi" else 0.0
    return [((n + 0.5) + levels[s] - shift, off) for s in (n % 2, 1 - n % 2)]


@pytest.mark.parametrize("spec", [
    ModelSpec.qr(1.03, 0.95, -1.07, -0.03, 16),
    ModelSpec.qr(0.7, 0.0, -0.3, 0.0, 13),
    ModelSpec.qr(1e-300, 0.5, -0.5, 0.2, 9),
    ModelSpec.qrabi(1.0, 1.0, 0.02, 17),
    ModelSpec.qrabi(0.8, 0.9, -0.04, 12),
])
def test_parity_chains_equal_dense_sectors(spec):
    op = build(spec)
    h = op.matrix
    signs = np.diag(parity_matrix(spec.basis()).matrix)
    d = spec.cutoffs[0] + 1
    for (diag, off), sign, sector in zip(_parity_chains(spec), (1.0, -1.0),
                                         op.sectors):
        idx = np.nonzero(signs == sign)[0]
        idx = idx[np.argsort(idx % d)]  # chain order: by occupation n
        block = h[np.ix_(idx, idx)]
        chain = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.array_equal(block, chain)
        # build's sectors 0 and 1 are these chains, bit for bit, and a
        # chain is the sector's own pair of buffers
        got_diag, got_off = sector.chain()
        assert got_diag is sector.diag and got_off is sector.low
        assert np.array_equal(sector.index, idx)
        assert got_diag.tobytes() == diag.tobytes()
        assert got_off.tobytes() == off.tobytes()


LAYERED_SPECS = [
    ModelSpec.qr(1.03, 0.95, -1.07, -0.03, 16),
    ModelSpec.qrabi(0.8, 0.9, -0.04, 12),
    ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (5, 7)),
    ModelSpec.lam((1.0, 0.9), (0.2, 0.6), 0.05, (6, 4)),
    ModelSpec.vee((0.6, 0.7, 0.8), (0.1, 0.4, 0.6), 0.05, (3, 2, 4)),
    ModelSpec.qr(1.0, 1.0, -1.0, 0.0, 9),
    ModelSpec.qrabi(1.1, 0.7, 0.3, 20),
]


@pytest.mark.parametrize("spec", LAYERED_SPECS + [
    ModelSpec.xi((1.0, 0.8, 0.7), (0.3, 0.5, 0.9), 0.05, (2, 3, 2)),
    ModelSpec.lam((1.0, 0.9, 0.7), (0.2, 0.6, 0.8), 0.05, (3, 2, 2)),
])
def test_builds_couple_only_adjacent_occupation_layers(spec):
    # build(spec).matrix is assembled from the sectors, so the sectors are
    # checked against the independent Kronecker oracle instead
    h = _kron_build(spec)
    layers = occupation_layers(spec.basis())
    occ = np.empty(h.shape[0], dtype=int)
    for total, idx in enumerate(layers):
        occ[idx] = total
    # every coupling moves one quantum: the oracle has no nonzero between
    # two distinct states of one layer, nor of layers further apart, so a
    # sector's blocks on its layers are diagonal, and its diag holds them
    rows, cols = np.nonzero(h)
    off = rows != cols
    assert np.any(off)
    assert np.all(np.abs(occ[rows[off]] - occ[cols[off]]) == 1)
    # count_below trusts the sectors without looking at a matrix: their
    # diagonals and coupling entries are the oracle's exact entries, hold
    # every nonzero, and the oracle is exactly symmetric
    assert np.array_equal(h, h.T)
    basis = spec.basis()
    # the occupation of every mode at every basis index: an entry's
    # coupling is the mode whose occupation its two states differ in
    modes = np.tile(np.indices(basis.mode_dims).reshape(spec.modes, -1),
                    spec.spin_dim)
    sectors = build(spec).sectors
    assert len(sectors) == 2 ** spec.modes
    assert np.array_equal(np.sort(np.concatenate([s.index for s in sectors])),
                          np.arange(h.shape[0]))
    nnz = 0
    for s in sectors:
        blocks = np.split(s.index, np.cumsum(s.sizes)[:-1])
        # one float per state: the oracle's diagonal on index
        assert s.diag.dtype == h.dtype and s.diag.shape == s.index.shape
        assert np.array_equal(s.diag, np.diag(h)[s.index])
        nnz += np.count_nonzero(s.diag)
        # consecutive occupation layers from first on, none empty,
        # ascending within each, with one floor and coupling bound each
        assert min(s.sizes) > 0
        assert occ[blocks[0][0]] == s.first
        assert np.all(np.diff([occ[a[0]] for a in blocks]) == 1)
        assert s.floor.shape == s.coupling.shape == s.sizes.shape
        for a in blocks:
            assert np.all(occ[a] == occ[a[0]]) and np.all(np.diff(a) > 0)
        # each entry joins a state of layer k + 1 (row) to one of layer k
        # (col), one quantum apart in one mode, its coupling's
        assert s.low.dtype == h.dtype
        assert s.low.shape == s.rows.shape == s.cols.shape
        r, c = s.index[s.rows], s.index[s.cols]
        assert np.all(occ[r] == occ[c] + 1)
        step = modes[:, r] - modes[:, c]
        assert np.all((step == 1).sum(axis=0) == 1)
        assert np.all((step == 0).sum(axis=0) == spec.modes - 1)
        coupling = np.argmax(step, axis=0)
        # sorted by row, then coupling, at most one per coupling per row
        key = s.rows * spec.modes + coupling
        assert np.all(np.diff(key) > 0)
        # the values are the oracle's, and the oracle has no other
        # off-diagonal nonzero in the sector
        assert np.array_equal(s.low, h[r, c])
        inside = h[np.ix_(s.index, s.index)].copy()
        np.fill_diagonal(inside, 0.0)
        inside[s.rows, s.cols] = inside[s.cols, s.rows] = 0.0
        assert not inside.any()
        nnz += 2 * np.count_nonzero(s.low)
        # low_blocks forms the oracle's blocks between consecutive layers
        low = list(s.low_blocks())
        assert len(low) == len(blocks) - 1
        for (rows, cols, block), a, b in zip(low, blocks, blocks[1:]):
            assert np.array_equal(s.index[rows], b)
            assert np.array_equal(s.index[cols], a)
            assert block.dtype == h.dtype
            assert np.array_equal(block, h[np.ix_(b, a)])
    assert nnz == np.count_nonzero(h)
    if spec.family in ("QR", "QRabi"):
        # the two sectors are the + and - parity chains in occupation order
        signs = np.diag(parity_matrix(spec.basis()).matrix)
        d = spec.cutoffs[0] + 1
        for s, sign in zip(sectors, (1.0, -1.0)):
            idx = np.nonzero(signs == sign)[0]
            assert np.array_equal(s.index, idx[np.argsort(idx % d)])


SECTOR_SPECS = [
    ModelSpec.xi((1.3,), (-0.7,), 0.3, (11,)),
    ModelSpec.lam((0.9,), (0.4,), 0.1, (1,)),
    ModelSpec.vee((-0.6,), (0.2,), 0.0, (6,)),
    ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (1, 5)),
    ModelSpec.lam((1.0, 0.9), (0.2, 0.6), 0.05, (6, 4)),
    ModelSpec.vee((0.7, 1.1), (0.1, 0.4), 0.05, (1, 1)),
    ModelSpec.xi((1.0, 0.8, 0.7), (0.3, 0.5, 0.9), 0.05, (2, 3, 1)),
    ModelSpec.lam((1.0, 0.9, 0.7), (0.2, 0.6, 0.8), 0.05, (3, 2, 4)),
    ModelSpec.vee((0.6, 0.7, 0.8), (0.1, 0.4, 0.6), 0.05, (3, 2, 4)),
]


@pytest.mark.parametrize("spec", SECTOR_SPECS, ids=lambda s: "%s-%s" % (
    s.family, "x".join(map(str, s.cutoffs))))
def test_sector_labels_split_the_kronecker_oracle(spec):
    h = _kron_build(spec)
    labels = fock_ops.sector_labels(spec)
    assert labels.shape == (h.shape[0],)
    assert set(labels.tolist()) == set(range(2 ** spec.modes))
    # no entry joins two sectors
    assert np.all(h[labels[:, None] != labels[None, :]] == 0.0)
    # the sectors are those of build, whose matrix is the oracle's
    op = build(spec)
    for s in op.sectors:
        assert np.all(labels[s.index] == labels[s.index[0]])
    assert np.array_equal(op.matrix, h)


@pytest.mark.parametrize("spec", SECTOR_SPECS + LAYERED_SPECS,
                         ids=lambda s: "%s-%s" % (
                             s.family, "x".join(map(str, s.cutoffs))))
def test_group_sizes_count_the_labelled_basis(spec):
    # the (sector, layer) sizes of build against a count over every
    # labelled basis state: sector s keeps its nonempty layers from first
    n_layers = sum(spec.cutoffs) + 1
    occ = np.tile(mode_occupation(spec.basis()), spec.spin_dim)
    want = np.bincount(fock_ops.sector_labels(spec) * n_layers + occ,
                       minlength=2 ** spec.modes * n_layers)
    want = want.reshape(2 ** spec.modes, n_layers)
    sectors = build(spec).sectors
    assert len(sectors) == 2 ** spec.modes
    for row, s in zip(want, sectors):
        got = np.zeros(n_layers, dtype=row.dtype)
        got[s.first:s.first + s.sizes.size] = s.sizes
        assert np.array_equal(got, row)
        assert np.all(s.sizes > 0)


def test_sector_labels_follow_the_coupling_tree():
    levels = np.arange(4)
    xi = fock_ops._far_sides("Xi", 4)
    lam = fock_ops._far_sides("Lambda", 4)
    vee = fock_ops._far_sides("Vee", 4)
    for k in (1, 2, 3):
        assert np.array_equal(xi[k - 1], levels >= k)
        assert np.array_equal(vee[k - 1], levels == k)
        assert np.array_equal(lam[k - 1],
                              levels != 0 if k == 1 else levels == k - 1)
    # sector 0 of QR/QRabi is the "+" parity chain
    for spec in (ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 9),
                 ModelSpec.qrabi(0.8, 0.9, 0.04, 6)):
        signs = np.diag(parity_matrix(spec.basis()).matrix)
        assert np.array_equal(fock_ops.sector_labels(spec) == 0, signs > 0)
    with pytest.raises(ValueError):
        fock_ops.sector_labels(ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 8))


def test_layers_declared_only_by_layered_builds(tmp_path):
    path = tmp_path / "xi.bin"
    export_matrix(build(ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (3, 3))),
                  path)
    assert load_matrix(path).sectors is None
    basis = BasisDescriptor(1, (4,), 2)
    assert position_matrix(basis).sectors is None
    assert harmonic_matrix(basis).sectors is None


def test_build_refuses_dense_matrix_over_budget(monkeypatch):
    tracemalloc.start()
    try:
        # dimension 20 295 603: its arrays (_build_bytes), about 14 words
        # per basis state, need 2.17 GiB; Xi (800, 800) needs 0.206 GiB
        with pytest.raises(ResourceError, match="blocks of dimension "
                                                "20295603 need 2.17 GiB"):
            build(ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (2600, 2600)))
        # dimension 19 455 303: 2.08 GiB
        with pytest.raises(ResourceError, match="blocks of dimension "
                                                "19455303 need 2.08 GiB"):
            build(ModelSpec.xi((1, 0.8), (0.3, 0.5), 0.05, (2400, 2700)))
        # refused from the dimension alone, before the layer sizes of a
        # hundred million or a billion layers are formed
        with pytest.raises(ResourceError, match="blocks of dimension "
                                                "200000002 need 26.1 GiB"):
            build(ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 10 ** 8))
        with pytest.raises(ResourceError, match="blocks of dimension"):
            build(ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 10 ** 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # the budget is inclusive: dimension 42 fits 8 * 42^2 bytes exactly; a
    # layered build assembles its dense matrix, and refuses it, on reading
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", 8 * 42 ** 2)
    assert build(ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 20)).matrix.shape == (42, 42)
    op = build(ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 21))
    with pytest.raises(ResourceError, match="dense matrix of dimension 44"):
        op.matrix
    with pytest.raises(ResourceError):
        build(ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 21))
    # the block budget is inclusive too, and build itself applies it: the
    # arrays of every basis state, entry, group and layer (_build_bytes)
    spec = ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (5, 7))
    need = fock_ops._build_bytes(spec)
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", need)
    assert build(spec).sectors is not None
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", need - 1)
    with pytest.raises(ResourceError, match="blocks of dimension 144"):
        build(spec)


@pytest.mark.parametrize("spec, more", [
    (ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 10000), (10001,)),
    (ModelSpec.vee((0.6, 0.7, 0.8), (0.1, 0.4, 0.6), 0.05, (12, 12, 12)),
     (12, 12, 13)),
], ids=["QR", "Vee-3"])
def test_build_budget_counts_the_arrays_it_forms(spec, more, monkeypatch):
    # the budget patched to the count of spec's build: that build peaks
    # within it, and one cutoff more is refused before any basis-length
    # array is formed
    need = fock_ops._build_bytes(spec)
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES", need)
    tracemalloc.start()
    try:
        op = build(spec)
        ran = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kept = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ResourceError, match="blocks of dimension %d "
                                                % spec.with_cutoffs(more)
                                                .basis().dim):
            build(spec.with_cutoffs(more))
        refused = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    assert op.sectors is not None
    assert need / 2 < ran <= need
    assert refused < 1e6


@pytest.mark.parametrize("spec", [
    ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 20000),
    ModelSpec.qrabi(0.8, 0.9, 0.04, 3000),
    ModelSpec.xi((1.3,), (-0.7,), 0.3, (5000,)),
    ModelSpec.lam((0.9,), (0.4,), 0.1, (4000,)),
    ModelSpec.vee((-0.6,), (0.2,), 0.0, (6000,)),
    ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (120, 150)),
    ModelSpec.lam((1.0, 0.9), (0.2, 0.6), 0.05, (40, 60)),
    ModelSpec.vee((0.7, 1.1), (0.1, 0.4), 0.05, (90, 90)),
    ModelSpec.xi((1.0, 0.8, 0.7), (0.3, 0.5, 0.9), 0.05, (20, 25, 30)),
    ModelSpec.lam((0.9, 0.8, 0.6), (0.1, 0.2, 0.7), 0.05, (16, 16, 16)),
    ModelSpec.vee((0.6, 0.7, 0.8), (0.1, 0.4, 0.6), 0.05, (30, 30, 30)),
], ids=lambda s: "%s-%s" % (s.family, "x".join(map(str, s.cutoffs))))
def test_build_memory_is_linear_in_the_basis(spec):
    # every layered build peaks within its count, and the count is at most
    # 32 words per basis state: no array grows with a product of layer
    # sizes, as dense coupling blocks did
    need = fock_ops._build_bytes(spec)
    tracemalloc.start()
    try:
        op = build(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.sectors is not None
    assert peak <= need <= 8 * 32 * spec.basis().dim


def test_layered_matrix_is_assembled_on_every_read():
    op = build(ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (3, 3)))
    first = op.matrix
    assert op.matrix is not first and np.array_equal(op.matrix, first)
    with pytest.raises(ValueError):
        fock_ops.TruncatedOperator(op.basis, None)


# ------------------------------------------------------- N-level builds


def test_coupling_patterns_three_levels():
    assert coupling_pattern("Xi", 3, 1) == (0, 1)
    assert coupling_pattern("Xi", 3, 2) == (1, 2)
    assert coupling_pattern("Lambda", 3, 1) == (0, 2)
    assert coupling_pattern("Lambda", 3, 2) == (1, 2)
    assert coupling_pattern("Vee", 3, 1) == (0, 1)
    assert coupling_pattern("Vee", 3, 2) == (0, 2)


def test_nlevel_coupling_acts_on_its_own_mode():
    spec = ModelSpec.xi((2.0, 3.0), (0.1, 0.2), 0.0, (3, 4))
    b = spec.basis()
    h = build(spec).matrix
    # coupling 1 joins levels 0,1 and shifts mode 1
    i = index_of(b, 0, (1, 2))
    j = index_of(b, 1, (2, 2))
    assert h[i, j] == pytest.approx(2.0 * math.sqrt(1.0), rel=1e-15)
    # coupling 2 joins levels 1,2 and shifts mode 2
    i = index_of(b, 1, (1, 2))
    j = index_of(b, 2, (1, 3))
    assert h[i, j] == pytest.approx(3.0 * math.sqrt(1.5), rel=1e-15)
    # no level-0 to level-2 matrix elements in the chain pattern
    blk = h[: b.mode_space_dim, 2 * b.mode_space_dim :]
    assert np.all(blk == 0.0)


def test_nlevel_diagonal_ignores_eps():
    a = build(ModelSpec.lam((1.0, 1.0), (0.1, 0.2), 0.0, (4, 4))).matrix
    b = build(ModelSpec.lam((1.0, 1.0), (0.1, 0.2), 5.0, (4, 4))).matrix
    assert np.array_equal(a, b)


def test_nlevel_diagonal_levels():
    spec = ModelSpec.vee((1.0, 1.0), (0.3, 0.9), 0.0, (2, 2))
    b = spec.basis()
    h = build(spec).matrix
    levels = (0.0, 0.3, 0.9)
    for i in range(b.dim):
        s, ns = state_of(b, i)
        assert h[i, i] == pytest.approx(sum(n + 0.5 for n in ns) + levels[s],
                                        rel=1e-15)


def test_vanishing_coupling_limit_keeps_harmonic_multiplicities():
    # couplings may be arbitrarily small but not zero; at 1e-150 the spectrum
    # is the pure harmonic one with its full multiplicities
    spec = ModelSpec.xi((1e-150, 1e-150), (0.0, 0.0), 0.0, (5, 5))
    ev = np.linalg.eigvalsh(build(spec).matrix)
    b = spec.basis()
    ref = []
    for i in range(b.dim):
        _, ns = state_of(b, i)
        ref.append(sum(n + 0.5 for n in ns))
    assert np.allclose(ev, np.sort(ref), rtol=0, atol=1e-12)
    # the two-mode ground level (n1+n2 = 0) appears once per spin level
    assert int(np.sum(np.abs(ev - 1.0) < 1e-12)) == 3


# ------------------------------------------------------- export / load


def test_export_load_round_trip(tmp_path):
    op = build(ModelSpec.qr(0.9, 0.5, -0.5, 0.02, 7))
    path = tmp_path / "op.bin"
    export_matrix(op, path)
    back = load_matrix(path)
    assert np.array_equal(back.matrix, op.matrix)
    assert back.basis == op.basis


def test_export_header_is_json_line(tmp_path):
    import json

    op = harmonic_matrix(BasisDescriptor(1, (2,), 2))
    path = tmp_path / "h.bin"
    export_matrix(op, path)
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        payload = f.read()
    assert header["rows"] == header["cols"] == 6
    assert header["dtype"] == "<f8"
    assert len(payload) == 6 * 6 * 8
