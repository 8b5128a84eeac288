"""Truncated operator assembly: basis bookkeeping, model builders, parity,
and the binary export format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rabispec.errors import ModelSpecError
from rabispec.fock_ops import (
    BasisDescriptor,
    ModelSpec,
    build,
    coupling_pattern,
    export_matrix,
    harmonic_matrix,
    load_matrix,
    parity_chains,
    parity_matrix,
    position_matrix,
)
from rabispec.overlaps import displacement_matrix

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
    s, ns = b.state_of(i)
    assert b.index_of(s, ns) == i
    assert 0 <= s < spin
    assert all(0 <= n <= c for n, c in zip(ns, cuts))


def test_index_of_rejects_out_of_range():
    b = BasisDescriptor(1, (3,), 2)
    with pytest.raises(ValueError):
        b.index_of(2, (0,))
    with pytest.raises(ValueError):
        b.index_of(0, (4,))
    with pytest.raises(ValueError):
        b.state_of(b.dim)


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
    i = b.index_of(0, (1, 0))
    j = b.index_of(0, (1, 1))
    assert x2[i, j] == pytest.approx(math.sqrt(0.5), rel=1e-15)
    # mode-1 occupation must stay fixed
    k = b.index_of(0, (0, 1))
    assert x2[i, k] == 0.0
    with pytest.raises(ValueError):
        position_matrix(b, mode=3)


def test_harmonic_matrix_counts_all_modes():
    b = BasisDescriptor(2, (2, 3), 3)
    h = harmonic_matrix(b).matrix
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    for i in range(b.dim):
        _, ns = b.state_of(i)
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


def test_parity_commutes_with_two_level_builds():
    spec = ModelSpec.qr(1.0, 1.0, -1.0, 0.1, 40)
    h = build(spec).matrix
    p = parity_matrix(spec.basis()).matrix
    assert np.array_equal(p @ h, h @ p)
    with pytest.raises(ValueError):
        parity_matrix(BasisDescriptor(2, (3, 3), 2))


@pytest.mark.parametrize("spec", [
    ModelSpec.qr(1.03, 0.95, -1.07, -0.03, 16),
    ModelSpec.qr(0.7, 0.0, -0.3, 0.0, 13),
    ModelSpec.qr(1e-300, 0.5, -0.5, 0.2, 9),
    ModelSpec.qrabi(1.0, 1.0, 0.02, 17),
    ModelSpec.qrabi(0.8, 0.9, -0.04, 12),
])
def test_parity_chains_equal_dense_sectors(spec):
    h = build(spec).matrix
    signs = np.diag(parity_matrix(spec.basis()).matrix)
    d = spec.cutoffs[0] + 1
    for (diag, off), sign in zip(parity_chains(spec), (1.0, -1.0)):
        idx = np.nonzero(signs == sign)[0]
        idx = idx[np.argsort(idx % d)]  # chain order: by occupation n
        block = h[np.ix_(idx, idx)]
        chain = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.array_equal(block, chain)


def test_parity_chains_require_qr_type_model():
    with pytest.raises(ValueError):
        parity_chains(ModelSpec.xi((1.0, 1.0), (0.1, 0.2), 0.0, (3, 3)))
    with pytest.raises(ValueError):
        parity_chains(ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 8))


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
    i = b.index_of(0, (1, 2))
    j = b.index_of(1, (2, 2))
    assert h[i, j] == pytest.approx(2.0 * math.sqrt(1.0), rel=1e-15)
    # coupling 2 joins levels 1,2 and shifts mode 2
    i = b.index_of(1, (1, 2))
    j = b.index_of(2, (1, 3))
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
        s, ns = b.state_of(i)
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
        _, ns = b.state_of(i)
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
