"""Truncated Fock-basis assembly of the model Hamiltonians.

Supported families:

* QR        harmonic x I2 + alpha x sigma_x + eps diag(gamma1, gamma2)
* QRabi     the QR operator at gamma1 = -gamma2 = delta, shifted by -1/2
* ABFrame   harmonic x I2 + eps [[beta1, beta2 D], [beta2 D^T, beta1]]
            with D the normalized displacement matrix; spectrally equal to
            QR + alpha^2/2 at matched truncation
* Xi        N levels chained k <-> k+1 through n = N-1 oscillator modes
* Lambda    N levels, every lower level coupled into level N
* Vee       N levels, level 1 coupled out to every upper level

Layout convention everywhere: spin index slowest, then the oscillator
multi-index in row-major order. Every coupling moves exactly one quantum, so
all families but the AB frame are block tridiagonal in the occupation
layers. Assembly writes the harmonic and level diagonal into the diagonal
layer blocks and scatters the ladder entries of each coupling, the pairs of
mode-space indices one quantum apart, into the coupling blocks; the dense
matrix is formed from the blocks and their transposes only when it is read,
which keeps every matrix bitwise symmetric.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelSpecError, ResourceError
from .overlaps import displacement_matrix

QR = "QR"
QRABI = "QRabi"
AB_FRAME = "ABFrame"
XI = "Xi"
LAMBDA = "Lambda"
VEE = "Vee"

FAMILIES = (QR, QRABI, AB_FRAME, XI, LAMBDA, VEE)

# build refuses a dense matrix, or occupation-layer blocks, larger than this
# (2 GiB: a dense matrix of dimension 16 384)
DENSE_BUDGET_BYTES = 2 * 1024 ** 3


def _check_budget(what, need):
    """Raise ResourceError when need bytes exceed DENSE_BUDGET_BYTES; what
    names the object and its verb, as in "dense matrix ... needs"."""
    if need > DENSE_BUDGET_BYTES:
        raise ResourceError("%s %.3g GiB, over the %.3g GiB budget"
                            % (what, need / 2 ** 30,
                               DENSE_BUDGET_BYTES / 2 ** 30))


def check_dense_budget(basis):
    """Raise ResourceError when a dense matrix on basis would exceed
    DENSE_BUDGET_BYTES."""
    _check_budget("dense matrix of dimension %d needs" % basis.dim,
                  8 * basis.dim ** 2)


@dataclass(frozen=True)
class BasisDescriptor:
    """Product basis bookkeeping: spin slowest, modes row-major."""

    modes: int
    per_mode_cutoff: tuple
    spin_dim: int

    def __post_init__(self):
        if self.modes < 1 or len(self.per_mode_cutoff) != self.modes:
            raise ValueError("per_mode_cutoff must list one cutoff per mode")
        if self.spin_dim < 2:
            raise ValueError("spin_dim must be at least 2")
        if any(c < 0 for c in self.per_mode_cutoff):
            raise ValueError("cutoffs must be nonnegative")

    @property
    def mode_dims(self):
        return tuple(c + 1 for c in self.per_mode_cutoff)

    @property
    def mode_space_dim(self):
        d = 1
        for m in self.mode_dims:
            d *= m
        return d

    @property
    def dim(self):
        return self.spin_dim * self.mode_space_dim

    def index_of(self, spin, ns):
        if not 0 <= spin < self.spin_dim:
            raise ValueError("spin index out of range")
        flat = 0
        for n, d in zip(ns, self.mode_dims):
            if not 0 <= n < d:
                raise ValueError("mode occupation out of range")
            flat = flat * d + n
        return spin * self.mode_space_dim + flat

    def state_of(self, i):
        if not 0 <= i < self.dim:
            raise ValueError("index out of range")
        spin, flat = divmod(i, self.mode_space_dim)
        ns = []
        for d in reversed(self.mode_dims):
            flat, n = divmod(flat, d)
            ns.append(n)
        return spin, tuple(reversed(ns))

    def mode_occupation(self):
        """Total occupation sum_k n_k of each mode-space index."""
        return np.indices(self.mode_dims).sum(axis=0).ravel()

    def occupation_layers(self):
        """Basis indices of total occupation N = sum_k n_k, one ascending
        index array per N = 0 .. sum of the cutoffs, every spin included."""
        occ = np.tile(self.mode_occupation(), self.spin_dim)
        order = np.argsort(occ, kind="stable")
        return np.split(order, np.cumsum(np.bincount(occ))[:-1])


class TruncatedOperator:
    """A truncated matrix on its basis. layers, when set, is the pair
    (diagonal blocks, lower coupling blocks) of the matrix over
    basis.occupation_layers(); count_below then works on the blocks.

    build declares the layers, and stores no matrix, for the families that
    couple only adjacent layers. Reading matrix then assembles the dense
    matrix from the blocks and their transposes, anew on every read, and
    raises ResourceError, before allocating, when it would exceed
    DENSE_BUDGET_BYTES. A stored matrix is returned as it is.
    """

    def __init__(self, basis, matrix, layers=None):
        if matrix is None and layers is None:
            raise ValueError("an operator needs a matrix or its layers")
        if matrix is not None and matrix.shape != (basis.dim, basis.dim):
            raise ValueError("matrix shape does not match basis dimension")
        self.basis = basis
        self._matrix = matrix
        self.layers = layers

    @property
    def matrix(self):
        if self._matrix is not None:
            return self._matrix
        check_dense_budget(self.basis)
        n = self.basis.dim
        mat = np.zeros((n, n))
        idx = self.basis.occupation_layers()
        diag, low = self.layers
        for a, d in zip(idx, diag):
            mat[np.ix_(a, a)] = d
        for a, b, c in zip(idx, idx[1:], low):
            mat[np.ix_(b, a)] = c
            mat[np.ix_(a, b)] = c.T
        return mat


@dataclass(frozen=True)
class ModelSpec:
    """Which Hamiltonian to build, with what parameters and truncation."""

    family: str
    spin_dim: int
    alphas: tuple
    gammas: tuple
    eps: float
    cutoffs: tuple
    delta: float | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def qr(cls, alpha, gamma1, gamma2, eps, cutoff):
        return cls(QR, 2, (float(alpha),), (float(gamma1), float(gamma2)),
                   float(eps), (int(cutoff),))

    @classmethod
    def qrabi(cls, alpha, delta, eps, cutoff):
        return cls(QRABI, 2, (float(alpha),), (float(delta), -float(delta)),
                   float(eps), (int(cutoff),), delta=float(delta))

    @classmethod
    def ab_frame(cls, alpha, gamma1, gamma2, eps, cutoff):
        return cls(AB_FRAME, 2, (float(alpha),), (float(gamma1), float(gamma2)),
                   float(eps), (int(cutoff),))

    @classmethod
    def xi(cls, alphas, gammas, eps, cutoffs):
        return cls._nlevel(XI, alphas, gammas, eps, cutoffs)

    @classmethod
    def lam(cls, alphas, gammas, eps, cutoffs):
        return cls._nlevel(LAMBDA, alphas, gammas, eps, cutoffs)

    @classmethod
    def vee(cls, alphas, gammas, eps, cutoffs):
        return cls._nlevel(VEE, alphas, gammas, eps, cutoffs)

    @classmethod
    def _nlevel(cls, family, alphas, gammas, eps, cutoffs):
        alphas = tuple(float(a) for a in alphas)
        cutoffs = tuple(int(c) for c in cutoffs)
        return cls(family, len(alphas) + 1, alphas,
                   tuple(float(g) for g in gammas), float(eps), cutoffs)

    # -----------------------------------------------------------------------

    @property
    def modes(self):
        return len(self.cutoffs)

    def basis(self):
        return BasisDescriptor(self.modes, self.cutoffs, self.spin_dim)

    def validate(self):
        if self.family not in FAMILIES:
            raise ModelSpecError("unknown model family %r" % (self.family,))
        params = self.alphas + self.gammas + (self.eps,)
        if self.delta is not None:
            params += (self.delta,)
        if not all(math.isfinite(v) for v in params):
            raise ModelSpecError("model parameters must be finite")
        if self.family in (QR, QRABI, AB_FRAME):
            if self.spin_dim != 2 or self.modes != 1 or len(self.alphas) != 1:
                raise ModelSpecError("%s is a two-level single-mode model" % self.family)
            g1, g2 = self.gammas
            if not g1 > g2:
                raise ModelSpecError("level parameters must satisfy gamma1 > gamma2")
        else:
            n = self.spin_dim - 1
            if n < 1:
                raise ModelSpecError("at least two levels required")
            if len(self.alphas) != n or len(self.gammas) != n or self.modes != n:
                raise ModelSpecError(
                    "%s with %d levels needs %d couplings, gammas and cutoffs"
                    % (self.family, self.spin_dim, n)
                )
            if any(a == 0.0 for a in self.alphas):
                raise ModelSpecError("all couplings must be nonzero")
            if any(self.gammas[i] > self.gammas[i + 1] for i in range(n - 1)):
                raise ModelSpecError("level parameters must be ascending")
        if any(c < 1 for c in self.cutoffs):
            raise ModelSpecError("cutoffs must be at least 1")

    def with_cutoffs(self, cutoffs):
        return ModelSpec(self.family, self.spin_dim, self.alphas, self.gammas,
                         self.eps, tuple(int(c) for c in cutoffs), self.delta)


def _ladder(basis, mode):
    """The entries of x_mode (1-based) above the diagonal on the mode space:
    index arrays lower and upper = lower + stride, where mode's occupation n
    is one higher, and the values <n+1|x|n> = sqrt((n + 1) / 2)."""
    dims = basis.mode_dims
    stride = basis.mode_space_dim // math.prod(dims[:mode])
    n = np.arange(basis.mode_space_dim) // stride % dims[mode - 1]
    lower = np.nonzero(n < dims[mode - 1] - 1)[0]
    return lower, lower + stride, np.sqrt((n[lower] + 1) / 2.0)


def position_matrix(basis, mode=1):
    """Multiplication by x_mode, tridiagonal with <n+1|x|n> = sqrt((n+1)/2)."""
    if not 1 <= mode <= basis.modes:
        raise ValueError("mode %d out of range" % mode)
    msd = basis.mode_space_dim
    lower, upper, value = _ladder(basis, mode)
    mat = np.zeros((basis.dim, basis.dim))
    for s in range(basis.spin_dim):
        r, c = s * msd + lower, s * msd + upper
        mat[r, c] = mat[c, r] = value
    return TruncatedOperator(basis, mat)


def _harmonic_diag(basis):
    # sum_j (n_j + 1/2) on the mode space; half-integers, so exact
    return basis.mode_occupation() + 0.5 * basis.modes


def harmonic_matrix(basis):
    """Sum over modes of (n_j + 1/2), diagonal, tensored with spin identity."""
    occ = _harmonic_diag(basis)
    return TruncatedOperator(basis, np.diag(np.tile(occ, basis.spin_dim)))


def coupling_pattern(family, spin_dim, k):
    """The (row, col) level pair coupled by coupling k (1-based), 0-based
    and row < col. Every family couples (0, 1) at two levels."""
    if family == XI:
        return k - 1, k
    if family == LAMBDA:
        return k - 1, spin_dim - 1
    return 0, k


def build(spec):
    """Assemble the truncated Hamiltonian for the given ModelSpec.

    The AB frame is stored dense. Every other family is stored as its
    occupation-layer blocks, and the dense matrix is assembled only when
    op.matrix is read (TruncatedOperator). Two budgets apply, each checked
    before allocating: build raises ResourceError when the AB frame's dense
    matrix, or the bytes of all layer blocks, would exceed
    DENSE_BUDGET_BYTES; reading op.matrix checks the dense matrix itself.
    """
    spec.validate()
    basis = spec.basis()
    if spec.family == AB_FRAME:
        check_dense_budget(basis)
        return _build_ab(spec, basis)
    what = "occupation-layer blocks of dimension %d need" % basis.dim
    # each of the sum(cutoffs) + 1 layers holds at least spin_dim states, a
    # bound that refuses huge cutoffs before the layer sizes are formed
    n_layers = sum(spec.cutoffs) + 1
    _check_budget(what, 8 * spec.spin_dim ** 2 * (2 * n_layers - 1))
    # layer N holds spin_dim times the number of mode states of total
    # occupation N: the coefficients of prod_k (1 + x + ... + x^c_k)
    sizes = spec.spin_dim * functools.reduce(
        np.convolve, [np.ones(c + 1) for c in spec.cutoffs])
    _check_budget(what, 8 * (sizes @ sizes + sizes[1:] @ sizes[:-1]))
    sizes = sizes.astype(np.intp)
    # QR/QRabi scale their levels by eps; the N-level families carry the
    # bare (0, gammas...) and eps only enters the subprincipal analysis
    if spec.family in (QR, QRABI):
        levels = spec.eps * np.asarray(spec.gammas)
    else:
        levels = np.concatenate(([0.0], np.asarray(spec.gammas)))
    msd = basis.mode_space_dim
    diag_values = (np.tile(_harmonic_diag(basis), spec.spin_dim)
                   + np.repeat(levels, msd))
    if spec.family == QRABI:
        diag_values -= 0.5
    # layer and position within the layer of every basis index
    occ = basis.mode_occupation()
    layer = np.tile(occ, spec.spin_dim)
    pos = np.empty(basis.dim, dtype=np.intp)
    pos[np.concatenate(basis.occupation_layers())] = (
        np.arange(basis.dim) - np.repeat(np.cumsum(sizes) - sizes, sizes))
    # all diagonal blocks, then all coupling blocks (layer N + 1 by N), are
    # row-major slices of one buffer each; the diagonal blocks are diagonal
    diag_sizes = sizes * sizes
    low_sizes = sizes[1:] * sizes[:-1]
    diag_start = np.cumsum(diag_sizes) - diag_sizes
    low_start = np.cumsum(low_sizes) - low_sizes
    diag_buf = np.zeros(diag_sizes.sum())
    diag_buf[diag_start[layer] + pos * (sizes[layer] + 1)] = diag_values
    low_buf = np.zeros(low_sizes.sum())
    # coupling k is alpha_k x_k on the spin blocks (i, j) and (j, i): entry
    # (row in layer N, col in layer N + 1) lands at [pos[col], pos[row]]
    for k in range(1, spec.spin_dim):
        i, j = coupling_pattern(spec.family, spec.spin_dim, k)
        lower, upper, value = _ladder(basis, k)
        value = spec.alphas[k - 1] * value
        row_layer = occ[lower]
        for a, b in ((i, j), (j, i)):
            r, c = a * msd + lower, b * msd + upper
            low_buf[low_start[row_layer] + pos[c] * sizes[row_layer]
                    + pos[r]] = value
    return TruncatedOperator(basis, None, (
        [diag_buf[o:o + m * m].reshape(m, m)
         for o, m in zip(diag_start, sizes)],
        [low_buf[o:o + m1 * m].reshape(m1, m)
         for o, m, m1 in zip(low_start, sizes, sizes[1:])]))


def parity_chains(spec):
    """[(diag, off) for parity sector +, sector -] of a QR/QRabi model: the
    tridiagonal chains |n, spin n mod 2> and |n, spin 1 - n mod 2> for
    n = 0..cutoff, formed as in build so each equals its sector exactly."""
    spec.validate()
    if spec.family not in (QR, QRABI):
        raise ValueError("parity splitting requires a QR-type two-level model")
    n = np.arange(spec.cutoffs[0] + 1)
    off = spec.alphas[0] * np.sqrt(n[1:] / 2.0)
    levels = spec.eps * np.asarray(spec.gammas)
    shift = 0.5 if spec.family == QRABI else 0.0
    return [((n + 0.5) + levels[s] - shift, off) for s in (n % 2, 1 - n % 2)]


def _build_ab(spec, basis):
    cut = spec.cutoffs[0]
    alpha = spec.alphas[0]
    g1, g2 = spec.gammas
    beta1 = 0.5 * (g1 + g2)
    beta2 = 0.5 * (g1 - g2)
    d = displacement_matrix(cut, alpha)
    p0 = np.diag(np.arange(cut + 1) + 0.5 + spec.eps * beta1)
    c = (spec.eps * beta2) * d
    mat = np.block([[p0, c], [c.T, p0]])
    return TruncatedOperator(basis, mat)


def parity_matrix(basis):
    """Spin-flip times mode parity, diagonal in the product basis.

    Only defined for the two-level single-mode models: +(-1)^n on the
    spin-up block, -(-1)^n on the spin-down block.
    """
    if basis.spin_dim != 2 or basis.modes != 1:
        raise ValueError("parity operator defined for spin_dim=2, one mode")
    signs = (-1.0) ** np.arange(basis.mode_dims[0])
    return TruncatedOperator(basis, np.diag(np.concatenate((signs, -signs))))


def export_matrix(op, path):
    """Binary dump: one JSON header line, then row-major little-endian doubles."""
    mat = op.matrix
    header = {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "dtype": "<f8",
        "order": "C",
        "basis": {
            "modes": op.basis.modes,
            "per_mode_cutoff": list(op.basis.per_mode_cutoff),
            "spin_dim": op.basis.spin_dim,
        },
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())


def load_matrix(path):
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        data = np.frombuffer(f.read(), dtype="<f8")
    mat = data.reshape(header["rows"], header["cols"]).astype(float)
    b = header["basis"]
    basis = BasisDescriptor(b["modes"], tuple(b["per_mode_cutoff"]), b["spin_dim"])
    return TruncatedOperator(basis, mat)
