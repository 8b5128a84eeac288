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
multi-index in row-major order. Assembly scatters the ladder entries of each
coupling, the pairs of mode-space indices one quantum apart, straight into
the dense matrix and its transpose, which keeps every matrix bitwise
symmetric.
"""

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

# build refuses a dense matrix larger than this (2 GiB: dimension 16 384)
DENSE_BUDGET_BYTES = 2 * 1024 ** 3


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

    def occupation_layers(self):
        """Basis indices of total occupation N = sum_k n_k, one ascending
        index array per N = 0 .. sum of the cutoffs, every spin included."""
        occ = np.indices(self.mode_dims).sum(axis=0).ravel()
        occ = np.tile(occ, self.spin_dim)
        order = np.argsort(occ, kind="stable")
        return np.split(order, np.cumsum(np.bincount(occ))[:-1])


@dataclass
class TruncatedOperator:
    """A truncated matrix on its basis. layers, when set, is the pair
    (diagonal blocks, lower coupling blocks) of the matrix over
    basis.occupation_layers(), declared by build for the families that
    couple only adjacent layers; count_below then works on the blocks."""

    basis: BasisDescriptor
    matrix: np.ndarray
    layers: tuple | None = None

    def __post_init__(self):
        if self.matrix.shape != (self.basis.dim, self.basis.dim):
            raise ValueError("matrix shape does not match basis dimension")


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
    return np.indices(basis.mode_dims).sum(axis=0).ravel() + 0.5 * basis.modes


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

    Raises ResourceError, before allocating, when the dense matrix would
    exceed DENSE_BUDGET_BYTES.
    """
    spec.validate()
    basis = spec.basis()
    need = 8 * basis.dim ** 2
    if need > DENSE_BUDGET_BYTES:
        raise ResourceError(
            "dense matrix of dimension %d needs %.3g GiB, over the %.3g GiB "
            "budget" % (basis.dim, need / 2 ** 30,
                        DENSE_BUDGET_BYTES / 2 ** 30))
    if spec.family == AB_FRAME:
        return _build_ab(spec, basis)
    # QR/QRabi scale their levels by eps; the N-level families carry the
    # bare (0, gammas...) and eps only enters the subprincipal analysis
    if spec.family in (QR, QRABI):
        levels = spec.eps * np.asarray(spec.gammas)
    else:
        levels = np.concatenate(([0.0], np.asarray(spec.gammas)))
    msd = basis.mode_space_dim
    mat = np.zeros((basis.dim, basis.dim))
    np.fill_diagonal(mat, np.tile(_harmonic_diag(basis), spec.spin_dim)
                     + np.repeat(levels, msd))
    # coupling k is alpha_k x_k on the spin blocks (i, j) and (j, i)
    for k in range(1, spec.spin_dim):
        i, j = coupling_pattern(spec.family, spec.spin_dim, k)
        lower, upper, value = _ladder(basis, k)
        value = spec.alphas[k - 1] * value
        for a, b in ((i, j), (j, i)):
            r, c = a * msd + lower, b * msd + upper
            mat[r, c] = mat[c, r] = value
    if spec.family == QRABI:
        mat[np.diag_indices_from(mat)] -= 0.5
    # every coupling moves one quantum between a level pair and one mode, so
    # the matrix is block tridiagonal in the occupation layers
    layers = basis.occupation_layers()
    return TruncatedOperator(basis, mat, (
        [mat[np.ix_(a, a)] for a in layers],
        [mat[np.ix_(b, a)] for a, b in zip(layers, layers[1:])]))


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
    header = {
        "rows": op.matrix.shape[0],
        "cols": op.matrix.shape[1],
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
        f.write(np.ascontiguousarray(op.matrix, dtype="<f8").tobytes())


def load_matrix(path):
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        data = np.frombuffer(f.read(), dtype="<f8")
    mat = data.reshape(header["rows"], header["cols"]).astype(float)
    b = header["basis"]
    basis = BasisDescriptor(b["modes"], tuple(b["per_mode_cutoff"]), b["spin_dim"])
    return TruncatedOperator(basis, mat)
