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
multi-index in row-major order. Assembly goes through sparse Kronecker
products and densifies once, which keeps every matrix bitwise symmetric and
makes the large multimode cases affordable.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ModelSpecError
from .overlaps import displacement_matrix

QR = "QR"
QRABI = "QRabi"
AB_FRAME = "ABFrame"
XI = "Xi"
LAMBDA = "Lambda"
VEE = "Vee"

FAMILIES = (QR, QRABI, AB_FRAME, XI, LAMBDA, VEE)


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


@dataclass
class TruncatedOperator:
    basis: BasisDescriptor
    matrix: np.ndarray

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


def _x_sparse(dim):
    off = np.sqrt(np.arange(1.0, dim) / 2.0)
    return sp.diags([off, off], [1, -1], shape=(dim, dim), format="csr")


def _mode_factor(basis, mode, opmat):
    """I x ... x opmat(mode) x ... x I on the mode space as sparse, mode is
    1-based."""
    acc = sp.identity(1, format="csr")
    for j, d in enumerate(basis.mode_dims, start=1):
        f = opmat if j == mode else sp.identity(d, format="csr")
        acc = sp.kron(acc, f, format="csr")
    return acc


def _mode_operator(basis, mode, opmat):
    """I_spin x _mode_factor(basis, mode, opmat) as sparse."""
    return sp.kron(sp.identity(basis.spin_dim, format="csr"),
                   _mode_factor(basis, mode, opmat), format="csr")


def position_matrix(basis, mode=1):
    """Multiplication by x_mode, tridiagonal with <n+1|x|n> = sqrt((n+1)/2)."""
    if not 1 <= mode <= basis.modes:
        raise ValueError("mode %d out of range" % mode)
    m = _mode_operator(basis, mode, _x_sparse(basis.mode_dims[mode - 1]))
    return TruncatedOperator(basis, m.toarray())


def _harmonic_diag(basis):
    occ = np.zeros(basis.mode_space_dim)
    for j, d in enumerate(basis.mode_dims):
        ns = np.arange(d) + 0.5
        shape = [1] * basis.modes
        shape[j] = d
        occ = occ + np.broadcast_to(ns.reshape(shape), basis.mode_dims).ravel()
    return occ


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
    """Assemble the truncated Hamiltonian for the given ModelSpec."""
    spec.validate()
    basis = spec.basis()
    if spec.family == AB_FRAME:
        return _build_ab(spec, basis)
    h = sp.kron(sp.identity(spec.spin_dim, format="csr"),
                sp.diags(_harmonic_diag(basis), format="csr"), format="csr")
    for k in range(1, spec.spin_dim):
        i, j = coupling_pattern(spec.family, spec.spin_dim, k)
        c = sp.csr_matrix(([1.0, 1.0], ([i, j], [j, i])),
                          shape=(spec.spin_dim, spec.spin_dim))
        x = _mode_factor(basis, k, _x_sparse(basis.mode_dims[k - 1]))
        h = h + spec.alphas[k - 1] * sp.kron(c, x, format="csr")
    # QR/QRabi scale their levels by eps; the N-level families carry the
    # bare (0, gammas...) and eps only enters the subprincipal analysis
    if spec.family in (QR, QRABI):
        levels = spec.eps * np.asarray(spec.gammas)
    else:
        levels = np.concatenate(([0.0], np.asarray(spec.gammas)))
    h = h + sp.kron(sp.diags(levels, format="csr"),
                    sp.identity(basis.mode_space_dim, format="csr"), format="csr")
    mat = h.toarray()
    if spec.family == QRABI:
        mat[np.diag_indices_from(mat)] -= 0.5
    return TruncatedOperator(basis, mat)


def parity_chains(spec):
    """[(diag, off) for parity sector +, sector -] of a QR/QRabi model: the
    tridiagonal chains |n, spin n mod 2> and |n, spin 1 - n mod 2> for
    n = 0..cutoff, formed as in build so each equals its sector exactly."""
    spec.validate()
    if spec.family not in (QR, QRABI):
        raise ValueError("parity splitting requires a QR-type two-level model")
    n = np.arange(spec.cutoffs[0] + 1)
    off = spec.alphas[0] * _x_sparse(n.size).diagonal(1)
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
