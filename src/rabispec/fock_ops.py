"""Truncated Fock-basis assembly of the model Hamiltonians.

Supported families:

* QR        harmonic x I2 + alpha x sigma_x + eps diag(gamma1, gamma2)
* QRabi     the QR operator at gamma1 = -gamma2 = delta, shifted by -1/2
* ABFrame   harmonic x I2 + eps [[beta1, beta2 D], [beta2 D^T, beta1]]
            with D the normalized displacement matrix; spectrally equal to
            QR + alpha^2/2 at matched truncation, and built as the two
            dense parity sectors of half its dimension (ab_sectors)
* Xi        N levels chained k <-> k+1 through n = N-1 oscillator modes
* Lambda    N levels, every lower level coupled into level N
* Vee       N levels, level 1 coupled out to every upper level

Layout convention everywhere: spin index slowest, then the oscillator
multi-index in row-major order. build stores every operator as its parity
sectors, which no entry joins, and the dense matrix is formed only when it
is read. The AB frame has two, which share one diagonal and one full
coupling block (ABSector). Every coupling of the other families moves one
quantum, so they are block tridiagonal in the occupation layers, and they
keep one Z2 parity per mode (sector_labels): 2^modes sectors, the two of
QR and QRabi tridiagonal chains. No entry joins two states of one layer,
so assembly keeps each sector's diagonal as one vector and each
coupling's ladder entries, the pairs of mode-space indices one quantum
apart, as (row, col, value) entries between consecutive layers; the dense
matrix is formed from them and their mirror images, bitwise symmetric.
"""

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ModelSpecError, PrecisionError, check_budget
from .overlaps import displacement_matrix

QR = "QR"
QRABI = "QRabi"
AB_FRAME = "ABFrame"
XI = "Xi"
LAMBDA = "Lambda"
VEE = "Vee"

FAMILIES = (QR, QRABI, AB_FRAME, XI, LAMBDA, VEE)

def check_dense_budget(basis):
    """Raise ResourceError when a dense matrix on basis would exceed
    errors.DENSE_BUDGET_BYTES."""
    check_budget("dense matrix of dimension %d needs" % basis.dim,
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


class Sector(NamedTuple):
    """One parity sector of a layered operator: its basis indices in block
    order, the sizes of its nonempty occupation layers, its diagonal over
    index (diag), and its coupling entries: entry i joins position rows[i],
    in layer k + 1, to position cols[i], in layer k, with the value low[i],
    sorted by row and, within a row, by coupling. Every coupling moves one
    quantum, so no entry joins two states of one layer: the blocks on the
    layers are diagonal, and diag holds them. A sector whose layers all
    hold one state, as both sectors of QR and QRabi do, holds one entry per
    row after the first: it is the tridiagonal chain (diag, low).

    first is the total occupation of layer 0. floor and coupling bound the
    sector per layer k (build sets them, _layer_bounds): its matrix on the
    layers above k is at least floor[k], and the block from layer k to
    k + 1 has squared norm at most coupling[k]."""

    index: np.ndarray
    sizes: np.ndarray
    diag: np.ndarray
    low: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    first: int
    floor: np.ndarray
    coupling: np.ndarray

    def chain(self):
        """(diag, low) when every layer holds one state, else None."""
        if self.sizes.size != self.index.size:
            return None
        return self.diag, self.low

    def low_blocks(self):
        """(rows, cols, block) per coupling block, from layer 0 up: the
        slices of index, and of diag, holding layer k + 1 (rows) and layer
        k (cols), and the dense block from k to k + 1, formed from the
        layer's entries only when the generator reaches it."""
        edges = np.cumsum([0] + self.sizes.tolist()).tolist()
        ends = np.searchsorted(self.rows, edges).tolist()
        for a, b, c, lo, hi in zip(edges, edges[1:], edges[2:], ends[1:],
                                   ends[2:]):
            block = np.zeros((c - b, b - a))
            block[self.rows[lo:hi] - b, self.cols[lo:hi] - a] = self.low[lo:hi]
            yield slice(b, c), slice(a, b), block

    def matrix(self):
        """The dense sector matrix, over index."""
        mat = np.diag(self.diag)
        mat[self.rows, self.cols] = self.low
        mat[self.cols, self.rows] = self.low
        return mat


class ABSector(NamedTuple):
    """Parity sector s = sign of the AB frame: on the oscillator,
    H_s = diag(diag) + s c diag((-1)^k), c = eps beta2 D the block joining
    the spin blocks. The parity is spin flip times (-1)^k: the frame vector
    of sector s is (x, s (-1)^k x), and sector +1 holds the symmetric spin
    combination on even k. Both sectors of a build share diag and c."""

    diag: np.ndarray
    c: np.ndarray
    sign: float

    def chain(self):
        """None: the coupling block is full."""
        return None

    def matrix(self):
        """The dense H_s, bitwise symmetric because D[k, N] =
        (-1)^(N + k) D[N, k] holds bitwise."""
        signs = self.sign * (-1.0) ** np.arange(self.diag.size)
        return np.diag(self.diag) + self.c * signs


class TruncatedOperator:
    """A truncated matrix on its basis. sectors, when set, lists the
    sectors of the matrix, which no entry couples (Sector, ABSector), so
    count_below and eigen_spectrum work sector by sector.

    build declares the sectors and stores no matrix. Reading matrix then
    assembles the dense matrix, anew on every read: the AB frame
    [[P, C], [C^T, P]] from its sectors' shared diag and c, any other by
    placing each sector's diagonal, then each of its coupling entries and
    their mirror images, on the sector's basis indices. It raises
    ResourceError, before allocating, when the matrix would exceed
    errors.DENSE_BUDGET_BYTES. A stored matrix is returned as it is.
    """

    def __init__(self, basis, matrix, sectors=None):
        if matrix is None and sectors is None:
            raise ValueError("an operator needs a matrix or its sectors")
        if matrix is not None and matrix.shape != (basis.dim, basis.dim):
            raise ValueError("matrix shape does not match basis dimension")
        self.basis = basis
        self._matrix = matrix
        self.sectors = sectors

    @property
    def matrix(self):
        if self._matrix is not None:
            return self._matrix
        check_dense_budget(self.basis)
        mat = np.zeros((self.basis.dim, self.basis.dim))
        if isinstance(self.sectors[0], ABSector):
            diag, c, _ = self.sectors[0]
            n = diag.size
            mat[:n, n:], mat[n:, :n] = c, c.T
            on = mat.reshape(-1)[::2 * n + 1]  # a view of the diagonal
            on[:n] = on[n:] = diag
            return mat
        for s in self.sectors:
            rows, cols = s.index[s.rows], s.index[s.cols]
            mat[s.index, s.index] = s.diag
            mat[rows, cols] = s.low
            mat[cols, rows] = s.low
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

    # -- constructors -------------------------------------------------------

    @classmethod
    def qr(cls, alpha, gamma1, gamma2, eps, cutoff):
        return cls(QR, 2, (float(alpha),), (float(gamma1), float(gamma2)),
                   float(eps), (int(cutoff),))

    @classmethod
    def qrabi(cls, alpha, delta, eps, cutoff):
        return cls(QRABI, 2, (float(alpha),), (float(delta), -float(delta)),
                   float(eps), (int(cutoff),))

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
                         self.eps, tuple(int(c) for c in cutoffs))


def _ladder(basis, mode):
    """The entries of x_mode (1-based) above the diagonal on the mode space:
    index arrays lower and upper = lower + stride, where mode's occupation n
    is one higher, and the values <n+1|x|n> = sqrt((n + 1) / 2)."""
    dims = basis.mode_dims
    stride = basis.mode_space_dim // math.prod(dims[:mode])
    n = np.arange(basis.mode_space_dim) // stride % dims[mode - 1]
    lower = np.nonzero(n < dims[mode - 1] - 1)[0]
    return lower, lower + stride, np.sqrt((n[lower] + 1) / 2.0)


def coupling_pattern(family, spin_dim, k):
    """The (row, col) level pair coupled by coupling k (1-based), 0-based
    and row < col. Every family couples (0, 1) at two levels."""
    if family == XI:
        return k - 1, k
    if family == LAMBDA:
        return k - 1, spin_dim - 1
    return 0, k


def _far_sides(family, spin_dim):
    """sigma[k - 1, level]: 1 where level lies beyond coupling k as seen
    from level 0. The couplings join the levels into a tree, a chain for
    Xi and a star for Lambda and Vee, so removing coupling k leaves two
    sides; sigma is 1 on the side without level 0."""
    n = spin_dim - 1
    adj = np.zeros((n, spin_dim, spin_dim))
    for k in range(1, spin_dim):
        i, j = coupling_pattern(family, spin_dim, k)
        adj[:, i, j] = adj[:, j, i] = 1.0
        adj[k - 1, i, j] = adj[k - 1, j, i] = 0.0
    # walks of at most n steps from level 0 in the tree without coupling k
    reach = np.linalg.matrix_power(adj + np.eye(spin_dim), n)[:, 0]
    return (reach == 0).astype(np.intp)


def sector_labels(spec):
    """Parity sector of every basis index of a QR, QRabi, Xi, Lambda or Vee
    model: an integer whose bit k - 1 is (n_k + sigma_k(level)) mod 2.

    sigma_k (_far_sides) is 1 on the levels beyond coupling k as seen from
    level 0. Coupling k changes n_k by one and crosses to the other side of
    itself; every other coupling leaves n_k and sigma_k alone. So each
    Pi_k = (-1)^(n_k + sigma_k) commutes with H, and no matrix entry joins
    two labels. Xi has sigma_k = [level >= k], Vee [level = k], Lambda
    [level != 0] for k = 1 and [level = k - 1] after. Every state of level
    0 and even occupations is in sector 0. QR and QRabi have two sectors,
    0 the "+" parity chain |n, spin n mod 2> and 1 the "-" chain
    |n, spin 1 - n mod 2>.
    """
    spec.validate()
    if spec.family == AB_FRAME:
        raise ValueError("the AB frame basis carries no per-mode parity")
    basis = spec.basis()
    return _labels(np.indices(basis.mode_dims).reshape(spec.modes, -1),
                   _far_sides(spec.family, spec.spin_dim))


def _labels(occupations, sigma):
    """sector_labels from the occupations n[k - 1, mode-space index] and
    the _far_sides table sigma."""
    weights = 1 << np.arange(sigma.shape[0])
    return np.bitwise_xor.outer(weights @ sigma,
                                weights @ (occupations % 2)).ravel()


def _layer_bounds(spec, levels, n_layers):
    """The Sector bounds (floor, coupling) of every occupation layer
    L = 0 .. n_layers - 1 of a layered model whose levels sit at levels.

    With s = sum_k alpha_k^2, a = L + 1 + modes/2 and l the lowest level
    (QRabi takes its 1/2 off):
    on the states above layer L the harmonic part T = sum_k (n_k + 1/2) is
    at least a, x_k^2 <= 2 (n_k + 1/2), each coupler E_ij + E_ji has norm
    1, and Cauchy-Schwarz gives sum_k |alpha_k| |<x_k E>| <= sqrt(2 s T);
    T - sqrt(2 s T) rises in T from T = s/2 on, so where a >= s/2 the
    matrix there is at least floor = a - sqrt(2 a s) + l (-inf elsewhere).
    The block from layer L to L + 1 is sum_k alpha_k (E_ij + E_ji)
    a_k^dagger / sqrt(2), and a_k^dagger / sqrt(2) has squared norm at
    most (L + 1) / 2 on layer L. Cauchy-Schwarz on each target level's
    part, summed, weighs each source level's part by the alpha_k^2 of the
    couplings at its neighbours; the couplings join the levels into a tree
    (_far_sides), which has no triangle, so no coupling is weighed twice
    and coupling = s (L + 1) / 2, attained at L = 0 when one level meets
    every coupling. It is rounded up by 4 (modes + 1) units of roundoff,
    more than the rounding of s, of the product and of the entries it
    bounds can lose, so coupling[L] >= low[L]^2 holds for the rounded
    entries of a chain too.
    """
    s = sum(a * a for a in spec.alphas)
    layer = np.arange(n_layers, dtype=float)
    a = layer + 1.0 + 0.5 * spec.modes
    lowest = levels.min() - (0.5 if spec.family == QRABI else 0.0)
    floor = np.where(a >= 0.5 * s, a - np.sqrt(2.0 * a * s) + lowest,
                     -np.inf)
    slack = 1.0 + 4.0 * (spec.modes + 1) * np.finfo(float).eps
    return floor, 0.5 * s * (layer + 1.0) * slack


def check_build_budget(spec):
    """Raise ModelSpecError for a malformed spec, and ResourceError where
    build(spec) would exceed errors.DENSE_BUDGET_BYTES, before any array is
    formed: for the AB frame when its dense matrix would (its sectors and
    the displacement matrix take half of that), for a layered family when
    the arrays of its build would, counted from the spec alone
    (_build_bytes)."""
    spec.validate()
    if spec.family == AB_FRAME:
        check_dense_budget(spec.basis())
    else:
        check_budget("occupation-layer blocks of dimension %d need"
                     % spec.basis().dim, _build_bytes(spec))


def build(spec):
    """Assemble the truncated Hamiltonian for the given ModelSpec.

    Every family is stored as its sectors, and the dense matrix is
    assembled only when op.matrix is read (TruncatedOperator). The AB frame
    has two, s = +1 and s = -1, from one displacement matrix (ab_sectors).
    Every layered family has one Sector per sector_labels value, 2^modes in
    all: QR and QRabi have two, the "+" and the "-" parity chain
    (Sector.chain). The basis indices are ordered by sector, then layer,
    by one stable argsort of the group key label * n_layers + occupation,
    whose bincount sizes the groups, and the diagonal of all sectors is one
    vector in that order. Each
    coupling's ladder arrays become entries (position of the upper state,
    position of the lower state, value) in that order, and one stable
    argsort sorts them by row. Each sector is a slice of the order, the
    diagonal and the entries, its positions counted from its own first
    state, with its empty layers at either end dropped, and carries its
    first occupation and its per-layer bounds (_layer_bounds).
    The spec and its budget are checked before any array is formed
    (check_build_budget), and a diagonal or coupling entry past the double
    range raises PrecisionError (_check_entries); reading op.matrix checks
    the dense matrix itself.
    """
    check_build_budget(spec)
    basis = spec.basis()
    if spec.family == AB_FRAME:
        return TruncatedOperator(basis, None, ab_sectors(
            spec, displacement_matrix(spec.cutoffs[0], spec.alphas[0])))
    sigma = _far_sides(spec.family, spec.spin_dim)
    # QR/QRabi scale their levels by eps; the N-level families carry the
    # bare (0, gammas...) and eps only enters the subprincipal analysis
    if spec.family in (QR, QRABI):
        levels = spec.eps * np.asarray(spec.gammas)
    else:
        levels = np.concatenate(([0.0], np.asarray(spec.gammas)))
    n_layers = sum(spec.cutoffs) + 1
    msd = basis.mode_space_dim
    occupations = np.indices(basis.mode_dims).reshape(spec.modes, -1)
    occ = occupations.sum(axis=0)
    # the basis indices ordered by (sector, layer) group, the size of every
    # group, and the position of every index in that order
    group = (_labels(occupations, sigma) * n_layers
             + np.tile(occ, spec.spin_dim))
    order = np.argsort(group, kind="stable")
    grid = np.bincount(group, minlength=2 ** spec.modes * n_layers).reshape(
        2 ** spec.modes, n_layers)
    del group
    at = np.empty_like(order)
    at[order] = np.arange(basis.dim)
    # the harmonic diagonal sum_j (n_j + 1/2): half-integers, so exact
    diag = (np.tile(occ + 0.5 * spec.modes, spec.spin_dim)
            + np.repeat(levels, msd))[order]
    if spec.family == QRABI:
        diag -= 0.5
    rows, cols, low = map(np.concatenate, zip(*_entries(spec, at)))
    by_row = np.argsort(rows, kind="stable")
    rows = rows[by_row]
    cols = cols[by_row]
    low = low[by_row]
    _check_entries(diag, low)
    # each sector's states are consecutive: sector s is [e[s], e[s + 1]) of
    # order and diag, and its entries are those whose rows lie there
    edges = np.cumsum([0] + grid.sum(axis=1).tolist()).tolist()
    ends = np.searchsorted(rows, edges).tolist()
    floor, coupling = _layer_bounds(spec, levels, n_layers)
    sectors = []
    for row, a, x, c, z in zip(grid, edges, edges[1:], ends, ends[1:]):
        rows[c:z] -= a
        cols[c:z] -= a
        f, n = int(np.argmax(row > 0)), int(np.count_nonzero(row))
        sectors.append(Sector(order[a:x], row[row > 0], diag[a:x], low[c:z],
                              rows[c:z], cols[c:z], f, floor[f:f + n],
                              coupling[f:f + n]))
    return TruncatedOperator(basis, None, sectors)


def _entries(spec, at):
    """(rows, cols, values) of coupling k's ladder entries on the spin
    blocks (i, j) and (j, i), for every k: each joins the state one quantum
    up (row) to the state below (col), both as their places at[index]."""
    basis = spec.basis()
    msd = basis.mode_space_dim
    for k in range(1, spec.spin_dim):
        i, j = coupling_pattern(spec.family, spec.spin_dim, k)
        lower, upper, value = _ladder(basis, k)
        value = spec.alphas[k - 1] * value
        for a, b in ((i, j), (j, i)):
            yield at[b * msd + upper], at[a * msd + lower], value


def _build_bytes(spec):
    """A bound on the bytes that build holds at once for a layered spec,
    from the spec alone: 8 for each of
    * per basis state, 5: order, at and diag, and 2 temporaries, the most
      one statement forms beside its result (diag's tiled and repeated
      terms; the labels' multiple and the tiled occupations);
    * per mode-space index, 2 modes + 2: the occupations and occ, and the
      parities and their weighted sum in _labels, more than the ladder's
      arrays beside the entries formed before them;
    * per ladder entry, cutoff_k / (cutoff_k + 1) per mode-space index for
      coupling k, 11: its rows and cols in both directions and its value,
      which both share (_entries), and their concatenations, 2 each of
      rows, cols and values; the argsort and the permuted arrays, one at a
      time, take less;
    * per (sector, layer) group, 2: grid, the bincount of the group key,
      and the layer sizes the sectors keep from it;
    * per layer, 6: floor, coupling and the temporaries of _layer_bounds.
    """
    basis = spec.basis()
    msd = basis.mode_space_dim
    ladder = sum(msd // (c + 1) * c for c in spec.cutoffs)
    layers = sum(spec.cutoffs) + 1
    return 8 * (5 * basis.dim + (2 * spec.modes + 2) * msd + 11 * ladder
                + 2 * 2 ** spec.modes * layers + 6 * layers)


def ab_sectors(spec, d):
    """The two parity sectors (ABSector), s = +1 then s = -1, of an AB
    frame model at cutoff K from its displacement matrix d: both hold the
    diagonal n + 1/2 + eps beta1 of each spin block and the block
    eps beta2 D that joins them, with beta1, beta2 = (gamma1 +- gamma2) / 2.
    An entry past the double range raises PrecisionError (_check_entries).
    """
    cut = spec.cutoffs[0]
    g1, g2 = spec.gammas
    beta1 = 0.5 * (g1 + g2)
    beta2 = 0.5 * (g1 - g2)
    diag = np.arange(cut + 1) + 0.5 + spec.eps * beta1
    c = (spec.eps * beta2) * d
    _check_entries(diag, c)
    return [ABSector(diag, c, 1.0), ABSector(diag, c, -1.0)]


def _check_entries(*arrays):
    """Raise PrecisionError unless every entry of the arrays is finite:
    finite parameters can still give matrix entries past the double range
    (eps gamma, alpha sqrt(n / 2), eps beta2 D), and a count or a solve
    over them would be wrong or fail."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise PrecisionError("the model's matrix entries overflow the double "
                             "range")


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
        f.write(np.ascontiguousarray(mat, dtype="<f8").data)


def load_matrix(path):
    """The operator written by export_matrix. A matrix over
    errors.DENSE_BUDGET_BYTES raises ResourceError before its body is
    read, and the body is read into the one array it fills; a body of
    another length raises ValueError."""
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        rows, cols = header["rows"], header["cols"]
        check_budget("a stored matrix of %d x %d needs" % (rows, cols),
                     8 * rows * cols)
        mat = np.empty((rows, cols), dtype="<f8")
        if f.readinto(mat.data) != mat.nbytes or f.read(1):
            raise ValueError("the matrix body does not hold %d x %d doubles"
                             % (rows, cols))
    b = header["basis"]
    basis = BasisDescriptor(b["modes"], tuple(b["per_mode_cutoff"]), b["spin_dim"])
    return TruncatedOperator(basis, mat)
