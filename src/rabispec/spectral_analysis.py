"""Symmetric eigensolving with truncation control, parity-sector splitting,
inertia-based eigenvalue counting, and interval statistics of the shifted
spectrum.

Truncated matrices only approximate the operator, so every consumer-facing
routine here either grows the cutoffs until bounds for the operator itself
enclose the requested prefix of the spectrum, or refuses to draw
conclusions (the interval checker raises on an unconverged tail). The
Braak census of QR and QRabi (braak_census) is certified for the operator
itself: its counts come from Sturm sweeps whose brackets close.
"""

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import CoverageError, ResourceError, check_budget
from .fock_ops import (AB_FRAME, QR, QRABI, ABSector, ab_sectors, build,
                       check_build_budget, check_dense_budget)
from .overlaps import displacement_matrix

log = logging.getLogger(__name__)

GROWTH_FACTOR = 1.5
SINGLE_MODE_CAP = 4096
MULTI_MODE_CAP = 160
BOUNDARY_TOL = 1e-10
# chain rows per step of the census sweep (_census_sweep)
CENSUS_BLOCK_ROWS = 32
SYMMETRY_TILE = 2048
# growth bound of the layered count in units of max(1, max|A - lam I|): an
# eigenpair (w, v) of a Schur block is eliminated only if |C v|^2 / |w|,
# the norm of its update to the next layer, stays within it
LAYER_GROWTH = 1.0


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    parity: Optional[list]
    converged_count: int
    cutoffs_used: tuple
    model: object
    partial: bool = False

    def to_dict(self):
        d = {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "converged_count": self.converged_count,
            "cutoffs_used": list(self.cutoffs_used),
            "partial": self.partial,
        }
        if self.parity is not None:
            d["parity"] = list(self.parity)
        return d


class IntervalCount(NamedTuple):
    N: int
    total: int
    plus: Optional[int]
    minus: Optional[int]


@dataclass
class IntervalReport:
    per_interval: list
    verdicts: dict
    shift_applied: float
    boundary_values: list = field(default_factory=list)

    def to_dict(self):
        return {
            "per_interval": [
                {"N": c.N, "total": c.total, "plus": c.plus, "minus": c.minus}
                for c in self.per_interval
            ],
            "verdicts": self.verdicts,
            "shift_applied": self.shift_applied,
            "boundary_values": [float(v) for v in self.boundary_values],
        }


def _check_symmetric(m):
    """Raise ValueError unless the stored matrix m is finite and symmetric
    to dimension * macheps * max(1, max|m|). A NaN or an infinity would
    pass the comparisons below (max(0.0, nan) is 0.0), so either is
    refused first: np.max and np.min propagate them."""
    scale = asym = 0.0
    if m.size:
        hi, lo = m.max(), m.min()
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("matrix has non-finite entries")
        scale = max(hi, -lo)
        # m - m.T is antisymmetric, so the tiles on and above the diagonal
        # hold its maximum; no temporary larger than one tile is built
        t = SYMMETRY_TILE
        for i in range(0, m.shape[0], t):
            for j in range(i, m.shape[0], t):
                d = m[i:i + t, j:j + t] - m[j:j + t, i:i + t].T
                asym = max(asym, d.max(), -d.min())
    if asym > max(1.0, scale) * m.shape[0] * np.finfo(float).eps:
        raise ValueError("matrix is not symmetric: max asymmetry %g" % asym)


def eigen_spectrum(op):
    """All eigenvalues of a symmetric truncated operator, ascending.

    An operator with more than one sector (every build) is solved sector by
    sector and no matrix of the full dimension is formed (_solve_sectors,
    as in parity_split). Any other operator's matrix is checked for
    symmetry and solved whole.
    """
    if op.sectors is not None and len(op.sectors) > 1:
        return _solve_sectors(op.sectors)[0]
    import scipy.linalg  # loads at the first call, not with the package
    m = np.asarray(op.matrix, dtype=float)
    _check_symmetric(m)
    return np.sort(scipy.linalg.eigvalsh(m))


def _solve_sectors(sectors):
    """(eigenvalues, sector number of each) of all sectors (_merge): a
    chain sector (Sector.chain) solved by eigvalsh_tridiagonal on its own
    buffers, any other (an ABSector too) by one dense eigvalsh of its
    matrix. A sector bitwise equal to an earlier one (_once_per_matrix)
    reuses its eigenvalue array: at eps = 0 the spin flip commutes with H,
    so the two QR/QRabi parity chains are one chain, and LAPACK gives
    identical inputs identical outputs, so the merged values and labels
    are bitwise those of solving every sector."""
    import scipy.linalg  # loads at the first call, not with the package
    return _merge(_once_per_matrix(
        sectors,
        lambda s: scipy.linalg.eigvalsh(s.matrix()) if s.chain() is None
        else scipy.linalg.eigvalsh_tridiagonal(s.diag, s.low)))


def _sector_parts(sector):
    """The arrays of a sector that its solve and its count read, cheap ones
    first: the layer sizes and the first layer's diagonal come before the
    whole arrays, so a comparison part by part (_once_per_matrix) tells
    sectors that differ there apart without reading the rest. The entries'
    rows and cols are parts too: equal values at other positions are
    another matrix. An ABSector's sign comes first: the two AB sectors,
    which share diag and c, are told apart before c is read."""
    if isinstance(sector, ABSector):
        return np.float64(sector.sign), sector.diag, sector.c
    head = int(sector.sizes[0]) if sector.sizes.size else 0
    return (sector.sizes, sector.diag[:head], sector.diag, sector.low,
            sector.rows, sector.cols, sector.floor, sector.coupling)


def _once_per_matrix(sectors, solve):
    """[solve(s) for s in sectors] with solve called once per distinct
    matrix: a sector whose arrays (_sector_parts) are bitwise those of an
    earlier sector (_same_bits) gets that sector's result, the same object.
    solve must be deterministic, as LAPACK is on identical inputs; no
    result is kept past the call."""
    seen = []
    out = []
    for s in sectors:
        key = _sector_parts(s)
        got = next((r for k, r in seen if all(map(_same_bits, k, key))),
                   None)
        if got is None:
            got = solve(s)
            seen.append((key, got))
        out.append(got)
    return out


def _same_bits(a, b):
    """Whether arrays a and b have the same dtype, shape and bytes (-0.0
    is not 0.0, and a NaN matches its own bits)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    u = "u%d" % a.itemsize
    return np.array_equal(a.reshape(-1).view(u), b.reshape(-1).view(u))


def ab_spectra(specs):
    """[(eigenvalues, sector of each)] of AB frame models that share one
    cutoff and one alpha, each eigen_spectrum of the model's build with its
    sectors (_solve_sectors, sector 0 holding s = +1), all from one
    displacement matrix D. values[sector == i] is bitwise sector i's
    ascending eigenvalues (_merge). The models may differ in eps and the
    gammas, not in the cutoff or alpha, which fix D (ValueError). Every
    spec is checked before D is formed: a malformed spec raises
    ModelSpecError, another family ValueError, and a cutoff whose build
    would refuse ResourceError."""
    for spec in specs:
        spec.validate()
        if spec.family != AB_FRAME:
            raise ValueError("ab_spectra needs an AB frame model")
    key = {(spec.cutoffs, spec.alphas) for spec in specs}
    if len(key) != 1:
        raise ValueError("ab_spectra needs one cutoff and one alpha")
    (cutoffs, alphas), = key
    check_dense_budget(specs[0].basis())
    d = displacement_matrix(cutoffs[0], alphas[0])
    return [_solve_sectors(ab_sectors(spec, d)) for spec in specs]


def _merge(vals):
    """(eigenvalues, sector number of each) of the per-sector eigenvalue
    arrays vals merged by a stable sort, the lower sector first on exact
    ties."""
    which = np.repeat(np.arange(len(vals)), [v.size for v in vals])
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")
    return vals[order], which[order]


def _grow(cutoffs, cap):
    return tuple(min(cap, math.ceil(c * GROWTH_FACTOR)) for c in cutoffs)


def _check_step(step):
    """Refuse a growth step whose build, or for every family but QR and
    QRabi whose dense matrix, is over the budget (ResourceError)."""
    if step.family not in (QR, QRABI):
        check_dense_budget(step.basis())
    check_build_budget(step)


def _converge(spec, m, tol, cap):
    """Cutoff-growth driver: (Spectrum without labels, sector of each value).

    The steps grow from spec.cutoffs (_grow) up to the cap. Each step's
    budget (_check_step) is checked before the step before it is built, so
    a step is the last one at the cap or where the next one is refused; a
    refused first step raises before anything is built. A step with at
    least m eigenvalues, or the last one, is solved (_solve_sectors of its
    build) and certifies itself: its first k values are converged while
    each lies within tol of its lower bound (_lower_bounds). The first
    step with m converged values is returned (stop "enclosed"), else the
    last one, partial (stop "cap" or "budget"), whose first j = ceil(J / 2)
    values are bounded once more at mu = lambda_j, J the count of its first
    m values below the floor f (_floor): that encloses values where
    lambda_m lies at or above f. Its debug record names the
    stop, m, the steps tried (with the refused one on a budget stop) and
    each solved step as cutoffs:converged count:largest width.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if cap is None:
        cap = SINGLE_MODE_CAP if spec.modes == 1 else MULTI_MODE_CAP
    tried, solved = [spec.cutoffs], []
    _check_step(spec)
    while True:
        step = spec.with_cutoffs(tried[-1])
        stop = "cap" if all(c >= cap for c in step.cutoffs) else None
        if stop is None:
            grown = _grow(step.cutoffs, cap)
            try:
                _check_step(spec.with_cutoffs(grown))
            except ResourceError:
                stop = "budget"
        if stop or step.basis().dim >= m:
            sectors = build(step).sectors
            vals, sector = _solve_sectors(sectors)
            lower = _lower_bounds(step, sectors, vals, m)
            count = int(np.cumprod(vals[:m] - lower <= tol).sum())
            if stop and count < m:
                # partial: bound the first j = ceil(J / 2) once more at
                # mu = lambda_j, J the count of the first m values below f
                j = (int(np.sum(vals[:m] < _floor(step, sectors))) + 1) // 2
                if j:
                    lower[:j] = _lower_bounds(step, sectors, vals, j)
            width = vals[:m] - lower
            count = int(np.cumprod(width <= tol).sum())
            solved.append("%s:%d:%.3g" % ("x".join(map(str, step.cutoffs)),
                                          count, width.max()))
            if count >= m or stop:
                stop = "enclosed" if count >= m else stop
                steps = tried + [grown] if stop == "budget" else tried
                log.debug("converge stop=%s m=%d tried=%s solved=%s", stop,
                          m, ",".join("x".join(map(str, c)) for c in steps),
                          ",".join(solved))
                return Spectrum(vals, None, count, step.cutoffs, spec,
                                partial=stop != "enclosed"), sector
        tried.append(grown)


def _lower_bounds(step, sectors, vals, m):
    """Lower bounds on the first m eigenvalues of the untruncated
    operator from those of its box A (vals, ascending; step and its
    sectors), by Haynsworth (Horn & Johnson, Matrix Analysis, 4.3): with f
    a lower bound on the operator outside the box, and Q >= B^T B for the
    block B that joins the box to it, A'(mu) = A - Q / (f - mu) has
    lambda_k(A') <= lambda_k(H) <= lambda_k(A) for every lambda_k(A) <=
    mu < f, mu the m-th (or last) value; every bound is -inf if mu >= f.

    An AB sector H_s has f = K + 3/2 + eps beta1 - |eps beta2| (_floor)
    and Q = (eps beta2)^2 I - c c^T, as D is the truncation of an orthogonal
    matrix: A' is H_s + c c^T / (f - mu) shifted by -(eps beta2)^2 /
    (f - mu). Both sectors share c, so c c^T / (f - mu) is formed once and
    summed into each H_s (a peak one (K + 1)^2 array above H_s's solve,
    within the dense AB matrix that the budget checks). Outside
    a layered box every state lies above layer min(cutoffs), where
    Sector.floor is f, and each a_k^dagger / sqrt(2) leaves the box
    through its own face, so Q is diagonal: the sum over the modes k with
    n_k = c_k of alpha_k^2 (c_k + 1) / 2, rounded up."""
    import scipy.linalg  # loads at the first call, not with the package
    mu = vals[min(m, vals.size) - 1]
    f = _floor(step, sectors)
    if not mu < f:
        return np.full_like(vals[:m], -np.inf)
    if isinstance(sectors[0], ABSector):
        g1, g2 = step.gammas
        e = step.eps * (0.5 * (g1 - g2))
        c = sectors[0].c
        q = c @ c.T / (f - mu)
        return _merge([scipy.linalg.eigvalsh(s.matrix() + q, overwrite_a=True)
                       for s in sectors])[0][:m] - e * e / (f - mu)
    slack = 1.0 + 4.0 * (step.modes + 1) * np.finfo(float).eps
    occ = np.indices(step.basis().mode_dims).reshape(step.modes, -1)
    q = sum(np.where(o == c, a * a * (c + 1) / 2.0, 0.0) for o, a, c in zip(
        occ, step.alphas, step.cutoffs)) * slack / (f - mu)
    return _solve_sectors([s._replace(diag=s.diag - q[s.index % q.size])
                           for s in sectors])[0][:m]


def _floor(step, sectors):
    """f of _lower_bounds: a lower bound on the operator outside the box
    of step, K + 3/2 + eps beta1 - |eps beta2| on the AB sectors, else
    Sector.floor at layer min(cutoffs)."""
    if isinstance(sectors[0], ABSector):
        g1, g2 = step.gammas
        return (step.cutoffs[0] + 1.5 + step.eps * (0.5 * (g1 + g2))
                - abs(step.eps * (0.5 * (g1 - g2))))
    cut = min(step.cutoffs)
    return next(s.floor[cut - s.first] for s in sectors
                if 0 <= cut - s.first < s.floor.size)


def converged_spectrum(spec, m, tol, cap=None):
    """Spectrum of a box whose first m eigenvalues each lie within tol
    above a lower bound on the untruncated operator's (_lower_bounds).

    Cutoffs grow geometrically (factor 1.5, rounded up) from the ones in the
    ModelSpec. Hitting the cap, or a growth step that the budget refuses
    (build's, and for every family but QR and QRabi a dense matrix over
    errors.DENSE_BUDGET_BYTES, checked one step ahead), yields a partial
    result: converged_count reports how long a prefix is enclosed and the
    partial flag is set. Only the steps with at least m eigenvalues, and
    the last, are solved (_converge), by the sectors of their build
    (_solve_sectors); parity_split is the same result with the labels.
    """
    return _converge(spec, m, tol, cap)[0]


def parity_split(spec, m, tol, cap=None):
    """Converged spectrum with a parity label on every eigenvalue.

    The conserved parity splits a QR/QRabi Hamiltonian into two symmetric
    tridiagonal chains, the two sectors of build: the growth is
    converged_spectrum's (_converge), and each value of the returned step
    is labelled by its chain, "+" (sector 0) before "-" (sector 1) on
    exact ties (_solve_sectors). At eps = 0 the spin flip commutes with H
    and the two chains are bitwise one chain, which is then solved once
    and labelled both ways; every value and label is what solving both
    gives. Other families raise ValueError before anything is built, a
    malformed spec ModelSpecError first.
    """
    spec.validate()
    if spec.family not in (QR, QRABI):
        raise ValueError("parity splitting requires a QR-type two-level "
                         "model")
    result, sector = _converge(spec, m, tol, cap)
    result.parity = list(np.array(["+", "-"], dtype=object)[sector])
    return result


def _block_eigenvalues(ldu, ipiv):
    """Eigenvalues of the block-diagonal factor from a sytrf factorization."""
    n = ldu.shape[0]
    out = []
    i = 0
    while i < n:
        if ipiv[i] >= 0:
            out.append(ldu[i, i])
            i += 1
        else:
            a = ldu[i, i]
            c = ldu[i + 1, i + 1]
            b = ldu[i, i + 1]
            half_tr = 0.5 * (a + c)
            disc = math.hypot(0.5 * (a - c), b)
            out.extend((half_tr - disc, half_tr + disc))
            i += 2
    return np.array(out)


def _layered_inertia(sector, mu, growth):
    """(nonpositive count, merges, pivots, largest pending block order,
    layers swept) over the successive Schur blocks of a Sector's block
    tridiagonal matrix minus mu I. A layer's own block is diagonal, formed
    as diag(d_k - mu) from the layer's slice d_k of Sector.diag, and the
    coupling blocks come from Sector.low_blocks with their layers' slices,
    formed only for the layers swept.

    The sweep stops after layer k where floor[k] > mu and no eigenvalue w
    of the pending block lies in (0, coupling[k] / (floor[k] - mu)]
    (Sector.floor, Sector.coupling): with A the layers up to k, D those
    above and B the block between, the part D - mu is positive definite,
    so by Haynsworth the count is that of A - mu - B (D - mu)^-1 B^T, which
    lies between A - mu - (coupling[k] / (floor[k] - mu)) I on layer k and
    A - mu, and by Weyl both give the count so far plus #(w <= 0).
    """
    m = sector.sizes.tolist()
    floor = sector.floor.tolist()
    count = merges = 0
    pivots = []
    pending, carried = np.diag(sector.diag[:m[0]] - mu), 0
    max_block = m[0]
    for k, (rows, _, low) in enumerate(sector.low_blocks()):
        w, v = np.linalg.eigh(pending)
        if floor[k] > mu:
            i = int(np.searchsorted(w, 0.0, side="right"))
            if i == w.size or w[i] > sector.coupling[k] / (floor[k] - mu):
                pivots.append(w)
                return (count + i, merges, np.concatenate(pivots), max_block,
                        k + 1)
        # the next layer couples only to the layer part of pending
        cv = low @ v[carried:]
        keep = (w != 0) & (np.einsum("ij,ij->j", cv, cv)
                           <= growth * np.abs(w))
        pivots.append(w[keep])
        count += int(np.count_nonzero(w[keep] < 0))
        ck = cv[:, keep]
        s = np.diag(sector.diag[rows] - mu) - (ck / w[keep]) @ ck.T
        carried = keep.size - int(np.count_nonzero(keep))
        if carried:
            merges += 1
            cb = cv[:, ~keep]
            s = np.block([[np.diag(w[~keep]), cb.T], [cb, s]])
        pending = s
        max_block = max(max_block, pending.shape[0])
    w = np.linalg.eigvalsh(pending)
    pivots.append(w)
    count += int(np.count_nonzero(w <= 0))
    return count, merges, np.concatenate(pivots), max_block, len(m)


def _chain_inertia(sector, mu):
    """_layered_inertia for a chain sector (Sector.chain) with diagonal
    diag and off-diagonal off: the Sturm count of the nonpositive LDL^T
    pivots q_i = (d_i - mu) - e_(i-1) (e_(i-1) / q_(i-1)), with no merges and
    largest block 1, and the rows swept. e (e / q) neither underflows for a
    tiny e nor overflows for a huge one where e^2 / q would. An exactly
    zero pivot is counted, then replaced by minus the smallest normal
    number, so the next pivot is large and positive: the singular
    direction counts once.

    With the chain's bounds (Sector.floor, Sector.coupling) the sweep
    stops after the first row k where floor[k] > mu and q_k <= 0 or
    q_k > coupling[k] / (floor[k] - mu), _layered_inertia's closing test
    on a pending block of one row: the count is then final, that of
    sweeping every row."""
    diag, off = sector.chain()
    shut = sector.floor > mu
    # no row before the first with floor[k] > mu can close
    first = int(np.argmax(shut)) if shut.any() else diag.size
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = sector.coupling / (sector.floor - mu)
    q = 1.0
    pivots = []
    for k, (a, e) in enumerate(zip((diag - mu).tolist(),
                                   [0.0] + off.tolist())):
        q = a - e * (e / q)
        pivots.append(q)
        if k >= first and shut[k] and (q <= 0.0 or q > bound[k]):
            break
        if q == 0.0:
            q = -float(np.finfo(float).tiny)
    pivots = np.array(pivots)
    return int(np.count_nonzero(pivots <= 0.0)), 0, pivots, 1, pivots.size


def count_below(op, lam):
    """Number of eigenvalues at most lam, by inertia of (matrix - lam I).

    The tie band is tie = dimension * macheps * max(1, max|matrix - lam I|),
    that of the whole matrix also where the count is summed over its
    sectors (op.sectors, set by build), and eigenvalues within it above lam
    are counted. Each of the AB frame's two sectors (ABSector) takes one
    dense symmetric-indefinite (sytrf) factorization of H_s - lam I, whose
    pivots within the band are counted. Every other sector is swept at
    mu = lam + tie: a chain (Sector.chain, both sectors of QR and QRabi) by
    the scalar Sturm recurrence of _chain_inertia, any other over its
    occupation layers (_layered_inertia) by the successive Schur blocks
    S_k = A_kk - mu I - C_k S_(k-1)^-1 C_k^T (Haynsworth inertia
    additivity), A_kk the diagonal matrix of the layer's slice of
    Sector.diag and C_k formed from its entries (Sector.low_blocks). The
    largest entry of matrix - lam I is then the largest of every sector's
    |diag - lam| and |low|, as no entry joins two states of one layer. An
    eigendirection of S_k that is singular, or whose elimination would
    grow the next block by more than LAYER_GROWTH * max(1, max|matrix -
    lam I|), is merged into the next layer instead. A sweep stops at the
    first layer whose bounds (Sector.floor, Sector.coupling) prove the
    count final (_layered_inertia): it is still the count of the box, and
    only the layers above go unswept. A sector bitwise equal to an earlier
    one (_once_per_matrix), as the two QR/QRabi chains are at eps = 0,
    reuses that sector's sweep for the sum and the record.
    Any other operator's matrix is checked for symmetry and takes one
    sytrf factorization, as an AB sector does. One debug record per call
    names the route, the dimension, the number of layer merges and the
    pivots inside the tie band (for the AB frame, of both sectors); the
    layered route adds the number of sectors, the largest
    pending block order, the deepest occupation layer any sector swept
    (depth) and the number of sectors that closed before their last layer
    (closed).
    """
    if not np.isfinite(lam):
        raise ValueError("threshold must be finite")
    if op.sectors is None:
        m = np.asarray(op.matrix, dtype=float)
        _check_symmetric(m)
        return _dense_count(m, lam)
    n = op.basis.dim
    if isinstance(op.sectors[0], ABSector):
        diag, c, _ = op.sectors[0]
        tie = n * np.finfo(float).eps * max(1.0, np.abs(diag - lam).max(),
                                            c.max(), -c.min())
        return _sytrf_count((s.matrix() for s in op.sectors), lam, n, tie)
    scale = max([1.0] + [np.abs(s.diag - lam).max() for s in op.sectors]
                + [np.abs(s.low).max() for s in op.sectors if s.low.size])
    tie = n * np.finfo(float).eps * scale
    sweeps = _once_per_matrix(
        op.sectors,
        lambda s: _chain_inertia(s, lam + tie) if s.chain() is not None
        else _layered_inertia(s, lam + tie, LAYER_GROWTH * scale))
    log.debug("count_below route=layered dim=%d sectors=%d merges=%d ties=%d "
              "max_block=%d depth=%d closed=%d", n, len(sweeps),
              sum(w[1] for w in sweeps),
              sum(np.count_nonzero(np.abs(w[2]) <= tie) for w in sweeps),
              max(w[3] for w in sweeps),
              max(s.first + w[4] - 1 for s, w in zip(op.sectors, sweeps)),
              sum(w[4] < s.sizes.size for s, w in zip(op.sectors, sweeps)))
    return sum(w[0] for w in sweeps)


def _dense_count(m, lam):
    """count_below on a symmetric dense matrix by one sytrf factorization."""
    return _sytrf_count([m], lam, m.shape[0])


def _sytrf_count(mats, lam, n, tie=None):
    """count_below as the sum over the symmetric dense matrices m of mats
    of the pivots at most tie of one sytrf factorization of m - lam I, with
    one debug record for the dimension n. tie is by default m's own band,
    n macheps max(1, max|m - lam I|). sytrf reports an exactly zero pivot
    (info > 0) in the factor it returns, where it is counted."""
    import scipy.linalg  # loads at the first call, not with the package
    count = ties = 0
    for m in mats:
        # Fortran order so the factorization can work in place; the
        # diagonal shift avoids materializing lam * I at large dimensions
        shifted = np.array(m, dtype=float, order="F")
        shifted.flat[:: m.shape[0] + 1] -= lam
        band = tie if tie is not None else n * np.finfo(float).eps * max(
            1.0, shifted.max(), -shifted.min())
        sytrf, = scipy.linalg.lapack.get_lapack_funcs(("sytrf",), (shifted,))
        ldu, ipiv, _ = sytrf(shifted, lower=0, overwrite_a=1)
        pivots = _block_eigenvalues(ldu, ipiv)
        count += int(np.count_nonzero(pivots <= band))
        ties += int(np.count_nonzero(np.abs(pivots) <= band))
    log.debug("count_below route=dense dim=%d merges=0 ties=%d", n, ties)
    return count


def _verdict(counts):
    max_two = all(c <= 2 for c in counts)
    no_adjacent_empty = all(not (counts[i] == 0 and counts[i + 1] == 0)
                            for i in range(len(counts) - 1))
    no_adjacent_double = all(not (counts[i] == 2 and counts[i + 1] == 2)
                             for i in range(len(counts) - 1))
    return {"max_two": max_two,
            "no_adjacent_empty": no_adjacent_empty,
            "no_adjacent_double": no_adjacent_double}


def _thresholds(shift, nmax):
    """The thresholds of a census to nmax: b - BOUNDARY_TOL and b +
    BOUNDARY_TOL, less the shift, for each boundary b = 0 .. nmax + 1,
    ascending."""
    return (np.arange(nmax + 2.0)[:, None]
            + [-BOUNDARY_TOL, BOUNDARY_TOL]).ravel() - shift


def _boundary_ranks(count):
    """(b, r) for each rank r on a boundary b, from one class's counts at
    the thresholds (_thresholds): the r-th smallest eigenvalue lies on b
    when C(b - tol) < r <= C(b + tol)."""
    c = count.reshape(-1, 2)
    return [(b, r) for b in np.flatnonzero(c[:, 0] < c[:, 1]).tolist()
            for r in range(c[b, 0] + 1, c[b, 1] + 1)]


def _interval_report(counts, value, shift):
    """The IntervalReport of a census from counts, each class's counts C
    at the thresholds (_thresholds), C(x) the number of the class's
    eigenvalues lam <= x - shift (x - shift the threshold, as formed
    there): the classes "+" and "-", in that order, or the one class
    "total".

    Interval N holds the eigenvalues with N + BOUNDARY_TOL < lam + shift
    <= N + 1 + BOUNDARY_TOL, C(N + 1 + tol) - C(N + tol) of each class,
    and the three verdicts are taken per class. An eigenvalue on a
    boundary b, within (b - tol, b + tol], goes to interval b - 1; where
    there is at least one interval, each is listed in boundary_values,
    shifted and sorted, as value(class, b, rank) + shift (_boundary_ranks).
    """
    per_class = {k: np.diff(c[1::2]).tolist() for k, c in counts.items()}
    labelled = "total" not in per_class
    # n holds interval N's count of each class: (plus, minus) or (total,)
    per_interval = [IntervalCount(N, sum(n), *(n if labelled else
                                               (None, None)))
                    for N, n in enumerate(zip(*per_class.values()))]
    values = [value(k, b, r) + shift for k, c in counts.items()
              for b, r in _boundary_ranks(c)] if per_interval else []
    return IntervalReport(per_interval,
                          {k: _verdict(n) for k, n in per_class.items()},
                          shift, sorted(values))


def braak_intervals(spectrum, shift, Nmax):
    """The census of a spectrum's converged eigenvalues (_interval_report):
    counts per unit interval of the shifted spectrum and the three
    interval regularity verdicts, per parity class ("+" and "-") where
    the spectrum is labelled, else for the one class "total". Each
    class's counts at the thresholds (_thresholds) are those of its
    converged values, sorted, and a value on a boundary is listed as it
    is, shifted.

    The converged eigenvalues cover every interval up to Nmax when the
    first unconverged eigenvalue, or else the last one, lies above the
    top threshold; otherwise the whole report is refused (CoverageError),
    naming the interval that value falls in. Nmax = -1 gives the empty
    report; Nmax < -1 and a non-finite shift raise ValueError, as in
    braak_census.
    """
    if not math.isfinite(shift):
        raise ValueError("shift must be finite")
    if Nmax < -1:
        raise ValueError("nmax must be at least -1")
    ev = np.asarray(spectrum.eigenvalues, dtype=float)
    conv = spectrum.converged_count
    t = _thresholds(shift, Nmax)
    if conv < len(ev):
        bound = ev[conv]
    elif len(ev):
        bound = ev[-1]
    else:
        bound = -np.inf
    if Nmax >= 0 and not bound > t[-1]:
        # interval N holds the values in (t[2N + 1], t[2N + 3]]
        first_bad = max(int(np.searchsorted(t[1::2], bound)) - 1, 0)
        raise CoverageError(
            "converged eigenvalues cover shifted values only up to %.6g; "
            "interval I_%d is not certified" % (bound + shift, first_bad))
    v = ev[:conv]
    if spectrum.parity is None:
        classes = {"total": v}
    else:
        is_plus = np.asarray(spectrum.parity[:conv], dtype=object) == "+"
        classes = {"+": v[is_plus], "-": v[~is_plus]}
    classes = {k: np.sort(c) for k, c in classes.items()}
    return _interval_report(
        {k: np.searchsorted(c, t, side="right") for k, c in classes.items()},
        lambda k, b, r: classes[k][r - 1], shift)


def braak_census(spec, shift, nmax):
    """The Braak census of a QR or QRabi operator, certified for the
    untruncated operator: (IntervalReport, closing depth).

    Each parity chain's counts at the census thresholds (_thresholds)
    come from one Sturm sweep per distinct chain (_once_per_matrix) of
    the box at cutoff SINGLE_MODE_CAP, vectorized over the thresholds
    (_census_sweep), and make the report (_interval_report). Each
    threshold's count is frozen at the first row
    whose bracket closes (_chain_inertia's test), where it is the count of
    the operator itself (Sector.floor, Sector.coupling), and the sweep
    ends when every count has closed; the rows of a chain do not depend on
    the cutoff it is built at, so the spec's cutoff plays no part. A
    threshold can close only at a row whose floor lies above it, so a
    largest threshold at or above the floor of the last row raises
    CoverageError before the thresholds are formed, and ResourceError
    refuses work arrays over errors.DENSE_BUDGET_BYTES. An eigenvalue on
    a boundary is listed in boundary_values, shifted, as found by
    bisection on the chain's Sturm count. The closing depth is
    the deepest row at which a threshold closed: the box of that cutoff
    has the census of the operator. nmax = -1 gives braak_intervals'
    empty report; nmax < -1 and a non-finite shift raise ValueError, as
    does any family but QR and QRabi; a malformed spec, its cutoff
    included, raises ModelSpecError first, and matrix entries that
    overflow PrecisionError (build).
    """
    spec.validate()
    if spec.family not in (QR, QRABI):
        raise ValueError("the Braak census requires a QR-type two-level "
                         "model")
    if not math.isfinite(shift):
        raise ValueError("shift must be finite")
    if nmax < -1:
        raise ValueError("nmax must be at least -1")
    sectors = build(spec.with_cutoffs((SINGLE_MODE_CAP,))).sectors
    top = nmax + 1 + BOUNDARY_TOL - shift
    if not all(s.floor[-1] > top for s in sectors):
        raise CoverageError(
            "the count bracket at boundary %d of the shifted spectrum stays "
            "open to depth %d; interval I_%d is not certified"
            % (nmax + 1, SINGLE_MODE_CAP, nmax))
    # t, _census_sweep's per-threshold arrays and its blocks of rows
    check_budget("the census of %d interval boundaries needs" % (nmax + 2),
                 _census_bytes(nmax))
    t = _thresholds(shift, nmax)
    sweeps = _once_per_matrix(sectors, lambda s: _census_sweep(s, t))
    still = [np.flatnonzero(closed < 0) for _, closed in sweeps]
    if any(j.size for j in still):
        b = min(j[0] for j in still if j.size) // 2
        raise CoverageError(
            "the count bracket at boundary %d of the shifted spectrum is "
            "still open at depth %d; interval I_%d is not certified"
            % (b, SINGLE_MODE_CAP, max(b - 1, 0)))
    chains = dict(zip("+-", sectors))
    report = _interval_report(
        {k: count for k, (count, _) in zip("+-", sweeps)},
        lambda k, b, r: _bisect_chain(chains[k], t[2 * b], t[2 * b + 1], r),
        shift)
    return report, max(s.first + int(closed.max())
                       for s, (_, closed) in zip(sectors, sweeps))


def _census_bytes(nmax):
    """Bytes of the work arrays of a census to nmax, 2 (nmax + 2)
    thresholds: per threshold, 10 floats or ints (t, the arrays that form
    it, and _census_sweep's pivots, updates, counts, closing rows and
    per-block sums), and per threshold and block row, 2 floats (the
    pivot and closing-bound blocks) and 6 bools (the nonpositive and
    closing tests and their slices at the closing thresholds)."""
    return (10 * 8 + CENSUS_BLOCK_ROWS * (2 * 8 + 6)) * 2 * (nmax + 2)


def _bisect_chain(sector, lo, hi, rank):
    """The rank-th smallest eigenvalue of a chain sector, known to lie in
    (lo, hi], by bisection on its Sturm count (_chain_inertia) down to
    adjacent doubles: the upper end of the last bracket."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _chain_inertia(sector, mid)[0] >= rank:
            hi = mid
        else:
            lo = mid


def _census_sweep(sector, t):
    """_chain_inertia at every threshold of the ascending array t at once,
    through the rows of sector's chain: (count, closed), each threshold's
    count of nonpositive pivots and the row where it closed (-1 if it did
    not). The pivots, the zero-pivot rule and the closing test are
    _chain_inertia's, elementwise; a threshold's count is frozen at the
    row where it closes, and the sweep ends when every threshold has
    closed.

    The rows are swept CENSUS_BLOCK_ROWS at a time, over the thresholds
    from the lowest one still open. A block's pivots fill a rows x
    thresholds buffer, three calls per row; the nonpositive test, each
    threshold's first closing row and its count up to that row are then
    read from the buffer once per block, the closing test only on the
    thresholds below the block's largest floor. A pivot that is exactly
    zero must be replaced by minus the smallest normal number before the
    next row reads it, so a block that holds one is redone with that
    replacement after each row. Every pivot and bound is the same
    operation on the same operands as when the rows are swept one at a
    time, so (count, closed) are bitwise those of a one-row sweep."""
    count = np.zeros(t.size, np.intp)
    closed = np.full(t.size, -1)
    diag, floor, coupling = sector.diag, sector.floor, sector.coupling
    # e[k] couples row k to the row before it; row 0 has none
    e = np.concatenate(([0.0], sector.low))
    tiny = -float(np.finfo(float).tiny)
    pivots = np.empty(CENSUS_BLOCK_ROWS * t.size)
    nonpositive = np.empty(pivots.size, bool)
    q, update = np.ones_like(t), np.empty_like(t)

    def fill(block, d, tl, ql, ek, redo):
        # row i: q = (d_i - t) - e_i (e_i / q), q the row before it
        np.subtract.outer(d, tl, out=block)
        u = update[:tl.size]
        for row, e_i in zip(block, ek):
            np.divide(e_i, ql, out=u)
            np.multiply(u, e_i, out=u)
            np.subtract(row, u, out=row)
            if redo and not row.all():
                row[row == 0.0] = tiny
            ql = row

    # every threshold below lo is closed
    lo = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k0 in range(0, len(diag), CENSUS_BLOCK_ROWS):
            if lo == t.size:
                break
            k1 = min(k0 + CENSUS_BLOCK_ROWS, len(diag))
            tl, ql = t[lo:], q[lo:]
            shape = (k1 - k0, tl.size)
            block = pivots[:shape[0] * shape[1]].reshape(shape)
            ek = e[k0:k1].tolist()
            fill(block, diag[k0:k1], tl, ql, ek, False)
            # the rows after a zero pivot read it unreplaced: redo them
            if not block.all():
                fill(block, diag[k0:k1], tl, ql, ek, True)
            ql[:] = block[-1]
            neg = nonpositive[:block.size].reshape(shape)
            np.less_equal(block, 0.0, out=neg)
            still = closed[lo:] < 0
            total = neg.sum(axis=0)
            # an open threshold closes at the first row k with floor[k] > t
            # whose pivot lies outside (0, coupling[k] / (floor[k] - t)],
            # and only the thresholds below the block's largest floor can
            n = int(tl.searchsorted(np.max(floor[k0:k1])))
            if n:
                fl, tn = floor[k0:k1, None], tl[:n]
                bound = np.subtract(fl, tn)
                np.divide(coupling[k0:k1, None], bound, out=bound)
                shut = block[:, :n] > bound
                shut |= neg[:, :n]
                shut &= fl > tn
                shut &= still[:n]
                hit = np.flatnonzero(shut.any(axis=0))
                if hit.size:
                    first = shut[:, hit].argmax(axis=0)
                    # its count is frozen at that row
                    upto = np.arange(shape[0])[:, None] <= first
                    total[hit] = np.count_nonzero(neg[:, hit] & upto, axis=0)
                    closed[lo + hit] = k0 + first
            count[lo:] += np.where(still, total, 0)
            left = np.flatnonzero(closed[lo:] < 0)
            lo = lo + int(left[0]) if left.size else t.size
    return count, closed
