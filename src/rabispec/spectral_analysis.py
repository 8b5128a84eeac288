"""Symmetric eigensolving with truncation control, parity-sector splitting,
inertia-based eigenvalue counting, and interval statistics of the shifted
spectrum.

Truncated matrices only approximate the operator, so every consumer-facing
routine here either runs the cutoff-growth protocol until the requested
prefix of the spectrum is stable, or refuses to draw conclusions (the
interval checker raises instead of reporting on an unconverged tail). The
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


def _stable_prefix(prev, cur, m, tol):
    mm = min(len(prev), len(cur), m)
    diffs = np.abs(np.asarray(prev[:mm]) - np.asarray(cur[:mm]))
    bad = np.nonzero(diffs >= tol)[0]
    return mm if bad.size == 0 else int(bad[0])


def _converge(spec, m, tol, cap):
    """Cutoff-growth driver: (Spectrum without labels, sector number of
    each eigenvalue).

    The steps grow from spec.cutoffs (_grow) until the first m values of
    two consecutive steps agree to tol (stop "stable"), or up to the cap
    (stop "cap", a partial result). A step with a cutoff below 1, which no
    model admits, is the last one too. Before any step is built, the
    growth is planned: each step's budget is checked from its spec
    (check_build_budget, and for every family but QR and QRabi the dense
    matrix, check_dense_budget), and the plan ends before the first step
    refused (stop "budget", a partial result of the last step planned); a
    refused first step raises.

    A step is solved (_solve_sectors of its build) only when its values
    are compared or returned: the comparison at step i can find m stable
    values only if step i - 1 has at least m, so step i is compared only
    then, or as the last step of the plan, or as the second step when the
    first is above the cap (the second lowers it). Each compared step is
    solved with the step before it, once, and every exit returns what
    solving every step of the plan in turn returns.

    One debug record per call names the stop reason, the cutoffs tried (up
    to the returned step, and the refused one), those solved, and the
    stable prefix at each comparison.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if cap is None:
        cap = SINGLE_MODE_CAP if spec.modes == 1 else MULTI_MODE_CAP
    cuts = [spec.cutoffs]
    refused = None
    while True:
        step = spec.with_cutoffs(cuts[-1])
        try:
            if spec.family not in (QR, QRABI):
                check_dense_budget(step.basis())
            check_build_budget(step)
        except ResourceError as exc:
            refused = exc
            break
        if all(c >= cap for c in cuts[-1]) or any(c < 1 for c in cuts[-1]):
            break
        cuts.append(_grow(cuts[-1], cap))
    last = len(cuts) - 1 - (refused is not None)
    solved = {}
    stables = []

    def values(i):
        if i not in solved:
            solved[i] = _solve_sectors(
                build(spec.with_cutoffs(cuts[i])).sectors)
        return solved[i]

    def record(stop, tried):
        log.debug("converge stop=%s m=%d tried=%s solved=%s stable=%s", stop,
                  m, ",".join(map(_cutoff_text, cuts[:tried])),
                  ",".join(_cutoff_text(cuts[i]) for i in sorted(solved)),
                  ",".join(stables))

    if last < 0:
        record("budget", 1)
        raise refused
    for i in range(last + 1):
        compared = i > 0 and (
            spec.with_cutoffs(cuts[i - 1]).basis().dim >= m
            or i == 1 and max(cuts[0]) > cap)
        if not (compared or i == last):
            continue
        stable = 0
        if i > 0:
            stable = _stable_prefix(values(i - 1)[0], values(i)[0], m, tol)
            stables.append("%s:%d" % (_cutoff_text(cuts[i]), stable))
        if stable >= m or i == last:
            vals, sector = values(i)
            stop = ("stable" if stable >= m else
                    "cap" if refused is None else "budget")
            record(stop, len(cuts) if stop == "budget" else i + 1)
            return Spectrum(vals, None, stable, cuts[i], spec,
                            partial=stop != "stable"), sector


def _cutoff_text(cutoffs):
    """The cutoffs of a growth step as the debug record gives them: 16, or
    10x12 with more than one mode."""
    return "x".join(map(str, cutoffs))


def converged_spectrum(spec, m, tol, cap=None):
    """Spectrum with the first m eigenvalues certified stable to tol.

    Cutoffs grow geometrically (factor 1.5, rounded up) from the ones in the
    ModelSpec. Hitting the cap, or a growth step that the budget refuses
    (build's, and for every family but QR and QRabi a dense matrix over
    errors.DENSE_BUDGET_BYTES, checked before any step is built), yields a
    partial result: converged_count reports how long a prefix was stable
    at the last comparison and the partial flag is set. A growth step is
    solved only when it is compared or returned (_converge): the steps with
    fewer than m eigenvalues are skipped until a partial result needs the
    one before its own. Every solved step solves the sectors of its build
    (_solve_sectors), the AB frame's two parity sectors and the two QR and
    QRabi parity chains included; parity_split is the same result with
    the labels.
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
    sytrf factorization, as an AB sector does. A factorization's breakdown
    falls back to a full eigensolve with a logged warning. One debug record
    per call names the route, the dimension, the number of layer merges
    and the pivots inside the tie band (for the AB frame, of both
    sectors); the layered route adds the number of sectors, the largest
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
    n macheps max(1, max|m - lam I|). Where sytrf breaks down, after a
    logged warning, the eigenvalues of m at most lam + tie are counted."""
    import scipy.linalg  # loads at the first call, not with the package
    count = ties = 0
    route = "dense"
    for m in mats:
        # Fortran order so the factorization can work in place; the
        # diagonal shift avoids materializing lam * I at large dimensions
        shifted = np.array(m, dtype=float, order="F")
        shifted.flat[:: m.shape[0] + 1] -= lam
        band = tie if tie is not None else n * np.finfo(float).eps * max(
            1.0, shifted.max(), -shifted.min())
        sytrf, = scipy.linalg.lapack.get_lapack_funcs(("sytrf",), (shifted,))
        ldu, ipiv, info = sytrf(shifted, lower=0, overwrite_a=1)
        if info < 0:
            log.warning("sytrf failed with info=%d, falling back to "
                        "eigensolve", info)
            route = "eigensolve"
            pivots = scipy.linalg.eigvalsh(m) - lam
        else:
            pivots = _block_eigenvalues(ldu, ipiv)
        count += int(np.count_nonzero(pivots <= band))
        ties += int(np.count_nonzero(np.abs(pivots) <= band))
    log.debug("count_below route=%s dim=%d merges=0 ties=%d", route, n, ties)
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


def braak_intervals(spectrum, shift, Nmax):
    """Counts of shifted eigenvalues per unit interval, with the three
    interval regularity verdicts evaluated per parity class.

    Only converged eigenvalues are examined; if they do not cover every
    interval up to Nmax the whole report is refused.
    """
    if not math.isfinite(shift):
        raise ValueError("shift must be finite")
    ev = np.asarray(spectrum.eigenvalues, dtype=float)
    conv = spectrum.converged_count
    shifted = ev + shift
    if Nmax < 0:
        keys = ("+", "-") if spectrum.parity is not None else ("total",)
        verdicts = {k: _verdict([]) for k in keys}
        return IntervalReport([], verdicts, shift)
    if conv < len(ev):
        bound = shifted[conv]
    elif len(ev):
        bound = shifted[-1]
    else:
        bound = -np.inf
    if bound < Nmax + 1:
        first_bad = max(int(math.floor(bound)), 0)
        raise CoverageError(
            "converged eigenvalues cover shifted values only up to %.6g; "
            "interval I_%d is not certified" % (bound, first_bad))

    # interval of each converged value: within BOUNDARY_TOL of an integer
    # boundary b (np.rint rounds half to even, as round does) it goes to
    # b - 1 and is flagged, otherwise to its floor
    v = shifted[:conv]
    b = np.rint(v)
    flagged = np.abs(v - b) <= BOUNDARY_TOL
    idx = np.where(flagged, b - 1.0, np.floor(v))
    inside = (idx >= 0) & (idx <= Nmax)
    idx = idx[inside].astype(np.intp)
    labeled = spectrum.parity is not None

    def counts(i):
        return np.bincount(i, minlength=Nmax + 1).tolist()

    totals = counts(idx)
    if labeled:
        is_plus = (np.asarray(spectrum.parity[:conv], dtype=object)
                   == "+")[inside]
        plus, minus = counts(idx[is_plus]), counts(idx[~is_plus])
    per_interval = [
        IntervalCount(N, totals[N],
                      plus[N] if labeled else None,
                      minus[N] if labeled else None)
        for N in range(Nmax + 1)
    ]
    if labeled:
        verdicts = {"+": _verdict(plus), "-": _verdict(minus)}
    else:
        verdicts = {"total": _verdict(totals)}
    return IntervalReport(per_interval, verdicts, shift, list(v[flagged]))


def braak_census(spec, shift, nmax):
    """The Braak census of a QR or QRabi operator, certified for the
    untruncated operator: (IntervalReport, closing depth).

    Interval N holds the eigenvalues lam with N + BOUNDARY_TOL < lam +
    shift <= N + 1 + BOUNDARY_TOL, braak_intervals' rule, so a parity
    chain's count in it is C(N + 1 + tol) - C(N + tol), with C(x) the
    number of the chain's eigenvalues with lam + shift <= x. The counts C
    at the thresholds b +- tol - shift, b = 0 .. nmax + 1, come from one
    Sturm sweep per distinct chain (_once_per_matrix) of the box at
    cutoff SINGLE_MODE_CAP, vectorized over the thresholds
    (_census_sweep). Each threshold's count is frozen at the first row
    whose bracket closes (_chain_inertia's test), where it is the count of
    the operator itself (Sector.floor, Sector.coupling), and the sweep
    ends when every count has closed; the rows of a chain do not depend on
    the cutoff it is built at, so the spec's cutoff plays no part. A
    threshold can close only at a row whose floor lies above it, so a
    largest threshold at or above the floor of the last row raises
    CoverageError before the thresholds are formed, and ResourceError
    refuses work arrays over errors.DENSE_BUDGET_BYTES. A boundary b
    whose counts at b - tol and b + tol differ holds an eigenvalue, which
    goes to interval b - 1 and is listed in boundary_values, shifted, as
    found by bisection on the chain's Sturm count. The closing depth is
    the deepest row at which a threshold closed: the box of that cutoff
    has the census of the operator. nmax = -1 gives braak_intervals'
    empty report; nmax < -1, a non-finite shift and matrix entries that
    overflow raise ValueError, as does any family but QR and QRabi; a
    malformed spec, its cutoff included, raises ModelSpecError first.
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
    # eps * gamma or alpha sqrt(n) can overflow where the parameters are
    # finite
    if not all(np.isfinite(s.diag).all() and np.isfinite(s.low).all()
               for s in sectors):
        raise ValueError("the model's matrix entries overflow the double "
                         "range")
    top = nmax + 1 + BOUNDARY_TOL - shift
    if not all(s.floor[-1] > top for s in sectors):
        raise CoverageError(
            "the count bracket at boundary %d of the shifted spectrum stays "
            "open to depth %d; interval I_%d is not certified"
            % (nmax + 1, SINGLE_MODE_CAP, nmax))
    # t, _census_sweep's per-threshold arrays and its blocks of rows
    check_budget("the census of %d interval boundaries needs" % (nmax + 2),
                 _census_bytes(nmax))
    # b - tol and b + tol for each boundary b, ascending
    t = (np.arange(nmax + 2.0)[:, None]
         + [-BOUNDARY_TOL, BOUNDARY_TOL]).ravel() - shift
    sweeps = _once_per_matrix(sectors, lambda s: _census_sweep(s, t))
    still = [np.flatnonzero(closed < 0) for _, closed in sweeps]
    if any(j.size for j in still):
        b = min(j[0] for j in still if j.size) // 2
        raise CoverageError(
            "the count bracket at boundary %d of the shifted spectrum is "
            "still open at depth %d; interval I_%d is not certified"
            % (b, SINGLE_MODE_CAP, max(b - 1, 0)))
    counts = [count.reshape(-1, 2) for count, _ in sweeps]
    plus, minus = (np.diff(c[:, 1]).tolist() for c in counts)
    per_interval = [IntervalCount(N, p + m, p, m)
                    for N, (p, m) in enumerate(zip(plus, minus))]
    values = [_bisect_chain(s, t[2 * b], t[2 * b + 1], r) + shift
              for s, c in zip(sectors, counts) if nmax >= 0
              for b in np.flatnonzero(c[:, 0] < c[:, 1]).tolist()
              for r in range(c[b, 0] + 1, c[b, 1] + 1)]
    report = IntervalReport(per_interval,
                            {"+": _verdict(plus), "-": _verdict(minus)},
                            shift, sorted(values))
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
