"""Symmetric eigensolving with truncation control, parity-sector splitting,
inertia-based eigenvalue counting, and interval statistics of the shifted
spectrum.

Truncated matrices only approximate the operator, so every consumer-facing
routine here either runs the cutoff-growth protocol until the requested
prefix of the spectrum is stable, or refuses to draw conclusions (the
interval checker raises instead of reporting on an unconverged tail).
"""

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import CoverageError
from .fock_ops import QR, QRABI, build, parity_matrix

log = logging.getLogger(__name__)

GROWTH_FACTOR = 1.5
SINGLE_MODE_CAP = 4096
MULTI_MODE_CAP = 160
BOUNDARY_TOL = 1e-10


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


def _dense_symmetric(op):
    m = op.matrix
    if sp.issparse(m):
        m = m.toarray()
    m = np.asarray(m, dtype=float)
    if m.size:
        scale = max(m.max(), -m.min())
        d = m - m.T
        asym = max(d.max(), -d.min())
        del d
    else:
        scale = asym = 0.0
    if asym > max(1.0, scale) * m.shape[0] * np.finfo(float).eps:
        raise ValueError("matrix is not symmetric: max asymmetry %g" % asym)
    return m


def eigen_spectrum(op):
    """All eigenvalues of a symmetric truncated operator, ascending."""
    m = _dense_symmetric(op)
    return np.sort(scipy.linalg.eigvalsh(m))


def _default_cap(modes):
    return SINGLE_MODE_CAP if modes == 1 else MULTI_MODE_CAP


def _grow(cutoffs, cap):
    return tuple(min(cap, math.ceil(c * GROWTH_FACTOR)) for c in cutoffs)


def _stable_prefix(prev, cur, m, tol):
    mm = min(len(prev), len(cur), m)
    diffs = np.abs(np.asarray(prev[:mm]) - np.asarray(cur[:mm]))
    bad = np.nonzero(diffs >= tol)[0]
    return mm if bad.size == 0 else int(bad[0])


def _converge(spec, m, tol, cap, solve):
    """Cutoff-growth driver. solve(cutoffs) -> (values, labels or None)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if cap is None:
        cap = _default_cap(spec.modes)
    cur = spec.cutoffs
    prev_vals = None
    stable = 0
    while True:
        vals, labels = solve(cur)
        if prev_vals is not None:
            stable = _stable_prefix(prev_vals, vals, m, tol)
            if stable >= m:
                return Spectrum(vals, labels, m, cur, spec, partial=False)
        if all(c >= cap for c in cur):
            return Spectrum(vals, labels, stable, cur, spec, partial=True)
        prev_vals = vals
        cur = _grow(cur, cap)


def converged_spectrum(spec, m, tol, cap=None):
    """Spectrum with the first m eigenvalues certified stable to tol.

    Cutoffs grow geometrically (factor 1.5, rounded up) from the ones in the
    ModelSpec. Hitting the cap yields a partial result: converged_count
    reports how long a prefix was stable at the last comparison and the
    partial flag is set.
    """

    def solve(cutoffs):
        ev = eigen_spectrum(build(spec.with_cutoffs(cutoffs)))
        return ev, None

    return _converge(spec, m, tol, cap, solve)


def parity_split(spec, m, tol, cap=None):
    """Converged spectrum with a parity label on every eigenvalue.

    The conserved parity is diagonal in the product basis, so each sector is
    just an index subset; the Hamiltonian is diagonalized per sector and the
    results merged sorted.
    """
    if spec.family not in (QR, QRABI):
        raise ValueError("parity splitting requires a QR-type two-level model")

    def solve(cutoffs):
        spec2 = spec.with_cutoffs(cutoffs)
        h = build(spec2).matrix
        signs = np.diag(parity_matrix(spec2.basis()).matrix)
        merged_vals = []
        merged_labels = []
        for label, sign in (("+", 1.0), ("-", -1.0)):
            idx = np.nonzero(signs == sign)[0]
            block = h[np.ix_(idx, idx)]
            merged_vals.append(np.sort(scipy.linalg.eigvalsh(block)))
            merged_labels.append(np.full(idx.size, label, dtype=object))
        vals = np.concatenate(merged_vals)
        labels = np.concatenate(merged_labels)
        order = np.argsort(vals, kind="stable")
        return vals[order], list(labels[order])

    return _converge(spec, m, tol, cap, solve)


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


def count_below(op, lam):
    """Number of eigenvalues at most lam, by inertia of (matrix - lam I).

    A symmetric-indefinite factorization gives the inertia without computing
    any eigenvalues, so this costs one factorization per threshold. Pivots
    within dimension * macheps * ||shifted matrix|| of zero are treated as
    ties and counted. Factorization breakdown falls back to a full
    eigensolve with a logged notice.
    """
    if not np.isfinite(lam):
        raise ValueError("threshold must be finite")
    m = _dense_symmetric(op)
    n = m.shape[0]
    if n == 0:
        return 0
    # Fortran order so the factorization can work in place; the diagonal
    # shift avoids materializing lam * I at large dimensions
    shifted = np.array(m, dtype=float, order="F")
    shifted.flat[:: n + 1] -= lam
    tie = n * np.finfo(float).eps * max(1.0, shifted.max(), -shifted.min())
    sytrf, = lapack.get_lapack_funcs(("sytrf",), (shifted,))
    ldu, ipiv, info = sytrf(shifted, lower=0, overwrite_a=1)
    if info < 0:
        log.warning("sytrf failed with info=%d, falling back to eigensolve",
                    info)
        ev = np.sort(scipy.linalg.eigvalsh(m))
        return int(np.searchsorted(ev, lam + tie, side="right"))
    block_ev = _block_eigenvalues(ldu, ipiv)
    return int(np.count_nonzero(block_ev <= tie))


def _verdict(counts):
    max_two = all(c <= 2 for c in counts)
    no_adjacent_empty = all(not (counts[i] == 0 and counts[i + 1] == 0)
                            for i in range(len(counts) - 1))
    no_adjacent_double = all(not (counts[i] == 2 and counts[i + 1] == 2)
                             for i in range(len(counts) - 1))
    return {"max_two": max_two,
            "no_adjacent_empty": no_adjacent_empty,
            "no_adjacent_double": no_adjacent_double}


def _assign_interval(v):
    """Interval index for a shifted eigenvalue, with the boundary rule.

    Values within BOUNDARY_TOL of an integer boundary go to the lower
    interval and are reported back as flagged.
    """
    b = round(v)
    if abs(v - b) <= BOUNDARY_TOL:
        return int(b) - 1, True
    return int(math.floor(v)), False


def braak_intervals(spectrum, shift, Nmax):
    """Counts of shifted eigenvalues per unit interval, with the three
    interval regularity verdicts evaluated per parity class.

    Only converged eigenvalues are examined; if they do not cover every
    interval up to Nmax the whole report is refused.
    """
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

    totals = [0] * (Nmax + 1)
    plus = [0] * (Nmax + 1)
    minus = [0] * (Nmax + 1)
    boundary = []
    labeled = spectrum.parity is not None
    for i in range(conv):
        v = shifted[i]
        idx, flagged = _assign_interval(v)
        if flagged:
            boundary.append(v)
        if not 0 <= idx <= Nmax:
            continue
        totals[idx] += 1
        if labeled:
            if spectrum.parity[i] == "+":
                plus[idx] += 1
            else:
                minus[idx] += 1

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
    return IntervalReport(per_interval, verdicts, shift, boundary)
