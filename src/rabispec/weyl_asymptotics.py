"""Two-term eigenvalue counting asymptotics for the multilevel oscillator
families, empirical counting comparisons, and the exact infimum of the
eigenvalue gap of the perturbed matrix symbol on the energy sphere.

The counting function of such an operator grows like

    N_A(lambda) = leading * lambda^n - subleading * lambda^(n - 1/2) + ...

with n the number of modes. The leading coefficient only sees the phase
space volume of {p2 <= 1} and the number of internal levels; the subleading
one integrates the trace of the order-one symbol a1 over the sphere p2 = 1.
In every family here a1 = sum_k alpha_k x_k (E_ij + E_ji), with one
off-diagonal level pair i < j per coupling: its diagonal is zero, so
Tr a1 = 0 at every point of the sphere and the subleading coefficient is
exactly 0. (Being linear in X, Tr a1 would also be odd under X -> -X; only
an X-independent part of a1 could give a nonzero integral, and there is
none.) The prediction is therefore closed-form.

Phase space points are X = (x_1..x_n, xi_1..xi_n) and p2 = |X|^2 / 2, so
the energy sphere p2 = 1 is |X| = sqrt(2) and |grad p2| = |X| is constant
on it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .fock_ops import build, coupling_pattern
from .spectral_analysis import count_below

SPHERE_RADIUS = math.sqrt(2.0)
DEFAULT_RELIABLE_FRACTION = 0.5


@dataclass
class WeylPrediction:
    n: int
    Nlev: int
    leading_coeff: float
    subleading_coeff: float

    def evaluate(self, lam):
        lam = max(lam, 0.0)  # no phase-space volume below 0
        return (self.leading_coeff * lam ** self.n
                - self.subleading_coeff * lam ** (self.n - 0.5))


@dataclass
class SymbolSample:
    X: np.ndarray
    a1_matrix: np.ndarray
    b1_matrix: np.ndarray
    eigenvalues: np.ndarray
    min_gap: float


def _couplings(spec):
    """(alpha_k, row, col) for each coupling, rows below cols."""
    return [(ak,) + coupling_pattern(spec.family, spec.spin_dim, k)
            for k, ak in enumerate(spec.alphas, start=1)]


def a1_matrix(spec, X):
    """Order-one symbol: sum over couplings of alpha_k x_k on the pattern.

    Coupling k reads the position coordinate of mode k, so X[..., k-1] in
    the (x_1..x_n, xi_1..xi_n) layout. Leading axes of X are point axes:
    X of shape (..., 2n) gives a stack of shape (..., Nlev, Nlev).
    """
    X = np.asarray(X, dtype=float)
    m = np.zeros(X.shape[:-1] + (spec.spin_dim, spec.spin_dim))
    for k, (ak, i, j) in enumerate(_couplings(spec)):
        v = ak * X[..., k]
        m[..., i, j] += v
        m[..., j, i] += v
    return m


def b1_matrix(spec, X):
    """Perturbing symbol with entries following the a1 coupling graph.

    Built so that a1 + eps*b1 has entry sqrt(2) alpha_k psi_k at each
    coupling slot, psi_k = (x_k + i eps xi_k)/sqrt(2); the eps-linear part
    is therefore +-i alpha_k xi_k, upper slot positive. Leading axes of X
    are point axes, as in a1_matrix.
    """
    X = np.asarray(X, dtype=float)
    n = spec.modes
    m = np.zeros(X.shape[:-1] + (spec.spin_dim, spec.spin_dim),
                 dtype=complex)
    for k, (ak, i, j) in enumerate(_couplings(spec)):
        xi = X[..., n + k]
        m[..., i, j] += 1j * ak * xi
        m[..., j, i] += -1j * ak * xi
    return m


def symbol_sample(spec, X, eps):
    a1 = a1_matrix(spec, X)
    b1 = b1_matrix(spec, X)
    s = a1 + eps * b1
    ev = np.sort(np.linalg.eigvalsh(s))
    gaps = np.diff(ev)
    min_gap = float(gaps.min()) if gaps.size else math.inf
    return SymbolSample(X, a1, b1, ev, min_gap)


def weyl_prediction(spec):
    """Two-term counting coefficients for the model.

    leading = Nlev * (2 pi)^{-n} * vol{p2 <= 1} = Nlev / n!. The subleading
    coefficient integrates Tr(a1) over the sphere p2 = 1 against
    1/|grad p2|; a1 has zero diagonal in every family (each coupling fills
    one off-diagonal pair of levels, see the module docstring), so the
    integrand vanishes pointwise and the coefficient is exactly 0.
    """
    spec.validate()
    n = spec.modes
    nlev = spec.spin_dim
    return WeylPrediction(n, nlev, nlev / math.factorial(n), 0.0)


class CountRow(NamedTuple):
    lam: float
    count: int
    prediction: float
    rel_err: Optional[float]  # None where the prediction is 0
    flagged: bool


def empirical_counting(spec, lambdas,
                       reliable_fraction=DEFAULT_RELIABLE_FRACTION, jobs=1):
    """Counting function versus the two-term prediction on a lambda grid.

    Counts come from the inertia of the truncated operator, built once as
    its parity sectors, and no dense matrix of the whole operator is
    assembled (count_below). The AB frame's two sectors take one dense
    factorization each per threshold. The other families' sectors take one
    sweep each, a Sturm recurrence on a chain and Schur complements over
    the occupation layers otherwise, so only the budget on build's arrays
    caps their cutoff. A Schur sweep stops at
    the first layer above which a lower bound of the operator
    (fock_ops._layer_bounds) proves that no layer can change its count, so
    a low threshold sweeps only the low layers; the count is still the
    box's, the one the full sweep gives. Thresholds above
    reliable_fraction * min(cutoff) land in rows flagged as
    truncation-suspect; they are reported, never silently dropped, so
    reliable_fraction must be finite and positive (ValueError otherwise;
    checked after the model and the build, whose own errors come first).
    jobs is accepted and ignored: the counts always run in input order on
    the calling thread.
    """
    pred = weyl_prediction(spec)
    op = build(spec)
    if not 0.0 < reliable_fraction < math.inf:
        raise ValueError("reliable fraction must be finite and positive, "
                         "got %r" % (reliable_fraction,))
    bound = reliable_fraction * min(spec.cutoffs)
    rows = []
    for lam in (float(x) for x in lambdas):
        c = count_below(op, lam)
        p = pred.evaluate(lam)
        rel = (c - p) / p if p != 0 else None
        rows.append(CountRow(lam, c, p, rel, lam > bound))
    return rows


def nonpositive_count(spec):
    """Number of nonpositive eigenvalues of the truncated operator.

    The two-term law is stated for positive operators; diagonal level
    shifts can push low eigenvalues to zero or below, so this reports the
    offending count instead of assuming positivity.
    """
    return count_below(build(spec), 0.0)


class GapCheck(NamedTuple):
    min_gap: float
    X: np.ndarray
    sample: SymbolSample


def smges_gap_check(spec, eps):
    """Infimum of the least eigenvalue gap of a1 + eps b1 over the sphere
    |X| = sqrt(2), and a point X that attains it.

    a1 + eps b1 has zero diagonal and is supported on the coupling tree,
    with entry alpha_k (x_k +- i eps xi_k) on edge k. On a tree, diagonal
    phases remove the complex phases, so the spectrum depends only on the
    weights w_k^2 = alpha_k^2 (x_k^2 + eps^2 xi_k^2). With j the first
    coupling of least |alpha_j|:

    * one mode has eigenvalues +-w_1, and two modes (a path or a star of
      two edges) 0 and +-|w|. The gap, 2 w_1 or |w|, is least with all the
      weight on xi_j where eps < 1 and on x_j otherwise, at
      c sqrt(2) |alpha_j| min(1, eps), with c = 2 at one mode and 1 at two;
    * three or more modes have infimum 0, attained at X = sqrt(2) e(x_2):
      a star (Lambda, Vee) has 0 at least twice everywhere, and a path
      (Xi) has w_1 = w_n = 0 there, which leaves both end levels at 0.

    min_gap is the least spacing of the eigenvalues at X (symbol_sample),
    which is the infimum.
    """
    spec.validate()
    if not 0.0 <= eps < math.inf:
        raise ValueError("eps must be finite and nonnegative")
    n = spec.modes
    X = np.zeros(2 * n)
    if n <= 2:
        j = int(np.argmin(np.abs(spec.alphas)))
        X[j if eps >= 1.0 else n + j] = SPHERE_RADIUS
    else:
        X[1] = SPHERE_RADIUS
    best = symbol_sample(spec, X, eps)
    return GapCheck(best.min_gap, X, best)
