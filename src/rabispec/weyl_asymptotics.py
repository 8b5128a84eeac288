"""Two-term eigenvalue counting asymptotics for the multilevel oscillator
families, empirical counting comparisons, and pointwise gap checks of the
perturbed matrix symbol on the energy sphere.

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

from .errors import check_budget
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


def _grid_points(n, samples):
    r = SPHERE_RADIUS
    if n == 1:
        theta = 2.0 * math.pi * np.arange(samples) / samples
        return r * np.stack((np.cos(theta), np.sin(theta)), axis=1)
    # generalized Fibonacci lattice on S^3, deterministic in the sample count
    g1 = 1.0 / 1.2207440846057596  # plastic-number offsets
    g2 = 1.0 / 1.4902959105489326
    i = np.arange(samples) + 0.5
    u = i / samples
    v = (i * g1) % 1.0
    w = (i * g2) % 1.0
    chi = np.arccos(1.0 - 2.0 * u)
    phi = np.arccos(1.0 - 2.0 * v)
    psi = 2.0 * math.pi * w
    pts = np.stack((
        np.cos(chi),
        np.sin(chi) * np.cos(phi),
        np.sin(chi) * np.sin(phi) * np.cos(psi),
        np.sin(chi) * np.sin(phi) * np.sin(psi),
    ), axis=1)
    return r * pts / np.linalg.norm(pts, axis=1)[:, None]


def _sample_bytes(spec):
    """Bytes per sample of smges_gap_check's work arrays: the 2n normal
    draws and the point, the Nlev x Nlev stacks a1 (real), b1, eps b1 and
    a1 + eps b1 (complex), and the eigenvalues, sorted, and their gaps."""
    n, nlev = spec.modes, spec.spin_dim
    return 8 * 2 * 2 * n + (8 + 3 * 16) * nlev * nlev + 3 * 8 * nlev


def smges_gap_check(spec, eps, samples, seed=0, grid=False):
    """Minimum eigenvalue gap of a1 + eps b1 over points on the sphere.

    Uniform seeded sampling by default; with grid=True (one or two modes)
    the points come from a fixed deterministic lattice, making the result
    independent of the seed. A sample count whose work arrays
    (_sample_bytes each) would exceed errors.DENSE_BUDGET_BYTES raises
    ResourceError before any point is drawn.
    """
    spec.validate()
    if samples < 1:
        raise ValueError("need at least one sample")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    check_budget("symbol gap check of %d samples needs" % samples,
                 samples * _sample_bytes(spec))
    n = spec.modes
    if grid:
        if n > 2:
            raise ValueError("deterministic grid mode only for n <= 2")
        pts = _grid_points(n, samples)
    else:
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((samples, 2 * n))
        pts = g * (SPHERE_RADIUS / np.linalg.norm(g, axis=1)[:, None])
    s = a1_matrix(spec, pts) + eps * b1_matrix(spec, pts)
    gaps = np.diff(np.sort(np.linalg.eigvalsh(s)))
    # argmin keeps the first of tied minima, as a strict-< scan would
    best = symbol_sample(spec, pts[int(np.argmin(gaps.min(axis=-1)))], eps)
    return GapCheck(best.min_gap, best.X, best)
