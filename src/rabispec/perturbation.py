"""Eigenvalue perturbation of the displaced two-level model in the frame
where the unperturbed part is the bare oscillator.

Level N + 1/2 of the unperturbed operator is doubly degenerate (one copy per
spin). To first order in eps the pair splits as

    mu_pm = beta1 pm beta2 |r|,   r = e^{-a^2} L_N(2 a^2),

with beta1 = (gamma1+gamma2)/2, beta2 = (gamma1-gamma2)/2 and r the
normalized diagonal overlap. When r = 0 (the calibrated Laguerre argument
2 a^2 sits on a zero of L_N) the first order vanishes and the second-order
quadratic form takes over; its 2x2 matrix turns out to be a multiple of the
identity for every N and every parameter choice, because the interaction
blocks satisfy M* M = beta2^2 D(N,k)^2 I_2 by the overlap antisymmetry. The
two second-order coefficients therefore always coincide; see the tests,
which pin this down rather than assuming a splitting at this order.

Each branch of the pair lies in one parity sector s of the frame
(branch_parity), where the operator is H_s(eps) = P + eps B_s with
P = diag(k + 1/2) and B_s y = beta1 y + s beta2 D ((-1)^k y), because
D^T = S D S with S = diag((-1)^k). The quasimode vectors and their
residual are formed there, on the K + 1 coefficients of the sector, by
one function (sector_perturbation) from one displacement matrix; the
2(K + 1) frame is never formed, and the vectors are returned in its
layout, (y, s (-1)^k y).

WARNING ON CONVENTION. The second-order spectral weights are used here as
1/(lambda_k - lambda_N), and the resulting number mu2 enters eigenvalue
expansions as

    lambda(eps) = lambda_N + eps beta1 + (1/2) eps^2 SECOND_ORDER_SIGN mu2.

SECOND_ORDER_SIGN = -1 was calibrated once against central second
differences of eigensolver output (the two candidate weight conventions
differ by overall sign); those differences, formed in the tests from the
eigenvalues of the AB parity sectors (spectral_analysis.ab_spectra), are
the authority for it and a test re-derives it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (OBJECT_BYTES, ModelSpecError, PrecisionError, UsageError,
                     check_budget)
from .fock_ops import ModelSpec
from .overlaps import diagonal_overlap_ratio, displacement_matrix
from .spectral_analysis import ab_spectra

# calibrated once against central second differences of the AB parity
# sectors' eigenvalues (fd_second_differences on ab_spectra in
# tests/test_perturbation.py); do not edit without re-running that
# comparison
SECOND_ORDER_SIGN = -1.0

DEGENERACY_TOL = 1e-9

DEFAULT_SPECTRAL_CUTOFF_MARGIN = 60
RESIDUAL_CUTOFF_MARGIN = 40


@dataclass(frozen=True)
class RabiParameters:
    alpha: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.gamma1, self.gamma2))):
            raise ModelSpecError("model parameters must be finite")
        if self.gamma1 < self.gamma2:
            raise ValueError("gamma1 must not be below gamma2")

    @property
    def beta1(self):
        return 0.5 * (self.gamma1 + self.gamma2)

    @property
    def beta2(self):
        return 0.5 * (self.gamma1 - self.gamma2)


@dataclass
class FirstOrderSplit:
    level: int
    mu_plus: float
    mu_minus: float
    w_plus: np.ndarray
    w_minus: np.ndarray
    beta1: float
    beta2: float
    overlap_ratio: float
    degenerate: bool


def first_order(N, params):
    """First-order splitting data for the degenerate pair at level N."""
    if N < 0:
        raise ValueError("level must be nonnegative")
    r = diagonal_overlap_ratio(N, params.alpha)
    b1, b2 = params.beta1, params.beta2
    degenerate = abs(r) < DEGENERACY_TOL
    if degenerate:
        wp = np.array([1.0, 1.0]) / math.sqrt(2.0)
        wm = np.array([1.0, -1.0]) / math.sqrt(2.0)
        mu_p = mu_m = b1
    else:
        s = 1.0 if r > 0 else -1.0
        wp = np.array([s, 1.0]) / math.sqrt(2.0)
        wm = np.array([s, -1.0]) / math.sqrt(2.0)
        mu_p = b1 + b2 * abs(r)
        mu_m = b1 - b2 * abs(r)
    return FirstOrderSplit(N, mu_p, mu_m, wp, wm, b1, b2, r, degenerate)


class QuasimodeForm(NamedTuple):
    matrix: np.ndarray
    mu2_minus: float
    mu2_plus: float
    tail_estimate: float


# the vectors of length n + 1 that a quasimode routine holds at once beside
# the displacement matrix D at cutoff n: the 16 of displacement_matrix,
# more than any routine's own (_form's, the expansion's and the residual's)
VECTORS = 16


def _check_arrays(what, n):
    """Raise ResourceError unless the budget admits what: D at cutoff n,
    (n + 1)^2 doubles, VECTORS vectors of n + 1 and errors.OBJECT_BYTES
    of Python objects (check_budget)."""
    check_budget("%s need" % what,
                 8 * (n + 1 + VECTORS) * (n + 1) + OBJECT_BYTES)


def _spectral_cutoff(N, K, what):
    """K, N + DEFAULT_SPECTRAL_CUTOFF_MARGIN by default, once the budget
    admits what at K (_check_arrays)."""
    if K is None:
        K = N + DEFAULT_SPECTRAL_CUTOFF_MARGIN
    if K <= N:
        raise ValueError("spectral cutoff K must exceed the level N")
    _check_arrays("%s at K = %d" % (what, K), K)
    return K


def quasimode_form(N, params, K=None):
    """Second-order 2x2 quadratic form at level N from the spectral sum to K.

    The matrix carries the overall factor 2 of the quadratic form and is a
    multiple of the identity (see module docstring), so mu2_minus equals
    mu2_plus. The tail estimate is a heuristic bound from the last retained
    term; the summand decays superexponentially in k. A K whose arrays
    would exceed the budget raises ResourceError before D is formed.
    """
    K = _spectral_cutoff(N, K, "the quasimode form's arrays")
    return _form(N, params, displacement_matrix(K, params.alpha)[N, :])


def _form(N, params, d):
    """quasimode_form from row N of the displacement matrix."""
    K = d.size - 1
    k = np.arange(K + 1)
    mask = k != N
    terms = 2.0 * params.beta2 ** 2 * d[mask] ** 2 / (k[mask] - N)
    q = float(np.sum(terms))
    tail = 3.0 * abs(2.0 * params.beta2 ** 2 * d[K] ** 2 / (K - N))
    return QuasimodeForm(q * np.eye(2), q, q, tail)


@dataclass
class QuasimodeExpansion:
    level: int
    mu2_plus: float
    mu2_minus: float
    u1_plus: np.ndarray
    u1_minus: np.ndarray
    u2_plus: np.ndarray
    u2_minus: np.ndarray
    K: int
    w_plus: np.ndarray
    w_minus: np.ndarray
    tail_estimate: float
    mu1_plus: float
    mu1_minus: float
    parity: tuple


def sector_perturbation(d, sign, params, y):
    """B_s y = beta1 y + s beta2 D ((-1)^k y): the perturbation B of the AB
    frame on its parity sector s (fock_ops.ABSector) applied to y, the
    y.size coefficients of the frame vector (y, s (-1)^k y), with D = d of
    the same cutoff. B_s is B on the sector because D^T = S D S, S =
    diag((-1)^k)."""
    sy = y.copy()
    sy[1::2] *= -1.0
    return params.beta1 * y + (sign * params.beta2) * (d @ sy)


def quasimode_vectors(N, params, K=None):
    """First- and second-order quasimode coefficient vectors at level N.

    Coefficients live on the product basis at cutoff K, spin slowest. With
    mu the first-order eigenvalue of the branch, u1 = R0 (mu - B) (phi_N w)
    and u2 = R0 (mu - B) u1; both have vanishing components on the
    unperturbed eigenspace because the reduced resolvent kills it. Each
    branch lies in one AB parity sector s (branch_parity), where phi_N w
    is (x0, s (-1)^k x0) with x0 = w[0] e_N, so both are formed on the
    K + 1 coefficients of the sector (sector_perturbation) and returned
    as frame vectors (y, s (-1)^k y). A K whose arrays would exceed the
    budget raises ResourceError before D is formed.
    """
    K = _spectral_cutoff(N, K, "the quasimode vectors' arrays")
    d = displacement_matrix(K, params.alpha)
    form = _form(N, params, d[N, :])
    split = first_order(N, params)
    parity = _branch_parity(N, split)
    # R0 on a sector: the harmonic gaps k - N, exact, and 0 on level N
    with np.errstate(divide="ignore"):
        weights = 1.0 / (np.arange(K + 1.0) - N)
    weights[N] = 0.0
    u = []
    for w, mu, s in ((split.w_plus, split.mu_plus, parity[0]),
                     (split.w_minus, split.mu_minus, parity[1])):
        y = np.zeros(K + 1)
        y[N] = w[0]
        for _ in range(2):
            y = weights * (mu * y - sector_perturbation(d, s, params, y))
            frame = np.concatenate((y, s * y))
            frame[K + 2::2] *= -1.0
            u.append(frame)
    return QuasimodeExpansion(
        level=N,
        mu2_plus=form.mu2_plus,
        mu2_minus=form.mu2_minus,
        u1_plus=u[0],
        u1_minus=u[2],
        u2_plus=u[1],
        u2_minus=u[3],
        K=K,
        w_plus=split.w_plus,
        w_minus=split.w_minus,
        tail_estimate=form.tail_estimate,
        mu1_plus=split.mu_plus,
        mu1_minus=split.mu_minus,
        parity=parity,
    )


class QuasimodeResidual(NamedTuple):
    residual: float
    margin_violated: bool


def quasimode_residual(N, params, eps, K=None, cutoff=None):
    """Max over the pair of ||(A+eps B)u - lambda u|| / ||u||.

    u(eps) = phi_N w + eps u1 + eps^2 u2 embedded into the larger cutoff
    basis, lambda(eps) = lambda_N + eps mu + (1/2) eps^2 sigma mu2 with mu
    the first-order branch value and sigma the calibrated sign. The margin
    flag reports a cutoff too close to K for the truncation error to stay
    below the eps^3 scale of interest. Both steps are checked
    (check_residual_step) before the expansion is formed.
    """
    K, cutoff = check_residual_step(N, params, eps, K, cutoff)
    return expansion_residual(quasimode_vectors(N, params, K), params, eps,
                              cutoff)


def check_residual_step(N, params, eps, K=None, cutoff=None):
    """(K, cutoff) of quasimode_residual at level N once both steps are
    admitted, from the arguments alone: the budget of the vectors at K
    (_spectral_cutoff), then the residual cutoff with the model at eps
    (_residual_cutoff). Nothing is formed, so a residual step that would
    be refused is refused before the expansion's displacement matrix is."""
    K = _spectral_cutoff(N, K, "the quasimode vectors' arrays")
    return K, _residual_cutoff(K, params, eps, cutoff)


def _residual_cutoff(K, params, eps, cutoff):
    """The residual step's cutoff, K + RESIDUAL_CUTOFF_MARGIN by default
    and not below K (ValueError), once the model is checked as build would
    check the AB frame at eps and cutoff (ModelSpecError) and the budget
    admits its arrays (_check_arrays, ResourceError)."""
    if cutoff is None:
        cutoff = K + RESIDUAL_CUTOFF_MARGIN
    if cutoff < K:
        raise ValueError("residual cutoff %d is below the spectral cutoff "
                         "K = %d" % (cutoff, K))
    ModelSpec.ab_frame(params.alpha, params.gamma1, params.gamma2, eps,
                       cutoff).validate()
    _check_arrays("the quasimode residual's arrays at cutoff %d" % cutoff,
                  cutoff)
    return cutoff


def expansion_residual(exp, params, eps, cutoff=None):
    """quasimode_residual of an expansion quasimode_vectors already made
    for params.

    Each branch's u is the frame vector (y, s (-1)^k y) of its sector s, so
    its residual is ||H_s y - lambda y|| / ||y||, with H_s = P + eps B_s
    (sector_perturbation) applied at the cutoff without forming it. The
    cutoff and the model are checked before D is formed (_residual_cutoff).
    A residual that is not finite raises PrecisionError.
    """
    N, K = exp.level, exp.K
    cutoff = _residual_cutoff(K, params, eps, cutoff)
    margin_violated = cutoff < K + RESIDUAL_CUTOFF_MARGIN
    d = displacement_matrix(cutoff, params.alpha)
    lam = np.arange(cutoff + 1) + 0.5
    worst = 0.0
    branches = ((exp.w_plus, exp.u1_plus, exp.u2_plus, exp.mu1_plus,
                 exp.mu2_plus, exp.parity[0]),
                (exp.w_minus, exp.u1_minus, exp.u2_minus, exp.mu1_minus,
                 exp.mu2_minus, exp.parity[1]))
    for w, u1, u2, mu, mu2, s in branches:
        y = np.zeros(cutoff + 1)
        level = N + 0.5 + eps * mu + 0.5 * eps * eps * SECOND_ORDER_SIGN * mu2
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            y[:K + 1] = eps * u1[:K + 1] + eps * eps * u2[:K + 1]
            y[N] += w[0]
            hy = lam * y + eps * sector_perturbation(d, s, params, y)
            res = np.linalg.norm(hy - level * y) / np.linalg.norm(y)
        if not math.isfinite(res):
            raise PrecisionError("quasimode residual at eps=%r is not finite"
                                 % eps)
        worst = max(worst, res)
    return QuasimodeResidual(worst, margin_violated)


# ---------------------------------------------------------------------------
# finite-difference oracles on eigensolver output; these never touch the
# perturbation formulas above, so the two routes stay independent

def branch_parity(N, params):
    """Parity sector labels (plus_branch, minus_branch) for the level-N pair."""
    return _branch_parity(N, first_order(N, params))


def _branch_parity(N, split):
    """branch_parity from the level's first_order split."""
    base = 1 if N % 2 == 0 else -1
    if split.degenerate or split.overlap_ratio >= 0:
        return base, -base
    return -base, base


def _check_level(N, cutoff):
    """Raise UsageError unless level N is one of the cutoff + 1 levels of
    a parity sector at cutoff."""
    if not 0 <= N <= cutoff:
        raise UsageError("level N = %d is outside the finite-difference "
                         "oracles' cutoff %d" % (N, cutoff))


def fd_pair_slopes(N, params, eps_fd=1e-3, cutoff=240):
    """Richardson-extrapolated eps-slopes (slope_minus, slope_plus) of the
    sorted eigenvalue pair at level N of the displaced-frame operator,
    the merged eigenvalues of its two parity sectors (ab_spectra) at the
    four eps, from one displacement matrix. A level outside 0..cutoff
    raises UsageError."""
    _check_level(N, cutoff)
    spectra = [values for values, _ in ab_spectra([
        ModelSpec.ab_frame(params.alpha, params.gamma1, params.gamma2, eps,
                           cutoff)
        for eps in (eps_fd, -eps_fd, eps_fd / 2, -eps_fd / 2)])]

    def central(eps, plus, minus):
        lo_p, hi_p = plus[2 * N], plus[2 * N + 1]
        lo_m, hi_m = minus[2 * N], minus[2 * N + 1]
        # the branch that rises fastest at +eps is the lowest at -eps
        return (lo_p - hi_m) / (2 * eps), (hi_p - lo_m) / (2 * eps)

    s1 = central(eps_fd, *spectra[:2])
    s2 = central(eps_fd / 2, *spectra[2:])
    return ((4 * s2[0] - s1[0]) / 3.0, (4 * s2[1] - s1[1]) / 3.0)


def fd_signed_splitting(N, params, eps, cutoff=240):
    """Parity-tracked signed gap lambda_plusbranch - lambda_minusbranch. A
    level outside 0..cutoff raises UsageError."""
    _check_level(N, cutoff)
    (values, sector), = ab_spectra([ModelSpec.ab_frame(
        params.alpha, params.gamma1, params.gamma2, eps, cutoff)])
    lp, lm = (values[sector == (1 - s) // 2][N]
              for s in branch_parity(N, params))
    return lp - lm
