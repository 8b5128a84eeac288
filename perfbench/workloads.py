"""The benchmark's three workloads: seeded inputs, operations and checks.

Each workload draws its model parameters from the seed, lists a fixed set of
operations (``rabispec`` CLI commands run in-process through
``rabispec.cli.main`` with ``--out`` into the output directory, and public
library calls), and checks the outputs of one round against computations
made apart from the program or against properties the method must have.
Sizes (cutoffs, levels, degrees, sample counts) never depend on the seed, so
every seed does the same amount of work.

Program functions are always looked up on their module at call time, so the
traced run sees the calls once ``tracing.Tracer`` has wrapped them.
"""

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.special

from rabispec import (cli, fock_ops, overlaps, perturbation, specfun,
                      spectral_analysis, weyl_asymptotics)

# exit codes documented in the README table for failures
DOCUMENTED_ERROR_CODES = frozenset(range(1, 9))


class OpFailed(Exception):
    """An operation returned an error instead of its output."""


class Op(NamedTuple):
    name: str
    call: Callable[[], object]


def _draw(rng, lo, hi):
    """Uniform draw rounded to 4 decimals, so CLI text and floats agree."""
    return round(rng.uniform(lo, hi), 4)


def _cli_op(out_dir, name, argv, expect_error=False):
    """Run ``rabispec <argv> --out FILE``; the op's value is the file's bytes.

    With expect_error the command must fail the documented way: a code from
    the README table, and the JSON error object on stderr. The value is
    then the stderr text.
    """
    path = os.path.join(out_dir, name + ".out")
    argv = [str(a) for a in argv] + ["--out", path]

    def call():
        if os.path.exists(path):
            os.remove(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if expect_error:
            _require_error_contract(code, err.getvalue())
            return err.getvalue().encode("utf-8")
        if code != 0:
            raise OpFailed("exit %s: %s" % (code, err.getvalue().strip()))
        with open(path, "rb") as f:
            return f.read()

    return Op(name, call)


def _require_error_contract(code, stderr):
    if code not in DOCUMENTED_ERROR_CODES:
        raise OpFailed("exit code %r is not a documented failure" % (code,))
    try:
        doc = json.loads(stderr)
    except ValueError:
        raise OpFailed("stderr is not a JSON error object: %r" % stderr)
    if not (isinstance(doc, dict) and isinstance(doc.get("error"), str)
            and isinstance(doc.get("message"), str)
            and doc.get("exit_code") == code):
        raise OpFailed("malformed JSON error object: %r" % stderr)


class Checks:
    """Collects named check failures; a check that raises also fails."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)

    def run(self, name, fn, *args):
        try:
            fn(self, *args)
        except Exception as e:  # a missing or malformed output fails it
            self.failures.append("%s: %s: %s" % (name, type(e).__name__, e))


def _doc(results, name):
    return json.loads(results[name])


def _close(a, b, tol):
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# independent oracles

def _hermite_shifted(n, s):
    """Coefficients in x of the physicists' Hermite H_n(x + s), exact."""
    prev, cur = [], [Fraction(1)]
    for m in range(n):
        nxt = [Fraction(0)] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
            nxt[i] += 2 * s * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * m * c
        prev, cur = cur, nxt
    return cur


def exact_overlap(N, k, alpha):
    """O(N,k) = int H_N(x-a) H_k(x+a) exp(-x^2-a^2) dx, ladder Hermite.

    The polynomial product is expanded exactly in x and integrated against
    the Gaussian moments int x^m e^{-x^2} = sqrt(pi) (m-1)!! / 2^(m/2); one
    rounding at the end. Ladder H_n is 2^(-n/2) times the physicists' one.
    """
    a = Fraction(alpha)
    p = _hermite_shifted(N, -a)
    q = _hermite_shifted(k, a)
    total = Fraction(0)
    dfact = 1  # (m-1)!! for the current even m
    for m in range(0, N + k + 1, 2):
        if m:
            dfact *= m - 1
        c = sum(p[i] * q[m - i]
                for i in range(max(0, m - k), min(N, m) + 1))
        total += c * dfact / Fraction(2) ** (m // 2)
    odd = (N + k) & 1
    scale = float(total / Fraction(2) ** ((N + k + odd) // 2))
    if odd:
        scale *= math.sqrt(2.0)
    return scale * math.sqrt(math.pi) * math.exp(-alpha * alpha)


def _level_pairs(family, levels):
    """Coupled level pair (row, col) of coupling k = 1..levels-1."""
    out = []
    for k in range(1, levels):
        if family == "xi":
            out.append((k - 1, k))
        elif family == "lambda":
            out.append((k - 1, levels - 1))
        else:
            out.append((0, k))
    return out


def dense_nlevel(family, alphas, gammas, cutoffs):
    """The N-level multimode Hamiltonian assembled with numpy.kron.

    Spin slowest, modes row-major: harmonic part, alpha_k x_k on the
    coupling pattern, and the level energies (0, gamma_1, ...).
    """
    dims = [c + 1 for c in cutoffs]
    levels = len(alphas) + 1

    def on_mode(j, op):
        out = np.eye(1)
        for i, d in enumerate(dims):
            out = np.kron(out, op if i == j else np.eye(d))
        return out

    def x_op(d):
        off = np.sqrt(np.arange(1.0, d) / 2.0)
        return np.diag(off, 1) + np.diag(off, -1)

    number = sum(on_mode(j, np.diag(np.arange(d) + 0.5))
                 for j, d in enumerate(dims))
    h = np.kron(np.eye(levels), number)
    for k, (i, j) in enumerate(_level_pairs(family, levels)):
        e = np.zeros((levels, levels))
        e[i, j] = e[j, i] = 1.0
        h += alphas[k] * np.kron(e, on_mode(k, x_op(dims[k])))
    energies = np.concatenate(([0.0], gammas))
    h += np.kron(np.diag(energies), np.eye(number.shape[0]))
    return h


def symbol(family, alphas, eps, X):
    """a1 + eps b1 on the coupling graph: alpha_k (x_k + i eps xi_k) above
    the diagonal, its conjugate below."""
    n = len(alphas)
    levels = n + 1
    s = np.zeros((levels, levels), dtype=complex)
    for k, (i, j) in enumerate(_level_pairs(family, levels)):
        v = alphas[k] * complex(X[k], eps * X[n + k])
        s[i, j] += v
        s[j, i] += v.conjugate()
    return s


# ---------------------------------------------------------------------------

class ChainSpectra:
    """Single-mode QR/QRabi spectra, interval census and inertia counts."""

    name = "chain_spectra"
    # Level counts sit above the size of the last cutoff the growth driver
    # must pass, so every seed stops at the same cutoff and does the same work.
    LEVELS_EPS0 = 1200      # from cutoff 20, stops at 1166 (dim 2334)
    LEVELS_QRABI = 480      # from cutoff 20, stops at 518 (dim 1038)
    BRAAK_NMAX = 1000       # 2*(nmax+2) levels; from 16, stops at 2093
    COUNT_CUTOFF = 2000     # dim 4002

    def __init__(self, seed, out_dir):
        rng = random.Random("%s:%d" % (self.name, seed))
        self.alpha = _draw(rng, 0.9, 1.1)
        self.gamma1 = _draw(rng, 0.8, 1.2)
        self.gamma2 = -_draw(rng, 0.8, 1.2)
        self.eps = rng.choice((-1.0, 1.0)) * _draw(rng, 0.01, 0.05)
        self.qrabi = (_draw(rng, 0.6, 1.0), _draw(rng, 0.8, 1.2),
                      _draw(rng, 0.05, 0.15))
        # thresholds strictly between eps = 0 levels n + 1/2 - alpha^2/2
        self.count_levels = (rng.randint(250, 500), rng.randint(600, 900))
        shift = 0.5 - 0.5 * self.alpha ** 2
        self.thresholds = tuple(n + shift + rng.uniform(0.25, 0.75)
                                for n in self.count_levels)
        qr = ["--family", "qr", "--alpha", self.alpha,
              "--gamma1", self.gamma1, "--gamma2", self.gamma2]
        a, d, e = self.qrabi
        qrabi = ["spectrum", "--family", "qrabi", "--alpha", a, "--delta", d,
                 "--eps", e, "--cutoff", 20, "--levels", self.LEVELS_QRABI]
        self.ops = [
            _cli_op(out_dir, "qr_eps0_spectrum",
                    ["spectrum"] + qr + ["--eps", 0, "--cutoff", 20,
                                         "--levels", self.LEVELS_EPS0]),
            _cli_op(out_dir, "qrabi_spectrum", qrabi),
            _cli_op(out_dir, "qrabi_parity_spectrum", qrabi + ["--parity"]),
            _cli_op(out_dir, "qr_braak",
                    ["braak"] + qr + ["--eps", self.eps, "--cutoff", 16,
                                      "--nmax", self.BRAAK_NMAX]),
            Op("qr_inertia_counts", self._inertia_counts),
        ]

    def _inertia_counts(self):
        spec = fock_ops.ModelSpec.qr(self.alpha, self.gamma1, self.gamma2,
                                     0.0, self.COUNT_CUTOFF)
        op = fock_ops.build(spec)
        return [spectral_analysis.count_below(op, t)
                for t in self.thresholds]

    def check(self, results):
        c = Checks()
        c.run("eps0_levels", self._check_eps0, results)
        c.run("inertia_counts", self._check_counts, results)
        c.run("parity_merge", self._check_merge, results)
        c.run("braak_c06", self._check_braak, results)
        return c.failures

    def _check_eps0(self, c, results):
        doc = _doc(results, "qr_eps0_spectrum")
        conv = doc["converged_count"]
        c.expect(not doc["partial"] and conv >= self.LEVELS_EPS0,
                 "eps=0 spectrum did not converge")
        ev = np.asarray(doc["eigenvalues"][:conv])
        exact = np.arange(conv) // 2 + 0.5 - 0.5 * self.alpha ** 2
        err = float(np.max(np.abs(ev - exact)))
        c.expect(err <= 1e-8, "eps=0 levels off n+1/2-alpha^2/2 by %g" % err)

    def _check_counts(self, c, results):
        got = results["qr_inertia_counts"]
        for n, t, g in zip(self.count_levels, self.thresholds, got):
            want = 2 * (math.floor(t + 0.5 * self.alpha ** 2 - 0.5) + 1)
            c.expect(want == 2 * (n + 1) and g == want,
                     "count_below(%.6f) = %s, exact %d" % (t, g, want))

    def _check_merge(self, c, results):
        plain = _doc(results, "qrabi_spectrum")
        split = _doc(results, "qrabi_parity_spectrum")
        m = min(plain["converged_count"], split["converged_count"])
        c.expect(m >= self.LEVELS_QRABI and not plain["partial"]
                 and not split["partial"], "qrabi spectra did not converge")
        c.expect(set(split["parity"]) <= {"+", "-"}, "bad parity labels")
        diff = np.max(np.abs(np.asarray(plain["eigenvalues"][:m])
                             - np.asarray(split["eigenvalues"][:m])))
        c.expect(diff <= 1e-9, "parity spectrum merged differs by %g" % diff)

    def _check_braak(self, c, results):
        doc = _doc(results, "qr_braak")
        cells = doc["per_interval"]
        c.expect(len(cells) == self.BRAAK_NMAX + 1, "braak interval count")
        bad = [x["N"] for x in cells
               if (x["total"], x["plus"], x["minus"]) != (2, 1, 1)]
        c.expect(not bad, "braak intervals without one eigenvalue per "
                          "parity: %s" % bad[:5])
        c.expect(all(all(v.values()) for v in doc["verdicts"].values()),
                 "braak verdicts fail: %s" % doc["verdicts"])
        c.expect(_close(doc["shift_applied"], 0.5 * self.alpha ** 2, 1e-15),
                 "braak shift is not alpha^2/2")


class MultimodeWeyl:
    """Xi/Lambda/Vee counting, symbol gaps and multimode inertia."""

    name = "multimode_weyl"
    WEYL_CUTOFF = 40        # dim 3 * 41^2 = 5043
    # Counts scatter by a few states around the two-term law as the
    # parameters move the level shells across a threshold. The reliable grid
    # (lambda <= cutoff/2) and the narrow Xi ranges below keep the fall of
    # the relative error along the grid larger than that scatter.
    LAMBDAS = (5.0, 10.0, 20.0)
    SMGES_SAMPLES = 2500
    VEE_CUTOFF = 10         # three modes: dim 4 * 11^3 = 5324
    SMALL_CUTOFF = 20       # dim 1323, checked against numpy eigvalsh
    CONVERGED_START = 8
    CONVERGED_LEVELS = 10

    def __init__(self, seed, out_dir):
        rng = random.Random("%s:%d" % (self.name, seed))
        self.xi_alphas = (_draw(rng, 0.97, 1.03), _draw(rng, 0.77, 0.83))
        self.xi_gammas = (_draw(rng, 0.28, 0.32), _draw(rng, 0.48, 0.52))
        self.xi_eps = _draw(rng, 0.03, 0.08)
        self.lam_alphas = (_draw(rng, 0.8, 1.2), _draw(rng, 0.8, 1.2))
        self.lam_gammas = (_draw(rng, 0.1, 0.3), _draw(rng, 0.35, 0.5))
        self.lam_eps = _draw(rng, 0.05, 0.15)
        self.smges_seed = rng.randrange(1 << 30)
        self.vee_alphas = tuple(_draw(rng, 0.5, 0.9) for _ in range(3))
        self.vee_gammas = (_draw(rng, 0.1, 0.3), _draw(rng, 0.35, 0.5),
                           _draw(rng, 0.55, 0.7))
        self.vee_threshold = rng.uniform(7.0, 8.0)
        self.small_thresholds = (rng.uniform(3.0, 4.0), rng.uniform(6.0, 7.0),
                                 rng.uniform(9.0, 10.0))

        def csv(xs):
            return ",".join(repr(x) for x in xs)

        xi = ["--family", "xi", "--alpha", csv(self.xi_alphas),
              "--gamma", csv(self.xi_gammas), "--eps", self.xi_eps]
        lam = ["--family", "lambda", "--alpha", csv(self.lam_alphas),
               "--gamma", csv(self.lam_gammas), "--eps", self.lam_eps]
        self.ops = [
            _cli_op(out_dir, "xi_weyl",
                    ["weyl"] + xi + ["--cutoff", self.WEYL_CUTOFF,
                                     "--lambdas", csv(self.LAMBDAS)]),
            _cli_op(out_dir, "lambda_smges_check",
                    ["smges-check"] + lam + [
                        "--cutoff", 10, "--samples", self.SMGES_SAMPLES,
                        "--seed", self.smges_seed]),
            Op("vee3_count_below", self._vee_count),
            Op("vee3_nonpositive_count", self._vee_nonpositive),
            Op("xi_small_counts", self._small_counts),
            Op("xi_converged_spectrum", self._converged),
        ]

    def _xi(self, cutoff):
        return fock_ops.ModelSpec.xi(self.xi_alphas, self.xi_gammas,
                                     self.xi_eps, [cutoff, cutoff])

    def _vee(self):
        return fock_ops.ModelSpec.vee(self.vee_alphas, self.vee_gammas, 0.05,
                                      [self.VEE_CUTOFF] * 3)

    def _vee_count(self):
        op = fock_ops.build(self._vee())
        return spectral_analysis.count_below(op, self.vee_threshold)

    def _vee_nonpositive(self):
        return weyl_asymptotics.nonpositive_count(self._vee())

    def _small_counts(self):
        op = fock_ops.build(self._xi(self.SMALL_CUTOFF))
        return [spectral_analysis.count_below(op, t)
                for t in self.small_thresholds]

    def _converged(self):
        s = spectral_analysis.converged_spectrum(
            self._xi(self.CONVERGED_START), self.CONVERGED_LEVELS, 1e-8)
        return (s.eigenvalues, s.converged_count, s.cutoffs_used, s.partial)

    def check(self, results):
        c = Checks()
        c.run("weyl", self._check_weyl, results)
        c.run("smges_check", self._check_smges, results)
        c.run("count_monotone", self._check_monotone, results)
        c.run("count_vs_eigvalsh", self._check_small, results)
        c.run("converged_vs_eigvalsh", self._check_converged, results)
        return c.failures

    def _check_weyl(self, c, results):
        doc = _doc(results, "xi_weyl")
        c.expect(doc["modes"] == 2 and doc["spin_dim"] == 3, "weyl shape")
        lead, sub = doc["leading_coeff"], doc["subleading_coeff"]
        c.expect(_close(lead, 3 / math.factorial(2), 1e-15),
                 "leading_coeff %r is not Nlev/n! = 1.5" % lead)
        c.expect(abs(sub) <= 1e-12, "subleading_coeff %r is not 0" % sub)
        rows = doc["rows"]
        c.expect([r["lambda"] for r in rows] == list(self.LAMBDAS),
                 "weyl rows do not follow the lambda grid")
        bound = 0.5 * self.WEYL_CUTOFF
        for r in rows:
            pred = lead * r["lambda"] ** 2 - sub * r["lambda"] ** 1.5
            c.expect(_close(r["prediction"], pred, 1e-12 * pred),
                     "prediction at %g" % r["lambda"])
            c.expect(_close(r["rel_err"], (r["count"] - pred) / pred, 1e-12),
                     "rel_err at %g" % r["lambda"])
            c.expect(r["flagged"] == (r["lambda"] > bound),
                     "flag at %g" % r["lambda"])
        counts = [r["count"] for r in rows]
        c.expect(counts == sorted(counts), "weyl counts decrease: %s" % counts)
        errs = [abs(r["rel_err"]) for r in rows if not r["flagged"]]
        c.expect(len(errs) >= 3 and all(b < a for a, b in zip(errs, errs[1:])),
                 "relative error does not shrink along lambda: %s" % errs)

    def _check_smges(self, c, results):
        doc = _doc(results, "lambda_smges_check")
        X = np.asarray(doc["X"])
        c.expect(_close(float(np.linalg.norm(X)), math.sqrt(2.0), 1e-12),
                 "|X| = %r, not sqrt(2)" % float(np.linalg.norm(X)))
        want = np.linalg.eigvalsh(symbol("lambda", self.lam_alphas,
                                         self.lam_eps, X))
        got = np.asarray(doc["eigenvalues"])
        c.expect(float(np.max(np.abs(got - want))) <= 1e-12,
                 "symbol eigenvalues differ from a1 + eps b1")
        gap = float(np.min(np.diff(got)))
        c.expect(_close(doc["min_gap"], gap, 1e-15 * max(1.0, gap)),
                 "min_gap %r is not the least spacing %r"
                 % (doc["min_gap"], gap))

    def _check_monotone(self, c, results):
        nonpos = results["vee3_nonpositive_count"]
        count = results["vee3_count_below"]
        c.expect(0 <= nonpos <= count,
                 "vee counts not monotone: N(0)=%s, N(%.4f)=%s"
                 % (nonpos, self.vee_threshold, count))
        small = results["xi_small_counts"]
        c.expect(small == sorted(small), "small counts decrease: %s" % small)

    def _check_small(self, c, results):
        h = dense_nlevel("xi", self.xi_alphas, self.xi_gammas,
                         [self.SMALL_CUTOFF] * 2)
        ev = np.linalg.eigvalsh(h)
        want = [int(np.count_nonzero(ev <= t)) for t in self.small_thresholds]
        c.expect(results["xi_small_counts"] == want,
                 "count_below %s, eigvalsh %s"
                 % (results["xi_small_counts"], want))

    def _check_converged(self, c, results):
        ev, conv, cutoffs, partial = results["xi_converged_spectrum"]
        c.expect(not partial and conv >= self.CONVERGED_LEVELS,
                 "multimode spectrum did not converge")
        ref = np.linalg.eigvalsh(dense_nlevel("xi", self.xi_alphas,
                                              self.xi_gammas, cutoffs))
        diff = float(np.max(np.abs(np.asarray(ev[:conv]) - ref[:conv])))
        c.expect(diff <= 1e-9, "converged spectrum off eigvalsh by %g" % diff)


class OverlapCertify:
    """Overlap routes, displacement matrices, AB frame and perturbation."""

    name = "overlap_certify"
    GRID = 30               # overlap grid 0 <= N, k <= GRID
    DISPLACEMENT_CUTOFF = 2000
    UNIT_COLUMNS = 200      # leading columns whose norm must be 1
    AB_LEVELS = 480         # from cutoff 30, stops at 518 (dim 1038)
    FD_LEVELS = 5           # fd_pair_slopes for N < FD_LEVELS
    ZEROS_DEGREE = 2000
    ZEROS_CHECKED = (150, 250)  # degrees scipy's roots_laguerre handles
    EXACT_PAIRS = 8
    # c11's starting points; the sequence's degrees (and cost) swing wildly
    # with x0 and many x0 exhaust kcap before four windows, so x0 is fixed
    AVOID_X0 = (0.5, 3.7)

    def __init__(self, seed, out_dir):
        rng = random.Random("%s:%d" % (self.name, seed))
        self.grid_alpha = _draw(rng, 0.5, 2.0)
        self.alpha = _draw(rng, 0.8, 1.3)
        self.gamma1 = _draw(rng, 0.8, 1.2)
        self.gamma2 = -_draw(rng, 0.8, 1.2)
        self.ab_eps = _draw(rng, 0.05, 0.15)
        self.quasimode_alpha = _draw(rng, 0.6, 1.4)
        self.cli_pair = (rng.randint(0, 40), rng.randint(0, 40))
        self.perturb_level = rng.randint(0, 6)
        self.exact_pairs = [(rng.randint(0, self.GRID), rng.randint(0, self.GRID))
                            for _ in range(self.EXACT_PAIRS)]
        self.params = perturbation.RabiParameters(self.alpha, self.gamma1,
                                                  self.gamma2)
        rabi = ["--alpha", self.alpha, "--gamma1", self.gamma1,
                "--gamma2", self.gamma2]
        model = rabi + ["--eps", self.ab_eps, "--cutoff", 30,
                        "--levels", self.AB_LEVELS]
        n, k = self.cli_pair
        self.ops = [
            Op("overlap_grid", self._grid),
            _cli_op(out_dir, "overlap_both",
                    ["overlap", "--N", n, "--k", k, "--alpha", self.alpha,
                     "--method", "both"]),
            Op("displacement_matrix", self._displacement),
            _cli_op(out_dir, "ab_spectrum",
                    ["spectrum", "--family", "abframe"] + model),
            _cli_op(out_dir, "qr_spectrum",
                    ["spectrum", "--family", "qr"] + model),
            _cli_op(out_dir, "perturb_fd_check",
                    ["perturb", "--N", self.perturb_level] + rabi
                    + ["--fd-check"]),
            Op("fd_pair_slopes", self._fd_slopes),
            _cli_op(out_dir, "quasimode",
                    ["quasimode", "--N", 1, "--alpha", self.quasimode_alpha,
                     "--gamma1", self.gamma1, "--gamma2", self.gamma2,
                     "--eps", 0.01]),
            Op("quasimode_residual", self._residual),
            _cli_op(out_dir, "laguerre_zeros",
                    ["laguerre-zeros", "--degree", self.ZEROS_DEGREE]),
            Op("laguerre_zeros_lib", self._zeros),
        ] + [
            _cli_op(out_dir, "avoid_seq_%d" % i,
                    ["avoid-seq", "--x0", x0, "--jmax", 4])
            for i, x0 in enumerate(self.AVOID_X0)
        ] + [
            # known fault: the overflow escapes cli.main as a traceback
            _cli_op(out_dir, "overlap_alpha_1e300",
                    ["overlap", "--N", 1, "--k", 1, "--alpha", "1e300"],
                    expect_error=True),
        ]

    def _grid(self):
        a = self.grid_alpha
        size = self.GRID + 1
        closed = np.empty((size, size))
        quad = np.empty((size, size))
        for N in range(size):
            for k in range(size):
                closed[N, k] = overlaps.overlap_closed(N, k, a)
                quad[N, k] = overlaps.overlap_quadrature(N, k, a)
        return closed, quad

    def _displacement(self):
        return overlaps.displacement_matrix(self.DISPLACEMENT_CUTOFF,
                                            self.alpha)

    def _fd_slopes(self):
        return [perturbation.fd_pair_slopes(N, self.params)
                for N in range(self.FD_LEVELS)]

    def _residual(self):
        p = perturbation.RabiParameters(self.quasimode_alpha, self.gamma1,
                                        self.gamma2)
        return perturbation.quasimode_residual(1, p, 1e-3).residual

    def _zeros(self):
        return [specfun.laguerre_zeros(d) for d in self.ZEROS_CHECKED]

    def _first_order(self, N):
        """beta1 -+ beta2 |e^{-a^2} L_N(2 a^2)| from scipy's Laguerre."""
        a2 = self.alpha ** 2
        r = abs(math.exp(-a2) * scipy.special.eval_laguerre(N, 2.0 * a2))
        b1 = 0.5 * (self.gamma1 + self.gamma2)
        b2 = 0.5 * (self.gamma1 - self.gamma2)
        return b1 - b2 * r, b1 + b2 * r

    def check(self, results):
        c = Checks()
        c.run("overlap_exact", self._check_overlap, results)
        c.run("diagonal_laguerre", self._check_diagonal, results)
        c.run("displacement_matrix", self._check_displacement, results)
        c.run("ab_frame_c03", self._check_ab, results)
        c.run("fd_slopes", self._check_fd, results)
        c.run("quasimode_slope", self._check_quasimode, results)
        c.run("laguerre_zeros", self._check_zeros, results)
        for i, x0 in enumerate(self.AVOID_X0):
            c.run("avoid_seq_c11", self._check_avoid, results, i, x0)
        return c.failures

    def _check_overlap(self, c, results):
        closed, quad = results["overlap_grid"]
        size = self.GRID + 1
        norms = np.sqrt([overlaps.weighted_norm_squared(N)
                         for N in range(size)])
        scale = np.outer(norms, norms)
        # c01's guard: far off the diagonal both values are rounding residue
        rel = np.abs(closed - quad) / np.maximum(np.abs(closed), 1e-12 * scale)
        c.expect(float(rel.max()) < 1e-10,
                 "closed vs quadrature rel err %g" % float(rel.max()))
        for N, k in self.exact_pairs:
            ref = exact_overlap(N, k, self.grid_alpha)
            floor = max(abs(ref), 1e-12 * scale[N, k])
            c.expect(abs(closed[N, k] - ref) <= 1e-12 * floor,
                     "closed O(%d,%d) off exact sum" % (N, k))
            c.expect(abs(quad[N, k] - ref) <= 1e-10 * floor,
                     "quadrature O(%d,%d) off exact sum" % (N, k))
        doc = _doc(results, "overlap_both")
        n, k = self.cli_pair
        ref = exact_overlap(n, k, self.alpha)
        floor = max(abs(ref), 1e-12 * math.sqrt(
            overlaps.weighted_norm_squared(n)
            * overlaps.weighted_norm_squared(k)))
        c.expect(abs(doc["closed"] - ref) <= 1e-12 * floor
                 and abs(doc["quadrature"] - ref) <= 1e-10 * floor,
                 "overlap CLI O(%d,%d) off exact sum" % (n, k))

    def _check_diagonal(self, c, results):
        closed, _ = results["overlap_grid"]
        a = self.grid_alpha
        for N in range(self.GRID + 1):
            norm = math.sqrt(math.pi) * math.factorial(N)
            ref = norm * math.exp(-a * a) * \
                scipy.special.eval_laguerre(N, 2.0 * a * a)
            c.expect(abs(closed[N, N] - ref) <= 1e-12 * norm,
                     "O(%d,%d) != sqrt(pi) N! e^-a^2 L_N(2a^2)" % (N, N))

    def _check_displacement(self, c, results):
        D = results["displacement_matrix"]
        idx = np.arange(D.shape[0])
        signs = np.where((idx[:, None] + idx[None, :]) & 1, -1.0, 1.0)
        c.expect(np.array_equal(D.T, signs * D),
                 "D[k,N] != (-1)^(N+k) D[N,k]")
        cols = np.linalg.norm(D[:, :self.UNIT_COLUMNS], axis=0)
        c.expect(float(np.max(np.abs(cols - 1.0))) <= 1e-12,
                 "leading columns of D are not unit vectors")
        for N, k in self.exact_pairs:
            ref = exact_overlap(N, k, self.alpha) / math.sqrt(
                overlaps.weighted_norm_squared(N)
                * overlaps.weighted_norm_squared(k))
            c.expect(abs(D[N, k] - ref) <= 1e-12,
                     "D[%d,%d] off the exact normalized overlap" % (N, k))

    def _check_ab(self, c, results):
        ab = _doc(results, "ab_spectrum")
        qr = _doc(results, "qr_spectrum")
        m = self.AB_LEVELS
        c.expect(not ab["partial"] and not qr["partial"]
                 and min(ab["converged_count"], qr["converged_count"]) >= m,
                 "AB/QR spectra did not converge")
        diff = np.abs(np.asarray(qr["eigenvalues"][:m]) + 0.5 * self.alpha ** 2
                      - np.asarray(ab["eigenvalues"][:m]))
        c.expect(float(diff.max()) < 1e-8,
                 "AB spectrum != QR + alpha^2/2 (off by %g)" % diff.max())

    def _check_fd(self, c, results):
        for N, (lo, hi) in enumerate(results["fd_pair_slopes"]):
            want = self._first_order(N)
            c.expect(abs(lo - want[0]) < 1e-4 and abs(hi - want[1]) < 1e-4,
                     "fd slopes at N=%d: %r vs %r" % (N, (lo, hi), want))
        doc = _doc(results, "perturb_fd_check")
        want = self._first_order(self.perturb_level)
        c.expect(_close(doc["mu_minus"], want[0], 1e-12)
                 and _close(doc["mu_plus"], want[1], 1e-12),
                 "perturb first-order values off the Laguerre formula")
        c.expect(_close(doc["fd_slope_minus"], want[0], 1e-4)
                 and _close(doc["fd_slope_plus"], want[1], 1e-4),
                 "perturb --fd-check slopes off the Laguerre formula")

    def _check_quasimode(self, c, results):
        hi = _doc(results, "quasimode")["residual"]
        lo = results["quasimode_residual"]
        slope = math.log(hi / lo) / math.log(10.0)
        c.expect(slope >= 2.9, "quasimode residual slope %.3f < 2.9" % slope)

    def _check_zeros(self, c, results):
        for d, z in zip(self.ZEROS_CHECKED, results["laguerre_zeros_lib"]):
            ref, _ = scipy.special.roots_laguerre(d)
            err = float(np.max(np.abs(z - ref) / ref))
            c.expect(err <= 1e-11, "degree %d zeros off scipy by %g" % (d, err))
        z = np.asarray(_doc(results, "laguerre_zeros")["zeros"])
        n = self.ZEROS_DEGREE
        c.expect(z.size == n and bool(np.all(np.diff(z) > 0)) and z[0] > 0,
                 "degree %d zeros are not %d ascending positives" % (n, n))
        # trace identities of the Jacobi matrix: sum x = n^2 and
        # sum x^2 = sum (2i+1)^2 + 2 sum_{i<n} i^2
        i = np.arange(n, dtype=float)
        sq = float(np.sum((2 * i + 1) ** 2) + 2 * np.sum(i[1:] ** 2))
        c.expect(abs(z.sum() - n * n) <= 1e-12 * n * n
                 and abs(np.sum(z * z) - sq) <= 1e-12 * sq,
                 "degree %d zeros fail the Jacobi trace identities" % n)

    def _check_avoid(self, c, results, i, x0):
        doc = _doc(results, "avoid_seq_%d" % i)
        entries = doc["entries"]
        c.expect(len(entries) == 4 and not doc["exhausted"],
                 "avoidance sequence has %d entries" % len(entries))
        ks = [e["k"] for e in entries]
        deltas = [e["delta"] for e in entries]
        c.expect(all(b > a for a, b in zip(ks, ks[1:])),
                 "degrees not increasing: %s" % ks)
        c.expect(all(b < a / 10.0 for a, b in zip(deltas, deltas[1:])),
                 "windows do not shrink tenfold: %s" % deltas)
        for e in entries:
            k, delta = e["k"], e["delta"]
            # no zero of L_j, j < k, inside the window (c11's direct scan)
            hits = [j for j in range(1, k)
                    if scipy.linalg.eigvalsh_tridiagonal(
                        2.0 * np.arange(j) + 1.0, np.arange(1.0, j),
                        select="v", select_range=(x0 - delta, x0 + delta)).size]
            c.expect(not hits, "L_%s has a zero within %g of x0"
                     % (hits[:1], delta))
            z = scipy.linalg.eigvalsh_tridiagonal(2.0 * np.arange(k) + 1.0,
                                                  np.arange(1.0, k))
            d = float(np.min(np.abs(z - x0)))
            c.expect(d <= delta and _close(d, e["distance"], 1e-8 * d),
                     "degree %d: nearest zero %g vs reported %g"
                     % (k, d, e["distance"]))


WORKLOADS = {w.name: w for w in (ChainSpectra, MultimodeWeyl, OverlapCertify)}
