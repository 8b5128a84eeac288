"""Print one "name sha256" line per program output, so that two trees can
be checked for byte-identical results with diff.

Run it from the root of each tree and compare:

    python3 tools/output_digests.py --seeds 1 7 11 > digests.txt

The outputs digested are

* every example of README's "Command line" section, its exit code,
  stdout and stderr;
* every op of the benchmark's three workloads (perfbench/workloads.py,
  imported, not changed) at each seed: a CLI op by its output file's
  bytes, a library op by its arrays, tuples and numbers in a fixed byte
  encoding (_encode);
* braak on the four models of the c06 gate, in JSON and in CSV, and
  braak_intervals of each model's parity_split (the c06 gate's route),
  and of one spectrum with values on boundaries inside and beyond the
  census (INTERVAL_VALUES);
* for each of ten layered models (LAYERED), the dense matrix of its build,
  its eigen_spectrum, its count_below at COUNT_THRESHOLDS and the DEBUG
  records of those counts;
* for each of three deep boxes (DEEP), its count_below at DEEP_THRESHOLDS
  and the DEBUG records of those counts;
* for each of four AB frame models (AB), the dense matrix of its build
  and its count_below at AB_THRESHOLDS, one `weyl --family abframe` run
  (AB_WEYL), and `weyl` and `spectrum --cap 40` at alpha 1e160, where
  2 alpha^2 overflows (AB_FAR);
* the `spectrum` runs of DRIVER, one or more per exit of the cutoff-growth
  driver, each with the driver's `converge` DEBUG record (stop reason, m,
  the steps tried, and each solved step with its enclosed count and its
  largest width);
* smges_gap_check for Xi, Lambda and Vee at one, two and three modes
  (SMGES) and each eps of SMGES_EPS: its gap, its point, and the
  eigenvalues and symbol matrices there;
* `quasimode --vectors --eps` on five models (QUASIMODE), one of them
  also with an explicit residual `--cutoff`;
* `overlap` and `perturb --N` where e^(-alpha^2) is below the normal
  range, and past the double range (OVERLAP);
* `weyl` with a negative `--eps` that carries an exponent, as the token
  after the flag and joined to it by "=" (NEGATIVE);
* commands on finite parameters whose matrix entries are past the double
  range, and whose layered count's eigensolve does not converge
  (REFUSED).

BLAS runs on one thread, as in the benchmark. An op that raises is
digested by its exception's type and message.
"""

import argparse
import contextlib
import hashlib
import io
import logging.handlers
import os
import sys
import tempfile

# before numpy is first imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import rabispec  # noqa: E402
import workloads  # noqa: E402
from rabispec.cli import main  # noqa: E402
from rabispec.fock_ops import ModelSpec, build  # noqa: E402
from rabispec.spectral_analysis import (Spectrum, braak_intervals,  # noqa
                                        count_below, eigen_spectrum,
                                        parity_split)
from rabispec.weyl_asymptotics import smges_gap_check  # noqa: E402

if not rabispec.__file__.startswith(sys.path[0]):
    sys.exit("imported rabispec from %s, not from this tree"
             % rabispec.__file__)

# c06: qr at alpha 1, gamma (1, -1), cutoff 16, intervals 0..9 at shift 1/2
C06_EPS = ("0.05", "-0.05", "0.02", "-0.02")
# braak_intervals at shift 0 to nmax 1: -1 and 3 lie on boundaries beyond
# the census, 2 on its last one, 0.5 and 1.5 on none
INTERVAL_VALUES = (-1.0, 0.5, 1.5, 2.0, 3.0)

# every layered family at one, two and three modes, an eps = 0 model whose
# sectors coincide, and a three-mode box of dimension 8788
LAYERED = {
    "qr": ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 150),
    "qrabi": ModelSpec.qrabi(0.8, 0.9, 0.04, 150),
    "xi2": ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (20, 20)),
    "lambda2": ModelSpec.lam((1.0, 0.9), (0.2, 0.6), 0.05, (16, 16)),
    "vee2": ModelSpec.vee((0.7, 1.1), (0.1, 0.4), 0.05, (16, 16)),
    "xi3": ModelSpec.xi((1.0, 0.8, 0.7), (0.3, 0.5, 0.9), 0.05, (5, 5, 5)),
    "lambda3": ModelSpec.lam((0.9, 0.8, 0.6), (0.1, 0.2, 0.7), 0.05,
                             (5, 5, 5)),
    "vee3": ModelSpec.vee((0.6, 0.7, 0.8), (0.1, 0.4, 0.6), 0.05, (5, 5, 5)),
    "xi2-eps0": ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.0, (9, 12)),
    "vee3-box12": ModelSpec.vee((0.6, 0.7, 0.8), (0.1, 0.4, 0.6), 0.05,
                                (12, 12, 12)),
}
# thresholds between eigenvalues, and integer and half-integer ones, where a
# state without a lower-layer neighbour leaves a singular Schur block
COUNT_THRESHOLDS = (-5.0, 0.5, 1.0, 2.5, 4.0, 7.3, 10.0, 20.0)

# boxes far deeper than the layers a count sweeps before it closes: three
# modes, two modes and one chain, too large for a dense matrix
DEEP = {
    "vee3-box30": ModelSpec.vee((0.6, 0.7, 0.8), (0.1, 0.4, 0.6), 0.05,
                                (30, 30, 30)),
    "xi2-box200": ModelSpec.xi((1.0, 0.8), (0.3, 0.5), 0.05, (200, 200)),
    "qr-cutoff20000": ModelSpec.qr(1.0, 1.0, -1.0, 0.02, 20000),
}
DEEP_THRESHOLDS = (5.0, 10.0, 20.0)

# the AB frame: c03's model, a negative alpha and eps, eps = 0, where the
# coupling vanishes and the spectrum is n + 1/2 twice, and a cutoff of 300
AB = {
    "c03": ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 30),
    "negative-alpha": ModelSpec.ab_frame(-0.8, 0.5, -0.2, -0.07, 40),
    "eps0": ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.0, 30),
    "cutoff300": ModelSpec.ab_frame(1.0, 1.0, -1.0, 0.1, 300),
}
AB_THRESHOLDS = (-1.3, 0.7, 3.3, 9.8, 14.2, 40.4, 140.6)
AB_WEYL = ["weyl", "--family", "abframe", "--alpha", "1", "--gamma1", "1",
           "--gamma2=-1", "--eps", "0.1", "--cutoff", "400", "--lambdas",
           "5,50,120,190"]

# the AB frame past sqrt(DBL_MAX / 2), where the displacement matrix is zero
AB_FAR_MODEL = ["--family", "abframe", "--alpha", "1e160", "--gamma1", "1",
                "--gamma2=-1", "--eps", "0.1", "--cutoff", "10"]
AB_FAR = {
    "far-weyl": ["weyl"] + AB_FAR_MODEL + ["--lambdas", "3"],
    "far-spectrum": ["spectrum"] + AB_FAR_MODEL + ["--cap", "40"],
}

# spectrum runs through the cutoff-growth driver, by exit: enclosed (QR
# at eps 0, the AB frame, QRabi with parity labels), cap (QR at cap 20,
# and Xi from a start above its cap) and budget (Vee (4, 4, 4), whose step
# 21^3 is over the dense budget: partial at 14^3)
QR_MODEL = ["--family", "qr", "--alpha", "1", "--gamma1", "1", "--gamma2=-1"]
DRIVER = {
    "enclosed/qr-eps0": ["spectrum"] + QR_MODEL + [
        "--eps", "0", "--cutoff", "20", "--levels", "1200"],
    "enclosed/abframe": [
        "spectrum", "--family", "abframe", "--alpha", "1.1", "--gamma1",
        "1.05", "--gamma2=-0.9", "--eps", "0.1", "--cutoff", "30",
        "--levels", "480"],
    "enclosed/qrabi-parity": [
        "spectrum", "--family", "qrabi", "--alpha", "0.8", "--delta", "0.9",
        "--eps", "0.04", "--cutoff", "20", "--levels", "480", "--parity"],
    "cap/qr": ["spectrum"] + QR_MODEL + [
        "--eps", "0.3", "--cutoff", "4", "--levels", "60", "--tol", "1e-3",
        "--cap", "20"],
    "cap/xi": [
        "spectrum", "--family", "xi", "--alpha", "1,0.8", "--gamma",
        "0.3,0.5", "--eps", "0.05", "--cutoff", "30,1", "--cap", "12",
        "--levels", "400"],
    "budget/vee": [
        "spectrum", "--family", "vee", "--alpha", "0.6,0.7,0.8", "--gamma",
        "0.1,0.4,0.6", "--eps", "0.05", "--cutoff", "4,4,4", "--levels",
        "5000"],
}

# the exact symbol gap: every multilevel family at one, two and three
# modes, with a negative coupling, on both sides of eps = 1 and at it
SMGES = {
    "%s%d" % (family, n): ctor((1.0, -0.8, 0.7)[:n], (0.3, 0.5, 0.9)[:n],
                               0.05, (4,) * n)
    for family, ctor in (("xi", ModelSpec.xi), ("lambda", ModelSpec.lam),
                         ("vee", ModelSpec.vee))
    for n in (1, 2, 3)
}
SMGES_EPS = (0.0, 0.05, 1.0, 2.0)

# quasimode expansions and residuals: a level on a Laguerre zero (the
# README model), the ground level, positive and negative overlap ratios,
# unequal gammas and a negative alpha, and a residual cutoff below the
# default margin
QUASIMODE_MODELS = {
    "degenerate-N1": ["--N", "1", "--alpha", "0.7071067811865476",
                      "--gamma1", "1", "--gamma2=-1"],
    "N0": ["--N", "0", "--alpha", "0.7", "--gamma1", "1", "--gamma2=-1"],
    "N4": ["--N", "4", "--alpha", "1", "--gamma1", "1", "--gamma2=-1"],
    "N3": ["--N", "3", "--alpha", "1.3", "--gamma1", "0.9",
           "--gamma2=-1.1"],
    "N2-negative-alpha": ["--N", "2", "--alpha=-0.8", "--gamma1", "1.2",
                          "--gamma2=-0.6"],
}
QUASIMODE = {
    name: ["quasimode"] + argv + ["--vectors", "--eps", "0.01"]
    for name, argv in QUASIMODE_MODELS.items()
}
QUASIMODE["N3/cutoff90"] = QUASIMODE["N3"] + ["--cutoff", "90"]

# overlaps whose e^(-alpha^2) is below the normal range (alpha^2 800, 760
# and 745.5), whose float sum times sqrt(pi) overflows (alpha 261.16), and
# whose sum overflows (1e300, the benchmark's overlap_alpha_1e300);
# perturb at a closed-form level beyond alpha^2 708.39, and at levels 1 and
# 100 past the double range
SQRT_800 = "28.284271247461902"
OVERLAP = {
    "%s-%s-%s/both" % (n, k, a): ["overlap", "--N", n, "--k", k, "--alpha",
                                  a, "--method", "both"]
    for n, k, a in (("60", "60", SQRT_800), ("59", "60", SQRT_800),
                    ("30", "30", "27.568097504180443"),
                    ("10", "10", "27.303845882952093"))
}
OVERLAP.update({
    "%s-%s-%s/closed" % (n, n, a): ["overlap", "--N", n, "--k", n,
                                    "--alpha", a, "--method", "closed"]
    for n, a in (("60", "261.1602447949193"), ("1", "1e300"))
})
OVERLAP.update({
    "perturb-%s-%s" % (n, a): ["perturb", "--N", n, "--alpha", a,
                               "--gamma1", "1", "--gamma2=-1"]
    for n, a in (("60", SQRT_800), ("1", "1e300"), ("100", "1e200"))
})

NEGATIVE_WEYL = ["weyl"] + QR_MODEL + ["--cutoff", "6", "--lambdas", "3"]
NEGATIVE = {
    "eps-split": NEGATIVE_WEYL + ["--eps", "-1e-3"],
    "eps-joined": NEGATIVE_WEYL + ["--eps=-1e-3"],
}

# levels eps * gamma of +-inf, and an AB coupling eps beta2 D of inf and nan;
# a coupling of 1e300, whose layered count's eigensolve does not converge
OVERFLOW_MODEL = ["--alpha", "1", "--gamma1", "1e308", "--gamma2=-1e308",
                  "--eps", "10", "--cutoff", "5"]
LAPACK_WEYL = ["--eps", "0.05", "--cutoff", "5", "--lambdas", "2"]
REFUSED = {
    "overflow/weyl-qr": ["weyl", "--family", "qr"] + OVERFLOW_MODEL + [
        "--lambdas", "2,100"],
    "overflow/weyl-abframe": ["weyl", "--family", "abframe"]
    + OVERFLOW_MODEL + ["--lambdas", "2,100"],
    "overflow/spectrum-abframe": ["spectrum", "--family", "abframe"]
    + OVERFLOW_MODEL + ["--cap", "8"],
    "overflow/braak-qr": ["braak", "--family", "qr"] + OVERFLOW_MODEL + [
        "--nmax", "3"],
    "lapack/weyl-xi": ["weyl", "--family", "xi", "--alpha", "1e300,0.8",
                       "--gamma", "0.3,0.5"] + LAPACK_WEYL,
    "lapack/weyl-vee": ["weyl", "--family", "vee", "--alpha", "1e300,1,1",
                        "--gamma", "0.3,0.5,0.7"] + LAPACK_WEYL,
    "lapack/weyl-lambda": ["weyl", "--family", "lambda", "--alpha",
                           "1e300,1", "--gamma", "0.3,0.5"] + LAPACK_WEYL,
}


def _encode(value, out):
    """Append a byte encoding of value to the bytearray out: bytes and
    arrays with their length, dtype and shape, sequences item by item,
    floats by their IEEE bits, anything else by its repr."""
    if isinstance(value, (bytes, bytearray)):
        out += b"b%d:" % len(value) + bytes(value)
    elif isinstance(value, np.ndarray):
        out += ("a%s%s:" % (value.dtype.str, value.shape)).encode()
        out += np.ascontiguousarray(value).tobytes()
    elif isinstance(value, (list, tuple)):
        out += b"l%d:" % len(value)
        for v in value:
            _encode(v, out)
    elif isinstance(value, (float, np.floating)):
        out += b"f" + np.float64(value).tobytes()
    elif isinstance(value, (bool, np.bool_)):
        out += b"t" if value else b"n"
    elif isinstance(value, (int, np.integer)):
        out += b"i%d;" % int(value)
    else:
        out += ("r%r;" % (value,)).encode()


def digest(value):
    out = bytearray()
    _encode(value, out)
    return hashlib.sha256(out).hexdigest()


def run_cli(argv):
    """(exit code, stdout, stderr) of rabispec argv, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


@contextlib.contextmanager
def debug_records():
    """The messages of spectral_analysis's DEBUG records logged inside the
    block, as a list filled when the block ends."""
    records = logging.handlers.BufferingHandler(1000)
    logger = logging.getLogger("rabispec.spectral_analysis")
    level = logger.level
    logger.addHandler(records)
    logger.setLevel(logging.DEBUG)
    messages = []
    try:
        yield messages
    finally:
        logger.removeHandler(records)
        logger.setLevel(level)
        messages.extend(r.getMessage() for r in records.buffer)


def counts(op, thresholds):
    """(count_below of op at each threshold, the DEBUG records of those
    counts)."""
    with debug_records() as messages:
        got = [count_below(op, lam) for lam in thresholds]
    return got, messages


def driver_run(argv):
    """run_cli(argv) with its converge DEBUG record."""
    with debug_records() as messages:
        out = run_cli(argv)
    return out, [m for m in messages if m.startswith("converge ")]


def layered_outputs(spec):
    """(sha256 of the dense matrix's bytes, eigen_spectrum, counts at
    COUNT_THRESHOLDS, their DEBUG records) of spec's build. The matrix is
    hashed in place, so the largest array formed is the matrix itself."""
    op = build(spec)
    matrix = hashlib.sha256(memoryview(op.matrix)).hexdigest()
    return (matrix, eigen_spectrum(op)) + counts(op, COUNT_THRESHOLDS)


def interval_report(spectrum, shift, nmax):
    """braak_intervals of spectrum: its counts, verdicts, shift and
    boundary values."""
    rep = braak_intervals(spectrum, shift, nmax)
    return (rep.per_interval, list(rep.verdicts.items()), rep.shift_applied,
            rep.boundary_values)


def readme_commands():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [ln.split()[1:] for ln in block.splitlines()
            if ln.startswith("rabispec ")]


def outputs(seeds):
    """(name, value) of every output, in a fixed order."""
    for i, argv in enumerate(readme_commands()):
        yield "readme/%d/%s" % (i, argv[0]), run_cli(argv)
    for name in sorted(workloads.WORKLOADS):
        for seed in seeds:
            with tempfile.TemporaryDirectory() as out_dir:
                wl = workloads.WORKLOADS[name](seed, out_dir)
                for op in wl.ops:
                    try:
                        value = op.call()
                    except Exception as e:
                        value = ("failed", type(e).__name__, str(e))
                    yield "%s/seed%d/%s" % (name, seed, op.name), value
    for eps in C06_EPS:
        for fmt in ("json", "csv"):
            argv = ["braak", "--family", "qr", "--alpha", "1", "--gamma1",
                    "1", "--gamma2=-1", "--eps", eps, "--cutoff", "16",
                    "--nmax", "9", "--shift", "0.5", "--format", fmt]
            yield "braak_c06/eps%s/%s" % (eps, fmt), run_cli(argv)
        spectrum = parity_split(ModelSpec.qr(1.0, 1.0, -1.0, float(eps), 16),
                                26, 1e-9)
        yield "intervals_c06/eps%s" % eps, interval_report(spectrum, 0.5, 9)
    yield "intervals/boundaries", interval_report(
        Spectrum(np.array(INTERVAL_VALUES), None, len(INTERVAL_VALUES), (8,),
                 None), 0.0, 1)
    for name, spec in LAYERED.items():
        yield "layered/%s" % name, layered_outputs(spec)
    for name, spec in DEEP.items():
        yield "deep/%s" % name, counts(build(spec), DEEP_THRESHOLDS)
    for name, spec in AB.items():
        op = build(spec)
        yield "ab/%s" % name, (hashlib.sha256(memoryview(op.matrix))
                               .hexdigest(),
                               [count_below(op, lam) for lam in AB_THRESHOLDS])
    yield "ab/weyl", run_cli(AB_WEYL)
    for name, argv in AB_FAR.items():
        yield "ab/%s" % name, run_cli(argv)
    for name, argv in DRIVER.items():
        yield "driver/%s" % name, driver_run(argv)
    for name, spec in SMGES.items():
        for eps in SMGES_EPS:
            g = smges_gap_check(spec, eps)
            yield "smges/%s/eps%g" % (name, eps), (
                g.min_gap, g.X, g.sample.eigenvalues, g.sample.a1_matrix,
                g.sample.b1_matrix)
    for name, argv in QUASIMODE.items():
        yield "quasimode/%s" % name, run_cli(argv)
    for name, argv in OVERLAP.items():
        yield "overlap/%s" % name, run_cli(argv)
    for name, argv in NEGATIVE.items():
        yield "negative/%s" % name, run_cli(argv)
    for name, argv in REFUSED.items():
        yield "refused/%s" % name, run_cli(argv)


def cli(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1],
                    help="workload seeds (default 1)")
    args = ap.parse_args(argv)
    for name, value in outputs(args.seeds):
        print(name, digest(value), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(cli())
