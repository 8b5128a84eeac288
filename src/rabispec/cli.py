"""Command-line front end.

Every run resolves a flat configuration (config file, then flags on top),
dispatches to one library operation, and emits a deterministic artifact:
JSON with 17-significant-digit numbers and sorted keys, or CSV with a
comment header carrying the full configuration echo. Identical
configurations produce bitwise-identical files; there are no timestamps and
no random draws.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import fock_ops, overlaps, perturbation, specfun, spectral_analysis
from . import weyl_asymptotics as weyl
from .errors import (NumericError, PrecisionError, RabispecError,
                     ResourceError, UsageError)

JSON_FLOAT_FORMAT = "%.17g"


def _format_json(obj, indent=0):
    """Deterministic JSON: sorted keys, %.17g floats, LF separators."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append('%s  "%s": %s'
                         % (pad, k, _format_json(obj[k], indent + 1)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        # a list of finite Python floats in one format: a sum of floats is
        # finite only when every term is
        if (all(type(v) is float for v in seq)
                and math.isfinite(sum(seq))):
            body = (",\n%s  " % pad).join(
                [JSON_FLOAT_FORMAT] * len(seq)) % tuple(seq)
            return "[\n%s  %s\n%s]" % (pad, body, pad)
        # a list of dicts with one key set and exact-int values from one
        # item template (a bool is an int that prints as true or false)
        keys = sorted(seq[0]) if type(seq[0]) is dict else None
        if keys and all(type(d) is dict and d.keys() == seq[0].keys()
                        for d in seq):
            values = [d[k] for d in seq for k in keys]
            if set(map(type, values)) == {int}:
                inner = pad + "  "
                item = "%s  {\n%s\n%s}" % (pad, ",\n".join(
                    ('%s  "%s": ' % (inner, k)).replace("%", "%%") + "%d"
                    for k in keys), inner)
                body = ",\n".join([item] * len(seq)) % tuple(values)
                return "[\n%s\n%s]" % (body, pad)
        items = ["%s  %s" % (pad, _format_json(v, indent + 1)) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            return json.dumps(str(v))
        return JSON_FLOAT_FORMAT % v
    if isinstance(obj, np.ndarray):
        return _format_json(obj.tolist(), indent)
    return json.dumps(obj)


def _write_atomic(path, write):
    """Call write(tmp) on a temporary file beside path, then rename it over
    path; a failed write leaves path as it was and removes the temporary
    file."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _emit(text, path):
    """Write text to stdout, or atomically to path."""
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(path, lambda tmp: Path(tmp).write_text(
            text, encoding="utf-8", newline=""))


def _emit_csv(header, rows, config, path):
    buf = io.StringIO()
    for k in sorted(config):
        buf.write("# %s=%s\n" % (k, config[k]))
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    _emit(buf.getvalue(), path)


def _parse_config_file(path):
    """Flat key=value lines; blank lines and # comments are skipped."""
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError("config %s line %d: expected key=value"
                                 % (path, ln))
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _floats(text):
    # an empty item, as in "4,,9", "10," or an empty list, is refused too
    try:
        return [float(p) for p in str(text).split(",")]
    except ValueError:
        raise UsageError("expected a comma-separated list of numbers, got %r"
                         % text)


def _ints(text):
    try:
        return [int(p) for p in str(text).split(",")]
    except ValueError:
        raise UsageError("expected a comma-separated list of integers, got %r"
                         % text)


def _require(args, names):
    for n in names:
        if getattr(args, n) is None:
            raise UsageError("--%s is required for family %s"
                             % (n, args.family))


def _one_cutoff(args):
    if "," in str(args.cutoff):
        raise UsageError("--cutoff takes one value for family %s, got %r"
                         % (args.family, args.cutoff))
    return _ints(args.cutoff)[0]


# the model flags each family takes, all required; a level flag that is
# not among them is refused
_MODEL_FLAGS = {
    "qr": ("alpha", "gamma1", "gamma2", "eps", "cutoff"),
    "abframe": ("alpha", "gamma1", "gamma2", "eps", "cutoff"),
    "qrabi": ("alpha", "delta", "eps", "cutoff"),
    "xi": ("alpha", "gamma", "eps", "cutoff"),
    "lambda": ("alpha", "gamma", "eps", "cutoff"),
    "vee": ("alpha", "gamma", "eps", "cutoff"),
}


def _build_model(args, config):
    """The model the flags describe; its echo goes into config["model"]. A
    level flag the family does not take is a usage error."""
    fam = args.family
    _require(args, _MODEL_FLAGS[fam])
    for n in ("gamma1", "gamma2", "gamma", "delta"):
        if n not in _MODEL_FLAGS[fam] and getattr(args, n) is not None:
            raise UsageError("--%s is not a flag of family %s" % (n, fam))
    if fam in ("qr", "abframe"):
        ctor = (fock_ops.ModelSpec.qr if fam == "qr"
                else fock_ops.ModelSpec.ab_frame)
        spec = ctor(float(args.alpha), float(args.gamma1),
                    float(args.gamma2), float(args.eps), _one_cutoff(args))
    elif fam == "qrabi":
        spec = fock_ops.ModelSpec.qrabi(float(args.alpha), float(args.delta),
                                        float(args.eps), _one_cutoff(args))
    else:
        alphas = _floats(args.alpha)
        gammas = _floats(args.gamma)
        cuts = _ints(args.cutoff)
        if len(cuts) == 1:
            cuts = cuts * len(alphas)
        ctor = {"xi": fock_ops.ModelSpec.xi,
                "lambda": fock_ops.ModelSpec.lam,
                "vee": fock_ops.ModelSpec.vee}[fam]
        spec = ctor(alphas, gammas, float(args.eps), cuts)
    config["model"] = {
        "family": spec.family,
        "spin_dim": spec.spin_dim,
        "alphas": list(spec.alphas),
        "gammas": list(spec.gammas),
        "eps": spec.eps,
        "cutoffs": list(spec.cutoffs),
    }
    return spec


def _rabi_params(args):
    return perturbation.RabiParameters(float(args.alpha), float(args.gamma1),
                                       float(args.gamma2))


# ---------------------------------------------------------------------------
# subcommand handlers; each returns its JSON document, without the config
# echo, and its CSV table (header, rows), or None for a JSON-only command

def _cmd_overlap(args, config):
    n, k = int(args.N), int(args.k)
    alpha = float(args.alpha)
    method = args.method
    results = {}
    if method in ("closed", "both"):
        results["closed"] = overlaps.overlap_closed(n, k, alpha)
    if method in ("quadrature", "both"):
        results["quadrature"] = overlaps.overlap_quadrature(n, k, alpha,
                                                            nodes=args.nodes)
        config["nodes_used"] = (args.nodes if args.nodes is not None
                                else overlaps.required_nodes(n, k))
    value = results.get("closed", results.get("quadrature"))
    payload = {"command": "overlap", "N": n, "k": k, "alpha": alpha,
               "value": value,
               "norm_product": math.sqrt(
                   overlaps.weighted_norm_squared(n)
                   * overlaps.weighted_norm_squared(k))}
    payload.update(results)
    return payload, (["N", "k", "alpha", "value"],
                     [(n, k, alpha, float(value))])


def _cmd_laguerre_zeros(args, config):
    deg = int(args.degree)
    zs = [float(z) for z in specfun.laguerre_zeros(deg)]
    return ({"command": "laguerre-zeros", "degree": deg, "zeros": zs},
            (["index", "zero"], list(enumerate(zs))))


def _cmd_avoid_seq(args, config):
    seq = specfun.nondegenerate_sequence(float(args.x0), int(args.jmax),
                                         kcap=int(args.kcap))
    entries = [{"k": e.k, "delta": e.delta, "nearest_zero": e.nearest_zero,
                "distance": e.distance} for e in seq.entries]
    return ({"command": "avoid-seq", "x0": seq.x0, "entries": entries,
             "exhausted": seq.exhausted, "kcap": seq.kcap},
            (["j", "k", "delta", "nearest_zero", "distance"],
             [(j + 1, e.k, e.delta, e.nearest_zero, e.distance)
              for j, e in enumerate(seq.entries)]))


def _cmd_spectrum(args, config):
    spec = _build_model(args, config)
    if args.dump_matrix:
        op = fock_ops.build(spec)
        _write_atomic(args.dump_matrix,
                      lambda tmp: fock_ops.export_matrix(op, tmp))
        config["dump_matrix"] = args.dump_matrix
    m, tol = int(args.levels), float(args.tol)
    cap = int(args.cap) if args.cap is not None else None
    if args.parity:
        result = spectral_analysis.parity_split(spec, m, tol, cap=cap)
    else:
        result = spectral_analysis.converged_spectrum(spec, m, tol, cap=cap)
    doc = result.to_dict()
    doc["command"] = "spectrum"
    columns = [range(len(doc["eigenvalues"])), doc["eigenvalues"]]
    header = ["index", "eigenvalue"]
    if result.parity is not None:
        columns.append(result.parity)
        header.append("parity")
    return doc, (header, list(zip(*columns)))


def _cmd_perturb(args, config):
    params = _rabi_params(args)
    split = perturbation.first_order(int(args.N), params)
    payload = {
        "command": "perturb", "N": split.level,
        "mu_plus": split.mu_plus, "mu_minus": split.mu_minus,
        "w_plus": list(split.w_plus), "w_minus": list(split.w_minus),
        "beta1": split.beta1, "beta2": split.beta2,
        "overlap_ratio": split.overlap_ratio,
        "degenerate": split.degenerate,
    }
    if args.fd_check:
        lo, hi = perturbation.fd_pair_slopes(int(args.N), params)
        payload["fd_slope_minus"] = lo
        payload["fd_slope_plus"] = hi
    return payload, (["N", "mu_minus", "mu_plus", "overlap_ratio",
                      "degenerate"],
                     [(split.level, split.mu_minus, split.mu_plus,
                       split.overlap_ratio, split.degenerate)])


def _cmd_quasimode(args, config):
    params = _rabi_params(args)
    n = int(args.N)
    k = int(args.K) if args.K is not None else None
    if args.eps is not None:
        cutoff = int(args.cutoff) if args.cutoff is not None else None
        k, cutoff = perturbation.check_residual_step(
            n, params, float(args.eps), k, cutoff)
    exp = perturbation.quasimode_vectors(n, params, k)
    payload = {
        "command": "quasimode", "N": n, "K": exp.K,
        "mu2_plus": exp.mu2_plus, "mu2_minus": exp.mu2_minus,
        "tail_estimate": exp.tail_estimate,
        "sign_convention": perturbation.SECOND_ORDER_SIGN,
        "w_plus": list(exp.w_plus), "w_minus": list(exp.w_minus),
    }
    if args.eps is not None:
        res = perturbation.expansion_residual(exp, params, float(args.eps),
                                              cutoff)
        payload["eps"] = float(args.eps)
        payload["residual"] = res.residual
        payload["margin_violated"] = res.margin_violated
    if args.vectors:
        payload["u1_plus"] = list(exp.u1_plus)
        payload["u1_minus"] = list(exp.u1_minus)
        payload["u2_plus"] = list(exp.u2_plus)
        payload["u2_minus"] = list(exp.u2_minus)
    return payload, None


def _cmd_braak(args, config):
    spec = _build_model(args, config)
    nmax = int(args.nmax)
    if args.shift is None:
        shift = 0.5 * spec.alphas[0] ** 2
        if spec.family == fock_ops.QRABI:
            shift += 0.5
    else:
        shift = float(args.shift)
    config["shift"] = shift
    report, depth = spectral_analysis.braak_census(spec, shift, nmax)
    doc = report.to_dict()
    doc["command"] = "braak"
    doc["cutoffs_used"] = [depth]
    return doc, (["N", "count_total", "count_plus", "count_minus"],
                 [tuple(c) for c in report.per_interval])


def _cmd_weyl(args, config):
    spec = _build_model(args, config)
    lambdas = _floats(args.lambdas)
    pred = weyl.weyl_prediction(spec)
    rows = weyl.empirical_counting(spec, lambdas,
                                   reliable_fraction=float(args.fraction))
    return ({"command": "weyl",
             "modes": pred.n, "spin_dim": pred.Nlev,
             "leading_coeff": pred.leading_coeff,
             "subleading_coeff": pred.subleading_coeff,
             "rows": [{"lambda": r.lam, "count": r.count,
                       "prediction": r.prediction, "rel_err": r.rel_err,
                       "flagged": r.flagged} for r in rows]},
            (["lambda", "count", "prediction", "rel_err", "flagged"], rows))


def _cmd_smges_check(args, config):
    spec = _build_model(args, config)
    res = weyl.smges_gap_check(spec, float(args.eps))
    return {"command": "smges-check", "min_gap": res.min_gap,
            "X": list(res.X),
            "eigenvalues": list(res.sample.eigenvalues)}, None


# ---------------------------------------------------------------------------

def _add_model_flags(p, families=("qr", "qrabi", "abframe", "xi", "lambda",
                                  "vee"), default="qr"):
    p.add_argument("--family", choices=families, default=default,
                   required=default is None)
    p.add_argument("--alpha", help="coupling (comma list for N-level models)")
    p.add_argument("--gamma1", type=float, help="upper level parameter")
    p.add_argument("--gamma2", type=float, help="lower level parameter")
    p.add_argument("--gamma", help="comma list of level parameters (N-level)")
    p.add_argument("--delta", type=float, help="level splitting (qrabi)")
    p.add_argument("--eps", type=float, help="perturbation strength")
    p.add_argument("--cutoff", help="per-mode cutoff (comma list allowed)")


def _add_rabi_flags(p):
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma1", type=float, required=True)
    p.add_argument("--gamma2", type=float, required=True)


def _add_common(p, formats=("json", "csv")):
    p.add_argument("--config", help="flat key=value config file; flags win")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and echoed; no command samples")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors raise UsageError, so they reach stderr as
    the JSON error object; subparsers are made of the same class.

    A token that starts with "-" and a digit, or "-." and a digit, is read
    as a value, so that --eps -1e-3 and --gamma -0.3,0.5 parse: argparse's
    own pattern takes only plain negative decimals, and no flag of this
    tool starts that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))


def _overlap_args(p):
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--method", choices=("closed", "quadrature", "both"),
                   default="closed")
    p.add_argument("--nodes", type=int, default=None)
    _add_common(p)


def _laguerre_zeros_args(p):
    p.add_argument("--degree", type=int, required=True)
    _add_common(p)


def _avoid_seq_args(p):
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--kcap", type=int, default=4000)
    _add_common(p)


def _spectrum_args(p):
    _add_model_flags(p)
    p.add_argument("--levels", type=int, default=10,
                   help="eigenvalues to converge")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--cap", type=int, default=None, help="cutoff cap")
    p.add_argument("--parity", action="store_true",
                   help="parity-resolved eigensolve (qr or qrabi)")
    p.add_argument("--dump-matrix", help="also write the assembled matrix")
    _add_common(p)


def _perturb_args(p):
    _add_rabi_flags(p)
    p.add_argument("--fd-check", action="store_true",
                   help="include finite-difference slope cross-check")
    _add_common(p)


def _quasimode_args(p):
    _add_rabi_flags(p)
    p.add_argument("--K", type=int, default=None, help="spectral sum cutoff")
    p.add_argument("--eps", type=float, default=None,
                   help="also evaluate the residual at this strength")
    p.add_argument("--cutoff", type=int, default=None,
                   help="residual evaluation cutoff")
    p.add_argument("--vectors", action="store_true",
                   help="include coefficient vectors in the output")
    _add_common(p, formats=("json",))


def _braak_args(p):
    _add_model_flags(p, families=("qr", "qrabi"))
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--shift", default=None,
                   help="shift (default: alpha^2/2, plus 1/2 for qrabi)")
    _add_common(p)


def _weyl_args(p):
    _add_model_flags(p)
    p.add_argument("--lambdas", required=True,
                   help="comma-separated thresholds")
    p.add_argument("--fraction", type=float,
                   default=weyl.DEFAULT_RELIABLE_FRACTION,
                   help="reliability bound as a fraction of the cutoff")
    _add_common(p)


def _smges_check_args(p):
    _add_model_flags(p, families=("xi", "lambda", "vee"), default=None)
    p.add_argument("--samples", type=int, default=1000,
                   help="accepted and echoed; the gap is exact")
    _add_common(p, formats=("json",))


# every command: (name, help, adds its arguments, handler), in help order
COMMANDS = (
    ("overlap", "displaced eigenfunction overlap", _overlap_args,
     _cmd_overlap),
    ("laguerre-zeros", "zeros of a Laguerre polynomial",
     _laguerre_zeros_args, _cmd_laguerre_zeros),
    ("avoid-seq", "zero-avoiding degree/window sequence", _avoid_seq_args,
     _cmd_avoid_seq),
    ("spectrum", "converged truncated spectrum", _spectrum_args,
     _cmd_spectrum),
    ("perturb", "first-order splitting data", _perturb_args, _cmd_perturb),
    ("quasimode", "second-order quasimode data", _quasimode_args,
     _cmd_quasimode),
    ("braak", "interval counts of the shifted spectrum", _braak_args,
     _cmd_braak),
    ("weyl", "counting function vs two-term law", _weyl_args, _cmd_weyl),
    ("smges-check", "exact symbol eigenvalue gap", _smges_check_args,
     _cmd_smges_check),
)

HANDLERS = {name: handler for name, _, _, handler in COMMANDS}


def build_parser(command=None):
    """The rabispec parser. Every command is registered with its help; the
    arguments are added for command alone, or for every command when
    command is None or names none of them. Parsing an argv whose first
    word is command gives what the full parser gives, help and errors
    included, since no other subparser is consulted; each add_argument
    makes a help formatter, so the others are left empty."""
    ap = _Parser(
        prog="rabispec",
        description="Spectral toolkit for displaced two-level and multilevel "
                    "oscillator models")
    sub = ap.add_subparsers(dest="command", required=True)
    full = command not in HANDLERS
    for name, help_text, add_args, _ in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if full or name == command:
            add_args(p)
    return ap


_SWITCH_KEYS = {"parity", "fd-check", "fd_check", "vectors"}
_SWITCH_VALUES = {"1": True, "true": True, "yes": True,
                  "0": False, "false": False, "no": False}


def _inject_config(argv):
    """Expand --config FILE into flags placed before the user's own flags,
    so explicit flags win by argparse's last-occurrence rule."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    if i == 0:
        raise UsageError("--config must follow a command")
    values = _parse_config_file(argv[i + 1])
    inject = []
    for key in sorted(values):
        flag = "--" + key.replace("_", "-")
        if key in _SWITCH_KEYS:
            on = _SWITCH_VALUES.get(values[key].lower())
            if on is None:
                raise UsageError(
                    "config key %s is a switch: expected 1, true, yes, 0, "
                    "false or no, got %r" % (key, values[key]))
            if on:
                inject.append(flag)
        else:
            inject.extend([flag, values[key]])
    return [argv[0]] + inject + argv[1:]


def _config_echo(args):
    skip = {"command", "config", "out"}
    cfg = {}
    for k, v in vars(args).items():
        if k in skip or v is None:
            continue
        if isinstance(v, (str, int, float, bool)):
            cfg[k] = v
    return cfg


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _inject_config(argv)
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        config = _config_echo(args)
        # numerical warnings are not part of the contract: stderr carries
        # only the JSON error object
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            doc, table = HANDLERS[args.command](args, config)
        if args.format == "csv":
            _emit_csv(*table, config, args.out)
        else:
            doc["config"] = config
            _emit(_format_json(doc) + "\n", args.out)
        return 0
    except (RabispecError, ValueError, KeyError, OSError, OverflowError,
            MemoryError) as e:
        # OSError: a config file that cannot be read or an output file
        # (--out, --dump-matrix) that cannot be written; OverflowError: a
        # value past the double range, e.g. alpha ** 2 at alpha = 1e200;
        # MemoryError: an allocation no budget check foresaw; LinAlgError,
        # a ValueError: a LAPACK routine that did not converge
        if isinstance(e, OverflowError):
            e = PrecisionError("result overflows the double range: %s" % e)
        elif isinstance(e, np.linalg.LinAlgError):
            e = NumericError(str(e))
        elif isinstance(e, MemoryError):
            e = ResourceError("out of memory: %s"
                              % (str(e) or "allocation failed"))
        elif not isinstance(e, RabispecError):
            e = UsageError(str(e))
        _print_error(type(e).__name__, str(e), e.exit_code)
        return e.exit_code


def _print_error(name, message, code):
    sys.stderr.write(_format_json({
        "error": name, "message": message, "exit_code": code}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
