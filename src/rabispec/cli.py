"""Command-line front end.

Every run resolves a flat configuration (config file, then flags on top),
dispatches to one library operation, and emits a deterministic artifact:
JSON with 17-significant-digit numbers and sorted keys, or CSV with a
comment header carrying the full configuration echo. Identical
configurations produce bitwise-identical files; there are no timestamps and
all sampling is seeded.
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import fock_ops, overlaps, perturbation, specfun, spectral_analysis
from . import weyl_asymptotics as weyl
from .errors import RabispecError, UsageError

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


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _emit_json(payload, config, path):
    doc = dict(payload)
    doc["config"] = config
    _emit(_format_json(doc) + "\n", path)


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
    try:
        return [float(p) for p in str(text).split(",") if p != ""]
    except ValueError:
        raise UsageError("expected a comma-separated list of numbers, got %r"
                         % text)


def _ints(text):
    try:
        return [int(p) for p in str(text).split(",") if p != ""]
    except ValueError:
        raise UsageError("expected a comma-separated list of integers, got %r"
                         % text)


MODEL_FAMILIES = {
    "qr": fock_ops.QR,
    "qrabi": fock_ops.QRABI,
    "abframe": fock_ops.AB_FRAME,
    "xi": fock_ops.XI,
    "lambda": fock_ops.LAMBDA,
    "vee": fock_ops.VEE,
}


def _require(args, names):
    for n in names:
        if getattr(args, n.replace("-", "_"), None) is None:
            where = getattr(args, "family", None)
            suffix = " for family %s" % where if where else ""
            raise UsageError("--%s is required%s" % (n, suffix))


def _build_model(args):
    fam = args.family
    if fam not in MODEL_FAMILIES:
        raise UsageError("unknown model family %r" % fam)
    if fam in ("qr", "abframe"):
        _require(args, ["alpha", "gamma1", "gamma2", "eps", "cutoff"])
        ctor = (fock_ops.ModelSpec.qr if fam == "qr"
                else fock_ops.ModelSpec.ab_frame)
        cut = _ints(args.cutoff)
        return ctor(float(args.alpha), float(args.gamma1),
                    float(args.gamma2), float(args.eps), cut[0])
    if fam == "qrabi":
        _require(args, ["alpha", "delta", "eps", "cutoff"])
        cut = _ints(args.cutoff)
        return fock_ops.ModelSpec.qrabi(float(args.alpha), float(args.delta),
                                        float(args.eps), cut[0])
    _require(args, ["alpha", "gamma", "eps", "cutoff"])
    alphas = _floats(args.alpha)
    gammas = _floats(args.gamma)
    cuts = _ints(args.cutoff)
    if len(cuts) == 1:
        cuts = cuts * len(alphas)
    ctor = {"xi": fock_ops.ModelSpec.xi,
            "lambda": fock_ops.ModelSpec.lam,
            "vee": fock_ops.ModelSpec.vee}[fam]
    return ctor(alphas, gammas, float(args.eps), cuts)


def _model_echo(spec):
    return {
        "family": spec.family,
        "spin_dim": spec.spin_dim,
        "alphas": list(spec.alphas),
        "gammas": list(spec.gammas),
        "eps": spec.eps,
        "cutoffs": list(spec.cutoffs),
    }


def _rabi_params(args):
    _require(args, ["alpha", "gamma1", "gamma2"])
    return perturbation.RabiParameters(float(args.alpha), float(args.gamma1),
                                       float(args.gamma2))


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the exit status

def _cmd_overlap(args, config):
    _require(args, ["N", "k", "alpha"])
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
    if args.format == "csv":
        _emit_csv(["N", "k", "alpha", "value"],
                  [(n, k, alpha, float(value))], config, args.out)
    else:
        _emit_json(payload, config, args.out)
    return 0


def _cmd_laguerre_zeros(args, config):
    _require(args, ["degree"])
    deg = int(args.degree)
    zs = specfun.laguerre_zeros(deg)
    if args.format == "csv":
        _emit_csv(["index", "zero"],
                  [(i, float(z)) for i, z in enumerate(zs)],
                  config, args.out)
    else:
        _emit_json({"command": "laguerre-zeros", "degree": deg,
                    "zeros": [float(z) for z in zs]}, config, args.out)
    return 0


def _cmd_avoid_seq(args, config):
    _require(args, ["x0", "jmax"])
    seq = specfun.nondegenerate_sequence(float(args.x0), int(args.jmax),
                                         kcap=int(args.kcap))
    entries = [{"k": e.k, "delta": e.delta, "nearest_zero": e.nearest_zero,
                "distance": e.distance} for e in seq.entries]
    if args.format == "csv":
        _emit_csv(["j", "k", "delta", "nearest_zero", "distance"],
                  [(j + 1, e.k, e.delta, e.nearest_zero, e.distance)
                   for j, e in enumerate(seq.entries)], config, args.out)
    else:
        _emit_json({"command": "avoid-seq", "x0": seq.x0, "entries": entries,
                    "exhausted": seq.exhausted, "kcap": seq.kcap},
                   config, args.out)
    return 0


def _cmd_spectrum(args, config):
    spec = _build_model(args)
    config["model"] = _model_echo(spec)
    if args.dump_matrix:
        fock_ops.export_matrix(fock_ops.build(spec), args.dump_matrix)
        config["dump_matrix"] = args.dump_matrix
    m, tol = int(args.levels), float(args.tol)
    cap = int(args.cap) if args.cap is not None else None
    if args.parity:
        result = spectral_analysis.parity_split(spec, m, tol, cap=cap)
    else:
        result = spectral_analysis.converged_spectrum(spec, m, tol, cap=cap)
    doc = result.to_dict()
    doc["command"] = "spectrum"
    if args.format == "csv":
        rows = []
        for i, v in enumerate(result.eigenvalues):
            if result.parity is not None:
                rows.append((i, float(v), result.parity[i]))
            else:
                rows.append((i, float(v)))
        header = (["index", "eigenvalue", "parity"]
                  if result.parity is not None else ["index", "eigenvalue"])
        _emit_csv(header, rows, config, args.out)
    else:
        _emit_json(doc, config, args.out)
    return 0


def _cmd_perturb(args, config):
    _require(args, ["N"])
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
    if args.format == "csv":
        _emit_csv(["N", "mu_minus", "mu_plus", "overlap_ratio", "degenerate"],
                  [(split.level, split.mu_minus, split.mu_plus,
                    split.overlap_ratio, split.degenerate)],
                  config, args.out)
    else:
        _emit_json(payload, config, args.out)
    return 0


def _cmd_quasimode(args, config):
    _require(args, ["N"])
    params = _rabi_params(args)
    n = int(args.N)
    k = int(args.K) if args.K is not None else None
    exp = perturbation.quasimode_vectors(n, params, k)
    payload = {
        "command": "quasimode", "N": n, "K": exp.K,
        "mu2_plus": exp.mu2_plus, "mu2_minus": exp.mu2_minus,
        "tail_estimate": exp.tail_estimate,
        "sign_convention": perturbation.SECOND_ORDER_SIGN,
        "w_plus": list(exp.w_plus), "w_minus": list(exp.w_minus),
    }
    if args.eps is not None:
        cutoff = int(args.cutoff) if args.cutoff is not None else None
        res = perturbation.quasimode_residual(n, params, float(args.eps),
                                              k, cutoff)
        payload["eps"] = float(args.eps)
        payload["residual"] = res.residual
        payload["margin_violated"] = res.margin_violated
    if args.vectors:
        payload["u1_plus"] = list(exp.u1_plus)
        payload["u1_minus"] = list(exp.u1_minus)
        payload["u2_plus"] = list(exp.u2_plus)
        payload["u2_minus"] = list(exp.u2_minus)
    _emit_json(payload, config, args.out)
    return 0


def _cmd_braak(args, config):
    spec = _build_model(args)
    if spec.family not in (fock_ops.QR, fock_ops.QRABI):
        raise UsageError("braak intervals are defined for qr or qrabi models")
    config["model"] = _model_echo(spec)
    _require(args, ["nmax"])
    nmax = int(args.nmax)
    if args.shift is None:
        shift = 0.5 * spec.alphas[0] ** 2
        if spec.family == fock_ops.QRABI:
            shift += 0.5
    else:
        shift = float(args.shift)
    config["shift"] = shift
    m = int(args.levels) if args.levels else 2 * (nmax + 2)
    config["levels"] = m
    spectrum = spectral_analysis.parity_split(spec, m, float(args.tol))
    report = spectral_analysis.braak_intervals(spectrum, shift, nmax)
    doc = report.to_dict()
    doc["command"] = "braak"
    doc["cutoffs_used"] = list(spectrum.cutoffs_used)
    if args.format == "csv":
        _emit_csv(["N", "count_total", "count_plus", "count_minus"],
                  [(c.N, c.total, c.plus, c.minus)
                   for c in report.per_interval], config, args.out)
    else:
        _emit_json(doc, config, args.out)
    return 0


def _cmd_weyl(args, config):
    _require(args, ["lambdas"])
    spec = _build_model(args)
    config["model"] = _model_echo(spec)
    lambdas = _floats(args.lambdas)
    pred = weyl.weyl_prediction(spec)
    rows = weyl.empirical_counting(spec, lambdas,
                                   reliable_fraction=float(args.fraction),
                                   jobs=int(args.jobs))
    if args.format == "csv":
        _emit_csv(["lambda", "count", "prediction", "rel_err", "flagged"],
                  [tuple(r) for r in rows], config, args.out)
    else:
        _emit_json({
            "command": "weyl",
            "modes": pred.n, "spin_dim": pred.Nlev,
            "leading_coeff": pred.leading_coeff,
            "subleading_coeff": pred.subleading_coeff,
            "rows": [{"lambda": r.lam, "count": r.count,
                      "prediction": r.prediction, "rel_err": r.rel_err,
                      "flagged": r.flagged} for r in rows],
        }, config, args.out)
    return 0


def _cmd_smges_check(args, config):
    spec = _build_model(args)
    if spec.family not in (fock_ops.XI, fock_ops.LAMBDA, fock_ops.VEE):
        raise UsageError("smges-check applies to xi, lambda, or vee models")
    config["model"] = _model_echo(spec)
    res = weyl.smges_gap_check(spec, float(args.eps), int(args.samples),
                               seed=int(args.seed), grid=args.grid)
    _emit_json({
        "command": "smges-check",
        "min_gap": res.min_gap,
        "X": list(res.X),
        "eigenvalues": list(res.sample.eigenvalues),
    }, config, args.out)
    return 0


# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--family", default="qr",
                   help="qr, qrabi, abframe, xi, lambda, or vee")
    p.add_argument("--alpha", help="coupling (comma list for N-level models)")
    p.add_argument("--gamma1", type=float, help="upper level parameter")
    p.add_argument("--gamma2", type=float, help="lower level parameter")
    p.add_argument("--gamma", help="comma list of level parameters (N-level)")
    p.add_argument("--delta", type=float, help="level splitting (qrabi)")
    p.add_argument("--eps", type=float, help="perturbation strength")
    p.add_argument("--cutoff", help="per-mode cutoff (comma list allowed)")


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file; flags win")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for any sampling (echoed)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads for sweep commands")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rabispec",
        description="Spectral toolkit for displaced two-level and multilevel "
                    "oscillator models")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overlap", help="displaced eigenfunction overlap")
    p.add_argument("--N", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha")
    p.add_argument("--method", choices=("closed", "quadrature", "both"),
                   default="closed")
    p.add_argument("--nodes", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("laguerre-zeros", help="zeros of a Laguerre polynomial")
    p.add_argument("--degree", type=int)
    _add_common(p)

    p = sub.add_parser("avoid-seq",
                       help="zero-avoiding degree/window sequence")
    p.add_argument("--x0", type=float)
    p.add_argument("--jmax", type=int)
    p.add_argument("--kcap", type=int, default=4000)
    _add_common(p)

    p = sub.add_parser("spectrum", help="converged truncated spectrum")
    _add_model_flags(p)
    p.add_argument("--levels", type=int, default=10,
                   help="eigenvalues to converge")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--cap", type=int, default=None, help="cutoff cap")
    p.add_argument("--parity", action="store_true",
                   help="parity-resolved eigensolve (qr or qrabi)")
    p.add_argument("--dump-matrix", help="also write the assembled matrix")
    _add_common(p)

    p = sub.add_parser("perturb", help="first-order splitting data")
    p.add_argument("--N", type=int)
    p.add_argument("--alpha")
    p.add_argument("--gamma1", type=float)
    p.add_argument("--gamma2", type=float)
    p.add_argument("--fd-check", action="store_true",
                   help="include finite-difference slope cross-check")
    _add_common(p)

    p = sub.add_parser("quasimode", help="second-order quasimode data")
    p.add_argument("--N", type=int)
    p.add_argument("--alpha")
    p.add_argument("--gamma1", type=float)
    p.add_argument("--gamma2", type=float)
    p.add_argument("--K", type=int, default=None, help="spectral sum cutoff")
    p.add_argument("--eps", type=float, default=None,
                   help="also evaluate the residual at this strength")
    p.add_argument("--cutoff", type=int, default=None,
                   help="residual evaluation cutoff")
    p.add_argument("--vectors", action="store_true",
                   help="include coefficient vectors in the output")
    _add_common(p)

    p = sub.add_parser("braak", help="interval counts of the shifted spectrum")
    _add_model_flags(p)
    p.add_argument("--nmax", type=int)
    p.add_argument("--shift", default=None,
                   help="shift (default: alpha^2/2, plus 1/2 for qrabi)")
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p)

    p = sub.add_parser("weyl", help="counting function vs two-term law")
    _add_model_flags(p)
    p.add_argument("--lambdas", help="comma-separated thresholds")
    p.add_argument("--fraction", type=float,
                   default=weyl.DEFAULT_RELIABLE_FRACTION,
                   help="reliability bound as a fraction of the cutoff")
    _add_common(p)

    p = sub.add_parser("smges-check", help="symbol eigenvalue gap sampling")
    _add_model_flags(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--grid", action="store_true",
                   help="deterministic lattice instead of seeded sampling")
    _add_common(p)
    return ap


HANDLERS = {
    "overlap": _cmd_overlap,
    "laguerre-zeros": _cmd_laguerre_zeros,
    "avoid-seq": _cmd_avoid_seq,
    "spectrum": _cmd_spectrum,
    "perturb": _cmd_perturb,
    "quasimode": _cmd_quasimode,
    "braak": _cmd_braak,
    "weyl": _cmd_weyl,
    "smges-check": _cmd_smges_check,
}


_SWITCH_KEYS = {"parity", "grid", "fd-check", "fd_check", "vectors"}


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
            if values[key].lower() in ("1", "true", "yes"):
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
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _inject_config(argv)
        args = parser.parse_args(argv)
        config = _config_echo(args)
        handler = HANDLERS[args.command]
        return handler(args, config)
    except RabispecError as e:
        _print_error(type(e).__name__, str(e), e.exit_code)
        return e.exit_code
    except (ValueError, KeyError, OSError) as e:
        # OSError: a config file that cannot be read or an output file
        # (--out, --dump-matrix) that cannot be written
        _print_error("UsageError", str(e), UsageError.exit_code)
        return UsageError.exit_code


def _print_error(name, message, code):
    sys.stderr.write(_format_json({
        "error": name, "message": message, "exit_code": code}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
