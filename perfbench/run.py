#!/usr/bin/env python3
"""rabispec benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload chain_spectra --seed 1 --seconds 25
    python3 perfbench/run.py --workload all --seed 1 --json-out res.json

One caller runs a closed loop of rounds. A round is the workload's fixed
list of operations, each started when the previous one returns. Rounds
repeat until the next one would end more than half a round past --seconds,
and at least one runs. wall_s is the median over rounds of a round's
elapsed time less the steal time /proc/stat reports for it: on a shared
virtual machine the hypervisor takes the CPUs away for a varying share of
every second, which swings raw elapsed time by tens of percent. BLAS runs
on one thread (OPENBLAS_NUM_THREADS=1) for the same reason: two threads on
two virtual CPUs stall whenever either CPU is taken away.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs untraced rounds for half the time, then traced rounds, and reports the
per-layer metrics and the tracing overhead.
The outputs of the first round are checked (outside the timed region);
every later round must reproduce them byte for byte, traced or not.

The last line on stdout is one JSON object with the keys correct,
attempted, failed and metrics. Metric names, units and bounds come from
BENCHMARK.json at the repository root.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
# set before numpy loads, and inherited by the set-up subprocesses
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _steal():
    """Seconds the hypervisor has run other guests on this machine's CPUs
    (the steal column of /proc/stat); 0 where that is not reported."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def measure_setup(samples=SETUP_SAMPLES):
    """Median time, less steal, of a fresh interpreter importing rabispec.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import rabispec.cli, sys; sys.stdout.write(rabispec.__file__)"
    times = []
    for _ in range(samples):
        s0 = _steal()
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0 - (_steal() - s0))
        if done.returncode != 0 or not done.stdout.startswith(SRC):
            raise RuntimeError("fresh import of rabispec.cli failed: %s"
                               % (done.stderr.strip() or done.stdout))
    return statistics.median(times), times


def _fingerprint(value, h):
    """Feed a canonical byte form of an op's value into hash h."""
    import numpy as np  # only after main() has set BLAS_ENV
    if isinstance(value, bytes):
        h.update(b"b%d:" % len(value))
        h.update(value)
    elif isinstance(value, np.ndarray):
        h.update(("a%s%s:" % (value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"l%d:" % len(value))
        for v in value:
            _fingerprint(v, h)
    else:
        h.update(("s%r;" % (value,)).encode())


def run_round(ops):
    """Run every op once, in order; failures are caught, counted, skipped."""
    values, digests, times, failures = {}, {}, {}, {}
    steal0, cpu0 = _steal(), _cpu()
    t_round = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            value = op.call()
        except Exception as e:  # the benchmark goes on past a failing op
            times[op.name] = time.perf_counter() - t0
            failures[op.name] = "%s: %s" % (type(e).__name__, e)
            digests[op.name] = "failed:" + type(e).__name__
            continue
        times[op.name] = time.perf_counter() - t0
        values[op.name] = value
        h = hashlib.sha256()
        _fingerprint(value, h)
        digests[op.name] = h.hexdigest()
    elapsed = time.perf_counter() - t_round
    steal = _steal() - steal0
    out_bytes = sum(len(v) for v in values.values() if isinstance(v, bytes))
    return {"wall": elapsed - steal, "elapsed": elapsed, "steal": steal,
            "cpu": _cpu() - cpu0, "values": values, "digests": digests,
            "times": times, "failures": failures, "output_bytes": out_bytes}


def run_rounds(ops, seconds, rounds, on_round=None):
    """Append rounds until the next would end past seconds by half a round."""
    t0 = time.perf_counter()
    while True:
        r = run_round(ops)
        if on_round is not None:
            on_round(r)
        r["values"] = None
        rounds.append(r)
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * r["elapsed"] > seconds:
            return


def run_workload(name, seed, seconds, traced):
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, OUT)
    first = {}
    problems = []

    def keep_first(r):
        if not first:
            first.update(r)
            problems.extend(wl.check(r["values"]))
            first["values"] = None

    untraced, traced_rounds = [], []
    tracer = None
    if not traced:
        run_rounds(wl.ops, seconds, untraced, keep_first)
    else:
        run_rounds(wl.ops, 0.5 * seconds, untraced, keep_first)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_rounds(wl.ops, 0.5 * seconds, traced_rounds)
        finally:
            tracer.uninstall()
    rounds = untraced + traced_rounds
    for i, r in enumerate(rounds[1:], start=2):
        for op, d in r["digests"].items():
            if d != first["digests"][op]:
                problems.append("round %d: output of %s differs from round 1"
                                % (i, op))
    attempted = len(wl.ops) * len(rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    wall = statistics.median(r["wall"] for r in untraced)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds,
        "rounds": len(untraced),
        "round_wall_s": [r["wall"] for r in untraced],
        "round_elapsed_s": [r["elapsed"] for r in untraced],
        "round_steal_s": [r["steal"] for r in untraced],
        "round_cpu_s": [r["cpu"] for r in untraced],
        "op_median_s": {op.name: statistics.median(r["times"][op.name]
                                                   for r in untraced)
                        for op in wl.ops},
        "failures": first["failures"], "problems": problems,
        "inputs": {k: v for k, v in vars(wl).items() if k != "ops"},
    }
    if not traced:
        return problems, attempted, failed, {"wall_s": wall}, detail
    layer = tracer.summary(len(traced_rounds))
    layer["cli.output_bytes"] = first["output_bytes"]
    traced_wall = statistics.median(r["wall"] for r in traced_rounds)
    layer["trace.overhead_pct"] = 100.0 * (traced_wall / wall - 1.0)
    detail["traced_rounds"] = len(traced_rounds)
    detail["traced_round_wall_s"] = [r["wall"] for r in traced_rounds]
    spans = os.path.join(OUT, "spans-%s-%d.jsonl" % (name, seed))
    tracer.write(spans)
    detail["spans_file"] = os.path.relpath(spans, ROOT)
    return problems, attempted, failed, layer, detail


def single(args, spec):
    setup = None
    if not args.trace:
        setup, setup_samples = measure_setup()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import rabispec
    if not rabispec.__file__.startswith(SRC):
        raise RuntimeError("imported rabispec from %s, not from %s"
                           % (rabispec.__file__, SRC))
    problems, attempted, failed, raw, detail = run_workload(
        args.workload, args.seed, args.seconds, args.trace)
    if not args.trace:
        raw["setup_s"] = setup
        raw["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail["setup_samples_s"] = setup_samples
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    for p in problems:
        print("CHECK FAILED: %s" % p, file=sys.stderr)
    for op, why in detail["failures"].items():
        print("op failed: %s: %s" % (op, why), file=sys.stderr)
    return result, detail


def run_all(args, spec):
    """Every workload, each in a fresh process of its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        path = os.path.join(OUT, "all-%s.json" % w["name"])
        os.makedirs(OUT, exist_ok=True)
        done = subprocess.run(cmd + ["--json-out", path], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise RuntimeError("workload %s exited %d"
                               % (w["name"], done.returncode))
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        details[w["name"]] = doc
        merged["correct"] = merged["correct"] and doc["result"]["correct"]
        merged["attempted"] += doc["result"]["attempted"]
        merged["failed"] += doc["result"]["failed"]
        for m, v in doc["result"]["metrics"].items():
            merged["metrics"]["%s.%s" % (w["name"], m)] = v
    return merged, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json-out", help="also write results and details here")
    args = ap.parse_args(argv)
    os.environ.update(BLAS_ENV)
    if not os.path.isfile(os.path.join(SRC, "rabispec", "cli.py")):
        print("rabispec sources not found under %s" % SRC, file=sys.stderr)
        return 2
    spec = _load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        result, detail = run_all(args, spec)
    elif args.workload in names:
        result, detail = single(args, spec)
    else:
        print("unknown workload %r; choose from %s or all"
              % (args.workload, ", ".join(names)), file=sys.stderr)
        return 2
    for name, m in sorted(result["metrics"].items()):
        print("%-48s %16.6f %s" % (name, m["value"], m["unit"]))
    print("attempted %d, failed %d, correct %s"
          % (result["attempted"], result["failed"], result["correct"]))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump({"result": result, "detail": detail}, f, indent=1,
                      sort_keys=True, default=repr)
            f.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
