"""Command-line front end: artifact shapes, determinism, config handling,
and exit codes. Everything runs in process through main(argv)."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rabispec
from rabispec import (cli, errors, fock_ops, overlaps, perturbation,
                      spectral_analysis, specfun, weyl_asymptotics)
from rabispec.cli import main
from rabispec.fock_ops import load_matrix
from rabispec.overlaps import overlap_closed

SCHEMA_DIR = Path(rabispec.__file__).parent / "schemas"
README = Path(__file__).resolve().parent.parent / "README.md"


def load_schema(name):
    with open(SCHEMA_DIR / (name + ".schema.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def _is_type(v, t):
    if t == "object":
        return isinstance(v, dict)
    if t == "array":
        return isinstance(v, list)
    if t == "string":
        return isinstance(v, str)
    if t == "boolean":
        return isinstance(v, bool)
    if t == "integer":
        return isinstance(v, int) and not isinstance(v, bool)
    if t == "number":
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if t == "null":
        return v is None
    raise AssertionError("unknown schema type %r" % t)


def check_schema(doc, schema, where="$"):
    """Structural validator for the subset of keywords the schemas use."""
    t = schema.get("type")
    if t is not None:
        types = t if isinstance(t, list) else [t]
        assert any(_is_type(doc, x) for x in types), (where, doc, t)
    if "const" in schema:
        assert doc == schema["const"], (where, doc)
    if "enum" in schema:
        assert doc in schema["enum"], (where, doc)
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        if "minimum" in schema:
            assert doc >= schema["minimum"], (where, doc)
        if "maximum" in schema:
            assert doc <= schema["maximum"], (where, doc)
        if "exclusiveMinimum" in schema:
            assert doc > schema["exclusiveMinimum"], (where, doc)
    if isinstance(doc, dict):
        for r in schema.get("required", []):
            assert r in doc, "%s missing %s" % (where, r)
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for k, v in doc.items():
            if k in props:
                check_schema(v, props[k], "%s.%s" % (where, k))
            elif isinstance(extra, dict):
                check_schema(v, extra, "%s.%s" % (where, k))
    if isinstance(doc, list):
        if "minItems" in schema:
            assert len(doc) >= schema["minItems"], where
        if "maxItems" in schema:
            assert len(doc) <= schema["maxItems"], where
        items = schema.get("items")
        if isinstance(items, dict):
            for i, v in enumerate(doc):
                check_schema(v, items, "%s[%d]" % (where, i))


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    assert code == 0
    with open(out, "r", encoding="utf-8") as f:
        return json.load(f)


# ------------------------------------------------------- basic commands


def test_overlap_norm_identity(tmp_path):
    doc = run_json(tmp_path, ["overlap", "--N", "1", "--k", "1",
                              "--alpha", "0"])
    assert doc["value"] == 1.7724538509055159  # sqrt(pi), the (1,1) norm
    assert doc["norm_product"] == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    check_schema(doc, load_schema("overlap"))


def test_overlap_both_methods_agree(tmp_path):
    doc = run_json(tmp_path, ["overlap", "--N", "3", "--k", "2",
                              "--alpha", "0.8", "--method", "both"])
    assert doc["closed"] == pytest.approx(doc["quadrature"], rel=1e-12)
    assert doc["value"] == doc["closed"]
    assert doc["config"]["nodes_used"] == 3
    check_schema(doc, load_schema("overlap"))


def test_overlap_float_round_trip(tmp_path):
    doc = run_json(tmp_path, ["overlap", "--N", "7", "--k", "2",
                              "--alpha", "0.3"])
    # 17 significant digits reproduce the double exactly
    assert doc["value"] == overlap_closed(7, 2, 0.3)


def test_laguerre_zeros_command(tmp_path):
    doc = run_json(tmp_path, ["laguerre-zeros", "--degree", "2"])
    assert doc["zeros"] == pytest.approx(
        [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], rel=1e-13)
    check_schema(doc, load_schema("laguerre_zeros"))


def test_laguerre_zeros_command_above_two_to_the_fourteenth(tmp_path):
    # degree 4128 is the first with a zero above 2^14, certified by a sign
    # change where the residual test cannot pass
    z = run_json(tmp_path, ["laguerre-zeros", "--degree", "4128"])["zeros"]
    assert len(z) == 4128 and z == sorted(set(z))


def test_avoid_seq_command(tmp_path):
    doc = run_json(tmp_path, ["avoid-seq", "--x0", "0.5", "--jmax", "3"])
    assert [e["k"] for e in doc["entries"]] == [2, 15, 37]
    assert doc["exhausted"] is False
    check_schema(doc, load_schema("avoid_seq"))


def test_spectrum_command(tmp_path):
    doc = run_json(tmp_path, ["spectrum", "--family", "qr", "--alpha", "1",
                              "--gamma1", "1", "--gamma2", "-1",
                              "--eps", "0.02", "--cutoff", "8",
                              "--levels", "6", "--tol", "1e-9"])
    assert doc["converged_count"] == 6
    assert doc["partial"] is False
    assert len(doc["eigenvalues"]) >= 6
    check_schema(doc, load_schema("spectrum"))


def test_spectrum_parity_and_dump(tmp_path):
    dump = tmp_path / "mat.bin"
    doc = run_json(tmp_path, ["spectrum", "--family", "qrabi", "--alpha", "0.8",
                              "--delta", "0.9", "--eps", "0.04",
                              "--cutoff", "8", "--levels", "6",
                              "--parity", "--dump-matrix", str(dump)])
    assert set(doc["parity"]) <= {"+", "-"}
    check_schema(doc, load_schema("spectrum"))
    op = load_matrix(dump)
    assert op.matrix.shape == (18, 18)  # the pre-growth cutoff from the flags


def test_perturb_command_with_fd(tmp_path):
    doc = run_json(tmp_path, ["perturb", "--N", "0", "--alpha", "1",
                              "--gamma1", "1", "--gamma2", "-1",
                              "--fd-check"])
    r = math.exp(-1.0)
    assert doc["mu_plus"] == pytest.approx(r, rel=1e-12)
    assert doc["fd_slope_plus"] == pytest.approx(r, abs=1e-8)
    assert doc["degenerate"] is False
    check_schema(doc, load_schema("perturb"))


def test_perturb_fd_check_refuses_a_level_above_its_cutoff(capsys):
    # the fd oracles solve each parity sector to cutoff 240, 241 levels:
    # level 241 is refused as a usage error, not an IndexError traceback
    doc = expect_error(capsys, ["perturb", "--N", "241", "--alpha", "1",
                                "--gamma1", "1", "--gamma2", "-1",
                                "--fd-check"], 2, "UsageError")
    assert "level N = 241" in doc["message"] and "cutoff 240" in doc["message"]


PERTURB = ["perturb", "--gamma1", "1", "--gamma2", "-1"]


@pytest.mark.parametrize("N,alpha", [("100", "224"), ("400", "60")])
def test_perturb_below_the_double_range_is_degenerate(tmp_path, N, alpha):
    # the ratios are 9.5e-21450 and 2.7e-900, 0 in doubles: not NaN
    doc = run_json(tmp_path, PERTURB + ["--N", N, "--alpha", alpha])
    assert doc["overlap_ratio"] == 0.0 and doc["degenerate"] is True
    assert doc["mu_plus"] == doc["mu_minus"] == doc["beta1"]
    check_schema(doc, load_schema("perturb"))


def test_perturb_refuses_a_ratio_past_the_double_range(capsys):
    doc = expect_error(capsys, PERTURB + ["--N", "100", "--alpha", "1e200"],
                       5, "PrecisionError")
    assert "not finite" in doc["message"]


def test_perturb_refuses_a_closed_form_level_past_the_double_range(capsys):
    # at a level the closed form serves, alpha^2 overflows too, and the
    # recurrence gives NaN
    doc = expect_error(capsys, PERTURB + ["--N", "1", "--alpha", "1e300"],
                       5, "PrecisionError")
    assert doc["message"] == ("diagonal overlap ratio at level 1, "
                              "alpha=1e+300, is not finite")


def test_perturb_keeps_a_ratio_whose_gaussian_underflows(tmp_path):
    # level 60 at alpha^2 800 goes through the recurrence
    doc = run_json(tmp_path, PERTURB + ["--N", "60", "--alpha",
                                        "28.284271247461902"])
    assert doc["overlap_ratio"] == 7.5076120205717689e-239
    check_schema(doc, load_schema("perturb"))


# e^(-alpha^2) below the normal range: the overlaps are 1.1e-156,
# -2.9e-158, 2.4e-235 and 1.5e-292 (tests/test_overlaps.py)
UNDERFLOW_OVERLAPS = [("60", "60", "28.284271247461902"),
                      ("59", "60", "28.284271247461902"),
                      ("30", "30", repr(math.sqrt(760.0))),
                      ("10", "10", repr(math.sqrt(745.5)))]


@pytest.mark.parametrize("N,k,alpha", UNDERFLOW_OVERLAPS)
def test_overlap_keeps_a_value_whose_gaussian_underflows(tmp_path, N, k,
                                                         alpha):
    doc = run_json(tmp_path, ["overlap", "--N", N, "--k", k, "--alpha",
                              alpha, "--method", "both"])
    assert 1e-300 < abs(doc["closed"]) < 1e-150
    assert doc["quadrature"] == pytest.approx(doc["closed"], rel=1e-12)
    assert doc["value"] == doc["closed"]
    check_schema(doc, load_schema("overlap"))


def test_overlap_below_the_double_range_is_zero(tmp_path, capsys):
    # the float sum is 1.2e308, and the overlap lies below the double
    # range: 0, not NaN; the quadrature's sum overflows
    argv = ["overlap", "--N", "60", "--k", "60", "--alpha",
            "261.1602447949193"]
    doc = run_json(tmp_path, argv + ["--method", "closed"])
    assert doc["value"] == doc["closed"] == 0.0
    check_schema(doc, load_schema("overlap"))
    doc = expect_error(capsys, argv + ["--method", "both"], 5,
                       "PrecisionError")
    assert "quadrature sum" in doc["message"]


def test_perturb_refuses_a_level_over_the_step_cap(tmp_path, capsys,
                                                   monkeypatch):
    # the cap patched to level 100: level 101 is refused before any step
    monkeypatch.setattr(overlaps, "MAX_RATIO_STEPS", 100)
    scans = []
    real_scan = overlaps._laguerre_pair_scaled

    def scan(N, x):
        scans.append(N)
        return real_scan(N, x)

    monkeypatch.setattr(overlaps, "_laguerre_pair_scaled", scan)
    argv = PERTURB + ["--alpha", "0.5", "--N"]
    doc = expect_error(capsys, argv + ["101"], 9, "ResourceError")
    assert "level 101" in doc["message"] and "cap" in doc["message"]
    assert scans == []
    assert run_json(tmp_path, argv + ["100"])["N"] == 100
    assert scans == [100]


def test_quasimode_command(tmp_path):
    doc = run_json(tmp_path, ["quasimode", "--N", "1", "--alpha", "1",
                              "--gamma1", "1", "--gamma2", "-1",
                              "--eps", "0.01"])
    assert doc["sign_convention"] == -1.0
    assert doc["mu2_plus"] == doc["mu2_minus"]
    assert doc["residual"] < 1e-5
    assert doc["margin_violated"] is False
    assert "u1_plus" not in doc
    check_schema(doc, load_schema("quasimode"))


def test_quasimode_vectors_flag(tmp_path):
    doc = run_json(tmp_path, ["quasimode", "--N", "0", "--alpha", "0.7",
                              "--gamma1", "0.5", "--gamma2", "-0.5",
                              "--K", "30", "--vectors"])
    assert len(doc["u1_plus"]) == 2 * 31
    assert doc["u1_plus"][0] == 0.0  # unperturbed eigenspace component
    check_schema(doc, load_schema("quasimode"))


def test_quasimode_residual_at_a_large_finite_eps(tmp_path):
    # far outside the expansion's range the residual is large, but finite
    doc = run_json(tmp_path, ["quasimode", "--N", "1", "--alpha", "1",
                              "--gamma1", "1", "--gamma2", "-1",
                              "--eps", "10"])
    assert doc["residual"] == pytest.approx(21.588, rel=1e-4)
    check_schema(doc, load_schema("quasimode"))


def test_braak_command_defaults(tmp_path):
    doc = run_json(tmp_path, ["braak", "--family", "qr", "--alpha", "1",
                              "--gamma1", "1", "--gamma2", "-1",
                              "--eps", "0.02", "--cutoff", "16",
                              "--nmax", "4"])
    assert doc["config"]["shift"] == 0.5  # alpha^2/2 by default
    assert [c["total"] for c in doc["per_interval"]] == [2, 2, 2, 2, 2]
    # the census is the operator's: every count closed by depth 9, below
    # the starting cutoff, and no level count or tolerance is echoed
    assert doc["cutoffs_used"] == [9]
    assert not {"levels", "tol"} & set(doc["config"])
    for v in doc["verdicts"].values():
        assert v["max_two"] and v["no_adjacent_empty"] and v["no_adjacent_double"]
    check_schema(doc, load_schema("braak"))


def test_braak_qrabi_default_shift(tmp_path):
    doc = run_json(tmp_path, ["braak", "--family", "qrabi", "--alpha", "1",
                              "--delta", "1", "--eps", "0.02",
                              "--cutoff", "16", "--nmax", "3"])
    assert doc["config"]["shift"] == 1.0  # alpha^2/2 + 1/2
    check_schema(doc, load_schema("braak"))


def test_weyl_command_json(tmp_path):
    doc = run_json(tmp_path, ["weyl", "--family", "qr", "--alpha", "1",
                              "--gamma1", "1", "--gamma2", "-1",
                              "--eps", "0.02", "--cutoff", "120",
                              "--lambdas", "10,30,70"])
    assert doc["leading_coeff"] == 2.0
    assert [r["flagged"] for r in doc["rows"]] == [False, False, True]
    assert doc["rows"][0]["count"] >= 1
    check_schema(doc, load_schema("weyl"))


def test_weyl_command_three_modes(tmp_path):
    doc = run_json(tmp_path, ["weyl", "--family", "vee",
                              "--alpha", "0.6,0.7,0.8",
                              "--gamma", "0.1,0.4,0.6", "--eps", "0.05",
                              "--cutoff", "4", "--lambdas", "2,3"])
    assert doc["modes"] == 3 and doc["spin_dim"] == 4
    assert doc["leading_coeff"] == 4 / 6
    assert doc["subleading_coeff"] == 0
    check_schema(doc, load_schema("weyl"))


def test_smges_check_samples_and_seed_are_inert(tmp_path, capsys):
    # the gap is exact: --samples and --seed are echoed and change nothing,
    # a sample count of 1e10 included, and --grid is gone
    base = ["smges-check", "--family", "xi", "--alpha", "1,0.8",
            "--gamma", "0.3,0.5", "--eps", "0.5", "--cutoff", "10"]
    a = run_json(tmp_path, base, "a.json")
    b = run_json(tmp_path, base + ["--samples", "10000000000", "--seed",
                                   "77"], "b.json")
    assert a["config"]["samples"] == 1000 and a["config"]["seed"] == 0
    assert b["config"]["samples"] == 10000000000 and b["config"]["seed"] == 77
    check_schema(b, load_schema("smges_check"))
    del a["config"], b["config"]
    assert a == b
    assert a["min_gap"] == math.sqrt(2.0) * 0.8 * 0.5
    assert a["X"] == [0.0, 0.0, 0.0, math.sqrt(2.0)]
    expect_error(capsys, base + ["--grid"], 2, "UsageError")
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid=1\n")
    expect_error(capsys, base + ["--config", str(cfg)], 2, "UsageError")


# ------------------------------------------------------- output formats


def _format_json_by_items(obj, indent=0):
    """The JSON writer that formats every value on its own, kept as the
    oracle of cli._format_json, which formats a list of finite floats in
    one join."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append('%s  "%s": %s'
                         % (pad, k, _format_json_by_items(obj[k], indent + 1)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ["%s  %s" % (pad, _format_json_by_items(v, indent + 1))
                 for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            return json.dumps(str(v))
        return cli.JSON_FLOAT_FORMAT % v
    if isinstance(obj, np.ndarray):
        return _format_json_by_items(obj.tolist(), indent)
    return json.dumps(obj)


def _readme_documents():
    """The JSON document, config echo included, of every README example, as
    main builds it before writing."""
    for argv in _readme_commands():
        args = cli.build_parser(argv[0]).parse_args(argv)
        config = cli._config_echo(args)
        doc, _ = cli.HANDLERS[args.command](args, config)
        doc["config"] = config
        yield argv, doc


def test_json_writer_is_the_per_item_writer_on_readme_documents():
    docs = list(_readme_documents())
    assert {argv[0] for argv, _ in docs} == set(cli.HANDLERS)
    for argv, doc in docs:
        assert cli._format_json(doc) == _format_json_by_items(doc), argv


JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e308,
                     5e-324]))
JSON_KEYS = st.text(alphabet="abkz_%", max_size=3)
JSON_INTS = st.one_of(st.integers(), st.booleans(),
                      st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))


@st.composite
def _json_int_rows(draw):
    # a list of dicts with one key set and exact ints (the writer's one
    # template), or ints mixed with bools and np.int64, or a row with
    # another key set, empty dicts included
    keys = draw(st.sets(JSON_KEYS, max_size=4))
    value = draw(st.sampled_from([st.integers(), JSON_INTS]))
    rows = [{k: draw(value) for k in keys}
            for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.dictionaries(JSON_KEYS, JSON_INTS, max_size=3)))
    return rows


JSON_LEAVES = st.one_of(
    JSON_FLOATS, JSON_FLOATS.map(np.float64), st.integers(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans(),
    st.none(), st.text(alphabet="abc xyz", max_size=4),
    st.lists(JSON_FLOATS), _json_int_rows())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple),
        st.dictionaries(st.text(alphabet="abkz_", max_size=3), inner)),
    max_leaves=30))
@example(doc=[1.0, -0.0, 2.5])
@example(doc=[1.0, math.nan])
@example(doc=[math.inf, -math.inf])
@example(doc=[1e308, 1e308])
@example(doc=[1.0, np.float64(2.0)])
@example(doc=[1.0, True, 2, None])
@example(doc={"a": [], "b": {}, "c": [[], [0.5]], "d": (0.25, -0.0)})
@example(doc={"rows": [{"N": 0, "%d": -1}, {"%d": 2 ** 70, "N": 1}]})
@example(doc=[{"a": 1}, {"a": True}])
@example(doc=[{"a": 1}, {"a": np.int64(2)}])
@example(doc=[{"a": 1}, {"b": 1}])
@example(doc=[{"a": 1}, {"a": 1, "b": 2}])
@example(doc=[{}, {}])
@example(doc=[{"a": 1}, {}])
@example(doc=[{"a": 1.0}, {"a": 2}])
def test_json_writer_is_the_per_item_writer(doc):
    assert cli._format_json(doc) == _format_json_by_items(doc)


def test_json_determinism_bitwise(tmp_path):
    argv = ["avoid-seq", "--x0", "3.7", "--jmax", "3"]
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_csv_format_header_and_floats(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["weyl", "--family", "qr", "--alpha", "1", "--gamma1", "1",
                 "--gamma2", "-1", "--eps", "0.02", "--cutoff", "100",
                 "--lambdas", "10,30", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").split("\n")
    comments = [ln for ln in lines if ln.startswith("# ")]
    keys = [ln[2:].split("=", 1)[0] for ln in comments]
    assert keys == sorted(keys)
    header_idx = len(comments)
    assert lines[header_idx] == "lambda,count,prediction,rel_err,flagged"
    first = lines[header_idx + 1].split(",")
    assert float(first[0]) == 10.0
    assert int(first[1]) >= 1
    float(first[2])  # repr round-trips through float()


def test_csv_spectrum_parity_columns(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["spectrum", "--family", "qr", "--alpha", "0.5",
                 "--gamma1", "1", "--gamma2", "-1", "--eps", "0.05",
                 "--cutoff", "8", "--levels", "4", "--parity",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = [ln for ln in out.read_text().split("\n") if ln]
    header = [ln for ln in lines if ln.startswith("index,")][0]
    assert header == "index,eigenvalue,parity"


# ------------------------------------------------------- config files


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nN = 1\nk = 1\nalpha = 0\n",
                   encoding="utf-8")
    doc = run_json(tmp_path, ["overlap", "--config", str(cfg)])
    assert doc["value"] == 1.7724538509055159


def test_explicit_flags_beat_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=1\nk=1\nalpha=0.5\n", encoding="utf-8")
    doc = run_json(tmp_path, ["overlap", "--config", str(cfg),
                              "--alpha", "1"])
    assert doc["alpha"] == 1.0
    assert doc["value"] == overlap_closed(1, 1, 1.0)


def test_config_switch_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    model = ("family=qrabi\nalpha=0.8\ndelta=0.9\neps=0.04\n"
             "cutoff=8\nlevels=4\n")
    cfg.write_text(model + "parity=true\n", encoding="utf-8")
    doc = run_json(tmp_path, ["spectrum", "--config", str(cfg)])
    assert "parity" in doc
    cfg.write_text(model + "parity=no\n", encoding="utf-8")
    doc = run_json(tmp_path, ["spectrum", "--config", str(cfg)])
    assert "parity" not in doc
    # a switch value that is neither on nor off is refused, not read as off
    cfg.write_text(model + "parity=maybe\n", encoding="utf-8")
    doc = expect_error(capsys, ["spectrum", "--config", str(cfg)],
                       2, "UsageError")
    assert "parity" in doc["message"]


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n", encoding="utf-8")
    assert main(["overlap", "--config", str(bad)]) == 2
    doc = json.loads(capsys.readouterr().err)
    check_schema(doc, load_schema("error"))
    assert main(["overlap", "--config", str(tmp_path / "missing.cfg")]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "UsageError"


# ------------------------------------------------------- negative values


QR_WEYL = ["weyl", "--family", "qr", "--alpha", "1", "--gamma1", "1",
           "--cutoff", "6"]
XI_MODEL = ["--family", "xi", "--alpha", "1,0.8", "--eps", "0.05",
            "--cutoff", "5"]

# one case per kind of flag: a float flag (--eps, --gamma2, --x0, --shift),
# a string flag (overlap's --alpha) and a comma list (--gamma, --lambdas),
# each given a negative value with an exponent or a negative list
NEGATIVE_VALUES = [
    (QR_WEYL + ["--gamma2", "-1", "--lambdas", "3"], "--eps", "-1e-3"),
    (QR_WEYL + ["--eps", "0.1", "--lambdas", "3"], "--gamma2", "-1e-1"),
    (QR_WEYL + ["--gamma2", "-1", "--eps", "0.1"], "--lambdas", "-2,3"),
    (["overlap", "--N", "1", "--k", "2"], "--alpha", "-2e-1"),
    (["avoid-seq", "--jmax", "1"], "--x0", "-1e-3"),
    (["braak", "--family", "qr", "--alpha", "1", "--gamma1", "1",
      "--gamma2", "-1", "--eps", "0.1", "--cutoff", "5", "--nmax", "2"],
     "--shift", "-5e-1"),
    (["weyl"] + XI_MODEL + ["--lambdas", "2"], "--gamma", "-0.3,0.5"),
]


def _outputs(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argparse_default_parser():
    """build_parser() with argparse's own negative-number pattern, which
    reads only plain negative decimals as values, on every parser."""
    parser = cli.build_parser()
    default = argparse.ArgumentParser()._negative_number_matcher
    for p in [parser] + list(
            parser._subparsers._group_actions[0].choices.values()):
        p._negative_number_matcher = default
    return parser


@pytest.mark.parametrize("argv, flag, value", NEGATIVE_VALUES,
                         ids=[f[2:] for _, f, _ in NEGATIVE_VALUES])
def test_a_negative_value_with_an_exponent_or_a_list_parses(
        tmp_path, capsys, argv, flag, value):
    # "--flag value" gives the bytes of "--flag=value", also from a config
    # file, which passes key=value as two tokens; argparse alone refuses it
    joined = _outputs(capsys, argv + ["%s=%s" % (flag, value)])
    assert joined[0] == (2 if flag == "--x0" else 0)
    assert _outputs(capsys, argv + [flag, value]) == joined
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s=%s\n" % (flag[2:], value), encoding="utf-8")
    assert _outputs(capsys, argv + ["--config", str(cfg)]) == joined
    assert _parse(_argparse_default_parser(), argv + [flag, value]) == (
        "usage", "rabispec %s: argument %s: expected one argument"
        % (argv[0], flag))


def test_a_value_copied_from_the_config_echo_parses(tmp_path):
    # the echo prints -1e-5 as -1.0000000000000001e-05; given back as a
    # flag value, it reproduces the document
    argv = QR_WEYL + ["--gamma2", "-1", "--lambdas", "3"]
    out = tmp_path / "a.json"
    assert main(argv + ["--eps=-1e-5", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    echoed, = set(re.findall(r'"eps": (-[0-9.e+-]+)', text))
    assert echoed == "-1.0000000000000001e-05"
    again = tmp_path / "b.json"
    assert main(argv + ["--eps", echoed, "--out", str(again)]) == 0
    assert again.read_text(encoding="utf-8") == text


def test_negative_values_leave_every_other_parse_as_it_was():
    # an argv that argparse's own pattern parses gives the same namespace,
    # so the same config echo; a flag-like value is still refused
    ours, default = cli.build_parser(), _argparse_default_parser()
    argvs = _readme_commands() + _usage_argvs() + [
        argv + ["%s=%s" % (flag, value)]
        for argv, flag, value in NEGATIVE_VALUES]
    parsed = 0
    for argv in argvs:
        want = _parse(default, argv)
        if want[0] == "ok":
            assert _parse(ours, argv) == want, argv
            parsed += 1
    assert parsed > len(NEGATIVE_VALUES)
    for flag, value in (("--k", "-x"), ("--alpha", "-e3")):
        argv = ["overlap", "--N", "1", "--k", "1", "--alpha", "1",
                flag, value]
        assert _parse(ours, argv) == _parse(default, argv) == (
            "usage", "rabispec overlap: argument %s: expected one argument"
            % flag)


# ------------------------------------------------------- failure modes


def expect_error(capsys, argv, code, name):
    got = main(argv)
    assert got == code
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == name
    assert doc["exit_code"] == code
    check_schema(doc, load_schema("error"))
    return doc


def test_exit_code_usage(capsys):
    expect_error(capsys, ["overlap", "--k", "1", "--alpha", "0"],
                 2, "UsageError")


QR_FLAGS = ["--alpha", "1", "--gamma1", "1", "--gamma2=-1", "--eps", "0.1"]


@pytest.mark.parametrize("argv, says", [
    (["overlap", "--N", "x", "--k", "1", "--alpha", "1"], "--N"),
    (["laguerre-zeros", "--degree", "2", "--no-such-flag"], "--no-such-flag"),
    (["weyl", "--family", "xi", "--alpha", "1,0.8", "--gamma", "0.3,0.5",
      "--eps", "0.05", "--cutoff", "6", "--lambdas", "2,3", "--jobs", "2"],
     "--jobs"),
    (["braak", "--family", "xi", "--alpha", "1,0.8", "--gamma", "0.3,0.5",
      "--eps", "0.05", "--cutoff", "6", "--nmax", "2"],
     "invalid choice: 'xi'"),
    (["smges-check", "--alpha", "1,0.8", "--gamma", "0.3,0.5", "--eps", "0.1",
      "--cutoff", "10"], "--family"),
    # a single-mode family takes exactly one cutoff, not none or two
    (["spectrum", "--family", "qr"] + QR_FLAGS + ["--cutoff", ","],
     "--cutoff takes one value for family qr"),
    (["braak", "--family", "qrabi", "--alpha", "1", "--delta", "1",
      "--eps", "0.02", "--cutoff", ",", "--nmax", "2"],
     "--cutoff takes one value for family qrabi"),
    (["weyl", "--family", "abframe"] + QR_FLAGS + ["--cutoff", "20,30",
                                                   "--lambdas", "3"],
     "--cutoff takes one value for family abframe"),
    # the census is certified for the operator: braak takes no level count
    # or stability tolerance
    (["braak", "--family", "qr"] + QR_FLAGS + ["--cutoff", "8", "--nmax", "2",
                                               "--levels", "0"],
     "unrecognized arguments: --levels"),
    (["braak", "--family", "qr"] + QR_FLAGS + ["--cutoff", "8", "--nmax", "2",
                                               "--tol", "1e-9"],
     "unrecognized arguments: --tol"),
], ids=["bad-N", "unknown-flag", "retired-jobs", "braak-xi",
        "smges-check-no-family", "qr-empty-cutoff", "qrabi-empty-cutoff",
        "abframe-two-cutoffs", "braak-levels-0", "braak-tol"])
def test_argparse_errors_are_usage_errors(capsys, argv, says):
    doc = expect_error(capsys, argv, 2, "UsageError")
    assert says in doc["message"]


XI_WEYL = ["weyl", "--family", "xi", "--gamma", "0.3,0.5", "--eps", "0.05"]


@pytest.mark.parametrize("flags", [
    ["--alpha", "1,0.8", "--cutoff", "10", "--lambdas", ","],
    ["--alpha", "1,0.8", "--cutoff", "10", "--lambdas="],
    ["--alpha", "1,0.8", "--cutoff", "10", "--lambdas", "4,,9"],
    ["--alpha", "1,,0.8", "--cutoff", "10", "--lambdas", "4,9"],
    ["--alpha", "1,0.8", "--cutoff", "10,", "--lambdas", "4,9"],
], ids=["lambdas-comma", "lambdas-empty", "lambdas-inner", "alpha-inner",
        "cutoff-trailing"])
def test_empty_list_items_are_usage_errors(capsys, flags):
    doc = expect_error(capsys, XI_WEYL + flags, 2, "UsageError")
    assert "comma-separated list" in doc["message"]
    assert capsys.readouterr().out == ""


def test_help_stays_plain_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["overlap", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: rabispec overlap")
    assert captured.err == ""


def test_exit_code_degenerate(capsys):
    expect_error(capsys, ["avoid-seq", "--x0", "1.0", "--jmax", "2"],
                 3, "DegenerateInput")


def test_exit_code_insufficient_nodes(capsys):
    expect_error(capsys, ["overlap", "--N", "3", "--k", "2", "--alpha", "0.5",
                          "--method", "quadrature", "--nodes", "2"],
                 4, "InsufficientNodes")


def test_exit_code_precision(capsys):
    expect_error(capsys, ["overlap", "--N", "70", "--k", "60", "--alpha", "1"],
                 5, "PrecisionError")


def test_exit_code_precision_overflow(capsys):
    expect_error(capsys, ["overlap", "--N", "1", "--k", "1",
                          "--alpha", "1e300"],
                 5, "PrecisionError")


def test_exit_code_coverage(capsys):
    # at alpha 100 the bound on the rows above depth L is -inf for every
    # L up to the cap (L + 3/2 < alpha^2 / 2), so no count closes
    doc = expect_error(capsys, ["braak", "--family", "qr", "--alpha", "100",
                                "--gamma1", "1", "--gamma2", "-1",
                                "--eps", "0.02", "--cutoff", "16",
                                "--nmax", "2", "--shift", "0"],
                       6, "CoverageError")
    assert "open to depth 4096" in doc["message"]


@pytest.mark.parametrize("shift, code, name", [
    # boundaries above the floor of the last row at the depth cap can
    # never close: refused before 2 (nmax + 2) thresholds are formed
    ([], 6, "CoverageError"),
    # a shift that brings them below it leaves work arrays over the budget
    (["--shift", "1e9"], 9, "ResourceError"),
], ids=["coverage", "budget"])
def test_braak_refuses_a_huge_nmax_before_allocating(capsys, shift, code,
                                                     name):
    # the only arrays formed are the chains of the depth cap, 4097 rows
    tracemalloc.start()
    try:
        expect_error(capsys, ["braak", "--family", "qr"] + QR_FLAGS
                     + ["--cutoff", "16", "--nmax", "1000000000"] + shift,
                     code, name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_braak_census_budget_counts_its_block_buffers(tmp_path, capsys,
                                                     monkeypatch):
    # the budget patched to the census of 2500 intervals, whose pivot
    # blocks alone (CENSUS_BLOCK_ROWS rows of 5004 thresholds) are 1.3 MB;
    # the traced peak counts what the census allocates after its chains
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES",
                        spectral_analysis._census_bytes(2500))
    real_build, built = spectral_analysis.build, []

    def build(spec):
        op = real_build(spec)
        built.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return op

    monkeypatch.setattr(spectral_analysis, "build", build)
    argv = ["braak", "--family", "qr"] + QR_FLAGS + ["--cutoff", "16"]
    tracemalloc.start()
    try:
        expect_error(capsys, argv + ["--nmax", "2501"], 9, "ResourceError")
        refused = tracemalloc.get_traced_memory()[1] - built[-1]
        doc = run_json(tmp_path, argv + ["--nmax", "2500"])
        ran = tracemalloc.get_traced_memory()[1] - built[-1]
    finally:
        tracemalloc.stop()
    assert refused < 1e6
    assert len(doc["per_interval"]) == 2501
    blocks = spectral_analysis.CENSUS_BLOCK_ROWS * 2 * 2502 * 8
    assert blocks < ran <= spectral_analysis._census_bytes(2500)


def test_braak_empty_range(tmp_path, capsys):
    # nmax -1 asks for no interval: an empty census with vacuous verdicts;
    # below -1 the request is a usage error
    argv = ["braak", "--family", "qr"] + QR_FLAGS + ["--cutoff", "8"]
    doc = run_json(tmp_path, argv + ["--nmax=-1"])
    assert doc["per_interval"] == [] and doc["boundary_values"] == []
    assert all(all(v.values()) for v in doc["verdicts"].values())
    check_schema(doc, load_schema("braak"))
    expect_error(capsys, argv + ["--nmax=-2"], 2, "UsageError")


def test_exit_code_model_spec(capsys):
    expect_error(capsys, ["spectrum", "--family", "qr", "--alpha", "1",
                          "--gamma1", "-1", "--gamma2", "1", "--eps", "0.1",
                          "--cutoff", "8"],
                 7, "ModelSpecError")
    # a malformed model is a model error before --parity refuses its family
    expect_error(capsys, ["spectrum", "--family", "xi", "--alpha", "1,0",
                          "--gamma", "0.3,0.5", "--eps", "0.05",
                          "--cutoff", "4", "--levels", "3", "--parity"],
                 7, "ModelSpecError")


# a value for each level flag, and the ones each family takes
LEVEL_VALUES = {"gamma1": "1", "gamma2": "-1", "gamma": "0.3,0.5",
                "delta": "0.9"}
FAMILY_LEVELS = {"qr": ("gamma1", "gamma2"), "abframe": ("gamma1", "gamma2"),
                 "qrabi": ("delta",), "xi": ("gamma",), "lambda": ("gamma",),
                 "vee": ("gamma",)}
FOREIGN_LEVEL_FLAGS = [(fam, flag) for fam, takes in FAMILY_LEVELS.items()
                       for flag in LEVEL_VALUES if flag not in takes]


@pytest.mark.parametrize("fam, flag", FOREIGN_LEVEL_FLAGS)
def test_a_level_flag_the_family_does_not_take_is_a_usage_error(
        tmp_path, capsys, fam, flag):
    # the multi-mode families, which take --gamma, have two modes here
    alpha = "1,0.8" if "gamma" in FAMILY_LEVELS[fam] else "1"
    argv = (["spectrum", "--family", fam, "--alpha", alpha]
            + ["--%s=%s" % (f, LEVEL_VALUES[f]) for f in FAMILY_LEVELS[fam]]
            + ["--eps", "0.05", "--cutoff", "4", "--levels", "3"])
    value = LEVEL_VALUES[flag]
    assert "eigenvalues" in run_json(tmp_path, argv)
    doc = expect_error(capsys, argv + ["--%s=%s" % (flag, value)],
                       2, "UsageError")
    assert doc["message"] == "--%s is not a flag of family %s" % (flag, fam)
    # the same key in a config file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s=%s\n" % (flag, value), encoding="utf-8")
    assert expect_error(capsys, argv + ["--config", str(cfg)], 2,
                        "UsageError") == doc


@pytest.mark.parametrize("argv, foreign", [
    (["weyl", "--family", "xi", "--alpha", "1,0.8", "--gamma", "0.3,0.5",
      "--eps", "0.05", "--cutoff", "10", "--lambdas", "5"],
     ["--delta", "nan", "--gamma1", "inf"]),
    (["braak", "--family", "qrabi", "--alpha", "1", "--delta", "1",
      "--eps", "0.02", "--cutoff", "16", "--nmax", "3"], ["--gamma1", "5"]),
    (["smges-check", "--family", "vee", "--alpha", "1,0.8", "--gamma",
      "0.3,0.5", "--eps", "0.1", "--cutoff", "10"], ["--gamma2", "0"]),
], ids=["weyl", "braak", "smges-check"])
def test_every_model_command_refuses_a_foreign_level_flag(capsys, argv,
                                                           foreign):
    # without the foreign flags the command runs
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    doc = expect_error(capsys, argv + foreign, 2, "UsageError")
    assert "is not a flag of family" in doc["message"]


def test_quasimode_budget_is_checked_before_the_displacement_matrix(
        tmp_path, capsys, monkeypatch):
    # the budget patched to the count of cutoff 400: D, 16 vectors of 401
    # and the Python objects, 1.34 MB; the vectors at K and the residual
    # step at its cutoff are each refused before D is formed
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES",
                        8 * (401 + 16) * 401 + errors.OBJECT_BYTES)
    argv = ["quasimode", "--N", "1", "--alpha", "1", "--gamma1", "1",
            "--gamma2", "-1"]
    tracemalloc.start()
    try:
        for extra in ([], ["--eps", "0.01"]):
            doc = expect_error(capsys, argv + ["--K", "401"] + extra, 9,
                               "ResourceError")
            assert doc["message"].startswith(
                "the quasimode vectors' arrays at K = 401 need")
        doc = expect_error(capsys, argv + ["--K", "60", "--eps", "0.01",
                                           "--cutoff", "401"],
                           9, "ResourceError")
        assert doc["message"].startswith(
            "the quasimode residual's arrays at cutoff 401 need")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert run_json(tmp_path, argv + ["--K", "400"])["K"] == 400
    # the default residual cutoff, K + 40, is over the budget at K 400
    doc = expect_error(capsys, argv + ["--K", "400", "--eps", "0.01"], 9,
                       "ResourceError")
    assert doc["message"].startswith(
        "the quasimode residual's arrays at cutoff 440 need")
    doc = run_json(tmp_path, argv + ["--K", "360", "--eps", "0.01"])
    assert (doc["K"], doc["margin_violated"]) == (360, False)


def test_quasimode_residual_cutoff_is_refused_before_the_expansion(
        capsys, monkeypatch):
    # the budget patched to the count of cutoff 400: K 100 is admitted,
    # the residual cutoff 401 is not, and the refusal comes before any
    # displacement matrix is formed
    monkeypatch.setattr(errors, "DENSE_BUDGET_BYTES",
                        8 * (401 + 16) * 401 + errors.OBJECT_BYTES)
    formed = []
    monkeypatch.setattr(perturbation, "displacement_matrix",
                        lambda *args: formed.append(args))
    argv = ["quasimode", "--N", "1", "--alpha", "1", "--gamma1", "1",
            "--gamma2", "-1", "--K", "100", "--eps", "0.01"]
    for extra in (["--cutoff", "401"], ["--cutoff", "1000"]):
        doc = expect_error(capsys, argv + extra, 9, "ResourceError")
        assert doc["message"].startswith(
            "the quasimode residual's arrays at cutoff %s need" % extra[1])
    assert formed == []


def test_exit_code_model_spec_nonfinite(capsys):
    expect_error(capsys, ["weyl", "--family", "xi", "--alpha", "nan,0.8",
                          "--gamma", "0.3,0.5", "--eps", "0.05",
                          "--cutoff", "6", "--lambdas", "2,3"],
                 7, "ModelSpecError")
    expect_error(capsys, ["spectrum", "--family", "qr", "--alpha", "1",
                          "--gamma1", "1", "--gamma2", "-1", "--eps", "inf",
                          "--cutoff", "8"],
                 7, "ModelSpecError")


def test_exit_code_resource(capsys):
    # dimension 48 024 003: its build's arrays need 5.13 GiB, over the
    # 2 GiB budget; refused up front
    tracemalloc.start()
    try:
        expect_error(capsys, ["weyl", "--family", "xi", "--alpha", "1,0.8",
                              "--gamma", "0.3,0.5", "--eps", "0.05",
                              "--cutoff", "4000", "--lambdas", "5,10,20"],
                     9, "ResourceError")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_exit_code_resource_laguerre_degrees(tmp_path, capsys,
                                            monkeypatch):
    # kcap 1e12 at jmax 1 is 2e12 Sturm steps, over the step cap, and the
    # zeros of degree 1e8 need 9 GiB: both refused before any sweep or
    # work array
    sweeps = []
    real = specfun._first_degree_with_zero_in
    monkeypatch.setattr(specfun, "_first_degree_with_zero_in",
                        lambda *args: sweeps.append(args) or real(*args))
    tracemalloc.start()
    try:
        for argv, message in (
                (["avoid-seq", "--x0", "0.5", "--jmax", "1",
                  "--kcap", "1000000000000"],
                 "2000000000000 Sturm steps, over the cap of 10000000"),
                (["laguerre-zeros", "--degree", "100000000"],
                 "over the 2 GiB budget")):
            doc = expect_error(capsys, argv, 9, "ResourceError")
            assert message in doc["message"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert sweeps == []
    # the default kcap and the benchmark's degree stay within it
    doc = run_json(tmp_path, ["avoid-seq", "--x0", "0.5", "--jmax", "1"])
    assert doc["kcap"] == 4000 and len(doc["entries"]) == 1
    doc = run_json(tmp_path, ["laguerre-zeros", "--degree", "2000"])
    assert len(doc["zeros"]) == 2000


def test_exit_code_resource_avoid_seq_work(tmp_path, capsys, monkeypatch):
    # kcap (jmax + 1) Sturm steps over the cap, patched down to 3 000:
    # exit 9 with the error object, before any sweep
    monkeypatch.setattr(specfun, "MAX_STURM_STEPS", 3000)
    sweeps = []
    monkeypatch.setattr(specfun, "_first_degree_with_zero_in",
                        lambda *args: sweeps.append(args))
    doc = expect_error(capsys, ["avoid-seq", "--x0", "0.5", "--jmax", "2",
                                "--kcap", "1001"], 9, "ResourceError")
    assert "3003 Sturm steps, over the cap of 3000" in doc["message"]
    assert sweeps == []
    monkeypatch.undo()
    monkeypatch.setattr(specfun, "MAX_STURM_STEPS", 3000)
    doc = run_json(tmp_path, ["avoid-seq", "--x0", "0.5", "--jmax", "2",
                              "--kcap", "1000"])
    assert len(doc["entries"]) == 2


def test_laguerre_zeros_work_cap(tmp_path, capsys, monkeypatch):
    # the cap patched to the work of degree 36: degree 37 is refused at
    # once, with no eigensolve or scan, by laguerre-zeros and by an
    # avoid-seq whose third window (degrees 2, 15, 37) reaches it
    monkeypatch.setattr(specfun, "MAX_ZEROS_WORK",
                        specfun._ZEROS_WORK_PER_DEGREE_SQUARED * 36 ** 2)
    scans = []
    real_scan = specfun._laguerre_pair_scaled

    def scan(N, x):
        scans.append(N)
        return real_scan(N, x)

    monkeypatch.setattr(specfun, "_laguerre_pair_scaled", scan)
    doc = expect_error(capsys, ["laguerre-zeros", "--degree", "37"], 9,
                       "ResourceError")
    assert "degree 37" in doc["message"] and "cap" in doc["message"]
    assert scans == []
    assert len(run_json(tmp_path, ["laguerre-zeros", "--degree", "36"])
               ["zeros"]) == 36
    avoid = ["avoid-seq", "--x0", "0.5", "--jmax"]
    assert [e["k"] for e in run_json(tmp_path, avoid + ["2"])["entries"]] \
        == [2, 15]
    expect_error(capsys, avoid + ["3"], 9, "ResourceError")
    assert 37 not in scans
    # the largest degree the 2 GiB check admits, 23342124, is 6 degree^2
    # = 3.3e15 operations: the cap as it stands refuses it
    monkeypatch.undo()
    top = ((errors.DENSE_BUDGET_BYTES - errors.OBJECT_BYTES)
           // specfun._ZEROS_BYTES_PER_DEGREE)
    assert top == 23342124
    assert specfun.MAX_ZEROS_WORK < 4 * top ** 2
    doc = expect_error(capsys, ["laguerre-zeros", "--degree", str(top)], 9,
                       "ResourceError")
    assert "over the cap" in doc["message"]
    doc = expect_error(capsys, ["laguerre-zeros", "--degree", str(top + 1)],
                       9, "ResourceError")
    assert "over the 2 GiB budget" in doc["message"]


SMGES_XI = ["smges-check", "--family", "xi", "--alpha", "1,0.8",
            "--gamma", "0.3,0.5", "--eps", "0.1", "--cutoff", "10"]


@pytest.mark.parametrize("message", ["Unable to allocate 7.45 GiB", ""])
def test_a_stray_memory_error_exits_9(capsys, monkeypatch, message):
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(weyl_asymptotics, "smges_gap_check", out_of_memory)
    doc = expect_error(capsys, SMGES_XI, 9, "ResourceError")
    assert doc["message"] == "out of memory: %s" % (message
                                                    or "allocation failed")


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    expect_error(capsys, ["laguerre-zeros", "--degree", "2",
                          "--out", str(missing / "x.json")],
                 2, "UsageError")
    expect_error(capsys, ["spectrum", "--family", "qr", "--alpha", "1",
                          "--gamma1", "1", "--gamma2", "-1", "--eps", "0.1",
                          "--cutoff", "8",
                          "--dump-matrix", str(missing / "m.bin")],
                 2, "UsageError")


def test_failed_write_leaves_no_file_behind(tmp_path, capsys, monkeypatch):
    for argv in (["laguerre-zeros", "--degree", "2", "--out"],
                 ["spectrum", "--family", "qr", "--alpha", "1", "--gamma1",
                  "1", "--gamma2", "-1", "--eps", "0.1", "--cutoff", "8",
                  "--dump-matrix"]):
        with monkeypatch.context() as m:
            _check_failed_write(tmp_path / argv[0], capsys, m, argv)


def _check_failed_write(tmp_path, capsys, monkeypatch, argv):
    tmp_path.mkdir()
    # a directory in the way: the rename fails after the temporary file is
    # complete, and the temporary file is removed
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    expect_error(capsys, argv + [str(blocked)], 2, "UsageError")
    assert list(tmp_path.iterdir()) == [blocked]
    assert list(blocked.iterdir()) == []
    # an earlier output survives a failed write unchanged
    out = tmp_path / "x.json"
    out.write_text("earlier\n")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(cli.os, "replace", fail)
    expect_error(capsys, argv + [str(out)], 2, "UsageError")
    assert sorted(tmp_path.iterdir()) == [blocked, out]
    assert out.read_text() == "earlier\n"


@pytest.mark.parametrize("argv", [
    ["quasimode", "--N", "1", "--alpha", "1", "--gamma1", "1",
     "--gamma2", "-1"],
    ["smges-check", "--family", "xi", "--alpha", "1,0.8", "--gamma",
     "0.3,0.5", "--eps", "0.5", "--cutoff", "10", "--samples", "20"],
], ids=["quasimode", "smges-check"])
def test_json_only_commands_refuse_csv(tmp_path, capsys, argv):
    expect_error(capsys, argv + ["--format", "csv"], 2, "UsageError")
    doc = run_json(tmp_path, argv + ["--format", "json"])
    assert doc["config"]["format"] == "json"


@pytest.mark.parametrize("argv, code", [
    (["braak", "--family", "qr", "--alpha", "1", "--gamma1", "1",
      "--gamma2=-1", "--eps", "0.02", "--cutoff", "6", "--nmax", "1",
      "--shift", "inf"], 2),
    (["braak", "--family", "qr", "--alpha", "1e200", "--gamma1", "1",
      "--gamma2=-1", "--eps", "0.02", "--cutoff", "6", "--nmax", "1"], 5),
    (["overlap", "--N", "1", "--k", "2", "--method", "quadrature",
      "--alpha", "nan"], 2),
    (["overlap", "--N", "1", "--k", "2", "--method", "quadrature",
      "--alpha", "inf"], 2),
    (["overlap", "--N", "1", "--k", "2", "--method", "quadrature",
      "--alpha", "1e200"], 5),
    # the double-double Gauss-Hermite rule overflows from about 400 nodes
    (["overlap", "--N", "1", "--k", "1", "--method", "quadrature",
      "--alpha", "0.5", "--nodes", "400"], 5),
    (["perturb", "--N", "1", "--alpha", "1", "--gamma1", "inf",
      "--gamma2=-1"], 7),
    (["quasimode", "--N", "1", "--alpha", "1", "--gamma1", "1e300",
      "--gamma2=-1"], 5),
    # the residual's norms overflow from about eps 1e100: not finite
    (["quasimode", "--N", "1", "--alpha", "1", "--gamma1", "1",
      "--gamma2=-1", "--eps", "1e100"], 5),
    (["quasimode", "--N", "1", "--alpha", "1", "--gamma1", "1",
      "--gamma2=-1", "--eps", "1e200"], 5),
    (["quasimode", "--N", "1", "--alpha", "1", "--gamma1", "1",
      "--gamma2=-1", "--eps=-1e200"], 5),
    (["quasimode", "--N", "1", "--alpha", "1", "--gamma1", "1",
      "--gamma2=-1", "--eps", "nan"], 7),
    (["avoid-seq", "--x0", "nan", "--jmax", "2"], 2),
    (["spectrum", "--family", "qr", "--alpha", "1", "--gamma1", "1",
      "--gamma2=-1", "--eps", "0.1", "--cutoff", "4", "--tol", "nan"], 2),
    # a nan fraction would flag no row, and 0 every row
    (["weyl", "--family", "xi", "--alpha", "1,0.8", "--gamma", "0.3,0.5",
      "--eps", "0.05", "--cutoff", "10", "--lambdas", "4,9",
      "--fraction", "nan"], 2),
    (["weyl", "--family", "xi", "--alpha", "1,0.8", "--gamma", "0.3,0.5",
      "--eps", "0.05", "--cutoff", "10", "--lambdas", "4,9",
      "--fraction", "0"], 2),
], ids=["braak-shift-inf", "braak-alpha-overflow", "quadrature-nan",
        "quadrature-inf", "quadrature-overflow", "quadrature-400-nodes",
        "perturb-gamma-inf",
        "quasimode-overflow", "quasimode-eps-1e100", "quasimode-eps-1e200",
        "quasimode-eps-minus-1e200", "quasimode-eps-nan", "avoid-seq-nan", "spectrum-tol-nan",
        "weyl-fraction-nan", "weyl-fraction-0"])
def test_nonfinite_and_overflowing_inputs_are_classified(capsys, argv, code):
    names = {2: "UsageError", 5: "PrecisionError", 7: "ModelSpecError"}
    expect_error(capsys, argv, code, names[code])


# finite parameters whose levels eps * gamma, and whose AB coupling
# eps beta2 D, are past the double range
OVERFLOW_MODEL = ["--alpha", "1", "--gamma1", "1e308", "--gamma2=-1e308",
                  "--eps", "10", "--cutoff", "5"]


@pytest.mark.parametrize("argv", [
    ["weyl", "--family", "qr"] + OVERFLOW_MODEL + ["--lambdas", "2,100"],
    ["weyl", "--family", "abframe"] + OVERFLOW_MODEL + ["--lambdas", "2,100"],
    ["spectrum", "--family", "abframe"] + OVERFLOW_MODEL + ["--cap", "8"],
    ["braak", "--family", "qr"] + OVERFLOW_MODEL + ["--nmax", "3"],
], ids=["weyl-qr", "weyl-abframe", "spectrum-abframe", "braak-qr"])
def test_matrix_entries_past_the_double_range_are_refused(capsys, argv):
    # sector assembly refuses them: the counts were wrong (weyl printed 1
    # and 1 for qr, 12 and 12 for abframe), and spectrum and braak failed
    # as usage errors
    doc = expect_error(capsys, argv, 5, "PrecisionError")
    assert doc["message"] == ("the model's matrix entries overflow the "
                              "double range")


@pytest.mark.parametrize("family, alpha, gamma", [
    ("xi", "1e300,0.8", "0.3,0.5"),
    ("vee", "1e300,1,1", "0.3,0.5,0.7"),
    ("lambda", "1e300,1", "0.3,0.5"),
])
def test_a_lapack_failure_is_a_numeric_error(capsys, family, alpha, gamma):
    # the entries are finite, but the layered count's eigensolve does not
    # converge: numpy's LinAlgError, a ValueError, is not a usage error
    expect_error(capsys, [
        "weyl", "--family", family, "--alpha", alpha, "--gamma", gamma,
        "--eps", "0.05", "--cutoff", "5", "--lambdas", "2"], 8,
        "NumericError")


def test_weyl_prediction_is_zero_below_zero(tmp_path):
    argv = ["weyl", "--family", "xi", "--alpha", "1,0.8", "--gamma",
            "0.3,0.5", "--eps", "0.05", "--cutoff", "5", "--lambdas=-1,0,2"]
    doc = run_json(tmp_path, argv)
    assert [r["prediction"] for r in doc["rows"]] == [0, 0, 6]
    assert [r["count"] for r in doc["rows"]][:2] == [0, 0]
    # no relative error against a zero prediction: null, not a string
    assert [r["rel_err"] for r in doc["rows"]][:2] == [None, None]
    check_schema(doc, load_schema("weyl"))
    out = tmp_path / "w.csv"
    assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
    rows = _parse_output(["--format=csv"], out.read_text(encoding="utf-8"))
    assert [r[3] for r in rows][:3] == ["rel_err", "", ""]
    assert float(rows[3][3]) == doc["rows"][2]["rel_err"]


def test_overlap_nodes_over_cap_refused_before_building(capsys):
    # a rule of 10^8 nodes would take gigabytes; refused up front
    tracemalloc.start()
    try:
        expect_error(capsys, ["overlap", "--N", "1", "--k", "1", "--alpha",
                              "0.5", "--method", "quadrature",
                              "--nodes", "100000000"],
                     5, "PrecisionError")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_overlap_at_node_cap_computes(tmp_path):
    nodes = str(rabispec.overlaps.MAX_QUADRATURE_NODES)
    doc = run_json(tmp_path, ["overlap", "--N", "1", "--k", "1", "--alpha",
                              "0.5", "--method", "both", "--nodes", nodes])
    assert doc["quadrature"] == pytest.approx(doc["closed"], rel=1e-12)


@pytest.mark.parametrize("argv, code", [
    (["perturb", "--N", "1", "--alpha", "1e300", "--gamma1", "1",
      "--gamma2", "-1", "--fd-check"], 5),
    (["overlap", "--N", "1", "--k", "1", "--method", "quadrature",
      "--alpha", "1e200"], 5),
    (["weyl", "--family", "xi", "--alpha", "1e300,0.8", "--gamma", "0.3,0.5",
      "--eps", "0.05", "--cutoff", "5", "--lambdas", "2"], 8),
], ids=["abframe-overflow", "quadrature-overflow", "weyl-overflow"])
def test_stderr_holds_only_the_error_object(argv, code):
    # numpy warns on these overflows; a separate interpreter shows what a
    # shell user sees, without pytest's warning capture
    pkg_root = str(Path(rabispec.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=pkg_root + (os.pathsep + path
                                                  if path else ""))
    proc = subprocess.run([sys.executable, "-m", "rabispec.cli"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code
    assert proc.stdout == ""
    doc = json.loads(proc.stderr)
    assert doc["exit_code"] == code
    check_schema(doc, load_schema("error"))


AB_FAR = ["--family", "abframe", "--gamma1", "1", "--gamma2", "-1",
          "--eps", "0.1", "--cutoff", "10"]


@pytest.mark.parametrize("alpha", ["1e160", "-1e160", "9.5e153"])
def test_ab_frame_past_the_overflow_of_2_alpha_squared(tmp_path, alpha):
    # there the displacement matrix is zero, as at alpha 1e150: weyl counts
    # the box's diagonal 0.5, 1.5, 2.5 twice, and spectrum stops at its
    # cap unconverged (without --cap it would grow to 4 096)
    def run(argv, a):
        doc = run_json(tmp_path, argv + AB_FAR + ["--alpha", a])
        del doc["config"]
        return doc

    weyl = ["weyl", "--lambdas", "3"]
    assert run(weyl, alpha) == run(weyl, "1e150")
    assert run(weyl, alpha)["rows"][0]["count"] == 6
    spectrum = ["spectrum", "--cap", "40"]
    doc = run(spectrum, alpha)
    assert doc == run(spectrum, "1e150")
    assert doc["partial"] and doc["converged_count"] == 0
    assert doc["cutoffs_used"] == [40]


def test_smges_check_rejects_two_level(capsys):
    expect_error(capsys, ["smges-check", "--family", "qr", "--alpha", "1",
                          "--gamma1", "1", "--gamma2", "-1", "--eps", "0.1",
                          "--cutoff", "8"],
                 2, "UsageError")


def test_seed_echoed_in_config(tmp_path):
    doc = run_json(tmp_path, ["laguerre-zeros", "--degree", "3"])
    assert doc["config"]["seed"] == 0


# ------------------------------------------------------- README examples


def _readme_commands():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [ln.split()[1:] for ln in block.splitlines()
            if ln.startswith("rabispec ")]


def _parse_output(argv, text):
    """The rows of a CSV artifact, or the JSON document."""
    if "csv" in argv or "--format=csv" in argv:
        lines = [ln for ln in text.splitlines() if not ln.startswith("# ")]
        rows = list(csv.reader(lines))
        assert rows and all(len(r) == len(rows[0]) for r in rows)
        return rows
    return json.loads(text)


def test_readme_command_examples_run():
    commands = _readme_commands()
    assert {c[0] for c in commands} == set(cli.HANDLERS)
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        _parse_output(argv, out.getvalue())


def _scipy_free_readme_commands():
    """The README examples of the six commands that make no LAPACK call, in
    their LAPACK-free form: overlap by the closed form alone, perturb
    without --fd-check."""
    out = []
    for argv in _readme_commands():
        if argv[0] == "overlap":
            argv = argv[:argv.index("--method") + 1] + ["closed"]
        elif argv[0] == "perturb":
            argv = [a for a in argv if a != "--fd-check"]
        elif argv[0] not in ("quasimode", "braak", "weyl", "smges-check"):
            continue
        out.append(argv)
    return out


SCIPY_PROBE = """
import contextlib, io, json, sys
from rabispec.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return [argv[0], code, scipy_modules()]

print(json.dumps([["import", 0, scipy_modules()]]
                 + [run(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_cli_import_loads_neither_fractions_nor_decimal():
    # the exact sums round by integer division; nothing else of the
    # package, or of numpy, loads these modules
    src = str(Path(rabispec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rabispec.cli; print(sorted("
         "{'fractions', 'decimal', 'rabispec.cli'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "['rabispec.cli']\n"


def test_cli_loads_scipy_only_at_its_first_lapack_call():
    # in one fresh interpreter: the import, the six, then spectrum, whose
    # eigensolve loads scipy, so a probe blind to loads fails there
    free = _scipy_free_readme_commands()
    assert len(free) == 6
    spectrum, = [a for a in _readme_commands() if a[0] == "spectrum"]
    src = str(Path(rabispec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(free + [spectrum])],
        capture_output=True, text=True, env=env, check=True)
    runs = json.loads(out.stdout)
    assert [r[:2] for r in runs] == [["import", 0]] + [
        [a[0], 0] for a in free + [spectrum]]
    assert all(loaded == [] for _, _, loaded in runs[:-1]), runs
    assert "scipy.linalg" in runs[-1][2]


def _parse(parser, argv):
    """("ok", Namespace), ("exit", stdout) for --help, or ("usage", the
    UsageError message) from parser.parse_args(argv)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "ok", vars(parser.parse_args(argv))
    except SystemExit as e:
        return "exit", (e.code, out.getvalue())
    except errors.UsageError as e:
        return "usage", str(e)


def _usage_argvs():
    """Every argv of this file's argparse usage-error cases."""
    marks = test_argparse_errors_are_usage_errors.pytestmark
    cases, = [m.args[1] for m in marks if m.name == "parametrize"]
    return [argv for argv, _ in cases] + [
        ["overlap", "--k", "1", "--alpha", "0"],
        XI_WEYL + ["--alpha", "1,0.8", "--cutoff", "10", "--lambdas="],
        ["smges-check", "--family", "qr"], ["spectrum", "--levels", "x"],
        ["quasimode", "--N", "1", "--alpha", "1", "--gamma1", "1",
         "--gamma2=-1", "--format", "csv"]]


@pytest.mark.parametrize("command", list(cli.HANDLERS))
def test_one_command_parser_parses_as_the_full_parser(command):
    # the parser main builds for an argv adds only its command's arguments
    full, one = cli.build_parser(), cli.build_parser(command)
    argvs = [[command, "--help"], [command, "-h"], [command],
             [command, "--no-such-flag", "1"]]
    argvs += [a for a in _readme_commands() + _usage_argvs()
              if a[0] == command]
    assert len(argvs) > 4
    for argv in argvs:
        assert _parse(one, argv) == _parse(full, argv), argv
    assert _parse(one, [command, "--help"])[1][1].startswith(
        "usage: rabispec %s" % command)


def test_parser_without_a_command_is_the_full_parser():
    for argv in ([], ["--help"], ["-h", "spectrum"], ["spectrun"],
                 ["--config", "x", "spectrum"]):
        first = argv[0] if argv else None
        assert _parse(cli.build_parser(first), argv) \
            == _parse(cli.build_parser(), argv)
    assert _parse(cli.build_parser(), ["--help"])[1][1] \
        == _parse(cli.build_parser("weyl"), ["--help"])[1][1]
    assert [name for name, *_ in cli.COMMANDS] == list(cli.HANDLERS)


# ------------------------------------------------------- robustness


SPECIAL = [math.inf, -math.inf, math.nan, 1e300, -1e300, 0.0]


def _float(lo, hi):
    # about one float in eight is special, so that most runs get past
    # validation
    regular = st.floats(min_value=lo, max_value=hi)
    return st.integers(0, 7).flatmap(
        lambda i: st.sampled_from(SPECIAL) if i == 7 else regular)


FLOAT = _float(-3.0, 3.0)
POSITIVE = _float(1e-12, 3.0)


def _readme_exit_codes():
    """The codes of the README exit-code table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    return [int(c) for c in re.findall(r"^\| (\d+) \|", table, re.M)]


README_CODES = set(_readme_exit_codes()) - {0}


def test_exit_codes_have_one_source_of_truth():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.RabispecError)]
    codes = sorted(c.exit_code for c in classes)
    assert codes == sorted(README_CODES)
    assert _readme_exit_codes() == [0] + codes
    prop = load_schema("error")["properties"]
    assert sorted(prop["error"]["enum"]) == sorted(c.__name__
                                                   for c in classes)
    assert prop["exit_code"]["minimum"] == codes[0]
    assert prop["exit_code"]["maximum"] == codes[-1]


def _times_ten(n):
    """n as the README writes a power of ten: 600000000 as 6 · 10⁸."""
    digits = str(n)
    exp = len(digits) - len(digits.rstrip("0"))
    return "%d · 10%s" % (n // 10 ** exp, str(exp).translate(
        str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")))


def test_readme_quotes_the_laguerre_work_cap():
    # the exit-code row and the laguerre-zeros paragraph quote the cap and
    # its count, and the largest degree the cap admits
    text = README.read_text(encoding="utf-8")
    table = text.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    row, = re.findall(r"^\| 9 \|.*$", table, re.M)
    per = specfun._ZEROS_WORK_PER_DEGREE_SQUARED
    degree = math.isqrt(specfun.MAX_ZEROS_WORK // per)
    assert per * degree ** 2 == specfun.MAX_ZEROS_WORK
    cap = _times_ten(specfun.MAX_ZEROS_WORK)
    assert ("whose work, %d degree² operations, is over the cap of %s "
            "(degree %s," % (per, cap, format(degree, ",").replace(",", " "))
            in row)
    para = " ".join(text.split("`laguerre-zeros` time grows", 1)[1]
                    .split("\n\n", 1)[0].split())
    assert "counted as %d degree² operations" % per in para
    assert "capped at %s" % cap in para


def _num(v):
    return repr(float(v))


def _flags(**kw):
    """--name=value for every value that is not None; True is a switch."""
    out = []
    for k, v in kw.items():
        flag = "--" + k.replace("_", "-")
        if v is True:
            out.append(flag)
        elif v is not None and v is not False:
            out.append("%s=%s" % (flag, v))
    return out


@st.composite
def _model(draw, families=("qr", "qrabi", "abframe", "xi", "lambda", "vee")):
    fam = draw(st.sampled_from(families))
    cut = st.integers(min_value=1, max_value=6)
    # a single-mode family takes one cutoff; one draw in four gives it none
    # or two, which it refuses
    one_cut = ",".join(str(draw(cut)) for _ in range(
        draw(st.sampled_from((1, 1, 1, 1, 1, 1, 0, 2))))) or ","
    if fam == "qrabi":
        return _flags(family=fam, alpha=_num(draw(FLOAT)),
                      delta=_num(draw(FLOAT)), eps=_num(draw(FLOAT)),
                      cutoff=one_cut)
    n = 1 if fam in ("qr", "abframe") else draw(st.integers(1, 3))
    alphas = [_num(draw(FLOAT)) for _ in range(n)]
    # level parameters in either order: the models want them ordered
    gammas = [_num(g) for g in draw(st.lists(FLOAT, min_size=n + 1,
                                             max_size=n + 1).map(sorted))]
    if draw(st.integers(0, 3)) == 0:
        gammas.reverse()
    if fam in ("qr", "abframe"):
        return _flags(family=fam, alpha=alphas[0], gamma1=gammas[0],
                      gamma2=gammas[-1], eps=_num(draw(FLOAT)),
                      cutoff=one_cut)
    cuts = ",".join(str(draw(cut))
                    for _ in range(draw(st.sampled_from((1, n)))))
    return _flags(family=fam, alpha=",".join(alphas),
                  gamma=",".join(gammas[1:]), eps=_num(draw(FLOAT)),
                  cutoff=cuts)


def _optional(strategy):
    return st.one_of(st.none(), strategy)


SMALL = st.integers(min_value=-1, max_value=20)
FORMAT = st.sampled_from(("json", "csv"))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(cli.HANDLERS)))

    def f():
        return _num(draw(FLOAT))

    if cmd == "overlap":
        rest = _flags(N=draw(SMALL), k=draw(SMALL), alpha=f(),
                      method=draw(st.sampled_from(
                          ("closed", "quadrature", "both"))),
                      nodes=draw(_optional(st.integers(1, 50))),
                      format=draw(FORMAT))
    elif cmd == "laguerre-zeros":
        rest = _flags(degree=draw(SMALL), format=draw(FORMAT))
    elif cmd == "avoid-seq":
        rest = _flags(x0=_num(draw(POSITIVE)), jmax=draw(st.integers(1, 3)),
                      kcap=draw(st.integers(1, 200)), format=draw(FORMAT))
    elif cmd == "spectrum":
        rest = draw(_model()) + _flags(
            levels=draw(st.integers(1, 6)), tol=_num(draw(POSITIVE)),
            cap=draw(st.integers(0, 8)),
            parity=draw(st.booleans()), format=draw(FORMAT))
    elif cmd in ("perturb", "quasimode"):
        rest = _flags(N=draw(st.integers(-1, 6)), alpha=f(), gamma1=f(),
                      gamma2=f())
        if cmd == "perturb":
            rest += _flags(fd_check=draw(st.booleans()), format=draw(FORMAT))
        else:
            rest += _flags(K=draw(_optional(st.integers(0, 6))),
                           eps=draw(_optional(FLOAT.map(_num))),
                           cutoff=draw(_optional(st.integers(0, 6))),
                           vectors=draw(st.booleans()))
    elif cmd == "braak":
        rest = draw(_model(("qr", "qrabi", "xi"))) + _flags(
            nmax=draw(st.integers(-1, 3)),
            shift=draw(_optional(FLOAT.map(_num))),
            format=draw(FORMAT))
    elif cmd == "weyl":
        lams = ",".join(f() for _ in range(draw(st.integers(1, 3))))
        rest = draw(_model()) + _flags(lambdas=lams,
                                       fraction=_num(draw(POSITIVE)),
                                       format=draw(FORMAT))
    else:
        rest = draw(_model(("qr", "xi", "lambda", "vee"))) + _flags(
            samples=draw(st.integers(1, 20)), seed=draw(st.integers(0, 3)))
    return [cmd] + rest


def _no_nan(doc):
    if isinstance(doc, dict):
        return all(_no_nan(v) for k, v in doc.items() if k != "config")
    if isinstance(doc, list):
        return all(_no_nan(v) for v in doc)
    return doc != "nan"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_argv())
@example(argv=["braak", "--family=qr", "--alpha=1", "--gamma1=1",
               "--gamma2=-1", "--eps=0.02", "--cutoff=6", "--nmax=1",
               "--shift=inf"])
@example(argv=["braak", "--family=qr", "--alpha=1e200", "--gamma1=1",
               "--gamma2=-1", "--eps=0.02", "--cutoff=6", "--nmax=1"])
@example(argv=["overlap", "--N=1", "--k=1", "--method=quadrature",
               "--alpha=nan"])
@example(argv=["overlap", "--N=1", "--k=1", "--method=quadrature",
               "--alpha=inf"])
@example(argv=["perturb", "--N=1", "--alpha=1", "--gamma1=inf",
               "--gamma2=-1"])
@example(argv=["weyl", "--family=vee", "--alpha=1,1,1",
               "--gamma=0,0.1,0.2", "--eps=0", "--cutoff=2",
               "--lambdas=-1"])
@example(argv=["quasimode", "--N=2", "--alpha=1", "--gamma1=1",
               "--gamma2=0", "--eps=0.01", "--cutoff=1"])
@example(argv=["spectrum", "--family=qr", "--alpha=1", "--gamma1=1",
               "--gamma2=-1", "--eps=0.1", "--cutoff=,"])
def test_main_never_raises_and_classifies_every_failure(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        doc = _parse_output(argv, out.getvalue())
        if isinstance(doc, dict):
            assert _no_nan(doc), argv
            check_schema(doc, load_schema(argv[0].replace("-", "_")))
        else:
            assert not any("nan" in cell for row in doc for cell in row), argv
        return
    assert code in README_CODES, argv
    doc = json.loads(err.getvalue())
    assert doc["exit_code"] == code
    check_schema(doc, load_schema("error"))
