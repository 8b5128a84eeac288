"""Command-line front end: artifact shapes, determinism, config handling,
and exit codes. Everything runs in process through main(argv)."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rabispec
from rabispec import cli
from rabispec.cli import main
from rabispec.fock_ops import load_matrix
from rabispec.overlaps import overlap_closed

SCHEMA_DIR = Path(rabispec.__file__).parent / "schemas"


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


def test_braak_command_defaults(tmp_path):
    doc = run_json(tmp_path, ["braak", "--family", "qr", "--alpha", "1",
                              "--gamma1", "1", "--gamma2", "-1",
                              "--eps", "0.02", "--cutoff", "16",
                              "--nmax", "4"])
    assert doc["config"]["shift"] == 0.5  # alpha^2/2 by default
    assert [c["total"] for c in doc["per_interval"]] == [2, 2, 2, 2, 2]
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


def test_smges_check_command_grid_seed_invariance(tmp_path):
    base = ["smges-check", "--family", "xi", "--alpha", "1,0.8",
            "--gamma", "0.3,0.5", "--eps", "0.5", "--cutoff", "10",
            "--samples", "200", "--grid"]
    a = run_json(tmp_path, base + ["--seed", "1"], "a.json")
    b = run_json(tmp_path, base + ["--seed", "77"], "b.json")
    assert a["min_gap"] == b["min_gap"]
    assert a["X"] == b["X"]
    check_schema(a, load_schema("smges_check"))


# ------------------------------------------------------- output formats


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


def test_config_switch_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=qrabi\nalpha=0.8\ndelta=0.9\neps=0.04\n"
                   "cutoff=8\nlevels=4\nparity=true\n", encoding="utf-8")
    doc = run_json(tmp_path, ["spectrum", "--config", str(cfg)])
    assert "parity" in doc


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n", encoding="utf-8")
    assert main(["overlap", "--config", str(bad)]) == 2
    doc = json.loads(capsys.readouterr().err)
    check_schema(doc, load_schema("error"))
    assert main(["overlap", "--config", str(tmp_path / "missing.cfg")]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "UsageError"


# ------------------------------------------------------- failure modes


def expect_error(capsys, argv, code, name):
    got = main(argv)
    assert got == code
    captured = capsys.readouterr()
    doc = json.loads(captured.err)
    assert doc["error"] == name
    assert doc["exit_code"] == code
    check_schema(doc, load_schema("error"))


def test_exit_code_usage(capsys):
    expect_error(capsys, ["overlap", "--k", "1", "--alpha", "0"],
                 2, "UsageError")


@pytest.mark.parametrize("argv", [
    ["overlap", "--N", "x", "--k", "1", "--alpha", "1"],
    ["laguerre-zeros", "--degree", "2", "--no-such-flag"],
    ["weyl", "--family", "xi", "--alpha", "1,0.8", "--gamma", "0.3,0.5",
     "--eps", "0.05", "--cutoff", "6", "--lambdas", "2,3", "--jobs", "2"],
], ids=["bad-N", "unknown-flag", "retired-jobs"])
def test_argparse_errors_are_usage_errors(capsys, argv):
    expect_error(capsys, argv, 2, "UsageError")


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
    expect_error(capsys, ["braak", "--family", "qr", "--alpha", "1",
                          "--gamma1", "1", "--gamma2", "-1", "--eps", "0.02",
                          "--cutoff", "16", "--nmax", "300", "--levels", "12"],
                 6, "CoverageError")


def test_exit_code_model_spec(capsys):
    expect_error(capsys, ["spectrum", "--family", "qr", "--alpha", "1",
                          "--gamma1", "-1", "--gamma2", "1", "--eps", "0.1",
                          "--cutoff", "8"],
                 7, "ModelSpecError")


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
    # dimension 482 403 would need a 1.7 TiB dense matrix; refused up front
    tracemalloc.start()
    try:
        expect_error(capsys, ["weyl", "--family", "xi", "--alpha", "1,0.8",
                              "--gamma", "0.3,0.5", "--eps", "0.05",
                              "--cutoff", "400", "--lambdas", "5,10,20"],
                     9, "ResourceError")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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
    argv = ["laguerre-zeros", "--degree", "2", "--out"]
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


def test_smges_check_rejects_two_level(capsys):
    expect_error(capsys, ["smges-check", "--family", "qr", "--alpha", "1",
                          "--gamma1", "1", "--gamma2", "-1", "--eps", "0.1",
                          "--cutoff", "8"],
                 2, "UsageError")


def test_seed_echoed_in_config(tmp_path):
    doc = run_json(tmp_path, ["laguerre-zeros", "--degree", "3"])
    assert doc["config"]["seed"] == 0
