import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttfun import cli
from ttfun.basis import PolyBasis
from ttfun.cli import main
from ttfun.complexity import AuditRecord
from ttfun.grids import DomainError, Grid
from ttfun.train import MismatchError, TensorTrain, dump_json, load_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_encode_builtin_sawtooth(tmp_path, capsys):
    out = tmp_path / "saw.json"
    code, stdout, _ = run(capsys, "encode", "sawtooth", "--depth", "5", "--degree", "1", "--out", str(out))
    assert code == 0
    assert "[2, 2, 2, 2, 2]" in stdout
    doc = json.loads(out.read_text())
    assert doc["depth"] == 5


def test_encode_polynomial_builtin(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, stdout, _ = run(capsys, "encode", "poly:0,0,1", "--depth", "4", "--base", "2", "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "eval", str(out), "0.5")
    assert code == 0
    assert abs(float(stdout.split()[-1]) - 0.25) < 1e-12


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_eval_non_finite_point_exits_2(tmp_path, capsys, bad):
    out = tmp_path / "p.json"
    run(capsys, "encode", "poly:0,0,1", "--depth", "4", "--out", str(out))
    code, stdout, err = run(capsys, "eval", str(out), "0.5", bad)
    assert code == 2
    assert err.startswith("error:") and "outside [0, 1)" in err


@pytest.mark.parametrize("bad", ["-inf", "-0.25"])
def test_eval_negative_point_reaches_domain_check(tmp_path, capsys, bad):
    out = tmp_path / "p.json"
    run(capsys, "encode", "poly:0,0,1", "--depth", "4", "--out", str(out))
    code, _, err = run(capsys, "eval", str(out), bad)
    assert code == 2
    assert err.strip() == f"error: point {float(bad)} outside [0, 1)"


def _spoil_core_shape(doc):
    doc["core_shapes"][1] = [2, 3, 2]


def _drop_cores(doc):
    del doc["cores"]


def _nan_leaf(doc):
    doc["leaf"][0][0] = float("nan")


@pytest.mark.parametrize(
    "spoil, message",
    [
        pytest.param(_spoil_core_shape, "do not fill shape", id="core_shape"),
        pytest.param(_drop_cores, "lacks 'cores'", id="missing_cores"),
        pytest.param(_nan_leaf, "non-finite", id="nan_leaf"),
        pytest.param(None, "cannot parse", id="truncated_json"),
    ],
)
def test_bad_train_file_exits_2(tmp_path, capsys, spoil, message):
    path = tmp_path / "p.json"
    run(capsys, "encode", "poly:0,0,1", "--depth", "4", "--out", str(path))
    if spoil is None:
        path.write_text(path.read_text()[:40])
    else:
        doc = json.loads(path.read_text())
        spoil(doc)
        path.write_text(json.dumps(doc))
    with pytest.raises((DomainError, MismatchError), match=message):
        load_json(path)
    for argv in (["eval", str(path), "0.5"], ["ranks", str(path)], ["complexity", str(path)]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and message in err


def test_encode_spline_json(tmp_path, capsys):
    spec = tmp_path / "spline.json"
    doc = {
        "base": 2,
        "knots": [[1, 2], [5, 3]],  # 1/4 and 5/8: three pieces
        "pieces": [[0.0, 1.0], [1.0, -1.0, 0.5], [0.25, 0.5]],
    }
    spec.write_text(json.dumps(doc))
    out = tmp_path / "train.json"
    code, stdout, _ = run(capsys, "encode", str(spec), "--out", str(out))
    assert code == 0
    # free-knot bound: ranks <= mbar + N = 2 + 3
    ranks = json.loads(stdout.splitlines()[1].split("ranks: ")[1])
    assert max(ranks) <= 5


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param({"knots": [], "pieces": [[0.0, float("nan")]]}, id="nan_piece"),
        pytest.param({"knots": [[1, 1]], "pieces": [[1.0], [float("inf")]]}, id="inf_piece"),
        # finite entries, but the train overflows in the rank sweep
        pytest.param({"knots": [[1, 1]], "pieces": [[1e308, 1e308]] * 2}, id="overflow_sweep"),
        # the leaf-basis map overflows: the encoded train holds an inf
        pytest.param({"knots": [[1, 1]], "pieces": [[1e308] * 3] * 2}, id="overflow_leaf"),
        "poly:nan,1",
        "poly:inf",
        "poly:1e308,1e308",
    ],
)
def test_encode_non_finite_exits_2_without_output(tmp_path, capsys, spec):
    if isinstance(spec, dict):
        path = tmp_path / "spline.json"
        path.write_text(json.dumps({"base": 2, **spec}))
        spec = str(path)
    out = tmp_path / "o.json"
    code, stdout, err = run(capsys, "encode", spec, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error:")
    assert not out.exists()


_PIECES = [[1.0], [2.0]]


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({"base": 2.9, "knots": [[1, 1]], "pieces": _PIECES}, id="float_base"),
        pytest.param({"base": 2, "knots": [[1.7, 1]], "pieces": _PIECES}, id="float_in_pair"),
        pytest.param({"base": 2, "knots": [[1, 1, 5]], "pieces": _PIECES}, id="triple"),
        pytest.param({"base": 2, "knots": [[1]], "pieces": _PIECES}, id="single"),
        pytest.param({"base": 0, "knots": [0.5], "pieces": _PIECES}, id="base_0_float_knot"),
        pytest.param([2, [[1, 1]], _PIECES], id="not_an_object"),
        pytest.param({"base": 2, "knots": [math.inf], "pieces": _PIECES}, id="inf_knot"),
        pytest.param({"base": 2, "knots": [-math.inf], "pieces": _PIECES}, id="minus_inf_knot"),
        pytest.param({"base": 2, "knots": [math.nan], "pieces": _PIECES}, id="nan_knot"),
    ],
)
def test_encode_malformed_spline_document_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "spline.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    code, stdout, err = run(capsys, "encode", str(path), "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: bad spline document") and len(err.splitlines()) == 1


def test_encode_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "encode", str(bad), "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert err.startswith("error:")


def test_encode_non_badic_knot(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"base": 2, "knots": [1 / 3], "pieces": [[1.0], [2.0]]}))
    code, _, err = run(capsys, "encode", str(bad), "--out", str(tmp_path / "x.json"))
    assert code == 3
    assert err.startswith("error:") and "0.33" in err


def test_ranks_and_complexity_commands(tmp_path, capsys):
    out = tmp_path / "saw.json"
    run(capsys, "encode", "sawtooth", "--depth", "4", "--degree", "1", "--out", str(out))
    code, stdout, _ = run(capsys, "ranks", str(out))
    assert code == 0 and json.loads(stdout)["ranks"] == [2, 2, 2, 2]
    code, stdout, _ = run(capsys, "complexity", str(out))
    rep = json.loads(stdout)
    assert code == 0 and rep["cost_C"] <= 8 * 4 + 2 * 1 + 2


@pytest.mark.parametrize("degree", [13, 20])
def test_ranks_and_round_of_a_monomial_leaf_past_degree_12_exit_2(tmp_path, capsys, degree):
    # the Hilbert Gram matrix of such a leaf has no numerical Cholesky factor;
    # it used to end in a LinAlgError traceback
    rng = np.random.default_rng(degree)
    cores = [rng.random((2, 1, 2)), rng.random((2, 2, 1))]
    tt = TensorTrain(Grid(2, 2), cores, rng.random((1, degree + 1)), PolyBasis(degree, "monomial"))
    path = tmp_path / "mono.json"
    dump_json(tt, path)
    for argv in (["ranks", str(path)], ["complexity", str(path), "--round", "1e-8"]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err.splitlines() == [
            f"error: the monomial Gram matrix of degree {degree} is not numerically positive definite"
        ]


def test_audit_instance_and_unknown(tmp_path, capsys):
    code, stdout, _ = run(capsys, "audit", "--instance", "fixed_knot", "--b", "3", "--d", "3", "--m", "0")
    assert code == 0 and "0 violations" in stdout
    # one piece at d = 0 is one polynomial; the audit used to index past its ranks
    code, stdout, _ = run(capsys, "audit", "--instance", "free_knot", "--pieces", "1", "--d", "0")
    assert code == 0 and "0 violations" in stdout
    code, _, err = run(capsys, "audit", "--instance", "bogus")
    assert code == 4 and err.startswith("error:")


def test_audit_out_writes_every_record_deterministically(tmp_path, capsys):
    files = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in files:
        code, stdout, _ = run(capsys, "audit", "--out", str(out))
        assert code == 0 and "audited 839 bounds, 0 violations" in stdout
    doc = json.loads(files[0].read_text())
    assert len(doc) == 839
    assert all(set(r) == {"instance", "params", "quantity", "measured", "bound", "pass"} for r in doc)
    assert files[0].read_bytes() == files[1].read_bytes()


# The sha256 of the `ttfun audit --out` file. A change to these bytes is a
# change to the audit's output: record the new value on purpose.
_AUDIT_OUT_SHA256 = "f48788755f4ebc071b7296c1cb29b008316dc4fce46de4cfb262e647aceeac9b"


def test_audit_out_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "audit.json"
    assert run(capsys, "audit", "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _AUDIT_OUT_SHA256


def test_audit_failing_bound_exits_1_and_names_it(monkeypatch, capsys):
    bad = AuditRecord("fixed_knot", {"b": 2}, "rank_1", 5.0, 4.0, False)
    monkeypatch.setattr(cli, "default_audit_sweep", lambda: [bad])
    code, stdout, _ = run(capsys, "audit")
    assert code == 1
    assert "audited 1 bounds, 1 violations" in stdout
    assert "FAIL fixed_knot rank_1: 5.0 > 4.0" in stdout.splitlines()


def test_study_unknown_target(capsys):
    code, _, err = run(capsys, "study", "adaptive", "--target", "nope")
    assert code == 4 and err.startswith("error:")
    # a parameter that is not a number names the target, as an unknown name does
    for kind, target in (("sobolev", "poly:"), ("sobolev", "x_pow:abc"), ("sawtooth", "sawtooth:x")):
        code, stdout, err = run(capsys, "study", kind, "--target", target, "--schedule", "2")
        assert code == 4 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1 and repr(target) in err


def test_study_sawtooth_target_of_depth_0_exits_4(capsys):
    # it used to end in an IndexError traceback
    code, stdout, err = run(capsys, "study", "sobolev", "--target", "sawtooth:0", "--schedule", "3")
    assert code == 4 and stdout == ""
    assert err == "error: depth must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "kind, schedule, message",
    [("sobolev", "3,4", "L^p error"), ("adaptive", "8,16", "local L^p error")],
)
def test_study_whose_error_overflows_exits_2_without_output(tmp_path, capsys, kind, schedule, message):
    # the p-th powers of the errors overflowed: the rows recorded inf, and
    # the fit printed slope=nan
    csv_out = tmp_path / "s.csv"
    code, stdout, err = run(
        capsys, "study", kind, "--target", "poly:0,0,1e307", "--schedule", schedule,
        "--csv", str(csv_out),
    )
    assert code == 2 and stdout == "" and not csv_out.exists()
    assert err == f"error: {message} has a non-finite entry or overflows float64\n"


def test_study_that_records_no_rows_exits_2_without_output(tmp_path, capsys):
    # every analytic track needs d >= 2, so budget 1 records nothing at m = 1
    csv_out, json_out = tmp_path / "a.csv", tmp_path / "a.json"
    code, stdout, err = run(
        capsys, "study", "analytic", "--target", "inv_xplus2", "--schedule", "1",
        "--csv", str(csv_out), "--json", str(json_out),
    )
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "no rows" in err
    assert not csv_out.exists() and not json_out.exists()


def test_study_overflowing_sample_prints_only_its_error_line(tmp_path):
    # a fresh interpreter with Python's default warning filters, under which
    # numpy's overflow warning would print itself and its source line
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "ttfun.cli", "study", "analytic", "--target", "poly:1e308,1e308",
         "--schedule", "9", "--csv", str(tmp_path / "a.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: non-finite sample of f"]


def test_study_csv_determinism(tmp_path, capsys):
    args = ["study", "sawtooth", "--target", "sawtooth", "--dmax", "6", "--seed", "7"]
    c1 = tmp_path / "a.csv"
    c2 = tmp_path / "b.csv"
    assert run(capsys, *args, "--csv", str(c1))[0] == 0
    assert run(capsys, *args, "--csv", str(c2))[0] == 0
    rows1 = list(csv.reader(c1.open()))
    rows2 = list(csv.reader(c2.open()))
    i = rows1[0].index("seconds")
    strip = lambda rows: [[c for k, c in enumerate(r) if k != i] for r in rows]
    assert strip(rows1) == strip(rows2)
    assert strip(rows1) != rows1  # the timing column was actually dropped


def test_study_json_output(tmp_path, capsys):
    j = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "study", "sawtooth", "--target", "sawtooth", "--dmax", "3", "--json", str(j)
    )
    assert code == 0
    doc = json.loads(j.read_text())
    assert doc["config"]["b"] == 2 and doc["records"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["ranks", "--tol", "nan"], "tol"),
        (["ranks", "--tol=-1e-3"], "tol"),
        (["complexity", "--round", "nan"], "tol"),
        (["complexity", "--zero-tol", "nan"], "zero_tol"),
        (["complexity", "--zero-tol=-1"], "zero_tol"),
    ],
    ids=["ranks-nan", "ranks-negative", "round-nan", "zero-tol-nan", "zero-tol-negative"],
)
def test_bad_tolerance_exits_2(tmp_path, capsys, argv, name):
    out = tmp_path / "p.json"
    run(capsys, "encode", "poly:1,2,3", "--depth", "5", "--out", str(out))
    code, stdout, err = run(capsys, argv[0], str(out), *argv[1:])
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {name} must be >= 0")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["ranks", "--tol", "-1e-3"], "tol"),
        (["ranks", "--tol", "-0.5"], "tol"),
        (["complexity", "--round", "-1e-3"], "tol"),
        (["complexity", "--zero-tol", "-1e-3"], "zero_tol"),
        (["complexity", "--zero-tol", "-1"], "zero_tol"),
    ],
    ids=["ranks-exponent", "ranks-decimal", "round-exponent", "zero-tol-exponent", "zero-tol-int"],
)
def test_space_separated_negative_tolerance_reaches_the_check(tmp_path, capsys, argv, name):
    # argparse took "-1e-3" for an option and printed its usage first
    out = tmp_path / "p.json"
    run(capsys, "encode", "poly:1,2,3", "--depth", "5", "--out", str(out))
    code, stdout, err = run(capsys, argv[0], str(out), *argv[1:])
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {name} must be >= 0")


def test_space_separated_tolerances_still_parse(tmp_path, capsys):
    out = tmp_path / "p.json"
    run(capsys, "encode", "poly:1,2,3", "--depth", "5", "--out", str(out))
    code, stdout, _ = run(capsys, "ranks", str(out), "--tol", "1e-3")
    assert code == 0 and json.loads(stdout)["tolerance"] == 1e-3
    code, stdout, _ = run(capsys, "complexity", str(out), "--round", "1e-8", "--zero-tol", "0")
    assert code == 0 and json.loads(stdout)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--schedule", "3,x"], "error: bad number"),
        (["--schedule", "2,"], "error: bad number"),
        (["--p", "abc"], "error: bad number"),
        (["--p", "nan", "--schedule", "2"], "error: p must be positive"),
        (["--p", "0", "--schedule", "2"], "error: p must be positive"),
        (["--p", "-1e0", "--schedule", "2"], "error: p must be positive"),
    ],
    ids=["schedule-letter", "schedule-empty-entry", "p-letters", "p-nan", "p-zero", "p-negative"],
)
@pytest.mark.parametrize("kind", ["sobolev", "adaptive"])
def test_study_malformed_number_exits_2(tmp_path, capsys, kind, argv, message):
    csv_out = tmp_path / "s.csv"
    code, stdout, err = run(
        capsys, "study", kind, "--target", "sin2pi", *argv, "--csv", str(csv_out)
    )
    assert code == 2 and stdout == ""
    assert err.startswith(message)
    assert not csv_out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["audit", "--b", "x"], "error: argument --b: invalid int value: 'x'"),
        (["ranks", "FILE", "--tol", "abc"], "error: argument --tol: invalid float value: 'abc'"),
        (["encode", "poly:1", "--depth", "x", "--out", "o.json"],
         "error: argument --depth: invalid int value: 'x'"),
    ],
    ids=["audit-b", "ranks-tol", "encode-depth"],
)
def test_argparse_type_error_prints_only_the_error(capsys, argv, message):
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.strip() == message  # no usage block before it


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ranks", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ttfun ranks")


@pytest.mark.parametrize("schedule, bad", [("0", "0"), ("3,-1", "-1"), ("2,0,4", "0")])
@pytest.mark.parametrize("kind", ["sobolev", "adaptive"])
def test_study_schedule_entry_below_1_exits_2(tmp_path, capsys, kind, schedule, bad):
    csv_out = tmp_path / "s.csv"
    code, stdout, err = run(
        capsys, "study", kind, "--target", "sin2pi", "--schedule", schedule, "--csv", str(csv_out)
    )
    assert code == 2 and stdout == ""
    assert err.strip() == f"error: schedule entry {bad} is below 1"
    assert not csv_out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sawtooth", "--target", "sawtooth", "--dmax", "0"], "--dmax 0"),
        (["sawtooth", "--target", "sawtooth", "--dmax", "-3"], "--dmax -3"),
        (["analytic", "--target", "inv_xplus2", "--nmax", "5"], "--nmax 5"),
    ],
    ids=["dmax-0", "dmax-negative", "nmax-below-every-budget"],
)
def test_study_selection_of_nothing_exits_2(tmp_path, capsys, argv, flag):
    # an empty schedule used to run the whole default one and exit 0
    csv_out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, "study", *argv, "--csv", str(csv_out))
    assert code == 2 and stdout == ""
    assert err.strip() == f"error: {flag} selects no schedule entry"
    assert not csv_out.exists()


def test_study_nmax_keeps_the_budgets_up_to_it(tmp_path, capsys):
    csv_out = tmp_path / "s.csv"
    argv = ["study", "analytic", "--target", "inv_xplus2", "--nmax", "30", "--csv", str(csv_out)]
    assert run(capsys, *argv)[0] == 0
    with open(csv_out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(int(r["n"]) <= 30 for r in rows)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sobolev", "--target", "sin2pi", "--m", "-1", "--schedule", "3"], "m must be >= 0, got -1"),
        (["adaptive", "--target", "x_pow:0.6", "--m", "-1", "--schedule", "8"],
         "m must be >= 0, got -1"),
        (["sobolev", "--target", "sin2pi", "--m", "-2", "--schedule", "3"], "m must be >= 0, got -2"),
        (["sawtooth", "--target", "sawtooth", "--m", "-3"], "m must be >= 0, got -3"),
        (["sawtooth", "--target", "sawtooth", "--base", "1"], "base must be >= 2, got 1"),
        (["sobolev", "--target", "sin2pi", "--r", "1", "--schedule", "3"],
         "r must be >= m + 1 = 2, got 1"),
        (["sobolev", "--target", "sin2pi", "--r", "0", "--schedule", "3"],
         "r must be >= m + 1 = 2, got 0"),
        (["adaptive", "--target", "x_pow:0.6", "--mbar", "0", "--schedule", "8"],
         "mbar must be >= m = 1, got 0"),
        (["adaptive", "--target", "x_pow:0.6", "--schedule", "1"],
         "schedule entry 1 is below 2 pieces"),
    ],
    ids=[
        "sobolev-m-1", "adaptive-m-1", "sobolev-m-2", "sawtooth-m-3", "base-1",
        "sobolev-r-1", "sobolev-r-0", "adaptive-mbar-0", "adaptive-one-piece",
    ],
)
def test_study_degree_or_base_out_of_range_exits_2(tmp_path, capsys, argv, message):
    # m = -1 used to end in a ZeroDivisionError traceback (exit 1), m = -2 in
    # a message about depths, and sawtooth ran at m = -3 and exited 0; r and
    # mbar out of range were reported as a depth or degree mismatch, and one
    # piece as an "invalid record"
    csv_out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, "study", *argv, "--csv", str(csv_out))
    assert code == 2 and stdout == ""
    assert err.strip() == f"error: {message}"
    assert not csv_out.exists()


def test_study_repeated_schedule_entry_fits_no_line(capsys):
    # "1,1" gives two rows at one n: the fit used to end in a RankWarning traceback
    code, stdout, err = run(capsys, "study", "sobolev", "--target", "sin2pi", "--schedule", "1,1")
    assert code == 0 and err == ""
    assert "slope" not in stdout and "recorded" in stdout


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["sobolev", "--target", "sin2pi", "--r", "4", "--schedule", "3,4,5,6"],
            [
                "sobolev/C: 4 points, log-error vs log n slope=-4.958, R2=0.9951",
                "sobolev/N: 4 points, log-error vs log n slope=-7.672, R2=0.9951",
                "sobolev/S: 4 points, log-error vs log n slope=-4.538, R2=0.9945",
                "recorded 12 rows",
            ],
        ),
        (
            ["analytic", "--target", "inv_xplus2", "--schedule", "36,64,100,216,343,512,729"],
            [
                "analytic/C: 5 points, log-error vs n^0.33 slope=-0.701, R2=0.9671",
                "analytic/N: 4 points, log-error vs n^0.5 slope=-1.391, R2=1.0000",
                "analytic/S: 5 points, log-error vs n^0.33 slope=-0.690, R2=0.9673",
                "recorded 17 rows",
            ],
        ),
        # exact trains: every error is below the fit's 1e-12 floor
        (["sawtooth", "--target", "sawtooth", "--dmax", "5"], ["recorded 15 rows"]),
    ],
)
def test_study_summary_lines(capsys, argv, expected):
    code, stdout, err = run(capsys, "study", *argv)
    assert code == 0 and err == ""
    assert stdout.splitlines() == expected


def test_study_adaptive_fits_each_track_and_cost_kind(capsys):
    argv = ["adaptive", "--target", "x_pow:0.6", "--mbar", "1", "--schedule", "8,16,32,64"]
    code, stdout, err = run(capsys, "study", *argv)
    assert code == 0 and err == ""
    *fits, last = stdout.splitlines()
    assert [line.split(":")[0] for line in fits] == [
        f"{track}/{kind}"
        for track in ("adaptive", "adaptive_uniform")
        for kind in ("C", "N", "S", "pieces")
    ]
    assert all(": 4 points, log-error vs log n slope=-" in line for line in fits)
    assert last == "recorded 32 rows"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["free_knot", "--pieces", "10", "--d", "2"],
         "10 pieces need 9 distinct knots; levels 1..2 hold 3"),
        (["free_knot", "--d", "0"], "3 pieces need 2 distinct knots; levels 1..0 hold 0"),
        (["free_knot_interpolant", "--d", "0"],
         "3 pieces need 2 distinct knots; levels 1..0 hold 0"),
        (["fixed_knot", "--b", "1"], "b must be >= 2, got 1"),
        (["free_knot", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["more-pieces-than-knots", "free-knot-d-0", "interpolant-d-0", "b-1", "seed-negative"],
)
def test_audit_instance_out_of_range_exits_4_at_once(capsys, argv, message):
    # ten pieces at d = 2 used to spin forever, d = 0 ended in a ValueError
    # traceback, and a negative seed in one from numpy
    t0 = time.perf_counter()
    code, stdout, err = run(capsys, "audit", "--instance", *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 4 and stdout == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spec", ["haar", "hat", "sawtooth"])
def test_encode_builtin_at_depth_0_exits_2(tmp_path, capsys, spec):
    # depth 0 used to read as "no depth given" and encode at the default
    out = tmp_path / "t.json"
    code, stdout, err = run(capsys, "encode", spec, "--depth", "0", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()


# -- no traceback at the boundary: every numeric option over small, signed and
# non-finite values. An exception escaping main is what prints a traceback.

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
INTS = st.integers(-2, 4).map(str)
FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "-1e-3", "0", "0.5", "1e-8", "2"])


def _options(draw, spec):
    """--name value pairs for a drawn subset of spec's (name, strategy)."""
    argv = []
    for name, values in spec:
        if draw(st.booleans()):
            argv += [f"--{name}", draw(values)]
    return argv


def _no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code, out.getvalue(), err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), argv


@PROPERTY
@given(st.data(), st.sampled_from(["haar", "hat", "sawtooth", "poly:1,-2", "poly:0.5"]))
def test_encode_options_never_end_in_a_traceback(tmp_path_factory, data, spec):
    out = tmp_path_factory.mktemp("encode") / "t.json"
    options = [("base", INTS), ("depth", st.integers(-1, 6).map(str)), ("degree", INTS)]
    _no_traceback(["encode", spec, *_options(data.draw, options), "--out", str(out)])


_AUDIT_OPTIONS = [
    ("b", INTS), ("d", INTS), ("dbar", INTS), ("m", INTS), ("mbar", INTS),
    ("pieces", st.integers(-1, 9).map(str)), ("c", INTS), ("seed", INTS),
]


_AUDIT_INSTANCES = ["free_knot", "free_knot_interpolant", "fixed_knot", "sawtooth", "poly_interpolant"]


@PROPERTY
@given(st.data(), st.sampled_from(_AUDIT_INSTANCES))
def test_audit_options_never_end_in_a_traceback(data, instance):
    _no_traceback(["audit", "--instance", instance, *_options(data.draw, _AUDIT_OPTIONS)])


_STUDY_TARGETS = {
    "sobolev": "sin2pi", "analytic": "inv_xplus2", "adaptive": "x_pow:0.6", "sawtooth": "sawtooth",
}


@PROPERTY
@given(st.data(), st.sampled_from(sorted(_STUDY_TARGETS)))
def test_study_options_never_end_in_a_traceback(data, kind):
    # sobolev re-interpolates depth d to about 4d: d <= 2 keeps it near 50 ms
    entries = st.integers(-1, {"analytic": 30, "sobolev": 2}.get(kind, 4))
    schedule = ",".join(map(str, data.draw(st.lists(entries, min_size=1, max_size=2))))
    options = [
        ("base", st.integers(-1, 3).map(str)), ("m", INTS), ("p", FLOATS),
        ("r", INTS), ("mbar", INTS), ("seed", INTS),
    ]
    argv = ["study", kind, "--target", _STUDY_TARGETS[kind], "--schedule", schedule]
    _no_traceback([*argv, *_options(data.draw, options)])


@PROPERTY
@given(st.data(), st.sampled_from(["ranks", "complexity"]))
def test_ranks_and_complexity_options_never_end_in_a_traceback(tmp_path_factory, data, command):
    path = tmp_path_factory.getbasetemp() / "poly.json"
    if not path.exists():
        assert main(["encode", "poly:1,-2,3", "--depth", "4", "--out", str(path)]) == 0
    options = [("tol", FLOATS)] if command == "ranks" else [("zero-tol", FLOATS), ("round", FLOATS)]
    _no_traceback([command, str(path), *_options(data.draw, options)])


@pytest.mark.parametrize("spec, degree", [("hat", "-3"), ("sawtooth", "-5"), ("haar", "-1")])
def test_encode_negative_degree_exits_2(tmp_path, capsys, spec, degree):
    # hat and sawtooth used to build a degree-1 train and exit 0, and haar
    # blamed a "leaf degree"
    out = tmp_path / "t.json"
    code, stdout, err = run(capsys, "encode", spec, "--degree", degree, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: --degree must be >= 0, got {degree}\n"


@pytest.mark.parametrize("spec", ["hat", "sawtooth"])
def test_encode_default_degree_builds_the_degree_one_builtin(tmp_path, capsys, spec):
    out = tmp_path / "t.json"
    assert run(capsys, "encode", spec, "--out", str(out))[0] == 0
    assert load_json(str(out)).basis.degree == 1


@pytest.mark.parametrize("key", ["base", "pieces"])
def test_encode_spline_document_without_base_or_pieces_exits_2(tmp_path, capsys, key):
    doc = {"base": 2, "knots": [[1, 1]], "pieces": [[1.0], [2.0]]}
    del doc[key]
    path = tmp_path / "spline.json"
    path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "encode", str(path), "--out", str(tmp_path / "o.json"))
    assert code == 2 and stdout == ""
    assert err == f"error: bad spline document: spline document lacks '{key}'\n"
