import csv
import json

import numpy as np
import pytest

from ttfun.cli import main
from ttfun.grids import DomainError
from ttfun.train import MismatchError, load_json


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


def test_audit_instance_and_unknown(tmp_path, capsys):
    code, stdout, _ = run(capsys, "audit", "--instance", "fixed_knot", "--b", "3", "--d", "3", "--m", "0")
    assert code == 0 and "0 violations" in stdout
    code, _, err = run(capsys, "audit", "--instance", "bogus")
    assert code == 4 and err.startswith("error:")


def test_study_unknown_target(capsys):
    code, _, err = run(capsys, "study", "adaptive", "--target", "nope")
    assert code == 4 and err.startswith("error:")


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
