"""Smoke tests of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_smoke(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "5", "--seconds", "0.5",
        "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@functools.lru_cache(maxsize=None)
def smoke_result(workload, trace):
    return last_json(run_smoke(workload, trace))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_reports_every_metric_with_its_unit(workload, trace, section):
    out = smoke_result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for v in out["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_per_layer_counts_repeat_exactly():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [n for n, u in units.items() if u in ("count", "flop", "MB")]
    first = smoke_result("freeknot_compress", 1)["metrics"]
    second = last_json(run_smoke("freeknot_compress", 1))["metrics"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_trace_reaches_the_studies_through_the_cli():
    m = {k: v["value"] for k, v in smoke_result("rate_studies", 1)["metrics"].items()}
    assert m["cli.main.calls"] == 5  # four studies and the audit
    for kind in ("sobolev", "analytic", "adaptive", "sawtooth"):
        assert m[f"analysis.study_{kind}.calls"] == 1
        assert m[f"analysis.study_{kind}.s"] > 0
    assert m["complexity.default_audit_sweep.calls"] == 1


def test_trace_leaves_out_probes_and_checks():
    # freeknot_compress evaluates only in its probe jobs and its checks
    m = {k: v["value"] for k, v in smoke_result("freeknot_compress", 1)["metrics"].items()}
    assert m["train.evaluate.calls"] == 0
    assert m["train.evaluate.points"] == 0
    assert m["encoders.encode_free_knot_spline.calls"] == 3


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = run_smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
