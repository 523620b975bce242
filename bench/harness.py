"""Measurement loop, metrics and report of the ttfun benchmark.

Imported by run.py after it has fixed the BLAS thread count, so that numpy
starts with that setting.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

MIN_PASSES = 2
OUT_DIR = Path(__file__).with_name("out")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
    "eval_mpts_per_s.large": "Mpts/s",
    "eval_mpts_per_s.small": "Mpts/s",
    "scalar_eval_us.p50": "us",
    "scalar_eval_us.p90": "us",
}

_TIMED = {
    "grids": ["encode_points"],
    "basis": ["eval"],
    "train": [
        "evaluate", "leaf_values", "block_sum", "tt_round", "ranks",
        "to_json_dict", "from_json_dict",
    ],
    "encoders": ["encode_free_knot_spline"],
    "analysis": [
        "greedy_badic_knots", "lp_error",
        "study_sobolev", "study_analytic", "study_adaptive", "study_sawtooth",
    ],
    "interpolation": [
        "tensor_interpolate", "reinterpolate", "polynomial_interpolant_train",
        "chebyshev_truncate",
    ],
    "complexity": ["complexity", "default_audit_sweep"],
    "targets": ["sampler"],
}
PER_LAYER = {}
for _mod, _fns in _TIMED.items():
    for _fn in _fns:
        PER_LAYER[f"{_mod}.{_fn}.calls"] = "count"
        PER_LAYER[f"{_mod}.{_fn}.s"] = "s"
PER_LAYER.update({
    "grids.encode_points.mpts_per_s": "Mpts/s",
    "train.evaluate.points": "count",
    "train.evaluate.flops": "flop",
    "train.evaluate.digit_mb": "MB",
    "train.tt_round.out_max_bond": "count",
    "encoders.encode_free_knot_spline.cost_c": "count",
    "encoders.encode_free_knot_spline.cost_s": "count",
    "encoders.encode_free_knot_spline.max_bond": "count",
    "encoders.encode_free_knot_spline.mb_computed": "MB",
    "analysis.greedy_badic_knots.pieces": "count",
    "complexity.audit.bounds": "count",
    "complexity.audit.violations": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "env.calib_ms": "ms",
    "trace.overhead_frac": "1",
})
# per-layer metrics measured in time; every other one is a count that must
# repeat exactly from pass to pass
_TIMES = {name for name, unit in PER_LAYER.items() if unit in ("s", "Mpts/s")}


def calibrate_ms():
    """A fixed numpy-only kernel, timed between passes to expose host speed."""
    x = np.linspace(0.0, 1.0, 1 << 18)
    t0 = time.perf_counter()
    for _ in range(8):
        x = np.sqrt(x * x + 1.0) - 0.5
    return (time.perf_counter() - t0) * 1e3


def _paused(tracer):
    return tracer.pause() if tracer is not None else contextlib.nullcontext()


def run_pass(jobs, tracer):
    """Run every job once. Returns (job records, attempted, failed).

    Under a tracer, probe jobs and the checks a job hands back run with
    tracing paused, so the per-layer metrics count only the workload's jobs.
    """
    records, failed = [], 0
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        try:
            with _paused(tracer) if job.probe else contextlib.nullcontext():
                rec = job.run()
            check = rec.pop("check", None)
            if check is not None:
                with _paused(tracer):
                    check()
            records.append(dict(rec, job=job.name))
        except Exception:  # a failed job is counted and reported, the run goes on
            failed += 1
            print(f"job {job.name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
    return records, len(jobs), failed


def _repeats(passes, key):
    """Per train: every repeat of each timed evaluation, one row per repeat.

    Every evaluation (a large batch, a batch of 10^3 points, a scalar call)
    is repeated at many moments of the run; the throughput metrics and the
    scalar p50 keep each one's fastest repeat, which removes the bursts of
    host contention that otherwise decide short samples.
    """
    reps = {}
    for recs in passes:
        for r in recs:
            if key in r:
                reps.setdefault(r["train"], []).append(r[key])
    return {train: np.array(rows) for train, rows in reps.items()}


def _mpts_per_s(reps, points):
    """Throughput over trains from each batch's fastest repeat."""
    seconds = sum(rows.min(axis=0).sum() for rows in reps.values())
    return len(reps) * points / seconds / 1e6 if seconds else 0.0


def _scalar_p90(passes):
    """p90 of the individual scalar calls, per pass and train; the mean over
    trains, then the median over passes. Unlike the p50 it keeps every call,
    so a cost paid by only some calls moves it."""
    per_pass = []
    for recs in passes:
        calls = {}
        for r in recs:
            if "scalar_us" in r:
                calls.setdefault(r["train"], []).append(r["scalar_us"])
        if calls:
            per_pass.append(np.mean([np.percentile(np.concatenate(c), 90) for c in calls.values()]))
    return statistics.median(per_pass) if per_pass else 0.0


def end_to_end(passes, setup_s, ok_frac, large_n):
    lat = {train: rows.min(axis=0) for train, rows in _repeats(passes, "scalar_us").items()}
    # p50 over points of each point's fastest call: each train's own
    # percentile, averaged over trains (pooling trains of different speed
    # would put the median in the gap between them)
    p50 = np.mean([np.percentile(us, 50) for us in lat.values()] or [0.0])
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(r["s"] for r in recs) for recs in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok_frac,
        "eval_mpts_per_s.large": _mpts_per_s(_repeats(passes, "large_s"), large_n),
        "eval_mpts_per_s.small": _mpts_per_s(_repeats(passes, "small_s"), workloads.SMALL_BATCH),
        "scalar_eval_us.p50": float(p50),
        "scalar_eval_us.p90": float(_scalar_p90(passes)),
    }
    info = {
        "passes": len(passes),
        "scalar_calls": {t: rows.size for t, rows in _repeats(passes, "scalar_us").items()},
        "scalar_us_best_p50": {t: float(np.percentile(us, 50)) for t, us in lat.items()},
    }
    return values, info


def per_layer(tracer, traced_walls, untraced_walls, calib):
    """Per-layer metrics from the traced passes; counts must repeat exactly."""
    summaries = []
    for p in traced_walls:
        s = tracer.pass_summary(p)
        busy = s.get("grids.encode_points.s", 0.0)
        s["grids.encode_points.mpts_per_s"] = (
            s.get("grids.encode_points.points", 0) / busy / 1e6 if busy else 0.0
        )
        s["cli.main.self_s"] = s.get("cli.main.s", 0.0)
        summaries.append(s)
    values, repeat_ok = {}, True
    for name in PER_LAYER:
        per_pass = [s.get(name, 0) for s in summaries]
        if name in _TIMES:
            values[name] = statistics.median(per_pass)
        else:
            repeat_ok &= len(set(per_pass)) == 1
            values[name] = per_pass[0]
    values["env.calib_ms"] = statistics.median(calib)
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls.values()) / statistics.median(untraced_walls) - 1.0
    )
    return values, repeat_ok


def measure(args, import_s):
    """Set up, warm up, run passes for args.seconds; print the report."""
    if args.workload not in workloads.SETUPS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.SETUPS)}")
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _measure(args, import_s, workdir, tag)
    finally:
        shutil.rmtree(workdir)


def _measure(args, import_s, workdir, tag):
    t0 = time.perf_counter()
    wl = workloads.SETUPS[args.workload](args.seed, args.smoke, workdir)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, attempted, failed = run_pass(wl.jobs, None)
    warmup_s = time.perf_counter() - t0
    setup_s = import_s + build_s + warmup_s

    tracer = spans.Tracer() if args.trace else None
    passes, untraced_walls, traced_walls, calib = [], [], {}, []
    deadline = time.perf_counter() + args.seconds
    p = 0
    while p < MIN_PASSES or time.perf_counter() < deadline:
        calib.append(calibrate_ms())
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.pass_no = p
            tracer.install()
        t0 = time.perf_counter()
        try:
            recs, n, bad = run_pass(wl.jobs, tracer if traced else None)
        finally:
            if traced:
                tracer.restore()
        wall = time.perf_counter() - t0
        attempted, failed = attempted + n, failed + bad
        if traced:
            traced_walls[p] = wall
        else:
            untraced_walls.append(wall)
            passes.append(recs)
        p += 1

    ok_frac = (attempted - failed) / attempted
    info = {
        "setup": {"import_s": import_s, "build_s": build_s, "warmup_s": warmup_s},
        "pass_walls": untraced_walls,
    }
    if tracer is None:
        metrics, counts = end_to_end(passes, setup_s, ok_frac, wl.info["eval_sizes"]["large"])
        units = END_TO_END
        info.update(counts)
        correct = failed == 0
    else:
        metrics, repeat_ok = per_layer(tracer, traced_walls, untraced_walls, calib)
        units = PER_LAYER
        info.update(traced_passes=len(traced_walls), counts_repeat=repeat_ok)
        correct = failed == 0 and repeat_ok
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(tracer.span_records()))

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": _blas_name(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "calib_ms": calib,
    }
    detail = {
        "workload": args.workload, "env": env, "info": info, "workload_info": wl.info,
        "pass_jobs": [{r["job"]: r["s"] for r in recs} for recs in passes],
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(detail, indent=1, default=str))
    for name, val in metrics.items():
        print(f"{args.workload:18s} {name:46s} {val:14.6g} {units[name]}")
    print(json.dumps({"env": env, "info": info}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _blas_name():
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg['name']} {cfg['version']}"
    except (KeyError, TypeError):
        return "unknown"
