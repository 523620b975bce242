"""The benchmark's three workloads: inputs, job lists and output checks.

Each `setup_*` function turns a seed into a `Workload`: a fixed list of jobs
plus the trains and reference values they use. A job runs library calls,
returns the seconds those calls took (and, for evaluation jobs, the samples
behind the throughput and latency metrics), then checks its outputs and
raises `CheckFailed` on a mismatch. Checks run outside the timed region; a
check that calls the library is returned as the record's `check` and run by
the harness with tracing paused.

Library functions are looked up on their modules at call time, so that a
traced run sees the wrappers that `spans.Tracer` installs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ttfun import analysis, cli, encoders, grids, targets, train

# the package's `complexity` attribute is the function, not the module
complexity = importlib.import_module("ttfun.complexity")

DIGESTS = Path(__file__).with_name("csv_digests.json")
SMALL_BATCH = 1000


class CheckFailed(Exception):
    """A job's output missed its correctness check."""


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    # a probe job only feeds the evaluation metrics of a workload that is
    # about other layers; traced passes leave it out of the per-layer metrics
    probe: bool = False


@dataclass
class Workload:
    jobs: list
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EvalSizes:
    """Per pass and train: `larges` jobs that each evaluate the train's batch
    of `large` points, and `chunks` jobs that each evaluate its batch of
    10^3 points and then its `points` scalar points one at a time."""

    large: int
    larges: int
    chunks: int
    points: int


# eval_points measures evaluation itself; the other two workloads carry a
# small probe on a train of their own so that every workload reports the
# evaluation metrics.
EVAL_SIZES = {
    "eval_points": EvalSizes(10**6, 1, 50, 20),
    "freeknot_compress": EvalSizes(2**17, 2, 20, 20),
    "rate_studies": EvalSizes(2**17, 2, 20, 20),
}
SMOKE_EVAL_SIZES = EvalSizes(10**4, 1, 4, 5)


def _check_close(got, want, rtol, what):
    scale = float(np.max(np.abs(want)))
    err = float(np.max(np.abs(np.asarray(got) - want)))
    if not err <= rtol * scale:
        raise CheckFailed(f"{what}: max error {err:.3e} exceeds {rtol:g} * {scale:.3e}")


def eval_jobs(label, tt, reference, rng, sizes: EvalSizes, probe=False):
    """Large-batch jobs and small-batch-and-scalar chunk jobs for one train.

    Every job evaluates the same seeded batches and points, so each is
    timed repeatedly, at different moments of the run; the benchmark keeps
    each one's fastest repeat (see harness.py). Batch results must match
    `reference` (an independent evaluator of the same function) to 1e-10
    relative; scalar results must match the batch evaluation of the same
    points to 1e-14 relative.
    """
    x_large = rng.random(sizes.large)
    ref_large = reference(x_large)
    x_small = rng.random(SMALL_BATCH)
    ref_small = reference(x_small)
    x_scalar = rng.random(sizes.points)
    batch_scalar = train.evaluate(tt, x_scalar)
    _check_close(batch_scalar, reference(x_scalar), 1e-10, f"{label} batch at scalar points")
    scalar_points = [float(x) for x in x_scalar]

    def large():
        t0 = time.perf_counter()
        vals = train.evaluate(tt, x_large)
        dt = time.perf_counter() - t0
        _check_close(vals, ref_large, 1e-10, f"{label} large batch")
        return {"s": dt, "large_s": np.array([dt]), "train": label}

    def chunk():
        t0 = time.perf_counter()
        vals = train.evaluate(tt, x_small)
        small_s = time.perf_counter() - t0
        _check_close(vals, ref_small, 1e-10, f"{label} small batch")
        svals = np.empty(len(scalar_points))
        lat_ns = np.empty(len(scalar_points))
        for k, x in enumerate(scalar_points):
            t0 = time.perf_counter_ns()
            svals[k] = train.evaluate(tt, x)
            lat_ns[k] = time.perf_counter_ns() - t0
        _check_close(svals, batch_scalar, 1e-14, f"{label} scalar vs batch")
        return {
            "s": small_s + float(lat_ns.sum()) / 1e9,
            "small_s": np.array([small_s]),
            "scalar_us": lat_ns / 1e3,
            "train": label,
        }

    larges = [Job(f"{label}.large{k}", large, probe) for k in range(sizes.larges)]
    chunks = [Job(f"{label}.chunk{c}", chunk, probe) for c in range(sizes.chunks)]
    return larges, chunks


def sqrt_base3_train():
    """The base-3 free-knot train of the eval_points workload, with its spline."""
    pp = analysis.greedy_badic_knots(targets.get_target("sqrt").sampler, 81, 2, 2.0, base=3)
    return train.tt_round(encoders.encode_free_knot_spline(pp), 1e-12), pp


def _interleaved(*groups):
    """One pass's job order: the groups spread evenly over the pass, so a
    slow host phase hits every group alike. The order is the same for every
    seed, so that no seed changes what runs before what."""
    keyed = [((i + 0.5) / len(g), n, job) for n, g in enumerate(groups) for i, job in enumerate(g)]
    return [job for *_, job in sorted(keyed, key=lambda t: t[:2])]


# -- eval_points ------------------------------------------------------------


def setup_eval_points(seed, smoke, workdir):
    rng = np.random.default_rng(seed)
    sizes = SMOKE_EVAL_SIZES if smoke else EVAL_SIZES["eval_points"]
    coeffs = rng.standard_normal(6)
    poly = encoders.encode_polynomial(coeffs, grids.Grid(2, 30))
    sqrt3, pp = sqrt_base3_train()
    poly_large, poly_chunks = eval_jobs(
        "poly_b2_d30", poly, lambda x: np.polynomial.polynomial.polyval(x, coeffs), rng, sizes
    )
    sqrt_large, sqrt_chunks = eval_jobs("sqrt_b3_d12", sqrt3, pp, rng, sizes)
    info = {
        "poly_coeffs": coeffs.tolist(),
        "bonds": {"poly_b2_d30": poly.bond_dims, "sqrt_b3_d12": sqrt3.bond_dims},
        "eval_sizes": sizes.__dict__,
    }
    jobs = _interleaved(poly_large, sqrt_large, poly_chunks, sqrt_chunks)
    return Workload(jobs, info)


# -- freeknot_compress --------------------------------------------------------


def compress_job(target, n_pieces, base, degree, rng, n_check):
    """greedy knots -> free-knot encode -> tt_round -> ranks -> complexity -> JSON."""
    x_check = rng.random(n_check)

    def run():
        t0 = time.perf_counter()
        f = targets.get_target(target).sampler
        pp = analysis.greedy_badic_knots(f, n_pieces, degree, 2.0, base=base)
        rounded = train.tt_round(encoders.encode_free_knot_spline(pp), 1e-12)
        train.ranks(rounded)
        complexity.complexity(rounded)
        back = train.from_json_dict(json.loads(json.dumps(train.to_json_dict(rounded))))
        dt = time.perf_counter() - t0

        def check():
            want = pp(x_check)
            got = train.evaluate(rounded, x_check)
            if not np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)):
                raise CheckFailed(f"{target} N={n_pieces}: rounded train misses the spline")
            same = (
                back.grid == rounded.grid
                and back.basis == rounded.basis
                and np.array_equal(back.leaf, rounded.leaf)
                and all(np.array_equal(a, b) for a, b in zip(back.cores, rounded.cores))
            )
            if not same:
                raise CheckFailed(f"{target} N={n_pieces}: JSON round trip is not bit-exact")

        return {"s": dt, "check": check}

    return Job(f"{target}.N{n_pieces}.b{base}.m{degree}", run)


# Exponents in this window give the same greedy depth for every N of the
# schedule (12, 14, 16, 18), so the work per pass does not change with the
# seed; across [0.5, 0.75] the N=512 rounding time varies threefold.
ALPHA_RANGE = (0.68, 0.71)


def setup_freeknot_compress(seed, smoke, workdir):
    rng = np.random.default_rng(seed)
    alpha = round(float(rng.uniform(*ALPHA_RANGE)), 6)
    schedule = (8, 16) if smoke else (64, 128, 256, 512)
    jobs = [compress_job(f"x_pow:{alpha!r}", n, 2, 1, rng, 1000) for n in schedule]
    jobs.append(compress_job("sqrt", 9 if smoke else 81, 3, 2, rng, 1000))
    sqrt3, pp = sqrt_base3_train()
    sizes = SMOKE_EVAL_SIZES if smoke else EVAL_SIZES["freeknot_compress"]
    probe_large, probe_chunks = eval_jobs("sqrt_b3_d12", sqrt3, pp, rng, sizes, probe=True)
    info = {"alpha": alpha, "schedule": schedule, "eval_sizes": sizes.__dict__}
    return Workload(_interleaved(jobs, probe_large, probe_chunks), info)


# -- rate_studies -------------------------------------------------------------

STUDIES = {
    "sobolev": ["study", "sobolev", "--target", "sin2pi", "--r", "4"],
    "analytic": ["study", "analytic", "--target", "inv_xplus2"],
    "adaptive": ["study", "adaptive", "--target", "x_pow:0.6", "--mbar", "1"],
    "sawtooth": ["study", "sawtooth", "--target", "sawtooth"],
}
SMOKE_SCHEDULES = {"sobolev": "3,4", "analytic": "9,16", "adaptive": "8,16", "sawtooth": "1,2,3"}
AUDIT_BOUNDS = 839


def study_argv(kind, smoke):
    argv = list(STUDIES[kind])
    if smoke:
        argv += ["--schedule", SMOKE_SCHEDULES[kind]]
    return argv


def csv_digest(path):
    """sha256 of a study CSV with its `seconds` column blanked."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("seconds")
    h = hashlib.sha256()
    for row in rows:
        row[col] = ""
        h.update((",".join(row) + "\n").encode())
    return h.hexdigest()


def run_cli(argv):
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, time.perf_counter() - t0, out.getvalue()


def study_job(kind, smoke, workdir, digest):
    path = Path(workdir) / f"study_{kind}.csv"
    argv = study_argv(kind, smoke) + ["--csv", str(path)]

    def run():
        code, dt, _ = run_cli(argv)
        if code != 0:
            raise CheckFailed(f"ttfun {' '.join(argv)} exited {code}")
        if csv_digest(path) != digest:
            raise CheckFailed(f"study {kind}: CSV differs from its recorded digest")
        return {"s": dt}

    return Job(f"study.{kind}", run)


def audit_job():
    def run():
        code, dt, out = run_cli(["audit"])
        found = re.search(r"audited (\d+) bounds, (\d+) violations", out)
        if code != 0 or not found or found.groups() != (str(AUDIT_BOUNDS), "0"):
            raise CheckFailed(f"audit: exit {code}, {out.strip().splitlines()[-1:]}")
        return {"s": dt}

    return Job("audit", run)


def setup_rate_studies(seed, smoke, workdir):
    rng = np.random.default_rng(seed)
    digests = json.loads(DIGESTS.read_text())["smoke" if smoke else "default"]
    jobs = [study_job(kind, smoke, workdir, digests[kind]) for kind in STUDIES]
    jobs.append(audit_job())
    # probe: the sawtooth study's deepest train against its closed form
    saw = encoders.encode_sawtooth(grids.Grid(2, 10), 1)
    sizes = SMOKE_EVAL_SIZES if smoke else EVAL_SIZES["rate_studies"]
    probe_large, probe_chunks = eval_jobs(
        "sawtooth_d10", saw, encoders.sawtooth_function(10), rng, sizes, probe=True
    )
    info = {"studies": {k: study_argv(k, smoke) for k in STUDIES}, "eval_sizes": sizes.__dict__}
    return Workload(_interleaved(jobs, probe_large, probe_chunks), info)


SETUPS = {
    "eval_points": setup_eval_points,
    "freeknot_compress": setup_freeknot_compress,
    "rate_studies": setup_rate_studies,
}
