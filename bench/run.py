"""ttfun benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload eval_points --seed 1 --seconds 20 --trace 0

Run it from the repository root; the library is imported from ./src. The
process sets up the workload (imports, seeded inputs, trains, one warm-up
pass), then runs the workload's fixed job list pass after pass until
`--seconds` have elapsed, one caller in a closed loop. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it alternates untraced and
traced passes and reports the per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. `--smoke`
runs every workload at a tiny size. See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"


def pin_blas_threads():
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def add_source_path(root: Path):
    """Import ttfun from root/src, and from nowhere else."""
    if not (root / "src" / "ttfun" / "__init__.py").is_file():
        raise SystemExit(f"error: {root / 'src' / 'ttfun'} not found; run from the repository root")
    sys.path.insert(0, str(root / "src"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    pin_blas_threads()
    add_source_path(root)
    t0 = time.perf_counter()
    import harness  # numpy, scipy and every ttfun module

    import_s = time.perf_counter() - t0
    ttfun_dir = Path(sys.modules["ttfun"].__file__).resolve().parent
    if ttfun_dir != (root / "src" / "ttfun").resolve():
        raise SystemExit(f"error: ttfun imported from {ttfun_dir}, not ./src")
    return harness.measure(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
