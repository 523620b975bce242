"""Record the study CSV digests that the rate_studies workload checks against.

Run from the repository root after a deliberate change to study output:

    python3 bench/record_digests.py

It runs each study once at the default and at the smoke schedules and
rewrites bench/csv_digests.json.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from run import add_source_path, pin_blas_threads


def main():
    pin_blas_threads()
    add_source_path(Path.cwd())
    import workloads

    out = {}
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=Path(__file__).parent))
    try:
        for mode, smoke in (("default", False), ("smoke", True)):
            out[mode] = {}
            for kind in workloads.STUDIES:
                path = work / f"{kind}.csv"
                code, _, _ = workloads.run_cli(workloads.study_argv(kind, smoke) + ["--csv", str(path)])
                if code != 0:
                    raise SystemExit(f"study {kind} exited {code}")
                out[mode][kind] = workloads.csv_digest(path)
    finally:
        shutil.rmtree(work)
    workloads.DIGESTS.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {workloads.DIGESTS}")


if __name__ == "__main__":
    main()
