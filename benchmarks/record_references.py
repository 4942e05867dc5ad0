"""Record the reference output of every job any benchmark seed can run.

Run from the repository root, at the commit whose outputs become the
reference:

    python3 benchmarks/record_references.py

Each job runs through ``spinrsp.cli.main`` and its CSV output is stored
xz-compressed as ``benchmarks/reference/<job key>.csv.xz``.  A job that
fails gets no reference (any stale one is removed); the gate then checks
its outputs by invariants only.
"""

from __future__ import annotations

import lzma
import sys
from pathlib import Path

from gate import REFERENCE_DIR, reference_path
from worker import run_job
from workloads import WORKLOADS


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "spinrsp" / "cli.py").is_file():
        print("error: run from the root of a spinrsp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spinrsp.cli as cli

    REFERENCE_DIR.mkdir(exist_ok=True)
    work = Path(__file__).resolve().parent / ".work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out.csv"
    for workload in WORKLOADS.values():
        for job in workload.candidates():
            out.unlink(missing_ok=True)
            code, stderr = run_job(cli, [*job.args, "--out", str(out)])
            path = reference_path(job)
            if code != 0:
                path.unlink(missing_ok=True)
                print(f"{workload.name}: {job.key}: exit {code}, no reference: {stderr}")
                continue
            with lzma.open(path, "wb", preset=9) as dst:
                dst.write(out.read_bytes())
            print(f"{workload.name}: {job.key}: {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
