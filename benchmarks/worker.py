"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 benchmarks/worker.py SPEC.json

SPEC holds ``jobs`` (CLI argv lists, run in order through
``spinrsp.cli.main``), ``trace`` (install the boundary spans of
``tracing.py``), ``points`` (target directions, for per-point ratios),
``spans`` (where a traced run writes its spans) and ``result`` (where this
process writes its JSON result).  An empty job list only measures set-up:
the moment ``import spinrsp.cli`` has finished is reported as ``ready``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def run_job(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code and first stderr line of one CLI invocation."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a CLI process would die here with exit 1
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    lines = err.getvalue().splitlines()
    return code, lines[0] if lines else ""


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import spinrsp.cli as cli

    ready = time.monotonic()
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    jobs = []
    for index, argv in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.run_id = str(index)
            before = tracer.read_caches()
        start = time.monotonic()
        code, stderr = run_job(cli, argv)
        end = time.monotonic()
        if tracer is not None:
            tracer.add_cache_delta(before, tracer.read_caches())
        jobs.append({"argv": argv, "code": code, "stderr": stderr,
                     "start": start, "end": end})
    result = {
        "ready": ready,
        "jobs": jobs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spinrsp_file": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(spec["points"])
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
