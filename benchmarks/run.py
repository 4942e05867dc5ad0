"""spinrsp benchmark: CLI workloads end to end, and a traced run per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The workloads are defined in ``workloads.py``.  A repetition of a workload
is one fresh interpreter (``worker.py``) that imports ``spinrsp.cli`` and
runs the workload's jobs in order through ``spinrsp.cli.main``: CLI users
pay cold caches on every invocation, so repetitions share nothing.
Repetitions start while the next one is expected to end less than half a
repetition past ``--seconds`` from the run's start (set-up probes
included), at least one (two when traced), and every metric is a median
over them.  Program settings stay at their defaults:
``SPINRSP_WORKERS`` is removed from the children's environment, unless
``os.cpu_count()`` exceeds the CPUs this process may run on, in which case
it is set to that number.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``wall_s``: first job start to last job end, import excluded;
- ``rows_per_s``: CSV records of correct outputs per second of ``wall_s``;
- ``setup_s``: interpreter start plus ``import spinrsp.cli``, sampled by
  three empty repetitions and by every timed one;
- ``ok_ratio``: jobs that exited 0 with a correct output, over jobs run
  (one minus the failure ratio, which would read 0 and so is not a metric);
- ``peak_rss_mb``: the repetition process's ``ru_maxrss``.

``--trace 1`` alternates untraced and traced repetitions.  The traced ones
wrap the library's layer boundaries (``tracing.py``) and give the per-layer
metrics; ``trace.overhead_s`` is the traced minus the untraced ``wall_s``.

Every output goes through the correctness gate (``gate.py``).  A job fails
if it exits non-zero or its output fails the gate; failed jobs are counted,
never dropped, and their argv, exit code and first stderr line are printed
and stored.  ``correct`` is false when an output fails the gate or a job
with a reference output fails.  Outputs, spans and a results file with the
environment record go to ``benchmarks/.work/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--workload all`` prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from gate import check, load_reference
from tracing import median_of
from workloads import WORKLOADS, Job, jobs_for

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORK = HERE / ".work"
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a result; nothing is printed as one."""


@dataclass
class Repetition:
    traced: bool
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    rows: int = 0
    failures: list = field(default_factory=list)
    incorrect: int = 0
    layers: dict | None = None


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("SPINRSP_WORKERS", None)
    nproc = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > nproc:
        env["SPINRSP_WORKERS"] = str(nproc)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(env: dict) -> dict:
    workers = env.get("SPINRSP_WORKERS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "SPINRSP_WORKERS": workers,
        "effective_workers": int(workers) if workers else (os.cpu_count() or 1),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "cpu_model": _cpu_model(),
    }


def _spawn(root: Path, env: dict, spec: dict, workdir: Path, timeout: float) -> dict | None:
    """Run worker.py on ``spec``; its result, or None if it timed out."""
    spec_path = workdir / "spec.json"
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    spec = {**spec, "result": str(result_path.relative_to(root))}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(spec_path)],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not result_path.is_file():
        lines = proc.stderr.strip().splitlines() or ["(no stderr)"]
        raise BenchmarkError(f"worker exited {proc.returncode}: {lines[-1]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["spinrsp_file"]).resolve().is_relative_to(root / "src"):
        raise BenchmarkError(f"imported spinrsp from {result['spinrsp_file']}, not src/")
    result["setup_s"] = result["ready"] - spawned
    return result


class WorkloadRun:
    """Repetitions of one workload at one seed."""

    def __init__(self, name: str, seed: int, root: Path):
        self.name = name
        self.root = root
        self.jobs: list[Job] = jobs_for(name, seed)
        self.references = [load_reference(job) for job in self.jobs]
        self.env = _child_env(root)
        self.workdir = WORK / name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.outputs = [self.workdir / f"job-{i}.csv" for i in range(len(self.jobs))]
        self.started = time.monotonic()

    def _timeout(self) -> float:
        return max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))

    def setup_probe(self) -> float:
        spec = {"jobs": [], "trace": False, "points": 0, "spans": ""}
        result = _spawn(self.root, self.env, spec, self.workdir, self._timeout())
        if result is None:
            raise BenchmarkError("set-up probe timed out")
        return result["setup_s"]

    def repetition(self, traced: bool) -> Repetition:
        for out in self.outputs:
            out.unlink(missing_ok=True)
        spec = {
            "jobs": [[*job.args, "--out", str(out.relative_to(self.root))]
                     for job, out in zip(self.jobs, self.outputs)],
            "trace": traced,
            "points": sum(job.points for job in self.jobs),
            "spans": str((self.workdir / "spans.tsv").relative_to(self.root)),
        }
        result = _spawn(self.root, self.env, spec, self.workdir, self._timeout())
        if result is None:
            raise BenchmarkError(f"a repetition did not end within {RUN_LIMIT_S} s")
        done = result["jobs"]
        rep = Repetition(
            traced=traced,
            setup_s=result["setup_s"],
            wall_s=done[-1]["end"] - done[0]["start"],
            peak_rss_mb=result["maxrss_kb"] / 1024.0,
            layers=result.get("layers"),
        )
        for job, out, ref, record in zip(self.jobs, self.outputs, self.references, done):
            reason = None
            if record["code"] == 0:
                if out.is_file():
                    reason = check(job, out.read_text(encoding="utf-8"), ref)
                else:
                    reason = "exited 0 without writing its output"
                if reason is None:
                    rep.rows += job.rows
                    continue
            if reason is not None or ref is not None:
                rep.incorrect += 1
            rep.failures.append({"argv": record["argv"], "exit_code": record["code"],
                                 "stderr": record["stderr"], "check": reason})
        return rep


def measure(name: str, seed: int, seconds: int, trace: bool, root: Path,
            declared: dict) -> dict:
    run = WorkloadRun(name, seed, root)
    run.setup_probe()  # first import after checkout compiles bytecode
    setup = [] if trace else [run.setup_probe() for _ in range(SETUP_PROBES)]
    reps: list[Repetition] = []
    spent: list[float] = []  # seconds each repetition took, set-up included
    while True:
        began = time.monotonic()
        reps.append(run.repetition(traced=trace and len(reps) % 2 == 1))
        spent.append(time.monotonic() - began)
        # Start another repetition only if it would likely end less than
        # half a repetition past the window, so that a run lasts about
        # --seconds whatever the length of a repetition.
        elapsed = time.monotonic() - run.started
        if elapsed + median(spent) / 2 > seconds and (not trace or len(reps) >= 2):
            break
    plain = [r for r in reps if not r.traced]
    attempted = len(reps) * len(run.jobs)
    failed = sum(len(r.failures) for r in reps)
    if trace:
        traced = [r for r in reps if r.traced]
        values = median_of([r.layers for r in traced])
        values["trace.overhead_s"] = (
            median([r.wall_s for r in traced]) - median([r.wall_s for r in plain])
        )
    else:
        setup += [r.setup_s for r in plain]
        values = {
            "wall_s": median([r.wall_s for r in plain]),
            "rows_per_s": median([r.rows / r.wall_s for r in plain]),
            "setup_s": median(setup),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": median([r.peak_rss_mb for r in plain]),
        }
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in declared.items()}
    failures = [f for r in reps for f in r.failures]
    summary = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "jobs": [list(job.args) for job in run.jobs],
        "repetitions": len(reps),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "correct": not any(r.incorrect for r in reps),
        "failures": failures,
        "metrics": metrics,
        "repetition_detail": [
            {k: v for k, v in vars(r).items() if k not in ("failures", "layers")}
            for r in reps
        ],
        "environment": environment(run.env),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    _report(summary, path.relative_to(root))
    return summary


def _report(summary: dict, path: Path) -> None:
    print(f"{summary['workload']} (seed {summary['seed']}): "
          f"{summary['repetitions']} repetitions, {summary['attempted']} jobs, "
          f"{summary['failed']} failed, fail_ratio {summary['fail_ratio']:.4f}")
    seen = {}
    for f in summary["failures"]:
        key = (" ".join(f["argv"]), f["exit_code"], f["stderr"], f["check"])
        seen[key] = seen.get(key, 0) + 1
    for (argv, code, stderr, reason), count in seen.items():
        detail = reason if reason is not None else stderr
        print(f"  FAILED x{count}: exit {code}: {argv}: {detail}")
    for name, metric in summary["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"  results: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "spinrsp" / "cli.py").is_file():
        print("error: src/spinrsp not found; run from the root of a spinrsp "
              "checkout", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in config[kind]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [measure(name, args.seed, args.seconds, bool(args.trace), root,
                             declared) for name in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{m}": v for s in summaries
                   for m, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
