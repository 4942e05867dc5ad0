"""The benchmark's traced worker still yields every per-layer metric.

``benchmarks/worker.py`` runs in a child interpreter with tracing on, so
the tracer's wrappers never touch this test process.  Every per-layer
metric that ``BENCHMARK.json`` declares, except ``trace.overhead_s`` (which
``run.py`` derives from a traced and an untraced run), must come back as a
finite number: a metric that reads None, for example because a cache the
tracer reads has gone from the library, makes the benchmark's result line
unusable.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import spinrsp.cli as cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_worker_reports_every_declared_metric(tmp_path):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    jobs = [
        ["spin-sweep", "--n", "4", "--theta", "0.3", "--phi-nodes", "2",
         "--out", str(tmp_path / "sweep.csv")],
        ["wigner-map", "--n", "4", "--theta", "0.5", "--k", "3",
         "--out", str(tmp_path / "map.csv")],
    ]
    spec = {
        "jobs": jobs,
        "trace": True,
        "points": 3,
        "spans": str(tmp_path / "spans.tsv"),
        "result": str(tmp_path / "result.json"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "worker.py"), str(spec_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert [job["code"] for job in result["jobs"]] == [0, 0], result["jobs"]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer"]]
    names.remove("trace.overhead_s")
    layers = result["layers"]
    bad = {
        name: layers.get(name, "missing") for name in names
        if not isinstance(layers.get(name), (int, float))
        or not math.isfinite(layers[name])
    }
    assert not bad, bad
