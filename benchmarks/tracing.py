"""Spans around spinrsp's layer boundaries, for the benchmark's traced run.

``Tracer.install`` wraps every public function (no leading underscore) of
the layer modules, the ``EnsembleState`` validation, and ``cli.execute`` and
``cli.write_output``.  Each wrapper is set on the attribute of the defining
module and of every module that imported the same function object, so
calls such as ``cli.run_protocol`` and ``protocol.run_protocol`` both go
through it.  Nothing inside the library changes.

A span is (id, name, start, end, thread id, parent id, run id, info).  Its
parent is the innermost open span on its thread; the outermost span of a
pool thread has the enclosing ``cli.execute`` span as parent.  Spans stay
in memory until ``write_spans``.  Self time is a span's duration minus the
union of its children's intervals.

Per-layer metrics (``summarize``):

- ``<layer>.self_s`` sums the self time of the layer's spans on all
  threads; time a pool thread waits for the interpreter lock inside a span
  counts, so the sum can exceed the wall time;
- ``collective_spin.elements`` counts Fock elements of the outermost
  rotation call only: (N+1)^2 per matrix, N+1 per column;
- ``cli.self_s`` is ``execute`` minus its children (resolve, row building,
  render); ``cli.write.*`` covers data files, not manifests;
- ``cli.workers`` is the largest number of pool threads seen in one job, and
  ``cli.pool.busy_ratio`` their span time over workers x ``execute`` time;
- cache ``misses`` and ``hit_ratio`` are None when the cache is gone; a
  ratio with a zero base reads 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("collective_spin", "squeezing", "protocol", "wigner")

# lru_caches read from outside after each job: metric prefix -> (module, attr).
CACHES = {
    "squeezing.eigensystem": ("spinrsp.squeezing", "_eigensystem"),
    "wigner.3j_cache": ("spinrsp.wigner", "_wigner_3j_doubled"),
}

_MATRICES = ("collective_spin.rotation_matrix", "collective_spin.y_rotation_matrix")
_COLUMNS = (
    "collective_spin.rotation_column",
    "collective_spin.y_rotation_column",
    "collective_spin.rotated_fock_state",
)
_ERROR = ("protocol.average_error", "protocol.postselected_error", "protocol.error_k")


def _matrix_elements(args, kwargs, result):
    return (args[0] + 1) ** 2


def _column_elements(args, kwargs, result):
    return args[0] + 1


def _branches(args, kwargs, result):
    return len(result), sum(1 for outcome in result if outcome.defined)


def _written(args, kwargs, result):
    text, path = args[0], args[1]
    if path.endswith(".manifest.json"):
        return None  # manifests carry a wall time, so their size varies
    rows = text.count("\n") - 1 if path.endswith(".csv") else 0
    return len(text.encode("utf-8")), rows


_INFO = {
    **{name: _matrix_elements for name in _MATRICES},
    **{name: _column_elements for name in _COLUMNS},
    "protocol.run_protocol": _branches,
    "cli.write_output": _written,
}


class Tracer:
    """Collects spans from wrapped library functions and cache counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self._root = None  # id of the open cli.execute span
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._cache_totals = {name: [0, 0] for name in CACHES}

    def install(self) -> None:
        modules = [importlib.import_module(f"spinrsp.{m}") for m in (*LAYERS, "cli")]
        targets = []
        for module in modules[:-1]:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    targets.append((f"{layer}.{attr}", attr, fn))
        cli = modules[-1]
        for attr in ("execute", "write_output"):
            targets.append((f"cli.{attr}", attr, getattr(cli, attr)))
        for name, attr, fn in targets:
            wrapped = self._wrap(name, fn)
            for module in modules:
                if getattr(module, attr, None) is fn:
                    setattr(module, attr, wrapped)
        state = modules[0].EnsembleState
        state.__post_init__ = self._wrap("collective_spin.EnsembleState", state.__post_init__)

    def _wrap(self, name, fn):
        info_of = _INFO.get(name)
        is_root = name == "cli.execute"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            if is_root:
                tracer._root = sid
            result = info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                if info_of is not None and result is not None:
                    info = info_of(args, kwargs, result)
                tracer.spans.append(
                    (sid, name, start, end, threading.get_ident(), parent,
                     tracer.run_id, info)
                )
            return result

        return traced

    # --- cache counters, read from outside the library ---------------------

    @staticmethod
    def read_caches() -> dict:
        """(hits, misses) of each cache, or None when it no longer exists."""
        counters = {}
        for name, (module_name, attr) in CACHES.items():
            fn = getattr(importlib.import_module(module_name), attr, None)
            info = getattr(fn, "cache_info", None)
            counters[name] = None if info is None else tuple(info()[:2])
        return counters

    def add_cache_delta(self, before: dict, after: dict) -> None:
        for name, totals in self._cache_totals.items():
            if totals is None or before[name] is None or after[name] is None:
                self._cache_totals[name] = None
                continue
            totals[0] += after[name][0] - before[name][0]
            totals[1] += after[name][1] - before[name][1]

    # --- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tthread\tparent\trun\tinfo\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")

    def summary(self, points: int) -> dict:
        """Per-layer metric values of everything traced so far."""
        return summarize(self.spans, self._cache_totals, points)


def _self_times(spans) -> dict:
    children = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            children[span[5]].append((span[2], span[3]))
    out = {}
    for sid, _name, start, end, *_rest in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans, cache_totals: dict, points: int) -> dict:
    self_s = _self_times(spans)
    by_id = {span[0]: span for span in spans}
    calls = defaultdict(int)
    name_self = defaultdict(float)
    layer_self = defaultdict(float)
    elements = branches = defined = write_bytes = rows = 0
    rotations = set(_MATRICES + _COLUMNS)
    main = threading.main_thread().ident
    pool_busy = defaultdict(float)
    pool_threads = defaultdict(set)
    for span in spans:
        sid, name, start, end, tid, parent, _run, info = span
        calls[name] += 1
        name_self[name] += self_s[sid]
        layer_self[name.split(".", 1)[0]] += self_s[sid]
        if name in rotations and info is not None:
            up = by_id.get(parent)
            while up is not None and up[1] not in rotations:
                up = by_id.get(up[5])
            if up is None:  # only the outermost rotation call counts
                elements += info
        elif name == "protocol.run_protocol" and info is not None:
            branches += info[0]
            defined += info[1]
        elif name == "cli.write_output" and info is not None:
            write_bytes += info[0]
            rows += info[1]
        if tid != main and parent in by_id and by_id[parent][1] == "cli.execute":
            pool_busy[parent] += end - start
            pool_threads[parent].add(tid)
    capacity = sum(
        len(pool_threads[sid]) * (by_id[sid][3] - by_id[sid][2]) for sid in pool_threads
    )
    metrics = {
        "collective_spin.self_s": layer_self["collective_spin"],
        "collective_spin.elements": elements,
        "collective_spin.rotation_matrix.calls": calls["collective_spin.rotation_matrix"],
        "collective_spin.rotation_column.calls": calls["collective_spin.rotation_column"],
        "collective_spin.states": calls["collective_spin.EnsembleState"],
        "collective_spin.spin_expectations.calls": calls["collective_spin.spin_expectations"],
        "protocol.self_s": layer_self["protocol"],
        "protocol.run_protocol.calls": calls["protocol.run_protocol"],
        "protocol.run_protocol.self_s": name_self["protocol.run_protocol"],
        "protocol.run_protocol.per_point": _ratio(calls["protocol.run_protocol"], points),
        "protocol.branches": branches,
        "protocol.defined_ratio": _ratio(defined, branches),
        "protocol.ideal_outcome.calls": calls["protocol.ideal_outcome"],
        "protocol.ideal_outcome.self_s": name_self["protocol.ideal_outcome"],
        "protocol.error.self_s": sum(name_self[n] for n in _ERROR),
        "squeezing.self_s": layer_self["squeezing"],
        "squeezing.find_optimal_time.calls": calls["squeezing.find_optimal_time"],
        "wigner.self_s": layer_self["wigner"],
        "wigner.multipole.self_s": name_self["wigner.multipole_decomposition"],
        "wigner.field.self_s": name_self["wigner.wigner_values"],
        "cli.self_s": name_self["cli.execute"],
        "cli.write.self_s": name_self["cli.write_output"],
        "cli.write.bytes": write_bytes,
        "cli.rows": rows,
        "cli.workers": max((len(t) for t in pool_threads.values()), default=0),
        "cli.pool.busy_ratio": _ratio(sum(pool_busy.values()), capacity),
    }
    for prefix, totals in cache_totals.items():
        if totals is None:
            metrics[f"{prefix}.misses"] = None
            metrics[f"{prefix}.hit_ratio"] = None
        else:
            metrics[f"{prefix}.misses"] = totals[1]
            metrics[f"{prefix}.hit_ratio"] = _ratio(totals[0], totals[0] + totals[1])
    return metrics


def median_of(samples: list[dict]) -> dict:
    """Per-metric median over several traced repetitions (None stays None)."""
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        out[name] = None if any(v is None for v in values) else statistics.median(values)
    return out
