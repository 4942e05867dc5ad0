"""Workloads of the spinrsp benchmark: fixed lists of CLI jobs.

A job is one ``spinrsp`` CLI invocation, given as its argv without
``--out``.  The seed only draws the angles named below, each from a small
fixed set, so that every job any seed can produce has a reference output
recorded by ``record_references.py``.  Ensemble sizes, grid sizes and the
cache working sets never depend on the seed.  Why each workload exists is
recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what a successful run of it writes."""

    args: tuple[str, ...]
    n_atoms: int
    rows: int  # CSV data records a successful run writes
    points: int  # target directions the job evaluates

    @property
    def subcommand(self) -> str:
        return self.args[0]

    @property
    def key(self) -> str:
        """File-name-safe identifier of the job's inputs."""
        return "_".join(a.lstrip("-").replace(":", "") for a in self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Callable[[random.Random], list[Job]]  # the jobs one seed runs
    candidates: Callable[[], list[Job]]  # every job any seed can run


# slices-n200: nine polar rows at N = 200, one spin-sweep each.  Rows 0 and
# pi are fixed (pi exposes the known norm drift of the rotation closed form);
# interior row i sits at (i + d/4) pi/8 with d drawn from {-1, 0, 1}.
SLICE_N = 200
SLICE_PHI_NODES = 8
SLICE_ROWS = 8


def _slice_job(theta: str) -> Job:
    return Job(
        ("spin-sweep", "--n", str(SLICE_N), "--theta", theta,
         "--phi-nodes", str(SLICE_PHI_NODES)),
        n_atoms=SLICE_N,
        rows=SLICE_PHI_NODES * (SLICE_N + 1),
        points=SLICE_PHI_NODES,
    )


def _slice_theta(row: int, d: int) -> str:
    return f"pi:{(4 * row + d) / (4 * SLICE_ROWS)!r}"


def _slice_jobs(rng: random.Random) -> list[Job]:
    interior = [_slice_theta(i, rng.choice((-1, 0, 1))) for i in range(1, SLICE_ROWS)]
    return [_slice_job(t) for t in ("0", *interior, "pi:1")]


def _slice_candidates() -> list[Job]:
    interior = [_slice_theta(i, d) for i in range(1, SLICE_ROWS) for d in (-1, 0, 1)]
    return [_slice_job(t) for t in ("0", *interior, "pi:1")]


# wigner-n60: one 122 x 242 map at N = 60; theta and the outcome k in
# {N - 1, N} are drawn.
WIGNER_N = 60
WIGNER_THETAS = ("0.5", "0.6")
WIGNER_KS = (WIGNER_N - 1, WIGNER_N)


def _wigner_job(theta: str, k: int) -> Job:
    return Job(
        ("wigner-map", "--n", str(WIGNER_N), "--theta", theta, "--k", str(k)),
        n_atoms=WIGNER_N,
        rows=(2 * WIGNER_N + 2) * (4 * WIGNER_N + 2),
        points=1,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "slices-n200",
            _slice_jobs,
            _slice_candidates,
        ),
        Workload(
            "wigner-n60",
            lambda rng: [_wigner_job(rng.choice(WIGNER_THETAS), rng.choice(WIGNER_KS))],
            lambda: [_wigner_job(t, k) for t in WIGNER_THETAS for k in WIGNER_KS],
        ),
    )
}


def jobs_for(name: str, seed: int) -> list[Job]:
    """The jobs workload ``name`` runs for ``seed``, in order."""
    return WORKLOADS[name].jobs(random.Random(f"{name}:{seed}"))
