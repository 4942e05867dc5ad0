"""Correctness gate of the spinrsp benchmark.

Every output is compared cell by cell with the reference output recorded
for the same job (``reference/<key>.csv.xz``), within 1e-9 scaled by
max(1, |reference|), the golden-fixture tolerance.  A job that failed when
the references were recorded has none; its output is held to invariants
only.  The invariants are checked on every output:

- the expected header and number of records;
- spin-sweep: per point sum_k p = 1 within 1e-9, 0 <= e <= 1, |<S>| <= N;
- wigner-map: the quadrature integral equals sqrt(4 pi / (N + 1)) within
  1e-6.
"""

from __future__ import annotations

import lzma
import math
from pathlib import Path

import numpy as np

from workloads import Job

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOLERANCE = 1e-9
WIGNER_INTEGRAL_TOLERANCE = 1e-6

HEADERS = {
    "spin-sweep": ("theta", "phi", "k", "p", "sx", "sy", "sz", "e"),
    "wigner-map": ("theta", "phi", "w"),
}


def reference_path(job: Job) -> Path:
    return REFERENCE_DIR / f"{job.key}.csv.xz"


def load_reference(job: Job) -> str | None:
    path = reference_path(job)
    if not path.is_file():
        return None
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        return fh.read()


def _parse(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    header = lines[0].split(",")
    table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, table.reshape(len(lines) - 1, len(header))


def _compare(table: np.ndarray, ref: np.ndarray) -> str | None:
    if table.shape != ref.shape:
        return f"shape {table.shape} differs from reference {ref.shape}"
    both_nan = np.isnan(table) & np.isnan(ref)
    diff = np.where(both_nan, 0.0, np.abs(table - ref))
    bad = ~(diff <= TOLERANCE * np.maximum(1.0, np.abs(np.nan_to_num(ref))))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        got, want = float(table[row, col]), float(ref[row, col])
        return (f"{int(bad.sum())} cells differ from reference, first at record "
                f"{row + 1} column {col + 1}: {got!r} vs {want!r}")
    return None


def _in_unit_interval(values: np.ndarray) -> bool:
    values = values[~np.isnan(values)]
    return bool(np.all((values >= -TOLERANCE) & (values <= 1.0 + TOLERANCE)))


def _invariants(job: Job, table: np.ndarray) -> str | None:
    n = job.n_atoms
    kind = job.subcommand
    if kind == "spin-sweep":
        p = table[:, 3].reshape(-1, n + 1)
        worst = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        if not worst <= TOLERANCE:
            return f"outcome probabilities of a point miss 1 by {worst!r}"
        if not _in_unit_interval(table[:, 7]):
            return "an error e lies outside [0, 1]"
        length = np.sqrt(np.sum(table[:, 4:7] ** 2, axis=1))
        if np.any(length[~np.isnan(length)] > n * (1.0 + TOLERANCE)):
            return f"a spin vector is longer than N = {n}"
    elif kind == "wigner-map":
        thetas = np.unique(table[:, 0])
        n_theta, n_phi = len(thetas), table.shape[0] // len(thetas)
        x, wx = np.polynomial.legendre.leggauss(n_theta)
        if not np.allclose(np.arccos(x)[::-1], thetas, rtol=0.0, atol=TOLERANCE):
            return "polar nodes are not the Gauss-Legendre nodes"
        w = table[:, 2].reshape(n_theta, n_phi)
        integral = float(np.sum(w * wx[::-1, None]) * (2.0 * math.pi / n_phi))
        expected = math.sqrt(4.0 * math.pi / (n + 1))
        if not abs(integral - expected) <= WIGNER_INTEGRAL_TOLERANCE:
            return f"Wigner integral {integral!r} differs from sqrt(4 pi/(N+1)) = {expected!r}"
    return None


def check(job: Job, text: str, reference: str | None) -> str | None:
    """None when the output is correct, else the reason it is not."""
    try:
        header, table = _parse(text)
    except (ValueError, IndexError) as exc:
        return f"output is not a numeric CSV table: {exc}"
    if tuple(header) != HEADERS[job.subcommand]:
        return f"header {header} is not {list(HEADERS[job.subcommand])}"
    if table.shape[0] != job.rows:
        return f"{table.shape[0]} records, expected {job.rows}"
    if reference is not None:
        reason = _compare(table, _parse(reference)[1])
        if reason is not None:
            return reason
    return _invariants(job, table)
