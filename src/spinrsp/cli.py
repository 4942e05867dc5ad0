"""Command-line driver for the remote-state-preparation simulations.

Eight subcommands cover the standard experiments:

- ``optimal-time``: best common squeezing time and fidelity for N atoms.
- ``squeeze``: evolved 2A2S resource state, its EPR fidelity and variances.
- ``protocol``: every measurement branch at one target direction.
- ``prob-dist``: outcome probabilities P_k over a polar-angle grid.
- ``spin-sweep``: Bob's conditional spin averages over a (theta, phi) grid.
- ``wigner-map``: Wigner function of one conditional state on the sphere.
- ``error-sweep``: protocol error over a grid, or versus ensemble size.
- ``fluctuation``: spin averages under Gaussian atom-number fluctuations.

Every run writes one CSV or JSON output (deterministic bytes for a given
configuration) plus a ``<out>.manifest.json`` sidecar echoing the resolved
configuration, library version, wall time, and output checksums.  Flags can
also be supplied through ``--config FILE`` in a flat ``key=value`` format;
explicit flags win.  Angles accept plain radians or multiples of pi with a
``pi:`` prefix (``--theta pi:0.5``).  Exit codes: 0 success, 2 usage
error, 3 I/O error, 4 numerical/domain failure.

Each subcommand's parameters form one table of :class:`Param` entries.  The
table builds the subcommand's options and help, names its config-file keys,
parses and checks their values, and gives the manifest its echo.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .collective_spin import RotationSpec
from .errors import DomainError, SpinRspError
from .protocol import (
    FluctuationSpec,
    average_error,
    branch_state,
    branch_statistics,
    fluctuating_spin_averages,
    outcome_probabilities,
    postselected_error,
)
from .squeezing import (
    epr_minus,
    fidelity,
    find_optimal_time,
    pair_variances,
    squeezing_run,
)
from .wigner import wigner_map

__all__ = ["ExperimentConfig", "parse_config", "execute", "main"]


class UsageError(Exception):
    """Bad command line or config file; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: the subcommand and its typed parameters, keyed
    by flag name with underscores (``out`` and ``format`` included)."""

    subcommand: str
    params: Mapping[str, object]

    @property
    def output_path(self) -> str:
        return self.params["out"]

    @property
    def fmt(self) -> str:
        return self.params["format"]


# --- value parsing --------------------------------------------------------


def _finite(value: float, text: str, name: str) -> float:
    if not math.isfinite(value):
        raise UsageError(f"{name}: expected a finite number, got {text!r}")
    return value


def _parse_angle(text: str, name: str) -> float:
    raw = text.strip()
    scale = 1.0
    if raw.startswith("pi:"):
        raw, scale = raw[3:], math.pi
    try:
        value = float(raw) * scale
    except ValueError:
        raise UsageError(f"{name}: expected a number or pi:<number>, got {text!r}")
    return _finite(value, text, name)


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text.strip(), 10)
    except ValueError:
        raise UsageError(f"{name}: expected an integer, got {text!r}")


def _parse_float(text: str, name: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise UsageError(f"{name}: expected a number, got {text!r}")
    return _finite(value, text, name)


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise UsageError(f"{name}: expected a comma-separated integer list")
    return tuple(_parse_int(part, name) for part in items)


def _parse_rule(text: str, name: str) -> str | int:
    raw = text.strip()
    if raw in ("highest", "lowest"):
        return raw
    try:
        value = int(raw, 10)
    except ValueError:
        raise UsageError(
            f"{name}: expected 'highest', 'lowest', or an integer, got {text!r}"
        )
    if value < 0:
        raise UsageError(f"{name}: fixed outcome must be >= 0, got {value}")
    return value


def _parse_choice(*options: str) -> Callable[[str, str], str]:
    def parse(text: str, name: str) -> str:
        if text.strip() not in options:
            raise UsageError(
                f"{name}: expected {' or '.join(options)}, got {text.strip()!r}"
            )
        return text.strip()

    return parse


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(
                    f"{path}:{lineno}: expected key=value, got {stripped!r}"
                )
            key, value = stripped.split("=", 1)
            values[key.strip()] = value.strip()
    return values


# --- parameter tables -----------------------------------------------------

_REQUIRED = object()


class Param(NamedTuple):
    """One parameter: flag ``--<key>`` and config-file key ``<key>``.

    ``default`` is CLI text (parsed like a given value, and shown in the
    help), None for unset, ``_REQUIRED``, or a function of the values
    resolved before this entry that returns a typed value or ``_REQUIRED``
    (its help text says what it computes).  ``check`` returns what is
    wrong with a value, or None.
    """

    key: str
    parse: Callable[[str, str], object]
    default: object
    help: str
    check: Callable[[object], str | None] | None = None


# The largest N whose (N+1) x (N+1) complex128 matrix numpy can address.
_MAX_ATOMS = math.isqrt(np.iinfo(np.intp).max // 16) - 1


def _addressable(n: float) -> str | None:
    return None if n <= _MAX_ATOMS else (
        f"expected at most {_MAX_ATOMS} atoms, whose (N+1) x (N+1) complex "
        f"matrix numpy can address; got {n}")


def _atom_count(n: int) -> str | None:
    return f"need at least one atom, got {n}" if n < 1 else _addressable(n)


def _non_negative(x: float) -> str | None:
    return None if x >= 0 else f"expected >= 0, got {x}"


def _positive(x: float) -> str | None:
    return None if x > 0 else f"expected > 0, got {x}"


def _optimal_tau(n: int) -> float:
    """Default squeezing time: the EPR-fidelity optimum for N atoms."""
    return float(find_optimal_time(n)[0])


_N = Param("n", _parse_int, _REQUIRED, "number of atoms per ensemble",
           _atom_count)
_TAU = Param("tau", _parse_float, lambda v: _optimal_tau(v["n"]),
             "squeezing time (default: optimal time for N)", _non_negative)
_THETA = Param("theta", _parse_angle, _REQUIRED,
               "target polar angle (radians or pi:<x>)")
_PHI = Param("phi", _parse_angle, "0", "target azimuth (radians or pi:<x>)")
_THETA_PIN = Param("theta", _parse_angle, None,
                   "pin the polar angle instead of sweeping")
_PHI_PIN = Param("phi", _parse_angle, None, "pin the azimuth instead of sweeping")
_THETA_NODES = Param("theta-nodes", _parse_int, "61", "polar grid size",
                     lambda n: None if n >= 2 else f"need at least 2 nodes, got {n}")
_PHI_NODES = _THETA_NODES._replace(key="phi-nodes", help="azimuthal grid size")


class _Command(NamedTuple):
    help: str
    params: tuple[Param, ...]
    run: Callable[[Mapping[str, object]], tuple[str, dict]]


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, help: str, *params: Param, formats=("csv", "json")):
    """Register a runner and its table; ``--out`` and ``--format`` (first
    format the default) close every table."""
    out = Param("out", lambda text, _name: text, _REQUIRED, "output file path")
    fmt = Param("format", _parse_choice(*formats), formats[0],
                "output format: " + " or ".join(formats))

    def register(run):
        _COMMANDS[name] = _Command(help, (*params, out, fmt), run)
        return run

    return register


def _help(p: Param) -> str:
    if p.default is _REQUIRED:
        text = f"{p.help} (required)"
    elif isinstance(p.default, str):
        text = f"{p.help} (default {p.default})"
    else:
        text = p.help
    return text.replace("%", "%%")


def _resolve(ns: argparse.Namespace) -> ExperimentConfig:
    """Merge flags over config-file values through the subcommand's table."""
    table = _COMMANDS[ns.subcommand].params
    file_values = _load_config_file(ns.config) if ns.config else {}
    unknown = set(file_values) - {p.key for p in table}
    if unknown:
        raise UsageError(
            "config keys not accepted by this subcommand: "
            + ", ".join(sorted(unknown))
        )
    values: dict[str, object] = {}
    for p in table:
        dest = p.key.replace("-", "_")
        name, text = f"--{p.key}", getattr(ns, dest)
        if text is None and p.key in file_values:
            name, text = f"config key {p.key!r}", file_values[p.key]
        if text is None:
            text = p.default(values) if callable(p.default) else p.default
            if text is _REQUIRED:
                raise UsageError(f"missing required field: --{p.key}")
        value = p.parse(text, name) if isinstance(text, str) else text
        complaint = None if value is None or p.check is None else p.check(value)
        if complaint:
            raise UsageError(f"{name}: {complaint}")
        values[dest] = value
    return ExperimentConfig(ns.subcommand, values)


# --- serialization --------------------------------------------------------


def _json_ready(value):
    """Round floats to 12 significant digits; map undefined cells to null."""
    if value is None:
        return None
    if isinstance(value, (bool, str, int, np.integer)):
        return int(value) if isinstance(value, np.integer) else value
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return None if math.isnan(value) else float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_json_ready(v) for v in value]
    return value


def _json_text(payload: Mapping[str, object]) -> str:
    return json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n"


def _render(header: Sequence[str], lines: Sequence[str], fmt: str) -> str:
    """Output text from CSV record lines, whose cells read ``f"{x:.12g}"``.

    JSON carries the same records: integers in the ``n`` and ``k`` columns,
    the 12-digit floats elsewhere, and nan as null.
    """
    if not lines:
        raise DomainError("no records to write")
    if fmt == "csv":
        return ",".join(header) + "\n" + "\n".join(lines) + "\n"
    kinds = [int if name in ("n", "k") else float for name in header]
    rows = [[kind(c) for kind, c in zip(kinds, line.split(","))] for line in lines]
    payload = {"header": list(header), "rows": _json_ready(rows)}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_line(row: Sequence) -> str:
    return ",".join(f"{cell:.12g}" for cell in row)


def write_output(text: str, path: str) -> dict[str, str]:
    """Write one output file; on failure remove the partial file."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except BaseException:
        with suppress(OSError):
            os.unlink(path)
        raise
    return {path: hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _thetas(p: Mapping[str, object]) -> list[float]:
    """The pinned polar angle, or the grid of ``theta_nodes`` over [0, pi]."""
    if p.get("theta") is not None:
        return [p["theta"]]
    return list(np.linspace(0.0, math.pi, p["theta_nodes"]))


def _phis(p: Mapping[str, object]) -> list[float]:
    """The pinned azimuth, or the grid of ``phi_nodes`` over [0, 2 pi)."""
    if p["phi"] is not None:
        return [p["phi"]]
    nodes = p["phi_nodes"]
    return list(np.arange(nodes) * (2.0 * math.pi / nodes))


# --- subcommand runners ---------------------------------------------------
#
# A runner takes the resolved parameters and returns the output text plus
# the values its manifest records beyond them.

_BRANCH_HEADER = ("theta", "phi", "k", "p", "sx", "sy", "sz", "e")


def _check_outcome(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise UsageError(f"--k: expected an outcome in [0, {n}], got {k}")


def _branch_columns(resource, theta: float, phis: Sequence[float], k_sel):
    """The branches at one polar angle as columns: (k, p, sz, e), shared by
    every phi, and one (phi, sx, sy) per phi.

    Alice measures behind U(theta, pi - phi), so phi reaches Bob only as the
    z-rotation exp(-i S^z phi/2) of his conditional state: p, e and <S^z>
    are those at phi = 0, and (<S^x>, <S^y>) turn by phi.  The protocol
    thus runs once per polar angle.  Undefined branches hold NaN cells.
    """
    base = RotationSpec(theta, 0.0)
    probs, spins, errors, _ = branch_statistics(resource, base)
    ks = np.arange(len(probs)) if k_sel is None else np.array([k_sel])
    sx, sy, sz = spins[ks].T
    turns = []
    for phi in phis:
        turn = RotationSpec(theta, phi).phi - base.phi
        c, s = math.cos(turn), math.sin(turn)
        turns.append((phi, (c * sx - s * sy).tolist(), (s * sx + c * sy).tolist()))
    return (ks.tolist(), probs[ks].tolist(), sz.tolist(), errors[ks].tolist()), turns


def _branch_lines(resource, thetas, phis, k_sel) -> list[str]:
    """Records (theta, phi, k, p, sx, sy, sz, e) over a grid of targets.

    They are built one polar angle at a time: theta and each phi are
    formatted once, each branch's ``k,p,`` head and ``,sz,e`` tail once, and
    only sx and sy cell by cell.  An undefined branch reads nan,nan,nan,nan.
    """
    lines = []
    for theta in thetas:
        (ks, probs, szs, errors), turns = _branch_columns(resource, theta, phis, k_sel)
        heads = [f"{k},{prob:.12g}," for k, prob in zip(ks, probs)]
        tails = [f",{z:.12g},{e:.12g}" for z, e in zip(szs, errors)]
        theta_cell = f"{theta:.12g},"
        for phi, sx, sy in turns:
            lead = f"{theta_cell}{phi:.12g},"
            lines.extend(f"{lead}{head}{x:.12g},{y:.12g}{tail}"
                         for head, x, y, tail in zip(heads, sx, sy, tails))
    return lines


def _error_point(resource, theta, phi, k_cut) -> tuple:
    """(average error,) at one target, or with a cut (average error,
    post-selected error, kept probability)."""
    branches = branch_statistics(resource, RotationSpec(theta, phi))
    avg = average_error(branches)
    if k_cut is None:
        return (avg,)
    return (avg, *postselected_error(branches, k_cut))


@_command("optimal-time", "best common squeezing time for N atoms", _N,
          formats=("json",))
def _run_optimal_time(p) -> tuple[str, dict]:
    tau_opt, fid = find_optimal_time(p["n"])
    result = {"tau_opt": tau_opt, "fidelity": fid}
    return _json_text({"n": p["n"], **result}), result


@_command("squeeze", "evolved 2A2S resource state and its quality", _N, _TAU,
          formats=("json",))
def _run_squeeze(p) -> tuple[str, dict]:
    n = p["n"]
    state = squeezing_run(n, p["tau"])
    variances = pair_variances(state)
    payload = {
        "n": n,
        "tau": p["tau"],
        "fidelity": fidelity(state, epr_minus(n)),
        "var_sum_x": variances.var_xp,
        "var_diff_y": variances.var_ym,
        "var_diff_z": variances.var_zm,
        "psi_re": state.psi.real,
        "psi_im": state.psi.imag,
    }
    return _json_text(payload), {}


@_command("protocol", "all measurement branches at one target direction",
          _N, _TAU, _THETA, _PHI)
def _run_protocol_cmd(p) -> tuple[str, dict]:
    resource = squeezing_run(p["n"], p["tau"])
    lines = _branch_lines(resource, [p["theta"]], [p["phi"]], None)
    return _render(_BRANCH_HEADER, lines, p["format"]), {}


@_command("prob-dist", "outcome probabilities over a polar grid",
          _N, _TAU, _THETA_PIN, _THETA_NODES)
def _run_prob_dist(p) -> tuple[str, dict]:
    resource = squeezing_run(p["n"], p["tau"])
    lines = []
    for theta in _thetas(p):
        theta_cell = f"{theta:.12g},"
        lines.extend(f"{theta_cell}{k},{prob:.12g}" for k, prob
                     in enumerate(outcome_probabilities(resource, theta).tolist()))
    return _render(("theta", "k", "p"), lines, p["format"]), {}


@_command(
    "spin-sweep", "conditional spin averages over a target grid", _N, _TAU,
    Param("k", _parse_int, None, "restrict to one outcome (default: all)"),
    _THETA_PIN, _PHI_PIN, _THETA_NODES, _PHI_NODES,
)
def _run_spin_sweep(p) -> tuple[str, dict]:
    if p["k"] is not None:
        _check_outcome(p["k"], p["n"])
    resource = squeezing_run(p["n"], p["tau"])
    lines = _branch_lines(resource, _thetas(p), _phis(p), p["k"])
    return _render(_BRANCH_HEADER, lines, p["format"]), {}


@_command(
    "wigner-map", "Wigner function of one conditional state", _N, _TAU,
    Param("k", _parse_int, lambda v: v["n"], "Alice's outcome (default N)"),
    _THETA, _PHI,
    Param("resource", _parse_choice("2a2s", "epr"), "2a2s",
          "resource state: 2a2s or epr"),
    Param("theta-nodes", _parse_int, None,
          "polar quadrature nodes (default max(121, 2N+2))"),
    Param("phi-nodes", _parse_int, None, "azimuthal nodes (default max(241, 4N+2))"),
)
def _run_wigner_map(p) -> tuple[str, dict]:
    n, k = p["n"], p["k"]
    _check_outcome(k, n)
    resource = (epr_minus(n) if p["resource"] == "epr"
                else squeezing_run(n, p["tau"]))
    state = branch_state(resource, RotationSpec(p["theta"], p["phi"]), k)
    try:
        sphere = wigner_map(state, p["theta_nodes"], p["phi_nodes"])
    except DomainError as exc:  # a node count below the exactness bound
        raise UsageError(f"--theta-nodes/--phi-nodes: {exc}") from exc
    grid = {"theta_nodes": len(sphere.theta), "phi_nodes": len(sphere.phi)}
    # By columns: each phi cell is formatted once, each theta once per
    # block, and only the values cell by cell.
    phi_cells = [f"{phi:.12g}," for phi in sphere.phi.tolist()]
    lines = []
    for theta, values in zip(sphere.theta.tolist(), sphere.values.tolist()):
        head = f"{theta:.12g},"
        lines.extend(f"{head}{phi}{w:.12g}" for phi, w in zip(phi_cells, values))
    return _render(("theta", "phi", "w"), lines, p["format"]), grid


@_command(
    "error-sweep", "protocol error over a grid or versus N",
    Param("n-list", _parse_int_list, None,
          "comma-separated N values (error versus size)",
          lambda sizes: _atom_count(min(sizes)) or _atom_count(max(sizes))),
    _N._replace(default=lambda v: _REQUIRED if v["n_list"] is None else None,
                help="number of atoms per ensemble (required without --n-list)"),
    _TAU._replace(
        default=lambda v: _optimal_tau(v["n"]) if v["n_list"] is None else None),
    Param("k-cut", _parse_int, None,
          "post-selection cutoff (keep k<=k_cut, k>=N-k_cut)", _non_negative),
    _THETA_PIN._replace(
        default=lambda v: None if v["n_list"] is None else math.pi / 2.0,
        help="pin the polar angle (default pi/2 with --n-list)"),
    _PHI_PIN._replace(default=lambda v: None if v["n_list"] is None else 0.0,
                      help="pin the azimuth (default 0 with --n-list)"),
    _THETA_NODES, _PHI_NODES,
)
def _run_error_sweep(p) -> tuple[str, dict]:
    n_list, k_cut = p["n_list"], p["k_cut"]
    for n in n_list or (p["n"],):
        if k_cut is not None and not k_cut < n / 2:
            raise UsageError(
                f"--k-cut: must lie in [0, N/2) for every N; "
                f"got k_cut={k_cut} with N={n}"
            )
    columns = ("e",) if k_cut is None else ("e", "e_ps", "keep_p")
    if n_list is None:
        # The errors do not depend on phi (see _branch_columns), so each
        # polar angle's values are computed and formatted once.
        resource = squeezing_run(p["n"], p["tau"])
        phis, lines = _phis(p), []
        for theta in _thetas(p):
            theta_cell = f"{theta:.12g},"
            tail = "," + _csv_line(_error_point(resource, theta, 0.0, k_cut))
            lines.extend(f"{theta_cell}{phi:.12g}{tail}" for phi in phis)
        return _render(("theta", "phi", *columns), lines, p["format"]), {}

    # Error versus ensemble size at one target direction.
    theta, phi = p["theta"], p["phi"]
    tau_by_n, lines = {}, []
    for n in n_list:
        tau = p["tau"] if p["tau"] is not None else _optimal_tau(n)
        tau_by_n[str(n)] = tau
        resource = squeezing_run(n, tau)
        lines.append(
            _csv_line((n, theta, phi, *_error_point(resource, theta, phi, k_cut))))
    text = _render(("n", "theta", "phi", *columns), lines, p["format"])
    return text, {"tau_by_n": tau_by_n}


@_command(
    "fluctuation", "spin averages under atom-number fluctuations",
    Param("nbar", _parse_float, _REQUIRED, "mean atom number",
          lambda x: _positive(x) or _addressable(x)),
    Param("sigma0", _parse_float, lambda v: 2.0 * math.sqrt(v["nbar"]),
          "Gaussian width (default 2*sqrt(nbar))", _positive),
    Param("truncation", _parse_float, "4", "support half-width in sigma0 units",
          _positive),
    Param("rule", _parse_rule, "highest",
          "Alice's outcome per shot: highest, lowest, or an integer"),
    _TAU._replace(default=lambda v: _optimal_tau(max(2, round(v["nbar"]))),
                  help="common squeezing time (default: optimal for round(nbar))"),
    _PHI._replace(default="pi:-0.25"),
    _THETA_NODES,
)
def _run_fluctuation(p) -> tuple[str, dict]:
    fspec = FluctuationSpec(p["nbar"], p["sigma0"], p["truncation"], p["rule"])
    thetas = _thetas(p)
    spins, skipped = fluctuating_spin_averages(
        fspec, [RotationSpec(theta, p["phi"]) for theta in thetas], p["tau"]
    )
    if skipped:
        print(
            f"warning: skipped {skipped} fluctuation terms where the fixed "
            "outcome exceeded the shot's atom number",
            file=sys.stderr,
        )
    lines = [_csv_line((theta, p["phi"], *row))
             for theta, row in zip(thetas, spins.tolist())]
    text = _render(("theta", "phi", "sx", "sy", "sz"), lines, p["format"])
    return text, {"skipped_terms": skipped}


# --- entry points -----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="spinrsp",
        description="Remote state preparation between spin ensembles: "
        "exact simulations and sweep data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        for p in command.params:
            sub.add_argument(f"--{p.key}", help=_help(p))
        sub.add_argument("--config",
                         help="flat key=value config file; flags override it")
    return parser


def parse_config(argv: Sequence[str] | None = None) -> ExperimentConfig:
    """Resolve argv plus any config file into a validated run description."""
    return _resolve(build_parser().parse_args(argv))


def execute(config: ExperimentConfig) -> dict:
    """Run one resolved subcommand; write its output and its manifest."""
    started = time.perf_counter()
    text, extras = _COMMANDS[config.subcommand].run(config.params)
    checksums = write_output(text, config.output_path)
    manifest = {
        "config": {"subcommand": config.subcommand, **config.params, **extras},
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "checksums": checksums,
    }
    write_output(_json_text(manifest), config.output_path + ".manifest.json")
    return manifest


def main(argv: Sequence[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        execute(_resolve(ns))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SpinRspError as exc:
        print(f"{ns.subcommand}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
