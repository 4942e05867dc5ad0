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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .collective_spin import EnsembleState, RotationSpec
from .errors import DomainError, SpinRspError, UndefinedOutcomeError
from .protocol import (
    FluctuationSpec,
    average_error,
    fluctuating_spin_averages,
    outcome_probabilities,
    postselected_error,
    run_protocol,
)
from .squeezing import (
    epr_minus,
    fidelity,
    find_optimal_time,
    pair_variances,
    squeezing_run,
)
from .wigner import angular_state_from_ensemble, wigner_map

__all__ = ["ExperimentConfig", "RunManifest", "parse_config", "execute", "main"]

SUBCOMMANDS = (
    "optimal-time",
    "squeeze",
    "protocol",
    "prob-dist",
    "spin-sweep",
    "wigner-map",
    "error-sweep",
    "fluctuation",
)


class UsageError(Exception):
    """Bad command line or config file; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: subcommand, typed parameters, output target."""

    subcommand: str
    params: Mapping[str, object]
    output_path: str
    fmt: str


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility sidecar written next to every output file."""

    config: Mapping[str, object]
    version: str
    wall_time_s: float
    checksums: Mapping[str, str]


# --- value parsing --------------------------------------------------------


def _parse_angle(text: str, name: str) -> float:
    raw = text.strip()
    scale = 1.0
    if raw.startswith("pi:"):
        raw, scale = raw[3:], math.pi
    try:
        return float(raw) * scale
    except ValueError:
        raise UsageError(f"{name}: expected a number or pi:<number>, got {text!r}")


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text.strip(), 10)
    except ValueError:
        raise UsageError(f"{name}: expected an integer, got {text!r}")


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise UsageError(f"{name}: expected a number, got {text!r}")


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


class _Resolver:
    """Merges flag values over config-file values with strict key checking."""

    def __init__(self, ns: argparse.Namespace, config: dict[str, str]):
        self._ns = ns
        self._config = dict(config)
        self._used: set[str] = set()

    def get(self, key: str, parse: Callable[[str, str], object], default=None):
        self._used.add(key)
        flag_value = getattr(self._ns, key.replace("-", "_"), None)
        if flag_value is not None:
            return parse(flag_value, f"--{key}")
        if key in self._config:
            return parse(self._config[key], f"config key {key!r}")
        return default

    def require(self, key: str, parse: Callable[[str, str], object]):
        value = self.get(key, parse)
        if value is None:
            raise UsageError(f"missing required field: --{key}")
        return value

    def finish(self) -> None:
        extras = set(self._config) - self._used
        if extras:
            raise UsageError(
                "config keys not accepted by this subcommand: "
                + ", ".join(sorted(extras))
            )


# --- serialization --------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    return f"{value:.12g}"


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


def _render(header: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
    if not rows:
        raise DomainError("no records to write")
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        return "\n".join(lines) + "\n"
    payload = {"header": list(header), "rows": _json_ready([list(r) for r in rows])}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


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


def _theta_grid(nodes: int) -> np.ndarray:
    return np.linspace(0.0, math.pi, nodes)


def _phi_grid(nodes: int) -> np.ndarray:
    return np.arange(nodes) * (2.0 * math.pi / nodes)


def _validate_nodes(n: int, name: str) -> int:
    if n < 2:
        raise UsageError(f"{name}: need at least 2 nodes, got {n}")
    return n


# --- subcommand resolvers and runners -------------------------------------


def _resolve_common(res: _Resolver, subcommand: str) -> tuple[str, str]:
    out = res.require("out", lambda v, _n: v)
    default_fmt = "json" if subcommand in _JSON_ONLY else "csv"
    fmt = res.get("format", lambda v, _n: v.strip(), default_fmt)
    if fmt not in ("csv", "json"):
        raise UsageError(f"--format: expected csv or json, got {fmt!r}")
    return str(out), str(fmt)


def _resolve_n(res: _Resolver) -> int:
    n = res.require("n", _parse_int)
    if n < 1:
        raise UsageError(f"--n: need at least one atom, got {n}")
    return n


def _resolve_tau(res: _Resolver, n: int) -> float:
    tau = res.get("tau", _parse_float)
    if tau is None:
        tau, _ = find_optimal_time(n)
    elif tau < 0:
        raise UsageError(f"--tau: expected >= 0, got {tau}")
    return float(tau)


def _resource_state(n: int, tau: float, kind: str):
    if kind == "epr":
        return epr_minus(n)
    return squeezing_run(n, tau).state


def _branch_rows(resource, theta: float, phis: Sequence[float], k_sel):
    """Rows (theta, phi, k, p, sx, sy, sz, e) for one polar angle, every phi.

    Alice measures behind U(theta, pi - phi), so phi reaches Bob only as the
    z-rotation exp(-i S^z phi/2) of his conditional state: p, e and <S^z>
    are those at phi = 0, and (<S^x>, <S^y>) turn by phi.  The protocol
    thus runs once per polar angle.
    """
    base = RotationSpec(theta, 0.0)
    branches = [
        o for o in run_protocol(resource, base) if k_sel is None or o.k == k_sel
    ]
    rows = []
    for phi in phis:
        turn = RotationSpec(theta, phi).phi - base.phi
        cos, sin = math.cos(turn), math.sin(turn)
        for o in branches:
            if not o.defined:
                rows.append((theta, phi, o.k, o.probability, None, None, None, None))
                continue
            sx, sy, sz = o.bob_spins
            rows.append(
                (theta, phi, o.k, o.probability,
                 cos * sx - sin * sy, sin * sx + cos * sy, sz, o.error)
            )
    return rows


def _run_optimal_time(res: _Resolver, fmt: str) -> tuple[str, dict]:
    n = _resolve_n(res)
    res.finish()
    if fmt != "json":
        raise UsageError("optimal-time writes JSON only; use --format json")
    tau_opt, fidelity = find_optimal_time(n)
    payload = _json_ready({"n": n, "tau_opt": tau_opt, "fidelity": fidelity})
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return text, {"n": n, "tau_opt": tau_opt, "fidelity": fidelity}


def _run_squeeze(res: _Resolver, fmt: str) -> tuple[str, dict]:
    n = _resolve_n(res)
    tau = _resolve_tau(res, n)
    res.finish()
    if fmt != "json":
        raise UsageError("squeeze writes JSON only; use --format json")
    run = squeezing_run(n, tau)
    variances = pair_variances(run)
    epr_fidelity = fidelity(run.state, epr_minus(n))
    payload = _json_ready(
        {
            "n": n,
            "tau": tau,
            "fidelity": epr_fidelity,
            "var_sum_x": variances.var_xp,
            "var_diff_y": variances.var_ym,
            "var_diff_z": variances.var_zm,
            "psi_re": run.state.psi.real,
            "psi_im": run.state.psi.imag,
        }
    )
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return text, {"n": n, "tau": tau}


def _run_protocol_cmd(res: _Resolver, fmt: str) -> tuple[str, dict]:
    n = _resolve_n(res)
    tau = _resolve_tau(res, n)
    theta = res.require("theta", _parse_angle)
    phi = res.get("phi", _parse_angle, 0.0)
    res.finish()
    resource = _resource_state(n, tau, "2a2s")
    rows = _branch_rows(resource, float(theta), [float(phi)], None)
    header = ("theta", "phi", "k", "p", "sx", "sy", "sz", "e")
    return _render(header, rows, fmt), {"n": n, "tau": tau, "theta": theta, "phi": phi}


def _run_prob_dist(res: _Resolver, fmt: str) -> tuple[str, dict]:
    n = _resolve_n(res)
    tau = _resolve_tau(res, n)
    theta_pin = res.get("theta", _parse_angle)
    nodes = _validate_nodes(res.get("theta-nodes", _parse_int, 61), "--theta-nodes")
    res.finish()
    resource = _resource_state(n, tau, "2a2s")
    thetas = [float(theta_pin)] if theta_pin is not None else list(_theta_grid(nodes))
    rows = [
        (theta, k, float(p))
        for theta in thetas
        for k, p in enumerate(outcome_probabilities(resource, theta))
    ]
    header = ("theta", "k", "p")
    params = {"n": n, "tau": tau, "theta": theta_pin, "theta_nodes": nodes}
    return _render(header, rows, fmt), params


def _run_spin_sweep(res: _Resolver, fmt: str) -> tuple[str, dict]:
    n = _resolve_n(res)
    tau = _resolve_tau(res, n)
    k_sel = res.get("k", _parse_int)
    theta_pin = res.get("theta", _parse_angle)
    phi_pin = res.get("phi", _parse_angle)
    t_nodes = _validate_nodes(res.get("theta-nodes", _parse_int, 61), "--theta-nodes")
    p_nodes = _validate_nodes(res.get("phi-nodes", _parse_int, 61), "--phi-nodes")
    res.finish()
    if k_sel is not None and not 0 <= k_sel <= n:
        raise UsageError(f"--k: expected an outcome in [0, {n}], got {k_sel}")
    resource = _resource_state(n, tau, "2a2s")
    thetas = [float(theta_pin)] if theta_pin is not None else list(_theta_grid(t_nodes))
    phis = [float(phi_pin)] if phi_pin is not None else list(_phi_grid(p_nodes))
    rows = [
        row for theta in thetas for row in _branch_rows(resource, theta, phis, k_sel)
    ]
    header = ("theta", "phi", "k", "p", "sx", "sy", "sz", "e")
    params = {"n": n, "tau": tau, "k": k_sel, "theta": theta_pin, "phi": phi_pin}
    return _render(header, rows, fmt), params


def _run_wigner_map(res: _Resolver, fmt: str) -> tuple[str, dict]:
    n = _resolve_n(res)
    tau = _resolve_tau(res, n)
    k = res.get("k", _parse_int, n)
    theta = res.require("theta", _parse_angle)
    phi = res.get("phi", _parse_angle, 0.0)
    resource_kind = res.get("resource", lambda v, _n: v.strip(), "2a2s")
    t_nodes = res.get("theta-nodes", _parse_int)
    p_nodes = res.get("phi-nodes", _parse_int)
    res.finish()
    if resource_kind not in ("2a2s", "epr"):
        raise UsageError(f"--resource: expected 2a2s or epr, got {resource_kind!r}")
    if not 0 <= k <= n:
        raise UsageError(f"--k: expected an outcome in [0, {n}], got {k}")
    if t_nodes is not None and t_nodes < 2 * n + 2:
        raise UsageError(f"--theta-nodes: need at least {2 * n + 2} for N={n}")
    if p_nodes is not None and p_nodes < 4 * n + 2:
        raise UsageError(f"--phi-nodes: need at least {4 * n + 2} for N={n}")
    resource = _resource_state(n, tau, resource_kind)
    outcomes = run_protocol(resource, RotationSpec(float(theta), float(phi)))
    branch = outcomes[k]
    if not branch.defined:
        raise UndefinedOutcomeError(
            f"outcome k={k} has zero probability at this target; nothing to map"
        )
    state = EnsembleState(n, branch.amplitudes)
    sphere = wigner_map(angular_state_from_ensemble(state), t_nodes, p_nodes)
    rows = [
        (float(sphere.theta[i]), float(sphere.phi[j]), float(sphere.values[i, j]))
        for i in range(len(sphere.theta))
        for j in range(len(sphere.phi))
    ]
    header = ("theta", "phi", "w")
    params = {
        "n": n,
        "tau": tau,
        "k": k,
        "theta": theta,
        "phi": phi,
        "resource": resource_kind,
        "theta_nodes": len(sphere.theta),
        "phi_nodes": len(sphere.phi),
    }
    return _render(header, rows, fmt), params


def _error_point(resource, theta, phi, k_cut):
    """(average error, post-selected error, kept probability) at one target;
    the last two are None without a cut."""
    outcomes = run_protocol(resource, RotationSpec(theta, phi))
    avg = average_error(outcomes)
    if k_cut is None:
        return avg, None, None
    ps_error, keep_p = postselected_error(outcomes, k_cut)
    return avg, ps_error, keep_p


def _error_rows(resource, theta: float, phis: Sequence[float], k_cut):
    """Rows (theta, phi, e[, e_ps, keep_p]) for one polar angle, every phi.

    Like the branch probabilities, the errors do not depend on phi (see
    :func:`_branch_rows`), so they are computed once per polar angle.
    """
    avg, ps, keep = _error_point(resource, theta, 0.0, k_cut)
    values = (avg,) if k_cut is None else (avg, ps, keep)
    return [(theta, phi, *values) for phi in phis]


def _run_error_sweep(res: _Resolver, fmt: str) -> tuple[str, dict]:
    n_list = res.get("n-list", _parse_int_list)
    tau_flag = res.get("tau", _parse_float)
    k_cut = res.get("k-cut", _parse_int)
    theta_pin = res.get("theta", _parse_angle)
    phi_pin = res.get("phi", _parse_angle)
    t_nodes = _validate_nodes(res.get("theta-nodes", _parse_int, 61), "--theta-nodes")
    p_nodes = _validate_nodes(res.get("phi-nodes", _parse_int, 61), "--phi-nodes")
    if tau_flag is not None and tau_flag < 0:
        raise UsageError(f"--tau: expected >= 0, got {tau_flag}")

    if n_list is not None:
        # Error versus ensemble size at one target direction.
        res.get("n", _parse_int)  # tolerate but ignore a config-file n
        res.finish()
        for n in n_list:
            if n < 1:
                raise UsageError(f"--n-list: need at least one atom, got {n}")
            if k_cut is not None and not 0 <= k_cut < n / 2:
                raise UsageError(
                    f"--k-cut: must lie in [0, N/2) for every N; "
                    f"got k_cut={k_cut} with N={n}"
                )
        theta = float(theta_pin) if theta_pin is not None else math.pi / 2.0
        phi = float(phi_pin) if phi_pin is not None else 0.0

        def one_n(n: int):
            tau = tau_flag if tau_flag is not None else find_optimal_time(n)[0]
            resource = _resource_state(n, float(tau), "2a2s")
            avg, ps, keep = _error_point(resource, theta, phi, k_cut)
            return n, float(tau), avg, ps, keep

        results = [one_n(n) for n in n_list]
        if k_cut is None:
            header = ("n", "theta", "phi", "e")
            rows = [(n, theta, phi, avg) for n, _t, avg, _p, _k in results]
        else:
            header = ("n", "theta", "phi", "e", "e_ps", "keep_p")
            rows = [
                (n, theta, phi, avg, ps, keep) for n, _t, avg, ps, keep in results
            ]
        params = {
            "n_list": list(n_list),
            "tau_by_n": {str(n): t for n, t, *_ in results},
            "k_cut": k_cut,
            "theta": theta,
            "phi": phi,
        }
        return _render(header, rows, fmt), params

    n = _resolve_n(res)
    res.finish()
    if k_cut is not None and not 0 <= k_cut < n / 2:
        raise UsageError(f"--k-cut: must lie in [0, N/2) = [0, {n / 2}), got {k_cut}")
    tau = tau_flag if tau_flag is not None else find_optimal_time(n)[0]
    resource = _resource_state(n, float(tau), "2a2s")
    thetas = [float(theta_pin)] if theta_pin is not None else list(_theta_grid(t_nodes))
    phis = [float(phi_pin)] if phi_pin is not None else list(_phi_grid(p_nodes))
    rows = [
        row for theta in thetas for row in _error_rows(resource, theta, phis, k_cut)
    ]
    header = (
        ("theta", "phi", "e") if k_cut is None else ("theta", "phi", "e", "e_ps", "keep_p")
    )
    params = {"n": n, "tau": float(tau), "k_cut": k_cut, "theta": theta_pin, "phi": phi_pin}
    return _render(header, rows, fmt), params


def _run_fluctuation(res: _Resolver, fmt: str) -> tuple[str, dict]:
    nbar = res.require("nbar", _parse_float)
    if nbar <= 0:
        raise UsageError(f"--nbar: expected > 0, got {nbar}")
    sigma0 = res.get("sigma0", _parse_float, 2.0 * math.sqrt(nbar))
    if sigma0 <= 0:
        raise UsageError(f"--sigma0: expected > 0, got {sigma0}")
    truncation = res.get("truncation", _parse_float, 4.0)
    if truncation <= 0:
        raise UsageError(f"--truncation: expected > 0, got {truncation}")
    rule = res.get("rule", _parse_rule, "highest")
    tau = res.get("tau", _parse_float)
    phi = res.get("phi", _parse_angle, -math.pi / 4.0)
    t_nodes = _validate_nodes(res.get("theta-nodes", _parse_int, 61), "--theta-nodes")
    res.finish()
    if tau is None:
        tau, _ = find_optimal_time(max(2, round(nbar)))
    elif tau < 0:
        raise UsageError(f"--tau: expected >= 0, got {tau}")
    fspec = FluctuationSpec(float(nbar), float(sigma0), float(truncation), rule)
    thetas = list(_theta_grid(t_nodes))
    results = [
        fluctuating_spin_averages(fspec, RotationSpec(theta, float(phi)), tau)
        for theta in thetas
    ]
    skipped = sum(result.skipped_terms for result in results)
    if skipped:
        print(
            f"warning: skipped {skipped} fluctuation terms where the fixed "
            "outcome exceeded the shot's atom number",
            file=sys.stderr,
        )
    rows = [(theta, float(phi), *result.spins) for theta, result in zip(thetas, results)]
    header = ("theta", "phi", "sx", "sy", "sz")
    params = {
        "nbar": nbar,
        "sigma0": sigma0,
        "truncation": truncation,
        "rule": rule,
        "tau": float(tau),
        "phi": phi,
        "theta_nodes": t_nodes,
        "skipped_terms": skipped,
    }
    return _render(header, rows, fmt), params


_RUNNERS = {
    "optimal-time": _run_optimal_time,
    "squeeze": _run_squeeze,
    "protocol": _run_protocol_cmd,
    "prob-dist": _run_prob_dist,
    "spin-sweep": _run_spin_sweep,
    "wigner-map": _run_wigner_map,
    "error-sweep": _run_error_sweep,
    "fluctuation": _run_fluctuation,
}

_JSON_ONLY = ("optimal-time", "squeeze")


# --- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinrsp",
        description="Remote state preparation between spin ensembles: "
        "exact simulations and sweep data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str, *options: tuple[str, str]):
        sub = subparsers.add_parser(name, help=help_text)
        for flag, help_opt in options:
            sub.add_argument(flag, type=str, default=None, help=help_opt)
        sub.add_argument("--config", type=str, default=None,
                         help="flat key=value config file; flags override it")
        sub.add_argument("--out", type=str, default=None,
                         help="output file path (required)")
        default_fmt = "json" if name in _JSON_ONLY else "csv"
        sub.add_argument("--format", type=str, default=None,
                         help=f"csv or json (default {default_fmt})")
        return sub

    n_opt = ("--n", "number of atoms per ensemble")
    tau_opt = ("--tau", "squeezing time (default: optimal time for N)")
    theta_opt = ("--theta", "target polar angle (radians or pi:<x>)")
    phi_opt = ("--phi", "target azimuth (radians or pi:<x>)")

    add("optimal-time", "best common squeezing time for N atoms", n_opt)
    add("squeeze", "evolved 2A2S resource state and its quality", n_opt, tau_opt)
    add("protocol", "all measurement branches at one target direction",
        n_opt, tau_opt, theta_opt, ("--phi", "target azimuth (default 0)"))
    add("prob-dist", "outcome probabilities over a polar grid",
        n_opt, tau_opt,
        ("--theta", "pin the polar angle instead of sweeping"),
        ("--theta-nodes", "polar grid size (default 61)"))
    add("spin-sweep", "conditional spin averages over a target grid",
        n_opt, tau_opt, ("--k", "restrict to one outcome (default: all)"),
        ("--theta", "pin the polar angle instead of sweeping"),
        ("--phi", "pin the azimuth instead of sweeping"),
        ("--theta-nodes", "polar grid size (default 61)"),
        ("--phi-nodes", "azimuthal grid size (default 61)"))
    add("wigner-map", "Wigner function of one conditional state",
        n_opt, tau_opt, ("--k", "Alice's outcome (default N)"),
        theta_opt, ("--phi", "target azimuth (default 0)"),
        ("--resource", "resource state: 2a2s or epr (default 2a2s)"),
        ("--theta-nodes", "polar quadrature nodes (default max(121, 2N+2))"),
        ("--phi-nodes", "azimuthal nodes (default max(241, 4N+2))"))
    add("error-sweep", "protocol error over a grid or versus N",
        n_opt, ("--n-list", "comma-separated N values (error versus size)"),
        tau_opt, ("--k-cut", "post-selection cutoff (keep k<=k_cut, k>=N-k_cut)"),
        ("--theta", "pin the polar angle (default pi/2 with --n-list)"),
        ("--phi", "pin the azimuth (default 0 with --n-list)"),
        ("--theta-nodes", "polar grid size (default 61)"),
        ("--phi-nodes", "azimuthal grid size (default 61)"))
    add("fluctuation", "spin averages under atom-number fluctuations",
        ("--nbar", "mean atom number"),
        ("--sigma0", "Gaussian width (default 2*sqrt(nbar))"),
        ("--truncation", "support half-width in sigma0 units (default 4)"),
        ("--rule", "Alice's outcome per shot: highest, lowest, or an integer"),
        ("--tau", "common squeezing time (default: optimal for round(nbar))"),
        ("--phi", "target azimuth (default -pi/4)"),
        ("--theta-nodes", "polar grid size (default 61)"))
    return parser


def parse_config(argv: Sequence[str] | None = None) -> ExperimentConfig:
    """Resolve argv plus any config file into a validated run description.

    Per-field validation happens when the subcommand runs; this step merges
    the two configuration sources and settles the output path and format.
    """
    ns = build_parser().parse_args(argv)
    config = _load_config_file(ns.config) if ns.config else {}
    out, fmt = _resolve_common(_Resolver(ns, config), ns.subcommand)
    return ExperimentConfig(ns.subcommand, {"_ns": ns, "_config": config}, out, fmt)


def execute(config: ExperimentConfig) -> RunManifest:
    """Run one resolved subcommand, write its output and manifest."""
    started = time.perf_counter()
    ns = config.params["_ns"]
    file_values = config.params["_config"]
    res = _Resolver(ns, file_values)
    _resolve_common(res, config.subcommand)  # re-consume out/format keys
    runner = _RUNNERS[config.subcommand]
    text, params = runner(res, config.fmt)
    checksums = write_output(text, config.output_path)
    wall = time.perf_counter() - started
    echo = {
        "subcommand": config.subcommand,
        "format": config.fmt,
        "out": config.output_path,
        **{k: _json_ready(v) for k, v in params.items()},
    }
    manifest = RunManifest(echo, __version__, wall, checksums)
    manifest_text = json.dumps(
        {
            "config": manifest.config,
            "version": manifest.version,
            "wall_time_s": _json_ready(manifest.wall_time_s),
            "checksums": dict(manifest.checksums),
        },
        sort_keys=True,
        indent=2,
    ) + "\n"
    write_output(manifest_text, config.output_path + ".manifest.json")
    return manifest


def main(argv: Sequence[str] | None = None) -> int:
    subcommand = "spinrsp"
    try:
        config = parse_config(argv)
        subcommand = config.subcommand
        execute(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SpinRspError as exc:
        print(f"{subcommand}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
