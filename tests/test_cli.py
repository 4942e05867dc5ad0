"""Command-line driver: parsing, schemas, determinism, exit codes."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import spinrsp.cli as cli
import spinrsp.protocol as protocol
import spinrsp.wigner as wigner
from oracles import (
    _per_cell_fmt,
    branch_rows,
    error_point,
    error_rows,
    loop_average_error,
    loop_postselected_error,
    per_branch_protocol,
    per_cell_csv,
    per_cell_json,
)
from spinrsp.collective_spin import EnsembleState, RotationSpec
from spinrsp.protocol import (
    FluctuationSpec,
    fluctuating_spin_averages,
    outcome_probabilities,
)
from spinrsp.squeezing import DiagonalPairState, squeezing_run


def run_main(*args) -> int:
    return cli.main(list(args))


def run_process(*args, argv=("-m", "spinrsp.cli")):
    """Run the CLI (or other ``argv``) in a child interpreter that imports
    this same package."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv, *args],
        capture_output=True,
        text=True,
        env=env,
    )


def read_rows(path, header):
    lines = path.read_text().splitlines()
    assert lines[0] == header
    return [line.split(",") for line in lines[1:]]


class TestValueParsing:
    def test_angle_plain(self):
        assert cli._parse_angle("1.25", "--theta") == pytest.approx(1.25)

    def test_angle_pi_prefix(self):
        assert cli._parse_angle("pi:0.5", "--theta") == pytest.approx(math.pi / 2)
        assert cli._parse_angle("pi:-0.25", "--phi") == pytest.approx(-math.pi / 4)

    def test_angle_invalid(self):
        with pytest.raises(cli.UsageError):
            cli._parse_angle("pi:x", "--theta")
        with pytest.raises(cli.UsageError):
            cli._parse_angle("abc", "--theta")

    def test_int_list(self):
        assert cli._parse_int_list("10,20,30", "--n-list") == (10, 20, 30)
        with pytest.raises(cli.UsageError):
            cli._parse_int_list("10,x", "--n-list")
        with pytest.raises(cli.UsageError):
            cli._parse_int_list(",,", "--n-list")

    def test_rule(self):
        assert cli._parse_rule("highest", "--rule") == "highest"
        assert cli._parse_rule("lowest", "--rule") == "lowest"
        assert cli._parse_rule("7", "--rule") == 7
        with pytest.raises(cli.UsageError):
            cli._parse_rule("weird", "--rule")
        with pytest.raises(cli.UsageError):
            cli._parse_rule("-2", "--rule")

    def test_float_formatting(self):
        # The writers format every cell, integers and NaN included, as
        # f"{x:.12g}", most of them through "%.12g" templates; the per-cell
        # oracle writes None as nan.
        assert _per_cell_fmt(None) == "nan"
        assert f"{float('nan'):.12g}" == "nan"
        assert f"{-float('nan'):.12g}" == "nan"
        assert f"{np.int64(3):.12g}" == "3"
        assert f"{0.5:.12g}" == "0.5"
        assert f"{math.pi / 2:.12g}" == "1.57079632679"
        assert "%.12g" % 10**13 == f"{10**13:.12g}" == "1e+13"
        for cell in (True, False, 0, 7, -7, 123456789, np.int64(3),
                     0.0, -0.0, 1e-320, -1e-320, float("inf"), float("-inf"),
                     float("nan"), -float("nan"), np.float64(2.0 / 3.0),
                     np.float64("nan"), -np.float64("nan"), np.float32(0.1),
                     np.float32("inf")):
            assert f"{cell:.12g}" == _per_cell_fmt(cell), cell
            assert "%.12g" % cell == f"{cell:.12g}", cell
        # Doubles of either sign with decimal exponents from -320 to 308
        # (the few past the largest double read inf).
        rng = np.random.default_rng(20201020)
        size = 100_000
        with np.errstate(over="ignore"):
            sample = (rng.uniform(1.0, 10.0, size) * rng.choice((-1.0, 1.0), size)
                      * 10.0 ** rng.integers(-320, 308, size, endpoint=True))
        cells = sample.tolist()
        assert ["%.12g" % x for x in cells] == [f"{x:.12g}" for x in cells]


class TestRendering:
    def test_undefined_cells_in_csv(self):
        resource = DiagonalPairState(2, np.array([0.0, 1.0, 0.0], dtype=complex))
        lines = cli._render(
            cli._BRANCH_HEADER, cli._branch_blocks(resource, [0.0], [0.0], None), "csv"
        ).splitlines()
        assert lines[1] == "0,0,0,0,nan,nan,nan,nan"
        assert lines[2].startswith("0,0,1,1,")
        assert lines[3] == "0,0,2,0,nan,nan,nan,nan"

    def test_undefined_cells_in_json(self):
        resource = DiagonalPairState(2, np.array([0.0, 1.0, 0.0], dtype=complex))
        blocks = cli._branch_blocks(resource, [0.0], [0.0], None)
        payload = json.loads(cli._render(cli._BRANCH_HEADER, blocks, "json"))
        assert payload["header"] == ["theta", "phi", "k", "p", "sx", "sy", "sz", "e"]
        assert payload["rows"][0][4:] == [None, None, None, None]

    def test_empty_rows_rejected(self):
        from spinrsp.errors import DomainError

        with pytest.raises(DomainError):
            cli._render(("a",), [], "csv")


class TestMemoizedRender:
    """Every subcommand's CSV must equal the per-cell oracle on the rows the
    oracle row builders make from the run's resolved configuration."""

    @staticmethod
    def oracle_rows(subcommand, p):
        """(header, rows) one tuple per record, every cell on its own."""
        if subcommand == "fluctuation":
            fspec = FluctuationSpec(p["nbar"], p["sigma0"], p["truncation"], p["rule"])
            thetas = cli._thetas(p)
            spins, _ = fluctuating_spin_averages(
                fspec, [RotationSpec(t, p["phi"]) for t in thetas], p["tau"]
            )
            rows = [(t, p["phi"], *row) for t, row in zip(thetas, spins.tolist())]
            return ("theta", "phi", "sx", "sy", "sz"), rows
        if subcommand == "error-sweep" and p["n_list"] is not None:
            columns = ("e",) if p["k_cut"] is None else ("e", "e_ps", "keep_p")
            rows = []
            for n in p["n_list"]:
                tau = p["tau"] if p["tau"] is not None else cli._optimal_tau(n)
                resource = squeezing_run(n, tau)
                rows.append((n, p["theta"], p["phi"],
                             *error_point(resource, p["theta"], p["phi"], p["k_cut"])))
            return ("n", "theta", "phi", *columns), rows
        resource = squeezing_run(p["n"], p["tau"])
        if subcommand == "prob-dist":
            rows = [
                (theta, k, float(prob)) for theta in cli._thetas(p)
                for k, prob in enumerate(outcome_probabilities(resource, theta))
            ]
            return ("theta", "k", "p"), rows
        if subcommand == "error-sweep":
            columns = ("e",) if p["k_cut"] is None else ("e", "e_ps", "keep_p")
            phis = cli._phis(p)
            rows = [row for theta in cli._thetas(p)
                    for row in error_rows(resource, theta, phis, p["k_cut"])]
            return ("theta", "phi", *columns), rows
        if subcommand == "protocol":
            rows = branch_rows(resource, p["theta"], [p["phi"]], None)
        else:
            phis = cli._phis(p)
            rows = [row for theta in cli._thetas(p)
                    for row in branch_rows(resource, theta, phis, p["k"])]
        return cli._BRANCH_HEADER, rows

    # Each case checks both formats, CSV and JSON, against its oracle.
    ORACLES = {"csv": per_cell_csv, "json": per_cell_json}

    def render_both(self, tmp_path, monkeypatch, fmt, *args):
        out = tmp_path / f"out.{fmt}"
        assert run_main(*args, "--format", fmt, "--out", str(out)) == 0
        ns = cli.build_parser().parse_args([*args, "--out", str(out)])
        header, rows = self.oracle_rows(ns.subcommand, cli._resolve(ns))
        return out.read_bytes(), self.ORACLES[fmt](header, rows).encode("utf-8")

    @pytest.mark.parametrize("theta", ["0", "0.7", "pi:1"])
    @pytest.mark.parametrize(
        "extra", [(), ("--k", "3"), ("--tau", "0")], ids=["all", "k3", "tau0"]
    )
    def test_spin_sweep(self, tmp_path, monkeypatch, theta, extra):
        for fmt in self.ORACLES:
            written, oracle = self.render_both(
                tmp_path, monkeypatch, fmt, "spin-sweep", "--n", "30",
                "--theta", theta, "--phi-nodes", "5", *extra,
            )
            assert written == oracle, fmt
            if extra == ("--tau", "0") and fmt == "csv":
                # The product resource leaves branches below the probability cut.
                assert b",nan,nan,nan,nan\n" in written

    @pytest.mark.parametrize(
        "args",
        [
            ("wigner-map", "--n", "10", "--theta", "0.5", "--k", "9"),
            ("prob-dist", "--n", "20", "--theta-nodes", "9"),
            ("error-sweep", "--n", "12", "--k-cut", "1", "--theta-nodes", "7",
             "--phi-nodes", "5"),
            ("error-sweep", "--n-list", "10,20,30", "--k-cut", "0"),
            ("fluctuation", "--nbar", "10", "--theta-nodes", "5"),
            ("protocol", "--n", "8", "--theta", "0.7", "--phi", "0.3"),
        ],
        ids=["wigner-map", "prob-dist", "error-sweep-grid", "error-sweep-n-list",
             "fluctuation", "protocol"],
    )
    def test_other_subcommands(self, tmp_path, monkeypatch, args):
        both = self.map_both if args[0] == "wigner-map" else self.render_both
        for fmt in self.ORACLES:
            written, oracle = both(tmp_path, monkeypatch, fmt, *args)
            assert written == oracle, fmt

    def map_both(self, tmp_path, monkeypatch, fmt, *args):
        """The map's own quadrature grid sets the oracle rows: take the map
        the run made and compare with the per-cell oracle on its rows."""
        maps = []

        def spy(*call_args):
            maps.append(wigner.wigner_map(*call_args))
            return maps[-1]

        monkeypatch.setattr(cli, "wigner_map", spy)
        out = tmp_path / f"out.{fmt}"
        assert run_main(*args, "--format", fmt, "--out", str(out)) == 0
        (sphere,) = maps
        rows = [
            (theta, phi, float(sphere.values[i, j]))
            for i, theta in enumerate(sphere.theta)
            for j, phi in enumerate(sphere.phi)
        ]
        oracle = self.ORACLES[fmt](("theta", "phi", "w"), rows)
        return out.read_bytes(), oracle.encode("utf-8")


class TestBlockWriter:
    """The branch table is written one polar angle at a time from arrays;
    its bytes must equal the per-cell oracle on the oracle's row tuples."""

    # theta = 0 and pi, theta > pi (folded), and azimuths outside [0, 2 pi).
    THETAS = (0.0, 0.7, math.pi, 4.0)
    PHIS = (0.0, 1.3, -2.0, 7.5)

    @pytest.mark.parametrize("n", [1, 2, 30, 200])
    @pytest.mark.parametrize("case", ["all", "k-pinned", "tau0"])
    def test_bytes_match_oracle_rows(self, n, case):
        resource = squeezing_run(n, 0.0 if case == "tau0" else 2.4 / n)
        k_sel = n // 2 if case == "k-pinned" else None
        rows = [row for theta in self.THETAS
                for row in branch_rows(resource, theta, self.PHIS, k_sel)]
        blocks = cli._branch_blocks(resource, self.THETAS, self.PHIS, k_sel)
        csv_text = cli._render(cli._BRANCH_HEADER, blocks, "csv")
        assert csv_text == per_cell_csv(cli._BRANCH_HEADER, rows)
        json_text = cli._render(cli._BRANCH_HEADER, blocks, "json")
        assert json_text == per_cell_json(cli._BRANCH_HEADER, rows)
        if case == "tau0":
            # |N>|N> leaves most branches below the probability cut.
            assert ",nan,nan,nan,nan\n" in csv_text


class TestImport:
    def test_cli_import_leaves_out_scipy_special(self):
        # Only the log column, the fluctuation engine and the unused scalar
        # 3j symbol need scipy.special; they import it on first use.
        proc = run_process(argv=(
            "-c", "import sys, spinrsp.cli; print('scipy.special' in sys.modules)"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_out_scipy(self):
        # Eigensolves up to N = 200 run in numpy; scipy.linalg, whose import
        # outweighs a typical run, loads only for larger matrices.
        proc = run_process(argv=(
            "-c", "import sys, spinrsp.cli; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_benchmark_sized_runs_leave_out_scipy(self, tmp_path):
        # One N = 200 polar slice and one N = 60 Wigner map, the sizes of the
        # two benchmark workloads, run through cli.main in one interpreter.
        script = (
            "import sys, spinrsp.cli as cli\n"
            "jobs = [['spin-sweep', '--n', '200', '--theta', 'pi:0.5',\n"
            "         '--phi-nodes', '8', '--out', sys.argv[1]],\n"
            "        ['wigner-map', '--n', '60', '--theta', '0.5', '--k', '59',\n"
            "         '--out', sys.argv[2]]]\n"
            "print([cli.main(job) for job in jobs])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = run_process(str(tmp_path / "slice.csv"), str(tmp_path / "map.csv"),
                           argv=("-c", script))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[0, 0]", "[]"]


class TestDefaultTauAtLargeN:
    """The default tau is the first fidelity peak, not a later revival."""

    def test_optimal_time_n1000(self, tmp_path):
        out = tmp_path / "opt.json"
        assert run_main("optimal-time", "--n", "1000", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["tau_opt"] == pytest.approx(0.004472, abs=1e-6)

    def test_error_flat_from_n800_to_n1000(self, tmp_path):
        out = tmp_path / "err.csv"
        assert run_main(
            "error-sweep", "--n-list", "800,1000", "--k-cut", "0", "--out", str(out)
        ) == 0
        rows = read_rows(out, "n,theta,phi,e,e_ps,keep_p")
        e_800, e_1000 = float(rows[0][3]), float(rows[1][3])
        assert abs(e_1000 - e_800) < 1e-3


class TestDefaultTauAtOneAtom:
    """At N = 1 the fidelity (1 + sin 2 tau)/2 peaks at tau = pi/4, so every
    subcommand that defaults tau runs there too."""

    @pytest.mark.parametrize("args", [
        ("optimal-time", "--n", "1"),
        ("squeeze", "--n", "1"),
        ("protocol", "--n", "1", "--theta", "0.4"),
        ("prob-dist", "--n", "1"),
        ("spin-sweep", "--n", "1"),
        ("wigner-map", "--n", "1", "--theta", "0.4"),
        ("error-sweep", "--n-list", "1,2,3"),
    ], ids=lambda args: args[0])
    def test_runs_without_tau(self, tmp_path, args):
        out = tmp_path / ("x.json" if args[0] in ("optimal-time", "squeeze")
                          else "x.csv")
        assert run_main(*args, "--out", str(out)) == 0
        config = json.loads(pathlib.Path(f"{out}.manifest.json").read_text())["config"]
        tau = config.get("tau_opt", config.get("tau"))
        if "tau_by_n" in config:
            tau = config["tau_by_n"]["1"]
        assert tau == pytest.approx(math.pi / 4, abs=1e-7)


# theta = 2 pi - eps folds to (eps, phi + pi).
_EDGE_THETAS = ("0", "pi:1", repr(2 * math.pi - 1e-9))


def _edge_cases():
    """Every subcommand at the edges of its table: N in {1, 2, 3}, theta in
    {0, pi, 2 pi - eps}, k in {0, N}, tau defaulted or 0, the smallest node
    counts, --resource epr, --n-list 1,N and --nbar below 1."""
    for n in (1, 2, 3):
        size = ("--n", str(n))
        yield ("optimal-time", *size)
        for tau in ((), ("--tau", "0")):
            yield ("squeeze", *size, *tau)
            yield ("prob-dist", *size, "--theta-nodes", "2", *tau)
            yield ("spin-sweep", *size, "--theta-nodes", "2", "--phi-nodes", "2", *tau)
            yield ("error-sweep", *size, "--theta-nodes", "2", "--phi-nodes", "2",
                   "--k-cut", "0", *tau)
            yield ("error-sweep", "--n-list", f"1,{n}", "--k-cut", "0", *tau)
            for theta in _EDGE_THETAS:
                at = (*size, "--theta", theta)
                yield ("protocol", *at, *tau)
                yield ("prob-dist", *at, *tau)
                yield ("error-sweep", *at, "--phi-nodes", "2", *tau)
                for k in ("0", str(n)):
                    yield ("spin-sweep", *at, "--k", k, "--phi-nodes", "2", *tau)
                    yield ("wigner-map", *at, "--k", k, *tau, "--theta-nodes",
                           str(2 * n + 2), "--phi-nodes", str(4 * n + 2))
        for theta in _EDGE_THETAS:
            for k in ("0", str(n)):
                yield ("wigner-map", *size, "--theta", theta, "--k", k,
                       "--resource", "epr")
    for nbar in ("0.3", "0.6", "1", "2"):
        for rule in ("highest", "lowest", "3"):
            yield ("fluctuation", "--nbar", nbar, "--rule", rule, "--theta-nodes", "3")


class TestDocumentedRange:
    """Each edge case exits 0, except a Wigner map of a branch that the
    tau = 0 resource |N, N> cannot reach.  D(0) is the identity and D(pi)
    the reversal, so Bob's branch 0 at theta = 0 and branch N at theta = pi
    are exactly zero; at theta = eps branch 0 has probability
    sin(eps/2)^(2N), below the 1e-14 cut.  Those runs exit 4 naming the
    outcome and write no file."""

    @pytest.mark.parametrize(
        "subcommand", sorted({args[0] for args in _edge_cases()}))
    def test_edges_exit_cleanly(self, tmp_path, capsys, subcommand):
        cases = [args for args in _edge_cases() if args[0] == subcommand]
        failures = []
        for i, args in enumerate(cases):
            opts = dict(zip(args[1::2], args[2::2]))
            out = tmp_path / f"{i}.out"
            code = run_main(*args, "--out", str(out))
            err = capsys.readouterr().err
            if (subcommand == "wigner-map" and opts.get("--tau") == "0"
                    and (opts["--k"] == "0") == (opts["--theta"] != "pi:1")):
                named = (f"outcome k={opts['--k']} has zero probability at "
                         f"N={opts['--n']}, theta=")
                ok = (code == 4 and named in err and not out.exists()
                      and not pathlib.Path(f"{out}.manifest.json").exists())
            else:
                ok = code == 0
            if not ok:
                failures.append((args, code, err))
        assert cases and not failures


class TestParseExamples:
    def test_optimal_time_flags(self, tmp_path):
        out = tmp_path / "opt.json"
        ns = cli.build_parser().parse_args(
            ["optimal-time", "--n", "20", "--out", str(out)])
        assert ns.subcommand == "optimal-time"
        assert cli._resolve(ns)["format"] == "json"

    def test_prob_dist_pi_theta(self, tmp_path):
        out = tmp_path / "pd.csv"
        assert run_main(
            "prob-dist", "--n", "4", "--theta", "pi:0.5", "--out", str(out)
        ) == 0
        rows = read_rows(out, "theta,k,p")
        assert len(rows) == 5
        assert all(row[0] == "1.57079632679" for row in rows)

    def test_error_sweep_rejects_large_cut(self, tmp_path, capsys):
        out = tmp_path / "es.csv"
        code = run_main(
            "error-sweep", "--n", "20", "--k-cut", "30", "--out", str(out)
        )
        assert code == 2
        assert not out.exists()
        assert "k-cut" in capsys.readouterr().err


class TestSchemas:
    def test_protocol_schema(self, tmp_path):
        out = tmp_path / "protocol.csv"
        assert run_main(
            "protocol", "--n", "6", "--tau", "0.2", "--theta", "pi:0.25",
            "--out", str(out),
        ) == 0
        rows = read_rows(out, "theta,phi,k,p,sx,sy,sz,e")
        assert len(rows) == 7
        assert [row[2] for row in rows] == [str(k) for k in range(7)]
        assert sum(float(row[3]) for row in rows) == pytest.approx(1.0, abs=1e-10)
        assert all(0.0 <= float(row[7]) <= 1.0 for row in rows)

    def test_prob_dist_equator_sums_to_one(self, tmp_path):
        out = tmp_path / "pd.csv"
        assert run_main("prob-dist", "--n", "20", "--out", str(out)) == 0
        rows = read_rows(out, "theta,k,p")
        assert len(rows) == 61 * 21
        equator = [r for r in rows if float(r[0]) == pytest.approx(math.pi / 2)]
        assert len(equator) == 21
        assert sum(float(r[2]) for r in equator) == pytest.approx(1.0, abs=1e-10)

    def test_spin_sweep_pinned_point(self, tmp_path):
        out = tmp_path / "ss.csv"
        assert run_main(
            "spin-sweep", "--n", "6", "--tau", "0.2", "--k", "6",
            "--theta", "pi:0.5", "--phi", "pi:-0.25", "--out", str(out),
        ) == 0
        rows = read_rows(out, "theta,phi,k,p,sx,sy,sz,e")
        assert len(rows) == 1
        row = rows[0]
        assert row[2] == "6"
        assert float(row[4]) == pytest.approx(-float(row[5]), abs=1e-9)

    def test_wigner_map_schema(self, tmp_path):
        out = tmp_path / "wm.csv"
        assert run_main(
            "wigner-map", "--n", "3", "--tau", "0.2", "--theta", "0.4",
            "--theta-nodes", "8", "--phi-nodes", "14", "--out", str(out),
        ) == 0
        rows = read_rows(out, "theta,phi,w")
        assert len(rows) == 8 * 14

    def test_wigner_map_json_matches_csv(self, tmp_path):
        # The CSV is written by columns, the JSON from row tuples.
        args = ("wigner-map", "--n", "3", "--tau", "0.2", "--theta", "0.4",
                "--theta-nodes", "8", "--phi-nodes", "14")
        csv_out, json_out = tmp_path / "wm.csv", tmp_path / "wm.json"
        assert run_main(*args, "--out", str(csv_out)) == 0
        assert run_main(*args, "--format", "json", "--out", str(json_out)) == 0
        payload = json.loads(json_out.read_text())
        assert payload["header"] == ["theta", "phi", "w"]
        rows = read_rows(csv_out, "theta,phi,w")
        assert payload["rows"] == [[float(cell) for cell in row] for row in rows]

    def test_error_sweep_grid_schema(self, tmp_path):
        out = tmp_path / "eg.csv"
        assert run_main(
            "error-sweep", "--n", "4", "--tau", "0.2",
            "--theta-nodes", "3", "--phi-nodes", "4", "--out", str(out),
        ) == 0
        rows = read_rows(out, "theta,phi,e")
        assert len(rows) == 12
        assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)

    def test_error_sweep_n_list_schema(self, tmp_path):
        out = tmp_path / "en.csv"
        assert run_main(
            "error-sweep", "--n-list", "4,6", "--k-cut", "0", "--out", str(out)
        ) == 0
        rows = read_rows(out, "n,theta,phi,e,e_ps,keep_p")
        assert [row[0] for row in rows] == ["4", "6"]
        for row in rows:
            assert float(row[1]) == pytest.approx(math.pi / 2)
            assert float(row[2]) == 0.0
            assert float(row[4]) < float(row[3])
            assert 0.0 < float(row[5]) <= 1.0

    def test_error_sweep_n_list_without_cut(self, tmp_path):
        out = tmp_path / "en2.csv"
        assert run_main(
            "error-sweep", "--n-list", "4,6", "--out", str(out)
        ) == 0
        read_rows(out, "n,theta,phi,e")

    def test_fluctuation_schema(self, tmp_path):
        out = tmp_path / "fl.csv"
        assert run_main(
            "fluctuation", "--nbar", "4", "--sigma0", "0.5", "--truncation", "2",
            "--tau", "0.1", "--theta-nodes", "3", "--out", str(out),
        ) == 0
        rows = read_rows(out, "theta,phi,sx,sy,sz")
        assert len(rows) == 3
        assert all(row[1] == "-0.785398163397" for row in rows)

    def test_fluctuation_skip_warning(self, tmp_path, capsys):
        out = tmp_path / "fs.csv"
        assert run_main(
            "fluctuation", "--nbar", "4", "--sigma0", "0.5", "--truncation", "2",
            "--rule", "4", "--tau", "0.1", "--theta-nodes", "2", "--out", str(out),
        ) == 0
        assert "skipped" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "fs.csv.manifest.json").read_text())
        assert manifest["config"]["skipped_terms"] > 0

    @pytest.mark.parametrize("nodes", ["3", "7"])
    def test_fluctuation_skips_counted_once(self, tmp_path, capsys, nodes):
        # The support of mean 6 is N = 0..25; rule 8 skips the 8 values
        # N_A < 8 with all 26 values of N_B, whatever the number of targets.
        out = tmp_path / "fs.csv"
        assert run_main(
            "fluctuation", "--nbar", "6", "--rule", "8", "--theta-nodes", nodes,
            "--out", str(out),
        ) == 0
        assert "skipped 208 fluctuation terms" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "fs.csv.manifest.json").read_text())
        assert manifest["config"]["skipped_terms"] == 208

    def test_squeeze_json_payload(self, tmp_path):
        out = tmp_path / "sq.json"
        assert run_main("squeeze", "--n", "4", "--tau", "0.1", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "n", "tau", "fidelity", "var_sum_x", "var_diff_y", "var_diff_z",
            "psi_re", "psi_im",
        }
        assert payload["var_diff_z"] == 0
        assert len(payload["psi_re"]) == 5

    def test_optimal_time_reference_value(self, tmp_path):
        out = tmp_path / "opt.json"
        assert run_main("optimal-time", "--n", "20", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"n", "tau_opt", "fidelity"}
        assert payload["tau_opt"] == pytest.approx(0.1214, abs=5e-4)

    def test_prob_dist_json_format(self, tmp_path):
        out = tmp_path / "pd.json"
        assert run_main(
            "prob-dist", "--n", "3", "--theta", "pi:0.5", "--format", "json",
            "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["header"] == ["theta", "k", "p"]
        assert len(payload["rows"]) == 4
        assert payload["rows"][0][0] == pytest.approx(math.pi / 2)
        # stable key order in the serialized text
        text = out.read_text()
        assert text.index('"header"') < text.index('"rows"')


class TestPhiAsBobRotation:
    """Sweeps run the protocol once per polar angle and apply phi as Bob's
    z-rotation; every row must equal a per-point evaluation."""

    N = 12
    # Folded polar angles (theta > pi), negative ones, and azimuths outside
    # [0, 2 pi) all pass through RotationSpec's reduction.
    THETAS = (0.0, 0.4, 1.1, math.pi, 4.0, -0.7)
    PHIS = (0.0, 1.3, -2.0, 7.5, 2.0 * math.pi + 0.3, 4.2)

    @pytest.fixture(scope="class")
    def resource(self):
        return squeezing_run(self.N, 0.15)

    def point_rows(self, resource, theta, phi, k_sel):
        rows = []
        for b in per_branch_protocol(resource, RotationSpec(theta, phi)):
            if k_sel is not None and b.k != k_sel:
                continue
            if not b.defined:
                rows.append((theta, phi, b.k, b.probability, None, None, None, None))
                continue
            rows.append((theta, phi, b.k, b.probability, *b.bob_spins, b.error))
        return rows

    @staticmethod
    def assert_rows_equal(rows, expected):
        assert len(rows) == len(expected)
        for row, ref in zip(rows, expected):
            assert len(row) == len(ref)
            for cell, ref_cell in zip(row, ref):
                if ref_cell is None:
                    assert cell is None
                else:
                    assert abs(cell - ref_cell) < 1e-12, (row, ref)

    @pytest.mark.parametrize("k_sel", [None, 0, 9])
    def test_branch_rows_match_per_point_protocol(self, resource, k_sel):
        for theta in self.THETAS:
            (ks, probs, szs, errors), turned = cli._branch_columns(
                resource, theta, self.PHIS, k_sel
            )
            rows = [
                (theta, phi, k, prob, *(None if math.isnan(e) else v
                                        for v in (x, y, z, e)))
                for phi, sx, sy in zip(self.PHIS, *turned)
                for k, prob, x, y, z, e in zip(ks, probs, sx, sy, szs, errors)
            ]
            expected = [
                row
                for phi in self.PHIS
                for row in self.point_rows(resource, theta, phi, k_sel)
            ]
            self.assert_rows_equal(rows, expected)

    @pytest.mark.parametrize("k_cut", [None, 0, 3])
    def test_error_rows_match_per_point_errors(self, resource, k_cut):
        # error-sweep takes each polar angle's errors once, at phi = 0.
        for theta in self.THETAS:
            values = cli._error_point(resource, theta, 0.0, k_cut)
            rows = [(theta, phi, *values) for phi in self.PHIS]
            expected = []
            for phi in self.PHIS:
                loop = per_branch_protocol(resource, RotationSpec(theta, phi))
                avg = loop_average_error(loop)
                if k_cut is None:
                    expected.append((theta, phi, avg))
                else:
                    expected.append(
                        (theta, phi, avg, *loop_postselected_error(loop, k_cut))
                    )
            self.assert_rows_equal(rows, expected)

    def test_spin_sweep_at_theta_pi_n100(self, tmp_path):
        # At N = 100 the closed-form rotation column drifts 1.2e-12 from unit
        # norm at theta = pi, past the 1e-12 check of a normalized state, so
        # the sweep must build no such column as a normalized state.
        out = tmp_path / "ss.csv"
        assert run_main(
            "spin-sweep", "--n", "100", "--theta", "pi:1", "--phi-nodes", "4",
            "--out", str(out),
        ) == 0
        rows = read_rows(out, "theta,phi,k,p,sx,sy,sz,e")
        assert len(rows) == 4 * 101
        for phi in sorted({row[1] for row in rows}):
            total = sum(float(row[3]) for row in rows if row[1] == phi)
            assert total == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= float(row[7]) <= 1.0 for row in rows if row[7] != "nan")

    def test_error_sweep_at_theta_pi_n100(self, tmp_path):
        out = tmp_path / "es.csv"
        assert run_main(
            "error-sweep", "--n", "100", "--theta", "pi:1", "--phi-nodes", "4",
            "--k-cut", "0", "--out", str(out),
        ) == 0
        rows = read_rows(out, "theta,phi,e,e_ps,keep_p")
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= float(row[2]) <= 1.0
            assert 0.0 <= float(row[3]) <= 1.0
            assert 0.0 < float(row[4]) <= 1.0


    def test_prob_dist_at_theta_pi_n1000(self, tmp_path):
        # The closed-form rotation drifted 2.6e-10 from orthogonal at
        # N = 1000, theta = pi, so this run failed the 1e-12 check on
        # sum_k P_k; the eigenbasis rotation stays orthogonal to rounding.
        out = tmp_path / "pd.csv"
        assert run_main(
            "prob-dist", "--n", "1000", "--tau", "0.5", "--theta", "pi:1",
            "--out", str(out),
        ) == 0
        rows = read_rows(out, "theta,k,p")
        assert len(rows) == 1001
        assert sum(float(row[2]) for row in rows) == pytest.approx(1.0, abs=1e-12)


class TestOnePassPerTheta:
    """Every sweep row of one polar angle comes from one protocol run, and
    the branches are array columns rather than validated states."""

    @staticmethod
    def count_calls(monkeypatch, name, *owners):
        """Wrap attribute ``name`` of every owner (the defining module and
        its importers) with one shared counter."""
        calls = []
        inner = getattr(owners[0], name)

        def counted(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_error_sweep_runs_protocol_once_per_theta(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, "branch_statistics", protocol, cli)
        assert run_main(
            "error-sweep", "--n", "20", "--k-cut", "0", "--theta-nodes", "17",
            "--phi-nodes", "17", "--out", str(tmp_path / "es.csv"),
        ) == 0
        assert len(calls) == 17

    def test_spin_sweep_row_builds_no_states(self, tmp_path, monkeypatch):
        states = self.count_calls(monkeypatch, "__post_init__", EnsembleState)
        runs = self.count_calls(monkeypatch, "branch_statistics", protocol, cli)
        assert run_main(
            "spin-sweep", "--n", "200", "--tau", "0.01", "--theta", "pi:0.3",
            "--phi-nodes", "2", "--out", str(tmp_path / "ss.csv"),
        ) == 0
        assert len(runs) == 1
        assert states == []


class TestManifest:
    def test_checksum_matches_output(self, tmp_path):
        out = tmp_path / "pd.csv"
        assert run_main(
            "prob-dist", "--n", "4", "--theta-nodes", "5", "--out", str(out)
        ) == 0
        manifest = json.loads((tmp_path / "pd.csv.manifest.json").read_text())
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["checksums"][str(out)] == digest
        assert manifest["config"]["subcommand"] == "prob-dist"
        assert manifest["config"]["n"] == 4
        assert manifest["version"]
        assert manifest["wall_time_s"] >= 0

    def test_records_resolved_grid(self, tmp_path):
        out = tmp_path / "ss.csv"
        assert run_main(
            "spin-sweep", "--n", "3", "--tau", "0.1", "--theta-nodes", "5",
            "--phi-nodes", "3", "--out", str(out),
        ) == 0
        config = json.loads((tmp_path / "ss.csv.manifest.json").read_text())["config"]
        assert config == {
            "subcommand": "spin-sweep", "out": str(out), "format": "csv",
            "n": 3, "tau": 0.1, "k": None, "theta": None, "phi": None,
            "theta_nodes": 5, "phi_nodes": 3,
        }

    def test_error_grid_rebuilds_from_manifest(self, tmp_path):
        out = tmp_path / "es.csv"
        assert run_main(
            "error-sweep", "--n", "4", "--theta-nodes", "5", "--phi-nodes", "3",
            "--out", str(out),
        ) == 0
        config = json.loads((tmp_path / "es.csv.manifest.json").read_text())["config"]
        assert (config["theta_nodes"], config["phi_nodes"]) == (5, 3)
        assert config["tau"] == pytest.approx(0.3, abs=0.2)  # the optimum for N = 4
        rows = read_rows(out, "theta,phi,e")
        assert len(rows) == config["theta_nodes"] * config["phi_nodes"]

    def test_extras_kept(self, tmp_path):
        out = tmp_path / "en.csv"
        assert run_main(
            "error-sweep", "--n-list", "4,6", "--k-cut", "0", "--out", str(out)
        ) == 0
        config = json.loads((tmp_path / "en.csv.manifest.json").read_text())["config"]
        assert config["n_list"] == [4, 6]
        assert config["theta"] == pytest.approx(math.pi / 2)
        assert config["phi"] == 0.0
        assert config["tau"] is None
        assert set(config["tau_by_n"]) == {"4", "6"}
        assert config["tau_by_n"]["4"] != config["tau_by_n"]["6"]

        out = tmp_path / "wm.csv"
        assert run_main(
            "wigner-map", "--n", "2", "--tau", "0.2", "--theta", "0.4",
            "--out", str(out),
        ) == 0
        config = json.loads((tmp_path / "wm.csv.manifest.json").read_text())["config"]
        assert (config["theta_nodes"], config["phi_nodes"]) == (121, 241)
        assert config["k"] == 2

    def test_epr_map_resolves_no_tau(self, tmp_path, monkeypatch):
        # The spin-EPR resource has no squeezing time, so none is searched
        # for, even at N = 1 where the search is undefined.  A given --tau is
        # echoed and leaves the data unchanged.
        def no_search(n):
            raise AssertionError(f"find_optimal_time({n}) called")

        monkeypatch.setattr(cli, "find_optimal_time", no_search)
        args = ("wigner-map", "--n", "1", "--resource", "epr", "--theta", "0.5",
                "--theta-nodes", "4", "--phi-nodes", "6")
        bare, timed = tmp_path / "bare.csv", tmp_path / "timed.csv"
        assert run_main(*args, "--out", str(bare)) == 0
        assert run_main(*args, "--tau", "0.3", "--out", str(timed)) == 0
        assert bare.read_bytes() == timed.read_bytes()
        for out, tau in ((bare, None), (timed, 0.3)):
            manifest = json.loads(pathlib.Path(f"{out}.manifest.json").read_text())
            assert manifest["config"]["tau"] == tau


class TestConfigFile:
    def test_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "protocol.csv"
        cfg.write_text(
            "# one protocol shot\n"
            "n = 6\n"
            "tau = 0.2\n"
            f"out = {out}\n"
            "theta = pi:0.5\n"
        )
        assert run_main("protocol", "--config", str(cfg)) == 0
        rows = read_rows(out, "theta,phi,k,p,sx,sy,sz,e")
        assert rows[0][0] == "1.57079632679"

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "protocol.csv"
        cfg.write_text(f"n = 6\ntau = 0.2\ntheta = pi:0.5\nout = {out}\n")
        assert run_main(
            "protocol", "--config", str(cfg), "--theta", "pi:1"
        ) == 0
        rows = read_rows(out, "theta,phi,k,p,sx,sy,sz,e")
        assert rows[0][0] == "3.14159265359"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\ntheta = 0.5\nzzz = 1\n")
        code = run_main(
            "protocol", "--config", str(cfg), "--tau", "0.2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "zzz" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n 6\n")
        assert run_main("protocol", "--config", str(cfg)) == 2

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert run_main(
            "protocol", "--config", str(tmp_path / "absent.cfg")
        ) == 3

    def test_check_names_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 0\n")
        assert run_main(
            "prob-dist", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
        ) == 2
        assert "config key 'n'" in capsys.readouterr().err

    def test_n_list_ignores_n(self, tmp_path):
        # The per-N optimal times must not come from the ignored --n.
        plain, with_n = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main("error-sweep", "--n-list", "4,6", "--out", str(plain)) == 0
        assert run_main(
            "error-sweep", "--n-list", "4,6", "--n", "20", "--out", str(with_n)
        ) == 0
        assert plain.read_bytes() == with_n.read_bytes()


class TestParameterTable:
    """One table per subcommand drives flags, config keys and help."""

    def test_parser_built_once(self, tmp_path):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        # A run parses through the same parser and leaves it usable.
        assert run_main("optimal-time", "--n", "4", "--out",
                        str(tmp_path / "opt.json")) == 0
        assert cli.build_parser() is parser
        ns = parser.parse_args(["prob-dist", "--n", "3", "--out", "p.csv"])
        assert (ns.subcommand, ns.n, ns.theta_nodes) == ("prob-dist", "3", None)

    RUNS = {
        "optimal-time": {"n": "6"},
        "squeeze": {"n": "4", "tau": "0.1"},
        "protocol": {"n": "6", "tau": "0.2", "theta": "pi:0.5", "phi": "0.3"},
        "prob-dist": {"n": "4", "theta-nodes": "5"},
        "spin-sweep": {
            "n": "4", "tau": "0.1", "k": "3", "theta-nodes": "3", "phi-nodes": "4",
        },
        "wigner-map": {
            "n": "3", "tau": "0.2", "theta": "0.4", "k": "2", "resource": "epr",
            "theta-nodes": "8", "phi-nodes": "14",
        },
        "error-sweep": {
            "n-list": "4,6", "k-cut": "0", "theta": "pi:0.3", "format": "json",
        },
        "fluctuation": {
            "nbar": "4", "sigma0": "0.5", "truncation": "2", "rule": "lowest",
            "tau": "0.1", "phi": "pi:0.1", "theta-nodes": "3",
        },
    }

    # Every static default, as --help must print it.
    DEFAULTS = {
        "optimal-time": {"format": "json"},
        "squeeze": {"format": "json"},
        "protocol": {"phi": "0", "format": "csv"},
        "prob-dist": {"theta-nodes": "61", "format": "csv"},
        "spin-sweep": {"theta-nodes": "61", "phi-nodes": "61", "format": "csv"},
        "wigner-map": {"phi": "0", "resource": "2a2s", "format": "csv"},
        "error-sweep": {"theta-nodes": "61", "phi-nodes": "61", "format": "csv"},
        "fluctuation": {
            "truncation": "4", "rule": "highest", "phi": "pi:-0.25",
            "theta-nodes": "61", "format": "csv",
        },
    }

    @pytest.mark.parametrize("subcommand", sorted(RUNS))
    def test_config_file_matches_flags(self, tmp_path, subcommand):
        values = self.RUNS[subcommand]
        by_flags, by_file = tmp_path / "flags.out", tmp_path / "file.out"
        flags = [part for key, value in values.items() for part in (f"--{key}", value)]
        assert run_main(subcommand, *flags, "--out", str(by_flags)) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "".join(f"{key} = {value}\n" for key, value in values.items())
            + f"out = {by_file}\n"
        )
        assert run_main(subcommand, "--config", str(cfg)) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()
        manifests = [
            json.loads(pathlib.Path(f"{path}.manifest.json").read_text())["config"]
            for path in (by_flags, by_file)
        ]
        for config in manifests:
            del config["out"]
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("subcommand", sorted(DEFAULTS))
    def test_help_shows_static_defaults(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([subcommand, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        # One entry per option; argparse wraps long help onto indented lines.
        entries = {
            entry.split()[0]: " ".join(entry.split())
            for entry in text.split("\n  -")[1:]
        }
        for key, value in self.DEFAULTS[subcommand].items():
            assert f"(default {value})" in entries[f"-{key}"], (key, entries)
        assert "(required)" in entries["-out"]

    def test_fluctuation_tau_help_names_the_clamp(self, capsys):
        # Below nbar = 1.5 the default is still N = 2's optimal time.
        with pytest.raises(SystemExit):
            cli.main(["fluctuation", "--help"])
        entries = [" ".join(entry.split())
                   for entry in capsys.readouterr().out.split("\n  -")[1:]]
        tau = next(entry for entry in entries if entry.startswith("-tau "))
        assert tau.endswith("(default: optimal for max(2, round(nbar)))"), tau

    @pytest.mark.parametrize(
        "args,flag",
        [
            (("spin-sweep", "--n", "4", "--tau", "0.1", "--theta", "0.3",
              "--phi", "inf"), "--phi"),
            (("prob-dist", "--n", "4", "--theta", "inf"), "--theta"),
            (("prob-dist", "--n", "4", "--theta", "pi:nan"), "--theta"),
            (("fluctuation", "--nbar", "nan"), "--nbar"),
            (("fluctuation", "--nbar", "4", "--truncation", "inf"), "--truncation"),
            (("fluctuation", "--nbar", "4", "--sigma0", "inf"), "--sigma0"),
            (("protocol", "--n", "4", "--tau=-inf", "--theta", "0.3"), "--tau"),
        ],
    )
    def test_non_finite_rejected(self, tmp_path, capsys, args, flag):
        out = tmp_path / "x.csv"
        assert run_main(*args, "--out", str(out)) == 2
        assert not out.exists()
        assert not (tmp_path / "x.csv.manifest.json").exists()
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,flag",
        [
            (("fluctuation", "--nbar", "1e308"), "--nbar"),
            (("fluctuation", "--nbar", "1e10"), "--nbar"),
            (("spin-sweep", "--n", str(10**10), "--tau", "0.1"), "--n"),
            (("error-sweep", "--n-list", f"4,{10**10}", "--tau", "0.1"), "--n-list"),
        ],
    )
    def test_unaddressable_size_rejected(self, tmp_path, capsys, args, flag):
        # An (N+1) x (N+1) complex matrix past the largest index numpy can
        # address is a usage error, raised before anything is allocated.
        out = tmp_path / "x.csv"
        assert run_main(*args, "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag}: expected at most ")


class TestExitCodes:
    def test_missing_required_flag(self, tmp_path):
        assert run_main("protocol", "--n", "6", "--out", str(tmp_path / "x.csv")) == 2

    def test_missing_output_path(self):
        assert run_main("protocol", "--n", "6", "--theta", "0.5") == 2

    def test_json_only_subcommands(self, tmp_path):
        assert run_main(
            "optimal-time", "--n", "4", "--format", "csv",
            "--out", str(tmp_path / "x.csv"),
        ) == 2
        assert run_main(
            "squeeze", "--n", "4", "--format", "csv",
            "--out", str(tmp_path / "x.csv"),
        ) == 2

    def test_invalid_node_counts(self, tmp_path):
        assert run_main(
            "prob-dist", "--n", "4", "--theta-nodes", "1",
            "--out", str(tmp_path / "x.csv"),
        ) == 2

    def test_spin_sweep_outcome_out_of_range(self, tmp_path):
        assert run_main(
            "spin-sweep", "--n", "4", "--tau", "0.1", "--k", "9",
            "--out", str(tmp_path / "x.csv"),
        ) == 2

    def test_wigner_map_node_bound(self, tmp_path):
        assert run_main(
            "wigner-map", "--n", "6", "--tau", "0.1", "--theta", "0.4",
            "--theta-nodes", "10", "--out", str(tmp_path / "x.csv"),
        ) == 2

    def test_wigner_map_bad_resource(self, tmp_path):
        assert run_main(
            "wigner-map", "--n", "4", "--tau", "0.1", "--theta", "0.4",
            "--resource", "bogus", "--out", str(tmp_path / "x.csv"),
        ) == 2

    def test_wigner_map_undefined_branch(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_main(
            "wigner-map", "--n", "4", "--tau", "0", "--theta", "0", "--k", "0",
            "--out", str(out),
        )
        assert code == 4
        assert not out.exists()
        assert "zero probability" in capsys.readouterr().err

    def test_numerical_error_from_library(self, tmp_path, capsys,
                                          failing_eigensolver):
        out = tmp_path / "ss.csv"
        code = run_main(
            "spin-sweep", "--n", "6", "--tau", "0.1", "--theta", "0.4",
            "--out", str(out),
        )
        assert code == 4
        assert not out.exists()
        assert not (tmp_path / "ss.csv.manifest.json").exists()
        assert "eigensolver failed" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path):
        code = run_main(
            "prob-dist", "--n", "3", "--theta", "0.5",
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
        )
        assert code == 3

    def test_unknown_flag_is_usage_error(self):
        result = run_process("protocol", "--bogus", "1")
        assert result.returncode == 2

    def test_negative_n(self, tmp_path):
        assert run_main(
            "prob-dist", "--n", "0", "--out", str(tmp_path / "x.csv")
        ) == 2

    def test_negative_tau(self, tmp_path):
        assert run_main(
            "protocol", "--n", "4", "--tau", "-0.5", "--theta", "0.4",
            "--out", str(tmp_path / "x.csv"),
        ) == 2

    def test_fluctuation_bad_nbar(self, tmp_path):
        assert run_main(
            "fluctuation", "--nbar", "-3", "--out", str(tmp_path / "x.csv")
        ) == 2


class TestDeterminism:
    def test_repeat_run_identical_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["protocol", "--n", "8", "--tau", "0.15", "--theta", "1.1",
                "--phi", "2.2"]
        assert run_main(*args, "--out", str(out1)) == 0
        assert run_main(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_subprocess_determinism(self, tmp_path):
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        r1 = run_process("optimal-time", "--n", "12", "--out", str(out1))
        r2 = run_process("optimal-time", "--n", "12", "--out", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestGoldenFixtures:
    """Committed sweep outputs regenerate within 1e-9 per value; the
    squeeze, wigner-map, error-sweep and fluctuation fixtures regenerate
    byte for byte."""

    @pytest.mark.parametrize(
        "fixture,args",
        [
            (
                "prob_dist_n20.csv",
                ["prob-dist", "--n", "20"],
            ),
            (
                "spin_slice_k20_n20.csv",
                ["spin-sweep", "--n", "20", "--k", "20", "--phi", "pi:-0.25"],
            ),
            (
                "spin_slice_k0_n20.csv",
                ["spin-sweep", "--n", "20", "--k", "0", "--phi", "pi:-0.25"],
            ),
            (
                "error_vs_n_kcut0.csv",
                ["error-sweep", "--n-list", "10,20,30", "--k-cut", "0"],
            ),
            (
                "fluctuation_nbar20.csv",
                ["fluctuation", "--nbar", "20", "--theta-nodes", "13"],
            ),
        ],
    )
    def test_regenerates(self, tmp_path, fixture, args):
        golden = pathlib.Path(__file__).parent / "fixtures" / fixture
        out = tmp_path / fixture
        assert run_main(*args, "--out", str(out)) == 0
        fresh_lines = out.read_text().splitlines()
        golden_lines = golden.read_text().splitlines()
        assert fresh_lines[0] == golden_lines[0]
        assert len(fresh_lines) == len(golden_lines)
        for fresh, gold in zip(fresh_lines[1:], golden_lines[1:]):
            for new_cell, old_cell in zip(fresh.split(","), gold.split(",")):
                if new_cell == old_cell:
                    continue
                assert float(new_cell) == pytest.approx(
                    float(old_cell), abs=1e-9
                )

    @pytest.mark.parametrize(
        "fixture,args",
        [
            ("error_vs_n_kcut0.csv",
             ["error-sweep", "--n-list", "10,20,30", "--k-cut", "0"]),
            ("fluctuation_nbar20.csv",
             ["fluctuation", "--nbar", "20", "--theta-nodes", "13"]),
            ("error_grid_n12_kcut1.csv",
             ["error-sweep", "--n", "12", "--k-cut", "1", "--theta-nodes", "7",
              "--phi-nodes", "3"]),
            ("wigner_map_n10_k9.csv",
             ["wigner-map", "--n", "10", "--theta", "0.5", "--k", "9",
              "--theta-nodes", "22", "--phi-nodes", "42"]),
            ("squeeze_n12_tau0.2.json",
             ["squeeze", "--n", "12", "--tau", "0.2"]),
        ],
        ids=["error-vs-n", "fluctuation", "error-grid", "wigner-map", "squeeze"],
    )
    def test_regenerates_bytes(self, tmp_path, fixture, args):
        golden = pathlib.Path(__file__).parent / "fixtures" / fixture
        out = tmp_path / fixture
        assert run_main(*args, "--out", str(out)) == 0
        assert out.read_bytes() == golden.read_bytes()
