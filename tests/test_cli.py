"""Command-line driver: parsing, schemas, determinism, exit codes."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import spinrsp.cli as cli
import spinrsp.protocol as protocol
from oracles import loop_average_error, loop_postselected_error, per_branch_protocol
from spinrsp.collective_spin import EnsembleState, RotationSpec
from spinrsp.squeezing import DiagonalPairState, squeezing_run


def run_main(*args) -> int:
    return cli.main(list(args))


def run_process(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "spinrsp.cli", *args],
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
        assert cli._fmt(None) == "nan"
        assert cli._fmt(float("nan")) == "nan"
        assert cli._fmt(np.int64(3)) == "3"
        assert cli._fmt(0.5) == "0.5"
        assert cli._fmt(math.pi / 2) == "1.57079632679"


class TestRendering:
    def test_undefined_cells_in_csv(self):
        resource = DiagonalPairState(
            2, np.array([0.0, 1.0, 0.0], dtype=complex), frame_rotated=True
        )
        rows = cli._branch_rows(resource, 0.0, [0.0], None)
        text = cli._render(
            ("theta", "phi", "k", "p", "sx", "sy", "sz", "e"), rows, "csv"
        )
        lines = text.splitlines()
        assert lines[1] == "0,0,0,0,nan,nan,nan,nan"
        assert lines[2].startswith("0,0,1,1,")
        assert lines[3] == "0,0,2,0,nan,nan,nan,nan"

    def test_undefined_cells_in_json(self):
        resource = DiagonalPairState(
            2, np.array([0.0, 1.0, 0.0], dtype=complex), frame_rotated=True
        )
        rows = cli._branch_rows(resource, 0.0, [0.0], None)
        payload = json.loads(
            cli._render(("theta", "phi", "k", "p", "sx", "sy", "sz", "e"), rows, "json")
        )
        assert payload["header"] == ["theta", "phi", "k", "p", "sx", "sy", "sz", "e"]
        assert payload["rows"][0][4:] == [None, None, None, None]

    def test_empty_rows_rejected(self):
        from spinrsp.errors import DomainError

        with pytest.raises(DomainError):
            cli._render(("a",), [], "csv")


class TestParseExamples:
    def test_optimal_time_flags(self, tmp_path):
        out = tmp_path / "opt.json"
        config = cli.parse_config(["optimal-time", "--n", "20", "--out", str(out)])
        assert config.subcommand == "optimal-time"
        assert config.fmt == "json"

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
        return squeezing_run(self.N, 0.15).state

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
            rows = cli._branch_rows(resource, theta, self.PHIS, k_sel)
            expected = [
                row
                for phi in self.PHIS
                for row in self.point_rows(resource, theta, phi, k_sel)
            ]
            self.assert_rows_equal(rows, expected)

    @pytest.mark.parametrize("k_cut", [None, 0, 3])
    def test_error_rows_match_per_point_errors(self, resource, k_cut):
        for theta in self.THETAS:
            rows = cli._error_rows(resource, theta, self.PHIS, k_cut)
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
        calls = self.count_calls(monkeypatch, "run_protocol", protocol, cli)
        assert run_main(
            "error-sweep", "--n", "20", "--k-cut", "0", "--theta-nodes", "17",
            "--phi-nodes", "17", "--out", str(tmp_path / "es.csv"),
        ) == 0
        assert len(calls) == 17

    def test_spin_sweep_row_builds_no_states(self, tmp_path, monkeypatch):
        states = self.count_calls(monkeypatch, "__post_init__", EnsembleState)
        runs = self.count_calls(monkeypatch, "run_protocol", protocol, cli)
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

    def test_numerical_error_from_library(self, tmp_path):
        out = tmp_path / "opt.json"
        code = run_main("optimal-time", "--n", "1", "--out", str(out))
        assert code == 4
        assert not out.exists()
        assert not (tmp_path / "opt.json.manifest.json").exists()

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
    """Committed sweep outputs regenerate within 1e-9 per value."""

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
        ],
    )
    def test_regenerates(self, tmp_path, fixture, args):
        import pathlib

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
