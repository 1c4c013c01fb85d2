"""Tests for the command-line front end and its exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from eqm_lab.cli import main
from eqm_lab.hilbert import SIGMA_X, SIGMA_Z, matrix_to_pairs

SX = matrix_to_pairs(SIGMA_X)
SZ = matrix_to_pairs(SIGMA_Z)
PLUS_VEC = [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]
GOLDEN = Path(__file__).resolve().parent.parent / "out"


@pytest.fixture
def rabi_config(tmp_path):
    doc = {
        "id": "rabi-cli",
        "dimension": 2,
        "hamiltonian": {"type": "linear", "A": SZ},
        "initial": {"state_vector": PLUS_VEC},
        "observables": [{"type": "constant", "A": SX}],
        "integrator": {"dt": 1e-3, "t_final": 0.2, "record_stride": 20},
        "outputs": ["trajectory", "invariants", "conservation"],
    }
    path = tmp_path / "rabi.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def koopman_config(tmp_path):
    doc = {
        "id": "koopman-cli",
        "outputs": ["koopman"],
        "koopman": {
            "flow": {"type": "harmonic", "omega": 1.0},
            "observables": [{"name": "gaussian", "center": [0.3, 0.0], "width": 0.9}],
            "times": [0.5],
            "points": [[0.5, 0.0]],
        },
    }
    path = tmp_path / "koopman.json"
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_happy_path(self, rabi_config, tmp_path, capsys):
        code = main(["run", str(rabi_config), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "rabi-cli" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "rabi-cli" / "report.txt").exists()
        assert "PASS" in capsys.readouterr().out

    def test_quiet_suppresses_report(self, rabi_config, tmp_path, capsys):
        code = main(["run", str(rabi_config), "--out-dir", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_dt_override(self, rabi_config, tmp_path):
        code = main(["run", str(rabi_config), "--out-dir", str(tmp_path / "out"),
                     "--dt", "0.01"])
        assert code == 0
        text = (tmp_path / "out" / "rabi-cli" / "trajectory.csv").read_text()
        assert text.splitlines()[2].startswith("0.2")  # stride 20 at overridden dt 0.01

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_document_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_non_hermitian_literal_rejected_before_running(self, tmp_path, capsys):
        doc = {
            "id": "bad-matrix",
            "dimension": 2,
            "hamiltonian": {"type": "linear",
                            "A": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            "initial": {"state_vector": PLUS_VEC},
            "integrator": {"dt": 1e-3, "t_final": 0.1},
            "outputs": ["invariants"],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "hamiltonian.A" in err and "Hermitian" in err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_exits_one_with_scenario_id(self, tmp_path, capsys):
        doc = {
            "id": "too-coarse",
            "dimension": 2,
            "hamiltonian": {"type": "mean_field", "A": SX, "B": SZ, "lambda": 1.0},
            "initial": {"density_matrix": matrix_to_pairs(np.diag([1.0, 0.0]))},
            "integrator": {"dt": 3.0, "t_final": 6.0},
            "outputs": ["invariants"],
        }
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "too-coarse" in err and "did not settle" in err


class TestKoopmanCommand:
    def test_runs_diagnostics(self, koopman_config, tmp_path, capsys):
        code = main(["koopman", str(koopman_config), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "koopman-cli" / "report.txt").exists()
        assert "koopman_unitarity" in capsys.readouterr().out

    def test_requires_section(self, rabi_config, tmp_path, capsys):
        assert main(["koopman", str(rabi_config), "--out-dir", str(tmp_path / "out")]) == 1
        assert "no koopman section" in capsys.readouterr().err


class TestSuite:
    def test_fresh_checkout_passes(self, tmp_path, capsys):
        # The shipped corpus must be green end to end.
        code = main(["suite", "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
        assert (tmp_path / "out" / "suite_report.txt").exists()
        assert (tmp_path / "out" / "wigner-contrast" / "report.txt").exists()
        # The committed out/ tree is the golden copy of the trajectory tables.
        for scenario in ("linear-qubit", "mean-field-qubit"):
            written = (tmp_path / "out" / scenario / "trajectory.csv").read_bytes()
            assert written == (GOLDEN / scenario / "trajectory.csv").read_bytes(), scenario

    def test_dt_override_skips_scenarios_without_integrator(self, tmp_path, capsys):
        # The Koopman scenarios have no integrator section; --dt applies to the rest.
        code = main(["suite", "--dt", "0.01", "--out-dir", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = (tmp_path / "out" / "suite_report.txt").read_text().splitlines()
        rows = report[2:-1]
        assert rows and all(line.endswith(" PASS") for line in rows)
        assert report[-1] == f"{len(rows)}/{len(rows)} checks passed"
        assert (tmp_path / "out" / "koopman-pendulum" / "report.txt").exists()
