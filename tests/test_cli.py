"""Tests for the command-line front end and its exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eqm_lab
from eqm_lab import flow, koopman, runner
from eqm_lab.cli import _build_parser, main
from eqm_lab.hamiltonians import HamiltonianFunction
from eqm_lab.hilbert import SIGMA_X, SIGMA_Z
from conftest import matrix_to_pairs

SX = matrix_to_pairs(SIGMA_X)
SZ = matrix_to_pairs(SIGMA_Z)
PLUS_VEC = [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]
GOLDEN = Path(__file__).resolve().parent.parent / "out"
CORPUS = Path(eqm_lab.__file__).resolve().parent / "corpus"


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

    def test_observables_must_be_an_array(self, rabi_config, tmp_path, capsys):
        doc = json.loads(rabi_config.read_text())
        doc["observables"] = 5
        rabi_config.write_text(json.dumps(doc))
        assert main(["run", str(rabi_config), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: observables: expected an array, got int\n"

    @pytest.mark.parametrize("relative", [False, True])
    def test_id_cannot_leave_the_out_dir(self, rabi_config, tmp_path, capsys, relative):
        escaped = tmp_path / "escaped"
        doc = json.loads(rabi_config.read_text())
        doc["id"] = "../escaped" if relative else str(escaped)
        rabi_config.write_text(json.dumps(doc))
        assert main(["run", str(rabi_config), "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: id: must name one directory" in capsys.readouterr().err
        assert not escaped.exists() and not (tmp_path / "out").exists()

    def test_misspelt_key_is_config_error(self, tmp_path, capsys):
        doc = json.loads((CORPUS / "01-linear-qubit.json").read_text())
        doc["integrator"]["recordstride"] = doc["integrator"].pop("record_stride")
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: integrator.recordstride: unknown field\n"
        assert not (tmp_path / "out").exists()

    def test_midpoint_key_of_a_split_scenario_is_config_error(self, tmp_path, capsys):
        doc = json.loads((CORPUS / "02-mean-field-qubit.json").read_text())
        doc["integrator"]["midpoint_tol"] = 1e-10
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("config error: integrator.midpoint_tol: not used: this "
                                           "mean field takes its split step, which has no "
                                           "midpoint iteration\n")
        assert not (tmp_path / "out").exists()

    def test_key_of_another_type_is_config_error(self, koopman_config, tmp_path, capsys):
        doc = json.loads(koopman_config.read_text())
        doc["koopman"]["flow"] = {"type": "pendulum", "omega": 7.0}
        koopman_config.write_text(json.dumps(doc))
        assert main(["koopman", str(koopman_config), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("config error: koopman.flow.omega: "
                                           "unknown field for type 'pendulum'\n")

    def test_fractionless_dimension_runs(self, rabi_config, tmp_path):
        doc = json.loads(rabi_config.read_text())
        doc["dimension"] = 2.0
        rabi_config.write_text(json.dumps(doc))
        assert main(["run", str(rabi_config), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 0
        assert (tmp_path / "out" / "rabi-cli" / "trajectory.csv").exists()

    def test_mixed_wigner_pair_is_config_error_before_any_step(self, rabi_config, tmp_path,
                                                               capsys, monkeypatch):
        def no_steps(*args):
            raise AssertionError("a flow was integrated")

        monkeypatch.setattr(flow, "_steps", no_steps)
        doc = json.loads(rabi_config.read_text())
        doc.update(outputs=["wigner"],
                   wigner_pair={"density_matrix": matrix_to_pairs(np.eye(2) / 2)})
        rabi_config.write_text(json.dumps(doc))
        assert main(["run", str(rabi_config), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: wigner_pair: ")
        assert not (tmp_path / "out").exists()

    def test_unwritable_out_dir_exits_one(self, rabi_config, tmp_path, capsys):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        assert main(["run", str(rabi_config), "--out-dir", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err

    def test_runtime_failure_exits_one_with_scenario_id(self, tmp_path, capsys):
        doc = {
            "id": "too-coarse",
            "dimension": 2,
            # The mean field Tr(rho A) + Tr(rho B)^2 / 2 as a polynomial, which
            # takes the midpoint rule on a run of any length.
            "hamiltonian": {"type": "polynomial", "terms": [
                {"coefficient": 1.0, "factors": [SX]},
                {"coefficient": 0.5, "factors": [SZ, SZ]}]},
            "initial": {"density_matrix": matrix_to_pairs(np.diag([1.0, 0.0]))},
            "integrator": {"dt": 3.0, "t_final": 6.0},
            "outputs": ["invariants"],
        }
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "too-coarse" in err and "did not settle" in err


UNCOUNTABLE = [
    ("run", "02-mean-field-qubit.json",
     lambda doc: doc.update(integrator={"dt": 1e-320, "t_final": 1.0}),
     "scenario 'mean-field-qubit': a span of 1 holds too many steps of dt = 9.99989e-321 "
     "to count"),
]


@pytest.mark.parametrize("command, name, edit, message", UNCOUNTABLE,
                         ids=[case[0] for case in UNCOUNTABLE])
def test_uncountable_span_exits_one_with_scenario_id(command, name, edit, message, tmp_path,
                                                     capsys):
    # span / dt overflows to inf, so no step count exists.
    doc = json.loads((CORPUS / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    assert main([command, str(path), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_huge_conservation_time_exits_one_within_seconds(tmp_path):
    # The conservation leg to t = 1e300 records only its endpoint, so no
    # record allocation stops its 1e303 steps; the step bound does.  A
    # subprocess with a timeout makes a regression fail instead of hang.
    doc = json.loads((CORPUS / "01-linear-qubit.json").read_text())
    doc["conservation_times"] = [1e300]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    src = str(Path(eqm_lab.__file__).resolve().parent.parent)
    path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    result = subprocess.run([sys.executable, "-m", "eqm_lab.cli", "run", str(path),
                             "--out-dir", str(tmp_path / "out"), "--quiet"],
                            capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 1
    assert result.stderr == ("error: scenario 'linear-qubit': a span of 1e+300 at dt = 0.001 "
                             "takes 1e+303 steps, more than MAX_STEPS = 2**53\n")
    assert not (tmp_path / "out").exists()


def _rule_rotation_rate():
    """2 omega sqrt(m) at g = 1, largest over the default rule's rotating nodes."""
    quad = koopman.Quadrature.gauss_legendre()
    m = np.sin(quad.q / 2) ** 2 + quad.p ** 2 / 4
    return 2 * float(np.sqrt(m.max()))


@pytest.mark.parametrize("g, message", [
    (4.0, "omega * t overflows: omega = sqrt(|g|) = 2, t = 1e+308"),
    (1.0, f"rotation rate * t overflows: rate = {_rule_rotation_rate():g}, t = 1e+308"),
], ids=["omega", "rotation"])
def test_overflowing_pendulum_span_exits_one_with_scenario_id(g, message, tmp_path, capsys):
    # The closed form needs no step count, so a span of 1e305 finishes; only
    # a phase that overflows a float is refused.
    doc = json.loads((CORPUS / "08-koopman-pendulum.json").read_text())
    doc["koopman"].update(flow={"type": "pendulum", "g": g}, times=[1e308])
    path = tmp_path / "pendulum.json"
    path.write_text(json.dumps(doc))
    assert main(["koopman", str(path), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: scenario 'koopman-pendulum': {message}\n"
    assert not (tmp_path / "out").exists()


class TestParser:
    @pytest.mark.parametrize("argv", [["run", "c.json"], ["suite"], ["koopman", "c.json"]])
    def test_every_command_takes_out_dir_and_quiet(self, argv):
        parser = _build_parser()
        args = parser.parse_args(argv)
        assert (args.out_dir, args.quiet) == (Path("out"), False)
        args = parser.parse_args(argv + ["--out-dir", "elsewhere", "--quiet"])
        assert (args.out_dir, args.quiet) == (Path("elsewhere"), True)

    @pytest.mark.parametrize("argv, takes_dt", [(["run", "c.json"], True), (["suite"], True),
                                                (["koopman", "c.json"], False)])
    def test_only_flow_commands_take_dt(self, argv, takes_dt, capsys):
        parser = _build_parser()
        if takes_dt:
            assert parser.parse_args(argv).dt is None
            assert parser.parse_args(argv + ["--dt", "0.01"]).dt == 0.01
        else:
            with pytest.raises(SystemExit) as err:
                parser.parse_args(argv + ["--dt", "0.01"])
            assert err.value.code == 2


class TestKoopmanCommand:
    def test_runs_diagnostics(self, koopman_config, tmp_path, capsys):
        code = main(["koopman", str(koopman_config), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "koopman-cli" / "report.txt").exists()
        assert "koopman_unitarity" in capsys.readouterr().out

    def test_requires_section(self, rabi_config, tmp_path, capsys):
        assert main(["koopman", str(rabi_config), "--out-dir", str(tmp_path / "out")]) == 1
        assert "no koopman section" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "koopman"])
    def test_generator_dt_out_of_range_is_config_error(self, command, tmp_path, capsys):
        doc = {
            "id": "koopman-coarse",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "harmonic", "omega": 1.0},
                "observables": [{"name": "q"}],
                "times": [0.5],
                "generator_dt": 0.01,
            },
        }
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "koopman.generator_dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_quadrature_order_past_max_order_is_config_error(self, tmp_path, capsys, monkeypatch):
        def unbuilt(n):
            raise AssertionError(f"leggauss({n}) was called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", unbuilt)
        doc = {
            "id": "koopman-fine",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "pendulum"},
                "observables": [{"name": "q"}],
                "times": [0.5],
                "quadrature": {"order": 10**9},
            },
        }
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(doc))
        assert main(["koopman", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: koopman.quadrature.order: ")
        assert not (tmp_path / "out").exists()


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
        # The committed out/ tree is the golden copy of every file the suite writes.
        golden = sorted(p.relative_to(GOLDEN) for p in GOLDEN.rglob("*") if p.is_file())
        written = sorted(p.relative_to(tmp_path / "out")
                         for p in (tmp_path / "out").rglob("*") if p.is_file())
        assert len(golden) == 11 and written == golden
        for name in golden:
            assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_unwritable_out_dir_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        assert main(["suite", "--out-dir", str(blocker), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err

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

    def test_failing_scenario_is_reported_and_the_suite_runs_on(self, tmp_path, capsys,
                                                                 monkeypatch):
        clean, failing = tmp_path / "clean", tmp_path / "failing"
        assert main(["suite", "--dt", "0.01", "--out-dir", str(clean), "--quiet"]) == 0
        build = runner.build_config

        def injected(doc):
            # gauge-shift, third of eight, gets a generator that gives NaN.
            cfg = build(doc)
            if cfg.scenario_id != "gauge-shift":
                return cfg
            h = cfg.hamiltonian
            return replace(cfg, hamiltonian=HamiltonianFunction(
                h.value, generator=lambda m: h.generator(m) * np.nan, label="broken"))

        monkeypatch.setattr(runner, "build_config", injected)
        capsys.readouterr()
        assert main(["suite", "--dt", "0.01", "--out-dir", str(failing), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # The cross-checks run the same gauge-shift config, and fail with it.
        assert captured.err == ("error: scenario 'gauge-shift': generator of 'broken' gave a "
                                "non-finite matrix at step 1, t = 0 to 0.01\n"
                                "error: suite cross-checks: generator of 'broken' gave a "
                                "non-finite matrix at step 1, t = 0 to 0.01\n")
        # Every other scenario writes the same bytes as without the failure.
        written = sorted(p.relative_to(clean) for p in clean.rglob("*") if p.is_file())
        assert sorted(p.relative_to(failing) for p in failing.rglob("*") if p.is_file()) == written
        for name in written:
            if name.parts[0] not in ("gauge-shift", "suite_report.txt"):
                assert (failing / name).read_bytes() == (clean / name).read_bytes(), name
        # The report holds one FAIL row in place of the scenario's rows, one in
        # place of the cross-checks' rows, and counts them.
        fail_row, suite_row = (runner.render_report(
            [runner.ReportRow(sid, "scenario_error", 1.0, 0.0)]).splitlines()[2]
            for sid in ("gauge-shift", "suite"))
        assert fail_row.endswith(" FAIL") and suite_row.endswith(" FAIL")
        assert (failing / "gauge-shift" / "report.txt").read_text().splitlines()[2:] == [
            fail_row, "0/1 checks passed"]
        rows = (clean / "suite_report.txt").read_text().splitlines()[2:-1]
        first = next(i for i, row in enumerate(rows) if row.startswith("gauge-shift "))
        replaced = ("gauge-shift ", "suite ")
        expected = [*rows[:first], fail_row,
                    *(row for row in rows[first:] if not row.startswith(replaced)), suite_row]
        report = (failing / "suite_report.txt").read_text().splitlines()
        assert report[2:-1] == expected
        assert report[-1] == f"{len(expected) - 2}/{len(expected)} checks passed"

    def test_failing_cross_checks_are_reported(self, tmp_path, capsys):
        # No step count of dt = 1e-320 fits in a float: every flow scenario
        # and the cross-checks fail, and the Koopman scenarios, which have no
        # integrator, run and pass.
        out = tmp_path / "out"
        assert main(["suite", "--dt", "1e-320", "--out-dir", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        flows = [doc["id"] for doc in runner.corpus_documents() if "integrator" in doc]
        assert len(flows) == 6 and len(err) == 7
        assert err[-1] == ("error: suite cross-checks: a span of 1 holds too many steps of "
                           "dt = 9.99989e-321 to count")
        rows = (out / "suite_report.txt").read_text().splitlines()[2:-1]
        failed = [row for row in rows if row.endswith(" FAIL")]
        assert [row.split()[:2] for row in failed] == [[sid, "scenario_error"]
                                                       for sid in [*flows, "suite"]]
        passed = [row for row in rows if not row.endswith(" FAIL")]
        assert passed and all(row.startswith("koopman-") and row.endswith(" PASS")
                              for row in passed)
