"""Tests for scenario execution, CSV emission, and report semantics."""

import ast
import importlib
import inspect
import json
import math
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eqm_lab
from eqm_lab import flow, hilbert, observables
from eqm_lab.config import (DEFAULT_THRESHOLDS, SPLIT_MAX_DIM, SPLIT_MAX_STEPS, build_config,
                            with_dt)
from eqm_lab.hamiltonians import HamiltonianFunction
from eqm_lab.observables import conservation_residuals
from eqm_lab.runner import (
    ReportRow,
    ScenarioError,
    _suite_cross_checks,
    corpus_documents,
    four_level_ops,
    koopman_only,
    render_report,
    run_scenario,
    run_suite,
    write_outputs,
)
from eqm_lab.hilbert import SIGMA_X, SIGMA_Z
from conftest import matrix_to_pairs

SX = matrix_to_pairs(SIGMA_X)
SZ = matrix_to_pairs(SIGMA_Z)
PLUS_VEC = [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]


def rabi_doc(**overrides):
    doc = {
        "id": "rabi",
        "dimension": 2,
        "hamiltonian": {"type": "linear", "A": SZ},
        "initial": {"state_vector": PLUS_VEC},
        "observables": [{"type": "constant", "A": SX}],
        "integrator": {"dt": 1e-3, "t_final": 1.0, "record_stride": 100},
        "outputs": ["trajectory", "invariants", "conservation"],
        "conservation_times": [0.5],
    }
    doc.update(overrides)
    return doc


def on_the_midpoint(cfg):
    """cfg with its mean field stepped by the midpoint rule, as a run too long to split is."""
    return replace(cfg, hamiltonian=replace(cfg.hamiltonian, split=None))


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestRunScenario:
    def test_rabi_trajectory_matches_analytic_curve(self):
        tables, rows = run_scenario(build_config(rabi_doc()))
        names = dict(tables)
        header, data = parse_csv(names["trajectory.csv"])
        t_col = header.index("t")
        x_col = header.index("expval_constant[0]")
        for row in data:
            assert row[x_col] == pytest.approx(math.cos(2 * row[t_col]), abs=1e-8)

    def test_trajectory_header_and_stride(self):
        tables, _ = run_scenario(build_config(rabi_doc()))
        header, data = parse_csv(dict(tables)["trajectory.csv"])
        assert header[:3] == ["t", "rho_0_0_re", "rho_0_0_im"]
        assert "purity" in header
        times = [row[0] for row in data]
        assert times[0] == 0.0 and times[-1] == 1.0
        steps = [round(b - a, 12) for a, b in zip(times, times[1:])]
        assert all(s == 0.1 for s in steps)  # record_stride * dt

    def test_report_rows_all_pass(self):
        _, rows = run_scenario(build_config(rabi_doc()))
        assert rows and all(r.passed for r in rows)
        checks = {r.check for r in rows}
        assert {"unitarity", "cocycle", "spectrum_drift", "trace", "purity_drift"} <= checks
        assert any(c.startswith("conservation[") for c in checks)

    def test_byte_identical_reruns(self):
        doc = rabi_doc()
        first, _ = run_scenario(build_config(doc))
        second, _ = run_scenario(build_config(doc))
        assert first == second

    def test_cocycle_export(self):
        tables, _ = run_scenario(build_config(rabi_doc(export_cocycle=True)))
        names = dict(tables)
        header, data = parse_csv(names["cocycle.csv"])
        assert header[:3] == ["t", "u_0_0_re", "u_0_0_im"]
        # u(0) is the identity
        assert data[0][header.index("u_0_0_re")] == 1.0
        assert data[0][header.index("u_0_1_re")] == 0.0

    def test_wigner_row_uses_expected_violation_semantics(self):
        doc = rabi_doc(
            id="wigner-demo",
            hamiltonian={"type": "mean_field",
                         "A": matrix_to_pairs(np.zeros((2, 2))), "B": SZ, "lambda": 1.0},
            initial={"state_vector": [[math.cos(0.1), 0.0], [math.sin(0.1), 0.0]]},
            wigner_pair={"state_vector": PLUS_VEC},
            integrator={"dt": 1e-3, "t_final": 2.0, "record_stride": 1},
            outputs=["wigner"],
        )
        _, rows = run_scenario(build_config(doc))
        (row,) = rows
        assert row.mode == "min"
        assert row.value >= row.threshold
        assert row.passed

    def test_nonconvergence_is_annotated_with_scenario_id(self):
        mean_field_doc = next(d for d in corpus_documents() if d["id"] == "mean-field-qubit")
        cfg = on_the_midpoint(with_dt(build_config(mean_field_doc), 3.0))
        with pytest.raises(ScenarioError, match="mean-field-qubit.*did not settle"):
            run_scenario(cfg)

    def test_astronomical_step_count_is_annotated_with_scenario_id(self):
        # dt = 1e-300 asks for 5e300 steps; the evolve stacks cannot hold its
        # records, so the scenario fails at once instead of running forever.
        mean_field_doc = next(d for d in corpus_documents() if d["id"] == "mean-field-qubit")
        cfg = with_dt(build_config(mean_field_doc), 1e-300)
        with pytest.raises(ScenarioError, match=r"^scenario 'mean-field-qubit': a span of 5 at "
                                                r"dt = 1e-300 gives 1e\+299 records, too many"):
            run_scenario(cfg)

    def test_measure_initial_conservation_rows_per_point(self):
        doc = rabi_doc(
            initial={"measure": {"support": [matrix_to_pairs(np.diag([1.0, 0.0])),
                                             matrix_to_pairs(np.eye(2) / 2)],
                                 "weights": [0.5, 0.5]}},
            outputs=["conservation"],
        )
        _, rows = run_scenario(build_config(doc))
        assert len(rows) == 2  # one observable, one time, two support points
        assert all(r.passed for r in rows)


class TestOneForwardRun:
    @staticmethod
    def _count_steps(monkeypatch):
        counts = []
        kernel = flow._steps

        def counted(*args):
            counts.append(0)
            for step in kernel(*args):
                counts[-1] += 1
                yield step

        monkeypatch.setattr(flow, "_steps", counted)
        return counts

    def test_mean_field_qubit_integrates_forward_once(self, monkeypatch):
        # dt = 0.01: the 500-step evolve records every 0.5, which holds every
        # grid time, so only the backward runs (50 + 100 + 200 + 500) remain.
        doc = next(d for d in corpus_documents() if d["id"] == "mean-field-qubit")
        cfg = with_dt(build_config(doc), 0.01)
        counts = self._count_steps(monkeypatch)
        run_scenario(cfg)
        assert counts == [500, 50, 100, 200, 500]

    def test_wigner_reads_the_recorded_trajectory(self, monkeypatch):
        doc = next(d for d in corpus_documents() if d["id"] == "wigner-contrast")
        cfg = with_dt(build_config(doc), 0.01)
        counts = self._count_steps(monkeypatch)
        _, rows = run_scenario(cfg)
        # One evolve each for P and Q, then the four backward runs.
        assert counts == [500, 500, 50, 100, 200, 500]
        (row,) = [r for r in rows if r.check == "wigner_deviation"]
        assert row.value == flow.wigner_deviation(cfg.hamiltonian, cfg.initial_state,
                                                  cfg.wigner_pair, cfg.integrator)[0]


def wigner_contrast(coupling=1.0):
    """The wigner-contrast scenario at dt = 1e-2, its coupling lambda scaled by coupling."""
    doc = next(d for d in corpus_documents() if d["id"] == "wigner-contrast")
    doc["hamiltonian"]["lambda"] *= coupling
    return with_dt(build_config(doc), 0.01)


class TestNonlinearOracle:
    """wigner-contrast's mean-field flow in closed form.

    With A = 0, m = Tr(rho B) is conserved along the flow, so
    rho_t = exp(-it lambda m0 B) rho0 exp(it lambda m0 B): a unitary that
    depends on the initial state.  Here B = sigma_z, lambda = 1 and
    m0 = cos 0.2.  The reference takes its own eigh of the corpus's
    A + lambda m0 B; it calls neither expm_hermitian nor the generator.
    """

    TOL = 1e-12

    @staticmethod
    def error(traj):
        """Largest entry of rho_t minus its closed form over the records."""
        ham = next(d for d in corpus_documents() if d["id"] == "wigner-contrast")["hamiltonian"]
        a, b = hilbert.matrix_from_pairs(ham["A"]), hilbert.matrix_from_pairs(ham["B"])
        rho0 = traj.rho[0]
        w, v = np.linalg.eigh(a + ham["lambda"] * np.trace(rho0 @ b).real * b)
        worst = 0.0
        for t, rho in zip(traj.times, traj.rho):
            u = (v * np.exp(-1j * t * w)) @ v.conj().T
            worst = max(worst, hilbert.max_abs(rho - u @ rho0 @ u.conj().T))
        return worst

    def test_records_follow_the_closed_form(self):
        cfg = wigner_contrast()
        traj = flow.evolve(cfg.hamiltonian, cfg.initial_state, cfg.integrator)
        assert len(traj.times) == 501
        assert self.error(traj) <= self.TOL  # 2.9e-15

    def test_a_coupling_off_by_one_part_in_a_million_fails(self):
        cfg = wigner_contrast(1 + 1e-6)
        assert self.error(flow.evolve(cfg.hamiltonian, cfg.initial_state, cfg.integrator)) > self.TOL

    def test_overlap_deviation_is_its_closed_form(self):
        # Q = |+><+| has m = 0 and stays put; Tr(P_t Q) moves by
        # 1/2 sin 0.2 (1 - cos 2 lambda m0 t).
        cfg = wigner_contrast()
        m0 = math.cos(0.2)
        b = hilbert.HermitianOperator(SIGMA_Z)
        assert hilbert.trace_pairing(cfg.initial_state, b) == pytest.approx(m0, abs=1e-15)
        p, q = (flow.evolve(cfg.hamiltonian, rho, cfg.integrator)
                for rho in (cfg.initial_state, cfg.wigner_pair))
        deviation, _ = flow.overlap_deviation(p, q)
        exact = max(0.5 * math.sin(0.2) * (1 - math.cos(2 * m0 * t)) for t in p.times)
        assert abs(deviation - exact) <= self.TOL


SPLIT_SCENARIOS = ("mean-field-qubit", "gauge-shift", "conservation-mean-field-n4",
                   "wigner-contrast")


class TestSplitCorpus:
    """The corpus's mean-field scenarios step by the Strang split, and stay clear of its limit."""

    @pytest.mark.parametrize("dt", [None, 1e-2])
    def test_the_mean_field_scenarios_run_the_split(self, dt):
        for doc in corpus_documents():
            if "hamiltonian" in doc:
                cfg = build_config(doc) if dt is None else with_dt(build_config(doc), dt)
                split = cfg.hamiltonian.split is not None
                assert split == (doc["id"] in SPLIT_SCENARIOS), doc["id"]

    def test_mean_field_qubit_is_second_order(self):
        cfg = build_config(next(d for d in corpus_documents() if d["id"] == "mean-field-qubit"))
        estimate = flow.convergence_order(cfg.hamiltonian, cfg.initial_state, 1.0, dt=0.01)
        assert not estimate.exact
        assert 1.8 <= estimate.order <= 2.2  # 2.00003

    def test_no_leg_nears_the_compounding_limit(self, monkeypatch):
        legs, kernel = [], flow._steps

        def counted(h, rho, span, integrator, stride):
            legs.append([h.split is not None, len(rho), 0])
            for step in kernel(h, rho, span, integrator, stride):
                legs[-1][2] += 1
                yield step

        monkeypatch.setattr(flow, "_steps", counted)
        for scenario in SPLIT_SCENARIOS:
            run_scenario(build_config(next(d for d in corpus_documents() if d["id"] == scenario)))
        assert all(split and dim <= SPLIT_MAX_DIM for split, dim, _ in legs)
        assert max(steps for _, _, steps in legs) <= SPLIT_MAX_STEPS


class TestCheckedRecords:
    """A reader of a trajectory's stacks checks the records it wraps, and only those."""

    @staticmethod
    def count_checks(monkeypatch):
        built, check = [], hilbert.DensityMatrix.__post_init__

        def counted(self):
            built.append(self.matrix)
            check(self)

        monkeypatch.setattr(hilbert.DensityMatrix, "__post_init__", counted)
        return built

    def test_conservation_grid_checks_one_state_per_grid_time(self, monkeypatch):
        cfg = wigner_contrast()
        traj = flow.evolve(cfg.hamiltonian, cfg.initial_state, cfg.integrator)
        built = self.count_checks(monkeypatch)
        conservation_residuals(cfg.observables, cfg.hamiltonian, cfg.initial_state,
                               cfg.conservation_times, cfg.integrator, trajectory=traj)
        assert len(built) <= len(cfg.conservation_times) == 4
        assert "states" not in vars(traj)  # the cached wrappers of all 501 records

    def test_overlap_deviation_checks_the_two_first_records(self, monkeypatch):
        cfg = wigner_contrast()
        p, q = (flow.evolve(cfg.hamiltonian, rho, cfg.integrator)
                for rho in (cfg.initial_state, cfg.wigner_pair))
        built = self.count_checks(monkeypatch)
        flow.overlap_deviation(p, q)
        assert len(built) == 2
        assert np.array_equal(built[0], p.rho[0]) and np.array_equal(built[1], q.rho[0])
        assert "states" not in vars(p) and "states" not in vars(q)


class TestRecordLookup:
    """The conservation grid reads the record each forward leg starts from, not every record."""

    def test_split_steps_calls_do_not_grow_with_the_record_count(self, monkeypatch):
        cfg = wigner_contrast()
        calls, split = [], flow.split_steps

        def counted(span, dt):
            calls.append(span)
            return split(span, dt)

        counts = {}
        for stride in (1, 10):
            integrator = replace(cfg.integrator, record_stride=stride)
            traj = flow.evolve(cfg.hamiltonian, cfg.initial_state, integrator)
            monkeypatch.setattr(flow, "split_steps", counted)
            calls.clear()
            conservation_residuals(cfg.observables, cfg.hamiltonian, cfg.initial_state,
                                   cfg.conservation_times, integrator, trajectory=traj)
            monkeypatch.setattr(flow, "split_steps", split)
            counts[len(traj.times)] = len(calls)
        assert counts[501] == counts[51]  # 16 each: one lookup per forward grid time

    def test_no_loop_over_records_and_no_type_branch(self):
        tree = ast.parse(textwrap.dedent(inspect.getsource(observables.conservation_residuals)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "isinstance"
            if isinstance(node, (ast.For, ast.comprehension)):
                names = {n.id for n in ast.walk(node.iter) if isinstance(n, ast.Name)}
                assert "trajectory" not in names, ast.unparse(node.iter)


class TestWignerPairFailure:
    @pytest.mark.parametrize("failure, message", [
        (flow.StateError("state is not positive semidefinite", 3, 0.03, 0.03),
         "state after step 3, t = 0.03: state is not positive semidefinite"),
        (flow.ConvergenceError(50, 3, 0.02, 0.03),
         "midpoint iteration did not settle within 50 iterations at step 3, t = 0.02 to 0.03"),
    ], ids=["state", "convergence"])
    def test_failure_names_the_pair(self, monkeypatch, failure, message):
        doc = next(d for d in corpus_documents() if d["id"] == "wigner-contrast")
        cfg = with_dt(build_config(doc), 0.01)
        evolve = flow.evolve

        def failing_for_the_pair(h, rho0, integrator):
            if rho0 is cfg.wigner_pair:
                raise failure
            return evolve(h, rho0, integrator)

        monkeypatch.setattr(flow, "evolve", failing_for_the_pair)
        with pytest.raises(ScenarioError) as err:
            run_scenario(cfg)
        assert str(err.value).startswith(f"scenario 'wigner-contrast': wigner pair: {message}")

    def test_main_trajectory_failure_names_no_leg(self, monkeypatch):
        doc = next(d for d in corpus_documents() if d["id"] == "wigner-contrast")
        cfg = with_dt(build_config(doc), 0.01)

        def failing(h, rho0, integrator):
            raise flow.StateError("state is not positive semidefinite", 3, 0.03, 0.03)

        monkeypatch.setattr(flow, "evolve", failing)
        with pytest.raises(ScenarioError) as err:
            run_scenario(cfg)
        assert str(err.value) == ("scenario 'wigner-contrast': state after step 3, t = 0.03: "
                                  "state is not positive semidefinite")


class TestMidpointPasses:
    def test_conservation_mean_field_n4_exponentials_per_step(self, monkeypatch):
        # Each step takes one full-step exponential (|s| = dt) and one half-step
        # exponential per midpoint pass.  The plain increment rule takes 3.99
        # per step here; the contraction estimate 3.13.
        doc = next(d for d in corpus_documents() if d["id"] == "conservation-mean-field-n4")
        cfg = on_the_midpoint(with_dt(build_config(doc), 0.01))
        exact, sizes = flow.expm_hermitian, []

        def counted(mat, s):
            sizes.append(s)
            return exact(mat, s)

        monkeypatch.setattr(flow, "expm_hermitian", counted)
        run_scenario(cfg)
        steps = sum(abs(s) == 0.01 for s in sizes)
        assert steps == 1350
        assert len(sizes) / steps <= 3.15


class TestAsymmetricStep:
    """The conservation rows catch a step that does not retrace itself, and no other row does."""

    @pytest.mark.parametrize("scenario", ["mean-field-qubit", "conservation-mean-field-n4"])
    def test_only_the_conservation_rows_fail(self, monkeypatch, scenario):
        doc = next(d for d in corpus_documents() if d["id"] == scenario)
        cfg = on_the_midpoint(with_dt(build_config(doc), 1e-2))
        _, rows = run_scenario(cfg)
        assert all(row.passed for row in rows)
        # A nonlinear step calls expm_hermitian at s = dt / 2 once per midpoint
        # pass, first with its start-of-step generator, then once at s = dt.
        # The mutant takes that last exponential of the start-of-step
        # generator: still unitary, but no longer symmetric.
        exact, first = flow.expm_hermitian, []

        def start_of_step(mat, s):
            if not first:
                first.append((mat, s))
            elif s != first[0][1]:
                mat = first.pop()[0]
            return exact(mat, s)

        monkeypatch.setattr(flow, "expm_hermitian", start_of_step)
        _, mutated = run_scenario(cfg)
        assert [row.check for row in mutated] == [row.check for row in rows]
        conservation = [row.check.startswith("conservation[") for row in mutated]
        assert sum(conservation) == 8
        assert [not row.passed for row in mutated] == conservation

    @pytest.mark.parametrize("scenario", ["mean-field-qubit", "conservation-mean-field-n4"])
    def test_an_asymmetric_split_fails_only_the_conservation_rows(self, monkeypatch, scenario):
        doc = next(d for d in corpus_documents() if d["id"] == scenario)
        cfg = with_dt(build_config(doc), 1e-2)
        assert cfg.hamiltonian.split is not None
        _, rows = run_scenario(cfg)
        assert all(row.passed for row in rows)

        def asymmetric(h, rho, span, integrator, stride):
            # phi^A_dt o phi^B_dt: each factor an exact unitary flow, the
            # composition of first order and not symmetric.
            a, b, strength = h.split
            u = np.eye(len(rho), dtype=complex)
            for k, (dt, time) in enumerate(flow.schedule(span, integrator.dt), 1):
                m = np.trace(rho @ b).real
                step = hilbert.expm_hermitian(a, dt) @ hilbert.expm_hermitian(strength * m * b, dt)
                rho, u = step @ rho @ step.conj().T, step @ u
                yield k, time, rho, u

        monkeypatch.setattr(flow, "_steps", asymmetric)
        _, mutated = run_scenario(cfg)
        assert [row.check for row in mutated] == [row.check for row in rows]
        conservation = [row.check.startswith("conservation[") for row in mutated]
        assert sum(conservation) == 8
        assert [not row.passed for row in mutated] == conservation


class TestNonFiniteGenerator:
    def test_scenario_names_the_step(self):
        doc = next(d for d in corpus_documents() if d["id"] == "mean-field-qubit")
        cfg = with_dt(build_config(doc), 0.01)
        generator, calls = cfg.hamiltonian.generator, [0]

        def turns_nan(m):
            calls[0] += 1
            return generator(m) * (np.nan if calls[0] > 30 else 1.0)

        h = HamiltonianFunction(value=cfg.hamiltonian.value, generator=turns_nan,
                                label="turns nan")
        with pytest.raises(ScenarioError, match=r"^scenario 'mean-field-qubit': generator of "
                                                r"'turns nan' gave a non-finite matrix at step "
                                                r"\d+, t = "):
            run_scenario(replace(cfg, hamiltonian=h))


def _stretched_eigh(exact):
    """exact's eigendecomposition with every eigenvalue scaled by 1 + 1e-6."""
    def wrong(mat, vectors=True):
        if not vectors:
            return exact(mat, vectors)
        eigvals, eigvecs = exact(mat)
        return eigvals * (1 + 1e-6), eigvecs

    return wrong


class TestSuiteCrossChecks:
    def test_linear_oracle_sees_a_phase_error(self, monkeypatch):
        # The oracle's state must move: a relative error of 1e-6 in the
        # eigenvalues of the closed form turns the phase by ~2e-6 over t = 1.
        monkeypatch.setattr(flow, "_eigh", _stretched_eigh(flow._eigh))
        (row,) = [row for row in _suite_cross_checks(0.01, dict(DEFAULT_THRESHOLDS))
                  if row.check == "linear_oracle"]
        assert row.value > 1e-7
        assert not row.passed

    def test_linear_oracle_reference_does_not_share_the_eigendecomposition(self, monkeypatch):
        # With every binding of _eigh off by the same factor, a reference
        # built from it would move with the flow and hide the error.
        wrong = _stretched_eigh(hilbert._eigh)
        monkeypatch.setattr(flow, "_eigh", wrong)
        monkeypatch.setattr(hilbert, "_eigh", wrong)
        (row,) = [row for row in _suite_cross_checks(0.01, dict(DEFAULT_THRESHOLDS))
                  if row.check == "linear_oracle"]
        assert row.value > 1e-7
        assert not row.passed


class TestCrossChecksRunTheCorpusFlows:
    def test_runs_are_evolves_of_the_corpus_configs(self, monkeypatch):
        runs, exact = [], flow.evolve
        monkeypatch.setattr(flow, "evolve", lambda *args: runs.append(exact(*args)) or runs[-1])
        _suite_cross_checks(0.01, dict(DEFAULT_THRESHOLDS))
        assert len(runs) == 3  # the oracle, then the gauge pair unshifted and shifted
        for run, scenario in zip(runs, ("linear-qubit", "gauge-shift")):
            cfg = with_dt(build_config(next(d for d in corpus_documents() if d["id"] == scenario)),
                          0.01)
            ref = exact(cfg.hamiltonian, cfg.initial_state, cfg.integrator)
            assert run.times == ref.times
            assert np.array_equal(run.rho, ref.rho) and np.array_equal(run.u, ref.u), scenario
        assert cfg.hamiltonian.split is not None  # the gauge pair takes the corpus's split step

    def test_runner_builds_no_flow_of_its_own(self):
        # Every flow the runner integrates comes from a corpus document or a
        # config, so a second definition of a corpus flow cannot come back.
        tree = ast.parse(Path(eqm_lab.runner.__file__).read_text())
        calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
        called = {getattr(func, "id", None) or getattr(func, "attr", None) for func in calls}
        assert not called & {"IntegratorConfig", "HermitianOperator", "DensityMatrix"}


class TestReportRendering:
    def test_pass_fail_semantics(self):
        good = ReportRow("s", "c", 1e-12, 1e-10)
        bad = ReportRow("s", "c", 1e-8, 1e-10)
        inverted = ReportRow("s", "w", 0.2, 0.01, mode="min")
        assert good.passed and not bad.passed and inverted.passed

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ReportRow("s", "c", 1.0, 1.0, mode="between")

    def test_render_contains_status_lines(self):
        text = render_report([
            ReportRow("s", "ok", 1e-12, 1e-10),
            ReportRow("s", "broken", 1.0, 1e-10),
            ReportRow("s", "wigner", 0.2, 0.01, mode="min"),
        ])
        assert "PASS" in text and "FAIL" in text
        assert "EXPECTED-VIOLATION" in text
        assert text.endswith("2/3 checks passed\n")


class TestKoopmanRunner:
    def test_koopman_rows(self):
        doc = {
            "id": "koopman-smoke",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "harmonic", "omega": 1.0},
                "observables": [{"name": "gaussian", "center": [0.3, 0.0], "width": 0.9}],
                "times": [0.5],
                "points": [[0.5, 0.0], [0.0, 0.5]],
            },
        }
        tables, rows = run_scenario(koopman_only(build_config(doc)))
        assert tables == []
        assert len(rows) == 1 + 2  # one pair row, two generator points
        assert all(r.passed for r in rows)

    def test_koopman_requires_section(self):
        cfg = build_config(rabi_doc())
        with pytest.raises(ScenarioError, match="no koopman section"):
            koopman_only(cfg)

    def test_koopman_only_drops_flow_outputs(self):
        doc = rabi_doc(koopman={
            "flow": {"type": "harmonic", "omega": 1.0},
            "observables": [{"name": "gaussian", "center": [0.3, 0.0], "width": 0.9}],
            "times": [0.5],
            "points": [[0.5, 0.0]],
        })
        cfg = koopman_only(build_config(doc))
        assert cfg.outputs == ("koopman",)
        _, rows = run_scenario(cfg)
        assert {r.check.split("[", 1)[0] for r in rows} == {"koopman_unitarity",
                                                           "koopman_generator"}


class TestWriteOutputs:
    def test_files_created_with_lf_endings(self, tmp_path):
        tables, rows = run_scenario(build_config(rabi_doc()))
        write_outputs(tmp_path, "rabi", tables, rows)
        csv_path = tmp_path / "rabi" / "trajectory.csv"
        report_path = tmp_path / "rabi" / "report.txt"
        assert csv_path.exists() and report_path.exists()
        raw = csv_path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


CORPUS = Path(eqm_lab.__file__).resolve().parent / "corpus"
SUITE_ORDER = ("linear-qubit", "mean-field-qubit", "gauge-shift", "conservation-linear-n4",
               "conservation-mean-field-n4", "wigner-contrast", "koopman-harmonic",
               "koopman-pendulum")


class TestCorpus:
    def test_documents_validate(self):
        docs = corpus_documents()
        ids = [d["id"] for d in docs]
        assert len(ids) == len(set(ids))
        for doc in docs:
            build_config(doc)

    def test_files_are_named_for_their_id(self):
        paths = sorted(CORPUS.glob("*.json"))
        assert paths
        for number, path in enumerate(paths, start=1):
            doc = json.loads(path.read_text())
            assert path.name == f"{number:02d}-{doc['id']}.json"

    def test_documents_come_in_suite_order(self):
        docs = corpus_documents()
        assert tuple(d["id"] for d in docs) == SUITE_ORDER
        assert docs == [json.loads(p.read_text()) for p in sorted(CORPUS.glob("*.json"))]

    def test_four_level_ops(self):
        ladder = np.zeros((4, 4), dtype=complex)
        for k in range(3):
            ladder[k, k + 1] = ladder[k + 1, k] = math.sqrt(k + 1)
        a, b = four_level_ops()
        assert np.array_equal(a, ladder)
        assert np.array_equal(b, np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex))


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestBenchmarkRowCheck:
    def test_every_suite_row_passes_the_corpus_suite_check(self, monkeypatch, tmp_path):
        # perfbench/workloads.py maps each check name to its threshold key on
        # its own; a new check name or a threshold edit would otherwise show
        # only as a failed corpus-suite call in a benchmark run.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        rows = run_suite(tmp_path, 0.01)
        assert rows
        assert workloads._row_problems(rows) == []
