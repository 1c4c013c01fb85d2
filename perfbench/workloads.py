"""The three benchmark workloads: corpus-suite, state-sweep and long-flow.

Each workload builds its inputs from the seed in ``setup`` (which also makes
one untimed warm-up call), then hands the runner a fixed list of calls that
make up one pass.  A call is one request: its latency feeds the percentiles,
and its ``check`` compares the output with the package thresholds and with
an oracle that does not go through the code under test where one exists.
README.md in this directory gives the reasons behind every number here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from eqm_lab import flow, hamiltonians, hilbert, observables, runner
from eqm_lab.config import DEFAULT_THRESHOLDS, with_dt
from eqm_lab.flow import ConvergenceError, IntegratorConfig
from eqm_lab.hilbert import DensityMatrix, HermitianOperator, StateVector

from tracer import MONITORS

# Threshold key of each monitor, in MONITORS order.
MONITOR_THRESHOLDS = ("unitarity", "cocycle", "spectrum_drift", "trace", "purity_drift")

# Report check name (the part before any "[") -> DEFAULT_THRESHOLDS key.
ROW_THRESHOLDS = {
    "unitarity": "unitarity", "cocycle": "cocycle", "spectrum_drift": "spectrum_drift",
    "trace": "trace", "purity_drift": "purity_drift", "conservation": "conservation",
    "wigner_deviation": "wigner_min", "koopman_unitarity": "koopman_unitarity",
    "koopman_generator": "koopman_generator", "linear_oracle": "linear_oracle",
    "gauge_shift_state": "gauge_shift", "gauge_shift_phase": "gauge_phase",
}

# sha256 of the trajectory tables committed under out/ (written by
# `eqm-lab suite` at the corpus's own dt).  Compared as a count, not a gate.
REFERENCE_CSV_SHA256 = {
    "linear-qubit/trajectory.csv":
        "c421ac718d1fe93129bb8cfa82a7fbcf58570f52854041cd0cb33ce437ec4339",
    "mean-field-qubit/trajectory.csv":
        "3bf513fe6d9a97a0ad4ee0242f94183c7fa935f154e2bd0b278a6345cd0d6ad9",
}


@dataclass
class Call:
    """One request of a pass."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]  # problems found in the output; empty when correct


def _row_problems(rows) -> list:
    problems = []
    for row in rows:
        key = ROW_THRESHOLDS.get(row.check.split("[", 1)[0])
        if key is None:
            problems.append(f"{row.scenario}: unknown check {row.check}")
        elif row.threshold != DEFAULT_THRESHOLDS[key]:
            problems.append(f"{row.scenario}: {row.check} threshold {row.threshold:g} "
                            f"is not DEFAULT_THRESHOLDS[{key!r}] = {DEFAULT_THRESHOLDS[key]:g}")
        elif not (math.isfinite(row.value) and row.passed):
            problems.append(f"{row.scenario}: {row.check} = {row.value:.3e} fails "
                            f"{row.mode} threshold {row.threshold:.3e}")
    return problems


def _exact_linear(a: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(-itA) rho0 exp(itA), computed here rather than by the package."""
    w, v = np.linalg.eigh(a)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    return u @ rho0 @ u.conj().T


def _random_hermitian(rng, dim: int) -> HermitianOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((g + g.conj().T) / (2.0 * math.sqrt(dim)))


def _random_mixed(rng, dim: int) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(mat / np.trace(mat).real)


def _random_pure(rng, dim: int) -> DensityMatrix:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return hilbert.projector(StateVector(vec / np.linalg.norm(vec)))


class Workload:
    """Inputs from a seed, a warm-up in ``setup``, and the calls of one pass."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out_dir = workdir

    def layer_counts(self) -> dict:
        """Per-layer counts measured outside the passes, in traced runs."""
        return {}

    def probe(self) -> dict:
        """Known-defect probes run once after the passes, untimed."""
        return {}


class CorpusSuite(Workload):
    """The bundled corpus, scenario by scenario, then the suite cross-checks.

    The same calls as `eqm-lab suite --dt 0.01`: at the corpus's own dt a
    pass takes about 50 s, which does not fit the run length.  The corpus is
    fixed data, so the seed changes nothing here; it is recorded all the same.
    """

    name = "corpus-suite"
    DT = 1e-2
    WARM_UP = ("gauge-shift", "koopman-harmonic")

    def _build(self, doc):
        cfg = runner.build_config(doc)
        return with_dt(cfg, self.DT) if cfg.integrator is not None else cfg

    def setup(self):
        self.docs = runner.corpus_documents()
        self.configs = [self._build(doc) for doc in self.docs]
        for cfg in self.configs:
            if cfg.scenario_id in self.WARM_UP:
                runner.run_scenario(cfg)

    def calls(self, tracer=None) -> list:
        # Under a tracer, build the configs again so that config spans are
        # recorded and every Hamiltonian in them is a traced one.
        configs = [self._build(doc) for doc in self.docs] if tracer else self.configs
        pass_rows = []

        def scenario(cfg):
            tables, rows = runner.run_scenario(cfg)
            runner.write_outputs(self.out_dir, cfg.scenario_id, tables, rows)
            pass_rows.extend(rows)
            return tables, rows

        def cross_checks():
            rows = runner._suite_cross_checks(self.DT, dict(DEFAULT_THRESHOLDS))
            (self.out_dir / "suite_report.txt").write_text(
                runner.render_report(pass_rows + rows), newline="\n")
            return rows

        calls = [Call(cfg.scenario_id, lambda cfg=cfg: scenario(cfg),
                      lambda out, doc=doc, cfg=cfg: self._check(doc, cfg, out))
                 for doc, cfg in zip(self.docs, configs)]
        calls.append(Call("suite", cross_checks, _row_problems))
        return calls

    def _check(self, doc, cfg, out) -> list:
        tables, rows = out
        problems = _row_problems(rows) or ([] if rows else [f"{cfg.scenario_id}: no report rows"])
        csv = dict(tables).get("trajectory.csv")
        if csv is not None and doc["hamiltonian"]["type"] == "linear":
            problems += self._linear_oracle(doc, cfg, csv)
        return problems

    @staticmethod
    def _linear_oracle(doc, cfg, csv: str) -> list:
        """Every recorded state of a linear scenario against exp(-itA) rho0 exp(itA)."""
        a = hilbert.matrix_from_pairs(doc["hamiltonian"]["A"])
        rho0 = cfg.initial_state.matrix
        dim = rho0.shape[0]
        worst = 0.0
        for line in csv.splitlines()[1:]:
            values = [float(v) for v in line.split(",")]
            pairs = np.array(values[1:1 + 2 * dim * dim]).reshape(dim, dim, 2)
            state = pairs[..., 0] + 1j * pairs[..., 1]
            worst = max(worst, hilbert.max_abs(state - _exact_linear(a, rho0, values[0])))
        limit = DEFAULT_THRESHOLDS["linear_oracle"]
        return [] if worst <= limit else [
            f"{cfg.scenario_id}: trajectory.csv differs from the exact propagator by "
            f"{worst:.3e} > {limit:g}"]

    def layer_counts(self) -> dict:
        """Trajectory tables at the corpus's own dt that match the committed out/ bytes."""
        identical = 0
        for doc in self.docs:
            if "trajectory" not in doc["outputs"]:
                continue
            cfg = runner.build_config(dict(doc, outputs=["trajectory"]))
            tables, _ = runner.run_scenario(cfg)
            for name, text in tables:
                digest = hashlib.sha256(text.encode()).hexdigest()
                identical += REFERENCE_CSV_SHA256.get(f"{cfg.scenario_id}/{name}") == digest
        return {"runner.csv_identical": identical}


class StateSweep(Workload):
    """Independent random d = 4 states, each checked by two conservation residuals."""

    name = "state-sweep"
    DIM = 4
    STATES = 48          # per pass: half pure, half mixed, interleaved
    T = 0.05             # transport time; 50 forward and 50 backward steps
    DT = 1e-3

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.states = [_random_pure(rng, self.DIM) if i % 2 == 0 else _random_mixed(rng, self.DIM)
                       for i in range(self.STATES)]
        a, b = (HermitianOperator(m) for m in runner.four_level_ops())
        self.hams = {
            "mean_field": hamiltonians.mean_field(a, b, 1.0),
            "polynomial": hamiltonians.polynomial([(1.0, (a,)), (0.5, (b, b)), (0.25, (a, b))]),
        }
        self.observable = observables.trace_scaled_observable(b, a)
        self.cfg = IntegratorConfig(dt=self.DT, t_final=self.T)
        warm = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        self._request(self.hams, warm)

    def _request(self, hams, rho):
        return [observables.conservation_residual(self.observable, h, rho, self.T, self.cfg)
                for h in hams.values()]

    def calls(self, tracer=None) -> list:
        hams = ({family: tracer.hamiltonian(h, family) for family, h in self.hams.items()}
                if tracer else self.hams)
        return [Call(f"state[{i}]", lambda rho=rho: self._request(hams, rho), self._check)
                for i, rho in enumerate(self.states)]

    @staticmethod
    def _check(residuals) -> list:
        limit = DEFAULT_THRESHOLDS["conservation"]
        return [f"conservation residual {r:.3e} > {limit:g}"
                for r in residuals if not (math.isfinite(r) and r <= limit)]


class LongFlow(Workload):
    """One recorded evolve per family at d = 16 and d = 64, plus from_value at d = 4.

    Step counts stay below 10^3 per flow, far under the ~8e4 steps at which
    the accumulated trace drift makes a run raise (README.md, "long-flow").
    """

    name = "long-flow"
    DT = 1e-2
    # (dimension, steps) for each closed-form family.  The counts keep the
    # seven request latencies apart, so that the percentiles do not flip
    # between two classes of nearly equal latency from run to run.
    CASES = ((16, 200), (64, 100))
    FROM_VALUE_DIM = 4
    FROM_VALUE_STEPS = 300
    FROM_VALUE_TOL = 1e-8            # explicit: the default 1e-12 does not converge
    RECORDS = 10                     # recorded points per flow besides t = 0
    ORACLE_STEPS = 5                 # conservation oracle span for nonlinear flows

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._oracle = {}

    def _integrator(self, steps, **kwargs):
        return IntegratorConfig(dt=self.DT, t_final=steps * self.DT,
                                record_stride=steps // self.RECORDS, **kwargs)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for dim, steps in self.CASES:
            a, b, c = (_random_hermitian(rng, dim) for _ in range(3))
            rho0 = _random_mixed(rng, dim)
            cfg = self._integrator(steps)
            obs = observables.trace_scaled_observable(b, a)
            self.cases += [
                ("linear", dim, hamiltonians.linear(a), rho0, cfg, obs, a.matrix),
                ("mean_field", dim, hamiltonians.mean_field(a, b, 1.0), rho0, cfg, obs, None),
                ("polynomial", dim, hamiltonians.polynomial(
                    [(1.0, (a,)), (0.5, (b, b)), (0.3, (a, c))]), rho0, cfg, obs, None),
            ]
        dim = self.FROM_VALUE_DIM
        a, b = (_random_hermitian(rng, dim).matrix for _ in range(2))

        def value(m):
            return float(np.trace(m @ a).real + 0.5 * np.trace(m @ b).real ** 2)

        self.from_value = hamiltonians.from_value(value, dim)
        rho0 = _random_mixed(rng, dim)
        self.cases.append(("from_value", dim, self.from_value, rho0,
                           self._integrator(self.FROM_VALUE_STEPS, midpoint_tol=self.FROM_VALUE_TOL),
                           observables.trace_scaled_observable(HermitianOperator(b),
                                                               HermitianOperator(a)), None))
        for _, _, h, rho0, cfg, _, _ in self.cases:
            flow.evolve(h, rho0, replace(cfg, t_final=2 * self.DT, record_stride=1))

    def _request(self, h, rho0, cfg):
        traj = flow.evolve(h, rho0, cfg)
        return traj, [getattr(traj, name)() for name in MONITORS]

    def calls(self, tracer=None) -> list:
        calls = []
        for case in self.cases:
            family, dim, h, rho0, cfg, _, _ = case
            if tracer:
                h = tracer.hamiltonian(h, family)
            calls.append(Call(f"{family}.d{dim}", lambda h=h, rho0=rho0, cfg=cfg:
                              self._request(h, rho0, cfg),
                              lambda out, case=case: self._check(case, out)))
        return calls

    def _check(self, case, out) -> list:
        family, dim, h, rho0, cfg, obs, linear_a = case
        traj, monitors = out
        label = f"{family}.d{dim}"
        problems = [f"{label}: {name} = {value:.3e} > {DEFAULT_THRESHOLDS[key]:g}"
                    for name, key, value in zip(MONITORS, MONITOR_THRESHOLDS, monitors)
                    if not value <= DEFAULT_THRESHOLDS[key]]
        if len(traj.times) != self.RECORDS + 1:
            problems.append(f"{label}: {len(traj.times)} records, expected {self.RECORDS + 1}")
        if linear_a is not None:
            worst = max(hilbert.max_abs(s.matrix - _exact_linear(linear_a, rho0.matrix, t))
                        for t, s in zip(traj.times, traj.states))
            if worst > DEFAULT_THRESHOLDS["linear_oracle"]:
                problems.append(f"{label}: differs from the exact propagator by {worst:.3e}")
        else:
            if label not in self._oracle:
                self._oracle[label] = observables.conservation_residual(
                    obs, h, rho0, self.ORACLE_STEPS * self.DT, cfg)
            if not self._oracle[label] <= DEFAULT_THRESHOLDS["conservation"]:
                problems.append(f"{label}: conservation residual {self._oracle[label]:.3e}")
        return problems

    def probe(self) -> dict:
        """One from_value step at the default midpoint tolerance.

        Rounding noise in the finite-difference differential sits at or above
        1e-12, so today the step raises ConvergenceError.  The probe is a
        single step so that a fix shows as less time, not more.
        """
        state = self.cases[-1][3]
        cfg = IntegratorConfig(dt=self.DT, t_final=self.DT)
        try:
            flow.propagate(self.from_value, state, self.DT, cfg)
        except ConvergenceError:
            return {"hamiltonians.from_value_probe_failed": 1}
        return {"hamiltonians.from_value_probe_failed": 0}


WORKLOADS = {w.name: w for w in (CorpusSuite, StateSweep, LongFlow)}
