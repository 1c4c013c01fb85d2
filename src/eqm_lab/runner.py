"""Batch execution: scenarios to CSV tables and pass/fail report rows.

Outputs are deterministic: fixed summation orders, fixed formatting (17
significant digits, LF line endings), so identical configs give byte-equal
tables.  Check thresholds come from the scenario config, which in turn
defaults to the module tolerances; the runner hard-codes none of them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import flow as flow_mod
from . import koopman as koopman_mod
from .config import DEFAULT_THRESHOLDS, ScenarioConfig, build_config, with_dt
from .flow import ConvergenceError, IntegratorConfig, Trajectory
from .hamiltonians import linear, mean_field
from .hilbert import (
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    HermitianOperator,
    matrix_to_pairs,
    max_abs,
    trace_pairing,
    unitary_exponential,
)
from .observables import StateMeasure, conservation_residual


class ScenarioError(RuntimeError):
    """A computational failure inside a scenario, annotated with its id."""


@dataclass(frozen=True)
class ReportRow:
    scenario: str
    check: str
    value: float
    threshold: float
    mode: str = "max"  # "max": pass iff value <= threshold; "min": expected violation

    def __post_init__(self):
        if self.mode not in ("max", "min"):
            raise ValueError(f"unknown report mode {self.mode!r}")

    @property
    def passed(self) -> bool:
        if self.mode == "max":
            return self.value <= self.threshold
        return self.value >= self.threshold


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _flatten(name: str, matrices) -> tuple[list[str], Iterator[list[float]]]:
    """Column names and lazy value rows for square matrices written row-major as re/im pairs."""
    dim = matrices[0].shape[0]
    header = [f"{name}_{i}_{j}_{part}"
              for i in range(dim) for j in range(dim) for part in ("re", "im")]
    rows = ([x for entry in m.ravel() for x in (entry.real, entry.imag)] for m in matrices)
    return header, rows


def _trajectory_table(traj: Trajectory, observables) -> str:
    columns, entries = _flatten("rho", [state.matrix for state in traj.states])
    header = ["t", *columns, "purity", *(f"expval_{f.label}" for f in observables)]
    rows = [[t, *flat, state.purity(), *(trace_pairing(state, f.eval(state)) for f in observables)]
            for t, flat, state in zip(traj.times, entries, traj.states)]
    return _csv(header, rows)


def _cocycle_table(traj: Trajectory) -> str:
    columns, entries = _flatten("u", [u.matrix for u in traj.cocycle])
    return _csv(["t", *columns], [[t, *flat] for t, flat in zip(traj.times, entries)])


def _invariant_rows(cfg: ScenarioConfig, traj: Trajectory) -> list[ReportRow]:
    thr = cfg.thresholds
    sid = cfg.scenario_id
    return [
        ReportRow(sid, "unitarity", traj.max_unitarity_defect(), thr["unitarity"]),
        ReportRow(sid, "cocycle", traj.max_cocycle_defect(), thr["cocycle"]),
        ReportRow(sid, "spectrum_drift", traj.max_spectrum_drift(), thr["spectrum_drift"]),
        ReportRow(sid, "trace", traj.max_trace_defect(), thr["trace"]),
        ReportRow(sid, "purity_drift", traj.max_purity_drift(), thr["purity_drift"]),
    ]


def _conservation_rows(cfg: ScenarioConfig) -> list[ReportRow]:
    if isinstance(cfg.initial, StateMeasure):
        points = [(f"[{i}]", rho) for i, rho in enumerate(cfg.initial.support)]
    else:
        points = [("", cfg.initial)]
    rows = []
    for f in cfg.observables:
        for t in cfg.conservation_times:
            for suffix, rho in points:
                value = conservation_residual(f, cfg.hamiltonian, rho, t, cfg.integrator)
                rows.append(ReportRow(cfg.scenario_id,
                                      f"conservation[{f.label},t={t:g}]{suffix}",
                                      value, cfg.thresholds["conservation"]))
    return rows


def _koopman_rows(cfg: ScenarioConfig) -> list[ReportRow]:
    setup = cfg.koopman
    thr = cfg.thresholds
    rows = []
    obs = setup.observables
    for t in setup.times:
        for i in range(len(obs)):
            for j in range(i, len(obs)):
                value = koopman_mod.unitarity_residual(obs[i], obs[j], setup.flow, t,
                                                       setup.quadrature)
                rows.append(ReportRow(cfg.scenario_id,
                                      f"koopman_unitarity[{obs[i].label},{obs[j].label},t={t:g}]",
                                      value, thr["koopman_unitarity"]))
    energy = koopman_mod.classical_hamiltonian(setup.flow)
    for q0, p0 in setup.generator_points:
        for f in obs:
            value = koopman_mod.liouville_generator_residual(f, setup.flow, energy,
                                                             (q0, p0), setup.generator_dt)
            rows.append(ReportRow(cfg.scenario_id,
                                  f"koopman_generator[{f.label},({q0:.3g},{p0:.3g})]",
                                  value, thr["koopman_generator"]))
    return rows


def run_scenario(cfg: ScenarioConfig) -> tuple[list[tuple[str, str]], list[ReportRow]]:
    """Execute every requested output; returns (named CSV tables, report rows)."""
    tables: list[tuple[str, str]] = []
    rows: list[ReportRow] = []
    try:
        traj = None
        if "trajectory" in cfg.outputs or "invariants" in cfg.outputs:
            traj = flow_mod.evolve(cfg.hamiltonian, cfg.initial_state, cfg.integrator)
        if "trajectory" in cfg.outputs:
            tables.append(("trajectory.csv", _trajectory_table(traj, cfg.observables)))
            if cfg.export_cocycle:
                tables.append(("cocycle.csv", _cocycle_table(traj)))
        if "invariants" in cfg.outputs:
            rows.extend(_invariant_rows(cfg, traj))
        if "wigner" in cfg.outputs:
            deviation, _ = flow_mod.wigner_deviation(cfg.hamiltonian, cfg.initial_state,
                                                     cfg.wigner_pair, cfg.integrator)
            rows.append(ReportRow(cfg.scenario_id, "wigner_deviation", deviation,
                                  cfg.thresholds["wigner_min"], mode="min"))
        if "conservation" in cfg.outputs:
            rows.extend(_conservation_rows(cfg))
        if "koopman" in cfg.outputs:
            rows.extend(_koopman_rows(cfg))
    except (ConvergenceError, ValueError) as exc:
        raise ScenarioError(f"scenario '{cfg.scenario_id}': {exc}") from exc
    return tables, rows


def run_koopman(cfg: ScenarioConfig) -> list[ReportRow]:
    """The classical diagnostics alone, for the dedicated CLI subcommand."""
    if cfg.koopman is None:
        raise ScenarioError(f"scenario '{cfg.scenario_id}': config has no koopman section")
    return _koopman_rows(cfg)


def render_report(rows: list[ReportRow]) -> str:
    header = (f"{'scenario':<22} {'check':<46} {'value':>12} {'threshold':>12} "
              f"{'rule':<20} status")
    lines = [header, "-" * len(header)]
    for row in rows:
        rule = "value <= threshold" if row.mode == "max" else "EXPECTED-VIOLATION >="
        status = "PASS" if row.passed else "FAIL"
        lines.append(f"{row.scenario:<22} {row.check:<46} {row.value:>12.4e} "
                     f"{row.threshold:>12.4e} {rule:<20} {status}")
    passed = sum(1 for r in rows if r.passed)
    lines.append(f"{passed}/{len(rows)} checks passed")
    return "\n".join(lines) + "\n"


def write_outputs(out_dir: Path, scenario_id: str, tables, rows) -> None:
    target = Path(out_dir) / scenario_id
    target.mkdir(parents=True, exist_ok=True)
    for name, text in tables:
        (target / name).write_text(text, newline="\n")
    (target / "report.txt").write_text(render_report(rows), newline="\n")


# --- the bundled scenario corpus -------------------------------------------

_PLUS = [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]
_QUBIT_UP = [[1.0, 0.0], [0.0, 0.0]]


def four_level_ops() -> tuple[np.ndarray, np.ndarray]:
    """Fixed pair of 4x4 Hermitian operators for the N=4 corpus scenarios."""
    a = np.zeros((4, 4), dtype=complex)
    for k in range(3):
        a[k, k + 1] = math.sqrt(k + 1)
        a[k + 1, k] = math.sqrt(k + 1)
    b = np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex)
    return a, b


def corpus_documents(conservation_grid=(0.5, 1.0, 2.0, 5.0)) -> list[dict]:
    """The shipped scenario corpus, as plain config documents."""
    eye2 = np.eye(2, dtype=complex)
    a4, b4 = four_level_ops()
    grid = list(conservation_grid)
    docs = [
        {
            "id": "linear-qubit",
            "dimension": 2,
            "hamiltonian": {"type": "linear", "A": matrix_to_pairs(SIGMA_Z)},
            "initial": {"state_vector": _PLUS},
            "observables": [
                {"type": "constant", "A": matrix_to_pairs(SIGMA_X)},
                {"type": "trace_scaled", "B": matrix_to_pairs(SIGMA_Z), "A": matrix_to_pairs(SIGMA_X)},
            ],
            "integrator": {"dt": 1e-3, "t_final": 1.0, "record_stride": 10},
            "conservation_times": grid,
            "outputs": ["trajectory", "invariants", "conservation"],
        },
        {
            "id": "mean-field-qubit",
            "dimension": 2,
            "hamiltonian": {"type": "mean_field", "A": matrix_to_pairs(SIGMA_X),
                            "B": matrix_to_pairs(SIGMA_Z), "lambda": 1.0},
            "initial": {"density_matrix": matrix_to_pairs(np.diag([1.0, 0.0]))},
            "observables": [
                {"type": "constant", "A": matrix_to_pairs(SIGMA_X)},
                {"type": "trace_scaled", "B": matrix_to_pairs(SIGMA_Z), "A": matrix_to_pairs(SIGMA_X)},
            ],
            "integrator": {"dt": 1e-3, "t_final": 5.0, "record_stride": 50},
            "conservation_times": grid,
            "outputs": ["trajectory", "invariants", "conservation"],
        },
        {
            "id": "gauge-shift",
            "dimension": 2,
            "hamiltonian": {"type": "mean_field", "A": matrix_to_pairs(SIGMA_X + 10.0 * eye2),
                            "B": matrix_to_pairs(SIGMA_Z), "lambda": 1.0},
            "initial": {"density_matrix": matrix_to_pairs(np.diag([1.0, 0.0]))},
            "integrator": {"dt": 1e-3, "t_final": 1.0, "record_stride": 10},
            "outputs": ["invariants"],
        },
        {
            "id": "conservation-linear-n4",
            "dimension": 4,
            "hamiltonian": {"type": "linear", "A": matrix_to_pairs(a4)},
            "initial": {"density_matrix": matrix_to_pairs(np.diag([0.4, 0.3, 0.2, 0.1]))},
            "observables": [
                {"type": "constant", "A": matrix_to_pairs(b4)},
                {"type": "trace_scaled", "B": matrix_to_pairs(b4), "A": matrix_to_pairs(a4)},
            ],
            "integrator": {"dt": 1e-3, "t_final": 1.0, "record_stride": 10},
            "conservation_times": grid,
            "outputs": ["invariants", "conservation"],
        },
        {
            "id": "conservation-mean-field-n4",
            "dimension": 4,
            "hamiltonian": {"type": "mean_field", "A": matrix_to_pairs(a4),
                            "B": matrix_to_pairs(b4), "lambda": 1.0},
            "initial": {"density_matrix": matrix_to_pairs(np.diag([0.4, 0.3, 0.2, 0.1]))},
            "observables": [
                {"type": "constant", "A": matrix_to_pairs(b4)},
                {"type": "trace_scaled", "B": matrix_to_pairs(b4), "A": matrix_to_pairs(a4)},
            ],
            "integrator": {"dt": 1e-3, "t_final": 1.0, "record_stride": 10},
            "conservation_times": grid,
            "outputs": ["invariants", "conservation"],
        },
        {
            "id": "wigner-contrast",
            "dimension": 2,
            "hamiltonian": {"type": "mean_field", "A": matrix_to_pairs(np.zeros((2, 2))),
                            "B": matrix_to_pairs(SIGMA_Z), "lambda": 1.0},
            "initial": {"state_vector": [[math.cos(0.1), 0.0], [math.sin(0.1), 0.0]]},
            "wigner_pair": {"state_vector": _PLUS},
            "observables": [
                {"type": "constant", "A": matrix_to_pairs(SIGMA_X)},
                {"type": "trace_scaled", "B": matrix_to_pairs(SIGMA_Z), "A": matrix_to_pairs(SIGMA_X)},
            ],
            "integrator": {"dt": 1e-3, "t_final": 5.0, "record_stride": 1},
            "conservation_times": grid,
            "outputs": ["invariants", "wigner", "conservation"],
        },
        {
            "id": "koopman-harmonic",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "harmonic", "omega": 1.0},
                "observables": [
                    {"name": "gaussian", "center": [0.3, 0.0], "width": 0.9},
                    {"name": "gaussian", "center": [0.0, -0.2], "width": 0.9},
                ],
                "times": [0.5, 1.0, 3.141592653589793],
            },
        },
        {
            "id": "koopman-pendulum",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "pendulum", "g": 1.0},
                "observables": [
                    {"name": "gaussian", "center": [0.2, 0.0], "width": 0.5},
                    {"name": "gaussian", "center": [0.0, -0.1], "width": 0.5},
                ],
                "times": [0.5],
            },
        },
    ]
    return docs


def _suite_cross_checks(dt: float | None, thresholds: dict) -> list[ReportRow]:
    """Suite-level comparisons across runs: linear oracle and gauge shift."""
    cfg = IntegratorConfig(dt=1e-3 if dt is None else dt, t_final=1.0, record_stride=10)
    sx = HermitianOperator(SIGMA_X)
    sz = HermitianOperator(SIGMA_Z)
    up = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))

    traj = flow_mod.evolve(linear(sz), up, cfg)
    oracle_defect = 0.0
    for t, state in zip(traj.times, traj.states):
        u = unitary_exponential(sz, t)
        exact = u.matrix @ up.matrix @ u.matrix.conj().T
        oracle_defect = max(oracle_defect, max_abs(state.matrix - exact))

    shift = 10.0
    base = flow_mod.evolve(mean_field(sx, sz, 1.0), up, cfg)
    shifted = flow_mod.evolve(mean_field(HermitianOperator(sx.matrix + shift * np.eye(2)),
                                         sz, 1.0), up, cfg)
    rho_defect = max(
        max_abs(a.matrix - b.matrix) for a, b in zip(shifted.states, base.states)
    )
    phase_defect = max(
        max_abs(us.matrix - np.exp(-1j * shift * t) * ub.matrix)
        for t, us, ub in zip(base.times, shifted.cocycle, base.cocycle)
    )
    return [
        ReportRow("suite", "linear_oracle", oracle_defect, thresholds["linear_oracle"]),
        ReportRow("suite", "gauge_shift_state", rho_defect, thresholds["gauge_shift"]),
        ReportRow("suite", "gauge_shift_phase", phase_defect, thresholds["gauge_phase"]),
    ]


def emit_bundled_suite(out_dir=Path("out"), dt: float | None = None,
                       quiet: bool = False) -> int:
    """Run the shipped corpus plus the cross-run checks; nonzero exit on failure."""
    all_rows: list[ReportRow] = []
    for doc in corpus_documents():
        cfg = build_config(doc)
        if dt is not None:
            cfg = with_dt(cfg, dt)
        tables, rows = run_scenario(cfg)
        write_outputs(Path(out_dir), cfg.scenario_id, tables, rows)
        all_rows.extend(rows)
    all_rows.extend(_suite_cross_checks(dt, dict(DEFAULT_THRESHOLDS)))
    report = render_report(all_rows)
    (Path(out_dir) / "suite_report.txt").write_text(report, newline="\n")
    if not quiet:
        print(report, end="")
    return 0 if all(r.passed for r in all_rows) else 1
