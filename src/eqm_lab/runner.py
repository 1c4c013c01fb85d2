"""Batch execution: scenarios to CSV tables and pass/fail report rows.

Outputs are deterministic: fixed summation orders, fixed formatting (17
significant digits, LF line endings), so identical configs give byte-equal
tables.  Check thresholds come from the scenario config, which in turn
defaults to the module tolerances; the runner hard-codes none of them.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import flow as flow_mod
from . import koopman as koopman_mod
from .config import DEFAULT_THRESHOLDS, SINGLE_STATE_OUTPUTS, ScenarioConfig, build_config, with_dt
from .flow import ConvergenceError, IntegratorConfig, Trajectory
from .hamiltonians import linear, mean_field
from .hilbert import (
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    HermitianOperator,
    matrix_from_pairs,
    max_abs,
    re_im_view,
    trace_pairing,
)
# conservation_residual is looked up here by perfbench/tracer.py; keep the name.
from .observables import StateMeasure, conservation_residual, conservation_residuals  # noqa: F401


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
    rows = (re_im_view(m).ravel().tolist() for m in matrices)
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


def _conservation_rows(cfg: ScenarioConfig, traj: Trajectory | None) -> list[ReportRow]:
    """Rows of the conservation grid; traj, when given, is the evolve run of the single initial state."""
    if isinstance(cfg.initial, StateMeasure):
        points = [(f"[{i}]", rho, None) for i, rho in enumerate(cfg.initial.support)]
    else:
        points = [("", cfg.initial, traj)]
    times = cfg.conservation_times
    grids = [conservation_residuals(cfg.observables, cfg.hamiltonian, rho, times, cfg.integrator,
                                    recorded)
             for _, rho, recorded in points]
    return [ReportRow(cfg.scenario_id, f"conservation[{f.label},t={t:g}]{suffix}",
                      float(grid[i, j]), cfg.thresholds["conservation"])
            for i, f in enumerate(cfg.observables)
            for j, t in enumerate(times)
            for (suffix, _, _), grid in zip(points, grids)]


def _koopman_rows(cfg: ScenarioConfig) -> list[ReportRow]:
    setup = cfg.koopman
    thr = cfg.thresholds
    rows = []
    obs = setup.observables
    for t in setup.times:
        values = koopman_mod.unitarity_residuals(obs, setup.flow, t, setup.quadrature)
        for i in range(len(obs)):
            for j in range(i, len(obs)):
                rows.append(ReportRow(cfg.scenario_id,
                                      f"koopman_unitarity[{obs[i].label},{obs[j].label},t={t:g}]",
                                      float(values[i, j]), thr["koopman_unitarity"]))
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
    """Execute every requested output; returns (named CSV tables, report rows).

    The initial state is evolved once: that one trajectory gives the tables,
    the invariant rows, the P side of the Wigner scan and the forward states
    of the conservation grid.
    """
    tables: list[tuple[str, str]] = []
    rows: list[ReportRow] = []
    try:
        traj = None
        if set(SINGLE_STATE_OUTPUTS) & set(cfg.outputs):
            traj = flow_mod.evolve(cfg.hamiltonian, cfg.initial_state, cfg.integrator)
        if "trajectory" in cfg.outputs:
            tables.append(("trajectory.csv", _trajectory_table(traj, cfg.observables)))
            if cfg.export_cocycle:
                tables.append(("cocycle.csv", _cocycle_table(traj)))
        if "invariants" in cfg.outputs:
            rows.extend(_invariant_rows(cfg, traj))
        if "wigner" in cfg.outputs:
            try:
                pair = flow_mod.evolve(cfg.hamiltonian, cfg.wigner_pair, cfg.integrator)
            except flow_mod.StepError as exc:
                raise exc.on_leg("wigner pair", 0.0) from exc
            deviation, _ = flow_mod.overlap_deviation(traj, pair)
            rows.append(ReportRow(cfg.scenario_id, "wigner_deviation", deviation,
                                  cfg.thresholds["wigner_min"], mode="min"))
        if "conservation" in cfg.outputs:
            rows.extend(_conservation_rows(cfg, traj))
        if "koopman" in cfg.outputs:
            rows.extend(_koopman_rows(cfg))
    except (ConvergenceError, ValueError) as exc:
        raise ScenarioError(f"scenario '{cfg.scenario_id}': {exc}") from exc
    return tables, rows


def koopman_only(cfg: ScenarioConfig) -> ScenarioConfig:
    """The config narrowed to its classical diagnostics, for the dedicated CLI subcommand."""
    if cfg.koopman is None:
        raise ScenarioError(f"scenario '{cfg.scenario_id}': config has no koopman section")
    return replace(cfg, outputs=("koopman",))


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


def run_and_write(cfg: ScenarioConfig, out_dir: Path) -> list[ReportRow]:
    """Run one scenario and write its tables and report under ``out_dir/<id>/``."""
    tables, rows = run_scenario(cfg)
    write_outputs(out_dir, cfg.scenario_id, tables, rows)
    return rows


# --- the bundled scenario corpus -------------------------------------------


def corpus_documents() -> list[dict]:
    """The shipped scenario corpus, as plain config documents in suite order.

    One JSON file per scenario under ``eqm_lab/corpus/``; the numbered file
    names set which scenarios run and in what order.
    """
    files = sorted((f for f in resources.files(__package__).joinpath("corpus").iterdir()
                    if f.name.endswith(".json")), key=lambda f: f.name)
    return [json.loads(f.read_text()) for f in files]


def four_level_ops() -> tuple[np.ndarray, np.ndarray]:
    """The N=4 ladder operator and diag(1.5, 0.5, -0.5, -1.5).

    They are the Hamiltonian and the constant observable of the
    ``conservation-linear-n4`` corpus scenario.
    """
    doc = next(d for d in corpus_documents() if d["id"] == "conservation-linear-n4")
    constant = next(f for f in doc["observables"] if f["type"] == "constant")
    return matrix_from_pairs(doc["hamiltonian"]["A"]), matrix_from_pairs(constant["A"])


def _suite_cross_checks(dt: float | None, thresholds: dict) -> list[ReportRow]:
    """Suite-level comparisons across runs: linear oracle and gauge shift.

    The oracle starts from |+>, which sigma_z rotates, so a phase error of
    the integrator shows in the state.
    """
    cfg = IntegratorConfig(dt=1e-3 if dt is None else dt, t_final=1.0, record_stride=10)
    sx = HermitianOperator(SIGMA_X)
    sz = HermitianOperator(SIGMA_Z)
    up = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))

    traj = flow_mod.evolve(linear(sz), plus, cfg)
    # The reference takes its own eigh, not the kernel's expm_hermitian.
    eigvals, eigvecs = np.linalg.eigh(SIGMA_Z)
    oracle_defect = 0.0
    for t, state in zip(traj.times, traj.states):
        u = (eigvecs * np.exp(-1j * t * eigvals)) @ eigvecs.conj().T
        exact = u @ plus.matrix @ u.conj().T
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


def _failure_row(scenario: str, message: str) -> ReportRow:
    """Print message to stderr; the one FAIL row, ``scenario_error``, that stands for the failed run."""
    print(f"error: {message}", file=sys.stderr)
    return ReportRow(scenario, "scenario_error", 1.0, 0.0)


def run_suite(out_dir: Path, dt: float | None = None) -> list[ReportRow]:
    """Run the shipped corpus plus the cross-run checks; returns every report row.

    Each scenario goes through :func:`run_and_write`; the combined report is
    written to ``out_dir/suite_report.txt``.  A scenario that raises
    ScenarioError prints its message to stderr and writes a report of one
    FAIL row, ``scenario_error``, in place of its outputs; the suite runs on.
    Cross-checks that fail the same way give one such row for ``suite``.
    """
    all_rows: list[ReportRow] = []
    for doc in corpus_documents():
        cfg = build_config(doc)
        if dt is not None and cfg.integrator is not None:
            cfg = with_dt(cfg, dt)
        try:
            all_rows.extend(run_and_write(cfg, out_dir))
        except ScenarioError as exc:
            failed = _failure_row(cfg.scenario_id, str(exc))
            write_outputs(out_dir, cfg.scenario_id, [], [failed])
            all_rows.append(failed)
    try:
        all_rows.extend(_suite_cross_checks(dt, dict(DEFAULT_THRESHOLDS)))
    except (ConvergenceError, ValueError) as exc:
        all_rows.append(_failure_row("suite", f"suite cross-checks: {exc}"))
    (Path(out_dir) / "suite_report.txt").write_text(render_report(all_rows), newline="\n")
    return all_rows
