"""The package names the benchmark tracer (perfbench/tracer.py) patches.

The traced benchmark pass wraps module attributes such as ``flow.propagate``,
``flow.expm_hermitian`` and ``config.mean_field`` and reads ``.dim`` from
the state each differential receives.  A rename or a changed call path would
otherwise break ``perfbench/run.py --trace 1`` without failing any test.
"""

import importlib
from pathlib import Path

import pytest

from eqm_lab import config, flow, hamiltonians, hilbert, koopman, observables, runner
from eqm_lab.flow import IntegratorConfig
from eqm_lab.observables import constant_observable, trace_scaled_observable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PATCHED_MODULES = (config, flow, hamiltonians, hilbert, koopman, observables, runner)
PATCHED_CLASSES = (hilbert.DensityMatrix, hilbert.HermitianOperator, hilbert.UnitaryOperator,
                   flow.Trajectory)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _attributes():
    return {(owner, name): value
            for owner in PATCHED_MODULES + PATCHED_CLASSES
            for name, value in vars(owner).items()}


def test_traced_residual_counts_each_step_once(tracer, sx, sz, qubit_up):
    before = _attributes()
    dt, t = 0.01, 0.05
    cfg = IntegratorConfig(dt=dt, t_final=t)
    spans = tracer.Tracer()
    with spans.installed():
        h = config.mean_field(sx, sz, 1.0)
        observables.conservation_residual(constant_observable(sx), h, qubit_up, t, cfg)

    # One forward and one backward propagate, each counted once.
    nominal = tracer.nominal_steps(t, dt)
    assert nominal == 5
    assert spans.steps_integrated() == 2 * nominal
    assert spans.spans["flow.propagate.mean_field.d2"][0] == 2
    assert spans.spans["observables.residual"][3] == 2 * nominal
    # The kernel evaluates the traced differential on states and calls the
    # module-level exponential, so both show up inside the flow spans.
    assert spans.in_flow["differential"] >= 2 * nominal
    assert spans.in_flow["expm"] >= 2 * nominal
    assert spans.spans["hamiltonians.differential.mean_field.d2"][0] == spans.in_flow["differential"]

    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_grid_integrates_each_flow_once(tracer, sx, sz, qubit_up):
    before = _attributes()
    cfg = IntegratorConfig(dt=0.01, t_final=0.05)
    fs = (constant_observable(sx), trace_scaled_observable(sz, sx))
    spans = tracer.Tracer()
    with spans.installed():
        h = config.mean_field(sx, sz, 1.0)
        observables.conservation_residuals(fs, h, qubit_up, (0.02, 0.05), cfg)

    # One forward sweep to 0.05 and one backward run per grid time, shared by
    # both observables: 5 + (2 + 5) steps, where one residual per cell takes 28.
    assert spans.steps_integrated() == 5 + (2 + 5)
    assert spans.spans["flow.propagate.mean_field.d2"][0] == 2 + 2

    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
