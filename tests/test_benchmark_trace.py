"""A traced benchmark call runs and passes its workload's own check.

``perfbench/run.py --trace 1`` runs part of its passes with the span tracer
installed.  Each workload's calls must then run through the tracer's
wrappers and still produce outputs that the workload's ``check`` accepts.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


@pytest.mark.parametrize("name, label", [("corpus-suite", "wigner-contrast"),
                                         ("long-flow", "linear.d16")])
def test_traced_call_passes_its_check(perfbench, name, label, tmp_path):
    tracer_mod, workloads = perfbench
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.setup()
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        (call,) = [c for c in workload.calls(tracer) if c.label == label]
        out = call.run()
    assert call.check(out) == []
    assert tracer.steps_integrated() > 0
