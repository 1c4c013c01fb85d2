"""Per-layer metrics from the tracer's aggregates.

Every name is reported on every workload; a layer, family or dimension that
the workload does not run reads 0.  Times per call are means over the traced
passes, "per pass" values are totals divided by the number of traced passes,
and "per step" ratios divide calls made inside evolve/propagate spans by the
nominal steps of those spans.
"""

from __future__ import annotations

# (family, dimension) pairs the three workloads integrate.
FLOW_CASES = (("linear", 2), ("mean_field", 2), ("linear", 4), ("mean_field", 4),
              ("polynomial", 4), ("from_value", 4),
              ("linear", 16), ("mean_field", 16), ("polynomial", 16),
              ("linear", 64), ("mean_field", 64), ("polynomial", 64))
DIMS = (2, 4, 16, 64)
EMPTY = (0, 0.0, 0.0, 0)  # calls, total s, self s, steps of a key that never opened

UNITS = {"config.build_ms": "ms"}
UNITS.update({f"hamiltonians.differential_us.{f}.d{d}": "us" for f, d in FLOW_CASES})
UNITS.update({
    "hamiltonians.differentials_per_step": "1/step",
    "hamiltonians.from_value_probe_failed": "count",
})
UNITS.update({f"hilbert.expm_us.d{d}": "us" for d in DIMS})
UNITS.update({
    "hilbert.expm_per_step": "1/step",
    "hilbert.validations_per_step": "1/step",
    "hilbert.validate_share": "ratio",
})
UNITS.update({f"flow.step_us.{f}.d{d}": "us" for f, d in FLOW_CASES})
UNITS.update({
    "flow.steps_integrated": "count",
    "flow.monitor_ms": "ms",
    "observables.residual_ms": "ms",
    "observables.steps_per_residual": "count",
    "koopman.unitarity_ms": "ms",
    "koopman.generator_us": "us",
    "runner.self_ms": "ms",
    "runner.write_ms": "ms",
    "runner.csv_bytes": "count",
    "runner.csv_identical": "count",
    "bench.trace_overhead_ratio": "ratio",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, passes: int, traced_wall: float) -> dict:
    """Every per-layer metric except the counts the workload adds itself."""
    spans = tracer.spans

    def mean(key: str, scale: float) -> float:
        calls, total = spans.get(key, EMPTY)[:2]
        return _ratio(total, calls) * scale

    steps = tracer.steps_integrated()
    out = {"config.build_ms": mean("config.build", 1e3)}
    for family, dim in FLOW_CASES:
        out[f"hamiltonians.differential_us.{family}.d{dim}"] = mean(
            f"hamiltonians.differential.{family}.d{dim}", 1e6)
        run = [spans.get(f"flow.{kind}.{family}.d{dim}", EMPTY) for kind in ("evolve", "propagate")]
        out[f"flow.step_us.{family}.d{dim}"] = _ratio(sum(s[1] for s in run),
                                                      sum(s[3] for s in run)) * 1e6
    for dim in DIMS:
        out[f"hilbert.expm_us.d{dim}"] = mean(f"hilbert.expm.d{dim}", 1e6)
    residual = spans.get("observables.residual", EMPTY)
    scenario = spans.get("runner.run_scenario", EMPTY)
    out.update({
        "hamiltonians.differentials_per_step": _ratio(tracer.in_flow["differential"], steps),
        "hilbert.expm_per_step": _ratio(tracer.in_flow["expm"], steps),
        "hilbert.validations_per_step": _ratio(tracer.in_flow["validate"], steps),
        "hilbert.validate_share": _ratio(tracer.total("hilbert.validate")[1], traced_wall),
        "flow.steps_integrated": _ratio(steps, passes),
        "flow.monitor_ms": _ratio(tracer.total("flow.monitor")[1], passes) * 1e3,
        "observables.residual_ms": mean("observables.residual", 1e3),
        "observables.steps_per_residual": _ratio(residual[3], residual[0]),
        "koopman.unitarity_ms": mean("koopman.unitarity", 1e3),
        "koopman.generator_us": mean("koopman.generator", 1e6),
        "runner.self_ms": _ratio(scenario[2], passes) * 1e3,
        "runner.write_ms": _ratio(tracer.total("runner.write")[1], passes) * 1e3,
        "runner.csv_bytes": _ratio(tracer.csv_bytes, passes),
        "runner.csv_identical": 0,
        "hamiltonians.from_value_probe_failed": 0,
    })
    return out
