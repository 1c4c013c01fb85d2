"""Span tracer for the traced benchmark pass.

Spans are recorded from the benchmark's side of the API: while a Tracer is
installed, the public functions of ``config``, ``hamiltonians``, ``hilbert``,
``flow``, ``observables``, ``koopman`` and ``runner`` are replaced by timing
wrappers at the module (or class) attributes their callers look up, and the
originals are put back when the ``installed()`` block ends.  Nothing in the
package is edited.

A pass integrates tens of thousands of steps, each opening about a dozen leaf
spans, so spans are folded into per-key aggregates as they close instead of
being kept one by one:

    calls, total seconds, self seconds, nominal steps

Self time is a span's duration minus the part covered by its direct child
spans.  Nominal steps are counted on ``flow.evolve`` and ``flow.propagate``
spans and added to every enclosing span, so ``observables.residual`` knows
how many steps each residual integrated.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from eqm_lab import config, flow, hamiltonians, hilbert, koopman, observables, runner

MONITORS = ("max_unitarity_defect", "max_cocycle_defect", "max_spectrum_drift",
            "max_trace_defect", "max_purity_drift")
VALIDATED = (hilbert.DensityMatrix, hilbert.HermitianOperator, hilbert.UnitaryOperator)
FAMILIES = ("linear", "mean_field", "polynomial")


def nominal_steps(span: float, dt: float) -> int:
    """Steps of size dt covering |span|, counting a shorter last step as one.

    This is the benchmark's own definition of the work a flow call asks for;
    it matches how ``flow.evolve``/``flow.propagate`` split an interval and
    stays fixed if the integrator later takes fewer or more steps.
    """
    span = abs(span)
    n = int(math.floor(span / dt + 1e-9))
    return n + (span - n * dt >= 1e-12 * max(1.0, span))


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total s, self s, steps
        self.in_flow = Counter()  # leaf calls made while an evolve/propagate span is open
        self._stack = []          # open spans: [child seconds, child steps]
        self._flow_depth = 0
        self._families = {}       # id(traced HamiltonianFunction) -> (family, function)
        self.csv_bytes = 0        # bytes of the CSV tables run_scenario returned
        self._undo = []

    # -- span recording --------------------------------------------------

    def timed(self, fn, key_of, steps_of=None, leaf=None):
        """Wrap fn so each call closes one span under key_of(args).

        steps_of(args) marks a flow span and gives its nominal steps; leaf
        names a counter bumped when the call happens inside a flow span.
        """
        spans, stack, in_flow = self.spans, self._stack, self.in_flow

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            if steps_of is not None:
                self._flow_depth += 1
            elif leaf is not None and self._flow_depth:
                in_flow[leaf] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                steps = frame[1]
                if steps_of is not None:
                    self._flow_depth -= 1
                    steps += steps_of(args)
                agg = spans[key_of(args)]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                agg[3] += steps
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += steps

        return traced

    def hamiltonian(self, h, family: str):
        """A copy of h whose differential records spans and counts calls."""
        keys = {}

        def key_of(args):
            dim = args[0].dim
            if dim not in keys:
                keys[dim] = f"hamiltonians.differential.{family}.d{dim}"
            return keys[dim]

        traced = hamiltonians.HamiltonianFunction(
            value=h.value,
            differential=self.timed(h.differential, key_of, leaf="differential"),
            label=h.label)
        self._families[id(traced)] = (family, traced)
        return traced

    def _family(self, h) -> str:
        entry = self._families.get(id(h))
        return entry[0] if entry else "untraced"

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name, new):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _factory(self, build, family):
        return lambda *args, **kwargs: self.hamiltonian(build(*args, **kwargs), family)

    @contextmanager
    def installed(self):
        """Route the package's public calls through span wrappers."""
        try:
            self._install()
            yield self
        finally:
            while self._undo:
                owner, name, original = self._undo.pop()
                setattr(owner, name, original)

    def _install(self):
        patch = self._patch
        # config builds Hamiltonians by these names; runner's cross-checks too.
        for family in FAMILIES:
            patch(config, family, self._factory(vars(config)[family], family))
        for family in ("linear", "mean_field"):
            patch(runner, family, self._factory(vars(runner)[family], family))
        patch(runner, "build_config",
              self.timed(runner.build_config, lambda _: "config.build"))

        expm_keys = {}

        def expm_key(args):
            dim = args[0].shape[0]
            if dim not in expm_keys:
                expm_keys[dim] = f"hilbert.expm.d{dim}"
            return expm_keys[dim]

        for owner in (flow, hilbert):
            patch(owner, "expm_hermitian",
                  self.timed(vars(owner)["expm_hermitian"], expm_key, leaf="expm"))
        for cls in VALIDATED:
            patch(cls, "__post_init__",
                  self.timed(vars(cls)["__post_init__"], lambda _: "hilbert.validate",
                             leaf="validate"))

        def flow_key(kind):
            return lambda args: f"flow.{kind}.{self._family(args[0])}.d{args[1].dim}"

        patch(flow, "evolve", self.timed(flow.evolve, flow_key("evolve"),
                                         steps_of=lambda a: nominal_steps(a[2].t_final, a[2].dt)))
        patch(flow, "propagate", self.timed(flow.propagate, flow_key("propagate"),
                                            steps_of=lambda a: nominal_steps(a[2], a[3].dt)))
        patch(flow, "wigner_deviation",
              self.timed(flow.wigner_deviation, lambda _: "flow.wigner_deviation"))
        for name in MONITORS:
            patch(flow.Trajectory, name,
                  self.timed(vars(flow.Trajectory)[name], lambda _: "flow.monitor"))

        patch(runner, "conservation_residual",
              self.timed(runner.conservation_residual, lambda _: "observables.residual"))
        patch(observables, "conservation_residual",
              self.timed(observables.conservation_residual, lambda _: "observables.residual"))

        patch(koopman, "unitarity_residual",
              self.timed(koopman.unitarity_residual, lambda _: "koopman.unitarity"))
        patch(koopman, "liouville_generator_residual",
              self.timed(koopman.liouville_generator_residual, lambda _: "koopman.generator"))

        scenario = self.timed(runner.run_scenario, lambda _: "runner.run_scenario")

        def run_scenario(cfg):
            tables, rows = scenario(cfg)
            self.csv_bytes += sum(len(text.encode()) for _, text in tables)
            return tables, rows

        patch(runner, "run_scenario", run_scenario)
        patch(runner, "write_outputs", self.timed(runner.write_outputs, lambda _: "runner.write"))

    # -- aggregates ------------------------------------------------------

    def total(self, prefix: str) -> tuple[int, float, float, int]:
        """Summed (calls, total s, self s, steps) over keys starting with prefix."""
        calls = total = own = steps = 0
        for key, (c, t, s, n) in self.spans.items():
            if key.startswith(prefix):
                calls, total, own, steps = calls + c, total + t, own + s, steps + n
        return calls, total, own, steps

    def steps_integrated(self) -> int:
        """Nominal steps of every evolve/propagate span (wigner's are nested evolves)."""
        return self.total("flow.evolve.")[3] + self.total("flow.propagate.")[3]
