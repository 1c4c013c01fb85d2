"""Scenario configuration: parsing, validation, defaults.

Configs are JSON documents with explicit [re, im] matrix literals (see
:func:`eqm_lab.hilbert.matrix_from_pairs`).  Every object of a document is
read through one reader, ``_Fields``, which checks each field's JSON type,
numbers, counts and arrays, and reports a failure as a ConfigError at the
field's path.  Every matrix invariant is checked at parse time, before any
integration starts.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import hilbert, koopman
from .flow import DEFAULT_MIDPOINT_MAX_ITER, DEFAULT_MIDPOINT_TOL, IntegratorConfig
from .hamiltonians import HamiltonianFunction, linear, mean_field, polynomial
from .hilbert import DensityMatrix, HermitianOperator, StateVector, projector
from .koopman import ClassicalObservable, Quadrature, SymplecticFlow
from .observables import (
    ObservableFunction,
    StateMeasure,
    constant_observable,
    trace_scaled_observable,
)

OUTPUT_KINDS = ("trajectory", "invariants", "wigner", "conservation", "koopman")
SINGLE_STATE_OUTPUTS = ("trajectory", "invariants", "wigner")  # read off one evolved state
FLOW_OUTPUTS = SINGLE_STATE_OUTPUTS + ("conservation",)

# A mean field steps by its split where the scenario's longest leg is at most
# SPLIT_MAX_STEPS steps at dimension at most SPLIT_MAX_DIM, by the midpoint
# rule elsewhere.  The split repeats the rounding of its cached half step, so
# its trace defect grows with the step count: at d = 4 and dt = 1e-3 by
# ~1.6e-15 a step, past the trace row's 1e-11 at step 6542 and TRACE_TOL at
# step 31445 (longrun/test_split_longrun.py).  It was measured only up to d = 4.
# The bound was set on those operators.  It keeps a leg below TRACE_TOL, so no
# split run raises StateError, but not below the trace row on every flow: 4 of
# 16 random order-one mean fields at d = 3 and 4 read 1.0e-11 to 1.8e-11 after
# 5000 steps and fail that row (longrun/test_split_longrun.py).
SPLIT_MAX_STEPS = 5000
SPLIT_MAX_DIM = 4

# Check thresholds; config values override these module defaults.
DEFAULT_THRESHOLDS = {
    "unitarity": hilbert.UNITARITY_TOL,
    "cocycle": 1e-10,
    "spectrum_drift": 1e-9,
    "trace": 1e-11,
    "purity_drift": 1e-9,
    "conservation": 1e-8,
    "wigner_min": 1e-2,
    "linear_oracle": 1e-8,
    "gauge_shift": 1e-10,
    "gauge_phase": 1e-9,
    "koopman_unitarity": 1e-6,
    "koopman_generator": 1e-5,
}

# The keys each kind of object may hold, by its document path with array indices dropped.
# Top-level keys are declared whatever the outputs are.  A typed object holds only the
# keys of its own type's entry, "<path>:<type>", as well.
_DOCUMENT_KEYS = {
    "": ("id", "outputs", "thresholds", "dimension", "hamiltonian", "initial", "integrator",
         "observables", "conservation_times", "wigner_pair", "export_cocycle", "koopman"),
    "thresholds": tuple(DEFAULT_THRESHOLDS),
    "hamiltonian": ("type", "A", "B", "lambda", "terms"),
    "hamiltonian:linear": ("type", "A"),
    "hamiltonian:mean_field": ("type", "A", "B", "lambda"),
    "hamiltonian:polynomial": ("type", "terms"),
    "hamiltonian.terms": ("coefficient", "factors"),
    "initial": ("state_vector", "density_matrix", "measure"),
    "initial.measure": ("support", "weights"),
    "integrator": ("dt", "t_final", "midpoint_tol", "midpoint_max_iter", "record_stride"),
    "observables": ("type", "A", "B"),
    "observables:constant": ("type", "A"),
    "observables:trace_scaled": ("type", "A", "B"),
    "wigner_pair": ("state_vector", "density_matrix"),
    "koopman": ("flow", "observables", "times", "quadrature", "points", "generator_dt"),
    "koopman.flow": ("type", "omega", "g"),
    "koopman.flow:harmonic": ("type", "omega"),
    "koopman.flow:pendulum": ("type", "g"),
    "koopman.observables": ("name", "center", "width"),
    "koopman.quadrature": ("extent", "order"),
}

DEFAULT_GENERATOR_POINTS = tuple(
    (0.8 * math.cos(0.7 * k), 0.8 * math.sin(1.1 * k)) for k in range(10)
)
DEFAULT_GENERATOR_DT = 1e-3


class ConfigError(ValueError):
    """A malformed or inconsistent scenario document, located by field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class KoopmanSetup:
    flow: SymplecticFlow
    observables: tuple
    times: tuple
    quadrature: Quadrature
    generator_points: tuple
    generator_dt: float = DEFAULT_GENERATOR_DT


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    outputs: tuple
    thresholds: dict
    hamiltonian: Optional[HamiltonianFunction] = None
    initial: object = None  # DensityMatrix or StateMeasure
    observables: tuple = ()
    integrator: Optional[IntegratorConfig] = None
    wigner_pair: Optional[DensityMatrix] = None
    conservation_times: tuple = ()
    export_cocycle: bool = False
    koopman: Optional[KoopmanSetup] = None

    @property
    def initial_state(self) -> DensityMatrix:
        if isinstance(self.initial, DensityMatrix):
            return self.initial
        raise ValueError("this scenario's initial condition is a measure, not a single state")


@contextmanager
def _at(path: str):
    """Report a ValueError or TypeError raised while building a value as a ConfigError at path."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from None


def parse_config(document: str) -> ScenarioConfig:
    """Parse and fully validate a JSON scenario document."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>",
                          f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return build_config(doc)


def with_dt(cfg: ScenarioConfig, dt: float) -> ScenarioConfig:
    """Return the config with the integrator step overridden."""
    if cfg.integrator is None:
        raise ConfigError("integrator", "cannot override dt: config has no integrator section")
    with _at("integrator.dt"):
        hilbert.require_real("dt", dt, positive=True)  # before float() reads a bool or a string
        integrator = replace(cfg.integrator, dt=float(dt))
    hamiltonian = _fit_split(cfg.hamiltonian, integrator, cfg.conservation_times, cfg.outputs)
    return replace(cfg, hamiltonian=hamiltonian, integrator=integrator)


def _fit_split(h: HamiltonianFunction, integrator: IntegratorConfig, conservation_times: tuple,
               outputs: tuple) -> HamiltonianFunction:
    """h, without its split unless the scenario's longest leg is in the split's measured range.

    A leg counts if the scenario runs it: the evolve to t_final for any of
    SINGLE_STATE_OUTPUTS, each conservation time's legs for conservation.
    Every run of a scenario then takes the same step, and the chained legs
    keep their bits.
    """
    legs = [integrator.t_final] if any(out in outputs for out in SINGLE_STATE_OUTPUTS) else []
    if "conservation" in outputs:
        legs.extend(map(abs, conservation_times))
    reach = max(legs, default=0.0)
    if h.split is None or (h.dim <= SPLIT_MAX_DIM and reach / integrator.dt <= SPLIT_MAX_STEPS):
        return h
    return replace(h, split=None)


_REQUIRED = object()


def _number(value, path, minimum=-math.inf, maximum=math.inf) -> float:
    with _at(path):
        hilbert.require_real(path.rsplit(".", 1)[-1], value, minimum, maximum)
    return float(value)


def _entries(value, path, need=None) -> list:
    """The (entry, path) pairs of a JSON array; need names what an empty array lacks."""
    if not isinstance(value, list):
        raise ConfigError(path, f"expected an array, got {type(value).__name__}")
    if need and not value:
        raise ConfigError(path, f"need at least one {need}")
    return [(entry, f"{path}[{i}]") for i, entry in enumerate(value)]


def _operator(cls, value, path, dim, parse=hilbert.matrix_from_pairs):
    """A [re, im] literal of dimension dim, read by parse and built by cls."""
    with _at(path):
        arr = parse(value)
        if arr.shape[0] != dim:
            raise ValueError(f"expected dimension {dim}, got {arr.shape[0]}")
        return cls(arr)


class _Fields:
    """A JSON object at a document path, read field by field.

    Every read reports a failure as a ConfigError at the field's full path;
    the document itself sits at the empty path and is called "<document>".
    A key that _DOCUMENT_KEYS does not declare for the object, or for the
    object's type if it has a known one, is an error.
    """

    def __init__(self, value, path: str):
        if not isinstance(value, dict):
            raise ConfigError(path or "<document>", f"expected an object, got {type(value).__name__}")
        self.obj = value
        self.path = path
        kind = re.sub(r"\[\d+\]", "", path)
        for key in value:
            if key not in _DOCUMENT_KEYS[kind]:
                raise ConfigError(self.path_of(key),
                                  "unknown check name" if kind == "thresholds" else "unknown field")
        own = _DOCUMENT_KEYS.get(f"{kind}:{value.get('type')}")  # None: untyped, or type unknown
        for key in value:
            if own and key not in own:
                raise ConfigError(self.path_of(key), f"unknown field for type {value['type']!r}")

    def __contains__(self, key) -> bool:
        return key in self.obj

    def path_of(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default=_REQUIRED):
        if key in self.obj:
            return self.obj[key]
        if default is _REQUIRED:
            raise ConfigError(self.path_of(key), "missing required field")
        return default

    def number(self, key: str, default=_REQUIRED, minimum=-math.inf, maximum=math.inf) -> float:
        return _number(self.get(key, default), self.path_of(key), minimum, maximum)

    def integer(self, key: str, default=_REQUIRED, minimum=1, maximum=math.inf) -> int:
        """A count: a finite number in [minimum, maximum] with no fractional part (50.0 reads as 50)."""
        value = self.number(key, default, minimum, maximum)
        if not value.is_integer():
            raise ConfigError(self.path_of(key), f"expected an integer, got {value!r}")
        return int(value)

    def items(self, key: str, default=_REQUIRED, need=None) -> list:
        return _entries(self.get(key, default), self.path_of(key), need)

    def fields(self, key: str, default=_REQUIRED) -> "_Fields":
        return _Fields(self.get(key, default), self.path_of(key))

    def hermitian(self, key: str, dim: int) -> HermitianOperator:
        return _operator(HermitianOperator, self.get(key), self.path_of(key), dim)


def _state(f: _Fields, dim) -> DensityMatrix:
    """A single state given either as a state vector or as a density matrix."""
    if "state_vector" in f:
        return _operator(lambda vec: projector(StateVector(vec)), f.get("state_vector"),
                         f.path_of("state_vector"), dim, hilbert.vector_from_pairs)
    if "density_matrix" in f:
        return _operator(DensityMatrix, f.get("density_matrix"), f.path_of("density_matrix"), dim)
    raise ConfigError(f.path, "expected a state_vector or density_matrix field")


def _parse_hamiltonian(f: _Fields, dim) -> HamiltonianFunction:
    kind = f.get("type")
    if kind == "linear":
        return linear(f.hermitian("A", dim))
    if kind == "mean_field":
        return mean_field(f.hermitian("A", dim), f.hermitian("B", dim), f.number("lambda"),
                          split=True)
    if kind == "polynomial":
        terms = []
        for entry in f.items("terms"):
            term = _Fields(*entry)
            terms.append((term.number("coefficient"),
                          tuple(_operator(HermitianOperator, *factor, dim)
                                for factor in term.items("factors"))))
        return polynomial(terms)
    raise ConfigError(f.path_of("type"),
                      f"unknown Hamiltonian type {kind!r}; expected linear, mean_field, or polynomial")


def _parse_initial(f: _Fields, dim):
    if "measure" not in f:
        return _state(f, dim)
    measure = f.fields("measure")
    support = [_operator(DensityMatrix, *entry, dim) for entry in measure.items("support")]
    weights = [_number(*entry) for entry in measure.items("weights")]
    with _at(measure.path):
        return StateMeasure(support=tuple(support), weights=np.array(weights))


def _parse_observable(f: _Fields, dim, index) -> ObservableFunction:
    kind = f.get("type")
    label = f"{kind}[{index}]"
    if kind == "constant":
        return constant_observable(f.hermitian("A", dim), label=label)
    if kind == "trace_scaled":
        b = f.hermitian("B", dim)
        return trace_scaled_observable(b, f.hermitian("A", dim), label=label)
    raise ConfigError(f.path_of("type"),
                      f"unknown observable type {kind!r}; expected constant or trace_scaled")


def _parse_integrator(f: _Fields) -> IntegratorConfig:
    kwargs = dict(dt=f.number("dt"), t_final=f.number("t_final"),
                  midpoint_tol=f.number("midpoint_tol", DEFAULT_MIDPOINT_TOL),
                  midpoint_max_iter=f.integer("midpoint_max_iter", DEFAULT_MIDPOINT_MAX_ITER),
                  record_stride=f.integer("record_stride", 1))
    with _at(f.path):
        return IntegratorConfig(**kwargs)


def _phase_point(value, path) -> tuple[float, float]:
    """A phase-space point written as [q, p]."""
    pair = _entries(value, path)
    if len(pair) != 2:
        raise ConfigError(path, "expected [q, p]")
    return _number(*pair[0]), _number(*pair[1])


def _parse_classical_observable(f: _Fields) -> ClassicalObservable:
    name = f.get("name")
    params = {}
    if "center" in f:
        params["center"] = _phase_point(f.get("center"), f.path_of("center"))
    if "width" in f:
        params["width"] = f.number("width")
    with _at(f.path):
        return koopman.builtin_observable(name, **params)


def _parse_koopman(f: _Fields) -> KoopmanSetup:
    flow_f = f.fields("flow")
    flow_kind = flow_f.get("type")
    if flow_kind == "harmonic":
        flow = koopman.HarmonicOscillator(omega=flow_f.number("omega", 1.0))
    elif flow_kind == "pendulum":
        flow = koopman.Pendulum(g=flow_f.number("g", 1.0))
    else:
        raise ConfigError(flow_f.path_of("type"),
                          f"unknown flow type {flow_kind!r}; expected harmonic or pendulum")

    observables = tuple(_parse_classical_observable(_Fields(*entry))
                        for entry in f.items("observables", need="observable"))
    times = tuple(_number(*entry) for entry in f.items("times", need="time"))

    quad = f.fields("quadrature", {})
    extent = quad.number("extent", koopman.DEFAULT_EXTENT)
    order = quad.integer("order", koopman.DEFAULT_ORDER, minimum=2, maximum=koopman.MAX_ORDER)
    with _at(quad.path):
        quadrature = Quadrature.gauss_legendre(extent=extent, order=order)

    points = DEFAULT_GENERATOR_POINTS
    if "points" in f:
        points = tuple(_phase_point(*entry) for entry in f.items("points"))
    generator_dt = f.number("generator_dt", DEFAULT_GENERATOR_DT,
                            koopman.GEN_DT_MIN, koopman.GEN_DT_MAX)
    return KoopmanSetup(flow=flow, observables=observables, times=times,
                        quadrature=quadrature, generator_points=points,
                        generator_dt=generator_dt)


def _parse_flow(top: _Fields, outputs: tuple) -> dict:
    """The ScenarioConfig fields of a document that asks for a density-matrix flow."""
    dimension = top.integer("dimension", minimum=-math.inf)
    with _at("dimension"):
        hilbert.require_dim("dimension", dimension)
    hamiltonian = _parse_hamiltonian(top.fields("hamiltonian"), dimension)
    initial = _parse_initial(top.fields("initial"), dimension)
    integrator_f = top.fields("integrator")
    integrator = _parse_integrator(integrator_f)
    observables = tuple(_parse_observable(_Fields(*entry), dimension, i)
                        for i, entry in enumerate(top.items("observables", [])))
    conservation_times = tuple(_number(*entry)
                               for entry in top.items("conservation_times", [integrator.t_final]))
    hamiltonian = _fit_split(hamiltonian, integrator, conservation_times, outputs)
    if hamiltonian.split is not None:
        for key in ("midpoint_tol", "midpoint_max_iter"):
            if key in integrator_f:
                raise ConfigError(integrator_f.path_of(key), "not used: this mean field takes "
                                  "its split step, which has no midpoint iteration")
    wigner_pair = _state(top.fields("wigner_pair"), dimension) if "wigner_pair" in top else None

    for out in SINGLE_STATE_OUTPUTS:
        if out in outputs and not isinstance(initial, DensityMatrix):
            raise ConfigError("initial", f"{out} requires a single initial state, not a measure")
    if "wigner" in outputs:
        if wigner_pair is None:
            raise ConfigError("wigner_pair", "wigner requires wigner_pair")
        for key, state in (("initial", initial), ("wigner_pair", wigner_pair)):
            with _at(key):
                hilbert.require_pure(f"wigner's {key} state", state)
    if "conservation" in outputs:
        if not observables:
            raise ConfigError("observables", "conservation requires at least one observable")
        if not conservation_times:
            raise ConfigError("conservation_times", "need at least one time")
    return dict(hamiltonian=hamiltonian, initial=initial,
                observables=observables, integrator=integrator, wigner_pair=wigner_pair,
                conservation_times=conservation_times)


def build_config(doc: dict) -> ScenarioConfig:
    """Validate a decoded scenario document and build all domain objects."""
    top = _Fields(doc, "")

    scenario_id = top.get("id", "scenario")
    if not isinstance(scenario_id, str) or not scenario_id:
        raise ConfigError("id", "expected a nonempty string")
    # The id names the scenario's output directory under --out-dir.
    if scenario_id in (".", "..") or any(c in scenario_id for c in "/\\\0"):
        raise ConfigError("id", f"must name one directory, got {scenario_id!r}")

    outputs = tuple(out for out, _ in top.items("outputs", need="requested output"))
    for out in outputs:
        if out not in OUTPUT_KINDS:
            raise ConfigError("outputs", f"unknown output {out!r}; expected one of {OUTPUT_KINDS}")

    thresholds = dict(DEFAULT_THRESHOLDS)
    given = top.fields("thresholds", {})
    for key in given.obj:
        thresholds[key] = given.number(key, minimum=0.0)

    flow = _parse_flow(top, outputs) if any(out in FLOW_OUTPUTS for out in outputs) else {}

    koopman_setup = _parse_koopman(top.fields("koopman")) if "koopman" in top else None
    if "koopman" in outputs and koopman_setup is None:
        raise ConfigError("koopman", "koopman output requires a koopman section")

    export_cocycle = top.get("export_cocycle", False)
    if not isinstance(export_cocycle, bool):
        raise ConfigError("export_cocycle", "expected true or false")

    return ScenarioConfig(scenario_id=scenario_id, outputs=outputs, thresholds=thresholds,
                          export_cocycle=export_cocycle, koopman=koopman_setup, **flow)
