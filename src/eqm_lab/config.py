"""Scenario configuration: parsing, validation, defaults.

Configs are JSON documents with explicit [re, im] matrix literals (see
:func:`eqm_lab.hilbert.matrix_from_pairs`).  Every matrix invariant is
checked at parse time, before any integration starts, and violations are
reported with the offending field path.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import hilbert, koopman
from .flow import IntegratorConfig
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
FLOW_OUTPUTS = ("trajectory", "invariants", "wigner", "conservation")

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
    dimension: Optional[int] = None
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
        integrator = replace(cfg.integrator, dt=float(dt))
    return replace(cfg, integrator=integrator)


def _expect_object(value, path):
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, path):
    if not isinstance(value, list):
        raise ConfigError(path, f"expected an array, got {type(value).__name__}")
    return value


def _get(doc: dict, key: str, path: str, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
        return default
    return doc[key]


def _number(value, path, minimum=None) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    out = float(value)
    if minimum is not None and out < minimum:
        raise ConfigError(path, f"must be >= {minimum:g}, got {out:g}")
    return out


def _matrix(value, path, dim=None) -> np.ndarray:
    with _at(path):
        mat = hilbert.matrix_from_pairs(value)
    if dim is not None and mat.shape[0] != dim:
        raise ConfigError(path, f"expected dimension {dim}, got {mat.shape[0]}")
    return mat


def _hermitian(value, path, dim=None) -> HermitianOperator:
    mat = _matrix(value, path, dim)
    with _at(path):
        return HermitianOperator(mat)


def _density(value, path, dim=None) -> DensityMatrix:
    mat = _matrix(value, path, dim)
    with _at(path):
        return DensityMatrix(mat)


def _state(value, path, dim) -> DensityMatrix:
    """A single state given either as a state vector or as a density matrix."""
    obj = _expect_object(value, path)
    if "state_vector" in obj:
        with _at(f"{path}.state_vector"):
            vec = hilbert.vector_from_pairs(obj["state_vector"])
            if vec.shape[0] != dim:
                raise ValueError(f"expected dimension {dim}, got {vec.shape[0]}")
            return projector(StateVector(vec))
    if "density_matrix" in obj:
        return _density(obj["density_matrix"], f"{path}.density_matrix", dim)
    raise ConfigError(path, "expected a state_vector or density_matrix field")


def _parse_hamiltonian(value, path, dim) -> HamiltonianFunction:
    obj = _expect_object(value, path)
    kind = _get(obj, "type", path)
    if kind == "linear":
        return linear(_hermitian(_get(obj, "A", path), f"{path}.A", dim))
    if kind == "mean_field":
        a = _hermitian(_get(obj, "A", path), f"{path}.A", dim)
        b = _hermitian(_get(obj, "B", path), f"{path}.B", dim)
        lam = _number(_get(obj, "lambda", path), f"{path}.lambda")
        return mean_field(a, b, lam)
    if kind == "polynomial":
        terms = []
        for i, term in enumerate(_expect_list(_get(obj, "terms", path), f"{path}.terms")):
            term_path = f"{path}.terms[{i}]"
            term_obj = _expect_object(term, term_path)
            coeff = _number(_get(term_obj, "coefficient", term_path), f"{term_path}.coefficient")
            factors = [
                _hermitian(f, f"{term_path}.factors[{j}]", dim)
                for j, f in enumerate(_expect_list(_get(term_obj, "factors", term_path),
                                                   f"{term_path}.factors"))
            ]
            terms.append((coeff, tuple(factors)))
        return polynomial(terms, dim=dim)
    raise ConfigError(f"{path}.type",
                      f"unknown Hamiltonian type {kind!r}; expected linear, mean_field, or polynomial")


def _parse_initial(value, path, dim):
    obj = _expect_object(value, path)
    if "measure" in obj:
        measure_path = f"{path}.measure"
        measure = _expect_object(obj["measure"], measure_path)
        support = [
            _density(m, f"{measure_path}.support[{i}]", dim)
            for i, m in enumerate(_expect_list(_get(measure, "support", measure_path),
                                               f"{measure_path}.support"))
        ]
        weights = [
            _number(w, f"{measure_path}.weights[{i}]")
            for i, w in enumerate(_expect_list(_get(measure, "weights", measure_path),
                                               f"{measure_path}.weights"))
        ]
        with _at(measure_path):
            return StateMeasure(support=tuple(support), weights=np.array(weights))
    return _state(value, path, dim)


def _parse_observable(value, path, dim, index) -> ObservableFunction:
    obj = _expect_object(value, path)
    kind = _get(obj, "type", path)
    label = f"{kind}[{index}]"
    if kind == "constant":
        return constant_observable(_hermitian(_get(obj, "A", path), f"{path}.A", dim), label=label)
    if kind == "trace_scaled":
        b = _hermitian(_get(obj, "B", path), f"{path}.B", dim)
        a = _hermitian(_get(obj, "A", path), f"{path}.A", dim)
        return trace_scaled_observable(b, a, label=label)
    raise ConfigError(f"{path}.type",
                      f"unknown observable type {kind!r}; expected constant or trace_scaled")


def _parse_integrator(value, path) -> IntegratorConfig:
    obj = _expect_object(value, path)
    kwargs = dict(
        dt=_number(_get(obj, "dt", path), f"{path}.dt"),
        t_final=_number(_get(obj, "t_final", path), f"{path}.t_final"),
    )
    if "midpoint_tol" in obj:
        kwargs["midpoint_tol"] = _number(obj["midpoint_tol"], f"{path}.midpoint_tol")
    if "midpoint_max_iter" in obj:
        kwargs["midpoint_max_iter"] = int(_number(obj["midpoint_max_iter"], f"{path}.midpoint_max_iter", 1))
    if "record_stride" in obj:
        kwargs["record_stride"] = int(_number(obj["record_stride"], f"{path}.record_stride", 1))
    with _at(path):
        return IntegratorConfig(**kwargs)


def _phase_point(value, path) -> tuple[float, float]:
    """A phase-space point written as [q, p]."""
    pair = _expect_list(value, path)
    if len(pair) != 2:
        raise ConfigError(path, "expected [q, p]")
    return _number(pair[0], f"{path}[0]"), _number(pair[1], f"{path}[1]")


def _parse_classical_observable(value, path) -> ClassicalObservable:
    obj = _expect_object(value, path)
    name = _get(obj, "name", path)
    params = {}
    if "center" in obj:
        params["center"] = _phase_point(obj["center"], f"{path}.center")
    if "width" in obj:
        params["width"] = _number(obj["width"], f"{path}.width")
    with _at(path):
        return koopman.builtin_observable(name, **params)


def _parse_koopman(value, path) -> KoopmanSetup:
    obj = _expect_object(value, path)
    flow_obj = _expect_object(_get(obj, "flow", path), f"{path}.flow")
    flow_kind = _get(flow_obj, "type", f"{path}.flow")
    if flow_kind == "harmonic":
        flow = koopman.HarmonicOscillator(omega=_number(flow_obj.get("omega", 1.0), f"{path}.flow.omega"))
    elif flow_kind == "pendulum":
        flow = koopman.Pendulum(g=_number(flow_obj.get("g", 1.0), f"{path}.flow.g"))
    else:
        raise ConfigError(f"{path}.flow.type",
                          f"unknown flow type {flow_kind!r}; expected harmonic or pendulum")

    observables = tuple(
        _parse_classical_observable(o, f"{path}.observables[{i}]")
        for i, o in enumerate(_expect_list(_get(obj, "observables", path), f"{path}.observables"))
    )
    if not observables:
        raise ConfigError(f"{path}.observables", "need at least one observable")

    times = tuple(
        _number(t, f"{path}.times[{i}]")
        for i, t in enumerate(_expect_list(_get(obj, "times", path), f"{path}.times"))
    )
    if not times:
        raise ConfigError(f"{path}.times", "need at least one time")

    quad_obj = obj.get("quadrature", {})
    _expect_object(quad_obj, f"{path}.quadrature")
    extent = _number(quad_obj.get("extent", koopman.DEFAULT_EXTENT), f"{path}.quadrature.extent")
    order = int(_number(quad_obj.get("order", koopman.DEFAULT_ORDER), f"{path}.quadrature.order", 2))
    with _at(f"{path}.quadrature"):
        quadrature = Quadrature.gauss_legendre(extent=extent, order=order)

    points = DEFAULT_GENERATOR_POINTS
    if "points" in obj:
        points = tuple(_phase_point(pt, f"{path}.points[{i}]")
                       for i, pt in enumerate(_expect_list(obj["points"], f"{path}.points")))
    generator_dt = _number(obj.get("generator_dt", DEFAULT_GENERATOR_DT), f"{path}.generator_dt")
    if not koopman.GEN_DT_MIN <= generator_dt <= koopman.GEN_DT_MAX:
        raise ConfigError(f"{path}.generator_dt",
                          f"must lie in [{koopman.GEN_DT_MIN:g}, {koopman.GEN_DT_MAX:g}], "
                          f"got {generator_dt:g}")
    return KoopmanSetup(flow=flow, observables=observables, times=times,
                        quadrature=quadrature, generator_points=points,
                        generator_dt=generator_dt)


def build_config(doc: dict) -> ScenarioConfig:
    """Validate a decoded scenario document and build all domain objects."""
    _expect_object(doc, "<document>")

    scenario_id = doc.get("id", "scenario")
    if not isinstance(scenario_id, str) or not scenario_id:
        raise ConfigError("id", "expected a nonempty string")

    outputs = tuple(_expect_list(_get(doc, "outputs", ""), "outputs"))
    if not outputs:
        raise ConfigError("outputs", "need at least one requested output")
    for out in outputs:
        if out not in OUTPUT_KINDS:
            raise ConfigError("outputs", f"unknown output {out!r}; expected one of {OUTPUT_KINDS}")

    thresholds = dict(DEFAULT_THRESHOLDS)
    if "thresholds" in doc:
        for key, val in _expect_object(doc["thresholds"], "thresholds").items():
            if key not in DEFAULT_THRESHOLDS:
                raise ConfigError(f"thresholds.{key}", "unknown check name")
            thresholds[key] = _number(val, f"thresholds.{key}", minimum=0.0)

    needs_flow = any(out in FLOW_OUTPUTS for out in outputs)
    dimension = None
    hamiltonian = None
    initial = None
    observables: tuple = ()
    integrator = None
    wigner_pair = None
    conservation_times: tuple = ()

    if needs_flow:
        dimension = _get(doc, "dimension", "")
        if not isinstance(dimension, int) or isinstance(dimension, bool):
            raise ConfigError("dimension", f"expected an integer, got {dimension!r}")
        if not hilbert.MIN_DIM <= dimension <= hilbert.MAX_DIM:
            raise ConfigError("dimension",
                              f"must lie in [{hilbert.MIN_DIM}, {hilbert.MAX_DIM}], got {dimension}")
        hamiltonian = _parse_hamiltonian(_get(doc, "hamiltonian", ""), "hamiltonian", dimension)
        initial = _parse_initial(_get(doc, "initial", ""), "initial", dimension)
        integrator = _parse_integrator(_get(doc, "integrator", ""), "integrator")
        observables = tuple(
            _parse_observable(o, f"observables[{i}]", dimension, i)
            for i, o in enumerate(doc.get("observables", []))
        )
        if "conservation_times" in doc:
            conservation_times = tuple(
                _number(t, f"conservation_times[{i}]")
                for i, t in enumerate(_expect_list(doc["conservation_times"], "conservation_times"))
            )
        else:
            conservation_times = (integrator.t_final,)
        if "wigner_pair" in doc:
            wigner_pair = _state(doc["wigner_pair"], "wigner_pair", dimension)

    single_state = isinstance(initial, DensityMatrix)
    for out in ("trajectory", "invariants", "wigner"):
        if out in outputs and not single_state:
            raise ConfigError("initial",
                              f"{out} requires a single initial state, not a measure")
    if "wigner" in outputs:
        if wigner_pair is None:
            raise ConfigError("wigner_pair", "wigner requires wigner_pair")
        if initial.purity() < 1.0 - hilbert.PURITY_TOL:
            raise ConfigError("initial",
                              f"wigner requires a pure initial state, got purity {initial.purity():.12g}")
    if "conservation" in outputs and not observables:
        raise ConfigError("observables", "conservation requires at least one observable")

    koopman_setup = None
    if "koopman" in doc:
        koopman_setup = _parse_koopman(doc["koopman"], "koopman")
    if "koopman" in outputs and koopman_setup is None:
        raise ConfigError("koopman", "koopman output requires a koopman section")

    export_cocycle = doc.get("export_cocycle", False)
    if not isinstance(export_cocycle, bool):
        raise ConfigError("export_cocycle", "expected true or false")

    return ScenarioConfig(
        scenario_id=scenario_id,
        outputs=outputs,
        thresholds=thresholds,
        dimension=dimension,
        hamiltonian=hamiltonian,
        initial=initial,
        observables=observables,
        integrator=integrator,
        wigner_pair=wigner_pair,
        conservation_times=conservation_times,
        export_cocycle=export_cocycle,
        koopman=koopman_setup,
    )
