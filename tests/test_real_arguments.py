"""Every real-valued argument is judged by the one rule, hilbert.require_real.

One table names each public entry point that takes a real number, where the
number goes and which values it allows; the library rows and the config rows
are checked against the same bad values.
"""

import copy
import json
import math
import re

import numpy as np
import pytest

from eqm_lab.cli import main
from eqm_lab.config import ConfigError, build_config
from eqm_lab.flow import IntegratorConfig, propagate
from eqm_lab.hamiltonians import (fd_differential_residual, mean_field, polynomial,
                                  shift_differential)
from eqm_lab.hilbert import SIGMA_X, SIGMA_Z, DensityMatrix, HermitianOperator, unitary_exponential
from eqm_lab.koopman import (HarmonicOscillator, Pendulum, Quadrature, classical_hamiltonian,
                             flow_map, gaussian_observable, liouville_generator_residual)
from eqm_lab.observables import constant_observable, conservation_residuals, heisenberg_transform
from conftest import matrix_to_pairs

SX, SZ = HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Z)
UP = DensityMatrix(np.diag([1.0, 0.0]))
MIXED = DensityMatrix(np.eye(2) / 2)
H = mean_field(SX, SZ, 1.0)
CFG = IntegratorConfig(dt=0.1, t_final=1.0)
OSC, PEND = HarmonicOscillator(omega=1.0), Pendulum(g=1.0)
GAUSS = gaussian_observable(width=0.9)

# entry point -> (the argument's name in the message, a call with the value in
# the argument's place, a value inside the bounds, a value outside them or None).
# The eps range and the Koopman generator dt range hold no integer, so no int passes there.
ENTRY_POINTS = {
    "unitary_exponential": ("s", lambda v: unitary_exponential(SZ, v), 1, None),
    "IntegratorConfig.dt": ("dt", lambda v: IntegratorConfig(dt=v, t_final=1.0), 1, 0.0),
    "IntegratorConfig.t_final": ("t_final", lambda v: IntegratorConfig(dt=0.1, t_final=v), 1, -1.0),
    "IntegratorConfig.midpoint_tol": (
        "midpoint_tol", lambda v: IntegratorConfig(dt=0.1, t_final=1.0, midpoint_tol=v), 1, 0.0),
    "propagate": ("t", lambda v: propagate(H, UP, v, CFG), 1, None),
    "mean_field": ("strength", lambda v: mean_field(SX, SZ, v), 1, None),
    "polynomial": ("terms[1] coefficient", lambda v: polynomial([(1.0, (SX,)), (v, (SX, SZ))]),
                   1, None),
    "fd_differential_residual": ("eps", lambda v: fd_differential_residual(H, MIXED, SZ, v),
                                 1e-4, 1e-2),
    "shift_differential": ("c", lambda v: shift_differential(H, v), 1, None),
    "HarmonicOscillator": ("omega", lambda v: HarmonicOscillator(omega=v), 1, None),
    "Pendulum": ("g", lambda v: Pendulum(g=v), 1, None),
    "flow_map.harmonic": ("t", lambda v: flow_map(OSC, 0.4, -0.2, v), 1, None),
    "flow_map.pendulum": ("t", lambda v: flow_map(PEND, 0.4, -0.2, v), 1, None),
    "gaussian_observable": ("width", lambda v: gaussian_observable(width=v), 1, 0.0),
    "gaussian_observable.center[0]": ("center[0]", lambda v: gaussian_observable(center=(v, 0.0)),
                                      1, None),
    "gaussian_observable.center[1]": ("center[1]", lambda v: gaussian_observable(center=(0.0, v)),
                                      1, None),
    "Quadrature.gauss_legendre": ("extent", lambda v: Quadrature.gauss_legendre(extent=v, order=4),
                                  1, 0.0),
    "liouville_generator_residual": (
        "dt", lambda v: liouville_generator_residual(GAUSS, OSC, classical_hamiltonian(OSC),
                                                     (0.3, 0.1), v), 1e-4, 1e-2),
    "liouville_generator_residual.point[0]": (
        "point[0]", lambda v: liouville_generator_residual(GAUSS, OSC, classical_hamiltonian(OSC),
                                                           (v, 0.1), 1e-3), 1, None),
    "liouville_generator_residual.point[1]": (
        "point[1]", lambda v: liouville_generator_residual(GAUSS, OSC, classical_hamiltonian(OSC),
                                                           (0.3, v), 1e-3), 1, None),
    "heisenberg_transform": (
        "t", lambda v: heisenberg_transform(constant_observable(SX), H, v, CFG).eval(UP), 1, None),
    "conservation_residuals": (
        "times[1]", lambda v: conservation_residuals((constant_observable(SX),), H, UP, (0.5, v),
                                                     CFG), 1, None),
}
NOT_FINITE_REALS = [math.nan, math.inf, -math.inf, True, "1", None]


def _message(name, value):
    bounds = r"( > 0| >= \S+| in \[\S+, \S+\])?"
    return rf"^{re.escape(name)} must be a finite number{bounds}, got {re.escape(repr(value))}$"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=repr)
def test_entry_point_rejects_what_is_not_a_finite_real(entry, value):
    name, call, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=_message(name, value)):
        call(value)


@pytest.mark.parametrize("entry", [e for e, row in ENTRY_POINTS.items() if row[3] is not None])
def test_entry_point_rejects_a_value_outside_its_bounds(entry):
    name, call, _, outside = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=_message(name, outside)):
        call(outside)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_and_int_values_pass(entry):
    _, call, inside, _ = ENTRY_POINTS[entry]
    call(np.float64(inside))
    if float(inside).is_integer():
        call(int(inside))


PLUS = [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]]
SX_PAIRS, SZ_PAIRS = matrix_to_pairs(SIGMA_X), matrix_to_pairs(SIGMA_Z)
DOCUMENT = {
    "id": "numbers",
    "dimension": 2,
    "outputs": ["conservation", "koopman"],
    "thresholds": {"trace": 1e-11},
    "hamiltonian": {"type": "mean_field", "A": SX_PAIRS, "B": SZ_PAIRS, "lambda": 1.0},
    "initial": {"state_vector": PLUS},
    "integrator": {"dt": 0.01, "t_final": 0.1},
    "observables": [{"type": "constant", "A": SX_PAIRS}],
    "conservation_times": [0.1],
    "koopman": {"flow": {"type": "harmonic", "omega": 1.0},
                "observables": [{"name": "gaussian", "center": [0.0, 0.0], "width": 1.0}],
                "times": [0.5], "quadrature": {"extent": 6.0, "order": 8},
                "points": [[0.1, 0.2]], "generator_dt": 1e-3},
}
# Sections swapped in to reach the number fields that DOCUMENT does not read.
POLYNOMIAL = (("hamiltonian",),
              {"type": "polynomial", "terms": [{"coefficient": 0.5, "factors": [SZ_PAIRS]}]})
MEASURE = (("initial",), {"measure": {"support": [matrix_to_pairs(np.eye(2) / 2)],
                                      "weights": [1.0]}})
PENDULUM = (("koopman", "flow"), {"type": "pendulum", "g": 1.0})
# Each number field as its key path, and the section it needs swapped in, if any.
NUMBER_FIELDS = [
    (("dimension",), None),
    (("thresholds", "trace"), None),
    (("hamiltonian", "lambda"), None),
    (("hamiltonian", "terms", 0, "coefficient"), POLYNOMIAL),
    (("initial", "measure", "weights", 0), MEASURE),
    (("integrator", "dt"), None),
    (("integrator", "t_final"), None),
    (("integrator", "midpoint_tol"), POLYNOMIAL),  # the split mean field reads no midpoint key
    (("conservation_times", 0), None),
    (("koopman", "flow", "omega"), None),
    (("koopman", "flow", "g"), PENDULUM),
    (("koopman", "observables", 0, "center", 1), None),
    (("koopman", "observables", 0, "width"), None),
    (("koopman", "times", 0), None),
    (("koopman", "quadrature", "extent"), None),
    (("koopman", "points", 0, 0), None),
    (("koopman", "generator_dt"), None),
]


def _put(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = copy.deepcopy(value)


def _document(keys, swap, *value):
    """DOCUMENT with the swap section put in and, if given, value at the key path."""
    doc = copy.deepcopy(DOCUMENT)
    if swap is not None:
        _put(doc, *swap)
    if value:
        _put(doc, keys, value[0])
    return doc


def _path(keys) -> str:
    """The ConfigError path of a key path: ("koopman", "times", 0) -> koopman.times[0]."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


@pytest.mark.parametrize("keys, swap", NUMBER_FIELDS, ids=[_path(k) for k, _ in NUMBER_FIELDS])
def test_document_reads_every_number_field_by_the_one_rule(keys, swap):
    build_config(_document(keys, swap))
    path = _path(keys)
    for value in NOT_FINITE_REALS:
        message = _message(path.rsplit(".", 1)[-1], value)[1:]
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: {message}") as err:
            build_config(_document(keys, swap, value))
        assert err.value.path == path


@pytest.mark.parametrize("value", [True, "0.01"])
def test_a_bool_or_a_string_at_a_number_field_exits_two(tmp_path, capsys, value):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_document(("integrator", "dt"), None, value)))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: integrator.dt: dt must be a finite number, got {value!r}\n"
    assert not (tmp_path / "out").exists()
