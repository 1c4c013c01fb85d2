"""Hypothesis properties of every closed-form family at every accepted dimension."""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from eqm_lab.config import DEFAULT_THRESHOLDS
from eqm_lab.flow import IntegratorConfig, propagate
from eqm_lab.hamiltonians import linear, mean_field, polynomial, shift_differential
from eqm_lab.hilbert import MAX_DIM, MIN_DIM, max_abs
from eqm_lab.observables import conservation_residual, trace_scaled_observable
from conftest import random_density, random_hermitian

CFG = IntegratorConfig(dt=0.01, t_final=0.1)

dims = st.integers(MIN_DIM, MAX_DIM)
seeds = st.integers(0, 2**32 - 1)
FAMILIES = ("linear", "mean_field", "polynomial")
families = st.sampled_from(FAMILIES)
# Spans up to ten steps, off the step grid as well as on it.
times = st.floats(-0.1, 0.1, allow_nan=False)


def at_max_dim(**args):
    """Also run the test for every family at MAX_DIM, which drawn examples may miss."""
    def decorate(test):
        for family in FAMILIES:
            test = example(family=family, dim=MAX_DIM, seed=0, t=-0.037, **args)(test)
        return test
    return decorate


def _setup(family, dim, seed):
    """A function of the family, two of its operators and a state, all at dimension dim."""
    rng = np.random.default_rng(seed)
    # Spectral norms of order one at every dim keep dt = 0.01 well resolved.
    a, b = (random_hermitian(rng, dim, scale=1 / math.sqrt(dim)) for _ in range(2))
    h = {"linear": linear(a),
         "mean_field": mean_field(a, b, 0.7),
         "polynomial": polynomial([(0.8, (a, b)), (-0.3, (b, b, a)), (1.5, ())])}[family]
    return h, a, b, random_density(rng, dim)


@at_max_dim()
@given(family=families, dim=dims, seed=seeds, t=times)
def test_backward_run_returns_the_initial_state(family, dim, seed, t):
    h, _, _, rho = _setup(family, dim, seed)
    rho_t, _ = propagate(h, rho, t, CFG)
    back, _ = propagate(h, rho_t, -t, CFG)
    assert max_abs(back.matrix - rho.matrix) <= DEFAULT_THRESHOLDS["conservation"]


@at_max_dim()
@given(family=families, dim=dims, seed=seeds, t=times)
def test_conservation_residual_within_threshold(family, dim, seed, t):
    h, a, b, rho = _setup(family, dim, seed)
    f = trace_scaled_observable(b, a)
    assert conservation_residual(f, h, rho, t, CFG) <= DEFAULT_THRESHOLDS["conservation"]


@at_max_dim(c=10.0)
@given(family=families, dim=dims, seed=seeds, t=times, c=st.floats(-10, 10))
def test_shift_differential_moves_only_the_phase(family, dim, seed, t, c):
    h, _, _, rho = _setup(family, dim, seed)
    rho_t, u = propagate(h, rho, t, CFG)
    zero_t, zero_u = propagate(shift_differential(h, 0.0), rho, t, CFG)
    assert np.array_equal(zero_t.matrix, rho_t.matrix)
    assert np.array_equal(zero_u.matrix, u.matrix)
    # A nonzero shift exponentiates another matrix, so it agrees to rounding.
    shifted_t, shifted_u = propagate(shift_differential(h, c), rho, t, CFG)
    assert max_abs(shifted_t.matrix - rho_t.matrix) <= DEFAULT_THRESHOLDS["gauge_shift"]
    assert (max_abs(shifted_u.matrix - np.exp(-1j * c * t) * u.matrix)
            <= DEFAULT_THRESHOLDS["gauge_phase"])
