"""Properties of every closed-form family at every accepted dimension.

Hypothesis draws the families, dimensions and times of the flow identities;
the symmetry covariance tests sweep the square dimensions 4 to 64.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eqm_lab.config import DEFAULT_THRESHOLDS
from eqm_lab.flow import IntegratorConfig, propagate
from eqm_lab.hamiltonians import linear, mean_field, polynomial, shift_differential
from eqm_lab.hilbert import MAX_DIM, MIN_DIM, DensityMatrix, HermitianOperator, max_abs
from eqm_lab.observables import (
    ObservableFunction,
    conservation_residual,
    heisenberg_transform,
    trace_scaled_observable,
)
from conftest import random_density, random_hermitian

CFG = IntegratorConfig(dt=0.01, t_final=0.1)
SYMMETRY_CFG = IntegratorConfig(dt=0.01, t_final=0.2)

dims = st.integers(MIN_DIM, MAX_DIM)
seeds = st.integers(0, 2**32 - 1)
FAMILIES = ("linear", "mean_field", "polynomial")
families = st.sampled_from(FAMILIES)
# Spans up to ten steps, off the step grid as well as on it.
times = st.floats(-0.1, 0.1, allow_nan=False)


def at_max_dim(t=-0.037, **args):
    """Also run the test for every family at MAX_DIM, which drawn examples may miss."""
    def decorate(test):
        for family in FAMILIES:
            test = example(family=family, dim=MAX_DIM, seed=0, t=t, **args)(test)
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


@at_max_dim(s=7, t=3)
@given(family=families, dim=dims, seed=seeds, s=st.integers(0, 10), t=st.integers(0, 10))
def test_cocycle_law(family, dim, seed, s, t):
    # Whole steps: the flow to s, then on to s + t, retraces the flow to s + t.
    h, _, _, rho = _setup(family, dim, seed)
    rho_s, u_s = propagate(h, rho, s * CFG.dt, CFG)
    rho_st, u_t = propagate(h, rho_s, t * CFG.dt, CFG)
    whole, u_whole = propagate(h, rho, (s + t) * CFG.dt, CFG)
    assert np.array_equal(rho_st.matrix, whole.matrix)
    # u(t, rho_s) u(s, rho) = u(s + t, rho), to the rounding of the regrouped product.
    assert max_abs(u_t.matrix @ u_s.matrix - u_whole.matrix) <= 1e-12


def _swap_symmetric(n):
    """A mean-field function on C^n (x) C^n, the swap V of its factors, and a state.

    h(rho) = Tr(rho (K (x) 1 + 1 (x) K)) + 0.35 Tr(rho L (x) L)^2 satisfies
    h(V rho V^dag) = h(rho), so conjugation by V is a symmetry of the flow.
    """
    rng = np.random.default_rng(1000 + n)
    k, l = (random_hermitian(rng, n, scale=1 / math.sqrt(n)).matrix for _ in range(2))
    one = np.eye(n)
    h = mean_field(HermitianOperator(np.kron(k, one) + np.kron(one, k)),
                   HermitianOperator(np.kron(l, l)), 0.7)
    swap = np.eye(n * n)[[j * n + i for i in range(n) for j in range(n)]]
    return h, swap, random_density(rng, n * n), rng


def _conjugated(v, rho):
    return DensityMatrix(v @ rho.matrix @ v.conj().T)


@pytest.mark.parametrize("n", range(2, 9))
def test_flow_is_covariant_under_a_symmetry_only(n):
    h, v, rho, rng = _swap_symmetric(n)
    t = SYMMETRY_CFG.t_final
    rho_t, u = propagate(h, rho, t, SYMMETRY_CFG)
    moved_t, moved_u = propagate(h, _conjugated(v, rho), t, SYMMETRY_CFG)
    assert max_abs(moved_t.matrix - v @ rho_t.matrix @ v.T) <= DEFAULT_THRESHOLDS["gauge_shift"]
    assert max_abs(moved_u.matrix - v @ u.matrix @ v.T) <= DEFAULT_THRESHOLDS["gauge_phase"]
    # A random unitary does not leave h unchanged, and breaks state covariance.
    w = np.linalg.qr(rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n)))[0]
    other_t, _ = propagate(h, _conjugated(w, rho), t, SYMMETRY_CFG)
    assert max_abs(other_t.matrix - w @ rho_t.matrix @ w.conj().T) > 1e-4


def test_symmetry_automorphism_commutes_with_transport():
    # (alpha_V f)(rho) = V^dag f(V rho V^dag) V; alpha_V T_t = T_t alpha_V.
    h, v, rho, rng = _swap_symmetric(2)
    f = trace_scaled_observable(random_hermitian(rng, 4), random_hermitian(rng, 4))

    def alpha(g):
        return ObservableFunction(
            eval=lambda r: HermitianOperator(v.T @ g.eval(_conjugated(v, r)).matrix @ v))

    t = SYMMETRY_CFG.t_final
    lhs = alpha(heisenberg_transform(f, h, t, SYMMETRY_CFG)).eval(rho)
    rhs = heisenberg_transform(alpha(f), h, t, SYMMETRY_CFG).eval(rho)
    assert max_abs(lhs.matrix - rhs.matrix) <= 1e-10
