"""Properties of every closed-form family at every accepted dimension.

Hypothesis draws the families, dimensions and times of the flow identities;
the symmetry covariance tests sweep the square dimensions 4 to 64.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqm_lab.config import DEFAULT_THRESHOLDS, build_config
from eqm_lab import flow
from eqm_lab.flow import IntegratorConfig, propagate
from eqm_lab.hamiltonians import (HamiltonianFunction, linear, mean_field, polynomial,
                                  shift_differential)
from eqm_lab.hilbert import (MAX_DIM, MIN_DIM, DensityMatrix, HermitianOperator, max_abs,
                             unitary_exponential)
from eqm_lab.observables import (
    ObservableFunction,
    conservation_residual,
    heisenberg_transform,
    trace_scaled_observable,
)
from eqm_lab.runner import corpus_documents
from conftest import random_density, random_hermitian, random_pure

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


def _increment_rule_calls(generator, rho, dt, cfg):
    """Generator calls of one step that stops only once an increment is below midpoint_tol."""
    gen, calls = generator(rho), 1
    for _ in range(cfg.midpoint_max_iter):
        half = flow.expm_hermitian(gen, 0.5 * dt)
        refreshed = generator(half @ rho @ half.conj().T)
        calls += 1
        if max_abs(refreshed - gen) < cfg.midpoint_tol:
            return calls
        gen = refreshed
    raise AssertionError("the increment rule did not settle")


@settings(max_examples=50)
@given(family=st.sampled_from(("mean_field", "polynomial")), dim=st.integers(2, 8), seed=seeds,
       dt=st.sampled_from((1e-3, 1e-2, 0.1)))
def test_no_step_takes_more_passes_than_the_increment_rule(family, dim, seed, dt):
    # The contraction estimate is an extra way to stop, so on the same state
    # the kernel never calls the generator more often than the plain rule.
    h, _, _, rho = _setup(family, dim, seed)
    calls = [0]

    def counted(m):
        calls[0] += 1
        return h.generator(m)

    counting = HamiltonianFunction(value=h.value, generator=counted)
    cfg = IntegratorConfig(dt=dt, t_final=dt)
    for _ in range(5):
        calls[0] = 0
        after, _ = propagate(counting, rho, dt, cfg)
        assert calls[0] <= _increment_rule_calls(h.generator, rho.matrix, dt, cfg)
        rho = after


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


# Is one step Phi a Poisson map?  On the orbit of a pure rho, the tangent
# vectors delta_j = -i[X_j, rho] carry the Kirillov-Kostant-Souriau form
# omega_rho(a, b) = -i Tr(rho [a, b]), which equals -i Tr(rho [X_1, X_2]).  An
# exact Hamiltonian flow keeps it: omega_(Phi rho)(DPhi delta_1, DPhi delta_2)
# = omega_rho(delta_1, delta_2).  DPhi delta comes from central differences
# along the orbit e^(-/+ i eps X) rho e^(+/- i eps X).
POISSON_EPS = 1e-4
POISSON_SEED, POISSON_STATES = 7, 8


def _kks(rho, a, b):
    return float((-1j * np.trace(rho @ (a @ b - b @ a))).real)


def _poisson_defect(scenario, dt):
    """Largest |omega after one step - omega before| / |omega before| over the seeded states."""
    h = build_config(next(d for d in corpus_documents() if d["id"] == scenario)).hamiltonian
    cfg = IntegratorConfig(dt=dt, t_final=dt)

    def step(m):
        return propagate(h, DensityMatrix(m), dt, cfg)[0].matrix

    def pushed(rho, x):
        u = unitary_exponential(x, POISSON_EPS).matrix
        return (step(u @ rho @ u.conj().T) - step(u.conj().T @ rho @ u)) / (2 * POISSON_EPS)

    rng, worst = np.random.default_rng(POISSON_SEED), 0.0
    for _ in range(POISSON_STATES):
        rho = random_pure(rng, h.dim).matrix
        x1, x2 = random_hermitian(rng, h.dim), random_hermitian(rng, h.dim)
        before = _kks(rho, *(-1j * (x.matrix @ rho - rho @ x.matrix) for x in (x1, x2)))
        after = _kks(step(rho), pushed(rho, x1), pushed(rho, x2))
        worst = max(worst, abs(after - before) / abs(before))
    return worst


@pytest.mark.parametrize("dt", [0.2, 0.1, 0.05])
def test_a_linear_step_is_a_poisson_map(dt):
    # One fixed conjugation keeps the form to the difference floor (2.1e-8 here).
    assert _poisson_defect("linear-qubit", dt) <= 1e-6


@pytest.mark.parametrize("scenario", ["mean-field-qubit", "conservation-mean-field-n4"])
def test_the_midpoint_step_misses_the_form_by_about_dt_cubed(scenario):
    # Measured at dt = 0.2 / 0.1 / 0.05: 1.2e-3 / 1.4e-4 / 1.6e-5 on the qubit
    # and 4.0e-3 / 5.3e-4 / 6.6e-5 at n = 4, a fall of 7.6 to 8.6 per halving.
    # A step whose full exponential takes the start-of-step generator falls
    # only as dt^2 (3.8 to 4.0 per halving), so the bound sits above 4.
    coarse, mid, fine = (_poisson_defect(scenario, dt) for dt in (0.2, 0.1, 0.05))
    assert mid > 1e-5
    assert coarse >= 5 * mid and mid >= 5 * fine
