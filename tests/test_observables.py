"""Tests for observable functions, measures, transport, and conservation."""

import math
import re

import numpy as np
import pytest

from eqm_lab.config import DEFAULT_THRESHOLDS, build_config, with_dt
from eqm_lab import flow
from eqm_lab.flow import (ConvergenceError, GeneratorError, IntegratorConfig, StateError, evolve,
                          propagate)
from eqm_lab.hamiltonians import HamiltonianFunction, linear, mean_field
from eqm_lab.hilbert import (
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    max_abs,
    projector,
    trace_pairing,
    unitary_exponential,
)
from eqm_lab.observables import (
    ObservableFunction,
    StateMeasure,
    conservation_residual,
    conservation_residuals,
    constant_observable,
    expectation,
    heisenberg_transform,
    pushforward_state,
    trace_scaled_observable,
)
from eqm_lab.runner import corpus_documents
from conftest import random_density, random_hermitian


@pytest.fixture
def cfg():
    return IntegratorConfig(dt=1e-3, t_final=1.0)


@pytest.fixture
def h_mf(sx, sz):
    return mean_field(sx, sz, 1.0)


class TestBuilders:
    def test_constant_ignores_state(self, sz, rng):
        f = constant_observable(sz)
        for _ in range(3):
            assert max_abs(f.eval(random_density(rng, 2)).matrix - SIGMA_Z) == 0.0

    def test_constant_expectation_at_dirac(self, rng):
        a = random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        value = expectation(StateMeasure.dirac(rho), constant_observable(a))
        assert value == pytest.approx(trace_pairing(rho, a), abs=1e-13)

    def test_trace_scaled_values(self, sx, sz, qubit_up):
        f = trace_scaled_observable(sz, sx)
        np.testing.assert_allclose(f.eval(qubit_up).matrix, SIGMA_X, atol=1e-14)
        mixed = DensityMatrix(np.eye(2) / 2)
        assert max_abs(f.eval(mixed).matrix) < 1e-14

    def test_trace_scaled_dimension_mismatch(self, sx):
        with pytest.raises(ValueError, match="dimension mismatch"):
            trace_scaled_observable(sx, HermitianOperator(np.eye(3)))


class TestStateMeasure:
    def test_requires_normalized_weights(self, qubit_up):
        with pytest.raises(ValueError, match="sum to 1"):
            StateMeasure(support=(qubit_up,), weights=np.array([0.7]))

    def test_rejects_negative_weights(self, qubit_up, qubit_plus):
        # A NaN weight is neither negative nor off the unit sum by WEIGHT_TOL.
        for weights in ([1.5, -0.5], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                StateMeasure(support=(qubit_up, qubit_plus), weights=np.array(weights))

    @pytest.mark.parametrize("weights, shape", [([1.0], "(1,)"), ([0.5, 0.5, 0.0], "(3,)"),
                                                ([[0.5, 0.5]], "(1, 2)")], ids=repr)
    def test_needs_one_weight_per_support_point(self, qubit_up, qubit_plus, weights, shape):
        message = f"need one weight per support point, got {shape} for 2 points"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StateMeasure(support=(qubit_up, qubit_plus), weights=np.array(weights))

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError, match="nonempty"):
            StateMeasure(support=(), weights=np.array([]))

    def test_rejects_mixed_dimensions(self, qubit_up):
        other = DensityMatrix(np.eye(3) / 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            StateMeasure(support=(qubit_up, other), weights=np.array([0.5, 0.5]))

    def test_mixed_dimensions_fail_with_the_shared_dimension_check(self, qubit_up, qubit_plus):
        other = DensityMatrix(np.eye(3) / 3)
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
            StateMeasure(support=(qubit_up, qubit_plus, other), weights=np.full(3, 1 / 3))

    def test_two_point_sigma_z_expectation(self, sz, qubit_up):
        down = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        omega = StateMeasure(support=(qubit_up, down), weights=np.array([0.5, 0.5]))
        assert expectation(omega, constant_observable(sz)) == pytest.approx(0.0, abs=1e-14)

    def test_genuine_mixture_differs_from_barycenter(self, sz, qubit_up):
        # Same average state, different measure: a state-dependent observable
        # separates them, which is the reason observables depend on the state.
        down = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        omega = StateMeasure(support=(qubit_up, down), weights=np.array([0.5, 0.5]))
        barycenter = StateMeasure.dirac(DensityMatrix(np.eye(2) / 2))
        f = trace_scaled_observable(sz, sz)
        assert expectation(omega, f) == pytest.approx(1.0, abs=1e-13)
        assert expectation(barycenter, f) == pytest.approx(0.0, abs=1e-13)


class TestHeisenbergTransform:
    def test_zero_time_is_identity(self, h_mf, cfg, sx, rng):
        f = constant_observable(sx)
        rho = random_density(rng, 2)
        moved = heisenberg_transform(f, h_mf, 0.0, cfg)
        assert max_abs(moved.eval(rho).matrix - SIGMA_X) == 0.0

    def test_linear_case_collapses_to_conjugation(self, sz, sx, cfg, rng):
        # For a state-independent generator the transported observable is the
        # same conjugated matrix at every state.
        h = linear(sz)
        f = constant_observable(sx)
        moved = heisenberg_transform(f, h, 0.7, cfg)
        u = unitary_exponential(sz, 0.7)
        expected = u.matrix.conj().T @ SIGMA_X @ u.matrix
        for rho in (random_density(rng, 2), random_density(rng, 2)):
            assert max_abs(moved.eval(rho).matrix - expected) < 1e-8

    def test_group_law_on_mean_field(self, h_mf, cfg, sx, qubit_up):
        f = constant_observable(sx)
        once = heisenberg_transform(heisenberg_transform(f, h_mf, 0.5, cfg), h_mf, 0.7, cfg)
        direct = heisenberg_transform(f, h_mf, 1.2, cfg)
        assert max_abs(once.eval(qubit_up).matrix - direct.eval(qubit_up).matrix) < 1e-7

    def test_linearity_pointwise(self, h_mf, cfg, sx, sz, qubit_up):
        f, g = constant_observable(sx), trace_scaled_observable(sz, sz)
        alpha, beta = 1.3, -0.6

        def combo_eval(rho):
            return HermitianOperator(alpha * f.eval(rho).matrix + beta * g.eval(rho).matrix)

        combo = ObservableFunction(eval=combo_eval, label="combo")
        lhs = heisenberg_transform(combo, h_mf, 0.4, cfg).eval(qubit_up).matrix
        rhs = (alpha * heisenberg_transform(f, h_mf, 0.4, cfg).eval(qubit_up).matrix
               + beta * heisenberg_transform(g, h_mf, 0.4, cfg).eval(qubit_up).matrix)
        assert max_abs(lhs - rhs) < 1e-12

    def test_preserves_identity(self, h_mf, cfg, qubit_up):
        f = constant_observable(HermitianOperator(np.eye(2)))
        moved = heisenberg_transform(f, h_mf, 1.0, cfg)
        assert max_abs(moved.eval(qubit_up).matrix - np.eye(2)) < 1e-10

    def test_preserves_positivity(self, h_mf, cfg, rng):
        a = random_hermitian(rng, 2)
        psd = constant_observable(HermitianOperator(a.matrix @ a.matrix))
        moved = heisenberg_transform(psd, h_mf, 1.0, cfg)
        lowest = float(np.linalg.eigvalsh(moved.eval(random_density(rng, 2)).matrix)[0])
        assert lowest >= -1e-10

    def test_preserves_products_pointwise(self, h_mf, cfg, rng):
        # On raw matrices: conjugating a product equals the product of the
        # conjugations, which makes the transport multiplicative.
        rho = random_density(rng, 2)
        rho_t, u = propagate(h_mf, rho, 0.8, cfg)
        a, b = random_hermitian(rng, 2).matrix, random_hermitian(rng, 2).matrix
        ud = u.matrix.conj().T
        lhs = ud @ (a @ b) @ u.matrix
        rhs = (ud @ a @ u.matrix) @ (ud @ b @ u.matrix)
        assert max_abs(lhs - rhs) < 1e-10


class TestPushforward:
    def test_zero_time(self, h_mf, cfg, qubit_up, qubit_plus):
        omega = StateMeasure(support=(qubit_up, qubit_plus), weights=np.array([0.3, 0.7]))
        moved = pushforward_state(omega, h_mf, 0.0, cfg)
        assert max_abs(moved.support[0].matrix - qubit_up.matrix) == 0.0
        np.testing.assert_array_equal(moved.weights, omega.weights)

    def test_dirac_moves_to_evolved_state(self, h_mf, cfg, qubit_up):
        moved = pushforward_state(StateMeasure.dirac(qubit_up), h_mf, 0.5, cfg)
        endpoint, _ = propagate(h_mf, qubit_up, 0.5, cfg)
        assert max_abs(moved.support[0].matrix - endpoint.matrix) < 1e-14

    def test_two_point_linear_flow_mixes_rabi_curves(self, sz, sx, cfg):
        plus = projector(StateVector(np.array([1.0, 1.0]) / np.sqrt(2)))
        tilted = projector(StateVector(np.array([math.cos(0.3), math.sin(0.3)])))
        omega = StateMeasure(support=(plus, tilted), weights=np.array([0.4, 0.6]))
        h = linear(sz)
        f = constant_observable(sx)
        for t in (0.3, 0.9):
            moved = pushforward_state(omega, h, t, cfg)
            # each support point follows its own exact precession curve
            expected = 0.4 * math.cos(2 * t) + 0.6 * math.sin(0.6) * math.cos(2 * t)
            assert expectation(moved, f) == pytest.approx(expected, abs=1e-8)

    def test_duality_with_observable_transport(self, h_mf, cfg, sx, sz, qubit_up, qubit_plus):
        omega = StateMeasure(support=(qubit_up, qubit_plus), weights=np.array([0.25, 0.75]))
        f = trace_scaled_observable(sz, sx)
        for t in (0.5, 1.0):
            lhs = expectation(pushforward_state(omega, h_mf, t, cfg), f)
            rhs = expectation(omega, heisenberg_transform(f, h_mf, t, cfg))
            assert abs(lhs - rhs) <= 1e-8


class TestConservationResidual:
    def test_zero_time_is_exactly_zero(self, h_mf, cfg, sx, qubit_up):
        assert conservation_residual(constant_observable(sx), h_mf, qubit_up, 0.0, cfg) == 0.0

    def test_linear_flow_cancels_exactly(self, sz, sx, cfg, rng):
        residual = conservation_residual(constant_observable(sx), linear(sz),
                                         random_density(rng, 2), 1.0, cfg)
        assert residual <= 1e-10

    def test_mean_field_with_state_dependent_observable(self, h_mf, cfg, sx, sz, qubit_up):
        f = trace_scaled_observable(sz, sx)
        assert conservation_residual(f, h_mf, qubit_up, 2.0, cfg) <= 1e-7


def _settles_for(calls: int, a: HermitianOperator) -> HamiltonianFunction:
    """A differential that returns A for its first calls, then alternates sign forever.

    A linear step asks for the differential twice, so the midpoint iteration
    settles while the budget lasts and never afterwards.
    """
    count = [0]

    def differential(rho):
        count[0] += 1
        sign = 1.0 if count[0] <= calls or count[0] % 2 else -1.0
        return HermitianOperator(sign * a.matrix)

    return HamiltonianFunction(value=lambda rho: trace_pairing(rho, a),
                               differential=differential, label="stalls")


class TestConservationResiduals:
    # Whole numbers of steps at dt = 0.01, unsorted, with a duplicate, 0 and a
    # negative time.
    GRID = (0.2, 0.0, -0.1, 0.05, 0.2)

    def test_each_cell_is_the_single_residual_bit_for_bit(self, h_mf, sx, sz, qubit_up, rng):
        cfg = IntegratorConfig(dt=0.01, t_final=0.2)
        fs = (constant_observable(sx), trace_scaled_observable(sz, sx))
        omega = StateMeasure(support=(qubit_up, random_density(rng, 2)),
                             weights=np.array([0.5, 0.5]))
        for h in (linear(sz), h_mf):
            for rho in omega.support:
                grid = conservation_residuals(fs, h, rho, self.GRID, cfg)
                assert grid.shape == (len(fs), len(self.GRID))
                for i, f in enumerate(fs):
                    for j, t in enumerate(self.GRID):
                        assert grid[i, j] == conservation_residual(f, h, rho, t, cfg), (h.label, i, t)

    def test_off_step_grid_stays_within_threshold(self, h_mf, sx, sz, qubit_up):
        # 0.5 and 1.1 are whole numbers of neither step, 0.7 of 0.007-steps
        # and 2.1 of both: legs to off-step times restart from 0, and the leg
        # to 2.1 chains from the latest whole-step time.
        fs = (constant_observable(sx), trace_scaled_observable(sz, sx))
        times = (0.5, 0.7, 1.1, 2.1)
        for dt in (0.003, 0.007):
            cfg = IntegratorConfig(dt=dt, t_final=2.1)
            grid = conservation_residuals(fs, h_mf, qubit_up, times, cfg)
            single = np.array([[conservation_residual(f, h_mf, qubit_up, t, cfg) for t in times]
                               for f in fs])
            assert np.all(grid <= DEFAULT_THRESHOLDS["conservation"]), dt
            assert np.array_equal(grid, single), dt

    def test_forward_failure_names_the_absolute_time(self, sx, sz, qubit_up):
        # 0 -> 0.05 forward and back takes 2 x 5 steps of 2 calls each; the
        # budget runs out at the third step of the forward leg from 0.05.
        cfg = IntegratorConfig(dt=0.01, t_final=0.1, midpoint_max_iter=3)
        h = _settles_for(20 + 2 * 2, sz)
        with pytest.raises(ConvergenceError) as failure:
            conservation_residuals((constant_observable(sx),), h, qubit_up, (0.05, 0.1), cfg)
        message = str(failure.value)
        assert message.startswith("forward leg from t = 0.05: midpoint iteration did not settle")
        assert "at step 3, t = 0.07 to 0.08 " in message

    def test_backward_failure_names_its_grid_time(self, sx, sz, qubit_up):
        # The budget runs out at the third step of the backward run from 0.05.
        cfg = IntegratorConfig(dt=0.01, t_final=0.1, midpoint_max_iter=3)
        h = _settles_for(10 + 2 * 2, sz)
        with pytest.raises(ConvergenceError) as failure:
            conservation_residuals((constant_observable(sx),), h, qubit_up, (0.05, 0.1), cfg)
        message = str(failure.value)
        assert message.startswith("backward run from grid time t = 0.05: midpoint iteration")
        assert "at step 3, t = 0.03 to 0.02 " in message

    def test_state_failure_names_the_leg_and_absolute_time(self, sx, sz, qubit_up, monkeypatch):
        # From its 61st call the step map is 1e-8 off unitarity; the trace
        # drifts past TRACE_TOL and the state fails at the end of the
        # backward run from 0.1, whose last step ends at t = 0.
        exact, calls = flow.expm_hermitian, [0]

        def drifting(mat, s):
            calls[0] += 1
            return exact(mat, s) * (1 + 1e-8) if calls[0] > 60 else exact(mat, s)

        monkeypatch.setattr(flow, "expm_hermitian", drifting)
        cfg = IntegratorConfig(dt=0.01, t_final=0.1)
        with pytest.raises(StateError) as failure:
            conservation_residuals((constant_observable(sx),), mean_field(sx, sz, 1.0), qubit_up,
                                   (0.05, 0.1), cfg)
        assert str(failure.value).startswith(
            "backward run from grid time t = 0.1: state after step 10, t = 0: "
            "state must have unit trace")

    def test_generator_failure_names_the_leg_and_absolute_time(self, sx, sz, qubit_up):
        # The generator turns NaN after the calls of grid time 0.05 (its
        # forward leg and backward run), on the first step of the leg from 0.05.
        h0, calls, budget = mean_field(sx, sz, 1.0), [0], [math.inf]

        def generator(m):
            calls[0] += 1
            return h0.generator(m) * (np.nan if calls[0] > budget[0] else 1.0)

        h = HamiltonianFunction(value=h0.value, generator=generator, label="turns nan")
        cfg = IntegratorConfig(dt=0.01, t_final=0.1)
        fs = (constant_observable(sx),)
        conservation_residuals(fs, h, qubit_up, (0.05,), cfg)
        calls[0], budget[0] = 0, calls[0]
        with pytest.raises(GeneratorError, match=r"^forward leg from t = 0\.05: generator of "
                                                 r"'turns nan' gave a non-finite matrix at "
                                                 r"step 1, t = 0\.05 to 0\.06$"):
            conservation_residuals(fs, h, qubit_up, (0.05, 0.1), cfg)

    @pytest.mark.parametrize("call, failure, message", [
        (3, StateError("state must have unit trace", 2, 0.02, 0.02),
         "forward leg from t = 0.05: state after step 2, t = 0.07: state must have unit trace"),
        (3, ConvergenceError(50, 2, 0.01, 0.02),
         "forward leg from t = 0.05: midpoint iteration did not settle within 50 iterations "
         "at step 2, t = 0.06 to 0.07 (dt = 0.01 is too large for this nonlinearity)"),
        (4, StateError("state must have unit trace", 10, -0.1, -0.1),
         "backward run from grid time t = 0.1: state after step 10, t = 0: "
         "state must have unit trace"),
        (4, ConvergenceError(50, 2, -0.01, -0.02),
         "backward run from grid time t = 0.1: midpoint iteration did not settle within 50 "
         "iterations at step 2, t = 0.09 to 0.08 (dt = -0.01 is too large for this nonlinearity)"),
    ], ids=["state-forward", "convergence-forward", "state-backward", "convergence-backward"])
    def test_each_failure_names_the_leg_and_absolute_time(self, h_mf, sx, qubit_up, monkeypatch,
                                                          call, failure, message):
        # The grid (0.05, 0.1) propagates 0 -> 0.05, back from 0.05, 0.05 -> 0.1
        # and back from 0.1; the failure is raised by the given call.
        exact, calls = flow.propagate, [0]

        def failing(*args):
            calls[0] += 1
            if calls[0] == call:
                raise failure
            return exact(*args)

        monkeypatch.setattr(flow, "propagate", failing)
        cfg = IntegratorConfig(dt=0.01, t_final=0.1)
        with pytest.raises(type(failure)) as err:
            conservation_residuals((constant_observable(sx),), h_mf, qubit_up, (0.05, 0.1), cfg)
        assert str(err.value) == message
        assert err.value.__cause__ is failure


class TestCyclicityReduction:
    """Each conservation cell is |Tr(rho_b f(rho_b)) - Tr(rho f(rho))|, rho_b the backward run's end."""

    @pytest.mark.parametrize("doc", [d for d in corpus_documents() if "conservation" in d["outputs"]],
                             ids=lambda d: d["id"])
    def test_corpus_cells(self, doc):
        cfg = with_dt(build_config(doc), 1e-2)
        h, integrator, times = cfg.hamiltonian, cfg.integrator, cfg.conservation_times
        points = cfg.initial.support if isinstance(cfg.initial, StateMeasure) else (cfg.initial,)
        for rho in points:
            grid = conservation_residuals(cfg.observables, h, rho, times, integrator)
            for j, t in enumerate(times):
                rho_b, _ = propagate(h, propagate(h, rho, t, integrator)[0], -t, integrator)
                for i, f in enumerate(cfg.observables):
                    reduced = abs(trace_pairing(rho_b, f.eval(rho_b)) - trace_pairing(rho, f.eval(rho)))
                    assert abs(grid[i, j] - reduced) <= 1e-14, (f.label, t)


class TestRecordedForwardStates:
    """conservation_residuals fed the evolve run of rho gives the unfed grid exactly."""

    def _fed_and_unfed(self, fs, h, rho, times, cfg):
        return (conservation_residuals(fs, h, rho, times, cfg, evolve(h, rho, cfg)),
                conservation_residuals(fs, h, rho, times, cfg))

    def test_corpus_grids(self, h_mf, sx, sz, qubit_up):
        # t_final 1 and 5 at the corpus strides: the records hold some or all
        # of the grid times, and 2 and 5 chain from the record at 1.
        fs = (constant_observable(sx), trace_scaled_observable(sz, sx))
        times = (0.5, 1.0, 2.0, 5.0)
        # Strides 3, 7 and 1000 hold few or none of them: a fed trajectory
        # need share only dt and the midpoint settings.
        for t_final, stride in ((1.0, 10), (5.0, 50), (5.0, 1),
                                (1.0, 1), (5.0, 3), (5.0, 7), (5.0, 1000)):
            cfg = IntegratorConfig(dt=0.01, t_final=t_final, record_stride=stride)
            for h in (linear(sz), h_mf, mean_field(sx, sz, 1.0, split=True)):
                fed, unfed = self._fed_and_unfed(fs, h, qubit_up, times, cfg)
                assert np.all(fed == unfed), (t_final, stride, h.label)

    def test_off_step_grid(self, h_mf, sx, sz, qubit_up):
        # At dt = 0.007 the last record, 1.1, is off the step grid and is not
        # used; 0.7 and 2.1 are whole numbers of steps.
        fs = (constant_observable(sx), trace_scaled_observable(sz, sx))
        times = (0.5, 0.7, 1.1, 2.1, -0.7)
        for stride in (4, 1, 3, 7, 1000):
            cfg = IntegratorConfig(dt=0.007, t_final=1.1, record_stride=stride)
            fed, unfed = self._fed_and_unfed(fs, h_mf, qubit_up, times, cfg)
            assert np.all(fed == unfed), stride

    def test_recorded_times_cost_no_forward_steps(self, h_mf, sx, qubit_up, monkeypatch):
        spans = []
        counted = flow.propagate

        def propagate_counted(h, rho, t, cfg):
            spans.append(t)
            return counted(h, rho, t, cfg)

        cfg = IntegratorConfig(dt=0.01, t_final=1.0, record_stride=10)
        traj = evolve(h_mf, qubit_up, cfg)
        monkeypatch.setattr(flow, "propagate", propagate_counted)
        conservation_residuals((constant_observable(sx),), h_mf, qubit_up, (0.5, 1.0, 2.0), cfg, traj)
        # Backward runs from 0.5, 1 and 2, and one forward leg from 1 to 2.
        assert spans == pytest.approx([-0.5, -1.0, 1.0, -2.0])

    def test_leg_past_an_off_grid_last_record_starts_at_the_record_before(self, h_mf, sx, qubit_up,
                                                                           monkeypatch):
        # At dt = 0.007 and stride 4 the last record, 1.1, ends on a shorter
        # step after step 157; the leg to 2.1 starts at the record of step 156.
        cfg = IntegratorConfig(dt=0.007, t_final=1.1, record_stride=4)
        traj = evolve(h_mf, qubit_up, cfg)
        assert traj.times[-2:] == (156 * 0.007, 1.1)
        spans = []
        counted = flow.propagate

        def propagate_counted(h, rho, t, cfg):
            spans.append(t)
            return counted(h, rho, t, cfg)

        monkeypatch.setattr(flow, "propagate", propagate_counted)
        conservation_residuals((constant_observable(sx),), h_mf, qubit_up, (2.1,), cfg, traj)
        assert spans == [2.1 - 156 * 0.007, -2.1]  # 1.008 forward, then back from 2.1

    def test_trajectory_must_start_at_rho(self, h_mf, sx, qubit_up, qubit_plus):
        cfg = IntegratorConfig(dt=0.01, t_final=0.1)
        with pytest.raises(ValueError, match="start at rho"):
            conservation_residuals((constant_observable(sx),), h_mf, qubit_up, (0.1,), cfg,
                                   evolve(h_mf, qubit_plus, cfg))


class TestObservableScale:
    """A conservation cell is a number read off the checked run: no absolute gate reads it again."""

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_cells_of_large_constant_observables_scale_with_them(self, scale):
        # The rounding of u^dagger F u grows with F: at 1e4 its anti-Hermitian
        # part reaches 8.1e-12, past HERMITICITY_TOL, on all 20 seeds.
        cfg = IntegratorConfig(dt=0.01, t_final=0.1)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            h = mean_field(random_hermitian(rng, 4), random_hermitian(rng, 4), 1.0)
            f = constant_observable(random_hermitian(rng, 4, scale))
            cell = conservation_residual(f, h, random_density(rng, 4), 0.1, cfg)
            assert cell / scale <= 1e-13, seed  # 7.4e-15 at most

    def test_a_grid_builds_only_the_observables_own_operators(self, h_mf, sx, sz, qubit_up,
                                                              monkeypatch):
        inside, built, check = [0], [], HermitianOperator.__post_init__

        def counted(self):
            built.append(inside[0] > 0)
            check(self)

        def counting(f):
            def evaluate(rho):
                inside[0] += 1
                try:
                    return f.eval(rho)
                finally:
                    inside[0] -= 1

            return ObservableFunction(eval=evaluate, label=f.label)

        fs = tuple(map(counting, (constant_observable(sx), trace_scaled_observable(sz, sx))))
        cfg = IntegratorConfig(dt=0.01, t_final=0.2)
        monkeypatch.setattr(HermitianOperator, "__post_init__", counted)
        conservation_residuals(fs, h_mf, qubit_up, (0.05, 0.2, -0.1), cfg)
        assert len(built) == 4  # the trace-scaled f at rho and at each grid time's rho_b
        assert all(built)
