"""Tests for the exponential-midpoint integrator and its diagnostics."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from eqm_lab import flow, hilbert
from eqm_lab.flow import (
    ConvergenceError,
    GeneratorError,
    IntegratorConfig,
    convergence_order,
    StateError,
    StepError,
    evolve,
    overlap_deviation,
    propagate,
    wigner_deviation,
)
from eqm_lab.hamiltonians import (
    HamiltonianFunction,
    from_value,
    linear,
    mean_field,
    polynomial,
    shift_differential,
)
from eqm_lab.hilbert import (
    MAX_DIM,
    POLYNOMIAL_MIN_DIM,
    SIGMA_X,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    max_abs,
    projector,
    unitary_exponential,
)
from eqm_lab.runner import four_level_ops
from conftest import random_density, random_hermitian, random_pure, random_traceless_hermitian

STEP_DIMS = (2, 4, 16, MAX_DIM)


def zero_hamiltonian(dim):
    return linear(HermitianOperator(np.zeros((dim, dim))))


def unmarked_linear(a):
    """linear(a) built by hand without the state-independent mark: the midpoint path."""
    return HamiltonianFunction(value=lambda rho: 0.0, differential=lambda rho: a,
                               generator=lambda m: a.matrix)


def uniform_superposition(dim):
    return projector(StateVector(np.ones(dim) / np.sqrt(dim)))


@pytest.fixture
def h_mf(sx, sz):
    return mean_field(sx, sz, 1.0)


class TestIntegratorConfig:
    def test_rejects_dt_beyond_t_final(self):
        with pytest.raises(ValueError, match="exceeds t_final"):
            IntegratorConfig(dt=2.0, t_final=1.0)

    def test_allows_zero_horizon(self):
        IntegratorConfig(dt=0.1, t_final=0.0)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="record_stride"):
            IntegratorConfig(dt=0.1, t_final=1.0, record_stride=0)

    @pytest.mark.parametrize("field, value", [("record_stride", 2.5), ("record_stride", 2.0),
                                              ("midpoint_max_iter", 3.0),
                                              ("record_stride", True),
                                              ("midpoint_max_iter", True)])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer of at least 1, "
                                             rf"got {value}$"):
            IntegratorConfig(dt=0.1, t_final=1.0, **{field: value})

    def test_numpy_integer_counts_pass(self, sz, qubit_up):
        cfg = IntegratorConfig(dt=0.1, t_final=1.0, midpoint_max_iter=np.int64(5),
                               record_stride=np.int64(5))
        assert evolve(linear(sz), qubit_up, cfg).times == (0.0, 0.5, 1.0)


class TestStep:
    """Single steps, taken as propagate over one step of the configured size."""

    def test_zero_generator_is_identity(self, rng):
        for dim in STEP_DIMS:
            rho = random_density(rng, dim)
            cfg = IntegratorConfig(dt=0.1, t_final=1.0)
            rho2, u2 = propagate(zero_hamiltonian(dim), rho, 0.1, cfg)
            assert max_abs(rho2.matrix - rho.matrix) == 0.0, dim
            assert max_abs(u2.matrix - np.eye(dim)) == 0.0, dim

    def test_linear_step_is_exact_exponential(self, rng):
        # The unmarked copy drives a constant generator through the midpoint
        # iteration, which must land on the exact exponential as well.
        for dim in STEP_DIMS:
            a = random_hermitian(rng, dim)
            rho = random_density(rng, dim)
            cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
            expected = unitary_exponential(a, 1e-3).matrix
            for h in (linear(a), unmarked_linear(a)):
                rho1, u1 = propagate(h, rho, 1e-3, cfg)
                assert max_abs(u1.matrix - expected) < 1e-14, dim
                assert max_abs(rho1.matrix - expected @ rho.matrix @ expected.conj().T) < 1e-14, dim

    def test_mean_field_fixed_point(self):
        # Tr(rho B) = 0 for the uniform superposition and a traceless diagonal
        # B, so the generator vanishes there.
        for dim in STEP_DIMS:
            coupling = HermitianOperator(np.diag(np.linspace(-1.0, 1.0, dim)))
            h = mean_field(HermitianOperator(np.zeros((dim, dim))), coupling, 1.0)
            rho = uniform_superposition(dim)
            cfg = IntegratorConfig(dt=0.05, t_final=1.0)
            rho2, _ = propagate(h, rho, 0.05, cfg)
            assert max_abs(rho2.matrix - rho.matrix) < 1e-15, dim

    def test_non_convergence_raises(self, h_mf, qubit_up):
        cfg = IntegratorConfig(dt=3.0, t_final=3.0)
        with pytest.raises(ConvergenceError, match=r"did not settle .* at step 1, t = 0 to 3 "):
            propagate(h_mf, qubit_up, 3.0, cfg)

    def test_non_convergence_names_the_failing_step(self, sz):
        # The first steps start near the sigma_z eigenstate, where the
        # iteration contracts fast; it stalls only once the state has turned.
        h = mean_field(HermitianOperator(4.0 * SIGMA_X), sz, 5.0)
        cfg = IntegratorConfig(dt=0.02, t_final=1.0, midpoint_max_iter=5)
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ConvergenceError, match="did not settle") as failure:
            evolve(h, rho, cfg)
        found = re.search(r"at step (\d+), t = (\S+) to (\S+) ", str(failure.value))
        k, start, end = int(found[1]), float(found[2]), float(found[3])
        assert k > 1
        assert start == pytest.approx((k - 1) * cfg.dt)
        assert end == pytest.approx(k * cfg.dt)


def scripted(offset):
    """A qubit generator that returns offset(n) times the identity on its n-th call (from 0).

    The state never enters, so each increment is the change of offset
    between two calls; the returned list holds the number of calls so far.
    """
    count = [0]

    def generator(m):
        count[0] += 1
        return offset(count[0] - 1) * np.eye(2, dtype=complex)

    return HamiltonianFunction(value=lambda rho: 0.0, generator=generator), count


class TestMidpointStop:
    """The midpoint iteration stops on its increment or on its contraction estimate."""

    CFG = IntegratorConfig(dt=0.01, t_final=0.02)

    def test_contraction_estimate_skips_the_confirming_pass(self, qubit_up):
        # Increments 1e-3, then 1e-9 > midpoint_tol: theta = 1e-6 puts the
        # estimate near 1e-15, below MIDPOINT_KAPPA * midpoint_tol, so the
        # step ends after two passes; the plain increment rule takes a third.
        values = (0.0, 1e-3, 1e-3 + 1e-9)
        h, count = scripted(lambda n: values[min(n, 2)])
        propagate(h, qubit_up, 0.01, self.CFG)
        assert count[0] == 3

    def test_first_pass_has_no_estimate(self, qubit_up):
        # One increment of 1e-11 > midpoint_tol and no theta yet: a second pass.
        h, count = scripted(lambda n: 0.0 if n == 0 else 1e-11)
        propagate(h, qubit_up, 0.01, self.CFG)
        assert count[0] == 3

    def test_theta_comes_from_the_current_step_only(self, qubit_up):
        # Step 1: increments 1e-3 then 0.  Step 2 starts at call 3 with an
        # increment of 1e-9; a theta built on step 1's 1e-3 would stop it
        # after one pass, five calls in all instead of six.
        values = (0.0, 1e-3, 1e-3, 1e-3, 1e-3 + 1e-9)
        h, count = scripted(lambda n: values[min(n, 4)])
        propagate(h, qubit_up, 0.02, self.CFG)
        assert count[0] == 6

    @pytest.mark.parametrize("offset", [lambda n: 1e-10 * (n % 2), lambda n: 1e-10 * 2.0 ** n],
                             ids=["stalled", "diverging"])
    def test_theta_of_one_or_more_never_stops(self, qubit_up, offset):
        h, count = scripted(offset)
        cfg = IntegratorConfig(dt=0.01, t_final=0.01, midpoint_max_iter=7)
        with pytest.raises(ConvergenceError, match="within 7 iterations at step 1, t = 0 to 0.01 "):
            propagate(h, qubit_up, 0.01, cfg)
        assert count[0] == 8

    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    @pytest.mark.parametrize("family, dim", [("mean_field", 2), ("mean_field", 4),
                                             ("polynomial", 4)])
    def test_accepted_generator_solves_the_midpoint_equation(self, family, dim, dt, rng,
                                                             monkeypatch):
        # Each full-step generator D the kernel exponentiates (s = +-dt) meets
        # max |D(mid(D)) - D| <= midpoint_tol, with the midpoint state built
        # from numpy's eigh rather than the kernel's exponential.
        if dim == 2:
            a, b = HermitianOperator(SIGMA_X), HermitianOperator(np.diag([1.0, -1.0]))
        else:
            a, b = (HermitianOperator(m) for m in four_level_ops())
        h = (mean_field(a, b, 1.0) if family == "mean_field"
             else polynomial([(1.0, (a,)), (0.5, (b, b)), (0.25, (a, b))]))
        rho = random_density(rng, dim)
        exact, full = flow.expm_hermitian, []

        def recording(mat, s):
            if abs(s) == dt:
                full.append(mat)
            return exact(mat, s)

        monkeypatch.setattr(flow, "expm_hermitian", recording)
        cfg = IntegratorConfig(dt=dt, t_final=dt)
        worst = 0.0
        for s in (dt,) * 10 + (-dt,) * 10:
            full.clear()
            after, _ = propagate(h, rho, s, cfg)
            (d,) = full
            w, v = np.linalg.eigh(d)
            half = (v * np.exp(-0.5j * s * w)) @ v.conj().T
            worst = max(worst, max_abs(h.generator(half @ rho.matrix @ half.conj().T) - d))
            rho = after
        assert worst <= cfg.midpoint_tol


class TestStepError:
    """The three step failures share one base, one message layout and one on_leg."""

    LEG = "backward run from grid time t = 2"

    @pytest.mark.parametrize("failure, base, message, on_leg", [
        (ConvergenceError(50, 3, -0.02, -0.03), RuntimeError,
         "midpoint iteration did not settle within 50 iterations at step 3, t = -0.02 to -0.03 "
         "(dt = -0.01 is too large for this nonlinearity)",
         "backward run from grid time t = 2: midpoint iteration did not settle within 50 "
         "iterations at step 3, t = 1.98 to 1.97 (dt = -0.01 is too large for this nonlinearity)"),
        (GeneratorError("turns nan", 3, -0.02, -0.03), ValueError,
         "generator of 'turns nan' gave a non-finite matrix at step 3, t = -0.02 to -0.03",
         "backward run from grid time t = 2: generator of 'turns nan' gave a non-finite matrix "
         "at step 3, t = 1.98 to 1.97"),
        (StateError("state must have unit trace", 3, -0.03, -0.03), ValueError,
         "state after step 3, t = -0.03: state must have unit trace",
         "backward run from grid time t = 2: state after step 3, t = 1.97: "
         "state must have unit trace"),
    ], ids=["convergence", "generator", "state"])
    def test_family(self, failure, base, message, on_leg):
        assert isinstance(failure, StepError) and isinstance(failure, base)
        assert isinstance(failure, ValueError) == (base is ValueError)
        assert str(failure) == message
        moved = failure.on_leg(self.LEG, 2.0)
        assert type(moved) is type(failure)
        assert (moved.step, moved.start, moved.end) == (3, 2.0 + failure.start, 2.0 + failure.end)
        assert str(moved) == on_leg


class TestNonFiniteGenerator:
    """A generator that gives NaN or inf fails at its step, with the time and the label."""

    CFG = IntegratorConfig(dt=0.01, t_final=0.1)

    @staticmethod
    def _turns_bad(dim, calls, bad, rng):
        """mean_field at dim whose generator gives bad times its value from call `calls` on."""
        base = mean_field(random_hermitian(rng, dim), random_hermitian(rng, dim), 0.7)
        count = [0]

        def generator(m):
            count[0] += 1
            # A complex entry times inf is (x + 0j) (inf + 0j): the product
            # takes 0 * inf = NaN, which numpy flags as invalid.
            with np.errstate(invalid="ignore"):
                return base.generator(m) * (bad if count[0] >= calls else 1.0)

        return HamiltonianFunction(value=base.value, generator=generator, label="turns bad")

    @pytest.mark.parametrize("dim", [2, 4])
    def test_later_step_names_the_step_time_and_label(self, dim, rng):
        # Every step takes at least two calls, so call 7 falls at step 2 or later.
        h = self._turns_bad(dim, 7, np.nan, rng)
        with pytest.raises(GeneratorError) as failure:
            propagate(h, random_density(rng, dim), 0.1, self.CFG)
        assert isinstance(failure.value, ValueError)
        found = re.fullmatch(r"generator of 'turns bad' gave a non-finite matrix "
                             r"at step (\d+), t = (\S+) to (\S+)", str(failure.value))
        k = int(found[1])
        assert 1 < k < 4
        assert float(found[2]) == pytest.approx((k - 1) * 0.01)
        assert float(found[3]) == pytest.approx(k * 0.01)

    # The qubit path, both ends of the eigh path and the Taylor path from its first dimension.
    @pytest.mark.parametrize("dim, bad", [(2, np.nan), (2, np.inf), (4, np.nan), (4, np.inf),
                                          (16, np.nan), (16, np.inf), (MAX_DIM, np.nan),
                                          (MAX_DIM, np.inf), (3, np.nan), (3, np.inf),
                                          (POLYNOMIAL_MIN_DIM - 1, np.nan),
                                          (POLYNOMIAL_MIN_DIM - 1, np.inf),
                                          (POLYNOMIAL_MIN_DIM, np.nan),
                                          (POLYNOMIAL_MIN_DIM, np.inf)])
    def test_first_call_fails_at_step_one(self, dim, bad, rng):
        # The first call reaches the exponential before any increment exists,
        # and the kernel's scan rejects the matrix before any path reads it.
        h = self._turns_bad(dim, 1, bad, rng)
        with pytest.raises(GeneratorError, match=r"^generator of 'turns bad' gave a non-finite "
                                                 r"matrix at step 1, t = 0 to 0\.01$"):
            propagate(h, random_density(rng, dim), 0.1, self.CFG)

    def test_backward_run_names_its_signed_time(self, rng):
        h = self._turns_bad(4, 1, np.nan, rng)
        with pytest.raises(GeneratorError, match=r"at step 1, t = 0 to -0\.01$"):
            propagate(h, random_density(rng, 4), -0.1, self.CFG)

    def test_state_independent_mark(self, qubit_up):
        h = HamiltonianFunction(value=lambda rho: 0.0, label="constant nan",
                                generator=lambda m: np.full((2, 2), np.nan + 0j),
                                state_independent=True)
        with pytest.raises(GeneratorError, match=r"^generator of 'constant nan' .* at step 1, "):
            propagate(h, qubit_up, 0.1, self.CFG)

    @pytest.mark.parametrize("dim", [4, 16])  # the eigh and Taylor paths
    def test_state_independent_mark_above_the_qubit(self, dim, rng):
        h = HamiltonianFunction(value=lambda rho: 0.0, label="constant nan",
                                generator=lambda m: np.full((dim, dim), np.nan + 0j),
                                state_independent=True)
        with pytest.raises(GeneratorError, match=r"^generator of 'constant nan' .* at step 1, "):
            propagate(h, random_density(rng, dim), 0.1, self.CFG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("pass_", ["first call", "later pass"])
    def test_entry_above_the_diagonal_fails_at_its_step(self, pass_, bad, rng):
        # The eigh path never reads A[0, 3], and expm_hermitian never scans
        # A, so only the kernel's one scan of each output can see it: step
        # 2's first call, or its first midpoint refresh.
        self._poison_at_step_two((0, 3), pass_, bad, rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("pass_", ["first call", "later pass"])
    @pytest.mark.parametrize("entry", [(3, 0), (2, 2)], ids=["lower", "diagonal"])
    def test_entry_the_exponential_reads_fails_at_its_step(self, entry, pass_, bad, rng):
        # The kernel's scan sees it before the eigh path reads it.
        self._poison_at_step_two(entry, pass_, bad, rng)

    # The eigh path reads these entries and checks none of them, so at each of
    # its dimensions every scan of the kernel must stop each non-finite value
    # before any exponential takes it: the fixed matrix of a state-independent
    # function, the step's first call, and its first midpoint refresh.
    @pytest.mark.parametrize("dim", [3, 4, POLYNOMIAL_MIN_DIM - 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["lower", "diagonal"])
    @pytest.mark.parametrize("scan", ["fixed", "first call", "refresh"])
    def test_each_scan_stops_an_entry_the_eigh_path_reads(self, scan, where, bad, dim, rng,
                                                           monkeypatch):
        entry = (dim - 1, 0) if where == "lower" else (dim - 1, dim - 1)
        base = mean_field(random_hermitian(rng, dim), random_hermitian(rng, dim), 0.7)
        poisoned, count = {"fixed": 1, "first call": 1, "refresh": 2}[scan], [0]

        def generator(m):
            count[0] += 1
            out = base.generator(m)
            if count[0] == poisoned:
                out = out.copy()
                out[entry] = bad
            return out

        exact = flow.expm_hermitian

        def finite_only(mat, s):
            assert np.isfinite(mat).all()
            return exact(mat, s)

        monkeypatch.setattr(flow, "expm_hermitian", finite_only)
        h = HamiltonianFunction(value=base.value, generator=generator, label="turns bad",
                                state_independent=scan == "fixed")
        with pytest.raises(GeneratorError, match=r"^generator of 'turns bad' gave a non-finite "
                                                 r"matrix at step 1, t = 0 to 0\.01$"):
            propagate(h, random_density(rng, dim), 0.1, self.CFG)
        assert count[0] == poisoned

    def _poison_at_step_two(self, entry, pass_, bad, rng):
        """Entry of step 2's first generator call, or of its first refresh, turns bad."""
        base = mean_field(random_hermitian(rng, 4), random_hermitian(rng, 4), 0.7)
        rho = random_density(rng, 4)
        count = [0]

        def counted(m):
            count[0] += 1
            return base.generator(m)

        propagate(HamiltonianFunction(value=base.value, generator=counted), rho, 0.01, self.CFG)
        poisoned = count[0] + (1 if pass_ == "first call" else 2)
        count[0] = 0

        def generator(m):
            out = counted(m)
            if count[0] == poisoned:
                out = out.copy()
                out[entry] = bad
            return out

        h = HamiltonianFunction(value=base.value, generator=generator, label="turns bad")
        with pytest.raises(GeneratorError, match=r"^generator of 'turns bad' gave a non-finite "
                                                 r"matrix at step 2, t = 0\.01 to 0\.02$"):
            propagate(h, rho, 0.1, self.CFG)
        assert count[0] == poisoned

    def test_finite_generator_keeps_the_exponential_error(self, qubit_up):
        # Every entry is finite, but |a| = hypot(1.5e308, 1.5e308) overflows,
        # so the exponential's own ValueError ends the run, not GeneratorError.
        big = np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]], dtype=complex)
        h = HamiltonianFunction(value=lambda rho: 0.0, label="huge", generator=lambda m: big)
        with pytest.raises(ValueError, match=r"^exponent must be finite, got s = 0\.005, "
                                             r"a0 \+ \|a\| = inf$") as failure:
            propagate(h, qubit_up, 0.1, self.CFG)
        assert not isinstance(failure.value, GeneratorError)


class TestEvolve:
    def test_zero_horizon_single_record(self, sz, qubit_up):
        traj = evolve(linear(sz), qubit_up, IntegratorConfig(dt=0.1, t_final=0.0))
        assert traj.times == (0.0,)
        assert max_abs(traj.cocycle[0].matrix - np.eye(2)) == 0.0
        assert traj.states[0] is qubit_up

    def test_rabi_oscillation(self, sz, qubit_plus):
        # Exact solution: the sigma_x expectation is cos(2t).
        cfg = IntegratorConfig(dt=1e-3, t_final=np.pi, record_stride=100)
        traj = evolve(linear(sz), qubit_plus, cfg)
        for t, state in zip(traj.times, traj.states):
            value = float(np.trace(state.matrix @ SIGMA_X).real)
            assert value == pytest.approx(math.cos(2 * t), abs=1e-8)

    def test_self_convergence_against_refined_run(self, h_mf, qubit_up):
        coarse = evolve(h_mf, qubit_up, IntegratorConfig(dt=2e-3, t_final=1.0, record_stride=500))
        fine = evolve(h_mf, qubit_up, IntegratorConfig(dt=2e-4, t_final=1.0, record_stride=5000))
        assert max_abs(coarse.states[-1].matrix - fine.states[-1].matrix) < 1e-6

    def test_partial_final_step(self, sz, qubit_plus):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.0105, record_stride=5)
        traj = evolve(linear(sz), qubit_plus, cfg)
        assert traj.times[-1] == pytest.approx(0.0105, abs=1e-15)
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
        exact = unitary_exponential(sz, 0.0105)
        ref = exact.matrix @ qubit_plus.matrix @ exact.matrix.conj().T
        assert max_abs(traj.states[-1].matrix - ref) < 1e-12

    def test_trajectory_monitors(self, h_mf, qubit_up):
        traj = evolve(h_mf, qubit_up, IntegratorConfig(dt=1e-3, t_final=5.0, record_stride=50))
        assert traj.max_unitarity_defect() <= 1e-10
        assert traj.max_cocycle_defect() <= 1e-10
        assert traj.max_spectrum_drift() <= 1e-9
        assert traj.max_trace_defect() <= 1e-11
        assert traj.max_purity_drift() <= 1e-9

    def test_pure_state_dynamics_matches_vector_equation(self, h_mf):
        # The transported vector u(t) psi0 solves the state-vector equation
        # with the differential as generator, checked by central differences.
        psi0 = StateVector(np.array([1.0, 0.0], dtype=complex))
        rho0 = projector(psi0)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=1)
        traj = evolve(h_mf, rho0, cfg)
        worst = 0.0
        for k in range(1, len(traj.times) - 1):
            behind = traj.cocycle[k - 1].matrix @ psi0.vector
            ahead = traj.cocycle[k + 1].matrix @ psi0.vector
            here = traj.cocycle[k].matrix @ psi0.vector
            derivative = 1j * (ahead - behind) / (2 * cfg.dt)
            generator = h_mf.differential(traj.states[k]).matrix
            worst = max(worst, float(np.linalg.norm(derivative - generator @ here)))
        assert worst <= 1e-5


class TestTrajectory:
    @pytest.mark.parametrize("lengths, message", [
        ((1, 1, 0), "^times, states, and cocycle must have equal length$"),
        ((2, 1, 1), "^times, states, and cocycle must have equal length$"),
        ((0, 0, 0), "^a trajectory holds at least the initial record$"),
    ], ids=["no-cocycle", "extra-time", "empty"])
    def test_rejects_unequal_or_empty_records(self, qubit_up, lengths, message):
        identity = hilbert.UnitaryOperator(np.eye(2))
        columns = (0.0,) * lengths[0], (qubit_up,) * lengths[1], (identity,) * lengths[2]
        with pytest.raises(ValueError, match=message):
            flow.Trajectory(*columns)


class TestPropagate:
    def test_zero_time(self, h_mf, qubit_up):
        rho, u = propagate(h_mf, qubit_up, 0.0, IntegratorConfig(dt=1e-3, t_final=1.0))
        assert rho is qubit_up
        assert max_abs(u.matrix - np.eye(2)) == 0.0

    def test_backward_inverts_forward(self, h_mf, qubit_up):
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        rho_t, u_fwd = propagate(h_mf, qubit_up, 2.0, cfg)
        rho_back, u_back = propagate(h_mf, rho_t, -2.0, cfg)
        assert max_abs(rho_back.matrix - qubit_up.matrix) < 1e-9
        assert max_abs(u_back.matrix @ u_fwd.matrix - np.eye(2)) < 1e-9

    def test_backward_inverts_forward_at_max_dim(self, rng):
        a, b = random_hermitian(rng, MAX_DIM), random_hermitian(rng, MAX_DIM)
        h = mean_field(a, b, 0.5)
        rho = random_density(rng, MAX_DIM)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        rho_t, u_fwd = propagate(h, rho, 5e-3, cfg)
        assert max_abs(rho_t.matrix - rho.matrix) > 1e-6
        rho_back, u_back = propagate(h, rho_t, -5e-3, cfg)
        assert max_abs(rho_back.matrix - rho.matrix) < 1e-9
        assert max_abs(u_back.matrix @ u_fwd.matrix - np.eye(MAX_DIM)) < 1e-9


    def test_backward_retraces_an_off_step_forward_run(self, h_mf, qubit_up):
        # 1.1 is three 0.3-steps and a 0.2-step; the backward run takes the
        # 0.2-step first, so it undoes the forward steps in reverse order.
        cfg = IntegratorConfig(dt=0.3, t_final=1.1)
        rho_t, u_fwd = propagate(h_mf, qubit_up, 1.1, cfg)
        rho_back, u_back = propagate(h_mf, rho_t, -1.1, cfg)
        assert max_abs(rho_back.matrix - qubit_up.matrix) < 1e-13
        assert max_abs(u_back.matrix @ u_fwd.matrix - np.eye(2)) < 1e-13

    def test_non_hermitian_differential_fails(self, qubit_up):
        h = HamiltonianFunction(value=lambda rho: 0.0,
                                differential=lambda rho: HermitianOperator(SIGMA_X + 1e-6j))
        with pytest.raises(ValueError, match="not Hermitian"):
            propagate(h, qubit_up, 0.1, IntegratorConfig(dt=0.01, t_final=0.1))

    def test_failure_names_the_step_and_time(self, h_mf, qubit_up, monkeypatch):
        # A step map 1e-8 off unitarity moves the trace past TRACE_TOL at once;
        # the kernel runs on, and the state fails where it leaves the kernel.
        exact = flow.expm_hermitian
        monkeypatch.setattr(flow, "expm_hermitian", lambda mat, s: exact(mat, s) * (1 + 1e-8))
        cfg = IntegratorConfig(dt=0.01, t_final=0.2, record_stride=5)
        with pytest.raises(StateError, match=r"^state after step 20, t = 0\.2: state must have unit trace"):
            propagate(h_mf, qubit_up, 0.2, cfg)
        with pytest.raises(ValueError, match=r"^state after step 5, t = 0\.05: state must have unit trace"):
            evolve(h_mf, qubit_up, cfg)

    def test_checks_only_the_endpoint(self, rng, monkeypatch):
        # One stacked check of one record, and no constructor runs: the
        # endpoint wraps the kernel's arrays once the check accepts them.
        h = mean_field(random_hermitian(rng, 4), random_hermitian(rng, 4), 0.7)
        rho = random_density(rng, 4)
        built = dict.fromkeys(("DensityMatrix", "UnitaryOperator", "HermitianOperator"), 0)
        for name in built:
            cls = getattr(hilbert, name)
            check = cls.__post_init__

            def counted(self, name=name, check=check):
                built[name] += 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        checked, stacked = [], flow.first_rejected
        monkeypatch.setattr(flow, "first_rejected",
                            lambda states, unitaries: checked.append(len(states))
                            or stacked(states, unitaries))
        rho_t, u_t = propagate(h, rho, 0.2, IntegratorConfig(dt=0.01, t_final=0.2))
        assert checked == [1]
        assert built == {"DensityMatrix": 0, "UnitaryOperator": 0, "HermitianOperator": 0}
        assert not (rho_t.matrix.flags.writeable or u_t.matrix.flags.writeable)


class TestStateIndependent:
    def test_factories_set_the_mark(self, rng, sz):
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        marked = (linear(a), shift_differential(linear(a), 1.5))
        unmarked = (mean_field(a, b, 0.7), shift_differential(mean_field(a, b, 0.7), 1.5),
                    polynomial([(1.0, (a,))]), from_value(lambda m: 0.0, dim=2),
                    unmarked_linear(sz))
        assert all(h.state_independent for h in marked)
        assert not any(h.state_independent for h in unmarked)

    def test_marked_run_is_the_midpoint_run_bit_for_bit(self, rng):
        # 0.05 is five whole steps, 0.037 three steps and a remainder.
        for dim in STEP_DIMS:
            a = random_hermitian(rng, dim)
            rho = random_density(rng, dim)
            cfg = IntegratorConfig(dt=0.01, t_final=0.037)
            for h in (linear(a), shift_differential(linear(a), -2.0)):
                reference = HamiltonianFunction(h.value, h.differential, generator=h.generator)
                for t in (0.05, -0.05, 0.037, -0.037):
                    (rho_a, u_a), (rho_b, u_b) = (propagate(g, rho, t, cfg) for g in (h, reference))
                    assert np.array_equal(rho_a.matrix, rho_b.matrix), (dim, t)
                    assert np.array_equal(u_a.matrix, u_b.matrix), (dim, t)
                marked, plain = evolve(h, rho, cfg), evolve(reference, rho, cfg)
                assert marked.times == plain.times
                for x, y in zip(marked.states + marked.cocycle, plain.states + plain.cocycle):
                    assert np.array_equal(x.matrix, y.matrix), dim

    def test_one_exponential_per_step_size(self, rng, monkeypatch):
        exact, sizes = flow.expm_hermitian, []

        def counted(mat, s):
            sizes.append(s)
            return exact(mat, s)

        monkeypatch.setattr(flow, "expm_hermitian", counted)
        cfg = IntegratorConfig(dt=0.01, t_final=0.037)
        propagate(linear(random_hermitian(rng, 4)), random_density(rng, 4), -0.037, cfg)
        assert sizes == pytest.approx([-0.007, -0.01])


class TestWignerDeviation:
    def test_identical_states_do_not_deviate(self, h_mf, qubit_up):
        dev, _ = wigner_deviation(h_mf, qubit_up, qubit_up,
                                  IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=10))
        assert dev <= 1e-10

    def test_linear_flow_preserves_overlaps(self, rng):
        h = linear(random_hermitian(rng, 2))
        p = projector(StateVector(np.array([0.8, 0.6])))
        q = projector(StateVector(np.array([1.0, 1.0]) / np.sqrt(2)))
        dev, _ = wigner_deviation(h, p, q, IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=10))
        assert dev <= 1e-8

    def test_mean_field_violates_overlap_conservation(self, sz, qubit_plus):
        h = mean_field(HermitianOperator(np.zeros((2, 2))), sz, 1.0)
        tilted = projector(StateVector(np.array([math.cos(0.1), math.sin(0.1)])))
        dev, t_at = wigner_deviation(h, tilted, qubit_plus,
                                     IntegratorConfig(dt=1e-3, t_final=2.0, record_stride=1))
        assert dev >= 0.01
        assert 0.0 < t_at <= 2.0

    def test_rejects_mixed_input(self, h_mf, qubit_up):
        mixed = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="pure"):
            wigner_deviation(h_mf, qubit_up, mixed, IntegratorConfig(dt=1e-3, t_final=1.0))

    def test_scan_of_recorded_trajectories(self, sz, qubit_plus):
        h = mean_field(HermitianOperator(np.zeros((2, 2))), sz, 1.0)
        tilted = projector(StateVector(np.array([math.cos(0.1), math.sin(0.1)])))
        cfg = IntegratorConfig(dt=0.01, t_final=1.0, record_stride=3)
        traj_p, traj_q = evolve(h, tilted, cfg), evolve(h, qubit_plus, cfg)
        assert overlap_deviation(traj_p, traj_q) == wigner_deviation(h, tilted, qubit_plus, cfg)
        coarse = evolve(h, qubit_plus, IntegratorConfig(dt=0.01, t_final=1.0, record_stride=5))
        with pytest.raises(ValueError, match="same times"):
            overlap_deviation(traj_p, coarse)
        mixed = evolve(h, DensityMatrix(np.eye(2) / 2), cfg)
        with pytest.raises(ValueError, match="second argument is not pure"):
            overlap_deviation(traj_p, mixed)

    @pytest.mark.parametrize("position", ["first", "second"])
    def test_mixed_input_fails_before_the_first_generator_call(self, qubit_up, position):
        calls = []
        h = HamiltonianFunction(value=lambda rho: 0.0,
                                generator=lambda m: calls.append(m) or np.zeros_like(m))
        mixed = DensityMatrix(np.eye(2) / 2)
        p, q = (mixed, qubit_up) if position == "first" else (qubit_up, mixed)
        with pytest.raises(ValueError, match=rf"^{position} argument is not pure: purity = 0\.5$"):
            wigner_deviation(h, p, q, IntegratorConfig(dt=1e-3, t_final=1.0))
        assert calls == []


class TestGaugeInvariance:
    def test_shifted_differential_same_states_phased_cocycle(self, h_mf, qubit_up):
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=20)
        base = evolve(h_mf, qubit_up, cfg)
        for c in (-10.0, 1.0, 10.0):
            shifted = evolve(shift_differential(h_mf, c), qubit_up, cfg)
            state_defect = max(max_abs(a.matrix - b.matrix)
                               for a, b in zip(shifted.states, base.states))
            phase_defect = max(
                max_abs(us.matrix - np.exp(-1j * c * t) * ub.matrix)
                for t, us, ub in zip(base.times, shifted.cocycle, base.cocycle)
            )
            assert state_defect <= 1e-10
            assert phase_defect <= 1e-9


class TestConvergenceOrder:
    def test_mean_field_is_second_order(self, h_mf, qubit_up):
        estimate = convergence_order(h_mf, qubit_up, t_final=1.0, dt=0.01)
        assert not estimate.exact
        assert 1.8 <= estimate.order <= 2.2

    def test_linear_is_flagged_exact(self, sz, qubit_plus):
        estimate = convergence_order(linear(sz), qubit_plus, t_final=1.0, dt=0.01)
        assert estimate.exact
        assert math.isnan(estimate.order)
        assert max(estimate.coarse_error, estimate.fine_error) < 1e-12

    def test_zero_generator_is_exact(self, qubit_up):
        estimate = convergence_order(zero_hamiltonian(2), qubit_up, t_final=1.0, dt=0.01)
        assert estimate.exact
        assert estimate.coarse_error == 0.0

    @pytest.mark.parametrize("coarse, fine", [(1e-6, 2e-6), (1e-6, 1e-6), (1e-6, 0.0)],
                             ids=["coarse-below-fine", "equal", "fine-zero"])
    def test_an_error_that_does_not_shrink_gives_no_order(self, qubit_up, monkeypatch,
                                                           coarse, fine):
        # The endpoints at dt, dt/2 and dt/4 sit coarse, fine and 0 off the
        # zero matrix, past EXACT_ERROR_FLOOR: not exact, and no order.
        offsets = {1: coarse, 2: fine, 4: 0.0}

        def endpoint(h, rho0, t, cfg):
            return SimpleNamespace(matrix=offsets[round(0.01 / cfg.dt)] * np.eye(2)), None

        monkeypatch.setattr(flow, "propagate", endpoint)
        estimate = convergence_order(zero_hamiltonian(2), qubit_up, t_final=1.0, dt=0.01)
        assert not estimate.exact and math.isnan(estimate.order)
        assert (estimate.coarse_error, estimate.fine_error) == (
            float(np.linalg.norm(coarse * np.eye(2))), float(np.linalg.norm(fine * np.eye(2))))


# The per-record scans the monitors and overlap_deviation ran before they
# read their records in stacked blocks: the stacked forms must keep these bits.
PER_RECORD_MONITORS = {
    "max_unitarity_defect": lambda traj: max(
        max_abs(u.matrix.conj().T @ u.matrix - np.eye(u.dim)) for u in traj.cocycle),
    "max_cocycle_defect": lambda traj: max(
        max_abs(s.matrix - u.matrix @ traj.states[0].matrix @ u.matrix.conj().T)
        for s, u in zip(traj.states, traj.cocycle)),
    "max_spectrum_drift": lambda traj: max(
        max_abs(hilbert.spectrum(s) - hilbert.spectrum(traj.states[0])) for s in traj.states),
    "max_trace_defect": lambda traj: max(
        abs(complex(np.trace(s.matrix)) - 1.0) for s in traj.states),
    "max_purity_drift": lambda traj: max(
        abs(s.purity() - traj.states[0].purity()) for s in traj.states),
}


def per_record_overlap_deviation(traj_p, traj_q):
    baseline = hilbert.transition_probability(traj_p.states[0], traj_q.states[0])
    best_dev, best_t = 0.0, 0.0
    for t, sp, sq in zip(traj_p.times, traj_p.states, traj_q.states):
        dev = abs(float(np.trace(sp.matrix @ sq.matrix).real) - baseline)
        if dev > best_dev:
            best_dev, best_t = dev, t
    return best_dev, best_t


def block_size(dim):
    return max(1, flow.RECORD_BLOCK_BYTES // (16 * dim * dim))


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def random_trajectory(rng, rho0, records):
    """rho0 carried by random unitaries, with a tiny Hermitian error on each state.

    The conjugation leaves rounding in the imaginary parts of the diagonal,
    so the traces are complex, as the kernel's are.
    """
    dim = rho0.dim
    times, states, cocycle = [0.0], [rho0], [hilbert.UnitaryOperator(np.eye(dim))]
    for n in range(1, records):
        u = random_unitary(rng, dim)
        state = u @ rho0.matrix @ u.conj().T + random_traceless_hermitian(rng, dim, 1e-13).matrix
        times.append(0.01 * n)
        states.append(DensityMatrix(state))
        cocycle.append(hilbert.UnitaryOperator(u))
    return flow.Trajectory(tuple(times), tuple(states), tuple(cocycle))


class TestRecordBlocks:
    """Records are checked and monitored in stacked blocks of RECORD_BLOCK_BYTES."""

    DIMS = (2, 3, 4, 13, 14, 16, MAX_DIM)

    @pytest.mark.parametrize("dim", DIMS)
    def test_monitors_keep_the_per_record_bits(self, dim, rng):
        # A block and a part; the overlap scan also runs on each record
        # taken twice in a row, so that the worst deviation appears twice
        # within a block: the scans keep the first.
        traj = random_trajectory(rng, random_density(rng, dim), block_size(dim) + 3)
        for name, per_record in PER_RECORD_MONITORS.items():
            assert getattr(traj, name)() == per_record(traj), name
        p, q = (random_trajectory(rng, random_pure(rng, dim), block_size(dim) + 3)
                for _ in range(2))
        twice = [flow.Trajectory(tuple(x for t in traj.times for x in (t, t + 0.005)),
                                 tuple(x for s in traj.states for x in (s, s)),
                                 tuple(x for u in traj.cocycle for x in (u, u)))
                 for traj in (p, q)]
        for pair in ((p, q), twice):
            assert overlap_deviation(*pair) == per_record_overlap_deviation(*pair)

    def test_overlap_of_unmoved_states_is_zero_at_time_zero(self, qubit_up):
        traj = evolve(zero_hamiltonian(2), qubit_up, IntegratorConfig(dt=0.1, t_final=1.0))
        assert overlap_deviation(traj, traj) == (0.0, 0.0)

    @pytest.mark.parametrize("dim", [2, 16, MAX_DIM])
    def test_records_are_the_kernels_arrays_read_only(self, dim, rng):
        h = mean_field(random_hermitian(rng, dim), random_hermitian(rng, dim), 0.7)
        cfg = IntegratorConfig(dt=0.01, t_final=0.05)
        traj = evolve(h, random_density(rng, dim), cfg)
        assert len(traj.times) == 6
        for wrapped in traj.states + traj.cocycle:
            assert not wrapped.matrix.flags.writeable
        rho_t, u_t = propagate(h, traj.states[0], 0.05, cfg)
        assert np.array_equal(rho_t.matrix, traj.states[-1].matrix)
        assert np.array_equal(u_t.matrix, traj.cocycle[-1].matrix)


def corrupt_record(monkeypatch, bad_step):
    """Make the kernel's record after bad_step fail validation; returns its message's maker.

    The record's trace moves 1e-8 off 1, past TRACE_TOL; the kernel itself
    runs on from its own state.  The message is what the per-record path
    built: the constructors' error, named by the step and time.
    """
    steps, seen = flow._steps, []

    def corrupted(h, rho, span, cfg):
        for k, time, rho_k, u in steps(h, rho, span, cfg):
            if k == bad_step:
                rho_k = rho_k * (1 + 1e-8)
                seen.append((k, time, rho_k, u))
            yield k, time, rho_k, u

    monkeypatch.setattr(flow, "_steps", corrupted)

    def message():
        (k, time, rho, u), = seen
        with pytest.raises(ValueError) as rejected:
            DensityMatrix(rho)
            hilbert.UnitaryOperator(u)
        return str(StateError(str(rejected.value), k, time, time))

    return message


class TestBadRecord:
    """A record that fails validation raises StateError with the per-record message."""

    DIM = 4

    def _h(self, rng):
        return mean_field(random_hermitian(rng, self.DIM), random_hermitian(rng, self.DIM), 0.7)

    @pytest.mark.parametrize("bad_step", [1, 2, block_size(DIM), block_size(DIM) + 1],
                             ids=["first-of-first", "second", "last-of-block", "first-of-second"])
    def test_message_names_the_step(self, bad_step, rng, monkeypatch):
        message = corrupt_record(monkeypatch, bad_step)
        cfg = IntegratorConfig(dt=1e-3, t_final=(block_size(self.DIM) + 5) * 1e-3)
        with pytest.raises(StateError) as failure:
            evolve(self._h(rng), random_density(rng, self.DIM), cfg)
        assert str(failure.value) == message()
        assert re.match(rf"state after step {bad_step}, t = \S+: state must have unit trace, "
                        r"got Tr = 1\.0000000", str(failure.value))
        assert failure.value.step == bad_step

    def test_strided_final_record(self, rng, monkeypatch):
        # 0.0105 is ten steps and a remainder, recorded at steps 5, 10 and 11.
        message = corrupt_record(monkeypatch, 11)
        with pytest.raises(StateError) as failure:
            evolve(self._h(rng), random_density(rng, self.DIM),
                   IntegratorConfig(dt=1e-3, t_final=0.0105, record_stride=5))
        assert str(failure.value) == message()
        assert str(failure.value).startswith("state after step 11, t = 0.0105: ")

    def test_endpoint_of_propagate(self, rng, monkeypatch):
        message = corrupt_record(monkeypatch, 20)
        with pytest.raises(StateError) as failure:
            propagate(self._h(rng), random_density(rng, self.DIM), -0.02,
                      IntegratorConfig(dt=1e-3, t_final=0.02))
        assert str(failure.value) == message()
        assert str(failure.value).startswith("state after step 20, t = -0.02: ")

    def test_comes_before_a_later_generator_error(self, rng, monkeypatch):
        # The generator turns NaN from its 30th call, at a step past 3 but
        # inside the first block, before the block is full.
        base, calls = self._h(rng), [0]

        def generator(m):
            calls[0] += 1
            return base.generator(m) * (np.nan if calls[0] >= 30 else 1.0)

        h = HamiltonianFunction(value=base.value, generator=generator, label="turns nan")
        rho = random_density(rng, self.DIM)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1)
        with pytest.raises(GeneratorError) as later:
            evolve(h, rho, cfg)
        assert later.value.step > 3
        calls[0] = 0
        message = corrupt_record(monkeypatch, 3)
        with pytest.raises(StateError) as failure:
            evolve(h, rho, cfg)
        assert str(failure.value) == message()

    def test_comes_before_a_later_convergence_error(self, rng, monkeypatch):
        # From its 30th call the generator returns a fresh random matrix, so
        # the midpoint iteration never settles.
        base, calls = self._h(rng), [0]
        noise = np.random.default_rng(7)

        def generator(m):
            calls[0] += 1
            if calls[0] < 30:
                return base.generator(m)
            return random_hermitian(noise, self.DIM).matrix

        h = HamiltonianFunction(value=base.value, generator=generator, label="restless")
        rho = random_density(rng, self.DIM)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1)
        with pytest.raises(ConvergenceError) as later:
            evolve(h, rho, cfg)
        assert later.value.step > 3
        calls[0] = 0
        message = corrupt_record(monkeypatch, 3)
        with pytest.raises(StateError) as failure:
            evolve(h, rho, cfg)
        assert str(failure.value) == message()


# The nonlinear step as it stood before the kernel scanned each generator
# output once, transcribed on plain arrays: every exponential scans its matrix,
# the increment is a plain ndarray.max, and the generators are the closed forms
# of that version.  It multiplies with @ (the matmul gufunc), so the kernel's
# ndarray.dot products are held to matmul's bits.  The kernel must give the
# same bits.

def _scanned_mean_field(a, b, strength):
    b_t = b.T.ravel()
    return lambda m: a + strength * np.dot(m.ravel(), b_t).real * b


def _nested_polynomial(terms):
    distinct = {id(f): f for _, factors in terms for f in factors}
    row = {key: k for k, key in enumerate(distinct)}
    indexed = [(coeff, [row[id(f)] for f in factors]) for coeff, factors in terms]
    stack = np.array([f.ravel() for f in distinct.values()])
    stack_t = np.array([f.T.ravel() for f in distinct.values()])

    def generator(m):
        paired = (stack_t @ m.ravel()).real.tolist()
        weights = [0.0] * len(paired)
        for coeff, rows in indexed:
            for j, k in enumerate(rows):
                partial = coeff
                for i, r in enumerate(rows):
                    if i != j:
                        partial *= paired[r]
                weights[k] += partial
        return (np.array(weights) @ stack).reshape(m.shape)

    return generator


def _scanned_steps(generator, rho, span, cfg):
    """The endpoint and cocycle of the transcribed step over the signed span."""
    tol, estimate_tol = cfg.midpoint_tol, flow.MIDPOINT_KAPPA * cfg.midpoint_tol
    u = np.eye(rho.shape[0], dtype=complex)
    for dt, _ in flow.schedule(span, cfg.dt):
        gen = generator(rho)
        previous = None
        for _ in range(cfg.midpoint_max_iter):
            half = hilbert.expm_hermitian(gen, 0.5 * dt)
            rho_mid = half @ rho @ half.conj().T
            refreshed = generator(rho_mid)
            increment = float(np.abs(refreshed - gen).max())
            assert math.isfinite(increment)
            if increment < tol:
                break
            if previous is not None:
                ratio = increment / previous
                if ratio < 1.0 and ratio / (1.0 - ratio) * increment < estimate_tol:
                    break
            previous, gen = increment, refreshed
        else:
            raise AssertionError("the transcribed step did not settle")
        stepper = hilbert.expm_hermitian(refreshed, dt)
        rho = stepper @ rho @ stepper.conj().T
        u = stepper @ u
    return rho, u


class TestRealGenerator:
    """A generator of real matrices steps as its complex cast, on the Taylor path too.

    The eigh path is left out: LAPACK's real routine rounds a real A
    differently from the complex one, as np.linalg.eigh does.
    """

    CFG = IntegratorConfig(dt=0.01, t_final=0.037)

    @pytest.mark.parametrize("dim", [2, 16, MAX_DIM])
    @pytest.mark.parametrize("t", [0.037, -0.037])
    def test_endpoint_and_cocycle_are_the_complex_casts(self, dim, t, rng):
        a, b = np.diag(np.linspace(-1.0, 1.0, dim)), random_hermitian(rng, dim).matrix.real
        b_t = b.T.ravel()

        def real(m):  # a mean-field generator with real symmetric a and b
            return a + 0.7 * np.dot(m.ravel(), b_t).real * b

        rho = random_density(rng, dim)
        runs = [propagate(HamiltonianFunction(value=lambda r: 0.0, generator=g), rho, t, self.CFG)
                for g in (real, lambda m: real(m).astype(complex))]
        (after, u), (after_c, u_c) = runs
        assert np.array_equal(after.matrix, after_c.matrix) and np.array_equal(u.matrix, u_c.matrix)


class TestScannedStepBits:
    """The kernel's endpoints and cocycles are the transcribed step's, bit for bit."""

    CFG = IntegratorConfig(dt=0.01, t_final=0.037)
    # The qubit, eigh and Taylor paths, both sides of each switch, and the largest d.
    DIMS = [2, 3, 4, 13, 14, 16, MAX_DIM]

    @staticmethod
    def _families(rng, dim):
        a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
        # A repeated factor, and a cubic term whose partials take two products.
        terms = [(1.0, (a,)), (0.5, (b, b)), (0.25, (a, b)), (0.3, (b, a, b))]
        plain = [(c, tuple(f.matrix for f in factors)) for c, factors in terms]
        mf, reference = mean_field(a, b, 0.7), _scanned_mean_field(a.matrix, b.matrix, 0.7)
        return {
            "mean_field": (mf, reference),
            "polynomial": (polynomial(terms), _nested_polynomial(plain)),
            "shifted": (shift_differential(mf, 0.3),
                        lambda m: reference(m) + 0.3 * np.eye(dim)),
        }

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("t", [0.037, -0.037])  # the remainder step last, then first
    def test_propagate(self, dim, t, rng):
        rho = random_density(rng, dim)
        for name, (h, reference) in self._families(rng, dim).items():
            after, u = propagate(h, rho, t, self.CFG)
            rho_ref, u_ref = _scanned_steps(reference, rho.matrix, t, self.CFG)
            assert np.array_equal(after.matrix, rho_ref), (name, dim, t)
            assert np.array_equal(u.matrix, u_ref), (name, dim, t)

    def test_every_exponential_takes_a_finite_matrix_and_no_keyword(self, rng, monkeypatch):
        # The kernel alone proves each matrix it exponentiates finite, and
        # calls expm_hermitian(mat, s) through the name flow.expm_hermitian.
        exact, calls = flow.expm_hermitian, []

        def recording(*args, **kw):
            calls.append((args, kw))
            return exact(*args, **kw)

        monkeypatch.setattr(flow, "expm_hermitian", recording)
        a = random_hermitian(rng, 4)
        for h in (linear(a), mean_field(a, random_hermitian(rng, 4), 0.7)):
            propagate(h, random_density(rng, 4), -0.037, self.CFG)
        assert len(calls) > 2
        for (mat, s), kw in calls:
            assert kw == {} and isinstance(s, float) and np.isfinite(mat).all()

    @pytest.mark.parametrize("dim", DIMS)
    def test_polynomial_generator(self, dim, rng):
        h, reference = self._families(rng, dim)["polynomial"]
        for m in (random_density(rng, dim).matrix, random_hermitian(rng, dim).matrix):
            assert np.array_equal(h.generator(m), reference(m)), dim
