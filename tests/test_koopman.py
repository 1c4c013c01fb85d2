"""Tests for the classical composition-operator construction."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from eqm_lab import koopman
from eqm_lab.koopman import (
    ClassicalObservable,
    HarmonicOscillator,
    Pendulum,
    Quadrature,
    builtin_observable,
    classical_hamiltonian,
    compose,
    flow_map,
    gaussian_observable,
    inner_product,
    liouville_generator_residual,
    unitarity_residual,
    unitarity_residuals,
)

OSC = HarmonicOscillator(omega=1.0)
PEND = Pendulum(g=1.0)


@pytest.fixture(scope="module")
def quad():
    return Quadrature.gauss_legendre()


@pytest.fixture(scope="module")
def gauss_pair():
    return (gaussian_observable(center=(0.3, 0.0), width=0.9),
            gaussian_observable(center=(0.0, -0.2), width=0.9))


class TestFlows:
    def test_harmonic_quarter_period_swaps_coordinates(self):
        q, p = flow_map(OSC, 1.0, 0.0, math.pi / 2)
        assert q == pytest.approx(0.0, abs=1e-15)
        assert p == pytest.approx(-1.0, abs=1e-15)

    def test_harmonic_is_vectorized(self):
        qs = np.array([1.0, 0.0, -1.0])
        ps = np.array([0.0, 1.0, 0.0])
        qt, pt = flow_map(OSC, qs, ps, 2 * math.pi)
        np.testing.assert_allclose(qt, qs, atol=1e-12)
        np.testing.assert_allclose(pt, ps, atol=1e-12)

    def test_pendulum_energy_drift(self):
        # The fourth-order triple jump at PENDULUM_STEP keeps the energy to
        # about 3e-15 here, which underpins area preservation.
        q0, p0 = 0.7, 0.3
        reference = 0.5 * p0**2 - math.cos(q0)
        for t in np.linspace(0.1, 1.0, 10):
            q, p = flow_map(PEND, q0, p0, float(t))
            assert abs(0.5 * p**2 - math.cos(q) - reference) <= 1e-12

    def test_pendulum_backward_inverts_forward(self):
        q, p = flow_map(PEND, 0.4, -0.2, 0.5)
        q0, p0 = flow_map(PEND, q, p, -0.5)
        assert q0 == pytest.approx(0.4, abs=1e-12)
        assert p0 == pytest.approx(-0.2, abs=1e-12)

    @pytest.mark.parametrize("flow", [OSC, PEND])
    def test_zero_time_returns_the_points(self, flow, quad):
        q, p = flow_map(flow, quad.q, quad.p, 0.0)
        assert np.array_equal(q, quad.q) and np.array_equal(p, quad.p)

    def test_small_angle_pendulum_matches_oscillator(self):
        q, p = flow_map(PEND, 0.01, 0.0, 1.0)
        assert q == pytest.approx(0.01 * math.cos(1.0), abs=1e-6)

    @pytest.mark.parametrize("call", [lambda flow: flow_map(flow, 1.0, 0.0, 1.0),
                                      classical_hamiltonian],
                             ids=["flow_map", "classical_hamiltonian"])
    def test_an_unknown_flow_is_a_type_error(self, call):
        class Drift:
            pass

        with pytest.raises(TypeError, match="^unknown flow: Drift$"):
            call(Drift())


def _triple_jump(g, q, p, t):
    """The pendulum scheme written as the plain loop: two sines per substep.

    Each step of size h runs kick-drift-kick substeps of c * h for c in
    (gamma_1, gamma_2, gamma_1).  A remainder step comes last on a forward
    span and first on a backward one.
    """
    span = abs(t)
    n = int(math.floor(span / koopman.PENDULUM_STEP + 1e-9))
    rem = span - n * koopman.PENDULUM_STEP
    sign = 1.0 if t > 0 else -1.0
    full, tail = [sign * koopman.PENDULUM_STEP] * n, ([sign * rem] if rem >= 1e-15 else [])
    steps = full + tail if t > 0 else tail + full
    cbrt2 = 2.0 ** (1.0 / 3.0)
    gammas = (1.0 / (2.0 - cbrt2), -cbrt2 / (2.0 - cbrt2), 1.0 / (2.0 - cbrt2))
    q, p = np.array(q, dtype=float), np.array(p, dtype=float)
    for step in steps:
        for c in gammas:
            h = c * step
            p = p - 0.5 * h * g * np.sin(q)
            q = q + h * p
            p = p - 0.5 * h * g * np.sin(q)
    return q, p


class TestLeapfrog:
    def test_one_sine_per_step_is_bit_identical(self, quad):
        # -0.12345 is 123 steps and a remainder, taken backward.
        for t in (0.5, -0.12345):
            q, p = flow_map(Pendulum(g=1.3), quad.q, quad.p, t)
            q_ref, p_ref = _triple_jump(1.3, quad.q, quad.p, t)
            assert np.array_equal(q, q_ref) and np.array_equal(p, p_ref), t

    @pytest.mark.parametrize("t", [0.12345, 3.14159])
    def test_backward_run_retraces_an_off_grid_span(self, t):
        # The backward run takes the forward run's steps in reverse order,
        # remainder first, so each symmetric step undoes one forward step and
        # only rounding is left.
        quad = Quadrature.gauss_legendre(order=16)
        q, p = flow_map(PEND, *flow_map(PEND, quad.q, quad.p, t), -t)
        assert max(np.abs(q - quad.q).max(), np.abs(p - quad.p).max()) <= 1e-13

    def test_scalar_point(self):
        q, p = flow_map(PEND, 0.4, -0.2, 0.00037)
        q_ref, p_ref = _triple_jump(1.0, 0.4, -0.2, 0.00037)
        assert (q, p) == (q_ref, p_ref)
        assert np.ndim(q) == np.ndim(p) == 0

    def test_error_falls_at_fourth_order(self, monkeypatch):
        # Halving the step divides the error by 2^4; a second-order scheme
        # would read 2.
        quad = Quadrature.gauss_legendre(order=16)
        h = 4e-3

        def transported(step):
            monkeypatch.setattr(koopman, "PENDULUM_STEP", step)
            return np.concatenate(flow_map(PEND, quad.q, quad.p, 0.5))

        fine = transported(h / 16)
        e_h, e_half = (np.abs(transported(step) - fine).max() for step in (h, h / 2))
        assert 3.7 <= math.log2(e_h / e_half) <= 4.3

    def test_error_at_the_shipped_step(self, monkeypatch):
        # At a sixteenth of the step the scheme is 16^4 times more accurate,
        # so the difference is the shipped step's own error, about 2e-12.
        quad = Quadrature.gauss_legendre(order=16)
        q, p = flow_map(PEND, quad.q, quad.p, 0.5)
        monkeypatch.setattr(koopman, "PENDULUM_STEP", koopman.PENDULUM_STEP / 16)
        q_ref, p_ref = _triple_jump(1.0, quad.q, quad.p, 0.5)
        assert max(np.abs(q - q_ref).max(), np.abs(p - p_ref).max()) <= 1e-10

    def test_memory_does_not_grow_with_time(self):
        # The steps are taken in a loop, not listed up front, so 3000 steps
        # peak about as high as 100 do.
        peaks = []
        for t in (0.1, -3.0):
            tracemalloc.start()
            try:
                flow_map(PEND, 0.4, -0.2, t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 8192 and peaks[1] <= peaks[0] + 1024


PARITY_SETS = [(order, extent) for order in (2, 3, 63, 64) for extent in (1.0, 5.5, 6.0)]


def _record_leapfrog_sizes(monkeypatch):
    """Wrap _leapfrog so each call appends the number of points it integrates."""
    sizes, leapfrog = [], koopman._leapfrog

    def recording(g, q, p, t):
        sizes.append(np.size(q))
        return leapfrog(g, q, p, t)

    monkeypatch.setattr(koopman, "_leapfrog", recording)
    return sizes


class TestParity:
    """The pendulum flow commutes with (q, p) -> (-q, -p); a symmetric node set is halved."""

    @pytest.mark.parametrize("order, extent", PARITY_SETS)
    def test_gauss_legendre_nodes_are_point_symmetric(self, order, extent):
        quad = Quadrature.gauss_legendre(extent=extent, order=order)
        assert np.array_equal(quad.q[::-1], -quad.q) and np.array_equal(quad.p[::-1], -quad.p)

    @pytest.mark.parametrize("order, extent", PARITY_SETS)
    def test_halved_transport_is_the_plain_loop(self, order, extent):
        # 0.12345 is 123 steps and a remainder.  Equal bytes, stricter than
        # np.array_equal, also pin the sign of every zero, such as q = 0 on
        # the middle row of an odd order at t = 0.
        quad = Quadrature.gauss_legendre(extent=extent, order=order)
        for t in (0.12345, -0.12345, 0.0):
            q, p = flow_map(Pendulum(g=1.3), quad.q, quad.p, t)
            q_ref, p_ref = _triple_jump(1.3, quad.q, quad.p, t)
            assert q.tobytes() == q_ref.tobytes() and p.tobytes() == p_ref.tobytes(), t

    def test_asymmetric_nodes_are_the_plain_loop(self):
        quad = Quadrature.gauss_legendre(order=16)
        q, p = flow_map(Pendulum(g=1.3), quad.q + 0.1, quad.p, 0.12345)
        q_ref, p_ref = _triple_jump(1.3, quad.q + 0.1, quad.p, 0.12345)
        assert np.array_equal(q, q_ref) and np.array_equal(p, p_ref)

    @pytest.mark.parametrize("order", [3, 64])
    def test_symmetric_set_integrates_half_the_points(self, monkeypatch, order):
        quad = Quadrature.gauss_legendre(order=order)
        sizes = _record_leapfrog_sizes(monkeypatch)
        flow_map(PEND, quad.q, quad.p, 0.001)
        unitarity_residuals([gaussian_observable(width=0.5)], PEND, 0.001, quad)
        assert sizes == [(order * order + 1) // 2] * 2

    def test_other_inputs_integrate_every_point(self, monkeypatch):
        quad = Quadrature.gauss_legendre(order=4)
        q_nan, p_nan = quad.q.copy(), quad.p.copy()
        q_nan[[0, -1]] = np.nan
        sizes = _record_leapfrog_sizes(monkeypatch)
        flow_map(PEND, quad.q + 0.1, quad.p, 0.001)       # shifted: not symmetric
        q, _ = flow_map(PEND, q_nan, p_nan, 0.001)         # NaN != NaN
        q_grid, _ = flow_map(PEND, quad.q.reshape(4, 4), quad.p.reshape(4, 4), 0.001)
        flow_map(PEND, 0.0, 0.0, 0.001)                    # a scalar point
        assert sizes == [16, 16, 16, 1]
        assert np.isnan(q[[0, -1]]).all() and np.isfinite(q[1:-1]).all()
        assert np.array_equal(q_grid.ravel(), flow_map(PEND, quad.q, quad.p, 0.001)[0])


class TestFiniteness:
    @pytest.mark.parametrize("flow", [OSC, PEND])
    def test_callers_inherit_the_time_check(self, flow, gauss_pair, quad):
        with pytest.raises(ValueError, match="^t must be a finite number, got nan$"):
            compose(gauss_pair[0], flow, math.nan).eval(0.4, -0.2)
        with pytest.raises(ValueError, match="^t must be a finite number, got inf$"):
            unitarity_residual(*gauss_pair, flow, math.inf, quad)

    @pytest.mark.parametrize("omega", [1e300, -1e300])
    def test_oscillator_angle_overflow_is_named(self, omega, gauss_pair, quad):
        flow = HarmonicOscillator(omega=omega)
        message = "^" + re.escape(f"omega * t overflows: omega = {omega:g}, t = 1e+10") + "$"
        with pytest.raises(ValueError, match=message):
            flow_map(flow, 1.0, 0.0, 1e10)
        with pytest.raises(ValueError, match=message):
            compose(gauss_pair[0], flow, 1e10).eval(0.4, -0.2)
        with pytest.raises(ValueError, match=message):
            unitarity_residuals(gauss_pair, flow, 1e10, quad)


class TestCompose:
    def test_zero_time_is_identity(self):
        f = builtin_observable("q")
        g = compose(f, OSC, 0.0)
        assert complex(g.eval(1.2, -0.7)) == complex(f.eval(1.2, -0.7))

    def test_quarter_rotation_maps_q_to_p(self):
        g = compose(builtin_observable("q"), OSC, math.pi / 2)
        for q, p in ((1.0, 0.5), (-0.3, 2.0)):
            assert complex(g.eval(q, p)) == pytest.approx(p, abs=1e-14)

    def test_constants_are_fixed_points(self):
        one = ClassicalObservable(eval=lambda q, p: np.ones_like(np.asarray(q, dtype=float)) + 0j,
                                  label="1")
        g = compose(one, PEND, 0.3)
        assert complex(g.eval(0.4, 0.1)) == 1.0 + 0j

    def test_group_law(self):
        f = gaussian_observable()
        once = compose(compose(f, OSC, 0.4), OSC, 0.8)
        direct = compose(f, OSC, 1.2)
        assert complex(once.eval(0.5, -0.2)) == pytest.approx(complex(direct.eval(0.5, -0.2)),
                                                              abs=1e-12)


class TestInnerProduct:
    def test_gaussian_squared_norm_is_pi(self, quad):
        g = gaussian_observable()
        assert abs(inner_product(g, g, quad) - math.pi) <= 1e-6

    def test_odd_times_even_vanishes(self, quad):
        g = gaussian_observable()
        qg = ClassicalObservable(eval=lambda q, p: q * np.asarray(g.eval(q, p)), label="q*g")
        assert abs(inner_product(qg, g, quad)) <= 1e-10

    def test_conjugate_symmetry_and_positivity(self, quad, gauss_pair):
        f, g = gauss_pair
        assert inner_product(f, g, quad) == complex(np.conj(inner_product(g, f, quad)))
        norm = inner_product(f, f, quad)
        assert norm.imag == 0.0 and norm.real >= 0.0

    def test_rejects_non_finite_values(self, quad):
        bad = ClassicalObservable(eval=lambda q, p: np.full_like(np.asarray(q), np.inf),
                                  label="bad")
        with pytest.raises(ValueError, match="not finite"):
            inner_product(bad, bad, quad)

    def test_a_scalar_valued_observable_is_broadcast_to_the_nodes(self, quad):
        g = gaussian_observable()
        scalar = ClassicalObservable(eval=lambda q, p: 1.0, label="scalar 1")
        one = ClassicalObservable(eval=lambda q, p: np.ones_like(np.asarray(q)) + 0j, label="1")
        assert inner_product(g, scalar, quad) == inner_product(g, one, quad)
        assert inner_product(scalar, scalar, quad) == inner_product(one, one, quad)

    def test_gaussian_integral_accuracy(self, quad):
        # Quadrature oracle: the integral of a width-s Gaussian is 2 pi s^2.
        # Measured rule error: 3.9e-9 rel centered, 3.1e-5 rel at (1, 1).
        centered = gaussian_observable(width=1.0)
        one = ClassicalObservable(eval=lambda q, p: np.ones_like(np.asarray(q)) + 0j, label="1")
        total = inner_product(centered, one, quad).real
        assert total == pytest.approx(2 * math.pi, rel=1e-8)
        offset = gaussian_observable(center=(1.0, 1.0), width=1.2)
        total = inner_product(offset, one, quad).real
        assert total == pytest.approx(2 * math.pi * 1.44, rel=1e-4)


class TestUnitarityResidual:
    def test_zero_time_is_exactly_zero(self, quad, gauss_pair):
        assert unitarity_residual(*gauss_pair, OSC, 0.0, quad) == 0.0

    def test_harmonic_rotation(self, quad, gauss_pair):
        for t in (0.5, 1.0, math.pi):
            assert unitarity_residual(*gauss_pair, OSC, t, quad) <= 1e-6

    def test_pendulum_narrow_gaussians(self, quad):
        f = gaussian_observable(center=(0.2, 0.0), width=0.5)
        g = gaussian_observable(center=(0.0, -0.1), width=0.5)
        residual = unitarity_residual(f, g, PEND, 0.5, quad)
        assert residual <= 1e-4   # leapfrog area preservation + quadrature error
        assert residual <= 1e-9   # frozen regression bound from the measured run

    def test_norm_preservation_along_orbit(self, quad, gauss_pair):
        f = gauss_pair[0]
        reference = inner_product(f, f, quad).real
        for t in np.linspace(0.0, 2 * math.pi, 9):
            moved = compose(f, OSC, float(t))
            assert abs(inner_product(moved, moved, quad).real - reference) <= 1e-6

    def test_composition_bound(self, quad, gauss_pair):
        f, g = gauss_pair
        r_s = unitarity_residual(f, g, OSC, 0.6, quad)
        r_t = unitarity_residual(f, g, OSC, 0.9, quad)
        r_st = unitarity_residual(f, g, OSC, 1.5, quad)
        assert r_st <= r_s + r_t + 1e-10

    def test_boundary_mass_leak_warns(self, quad):
        wide = gaussian_observable(center=(3.0, 0.0), width=2.0)
        with pytest.warns(RuntimeWarning, match="boundary"):
            unitarity_residual(wide, wide, OSC, 0.5, quad)

    def test_leak_warning_points_at_the_caller(self, quad, gauss_pair):
        wide = gaussian_observable(center=(3.0, 0.0), width=2.0)
        for call in (lambda: unitarity_residual(wide, gauss_pair[0], OSC, 0.5, quad),
                     lambda: unitarity_residuals((gauss_pair[0], wide), OSC, 0.5, quad)):
            with pytest.warns(RuntimeWarning, match="boundary") as record:
                call()
            assert [w.filename for w in record] == [__file__]

    def test_is_the_off_diagonal_cell_of_the_grid(self, quad, gauss_pair):
        for flow in (OSC, PEND):
            grid = unitarity_residuals(gauss_pair, flow, 0.3, quad)
            assert unitarity_residual(*gauss_pair, flow, 0.3, quad) == grid[0, 1]


class TestUnitarityResiduals:
    def test_matches_each_pair_bit_for_bit(self):
        # A small rule keeps the pendulum leapfrog cheap; equality holds at any order.
        quad = Quadrature.gauss_legendre(order=16)
        fs = (gaussian_observable(center=(0.2, 0.0), width=0.5),
              gaussian_observable(center=(0.0, -0.1), width=0.5),
              gaussian_observable(center=(-0.3, 0.2), width=0.6))
        for flow in (OSC, PEND):
            values = unitarity_residuals(fs, flow, 0.5, quad)
            assert values.shape == (3, 3)
            assert np.array_equal(values, values.T)
            for i in range(3):
                for j in range(i, 3):
                    assert values[i, j] == unitarity_residual(fs[i], fs[j], flow, 0.5, quad), \
                        (flow, i, j)

    def test_boundary_mass_leak_warns(self, quad, gauss_pair):
        wide = gaussian_observable(center=(3.0, 0.0), width=2.0)
        with pytest.warns(RuntimeWarning, match="'gaussian\\(3,0;2\\)' reaches"):
            unitarity_residuals((gauss_pair[0], wide), OSC, 0.5, quad)


class TestGeneratorResidual:
    def test_constant_observable(self):
        one = ClassicalObservable(eval=lambda q, p: 1.0 + 0j, label="1")
        h_cl = classical_hamiltonian(OSC)
        assert liouville_generator_residual(one, OSC, h_cl, (0.5, 0.2), 1e-3) <= 1e-12

    def test_coordinate_at_turning_point(self):
        # At (1, 0) both the transport derivative of q and the bracket vanish.
        h_cl = classical_hamiltonian(OSC)
        residual = liouville_generator_residual(builtin_observable("q"), OSC, h_cl, (1.0, 0.0), 1e-3)
        assert residual <= 1e-10

    def test_q_squared(self):
        # Both sides equal 2 q p = 2 at (1, 1).
        h_cl = classical_hamiltonian(OSC)
        residual = liouville_generator_residual(builtin_observable("q2"), OSC, h_cl, (1.0, 1.0), 1e-3)
        assert residual <= 1e-5

    def test_rejects_dt_out_of_range(self):
        h_cl = classical_hamiltonian(OSC)
        with pytest.raises(ValueError, match="dt"):
            liouville_generator_residual(builtin_observable("q"), OSC, h_cl, (0.0, 0.0), 1e-2)


class TestQuadrature:
    def test_weights_positive(self, quad):
        assert np.all(quad.weights > 0)

    def test_rejects_bad_extent(self):
        with pytest.raises(ValueError, match="extent"):
            Quadrature.gauss_legendre(extent=-1.0)

    @pytest.mark.parametrize("order", [64.0, 1, True])
    def test_order_is_an_integer_of_at_least_two(self, order):
        with pytest.raises(ValueError, match=f"^order must be an integer of at least 2, got {order}$"):
            Quadrature.gauss_legendre(order=order)

    def test_numpy_integer_order_is_the_same_rule(self, quad):
        assert np.array_equal(Quadrature.gauss_legendre(order=np.int64(64)).q, quad.q)

    @pytest.mark.parametrize("field, value", [
        ("weights", np.array([1.0])),                 # would broadcast against the nodes
        ("p", np.zeros(15)),                          # one node short
        ("boundary", np.zeros((4, 4), dtype=bool)),   # right size, not flattened
    ])
    def test_hand_built_arrays_must_be_flat_and_of_one_length(self, field, value):
        rule = Quadrature.gauss_legendre(order=4)
        fields = dict(q=rule.q, p=rule.p, weights=rule.weights, boundary=rule.boundary,
                      extent=rule.extent)
        fields[field] = value
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            Quadrature(**fields)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_hand_built_nodes_must_be_finite_and_weights_positive(self, bad):
        rule = Quadrature.gauss_legendre(order=4)
        q, weights = rule.q.copy(), rule.weights.copy()
        q[5], weights[5] = bad, -bad     # -bad is NaN, -inf or inf: not a finite positive weight
        with pytest.raises(ValueError, match="nodes must be finite"):
            Quadrature(q=q, p=rule.p, weights=rule.weights, boundary=rule.boundary, extent=4.0)
        with pytest.raises(ValueError, match="weights must be positive"):
            Quadrature(q=rule.q, p=rule.p, weights=weights, boundary=rule.boundary, extent=4.0)

    def test_builtin_dispatch(self):
        assert builtin_observable("p").label == "p"
        with pytest.raises(ValueError, match="unknown observable"):
            builtin_observable("momentum")
        with pytest.raises(ValueError, match="no parameters"):
            builtin_observable("q", width=2.0)
