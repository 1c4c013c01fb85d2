"""Tests for the classical composition-operator construction."""

import math
import re
import warnings

import numpy as np
import pytest

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
        # The closed form keeps the energy to 2e-16 here (1e-14 over the
        # order-64 rule), which underpins area preservation.
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

    @pytest.mark.parametrize("flow", [OSC, PEND])
    @pytest.mark.parametrize("q, p", [([-0.0, 1.0, -2.0], [1.0, -0.0, -0.0]), (-0.0, 1.0),
                                      (-2.0, -0.0)], ids=["vector", "0-d-q", "0-d-p"])
    def test_zero_time_keeps_signed_zeros(self, flow, q, p):
        for moved, given in zip(flow_map(flow, q, p, 0.0), (np.asarray(q), np.asarray(p))):
            assert np.shape(moved) == given.shape
            assert np.array_equal(moved, given)
            assert np.array_equal(np.signbit(moved), np.signbit(given))

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


def _triple_jump(g, q, p, t, step):
    """The fourth-order triple jump as a plain loop: an oracle for the exact flow.

    Each step of size h runs kick-drift-kick substeps of c * h for c in
    (gamma_1, gamma_2, gamma_1) (Yoshida, Phys. Lett. A 150, 262 (1990)).  A
    remainder step comes last on a forward span and first on a backward
    one.  q and p are summed with Kahan compensation: plain sums over the
    150 000 substeps of t = 3.14159 at step 1e-3/16 drift 1.6e-12 from an
    mpmath reference, more than the closed form is held to.
    """
    span = abs(t)
    n = int(math.floor(span / step + 1e-9))
    rem = span - n * step
    sign = 1.0 if t > 0 else -1.0
    full, tail = [sign * step] * n, ([sign * rem] if rem >= 1e-15 else [])
    steps = full + tail if t > 0 else tail + full
    cbrt2 = 2.0 ** (1.0 / 3.0)
    gammas = (1.0 / (2.0 - cbrt2), -cbrt2 / (2.0 - cbrt2), 1.0 / (2.0 - cbrt2))
    q, p = np.array(q, dtype=float), np.array(p, dtype=float)
    q_err, p_err = np.zeros_like(q), np.zeros_like(p)

    def add(x, err, increment):
        y = increment - err
        total = x + y
        return total, (total - x) - y

    for h in steps:
        for c in gammas:
            kick = 0.5 * c * h * g
            p, p_err = add(p, p_err, -kick * np.sin(q))
            q, q_err = add(q, q_err, c * h * p)
            p, p_err = add(p, p_err, -kick * np.sin(q))
    return q, p


def _complete_k(m):
    """K(m) for 0 <= m < 1 by the arithmetic-geometric mean in plain floats."""
    a, b = 1.0, math.sqrt(1.0 - m)
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _parameter(g, q, p):
    return math.sin(q / 2) ** 2 + p * p / (4 * g)


def _max_gap(moved, expected):
    return max(float(np.max(np.abs(np.subtract(x, y)))) for x, y in zip(moved, expected))


ORDER_16 = Quadrature.gauss_legendre(order=16)


class TestClosedForm:
    """The pendulum moves by its exact Jacobi-elliptic flow."""

    @pytest.mark.parametrize("t", [0.5, -0.12345, 3.14159])
    def test_matches_the_triple_jump(self, t):
        # The oracle runs at 1e-3/4 for both g at once and reads within
        # 2e-14 of the closed form; at the worst nodes of t = 3.14159 the
        # closed form matched an mpmath reference to 1e-15.
        quad, gs = ORDER_16, (1.0, 1.3)
        m = np.sin(quad.q / 2) ** 2 + quad.p ** 2 / 4
        assert (m > 1).any() and ((m < 1) & (np.abs(quad.q) > math.pi)).any()
        g = np.repeat(gs, quad.q.size)
        reference = _triple_jump(g, np.tile(quad.q, 2), np.tile(quad.p, 2), t, 1e-3 / 4)
        moved = [np.concatenate(x) for x in zip(*(flow_map(Pendulum(g=gi), quad.q, quad.p, t)
                                                  for gi in gs))]
        assert _max_gap(moved, reference) <= 1e-12

    def test_negative_g_matches_the_triple_jump(self):
        quad = ORDER_16
        moved = flow_map(Pendulum(g=-1.3), quad.q, quad.p, 0.5)
        assert _max_gap(moved, _triple_jump(-1.3, quad.q, quad.p, 0.5, 1e-3 / 4)) <= 1e-12

    @pytest.mark.parametrize("q, p", [(1.0 + 2 * math.pi, 0.5), (-5.5, -0.3), (2.0, 0.0)],
                             ids=["past-2pi", "past-minus-pi", "turning-point"])
    def test_a_libration_returns_after_its_period(self, q, p):
        # Nodes past pi are reduced by 2 pi and the multiple added back.
        g = 1.3
        period = 4 * _complete_k(_parameter(g, q, p)) / math.sqrt(g)
        assert _parameter(g, q, p) < 1
        for laps in (1, 3):
            assert _max_gap(flow_map(Pendulum(g=g), q, p, laps * period), (q, p)) <= 1e-13

    @pytest.mark.parametrize("q, p", [(0.3, 2.5), (0.3, -2.5), (5.0, 2.5), (-3.0, -4.0)],
                             ids=["forward", "backward", "past-pi", "past-minus-pi"])
    def test_a_rotation_gains_two_pi_per_period(self, q, p):
        g = 1.3
        m = _parameter(g, q, p)
        period = 2 * _complete_k(1 / m) / (math.sqrt(g) * math.sqrt(m))
        assert m > 1
        for laps in (1, 3):
            shifted = (q + math.copysign(2 * math.pi * laps, p), p)
            assert _max_gap(flow_map(Pendulum(g=g), q, p, laps * period), shifted) <= 1e-13

    @pytest.mark.parametrize("t", [0.7, -2.1, 800.0])
    def test_separatrix_is_the_gudermannian(self, t):
        # m = 1 exactly: q = 2 gd(omega t) and p = 2 omega sech(omega t); far
        # out, cosh would overflow while q reaches pi and p underflows to 0.
        g = 1.3
        w = math.sqrt(g)
        if abs(w * t) < 700:
            expected = (2 * math.atan(math.sinh(w * t)), 2 * w / math.cosh(w * t))
        else:
            expected = (math.copysign(math.pi, t), 0.0)
        for sign in (1.0, -1.0):
            q, p = flow_map(Pendulum(g=g), 0.0, sign * 2 * w, t)
            assert _max_gap((q, p), (sign * expected[0], sign * expected[1])) <= 1e-15

    def test_rest_points_stay_put(self):
        # Hyperbolic at q = +-pi, elliptic at q = 0 and 2 pi; g < 0 swaps them.
        q = np.array([math.pi, -math.pi, 0.0, 2 * math.pi, -3 * math.pi])
        p = np.zeros_like(q)
        for g in (1.0, 1.3, -1.0):
            for t in (0.5, -7.0):
                moved = flow_map(Pendulum(g=g), q, p, t)
                assert np.array_equal(moved[0], q) and np.array_equal(moved[1], p), (g, t)

    def test_zero_g_is_free_flight(self):
        q, p = ORDER_16.q, ORDER_16.p
        moved = flow_map(Pendulum(g=0.0), q, p, 0.75)
        assert np.array_equal(moved[0], q + p * 0.75) and np.array_equal(moved[1], p)

    @pytest.mark.parametrize("g", [1.0, 0.0, -1.0])
    @pytest.mark.parametrize("point", [(0.4, -0.2), (0.0, 0.0), (math.pi, 0.0), (0.0, 2.0)],
                             ids=["moving", "bottom", "top", "separatrix"])
    def test_a_scalar_point_gives_scalars(self, g, point):
        for t in (0.37, 0.0):
            q, p = flow_map(Pendulum(g=g), *point, t)
            assert np.ndim(q) == np.ndim(p) == 0

    def test_grids_keep_their_shape_and_nan_nodes_stay_nan(self):
        quad = Quadrature.gauss_legendre(order=4)
        q_nan = quad.q.copy()
        q_nan[[0, -1]] = np.nan
        q, _ = flow_map(PEND, q_nan, quad.p, 0.001)
        assert np.isnan(q[[0, -1]]).all() and np.isfinite(q[1:-1]).all()
        grid, _ = flow_map(PEND, quad.q.reshape(4, 4), quad.p.reshape(4, 4), 0.001)
        assert np.array_equal(grid.ravel(), flow_map(PEND, quad.q, quad.p, 0.001)[0])

    @pytest.mark.parametrize("s, t", [(0.3, 0.9), (2.0, -0.7), (-1.25, -1.75)])
    def test_group_law(self, s, t):
        quad = ORDER_16
        for flow in (PEND, Pendulum(g=1.3)):
            twice = flow_map(flow, *flow_map(flow, quad.q, quad.p, t), s)
            assert _max_gap(twice, flow_map(flow, quad.q, quad.p, s + t)) <= 1e-13

    @pytest.mark.parametrize("t", [0.12345, 3.14159])
    def test_backward_run_retraces_the_forward_one(self, t):
        quad = ORDER_16
        assert _max_gap(flow_map(PEND, *flow_map(PEND, quad.q, quad.p, t), -t),
                        (quad.q, quad.p)) <= 1e-13

    def test_an_endless_span_costs_one_evaluation(self):
        # No step count: t = 1e305 is one closed-form pass, finite everywhere.
        quad = ORDER_16
        for flow in (PEND, Pendulum(g=-1.0)):
            assert all(np.isfinite(x).all() for x in flow_map(flow, quad.q, quad.p, 1e305))

    def test_residuals_at_an_endless_span_raise_no_warning(self):
        # The pendulum corpus scenario at t = 1e305: rotation nodes move to
        # |q| ~ 6e305, where a Gaussian's squared distance overflows.
        fs = (gaussian_observable(center=(0.2, 0.0), width=0.5),
              gaussian_observable(center=(0.0, -0.1), width=0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = unitarity_residuals(fs, PEND, 1e305, Quadrature.gauss_legendre())
        assert values.shape == (2, 2) and np.isfinite(values).all()

    def test_gaussian_reads_zero_where_its_distance_overflows(self):
        # The first three squared distances are finite and keep the formula's
        # bits (the third underflows to 0); the last two overflow to inf.
        q = np.array([0.3, -2.0, 1e150, 6e305, -1e308])
        p = np.array([0.1, 1.5, 0.0, 0.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = gaussian_observable(center=(0.2, -0.1), width=0.5).eval(q, p)
        finite = np.exp(-((q[:3] - 0.2) ** 2 + (p[:3] + 0.1) ** 2) / 0.5)
        assert np.array_equal(values, [*finite, 0.0, 0.0])


class TestFiniteness:
    @pytest.mark.parametrize("flow", [OSC, PEND])
    def test_callers_inherit_the_time_check(self, flow, gauss_pair, quad):
        with pytest.raises(ValueError, match="^t must be a finite number, got nan$"):
            compose(gauss_pair[0], flow, math.nan).eval(0.4, -0.2)
        with pytest.raises(ValueError, match="^t must be a finite number, got inf$"):
            unitarity_residual(*gauss_pair, flow, math.inf, quad)

    @pytest.mark.parametrize("flow, t, message", [
        (HarmonicOscillator(omega=1e300), 1e10, "omega * t overflows: omega = 1e+300, t = 1e+10"),
        (HarmonicOscillator(omega=-1e300), 1e10, "omega * t overflows: omega = -1e+300, t = 1e+10"),
        (Pendulum(g=1e300), 1e300, "omega * t overflows: omega = sqrt(|g|) = 1e+150, t = 1e+300"),
        (Pendulum(g=-1e300), -1e300, "omega * t overflows: omega = sqrt(|g|) = 1e+150, t = -1e+300"),
        # The top speed of the rotating points, 2 omega sqrt(m), bounds how far q moves.
        (PEND, 1e308, "rotation rate * t overflows: rate = 3, t = 1e+308"),
        (Pendulum(g=0.0), -1e308, "rotation rate * t overflows: rate = 3, t = -1e+308"),
    ], ids=["oscillator", "oscillator-negative", "pendulum", "pendulum-negative", "rotation",
            "free-flight"])
    def test_overflow_is_named(self, flow, t, message, gauss_pair, quad):
        points = (np.array([0.4, 1.0, 0.0]), np.array([-0.2, 0.0, 3.0]))
        message = "^" + re.escape(message) + "$"
        with pytest.raises(ValueError, match=message):
            flow_map(flow, *points, t)
        with pytest.raises(ValueError, match=message):
            compose(gauss_pair[0], flow, t).eval(*points)
        if "rotation" not in message:     # the rule's own rotation rate is another
            with pytest.raises(ValueError, match=message):
                unitarity_residuals(gauss_pair, flow, t, quad)


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

    @pytest.mark.parametrize("order, extent", [(order, extent) for order in (2, 3, 63, 64)
                                               for extent in (1.0, 5.5, 6.0)])
    def test_gauss_legendre_nodes_are_point_symmetric(self, order, extent):
        quad = Quadrature.gauss_legendre(extent=extent, order=order)
        assert np.array_equal(quad.q[::-1], -quad.q) and np.array_equal(quad.p[::-1], -quad.p)

    def test_numpy_integer_order_is_the_same_rule(self, quad):
        assert np.array_equal(Quadrature.gauss_legendre(order=np.int64(64)).q, quad.q)

    @pytest.mark.parametrize("field, value", [
        ("weights", np.array([1.0])),                 # would broadcast against the nodes
        ("p", np.zeros(15)),                          # one node short
        ("boundary", np.zeros((4, 4), dtype=bool)),   # right size, not flattened
    ])
    def test_hand_built_arrays_must_be_flat_and_of_one_length(self, field, value):
        rule = Quadrature.gauss_legendre(order=4)
        fields = dict(q=rule.q, p=rule.p, weights=rule.weights, boundary=rule.boundary)
        fields[field] = value
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            Quadrature(**fields)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_hand_built_nodes_must_be_finite_and_weights_positive(self, bad):
        rule = Quadrature.gauss_legendre(order=4)
        q, weights = rule.q.copy(), rule.weights.copy()
        q[5], weights[5] = bad, -bad     # -bad is NaN, -inf or inf: not a finite positive weight
        with pytest.raises(ValueError, match="nodes must be finite"):
            Quadrature(q=q, p=rule.p, weights=rule.weights, boundary=rule.boundary)
        with pytest.raises(ValueError, match="weights must be positive"):
            Quadrature(q=rule.q, p=rule.p, weights=weights, boundary=rule.boundary)

    def test_builtin_dispatch(self):
        assert builtin_observable("p").label == "p"
        with pytest.raises(ValueError, match="unknown observable"):
            builtin_observable("momentum")
        with pytest.raises(ValueError, match="no parameters"):
            builtin_observable("q", width=2.0)
