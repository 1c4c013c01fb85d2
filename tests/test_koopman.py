"""Tests for the classical composition-operator construction."""

import math

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
        # The leapfrog step preserves the energy to its usual second-order
        # drift bound, which underpins area preservation.
        q0, p0 = 0.7, 0.3
        reference = 0.5 * p0**2 - math.cos(q0)
        for t in np.linspace(0.1, 1.0, 10):
            q, p = flow_map(PEND, q0, p0, float(t))
            assert abs(0.5 * p**2 - math.cos(q) - reference) <= 1e-6

    def test_pendulum_backward_inverts_forward(self):
        q, p = flow_map(PEND, 0.4, -0.2, 0.5)
        q0, p0 = flow_map(PEND, q, p, -0.5)
        assert q0 == pytest.approx(0.4, abs=1e-12)
        assert p0 == pytest.approx(-0.2, abs=1e-12)

    def test_small_angle_pendulum_matches_oscillator(self):
        q, p = flow_map(PEND, 0.01, 0.0, 1.0)
        assert q == pytest.approx(0.01 * math.cos(1.0), abs=1e-6)


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

    def test_builtin_dispatch(self):
        assert builtin_observable("p").label == "p"
        with pytest.raises(ValueError, match="unknown observable"):
            builtin_observable("momentum")
        with pytest.raises(ValueError, match="no parameters"):
            builtin_observable("q", width=2.0)
