"""Tests for the validated matrix types and primitive operations."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqm_lab.flow import IntegratorConfig, propagate
from eqm_lab.hamiltonians import mean_field
from eqm_lab.hilbert import (
    MAX_DIM,
    PADE_MIN_DIM,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    UnitaryOperator,
    commutator,
    expm_hermitian,
    matrix_from_pairs,
    matrix_to_pairs,
    max_abs,
    projector,
    require_count,
    require_dim,
    spectrum,
    trace_pairing,
    transition_probability,
    unitary_exponential,
    vector_from_pairs,
)
from eqm_lab.runner import corpus_documents
from conftest import (
    random_density,
    random_hermitian,
    random_interior_density,
    random_pure,
    random_traceless_hermitian,
)


class TestConstructors:
    @pytest.mark.parametrize("cls", [HermitianOperator, UnitaryOperator, DensityMatrix])
    def test_matrix_types_copy_and_freeze_their_input(self, cls):
        source = np.diag([1.0, 0.0] if cls is DensityMatrix else [1.0, -1.0]).astype(complex)
        wrapped = cls(source)
        source[0, 0] = 5.0
        assert wrapped.dim == 2 and wrapped.matrix[0, 0] == 1.0
        assert not wrapped.matrix.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            wrapped.matrix = np.eye(2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(np.array([[np.nan, 0], [0, 1]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryOperator(np.diag([1.0, 2.0]).astype(complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            DensityMatrix(np.diag([0.5, 0.4]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(np.array([1.0, 1.0]))

    def test_matrices_are_frozen(self, sz):
        with pytest.raises(ValueError):
            sz.matrix[0, 0] = 5.0


class TestCounts:
    """require_count is the one count check, and require_dim the one [2, 64] check on it."""

    @pytest.mark.parametrize("value", [True, 0, 2.0, "2", None])
    def test_rejects_what_is_not_a_count(self, value):
        with pytest.raises(ValueError, match=rf"^order must be an integer of at least 1, "
                                             rf"got {re.escape(repr(value))}$"):
            require_count("order", value, 1)

    @pytest.mark.parametrize("value", [2, MAX_DIM, np.int64(4), np.int32(4)])
    def test_integers_pass(self, value):
        require_count("order", value, 1)
        require_dim("dim", value)


class TestCommutator:
    def test_self_commutator_vanishes(self, sx):
        assert max_abs(commutator(sx, sx)) == 0.0

    def test_pauli_xy(self, sx, sy):
        np.testing.assert_allclose(commutator(sx, sy), 2j * SIGMA_Z, atol=1e-15)

    def test_bilinearity(self, sx, sz):
        lhs = commutator(sz, HermitianOperator(SIGMA_Z + SIGMA_X))
        np.testing.assert_allclose(lhs, 2j * SIGMA_Y, atol=1e-15)

    def test_dimension_mismatch(self, sx):
        with pytest.raises(ValueError, match="dimension mismatch"):
            commutator(sx, HermitianOperator(np.eye(3)))

    def test_i_times_commutator_is_hermitian(self, rng):
        for _ in range(20):
            a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
            HermitianOperator(1j * commutator(a, b))  # must not raise


class TestTracePairing:
    def test_identity_pairs_to_one(self, rng):
        rho = random_density(rng, 3)
        assert trace_pairing(rho, HermitianOperator(np.eye(3))) == pytest.approx(1.0, abs=1e-14)

    def test_up_state_sigma_z(self, qubit_up, sz):
        assert trace_pairing(qubit_up, sz) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed_sigma_x(self, sx):
        rho = DensityMatrix(np.eye(2) / 2)
        assert trace_pairing(rho, sx) == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self, qubit_up):
        with pytest.raises(ValueError, match="dimension mismatch"):
            trace_pairing(qubit_up, HermitianOperator(np.eye(3)))


class TestTransitionProbability:
    def test_identical_states(self, qubit_up):
        assert transition_probability(qubit_up, qubit_up) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self, qubit_up):
        down = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        assert transition_probability(qubit_up, down) == pytest.approx(0.0, abs=1e-14)

    def test_half_overlap(self, qubit_up, qubit_plus):
        assert transition_probability(qubit_up, qubit_plus) == pytest.approx(0.5, abs=1e-14)

    def test_symmetric_and_bounded(self, rng):
        for _ in range(25):
            p, q = random_pure(rng, 3), random_pure(rng, 3)
            forward = transition_probability(p, q)
            assert forward == pytest.approx(transition_probability(q, p), abs=1e-13)
            assert -1e-13 <= forward <= 1.0 + 1e-12

    def test_rejects_mixed_input(self, qubit_up):
        mixed = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="not pure"):
            transition_probability(qubit_up, mixed)


class TestUnitaryExponential:
    def test_zero_time_is_identity(self, rng):
        a = random_hermitian(rng, 4)
        np.testing.assert_allclose(unitary_exponential(a, 0.0).matrix, np.eye(4), atol=1e-15)

    def test_sigma_z_quarter_period(self, sz):
        u = unitary_exponential(sz, np.pi / 2)
        np.testing.assert_allclose(u.matrix, np.diag([-1j, 1j]), atol=1e-15)

    def test_scalar_generator(self):
        u = unitary_exponential(HermitianOperator(np.eye(3)), 0.7)
        np.testing.assert_allclose(u.matrix, np.exp(-0.7j) * np.eye(3), atol=1e-15)

    @given(s=st.floats(-3, 3), t=st.floats(-3, 3))
    @settings(max_examples=100)
    def test_one_parameter_group(self, s, t):
        a = HermitianOperator(SIGMA_X + 0.3 * SIGMA_Z)
        lhs = unitary_exponential(a, s).matrix @ unitary_exponential(a, t).matrix
        rhs = unitary_exponential(a, s + t).matrix
        assert max_abs(lhs - rhs) < 1e-10


def _eigh_exponential(mat, s):
    """exp(-i s A) from numpy's eigh, independent of expm_hermitian."""
    eigvals, eigvecs = np.linalg.eigh(mat)
    return (eigvecs * np.exp(-1j * s * eigvals)) @ eigvecs.conj().T


def _assert_qubit_exponential(mat, s):
    """expm_hermitian(mat, s) agrees with eigh to rounding and is unitary to rounding."""
    u = expm_hermitian(mat, s)
    scale = max(1.0, abs(s) * np.linalg.norm(mat, 2))
    assert max_abs(u - _eigh_exponential(mat, s)) <= 1e-14 * scale, (mat, s)
    assert max_abs(u.conj().T @ u - np.eye(2)) <= 1e-15, (mat, s)
    return u


def _assert_pade_exponential(mat, s):
    """expm_hermitian(mat, s) agrees with eigh and is unitary within 1e-14 max(1, |s| ||A||_2).

    Each squaring doubles the rounding of the one before, and the number of
    squarings grows as log2 |s| ||A||, so both bounds scale with |s| ||A||_2.
    """
    u = expm_hermitian(mat, s)
    bound = 1e-14 * max(1.0, abs(s) * np.linalg.norm(mat, 2))
    assert max_abs(u - _eigh_exponential(mat, s)) <= bound, (mat.shape, s)
    assert max_abs(u.conj().T @ u - np.eye(mat.shape[0])) <= bound, (mat.shape, s)
    return u


def _qubit(a0, x, y, z):
    return a0 * np.eye(2) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z


class TestQubitClosedForm:
    """At d = 2, expm_hermitian is exp(-i s a0) (cos(s|a|) I - i sin(s|a|)/|a| a.sigma)."""

    def test_random_generators(self, rng):
        for _ in range(200):
            a = random_hermitian(rng, 2, scale=rng.uniform(0.1, 10)).matrix
            for s in (0.0, rng.uniform(-5, 5), rng.uniform(-1e-3, 1e-3)):
                _assert_qubit_exponential(a, s)

    @given(a0=st.floats(-1e3, 1e3), x=st.floats(-10, 10), y=st.floats(-10, 10),
           z=st.floats(-10, 10), s=st.floats(-3, 3))
    @settings(max_examples=200)
    def test_bloch_components(self, a0, x, y, z, s):
        _assert_qubit_exponential(_qubit(a0, x, y, z), s)

    def test_zero_time_is_the_identity_exactly(self, rng):
        for _ in range(10):
            assert np.array_equal(expm_hermitian(random_hermitian(rng, 2).matrix, 0.0), np.eye(2))

    @pytest.mark.parametrize("c", [0.0, 1.0, -2.5, 1e3, -1e3])
    def test_multiples_of_the_identity(self, c):
        # |a| = 0: the limit sin(s|a|)/|a| -> s leaves a pure phase.
        for s in (0.3, -1.7, 0.0):
            u = _assert_qubit_exponential(c * np.eye(2, dtype=complex), s)
            assert u[0, 1] == u[1, 0] == 0.0
            assert abs(u[0, 0] - np.exp(-1j * s * c)) <= 1e-15 * max(1.0, abs(s * c))
            assert u[1, 1] == u[0, 0]

    def test_zero_matrix(self):
        for s in (0.0, 0.7, -1e3):
            assert np.array_equal(expm_hermitian(np.zeros((2, 2), dtype=complex), s), np.eye(2))

    @pytest.mark.parametrize("shift", [1e3, -1e3])
    def test_large_shift(self, rng, shift):
        for _ in range(50):
            a = random_traceless_hermitian(rng, 2).matrix + shift * np.eye(2)
            for s in (1e-3, -1e-2, 0.5):
                _assert_qubit_exponential(a, s)

    def test_tiny_bloch_vector(self):
        # |a| ~ 1e-300: the off-diagonal entry is -i s a_x e^(-i s a0) to
        # relative rounding, neither zero nor NaN.
        for a0 in (0.0, 0.4):
            a = _qubit(a0, 1e-300, -2e-300, 0.5e-300)
            for s in (0.7, -3.0):
                u = _assert_qubit_exponential(a, s)
                expected = -1j * s * a[1, 0] * np.exp(-1j * s * a0)
                assert abs(u[1, 0] - expected) <= 1e-15 * abs(expected)

    @pytest.mark.parametrize("dim", [2, 16, MAX_DIM])
    def test_reads_what_eigh_reads(self, rng, dim):
        # The real diagonal and the lower triangle, so a generator Hermitian
        # only to rounding gets the same exponential as its lower part; at
        # d = 16 and 64 this is the Padé path.
        check = _assert_qubit_exponential if dim == 2 else _assert_pade_exponential
        for _ in range(20 if dim == 2 else 3):
            lower = random_hermitian(rng, dim).matrix
            noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            skewed = lower + 1e-13 * (np.triu(noise, 1) + 1j * np.diag(noise.real.diagonal()))
            for s in (0.2, -1.1):
                assert np.array_equal(expm_hermitian(skewed, s), expm_hermitian(lower, s))
                check(skewed, s)

    @pytest.mark.parametrize("dim", [3, 4, PADE_MIN_DIM - 1])
    def test_larger_dimensions_keep_the_eigendecomposition(self, rng, dim):
        # Below PADE_MIN_DIM, eigh's bits.
        a = random_hermitian(rng, dim).matrix
        assert np.array_equal(expm_hermitian(a, 0.37), _eigh_exponential(a, 0.37))

    def test_qubit_flow_takes_no_eigendecomposition(self, rng, monkeypatch):
        # A 20-step mean-field run at d = 2 must stay on the closed form; the
        # same run at d = 4 shows that the counter sees eigh calls.
        calls, eigh = [], np.linalg.eigh

        def counted(mat, *args, **kwargs):
            calls.append(mat.shape[0])
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        cfg = IntegratorConfig(dt=0.01, t_final=0.2)
        for dim in (2, 4):
            h = mean_field(random_hermitian(rng, dim), random_hermitian(rng, dim), 1.0)
            propagate(h, random_interior_density(rng, dim), 0.2, cfg)
        assert 2 not in calls and calls.count(4) >= 20


class TestPadePath:
    """From PADE_MIN_DIM on, expm_hermitian is a scaled and squared diagonal Padé approximant."""

    DIMS = sorted({PADE_MIN_DIM, 16, MAX_DIM})

    def test_the_corpus_stays_below_the_switch(self):
        # So the bundled scenarios and their outputs keep eigh's bits.
        dims = [doc["dimension"] for doc in corpus_documents() if "dimension" in doc]
        assert dims and max(dims) < PADE_MIN_DIM <= MAX_DIM

    @pytest.mark.parametrize("dim", DIMS)
    def test_random_generators(self, rng, dim):
        # |s| ||A||_2 from 1e-4, where ||s A||_1 <= sqrt(d) 1e-4 < theta_3 and
        # m = 3, to 1e2, past theta_9 = 2.1, where the result is squared.
        for _ in range(4):
            a = random_hermitian(rng, dim, scale=rng.uniform(0.1, 10)).matrix
            norm = np.linalg.norm(a, 2)
            for target in np.logspace(-4, 2, 13):
                _assert_pade_exponential(a, rng.choice([-1.0, 1.0]) * target / norm)

    @pytest.mark.parametrize("dim", DIMS)
    def test_zero_time_is_the_identity_exactly(self, rng, dim):
        a = random_hermitian(rng, dim, scale=10.0).matrix
        assert np.array_equal(expm_hermitian(a, 0.0), np.eye(dim))
        assert np.array_equal(expm_hermitian(np.zeros((dim, dim), dtype=complex), 0.7),
                              np.eye(dim))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_raises_value_error(self, rng, bad):
        a = random_hermitian(rng, MAX_DIM).matrix.copy()
        a[5, 3] = bad
        with pytest.raises(ValueError, match="^exponent must be finite"):
            expm_hermitian(a, 0.1)

    def test_large_flow_takes_no_eigendecomposition(self, rng, monkeypatch):
        # A 20-step mean-field run at d = 64 must stay on the Padé path; the
        # same run at d = 4 shows that the counter sees eigh calls.
        calls, eigh = [], np.linalg.eigh

        def counted(mat, *args, **kwargs):
            calls.append(mat.shape[0])
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        cfg = IntegratorConfig(dt=0.01, t_final=0.2)
        for dim in (MAX_DIM, 4):
            h = mean_field(random_hermitian(rng, dim), random_hermitian(rng, dim), 1.0)
            propagate(h, random_interior_density(rng, dim), 0.2, cfg)
        assert MAX_DIM not in calls and calls.count(4) >= 20


class TestProjector:
    def test_up_vector(self):
        p = projector(StateVector(np.array([1.0, 0.0])))
        np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_plus_vector(self):
        p = projector(StateVector(np.array([1.0, 1.0]) / np.sqrt(2)))
        np.testing.assert_allclose(p.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)

    @given(theta=st.floats(-np.pi, np.pi))
    @settings(max_examples=100)
    def test_global_phase_invariance(self, theta):
        vec = np.array([0.6, 0.8j])
        base = projector(StateVector(vec))
        rotated = projector(StateVector(np.exp(1j * theta) * vec))
        assert max_abs(base.matrix - rotated.matrix) < 1e-15

    def test_idempotent_and_pure(self, rng):
        for _ in range(10):
            p = random_pure(rng, 4)
            assert max_abs(p.matrix @ p.matrix - p.matrix) < 1e-12
            assert p.purity() == pytest.approx(1.0, abs=1e-12)


class TestSpectrum:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4)
        np.testing.assert_allclose(spectrum(rho), np.full(4, 0.25), atol=1e-14)

    def test_pure_state(self, qubit_up):
        np.testing.assert_allclose(spectrum(qubit_up), [1.0, 0.0], atol=1e-14)

    def test_diagonal_input(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        np.testing.assert_allclose(spectrum(rho), [0.7, 0.3], atol=1e-14)

    def test_sums_to_one(self, rng):
        rho = random_density(rng, 5)
        assert float(np.sum(spectrum(rho))) == pytest.approx(1.0, abs=1e-10)

    def test_invariant_under_conjugation(self, rng):
        rho = random_density(rng, 4)
        u = unitary_exponential(random_hermitian(rng, 4), 1.3)
        conjugated = DensityMatrix(u.matrix @ rho.matrix @ u.matrix.conj().T)
        assert max_abs(spectrum(conjugated) - spectrum(rho)) < 1e-10


class TestLiterals:
    def test_sigma_x_literal(self):
        mat = matrix_from_pairs([[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
        np.testing.assert_allclose(mat, SIGMA_X)

    def test_round_trip(self, rng):
        mat = random_hermitian(rng, 3).matrix
        np.testing.assert_allclose(matrix_from_pairs(matrix_to_pairs(mat)), mat)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match=r"\[re, im\]"):
            matrix_from_pairs([[1.0, 2.0], [3.0, 4.0]])

    def test_vector_literal(self):
        vec = vector_from_pairs([[1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_allclose(vec, np.array([1.0, -1.0j]))
