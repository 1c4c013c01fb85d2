"""Tests for the validated matrix types and primitive operations."""

import dataclasses
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqm_lab import hilbert
from eqm_lab.flow import IntegratorConfig, propagate
from eqm_lab.hamiltonians import mean_field
from eqm_lab.hilbert import (
    MAX_DIM,
    POLYNOMIAL_MIN_DIM,
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
    max_abs,
    projector,
    require_count,
    require_dim,
    require_pure,
    require_real,
    spectrum,
    trace_pairing,
    transition_probability,
    unitary_exponential,
    vector_from_pairs,
)
from eqm_lab.hilbert import _TAYLOR
from eqm_lab.config import build_config, with_dt
from eqm_lab.runner import corpus_documents, run_scenario
from conftest import (
    matrix_to_pairs,
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

    def test_rejects_a_nan_lowest_eigenvalue(self, monkeypatch):
        # The gate reads the helper's eigenvalues; a NaN one, as LAPACK
        # returns when it fails, must not pass as nonnegative.
        monkeypatch.setattr(hilbert, "_eigh", lambda mat, vectors=True: np.full(2, np.nan))
        with pytest.raises(ValueError, match="not positive semidefinite: lowest eigenvalue nan"):
            DensityMatrix(np.diag([1.0, 0.0]).astype(complex))

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(ValueError, match="^matrix must be nonempty$"):
            HermitianOperator(np.zeros((0, 0)))

    @pytest.mark.parametrize("entries, message", [
        (np.eye(2), r"^expected a nonempty vector, got shape \(2, 2\)$"),
        (np.zeros(0), r"^expected a nonempty vector, got shape \(0,\)$"),
        (np.array([np.nan, 1.0]), "^vector entries must be finite$"),
        (np.array([np.inf, 0.0]), "^vector entries must be finite$"),
    ], ids=["matrix", "empty", "nan", "inf"])
    def test_vector_rejects_bad_shapes_and_non_finite_entries(self, entries, message):
        with pytest.raises(ValueError, match=message):
            StateVector(entries)

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


class TestReals:
    """require_real is the one check on real arguments; it states the bounds it was given."""

    @pytest.mark.parametrize("value", [True, np.True_, "1", None, np.array(1.0), 1j, math.nan,
                                       -math.inf, 10 ** 400])
    def test_rejects_what_is_not_a_finite_real(self, value):
        with pytest.raises(ValueError, match=rf"^x must be a finite number, "
                                             rf"got {re.escape(repr(value))}$"):
            require_real("x", value)

    @pytest.mark.parametrize("kwargs, value, bounds", [
        (dict(positive=True), 0.0, "> 0"),
        (dict(minimum=0), -1e-300, ">= 0"),
        (dict(minimum=1e-7, maximum=1e-3), 0.01, r"in \[1e-07, 0\.001\]"),
        (dict(minimum=1e-7, maximum=1e-3), 1e-8, r"in \[1e-07, 0\.001\]"),
    ])
    def test_states_the_bounds_it_was_given(self, kwargs, value, bounds):
        with pytest.raises(ValueError, match=rf"^x must be a finite number {bounds}, "
                                             rf"got {re.escape(repr(value))}$"):
            require_real("x", value, **kwargs)

    @pytest.mark.parametrize("value", [0, 1e-7, 1e-3, np.float64(1e-4), np.float32(1e-4),
                                       np.int64(0), Fraction(1, 10000)])
    def test_reals_in_bounds_pass(self, value):
        require_real("x", value, minimum=0, maximum=1e-3)


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

    def test_rejects_an_imaginary_part(self, sy):
        # Only a corrupted state, wrapped past its checks, can give Tr(rho A)
        # an imaginary part: here Tr(rho sigma_y) = i.
        corrupted = DensityMatrix._accepted(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError, match=r"^trace pairing has a non-negligible imaginary "
                                             r"part: 1\.000e\+00$"):
            trace_pairing(corrupted, sy)

    def test_accepts_valid_pairings_of_large_operators(self):
        # The imaginary part's rounding grows with A: at scale 1e6 it passed
        # an absolute 1e-12 on 76 of these 200 pairs, and the tolerance now
        # scales with A's largest entry.
        rng = np.random.default_rng(0)
        for _ in range(200):
            rho, a = random_density(rng, 4), random_hermitian(rng, 4, 1e6)
            assert trace_pairing(rho, a) == pytest.approx(
                float(np.trace(rho.matrix @ a.matrix).real), rel=1e-12, abs=1e-6)

    def test_rejects_an_imaginary_part_of_a_large_operator(self, sy):
        corrupted = DensityMatrix._accepted(np.array([[1.0, 1e-3], [0.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError, match=r"^trace pairing has a non-negligible imaginary "
                                             r"part: 1\.000e\+03$"):
            trace_pairing(corrupted, HermitianOperator(1e6 * sy.matrix))


class TestTransitionProbability:
    def test_require_pure_names_what_it_rejects(self, qubit_up, qubit_plus):
        require_pure("state", qubit_plus)
        with pytest.raises(ValueError, match=r"^state is not pure: purity = 0\.5$"):
            require_pure("state", DensityMatrix(np.eye(2) / 2))

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


def _assert_taylor_exponential(mat, s):
    """expm_hermitian(mat, s) agrees with eigh and is unitary within 1e-14 max(1, |s| ||A||_2).

    Each squaring doubles the rounding of the one before, and the number of
    squarings grows as log2 |s| ||A||, so both bounds scale with |s| ||A||_2.
    """
    u = expm_hermitian(mat, s)
    bound = 1e-14 * max(1.0, abs(s) * np.linalg.norm(mat, 2))
    assert max_abs(u - _eigh_exponential(mat, s)) <= bound, (mat.shape, s)
    assert max_abs(u.conj().T @ u - np.eye(mat.shape[0])) <= bound, (mat.shape, s)
    return u


def _count_eigendecompositions(monkeypatch, *more):
    """Record (name, d) for each eigendecomposition by hilbert._eigh and each
    call of np.linalg.eigh and of the np.linalg functions named in more."""
    calls, helper = [], hilbert._eigh

    def counted(name):
        original = getattr(np.linalg, name)

        def call(mat, *args, **kwargs):
            calls.append((name, mat.shape[0]))
            return original(mat, *args, **kwargs)
        return call

    def counted_helper(mat, vectors=True):
        if vectors:
            calls.append(("_eigh", mat.shape[0]))
        return helper(mat, vectors)

    for name in ("eigh", *more):
        monkeypatch.setattr(np.linalg, name, counted(name))
    monkeypatch.setattr(hilbert, "_eigh", counted_helper)
    return calls


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
        # d = 16 and 64 this is the Taylor path.
        check = _assert_qubit_exponential if dim == 2 else _assert_taylor_exponential
        for _ in range(20 if dim == 2 else 3):
            lower = random_hermitian(rng, dim).matrix
            noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            skewed = lower + 1e-13 * (np.triu(noise, 1) + 1j * np.diag(noise.real.diagonal()))
            for s in (0.2, -1.1):
                assert np.array_equal(expm_hermitian(skewed, s), expm_hermitian(lower, s))
                check(skewed, s)

    @pytest.mark.parametrize("dim", [3, 4, POLYNOMIAL_MIN_DIM - 1])
    def test_larger_dimensions_keep_the_eigendecomposition(self, rng, dim):
        # Below POLYNOMIAL_MIN_DIM, eigh's bits.
        a = random_hermitian(rng, dim).matrix
        assert np.array_equal(expm_hermitian(a, 0.37), _eigh_exponential(a, 0.37))

    def test_sets_the_split_drift_of_the_qubit_scenario(self):
        # The split caches exp(-i dt/2 A) and repeats its rounding every step,
        # so the closed form's rounding sets mean-field-qubit's trace row:
        # 3.3e-15 at dt 0.01, where the eigh path reads 4.5e-13.  No row's
        # threshold tells the two apart, so the closed form stays for this,
        # not for speed.
        doc = next(d for d in corpus_documents() if d["id"] == "mean-field-qubit")
        cfg = with_dt(build_config(doc), 0.01)
        assert cfg.hamiltonian.split is not None
        _, rows = run_scenario(cfg)
        (trace,) = (row.value for row in rows if row.check == "trace")
        assert trace <= 1e-13

    def test_qubit_flow_takes_no_eigendecomposition(self, rng, monkeypatch):
        # A 20-step mean-field run at d = 2 must stay on the closed form; the
        # same run at d = 4 shows that the counter sees the helper's
        # eigendecompositions.  Neither calls np.linalg.eigh.
        calls = _count_eigendecompositions(monkeypatch)
        cfg = IntegratorConfig(dt=0.01, t_final=0.2)
        for dim in (2, 4):
            h = mean_field(random_hermitian(rng, dim), random_hermitian(rng, dim), 1.0)
            propagate(h, random_interior_density(rng, dim), 0.2, cfg)
        assert ("_eigh", 2) not in calls and calls.count(("_eigh", 4)) >= 20
        assert not [call for call in calls if call[0] == "eigh"]


def _taylor_tail(theta, m):
    """sum_(j > m) theta^j / j!, summed until a term no longer changes the sum."""
    term = theta ** (m + 1) / math.factorial(m + 1)
    total, j = 0.0, m + 1
    while total + term != total:
        total += term
        j += 1
        term *= theta / j
    return total


class TestTaylorPath:
    """From POLYNOMIAL_MIN_DIM on, expm_hermitian is a scaled and squared Taylor polynomial."""

    DIMS = sorted({POLYNOMIAL_MIN_DIM, 16, MAX_DIM})

    def test_the_corpus_stays_below_the_switch(self):
        # So the bundled scenarios and their outputs keep eigh's bits.
        dims = [doc["dimension"] for doc in corpus_documents() if "dimension" in doc]
        assert dims and max(dims) < POLYNOMIAL_MIN_DIM <= MAX_DIM

    def test_theta_table_is_the_tail_bound(self):
        # theta_m is the largest theta whose Taylor tail past degree m stays
        # within 2^-53, found again here by bisection.  Paterson-Stockmeyer
        # over X ... X^p takes p - 1 + ceil(m/p) - 1 products, one more per
        # entry, and p divides m, so the top chunk ends at X^p / m!.
        degrees = [m for _, m, _ in _TAYLOR]
        assert degrees == sorted(set(degrees)) and degrees[-1] == 20
        products = [p - 1 + math.ceil(m / p) - 1 for _, m, p in _TAYLOR]
        assert products == list(range(2, 2 + len(_TAYLOR)))
        for theta, m, p in _TAYLOR:
            assert m % p == 0, (m, p)
            lo, hi = 0.0, 4.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _taylor_tail(mid, m) <= 2.0 ** -53 else (lo, mid)
            assert theta == pytest.approx(lo, rel=1e-12), m

    @pytest.mark.parametrize("dim", DIMS)
    def test_each_degree_is_exact_to_rounding_up_to_its_theta(self, rng, dim):
        # ||s A||_1 at theta_m and 1% past it, so each table entry is taken at
        # both ends of its range, and the last 1% past the table, squared once.
        a = random_hermitian(rng, dim).matrix
        one_norm = np.abs(a).sum(axis=0).max()
        for theta, _, _ in _TAYLOR:
            for norm, sign in itertools.product((theta, 1.01 * theta), (1.0, -1.0)):
                _assert_taylor_exponential(a, sign * norm / one_norm)
        # A diagonal generator with ||A||_2 = ||A||_1 = 1 meets the tail bound
        # with equality, so a term missing from T_m (at least 1.4e-15 at
        # theta_m) shows against the ~3e-16 the path reaches on it.
        eigvals = rng.uniform(-1.0, 1.0, dim)
        eigvals[0] = 1.0
        for theta, _, _ in _TAYLOR:
            for s in (theta, -theta, 1.01 * theta):
                u = expm_hermitian(np.diag(eigvals).astype(complex), s)
                assert max_abs(u - np.diag(np.exp(-1j * s * eigvals))) <= 6e-16, (theta, s)

    @pytest.mark.parametrize("dim", DIMS)
    def test_random_generators(self, rng, dim):
        # |s| ||A||_2 from 1e-4, where ||s A||_1 <= sqrt(d) 1e-4 < theta_4 and
        # the degree is 4, to 1e2, past theta_20 = 1.5, where the result
        # is squared.
        for _ in range(4):
            a = random_hermitian(rng, dim, scale=rng.uniform(0.1, 10)).matrix
            norm = np.linalg.norm(a, 2)
            for target in np.logspace(-4, 2, 13):
                _assert_taylor_exponential(a, rng.choice([-1.0, 1.0]) * target / norm)

    @pytest.mark.parametrize("dim", DIMS)
    def test_real_and_integer_generators_are_their_complex_casts(self, rng, dim):
        # The d = 2 and eigh paths take a real or integer A; so does this
        # one, as the complex matrix of the same entries, to the bit.
        cases = _hermitian_cases(rng, dim)
        for name in ("real", "integer"):
            mat = cases[name]
            for s in (0.0, 0.005, -0.3, 7.0):
                assert np.array_equal(expm_hermitian(mat, s),
                                      expm_hermitian(mat.astype(complex), s)), (name, s)

    @pytest.mark.parametrize("dim", DIMS)
    def test_zero_time_is_the_identity_exactly(self, rng, dim):
        a = random_hermitian(rng, dim, scale=10.0).matrix
        assert np.array_equal(expm_hermitian(a, 0.0), np.eye(dim))
        assert np.array_equal(expm_hermitian(np.zeros((dim, dim), dtype=complex), 0.7),
                              np.eye(dim))

    def test_flow_agrees_with_the_eigendecomposition(self, rng, monkeypatch):
        # A 50-step mean-field run at d = 16, once on the Taylor path and once
        # with the switch moved past MAX_DIM, which forces eigh.
        h = mean_field(random_hermitian(rng, 16), random_hermitian(rng, 16), 1.0)
        rho0 = random_interior_density(rng, 16)
        cfg = IntegratorConfig(dt=0.01, t_final=0.5)
        taylor = propagate(h, rho0, 0.5, cfg)
        monkeypatch.setattr(hilbert, "POLYNOMIAL_MIN_DIM", MAX_DIM + 1)
        eigh = propagate(h, rho0, 0.5, cfg)
        for ours, reference in zip(taylor, eigh):
            assert max_abs(ours.matrix - reference.matrix) <= 1e-13

    def test_large_flow_takes_no_eigendecomposition_and_no_solve(self, rng, monkeypatch):
        # A 20-step mean-field run at d = 64 must stay on the Taylor path,
        # which needs no linear solve; the same run at d = 4 shows that the
        # counter sees the helper's eigendecompositions.  Neither calls
        # np.linalg.eigh.
        calls = _count_eigendecompositions(monkeypatch, "solve")
        cfg = IntegratorConfig(dt=0.01, t_final=0.2)
        for dim in (MAX_DIM, 4):
            h = mean_field(random_hermitian(rng, dim), random_hermitian(rng, dim), 1.0)
            propagate(h, random_interior_density(rng, dim), 0.2, cfg)
        assert not [call for call in calls if call[1] == MAX_DIM]
        assert calls.count(("_eigh", 4)) >= 20
        assert not [call for call in calls if call[0] == "eigh"]


class TestNonFiniteExponent:
    """Every path raises ValueError before it exponentiates a non-finite s.

    A is the caller's to prove finite and is never scanned, but the d = 2 and
    Taylor paths still reject a non-finite entry they compute with.
    """

    DIMS = sorted({2, 3, 4, POLYNOMIAL_MIN_DIM - 1, POLYNOMIAL_MIN_DIM, MAX_DIM})

    @pytest.mark.parametrize("dim", [2, POLYNOMIAL_MIN_DIM, MAX_DIM])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["lower", "diagonal"])
    @pytest.mark.parametrize("s", [0.1, 0.0])
    def test_non_finite_matrix_raises_value_error(self, rng, dim, bad, where, s):
        a = random_hermitian(rng, dim).matrix.copy()
        a[(dim - 1, 0) if where == "lower" else (dim - 1, dim - 1)] = bad
        with pytest.raises(ValueError, match="^exponent must be finite"):
            expm_hermitian(a, s)

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_raises_value_error(self, rng, dim, s):
        with pytest.raises(ValueError, match="^exponent must be finite"):
            expm_hermitian(random_hermitian(rng, dim).matrix, s)


def _hermitian_cases(rng, dim):
    """Matrices the helper must take as numpy does: random complex Hermitian,
    degenerate, real and integer, a transposed view, and garbage above the diagonal."""
    a = random_hermitian(rng, dim).matrix
    ints = rng.integers(-3, 4, size=(dim, dim))
    garbage = a + np.triu(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), 1)
    return {
        "complex": a,
        "identity": np.eye(dim, dtype=complex),
        "repeated": np.diag(np.repeat([0.25, -1.5], [dim // 2, dim - dim // 2])).astype(complex),
        "real": a.real.copy(),
        "integer": ints + ints.T,
        "transposed": a.T,  # not C-contiguous
        "garbage above": garbage,
    }


class TestEighHelper:
    """hilbert._eigh gives np.linalg.eigh's and eigvalsh's bits, without their wrapper."""

    @pytest.mark.parametrize("dim", range(2, POLYNOMIAL_MIN_DIM))
    def test_eigendecomposition_is_numpys(self, rng, dim):
        for name, mat in _hermitian_cases(rng, dim).items():
            (w, v), (w_np, v_np) = hilbert._eigh(mat), np.linalg.eigh(mat)
            assert np.array_equal(w, w_np) and np.array_equal(v, v_np), name
            assert w.dtype == w_np.dtype and v.dtype == v_np.dtype, name

    def test_eigenvalues_are_numpys(self, rng):
        for dim in range(2, MAX_DIM + 1):
            for name, mat in _hermitian_cases(rng, dim).items():
                w, w_np = hilbert._eigh(mat, vectors=False), np.linalg.eigvalsh(mat)
                assert np.array_equal(w, w_np) and w.dtype == w_np.dtype, (dim, name)


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestDotIsMatmul:
    """ndarray.dot gives @'s bits for each operand layout the step path multiplies.

    The kernel, the exponentials, the generators and the pull-back multiply
    through ndarray.dot; a numpy whose dot and matmul round differently
    fails here before any output moves.
    """

    @pytest.mark.parametrize("dim", [2, 3, 4, 13, 14, 16, MAX_DIM])
    def test_every_step_path_layout(self, rng, dim):
        a, b = (random_hermitian(rng, dim).matrix @ random_hermitian(rng, dim).matrix
                for _ in range(2))
        eigvecs = hilbert._eigh(random_hermitian(rng, dim).matrix.real)[1]
        phased = eigvecs * np.exp(-0.3j * rng.normal(size=dim))
        layouts = {
            "C x C": (a, b),
            "a matrix times itself": (a, a),
            "C x conj().T view": (a, b.conj().T),
            "conj().T view x C": (b.conj().T, a),
            "real eigh vectors": (phased, eigvecs.conj().T),
        }
        for name, (x, y) in layouts.items():
            assert _same_bits(x.dot(y), x @ y), (dim, name)
        for k in (1, 2, 5):
            weights = rng.normal(size=k)
            stack = np.array([random_hermitian(rng, dim).matrix.ravel() for _ in range(k)])
            assert _same_bits(weights.dot(stack), weights @ stack), (dim, k)
            # (k, d*d) x (d*d,): polynomial's pairings with a flattened state.
            assert _same_bits(stack.dot(a.ravel()), stack @ a.ravel()), (dim, k)


def _records(rng, dim, n):
    """n valid (state, unitary) records as two (n, dim, dim) stacks."""
    states = np.stack([random_density(rng, dim).matrix for _ in range(n)])
    unitaries = np.stack([unitary_exponential(random_hermitian(rng, dim), 0.7).matrix
                          for _ in range(n)])
    return states, unitaries


def _constructor_error(state, unitary) -> str:
    with pytest.raises(ValueError) as rejected:
        DensityMatrix(state)
        UnitaryOperator(unitary)
    return str(rejected.value)


def _off_the_cone(state):
    dim = state.shape[0]
    return np.diag([1.0 + 2e-10, -2e-10] + [0.0] * (dim - 2)).astype(complex)


def _off_hermitian(state):
    state = state.copy()
    state[1, 0] += 1e-9
    return state


# Record corruptions: (which stack, corruption), each failing one constructor test.
CORRUPTIONS = {
    "state-nan": (0, lambda m: np.where(np.eye(len(m), dtype=bool), np.nan, m)),
    "state-inf": (0, lambda m: m + np.inf),
    "not-hermitian": (0, _off_hermitian),
    "trace": (0, lambda m: m * (1 + 1e-8)),
    "not-psd": (0, _off_the_cone),
    "unitary-nan": (1, lambda m: m * np.nan),
    "not-unitary": (1, lambda m: m * (1 + 1e-9)),
}


class TestFirstRejected:
    """first_rejected takes the constructors' tests a stack at a time, with their bits."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 13, 14, 16, MAX_DIM])
    def test_stacked_eigenvalues_products_and_traces_are_per_matrix(self, rng, dim):
        states, unitaries = _records(rng, dim, 5)
        lowest = hilbert._eigh(states, vectors=False)
        gram = unitaries.conj().swapaxes(1, 2) @ unitaries
        trace = np.trace(states, axis1=1, axis2=2)
        defect = np.hypot(trace.real - 1.0, trace.imag)
        for i, (state, u) in enumerate(zip(states, unitaries)):
            assert np.array_equal(lowest[i], hilbert._eigh(state, vectors=False))
            assert np.array_equal(gram[i], u.conj().T @ u)
            assert defect[i] == abs(np.trace(state) - 1.0) == abs(complex(np.trace(state)) - 1.0)

    @pytest.mark.parametrize("dim", [2, 4, MAX_DIM])
    def test_accepts_valid_records(self, rng, dim):
        assert hilbert.first_rejected(*_records(rng, dim, 3)) is None

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("dim", [2, 4])
    def test_names_the_first_bad_record_with_the_constructors_error(self, rng, dim, kind):
        which, corrupt = CORRUPTIONS[kind]
        for bad in (0, 2, 4):
            stacks = list(_records(rng, dim, 5))
            with np.errstate(invalid="ignore"):
                stacks[which][bad] = corrupt(stacks[which][bad])
            # A later record that fails another test does not mask the first.
            if bad < 4:
                stacks[1 - which][4] *= 2.0
            i, error = hilbert.first_rejected(*stacks)
            assert i == bad
            assert str(error) == _constructor_error(stacks[0][bad], stacks[1][bad])

    def test_looks_no_further_than_a_non_finite_record(self, rng):
        states, unitaries = _records(rng, 4, 4)
        states[2] = np.nan
        unitaries[3] *= 2.0
        assert hilbert.first_rejected(states, unitaries)[0] == 2
        unitaries[1] *= 2.0
        i, error = hilbert.first_rejected(states, unitaries)
        assert i == 1 and str(error).startswith("matrix is not unitary")

    def test_accepted_wraps_without_a_copy_and_freezes(self, rng):
        mat = random_density(rng, 3).matrix.copy()
        wrapped = DensityMatrix._accepted(mat)
        assert type(wrapped) is DensityMatrix and wrapped.matrix is mat
        assert not mat.flags.writeable and wrapped.dim == 3


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
