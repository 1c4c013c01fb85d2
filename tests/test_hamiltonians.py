"""Tests for Hamiltonian function families, brackets, and differentials."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eqm_lab.config import build_config, with_dt
from eqm_lab.flow import GeneratorError, IntegratorConfig, evolve, propagate
from eqm_lab.hamiltonians import (
    GENERIC_FD_STEP,
    HamiltonianFunction,
    fd_differential_residual,
    from_value,
    linear,
    mean_field,
    poisson_bracket,
    polynomial,
    shift_differential,
)
from eqm_lab.hilbert import (
    MAX_DIM,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    HermitianOperator,
    commutator,
    max_abs,
    trace_pairing,
)
from eqm_lab.runner import corpus_documents
from conftest import (
    random_density,
    random_hermitian,
    random_interior_density,
    random_traceless_hermitian,
)

ORBIT_EPS = 1e-5
# The corpus's generators read at most 8.2e-10 (gauge-shift); the mean-field
# coupling off by a factor 1 + 1e-6 reads 9.6e-8 (conservation-mean-field-n4)
# to 1.3e-6, so a bound of 1e-7 would let that mutant pass.
ORBIT_BOUND = 1e-8
FLOW_DOCUMENTS = {doc["id"]: doc for doc in corpus_documents() if "integrator" in doc}
MEAN_FIELDS = [sid for sid, doc in FLOW_DOCUMENTS.items()
               if doc["hamiltonian"]["type"] == "mean_field"]


def _dense_basis(dim):
    """The reference for from_value: the orthonormal basis of traceless
    Hermitian matrices under Tr(XY), dim^2 - 1 dense matrices stacked, in the
    order from_value probes them."""
    basis = np.zeros((dim * dim - 1, dim, dim), dtype=complex)
    n = 0
    for j in range(dim):
        for k in range(j + 1, dim):
            basis[n, j, k] = basis[n, k, j] = 1.0 / math.sqrt(2.0)
            basis[n + 1, j, k] = -1j / math.sqrt(2.0)
            basis[n + 1, k, j] = 1j / math.sqrt(2.0)
            n += 2
    for level in range(1, dim):
        diag = np.zeros(dim, dtype=complex)
        diag[:level] = 1.0
        diag[level] = -level
        np.fill_diagonal(basis[n], diag / math.sqrt(level * (level + 1)))
        n += 1
    return basis


def _entry_loop(fn, m):
    """The reference for from_value's probes and differential: every basis
    matrix of _dense_basis kept as its nonzero entries (flat index, value) in
    one list, and all of them probed by one loop."""
    dim = m.shape[0]
    r, up, down = 1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0), 1j / math.sqrt(2.0)
    basis = [((j * dim + k, x), (k * dim + j, y)) for j in range(dim)
             for k in range(j + 1, dim) for x, y in ((r, r), (up, down))]
    for level in range(1, dim):
        scale = 1.0 / math.sqrt(level * (level + 1))
        basis.append([(i * (dim + 1), scale) for i in range(level)]
                     + [(level * (dim + 1), -level * scale)])
    work = np.array(m, dtype=complex, order="C")
    flat = work.reshape(dim * dim)
    state, d = flat.tolist(), [0j] * (dim * dim)
    for entries in basis:
        for i, v in entries:
            flat[i] = state[i] + GENERIC_FD_STEP * v
        plus = fn(work)
        for i, v in entries:
            flat[i] = state[i] - GENERIC_FD_STEP * v
        slope = (plus - fn(work)) / (2.0 * GENERIC_FD_STEP)
        for i, v in entries:
            flat[i] = state[i]
            d[i] += slope * v
    return np.array(d).reshape(dim, dim)


class TestBuild:
    def test_linear_family(self, sz, qubit_up, rng):
        h = linear(sz)
        assert h.value(qubit_up) == pytest.approx(1.0, abs=1e-14)
        for _ in range(5):
            rho = random_density(rng, 2)
            assert max_abs(h.differential(rho).matrix - SIGMA_Z) == 0.0

    def test_mean_field_zero_at_mixed(self, sz):
        h = mean_field(HermitianOperator(np.zeros((2, 2))), sz, 1.0)
        mixed = DensityMatrix(np.eye(2) / 2)
        assert max_abs(h.differential(mixed).matrix) < 1e-15
        assert h.value(mixed) == pytest.approx(0.0, abs=1e-15)

    def test_mean_field_closed_form(self, sx, sz, qubit_up):
        h = mean_field(sx, sz, 2.0)
        np.testing.assert_allclose(h.differential(qubit_up).matrix,
                                   SIGMA_X + 2.0 * SIGMA_Z, atol=1e-14)

    def test_polynomial_matches_product_rule(self, rng):
        f1, f2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        h = polynomial([(0.8, (f1, f2))])
        rho = random_density(rng, 3)
        t1, t2 = trace_pairing(rho, f1), trace_pairing(rho, f2)
        assert h.value(rho) == pytest.approx(0.8 * t1 * t2, abs=1e-12)
        expected = 0.8 * (t2 * f1.matrix + t1 * f2.matrix)
        np.testing.assert_allclose(h.differential(rho).matrix, expected, atol=1e-12)

    def test_mean_field_dimension_mismatch(self, sx):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mean_field(sx, HermitianOperator(np.eye(3)), 1.0)

    def test_polynomial_factor_dimension_mismatch(self, sx):
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
            polynomial([(1.0, (sx, HermitianOperator(np.eye(3))))])

    @pytest.mark.parametrize("dim", [2, MAX_DIM])
    def test_constant_polynomial_takes_its_dimension_from_the_state(self, rng, dim):
        rho = random_density(rng, dim)
        h = polynomial([(2.0, ())])
        assert h.value(rho) == 2.0
        generated = h.generator(rho.matrix)
        assert generated.shape == (dim, dim) and generated.dtype == complex
        assert not np.any(generated)
        assert not np.any(h.differential(rho).matrix)

    @pytest.mark.parametrize("dim", [0, 1, MAX_DIM + 1, True, 2.0])
    def test_from_value_rejects_a_dimension_outside_the_lab(self, dim):
        with pytest.raises(ValueError, match=rf"^dim must be an integer in \[2, {MAX_DIM}\], got "):
            from_value(lambda m: 0.0, dim)

    def test_zero_hamiltonian(self, rng):
        h = linear(HermitianOperator(np.zeros((3, 3))))
        rho = random_density(rng, 3)
        assert h.value(rho) == 0.0
        assert max_abs(h.differential(rho).matrix) == 0.0


class TestPoissonBracket:
    def test_self_bracket_vanishes(self, rng, sx, sz):
        h = mean_field(sx, sz, 1.5)
        for _ in range(5):
            assert poisson_bracket(h, h, random_density(rng, 2)) == 0.0

    def test_pauli_example(self, sx, sy, qubit_up):
        value = poisson_bracket(linear(sx), linear(sy), qubit_up)
        assert value == pytest.approx(-2.0, abs=1e-14)

    def test_linear_family_homomorphism(self, rng):
        # The bracket of two linear functions is the linear function of i[A, B].
        for _ in range(30):
            a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
            rho = random_density(rng, 4)
            via_bracket = poisson_bracket(linear(a), linear(b), rho)
            via_pairing = trace_pairing(rho, HermitianOperator(1j * commutator(a, b)))
            assert via_bracket == pytest.approx(via_pairing, abs=1e-12)

    def test_antisymmetry(self, rng, sx, sz):
        f = mean_field(sx, sz, 0.7)
        g = polynomial([(0.5, (sz, sz)), (1.0, (sx,))])
        for _ in range(10):
            rho = random_density(rng, 2)
            assert poisson_bracket(f, g, rho) == pytest.approx(-poisson_bracket(g, f, rho),
                                                               abs=1e-13)

    def test_linearity_in_first_slot(self, rng):
        a, b, c = (random_hermitian(rng, 4) for _ in range(3))
        alpha, beta = 1.7, -0.4
        f = polynomial([(alpha, (a,)), (beta, (b,))])
        h = linear(c)
        for _ in range(5):
            rho = random_density(rng, 4)
            combined = poisson_bracket(f, h, rho)
            split = (alpha * poisson_bracket(linear(a), h, rho)
                     + beta * poisson_bracket(linear(b), h, rho))
            assert combined == pytest.approx(split, abs=1e-12)

    def test_dimension_mismatch(self, sx, qubit_up):
        with pytest.raises(ValueError, match="dimension mismatch"):
            poisson_bracket(linear(sx), linear(HermitianOperator(np.eye(3))), qubit_up)


class TestDifferentialResidual:
    def test_linear_is_exact(self, rng):
        h = linear(random_hermitian(rng, 3))
        rho = random_interior_density(rng, 3)
        delta = random_traceless_hermitian(rng, 3, scale=0.2)
        assert fd_differential_residual(h, rho, delta, 1e-4) < 1e-10

    def test_mean_field_at_mixed_point(self, sz):
        h = mean_field(HermitianOperator(np.zeros((2, 2))), sz, 1.0)
        mixed = DensityMatrix(np.eye(2) / 2)
        delta = HermitianOperator(SIGMA_Z / 4)
        assert fd_differential_residual(h, mixed, delta, 1e-4) < 1e-6

    def test_cubic_polynomial(self, rng):
        factors = tuple(random_hermitian(rng, 3) for _ in range(3))
        h = polynomial([(0.9, factors)])
        rho = random_interior_density(rng, 3)
        delta = random_traceless_hermitian(rng, 3, scale=0.2)
        residual = fd_differential_residual(h, rho, delta, 1e-4)
        assert residual <= 1e-6 * (1 + abs(h.value(rho)))

    def test_eps_out_of_range(self, sz, qubit_up):
        delta = HermitianOperator(SIGMA_X)
        with pytest.raises(ValueError, match="eps"):
            fd_differential_residual(linear(sz), qubit_up, delta, 1e-2)

    def test_requires_traceless_direction(self, sz, rng):
        rho = random_interior_density(rng, 2)
        with pytest.raises(ValueError, match="traceless"):
            fd_differential_residual(linear(sz), rho, HermitianOperator(np.eye(2)), 1e-4)

    def test_direction_of_another_dimension(self, sz, qubit_up, rng):
        delta = random_traceless_hermitian(rng, 4, scale=0.2)
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 4$"):
            fd_differential_residual(linear(sz), qubit_up, delta, 1e-4)

    def test_perturbation_leaving_cone(self, sz, qubit_up):
        # A pure state cannot move along a diagonal traceless direction both ways.
        delta = HermitianOperator(SIGMA_Z)
        with pytest.raises(ValueError, match="admissible cone"):
            fd_differential_residual(linear(sz), qubit_up, delta, 1e-3)


class TestShiftDifferential:
    def test_zero_shift_is_identity(self, rng, sx, sz):
        h = mean_field(sx, sz, 1.0)
        shifted = shift_differential(h, 0.0)
        rho = random_density(rng, 2)
        assert shifted.value(rho) == h.value(rho)
        assert max_abs(shifted.differential(rho).matrix - h.differential(rho).matrix) == 0.0

    def test_linear_shift_closed_form(self, sz, rng):
        shifted = shift_differential(linear(sz), 3.0)
        reference = linear(HermitianOperator(SIGMA_Z + 3.0 * np.eye(2)))
        rho = random_density(rng, 2)
        assert shifted.value(rho) == pytest.approx(reference.value(rho), abs=1e-13)
        assert max_abs(shifted.differential(rho).matrix
                       - reference.differential(rho).matrix) < 1e-14

    def test_brackets_are_gauge_invariant(self, rng, sx, sz):
        f = mean_field(sx, sz, 0.9)
        g = linear(sx)
        for c in (-10.0, 1.0, 10.0):
            rho = random_density(rng, 2)
            assert poisson_bracket(shift_differential(f, c), g, rho) == pytest.approx(
                poisson_bracket(f, g, rho), abs=1e-12)


class TestGenericClosure:
    def test_basis_is_orthonormal_and_traceless(self):
        basis = _dense_basis(3)
        assert len(basis) == 8
        for i, x in enumerate(basis):
            assert abs(np.trace(x)) < 1e-14
            for j, y in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert np.trace(x @ y).real == pytest.approx(expected, abs=1e-13)

    def test_reconstructs_mean_field_bracket(self, rng, sx, sz):
        # The generic path recovers the differential up to its identity
        # component, which no bracket can see.
        closed = mean_field(sx, sz, 1.0)
        generic = from_value(
            lambda m: float((np.trace(m @ SIGMA_X) + 0.5 * np.trace(m @ SIGMA_Z) ** 2).real),
            dim=2, label="generic")
        probe = linear(random_hermitian(rng, 2))
        for _ in range(5):
            rho = random_density(rng, 2)
            assert generic.value(rho) == pytest.approx(closed.value(rho), abs=1e-14)
            assert poisson_bracket(generic, probe, rho) == pytest.approx(
                poisson_bracket(closed, probe, rho), abs=1e-7)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_probes_are_the_state_plus_and_minus_a_scaled_basis_matrix(self, rng, dim):
        # Per generator call, 2 (d^2 - 1) evaluations, at m + step X_k and
        # m - step X_k in turn, with the bytes of those expressions but one:
        # where X_k is zero, m + step X_k adds +0.0 and so turns a -0.0 of m
        # into +0.0, while the probe, which writes only the entries X_k
        # touches, keeps it.
        seen = []

        def fn(m):
            seen.append(m.copy())
            return float(np.trace(m).real)

        m = random_density(rng, dim).matrix
        signed = m.copy()
        signed[0, 0] = complex(m[0, 0].real, -0.0)   # only the diagonal levels touch it
        for state, moved in ((m, 0), (signed, dim * (dim - 1))):
            seen.clear()
            from_value(fn, dim).generator(state)
            expected = [probe for x in _dense_basis(dim)
                        for probe in (state + GENERIC_FD_STEP * x, state - GENERIC_FD_STEP * x)]
            assert len(seen) == len(expected) == 2 * (dim * dim - 1)
            differ = 0
            for got, want in zip(seen, expected):
                assert np.array_equal(got, want)
                if got.tobytes() != want.tobytes():
                    differ += 1
                    assert math.copysign(1.0, want[0, 0].imag) == 1.0
                    want[0, 0] = complex(want[0, 0].real, -0.0)
                    assert got.tobytes() == want.tobytes()
            # The plus probe along each of the d (d - 1) off-diagonal matrices.
            assert differ == moved

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_probes_and_differential_are_the_entry_loops_bit_for_bit(self, rng, dim):
        a, b = random_hermitian(rng, dim).matrix, random_hermitian(rng, dim).matrix
        seen = {"probes": [], "reference": []}

        def recording(key):
            def fn(m):
                seen[key].append(m.tobytes())
                return np.trace(m @ a).real + 0.5 * np.trace(m @ b).real ** 2
            return fn

        h = from_value(recording("probes"), dim)
        for _ in range(3):
            m = random_density(rng, dim).matrix.copy()
            m[0, 1] = complex(-0.0, m[0, 1].imag)
            d, d_ref = h.generator(m), _entry_loop(recording("reference"), m)
            assert d.tobytes() == d_ref.tobytes()
        assert seen["probes"] == seen["reference"]

    def test_building_at_max_dim_raises_peak_rss_by_under_one_megabyte(self):
        script = (
            "import resource\n"
            "from eqm_lab.hamiltonians import from_value\n"
            "from_value(lambda m: 0.0, 2).generator(__import__('numpy').eye(2) / 2)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            f"h = from_value(lambda m: 0.0, {MAX_DIM})\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        rise_kb = int(subprocess.run([sys.executable, "-c", script], check=True, text=True,
                                     capture_output=True,
                                     env={**os.environ, "PYTHONPATH": src}).stdout)
        assert rise_kb < 1024

    def test_memory_stays_quadratic_in_the_dimension(self):
        # Building from_value at MAX_DIM and one generator call; a dense
        # basis of MAX_DIM^2 - 1 matrices alone would take 268 MB.
        tracemalloc.start()
        try:
            h = from_value(lambda m: 0.0, MAX_DIM)
            d = h.generator(np.eye(MAX_DIM, dtype=complex) / MAX_DIM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not d.any()
        assert peak < 4e6

    def test_building_at_max_dim_holds_no_basis(self):
        # The built function keeps fn and a few constants; each generator call
        # walks the basis afresh.  A table of the diagonal levels alone took
        # 156 KB at MAX_DIM.
        tracemalloc.start()
        try:
            h = from_value(lambda m: 0.0, MAX_DIM)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert h.dim == MAX_DIM
        assert held < 16 * 1024

    def test_probe_values_and_differential_at_max_dim_are_the_entry_loop(self, rng):
        # The bit-for-bit probe test above stores every probe; at MAX_DIM a
        # cheap fingerprint of each probe stands in for its bytes.
        w = rng.normal(size=MAX_DIM * MAX_DIM) + 1j * rng.normal(size=MAX_DIM * MAX_DIM)
        seen = {"probes": [], "reference": []}

        def fingerprint(key):
            def fn(m):
                x = (m.ravel() @ w).real
                seen[key].append(x + 0.3 * x * x)
                return seen[key][-1]
            return fn

        h = from_value(fingerprint("probes"), MAX_DIM)
        for _ in range(2):
            m = random_density(rng, MAX_DIM).matrix.copy()
            m[0, 1] = complex(-0.0, m[0, 1].imag)
            d, d_ref = h.generator(m), _entry_loop(fingerprint("reference"), m)
            assert d.tobytes() == d_ref.tobytes()
        assert len(seen["probes"]) == 4 * (MAX_DIM * MAX_DIM - 1)
        assert seen["probes"] == seen["reference"]

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_differential_is_the_weighted_basis_sum_and_exactly_hermitian(self, rng, dim):
        # The reference: one slope per dense basis matrix, summed direction by
        # direction.  The generator adds each slope into its nonzero entries only.
        a, b = random_hermitian(rng, dim).matrix, random_hermitian(rng, dim).matrix

        def fn(m):
            return float((np.trace(m @ a) * np.trace(m @ b) ** 2).real)

        h = from_value(fn, dim)
        for _ in range(10):
            m = random_density(rng, dim).matrix
            reference = np.zeros((dim, dim), dtype=complex)
            for x in _dense_basis(dim):
                step = GENERIC_FD_STEP * x
                reference += (fn(m + step) - fn(m - step)) / (2.0 * GENERIC_FD_STEP) * x
            d = h.generator(m)
            assert max_abs(d - reference) <= 4e-16 * max_abs(d)
            assert np.array_equal(d, d.conj().T)


def _families(rng, dim):
    """One function of every built-in family at dimension dim."""
    a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
    mf = mean_field(a, b, 0.7)
    # A cubic trace functional: Tr(rho A) Tr(rho B)^2.
    cubic = from_value(lambda m: float((np.trace(m @ a.matrix)
                                        * np.trace(m @ b.matrix) ** 2).real), dim=dim)
    return {
        "linear": linear(a),
        "mean_field": mf,
        "polynomial": polynomial([(0.8, (a, b)), (-0.3, (b, b, a)), (1.5, ())]),
        "from_value": cubic,
        "shift_differential": shift_differential(mf, 2.5),
    }


class TestArrayGenerator:
    def test_default_generator_goes_through_the_differential(self, sz, rng):
        seen = []

        def differential(rho):
            seen.append(rho)
            return sz

        h = HamiltonianFunction(value=lambda rho: 0.0, differential=differential)
        m = random_density(rng, 2).matrix
        assert h.generator(m) is sz.matrix
        assert isinstance(seen[0], DensityMatrix)
        np.testing.assert_array_equal(seen[0].matrix, m)
        with pytest.raises(ValueError, match="unit trace"):
            h.generator(2.0 * m)

    @pytest.mark.parametrize("dim", [2, 4, 16, MAX_DIM])
    def test_differential_is_the_validated_generator(self, rng, dim):
        rho = random_density(rng, dim)
        for name, h in _families(rng, dim).items():
            op = h.differential(rho)
            assert isinstance(op, HermitianOperator), name
            assert not op.matrix.flags.writeable, name
            assert np.array_equal(op.matrix, h.generator(rho.matrix)), (name, dim)

    def test_derived_differential_rejects_a_non_hermitian_generator(self, qubit_up):
        h = HamiltonianFunction(value=lambda rho: 0.0,
                                generator=lambda m: np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="not Hermitian"):
            h.differential(qubit_up)

    def test_needs_a_differential_or_a_generator(self):
        with pytest.raises(ValueError, match="'empty' needs a differential or a generator"):
            HamiltonianFunction(value=lambda rho: 0.0, label="empty")

    @pytest.mark.parametrize("family", ["linear", "mean_field", "polynomial"])
    def test_built_from_a_differential_integrates_bit_identically(self, rng, family):
        # The form a wrapper that sees only the public fields builds: value,
        # differential and label, so the generator is the adapter.  The
        # rebuilt linear function is unmarked, so it steps where linear(a)
        # takes the closed form: the two agree to rounding (4.4e-15 here).
        h = _families(rng, 4)[family]
        rebuilt = HamiltonianFunction(value=h.value, differential=h.differential, label=h.label)
        rho = random_density(rng, 4)
        cfg = IntegratorConfig(dt=0.01, t_final=0.05)
        bound = 1e-14 if family == "linear" else 0.0
        for t in (0.05, -0.037):
            (rho_a, u_a), (rho_b, u_b) = (propagate(g, rho, t, cfg) for g in (h, rebuilt))
            assert max_abs(rho_a.matrix - rho_b.matrix) <= bound, (family, t)
            assert max_abs(u_a.matrix - u_b.matrix) <= bound, (family, t)

    def test_non_finite_closure_fails_inside_propagate(self, qubit_up):
        h = from_value(lambda m: float("nan"), dim=2, label="broken")
        cfg = IntegratorConfig(dt=0.01, t_final=0.1)
        message = "generator of 'broken' gave a non-finite matrix at step 1, t = 0 to 0.01"
        with pytest.raises(GeneratorError, match=f"^{re.escape(message)}$"):
            propagate(h, qubit_up, 0.1, cfg)


class TestPolynomialPairing:
    @staticmethod
    def _terms(rng, dim):
        a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
        return [(1.0, (a,)), (0.5, (b, b)), (0.25, (a, b))]

    def test_each_distinct_factor_is_paired_once(self, rng):
        # The pairings are the entries of one product with the flattened state
        # matrix.  A state of this subclass outranks the stacked factors, so
        # each product it enters is created as the subclass and recorded
        # with its shape; views such as ravel and .real have a base and are
        # not.  A second product, or a product with one row per factor
        # appearance, fails the count.
        seen = []

        class Counted(np.ndarray):
            __array_priority__ = 100.0

            def __array_finalize__(self, obj):
                if self.base is None:
                    seen.append(self.shape)

        h = polynomial(self._terms(rng, 4))
        for calls in (1, 2):
            h.generator(random_density(rng, 4).matrix.view(Counted))
            assert seen == [(2,)] * calls

    def test_endpoints_match_pairing_every_factor(self, rng):
        # The reference pairs a factor again in every term it appears in, and
        # keeps the order of the arithmetic: pairings are rows of the product
        # of the stacked transposed factors with the flattened state (a lone
        # one-row product can round differently), partials follow the product
        # rule term by term into one weight per distinct factor, and D is the
        # weighted sum of the stacked factors.
        for dim in (2, 4, 16):
            terms = self._terms(rng, dim)
            a, b = terms[0][1][0], terms[1][1][0]
            row = {id(a): 0, id(b): 1}
            stack = np.array([a.matrix.ravel(), b.matrix.ravel()])
            stack_t = np.array([a.matrix.T.ravel(), b.matrix.T.ravel()])

            def generator(m):
                weights = [0.0, 0.0]
                for coeff, factors in terms:
                    pairings = [(stack_t @ m.ravel()).real[row[id(f)]] for f in factors]
                    for j, f in enumerate(factors):
                        partial = coeff
                        for i, p in enumerate(pairings):
                            if i != j:
                                partial *= p
                        weights[row[id(f)]] += partial
                return (np.array(weights) @ stack).reshape(m.shape)

            h = polynomial(terms)
            reference = HamiltonianFunction(h.value, h.differential, generator=generator)
            rho = random_density(rng, dim)
            cfg = IntegratorConfig(dt=0.01, t_final=0.05)
            (rho_a, u_a), (rho_b, u_b) = (propagate(g, rho, 0.05, cfg) for g in (h, reference))
            assert np.array_equal(rho_a.matrix, rho_b.matrix), dim
            assert np.array_equal(u_a.matrix, u_b.matrix), dim


def _pairing_by_traces(terms):
    """D by the product rule, with every pairing read as (m @ F).trace().real."""
    def generator(m):
        out = np.zeros_like(m)
        for coeff, factors in terms:
            pairings = [(m @ f.matrix).trace().real for f in factors]
            for j, f in enumerate(factors):
                partial = coeff
                for i, p in enumerate(pairings):
                    if i != j:
                        partial *= p
                out = out + partial * f.matrix
        return out
    return generator


class TestPairingAgainstTraces:
    DIMS = [2, 3, 4, 16, MAX_DIM]

    @staticmethod
    def _cases(rng, dim):
        """(function, reference generator) per family.  In the polynomial, b
        repeats within a term and a and b across terms, between constants."""
        a, b, c = (random_hermitian(rng, dim) for _ in range(3))
        terms = [(0.8, (a, b)), (1.5, ()), (-0.3, (b, b, a)), (0.6, (c,)), (-2.0, ())]
        return {
            "mean_field": (mean_field(a, b, 0.7),
                           lambda m: a.matrix + 0.7 * (m @ b.matrix).trace().real * b.matrix),
            "polynomial": (polynomial(terms), _pairing_by_traces(terms)),
        }

    @pytest.mark.parametrize("dim", DIMS)
    def test_generators_match_trace_pairings_to_rounding(self, rng, dim):
        m = random_density(rng, dim).matrix
        for name, (h, reference) in self._cases(rng, dim).items():
            expected = reference(m)
            assert max_abs(h.generator(m) - expected) <= 1e-14 * max_abs(expected), (name, dim)

    @pytest.mark.parametrize("dim", DIMS)
    def test_non_contiguous_states_give_the_bits_of_their_copies(self, rng, dim):
        m = random_density(rng, dim).matrix
        for name, (h, _) in self._cases(rng, dim).items():
            for state in (np.asfortranarray(m), m.T):
                assert not state.flags.c_contiguous
                copy = np.ascontiguousarray(state)
                assert np.array_equal(h.generator(state), h.generator(copy)), (name, dim)

    def test_factories_carry_the_dimension_of_their_operators(self, rng):
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        carried = {
            "linear": linear(a), "mean_field": mean_field(a, b, 0.5),
            "polynomial": polynomial([(1.0, (a, b)), (2.0, ())]),
            "from_value": from_value(lambda m: 0.0, 3),
            "shift": shift_differential(mean_field(a, b, 0.5), 1.0),
        }
        assert {name: h.dim for name, h in carried.items()} == dict.fromkeys(carried, 3)
        assert polynomial([(1.0, ())]).dim is None

    @pytest.mark.parametrize("dim", [0, True, 2.0])
    def test_a_hand_built_dimension_is_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match=rf"^dim must be an integer of at least 1, got {dim}$"):
            HamiltonianFunction(value=lambda rho: 0.0, generator=lambda m: m, dim=dim)

    def test_numpy_integer_dimensions_pass_and_a_float_does_not(self):
        assert HamiltonianFunction(value=lambda rho: 0.0, generator=lambda m: m,
                                   dim=np.int64(4)).dim == 4
        assert from_value(lambda m: 0.0, np.int64(4)).dim == 4
        with pytest.raises(ValueError, match=rf"^dim must be an integer in \[2, {MAX_DIM}\], "
                                             r"got 4\.0$"):
            from_value(lambda m: 0.0, 4.0)

    @pytest.mark.parametrize("family", ["mean_field", "polynomial"])
    def test_factors_of_another_dimension_fail_inside_propagate(self, rng, family):
        # Rejected before the first step, so the generator never runs.
        h, _ = self._cases(rng, 2)[family]
        calls = []
        counted = dataclasses.replace(h, generator=lambda m: calls.append(m) or h.generator(m))
        rho, cfg = random_density(rng, 4), IntegratorConfig(dt=0.01, t_final=0.05)
        message = (rf"^Hamiltonian function '{family}' acts on dimension 2, "
                   r"the state has dimension 4$")
        for run in (lambda: propagate(counted, rho, 0.05, cfg),
                    lambda: propagate(counted, rho, -0.05, cfg),
                    lambda: evolve(counted, rho, cfg)):
            with pytest.raises(ValueError, match=message):
                run()
        assert calls == []


def _orbit_residuals(h, value, states, directions):
    """The worst orbit-curve residual of each differential of h, by its source.

    For each state rho and Hermitian X: the central difference
    (h(e^{-ieX} rho e^{ieX}) - h(e^{ieX} rho e^{-ieX})) / 2e of value against
    -i Tr(D(rho) [X, rho]).  D comes from h.generator, and also from h.split
    (D = A + s Tr(rho B) B) when h carries one, since the split step never
    calls the generator.  The exponentials take their own eigh.
    """
    rotations = []
    for x in directions:
        w, v = np.linalg.eigh(x)
        rotations.append((x, *((v * np.exp(sign * 1j * ORBIT_EPS * w)) @ v.conj().T
                               for sign in (-1, 1))))
    worst = {}
    for rho in states:
        differentials = {"generator": h.generator(rho)}
        if h.split is not None:
            a, b, strength = h.split
            differentials["split"] = a + strength * np.trace(rho @ b).real * b
        for x, forward, backward in rotations:
            slope = (value(DensityMatrix(forward @ rho @ forward.conj().T))
                     - value(DensityMatrix(backward @ rho @ backward.conj().T))) / (2 * ORBIT_EPS)
            for source, d in differentials.items():
                predicted = (-1j * np.trace(d @ (x @ rho - rho @ x))).real
                worst[source] = max(worst.get(source, 0.0), abs(slope - predicted))
    return worst


class TestCorpusGeneratorsFollowTheirValues:
    """Each corpus flow's D is the differential of its h along orbit curves.

    Every suite row holds for any Hermitian generator field, so a generator
    that disagrees with its value passes them all; this ties the two
    together.  The states are the flow's records at dt = 1e-2.
    """

    @staticmethod
    def _flow(scenario):
        cfg = with_dt(build_config(FLOW_DOCUMENTS[scenario]), 1e-2)
        records = evolve(cfg.hamiltonian, cfg.initial_state, cfg.integrator).rho
        rng = np.random.default_rng(20)
        directions = [random_hermitian(rng, cfg.hamiltonian.dim).matrix for _ in range(3)]
        return cfg.hamiltonian, records, directions

    @pytest.mark.parametrize("scenario", FLOW_DOCUMENTS)
    def test_generator_is_the_differential_of_the_value(self, scenario):
        h, records, directions = self._flow(scenario)
        worst = _orbit_residuals(h, h.value, records, directions)
        assert max(worst.values()) <= ORBIT_BOUND, worst

    @pytest.mark.parametrize("factor", [1 + 1e-6, 2.0, -1.0], ids=["1+1e-6", "x2", "sign"])
    @pytest.mark.parametrize("scenario", MEAN_FIELDS)
    def test_a_wrong_coupling_is_caught(self, scenario, factor):
        # The coupling s of the generator and the split scaled by factor, the
        # value left alone: the negative control of the bound.
        h, records, directions = self._flow(scenario)
        a, b, strength = h.split
        wrong = mean_field(HermitianOperator(a), HermitianOperator(b), strength * factor,
                           split=True)
        worst = _orbit_residuals(wrong, h.value, records, directions)
        assert min(worst.values()) > ORBIT_BOUND, worst
