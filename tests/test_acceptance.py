"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance below is pinned; the frozen Wigner deviation value was
established with a step-refined rerun (dt 5e-4) against the closed-form
overlap curve of the pure-precession flow.
"""

import math

import numpy as np

from eqm_lab.flow import IntegratorConfig, convergence_order, evolve, wigner_deviation
from eqm_lab.hamiltonians import linear, mean_field, polynomial, shift_differential
from eqm_lab.hilbert import (
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    commutator,
    max_abs,
    projector,
    trace_pairing,
    unitary_exponential,
)
from eqm_lab.koopman import (
    HarmonicOscillator,
    Quadrature,
    builtin_observable,
    classical_hamiltonian,
    gaussian_observable,
    liouville_generator_residual,
    unitarity_residual,
)
from eqm_lab.config import DEFAULT_GENERATOR_POINTS
from eqm_lab.observables import (
    StateMeasure,
    conservation_residual,
    constant_observable,
    expectation,
    heisenberg_transform,
    pushforward_state,
    trace_scaled_observable,
)
from eqm_lab.runner import four_level_ops
from conftest import (
    random_density,
    random_hermitian,
    random_interior_density,
    random_traceless_hermitian,
)

# Frozen regression value for criterion 4 (see module docstring).
WIGNER_DEVIATION_FROZEN = 0.198669320388
WIGNER_DEVIATION_TOL = 1e-6

SX = HermitianOperator(SIGMA_X)
SZ = HermitianOperator(SIGMA_Z)
UP = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
A4, B4 = (HermitianOperator(m) for m in four_level_ops())
RHO4 = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))


def _report(capsys, number, name, detail, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:02d} {name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_01_linear_limit_matches_exact_propagator(capsys):
    rng = np.random.default_rng(101)
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=100)
    worst = 0.0
    for dim in (2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8):
        h_op = random_hermitian(rng, dim)
        rho0 = random_density(rng, dim)
        traj = evolve(linear(h_op), rho0, cfg)
        for t, state in zip(traj.times, traj.states):
            u = unitary_exponential(h_op, t)
            exact = u.matrix @ rho0.matrix @ u.matrix.conj().T
            worst = max(worst, max_abs(state.matrix - exact))
    _report(capsys, 1, "linear-limit-oracle",
            f"20 runs (N in 2/4/8), max defect {worst:.3e} vs 1e-8", worst <= 1e-8)


def test_02_cocycle_structure(capsys):
    cfg = IntegratorConfig(dt=1e-3, t_final=5.0, record_stride=50)
    worst_u = worst_c = worst_s = 0.0
    for h, rho0 in ((mean_field(SX, SZ, 1.0), UP),
                    (mean_field(A4, B4, 1.0), RHO4)):
        traj = evolve(h, rho0, cfg)
        worst_u = max(worst_u, traj.max_unitarity_defect())
        worst_c = max(worst_c, traj.max_cocycle_defect())
        worst_s = max(worst_s, traj.max_spectrum_drift())
    ok = worst_u <= 1e-10 and worst_c <= 1e-10 and worst_s <= 1e-9
    _report(capsys, 2, "cocycle-structure",
            f"unitarity {worst_u:.3e}<=1e-10, realization {worst_c:.3e}<=1e-10, "
            f"spectrum {worst_s:.3e}<=1e-9 over t<=5", ok)


def test_03_conservation_identity_grid(capsys):
    cfg = IntegratorConfig(dt=1e-3, t_final=5.0)
    cases = {
        2: (UP, (linear(SZ), mean_field(SX, SZ, 1.0)),
            (constant_observable(SX), trace_scaled_observable(SZ, SX))),
        4: (RHO4, (linear(A4), mean_field(A4, B4, 1.0)),
            (constant_observable(B4), trace_scaled_observable(B4, A4))),
    }
    worst, count = 0.0, 0
    for dim, (rho0, hams, obs) in cases.items():
        for h in hams:
            for f in obs:
                for t in (0.5, 1.0, 2.0, 5.0):
                    worst = max(worst, conservation_residual(f, h, rho0, t, cfg))
                    count += 1
    _report(capsys, 3, "nonlinear-conservation",
            f"{count} residuals on the corpus grid, worst {worst:.3e} vs 1e-8",
            worst <= 1e-8)


def test_04_wigner_contrast(capsys):
    h = mean_field(HermitianOperator(np.zeros((2, 2))), SZ, 1.0)
    tilted = projector(StateVector(np.array([math.cos(0.1), math.sin(0.1)])))
    plus = projector(StateVector(np.array([1.0, 1.0]) / np.sqrt(2)))
    cfg = IntegratorConfig(dt=1e-3, t_final=5.0, record_stride=1)
    deviation, t_at = wigner_deviation(h, tilted, plus, cfg)
    regression = abs(deviation - WIGNER_DEVIATION_FROZEN)
    worst_cons = max(
        conservation_residual(f, h, tilted, t, cfg)
        for f in (constant_observable(SX), trace_scaled_observable(SZ, SX))
        for t in (0.5, 1.0, 2.0, 5.0)
    )
    ok = deviation >= 0.01 and regression <= WIGNER_DEVIATION_TOL and worst_cons <= 1e-8
    _report(capsys, 4, "wigner-contrast",
            f"overlap deviation {deviation:.9f} (>=0.01, frozen {WIGNER_DEVIATION_FROZEN}"
            f"+-{WIGNER_DEVIATION_TOL:g}) at t={t_at:.3f} while conservation residual "
            f"{worst_cons:.3e}<=1e-8", ok)


def test_05_bracket_algebra(capsys):
    from eqm_lab.hamiltonians import poisson_bracket

    rng = np.random.default_rng(505)
    worst_anti = worst_hom = worst_jac = 0.0
    for _ in range(200):
        a, b, c = (random_hermitian(rng, 4) for _ in range(3))
        rho = random_density(rng, 4)
        ha, hb = linear(a), linear(b)
        forward = poisson_bracket(ha, hb, rho)
        worst_anti = max(worst_anti, abs(forward + poisson_bracket(hb, ha, rho)))
        worst_hom = max(worst_hom, abs(
            forward - trace_pairing(rho, HermitianOperator(1j * commutator(a, b)))))

        def bracket_fn(x, y):
            return linear(HermitianOperator(1j * commutator(x, y)))

        jacobi = (poisson_bracket(ha, bracket_fn(b, c), rho)
                  + poisson_bracket(hb, bracket_fn(c, a), rho)
                  + poisson_bracket(linear(c), bracket_fn(a, b), rho))
        worst_jac = max(worst_jac, abs(jacobi))
    ok = worst_anti <= 1e-12 and worst_hom <= 1e-12 and worst_jac <= 1e-11
    _report(capsys, 5, "bracket-algebra",
            f"200 instances at N=4: antisymmetry {worst_anti:.3e}<=1e-12, "
            f"homomorphism {worst_hom:.3e}<=1e-12, Jacobi {worst_jac:.3e}<=1e-11", ok)


def test_06_differential_validation(capsys):
    from eqm_lab.hamiltonians import fd_differential_residual

    rng = np.random.default_rng(606)
    families = {
        "linear": lambda: linear(random_hermitian(rng, 4)),
        "mean_field": lambda: mean_field(random_hermitian(rng, 4),
                                         random_hermitian(rng, 4),
                                         float(rng.normal())),
        "polynomial": lambda: polynomial([
            (float(rng.normal()), tuple(random_hermitian(rng, 4) for _ in range(3))),
            (float(rng.normal()), (random_hermitian(rng, 4),)),
        ]),
    }
    worst = {}
    for name, make in families.items():
        bound = 0.0
        for _ in range(100):
            h = make()
            rho = random_interior_density(rng, 4, mix=0.5)
            delta = random_traceless_hermitian(rng, 4, scale=0.2)
            residual = fd_differential_residual(h, rho, delta, 1e-4)
            bound = max(bound, residual / (1.0 + abs(h.value(rho))))
        worst[name] = bound
    ok = all(v <= 1e-6 for v in worst.values())
    detail = ", ".join(f"{k} {v:.3e}" for k, v in worst.items())
    _report(capsys, 6, "differential-validation",
            f"100 pairs per family, relative residuals: {detail} (<=1e-6)", ok)


def test_07_gauge_invariance(capsys):
    h = mean_field(SX, SZ, 1.0)
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=20)
    base = evolve(h, UP, cfg)
    worst_state = worst_phase = 0.0
    for c in (-10.0, 1.0, 10.0):
        shifted = evolve(shift_differential(h, c), UP, cfg)
        worst_state = max(worst_state, max(
            max_abs(s.matrix - b.matrix) for s, b in zip(shifted.states, base.states)))
        worst_phase = max(worst_phase, max(
            max_abs(us.matrix - np.exp(-1j * c * t) * ub.matrix)
            for t, us, ub in zip(base.times, shifted.cocycle, base.cocycle)))
    ok = worst_state <= 1e-10 and worst_phase <= 1e-9
    _report(capsys, 7, "gauge-invariance",
            f"c in {{-10, 1, 10}}: state defect {worst_state:.3e}<=1e-10, "
            f"phase defect {worst_phase:.3e}<=1e-9", ok)


def test_08_integrator_order(capsys):
    estimate = convergence_order(mean_field(SX, SZ, 1.0), UP, t_final=1.0, dt=0.01)
    ok = (not estimate.exact) and 1.8 <= estimate.order <= 2.2
    _report(capsys, 8, "integrator-order",
            f"self-convergence order {estimate.order:.4f} in [1.8, 2.2]", ok)


def test_09_duality(capsys):
    cfg = IntegratorConfig(dt=1e-3, t_final=2.0)
    plus = projector(StateVector(np.array([1.0, 1.0]) / np.sqrt(2)))
    omega = StateMeasure(support=(UP, plus), weights=np.array([0.25, 0.75]))
    worst = 0.0
    for h in (linear(SZ), mean_field(SX, SZ, 1.0)):
        for f in (constant_observable(SX), trace_scaled_observable(SZ, SX)):
            for t in (0.5, 1.0, 2.0):
                lhs = expectation(pushforward_state(omega, h, t, cfg), f)
                rhs = expectation(omega, heisenberg_transform(f, h, t, cfg))
                worst = max(worst, abs(lhs - rhs))
    _report(capsys, 9, "state-observable-duality",
            f"two-point measures over the f/h/t grid, worst gap {worst:.3e} vs 1e-8",
            worst <= 1e-8)


def test_10_koopman_unitarity_and_generator(capsys):
    flow = HarmonicOscillator(omega=1.0)
    quad = Quadrature.gauss_legendre()
    f = gaussian_observable(center=(0.3, 0.0), width=0.9)
    g = gaussian_observable(center=(0.0, -0.2), width=0.9)
    worst_unit = max(unitarity_residual(f, g, flow, t, quad) for t in (0.5, 1.0, math.pi))
    energy = classical_hamiltonian(flow)
    observables = [builtin_observable(n) for n in ("q", "p", "q2")] + [gaussian_observable()]
    worst_gen = max(
        liouville_generator_residual(obs, flow, energy, point, 1e-3)
        for point in DEFAULT_GENERATOR_POINTS
        for obs in observables
    )
    ok = worst_unit <= 1e-6 and worst_gen <= 1e-5
    _report(capsys, 10, "koopman-unitarity",
            f"composition unitarity {worst_unit:.3e}<=1e-6 (t in 0.5/1/pi), "
            f"generator residual {worst_gen:.3e}<=1e-5 at 10 points", ok)
