"""Long-run invariants of the nonlinear integrator, beyond the corpus's 1e3 to 1e4 steps.

Not part of Tier-1 (``testpaths`` lists only ``tests``); run with

    PYTHONPATH=src python -m pytest longrun

It takes about 21 s on one core: ~6 s at d = 4 and ~14 s at d = 64.
"""

import math

import numpy as np

from eqm_lab.config import DEFAULT_THRESHOLDS
from eqm_lab.flow import IntegratorConfig, evolve
from eqm_lab.hamiltonians import mean_field
from eqm_lab.hilbert import MAX_DIM, POLYNOMIAL_MIN_DIM, DensityMatrix, HermitianOperator
from eqm_lab.runner import four_level_ops

DT = 1e-3
STRIDE = 100
# Energy drift bounds: second order in dt for a correct generator, far larger
# for a wrong one (twice the coupling: 0.12 at d = 4 and dt = 1e-2, 8e-5
# after 2e3 steps at d = 64).  Measured here with the correct generator:
# 2.7e-8 at d = 4 and 1.1e-10 at d = 64.
ENERGY_DRIFT = {4: 1e-7, MAX_DIM: 1e-9}


def _assert_invariants(h, rho0, steps):
    """Run steps of DT and check all five monitors and the energy drift."""
    traj = evolve(h, rho0, IntegratorConfig(dt=DT, t_final=steps * DT, record_stride=STRIDE))
    assert len(traj.times) == steps // STRIDE + 1
    monitors = {
        "unitarity": traj.max_unitarity_defect(),
        "cocycle": traj.max_cocycle_defect(),
        "spectrum_drift": traj.max_spectrum_drift(),
        "trace": traj.max_trace_defect(),
        "purity_drift": traj.max_purity_drift(),
    }
    over = {name: value for name, value in monitors.items()
            if not value <= DEFAULT_THRESHOLDS[name]}
    assert not over, over
    energy = [h.value(state) for state in traj.states]
    assert max(abs(e - energy[0]) for e in energy) <= ENERGY_DRIFT[rho0.dim]


def test_mean_field_four_level_keeps_its_invariants():
    # The Hamiltonian and initial state of the conservation-mean-field-n4 scenario.
    ladder, diagonal = (HermitianOperator(m) for m in four_level_ops())
    h = mean_field(ladder, diagonal, 1.0)
    rho0 = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    _assert_invariants(h, rho0, 100_000)


def test_mean_field_at_the_largest_dimension_keeps_its_invariants():
    # 1e4 steps at d = 64, every exponential on the Taylor path.  Operators with
    # spectral radius ~2 and a random mixed state, as in perfbench's long-flow.
    dim = MAX_DIM
    assert dim >= POLYNOMIAL_MIN_DIM
    rng = np.random.default_rng(64)

    def hermitian():
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return HermitianOperator((g + g.conj().T) / (2.0 * math.sqrt(dim)))

    a, b = hermitian(), hermitian()
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mixed = g @ g.conj().T
    rho0 = DensityMatrix(mixed / np.trace(mixed).real)
    _assert_invariants(mean_field(a, b, 1.0), rho0, 10_000)
