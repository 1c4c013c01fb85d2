"""Linear flows over 1e6 steps, integrated in closed form at their records.

Not part of Tier-1 (``testpaths`` lists only ``tests``); run with

    PYTHONPATH=src python -m pytest longrun

It takes about 2 s, most of it in the checks of the d = 64 records: the
closed form costs per record, not per step.
"""

import math

import numpy as np
import pytest

from eqm_lab.config import DEFAULT_THRESHOLDS
from eqm_lab.flow import IntegratorConfig, evolve
from eqm_lab.hamiltonians import linear
from eqm_lab.hilbert import MAX_DIM, DensityMatrix, HermitianOperator

DT, STEPS, STRIDE = 1e-3, 1_000_000, 10_000
# |Tr(rho_t A) - Tr(rho_0 A)|: Tr(rho A) is conserved exactly by a linear
# flow.  Measured: 5.6e-16 at d = 4 and 1.6e-16 at d = 64.
ENERGY_DRIFT = 1e-13


@pytest.mark.parametrize("dim", [4, MAX_DIM])
def test_a_million_linear_steps_keep_their_invariants(dim):
    # Operators of spectral radius ~2 and a random mixed state, as in the
    # midpoint long runs.
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = linear(HermitianOperator((g + g.conj().T) / (2.0 * math.sqrt(dim))))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mixed = g @ g.conj().T
    rho0 = DensityMatrix(mixed / np.trace(mixed).real)
    traj = evolve(h, rho0, IntegratorConfig(dt=DT, t_final=STEPS * DT, record_stride=STRIDE))
    assert len(traj.times) == STEPS // STRIDE + 1
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
    assert max(abs(e - energy[0]) for e in energy) <= ENERGY_DRIFT
