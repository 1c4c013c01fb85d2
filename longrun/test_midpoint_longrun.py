"""Long-run invariants of the nonlinear integrator, beyond the corpus's 1e3 to 1e4 steps.

Not part of Tier-1 (``testpaths`` lists only ``tests``); run with

    PYTHONPATH=src python -m pytest longrun

It takes about 15 to 20 s on one core.
"""

import numpy as np

from eqm_lab.config import DEFAULT_THRESHOLDS
from eqm_lab.flow import IntegratorConfig, evolve
from eqm_lab.hamiltonians import mean_field
from eqm_lab.hilbert import DensityMatrix, HermitianOperator
from eqm_lab.runner import four_level_ops

STEPS = 100_000
DT = 1e-3
ENERGY_DRIFT = 1e-7  # second order in dt for a correct generator, O(1) for a wrong one


def test_mean_field_four_level_keeps_its_invariants():
    # The Hamiltonian and initial state of the conservation-mean-field-n4 scenario.
    ladder, diagonal = (HermitianOperator(m) for m in four_level_ops())
    h = mean_field(ladder, diagonal, 1.0)
    rho0 = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    traj = evolve(h, rho0, IntegratorConfig(dt=DT, t_final=STEPS * DT, record_stride=100))
    assert len(traj.times) == STEPS // 100 + 1
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
