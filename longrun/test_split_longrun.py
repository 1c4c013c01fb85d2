"""Split steps at d = 4 chained past config.SPLIT_MAX_STEPS, the longest leg one run splits.

Not part of Tier-1 (``testpaths`` lists only ``tests``); run with

    PYTHONPATH=src python -m pytest longrun

It takes about 0.3 s.
"""

import numpy as np

from eqm_lab.config import DEFAULT_THRESHOLDS, SPLIT_MAX_STEPS
from eqm_lab.flow import IntegratorConfig, evolve
from eqm_lab.hamiltonians import mean_field
from eqm_lab.hilbert import TRACE_TOL, DensityMatrix, HermitianOperator
from eqm_lab.runner import four_level_ops

DT, LEGS, STRIDE = 1e-3, 4, 100
ENERGY_DRIFT = 1e-7  # 4.3e-8 measured; the midpoint step reads 2.7e-8 here


def test_chained_split_legs_keep_their_invariants():
    """The conservation-mean-field-n4 flow, split, in four legs of 5000 steps of 1e-3.

    The split step conjugates by the same cached exp(-i dt/2 A) every step,
    so its rounding adds up instead of averaging out, and it goes on adding
    up from one leg to the next.  Measured on this flow (numpy 2.4.6): the
    trace defect grows by ~1.6e-15 a step, 1.6e-11 at step 1e4 and 3.2e-11 at
    2e4.  It passes the trace row's threshold DEFAULT_THRESHOLDS["trace"] =
    1e-11 at step 6542, and hilbert.TRACE_TOL = 5e-11 at step 31445, so a
    chain of seven such legs raises StateError ("unit trace") in its last.
    A scenario splits only if its longest leg is at most SPLIT_MAX_STEPS =
    5000 steps, and takes the midpoint on every run otherwise, which keeps
    the trace defect at 2.9e-13 over the same 2e4 steps.  So the trace
    monitor is held to TRACE_TOL here and the other four to the suite's
    thresholds.
    """
    ladder, diagonal = (HermitianOperator(m) for m in four_level_ops())
    h = mean_field(ladder, diagonal, 1.0, split=True)
    rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    cfg = IntegratorConfig(dt=DT, t_final=SPLIT_MAX_STEPS * DT, record_stride=STRIDE)
    bounds = dict(DEFAULT_THRESHOLDS, trace=TRACE_TOL)
    energy0, drift = h.value(rho), 0.0
    for leg in range(LEGS):
        traj = evolve(h, rho, cfg)
        assert len(traj.times) == SPLIT_MAX_STEPS // STRIDE + 1
        monitors = {
            "unitarity": traj.max_unitarity_defect(),
            "cocycle": traj.max_cocycle_defect(),
            "spectrum_drift": traj.max_spectrum_drift(),
            "trace": traj.max_trace_defect(),
            "purity_drift": traj.max_purity_drift(),
        }
        over = {name: value for name, value in monitors.items() if not value <= bounds[name]}
        assert not over, (leg, over)
        drift = max(drift, *(abs(h.value(state) - energy0) for state in traj.states))
        rho = traj.states[-1]
    assert drift <= ENERGY_DRIFT
