"""Machine-speed calibration for the end-to-end timings.

The reference machine shares its cores with other tenants, and its speed
drifts by up to about 25% over minutes: ten back-to-back `corpus-suite`
runs of unchanged code gave passes of 5.3 to 7.9 s.  Medians inside a run
cannot remove a drift that outlasts the run.  So after every timed call,
outside the timed region, the runner times a fixed kernel that does not
touch the package, for about SHARE of the call's length.  The raw seconds
of each call are multiplied by NOMINAL_S over the kernel time measured
around that call, and then read as seconds on the reference machine at its
nominal speed.  README.md gives the spreads with
and without the scaling.

The kernel mixes what the workloads do: many d = 4 eigendecompositions
with small matrix products (per-call overhead), a few d = 64 ones (LAPACK
time), and leapfrog-like updates of 4096-node arrays (the Koopman
quadrature).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.014  # typical kernel time on the reference machine
SHARE = 0.05       # kernel time per second of timed calls
MIN_SAMPLES = 2


def _hermitian(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g + g.conj().T


class Calibration:
    """A fixed kernel timed after each timed call, and the speed factors it gives."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = _hermitian(rng, 4)
        self.large = _hermitian(rng, 64)
        self.q, self.p = rng.normal(size=(2, 4096))
        self._previous = None  # median kernel time after the last call

    def _kernel(self) -> float:
        total = 0.0
        for mat, repeats in ((self.small, 120), (self.large, 4)):
            for _ in range(repeats):
                w, v = np.linalg.eigh(mat)
                u = (v * np.exp(-0.01j * w)) @ v.conj().T
                total += abs(complex(np.trace(u @ mat @ u.conj().T)))
        q, p = self.q, self.p
        for _ in range(40):
            p = p - 0.005 * np.sin(q)
            q = q + 0.01 * p
            total += float(np.sum(np.exp(-(q * q + p * p))))
        return total

    def follow(self, seconds: float) -> float:
        """Sample the kernel after a call of the given length; returns the
        call's speed factor.

        The factor is NOMINAL_S over the mean of two medians: of the samples
        taken just before the call (after the previous one) and of those just
        after it, which bracket the call.  The number of samples grows with
        the call, so kernel time stays near SHARE of the run.
        """
        times = []
        for _ in range(max(MIN_SAMPLES, round(SHARE * seconds / NOMINAL_S))):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        after = statistics.median(times)
        before = self._previous or after
        self._previous = after
        return NOMINAL_S / (0.5 * (before + after))
