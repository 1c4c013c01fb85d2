"""Nonlinear density-matrix flows realized through unitary cocycles.

The state evolves by conjugation, rho_t = u(t) rho_0 u(t)^dagger, where the
unitary family solves i du/dt = D(rho_t) u with u(0) = identity and D the
operator-valued differential of the generating Hamiltonian function.  One
step uses an exponential-midpoint rule: the generator is evaluated at a
self-consistent midpoint state found by fixed-point iteration, and the step
map exp(-i dt D_mid) is exactly unitary because D_mid is Hermitian.  Drift
in the structural invariants is monitored, never repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import HamiltonianFunction
from .hilbert import (
    DensityMatrix,
    PURITY_TOL,
    UnitaryOperator,
    expm_hermitian,
    max_abs,
    spectrum,
    transition_probability,
)

DEFAULT_MIDPOINT_TOL = 1e-12
DEFAULT_MIDPOINT_MAX_ITER = 50
EXACT_ERROR_FLOOR = 1e-12  # self-convergence errors below this count as exact


class ConvergenceError(RuntimeError):
    """Raised when the midpoint fixed-point iteration fails to settle; names the step and time.

    Built by ``at_step``: ``step`` counts from the start of the failing run,
    and ``start`` and ``end`` bound the failing step on that run's clock,
    which reads 0 at its start.
    """

    @classmethod
    def at_step(cls, max_iter: int, step: int, start: float, end: float,
                leg: str = "") -> "ConvergenceError":
        exc = cls(f"{leg}midpoint iteration did not settle within {max_iter} iterations "
                  f"at step {step}, t = {start:g} to {end:g} "
                  f"(dt = {end - start:g} is too large for this nonlinearity)")
        exc.max_iter, exc.step, exc.start, exc.end = max_iter, step, start, end
        return exc

    def on_leg(self, leg: str, origin: float) -> "ConvergenceError":
        """The same failure named by leg, on a clock that reads origin at the run's start."""
        return self.at_step(self.max_iter, self.step, origin + self.start, origin + self.end,
                            f"{leg}: ")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_final: float
    midpoint_tol: float = DEFAULT_MIDPOINT_TOL
    midpoint_max_iter: int = DEFAULT_MIDPOINT_MAX_ITER
    record_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final}")
        if self.t_final != 0 and self.dt > self.t_final * (1 + 1e-12):
            raise ValueError(f"dt = {self.dt:g} exceeds t_final = {self.t_final:g}")
        if self.midpoint_tol <= 0:
            raise ValueError("midpoint_tol must be positive")
        if int(self.midpoint_max_iter) < 1:
            raise ValueError("midpoint_max_iter must be at least 1")
        if int(self.record_stride) < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded flow: times, states rho_t, and the realizing unitaries u(t)."""

    times: tuple
    states: tuple
    cocycle: tuple

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.cocycle)):
            raise ValueError("times, states, and cocycle must have equal length")
        if len(self.times) == 0:
            raise ValueError("a trajectory holds at least the initial record")

    # Invariant monitors; all are worst-case values over the records.

    def max_unitarity_defect(self) -> float:
        dim = self.cocycle[0].dim
        eye = np.eye(dim)
        return max(max_abs(u.matrix.conj().T @ u.matrix - eye) for u in self.cocycle)

    def max_cocycle_defect(self) -> float:
        """Worst |rho_t - u rho_0 u_dagger| over the records."""
        rho0 = self.states[0].matrix
        return max(
            max_abs(state.matrix - u.matrix @ rho0 @ u.matrix.conj().T)
            for state, u in zip(self.states, self.cocycle)
        )

    def max_spectrum_drift(self) -> float:
        base = spectrum(self.states[0])
        return max(max_abs(spectrum(state) - base) for state in self.states)

    def max_trace_defect(self) -> float:
        return max(abs(complex(np.trace(state.matrix)) - 1.0) for state in self.states)

    def max_purity_drift(self) -> float:
        base = self.states[0].purity()
        return max(abs(state.purity() - base) for state in self.states)


def _split_steps(span: float, dt: float) -> tuple[int, float]:
    """Number of full steps of size dt covering span >= 0, plus the remainder."""
    n = int(math.floor(span / dt + 1e-9))
    rem = span - n * dt
    if rem < 1e-12 * max(1.0, span):
        rem = 0.0
    return n, rem


def _steps(h: HamiltonianFunction, rho: np.ndarray, span: float, cfg: IntegratorConfig):
    """Yield (k, time, rho, u) as arrays after each step k = 1, 2, ... of the signed span.

    Full steps of size cfg.dt come first; a shorter last step covers the
    remainder when span is not a multiple of dt.  Each step conjugates by
    exp(-i dt D_mid), with D_mid the differential at the self-consistent
    midpoint state, and extends the cocycle u by the same factor.
    """
    sign = 1.0 if span > 0 else -1.0
    n_full, rem = _split_steps(abs(span), cfg.dt)
    u = np.eye(rho.shape[0], dtype=complex)
    for k in range(1, n_full + (rem > 0.0) + 1):
        if k <= n_full:
            dt, time = sign * cfg.dt, sign * k * cfg.dt
        else:
            dt, time = sign * rem, span
        gen = h.differential(DensityMatrix(rho)).matrix
        for _ in range(int(cfg.midpoint_max_iter)):
            half = expm_hermitian(gen, 0.5 * dt)
            rho_mid = half @ rho @ half.conj().T
            refreshed = h.differential(DensityMatrix(rho_mid)).matrix
            if max_abs(refreshed - gen) < cfg.midpoint_tol:
                break
            gen = refreshed
        else:
            raise ConvergenceError.at_step(cfg.midpoint_max_iter, k, time - dt, time)
        stepper = expm_hermitian(refreshed, dt)
        rho = stepper @ rho @ stepper.conj().T
        u = stepper @ u
        yield k, time, rho, u


def evolve(h: HamiltonianFunction, rho0: DensityMatrix, cfg: IntegratorConfig) -> Trajectory:
    """Integrate from rho0 to cfg.t_final, recording every record_stride-th step.

    The final time is always recorded; a shorter last step is taken when
    t_final is not a multiple of dt.
    """
    stride = int(cfg.record_stride)
    records = [(0.0, rho0, UnitaryOperator(np.eye(rho0.dim, dtype=complex)))]
    k = 0
    for k, time, rho, u in _steps(h, rho0.matrix, cfg.t_final, cfg):
        if k % stride == 0:
            records.append((time, DensityMatrix(rho), UnitaryOperator(u)))
    if k % stride:
        records.append((time, DensityMatrix(rho), UnitaryOperator(u)))
    times, states, cocycle = zip(*records)
    return Trajectory(times, states, cocycle)


def propagate(h: HamiltonianFunction, rho0: DensityMatrix, t: float,
              cfg: IntegratorConfig) -> tuple[DensityMatrix, UnitaryOperator]:
    """Endpoint of the flow after signed time t; negative t integrates backward."""
    if not math.isfinite(t):
        raise ValueError("propagation time must be finite")
    end = None
    for end in _steps(h, rho0.matrix, t, cfg):
        pass
    if end is None:
        return rho0, UnitaryOperator(np.eye(rho0.dim, dtype=complex))
    _, _, rho, u = end
    return DensityMatrix(rho), UnitaryOperator(u)


def wigner_deviation(h: HamiltonianFunction, p: DensityMatrix, q: DensityMatrix,
                     cfg: IntegratorConfig) -> tuple[float, float]:
    """Worst drift of Tr(P_t Q_t) from Tr(P_0 Q_0) over the recorded grid.

    Both pure states evolve as independent initial conditions of the same
    flow.  A state-independent generator keeps the overlap constant; a
    genuinely state-dependent one generically does not.
    Returns (max deviation, time at which it occurs).
    """
    for name, state in (("p", p), ("q", q)):
        if state.purity() < 1.0 - PURITY_TOL:
            raise ValueError(f"{name} must be pure, got purity = {state.purity():.17g}")
    baseline = transition_probability(p, q)
    traj_p = evolve(h, p, cfg)
    traj_q = evolve(h, q, cfg)
    best_dev, best_t = 0.0, 0.0
    for t, sp, sq in zip(traj_p.times, traj_p.states, traj_q.states):
        dev = abs(float(np.trace(sp.matrix @ sq.matrix).real) - baseline)
        if dev > best_dev:
            best_dev, best_t = dev, t
    return best_dev, best_t


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Three-run self-convergence report at a fixed final time."""

    order: float
    exact: bool
    coarse_error: float
    fine_error: float


def convergence_order(h: HamiltonianFunction, rho0: DensityMatrix, t_final: float,
                      dt: float = 0.01,
                      midpoint_tol: float = DEFAULT_MIDPOINT_TOL) -> ConvergenceEstimate:
    """Estimate the integrator order from runs at dt, dt/2, dt/4.

    Both coarser runs are compared against the dt/4 run in Frobenius norm at
    t_final.  For a clean order-p error C*dt^p the ratio of those two errors
    is 2^p + 1, so the estimate is log2(ratio - 1); a plain log2 of the ratio
    would be biased by the reference run's own error.  Runs whose errors sit
    below EXACT_ERROR_FLOOR are flagged exact (state-independent generators
    are integrated exactly up to roundoff) and carry order = nan.
    """
    endpoints = []
    for divisor in (1, 2, 4):
        cfg = IntegratorConfig(dt=dt / divisor, t_final=t_final, midpoint_tol=midpoint_tol)
        endpoint, _ = propagate(h, rho0, t_final, cfg)
        endpoints.append(endpoint.matrix)
    coarse = float(np.linalg.norm(endpoints[0] - endpoints[2]))
    fine = float(np.linalg.norm(endpoints[1] - endpoints[2]))
    if max(coarse, fine) < EXACT_ERROR_FLOOR:
        return ConvergenceEstimate(order=math.nan, exact=True,
                                   coarse_error=coarse, fine_error=fine)
    if fine == 0.0 or coarse / fine <= 1.0:
        return ConvergenceEstimate(order=math.nan, exact=False,
                                   coarse_error=coarse, fine_error=fine)
    return ConvergenceEstimate(order=math.log2(coarse / fine - 1.0), exact=False,
                               coarse_error=coarse, fine_error=fine)
