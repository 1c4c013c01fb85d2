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
    UnitaryOperator,
    expm_hermitian,
    max_abs,
    require_count,
    spectrum,
    transition_probability,
)

DEFAULT_MIDPOINT_TOL = 1e-12
DEFAULT_MIDPOINT_MAX_ITER = 50
# kappa: the midpoint iteration also stops once its contraction estimate of
# the remaining error falls below MIDPOINT_KAPPA * midpoint_tol.
MIDPOINT_KAPPA = 1e-2
EXACT_ERROR_FLOOR = 1e-12  # self-convergence errors below this count as exact


class StepError(Exception):
    """A failure inside a run of the step kernel, named by its step and time.

    ``step`` counts from the start of the failing run; ``start`` and ``end``
    bound the step on that run's clock, which reads 0 at its start.
    ``detail`` is the subclass's own datum, which its ``_text`` names, and
    ``leg`` prefixes the message when the run is one leg of a larger one.
    """

    def __init__(self, detail, step: int, start: float, end: float, leg: str = ""):
        self.detail, self.step, self.start, self.end, self.leg = detail, step, start, end, leg
        super().__init__(f"{leg}{self._text()}")

    def _text(self) -> str:
        raise NotImplementedError

    def _span(self) -> str:
        return f"step {self.step}, t = {self.start:g} to {self.end:g}"

    def on_leg(self, leg: str, origin: float) -> "StepError":
        """The same failure named by leg, on a clock that reads origin at the run's start."""
        return type(self)(self.detail, self.step, origin + self.start, origin + self.end,
                          f"{leg}: ")


class ConvergenceError(StepError, RuntimeError):
    """The midpoint fixed-point iteration did not settle within ``detail`` passes."""

    def _text(self) -> str:
        dt = self.end - self.start
        return (f"midpoint iteration did not settle within {self.detail} iterations at "
                f"{self._span()} (dt = {dt:g} is too large for this nonlinearity)")


class GeneratorError(StepError, ValueError):
    """The generator of the function labelled ``detail`` gave a non-finite matrix."""

    def _text(self) -> str:
        return f"generator of {self.detail!r} gave a non-finite matrix at {self._span()}"


class StateError(StepError, ValueError):
    """A state or cocycle failed validation where it left the kernel; ``detail`` is the reason.

    It names the time after the step, which ``start`` and ``end`` both hold.
    """

    def _text(self) -> str:
        return f"state after step {self.step}, t = {self.end:g}: {self.detail}"


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
        if not (math.isfinite(self.midpoint_tol) and self.midpoint_tol > 0):
            raise ValueError(f"midpoint_tol must be positive and finite, got {self.midpoint_tol}")
        require_count("midpoint_max_iter", self.midpoint_max_iter, 1)
        require_count("record_stride", self.record_stride, 1)


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


def split_steps(span: float, dt: float) -> tuple[int, float]:
    """Number of full steps of size dt covering span >= 0, plus the remainder."""
    n = int(math.floor(span / dt + 1e-9))
    rem = span - n * dt
    if rem < 1e-12 * max(1.0, span):
        rem = 0.0
    return n, rem


def _schedule(span: float, dt: float):
    """Yield (signed step size, signed time after the step) for each step of span.

    Full steps of size dt cover the span, plus one shorter step for the
    remainder when span is not a multiple of dt: last on a forward span and
    first on a backward one, so a backward run from rho_t retraces, step for
    step, the forward run that reached it.
    """
    n_full, rem = split_steps(abs(span), dt)
    if span >= 0:
        for k in range(1, n_full + 1):
            yield dt, k * dt
        if rem:
            yield rem, span
        return
    if rem:
        yield -rem, -rem
    for k in range(1, n_full + 1):
        yield -dt, -(rem + k * dt)


def _steps(h: HamiltonianFunction, rho: np.ndarray, span: float, cfg: IntegratorConfig):
    """Yield (k, time, rho, u) as arrays after each step k = 1, 2, ... of the signed span.

    Each step conjugates by exp(-i dt D_mid), with D_mid the differential at
    the self-consistent midpoint state, and extends the cocycle u by the
    same factor.  Only h.generator and expm_hermitian run here, on plain
    arrays; states are validated where they leave the kernel.  A function
    that carries a dimension other than the state's raises ValueError
    before the first step.

    The midpoint iteration refreshes D_mid from the midpoint state it
    gives.  Pass j measures its increment delta_j, the largest entry of the
    change in D_mid, and the step takes the refreshed D_mid once delta_j <
    midpoint_tol, or, from the second pass on, once the contraction
    estimate of the error left, theta / (1 - theta) * delta_j with theta =
    delta_j / delta_{j-1} < 1, falls below MIDPOINT_KAPPA * midpoint_tol
    (Hairer, Lubich and Wanner, Geometric Numerical Integration, 2nd ed.,
    VIII.6).  theta uses only increments of the current step.  A loop that
    stalls or diverges raises ConvergenceError after midpoint_max_iter
    passes; a generator that gives a non-finite matrix raises
    GeneratorError.

    For a state-independent h the midpoint iteration settles on its first
    pass with an increment of exactly 0, and the step map is exp(-i dt D)
    of the one matrix D; it is computed once per signed step size (the full
    step and the remainder), which gives the same bits every step.
    """
    if h.dim is not None and h.dim != rho.shape[0]:
        raise ValueError(f"Hamiltonian function {h.label!r} acts on dimension {h.dim}, "
                         f"the state has dimension {rho.shape[0]}")
    generator = h.generator
    fixed = generator(rho) if h.state_independent else None
    steppers = {}  # signed step size -> exp(-i dt D) of the fixed generator
    tol, estimate_tol = cfg.midpoint_tol, MIDPOINT_KAPPA * cfg.midpoint_tol
    u = np.eye(rho.shape[0], dtype=complex)
    for k, (dt, time) in enumerate(_schedule(span, cfg.dt), 1):
        if fixed is not None:
            if dt not in steppers:
                if not np.isfinite(fixed).all():
                    raise GeneratorError(h.label, k, time - dt, time)
                steppers[dt] = expm_hermitian(fixed, dt)
            stepper = steppers[dt]
        else:
            gen = generator(rho)
            previous = None  # the last increment of this step; the first pass has none
            for _ in range(cfg.midpoint_max_iter):
                try:
                    half = expm_hermitian(gen, 0.5 * dt)
                except ValueError:
                    # The Padé path rejects every non-finite matrix, eigh
                    # many, math.sin an infinite angle.  Every later gen
                    # passed the finiteness check below, so only the first
                    # call can be at fault here.
                    if np.isfinite(gen).all():
                        raise
                    raise GeneratorError(h.label, k, time - dt, time) from None
                rho_mid = half @ rho @ half.conj().T
                refreshed = generator(rho_mid)
                increment = max_abs(refreshed - gen)
                if not math.isfinite(increment):
                    raise GeneratorError(h.label, k, time - dt, time)
                if increment < tol:
                    break
                if previous is not None:
                    ratio = increment / previous
                    if ratio < 1.0 and ratio / (1.0 - ratio) * increment < estimate_tol:
                        break
                previous, gen = increment, refreshed
            else:
                raise ConvergenceError(cfg.midpoint_max_iter, k, time - dt, time)
            stepper = expm_hermitian(refreshed, dt)
        rho = stepper @ rho @ stepper.conj().T
        u = stepper @ u
        yield k, time, rho, u


def _identity(dim: int) -> UnitaryOperator:
    return UnitaryOperator(np.eye(dim, dtype=complex))


def _validated(k: int, time: float, rho: np.ndarray,
               u: np.ndarray) -> tuple[DensityMatrix, UnitaryOperator]:
    """The kernel's state and cocycle after step k as wrappers; a failure names the step."""
    try:
        return DensityMatrix(rho), UnitaryOperator(u)
    except ValueError as exc:
        raise StateError(str(exc), k, time, time) from exc


def evolve(h: HamiltonianFunction, rho0: DensityMatrix, cfg: IntegratorConfig) -> Trajectory:
    """Integrate from rho0 to cfg.t_final, recording every record_stride-th step.

    The final time is always recorded; a shorter last step is taken when
    t_final is not a multiple of dt.
    """
    records = [(0.0, rho0, _identity(rho0.dim))]
    k = 0
    for k, time, rho, u in _steps(h, rho0.matrix, cfg.t_final, cfg):
        if k % cfg.record_stride == 0:
            records.append((time, *_validated(k, time, rho, u)))
    if k % cfg.record_stride:
        records.append((time, *_validated(k, time, rho, u)))
    times, states, cocycle = zip(*records)
    return Trajectory(times, states, cocycle)


def propagate(h: HamiltonianFunction, rho0: DensityMatrix, t: float,
              cfg: IntegratorConfig) -> tuple[DensityMatrix, UnitaryOperator]:
    """Endpoint of the flow after signed time t; negative t integrates backward.

    A backward run takes its shorter step first, so propagating rho_t by -t
    retraces the forward run from rho to rho_t.
    """
    if not math.isfinite(t):
        raise ValueError("propagation time must be finite")
    end = None
    for end in _steps(h, rho0.matrix, t, cfg):
        pass
    if end is None:
        return rho0, _identity(rho0.dim)
    return _validated(*end)


def wigner_deviation(h: HamiltonianFunction, p: DensityMatrix, q: DensityMatrix,
                     cfg: IntegratorConfig) -> tuple[float, float]:
    """Worst drift of Tr(P_t Q_t) from Tr(P_0 Q_0) over the recorded grid.

    Both pure states evolve as independent initial conditions of the same
    flow.  A state-independent generator keeps the overlap constant; a
    genuinely state-dependent one generically does not.
    Returns (max deviation, time at which it occurs).
    """
    transition_probability(p, q)  # rejects a mixed p or q before either run
    return overlap_deviation(evolve(h, p, cfg), evolve(h, q, cfg))


def overlap_deviation(traj_p: Trajectory, traj_q: Trajectory) -> tuple[float, float]:
    """The scan of wigner_deviation over two trajectories recorded at the same times.

    The first records are P_0 and Q_0, which must be pure.
    Returns (max deviation of Tr(P_t Q_t) from Tr(P_0 Q_0), time at which it occurs).
    """
    if traj_p.times != traj_q.times:
        raise ValueError("the two trajectories must be recorded at the same times")
    baseline = transition_probability(traj_p.states[0], traj_q.states[0])
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
                      dt: float = 0.01) -> ConvergenceEstimate:
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
        cfg = IntegratorConfig(dt=dt / divisor, t_final=t_final)
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
