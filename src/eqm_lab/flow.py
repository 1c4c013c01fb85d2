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
    _eigh,
    expm_hermitian,
    first_rejected,
    max_abs,
    require_count,
    require_real,
    trace_defect,
    trace_product,
    transition_probability,
    unitarity_defect,
)

DEFAULT_MIDPOINT_TOL = 1e-12
DEFAULT_MIDPOINT_MAX_ITER = 50
# kappa: the midpoint iteration also stops once its contraction estimate of
# the remaining error falls below MIDPOINT_KAPPA * midpoint_tol.
MIDPOINT_KAPPA = 1e-2
EXACT_ERROR_FLOOR = 1e-12  # self-convergence errors below this count as exact
# Records are checked and monitored in stacks of at most this many bytes of
# matrices: 1024 records at d = 2, 16 at d = 16, one at d = 64.
RECORD_BLOCK_BYTES = 1 << 16


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
    """A recorded state or cocycle failed validation; ``detail`` is the reason.

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
        require_real("dt", self.dt, positive=True)
        require_real("t_final", self.t_final, 0)
        if self.t_final != 0 and self.dt > self.t_final * (1 + 1e-12):
            raise ValueError(f"dt = {self.dt:g} exceeds t_final = {self.t_final:g}")
        require_real("midpoint_tol", self.midpoint_tol, positive=True)
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

    # Invariant monitors: each is the worst value of one measure over the records.

    def max_unitarity_defect(self) -> float:
        return _worst(unitarity_defect, self.cocycle)[0]

    def max_cocycle_defect(self) -> float:
        """Worst |rho_t - u rho_0 u_dagger| over the records."""
        rho0 = self.states[0].matrix
        return _worst(lambda s, u: np.abs(s - u @ rho0 @ u.conj().swapaxes(1, 2)).max(axis=(1, 2)),
                      self.states, self.cocycle)[0]

    def max_spectrum_drift(self) -> float:
        # Ascending eigenvalues pair up as the descending spectrum's do.
        base = _eigh(self.states[0].matrix, vectors=False)
        return _worst(lambda s: np.abs(_eigh(s, vectors=False) - base).max(axis=1), self.states)[0]

    def max_trace_defect(self) -> float:
        return _worst(trace_defect, self.states)[0]

    def max_purity_drift(self) -> float:
        base = self.states[0].purity()
        return _worst(lambda s: np.abs(trace_product(s, s).real - base), self.states)[0]


def _block_size(wrapper) -> int:
    """Records of wrapper's dimension in one block: RECORD_BLOCK_BYTES of matrices, at least one."""
    return max(1, RECORD_BLOCK_BYTES // wrapper.matrix.nbytes)


def _worst(measure, *columns) -> tuple[float, int]:
    """The largest of measure's values over blocks of stacked records, and its first record."""
    size = _block_size(columns[0][0])
    worst, where = -math.inf, 0
    for start in range(0, len(columns[0]), size):
        values = measure(*(np.stack([w.matrix for w in column[start:start + size]])
                           for column in columns))
        i = int(values.argmax())  # the first of equal values
        if values[i] > worst:
            worst, where = float(values[i]), start + i
    return worst, where


def split_steps(span: float, dt: float) -> tuple[int, float]:
    """Number of full steps of size dt covering span >= 0, plus the remainder.

    A span of more steps than a float can count (span / dt = inf) raises
    ValueError.
    """
    count = span / dt
    if not math.isfinite(count):
        raise ValueError(f"a span of {span:g} holds too many steps of dt = {dt:g} to count")
    n = int(math.floor(count + 1e-9))
    rem = span - n * dt
    if rem < 1e-12 * max(1.0, span):
        rem = 0.0
    return n, rem


def schedule(span: float, dt: float):
    """Yield (signed step size, signed time after the step) for each step of span.

    Full steps of size dt cover the span, plus one shorter step for the
    remainder when span is not a multiple of dt: last on a forward span and
    first on a backward one, so a backward run from rho_t retraces, step for
    step, the forward run that reached it.  The density-matrix kernel steps
    on it.
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
    arrays.  Each yielded rho and u is a fresh array that the kernel never
    writes afterwards, so evolve and propagate keep them as the records
    once a stacked check accepts them.  A function that carries a dimension
    other than the state's raises ValueError before the first step.

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
    GeneratorError.  Each generator output is scanned for finiteness once:
    the step's first by np.isfinite, each later one by its increment, which
    is finite only if the output is, given a finite predecessor.  So every
    matrix exponentiated here is finite, as expm_hermitian requires.

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
    # Products go through ndarray.dot: the same zgemm call as @, with the same
    # bits, without the matmul gufunc's dispatch (which dominates at small d).
    for k, (dt, time) in enumerate(schedule(span, cfg.dt), 1):
        if fixed is not None:
            if dt not in steppers:
                if not np.isfinite(fixed).all():
                    raise GeneratorError(h.label, k, time - dt, time)
                steppers[dt] = expm_hermitian(fixed, dt)
            stepper = steppers[dt]
        else:
            gen = generator(rho)
            if not np.isfinite(gen).all():
                raise GeneratorError(h.label, k, time - dt, time)
            previous = None  # the last increment of this step; the first pass has none
            for _ in range(cfg.midpoint_max_iter):
                half = expm_hermitian(gen, 0.5 * dt)
                rho_mid = half.dot(rho).dot(half.conj().T)
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
        rho = stepper.dot(rho).dot(stepper.conj().T)
        u = stepper.dot(u)
        yield k, time, rho, u


def _identity(dim: int) -> UnitaryOperator:
    return UnitaryOperator(np.eye(dim, dtype=complex))


def _accepted(records: list) -> list:
    """The kernel's records (k, time, rho, u) as (time, state, cocycle) wrappers of its arrays.

    The records are checked in one stack; the first that fails raises
    StateError, named by its step and time.
    """
    rejected = first_rejected(np.stack([r[2] for r in records]), np.stack([r[3] for r in records]))
    if rejected is not None:
        i, exc = rejected
        k, time = records[i][:2]
        raise StateError(str(exc), k, time, time) from exc
    return [(time, DensityMatrix._accepted(rho), UnitaryOperator._accepted(u))
            for _, time, rho, u in records]


def evolve(h: HamiltonianFunction, rho0: DensityMatrix, cfg: IntegratorConfig) -> Trajectory:
    """Integrate from rho0 to cfg.t_final, recording every record_stride-th step.

    The final time is always recorded; a shorter last step is taken when
    t_final is not a multiple of dt.  The records wrap the kernel's own
    arrays, checked a block of RECORD_BLOCK_BYTES at a time: a bad record
    raises StateError once its block is full, the run ends or the kernel
    raises, so the run may go up to one block past it, but no later failure
    of the kernel hides it.
    """
    records = [(0.0, rho0, _identity(rho0.dim))]
    block, size = [], _block_size(rho0)
    k = 0
    try:
        for k, time, rho, u in _steps(h, rho0.matrix, cfg.t_final, cfg):
            if k % cfg.record_stride == 0:
                block.append((k, time, rho, u))
                if len(block) == size:
                    full, block = block, []
                    records += _accepted(full)
        if k % cfg.record_stride:
            block.append((k, time, rho, u))
    finally:  # also when the kernel raises: a bad record's StateError comes first
        if block:
            records += _accepted(block)
    times, states, cocycle = zip(*records)
    return Trajectory(times, states, cocycle)


def propagate(h: HamiltonianFunction, rho0: DensityMatrix, t: float,
              cfg: IntegratorConfig) -> tuple[DensityMatrix, UnitaryOperator]:
    """Endpoint of the flow after signed time t; negative t integrates backward.

    A backward run takes its shorter step first, so propagating rho_t by -t
    retraces the forward run from rho to rho_t.
    """
    require_real("t", t)
    end = None
    for end in _steps(h, rho0.matrix, t, cfg):
        pass
    if end is None:
        return rho0, _identity(rho0.dim)
    _, rho, u = _accepted([end])[0]
    return rho, u


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
    Returns (max deviation of Tr(P_t Q_t) from Tr(P_0 Q_0), first time at which it occurs).
    """
    if traj_p.times != traj_q.times:
        raise ValueError("the two trajectories must be recorded at the same times")
    baseline = transition_probability(traj_p.states[0], traj_q.states[0])
    deviation, i = _worst(lambda p, q: np.abs(trace_product(p, q).real - baseline),
                          traj_p.states, traj_q.states)
    return deviation, traj_p.times[i]


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
    exact = max(coarse, fine) < EXACT_ERROR_FLOOR
    shrinks = not exact and fine != 0.0 and coarse / fine > 1.0
    order = math.log2(coarse / fine - 1.0) if shrinks else math.nan
    return ConvergenceEstimate(order=order, exact=exact, coarse_error=coarse, fine_error=fine)
