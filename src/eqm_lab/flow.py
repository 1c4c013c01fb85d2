"""Nonlinear density-matrix flows realized through unitary cocycles.

The state evolves by conjugation, rho_t = u(t) rho_0 u(t)^dagger, where the
unitary family solves i du/dt = D(rho_t) u with u(0) = identity and D the
operator-valued differential of the generating Hamiltonian function.  One
step uses an exponential-midpoint rule: the generator is evaluated at a
self-consistent midpoint state found by fixed-point iteration, and the step
map exp(-i dt D_mid) is exactly unitary because D_mid is Hermitian.  A
mean field that carries its split (see eqm_lab.hamiltonians) steps instead
by the Strang composition of its two exact flows, with no iteration.  A
state-independent function takes no steps at all: its flow is
u(t) = exp(-i t A), computed in closed form from one eigendecomposition per
run at the recorded times only.  All three read one step clock, _step:
the signed size and end time of step k of a span, which schedule yields
for the stepped runs and the closed form reads at its kept records.  Drift
in the structural invariants is monitored, never repaired.
"""

from __future__ import annotations

import functools
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
# The most steps one run takes: past 2**53 a float no longer tells
# consecutive step counts apart.
MAX_STEPS = 2**53


class StepError(Exception):
    """A failure inside a run of the step kernel, named by its step and time.

    ``step`` counts from the start of the failing run; ``start`` and ``end``
    bound the step on that run's clock, which reads 0 at its start.
    ``detail`` is the subclass's own datum, named by the message that the
    subclass's ``_text`` builds (only subclasses are raised), and ``leg``
    prefixes the message when the run is one leg of a larger one.
    """

    def __init__(self, detail, step: int, start: float, end: float, leg: str = ""):
        self.detail, self.step, self.start, self.end, self.leg = detail, step, start, end, leg
        super().__init__(f"{leg}{self._text()}")

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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded flow: times, and read-only (T, d, d) stacks of checked states and unitaries."""

    times: tuple
    rho: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.rho) == len(self.u)):
            raise ValueError("times, states, and cocycle must have equal length")
        if len(self.times) == 0:
            raise ValueError("a trajectory holds at least the initial record")

    @functools.cached_property
    def states(self) -> tuple:
        """The states as DensityMatrix wrappers, each checked on its own copy of its record."""
        return tuple(map(DensityMatrix, self.rho))

    # Invariant monitors: each is the worst value of one measure over the records.

    def max_unitarity_defect(self) -> float:
        return _worst(unitarity_defect, self.u)[0]

    def max_cocycle_defect(self) -> float:
        """Worst |rho_t - u rho_0 u_dagger| over the records."""
        rho0 = self.rho[0]
        return _worst(lambda s, u: np.abs(s - u @ rho0 @ u.conj().swapaxes(1, 2)).max(axis=(1, 2)),
                      self.rho, self.u)[0]

    def max_spectrum_drift(self) -> float:
        # Ascending eigenvalues pair up as the descending spectrum's do.
        base = _eigh(self.rho[0], vectors=False)
        return _worst(lambda s: np.abs(_eigh(s, vectors=False) - base).max(axis=1), self.rho)[0]

    def max_trace_defect(self) -> float:
        return _worst(trace_defect, self.rho)[0]

    def max_purity_drift(self) -> float:
        base = trace_product(self.rho[0], self.rho[0]).real
        return _worst(lambda s: np.abs(trace_product(s, s).real - base), self.rho)[0]


def _block_size(stack: np.ndarray) -> int:
    """Records of a (T, d, d) stack in one block: RECORD_BLOCK_BYTES of matrices, at least one."""
    return max(1, RECORD_BLOCK_BYTES // stack[0].nbytes)


def _worst(measure, *stacks) -> tuple[float, int]:
    """The largest of measure's values over blocks of the stacks' records, and its first record."""
    size = _block_size(stacks[0])
    worst, where = -math.inf, 0
    for start in range(0, len(stacks[0]), size):
        values = measure(*(stack[start:start + size] for stack in stacks))
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


def _step(k: int, span: float, dt: float, n_full: int, rem: float) -> tuple[float, float]:
    """(signed step size, signed time after the step) of step k of span, the one step clock.

    n_full and rem are split_steps(abs(span), dt).  Full steps of size dt
    cover the span, plus one shorter step for the remainder when rem > 0:
    last on a forward span and first on a backward one, so a backward run
    from rho_t retraces, step for step, the forward run that reached it.
    """
    if span >= 0:
        return (dt, k * dt) if k <= n_full else (rem, span)
    j = k - 1 if rem else k  # the full steps taken by the end of step k
    return (-rem, -rem) if j == 0 else (-dt, -(rem + j * dt))


def schedule(span: float, dt: float):
    """Yield _step's (signed step size, signed time after the step) for each step of span.

    The density-matrix kernel steps on it.
    """
    n_full, rem = split_steps(abs(span), dt)
    for k in range(1, n_full + (rem > 0) + 1):
        yield _step(k, span, dt, n_full, rem)


def _closed_form(h: HamiltonianFunction, a: np.ndarray, rho: np.ndarray, span: float,
                 dt: float, stride: int):
    """Yield (k, time, rho, u) for a state-independent h at the steps _run keeps, and no others.

    With the fixed generator A = V diag(w) V^dagger, taken once per run, and
    rho~ = V^dagger rho V, the record after step k, at the signed time t_k
    that _step gives the stepped runs too, is u_k = (V p) V^dagger and
    rho_k = V (rho~ o p p^dagger) V^dagger with p = exp(-i t_k w), so that
    entry (i, j) of rho~ turns by exp(-i t_k (w_i - w_j)) (C. Moler and C. Van Loan,
    SIAM Rev. 45, 3 (2003), the decomposition method).  The state is built
    in the eigenbasis, not as u_k rho u_k^dagger, so the cocycle monitor
    still compares two computations.  Each record reads the run's clock, so
    no rounding compounds from step to step.  A non-finite A raises
    GeneratorError at step 1.
    """
    n_full, rem = split_steps(abs(span), dt)
    steps = n_full + (rem > 0)
    if not steps:
        return
    if not np.isfinite(a).all():
        first, time = _step(1, span, dt, n_full, rem)
        raise GeneratorError(h.label, 1, time - first, time)
    w, v = _eigh(a)
    vh = v.conj().T
    rho_eig = vh.dot(rho).dot(v)
    for k in (*range(stride, steps, stride), steps):
        time = _step(k, span, dt, n_full, rem)[1]
        phases = np.exp(-1j * time * w)
        u = (v * phases).dot(vh)
        yield k, time, v.dot(rho_eig * np.outer(phases, phases.conj())).dot(vh), u


def _steps(h: HamiltonianFunction, rho: np.ndarray, span: float, cfg: IntegratorConfig,
           stride: int):
    """Yield (k, time, rho, u) as arrays after each step k = 1, 2, ... of the signed span.

    Each step conjugates by exp(-i dt D_mid), with D_mid the differential at
    the self-consistent midpoint state, and extends the cocycle u by the
    same factor.  Only h.generator and expm_hermitian run here, on plain
    arrays; _run copies the records it keeps, every stride-th step and the
    last.  A function that carries a dimension other than the state's raises
    ValueError before the first step.

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

    A state-independent h takes no steps: _closed_form yields its kept
    records alone, from one eigendecomposition of the one matrix D.

    A mean field h = Tr(rho A) + (s/2) Tr(rho B)^2 that carries h.split
    steps by the Strang composition phi^A_(dt/2) o phi^B_dt o phi^A_(dt/2)
    of its two exact flows: conjugation by H = exp(-i dt/2 A), and by
    exp(-i dt s m B), where m = Tr(rho B) is constant along that flow
    (G. Strang, SIAM J. Numer. Anal. 5, 506 (1968)).  The step is
    symmetric, of second order and a Poisson map, and calls no generator.
    With B = V diag(w) V^dagger, taken once per run, and H, HV, V^dagger H
    and the pairing with H^dagger B H cached per signed step size, the step
    map is S = (HV exp(-i dt s m w)) V^dagger H with m = Tr(rho H^dagger B H).
    The cached H repeats its rounding every step, so a split run drifts in
    trace; config splits runs of at most config.SPLIT_MAX_STEPS steps.
    """
    if h.dim is not None and h.dim != rho.shape[0]:
        raise ValueError(f"Hamiltonian function {h.label!r} acts on dimension {h.dim}, "
                         f"the state has dimension {rho.shape[0]}")
    generator = h.generator
    if h.state_independent:
        yield from _closed_form(h, generator(rho), rho, span, cfg.dt, stride)
        return
    split = h.split
    if split is not None:
        a, b, strength = split
        w, v = _eigh(b)
    steppers = {}  # signed step size -> the split's factors
    tol, estimate_tol = cfg.midpoint_tol, MIDPOINT_KAPPA * cfg.midpoint_tol
    u = np.eye(rho.shape[0], dtype=complex)
    # Products go through ndarray.dot: the same zgemm call as @, with the same
    # bits, without the matmul gufunc's dispatch (which dominates at small d).
    for k, (dt, time) in enumerate(schedule(span, cfg.dt), 1):
        if split is not None:
            if dt not in steppers:
                half = expm_hermitian(a, 0.5 * dt)
                pairing = half.conj().T.dot(b).dot(half).T.ravel()
                steppers[dt] = half.dot(v), v.conj().T.dot(half), pairing, -dt * strength * w
            half_v, v_half, pairing, angles = steppers[dt]
            m = float(rho.ravel().dot(pairing).real)
            stepper = (half_v * np.exp(1j * m * angles)).dot(v_half)
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


def _run(h: HamiltonianFunction, rho0: DensityMatrix, span: float, cfg: IntegratorConfig,
         stride: int | None = None) -> Trajectory:
    """The flow over the signed span, recorded at every stride-th step (or none) and the last.

    The records are copied into read-only stacks sized before the first step
    (a count too large to hold, or more than MAX_STEPS steps, raises
    ValueError) and checked a block of RECORD_BLOCK_BYTES at a time: a bad
    record raises StateError once its block is full, the run ends or the
    kernel raises, before any later error.
    """
    n_full, rem = split_steps(abs(span), cfg.dt)
    steps = n_full + (rem > 0)
    stride = stride or max(steps, 1)
    count = 1 + -(-steps // stride)  # record i holds step min(i * stride, steps)
    try:
        rho, u = (np.empty((count, rho0.dim, rho0.dim), dtype=complex) for _ in range(2))
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"a span of {span:g} at dt = {cfg.dt:g} gives {count:.3g} records, "
                         "too many to hold") from exc
    if steps > MAX_STEPS:
        raise ValueError(f"a span of {span:g} at dt = {cfg.dt:g} takes {steps:.3g} steps, "
                         "more than MAX_STEPS = 2**53")
    rho[0], u[0] = rho0.matrix, np.eye(rho0.dim)
    times, checked, size = [0.0], 1, _block_size(rho)

    def check():
        nonlocal checked
        start, checked = checked, len(times)
        if (rejected := first_rejected(rho[start:checked], u[start:checked])) is not None:
            i, exc = start + rejected[0], rejected[1]
            raise StateError(str(exc), min(i * stride, steps), times[i], times[i]) from exc

    try:
        for k, time, rho_k, u_k in _steps(h, rho0.matrix, span, cfg, stride):
            if k % stride == 0 or k == steps:
                rho[len(times)], u[len(times)] = rho_k, u_k
                times.append(time)
                if len(times) - checked == size:
                    check()
    finally:  # also when the kernel raises: a bad record's StateError comes first
        if len(times) > checked:
            check()
    for stack in (rho, u):
        stack.setflags(write=False)
    return Trajectory(tuple(times), rho, u)


def evolve(h: HamiltonianFunction, rho0: DensityMatrix, cfg: IntegratorConfig) -> Trajectory:
    """Integrate from rho0 to cfg.t_final, recording every record_stride-th step.

    The final time is always recorded; a shorter last step is taken when
    t_final is not a multiple of dt.
    """
    return _run(h, rho0, cfg.t_final, cfg, cfg.record_stride)


def propagate(h: HamiltonianFunction, rho0: DensityMatrix, t: float,
              cfg: IntegratorConfig) -> tuple[DensityMatrix, UnitaryOperator]:
    """Endpoint of the flow after signed time t; negative t integrates backward.

    A backward run takes its shorter step first, so propagating rho_t by -t
    retraces the forward run from rho to rho_t.
    """
    require_real("t", t)
    traj = _run(h, rho0, t, cfg)  # _run checked the endpoint; _accepted wraps it without a copy
    end = DensityMatrix._accepted(traj.rho[-1]) if len(traj.times) > 1 else rho0
    return end, UnitaryOperator._accepted(traj.u[-1])


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
    baseline = transition_probability(DensityMatrix(traj_p.rho[0]), DensityMatrix(traj_q.rho[0]))
    deviation, i = _worst(lambda p, q: np.abs(trace_product(p, q).real - baseline),
                          traj_p.rho, traj_q.rho)
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
