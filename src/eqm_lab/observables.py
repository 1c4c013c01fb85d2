"""Operator-valued observable functions and their transport along a flow.

An observable here is a map from states to Hermitian operators.  Transporting
it to time t conjugates by the flow's realizing unitary and reads the
original observable at the evolved state:

    (T_t f)(rho) = u(t, rho)^dagger f(rho_t) u(t, rho),   rho_t the evolved state.

This is the Heisenberg-picture action associated with the nonlinear state
flow: linear, unital, positivity- and product-preserving at every evaluation
point.  States over these observables are finitely supported probability
measures on the density-matrix space; a one-point (Dirac) measure reduces
every expectation to Tr(rho f(rho)).  Mixtures with equal barycenters but
different supports are genuinely different states here, which is what the
state dependence of observables is for.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import flow as flow_mod
from .flow import IntegratorConfig, Trajectory
from .hamiltonians import HamiltonianFunction
from .hilbert import (DensityMatrix, HermitianOperator, require_real, require_same_dim,
                      trace_pairing, trace_product)

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ObservableFunction:
    """A map from states to Hermitian operators."""

    eval: Callable[[DensityMatrix], HermitianOperator]
    label: str = "f"


@dataclass(frozen=True)
class StateMeasure:
    """A finitely supported probability measure on the density-matrix space."""

    support: tuple
    weights: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        if not support:
            raise ValueError("measure support must be nonempty")
        for rho in support[1:]:
            require_same_dim(support[0], rho)
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (len(support),):
            raise ValueError(
                f"need one weight per support point, got {weights.shape} for {len(support)} points"
            )
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise ValueError("weights must be finite and nonnegative")
        total = float(np.sum(weights))
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {total:.17g}")
        weights.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def dirac(cls, rho: DensityMatrix) -> "StateMeasure":
        return cls(support=(rho,), weights=np.array([1.0]))


def constant_observable(a: HermitianOperator, label: str = "constant") -> ObservableFunction:
    """The state-independent observable rho -> A."""
    return ObservableFunction(eval=lambda rho: a, label=label)


def trace_scaled_observable(weight_op: HermitianOperator, a: HermitianOperator,
                            label: str = "trace_scaled") -> ObservableFunction:
    """The state-dependent observable rho -> Tr(rho B) * A."""
    require_same_dim(weight_op, a)

    def evaluate(rho: DensityMatrix) -> HermitianOperator:
        return HermitianOperator(trace_pairing(rho, weight_op) * a.matrix)

    return ObservableFunction(eval=evaluate, label=label)


def expectation(omega: StateMeasure, f: ObservableFunction) -> float:
    """sum_i w_i Tr(rho_i f(rho_i)); linear in f."""
    return float(sum(
        w * trace_pairing(rho, f.eval(rho))
        for rho, w in zip(omega.support, omega.weights)
    ))


def heisenberg_transform(f: ObservableFunction, h: HamiltonianFunction, t: float,
                         cfg: IntegratorConfig) -> ObservableFunction:
    """The time-t Heisenberg transport of f along the flow generated by h.

    Evaluation is lazy: each call integrates a fresh trajectory from its own
    argument, because the transported function lives on the whole state
    space.  Negative t integrates the defining equation backward, which keeps
    the realizing family unitary by construction and inverts the forward
    cocycle within integrator tolerance.
    """
    require_real("t", t)

    def evaluate(rho: DensityMatrix) -> HermitianOperator:
        rho_t, u = flow_mod.propagate(h, rho, t, cfg)
        return HermitianOperator(u.matrix.conj().T.dot(f.eval(rho_t).matrix).dot(u.matrix))

    return ObservableFunction(eval=evaluate, label=f"T[{t:g}]{f.label}")


def pushforward_state(omega: StateMeasure, h: HamiltonianFunction, t: float,
                      cfg: IntegratorConfig) -> StateMeasure:
    """Evolve every support point by the flow; weights are untouched."""
    moved = tuple(flow_mod.propagate(h, rho, t, cfg)[0] for rho in omega.support)
    return StateMeasure(support=moved, weights=np.array(omega.weights))


def conservation_residuals(fs, h: HamiltonianFunction, rho: DensityMatrix, times,
                           cfg: IntegratorConfig, trajectory: Trajectory | None = None) -> np.ndarray:
    """conservation_residual for every observable in fs (rows) at every time in times (columns).

    Each flow is integrated once.  For a stepped flow the forward leg of
    each sign chains propagate through the sorted distinct times that are
    whole numbers of steps, e.g. 0 -> 0.5 -> 1 -> 2 -> 5; a step never reads
    the absolute time, so every such state is bit-identical to a run
    restarted from 0.  A time off the step grid ends in a shorter step that
    a chained leg would take elsewhere, so its leg restarts from 0.  A
    state-independent h is integrated in closed form on the run's own clock,
    where a chained leg would agree with a run from 0 only to rounding; a
    leg costs it no steps, so every leg starts from rho at 0.  The backward
    run from rho_t to (rho_b, u_b) depends only on t and is shared by all
    observables; a cell reads Re Tr(rho_t u_b^dagger f(rho_b) u_b) off the
    arrays that run checked.  A StepError names the leg and the absolute times.

    trajectory, when given, is what evolve recorded from rho with the same
    dt and midpoint settings as cfg, at any stride.  A stepped leg to n
    whole steps starts from the last record on the step grid at or before
    step n, looked up in times, if it lies past the latest state: a recorded
    time costs no step.  So the grid is the same, bit for bit, with or
    without it.
    """
    fs, times = tuple(fs), tuple(times)
    for i, t in enumerate(times):
        require_real(f"times[{i}]", t)
    if trajectory is not None and not np.array_equal(trajectory.rho[0], rho.matrix):
        raise ValueError("the trajectory must start at rho")
    rhs = [trace_pairing(rho, f.eval(rho)) for f in fs]
    columns = {}
    for forward in (True, False):
        grid = sorted({t for t in times if (t >= 0) == forward}, key=abs)
        latest = (0, 0.0, rho)  # the last state reached on the step grid: (steps, time, state)
        for t in grid:
            n, rem = flow_mod.split_steps(abs(t), cfg.dt)
            chains = not (rem or h.state_independent)  # starts from, and extends, the chain
            k, start, rho_t = latest if chains else (0, 0.0, rho)
            if forward and trajectory is not None and chains:
                i = bisect.bisect_right(trajectory.times, (n + 0.5) * cfg.dt) - 1
                m, off = flow_mod.split_steps(trajectory.times[i], cfg.dt)
                if off:  # only the final record ends off the step grid, on a shorter step
                    i, m = i - 1, flow_mod.split_steps(trajectory.times[i - 1], cfg.dt)[0]
                if m > k:
                    k, start, rho_t = m, trajectory.times[i], DensityMatrix(trajectory.rho[i])
            try:
                if k != n or rem:
                    rho_t, _ = flow_mod.propagate(h, rho_t, t - start, cfg)
            except flow_mod.StepError as exc:
                raise exc.on_leg(f"forward leg from t = {start:g}", start) from exc
            if chains:
                latest = (n, t, rho_t)
            try:
                rho_b, u_b = flow_mod.propagate(h, rho_t, -t, cfg)
            except flow_mod.StepError as exc:
                raise exc.on_leg(f"backward run from grid time t = {t:g}", t) from exc
            u, u_h = u_b.matrix, u_b.matrix.conj().T
            columns[t] = [abs(trace_product(rho_t.matrix, u_h.dot(f.eval(rho_b).matrix).dot(u)).real
                              - ref) for f, ref in zip(fs, rhs)]
    return np.array([columns[t] for t in times], dtype=float).reshape(len(times), len(fs)).T


def conservation_residual(f: ObservableFunction, h: HamiltonianFunction,
                          rho: DensityMatrix, t: float, cfg: IntegratorConfig) -> float:
    """|Tr(rho_t (T_{-t} f)(rho_t)) - Tr(rho f(rho))|.

    Transporting the observable backward while the state moves forward
    cancels exactly in the continuum, for linear and nonlinear flows alike.
    By trace cyclicity the residual equals |Tr(rho_b f(rho_b)) - Tr(rho f(rho))|,
    rho_b the end of the backward run from rho_t, so it reads 0 whenever
    rho_b = rho, whatever f is: it tests whether the symmetric step retraces itself.
    """
    return float(conservation_residuals((f,), h, rho, (t,), cfg)[0, 0])
