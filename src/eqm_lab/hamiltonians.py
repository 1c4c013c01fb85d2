"""Real-valued Hamiltonian functions on the density-matrix space.

A Hamiltonian function pairs a value map h(rho) with an operator-valued
differential D(rho) such that, for trace-preserving Hermitian directions
delta, the directional derivative of h at rho along delta equals
Tr(delta D(rho)).  The built-in families carry closed-form differentials:

    linear       h(rho) = Tr(rho A)                    D = A
    mean field   h(rho) = Tr(rho A) + (s/2) Tr(rho B)^2   D = A + s Tr(rho B) B
    polynomial   h(rho) = sum_k c_k prod_i Tr(rho F_ki)   D by the product rule

The canonical bracket of two such functions at a state rho is
{f, h}(rho) = i Tr(rho [Df(rho), Dh(rho)]); the flow it generates is
integrated in :mod:`eqm_lab.flow`.

Each family is defined once, by its generator: the differential on plain
arrays, which maps the matrix of a state to the matrix of D(rho) and is the
form the integrator calls.  The public differential is derived from it and
validates the operator it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import (DensityMatrix, HermitianOperator, commutator, require_count, require_dim,
                      require_real, require_same_dim, trace_pairing, trace_product)

FD_STEP_MIN = 1e-7
FD_STEP_MAX = 1e-3
GENERIC_FD_STEP = 1e-5  # differential reconstruction for closure-defined functions


@dataclass(frozen=True)
class HamiltonianFunction:
    """A value map together with its operator-valued differential.

    ``generator`` is the differential on plain arrays: it maps the matrix of
    a state to the matrix of D(rho), and the integrator calls nothing else.
    A function given a generator alone gets the derived differential
    ``rho -> HermitianOperator(generator(rho.matrix))``; every factory builds
    its function that way.  A function given a differential alone gets the
    adapter ``m -> differential(DensityMatrix(m)).matrix`` as its generator,
    which keeps every check that the state, the differential and its
    operator make.  When both are given, they are trusted to agree.

    ``state_independent`` marks a generator that returns the same matrix at
    every state; the integrator then exponentiates it once per step size.
    The factories set it; a function built by hand is not marked.

    ``dim`` is the dimension the function acts on, or None when it fits any
    state; the integrator rejects a state of another dimension before its
    first step.  The factories set it from their operators.
    """

    value: Callable[[DensityMatrix], float]
    differential: Callable[[DensityMatrix], HermitianOperator] | None = None
    label: str = "h"
    generator: Callable[[np.ndarray], np.ndarray] | None = None
    state_independent: bool = False
    dim: int | None = None

    def __post_init__(self):
        if self.dim is not None:
            require_count("dim", self.dim, 1)
        generator, differential = self.generator, self.differential
        if generator is None:
            if differential is None:
                raise ValueError(f"Hamiltonian function {self.label!r} needs "
                                 "a differential or a generator")
            object.__setattr__(self, "generator",
                               lambda m: differential(DensityMatrix(m)).matrix)
        elif differential is None:
            object.__setattr__(self, "differential",
                               lambda rho: HermitianOperator(generator(rho.matrix)))


def linear(a: HermitianOperator, label: str = "linear") -> HamiltonianFunction:
    return HamiltonianFunction(
        value=lambda rho: trace_pairing(rho, a),
        label=label,
        generator=lambda m: a.matrix,
        state_independent=True,
        dim=a.dim,
    )


def mean_field(
    linear_term: HermitianOperator,
    coupling: HermitianOperator,
    strength: float,
    label: str = "mean_field",
) -> HamiltonianFunction:
    require_same_dim(linear_term, coupling)
    require_real("strength", strength)

    def value(rho: DensityMatrix) -> float:
        m = trace_pairing(rho, coupling)
        return trace_pairing(rho, linear_term) + 0.5 * strength * m * m

    a, b = linear_term.matrix, coupling.matrix
    b_t = b.T.ravel()  # m.ravel() . b_t = Tr(m b): one dot product, no d x d product

    def generator(m: np.ndarray) -> np.ndarray:
        return a + strength * float(m.ravel().dot(b_t).real) * b

    return HamiltonianFunction(value=value, label=label, generator=generator,
                               dim=linear_term.dim)


def polynomial(terms: Sequence, label: str = "polynomial") -> HamiltonianFunction:
    terms = tuple(terms)
    for i, (c, _) in enumerate(terms):
        require_real(f"terms[{i}] coefficient", c)
    terms = tuple((float(c), tuple(factors)) for c, factors in terms)
    every_factor = [f for _, factors in terms for f in factors]
    for factor in every_factor[1:]:
        require_same_dim(every_factor[0], factor)
    # Each distinct factor, by identity, is one row: paired once per evaluation
    # (row k of stack_t.dot(m.ravel()) is Tr(m F_k)) and weighted once in D.
    distinct = {id(f): f for _, factors in terms for f in factors}
    row = {key: k for k, key in enumerate(distinct)}
    # The product rule, one entry per factor of each term in order: the
    # factor's row k, the term's coefficient and the rows of its other factors.
    plan = []
    for coeff, factors in terms:
        rows = [row[id(f)] for f in factors]
        plan += [(k, coeff, rows[:j] + rows[j + 1:]) for j, k in enumerate(rows)]
    stack = np.array([f.matrix.ravel() for f in distinct.values()])
    stack_t = np.array([f.matrix.T.ravel() for f in distinct.values()])

    def value(rho: DensityMatrix) -> float:
        total = 0.0
        for coeff, factors in terms:
            prod = coeff
            for f in factors:
                prod *= trace_pairing(rho, f)
            total += prod
        return total

    def generator(m: np.ndarray) -> np.ndarray:
        if not distinct:
            return np.zeros_like(m)
        paired = stack_t.dot(m.ravel()).real.tolist()
        weights = [0.0] * len(paired)
        for k, partial, others in plan:
            for r in others:
                partial *= paired[r]
            weights[k] += partial
        return np.array(weights).dot(stack).reshape(m.shape)

    return HamiltonianFunction(value=value, label=label, generator=generator,
                               dim=every_factor[0].dim if every_factor else None)


def from_value(
    fn: Callable[[np.ndarray], float],
    dim: int,
    label: str = "custom",
) -> HamiltonianFunction:
    """Wrap a closure-defined value map; the differential comes from central
    differences over a traceless operator basis (dim^2 - 1 evaluations x 2).

    The probes rho +/- step*basis leave the positive cone by O(step) near its
    boundary, so ``fn`` must accept arbitrary Hermitian matrices close to the
    state space, as every trace-polynomial functional does.  All probes are one
    work matrix, edited between calls, so ``fn`` must not modify or keep it.
    Each generator call walks the basis afresh, one matrix at a time, and the
    built function stores none of it.  The recovered differential is the
    traceless part; the identity component is pure gauge and does not affect
    the generated flow.
    """
    require_dim("dim", dim)
    step = GENERIC_FD_STEP
    r, up, down = 1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0), 1j / math.sqrt(2.0)

    def basis():
        # The orthonormal traceless Hermitian basis under Tr(XY), in probe
        # order, each matrix as its nonzero entries (flat index, value,
        # step * value): for each pair j < k row by row, the real and then the
        # imaginary matrix; then the diagonal levels 1 ... dim - 1.
        for j in range(dim):
            for k in range(j + 1, dim):
                jk, kj = j * dim + k, k * dim + j
                yield (jk, r, step * r), (kj, r, step * r)
                yield (jk, up, step * up), (kj, down, step * down)
        for level in range(1, dim):
            scale = 1.0 / math.sqrt(level * (level + 1))
            lowest = -level * scale
            yield ([(i * (dim + 1), scale, step * scale) for i in range(level)]
                   + [(level * (dim + 1), lowest, step * lowest)])

    def value(rho: DensityMatrix) -> float:
        return float(fn(rho.matrix))

    def generator(m: np.ndarray) -> np.ndarray:
        work = np.array(m, dtype=complex, order="C")
        flat = work.reshape(dim * dim)
        state, d = flat.tolist(), [0j] * (dim * dim)
        for entries in basis():
            for i, _, scaled in entries:
                flat[i] = state[i] + scaled
            plus = fn(work)
            for i, _, scaled in entries:
                flat[i] = state[i] - scaled
            slope = (plus - fn(work)) / (2.0 * step)
            for i, v, _ in entries:
                flat[i] = state[i]  # restored for the next direction
                d[i] += slope * v
        return np.array(d).reshape(dim, dim)

    return HamiltonianFunction(value=value, label=label, generator=generator, dim=dim)


def poisson_bracket(f: HamiltonianFunction, h: HamiltonianFunction, rho: DensityMatrix) -> float:
    """{f, h}(rho) = i Tr(rho [Df(rho), Dh(rho)]); antisymmetric in f, h."""
    bracket = 1j * trace_product(rho.matrix, commutator(f.differential(rho), h.differential(rho)))
    return float(bracket.real)


def fd_differential_residual(
    h: HamiltonianFunction,
    rho: DensityMatrix,
    delta: HermitianOperator,
    eps: float,
) -> float:
    """|central difference of h along delta - Tr(delta D(rho))|.

    delta must be traceless so that rho +/- eps*delta stays on the unit-trace
    plane; the caller scales delta so both perturbations remain valid states.
    """
    require_same_dim(rho, delta)
    require_real("eps", eps, FD_STEP_MIN, FD_STEP_MAX)
    if abs(np.trace(delta.matrix)) > 1e-10:
        raise ValueError("direction must be traceless")
    try:
        plus = DensityMatrix(rho.matrix + eps * delta.matrix)
        minus = DensityMatrix(rho.matrix - eps * delta.matrix)
    except ValueError as exc:
        raise ValueError(f"perturbed state leaves the admissible cone: {exc}") from None
    slope = (h.value(plus) - h.value(minus)) / (2.0 * eps)
    predicted = float(trace_product(delta.matrix, h.differential(rho).matrix).real)
    return abs(slope - predicted)


def shift_differential(h: HamiltonianFunction, c: float) -> HamiltonianFunction:
    """Add the gauge term c*Tr(rho): value shifts by c, differential by c*identity.

    The shifted function generates the same state flow; only the global phase
    of the realizing unitaries changes.
    """
    require_real("c", c)

    def value(rho: DensityMatrix) -> float:
        return h.value(rho) + c

    def generator(m: np.ndarray) -> np.ndarray:
        base = h.generator(m)
        return base + c * np.eye(base.shape[0])

    return HamiltonianFunction(value=value, label=f"{h.label}+{c:g}*tr", generator=generator,
                               state_independent=h.state_independent, dim=h.dim)
