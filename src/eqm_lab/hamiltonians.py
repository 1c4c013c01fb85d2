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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import DensityMatrix, HermitianOperator, trace_pairing

FD_STEP_MIN = 1e-7
FD_STEP_MAX = 1e-3
GENERIC_FD_STEP = 1e-5  # differential reconstruction for closure-defined functions


@dataclass(frozen=True)
class HamiltonianFunction:
    """A value map together with its operator-valued differential."""

    value: Callable[[DensityMatrix], float]
    differential: Callable[[DensityMatrix], HermitianOperator]
    label: str = "h"


def linear(a: HermitianOperator, label: str = "linear") -> HamiltonianFunction:
    return HamiltonianFunction(
        value=lambda rho: trace_pairing(rho, a),
        differential=lambda rho: a,
        label=label,
    )


def mean_field(
    linear_term: HermitianOperator,
    coupling: HermitianOperator,
    strength: float,
    label: str = "mean_field",
) -> HamiltonianFunction:
    if linear_term.dim != coupling.dim:
        raise ValueError(f"dimension mismatch: {linear_term.dim} vs {coupling.dim}")
    if not math.isfinite(strength):
        raise ValueError("coupling strength must be finite")

    def value(rho: DensityMatrix) -> float:
        m = trace_pairing(rho, coupling)
        return trace_pairing(rho, linear_term) + 0.5 * strength * m * m

    def differential(rho: DensityMatrix) -> HermitianOperator:
        m = trace_pairing(rho, coupling)
        return HermitianOperator(linear_term.matrix + strength * m * coupling.matrix)

    return HamiltonianFunction(value=value, differential=differential, label=label)


def polynomial(terms: Sequence, label: str = "polynomial", dim: int | None = None) -> HamiltonianFunction:
    terms = tuple((float(c), tuple(factors)) for c, factors in terms)
    dims = {f.dim for _, factors in terms for f in factors}
    if len(dims) > 1:
        raise ValueError(f"dimension mismatch among factors: {sorted(dims)}")
    if not all(math.isfinite(c) for c, _ in terms):
        raise ValueError("coefficients must be finite")

    def value(rho: DensityMatrix) -> float:
        total = 0.0
        for coeff, factors in terms:
            prod = coeff
            for f in factors:
                prod *= trace_pairing(rho, f)
            total += prod
        return total

    def differential(rho: DensityMatrix) -> HermitianOperator:
        out = None
        for coeff, factors in terms:
            if not factors:
                continue
            pairings = [trace_pairing(rho, f) for f in factors]
            for j, f in enumerate(factors):
                partial = coeff
                for i, p in enumerate(pairings):
                    if i != j:
                        partial *= p
                out = partial * f.matrix if out is None else out + partial * f.matrix
        if out is None:
            if dim is None:
                raise ValueError("polynomial differential needs a known dimension; "
                                 "give at least one term with factors or pass dim")
            out = np.zeros((dim, dim), dtype=complex)
        return HermitianOperator(out)

    return HamiltonianFunction(value=value, differential=differential, label=label)


def traceless_hermitian_basis(dim: int) -> list[np.ndarray]:
    """Orthonormal basis of traceless Hermitian matrices under Tr(XY), size dim^2 - 1."""
    basis = []
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / math.sqrt(2.0)
            basis.append(sym)
            anti = np.zeros((dim, dim), dtype=complex)
            anti[j, k] = -1j / math.sqrt(2.0)
            anti[k, j] = 1j / math.sqrt(2.0)
            basis.append(anti)
    for level in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        for i in range(level):
            diag[i, i] = 1.0
        diag[level, level] = -level
        basis.append(diag / math.sqrt(level * (level + 1)))
    return basis


def from_value(
    fn: Callable[[np.ndarray], float],
    dim: int,
    label: str = "custom",
    step: float = GENERIC_FD_STEP,
) -> HamiltonianFunction:
    """Wrap a closure-defined value map; the differential comes from central
    differences over a traceless operator basis (dim^2 - 1 evaluations x 2).

    The probes rho +/- step*basis leave the positive cone by O(step) near its
    boundary, so ``fn`` must accept arbitrary Hermitian matrices close to the
    state space, as every trace-polynomial functional does.  The recovered
    differential is the traceless part; the identity component is pure gauge
    and does not affect the generated flow.
    """
    basis = traceless_hermitian_basis(dim)

    def value(rho: DensityMatrix) -> float:
        return float(fn(rho.matrix))

    def differential(rho: DensityMatrix) -> HermitianOperator:
        out = np.zeros((dim, dim), dtype=complex)
        for direction in basis:
            slope = (fn(rho.matrix + step * direction) - fn(rho.matrix - step * direction)) / (2.0 * step)
            out += slope * direction
        return HermitianOperator(out)

    return HamiltonianFunction(value=value, differential=differential, label=label)


def poisson_bracket(f: HamiltonianFunction, h: HamiltonianFunction, rho: DensityMatrix) -> float:
    """{f, h}(rho) = i Tr(rho [Df(rho), Dh(rho)]); antisymmetric in f, h."""
    df = f.differential(rho).matrix
    dh = h.differential(rho).matrix
    if df.shape != dh.shape:
        raise ValueError(f"dimension mismatch: {df.shape[0]} vs {dh.shape[0]}")
    bracket = 1j * np.trace(rho.matrix @ (df @ dh - dh @ df))
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
    if not FD_STEP_MIN <= eps <= FD_STEP_MAX:
        raise ValueError(f"eps must lie in [{FD_STEP_MIN:g}, {FD_STEP_MAX:g}], got {eps:g}")
    if abs(np.trace(delta.matrix)) > 1e-10:
        raise ValueError("direction must be traceless")
    try:
        plus = DensityMatrix(rho.matrix + eps * delta.matrix)
        minus = DensityMatrix(rho.matrix - eps * delta.matrix)
    except ValueError as exc:
        raise ValueError(f"perturbed state leaves the admissible cone: {exc}") from None
    slope = (h.value(plus) - h.value(minus)) / (2.0 * eps)
    predicted = float(np.trace(delta.matrix @ h.differential(rho).matrix).real)
    return abs(slope - predicted)


def shift_differential(h: HamiltonianFunction, c: float) -> HamiltonianFunction:
    """Add the gauge term c*Tr(rho): value shifts by c, differential by c*identity.

    The shifted function generates the same state flow; only the global phase
    of the realizing unitaries changes.
    """
    if not math.isfinite(c):
        raise ValueError("shift must be finite")

    def value(rho: DensityMatrix) -> float:
        return h.value(rho) + c

    def differential(rho: DensityMatrix) -> HermitianOperator:
        base = h.differential(rho).matrix
        return HermitianOperator(base + c * np.eye(base.shape[0]))

    return HamiltonianFunction(value=value, differential=differential,
                               label=f"{h.label}+{c:g}*tr")
