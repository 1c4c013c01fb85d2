"""Composition-operator checks for classical symplectic toy flows.

A symplectic flow on the (q, p) plane preserves the phase-space area, so
composing observables with the flow is a unitary operator on square-
integrable functions.  This module realizes that statement at desk scale:
observables are plain function handles, the flow transports quadrature
nodes (no grid interpolation, which would fake non-unitarity), and inner
products are Gauss-Legendre sums over a truncated square.  Test families
must decay fast enough that no mass crosses the boundary.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .flow import split_steps
from .hilbert import require_count

PENDULUM_STEP = 1e-4      # internal leapfrog step
SPATIAL_FD_STEP = 1e-5    # central-difference step for partial derivatives
GEN_DT_MIN = 1e-6
GEN_DT_MAX = 1e-3
BOUNDARY_DECAY = 1e-8     # observable magnitude allowed on the outermost nodes

DEFAULT_EXTENT = 6.0
DEFAULT_ORDER = 64


@dataclass(frozen=True)
class HarmonicOscillator:
    """Exact rotation flow: (q, p) -> (q cos wt + p sin wt, -q sin wt + p cos wt)."""

    omega: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")


@dataclass(frozen=True)
class Pendulum:
    """Pendulum flow with energy p^2/2 - g cos q, advanced by leapfrog."""

    g: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.g):
            raise ValueError(f"g must be finite, got {self.g}")


SymplecticFlow = Union[HarmonicOscillator, Pendulum]


def _leapfrog(g: float, q, p, t: float):
    """Kick-drift-kick steps of size PENDULUM_STEP (signed), plus a remainder step.

    The closing half-kick of one step and the opening half-kick of the next
    read sin(q) at the same q, so the sine is evaluated once per step.  Each
    update runs in place with the arithmetic of p - (0.5 h g) sin(q) and
    q + h p, so every node is bit-identical to the plain three-line loop.
    """
    n, rem = split_steps(abs(t), PENDULUM_STEP)
    sign = 1.0 if t > 0 else -1.0
    steps = itertools.repeat(sign * PENDULUM_STEP, n)
    if rem > 0.0:
        steps = itertools.chain(steps, (sign * rem,))
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    # empty_like keeps 0-d inputs as arrays, which out= needs.
    sine, scratch = np.empty_like(q), np.empty_like(q)
    np.sin(q, out=sine)
    for h in steps:
        kick = 0.5 * h * g
        np.subtract(p, np.multiply(kick, sine, out=scratch), out=p)
        np.add(q, np.multiply(h, p, out=scratch), out=q)
        np.sin(q, out=sine)
        np.subtract(p, np.multiply(kick, sine, out=scratch), out=p)
    return q[()], p[()]


def _point_symmetric(q: np.ndarray, p: np.ndarray) -> bool:
    """Whether the parity (q, p) -> (-q, -p) maps point k of a 1-D set onto point n - 1 - k."""
    return (q.ndim == 1 and q.shape == p.shape
            and np.array_equal(q[::-1], -q) and np.array_equal(p[::-1], -p))


def flow_map(flow: SymplecticFlow, q, p, t: float):
    """Transport phase-space points by time t; vectorized over numpy arrays.

    The pendulum energy p^2/2 - g cos q is even, so the parity commutes with
    the flow and with each leapfrog update (np.sin is odd).  When a 1-D point
    set is its own mirror image, point k being minus point n - 1 - k as in
    every Quadrature.gauss_legendre rule, only the first ceil(n/2) points are
    integrated and the rest are their negated reversal, bit-identical to
    transporting every point.
    """
    if not math.isfinite(t):
        raise ValueError("transport time must be finite")
    if isinstance(flow, HarmonicOscillator):
        angle = flow.omega * t
        if not math.isfinite(angle):
            raise ValueError(f"omega * t overflows: omega = {flow.omega:g}, t = {t:g}")
        c, s = math.cos(angle), math.sin(angle)
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        return q * c + p * s, -q * s + p * c
    if isinstance(flow, Pendulum):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        if not _point_symmetric(q, p):
            return _leapfrog(flow.g, q, p, t)
        n = q.size
        qt, pt = _leapfrog(flow.g, q[:(n + 1) // 2], p[:(n + 1) // 2], t)
        # 0 - x is -x for x != 0 and +0 for a zero: the sign that an exact
        # cancellation gives the mirrored point too.
        return tuple(np.concatenate((x, 0.0 - x[:n // 2][::-1])) for x in (qt, pt))
    raise TypeError(f"unknown flow: {type(flow).__name__}")


@dataclass(frozen=True)
class ClassicalObservable:
    """A complex-valued phase-space function; eval must accept numpy arrays."""

    eval: Callable
    label: str = "f"


def compose(f: ClassicalObservable, flow: SymplecticFlow, t: float) -> ClassicalObservable:
    """The composition operator: (U_t f)(m) = f(flow_t(m)).

    Linear in f for every flow, nonlinear flows included; constants are fixed
    points.  Satisfies the group law U_s U_t = U_{s+t} up to flow accuracy.
    """

    def evaluate(q, p):
        return f.eval(*flow_map(flow, q, p, t))

    return ClassicalObservable(eval=evaluate, label=f"U[{t:g}]{f.label}")


def gaussian_observable(center=(0.0, 0.0), width: float = 1.0) -> ClassicalObservable:
    q0, p0 = float(center[0]), float(center[1])
    if not (math.isfinite(width) and width > 0):
        raise ValueError("width must be positive")
    scale = 2.0 * width * width

    def evaluate(q, p):
        return np.exp(-((q - q0) ** 2 + (p - p0) ** 2) / scale)

    return ClassicalObservable(eval=evaluate, label=f"gaussian({q0:g},{p0:g};{width:g})")


def builtin_observable(name: str, **params) -> ClassicalObservable:
    """The named built-ins: "gaussian" (center, width), "q", "p", "q2"."""
    if name == "gaussian":
        return gaussian_observable(**params)
    if params:
        raise ValueError(f"observable {name!r} takes no parameters")
    if name == "q":
        return ClassicalObservable(eval=lambda q, p: q + 0j * p, label="q")
    if name == "p":
        return ClassicalObservable(eval=lambda q, p: p + 0j * q, label="p")
    if name == "q2":
        return ClassicalObservable(eval=lambda q, p: q * q + 0j * p, label="q2")
    raise ValueError(f"unknown observable {name!r}; expected gaussian, q, p, or q2")


def classical_hamiltonian(flow: SymplecticFlow) -> ClassicalObservable:
    """The energy function whose Hamiltonian flow the given flow realizes."""
    if isinstance(flow, HarmonicOscillator):
        w = flow.omega
        return ClassicalObservable(eval=lambda q, p: 0.5 * w * (q * q + p * p),
                                   label=f"harmonic_energy({w:g})")
    if isinstance(flow, Pendulum):
        g = flow.g
        return ClassicalObservable(eval=lambda q, p: 0.5 * p * p - g * np.cos(q),
                                   label=f"pendulum_energy({g:g})")
    raise TypeError(f"unknown flow: {type(flow).__name__}")


@dataclass(frozen=True)
class Quadrature:
    """Tensor Gauss-Legendre rule on [-extent, extent]^2, nodes flattened."""

    q: np.ndarray
    p: np.ndarray
    weights: np.ndarray
    boundary: np.ndarray
    extent: float

    def __post_init__(self):
        shapes = {np.shape(a) for a in (self.q, self.p, self.weights, self.boundary)}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError("quadrature q, p, weights and boundary must be 1-D arrays of one length")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ValueError("quadrature nodes must be finite")
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be positive")

    @classmethod
    def gauss_legendre(cls, extent: float = DEFAULT_EXTENT, order: int = DEFAULT_ORDER) -> "Quadrature":
        if not (math.isfinite(extent) and extent > 0):
            raise ValueError("extent must be positive")
        require_count("order", order, 2)
        nodes, weights = np.polynomial.legendre.leggauss(order)
        nodes = nodes * extent
        weights = weights * extent
        qq, pp = np.meshgrid(nodes, nodes, indexing="ij")
        ww = np.outer(weights, weights)
        edge = np.zeros((order, order), dtype=bool)
        edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
        for arr in (qq, pp, ww, edge):
            arr.setflags(write=False)
        return cls(q=qq.ravel(), p=pp.ravel(), weights=ww.ravel(),
                   boundary=edge.ravel(), extent=float(extent))


def _node_values(f: ClassicalObservable, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    values = np.asarray(f.eval(q, p), dtype=complex)
    if values.shape != q.shape:
        values = np.broadcast_to(values, q.shape)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"observable {f.label!r} is not finite on the quadrature nodes")
    return values


def inner_product(f: ClassicalObservable, g: ClassicalObservable, quad: Quadrature) -> complex:
    """sum_i w_i f(m_i) conj(g(m_i)); conjugate-symmetric by construction.

    The product is grouped as w * (f * conj(g)) so that swapping the
    arguments conjugates every term, and thus the fixed-order sum, exactly.
    """
    fv = _node_values(f, quad.q, quad.p)
    gv = _node_values(g, quad.q, quad.p)
    return complex(np.sum(quad.weights * (fv * np.conj(gv))))


def _warn_on_leak(f: ClassicalObservable, values: np.ndarray, quad: Quadrature) -> None:
    """Warn, at the residual's caller, when f is not negligible on the boundary nodes.

    The warning points at the first frame outside this module, so it names
    the caller's line whichever public function it went through.
    """
    leak = float(np.max(np.abs(values[quad.boundary]))) if np.any(quad.boundary) else 0.0
    if leak > BOUNDARY_DECAY:
        frame, stacklevel = sys._getframe(1), 2
        while frame.f_globals is globals():
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(
            f"observable {f.label!r} reaches {leak:.3e} on the domain boundary; "
            "transported mass may leak outside the quadrature square",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _pair_residual(weights: np.ndarray, fv, gv, f_moved, g_moved) -> float:
    """|sum w f(moved) conj g(moved) - sum w f conj g| from node values."""
    moved = np.sum(weights * f_moved * np.conj(g_moved))
    ref = np.sum(weights * fv * np.conj(gv))
    return abs(complex(moved - ref))


def unitarity_residual(f: ClassicalObservable, g: ClassicalObservable,
                       flow: SymplecticFlow, t: float, quad: Quadrature) -> float:
    """|<f o flow_t, g o flow_t> - <f, g>| via transported node evaluation.

    The quadrature nodes stay fixed; the integrand is composed with the flow.
    A measure-preserving flow leaves the continuum integral invariant, so the
    residual collects quadrature and flow-integration error only.  It is the
    (0, 1) cell of unitarity_residuals((f, g), ...).
    """
    return float(unitarity_residuals((f, g), flow, t, quad)[0, 1])


def unitarity_residuals(fs, flow: SymplecticFlow, t: float, quad: Quadrature) -> np.ndarray:
    """Symmetric matrix whose entry (i, j), i <= j, is unitarity_residual(fs[i], fs[j], ...).

    The nodes are transported once and each observable is evaluated once on
    the fixed and once on the moved nodes, whatever the number of pairs.
    """
    fs = tuple(fs)
    fixed = [_node_values(f, quad.q, quad.p) for f in fs]
    for f, values in zip(fs, fixed):
        _warn_on_leak(f, values, quad)
    qt, pt = flow_map(flow, quad.q, quad.p, t)
    moved = [_node_values(f, qt, pt) for f in fs]
    out = np.empty((len(fs), len(fs)))
    for i in range(len(fs)):
        for j in range(i, len(fs)):
            out[i, j] = out[j, i] = _pair_residual(quad.weights, fixed[i], fixed[j],
                                                   moved[i], moved[j])
    return out


def liouville_generator_residual(f: ClassicalObservable, flow: SymplecticFlow,
                                 h_cl: ClassicalObservable, point, dt: float) -> float:
    """|d/dt f(flow_t(m))|_{t=0} - {f, H}(m)| with both sides by central differences.

    The time derivative uses the flow at +/- dt; the bracket
    df/dq dH/dp - df/dp dH/dq uses spatial steps of SPATIAL_FD_STEP.
    """
    if not GEN_DT_MIN <= dt <= GEN_DT_MAX:
        raise ValueError(f"dt must lie in [{GEN_DT_MIN:g}, {GEN_DT_MAX:g}], got {dt:g}")
    q0, p0 = float(point[0]), float(point[1])
    qf, pf = flow_map(flow, q0, p0, dt)
    qb, pb = flow_map(flow, q0, p0, -dt)
    time_deriv = (complex(f.eval(qf, pf)) - complex(f.eval(qb, pb))) / (2.0 * dt)

    s = SPATIAL_FD_STEP

    def partials(func):
        dq = (complex(func.eval(q0 + s, p0)) - complex(func.eval(q0 - s, p0))) / (2.0 * s)
        dp = (complex(func.eval(q0, p0 + s)) - complex(func.eval(q0, p0 - s))) / (2.0 * s)
        return dq, dp

    df_dq, df_dp = partials(f)
    dh_dq, dh_dp = partials(h_cl)
    bracket = df_dq * dh_dp - df_dp * dh_dq
    return abs(time_deriv - bracket)
