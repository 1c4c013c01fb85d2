"""Composition-operator checks for classical symplectic toy flows.

A symplectic flow on the (q, p) plane preserves the phase-space area, so
composing observables with the flow is a unitary operator on square-
integrable functions.  This module realizes that statement at desk scale:
observables are plain function handles, the flow transports quadrature
nodes (no grid interpolation, which would fake non-unitarity), and inner
products are Gauss-Legendre sums over a truncated square.  Test families
must decay fast enough that no mass crosses the boundary.  Both flows are
exact: the oscillator is a rotation and the pendulum moves by Jacobi
elliptic functions, so transporting a rule costs the same at every time.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .hilbert import require_count, require_real

SPATIAL_FD_STEP = 1e-5    # central-difference step for partial derivatives
GEN_DT_MIN = 1e-6
GEN_DT_MAX = 1e-3
BOUNDARY_DECAY = 1e-8     # observable magnitude allowed on the outermost nodes
# Carlson's (3 r)^(-1/6) for r = 2^-53: once every point's spread, scaled by it
# and shrunk by 4 a duplication, is below its mean, R_F is good to about r.
RF_SCALE = (3.0 * 2.0 ** -53) ** (-1.0 / 6.0)
# Landen moduli below it are dropped: k^2 < 1e-18 leaves sn = sin, cn = cos, dn = 1.
LANDEN_TOL = 2.0 ** -30

DEFAULT_EXTENT = 6.0
DEFAULT_ORDER = 64


@dataclass(frozen=True)
class HarmonicOscillator:
    """Exact rotation flow: (q, p) -> (q cos wt + p sin wt, -q sin wt + p cos wt)."""

    omega: float = 1.0

    def __post_init__(self):
        require_real("omega", self.omega)


@dataclass(frozen=True)
class Pendulum:
    """Pendulum flow with energy p^2/2 - g cos q, moved by its exact Jacobi-elliptic form.

    With omega = sqrt(g) and m = sin^2(q/2) + p^2/(4 g), 1 on the separatrix,
    a point librates for m < 1: sin(q/2) = sqrt(m) sn(u | m) and
    p = 2 omega sqrt(m) cn(u | m), u advancing at omega.  For m > 1 it
    rotates: q/2 = am(u | 1/m) and p = +-2 omega sqrt(m) dn(u | 1/m), u
    advancing at +-omega sqrt(m) with the sign of p (DLMF 22.19(i)).  For
    m = 1, sn = tanh and cn = dn = sech.  g = 0 is free flight and g < 0 the
    |g| pendulum shifted by pi in q.
    """

    g: float = 1.0

    def __post_init__(self):
        require_real("g", self.g)


SymplecticFlow = Union[HarmonicOscillator, Pendulum]


def _carlson_rf(x, y):
    """Carlson's R_F(x, y, 1) for x, y >= 0, not both 0, vectorized by duplication.

    Each pass maps every argument v to (v + l) / 4 with l = sqrt(xy) +
    sqrt(yz) + sqrt(zx), which leaves R_F unchanged, until Carlson's bound
    says the fifth-order series about the mean is exact to rounding at every
    point (Carlson, Numer. Algorithms 10, 13 (1995); DLMF 19.36.1).
    """
    mean = (x + y + 1.0) / 3.0
    dx, dy = mean - x, mean - y
    bound = RF_SCALE * np.maximum(np.maximum(np.abs(dx), np.abs(dy)), np.abs(dx + dy))
    z, shrink = 1.0, 1.0
    while np.any(bound >= mean):
        rx, ry, rz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = rx * (ry + rz) + ry * rz
        x, y, z, mean = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (mean + lam)
        bound, shrink = 0.25 * bound, 0.25 * shrink
    dx, dy = dx * (shrink / mean), dy * (shrink / mean)
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 + e2 * (e2 / 24.0 - 0.1 - 3.0 / 44.0 * e3) + e3 / 14.0) / np.sqrt(mean)


def _landen(kappa):
    """The descending Landen moduli k_1, k_2, ... of modulus kappa < 1, and a_N.

    a_n, b_n and c_n are the arithmetic-geometric mean of 1 and
    sqrt(1 - kappa^2), with c_0 = kappa and c_(n+1) = c_n^2 / (4 a_(n+1)), free
    of cancellation; k_n = c_n / a_n, and K(kappa^2) = pi / (2 a_N) (DLMF
    19.8.1, 22.20(ii)).  Levels run until every point's modulus is below
    LANDEN_TOL.
    """
    a, b, c = 1.0, np.sqrt((1.0 - kappa) * (1.0 + kappa)), kappa
    moduli = []
    while np.any(c > LANDEN_TOL * a):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        c = c * c / (4.0 * a)
        moduli.append(c / a)
    return moduli, a


def _sn_cn_dn(u, moduli, a):
    """sn, cn and dn at u from the Landen levels of _landen: one sin and one cos.

    At the last level sn, cn and dn are sin, cos and 1 of a_N u.  Each level
    up applies Gauss's transformation, with s = sn, c = cn and d = dn below:
    sn = (1 + k) s / (1 + k s^2), cn = c d / (1 + k s^2) and
    dn = (1 - k s^2) / (1 + k s^2) (Bulirsch, Numer. Math. 7, 78 (1965);
    DLMF 22.7.1-3).
    """
    x = u * a
    s, c, d = np.sin(x), np.cos(x), 1.0
    for k in reversed(moduli):
        ks2 = k * s * s
        r = 1.0 / (1.0 + ks2)
        s, c, d = (1.0 + k) * s * r, c * d * r, (1.0 - ks2) * r
    return s, c, d


def _pendulum_flow(g: float, q: np.ndarray, p: np.ndarray, t: float):
    """The pendulum's exact flow by time t != 0, vectorized over the points.

    W = omega sqrt(m) sorts the points: W < omega librates and W > omega
    rotates, with modulus kappa = min(W, omega) / max(W, omega).  q is
    reduced into [-pi, pi] by a multiple of 2 pi, which is added back, and
    the argument of a rotation is reduced by a multiple of 2 K, adding pi
    to am per period.  The starting argument is F(phi | kappa^2) =
    sin(phi) R_F(cos^2(q/2), (p / 2W)^2, 1) for both kinds, phi = q/2 for a
    rotation and the amplitude for a libration; a libration moving left
    starts at 2 K - F.  Rest points, where p = 0 and sin^2(q/2) is 0 or 1,
    stay put.
    """
    if g < 0.0:
        qt, pt = _pendulum_flow(-g, q - math.pi, p, t)
        return qt + math.pi, pt
    if g == 0.0:
        rate = float(np.max(np.abs(p), initial=0.0))
        if not math.isfinite(rate * t):
            raise ValueError(f"rotation rate * t overflows: rate = {rate:g}, t = {t:g}")
        return q + p * t, p.copy()
    w = math.sqrt(g)
    if not math.isfinite(w * t):
        raise ValueError(f"omega * t overflows: omega = sqrt(|g|) = {w:g}, t = {t:g}")
    turns = np.rint(q / (2.0 * math.pi))
    half = 0.5 * (q - 2.0 * math.pi * turns)
    s, c = np.sin(half), np.cos(half)
    big_w = np.hypot(w * s, 0.5 * p)
    rest = (p == 0.0) & ((big_w == 0.0) | (big_w == w))
    any_rest = rest.any()
    if any_rest:    # stand-ins that keep every step finite; the points are put back
        s, c, big_w = np.where(rest, 0.0, s), np.where(rest, 1.0, c), np.where(rest, 0.5 * w, big_w)
    rot = big_w >= w
    # Twice W is the top speed of a rotation, which bounds how far its q moves.
    rate = 2.0 * float(np.max(big_w, initial=0.0, where=rot))
    if not math.isfinite(rate * t):
        raise ValueError(f"rotation rate * t overflows: rate = {rate:g}, t = {t:g}")
    kappa = np.minimum(big_w, w) / np.maximum(big_w, w)
    sep = kappa == 1.0
    any_sep = sep.any()
    # On the separatrix K is infinite: its points take a stand-in modulus and
    # no period reduction, and tanh and sech replace sn, cn and dn below.
    moduli, a = _landen(np.where(sep, 0.0, kappa) if any_sep else kappa)
    period = math.pi / a    # 2 K
    f = np.where(rot, s, w * s / big_w) * _carlson_rf(c * c, np.square(0.5 * p / big_w))
    signed_w = np.copysign(big_w, p)
    u = np.where(rot | (p >= 0.0), f, period - f) + np.where(rot, signed_w, w) * t
    laps = np.where(rot & ~sep if any_sep else rot, np.rint(u / period), 0.0)
    sn, cn, dn = _sn_cn_dn(u - period * laps, moduli, a)
    if any_sep:
        decay = np.exp(-np.abs(u))
        sech = 2.0 * decay / (1.0 + decay * decay)
        sn, cn, dn = np.where(sep, np.tanh(u), sn), np.where(sep, sech, cn), np.where(sep, sech, dn)
    qt = 2.0 * (np.arctan2(np.where(rot, sn, kappa * sn), np.where(rot, cn, dn))
                + math.pi * (turns + laps))
    pt = 2.0 * np.where(rot, signed_w * dn, big_w * cn)
    if any_rest:
        qt, pt = np.where(rest, q, qt), np.where(rest, p, pt)
    return qt, pt


def flow_map(flow: SymplecticFlow, q, p, t: float):
    """Transport phase-space points by time t; vectorized over numpy arrays.

    Both flows are closed forms, so the cost does not grow with |t|.  A
    0-d point gives 0-d coordinates, and t = 0 returns the points bit for
    bit.  Where omega t, or a rotating pendulum point's top speed
    2 omega sqrt(m) times t, is not a finite float, ValueError names it.
    """
    require_real("t", t)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if isinstance(flow, HarmonicOscillator):
        angle = flow.omega * t
        if not math.isfinite(angle):
            raise ValueError(f"omega * t overflows: omega = {flow.omega:g}, t = {t:g}")
        c, s = math.cos(angle), math.sin(angle)
        return q * c + p * s, -q * s + p * c
    if isinstance(flow, Pendulum):
        if t == 0.0:
            return q.copy()[()], p.copy()[()]
        return _pendulum_flow(flow.g, q, p, t)
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


def _coordinates(name: str, point) -> tuple[float, float]:
    """(q, p) of a phase-space point, each coordinate checked as a finite real."""
    for i in (0, 1):
        require_real(f"{name}[{i}]", point[i])
    return float(point[0]), float(point[1])


def gaussian_observable(center=(0.0, 0.0), width: float = 1.0) -> ClassicalObservable:
    q0, p0 = _coordinates("center", center)
    require_real("width", width, positive=True)
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
        if not np.all(np.isfinite(self.weights) & (self.weights > 0)):
            raise ValueError("quadrature weights must be positive and finite")

    @classmethod
    def gauss_legendre(cls, extent: float = DEFAULT_EXTENT, order: int = DEFAULT_ORDER) -> "Quadrature":
        require_real("extent", extent, positive=True)
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
    require_real("dt", dt, GEN_DT_MIN, GEN_DT_MAX)
    q0, p0 = _coordinates("point", point)
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
