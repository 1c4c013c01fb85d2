"""Validated dense linear algebra over a finite-dimensional Hilbert space.

Wrapper types enforce the structural invariants (hermiticity, unitarity,
unit trace, positive semidefiniteness, unit norm) at construction time and
are immutable afterwards.  Constructors reject bad input rather than fixing
it.  All tolerances used by the invariant checks live here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Invariant tolerances, fixed package-wide.
HERMITICITY_TOL = 1e-12  # max-abs entry of A - A_dagger
UNITARITY_TOL = 1e-10    # max-abs entry of U_dagger U - identity
# Unit-trace gate.  Repeated conjugation by one rounded exponential drifts the
# trace systematically at ~1 ulp per step, so states carried through 10^4-step
# runs reach a few 1e-12; the gate sits above that, while trajectory trace
# drift is monitored against the tighter flow bound (see eqm_lab.flow).
TRACE_TOL = 5e-11
PSD_SLACK = 1e-10        # how far below zero the smallest eigenvalue may sit
NORM_TOL = 1e-12         # deviation of a state vector from unit norm
PURITY_TOL = 1e-10       # 1 - Tr(rho^2) allowed for inputs declared pure

MIN_DIM = 2
MAX_DIM = 64

# expm_hermitian takes the Padé path from this dimension on and eigh below it.
# Timed per call with one BLAS thread (2-vCPU Xeon VM, numpy 2.4.6, OpenBLAS
# 0.3.31) at d = 6 to 64, Padé lost at d = 6 and 8, the two were within about
# 10% of each other at d = 12 to 14, and Padé won by 13% or more in every
# round from d = 15 on (44% at d = 64).
PADE_MIN_DIM = 15

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)


def require_count(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Reject a count that is not an integer of at least minimum (and at most maximum).

    numpy integers pass; a bool, which Python counts as an integer, does not.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum
            or (maximum is not None and value > maximum)):
        bounds = f"of at least {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def require_dim(name: str, value) -> None:
    """Reject a dimension that is not an integer in [MIN_DIM, MAX_DIM]."""
    require_count(name, value, MIN_DIM, MAX_DIM)


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; zero for empty input."""
    return float(np.abs(a).max()) if a.size else 0.0


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries (fresh copy)."""
    mat = np.array(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] == 0:
        raise ValueError("matrix must be nonempty")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return mat


def _hermiticity_defect(mat: np.ndarray) -> float:
    return max_abs(mat - mat.conj().T)


def require_same_dim(a, b) -> None:
    """Raise ValueError unless a and b have the same dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True, eq=False)
class _SquareMatrix:
    """A square matrix; each subclass's __post_init__ checks it, then calls _freeze."""

    matrix: np.ndarray

    def _freeze(self, mat: np.ndarray) -> None:
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class HermitianOperator(_SquareMatrix):
    """A self-adjoint operator; hermiticity is checked within HERMITICITY_TOL."""

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix)
        defect = _hermiticity_defect(mat)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |A - A†| = {defect:.3e}")
        self._freeze(mat)


@dataclass(frozen=True, eq=False)
class UnitaryOperator(_SquareMatrix):
    """A unitary operator; U_dagger U = identity within UNITARITY_TOL."""

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix)
        defect = max_abs(mat.conj().T @ mat - np.eye(mat.shape[0]))
        if defect > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: max |U†U - 1| = {defect:.3e}")
        self._freeze(mat)


@dataclass(frozen=True, eq=False)
class DensityMatrix(_SquareMatrix):
    """A state: Hermitian, unit trace, positive semidefinite (within PSD_SLACK)."""

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix)
        defect = _hermiticity_defect(mat)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"state is not Hermitian: max |A - A†| = {defect:.3e}")
        trace = np.trace(mat)
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"state must have unit trace, got Tr = {trace.real:.17g}")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -PSD_SLACK:
            raise ValueError(f"state is not positive semidefinite: lowest eigenvalue {lowest:.3e}")
        self._freeze(mat)

    def purity(self) -> float:
        """Tr(rho^2), equal to 1 exactly for one-dimensional projections."""
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized vector in the underlying Hilbert space."""

    vector: np.ndarray

    def __post_init__(self):
        vec = np.array(self.vector, dtype=complex)
        if vec.ndim != 1 or vec.shape[0] == 0:
            raise ValueError(f"expected a nonempty vector, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("vector entries must be finite")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"vector must be normalized, got norm = {norm:.17g}")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """AB - BA.  Anti-Hermitian for Hermitian inputs, so i*[A, B] is Hermitian."""
    require_same_dim(a, b)
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def trace_pairing(rho: DensityMatrix, a: HermitianOperator) -> float:
    """Re Tr(rho A), the duality pairing between states and observables.

    The imaginary part of the trace vanishes for valid inputs and is asserted
    to be below HERMITICITY_TOL; a larger value signals corrupted inputs.
    """
    require_same_dim(rho, a)
    value = complex(np.trace(rho.matrix @ a.matrix))
    if abs(value.imag) > HERMITICITY_TOL:
        raise ValueError(f"trace pairing has a non-negligible imaginary part: {value.imag:.3e}")
    return value.real


def transition_probability(p: DensityMatrix, q: DensityMatrix) -> float:
    """Tr(PQ) for two one-dimensional projections: |<psi|phi>|^2."""
    require_same_dim(p, q)
    for name, state in (("first", p), ("second", q)):
        pur = state.purity()
        if pur < 1.0 - PURITY_TOL:
            raise ValueError(f"{name} argument is not pure: purity = {pur:.17g}")
    return float(np.trace(p.matrix @ q.matrix).real)


# Diagonal Padé approximants r_m = q_m^-1 p_m of exp(X), m = 3, 5, 7, 9 (N. J.
# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)): (theta_m, the
# coefficients c_0 ... c_m of p_m).  For ||X||_1 <= theta_m, r_m is exp(X) to
# double precision; past theta_9, X is scaled by 2^-k and r_9 squared k times.
_PADE_TABLE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
                            56.0, 1.0)),
    (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                           30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
)


def _pade_weights(coeffs) -> tuple:
    """The pairs (v_j, h_j), j = 0 ... (m - 1) / 2, of p_m(-iB) = V - iH, where
    V = sum_j v_j W^j and iH = B sum_j h_j W^j with W = B @ B, from X^2j = (-W)^j."""
    even = [c * (-1) ** j for j, c in enumerate(coeffs[0::2])]
    odd = [1j * c * (-1) ** j for j, c in enumerate(coeffs[1::2])]
    return tuple(zip(even, odd))


_PADE = tuple((theta, _pade_weights(coeffs)) for theta, coeffs in _PADE_TABLE)


def _pade_fraction(b: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """q_m(-iB) = V + iH and p_m(-iB) = V - iH for Hermitian B.

    Only q and p outlive the call, and they reuse the buffers of V and of
    the polynomial in W, so the caller's solve runs with three d x d arrays
    alive.  At d = 64 a call with more temporaries alive raised the peak
    RSS of perfbench's long-flow, and in a loop of calls it made glibc
    malloc trim and refault the heap every call (~130 page faults).
    """
    w = b @ b
    (v0, h0), (v1, h1), *higher = weights
    v, h = v1 * w, h1 * w
    power = w
    for vj, hj in higher:
        power = power @ w
        v += vj * power
        h += hj * power
    d = b.shape[0]
    v.ravel()[::d + 1] += v0
    h.ravel()[::d + 1] += h0
    ih = np.matmul(b, h, out=w)
    return np.add(v, ih, out=h), np.subtract(v, ih, out=v)


def _pade_exponential(mat: np.ndarray, s: float) -> np.ndarray:
    """exp(-i s A) by the Padé approximant of X = -i s A with scaling and squaring.

    A is read as eigh reads it: the lower triangle and the real diagonal.
    For skew-Hermitian X, q_m(X) = p_m(-X) = p_m(X)^dagger, so the result
    q^-1 p, taken by one linear solve, is unitary in exact arithmetic.
    """
    d = mat.shape[0]
    b = np.where(np.tri(d, dtype=bool), mat, mat.conj().T)
    b.ravel()[::d + 1] = mat.diagonal().real
    norm = abs(s) * float(np.abs(b).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError(f"exponent must be finite, got |s| ||A||_1 = {norm}")
    squarings = 0
    for theta, weights in _PADE:
        if norm <= theta:
            break
    else:
        squarings = math.ceil(math.log2(norm / theta))
    b *= math.ldexp(s, -squarings)
    r = np.linalg.solve(*_pade_fraction(b, weights))
    for _ in range(squarings):
        r = r @ r
    return r


def expm_hermitian(mat: np.ndarray, s: float) -> np.ndarray:
    """exp(-i s A) for Hermitian A, unitary to rounding.

    Three paths by the dimension d, each reading only the real diagonal and
    the lower triangle of A, as eigh does:

    - d = 2: a qubit generator A = a0 I + a.sigma takes the closed form
      exp(-i s a0) (cos(s|a|) I - i sin(s|a|)/|a| (A - a0 I)), with
      sin(s|a|)/|a| -> s at |a| = 0;
    - 3 <= d < PADE_MIN_DIM: eigh, exp(-i s A) = V exp(-i s Lambda) V^dagger;
    - d >= PADE_MIN_DIM: the diagonal Padé approximant of degree 3 to 9, with
      scaling and squaring past ||s A||_1 = 2.1 (Higham 2005).

    Non-finite entries are not checked for.  The closed form returns NaN for a
    NaN and raises ValueError (math.sin) for an infinity; eigh returns NaN or
    raises LinAlgError, a ValueError; the Padé path raises ValueError for both.
    flow._steps turns each of these into GeneratorError.
    """
    if mat.shape == (2, 2):
        # a = (Re A10, Im A10, z) with z = (A00 - A11) / 2.
        (a00, _), (a10, a11) = mat.tolist()
        a0, z = 0.5 * a00.real + 0.5 * a11.real, 0.5 * a00.real - 0.5 * a11.real
        norm = math.hypot(z, a10.real, a10.imag)
        sinc = math.sin(s * norm) / norm if norm else s
        phase = complex(math.cos(s * a0), -math.sin(s * a0))
        diag, off = phase * math.cos(s * norm), -1j * sinc * phase
        return np.array([[diag + off * z, off * a10.conjugate()], [off * a10, diag - off * z]],
                        dtype=complex)
    if mat.shape[0] >= PADE_MIN_DIM:
        return _pade_exponential(mat, s)
    eigvals, eigvecs = np.linalg.eigh(mat)
    phases = np.exp(-1j * s * eigvals)
    return (eigvecs * phases) @ eigvecs.conj().T


def unitary_exponential(a: HermitianOperator, s: float) -> UnitaryOperator:
    """exp(-i s A) as a validated unitary."""
    if not np.isfinite(s):
        raise ValueError("exponent parameter must be finite")
    return UnitaryOperator(expm_hermitian(a.matrix, s))


def projector(psi: StateVector) -> DensityMatrix:
    """The one-dimensional projection |psi><psi|; invariant under global phase."""
    return DensityMatrix(np.outer(psi.vector, psi.vector.conj()))


def spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the state in descending order."""
    return np.linalg.eigvalsh(rho.matrix)[::-1]


def _from_pairs(doc, kind: str, ndim: int, layout: str) -> np.ndarray:
    """The complex array of a literal of [re, im] pairs nested ndim lists deep, pairs included."""
    try:
        arr = np.array(doc, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{kind} literal entries must be numbers: {exc}") from None
    if arr.ndim != ndim or arr.shape[-1] != 2:
        raise ValueError(f"{kind} literal must be {layout} of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_from_pairs(doc) -> np.ndarray:
    """Parse the shared matrix literal: nested rows of [re, im] pairs, row-major."""
    return as_complex_matrix(_from_pairs(doc, "matrix", 3, "rows"))


def re_im_view(mat: np.ndarray) -> np.ndarray:
    """The float64 view of a complex matrix: each row holds re, im of its entries in turn."""
    return np.ascontiguousarray(mat, dtype=complex).view(np.float64)


def matrix_to_pairs(mat: np.ndarray) -> list:
    """Inverse of matrix_from_pairs."""
    rows, cols = np.shape(mat)
    return re_im_view(mat).reshape(rows, cols, 2).tolist()


def vector_from_pairs(doc) -> np.ndarray:
    """Parse a vector literal: a list of [re, im] pairs."""
    return _from_pairs(doc, "vector", 2, "a list")

