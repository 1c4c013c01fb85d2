"""Validated dense linear algebra over a finite-dimensional Hilbert space.

Wrapper types enforce the structural invariants (hermiticity, unitarity,
unit trace, positive semidefiniteness, unit norm) at construction time and
are immutable afterwards.  Constructors reject bad input rather than fixing
it.  All tolerances used by the invariant checks live here.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

# Invariant tolerances, fixed package-wide.
HERMITICITY_TOL = 1e-12  # max-abs entry of A - A_dagger
UNITARITY_TOL = 1e-10    # max-abs entry of U_dagger U - identity
# Unit-trace gate.  The mean-field split repeats the rounding of its cached
# half step, so its trace drifts by ~1.6e-15 a step at d = 4 and reaches this
# gate at step 31 445 (longrun/test_split_longrun.py); config.SPLIT_MAX_STEPS
# bounds a split run well below that.  Trajectory trace drift is monitored
# against the tighter trace row (see eqm_lab.flow).
TRACE_TOL = 5e-11
PSD_SLACK = 1e-10        # how far below zero the smallest eigenvalue may sit
NORM_TOL = 1e-12         # deviation of a state vector from unit norm
PURITY_TOL = 1e-10       # 1 - Tr(rho^2) allowed for inputs declared pure

MIN_DIM = 2
MAX_DIM = 64

# expm_hermitian takes the Taylor path from this dimension on and eigh below it.
# Timed per call with one BLAS thread (2-vCPU Xeon VM, numpy 2.4.6, OpenBLAS
# 0.3.31) at ||s A||_1 = 0.02 and 0.04 in three sessions of four interleaved
# rounds, against the eigh path as it then was (finiteness scan of A, no numpy
# wrapper), Taylor won 2 of 24 rounds at d = 11, 6 of 24 at d = 12, 22 of 24 at
# d = 13, 23 of 24 at d = 14 (medians 61 us a call against eigh's 73 us) and all
# 24 at d = 15.  Neither side won every round at 13 or 14, so the switch stays.
POLYNOMIAL_MIN_DIM = 14

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


def require_real(name: str, value, minimum=-math.inf, maximum=math.inf, *, positive=False) -> None:
    """Reject a value that is not a finite real number in [minimum, maximum] (and > 0 if positive).

    numpy scalars pass; a bool, a string, None and an array do not.
    """
    try:  # math.isfinite raises OverflowError for an int past the float range
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite or (positive and value <= 0) or not minimum <= value <= maximum:
        bounds = (" > 0" if positive else f" in [{minimum:g}, {maximum:g}]" if maximum < math.inf
                  else f" >= {minimum:g}" if minimum > -math.inf else "")
        raise ValueError(f"{name} must be a finite number{bounds}, got {value!r}")


def require_dim(name: str, value) -> None:
    """Reject a dimension that is not an integer in [MIN_DIM, MAX_DIM]."""
    require_count(name, value, MIN_DIM, MAX_DIM)


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; zero for empty input."""
    return float(np.maximum.reduce(np.abs(a), axis=None)) if a.size else 0.0


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


def _eigh(mat: np.ndarray, vectors: bool = True):
    """np.linalg.eigh(mat), or eigvalsh(mat) if not vectors, without numpy's per-call wrapper.

    The same LAPACK gufunc on the same data, with UPLO = 'L' and numpy's
    signature rule (complex input in complex double, any other in double), so
    the same bits.  What is skipped is the dtype dispatch and the np.errstate
    that turns a LAPACK failure into LinAlgError: a NaN entry gives NaN
    eigenvalues and an infinite one a RuntimeWarning, so every caller rules
    both out itself.
    """
    complex_ = mat.dtype.kind == "c"
    if vectors:
        return _umath_linalg.eigh_lo(mat, signature="D->dD" if complex_ else "d->dd")
    return _umath_linalg.eigvalsh_lo(mat, signature="D->d" if complex_ else "d->d")


# The invariant measures, each over the trailing two axes: one value for a
# matrix, and for a (B, d, d) stack B values with the same bits per matrix.
def hermiticity_defect(a: np.ndarray):  # max |A - A^dagger| over the entries
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def trace_defect(a: np.ndarray):  # |Tr A - 1|
    trace = np.trace(a, axis1=-2, axis2=-1)
    return np.hypot(trace.real - 1.0, trace.imag)  # abs(complex(Tr A) - 1.0), bit for bit


def unitarity_defect(u: np.ndarray):  # max |U^dagger U - 1| over the entries
    return np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))


def trace_product(a: np.ndarray, b: np.ndarray):  # Tr(AB); its real part is the pairing
    return np.trace(a @ b, axis1=-2, axis2=-1)


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

    @classmethod
    def _accepted(cls, mat: np.ndarray):
        """Wrap mat, which this class's checks already accepted, read-only and without a copy."""
        wrapped = object.__new__(cls)
        wrapped._freeze(mat)
        return wrapped

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class HermitianOperator(_SquareMatrix):
    """A self-adjoint operator; hermiticity is checked within HERMITICITY_TOL."""

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix)
        if (defect := hermiticity_defect(mat)) > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |A - A†| = {defect:.3e}")
        self._freeze(mat)


@dataclass(frozen=True, eq=False)
class UnitaryOperator(_SquareMatrix):
    """A unitary operator; U_dagger U = identity within UNITARITY_TOL."""

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix)
        if (defect := unitarity_defect(mat)) > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: max |U†U - 1| = {defect:.3e}")
        self._freeze(mat)


@dataclass(frozen=True, eq=False)
class DensityMatrix(_SquareMatrix):
    """A state: Hermitian, unit trace, positive semidefinite (within PSD_SLACK)."""

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix)
        if (defect := hermiticity_defect(mat)) > HERMITICITY_TOL:
            raise ValueError(f"state is not Hermitian: max |A - A†| = {defect:.3e}")
        if trace_defect(mat) > TRACE_TOL:
            raise ValueError(f"state must have unit trace, got Tr = {np.trace(mat).real:.17g}")
        lowest = float(_eigh(mat, vectors=False)[0])
        if not lowest >= -PSD_SLACK:  # a NaN eigenvalue fails too
            raise ValueError(f"state is not positive semidefinite: lowest eigenvalue {lowest:.3e}")
        self._freeze(mat)

    def purity(self) -> float:
        """Tr(rho^2), equal to 1 exactly for one-dimensional projections."""
        return float(trace_product(self.matrix, self.matrix).real)


def first_rejected(states: np.ndarray, unitaries: np.ndarray) -> tuple[int, ValueError] | None:
    """The first record i whose states[i] DensityMatrix or unitaries[i] UnitaryOperator rejects.

    Returns (i, the constructor's error), or None when every record passes.
    The (B, d, d) stacks take the constructors' tests in a few stacked calls
    (finite, Hermitian, unit trace, lowest eigenvalue, U^dagger U = 1) with
    the same bits per matrix; a record that any test flags is handed to the
    constructors themselves, which decide and give the message.  Records past
    the first non-finite one are not tested.
    """
    finite = np.isfinite(states).all(axis=(1, 2)) & np.isfinite(unitaries).all(axis=(1, 2))
    n = len(finite) if finite.all() else int(finite.argmin())
    s, u = states[:n], unitaries[:n]
    bad = ((hermiticity_defect(s) > HERMITICITY_TOL) | (trace_defect(s) > TRACE_TOL)
           | ~(_eigh(s, vectors=False)[:, 0] >= -PSD_SLACK) | (unitarity_defect(u) > UNITARITY_TOL))
    flagged = np.flatnonzero(bad).tolist()
    if n < len(finite):
        flagged.append(n)
    for i in flagged:
        try:
            DensityMatrix(states[i])
            UnitaryOperator(unitaries[i])
        except ValueError as exc:
            return i, exc
    return None


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


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """AB - BA.  Anti-Hermitian for Hermitian inputs, so i*[A, B] is Hermitian."""
    require_same_dim(a, b)
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def trace_pairing(rho: DensityMatrix, a: HermitianOperator) -> float:
    """Re Tr(rho A), the duality pairing between states and observables.

    The imaginary part of the trace vanishes for valid inputs and is asserted
    to be below HERMITICITY_TOL * max(1, max_abs(A)), since its rounding grows
    with A's entries; a larger value signals corrupted inputs.
    """
    require_same_dim(rho, a)
    value = complex(trace_product(rho.matrix, a.matrix))
    if abs(value.imag) > HERMITICITY_TOL * max(1.0, max_abs(a.matrix)):
        raise ValueError(f"trace pairing has a non-negligible imaginary part: {value.imag:.3e}")
    return value.real


def require_pure(name: str, state: DensityMatrix) -> None:
    """Reject a state whose purity Tr(rho^2) falls short of 1 by more than PURITY_TOL."""
    purity = state.purity()
    if purity < 1.0 - PURITY_TOL:
        raise ValueError(f"{name} is not pure: purity = {purity:.17g}")


def transition_probability(p: DensityMatrix, q: DensityMatrix) -> float:
    """Tr(PQ) for two one-dimensional projections: |<psi|phi>|^2."""
    require_same_dim(p, q)
    require_pure("first argument", p)
    require_pure("second argument", q)
    return float(trace_product(p.matrix, q.matrix).real)


# Taylor polynomials T_m of exp(X), X = -i s A: the triples (theta_m, m, p).  theta_m
# is the largest theta with sum_(j > m) theta^j / j! <= 2^-53, so for ||X||_1 <= theta_m,
# T_m(X) is exp(X) to double precision (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
# 488 (2011)): X is skew-Hermitian, so ||X||_2 <= ||X||_1 and exp(X) is unitary.  Past
# theta_20, X is scaled by 2^-q and the result squared q times.  Paterson-Stockmeyer
# over X ... X^p, p dividing m, takes p - 1 + m/p - 1 products: 2 to 7 here.
_TAYLOR = ((1.6783942982781048e-3, 4, 2), (1.7764527083684662e-2, 6, 2),
           (0.11483174747739708, 9, 3), (0.33521368782861477, 12, 4),
           (0.82460319163860873, 16, 4), (1.5041473223951629, 20, 5))
_INVERSE_FACTORIALS = tuple(1.0 / math.factorial(j) for j in range(21))


@functools.cache
def _lower_triangle(d: int) -> np.ndarray:
    """The mask of the diagonal and the lower triangle, built once per dimension."""
    mask = np.tri(d, dtype=bool)
    mask.setflags(write=False)
    return mask


def _taylor_exponential(mat: np.ndarray, s: float) -> np.ndarray:
    """exp(-i s A) by the Taylor polynomial of X = -i s A with scaling and squaring.

    A is read as eigh reads it: the lower triangle and the real diagonal.
    T_m(X) = sum_i C_i (X^p)^i with C_i = sum_(k < p) X^k / (ip + k)!, the top
    chunk also taking X^p / m!, by Horner in X^p: matrix products only, and
    no temporary larger than one d x d matrix.
    """
    d = mat.shape[0]
    x = np.where(_lower_triangle(d), mat, mat.conj().T).astype(complex, copy=False)
    x.ravel()[::d + 1] = mat.diagonal().real
    norm = abs(s) * float(np.abs(x).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError(f"exponent must be finite, got |s| ||A||_1 = {norm}")
    squarings = 0
    for theta, m, p in _TAYLOR:
        if norm <= theta:
            break
    else:
        squarings = math.ceil(math.log2(norm / theta))
    x *= -1j * math.ldexp(s, -squarings)
    powers = [x]
    for _ in range(p - 1):
        powers.append(powers[-1].dot(x))
    r = _INVERSE_FACTORIALS[m] * powers[-1]
    for i in reversed(range(m // p)):
        coeffs = _INVERSE_FACTORIALS[i * p:(i + 1) * p]
        for c, power in zip(coeffs[1:], powers):
            r += c * power
        r.ravel()[::d + 1] += coeffs[0]
        if i:
            r = r.dot(powers[-1])
    for _ in range(squarings):
        r = r.dot(r)
    return r


def expm_hermitian(mat: np.ndarray, s: float) -> np.ndarray:
    """exp(-i s A) for Hermitian A, unitary to rounding.

    Three paths by the dimension d, each reading only the real diagonal and
    the lower triangle of A, as eigh does:

    - d = 2: a qubit generator A = a0 I + a.sigma takes the closed form
      exp(-i s a0) (cos(s|a|) I - i sin(s|a|)/|a| (A - a0 I)), with
      sin(s|a|)/|a| -> s at |a| = 0;
    - 3 <= d < POLYNOMIAL_MIN_DIM: eigh, exp(-i s A) = V exp(-i s Lambda) V^dagger;
    - d >= POLYNOMIAL_MIN_DIM: the Taylor polynomial T_m of X = -i s A,
      m = 4 to 20 by ||s A||_1, evaluated by Paterson-Stockmeyer over
      X ... X^p, with scaling and squaring past ||s A||_1 = 1.5 (Al-Mohy and
      Higham 2011).

    Every entry of A must be finite, and the caller proves it (the step
    kernel of eqm_lab.flow scans each generator; a HermitianOperator is
    finite by construction), so A is never scanned here.  Each path checks
    what it computes and raises ValueError("exponent must be finite, ...")
    before any arithmetic, for s = 0 too: s on every path, a0 + |a| at
    d = 2 and |s| ||A||_1 on the Taylor path.
    """
    if mat.shape == (2, 2):
        # a = (Re A10, Im A10, z) with z = (A00 - A11) / 2.
        (a00, _), (a10, a11) = mat.tolist()
        a0, z = 0.5 * a00.real + 0.5 * a11.real, 0.5 * a00.real - 0.5 * a11.real
        norm = math.hypot(z, a10.real, a10.imag)
        if not (math.isfinite(s) and math.isfinite(a0 + norm)):
            raise ValueError(f"exponent must be finite, got s = {s!r}, a0 + |a| = {a0 + norm!r}")
        sinc = math.sin(s * norm) / norm if norm else s
        phase = complex(math.cos(s * a0), -math.sin(s * a0))
        diag, off = phase * math.cos(s * norm), -1j * sinc * phase
        return np.array([[diag + off * z, off * a10.conjugate()], [off * a10, diag - off * z]],
                        dtype=complex)
    if mat.shape[0] >= POLYNOMIAL_MIN_DIM:
        return _taylor_exponential(mat, s)
    if not math.isfinite(s):
        raise ValueError(f"exponent must be finite, got s = {s!r}")
    eigvals, eigvecs = _eigh(mat)
    phases = np.exp(-1j * s * eigvals)
    return (eigvecs * phases).dot(eigvecs.conj().T)


def unitary_exponential(a: HermitianOperator, s: float) -> UnitaryOperator:
    """exp(-i s A) as a validated unitary."""
    require_real("s", s)
    return UnitaryOperator(expm_hermitian(a.matrix, s))


def projector(psi: StateVector) -> DensityMatrix:
    """The one-dimensional projection |psi><psi|; invariant under global phase."""
    return DensityMatrix(np.outer(psi.vector, psi.vector.conj()))


def spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the state in descending order."""
    return _eigh(rho.matrix, vectors=False)[::-1]


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


def vector_from_pairs(doc) -> np.ndarray:
    """Parse a vector literal: a list of [re, im] pairs."""
    return _from_pairs(doc, "vector", 2, "a list")

