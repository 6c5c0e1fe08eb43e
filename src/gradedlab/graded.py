"""Dense Z/2-graded linear algebra.

A graded space H = H_0 + H_1 is its two dimensions, the basis in parity
order, so the grading gamma is diag(1, .., 1, -1, .., -1) and a parity
block is a slice at index `even`: an even matrix, commuting with gamma, is
[[ee, 0], [0, oo]], and an odd one [[0, eo], [oe, 0]].  Entries are
float64 for real data and complex128 for complex data, so real models such
as the Bott-Dirac operator stay in real arithmetic; mixing the two
promotes to complex.
Everything in this module is a pure function of immutable values (entry
arrays are marked read-only), so values are safe to share across threads.

Sign conventions:

* graded commutator of homogeneous a, b:  [a, b] = ab - (-1)^(pa*pb) ba,
  extended bilinearly over parity parts for inhomogeneous input;
* graded tensor product a (x) b realized as the Kronecker product
  (a . gamma^pb) (x) b, which reproduces the Koszul sign
  (a (x) b)(c (x) d) = (-1)^(pb*pc) (ac) (x) (bd) with plain matrix
  arithmetic, then permuted into parity order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VALIDATION_TOL",
    "adjoint",
    "negligible",
    "GradedSpace",
    "GradedMatrix",
    "OddSelfAdjoint",
    "identity",
    "zeros",
    "parity_parts",
    "graded_commutator",
    "graded_commutators",
    "graded_tensor",
    "direct_sum",
    "conjugate_by_grading",
    "operator_norm",
    "operator_norms",
]

# Constructor-validation tolerance, relative to the largest entry.
VALIDATION_TOL = 1e-12


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., d, d) stack."""
    return m.conj().swapaxes(-1, -2)


def negligible(defect: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The validation rule, matrix by matrix over a (..., d, d) stack of entries:
    max |defect| <= VALIDATION_TOL max(1, max |entries|).  Past the stack axes
    of entries, defect holds any values measured from that matrix (a d x d
    defect, or a gather of some of its entries)."""
    scale = np.maximum(1.0, np.abs(entries).max(axis=(-2, -1), initial=0.0))
    measured = tuple(range(entries.ndim - 2, defect.ndim))
    return np.abs(defect).max(axis=measured, initial=0.0) <= VALIDATION_TOL * scale


@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional space of `even` parity-0 basis vectors, then `odd` parity-1 ones.

    The counts are integers, numpy integers stored as int; any other type
    raises TypeError.
    """

    even: int
    odd: int

    def __post_init__(self):
        object.__setattr__(self, "even", operator.index(self.even))
        object.__setattr__(self, "odd", operator.index(self.odd))
        if min(self.even, self.odd) < 0 or self.even + self.odd < 1:
            raise ValueError("graded space needs counts >= 0 and dimension >= 1")

    @property
    def dim(self) -> int:
        return self.even + self.odd

    @property
    def parity(self) -> tuple[int, ...]:
        return (0,) * self.even + (1,) * self.odd

    def gamma_signs(self) -> np.ndarray:
        """Diagonal of the grading operator, exactly +-1."""
        return np.repeat([1.0, -1.0], (self.even, self.odd))


def _frozen(array: np.ndarray) -> np.ndarray:
    """Read-only copy: complex input as complex128, any other as float64."""
    out = np.array(array, dtype=np.result_type(array, np.float64))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GradedMatrix:
    """Real or complex square matrix on a graded space."""

    space: GradedSpace
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        d = self.space.dim
        if entries.shape != (d, d):
            raise ValueError(f"entries must be {d}x{d}, got {entries.shape}")
        object.__setattr__(self, "entries", _frozen(entries))

    # -- structure ---------------------------------------------------------

    def is_hermitian(self) -> bool:
        return bool(negligible(self.entries - adjoint(self.entries), self.entries))

    # -- arithmetic: a sum, difference or negation keeps a subtype's validation

    def _check_space(self, other: "GradedMatrix"):
        if self.space != other.space:
            raise ValueError("graded matrices live on different spaces")

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._check_space(other)
        return type(self)(self.space, self.entries + other.entries)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._check_space(other)
        return type(self)(self.space, self.entries - other.entries)

    def __neg__(self) -> "GradedMatrix":
        return type(self)(self.space, -self.entries)

    def __mul__(self, scalar: complex) -> "GradedMatrix":
        return GradedMatrix(self.space, self.entries * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._check_space(other)
        return GradedMatrix(self.space, self.entries @ other.entries)


def identity(space: GradedSpace) -> GradedMatrix:
    return GradedMatrix(space, np.eye(space.dim))


def zeros(space: GradedSpace) -> GradedMatrix:
    return GradedMatrix(space, np.zeros((space.dim, space.dim)))


@dataclass(frozen=True)
class OddSelfAdjoint(GradedMatrix):
    """Hermitian graded matrix that anticommutes with the grading operator.

    Plays the role of the unbounded odd self-adjoint multipliers (Dirac
    operators, Clifford multiplications, potentials) at finite scale.
    Construction validates Hermiticity and oddness to VALIDATION_TOL, and
    so do the sum, difference and negation of odd operators; a product or
    a scalar multiple is a plain GradedMatrix.
    """

    def __post_init__(self):
        super().__post_init__()
        if not self.is_hermitian():
            raise ValueError("odd self-adjoint operator must be Hermitian")
        # gamma m gamma + m is exactly 2 m on the diagonal parity blocks and 0 elsewhere
        m, k = self.entries, self.space.even
        if not negligible(2.0 * np.concatenate((m[:k, :k], m[k:, k:]), axis=None), m):
            raise ValueError("operator does not anticommute with the grading")


def parity_parts(space: GradedSpace, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd parts of each matrix of a (..., d, d) stack of entries on space."""
    signs = space.gamma_signs()
    conj = (signs[:, None] * entries) * signs[None, :]
    return (entries + conj) * 0.5, (entries - conj) * 0.5


def graded_commutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """[a, b] = ab - (-1)^(pa*pb) ba, extended bilinearly over parity parts."""
    if a.space != b.space:
        raise ValueError("graded commutator needs matrices on the same space")
    return GradedMatrix(a.space, graded_commutators(a.space, a.entries, b.entries))


def graded_commutators(space: GradedSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entries of [a, b] = a b - b0 a - b1 (gamma a gamma), the bilinear
    expansion over the parity parts in three products, for each pair of
    matrices of two (..., d, d) stacks on space.  On homogeneous a and b it
    equals the 4-part expansion bit for bit: the terms it drops are exact zeros."""
    signs = space.gamma_signs()
    b0, b1 = parity_parts(space, b)
    return a @ b - b0 @ a - b1 @ ((signs[:, None] * a) * signs[None, :])


def graded_tensor(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Koszul-signed tensor product (a . gamma^pb) Kron b, in parity order.

    Inhomogeneous b is handled by linear extension over its parity parts.
    The Kronecker basis vector (i, j) has parity (pa_i + pb_j) mod 2 and is
    permuted stably into parity order, a conjugation that keeps the Koszul rule.
    """
    b0, b1 = parity_parts(b.space, b.entries)
    gamma = a.space.gamma_signs()
    out = np.kron(a.entries, b0)
    out += np.kron(a.entries * gamma[None, :], b1)
    parity = (np.asarray(a.space.parity)[:, None] + np.asarray(b.space.parity)).ravel() % 2
    order, odd = np.argsort(parity, kind="stable"), int(parity.sum())
    return GradedMatrix(GradedSpace(parity.size - odd, odd), out[order[:, None], order])


def direct_sum(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Block-diagonal sum in parity order: a's even vectors, b's even, a's odd, b's odd."""
    da, db, ea, eb = a.space.dim, b.space.dim, a.space.even, b.space.even
    out = np.zeros((da + db, da + db), dtype=np.result_type(a.entries, b.entries))
    out[:da, :da] = a.entries
    out[da:, da:] = b.entries
    order = np.r_[:ea, da : da + eb, ea:da, da + eb : da + db]
    return GradedMatrix(GradedSpace(ea + eb, a.space.odd + b.space.odd), out[order[:, None], order])


def conjugate_by_grading(a: GradedMatrix) -> GradedMatrix:
    """a -> gamma a gamma; fixes the even part and negates the odd part."""
    signs = a.space.gamma_signs()
    return GradedMatrix(a.space, (signs[:, None] * a.entries) * signs[None, :])


def operator_norm(a) -> float:
    """Largest singular value; operator_norms of the one-matrix stack."""
    entries = a.entries if isinstance(a, GradedMatrix) else np.asarray(a)
    return float(operator_norms(entries[None])[0])


# A Gram matrix X* X whose trace is in this range needs no rescaling: none
# of its entries overflows, and below d = 4096 the roundoff of the products
# that underflow is below 2^-150 of its largest eigenvalue.
_GRAM_TRACE_RANGE = (2.0**-900, 2.0**900)


def _ldexp(x: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """x * 2^exponent, exact but for underflow, for real or complex x."""
    if not np.iscomplexobj(x):
        return np.ldexp(x, exponent)
    out = np.empty_like(x)
    out.real, out.imag = np.ldexp(x.real, exponent), np.ldexp(x.imag, exponent)
    return out


def _gram(x: np.ndarray) -> np.ndarray:
    """X* X of each matrix of a stack; overflow is left to the caller."""
    with np.errstate(over="ignore", invalid="ignore"):
        return adjoint(x) @ x


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., m, n) stack, square
    or rectangular; a zero-size matrix has norm 0.

    The norm is the square root of the largest eigenvalue of the smaller
    Gram matrix X* X, within O(max(m, n) eps) relative of the SVD's
    (Higham 2002).  A matrix whose X* X has a trace outside
    _GRAM_TRACE_RANGE (0 or not finite among them) is scaled first by the
    power of two that brings its largest entry into [1/2, 1).  Each norm
    equals operator_norms of that matrix alone bit for bit; non-finite
    entries raise np.linalg.LinAlgError.
    """
    x = np.asarray(stack)
    if x.shape[-2] < x.shape[-1]:
        x = x.swapaxes(-1, -2)
    if x.size == 0:
        return np.zeros(x.shape[:-2])
    gram = _gram(x)
    trace = np.trace(gram, axis1=-2, axis2=-1).real
    lo, hi = _GRAM_TRACE_RANGE
    if lo <= trace.min() and trace.max() <= hi:
        return np.sqrt(np.linalg.eigvalsh(gram)[..., -1])
    largest = np.abs(x).max(axis=(-2, -1))
    if not np.isfinite(largest).all():
        raise np.linalg.LinAlgError("operator norm of a matrix with non-finite entries")
    exponent = np.where((trace >= lo) & (trace <= hi), 0, np.frexp(largest)[1])
    top = np.linalg.eigvalsh(_gram(_ldexp(x, -exponent[..., None, None])))[..., -1]
    # abs: the all-zero matrix has norm +0
    return np.ldexp(np.abs(np.sqrt(top)), exponent)
