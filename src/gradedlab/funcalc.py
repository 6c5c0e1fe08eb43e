"""Functional calculus for odd self-adjoint matrices.

f(D) is computed through the eigendecomposition U diag(f(lambda)) U*.
The calculus is a graded *-homomorphism: it is multiplicative on
functions, contractive (||f(D)|| <= sup|f|), and satisfies
gamma f(D) gamma = f(-D), so even functions of D are even and odd
functions are odd.

Profiles over a t-grid use the grid engine: Spectrum.apply_grid returns
f(s D) for a whole chunk of scales as one (S, d, d) stack from a single
eigendecomposition, and map_grid cuts the grid into chunks that hold at
most STACK_ENTRIES entries.  Batched LAPACK and BLAS kernels run the same
computation on every matrix of a stack, so apply_grid stacks equal a
point-by-point evaluation bit for bit.  Spectrum.commutators forms graded
commutators [f(s D), a] in D's eigenbasis as Schur products, equal to the
original-basis products up to roundoff, with no matrix product per scale.

The named function table carries exact sup norms so contractivity can
be certified without sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graded import GradedMatrix, OddSelfAdjoint, VALIDATION_TOL

__all__ = [
    "ScalarFunction",
    "GAUSS0",
    "GAUSS1",
    "CAYLEY",
    "MULTIPLIER_G",
    "RESOLVENT_PLUS",
    "RESOLVENT_MINUS",
    "NAMED_FUNCTIONS",
    "PAIR_FUNCTIONS",
    "bounded_transform_function",
    "STACK_ENTRIES",
    "grid_chunks",
    "map_grid",
    "Spectrum",
]


@dataclass(frozen=True)
class ScalarFunction:
    """Named real-to-complex function with optional sup norm and parity.

    parity is 0 for even functions, 1 for odd ones, None when mixed or
    unknown; sup_norm is None when no bound was declared.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    sup_norm: float | None = None
    parity: int | None = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


GAUSS0 = ScalarFunction("gauss0", lambda x: np.exp(-(x**2)), 1.0, 0)
# sup of |x e^{-x^2}| is attained at x = 1/sqrt(2)
GAUSS1 = ScalarFunction("gauss1", lambda x: x * np.exp(-(x**2)), 1.0 / math.sqrt(2.0 * math.e), 1)
CAYLEY = ScalarFunction("cayley", lambda x: 1.0 / (1.0 + x**2), 1.0, 0)
MULTIPLIER_G = ScalarFunction("g", lambda x: x / (1.0 + x**2), 0.5, 1)
RESOLVENT_PLUS = ScalarFunction("resolvent+", lambda x: 1.0 / (x + 1j), 1.0, None)
RESOLVENT_MINUS = ScalarFunction("resolvent-", lambda x: 1.0 / (x - 1j), 1.0, None)

NAMED_FUNCTIONS = (GAUSS0, GAUSS1, CAYLEY, MULTIPLIER_G, RESOLVENT_PLUS, RESOLVENT_MINUS)

# Function set used when validating asymptotic pairs.
PAIR_FUNCTIONS = (GAUSS0, GAUSS1, RESOLVENT_PLUS, RESOLVENT_MINUS)


def bounded_transform_function(n_scale: float) -> ScalarFunction:
    """i_N(x) = x (1 + x^2/N^2)^(-1); odd, with sup norm N/2 at x = +-N."""
    if n_scale <= 0:
        raise ValueError("transform scale must be positive")
    n2 = float(n_scale) ** 2
    return ScalarFunction(
        f"transform[{n_scale:g}]",
        lambda x: x / (1.0 + (x**2) / n2),
        float(n_scale) / 2.0,
        1,
    )


# Most entries one grid stack may hold: 2**14 (256 KiB complex, 128 KiB
# real).  Grids at d <= 16 then run in one or a few stacks, while d = 127
# runs one matrix per stack and needs no more memory than one evaluation.
STACK_ENTRIES = 2**14


def grid_chunks(count: int, dim: int) -> list[slice]:
    """Consecutive slices of range(count) whose (rows, dim, dim) stacks stay
    within STACK_ENTRIES; a chunk always holds at least one matrix."""
    step = max(1, STACK_ENTRIES // (dim * dim))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def map_grid(fn: Callable[[np.ndarray], np.ndarray], rows: np.ndarray, dim: int) -> np.ndarray:
    """fn over chunks of rows (see grid_chunks), concatenated on axis 0.

    fn receives a chunk of rows (grid scales or row indices) and returns
    an array whose first axis runs over that chunk.
    """
    rows = np.asarray(rows)
    return np.concatenate([fn(rows[chunk]) for chunk in grid_chunks(rows.shape[0], dim)])


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    A (k, d, d) stack of matrices gives a stack of spectra: eigenvalues
    (k, d), eigenvectors (k, d, d), and every method acts matrix by matrix.
    Real symmetric input runs the real LAPACK kernels and has real
    eigenvectors; complex input stays complex.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def of(cls, operator, tol: float = 1e-10) -> "Spectrum":
        if isinstance(operator, OddSelfAdjoint):
            matrix = operator.mat
        elif isinstance(operator, GradedMatrix):
            matrix = operator.entries
        else:
            matrix = np.asarray(operator)
            matrix = matrix.astype(np.result_type(matrix, np.float64), copy=False)
        each = (-2, -1)
        scale = np.maximum(1.0, np.abs(matrix).max(axis=each, initial=0.0))
        if np.any(np.abs(matrix - _adjoint(matrix)).max(axis=each, initial=0.0) > VALIDATION_TOL * scale):
            raise ValueError("eigendecomposition requires a Hermitian matrix")
        values, vectors = np.linalg.eigh(matrix)
        spec = cls(values, vectors)
        norm = np.maximum(1.0, np.abs(values).max(axis=-1, initial=0.0))
        residual = np.abs(spec.synthesize(values) - matrix).max(axis=each, initial=0.0)
        gram = _adjoint(vectors) @ vectors
        unitary_defect = np.abs(gram - np.eye(values.shape[-1])).max(axis=each, initial=0.0)
        if np.any(residual > tol * norm) or np.any(unitary_defect > tol):
            raise ValueError("eigendecomposition failed accuracy validation")
        return spec

    def synthesize(self, weights: np.ndarray) -> np.ndarray:
        """U diag(w) U* for each row w of weights (last axis: one weight per
        eigenvalue); leading axes of weights become stack axes."""
        return (self.eigenvectors * weights[..., None, :]) @ _adjoint(self.eigenvectors)

    def weights(self, f: ScalarFunction, scales: np.ndarray) -> np.ndarray:
        """Rows f(s * eigenvalues), one per s in scales, in f's own dtype."""
        if self.eigenvalues.ndim != 1:
            raise ValueError("grid evaluation needs the spectrum of a single matrix")
        scales = np.asarray(scales, dtype=float)
        return np.asarray(f(scales[:, None] * self.eigenvalues[None, :]))

    def apply(self, f: ScalarFunction, scale: float = 1.0) -> np.ndarray:
        """Matrix of f(scale * D) in the original basis (real for real D and f)."""
        return self.synthesize(np.asarray(f(scale * self.eigenvalues)))

    def apply_grid(self, f: ScalarFunction, scales: np.ndarray) -> np.ndarray:
        """Stack of f(s * D) for every s in scales, shape (len(scales), d, d).

        Row k equals apply(f, scales[k]) bit for bit: the batched LAPACK
        and BLAS kernels run the same computation on each matrix.  The
        stack is as long as scales; chunk long grids with map_grid.
        """
        return self.synthesize(self.weights(f, scales))

    def eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """U* m U; leading axes of m are stack axes."""
        return _adjoint(self.eigenvectors) @ m @ self.eigenvectors

    def commutators(self, f: ScalarFunction, scales: np.ndarray, parts: np.ndarray) -> np.ndarray:
        """U* [f(s D), a] U for each s in scales, for an odd D, from the eigenbasis
        parity parts (a_0, a_1) of a.  As gamma f(D) gamma = f(-D), the graded
        commutator is f(D) a - a_0 f(D) - a_1 f(-D): entry (i, j) is the Schur product
        (w_i - w_j) a_0[i, j] + (w_i - v_j) a_1[i, j] with w = f(s lambda), v = f(-s lambda).
        """
        w, v = self.weights(f, scales)[:, :, None], self.weights(f, -np.asarray(scales))[:, None, :]
        return (w - w.swapaxes(1, 2)) * parts[0] + (w - v) * parts[1]
