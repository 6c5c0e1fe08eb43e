"""Functional calculus for odd self-adjoint matrices.

The calculus is a graded *-homomorphism: it is multiplicative on
functions, contractive (||f(D)|| <= sup|f|), and satisfies
gamma f(D) gamma = f(-D), so even functions of D are even and odd
functions are odd.

An odd D is computed in its chiral form.  Its space is in parity order,
so D = [[0, A], [A*, 0]] with A its [e, o] block, a slice at index #e.
ChiralSpectrum holds the SVD A = U Sigma V*, and with W = diag(U, V),
W* D W is a sum of 2 x 2 blocks [[0, sigma], [sigma, 0]] plus |#e - #o|
exact zeros.  So an even f gives f(s D) as U f(s Sigma) U* and
V f(s Sigma) V* on the diagonal parity blocks, and an odd f as
U f(s Sigma) V* and its partner on the off-diagonal ones: f(s D) is
exactly even or odd, and gamma f(D) gamma equals f(-D) (the scale -1) bit
for bit.  The chiral calculus takes an even or odd f only; the plain
resolvent (x + i)^-1 is g(x) - i cayley(x), its odd and even parts.
Results come as ParityBlocks, a stack of one parity held as its two
nonzero half-size blocks: products run on those blocks, and
ParityBlocks.norms takes the norm of each matrix from them.  Every stack
is gathered at its known parity, p(f) + p(a), never found by scanning.
Profiles over a t-grid evaluate a chunk of scales at a time, and map_grid
cuts the grid into chunks that hold at most STACK_ENTRIES entries.

The resolvents R+-(x) = (x +- i)^-1 have commutators of a factored norm.
For homogeneous a, R(x) (x +- i) = 1 gives
[R+-(s D), a] = -s R+-(s D) [D, a] R+-((-1)^p(a) s D), and
R+-(y) = rho(y) u+-(y) with rho(y) = (1 + y^2)^(-1/2) even and |u+-| = 1, so
the unitary factors drop out of the norm:
||[R+-(s D), a]|| = s ||rho(s D) [D, a] rho(s D)||, for both signs.  In the
chiral basis rho(s D) is diagonal, the square root of the even cayley
weights, so the commutator norm is that of a Schur scaling of W* [D, a] W,
a matrix of parity p(a) + 1, real when D and a are.

Spectrum is the plain validated eigendecomposition of one Hermitian
matrix, U diag(f(lambda)) U*; it agrees with the chiral form up to
roundoff, not bit for bit.

The named function table carries exact sup norms so contractivity can
be certified without sampling, and parities that construction checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graded import GradedMatrix, GradedSpace, OddSelfAdjoint, adjoint, negligible, operator_norms

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
    "MAX_TRANSFORM_SCALE",
    "bounded_transform_function",
    "STACK_ENTRIES",
    "grid_chunks",
    "map_grid",
    "Spectrum",
    "ParityBlocks",
    "ChiralSpectrum",
]


@dataclass(frozen=True)
class ScalarFunction:
    """Named real-to-complex function with optional sup norm and parity.

    parity is 0 for even functions, 1 for odd ones, None when mixed or
    unknown.  The chiral calculus takes only a declared parity and drops
    the part it makes zero, so construction checks f(-x) = (-1)^parity f(x)
    exactly at x = 0.25, 0.5, 1 and 3.  sup_norm is None when no bound was declared.
    increment, when declared, computes f(x) - f(0) without the cancellation
    that subtracting f(0) suffers near x = 0.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    sup_norm: float | None = None
    parity: int | None = None
    increment: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.parity is not None:
            object.__setattr__(self, "parity", operator.index(self.parity))
        if self.parity not in (None, 0, 1):
            raise ValueError("parity must be None, 0 or 1")
        with np.errstate(all="ignore"):
            minus, plus = np.asarray(self((-0.25, -0.5, -1.0, -3.0, 0.25, 0.5, 1.0, 3.0))).reshape(2, -1)
        if self.parity is not None and not np.array_equal(minus, (1 - 2 * self.parity) * plus):
            raise ValueError(f"{self.name} is not {('even', 'odd')[self.parity]} at the parity points")

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


GAUSS0 = ScalarFunction("gauss0", lambda x: np.exp(-(x**2)), 1.0, 0, lambda x: np.expm1(-(x**2)))
# sup of |x e^{-x^2}| is attained at x = 1/sqrt(2)
GAUSS1 = ScalarFunction("gauss1", lambda x: x * np.exp(-(x**2)), 1.0 / math.sqrt(2.0 * math.e), 1)
CAYLEY = ScalarFunction("cayley", lambda x: 1.0 / (1.0 + x**2), 1.0, 0, lambda x: -(x**2) / (1.0 + x**2))
MULTIPLIER_G = ScalarFunction("g", lambda x: x / (1.0 + x**2), 0.5, 1)
RESOLVENT_PLUS = ScalarFunction("resolvent+", lambda x: 1.0 / (x + 1j), 1.0, None)
RESOLVENT_MINUS = ScalarFunction("resolvent-", lambda x: 1.0 / (x - 1j), 1.0, None)

NAMED_FUNCTIONS = (GAUSS0, GAUSS1, CAYLEY, MULTIPLIER_G, RESOLVENT_PLUS, RESOLVENT_MINUS)

# Function set used when validating asymptotic pairs.
PAIR_FUNCTIONS = (GAUSS0, GAUSS1, RESOLVENT_PLUS, RESOLVENT_MINUS)
# Largest transform scale N whose square N^2 is a finite float.
MAX_TRANSFORM_SCALE = math.sqrt(np.finfo(float).max)
# A decomposition is valid when its residual is within this times max(1, its largest
# eigen- or singular value) and its basis unitary to this, entrywise.
DECOMPOSITION_TOL = 1e-10


def bounded_transform_function(n_scale: float) -> ScalarFunction:
    """i_N(x) = x (1 + x^2/N^2)^(-1); odd, with sup norm N/2 at x = +-N."""
    if not 0 < n_scale <= MAX_TRANSFORM_SCALE:
        raise ValueError("transform scale must be positive, with a finite square")
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


def _check_decomposition(name: str, residual: np.ndarray, values: np.ndarray, *bases: np.ndarray) -> None:
    """Raise unless the residual is within DECOMPOSITION_TOL times max(1, |values|)
    and each basis is unitary to DECOMPOSITION_TOL, entrywise."""
    scale = max(1.0, np.abs(values).max(initial=0.0))
    unitary_defect = max(np.abs(adjoint(m) @ m - np.eye(m.shape[-1])).max(initial=0.0) for m in bases)
    if not (np.abs(residual).max(initial=0.0) <= DECOMPOSITION_TOL * scale and unitary_defect <= DECOMPOSITION_TOL):
        raise ValueError(f"{name} failed accuracy validation")


@dataclass(frozen=True)
class Spectrum:
    """Validated eigendecomposition of one Hermitian matrix, eigenvalues ascending.

    Real symmetric input runs the real LAPACK kernel and has real
    eigenvectors; complex input stays complex.  No `lab` path calls it; it
    is the dense reference the chiral and block forms are tested against.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def of(cls, operator) -> "Spectrum":
        if isinstance(operator, GradedMatrix):
            matrix = operator.entries
        else:
            matrix = np.asarray(operator)
            matrix = matrix.astype(np.result_type(matrix, np.float64), copy=False)
        if matrix.ndim != 2:
            raise ValueError("eigendecomposition takes one matrix")
        if not negligible(matrix - adjoint(matrix), matrix):
            raise ValueError("eigendecomposition requires a Hermitian matrix")
        values, vectors = np.linalg.eigh(matrix)
        _check_decomposition("eigendecomposition", (vectors * values) @ adjoint(vectors) - matrix, values, vectors)
        return cls(values, vectors)

    def apply(self, f: ScalarFunction, scale: float = 1.0) -> np.ndarray:
        """U diag(f(scale * lambda)) U*, the matrix of f(scale * D) (real for real D and f)."""
        return (self.eigenvectors * np.asarray(f(scale * self.eigenvalues))) @ adjoint(self.eigenvectors)


def _block_norms(x: np.ndarray, hermitian: bool) -> np.ndarray:
    """Largest |eigenvalue| of finite Hermitian blocks; else operator_norms, which raises on non-finite entries."""
    if hermitian and np.isfinite(x).all():
        return np.abs(np.linalg.eigvalsh(x)).max(axis=-1, initial=0.0)
    return operator_norms(x)


@dataclass(frozen=True)
class ParityBlocks:
    """A (..., d, d) stack in parity order of one parity, held as its two nonzero blocks.

    An even stack (parity 0) is [[top, 0], [0, bottom]] and an odd one
    (parity 1) is [[0, top], [bottom, 0]]: top holds the #e even rows (ee
    or eo) and bottom the #o odd rows (oo or oe).  Leading axes are stack
    axes.  Each producer declares the parity (ChiralSpectrum.blocks f's,
    gather its argument's), so no block is dropped for being exactly zero.
    Stacks of one parity add and subtract, and a product has the sum of
    its factors' parities, so products run on half-size blocks.
    """

    parity: int
    top: np.ndarray
    bottom: np.ndarray

    @classmethod
    def gather(cls, space: GradedSpace, m: np.ndarray, parity: int) -> "ParityBlocks":
        """The parity blocks, as views, of a (..., d, d) stack on space whose parity, 0 or 1, the caller knows."""
        k = space.even
        if parity:
            return cls(1, m[..., :k, k:], m[..., k:, :k])
        return cls(0, m[..., :k, :k], m[..., k:, k:])

    def __add__(self, other: "ParityBlocks") -> "ParityBlocks":
        if other.parity != self.parity:
            raise ValueError("only parity-block stacks of one parity add or subtract")
        return ParityBlocks(self.parity, self.top + other.top, self.bottom + other.bottom)

    def __sub__(self, other: "ParityBlocks") -> "ParityBlocks":
        return self + ParityBlocks(other.parity, -other.top, -other.bottom)

    def __matmul__(self, other: "ParityBlocks") -> "ParityBlocks":
        p = self.parity
        return ParityBlocks(p ^ other.parity, self.top @ (other.bottom if p else other.top),
                            self.bottom @ (other.top if p else other.bottom))

    def dense(self) -> np.ndarray:
        """The stack as (..., d, d) matrices in parity order."""
        top, bottom = self.top, self.bottom
        upper = [top, np.zeros(top.shape[:-1] + bottom.shape[-1:], top.dtype)]
        lower = [np.zeros(bottom.shape[:-1] + top.shape[-1:], bottom.dtype), bottom]
        order = slice(None, None, 1 - 2 * self.parity)  # an odd stack's blocks sit off the diagonal
        return np.block([upper[order], lower[order]])

    def norms(self, hermitian: bool = False) -> np.ndarray:
        """Operator norm of each matrix of the stack: the larger of its two
        block norms, from one operator_norms call (the Gram kernel) per block
        shape.  hermitian marks an even Hermitian stack, whose block norms
        are the largest |eigenvalue| of the blocks themselves."""
        top, bottom = self.top, self.bottom
        if self.parity:
            bottom = bottom.swapaxes(-1, -2)
        hermitian = hermitian and not self.parity
        if top.shape == bottom.shape:
            return _block_norms(np.stack((top, bottom)), hermitian).max(axis=0)
        return np.maximum(_block_norms(top, hermitian), _block_norms(bottom, hermitian))


@dataclass(frozen=True)
class ChiralSpectrum:
    """Chiral form of an odd self-adjoint D: the SVD of its [e, o] block A = U Sigma V*.

    singular_values holds the k = min(#e, #o) values sigma, descending, with
    U (#e x #e) and V (#o x #o).  In the chiral basis W = diag(U, V), in
    parity order, D pairs index i < k with #e + i through sigma_i, and its
    other |#e - #o| indices are exact zero modes.  This is the spectrum of
    the odd Hermitian matrix built from A alone, which OddSelfAdjoint puts
    within VALIDATION_TOL of D.
    """

    singular_values: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @classmethod
    def of(cls, operator: OddSelfAdjoint) -> "ChiralSpectrum":
        """The chiral spectrum of operator, its SVD validated as Spectrum.of
        validates eigh, to DECOMPOSITION_TOL.  It reads only the [e, o]
        block, so anything but an OddSelfAdjoint raises TypeError."""
        if not isinstance(operator, OddSelfAdjoint):
            raise TypeError("the chiral spectrum is defined for an OddSelfAdjoint operator")
        k = operator.space.even
        a = operator.entries[:k, k:]
        u, sigma, vh = np.linalg.svd(a)
        _check_decomposition("chiral decomposition", (u[:, : sigma.size] * sigma) @ vh[: sigma.size] - a, sigma, u, vh)
        return cls(sigma, u, adjoint(vh))

    def weights(self, f: ScalarFunction, scales, increment: bool = False) -> np.ndarray:
        """Chiral weights of f(s D) for each s in scales, at f's declared
        parity, or with increment of f(s D) - f(0), from f.increment when
        declared.  An f of no declared parity raises ValueError.

        An even row runs over the chiral basis, e side then o side:
        f(s sigma) on the k paired indices of each side and f(0) on the
        others.  An odd row is f(s sigma), the weight between the two
        indices of each pair.
        """
        if f.parity is None:
            raise ValueError(f"the chiral calculus takes an even or odd function, and {f.name} declares no parity")
        g = f
        if increment:
            g = f.increment or (lambda x: f(x) - f(np.zeros(1))[0])
        values = np.asarray(g(np.asarray(scales, dtype=float)[:, None] * self.singular_values))
        return values if f.parity else self._spread(values, np.asarray(g(np.zeros(1)))[0])

    def _spread(self, paired: np.ndarray, unpaired=0.0) -> np.ndarray:
        """(..., #e + #o) rows over the chiral basis from (..., k) values per
        pair: paired on both indices of each pair, unpaired on the others."""
        k, ne = paired.shape[-1], len(self.u)
        out = np.full(paired.shape[:-1] + (ne + len(self.v),), unpaired, dtype=paired.dtype)
        out[..., :k] = out[..., ne : ne + k] = paired
        return out

    def odd_block(self, odd: np.ndarray) -> np.ndarray:
        """U diag(odd) V* for each row of odd chiral weights."""
        k = odd.shape[-1]
        return (self.u[:, :k] * odd[:, None, :]) @ adjoint(self.v[:, :k])

    def blocks(self, f: ScalarFunction, scales, increment: bool = False) -> ParityBlocks:
        """f(s D), or f(s D) - f(0) with increment, for each s in scales, at
        f's declared parity: U diag(w_e) U* and V diag(w_o) V* from even
        weights w, and U diag(w) V* with its partner V diag(w) U* from odd
        ones, the partner the adjoint when w is real.  So an odd f of a zero
        D gives an odd zero stack, and an f of no declared parity raises
        ValueError."""
        (u, v), w, ne = (self.u, self.v), self.weights(f, scales, increment), len(self.u)
        if not f.parity:
            return ParityBlocks(0, (u * w[:, None, :ne]) @ adjoint(u), (v * w[:, None, ne:]) @ adjoint(v))
        eo, k = self.odd_block(w), w.shape[-1]
        return ParityBlocks(1, eo, adjoint(eo) if np.isrealobj(w) else (v[:, :k] * w[:, None, :]) @ adjoint(u[:, :k]))

    def chiral_parts(self, a: GradedMatrix) -> tuple[int, np.ndarray]:
        """The operands of commutator_norms for a homogeneous a (a mixed one
        raises ValueError), built once per generator: p(a) and the stack of
        m = W* a W in parity order, m with each row i replaced by row q(i),
        gamma m gamma = (-1)^p(a) m with each column j replaced by column
        q(j), for q the pairing of indices, and K = W* [D, a] W.  In the
        chiral basis D carries sigma_i between the two indices of pair i, so
        K_ij = o_i rows_ij - cols_ij o_j with o the sigma of each index's pair
        (zero on unpaired indices)."""
        if a.parity is None:
            raise ValueError("commutator norms take a homogeneous generator; split a mixed one into its parity parts")
        u, v = self.u, self.v
        m = (ParityBlocks(0, adjoint(u), adjoint(v)) @ ParityBlocks.gather(a.space, a.entries, a.parity)
             @ ParityBlocks(0, u, v)).dense()
        ne, k = len(u), self.singular_values.size
        partner = np.arange(m.shape[-1])
        partner[:k] += ne
        partner[ne : ne + k] -= ne
        o = self._spread(self.singular_values)
        rows, cols = m[partner], m[:, partner] if a.parity == 0 else -m[:, partner]
        return a.parity, np.stack([m, rows, cols, o[:, None] * rows - cols * o])

    def commutator_norms(self, scales, parts: tuple[int, np.ndarray]) -> np.ndarray:
        """||[f(s D), a]|| for each s in scales (rows) and f in PAIR_FUNCTIONS
        (columns), from parts = chiral_parts(a).

        In the chiral basis f(s D) = diag(w) + P, where P carries
        f_odd(s sigma_i) between the two indices of pair i, and
        gamma f(s D) gamma = diag(w) - P.  So the graded commutator
        f(s D) a - a f((-1)^p(a) s D) has the entries
        (w_i - w_j) a_ij + o_i a_q(i)j - (gamma a gamma)_iq(j) o_j, with o the
        odd weight of each index's pair (zero on unpaired indices): for the
        even gauss0 the first term alone, a stack of parity p(a), and for the
        odd gauss1 the other two, of parity p(a) + 1.  The columns follow
        PAIR_FUNCTIONS: gauss0, gauss1, resolvent+, resolvent-.

        This is the one place of the resolvent rule, keyed on p(a): both
        resolvents R+-(x) = (x +- i)^-1 have the norm ||[R+-(s D), a]|| =
        s ||rho(s D) K rho(s D)||, with K = [D, a] and rho(x) =
        (1 + x^2)^(-1/2) the square root of the even cayley weights.  That is
        the Schur scaling s rho_i rho_j K_ij, of parity p(a) + 1, whose norm
        comes once from its two half-size blocks (real for real D and a) and
        fills both resolvent columns.  Proof: R(x) (x +- i) = 1 gives
        [R(s D), a] = -s R(s D) [D, a] R((-1)^p(a) s D), and R+-(y) =
        rho(y) u(y) with |u| = 1 and rho even, so the unitaries u(s D) and
        u(+-s D) drop out of the norm, which is therefore the same for R+
        and R-.
        """
        (p, (m, rows, cols, khat)), space = parts, GradedSpace(len(self.u), len(self.v))
        even = self.weights(GAUSS0, scales)
        columns = [ParityBlocks.gather(space, (even[:, :, None] - even[:, None, :]) * m, p).norms()]
        odd = self._spread(self.weights(GAUSS1, scales))
        columns.append(ParityBlocks.gather(space, odd[:, :, None] * rows - cols * odd[:, None, :], 1 - p).norms())
        # building the factored stack after the gauss stacks, not before them, measured ~2% faster at d = 127
        rho = np.sqrt(self.weights(CAYLEY, scales))
        scaled = (np.asarray(scales, dtype=float)[:, None] * rho)[:, :, None] * khat * rho[:, None, :]
        resolvent = ParityBlocks.gather(space, scaled, 1 - p).norms()
        return np.stack([*columns, resolvent, resolvent], -1)
