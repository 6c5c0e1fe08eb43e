"""Bott-Dirac model: Hermite-truncated Dirac plus Clifford multiplication.

The one-coordinate Hilbert space is L^2(R) tensor Cliff_C(R), realized on
the first n_basis Hermite functions with the two-dimensional regular
fiber spanned by (1, e).  Position and derivative act by the ladder
relations x = (a + a*)/sqrt(2), d/dx = (a - a*)/sqrt(2); the Dirac
operator is D = d (x) e^ with e^ the signed right multiplication
e^(g) = (-1)^deg(g) g.e, and the Clifford operator is C = x (x) e with
left multiplication.

Truncation is ladder-paired: the Bott-Dirac operator B = D + C maps
h_k (x) e to sqrt(2(k+1)) h_{k+1} (x) 1 and back, so keeping the even
fiber sector up to level n_basis - 1 and the odd sector up to
n_basis - 2 produces a B-invariant subspace with the exact spectrum
{0} union {+-sqrt(2m)}.  A plain product truncation would instead orphan
the top odd state h_{K-1} (x) e and create a spurious second zero mode.

The graded anticommutator [D, C] is not the identity: on the interior
(away from the truncation edge) it equals the Clifford-degree involution
2 deg - n, i.e. minus the grading operator in one coordinate.  That sign
structure is exactly what gives B^2 = oscillator - involution a
one-dimensional kernel spanned by the Gaussian h_0 (x) 1.

Models with n > 1 coordinates are graded tensor powers of the
one-coordinate model, and every operator on them is one lift, held as its
nonzeros: the sum over coordinates of a one-coordinate odd matrix, with
the Koszul sign a Jordan-Wigner string.  B is only ever held so
(`bott_nonzeros`), and the dc check multiplies the lifts of D and C as
nonzeros (`dc_commutator_check`); D and C are dense (`bott_dirac`) only
at one coordinate, for the pairs.  B_1 is a direct sum of 2 x 2 blocks on
(h_j (x) e, h_{j+1} (x) 1) and a 1 x 1 zero on h_0 (x) 1, so B splits into
connected components of at most 2^n indices, its exact and dense-free
spectrum (`OddNonzeros.eigenvalues`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .funcalc import CAYLEY, MULTIPLIER_G, ChiralSpectrum, ParityBlocks, Spectrum
from .graded import GradedMatrix, GradedSpace, OddSelfAdjoint, negligible
from .pairs import (
    AsymptoticPair,
    DecayProfile,
    checked_t_grid,
    factorization_defect_profiles,
    generator_profiles,
)

__all__ = [
    "HermiteModel",
    "hermite_model",
    "BottOperators",
    "OddNonzeros",
    "bott_nonzeros",
    "bott_dirac",
    "multiplication_generators",
    "spectrum_and_kernel",
    "dc_commutator_check",
    "perturbation_check",
]

# Left multiplication by e and signed right multiplication on span(1, e).
_LEFT_E = np.array([[0.0, 1.0], [1.0, 0.0]])
_RIGHT_E_SIGNED = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class HermiteModel:
    """Truncated Hermite realization of one or more coordinates."""

    n_basis: int
    n: int
    x_mat: np.ndarray
    d_mat: np.ndarray


def hermite_model(n_basis: int, n: int = 1) -> HermiteModel:
    """Ladder-relation position and derivative matrices on n_basis levels."""
    if n_basis < 8:
        raise ValueError("need at least 8 Hermite levels")
    if n < 1:
        raise ValueError("need at least one coordinate")
    k = np.arange(1, n_basis)
    off = np.sqrt(k / 2.0)
    x = np.zeros((n_basis, n_basis))
    x[k - 1, k] = off
    x[k, k - 1] = off
    d = np.zeros((n_basis, n_basis))
    d[k - 1, k] = off
    d[k, k - 1] = -off
    return HermiteModel(int(n_basis), int(n), x, d)


@dataclass(frozen=True)
class BottOperators:
    """Dirac D and Clifford multiplication C; their sum B is bott_nonzeros."""

    space: GradedSpace
    dirac: OddSelfAdjoint
    clifford_mult: OddSelfAdjoint


def _coordinate_pieces(model: HermiteModel):
    """One-coordinate space, D, C and interior on the paired subspace."""
    k = model.n_basis
    keep = np.concatenate([2 * np.arange(k), 2 * np.arange(k - 1) + 1])  # even sector, then odd
    parity = GradedSpace(tuple([0] * k + [1] * (k - 1)))
    d_full = np.kron(model.d_mat, _RIGHT_E_SIGNED)
    c_full = np.kron(model.x_mat, _LEFT_E)
    d = OddSelfAdjoint(GradedMatrix(parity, d_full[np.ix_(keep, keep)]))
    c = OddSelfAdjoint(GradedMatrix(parity, c_full[np.ix_(keep, keep)]))
    # interior: drop the top two Hermite levels in each fiber sector
    interior = np.concatenate([
        (np.arange(k) < k - 2).astype(float),
        (np.arange(k - 1) < k - 3).astype(float),
    ])
    return parity, d, c, interior


@dataclass(frozen=True)
class OddNonzeros:
    """Real odd symmetric operator as its nonzeros, values[k] at (rows[k],
    cols[k]), validated as OddSelfAdjoint validates a dense one: each entry
    joins opposite parities and equals its mirror to VALIDATION_TOL."""

    parity: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        key, mirror = self.rows * self.parity.size + self.cols, self.cols * self.parity.size + self.rows
        forward, back = np.argsort(key), np.argsort(mirror)
        if np.any(self.parity[self.rows] == self.parity[self.cols]) or not (
                np.array_equal(key[forward], mirror[back]) and np.all(np.diff(key[forward]) > 0)
                and negligible(self.values[forward] - self.values[back], self.values[None])):
            raise ValueError("nonzeros must join opposite parities and be symmetric, each position once")

    def dense(self) -> np.ndarray:
        """The d x d matrix, +0.0 off the nonzeros."""
        dense = np.zeros((self.parity.size, self.parity.size))
        dense[self.rows, self.cols] = self.values
        return dense

    def eigenvalues(self) -> np.ndarray:
        """Sorted spectrum: the connected components', one stacked eigvalsh per size."""
        blocks = _component_blocks(self.rows, self.cols, self.values, self.parity.size, shared=True)
        return np.sort(np.concatenate([np.linalg.eigvalsh(stack).ravel() for stack in blocks]))


def _component_blocks(rows, cols, values, size: int, shared: bool) -> list[np.ndarray]:
    """Dense blocks of the connected components of a size x size matrix with
    no entry repeated, one (count, p, q) stack per block shape.  shared makes
    row i and column i one node: a symmetric matrix's spectrum is then its
    square blocks'; else any matrix's norm is its blocks' largest."""
    offset = 0 if shared else size  # the node of column j is offset + j
    heads, label, moved = cols + offset, None, np.arange(size + offset)
    while not np.array_equal(moved, label):  # min-label propagation, then pointer jumping
        label, moved = moved, moved.copy()
        np.minimum.at(moved, rows, label[heads])
        np.minimum.at(moved, heads, label[rows])
        moved = moved[moved]
    row_label, col_label = label[:size], label[offset:]
    p, q = (np.bincount(x, minlength=label.size) for x in (row_label, col_label))
    # ordered by (shape, label), the components of one shape are runs of p rows and of q columns
    row_key, col_key = (p * (size + 1) + q)[[row_label, col_label]]
    row_at = np.argsort(np.lexsort((row_label, row_key)))
    col_at = np.argsort(np.lexsort((col_label, col_key)))
    keys = np.sort(row_key[q[row_label] > 0])
    blocks = []
    for key in keys[np.diff(keys, prepend=-1) > 0]:
        s, t = divmod(int(key), size + 1)
        edge = row_key[rows] == key
        row = row_at[rows[edge]] - np.count_nonzero(row_key < key)
        col = col_at[cols[edge]] - np.count_nonzero(col_key < key)
        stack = np.zeros(np.count_nonzero(row_key == key) * t)
        stack[row * t + col % t] = values[edge]
        blocks.append(stack.reshape(-1, s, t))
    return blocks


def _summed(rows, cols, values, size: int):
    """The entries with repeated positions summed in order, exact zeros dropped."""
    key = rows * size + cols
    order = np.argsort(key, kind="stable")
    key, values = key[order], values[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    total = np.add.reduceat(values, first) if first.size else values
    key, total = key[first][total != 0], total[total != 0]
    return key // size, key % size, total


def nonzeros_norm(rows, cols, values, size: int) -> float:
    """Operator norm of the size x size matrix with these entries, repeated
    positions summed: the largest of its component blocks' norms."""
    blocks = _component_blocks(*_summed(rows, cols, values, size), size, shared=False)
    return max((float(np.linalg.svd(stack, compute_uv=False).max()) for stack in blocks), default=0.0)


def _product(x: OddNonzeros, y: OddNonzeros):
    """The entries of x @ y: nonzeros joined on the inner index, positions summed."""
    order = np.argsort(y.rows, kind="stable")
    start = np.searchsorted(y.rows[order], x.cols)
    count = np.searchsorted(y.rows[order], x.cols, side="right") - start
    left = np.repeat(np.arange(x.cols.size), count)
    right = order[np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())]
    return _summed(x.rows[left], y.cols[right], x.values[left] * y.values[right], x.parity.size)


def _lift(m: OddSelfAdjoint, n: int) -> OddNonzeros:
    """sum_i 1^(x)i (x) m (x) 1^(x)(n-i-1) of a real odd one-coordinate m on the
    n-fold graded tensor power, as nonzeros: M_1 = m, then
    M_{i+1} = M_i (x) 1 + gamma^(x)i (x) m in Kronecker order, the Koszul sign
    gamma^(x)i a Jordan-Wigner string of the first i parities."""
    parity = space = np.array(m.space.parity)
    rows, cols = np.nonzero(m.mat)
    values, size = m.mat[rows, cols], parity.size
    r, c, v = rows, cols, values
    for _ in range(1, n):
        own, lifted = np.arange(size), np.arange(space.size)[:, None] * size
        r = np.r_[(r[:, None] * size + own).ravel(), (lifted + rows).ravel()]
        c = np.r_[(c[:, None] * size + own).ravel(), (lifted + cols).ravel()]
        v = np.r_[np.repeat(v, size), ((1 - 2 * space)[:, None] * values).ravel()]
        space = ((space[:, None] + parity) % 2).ravel()
    return OddNonzeros(space, r, c, v)


def bott_nonzeros(model: HermiteModel) -> OddNonzeros:
    """B = D + C, the lift of b_1 = d_1 + c_1, which joins h_j (x) e and
    h_{j+1} (x) 1 with weight sqrt(2 (j + 1)) (their other entries cancel)."""
    _, d1, c1, _ = _coordinate_pieces(model)
    return _lift(d1 + c1, model.n)


def bott_dirac(model: HermiteModel) -> BottOperators:
    """D = sum_i d_i (x) e^_i and C = sum_i x_i (x) e_i, dense."""
    _, d1, c1, _ = _coordinate_pieces(model)
    d, c = _lift(d1, model.n), _lift(c1, model.n)
    space = GradedSpace(tuple(d.parity.tolist()))
    return BottOperators(space, OddSelfAdjoint(GradedMatrix(space, d.dense())),
                         OddSelfAdjoint(GradedMatrix(space, c.dense())))


def multiplication_generators(model: HermiteModel) -> dict[str, GradedMatrix]:
    """Pointwise-multiplication generators for the function algebra.

    Returns an even generator (1 + x^2)^{-1} (x) 1 and an odd one
    x (1 + x^2)^{-1} (x) e, realized through the compressed position
    operator on the paired one-coordinate space.
    """
    if model.n != 1:
        raise ValueError("multiplication generators are built for one coordinate")
    parity, _, c1, _ = _coordinate_pieces(model)
    k = model.n_basis
    x_even = np.zeros((2 * k - 1, 2 * k - 1))  # x (x) 1, sector by sector
    x_even[:k, :k], x_even[k:, k:] = model.x_mat, model.x_mat[:-1, :-1]
    even = GradedMatrix(parity, Spectrum.of(GradedMatrix(parity, x_even)).apply(CAYLEY))
    # through the chiral spectrum the odd g(C_1) = g(x (x) e) is exactly odd
    odd = GradedMatrix(parity, ChiralSpectrum.of(c1).apply(MULTIPLIER_G))
    return {"mult_even": even, "mult_odd": odd}


def spectrum_and_kernel(b: OddSelfAdjoint, tol: float) -> tuple[np.ndarray, int]:
    """Sorted eigenvalues of b's odd part and the count of |lambda| < tol.

    In parity order the odd part is [[0, A], [A*, 0]] with A = b[e, o], so
    its eigenvalues are +-sigma_i(A) and |#e - #o| exact zeros
    (Jordan-Wielandt), all from one values-only SVD of the #e x #o block
    (ChiralSpectrum without U and V).  Weyl's inequality puts each
    eigenvalue of b within ||b_even|| of the one returned.  `lab bott`
    reads it for the composed operator only: the model's own B has the
    exact component spectrum of bott_nonzeros.
    """
    if not 0 < tol < np.inf:
        raise ValueError("kernel tolerance must be positive and finite")
    spec = ChiralSpectrum.of(b, compute_uv=False)
    sigma, gap = spec.singular_values, np.zeros(abs(spec.even.size - spec.odd.size))
    eigenvalues = np.sort(np.concatenate([-sigma, gap, sigma]))
    return eigenvalues, int(np.count_nonzero(np.abs(eigenvalues) < tol))


def dc_commutator_check(model: HermiteModel) -> dict:
    """Measure the graded anticommutator of D and C on the interior.

    Away from the truncation edge the anticommutator equals the
    Clifford-degree involution (2 deg - n per fiber); its distance to
    the identity is reported alongside because the involution has both
    eigenvalues, an identity defect of n + 1 in operator norm.  All three
    norms run on the nonzeros of the lifts of D and C, never dense.
    """
    parity, d1, c1, interior1 = _coordinate_pieces(model)
    d, c = _lift(d1, model.n), _lift(c1, model.n)
    size = d.parity.size
    # D C and C D are summed apart, so a Koszul cross term cancels to exactly 0
    rows, cols, values = _summed(*(np.r_[a, b] for a, b in zip(_product(d, c), _product(c, d))), size)
    inside = functools.reduce(np.kron, [interior1] * model.n) > 0  # the interior mask scales columns
    degree = sum(np.ix_(*[np.array(parity.parity)] * model.n)).ravel()  # odd factors per index

    def interior_defect(diagonal):
        on, kept = np.flatnonzero(inside), inside[cols]
        return nonzeros_norm(np.r_[rows[kept], on], np.r_[cols[kept], on], np.r_[values[kept], -diagonal[on]], size)

    return {
        "commutator_norm": nonzeros_norm(rows, cols, values, size),
        "interior_defect_vs_involution": interior_defect(2.0 * degree - model.n),
        "interior_defect_vs_identity": interior_defect(np.ones(size)),
    }


def perturbation_check(
    pair: AsymptoticPair, potential: OddSelfAdjoint, t_grid: np.ndarray
) -> tuple[dict[str, dict[str, DecayProfile]], DecayProfile, DecayProfile]:
    """(homom_profiles, defect_even, defect_odd): measurements that a bounded
    odd potential V does not change the class.

    homom_profiles holds t -> ||f(t^-1 V) b - f(0) b|| per generator and f in
    (cayley, g), decaying like t^-2 for even f and t^-1 for odd f.  The heat
    factorization defects of (D, V) decay like t^-2, which certifies that
    composing with the potential pair lands on (phi, D + V).
    """
    if pair.space != potential.space:
        raise ValueError("potential lives on the wrong space")
    grid = checked_t_grid(t_grid)
    spec_v = ChiralSpectrum.of(potential)
    # f(s V) - f(0) from the chiral weights f(s sigma) - f(0), by f.increment
    # where f(0) != 0, so no two O(1) matrices are subtracted
    generators = {name: ParityBlocks.gather(pair.space, gen.entries) for name, gen in pair.generators.items()}
    functions = (CAYLEY, MULTIPLIER_G)
    profiles = generator_profiles(
        functions, generators, grid, lambda scales: [spec_v.blocks(f, scales, increment=True) for f in functions],
        lambda f, moved, a: (moved @ a).norms(), pair.space.dim,
    )
    return (profiles, *factorization_defect_profiles(pair.d, potential, grid))
