"""Shared fixtures-by-hand for the test suite, and the n-coordinate oracle:
the Bott operators lifted to every slot and held as their nonzeros, with an
exact spectrum from connected components and norms from component blocks,
which `lab bott`'s slot-wise certificates are tested against."""

import functools
import math
from dataclasses import dataclass

import numpy as np

import gradedlab.bott
from gradedlab import GradedMatrix, GradedSpace, OddSelfAdjoint
from gradedlab.bott import bott_dirac
from gradedlab.estimates import pade_exps
from gradedlab.funcalc import CAYLEY, MULTIPLIER_G, ParityBlocks
from gradedlab.graded import negligible, operator_norms
from gradedlab.pairs import COMMUTATION_EXPONENT_THRESHOLD, COMPOSE_EXPONENT_THRESHOLD

TWO = GradedSpace(1, 1)

# every experiment at toy size, as config-file fields
SMALL = {
    "commbound": {"trials": 4, "dims": [4], "n_grid": [1.0, 4.0],
                  "t_grid": {"start": 1.0, "stop": 100.0, "points": 8}},
    "expfactor": {"trials": 3, "dims": [4], "t_grid": {"start": 10.0, "stop": 1000.0, "points": 16}},
    "techlemma": {"trials": 2, "dims": [4], "t_grid": {"start": 10.0, "stop": 1000.0, "points": 10}},
    "compose": {"trials": 2, "dims": [4], "t_grid": {"start": 1.0, "stop": 1000.0, "points": 16}},
    "bott": {"n_basis": 12, "t_grid": {"start": 1.0, "stop": 1000.0, "points": 12}},
    "perturb": {"trials": 1, "dims": [4], "n_basis": 10,
                "t_grid": {"start": 1.0, "stop": 1000.0, "points": 16}},
    "appendixB": {"trials": 10, "dims": [4]},
}

SIGMA_X = GradedMatrix(TWO, np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = GradedMatrix(TWO, np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = GradedMatrix(TWO, np.array([[1, 0], [0, -1]], dtype=complex))


def as_odd(m: GradedMatrix) -> OddSelfAdjoint:
    """m, validated as an OddSelfAdjoint."""
    return OddSelfAdjoint(m.space, m.entries)


SX = as_odd(SIGMA_X)
SY = as_odd(SIGMA_Y)


def chiral_apply(spec, f, scale: float = 1.0) -> np.ndarray:
    """Matrix of f(scale * D) from the chiral spectrum of D, in the parity order of D's space."""
    return spec.blocks(f, [scale]).dense()[0]


def homogeneous_parts(f) -> list:
    """(coefficient, function) pairs of declared parity that sum to f: f
    itself, or for a resolvent (x -+ i)^-1, of no declared parity, its odd
    and even parts g(x) and f(0) cayley(x), with f(0) = -+i."""
    if f.parity is not None:
        return [(1.0, f)]
    return [(1.0, MULTIPLIER_G), (complex(f(np.zeros(1))[0]), CAYLEY)]


def max_abs(matrix) -> float:
    entries = matrix.entries if isinstance(matrix, GradedMatrix) else np.asarray(matrix)
    return float(np.abs(entries).max(initial=0.0))


def bott_operator(n_basis: int, n: int = 1) -> OddSelfAdjoint:
    """B = D + C of the Bott-Dirac model on n coordinates as a dense OddSelfAdjoint,
    scattered from its nonzeros in Kronecker order (in_tensor_order)."""
    return in_tensor_order(bott_nonzeros(n_basis, n), bott_dirac(n_basis).space, n)


def tensor_order(*spaces: GradedSpace) -> np.ndarray:
    """The Kronecker index of each basis vector of the graded tensor product
    of spaces, in the order graded_tensor lists them when the factors are
    multiplied from the left: each product's basis stably in parity order."""
    order, degree = np.zeros(1, dtype=int), np.zeros(1, dtype=int)
    for space in spaces:
        kron = (order[:, None] * space.dim + np.arange(space.dim)).ravel()
        total = (degree[:, None] + np.array(space.parity)).ravel() % 2
        stable = np.argsort(total, kind="stable")
        order, degree = kron[stable], total[stable]
    return order


def in_tensor_order(m: "OddNonzeros", space: GradedSpace, n: int) -> OddSelfAdjoint:
    """The dense operator of nonzeros m in Kronecker order on the n-fold tensor
    power of space, its basis permuted as nested graded_tensor products list it."""
    order, odd = tensor_order(*[space] * n), int(m.parity.sum())
    return OddSelfAdjoint(GradedSpace(m.parity.size - odd, odd), m.dense()[np.ix_(order, order)])


def fitted_exponents(profiles) -> list[float]:
    """Every fitted exponent of a {generator: {function: DecayProfile}} map."""
    return [p.fitted_exponent for per_fn in profiles.values() for p in per_fn.values()]


def commutes_asymptotically(profiles) -> bool:
    """Every commutation exponent of validate_pair reaches the threshold `lab` certifies."""
    return all(e <= COMMUTATION_EXPONENT_THRESHOLD for e in fitted_exponents(profiles))


def composes(defect_profiles) -> bool:
    """Every composition-defect exponent of compose_pairs reaches the threshold `lab` certifies."""
    return all(e <= COMPOSE_EXPONENT_THRESHOLD for e in fitted_exponents(defect_profiles))


def matrix_exp_oracle(entries):
    """e^m one matrix at a time: the Pade kernel on a one-matrix stack (its
    accuracy is tested against scipy, mpmath and, on Hermitian stacks, eigh)."""
    return pade_exps(entries[None])[0]


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
    return max((float(operator_norms(stack).max()) for stack in blocks), default=0.0)


def _product(x, y):
    """The entries of x @ y: nonzeros joined on the inner index, positions summed."""
    order = np.argsort(y.rows, kind="stable")
    start = np.searchsorted(y.rows[order], x.cols)
    count = np.searchsorted(y.rows[order], x.cols, side="right") - start
    left = np.repeat(np.arange(x.cols.size), count)
    right = order[np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())]
    return _summed(x.rows[left], y.cols[right], x.values[left] * y.values[right], x.parity.size)


def _lift(m, n: int) -> OddNonzeros:
    """sum_i 1^(x)i (x) m (x) 1^(x)(n-i-1) of a real odd one-coordinate m on the
    n-fold graded tensor power, as nonzeros: M_1 = m, then
    M_{i+1} = M_i (x) 1 + S^(x)i (x) m in Kronecker order, the Koszul sign
    S^(x)i = gamma^(x)i a Jordan-Wigner string of the first i parities, read
    from the sign definition gradedlab.bott's slot-wise formulas use."""
    parity = space = np.array(m.space.parity)
    rows, cols = np.nonzero(m.entries)
    values, size = m.entries[rows, cols], parity.size
    r, c, v = rows, cols, values
    for _ in range(1, n):
        own, lifted = np.arange(size), np.arange(space.size)[:, None] * size
        r = np.r_[(r[:, None] * size + own).ravel(), (lifted + rows).ravel()]
        c = np.r_[(c[:, None] * size + own).ravel(), (lifted + cols).ravel()]
        v = np.r_[np.repeat(v, size), (gradedlab.bott._koszul_sign(space)[:, None] * values).ravel()]
        space = ((space[:, None] + parity) % 2).ravel()
    return OddNonzeros(space, r, c, v)


def bott_nonzeros(n_basis: int, n: int = 1) -> OddNonzeros:
    """B = D + C on n coordinates, the lift of b_1 = d_1 + c_1, which joins
    h_j (x) e and h_{j+1} (x) 1 with weight sqrt(2 (j + 1)) (their other
    entries cancel)."""
    ops = bott_dirac(n_basis)
    return _lift(ops.dirac + ops.clifford_mult, n)


def unsigned_sign(parity):
    """The Koszul sign S = gamma replaced by 1, for patching over
    gradedlab.bott._koszul_sign: lifts to different slots then commute
    instead of anticommuting."""
    return np.ones(parity.size)


def lifted_dirac(n_basis: int, n: int) -> tuple[OddNonzeros, OddNonzeros]:
    """D = sum_i d_i (x) e^_i and C = sum_i x_i (x) e_i on n coordinates, as nonzeros."""
    ops = bott_dirac(n_basis)
    return _lift(ops.dirac, n), _lift(ops.clifford_mult, n)


def dc_nonzeros(n_basis: int, n: int) -> dict:
    """dc_commutator_check's three norms on the full lifts of D and C: D C and
    C D as nonzeros, summed apart so a Koszul cross term cancels to exactly 0,
    the interior mask a tensor power on columns and the degree involution
    diag(2 deg - n), each norm the largest of its component blocks'."""
    ops = bott_dirac(n_basis)
    parity, interior1 = ops.space, ops.interior
    d, c = lifted_dirac(n_basis, n)
    size = d.parity.size
    rows, cols, values = _summed(*(np.r_[a, b] for a, b in zip(_product(d, c), _product(c, d))), size)
    inside = functools.reduce(np.kron, [interior1] * n) > 0
    degree = sum(np.ix_(*[np.array(parity.parity)] * n)).ravel()  # odd factors per index

    def interior_defect(diagonal):
        on, kept = np.flatnonzero(inside), inside[cols]
        return nonzeros_norm(np.r_[rows[kept], on], np.r_[cols[kept], on], np.r_[values[kept], -diagonal[on]], size)

    return {
        "commutator_norm": nonzeros_norm(rows, cols, values, size),
        "interior_defect_vs_involution": interior_defect(2.0 * degree - n),
        "interior_defect_vs_identity": interior_defect(np.ones(size)),
    }


def dense_dc_check(ops, n: int) -> dict:
    """dc_commutator_check on n coordinates as formed densely at
    2 n_basis - 1: the cross terms from Frobenius norms of the dense d, c,
    {d, S} and {c, S}, {d, c} as d c + c d, its three targets and masks as a
    (3, d, d) stack, and the norms of that stack's parity blocks, gathered
    back out of it at parity 0 (the products of two odd matrices are even)."""
    degree = np.array(ops.space.parity)
    d, c = ops.dirac.entries, ops.clifford_mult.entries
    sign = gradedlab.bott._koszul_sign(degree)

    def frobenius(m):
        return math.sqrt(float(np.vdot(m, m).real))

    def cross_norm(m):
        return frobenius(m * sign + sign[:, None] * m)

    cross = math.comb(n, 2) * (cross_norm(d) * frobenius(c) + cross_norm(c) * frobenius(d))
    anti = d @ c + c @ d
    targets = np.stack([np.zeros_like(anti), np.diag(2.0 * degree - 1.0), np.eye(degree.size) / n])
    masks = np.stack([np.ones(degree.size), ops.interior, ops.interior])[:, None]  # on columns
    return {
        name: n * float(norm) + cross
        for name, norm in zip(("commutator_norm", "interior_defect_vs_involution", "interior_defect_vs_identity"),
                              ParityBlocks.gather(ops.space, (anti - targets) * masks, 0).norms())
    }
