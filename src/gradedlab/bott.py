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
one-coordinate model: an operator M = sum_i S^(x)i (x) m (x) 1^(x)(n-i-1)
lifts a one-coordinate odd m to each slot, the Koszul sign S = gamma a
Jordan-Wigner string.  No n-coordinate operator is built; each certificate
comes from one-coordinate pieces.  The lifts of b = d_1 + c_1 to different
slots anticommute up to {b, S} = 0, so B^2 = sum_i lift_i(b^2) and B's
spectrum is the n-fold sum set of b's squared one, held as distinct values
with multiplicities (`ladder_spectrum`); any cross term left, as with
S = 1, enters as a Weyl slack.  Likewise {D, C} is n lifts of the
one-coordinate {d, c} plus cross terms of norm ||{d, S}|| ||c|| and
||{c, S}|| ||d|| (`dc_commutator_check`).  A rung, `bott_dirac(n_basis)`,
is one coordinate's x, [e, o] blocks of d and c, and interior; the ladder,
the dc check and the multiplication generators (rational in x and c, so
half-size inverses) read only those blocks, and the pairs' dense D and C
(n = 1) are built on first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .funcalc import CAYLEY, MULTIPLIER_G, ChiralSpectrum, ParityBlocks
from .graded import GradedMatrix, GradedSpace, OddSelfAdjoint
from .pairs import (
    AsymptoticPair,
    DecayProfile,
    checked_t_grid,
    factorization_defect_profiles,
    grid_profiles,
)

__all__ = [
    "hermite_model",
    "BottOperators",
    "LadderSpectrum",
    "ladder_spectrum",
    "bott_dirac",
    "multiplication_generators",
    "spectrum_and_kernel",
    "dc_commutator_check",
    "perturbation_check",
]

# |lambda| below this counts as a kernel eigenvalue of a Bott operator.
KERNEL_TOL = 1e-8


def hermite_model(n_basis: int) -> tuple[np.ndarray, np.ndarray]:
    """The ladder-relation position and derivative matrices (x, d/dx) on n_basis levels."""
    if n_basis < 8:
        raise ValueError("need at least 8 Hermite levels")
    k = np.arange(1, n_basis)
    off = np.sqrt(k / 2.0)
    x = np.zeros((n_basis, n_basis))
    x[k - 1, k] = off
    x[k, k - 1] = off
    d = np.zeros((n_basis, n_basis))
    d[k - 1, k] = off
    d[k, k - 1] = -off
    return x, d


@dataclass(frozen=True)
class BottOperators:
    """One coordinate's rung on the paired subspace of n_basis levels, its
    even indices first: the position matrix x, the [e, o] blocks of the Dirac
    d and the Clifford multiplication c (real, so each [o, e] block is the
    transpose) and the interior mask.  Dense d and c are built on first read."""

    n_basis: int
    space: GradedSpace
    x: np.ndarray
    d_block: np.ndarray
    c_block: np.ndarray
    interior: np.ndarray

    def _dense(self, block: np.ndarray) -> OddSelfAdjoint:
        return OddSelfAdjoint(self.space, ParityBlocks(1, block, block.T).dense())

    @functools.cached_property
    def dirac(self) -> OddSelfAdjoint:
        return self._dense(self.d_block)

    @functools.cached_property
    def clifford_mult(self) -> OddSelfAdjoint:
        return self._dense(self.c_block)


def bott_dirac(n_basis: int) -> BottOperators:
    """One coordinate's d = d/dx (x) e^, c = x (x) e and interior on
    n_basis levels.  The space is the even sector h_j (x) 1, j < n_basis,
    then the odd one h_j (x) e, j < n_basis - 1.  x (x) e and d (x) e^ join
    the two sectors, the latter with -d from odd to even (+0.0, not -0.0,
    where d is 0)."""
    x, d = hermite_model(n_basis)
    # interior: drop the top two Hermite levels in each fiber sector
    interior = np.r_[np.arange(n_basis) < n_basis - 2, np.arange(n_basis - 1) < n_basis - 3].astype(float)
    return BottOperators(n_basis, GradedSpace(n_basis, n_basis - 1), x, 0.0 - d[:, :-1], x[:, :-1], interior)


def _koszul_sign(parity: np.ndarray) -> np.ndarray:
    """Diagonal of the one-coordinate sign S that a lift to a later slot
    passes through: the grading gamma = 1 - 2 parity.  The lift of an odd m
    to slot i of n is S^(x)i (x) m (x) 1^(x)(n-i-1), the Koszul sign a
    Jordan-Wigner string."""
    return 1.0 - 2.0 * parity


def _frobenius(block: np.ndarray) -> float:
    """The Frobenius norm of the real odd operator with this [e, o] block, a bound on its norm."""
    return math.sqrt(2.0 * float(np.vdot(block, block)))


def _cross_norm(block: np.ndarray, sign: np.ndarray) -> float:
    """A bound on ||{m, S}|| for the odd m with this [e, o] block: an anticommutator
    of the lifts of m and m' to two different slots is {m, S} (x) S..S (x) m', of norm
    ||{m, S}|| ||m'||.  {m, S} has [e, o] block block (S_e + S_o), 0 for S = gamma."""
    return _frobenius(block * (sign[:len(block), None] + sign[len(block):]))


# Sums of squared eigenvalues that agree to this relative tolerance are one
# eigenvalue of B^2.  The one-coordinate squares come within 1 ulp of 2m
# (measured up to n_basis 2048), so a sum of n of them within about n ulps,
# and B^2's distinct eigenvalues, the even integers 0 to 2 n (n_basis - 1),
# are at least 1 / (n n_basis) apart relative.
SUM_SET_RTOL = 1e-9


def _merged(values: np.ndarray, multiplicity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct values, each run within SUM_SET_RTOL of its
    neighbour as its smallest, with the run's multiplicities summed."""
    order = np.argsort(values, kind="stable")
    values, multiplicity = values[order], multiplicity[order]
    first = np.flatnonzero(np.diff(values, prepend=-np.inf) > SUM_SET_RTOL * np.abs(values))
    return values[first], np.add.reduceat(multiplicity, first)


@dataclass(frozen=True)
class LadderSpectrum:
    """The spectrum of B = sum_i lift_i(b) on n coordinates, from b's alone.

    squares holds the distinct eigenvalues of sum_i lift_i(b^2), the n-fold
    sum set of b's squared spectrum, ascending, with integer multiplicity.
    B^2 is that operator plus the cross terms {lift_i(b), lift_j(b)}, i < j,
    each of norm ||{b, S}|| ||b||, so each eigenvalue of B^2, in order, lies
    within slack = C(n, 2) ||{b, S}|| ||b|| of its sum-set counterpart
    (Weyl).  The Koszul sign S = gamma makes slack exactly 0.
    """

    squares: np.ndarray
    multiplicity: np.ndarray
    slack: float
    ground_residual: float

    def smallest(self, count: int) -> np.ndarray:
        """The count smallest sum-set values, multiplicities expanded."""
        return np.repeat(self.squares, np.minimum(self.multiplicity, count))[:count]

    def _bounds(self, squares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on the magnitudes of B's eigenvalues at these sum-set values."""
        return np.sqrt(np.maximum(squares - self.slack, 0.0)), np.sqrt(squares + self.slack)

    def magnitude_bounds(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on B's count smallest eigenvalue magnitudes."""
        return self._bounds(self.smallest(count))

    def kernel_dim(self) -> int:
        """How many eigenvalues of B may have magnitude below KERNEL_TOL."""
        return int(self.multiplicity[self._bounds(self.squares)[0] < KERNEL_TOL].sum())

    def eigenvalues(self) -> tuple[np.ndarray, np.ndarray]:
        """B's distinct eigenvalues, ascending, with multiplicity: 0, and
        +-sqrt of each nonzero square, half its multiplicity each, for
        gamma B gamma = -B swaps the two eigenspaces."""
        nonzero = self.squares > 0
        root, half = np.sqrt(self.squares[nonzero]), self.multiplicity[nonzero] // 2
        return (np.r_[-root[::-1], self.squares[~nonzero], root],
                np.r_[half[::-1], self.multiplicity[~nonzero], half])

def ladder_spectrum(ops: BottOperators, n: int) -> LadderSpectrum:
    """B's spectrum on n coordinates from the [e, o] block of the
    one-coordinate b = d_1 + c_1: b's eigenvalues (_odd_eigenvalues), their
    squares' n-fold sum set, the Weyl slack of the cross terms, and the
    ground residual ||B e_0|| = sqrt(n) ||b e_0|| (the n terms of B e_0 are
    orthogonal, for b e_0 is odd and e_0 even; b e_0 is the block's row 0)."""
    if n < 1:
        raise ValueError("need at least one coordinate")
    b = ops.d_block + ops.c_block
    eigenvalues = _odd_eigenvalues(b)
    one, count = _merged(eigenvalues**2, np.ones(eigenvalues.size, dtype=np.int64))
    squares, multiplicity = np.zeros(1), np.ones(1, dtype=np.int64)
    for _ in range(n):
        squares, multiplicity = _merged((squares[:, None] + one).ravel(), (multiplicity[:, None] * count).ravel())
    cross = _cross_norm(b, _koszul_sign(np.array(ops.space.parity)))
    slack = math.comb(n, 2) * cross * float(np.abs(eigenvalues).max())
    return LadderSpectrum(squares, multiplicity, slack, math.sqrt(n) * float(np.linalg.norm(b[0])))


def multiplication_generators(ops: BottOperators) -> dict[str, GradedMatrix]:
    """The even generator CAYLEY(x (x) 1) = (1 + x^2)^{-1} (x) 1 and the odd one
    MULTIPLIER_G(C) = C (1 + C^2)^{-1}, C = x (x) e, from half-size inverses:
    x (x) 1 is x on the even sector and x' = x[:-1, :-1] on the odd one, and
    C^2 = diag(c c^T, c^T c) for C's [e, o] block c, so g(C) has [e, o] block
    c (1 + c^T c)^{-1} and, exactly, its transpose as [o, e] block."""
    even = ParityBlocks(0, _cayley(ops.x), _cayley(ops.x[:-1, :-1])).dense()
    odd = ops.c_block @ _cayley(ops.c_block)
    return {"mult_even": GradedMatrix(ops.space, even),
            "mult_odd": GradedMatrix(ops.space, ParityBlocks(1, odd, odd.T).dense())}


def _cayley(m: np.ndarray) -> np.ndarray:
    """(1 + m^T m)^{-1} of a real matrix m."""
    return np.linalg.inv(np.eye(m.shape[1]) + m.T @ m)


def spectrum_and_kernel(b: OddSelfAdjoint) -> tuple[np.ndarray, int]:
    """Sorted eigenvalues of b's odd part and the count of |lambda| < KERNEL_TOL.

    The odd part is [[0, A], [A*, 0]] with A = b[e, o], the [e, o] block, so
    its eigenvalues are +-sigma_i(A) and |#e - #o| exact zeros
    (Jordan-Wielandt), all from one values-only SVD of the #e x #o block.
    Weyl's inequality puts each eigenvalue of b within ||b_even|| of the
    one returned.  `lab bott` reads it for the composed operator; the
    ladder reads each rung's b[e, o] block the same way.
    """
    if not isinstance(b, OddSelfAdjoint):
        raise TypeError("spectrum_and_kernel reads the odd block of an OddSelfAdjoint operator")
    eigenvalues = _odd_eigenvalues(b.entries[: b.space.even, b.space.even :])
    return eigenvalues, int(np.count_nonzero(np.abs(eigenvalues) < KERNEL_TOL))


def _odd_eigenvalues(block: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the odd operator with this [e, o] block A: +-sigma_i(A), |#e - #o| zeros."""
    sigma = np.linalg.svd(block, compute_uv=False)
    return np.sort(np.concatenate([-sigma, np.zeros(abs(block.shape[0] - block.shape[1])), sigma]))


def dc_commutator_check(ops: BottOperators, n: int) -> dict:
    """Measure the graded anticommutator of D and C on the interior.

    Away from the truncation edge the anticommutator equals the
    Clifford-degree involution (2 deg - n per fiber); its distance to
    the identity is reported alongside because the involution has both
    eigenvalues, an identity defect of n + 1 in operator norm.

    All three norms are bounds from one coordinate, of size 2 n_basis - 1:
    {D, C} = sum_i lift_i({d, c}) plus the cross terms {d_i, c_j}, i != j,
    of norm ||{d, S}|| ||c|| or ||{c, S}|| ||d||, and the involution and the
    identity are the lifts' sums of 2 deg - 1 and 1/n.  So each norm is at
    most n times its one-coordinate norm (the interior mask is a tensor
    power of a 0/1 mask) plus C(n, 2) times the cross terms, which the
    Koszul sign S = gamma makes exactly 0; on this model the bound is the
    norm itself, for {d, c} is diagonal.  {d, c} is formed from the [e, o]
    blocks of d and c, and the three matrices are even, so everything runs
    on the half-size parity blocks (ParityBlocks.norms).
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    d, c, degree = ops.d_block, ops.c_block, np.array(ops.space.parity)
    sign, k = _koszul_sign(degree), d.shape[0]
    cross = math.comb(n, 2) * (_cross_norm(d, sign) * _frobenius(c) + _cross_norm(c, sign) * _frobenius(d))
    d, c = (ParityBlocks(1, m, m.T) for m in (d, c))
    anti = d @ c + c @ d
    # the targets 0, 2 deg - 1 and 1/n are diagonal; the masks act on columns
    targets = np.stack([np.zeros(degree.size), 2.0 * degree - 1.0, np.full(degree.size, 1.0 / n)])[..., None]
    masks = np.stack([np.ones(degree.size), ops.interior, ops.interior])[:, None]
    ee, oo = ((block - targets[:, side] * np.eye(block.shape[-1])) * masks[..., side]
              for block, side in ((anti.top, slice(None, k)), (anti.bottom, slice(k, None))))
    return {
        name: n * float(norm) + cross
        for name, norm in zip(("commutator_norm", "interior_defect_vs_involution", "interior_defect_vs_identity"),
                              ParityBlocks(0, ee, oo).norms())
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
    generators = {name: ParityBlocks.gather(pair.space, g.entries, g.parity) for name, g in pair.generators.items()}
    functions = (CAYLEY, MULTIPLIER_G)

    def norms(ts):
        moved = [spec_v.blocks(f, 1.0 / ts, increment=True) for f in functions]
        return np.stack([(m @ a).norms() for a in generators.values() for m in moved], -1)

    columns = iter(grid_profiles(grid, pair.space.dim, norms))
    profiles = {name: {f.name: next(columns) for f in functions} for name in generators}
    return (profiles, *factorization_defect_profiles(pair.d, potential, grid))
