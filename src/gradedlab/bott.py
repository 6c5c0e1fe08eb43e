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
||{c, S}|| ||d|| (`dc_commutator_check`).  `bott_dirac` is the one
builder of those pieces, the dense one-coordinate d, c and interior, at
any n; the ladder, the dc check and the generators take its result, and
at one coordinate its d and c are the pairs' D and C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcalc import CAYLEY, MULTIPLIER_G, ChiralSpectrum, ParityBlocks, Spectrum
from .graded import GradedMatrix, GradedSpace, OddSelfAdjoint
from .pairs import (
    AsymptoticPair,
    DecayProfile,
    checked_t_grid,
    factorization_defect_profiles,
    grid_profiles,
)

__all__ = [
    "HermiteModel",
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
    """model's one-coordinate pieces on the paired subspace: the Dirac d,
    the Clifford multiplication c (D and C at n = 1, B = D + C) and the
    interior mask.  At any n every certificate comes from them."""

    model: HermiteModel
    space: GradedSpace
    dirac: OddSelfAdjoint
    clifford_mult: OddSelfAdjoint
    interior: np.ndarray


def bott_dirac(model: HermiteModel) -> BottOperators:
    """model's one-coordinate d = d/dx (x) e^, c = x (x) e and interior,
    dense, at any model.n.  The space is the even sector h_j (x) 1, j < n_basis,
    then the odd one h_j (x) e, j < n_basis - 1.  x (x) e and d (x) e^ join
    the two sectors, the latter with -d from odd to even (+0.0, not -0.0,
    where d is 0)."""
    k = model.n_basis
    space = GradedSpace(tuple([0] * k + [1] * (k - 1)))
    d, c = np.zeros((2, 2 * k - 1, 2 * k - 1))
    d[:k, k:], d[k:, :k] = 0.0 - model.d_mat[:, :-1], model.d_mat[:-1]
    c[:k, k:], c[k:, :k] = model.x_mat[:, :-1], model.x_mat[:-1]
    # interior: drop the top two Hermite levels in each fiber sector
    interior = np.r_[np.arange(k) < k - 2, np.arange(k - 1) < k - 3].astype(float)
    return BottOperators(model, space, OddSelfAdjoint(GradedMatrix(space, d)),
                         OddSelfAdjoint(GradedMatrix(space, c)), interior)


def _koszul_sign(parity: np.ndarray) -> np.ndarray:
    """Diagonal of the one-coordinate sign S that a lift to a later slot
    passes through: the grading gamma = 1 - 2 parity.  The lift of an odd m
    to slot i of n is S^(x)i (x) m (x) 1^(x)(n-i-1), the Koszul sign a
    Jordan-Wigner string."""
    return 1.0 - 2.0 * parity


def _frobenius(m: np.ndarray) -> float:
    """The Frobenius norm (a vector's 2-norm), a bound on the operator norm that costs d^2."""
    return math.sqrt(float(np.vdot(m, m).real))


def _cross_norm(m: np.ndarray, sign: np.ndarray) -> float:
    """A bound on ||{m, S}||: an anticommutator of the lifts of m and m' to
    two different slots is {m, S} (x) S..S (x) m', of norm ||{m, S}|| ||m'||.
    Exactly 0 for an odd m and S = gamma."""
    return _frobenius(m * sign + sign[:, None] * m)


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


def ladder_spectrum(ops: BottOperators) -> LadderSpectrum:
    """B's spectrum on ops.model.n coordinates from the one-coordinate
    b = d_1 + c_1: its eigenvalues from spectrum_and_kernel, their squares'
    n-fold sum set, the Weyl slack of the cross terms, and the ground
    residual ||B e_0|| = sqrt(n) ||b e_0|| (the n terms of B e_0 are
    orthogonal, for b e_0 is odd and e_0 even)."""
    n, b = ops.model.n, ops.dirac + ops.clifford_mult
    eigenvalues, _ = spectrum_and_kernel(b)
    one, count = _merged(eigenvalues**2, np.ones(eigenvalues.size, dtype=np.int64))
    squares, multiplicity = np.zeros(1), np.ones(1, dtype=np.int64)
    for _ in range(n):
        squares, multiplicity = _merged((squares[:, None] + one).ravel(), (multiplicity[:, None] * count).ravel())
    cross = _cross_norm(b.mat, _koszul_sign(np.array(ops.space.parity)))
    slack = math.comb(n, 2) * cross * float(np.abs(eigenvalues).max())
    return LadderSpectrum(squares, multiplicity, slack, math.sqrt(n) * _frobenius(b.mat[:, 0]))


def multiplication_generators(ops: BottOperators) -> dict[str, GradedMatrix]:
    """Pointwise-multiplication generators for the function algebra.

    Returns an even generator (1 + x^2)^{-1} (x) 1 and an odd one
    x (1 + x^2)^{-1} (x) e, realized through the compressed position
    operator on the paired one-coordinate space.  They belong to the
    one-coordinate pair, so a model of n != 1 coordinates is refused.
    """
    if ops.model.n != 1:
        raise ValueError("multiplication generators are built for one coordinate")
    space, x, k = ops.space, ops.model.x_mat, ops.model.n_basis
    x_even = np.zeros((2 * k - 1, 2 * k - 1))  # x (x) 1, sector by sector
    x_even[:k, :k], x_even[k:, k:] = x, x[:-1, :-1]
    even = GradedMatrix(space, Spectrum.of(GradedMatrix(space, x_even)).apply(CAYLEY))
    # through the chiral spectrum the odd g(C_1) = g(x (x) e) is exactly odd
    odd = GradedMatrix(space, ChiralSpectrum.of(ops.clifford_mult).apply(MULTIPLIER_G))
    return {"mult_even": even, "mult_odd": odd}


def spectrum_and_kernel(b: OddSelfAdjoint) -> tuple[np.ndarray, int]:
    """Sorted eigenvalues of b's odd part and the count of |lambda| < KERNEL_TOL.

    In parity order the odd part is [[0, A], [A*, 0]] with A = b[e, o], so
    its eigenvalues are +-sigma_i(A) and |#e - #o| exact zeros
    (Jordan-Wielandt), all from one values-only SVD of the #e x #o block.
    Weyl's inequality puts each eigenvalue of b within ||b_even|| of the
    one returned.  `lab bott` reads it for each rung's one-coordinate b
    (`ladder_spectrum`) and for the composed operator.
    """
    e, o = ChiralSpectrum.parity_order(b.space)
    sigma, gap = np.linalg.svd(b.mat[np.ix_(e, o)], compute_uv=False), np.zeros(abs(e.size - o.size))
    eigenvalues = np.sort(np.concatenate([-sigma, gap, sigma]))
    return eigenvalues, int(np.count_nonzero(np.abs(eigenvalues) < KERNEL_TOL))


def dc_commutator_check(ops: BottOperators) -> dict:
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
    norm itself, for {d, c} is diagonal.  {d, c} is formed from the odd
    blocks of d and c, and the three matrices are even, so everything runs
    on the half-size parity blocks (ParityBlocks.norms).
    """
    n, k, degree = ops.model.n, ops.model.n_basis, np.array(ops.space.parity)
    d, c = ops.dirac.mat, ops.clifford_mult.mat
    sign = _koszul_sign(degree)
    cross = math.comb(n, 2) * (_cross_norm(d, sign) * _frobenius(c) + _cross_norm(c, sign) * _frobenius(d))
    d, c = (ParityBlocks(None, m[:k, k:], m[k:, :k], None) for m in (d, c))
    anti = d @ c + c @ d
    # the targets 0, 2 deg - 1 and 1/n are diagonal; the masks act on columns
    targets = np.stack([np.zeros(degree.size), 2.0 * degree - 1.0, np.full(degree.size, 1.0 / n)])[..., None]
    masks = np.stack([np.ones(degree.size), ops.interior, ops.interior])[:, None]
    ee, oo = ((block - targets[:, side] * np.eye(block.shape[-1])) * masks[..., side]
              for block, side in ((anti.ee, slice(None, k)), (anti.oo, slice(k, None))))
    return {
        name: n * float(norm) + cross
        for name, norm in zip(("commutator_norm", "interior_defect_vs_involution", "interior_defect_vs_identity"),
                              ParityBlocks(ee, None, None, oo).norms())
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

    def norms(ts):
        moved = [spec_v.blocks(f, 1.0 / ts, increment=True) for f in functions]
        return np.stack([(m @ a).norms() for a in generators.values() for m in moved], -1)

    columns = iter(grid_profiles(grid, pair.space.dim, norms))
    profiles = {name: {f.name: next(columns) for f in functions} for name in generators}
    return (profiles, *factorization_defect_profiles(pair.d, potential, grid))
