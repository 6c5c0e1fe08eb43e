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
one-coordinate model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .funcalc import CAYLEY, MULTIPLIER_G, Spectrum
from .graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    gamma_matrix,
    graded_tensor,
    identity,
    operator_norm,
    operator_norms,
)
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
    "bott_dirac",
    "multiplication_generators",
    "spectrum_and_kernel",
    "ground_vector",
    "dc_commutator_check",
    "PerturbationReport",
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
    """Dirac D, Clifford multiplication C, and their sum B = D + C."""

    model: HermiteModel
    space: GradedSpace
    dirac: OddSelfAdjoint
    clifford_mult: OddSelfAdjoint
    bott: OddSelfAdjoint
    interior: np.ndarray
    degree_involution: GradedMatrix


def _paired_indices(n_basis: int) -> np.ndarray:
    even_sector = 2 * np.arange(n_basis)
    odd_sector = 2 * np.arange(n_basis - 1) + 1
    return np.concatenate([even_sector, odd_sector])


def _coordinate_pieces(model: HermiteModel):
    """One-coordinate D, C, interior and involution on the paired subspace."""
    k = model.n_basis
    keep = _paired_indices(k)
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
    involution = -gamma_matrix(parity)
    return parity, d, c, interior, involution


def _lift(factor_spaces: Sequence[GradedSpace], position: int, m: GradedMatrix) -> GradedMatrix:
    out = m if position == 0 else identity(factor_spaces[0])
    for j in range(1, len(factor_spaces)):
        nxt = m if j == position else identity(factor_spaces[j])
        out = graded_tensor(out, nxt)
    return out


def bott_dirac(model: HermiteModel) -> BottOperators:
    """Assemble D = sum_i d_i (x) e^_i, C = sum_i x_i (x) e_i and B = D + C."""
    parity, d1, c1, interior1, inv1 = _coordinate_pieces(model)
    n = model.n
    spaces = [parity] * n
    d_total = _lift(spaces, 0, d1.underlying)
    c_total = _lift(spaces, 0, c1.underlying)
    inv_total = _lift(spaces, 0, inv1)
    for i in range(1, n):
        d_total = d_total + _lift(spaces, i, d1.underlying)
        c_total = c_total + _lift(spaces, i, c1.underlying)
        inv_total = inv_total + _lift(spaces, i, inv1)
    interior = interior1.copy()
    for _ in range(1, n):
        interior = np.kron(interior, interior1)
    dirac = OddSelfAdjoint(d_total)
    cliff = OddSelfAdjoint(c_total)
    return BottOperators(
        model,
        d_total.space,
        dirac,
        cliff,
        dirac + cliff,
        interior,
        inv_total,
    )


def multiplication_generators(model: HermiteModel) -> dict[str, GradedMatrix]:
    """Pointwise-multiplication generators for the function algebra.

    Returns an even generator (1 + x^2)^{-1} (x) 1 and an odd one
    x (1 + x^2)^{-1} (x) e, realized through the compressed position
    operator on the paired one-coordinate space.
    """
    if model.n != 1:
        raise ValueError("multiplication generators are built for one coordinate")
    k = model.n_basis
    keep = _paired_indices(k)
    parity = GradedSpace(tuple([0] * k + [1] * (k - 1)))
    x_even = np.kron(model.x_mat, np.eye(2))[np.ix_(keep, keep)]
    spec = Spectrum.of(GradedMatrix(parity, x_even))
    even = GradedMatrix(parity, spec.apply(CAYLEY))
    x_odd = np.kron(model.x_mat, _LEFT_E)[np.ix_(keep, keep)]
    spec_odd = Spectrum.of(GradedMatrix(parity, x_odd))
    odd = GradedMatrix(parity, spec_odd.apply(MULTIPLIER_G))
    return {"mult_even": even, "mult_odd": odd}


def spectrum_and_kernel(b: OddSelfAdjoint, tol: float) -> tuple[np.ndarray, int]:
    """Sorted eigenvalues and the count of |lambda| < tol."""
    if tol <= 0:
        raise ValueError("kernel tolerance must be positive")
    eigenvalues = np.linalg.eigvalsh(b.mat)
    kernel_dim = int(np.count_nonzero(np.abs(eigenvalues) < tol))
    return eigenvalues, kernel_dim


def ground_vector(ops: BottOperators) -> np.ndarray:
    """Gaussian ground state h_0 (x) 1 (x) ... of the assembled model."""
    v = np.zeros(ops.space.dim)
    v[0] = 1.0
    return v


def dc_commutator_check(ops: BottOperators) -> dict:
    """Measure the graded anticommutator of D and C on the interior.

    Away from the truncation edge the anticommutator equals the
    Clifford-degree involution (2 deg - n per fiber); its distance to
    the identity is reported alongside because the involution has both
    eigenvalues, an identity defect of exactly 2 in operator norm.
    """
    anticomm = (
        ops.dirac.underlying @ ops.clifford_mult.underlying
        + ops.clifford_mult.underlying @ ops.dirac.underlying
    )
    p = ops.interior[None, :]
    vs_involution = operator_norm((anticomm.entries - ops.degree_involution.entries) * p)
    vs_identity = operator_norm((anticomm.entries - np.eye(ops.space.dim)) * p)
    return {
        "commutator_norm": operator_norm(anticomm),
        "interior_defect_vs_involution": float(vs_involution),
        "interior_defect_vs_identity": float(vs_identity),
    }


@dataclass(frozen=True)
class PerturbationReport:
    """Measurements that a bounded odd potential does not change the class.

    homom_profiles: t -> ||f(t^-1 V) b - f(0) b|| per generator and
    f in (cayley, g); the resolvent-type functions decay like t^-2 for
    even f and t^-1 for odd f.
    defect profiles: heat factorization defects of (D, V), whose t^-2
    decay certifies that composing with the potential pair lands on
    (phi, D + V).
    """

    homom_profiles: dict[str, dict[str, DecayProfile]]
    defect_even: DecayProfile
    defect_odd: DecayProfile


def perturbation_check(pair: AsymptoticPair, potential: OddSelfAdjoint, t_grid: np.ndarray) -> PerturbationReport:
    if pair.space != potential.space:
        raise ValueError("potential lives on the wrong space")
    grid = checked_t_grid(t_grid)
    spec_v = Spectrum.of(potential)

    def homom_defect(f, moved, a):
        at_zero = f(np.zeros(1))[0]
        return operator_norms(moved @ a - at_zero * a)

    generators = {name: gen.entries for name, gen in pair.rep.generators.items()}
    functions = (CAYLEY, MULTIPLIER_G)
    profiles = generator_profiles(
        functions, generators, grid, lambda scales: [spec_v.apply_grid(f, scales) for f in functions], homom_defect
    )
    defect_even, defect_odd = factorization_defect_profiles(pair.d, potential, grid)
    return PerturbationReport(profiles, defect_even, defect_odd)
