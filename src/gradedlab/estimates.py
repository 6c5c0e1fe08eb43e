"""Operator-norm measurements for the exponential and transform estimates.

Each function measures left-hand norms and their analytic right-hand
bounds and returns the numbers; experiments.py names each (lhs, rhs) as a
BoundCertificate and applies the pass rule.

The exponential checks take (k, d, d) stacks, and a one-pair check is a
one-matrix stack; each stacked result equals its one-matrix evaluation
bit for bit.  The matrix exponential needs numpy alone: one kernel,
degree-13 Pade scaling and squaring (Higham 2005), for every matrix,
Hermitian or not.  The transform checks work on the parity blocks of the odd
transforms, from the chiral spectra of D and D' (funcalc.ChiralSpectrum);
the sweep's plain resolvent (x + i)^-1 = g(x) - i cayley(x) comes from the
odd g and the even cayley of D + D'.  They equal the full-matrix
evaluation up to roundoff, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .funcalc import CAYLEY, MULTIPLIER_G, ChiralSpectrum, ParityBlocks, bounded_transform_function, map_grid
from .graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    VALIDATION_TOL,
    adjoint,
    graded_commutator,
    graded_commutators,
    negligible,
    operator_norm,
    operator_norms,
)
from .pairs import DecayProfile, checked_t_grid, grid_profiles

__all__ = [
    "matrix_exp",
    "exp_shift_bounds",
    "exp_shift_bound_check",
    "exp_product_series_terms",
    "exp_product_series_bound",
    "exp_product_bounds",
    "exp_product_bound_check",
    "exp_product_path_profiles",
    "transform_commutator_check",
    "SweepReport",
    "transform_sum_sweep",
]

SERIES_RELATIVE_CUTOFF = 1e-16
SERIES_MAX_TERMS = 400
# the smallest normal float; below it _series_term multiplies its factors out
_TINY = float(np.finfo(float).tiny)


# Numerator coefficients b_0 .. b_13 of the degree-13 Pade approximant to e^x, divided by
# b_0 so that V = 1 + O(x^2) and e^0 = 1 exactly, and the 1-norm theta_13 up to which it
# meets double precision unscaled (Higham, "The scaling and squaring method for the matrix
# exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005).
PADE_13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))
THETA_13 = 5.371920351148152


def pade_exps(stack: np.ndarray) -> np.ndarray:
    """e^m for each matrix m of a (k, d, d) stack by scaling and squaring:
    r = (V - U)^-1 (V + U), the degree-13 Pade approximant at m / 2^s with
    s = max(0, ceil(log2(||m||_1 / theta_13))), squared s times.  U and V
    come from the powers 2, 4 and 6; every step is a stacked kernel that
    runs each matrix on its own, so each matrix equals its one-matrix stack
    bit for bit.  ValueError on non-finite entries."""
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix exponential of a non-finite matrix")
    norms = np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0)
    squarings = np.ceil(np.log2(np.maximum(norms / THETA_13, 1.0))).astype(int)
    a = stack * np.ldexp(1.0, -squarings)[:, None, None]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b, eye = PADE_13, np.eye(stack.shape[-1])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(squarings.max(initial=0)):
        again = np.flatnonzero(squarings > k)
        r[again] = r[again] @ r[again]
    return r


def matrix_exp(m: GradedMatrix) -> GradedMatrix:
    """e^m, the one-matrix stack of pade_exps."""
    return GradedMatrix(m.space, pade_exps(m.entries[None])[0])


def _require_even(space: GradedSpace, stack: np.ndarray, label: str) -> None:
    """ValueError unless every matrix of the stack is even: its odd part, the
    [e, o] and [o, e] blocks, is negligible."""
    k = space.even
    if not np.all(negligible(stack[..., :k, k:], stack) & negligible(stack[..., k:, :k], stack)):
        raise ValueError(f"{label} must be an even matrix")


def _pair_stacks(x: GradedMatrix, y: GradedMatrix) -> tuple[GradedSpace, np.ndarray, np.ndarray]:
    """The space of x and y, and their entries as one-matrix stacks."""
    if x.space != y.space:
        raise ValueError("graded matrices live on different spaces")
    return x.space, x.entries[None], y.entries[None]


def exp_shift_bounds(space: GradedSpace, x: np.ndarray, y: np.ndarray) -> tuple[list[float], list[float]]:
    """Left sides ||e^{x+y} - e^x|| and right sides ||y|| e^{2||x||} for each
    pair of two (k, d, d) stacks of even matrices on space with ||y|| <= ||x||."""
    _require_even(space, x, "x")
    _require_even(space, y, "y")
    nx, ny = operator_norms(x).tolist(), operator_norms(y).tolist()
    if any(b > a + VALIDATION_TOL for a, b in zip(nx, ny)):
        raise ValueError("shift bound requires ||y|| <= ||x||")
    lhs = operator_norms(pade_exps(x + y) - pade_exps(x)).tolist()
    return lhs, [b * math.exp(2.0 * a) for a, b in zip(nx, ny)]


def exp_shift_bound_check(x: GradedMatrix, y: GradedMatrix) -> tuple[float, float]:
    """(lhs, rhs) of ||e^{x+y} - e^x|| <= ||y|| e^{2||x||} for even x, y with ||y|| <= ||x||."""
    (lhs,), (rhs,) = exp_shift_bounds(*_pair_stacks(x, y))
    return lhs, rhs


def _series_term(n: int, commutator_norm: float, m_bound: float) -> float:
    """Degree-n term (n+1) (floor(n/2)!)^-2 (n^2/4) ||[x,y]|| M^(n-2); where that form
    over- or underflows, (n+1) (n^2/4) ||[x,y]|| M^(n mod 2) q^2 with q = M^(h-1)/h!,
    h = floor(n/2), multiplied out factor by factor: in range wherever the term is."""
    try:
        term = (n + 1) * math.factorial(n // 2) ** -2 * (n * n / 4.0) * commutator_norm * m_bound ** (n - 2)
    except OverflowError:
        term = 0.0
    if term >= _TINY or commutator_norm == 0.0:
        return term
    q = math.prod(m_bound / k for k in range(1, n // 2)) / (n // 2)
    return (n + 1) * (n * n / 4.0) * commutator_norm * m_bound ** (n % 2) * q * q


def exp_product_series_terms(commutator_norm: float, m_bound: float, count: int) -> np.ndarray:
    """Terms of the swap-counting series for degrees n = 2 .. count+1."""
    return np.array([_series_term(n, commutator_norm, m_bound) for n in range(2, count + 2)])


def _chain_tail(first: float, third: float) -> float:
    """Bound on t_m + t_(m+2) + t_(m+4) + ... from t_m and t_(m+2).  Within a parity
    chain the two-step ratio t_(n+2)/t_n falls as n grows (each of its factors
    does), so once it is below 1 the chain is at most the geometric series
    t_m / (1 - t_(m+2)/t_m); inf while it is not below 1."""
    if first == 0.0:
        return 0.0
    ratio = third / first
    return first / (1.0 - ratio) if ratio < 1.0 else math.inf


def exp_product_series_bound(commutator_norm: float, m_bound: float) -> float:
    """Swap-counting series bound on ||e^{x+y} - e^x e^y||.

    Rearranging each degree-n word of (x+y)^n into x^j y^(n-j) costs at
    most n^2/4 swaps, each contributing one commutator and n-2 letter
    factors, giving the bound

        sum_{n>=2} (n+1) (floor(n/2)!)^-2 (n^2/4) ||[x,y]|| M^(n-2)

    with M at least max(||x||, ||y||).  Degrees 0 and 1 need no swaps
    and contribute nothing.  The partial sum stops once a term is at
    most 1e-16 of it and the two-step term ratios of both parity chains
    past it are below 1; the rest of the series is then bounded by one
    geometric series per chain (_chain_tail) and added.  Past
    SERIES_MAX_TERMS terms the bound is inf, as a partial sum is no
    upper bound.
    """
    total = 0.0
    for n in range(2, SERIES_MAX_TERMS):
        term = _series_term(n, commutator_norm, m_bound)
        total += term
        if term <= SERIES_RELATIVE_CUTOFF * total:
            t1, t2, t3, t4 = (_series_term(k, commutator_norm, m_bound) for k in range(n + 1, n + 5))
            tail = _chain_tail(t1, t3) + _chain_tail(t2, t4)
            if tail < math.inf:
                return total + tail
    return math.inf


def exp_product_bounds(space: GradedSpace, x: np.ndarray, y: np.ndarray) -> tuple[list[float], list[float]]:
    """Left sides ||e^{x+y} - e^x e^y|| and their swap-counting series bounds
    for each pair of two (k, d, d) stacks of even matrices on space."""
    _require_even(space, x, "x")
    _require_even(space, y, "y")
    lhs = operator_norms(pade_exps(x + y) - pade_exps(x) @ pade_exps(y)).tolist()
    comm = operator_norms(graded_commutators(space, x, y)).tolist()
    nx, ny = operator_norms(x).tolist(), operator_norms(y).tolist()
    return lhs, [exp_product_series_bound(c, max(a, b)) for c, a, b in zip(comm, nx, ny)]


def exp_product_bound_check(x: GradedMatrix, y: GradedMatrix) -> tuple[float, float]:
    """(lhs, rhs) of ||e^{x+y} - e^x e^y|| against the swap-counting series bound."""
    (lhs,), (rhs,) = exp_product_bounds(*_pair_stacks(x, y))
    return lhs, rhs


def exp_product_path_profiles(
    d: OddSelfAdjoint, d_prime: OddSelfAdjoint, t_grid: np.ndarray
) -> tuple[DecayProfile, DecayProfile]:
    """Defect and bound along the path x_t = -t^-2 D^2, y_t = -t^-2 D'^2.

    The commutator [x_t, y_t] decays like t^-4, so the product defect
    vanishes along the path; the second profile tracks the series bound,
    which dominates the first at every t.
    """
    squares = d.entries @ d.entries, d_prime.entries @ d_prime.entries

    def bounds(ts):
        s = (-1.0 / ts**2)[:, None, None]
        return np.transpose(exp_product_bounds(d.space, s * squares[0], s * squares[1]))

    return tuple(grid_profiles(t_grid, d.space.dim, bounds))


def _transform_weights(d: OddSelfAdjoint, d_prime: OddSelfAdjoint, n_values, scales: np.ndarray) -> tuple:
    """((ChiralSpectrum of D, of D'), (weights of D, of D')): the odd chiral
    weights of (s D)_N and (s D')_N, one row per (N, s) pair, N-major."""
    if d.space != d_prime.space:
        raise ValueError("operators live on different spaces")
    n_values = np.asarray(n_values, dtype=float)
    if n_values.size == 0 or np.any(n_values <= 0):
        raise ValueError("transform scales must be non-empty and positive")
    spectra = ChiralSpectrum.of(d), ChiralSpectrum.of(d_prime)
    transforms = [bounded_transform_function(n) for n in n_values]
    return spectra, tuple(np.concatenate([spec.weights(f, scales) for f in transforms]) for spec in spectra)


def transform_commutator_check(
    d: OddSelfAdjoint,
    d_prime: OddSelfAdjoint,
    n_grid: Sequence[float],
    t_grid: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Left sides of ||[D_N, D'_N]|| <= ||[D, D']|| for every N, plus the t-scaled form.

    Returns the (len(n_grid), 1 + len(t_grid)) table of
    ||[(s D)_N, (s D')_N]||, with s = 1 in column 0 and s = 1/t_k in
    column 1 + k, and the right side ||[D, D']||; the scaled form bounds
    column 1 + k by t_k^-2 ||[D, D']||, which forces uniform-in-N
    vanishing as t grows.  Both operators are decomposed once
    (ChiralSpectrum), and only the off-diagonal parity blocks of each
    transform are synthesized.
    """
    grid = checked_t_grid(t_grid)
    # s = 1 first and then 1/t
    (spec_d, spec_dp), (w_d, w_dp) = _transform_weights(d, d_prime, n_grid, np.concatenate([[1.0], 1.0 / grid]))
    rhs = operator_norm(graded_commutator(d, d_prime))

    def odd_commutator_norms(rows):
        # both transforms are odd Hermitian, so the graded commutator is the
        # anticommutator, which is even and Hermitian: with A = a[e, o] and
        # B = b[e, o] it is diag(A B* + B A*, A* B + B* A)
        a, b = spec_d.odd_block(w_d[rows]), spec_dp.odd_block(w_dp[rows])
        upper, lower = a @ adjoint(b), adjoint(a) @ b
        return ParityBlocks(0, upper + adjoint(upper), lower + adjoint(lower)).norms(hermitian=True)

    lhs = map_grid(odd_commutator_norms, np.arange(len(w_d)), d.space.dim).reshape(len(n_grid), -1)
    return lhs, rhs


@dataclass(frozen=True)
class SweepReport:
    """Double-limit sweep of the transform against the plain calculus.

    defects[i, j] = ||f(D_{t,N_i} + D'_{t,N_i}) - f(D_t + D'_t)|| at
    t = t_j, for the resolvent f(x) = (x + i)^-1.  suprema[i] is the
    supremum over the top decade of t; the double limit holds when the
    suprema are nonincreasing in N and small at the largest N.
    relative_bounds holds (lhs, rhs) of the relative boundedness
    ||X (D + D' + i)^{-1}||^2 <= 1 + ||[D, D']|| for X = D and X = D',
    used to control the factorization.
    """

    n_grid: np.ndarray
    t_grid: np.ndarray
    defects: np.ndarray
    suprema: np.ndarray
    relative_bounds: tuple[tuple[float, float], tuple[float, float]]


def transform_sum_sweep(
    d: OddSelfAdjoint,
    d_prime: OddSelfAdjoint,
    t_grid: np.ndarray,
    n_grid: Sequence[float] | None = None,
) -> SweepReport:
    """Sweep the smoothed-sum calculus defect over transform scales N and t.

    n_grid defaults to 2^k max(||D||, ||D'||) for k = 0 .. 6.  The odd
    transforms of s D and s D' come from their chiral spectra, the plain
    resolvent from that of D + D' as g - i cayley, all in parity order.
    """
    grid = checked_t_grid(t_grid)
    scales = 1.0 / grid
    if n_grid is None:
        norms = max(operator_norm(d), operator_norm(d_prime), 1e-12)
        n_grid = [2.0**k * norms for k in range(7)]
    n_values = np.asarray(n_grid, dtype=float)
    (spec_d, spec_dp), (w_d, w_dp) = _transform_weights(d, d_prime, n_values, scales)
    spec_sum = ChiralSpectrum.of(d + d_prime)
    shift = 1j * np.eye(d.space.dim)

    def defects_of(columns):
        # the plain resolvent of a chunk of t values, built once for every N
        # from its odd and even parts, (x + i)^-1 = g(x) - i cayley(x).  The
        # smoothed sum S is odd with off-diagonal block A_N + A'_N; S is
        # Hermitian, so ||(S + i)^-1|| <= 1 and the inverse is well conditioned
        s = scales[columns]
        plain = spec_sum.blocks(MULTIPLIER_G, s).dense() - 1j * spec_sum.blocks(CAYLEY, s).dense()
        by_n = []
        for rows in columns + grid.size * np.arange(n_values.size)[:, None]:
            upper = spec_d.odd_block(w_d[rows]) + spec_dp.odd_block(w_dp[rows])
            smoothed = np.linalg.inv(ParityBlocks(1, upper, adjoint(upper)).dense() + shift)
            by_n.append(operator_norms(smoothed - plain))
        return np.stack(by_n, -1)

    defects = map_grid(defects_of, np.arange(grid.size), d.space.dim).T
    top_decade = grid >= grid[-1] / 10.0
    suprema = defects[:, top_decade].max(axis=1)
    # relative bound from the resolvent factorization of the difference
    comm = operator_norm(graded_commutator(d, d_prime))
    resolvent = np.linalg.inv(d.entries + d_prime.entries + 1j * np.eye(d.space.dim))
    bounds = tuple((operator_norm(x.entries @ resolvent) ** 2, 1.0 + comm) for x in (d, d_prime))
    return SweepReport(n_values, grid, defects, suprema, bounds)
