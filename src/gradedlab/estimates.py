"""Operator-norm certificates for the exponential and transform estimates.

Each check measures a left-hand norm and an analytic right-hand bound
and wraps them in a BoundCertificate; pass means the margin rhs - lhs
is no worse than -1e-10.  Randomized suites derive one certificate per
trial with a recorded seed so failures are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .funcalc import RESOLVENT_PLUS, Spectrum, bounded_transform_function, map_grid
from .graded import (
    GradedMatrix,
    OddSelfAdjoint,
    VALIDATION_TOL,
    graded_commutator,
    operator_norm,
    operator_norms,
)
from .pairs import DecayProfile, checked_t_grid

__all__ = [
    "CERTIFICATE_TOL",
    "MONOTONE_SLACK",
    "BoundCertificate",
    "matrix_exp",
    "exp_shift_bound_check",
    "exp_product_series_terms",
    "exp_product_series_bound",
    "exp_product_bound_check",
    "exp_product_path_profiles",
    "transform_commutator_check",
    "SweepReport",
    "transform_sum_sweep",
]

# A certificate passes when margin = rhs - lhs >= -CERTIFICATE_TOL.
CERTIFICATE_TOL = 1e-10
# Largest rise between consecutive sweep suprema still counted as nonincreasing.
MONOTONE_SLACK = 1e-12

SERIES_RELATIVE_CUTOFF = 1e-16
SERIES_MAX_TERMS = 400


@dataclass(frozen=True)
class BoundCertificate:
    check: str
    lhs: float
    rhs: float
    seed: object = None

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -CERTIFICATE_TOL

    def to_record(self) -> dict:
        return {
            "check": self.check,
            "seed": self.seed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
        }


def matrix_exp(m: GradedMatrix) -> GradedMatrix:
    """e^m; eigendecomposition for Hermitian input, scaling-and-squaring
    (Pade order 13) otherwise.  The estimates quantify non-normal
    products e^x e^y, so the general path is required."""
    entries = m.entries
    scale = max(1.0, float(np.abs(entries).max(initial=0.0)))
    if np.abs(entries - entries.conj().T).max(initial=0.0) <= VALIDATION_TOL * scale:
        values, vectors = np.linalg.eigh(entries)
        out = (vectors * np.exp(values)[None, :]) @ vectors.conj().T
    else:
        out = scipy.linalg.expm(entries)
    return GradedMatrix(m.space, out)


def _require_even(m: GradedMatrix, label: str) -> None:
    if m.parity() != 0:
        raise ValueError(f"{label} must be an even matrix")


def exp_shift_bound_check(x: GradedMatrix, y: GradedMatrix, seed=None) -> BoundCertificate:
    """||e^{x+y} - e^x|| <= ||y|| e^{2||x||} for even x, y with ||y|| <= ||x||."""
    _require_even(x, "x")
    _require_even(y, "y")
    nx, ny = operator_norm(x), operator_norm(y)
    if ny > nx + VALIDATION_TOL:
        raise ValueError("shift bound requires ||y|| <= ||x||")
    lhs = operator_norm(matrix_exp(x + y) - matrix_exp(x))
    rhs = ny * math.exp(2.0 * nx)
    return BoundCertificate("exp_shift", lhs, rhs, seed)


def _series_term(n: int, commutator_norm: float, m_bound: float) -> float:
    """Degree-n term (n+1) (floor(n/2)!)^-2 (n^2/4) ||[x,y]|| M^(n-2)."""
    return (n + 1) * math.factorial(n // 2) ** -2 * (n * n / 4.0) * commutator_norm * m_bound ** (n - 2)


def exp_product_series_terms(commutator_norm: float, m_bound: float, count: int) -> np.ndarray:
    """Terms of the swap-counting series for degrees n = 2 .. count+1."""
    return np.array([_series_term(n, commutator_norm, m_bound) for n in range(2, count + 2)])


def exp_product_series_bound(commutator_norm: float, m_bound: float) -> float:
    """Swap-counting series bound on ||e^{x+y} - e^x e^y||.

    Rearranging each degree-n word of (x+y)^n into x^j y^(n-j) costs at
    most n^2/4 swaps, each contributing one commutator and n-2 letter
    factors, giving the bound

        sum_{n>=2} (n+1) (floor(n/2)!)^-2 (n^2/4) ||[x,y]|| M^(n-2)

    with M at least max(||x||, ||y||).  Degrees 0 and 1 need no swaps
    and contribute nothing.  The series is truncated once a term drops
    below 1e-16 of the partial sum; factorial decay guarantees rapid
    convergence at moderate M.
    """
    if commutator_norm == 0.0:
        return 0.0
    total = 0.0
    for n in range(2, SERIES_MAX_TERMS):
        term = _series_term(n, commutator_norm, m_bound)
        total += term
        if term < SERIES_RELATIVE_CUTOFF * total:
            break
    return total


def exp_product_bound_check(x: GradedMatrix, y: GradedMatrix, seed=None) -> BoundCertificate:
    """||e^{x+y} - e^x e^y|| against the swap-counting series bound."""
    _require_even(x, "x")
    _require_even(y, "y")
    lhs = operator_norm(matrix_exp(x + y) - matrix_exp(x) @ matrix_exp(y))
    comm = operator_norm(graded_commutator(x, y))
    rhs = exp_product_series_bound(comm, max(operator_norm(x), operator_norm(y)))
    return BoundCertificate("exp_product", lhs, rhs, seed)


def exp_product_path_profiles(
    d: OddSelfAdjoint, d_prime: OddSelfAdjoint, t_grid: np.ndarray
) -> tuple[DecayProfile, DecayProfile]:
    """Defect and bound along the path x_t = -t^-2 D^2, y_t = -t^-2 D'^2.

    The commutator [x_t, y_t] decays like t^-4, so the product defect
    vanishes along the path; the second profile tracks the series bound,
    which dominates the first at every t.
    """
    grid = checked_t_grid(t_grid)
    lhs_values, rhs_values = [], []
    for t in grid:
        s = 1.0 / float(t) ** 2
        x = GradedMatrix(d.space, -s * (d.mat @ d.mat))
        y = GradedMatrix(d.space, -s * (d_prime.mat @ d_prime.mat))
        cert = exp_product_bound_check(x, y)
        lhs_values.append(cert.lhs)
        rhs_values.append(cert.rhs)
    return DecayProfile.from_values(grid, lhs_values), DecayProfile.from_values(grid, rhs_values)


def transform_commutator_check(
    d: OddSelfAdjoint,
    d_prime: OddSelfAdjoint,
    n_grid: Sequence[float],
    t_grid: np.ndarray,
    seed=None,
) -> list[BoundCertificate]:
    """||[D_N, D'_N]|| <= ||[D, D']|| for every N, plus the t-scaled form.

    The scaled certificates check ||[(t^-1 D)_N, (t^-1 D')_N]|| against
    t^-2 ||[D, D']||, which forces uniform-in-N vanishing as t grows;
    only the worst grid point per N is recorded.  Both operators are
    eigendecomposed once and every transform is evaluated spectrally.
    """
    if d.space != d_prime.space:
        raise ValueError("operators live on different spaces")
    if len(n_grid) == 0 or any(n <= 0 for n in n_grid):
        raise ValueError("transform scales must be non-empty and positive")
    grid = checked_t_grid(t_grid)
    spec_d, spec_dp = Spectrum.of(d), Spectrum.of(d_prime)
    rhs = operator_norm(graded_commutator(d.underlying, d_prime.underlying))
    # one row per (N, s) pair, N-major, with s = 1 first and then 1/t
    scales = np.concatenate([[1.0], 1.0 / grid])
    transforms = [bounded_transform_function(n) for n in n_grid]
    w_d = np.concatenate([spec_d.weights(f, scales) for f in transforms])
    w_dp = np.concatenate([spec_dp.weights(f, scales) for f in transforms])

    def odd_commutator_norms(rows):
        # both transforms are odd Hermitian, so the graded commutator is
        # the anticommutator, itself Hermitian
        a, b = spec_d.synthesize(w_d[rows]), spec_dp.synthesize(w_dp[rows])
        return np.abs(np.linalg.eigvalsh(a @ b + b @ a)).max(axis=-1)

    lhs = map_grid(odd_commutator_norms, np.arange(len(w_d)), d.space.dim).reshape(len(transforms), -1)
    certificates = [
        BoundCertificate(f"transform_commutator[N={n:g}]", float(lhs[i, 0]), rhs, seed)
        for i, n in enumerate(n_grid)
    ]
    bounds = rhs * scales[1:] * scales[1:]
    for i, n in enumerate(n_grid):
        # argmin takes the first of equal margins, as a strict-less scan would
        k = int(np.argmin(bounds - lhs[i, 1:]))
        certificates.append(
            BoundCertificate(
                f"transform_commutator_scaled[N={n:g},t={grid[k]:.6g}]", float(lhs[i, 1 + k]), float(bounds[k]), seed
            )
        )
    return certificates


@dataclass(frozen=True)
class SweepReport:
    """Double-limit sweep of the transform against the plain calculus.

    defects[i, j] = ||f(D_{t,N_i} + D'_{t,N_i}) - f(D_t + D'_t)|| at
    t = t_j, for the resolvent f(x) = (x + i)^-1.  suprema[i] is the
    supremum over the top decade of t; the double limit holds when the
    suprema are nonincreasing in N (monotone, up to MONOTONE_SLACK) and
    small at the largest N (final_supremum).  The sweep also measures the
    relative boundedness ||D (D + D' + i)^{-1}||^2 <= 1 + ||[D, D']|| used
    to control the factorization.
    """

    n_grid: np.ndarray
    t_grid: np.ndarray
    defects: np.ndarray
    suprema: np.ndarray
    monotone: bool
    final_supremum: float
    relative_bound_certificates: tuple[BoundCertificate, BoundCertificate]


def transform_sum_sweep(
    d: OddSelfAdjoint,
    d_prime: OddSelfAdjoint,
    t_grid: np.ndarray,
    n_grid: Sequence[float] | None = None,
) -> SweepReport:
    """Sweep the smoothed-sum calculus defect over transform scales N and t.

    n_grid defaults to 2^k max(||D||, ||D'||) for k = 0 .. 6.
    """
    grid = checked_t_grid(t_grid)
    if d.space != d_prime.space:
        raise ValueError("operators live on different spaces")
    norms = max(operator_norm(d), operator_norm(d_prime), 1e-12)
    n_values = np.asarray(
        [2.0**k * norms for k in range(7)] if n_grid is None else list(n_grid), dtype=float
    )
    if n_values.size == 0 or np.any(n_values <= 0):
        raise ValueError("invalid transform-scale grid")
    spec_d, spec_dp = Spectrum.of(d), Spectrum.of(d_prime)
    spec_sum = Spectrum.of(d.mat + d_prime.mat)
    # one row per (N, t) pair, N-major; every smoothed sum is
    # eigendecomposed (and validated) on its own, batched over the stack
    scales = 1.0 / grid
    transforms = [bounded_transform_function(n) for n in n_values]
    w_d = np.concatenate([spec_d.weights(g, scales) for g in transforms])
    w_dp = np.concatenate([spec_dp.weights(g, scales) for g in transforms])
    w_sum = spec_sum.weights(RESOLVENT_PLUS, scales)

    def defects_of(rows):
        smoothed = spec_d.synthesize(w_d[rows]) + spec_dp.synthesize(w_dp[rows])
        plain = spec_sum.synthesize(w_sum[rows % grid.size])
        return operator_norms(Spectrum.of(smoothed).apply(RESOLVENT_PLUS) - plain)

    defects = map_grid(defects_of, np.arange(len(w_d)), d.space.dim).reshape(n_values.size, grid.size)
    top_decade = grid >= grid[-1] / 10.0
    suprema = defects[:, top_decade].max(axis=1)
    monotone = bool(np.all(np.diff(suprema) <= MONOTONE_SLACK))
    # relative bound from the resolvent factorization of the difference
    comm = operator_norm(graded_commutator(d.underlying, d_prime.underlying))
    resolvent = np.linalg.inv(d.mat + d_prime.mat + 1j * np.eye(d.space.dim))
    certs = (
        BoundCertificate("relative_bound[D]", operator_norm(d.mat @ resolvent) ** 2, 1.0 + comm),
        BoundCertificate("relative_bound[D']", operator_norm(d_prime.mat @ resolvent) ** 2, 1.0 + comm),
    )
    return SweepReport(n_values, grid, defects, suprema, monotone, float(suprema[-1]), certs)
