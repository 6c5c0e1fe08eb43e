"""Finite-scale asymptotic pairs and their composition calculus.

An asymptotic pair is a represented algebra (a named family of generator
matrices) together with an odd self-adjoint operator D on the same graded
space, optionally with a designated corner projection P marking the target
subalgebra P M P.  The two defining conditions are measured, not assumed:

* containment: f(D) phi(a) has negligible mass outside the corner;
* asymptotic commutation: t -> ||[f(t^-1 D), phi(a)]|| decays, certified
  by fitting a log-log slope over a geometric t-grid.

The composition of two pairs is (psi o phi, psi(D) + D'), certified by
measuring the defect between the functional calculus of the summed
operator and the naive two-step image e^{-t^-2 D'^2} e^{-t^-2 D^2} a,
which decays like t^-2 when [psi(D), D'] is bounded.

Everything is pure and deterministic; profiles are evaluated on whole
t-grid stacks by the grid engine of funcalc.  The commutation profiles
are measured in D's eigenbasis (Spectrum.commutators), so they match a
point-by-point evaluation to roundoff rather than bit for bit; every
other profile is bit-identical to one (Spectrum.apply_grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .funcalc import GAUSS0, GAUSS1, PAIR_FUNCTIONS, RESOLVENT_MINUS, RESOLVENT_PLUS, ScalarFunction, Spectrum, map_grid
from .graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    VALIDATION_TOL,
    identity,
    operator_norm,
    operator_norms,
    parity_decompose,
)

__all__ = [
    "DEFAULT_GRID_POINTS",
    "FIT_FLOOR",
    "COMMUTATION_EXPONENT_THRESHOLD",
    "COMPOSE_EXPONENT_THRESHOLD",
    "default_t_grid",
    "checked_t_grid",
    "DecayProfile",
    "generator_profiles",
    "RepresentedAlgebra",
    "AsymptoticPair",
    "PairReport",
    "validate_pair",
    "factorization_defect_profiles",
    "Composition",
    "identity_pushforward",
    "compose_pairs",
]

DEFAULT_GRID_POINTS = 60
# Norm values below this are treated as exact zeros and excluded from fits.
FIT_FLOOR = 1e-14
# Slope thresholds: t^-1 decay for pair commutators, t^-2 for composition
# defects, each with 0.25 slack absorbing fit noise (a policy, not a theorem).
COMMUTATION_EXPONENT_THRESHOLD = -1.0 + 0.25
COMPOSE_EXPONENT_THRESHOLD = -2.0 + 0.25


def default_t_grid(start: float = 1.0, stop: float = 1e3, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Geometric scale grid; three decades above unit scale by default."""
    if points < 2 or not 0 < start < stop < math.inf:
        raise ValueError("grid needs points >= 2 and 0 < start < stop < inf")
    return checked_t_grid(np.geomspace(start, stop, points))


def checked_t_grid(t_grid) -> np.ndarray:
    """t_grid as a float array, or ValueError unless it has at least 2
    points, all finite, positive and strictly increasing."""
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("t grid needs at least 2 points")
    if not np.all(np.isfinite(grid)) or grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("t grid must be finite, positive and strictly increasing")
    return grid


@dataclass(frozen=True)
class DecayProfile:
    """Sampled norms over a t-grid with a fitted log-log decay exponent.

    The fit is ordinary least squares of log(value) against log(t) over
    the upper half of the grid; early-t transients would otherwise
    pollute the asymptotic slope.  Sub-floor values are excluded, and a
    profile that is zero on the whole fit window reports exponent -inf.
    A non-finite value in the fit window makes the fit fail: exponent,
    constant and residual are NaN, so no threshold comparison passes.
    """

    t_grid: np.ndarray
    values: np.ndarray
    fitted_exponent: float
    fitted_constant: float
    fit_residual: float

    @classmethod
    def from_values(cls, t_grid: np.ndarray, values: Sequence[float]) -> "DecayProfile":
        t_grid = checked_t_grid(t_grid)
        values = np.asarray(values, dtype=float)
        if t_grid.size != values.size:
            raise ValueError("grid and value lengths differ")
        upper = slice(t_grid.size // 2, None)
        ts, vs = t_grid[upper], values[upper]
        if not np.all(np.isfinite(vs)):
            return cls(t_grid, values, np.nan, np.nan, np.nan)
        usable = vs >= FIT_FLOOR
        if usable.sum() < 2:
            return cls(t_grid, values, float("-inf"), 0.0, 0.0)
        slope, intercept = np.polyfit(np.log(ts[usable]), np.log(vs[usable]), 1)
        residual = np.log(vs[usable]) - (slope * np.log(ts[usable]) + intercept)
        rms = float(np.sqrt(np.mean(residual**2)))
        return cls(t_grid, values, float(slope), float(np.exp(intercept)), rms)

    def csv_text(self) -> str:
        lines = ["t,value"]
        for t, v in zip(self.t_grid, self.values):
            lines.append(f"{t:.12e},{v:.12e}")
        return "\n".join(lines) + "\n"


def generator_profiles(
    functions: Sequence[ScalarFunction],
    generators: Mapping[str, np.ndarray],
    t_grid: np.ndarray,
    stacks: Spectrum | Callable[[np.ndarray], Sequence[object]],
    measure: Callable[[ScalarFunction, object, np.ndarray], np.ndarray],
) -> dict[str, dict[str, DecayProfile]]:
    """Profiles of t -> measure(f, F, a) per generator a and function f.

    Each generator is an array whose last two axes are d x d.  stacks(scales)
    returns one F per function, each evaluated on a whole chunk of grid
    scales 1/t at once; a Spectrum of D stands for the stacks f(t^-1 D).
    measure maps F and a generator to one norm per scale.
    """
    dim = next(iter(generators.values())).shape[-1]
    if isinstance(stacks, Spectrum):
        spec = stacks
        stacks = lambda scales: [spec.apply_grid(f, scales) for f in functions]

    def norms(scales):
        per_function = zip(functions, stacks(scales))
        columns = [[measure(f, stacked, a) for a in generators.values()] for f, stacked in per_function]
        return np.moveaxis(np.asarray(columns), -1, 0)

    values = map_grid(norms, 1.0 / t_grid, dim)
    return {
        name: {f.name: DecayProfile.from_values(t_grid, values[:, i, j]) for i, f in enumerate(functions)}
        for j, name in enumerate(generators)
    }


@dataclass(frozen=True)
class RepresentedAlgebra:
    """Named generator images phi(a) of a represented algebra."""

    space: GradedSpace
    generators: Mapping[str, GradedMatrix]

    def __post_init__(self):
        object.__setattr__(self, "generators", dict(self.generators))
        if not self.generators:
            raise ValueError("represented algebra needs at least one generator")
        for name, g in self.generators.items():
            if g.space != self.space:
                raise ValueError(f"generator {name!r} lives on the wrong space")


def _validate_corner(corner: GradedMatrix, tol: float = VALIDATION_TOL) -> None:
    p = corner.entries
    if np.abs(p - p.conj().T).max(initial=0.0) > tol:
        raise ValueError("corner projection must be Hermitian")
    if np.abs(p @ p - p).max(initial=0.0) > tol:
        raise ValueError("corner must be idempotent")
    if corner.parity() != 0:
        raise ValueError("corner projection must be even")


@dataclass(frozen=True)
class AsymptoticPair:
    """Represented algebra together with an odd self-adjoint operator.

    Construction checks structure only (matching spaces, corner a valid
    even projection); the defining decay conditions are measured by
    validate_pair.
    """

    rep: RepresentedAlgebra
    d: OddSelfAdjoint
    corner: GradedMatrix | None = None

    def __post_init__(self):
        if self.rep.space != self.d.space:
            raise ValueError("representation and operator on different spaces")
        if self.corner is not None:
            if self.corner.space != self.d.space:
                raise ValueError("corner on the wrong space")
            _validate_corner(self.corner)

    @property
    def space(self) -> GradedSpace:
        return self.rep.space


def _off_corner_mass(m: GradedMatrix, corner: GradedMatrix) -> float:
    complement = identity(m.space) - corner
    return operator_norm(complement @ m) + operator_norm(m @ complement)


@dataclass(frozen=True)
class PairReport:
    """validate_pair output: per-generator, per-function measurements."""

    containment: dict[str, dict[str, float]]
    profiles: dict[str, dict[str, DecayProfile]]


def validate_pair(pair: AsymptoticPair, t_grid: np.ndarray) -> PairReport:
    """Measure both defining conditions of an asymptotic pair.

    Containment (the off-corner mass ||(1 - P) m|| + ||m (1 - P)|| of
    m = f(D) phi(a)) is measured only when a corner is designated.
    Commutation profiles are fitted per generator and PAIR_FUNCTIONS
    entry; a pair commutes asymptotically when every fitted exponent
    reaches COMMUTATION_EXPONENT_THRESHOLD, and a profile that vanishes
    up to roundoff (below FIT_FLOOR) fits the -inf sentinel.  A generator
    equal to c 1 is not measured: its profiles are exact zeros.  With real
    D and a real generator, resolvent- reuses the resolvent+ profile.
    """
    grid = checked_t_grid(t_grid)
    spec = Spectrum.of(pair.d)
    containment: dict[str, dict[str, float]] = {
        name: {
            f.name: _off_corner_mass(GradedMatrix(pair.space, spec.apply(f)) @ gen, pair.corner)
            for f in PAIR_FUNCTIONS
        }
        if pair.corner is not None else {}
        for name, gen in pair.rep.generators.items()
    }
    profiles = {}
    for name, gen in pair.rep.generators.items():
        if np.array_equal(gen.entries, gen.entries[0, 0] * np.eye(pair.space.dim)):
            # c 1 graded-commutes with every f(D): its profiles are exact zeros
            profiles[name] = {f.name: DecayProfile.from_values(grid, np.zeros(grid.size)) for f in PAIR_FUNCTIONS}
            continue
        # the parity parts move to D's eigenbasis once (Spectrum.commutators).  When
        # they are real, resolvent-(x) = conj(resolvent+(x)) makes the resolvent-
        # commutators the conjugates of the resolvent+ ones, with the same norms
        parts = spec.eigenbasis(np.stack([p.entries for p in parity_decompose(gen)]))
        functions = [f for f in PAIR_FUNCTIONS if f is not RESOLVENT_MINUS or np.iscomplexobj(parts)]
        measured = generator_profiles(
            functions, {name: parts}, grid, lambda scales: [scales] * len(functions),
            lambda f, scales, a: operator_norms(spec.commutators(f, scales, a)),
        )[name]
        profiles[name] = {f.name: measured.get(f.name, measured[RESOLVENT_PLUS.name]) for f in PAIR_FUNCTIONS}
    return PairReport(containment, profiles)


def _factorization_defects(d: OddSelfAdjoint, d_prime: OddSelfAdjoint, t_grid: np.ndarray) -> np.ndarray:
    """Both factorization defects, one (even, odd) row per t."""
    if d.space != d_prime.space:
        raise ValueError("operators live on different spaces")
    spec_sum, spec_d, spec_dp = Spectrum.of(d + d_prime), Spectrum.of(d), Spectrum.of(d_prime)

    def defects(scales):
        heat_sum = spec_sum.apply_grid(GAUSS0, scales)
        heat_d = spec_d.apply_grid(GAUSS0, scales)
        heat_dp = spec_dp.apply_grid(GAUSS0, scales)
        even = heat_sum - heat_d @ heat_dp
        odd = (
            spec_sum.apply_grid(GAUSS1, scales)
            - spec_d.apply_grid(GAUSS1, scales) @ heat_dp
            - heat_d @ spec_dp.apply_grid(GAUSS1, scales)
        )
        return np.stack([operator_norms(even), operator_norms(odd)], axis=-1)

    return map_grid(defects, 1.0 / t_grid, d.space.dim)


def factorization_defect_profiles(
    d: OddSelfAdjoint, d_prime: OddSelfAdjoint, t_grid: np.ndarray
) -> tuple[DecayProfile, DecayProfile]:
    """Decay profiles of both heat-kernel factorization defects over a t-grid.

    even = || e^{-t^-2 (D+D')^2} - e^{-t^-2 D^2} e^{-t^-2 D'^2} ||
    odd  = the same defect for x e^{-x^2} with the product rule splitting
           t^-1(D+D') e^{...} into D- and D'-terms.

    Both vanish identically when [D, D'] = 0, and the even defect is
    t^-2 ||[D, D']|| + O(t^-4) in general.
    """
    grid = checked_t_grid(t_grid)
    values = _factorization_defects(d, d_prime, grid)
    return DecayProfile.from_values(grid, values[:, 0]), DecayProfile.from_values(grid, values[:, 1])


def identity_pushforward(m: GradedMatrix) -> GradedMatrix:
    return m


@dataclass(frozen=True)
class Composition:
    """compose_pairs output: the composed pair and its defect profiles."""

    pair: AsymptoticPair
    defect_profiles: dict[str, dict[str, DecayProfile]]


def compose_pairs(
    p_ab: AsymptoticPair,
    p_bc: AsymptoticPair,
    pushforward: Callable[[GradedMatrix], GradedMatrix],
    t_grid: np.ndarray,
) -> Composition:
    """Compose (phi, D) with (psi, D') into (psi o phi, psi(D) + D').

    The pushforward realizes psi on the matrices of the first pair; by
    functoriality it yields both psi(D) and the composed generators
    psi(phi(a)).  The defect profiles measure, for every composed
    generator, the distance between f(t^-1(psi(D) + D')) rho(a) and the
    naive two-step image built from the separate calculi of D' and
    psi(D); the composition formula holds when their fitted exponents
    reach COMPOSE_EXPONENT_THRESHOLD (t^-2 rate with slack).
    """
    if pushforward is None:
        raise ValueError("composition needs an explicit pushforward")
    grid = checked_t_grid(t_grid)
    pushed_d = OddSelfAdjoint(pushforward(p_ab.d.underlying))
    if pushed_d.space != p_bc.space:
        raise ValueError("pushforward does not land on the target space")
    composed_gens = {}
    for name, gen in p_ab.rep.generators.items():
        pushed = pushforward(gen)
        if pushed.space != p_bc.space:
            raise ValueError("pushforward does not land on the target space")
        composed_gens[name] = pushed
    d_total = pushed_d + p_bc.d
    composed = AsymptoticPair(RepresentedAlgebra(p_bc.space, composed_gens), d_total, p_bc.corner)

    spec_total = Spectrum.of(d_total)
    spec_inner = Spectrum.of(pushed_d)
    spec_outer = Spectrum.of(p_bc.d)

    def exact_and_naive(scales):
        # f(t^-1 D_total) and the naive two-step image, for gauss0 and (by the product rule) gauss1
        heat_inner, heat_outer = spec_inner.apply_grid(GAUSS0, scales), spec_outer.apply_grid(GAUSS0, scales)
        odd_inner, odd_outer = spec_inner.apply_grid(GAUSS1, scales), spec_outer.apply_grid(GAUSS1, scales)
        naive = (heat_outer @ heat_inner, odd_outer @ heat_inner + heat_outer @ odd_inner)
        return [(spec_total.apply_grid(f, scales), n) for f, n in zip((GAUSS0, GAUSS1), naive)]

    profiles = generator_profiles(
        (GAUSS0, GAUSS1), {name: gen.entries for name, gen in composed_gens.items()}, grid, exact_and_naive,
        lambda f, pair, rho: operator_norms(pair[0] @ rho - pair[1] @ rho),
    )
    return Composition(composed, profiles)
