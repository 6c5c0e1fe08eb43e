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
t-grid stacks by the grid engine of funcalc (Spectrum.apply_grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .funcalc import (
    CAYLEY,
    GAUSS0,
    GAUSS1,
    MULTIPLIER_G,
    PAIR_FUNCTIONS,
    ScalarFunction,
    Spectrum,
    bounded_transform,
    cutoff_function,
    map_grid,
)
from .graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    VALIDATION_TOL,
    conjugate_by_grading,
    direct_sum,
    graded_commutator,
    graded_commutator_array,
    graded_tensor,
    identity,
    operator_norm,
    operator_norms,
)

__all__ = [
    "DEFAULT_GRID_POINTS",
    "FIT_FLOOR",
    "COMMUTATION_EXPONENT_THRESHOLD",
    "COMPOSE_EXPONENT_THRESHOLD",
    "default_t_grid",
    "DecayProfile",
    "decay_profile",
    "generator_profiles",
    "RepresentedAlgebra",
    "AsymptoticPair",
    "PairReport",
    "validate_pair",
    "pair_sum",
    "pair_inverse",
    "BCReport",
    "bounded_commutator_check",
    "factorization_defect",
    "factorization_defect_profiles",
    "Composition",
    "identity_pushforward",
    "compose_pairs",
    "ComultiplicationReport",
    "comultiplication_check",
    "CornerReport",
    "corner_membership_check",
    "TransferReport",
    "commutator_transfer_check",
]

DEFAULT_GRID_POINTS = 60
# Norm values below this are treated as exact zeros and excluded from fits.
FIT_FLOOR = 1e-14
# Slope thresholds: t^-1 decay for pair commutators, t^-2 for composition
# defects, each with 0.25 slack absorbing fit noise (a policy, not a theorem).
COMMUTATION_EXPONENT_THRESHOLD = -1.0 + 0.25
COMPOSE_EXPONENT_THRESHOLD = -2.0 + 0.25


def default_t_grid(start: float = 1.0, stop: float = 1e3, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Geometric scale grid; two decades above unit scale by default."""
    if points < 2 or start <= 0 or stop <= start:
        raise ValueError("grid needs points >= 2 and 0 < start < stop")
    return np.geomspace(start, stop, points)


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
        t_grid = np.asarray(t_grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if t_grid.size < 2:
            raise ValueError("decay profile needs at least 2 grid points")
        if t_grid.size != values.size:
            raise ValueError("grid and value lengths differ")
        if np.any(np.diff(t_grid) <= 0) or t_grid[0] <= 0:
            raise ValueError("grid must be strictly increasing and positive")
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

    def to_json_dict(self) -> dict:
        return {
            "grid": [float(t) for t in self.t_grid],
            "values": [float(v) for v in self.values],
            "exponent": float(self.fitted_exponent),
            "constant": float(self.fitted_constant),
            "residual": float(self.fit_residual),
        }

    def csv_text(self) -> str:
        lines = ["t,value"]
        for t, v in zip(self.t_grid, self.values):
            lines.append(f"{t:.12e},{v:.12e}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(self.csv_text())


def decay_profile(family: Callable[[float], object], t_grid: np.ndarray) -> DecayProfile:
    """Profile of t -> ||family(t)||; family returns a matrix-like value."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("empty grid")
    values = [operator_norm(family(float(t))) for t in t_grid]
    return DecayProfile.from_values(t_grid, values)


def generator_profiles(
    functions: Sequence[ScalarFunction],
    generators: Mapping[str, GradedMatrix],
    t_grid: np.ndarray,
    stacks: Spectrum | Callable[[np.ndarray], Sequence[object]],
    measure: Callable[[ScalarFunction, object, np.ndarray], np.ndarray],
) -> dict[str, dict[str, DecayProfile]]:
    """Profiles of t -> measure(f, F, a) per generator a and function f.

    stacks(scales) returns one F per function, each evaluated on a whole
    chunk of grid scales 1/t at once; a Spectrum of D stands for the
    stacks f(t^-1 D).  measure maps F and the entries of a to one norm
    per scale.
    """
    dim = next(iter(generators.values())).space.dim
    if isinstance(stacks, Spectrum):
        spec = stacks
        stacks = lambda scales: [spec.apply_grid(f, scales) for f in functions]

    def norms(scales):
        per_function = zip(functions, stacks(scales))
        columns = [[measure(f, stacked, a.entries) for a in generators.values()] for f, stacked in per_function]
        return np.moveaxis(np.asarray(columns), -1, 0)

    values = map_grid(norms, 1.0 / t_grid, dim)
    return {
        name: {f.name: DecayProfile.from_values(t_grid, values[:, i, j]) for i, f in enumerate(functions)}
        for j, name in enumerate(generators)
    }


def _commutator_norms(space: GradedSpace):
    return lambda f, stack, a: operator_norms(graded_commutator_array(space, stack, a))


@dataclass(frozen=True)
class RepresentedAlgebra:
    """Named generator images phi(a) of a represented algebra.

    The optional product table maps generator-name pairs to the name of
    their product; when present, check_products certifies the images
    multiply accordingly.
    """

    space: GradedSpace
    generators: Mapping[str, GradedMatrix]
    product_table: Mapping[tuple[str, str], str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "generators", dict(self.generators))
        if not self.generators:
            raise ValueError("represented algebra needs at least one generator")
        for name, g in self.generators.items():
            if g.space != self.space:
                raise ValueError(f"generator {name!r} lives on the wrong space")

    def names(self) -> tuple[str, ...]:
        return tuple(self.generators)

    def check_products(self, tol: float = 1e-10) -> bool:
        if not self.product_table:
            return True
        for (left, right), product in self.product_table.items():
            got = self.generators[left] @ self.generators[right]
            if not got.allclose(self.generators[product], tol):
                return False
        return True


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
    containment_tol: float
    exponent_threshold: float
    containment_passed: bool | None
    commutation_passed: bool
    passed: bool


def validate_pair(
    pair: AsymptoticPair,
    t_grid: np.ndarray | None = None,
    functions: Sequence[ScalarFunction] = PAIR_FUNCTIONS,
    containment_tol: float = 1e-8,
    exponent_threshold: float = COMMUTATION_EXPONENT_THRESHOLD,
) -> PairReport:
    """Measure both defining conditions of an asymptotic pair.

    Containment is checked only when a corner is designated.  Commutation
    profiles are fitted per generator and function; a profile that is
    identically zero passes with the -inf sentinel.
    """
    grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    spec = Spectrum.of(pair.d)
    containment: dict[str, dict[str, float]] = {
        name: {f.name: _off_corner_mass(GradedMatrix(pair.space, spec.apply(f)) @ gen, pair.corner) for f in functions}
        if pair.corner is not None else {}
        for name, gen in pair.rep.generators.items()
    }
    profiles = generator_profiles(functions, pair.rep.generators, grid, spec, _commutator_norms(pair.space))
    containment_passed: bool | None = None
    if pair.corner is not None:
        containment_passed = all(
            mass <= containment_tol for per_gen in containment.values() for mass in per_gen.values()
        )
    commutation_passed = all(
        p.fitted_exponent <= exponent_threshold for per_gen in profiles.values() for p in per_gen.values()
    )
    passed = commutation_passed and containment_passed is not False
    return PairReport(
        containment,
        profiles,
        containment_tol,
        exponent_threshold,
        containment_passed,
        commutation_passed,
        passed,
    )


def pair_sum(p: AsymptoticPair, q: AsymptoticPair) -> AsymptoticPair:
    """Blockwise sum diag(phi, phi~), diag(D, D~); generators match by name."""
    if set(p.rep.names()) != set(q.rep.names()):
        raise ValueError("pair sum needs identical generator name sets")
    generators = {name: direct_sum(p.rep.generators[name], q.rep.generators[name]) for name in p.rep.names()}
    d = OddSelfAdjoint(direct_sum(p.d.underlying, q.d.underlying))
    corner = None
    if p.corner is not None or q.corner is not None:
        left = p.corner if p.corner is not None else identity(p.space)
        right = q.corner if q.corner is not None else identity(q.space)
        corner = direct_sum(left, right)
    rep = RepresentedAlgebra(d.space, generators)
    return AsymptoticPair(rep, d, corner)


def pair_inverse(p: AsymptoticPair) -> AsymptoticPair:
    """Additive inverse: opposite representation gamma phi(a) gamma with -D."""
    generators = {name: conjugate_by_grading(g) for name, g in p.rep.generators.items()}
    rep = RepresentedAlgebra(p.space, generators, p.rep.product_table)
    return AsymptoticPair(rep, -p.d, p.corner)


@dataclass(frozen=True)
class BCReport:
    """Bounded-commutator report for a candidate composition.

    In finite dimensions the domain conditions (common core, core
    stability under transforms and resolvents) hold automatically; what
    remains quantitative is the norm of the graded commutator [D, D'].
    """

    commutator_norm: float
    core_note: str
    threshold: float | None
    passed: bool


def bounded_commutator_check(
    d: OddSelfAdjoint, d_prime: OddSelfAdjoint, threshold: float | None = None
) -> BCReport:
    if d.space != d_prime.space:
        raise ValueError("operators live on different spaces")
    norm = operator_norm(graded_commutator(d.underlying, d_prime.underlying))
    note = "finite-dimensional model: the whole space is a common core, stable under transforms and resolvents"
    passed = True if threshold is None else norm <= threshold
    return BCReport(norm, note, threshold, passed)


def _factorization_defects(d: OddSelfAdjoint, d_prime: OddSelfAdjoint, t_grid: np.ndarray) -> np.ndarray:
    """Both factorization defects (see factorization_defect), one (even, odd) row per t."""
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

    return map_grid(defects, 1.0 / np.asarray(t_grid, dtype=float), d.space.dim)


def factorization_defect(d: OddSelfAdjoint, d_prime: OddSelfAdjoint, t: float) -> tuple[float, float]:
    """Heat-kernel factorization defects at scale t.

    even = || e^{-t^-2 (D+D')^2} - e^{-t^-2 D^2} e^{-t^-2 D'^2} ||
    odd  = the same defect for x e^{-x^2} with the product rule splitting
           t^-1(D+D') e^{...} into D- and D'-terms.

    Both vanish identically when [D, D'] = 0, and the even defect is
    t^-2 ||[D, D']|| + O(t^-4) in general.
    """
    if t <= 0:
        raise ValueError("scale t must be positive")
    even, odd = _factorization_defects(d, d_prime, np.array([t]))[0]
    return float(even), float(odd)


def factorization_defect_profiles(
    d: OddSelfAdjoint, d_prime: OddSelfAdjoint, t_grid: np.ndarray | None = None
) -> tuple[DecayProfile, DecayProfile]:
    """Decay profiles of both factorization defects over a t-grid."""
    grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    values = _factorization_defects(d, d_prime, grid)
    return DecayProfile.from_values(grid, values[:, 0]), DecayProfile.from_values(grid, values[:, 1])


def identity_pushforward(m: GradedMatrix) -> GradedMatrix:
    return m


@dataclass(frozen=True)
class Composition:
    """compose_pairs output: the composed pair plus its certificates."""

    pair: AsymptoticPair
    bc: BCReport
    defect_profiles: dict[str, dict[str, DecayProfile]]
    exponent_threshold: float
    passed: bool


def compose_pairs(
    p_ab: AsymptoticPair,
    p_bc: AsymptoticPair,
    pushforward: Callable[[GradedMatrix], GradedMatrix],
    t_grid: np.ndarray | None = None,
    exponent_threshold: float = COMPOSE_EXPONENT_THRESHOLD,
) -> Composition:
    """Compose (phi, D) with (psi, D') into (psi o phi, psi(D) + D').

    The pushforward realizes psi on the matrices of the first pair; by
    functoriality it yields both psi(D) and the composed generators
    psi(phi(a)).  The certificate measures, for every composed generator,
    the defect between f(t^-1(psi(D) + D')) rho(a) and the naive two-step
    image built from the separate calculi of D' and psi(D); its fitted
    decay exponent must reach the threshold (t^-2 rate with slack).
    """
    if pushforward is None:
        raise ValueError("composition needs an explicit pushforward")
    grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    pushed_d = OddSelfAdjoint(pushforward(p_ab.d.underlying))
    if pushed_d.space != p_bc.space:
        raise ValueError("pushforward does not land on the target space")
    composed_gens = {}
    for name, gen in p_ab.rep.generators.items():
        pushed = pushforward(gen)
        if pushed.space != p_bc.space:
            raise ValueError("pushforward does not land on the target space")
        composed_gens[name] = pushed
    bc = bounded_commutator_check(pushed_d, p_bc.d)
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
        (GAUSS0, GAUSS1), composed_gens, grid, exact_and_naive,
        lambda f, pair, rho: operator_norms(pair[0] @ rho - pair[1] @ rho),
    )
    passed = all(
        profile.fitted_exponent <= exponent_threshold
        for per_gen in profiles.values()
        for profile in per_gen.values()
    )
    return Composition(composed, bc, profiles, exponent_threshold, passed)


@dataclass(frozen=True)
class ComultiplicationReport:
    """Certificates that the two tensor lifts of D graded-commute and the
    functional calculus of their sum factors exactly."""

    lift_commutator_norm: float
    scales: np.ndarray
    gauss0_defects: np.ndarray
    gauss1_defects: np.ndarray
    commute_tol: float
    factor_tol: float
    passed: bool


def comultiplication_check(
    d: OddSelfAdjoint,
    scales: Sequence[float] | None = None,
    commute_tol: float = 1e-12,
    factor_tol: float = 1e-10,
) -> ComultiplicationReport:
    """Check f(D (x) 1 + 1 (x) D) = the product of the lifted calculi.

    The lifts graded-commute by the Koszul realization, so the heat
    kernel of the sum factors exactly, as does its odd companion
    x e^{-x^2} via the product-rule splitting.  Both identities are
    certified at every probe scale.
    """
    scale_grid = np.asarray([1.0, 4.0, 16.0] if scales is None else list(scales), dtype=float)
    one = identity(d.space)
    lift_left = graded_tensor(d.underlying, one)
    lift_right = graded_tensor(one, d.underlying)
    commutator_norm = operator_norm(graded_commutator(lift_left, lift_right))
    total = OddSelfAdjoint(lift_left + lift_right)
    spec_total = Spectrum.of(total)
    spec_d = Spectrum.of(d)
    g0_defects, g1_defects = [], []
    for t in scale_grid:
        s = 1.0 / float(t)
        heat = GradedMatrix(d.space, spec_d.apply(GAUSS0, s))
        heat_odd = GradedMatrix(d.space, spec_d.apply(GAUSS1, s))
        lifted_even = graded_tensor(heat, heat)
        g0_defects.append(
            float(np.linalg.norm(spec_total.apply(GAUSS0, s) - lifted_even.entries, 2))
        )
        lifted_odd = graded_tensor(heat_odd, heat) + graded_tensor(heat, heat_odd)
        g1_defects.append(
            float(np.linalg.norm(spec_total.apply(GAUSS1, s) - lifted_odd.entries, 2))
        )
    passed = (
        commutator_norm <= commute_tol
        and max(g0_defects) <= factor_tol
        and max(g1_defects) <= factor_tol
    )
    return ComultiplicationReport(
        commutator_norm,
        scale_grid,
        np.asarray(g0_defects),
        np.asarray(g1_defects),
        commute_tol,
        factor_tol,
        passed,
    )


@dataclass(frozen=True)
class CornerReport:
    """Corner-membership certificate built on the cutoff identity."""

    plateau_radius: float
    identity_defect_max: float
    off_corner_mass: dict[str, dict[str, float]]
    family_supremum: dict[str, dict[str, float]]
    identity_tol: float
    mass_tol: float
    passed: bool


def corner_membership_check(
    pair: AsymptoticPair,
    t_grid: np.ndarray | None = None,
    functions: Sequence[ScalarFunction] = (GAUSS0, GAUSS1),
    identity_tol: float = 1e-12,
    mass_tol: float = 1e-10,
) -> CornerReport:
    """Certify chi(t^-1 D) f(D) phi(a) = f(D) phi(a) and bound corner leakage.

    chi is a plateau function equal to one on [-R, R] with R at least
    ||D||, so the scaled spectrum stays inside the plateau for every
    t >= 1 and the identity holds exactly.  Consequently the off-corner
    mass of the t-independent left side is bounded by the supremum of
    the t-family's off-corner mass.
    """
    if pair.corner is None:
        raise ValueError("corner membership needs a designated corner")
    grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    if np.any(grid < 1.0):
        raise ValueError("corner membership grid must start at t >= 1")
    spec = Spectrum.of(pair.d)
    radius = max(operator_norm(pair.d), 1.0)
    chi = cutoff_function(radius)
    identity_defect = 0.0
    masses: dict[str, dict[str, float]] = {}
    family_sup: dict[str, dict[str, float]] = {}
    for name, gen in pair.rep.generators.items():
        masses[name] = {}
        family_sup[name] = {}
        for f in functions:
            target = GradedMatrix(pair.space, spec.apply(f)) @ gen
            masses[name][f.name] = _off_corner_mass(target, pair.corner)
            sup = 0.0
            for t in grid:
                cut = GradedMatrix(pair.space, spec.apply(chi, 1.0 / float(t)))
                member = cut @ target
                identity_defect = max(identity_defect, operator_norm(member - target))
                sup = max(sup, _off_corner_mass(member, pair.corner))
            family_sup[name][f.name] = sup
    passed = identity_defect <= identity_tol and all(
        masses[name][fn] <= family_sup[name][fn] + mass_tol
        for name in masses
        for fn in masses[name]
    )
    return CornerReport(radius, identity_defect, masses, family_sup, identity_tol, mass_tol, passed)


@dataclass(frozen=True)
class TransferReport:
    """Commutator transfer certificates for the outer operator.

    transform_profiles: t -> ||[f(t^-1 D'), D_N]||, certified pointwise
    against the contraction bound t^-1 ||[D', D_N]||.
    generator_profiles: the same commutators against each generator,
    reported for decay inspection.
    """

    transform_scale: float
    transfer_norm: float
    transform_profiles: dict[str, DecayProfile]
    generator_profiles: dict[str, dict[str, DecayProfile]]
    bound_tol: float
    bound_violation: float
    passed: bool


def commutator_transfer_check(
    p_ab: AsymptoticPair,
    d_prime: OddSelfAdjoint,
    t_grid: np.ndarray | None = None,
    transform_scale: float = 1.0,
    functions: Sequence[ScalarFunction] = (CAYLEY, MULTIPLIER_G),
    bound_tol: float = 1e-10,
) -> TransferReport:
    """Measure how functions of the outer operator commute past the pair.

    The quantitative certificate is the contraction
    ||[f(t^-1 D'), D_N]|| <= t^-1 ||[D', D_N]|| + tol at every grid
    point, for f the resolvent-type generators; profiles against the
    pair's generators are reported alongside.
    """
    if p_ab.space != d_prime.space:
        raise ValueError("operators live on different spaces")
    grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    d_n = bounded_transform(p_ab.d, transform_scale)
    transfer_norm = operator_norm(graded_commutator(d_prime.underlying, d_n.underlying))
    commutator = _commutator_norms(p_ab.space)
    spec_prime = Spectrum.of(d_prime)
    transform_profiles = generator_profiles(functions, {"": d_n.underlying}, grid, spec_prime, commutator)[""]
    gen_profiles = generator_profiles(functions, p_ab.rep.generators, grid, spec_prime, commutator)
    violation = max(0.0, *(float((p.values - transfer_norm / grid).max()) for p in transform_profiles.values()))
    passed = violation <= bound_tol
    return TransferReport(
        transform_scale,
        transfer_norm,
        transform_profiles,
        gen_profiles,
        bound_tol,
        violation,
        passed,
    )
