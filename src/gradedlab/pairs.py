"""Finite-scale asymptotic pairs and their composition calculus.

An asymptotic pair is a represented algebra (a named family of generator
matrices) together with an odd self-adjoint operator D on the same graded
space.  Its defining condition, asymptotic commutation, is measured, not
assumed: t -> ||[f(t^-1 D), phi(a)]|| decays, certified by fitting a
log-log slope over a geometric t-grid.

The composition of two pairs is (psi o phi, psi(D) + D'), certified by
measuring the defect between the functional calculus of the summed
operator and the naive two-step image e^{-t^-2 D'^2} e^{-t^-2 D^2} a,
which decays like t^-2 when [psi(D), D'] is bounded.

Everything is pure and deterministic; profiles are evaluated on whole
t-grid stacks, chunked by funcalc's map_grid, from the chiral spectra of
the odd operators (funcalc.ChiralSpectrum).  The commutation profiles are
Schur products in D's chiral basis; the defects are formed from the
parity blocks of f(s D), with e^{-x^2} written as 1 + expm1(-x^2) so the
leading identities cancel exactly, and every norm of a homogeneous
matrix comes from its two half-size parity blocks.  So the profiles match
a point-by-point evaluation of the same formulas through Spectrum.apply
to roundoff, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .funcalc import GAUSS0, GAUSS1, PAIR_FUNCTIONS, RESOLVENT_MINUS, RESOLVENT_PLUS, ScalarFunction, map_grid
from .funcalc import ChiralSpectrum, ParityBlocks
from .graded import GradedMatrix, GradedSpace, OddSelfAdjoint

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
    A non-finite value in the fit window makes the fit fail: the exponent
    is NaN, so no threshold comparison passes.
    """

    t_grid: np.ndarray
    values: np.ndarray
    fitted_exponent: float

    @classmethod
    def from_values(cls, t_grid: np.ndarray, values: Sequence[float]) -> "DecayProfile":
        t_grid = checked_t_grid(t_grid)
        values = np.asarray(values, dtype=float)
        if t_grid.size != values.size:
            raise ValueError("grid and value lengths differ")
        upper = slice(t_grid.size // 2, None)
        ts, vs = t_grid[upper], values[upper]
        if not np.all(np.isfinite(vs)):
            return cls(t_grid, values, np.nan)
        usable = vs >= FIT_FLOOR
        if usable.sum() < 2:
            return cls(t_grid, values, float("-inf"))
        slope, _ = np.polyfit(np.log(ts[usable]), np.log(vs[usable]), 1)
        return cls(t_grid, values, float(slope))

    def csv_text(self) -> str:
        lines = ["t,value"]
        for t, v in zip(self.t_grid, self.values):
            lines.append(f"{t:.12e},{v:.12e}")
        return "\n".join(lines) + "\n"


def generator_profiles(
    functions: Sequence[ScalarFunction],
    generators: Mapping[str, object],
    t_grid: np.ndarray,
    stacks: Callable[[np.ndarray], Sequence[object]],
    measure: Callable[[ScalarFunction, object, object], np.ndarray],
    dim: int,
) -> dict[str, dict[str, DecayProfile]]:
    """Profiles of t -> measure(f, F, a) per generator a and function f.

    stacks(scales) returns one F per function, each evaluated on a whole
    chunk of grid scales 1/t at once, chunked for operators of dimension
    dim.  measure maps F and a generator to one norm per scale.
    """

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


@dataclass(frozen=True)
class AsymptoticPair:
    """Represented algebra together with an odd self-adjoint operator.

    Construction checks structure only (matching spaces); the defining
    decay condition is measured by validate_pair.
    """

    rep: RepresentedAlgebra
    d: OddSelfAdjoint

    def __post_init__(self):
        if self.rep.space != self.d.space:
            raise ValueError("representation and operator on different spaces")

    @property
    def space(self) -> GradedSpace:
        return self.rep.space


def validate_pair(pair: AsymptoticPair, t_grid: np.ndarray) -> dict[str, dict[str, DecayProfile]]:
    """Commutation profiles of an asymptotic pair, {generator: {function: profile}}.

    Profiles are fitted per generator and PAIR_FUNCTIONS entry, the shape
    of Composition.defect_profiles.  A pair commutes asymptotically when
    every fitted exponent reaches COMMUTATION_EXPONENT_THRESHOLD, and a
    profile that vanishes up to roundoff (below FIT_FLOOR) fits the -inf
    sentinel.  A generator equal to c 1 is not measured: its profiles are
    exact zeros.  With real D and a real generator, resolvent- reuses the
    resolvent+ profile.
    """
    grid = checked_t_grid(t_grid)
    spec = ChiralSpectrum.of(pair.d)
    profiles = {}
    for name, gen in pair.rep.generators.items():
        if np.array_equal(gen.entries, gen.entries[0, 0] * np.eye(pair.space.dim)):
            # c 1 graded-commutes with every f(D): its profiles are exact zeros
            profiles[name] = {f.name: DecayProfile.from_values(grid, np.zeros(grid.size)) for f in PAIR_FUNCTIONS}
            continue
        # the generator moves to D's chiral basis once.  When it is real there,
        # resolvent-(x) = conj(resolvent+(x)) makes the resolvent- commutators
        # the conjugates of the resolvent+ ones, with the same norms
        parts = spec.chiral_parts(gen)
        functions = [f for f in PAIR_FUNCTIONS if f is not RESOLVENT_MINUS or np.iscomplexobj(parts)]
        measured = generator_profiles(
            functions, {name: parts}, grid, lambda scales: [scales] * len(functions),
            lambda f, scales, a: spec.commutator_norms(f, scales, a), pair.space.dim,
        )[name]
        profiles[name] = {f.name: measured.get(f.name, measured[RESOLVENT_PLUS.name]) for f in PAIR_FUNCTIONS}
    return profiles


def _heat_defects(
    total: ChiralSpectrum, left: ChiralSpectrum, right: ChiralSpectrum, scales: np.ndarray
) -> tuple[ParityBlocks, ParityBlocks]:
    """For each s, gauss0 and gauss1 of s(L + R) less their two-step forms:
    H_L H_R for gauss0 and, by the product rule, G_L H_R + H_L G_R for gauss1,
    with H and G the gauss0 and gauss1 of s L and s R.  With H = 1 + Delta,
    Delta from expm1, the identities cancel before any rounding:
    even = Delta_T - Delta_L - Delta_R - Delta_L Delta_R and
    odd = G_T - G_L - G_R - G_L Delta_R - Delta_L G_R."""
    delta_l, delta_r = left.blocks(GAUSS0, scales, increment=True), right.blocks(GAUSS0, scales, increment=True)
    odd_l, odd_r = left.blocks(GAUSS1, scales), right.blocks(GAUSS1, scales)
    even = total.blocks(GAUSS0, scales, increment=True) - delta_l - delta_r - delta_l @ delta_r
    odd = total.blocks(GAUSS1, scales) - odd_l - odd_r - odd_l @ delta_r - delta_l @ odd_r
    return even, odd


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
    if d.space != d_prime.space:
        raise ValueError("operators live on different spaces")
    spectra = ChiralSpectrum.of(d + d_prime), ChiralSpectrum.of(d), ChiralSpectrum.of(d_prime)

    def norms(scales):
        return np.stack([defect.norms() for defect in _heat_defects(*spectra, scales)], axis=-1)

    values = map_grid(norms, 1.0 / grid, d.space.dim)
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
    composed = AsymptoticPair(RepresentedAlgebra(p_bc.space, composed_gens), d_total)

    spectra = ChiralSpectrum.of(d_total), ChiralSpectrum.of(p_bc.d), ChiralSpectrum.of(pushed_d)
    gens = {name: ParityBlocks.gather(p_bc.space, gen.entries) for name, gen in composed_gens.items()}
    profiles = generator_profiles(
        (GAUSS0, GAUSS1), gens, grid, lambda scales: _heat_defects(*spectra, scales),
        lambda f, defect, rho: (defect @ rho).norms(), p_bc.space.dim,
    )
    return Composition(composed, profiles)
