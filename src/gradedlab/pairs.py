"""Finite-scale asymptotic pairs and their composition calculus.

An asymptotic pair (phi, D) is a named family of generator matrices
phi(a) together with an odd self-adjoint operator D; the pair lives on
D's graded space.  Its defining condition, asymptotic commutation, is
measured, not assumed: t -> ||[f(t^-1 D), phi(a)]|| over a geometric
t-grid, which `lab` bounds by t^-1 c_f ||[D, a]|| (experiments).

The composition of two pairs is (psi o phi, psi(D) + D'), certified by
measuring the defect between the functional calculus of the summed
operator and the naive two-step image e^{-t^-2 D'^2} e^{-t^-2 D^2} a,
which decays like t^-2 when [psi(D), D'] is bounded.

Everything is pure and deterministic.  Every measured profile comes from
grid_profiles, the one t-grid stage: its callback maps a chunk of t values
to a column of norms per profile, from the chiral spectra of the odd
operators (funcalc.ChiralSpectrum).  Only the upper half of the grid
enters a certificate: grid_profiles evaluates that window when called, and the t
values below it once for all its profiles when one profile's values are
read (a written profile, appendixB's path check, the exact factorization
cases), which most profiles never are.  The commutation profiles are
Schur products in D's chiral basis, one column per PAIR_FUNCTIONS entry
from ChiralSpectrum.commutator_norms, which holds the resolvent rule: for
a generator a, real or complex, both resolvent commutators have the norm
s ||rho(s D) [D, a] rho(s D)|| with rho(x) = (1 + x^2)^(-1/2), taken once
for both columns.  The defects are formed from the parity blocks of
f(s D), a stack of f's parity, with e^{-x^2} written as 1 + expm1(-x^2)
so the leading identities cancel exactly.  Generators are homogeneous, so
every stack has the known parity p(f) + p(a), sums take stacks of one
parity only, and each norm comes from two half-size parity blocks.  So
the profiles match a point-by-point evaluation of the same formulas
through Spectrum.apply to roundoff, not bit for bit.  Profiles hold
numbers only; reporting writes them out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .funcalc import GAUSS0, GAUSS1, PAIR_FUNCTIONS, map_grid
from .funcalc import ChiralSpectrum, ParityBlocks
from .graded import GradedMatrix, GradedSpace, OddSelfAdjoint

__all__ = [
    "DEFAULT_GRID_POINTS",
    "default_t_grid",
    "checked_t_grid",
    "DecayProfile",
    "grid_profiles",
    "AsymptoticPair",
    "validate_pair",
    "factorization_defect_profiles",
    "identity_pushforward",
    "compose_pairs",
]

DEFAULT_GRID_POINTS = 60


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
    """Sampled norms over a t-grid.

    window holds the values on the upper half of the grid,
    t_grid[t_grid.size // 2:], the points a certificate reads; values, read
    once, adds those below it from below().
    """

    t_grid: np.ndarray
    window: np.ndarray
    below: Callable[[], np.ndarray]

    @functools.cached_property
    def values(self) -> np.ndarray:
        return np.concatenate([self.below(), self.window])

    @classmethod
    def from_values(cls, t_grid: np.ndarray, values: Sequence[float]) -> "DecayProfile":
        t_grid = checked_t_grid(t_grid)
        values = np.asarray(values, dtype=float)
        if values.shape != t_grid.shape:
            raise ValueError(f"values of shape {values.shape} on a grid of shape {t_grid.shape}")
        half = t_grid.size // 2
        return cls(t_grid, values[half:], lambda: values[:half])


def grid_profiles(t_grid: np.ndarray, dim: int, norms: Callable[[np.ndarray], np.ndarray]) -> list[DecayProfile]:
    """One DecayProfile per column of norms(ts), a (len(ts), k) array, for
    each chunk ts of the t values, chunked for operators of dimension dim
    (funcalc.map_grid).  norms runs on the window's t values now, and on
    those below it, for all k columns at once, when values are first read."""
    grid = checked_t_grid(t_grid)
    half = grid.size // 2
    below = functools.cache(lambda: map_grid(norms, grid[:half], dim))
    upper = map_grid(norms, grid[half:], dim).T
    return [DecayProfile(grid, column, lambda k=k: below()[:, k]) for k, column in enumerate(upper)]


@dataclass(frozen=True)
class AsymptoticPair:
    """Named homogeneous generator images phi(a) with an odd self-adjoint D on their space.

    Construction checks structure only: at least one generator, each on D's space and
    even or odd (GradedMatrix.parity), for the pair conditions are linear in a, so
    homogeneous generators fix a pair.  The decay condition is measured by validate_pair.
    """

    generators: Mapping[str, GradedMatrix]
    d: OddSelfAdjoint

    def __post_init__(self):
        object.__setattr__(self, "generators", dict(self.generators))
        if not self.generators:
            raise ValueError("asymptotic pair needs at least one generator")
        for name, g in self.generators.items():
            if g.space != self.d.space:
                raise ValueError(f"generator {name!r} lives on the wrong space")
            if g.parity is None:
                raise ValueError(f"generator {name!r} is neither even nor odd; give its parity parts as two generators")

    @property
    def space(self) -> GradedSpace:
        return self.d.space


def validate_pair(pair: AsymptoticPair, t_grid: np.ndarray) -> dict[str, dict[str, DecayProfile]]:
    """Commutation profiles of an asymptotic pair, {generator: {function: profile}}.

    Profiles are taken per generator and PAIR_FUNCTIONS entry, the shape
    of compose_pairs's defect profiles.  A pair commutes asymptotically when
    each profile is O(t^-1); every finite pair does, with
    t ||[f(t^-1 D), a]|| <= c_f ||[D, a]|| (experiments certifies it).  A
    generator equal to c 1 is not measured: its profiles are exact zeros.
    Every other generator moves to D's chiral basis once, and
    ChiralSpectrum.commutator_norms gives its columns at its parity, the
    resolvent rule (one norm for both resolvents) included.
    """
    grid = checked_t_grid(t_grid)
    spec = ChiralSpectrum.of(pair.d)
    # c 1 graded-commutes with every f(D): its profiles are exact zeros
    measured = {name: spec.chiral_parts(gen) for name, gen in pair.generators.items()
                if not np.array_equal(gen.entries, gen.entries[0, 0] * np.eye(pair.space.dim))}

    def norms(ts):
        return np.concatenate([spec.commutator_norms(1.0 / ts, parts) for parts in measured.values()], -1)

    columns = iter(grid_profiles(grid, pair.space.dim, norms) if measured else ())
    return {name: {f.name: next(columns) if name in measured else DecayProfile.from_values(grid, np.zeros(grid.size))
                   for f in PAIR_FUNCTIONS} for name in pair.generators}


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

    return tuple(grid_profiles(
        grid, d.space.dim, lambda ts: np.stack([defect.norms() for defect in _heat_defects(*spectra, 1.0 / ts)], -1)
    ))


def identity_pushforward(m: GradedMatrix) -> GradedMatrix:
    return m


def compose_pairs(
    p_ab: AsymptoticPair,
    p_bc: AsymptoticPair,
    pushforward: Callable[[GradedMatrix], GradedMatrix],
    t_grid: np.ndarray,
) -> tuple[AsymptoticPair, dict[str, dict[str, DecayProfile]]]:
    """Compose (phi, D) with (psi, D') into (psi o phi, psi(D) + D'); returns
    that pair and its defect profiles, {generator: {function: profile}}.

    The pushforward realizes psi on the matrices of the first pair; by
    functoriality it yields both psi(D) and the composed generators
    psi(phi(a)).  The defect profiles measure, for every composed
    generator, the distance between f(t^-1(psi(D) + D')) rho(a) and the
    naive two-step image built from the separate calculi of D' and
    psi(D), (L, R) = (D', psi(D)) in _heat_defects: t^2 times each is at most
    ||LR + RL|| ||rho(a)|| times a constant plus O(t^-2) (experiments).
    """
    if pushforward is None:
        raise ValueError("composition needs an explicit pushforward")
    grid = checked_t_grid(t_grid)
    pushed = pushforward(p_ab.d)
    pushed_d = OddSelfAdjoint(pushed.space, pushed.entries)
    if pushed_d.space != p_bc.space:
        raise ValueError("pushforward does not land on the target space")
    d_total = pushed_d + p_bc.d
    composed = AsymptoticPair({name: pushforward(gen) for name, gen in p_ab.generators.items()}, d_total)

    spectra = ChiralSpectrum.of(d_total), ChiralSpectrum.of(p_bc.d), ChiralSpectrum.of(pushed_d)
    gens = {name: ParityBlocks.gather(p_bc.space, gen.entries, gen.parity) for name, gen in composed.generators.items()}

    def norms(ts):
        defects = _heat_defects(*spectra, 1.0 / ts)
        return np.stack([(defect @ rho).norms() for rho in gens.values() for defect in defects], -1)

    columns = iter(grid_profiles(grid, p_bc.space.dim, norms))
    return composed, {name: {f.name: next(columns) for f in (GAUSS0, GAUSS1)} for name in gens}
