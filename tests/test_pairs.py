import math
import pathlib
import re

import numpy as np
import pytest
from scipy import integrate

from gradedlab import (
    AsymptoticPair,
    GradedMatrix,
    Spectrum,
    compose_pairs,
    conjugate_by_grading,
    default_t_grid,
    direct_sum,
    factorization_defect_profiles,
    graded_commutator,
    graded_tensor,
    identity,
    identity_pushforward,
    operator_norm,
    validate_pair,
    zeros,
)
from gradedlab.bott import bott_dirac, multiplication_generators
from gradedlab.experiments import PAIR_CONSTANTS, _heat_bounds, _rate_cert
from gradedlab.funcalc import GAUSS0, GAUSS1, PAIR_FUNCTIONS
from gradedlab.graded import parity_parts
from gradedlab.pairs import DecayProfile
from gradedlab.reporting import csv_text
from gradedlab.sampling import (
    balanced_space,
    random_even,
    random_even_unitary,
    random_odd,
    random_odd_selfadjoint,
    random_space,
    rng_for,
)

from helpers import SIGMA_X, SIGMA_Y, SIGMA_Z, SX, SY, TWO, as_odd, commutes_asymptotically, composes

GRID = default_t_grid(points=24)


def two_block_pair():
    """Four-dimensional pair whose algebra and operator live in the top block."""
    gen = direct_sum(identity(TWO), zeros(TWO))
    d = as_odd(direct_sum(SIGMA_X, zeros(TWO)))
    return AsymptoticPair({"unit_top": gen}, d)


def norm_profile(family):
    """Profile of t -> ||family(t)|| over GRID."""
    return DecayProfile.from_values(GRID, [operator_norm(family(float(t))) for t in GRID])


# -- decay profiles ----------------------------------------------------------


def test_decay_profile_zero_family():
    profile = norm_profile(lambda t: zeros(TWO))
    assert np.all(profile.values == 0.0)
    assert np.array_equal(profile.window, np.zeros(GRID.size - GRID.size // 2))


def test_decay_profile_exact_power_law():
    """window is the upper half of values, and values the whole grid's."""
    profile = norm_profile(lambda t: (t**-2.0) * identity(TWO))
    np.testing.assert_allclose(profile.values, GRID**-2.0, rtol=1e-14)
    assert np.array_equal(profile.window, profile.values[GRID.size // 2:])


def test_decay_profile_random_commutator_family():
    """Heat commutators of a random pair decay at the resolvent rate, with
    the proved constant: t ||[gauss0(D/t), a]|| <= (2 / sqrt(pi)) ||[D, a]||."""
    rng = rng_for(30)
    space = balanced_space(8)
    d = random_odd_selfadjoint(rng, space)
    spec, a = Spectrum.of(d), random_even(rng, space)
    profile = norm_profile(lambda t: graded_commutator(GradedMatrix(space, spec.apply(GAUSS0, 1.0 / t)), a))
    bound = 2.0 / math.sqrt(math.pi) * operator_norm(graded_commutator(d, a))
    assert np.all(GRID * profile.values <= bound * (1 + 1e-12))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decay_profile_non_finite_fit_window_fails(bad):
    """A non-finite value in a profile's window is no measurement: a rate
    certificate on it records NaN and fails.  The window is the upper half
    of the grid; a value below it does not enter."""
    grid = default_t_grid()
    everywhere = DecayProfile.from_values(grid, np.full(grid.size, bad))
    one_point = DecayProfile.from_values(grid, np.where(np.arange(grid.size) == grid.size - 3, bad, grid**-2.0))
    for profile in (everywhere, one_point):
        cert = _rate_cert("compose_defect", [(profile, 2, 2.0)])
        assert np.isnan(cert.lhs) and not cert.passed
    early = DecayProfile.from_values(grid, np.where(np.arange(grid.size) == 0, bad, grid**-2.0))
    assert _rate_cert("compose_defect", [(early, 2, 2.0)]).passed


def test_decay_profile_grid_errors():
    with pytest.raises(ValueError):
        DecayProfile.from_values(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        DecayProfile.from_values(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        DecayProfile.from_values(GRID, np.zeros(GRID.size - 1))
    with pytest.raises(ValueError):
        DecayProfile.from_values(np.array([1.0, 1.0]), np.array([1.0, 1.0]))


def test_decay_profile_refuses_values_of_another_shape():
    """Values with the grid's size but not its shape are refused: (2, 5) on a
    10-point grid would leave an empty window, with no point for a
    certificate to check."""
    grid = default_t_grid(points=10)
    for values in (np.ones((2, 5)), np.ones((10, 1)), np.ones((1, 10))):
        with pytest.raises(ValueError, match="shape"):
            DecayProfile.from_values(grid, values)
    assert np.array_equal(DecayProfile.from_values(grid, grid**-2.0).window, grid[5:] ** -2.0)


def test_decay_profile_serialization():
    profile = norm_profile(lambda t: (t**-1.0) * identity(TWO))
    lines = csv_text({"t": profile.t_grid, "value": profile.values}).splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == GRID.size + 1
    t0, v0 = lines[1].split(",")
    assert float(t0) == GRID[0] and abs(float(v0) - 1.0) < 1e-12


# -- pair validation ---------------------------------------------------------


def test_validate_pair_identity_generator():
    rng = rng_for(31)
    space = balanced_space(6)
    pair = AsymptoticPair({"unit": identity(space)}, random_odd_selfadjoint(rng, space))
    assert commutes_asymptotically(validate_pair(pair, GRID))


def test_validate_pair_pauli_closed_form():
    """For generators {sigma_z}, D = sigma_x the odd heat commutator has norm
    exactly 2 t^-1 e^(-1/t^2)."""
    pair = AsymptoticPair({"z": SIGMA_Z}, SX)
    profiles = validate_pair(pair, GRID)
    profile = profiles["z"][GAUSS1.name]
    expected = 2.0 / GRID * np.exp(-1.0 / GRID**2)
    np.testing.assert_allclose(profile.values, expected, rtol=1e-10)
    assert commutes_asymptotically(profiles)


def test_validate_pair_space_mismatch():
    other = as_odd(direct_sum(SIGMA_X, zeros(TWO)))
    with pytest.raises(ValueError, match="generator 'z' lives on the wrong space"):
        AsymptoticPair({"z": SIGMA_Z}, other)


def test_pair_needs_a_generator_and_copies_its_mapping():
    with pytest.raises(ValueError, match="at least one generator"):
        AsymptoticPair({}, SX)
    gens = {"z": SIGMA_Z}
    pair = AsymptoticPair(gens, SX)
    gens["x"] = SIGMA_X
    assert list(pair.generators) == ["z"] and pair.space == SX.space


def test_pair_refuses_a_mixed_generator():
    """Generators are homogeneous: one with an even and an odd part, a random
    sum or the Bott pair's mult_even + D, is refused by name, while the zero
    matrix, c 1 and even and odd generators are taken."""
    rng = rng_for(47)
    space = random_space(rng, 7)
    d = random_odd_selfadjoint(rng, space, norm=1.0)
    even, odd = random_even(rng, space, norm=1.0), random_odd(rng, space, norm=1.0)
    ops = bott_dirac(8)
    mult_even = multiplication_generators(ops)["mult_even"]
    for gens, dirac in (({"even": even, "a": even + odd}, d), ({"a": mult_even + ops.dirac}, ops.dirac)):
        with pytest.raises(ValueError, match="generator 'a' is neither even nor odd"):
            AsymptoticPair(gens, dirac)
    gens = {"zero": zeros(space), "scalar": (2.0 - 1.0j) * identity(space), "even": even, "odd": odd}
    pair = AsymptoticPair(gens, d)
    assert {name: g.parity for name, g in pair.generators.items()} == {"zero": 0, "scalar": 0, "even": 0, "odd": 1}


def test_mixed_commutator_is_bounded_by_its_parity_parts():
    """What the refusal of a mixed a rests on: [f(D/t), a] is linear in a, so
    its dense norm (the Spectrum reference) is at most the sum of
    validate_pair's profiles for a's even and odd parts, for every
    PAIR_FUNCTIONS entry and t, within the roundoff 1e-12 relative plus
    32 eps (1 + ||D|| / t) ||a||."""
    rng = rng_for(48)
    space = random_space(rng, 7)
    d = random_odd_selfadjoint(rng, space, norm=2.0)
    a = random_even(rng, space, norm=1.0) + random_odd(rng, space, norm=1.0)
    parts = dict(zip(("a0", "a1"), (GradedMatrix(space, part) for part in parity_parts(space, a.entries))))
    profiles = validate_pair(AsymptoticPair(parts, d), GRID)
    spec = Spectrum.of(d)
    floor = 32 * np.finfo(float).eps * (1 + operator_norm(d) / GRID) * operator_norm(a)
    for f in PAIR_FUNCTIONS:
        dense = [operator_norm(graded_commutator(GradedMatrix(space, spec.apply(f, 1.0 / t)), a)) for t in GRID]
        bound = profiles["a0"][f.name].values + profiles["a1"][f.name].values
        assert np.all(np.asarray(dense) <= bound * (1 + 1e-12) + floor), f.name


def test_validate_pair_block_corner():
    assert commutes_asymptotically(validate_pair(two_block_pair(), GRID))


# -- group structure: block sums and the opposite pair ----------------------


def block_sum(p, q):
    """(diag(phi, psi), diag(D, D')) for pairs with the same generator names."""
    gens = {name: direct_sum(g, q.generators[name]) for name, g in p.generators.items()}
    d = as_odd(direct_sum(p.d, q.d))
    return AsymptoticPair(gens, d)


def opposite(p):
    """The additive inverse (gamma phi gamma, -D) of a pair."""
    gens = {name: conjugate_by_grading(g) for name, g in p.generators.items()}
    return AsymptoticPair(gens, -p.d)


def test_pair_sum_with_zero_pair_keeps_profiles():
    rng = rng_for(32)
    space = balanced_space(4)
    gens = {"a": random_even(rng, space, norm=1.0)}
    pair = AsymptoticPair(gens, random_odd_selfadjoint(rng, space))
    zero_pair = AsymptoticPair({"a": zeros(space)}, as_odd(zeros(space)))
    total = block_sum(pair, zero_pair)
    rep_a = validate_pair(pair, GRID)["a"]
    rep_total = validate_pair(total, GRID)["a"]
    for fn in rep_a:
        np.testing.assert_allclose(rep_total[fn].values, rep_a[fn].values, atol=1e-12)


def test_pair_sum_profile_is_pointwise_max():
    """Block norms make the summed profile the pointwise max of the parts."""
    rng = rng_for(34)
    space = balanced_space(4)
    p = AsymptoticPair({"a": random_even(rng, space, norm=1.0)}, random_odd_selfadjoint(rng, space, norm=1.0))
    q = AsymptoticPair({"a": random_even(rng, space, norm=1.0)}, random_odd_selfadjoint(rng, space, norm=1.0))
    vp = validate_pair(p, GRID)["a"]
    vq = validate_pair(q, GRID)["a"]
    vt = validate_pair(block_sum(p, q), GRID)["a"]
    for fn in vp:
        expected = np.maximum(vp[fn].values, vq[fn].values)
        np.testing.assert_allclose(vt[fn].values, expected, atol=1e-11)


def test_pair_inverse_preserves_profiles():
    """Conjugating by the grading and flipping D leaves every profile value fixed."""
    rng = rng_for(36)
    space = balanced_space(6)
    gens = {"a": random_even(rng, space), "b": random_odd(rng, space)}
    pair = AsymptoticPair(gens, random_odd_selfadjoint(rng, space))
    direct = validate_pair(pair, GRID)
    flipped = validate_pair(opposite(pair), GRID)
    for name in gens:
        for fn in direct[name]:
            np.testing.assert_allclose(
                flipped[name][fn].values, direct[name][fn].values, atol=1e-11
            )


def test_sum_with_inverse_preserves_profiles():
    """Profiles of p + (-p) equal the profiles of p value for value."""
    rng = rng_for(38)
    space = balanced_space(4)
    gens = {"a": random_odd(rng, space, norm=1.0)}
    pair = AsymptoticPair(gens, random_odd_selfadjoint(rng, space))
    doubled = block_sum(pair, opposite(pair))
    vp = validate_pair(pair, GRID)["a"]
    vd = validate_pair(doubled, GRID)["a"]
    for fn in vp:
        np.testing.assert_allclose(vd[fn].values, vp[fn].values, atol=1e-11)


# -- bounded commutator [D, D'] ------------------------------------------------


def test_bounded_commutator_self():
    rng = rng_for(39)
    d = random_odd_selfadjoint(rng, balanced_space(6))
    norm = operator_norm(graded_commutator(d, d))
    expected = 2.0 * operator_norm(GradedMatrix(d.space, d.entries @ d.entries))
    assert abs(norm - expected) <= 1e-10 * expected


def test_bounded_commutator_tensor_lifts_vanish():
    lift_left = graded_tensor(SIGMA_X, identity(TWO))
    lift_right = graded_tensor(identity(TWO), SIGMA_Y)
    assert operator_norm(graded_commutator(lift_left, lift_right)) <= 1e-12


# -- heat factorization ---------------------------------------------------------


def test_factorization_exact_for_anticommuting_paulis():
    even_prof, odd_prof = factorization_defect_profiles(SX, SY, GRID)
    assert even_prof.values.max() <= 1e-12
    assert odd_prof.values.max() <= 1e-12


def test_factorization_exact_for_tensor_lifts():
    lift_left = as_odd(graded_tensor(SIGMA_X, identity(TWO)))
    lift_right = as_odd(graded_tensor(identity(TWO), SIGMA_Y))
    even_prof, odd_prof = factorization_defect_profiles(lift_left, lift_right, GRID)
    assert even_prof.values.max() <= 1e-12
    assert odd_prof.values.max() <= 1e-12


def test_factorization_taylor_value():
    """At t = 100 the even defect of (sigma_x, sigma_x) is t^-2 ||[D, D']|| = 2e-4."""
    even_prof, _ = factorization_defect_profiles(SX, SX, np.array([50.0, 100.0]))
    assert abs(even_prof.values[-1] - 2e-4) <= 0.05 * 2e-4


def test_factorization_rate_and_limit():
    """t^2 (even defect) converges to ||[D, D']|| and stays below the proved
    ||[D, D']|| (1 + 2 ||D|| ||D'|| / t^2), with ||D|| = ||D'|| = 1."""
    rng = rng_for(40)
    grid = default_t_grid(10.0, 1e3, 40)
    for _ in range(5):
        space = balanced_space(8)
        d = random_odd_selfadjoint(rng, space, norm=1.0)
        dp = random_odd_selfadjoint(rng, space, norm=1.0)
        even_prof, _ = factorization_defect_profiles(d, dp, grid)
        comm = operator_norm(graded_commutator(d, dp))
        assert np.all(grid**2 * even_prof.values <= comm * (1.0 + 2.0 / grid**2) * (1 + 1e-9))
        t_last = grid[-1]
        assert abs(t_last**2 * even_prof.values[-1] - comm) <= 0.02 * comm


# Each PAIR_FUNCTIONS entry decays like e^{-x^2} or is a resolvent, integrable only as a Fourier integral.
FOURIER_RANGE = {"gauss0": 40.0, "gauss1": 40.0, "resolvent+": np.inf, "resolvent-": np.inf}


def fourier_transform(f, xi: float, upper: float) -> complex:
    """f^(xi) = int f(x) e^{-i xi x} dx, as the integral over [0, upper] of
    (f(x) + f(-x)) cos(xi x) - i (f(x) - f(-x)) sin(xi x), each real and
    imaginary part one weighted quadrature (a QAWF Fourier integral when
    upper is infinite), a part that is zero at three points skipped."""
    total = 0j
    for weight, sign, factor in (("cos", 1.0, 1.0), ("sin", -1.0, -1j * np.sign(xi))):
        for unit in (1.0, 1j):
            def part(x, sign=sign, unit=unit):
                return ((complex(f(x)) + sign * complex(f(-x))) / unit).real

            if any(part(x) for x in (0.3, 1.1, 2.9)):
                value, _ = integrate.quad(part, 0, upper, weight=weight, wvar=abs(xi), epsabs=1e-13, limlst=100)
                total += factor * unit * value
    return total


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("f", PAIR_FUNCTIONS, ids=lambda f: f.name)
def test_pair_constants_by_quadrature(f):
    """c_f = (2 pi)^-1 int |xi f^(xi)| d xi, f^ and the outer integral both by
    quadrature, is PAIR_CONSTANTS[f] within 1e-8: 2/sqrt(pi) for gauss0 and
    1 for the others.  |xi f^(xi)| is below 1e-15 beyond |xi| = 40."""
    upper = FOURIER_RANGE[f.name]

    def integrand(xi):
        return abs(xi * fourier_transform(f, xi, upper))

    total = sum(integrate.quad(integrand, a, b, epsabs=1e-11)[0] for a, b in ((-40.0, 0.0), (0.0, 40.0)))
    assert abs(total / (2 * math.pi) - PAIR_CONSTANTS[f.name]) <= 1e-8


def dense_heat_defects(left, right, t: float) -> tuple[float, float]:
    """||even|| and ||odd|| of the heat defects of (L, R) at t, each function
    of L, R and L + R from np.linalg.eigh: H(X) = e^{-X^2/t^2} and
    G(X) = (X/t) H(X), even = H(L + R) - H(L) H(R) and
    odd = G(L + R) - G(L) H(R) - H(L) G(R)."""

    def calculus(x):
        values, vectors = np.linalg.eigh(x)
        s = values / t
        heat = (vectors * np.exp(-(s**2))) @ vectors.conj().T
        return heat, (vectors * (s * np.exp(-(s**2)))) @ vectors.conj().T

    (h_l, g_l), (h_r, g_r), (h_b, g_b) = (calculus(x) for x in (left, right, left + right))
    even, odd = h_b - h_l @ h_r, g_b - g_l @ h_r - h_l @ g_r
    return np.linalg.norm(even, 2), np.linalg.norm(odd, 2)


def test_heat_bounds_hold_against_a_dense_evaluation():
    """Both heat-defect bounds `lab` certifies, t^2 ||even|| <= ||K|| (1 +
    2 ||L|| ||R|| / t^2) and t^2 ||odd|| <= ||K|| (6 / sqrt(2 e) +
    2 ||B|| ||L|| ||R|| / t^3), K = LR + RL and B = L + R, hold on random odd
    L and R with d <= 8, norms in [0.1, 30] and t in [0.1, 1e3], up to the
    roundoff t^2 64 eps of the dense subtraction; the even one is sharp."""
    rng = rng_for(49)
    worst_even = 0.0
    for _ in range(300):
        space = random_space(rng, int(rng.integers(2, 9)))
        left, right = (random_odd_selfadjoint(rng, space, norm=float(np.exp(rng.uniform(np.log(0.1), np.log(30.0)))))
                       for _ in range(2))
        t = float(np.exp(rng.uniform(np.log(0.1), np.log(1e3))))
        even_bound, odd_bound = (bound(np.array([t]))[0] for bound in _heat_bounds(left, right))
        even, odd = dense_heat_defects(left.entries, right.entries, t)
        roundoff = t**2 * 64 * np.finfo(float).eps
        assert t**2 * even <= even_bound * (1 + 1e-12) + roundoff
        assert t**2 * odd <= odd_bound * (1 + 1e-12) + roundoff
        worst_even = max(worst_even, t**2 * even / even_bound)
    assert worst_even >= 0.99


def test_factorization_defect_rejects_space_mismatch():
    with pytest.raises(ValueError):
        factorization_defect_profiles(SX, as_odd(direct_sum(SIGMA_X, zeros(TWO))), GRID)


# -- composition -----------------------------------------------------------------


def test_compose_with_trivial_pair_is_exact():
    rng = rng_for(41)
    space = balanced_space(6)
    gens = {"a": random_even(rng, space), "b": random_odd(rng, space)}
    pair = AsymptoticPair(gens, random_odd_selfadjoint(rng, space))
    trivial = AsymptoticPair({"unit": identity(space)}, as_odd(zeros(space)))
    composed, defect_profiles = compose_pairs(pair, trivial, identity_pushforward, GRID)
    assert np.array_equal(composed.d.entries, pair.d.entries)
    for name in gens:
        assert np.array_equal(composed.generators[name].entries, gens[name].entries)
    assert composes(defect_profiles)
    for per_fn in defect_profiles.values():
        for profile in per_fn.values():
            assert profile.values.max() <= 1e-12


def test_compose_with_bounded_potential_gives_shifted_operator():
    rng = rng_for(42)
    space = balanced_space(6)
    gens = {"a": random_even(rng, space)}
    d = random_odd_selfadjoint(rng, space, norm=1.0)
    v = random_odd_selfadjoint(rng, space, norm=1.0)
    pair = AsymptoticPair(gens, d)
    potential_pair = AsymptoticPair({"unit": identity(space)}, v)
    composed, defect_profiles = compose_pairs(pair, potential_pair, identity_pushforward, GRID)
    assert np.abs(composed.d.entries - (d.entries + v.entries)).max() <= 1e-14
    assert composes(defect_profiles)


def test_compose_random_configurations():
    """Naive-composition defects decay at the t^-2 rate for random pairs
    pushed through a grading-preserving unitary."""
    rng = rng_for(43)
    for trial in range(5):
        space = balanced_space(8)
        gens = {
            "a_even": random_even(rng, space, norm=1.0),
            "a_odd": random_odd(rng, space, norm=1.0),
        }
        p_ab = AsymptoticPair(gens, random_odd_selfadjoint(rng, space, norm=1.0))
        u = random_even_unitary(rng, space)

        def push(m, _u=u):
            return GradedMatrix(m.space, _u.entries @ m.entries @ _u.entries.conj().T)

        p_bc = AsymptoticPair({"b": random_even(rng, space)}, random_odd_selfadjoint(rng, space, norm=1.0))
        _, defect_profiles = compose_pairs(p_ab, p_bc, push, GRID)
        assert composes(defect_profiles), f"trial {trial}"


def test_compose_requires_pushforward_and_matching_space():
    rng = rng_for(44)
    space = balanced_space(4)
    pair = AsymptoticPair({"a": identity(space)}, random_odd_selfadjoint(rng, space))
    with pytest.raises(ValueError):
        compose_pairs(pair, pair, None, GRID)
    bigger = balanced_space(8)
    target = AsymptoticPair({"b": identity(bigger)}, random_odd_selfadjoint(rng, bigger))
    with pytest.raises(ValueError):
        compose_pairs(pair, target, identity_pushforward, GRID)


def test_pushforward_functoriality():
    """Pushing forward through two unitaries equals pushing through their product."""
    rng = rng_for(45)
    space = balanced_space(6)
    u1 = random_even_unitary(rng, space)
    u2 = random_even_unitary(rng, space)
    m = random_odd(rng, space)

    def conj(u, x):
        return GradedMatrix(space, u.entries @ x.entries @ u.entries.conj().T)

    chained = conj(u2, conj(u1, m))
    combined = conj(GradedMatrix(space, u2.entries @ u1.entries), m)
    assert np.abs(chained.entries - combined.entries).max() <= 1e-12


# -- comultiplication: the graded-tensor lifts D (x) 1 and 1 (x) D -------------


def lifts(d):
    one = identity(d.space)
    return as_odd(graded_tensor(d, one)), as_odd(graded_tensor(one, d))


def test_comultiplication_zero():
    left, right = lifts(as_odd(zeros(TWO)))
    even_prof, odd_prof = factorization_defect_profiles(left, right, GRID)
    assert np.all(even_prof.values == 0.0) and np.all(odd_prof.values == 0.0)


def test_comultiplication_pauli_against_kron_oracle():
    """gauss0 of the summed lifts equals the Kronecker product of the
    one-factor heat kernels, computed directly, and the heat kernel of
    the sum factors exactly."""
    left, right = lifts(SX)
    # direct 4x4 oracle: lifts are sx (x) 1 and gamma (x) sx, in the parity
    # order e(x)e, o(x)o, e(x)o, o(x)e of the Kronecker basis
    order = np.ix_([0, 3, 1, 2], [0, 3, 1, 2])
    gamma = np.diag([1.0, -1.0]).astype(complex)
    sx = SIGMA_X.entries
    assert np.array_equal(left.entries, np.kron(sx, np.eye(2))[order])
    assert np.array_equal(right.entries, np.kron(gamma, sx)[order])
    wx, vx = np.linalg.eigh(sx)
    heat_x = (vx * np.exp(-(wx**2))[None, :]) @ vx.conj().T
    heat_sum = Spectrum.of(left + right).apply(GAUSS0)
    assert np.abs(heat_sum - np.kron(heat_x, heat_x)[order]).max() <= 1e-12
    even_prof, odd_prof = factorization_defect_profiles(left, right, GRID)
    assert even_prof.values.max() <= 1e-12
    assert odd_prof.values.max() <= 1e-12


def test_comultiplication_random():
    rng = rng_for(46)
    left, right = lifts(random_odd_selfadjoint(rng, balanced_space(8)))
    assert operator_norm(graded_commutator(left, right)) <= 1e-12
    even_prof, odd_prof = factorization_defect_profiles(left, right, GRID)
    assert even_prof.values.max() <= 1e-10
    assert odd_prof.values.max() <= 1e-10


# -- determinism -------------------------------------------------------------------


def test_profile_points_parallelize_deterministically():
    """Grid points are pure functions of (t, inputs): evaluating them
    across threads reproduces the serial profile exactly."""
    from concurrent.futures import ThreadPoolExecutor

    rng = rng_for(53)
    space = balanced_space(8)
    spec = Spectrum.of(random_odd_selfadjoint(rng, space))
    a = random_even(rng, space)

    def commutator(t):
        return graded_commutator(GradedMatrix(space, spec.apply(GAUSS0, 1.0 / t)), a)

    def point(t):
        return operator_norm(commutator(t))

    serial = norm_profile(commutator)
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(point, GRID))
    np.testing.assert_array_equal(np.asarray(threaded), serial.values)


def test_readme_library_example_runs(capsys):
    """The README's python block runs as printed, and its pair's gauss1
    profile meets t ||[f(D/t), a]|| <= c_f ||[D, a]|| = 2 nearly sharply."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    (example,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    exec(compile(example, str(readme), "exec"), {})
    lhs, holds = capsys.readouterr().out.split()
    assert 1.99 <= float(lhs) <= 2.0 and holds == "True"
