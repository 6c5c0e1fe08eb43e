import numpy as np
import pytest

from gradedlab import (
    AsymptoticPair,
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    RepresentedAlgebra,
    Spectrum,
    apply_function,
    compose_pairs,
    conjugate_by_grading,
    cutoff_function,
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
from gradedlab.funcalc import GAUSS0, GAUSS1, PAIR_FUNCTIONS
from gradedlab.graded import operator_norms
from gradedlab.pairs import COMPOSE_EXPONENT_THRESHOLD, DecayProfile
from gradedlab.sampling import (
    balanced_space,
    random_even,
    random_even_unitary,
    random_odd,
    random_odd_selfadjoint,
    rng_for,
)

from helpers import SIGMA_X, SIGMA_Y, SIGMA_Z, SX, SY, TWO, commutes_asymptotically, composes, within_containment

GRID = default_t_grid(points=24)


def two_block_pair():
    """Four-dimensional pair whose algebra and operator live in the top block."""
    space = GradedSpace((0, 1, 0, 1))
    gen = direct_sum(identity(TWO), zeros(TWO))
    d = OddSelfAdjoint(direct_sum(SIGMA_X, zeros(TWO)))
    corner = GradedMatrix(space, np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    rep = RepresentedAlgebra(space, {"unit_top": gen})
    return AsymptoticPair(rep, d, corner)


def norm_profile(family):
    """Profile of t -> ||family(t)|| over GRID."""
    return DecayProfile.from_values(GRID, [operator_norm(family(float(t))) for t in GRID])


# -- decay profiles ----------------------------------------------------------


def test_decay_profile_zero_family():
    profile = norm_profile(lambda t: zeros(TWO))
    assert np.all(profile.values == 0.0)
    assert profile.fitted_exponent == float("-inf")
    assert profile.fitted_constant == 0.0


def test_decay_profile_exact_power_law():
    profile = norm_profile(lambda t: (t**-2.0) * identity(TWO))
    assert abs(profile.fitted_exponent + 2.0) <= 1e-6
    assert abs(profile.fitted_constant - 1.0) <= 1e-6


def test_decay_profile_random_commutator_family():
    """Heat commutators of a random pair decay at the resolvent rate."""
    rng = rng_for(30)
    space = balanced_space(8)
    d = random_odd_selfadjoint(rng, space)
    spec_t = random_even(rng, space)
    profile = norm_profile(lambda t: graded_commutator(apply_function(d, GAUSS0, 1.0 / t), spec_t))
    assert profile.fitted_exponent <= -0.75


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decay_profile_non_finite_fit_window_fails(bad):
    grid = default_t_grid()
    everywhere = DecayProfile.from_values(grid, np.full(grid.size, bad))
    one_point = DecayProfile.from_values(grid, np.where(np.arange(grid.size) == grid.size - 3, bad, grid**-2.0))
    for profile in (everywhere, one_point):
        assert np.isnan(profile.fitted_exponent)
        assert not profile.fitted_exponent <= COMPOSE_EXPONENT_THRESHOLD
        assert not profile.fitted_exponent <= float("-inf")
    # the fit window is the upper half of the grid; earlier points do not fit
    early = DecayProfile.from_values(grid, np.where(np.arange(grid.size) == 0, bad, grid**-2.0))
    assert abs(early.fitted_exponent + 2.0) <= 1e-6


def test_decay_profile_grid_errors():
    with pytest.raises(ValueError):
        DecayProfile.from_values(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        DecayProfile.from_values(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        DecayProfile.from_values(GRID, np.zeros(GRID.size - 1))
    with pytest.raises(ValueError):
        DecayProfile.from_values(np.array([1.0, 1.0]), np.array([1.0, 1.0]))


def test_decay_profile_serialization():
    profile = norm_profile(lambda t: (t**-1.0) * identity(TWO))
    lines = profile.csv_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == GRID.size + 1
    t0, v0 = lines[1].split(",")
    assert float(t0) == GRID[0] and abs(float(v0) - 1.0) < 1e-12


# -- pair validation ---------------------------------------------------------


def test_validate_pair_identity_generator():
    rng = rng_for(31)
    space = balanced_space(6)
    rep = RepresentedAlgebra(space, {"unit": identity(space)})
    pair = AsymptoticPair(rep, random_odd_selfadjoint(rng, space))
    report = validate_pair(pair, GRID)
    assert commutes_asymptotically(report)
    assert report.containment == {"unit": {}}  # no corner, nothing measured


def test_validate_pair_pauli_closed_form():
    """For rep {sigma_z}, D = sigma_x the odd heat commutator has norm
    exactly 2 t^-1 e^(-1/t^2)."""
    rep = RepresentedAlgebra(TWO, {"z": SIGMA_Z})
    pair = AsymptoticPair(rep, SX)
    report = validate_pair(pair, GRID)
    profile = report.profiles["z"][GAUSS1.name]
    expected = 2.0 / GRID * np.exp(-1.0 / GRID**2)
    np.testing.assert_allclose(profile.values, expected, rtol=1e-10)
    assert abs(profile.fitted_exponent + 1.0) <= 0.01
    assert commutes_asymptotically(report)


def test_validate_pair_space_mismatch():
    rep = RepresentedAlgebra(TWO, {"z": SIGMA_Z})
    other = OddSelfAdjoint(direct_sum(SIGMA_X, zeros(TWO)))
    with pytest.raises(ValueError):
        AsymptoticPair(rep, other)


def test_validate_pair_block_corner():
    report = validate_pair(two_block_pair(), GRID)
    assert within_containment(report)
    assert commutes_asymptotically(report)


def test_corner_requires_projection():
    bad = GradedMatrix(TWO, np.array([[0.5, 0], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        AsymptoticPair(RepresentedAlgebra(TWO, {"z": SIGMA_Z}), SX, bad)


# -- group structure: block sums and the opposite pair ----------------------


def block_sum(p, q):
    """(diag(phi, psi), diag(D, D')) for pairs with the same generator names."""
    gens = {name: direct_sum(g, q.rep.generators[name]) for name, g in p.rep.generators.items()}
    d = OddSelfAdjoint(direct_sum(p.d.underlying, q.d.underlying))
    return AsymptoticPair(RepresentedAlgebra(d.space, gens), d)


def opposite(p):
    """The additive inverse (gamma phi gamma, -D) of a pair."""
    gens = {name: conjugate_by_grading(g) for name, g in p.rep.generators.items()}
    return AsymptoticPair(RepresentedAlgebra(p.space, gens), -p.d)


def test_pair_sum_with_zero_pair_keeps_profiles():
    rng = rng_for(32)
    space = balanced_space(4)
    gens = {"a": random_even(rng, space, norm=1.0)}
    pair = AsymptoticPair(RepresentedAlgebra(space, gens), random_odd_selfadjoint(rng, space))
    zero_pair = AsymptoticPair(
        RepresentedAlgebra(space, {"a": zeros(space)}), OddSelfAdjoint(zeros(space))
    )
    total = block_sum(pair, zero_pair)
    rep_a = validate_pair(pair, GRID).profiles["a"]
    rep_total = validate_pair(total, GRID).profiles["a"]
    for fn in rep_a:
        np.testing.assert_allclose(rep_total[fn].values, rep_a[fn].values, atol=1e-12)


def test_pair_sum_profile_is_pointwise_max():
    """Block norms make the summed profile the pointwise max of the parts."""
    rng = rng_for(34)
    space = balanced_space(4)
    p = AsymptoticPair(
        RepresentedAlgebra(space, {"a": random_even(rng, space, norm=1.0)}),
        random_odd_selfadjoint(rng, space, norm=1.0),
    )
    q = AsymptoticPair(
        RepresentedAlgebra(space, {"a": random_even(rng, space, norm=1.0)}),
        random_odd_selfadjoint(rng, space, norm=1.0),
    )
    vp = validate_pair(p, GRID).profiles["a"]
    vq = validate_pair(q, GRID).profiles["a"]
    vt = validate_pair(block_sum(p, q), GRID).profiles["a"]
    for fn in vp:
        expected = np.maximum(vp[fn].values, vq[fn].values)
        np.testing.assert_allclose(vt[fn].values, expected, atol=1e-11)


def test_pair_inverse_preserves_profiles():
    """Conjugating by the grading and flipping D leaves every profile value fixed."""
    rng = rng_for(36)
    space = balanced_space(6)
    gens = {"a": random_even(rng, space), "b": random_odd(rng, space)}
    pair = AsymptoticPair(RepresentedAlgebra(space, gens), random_odd_selfadjoint(rng, space))
    direct = validate_pair(pair, GRID).profiles
    flipped = validate_pair(opposite(pair), GRID).profiles
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
    pair = AsymptoticPair(RepresentedAlgebra(space, gens), random_odd_selfadjoint(rng, space))
    doubled = block_sum(pair, opposite(pair))
    vp = validate_pair(pair, GRID).profiles["a"]
    vd = validate_pair(doubled, GRID).profiles["a"]
    for fn in vp:
        np.testing.assert_allclose(vd[fn].values, vp[fn].values, atol=1e-11)


# -- bounded commutator [D, D'] ------------------------------------------------


def test_bounded_commutator_self():
    rng = rng_for(39)
    d = random_odd_selfadjoint(rng, balanced_space(6))
    norm = operator_norm(graded_commutator(d.underlying, d.underlying))
    expected = 2.0 * operator_norm(GradedMatrix(d.space, d.mat @ d.mat))
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
    lift_left = OddSelfAdjoint(graded_tensor(SIGMA_X, identity(TWO)))
    lift_right = OddSelfAdjoint(graded_tensor(identity(TWO), SIGMA_Y))
    even_prof, odd_prof = factorization_defect_profiles(lift_left, lift_right, GRID)
    assert even_prof.values.max() <= 1e-12
    assert odd_prof.values.max() <= 1e-12


def test_factorization_taylor_value():
    """At t = 100 the even defect of (sigma_x, sigma_x) is t^-2 ||[D, D']|| = 2e-4."""
    even_prof, _ = factorization_defect_profiles(SX, SX, np.array([50.0, 100.0]))
    assert abs(even_prof.values[-1] - 2e-4) <= 0.05 * 2e-4


def test_factorization_rate_and_limit():
    """t^2 (even defect) converges to ||[D, D']||; slope is -2 +- 0.1."""
    rng = rng_for(40)
    grid = default_t_grid(10.0, 1e3, 40)
    for _ in range(5):
        space = balanced_space(8)
        d = random_odd_selfadjoint(rng, space, norm=1.0)
        dp = random_odd_selfadjoint(rng, space, norm=1.0)
        even_prof, _ = factorization_defect_profiles(d, dp, grid)
        comm = operator_norm(graded_commutator(d.underlying, dp.underlying))
        assert abs(even_prof.fitted_exponent + 2.0) <= 0.1
        t_last = grid[-1]
        assert abs(t_last**2 * even_prof.values[-1] - comm) <= 0.02 * comm


def test_factorization_defect_rejects_space_mismatch():
    with pytest.raises(ValueError):
        factorization_defect_profiles(SX, OddSelfAdjoint(direct_sum(SIGMA_X, zeros(TWO))), GRID)


# -- composition -----------------------------------------------------------------


def test_compose_with_trivial_pair_is_exact():
    rng = rng_for(41)
    space = balanced_space(6)
    gens = {"a": random_even(rng, space), "b": random_odd(rng, space)}
    pair = AsymptoticPair(RepresentedAlgebra(space, gens), random_odd_selfadjoint(rng, space))
    trivial = AsymptoticPair(
        RepresentedAlgebra(space, {"unit": identity(space)}), OddSelfAdjoint(zeros(space))
    )
    comp = compose_pairs(pair, trivial, identity_pushforward, GRID)
    assert np.array_equal(comp.pair.d.mat, pair.d.mat)
    for name in gens:
        assert np.array_equal(comp.pair.rep.generators[name].entries, gens[name].entries)
    assert composes(comp)
    for per_fn in comp.defect_profiles.values():
        for profile in per_fn.values():
            assert profile.values.max() <= 1e-12


def test_compose_with_bounded_potential_gives_shifted_operator():
    rng = rng_for(42)
    space = balanced_space(6)
    gens = {"a": random_even(rng, space)}
    d = random_odd_selfadjoint(rng, space, norm=1.0)
    v = random_odd_selfadjoint(rng, space, norm=1.0)
    pair = AsymptoticPair(RepresentedAlgebra(space, gens), d)
    potential_pair = AsymptoticPair(
        RepresentedAlgebra(space, {"unit": identity(space)}), v
    )
    comp = compose_pairs(pair, potential_pair, identity_pushforward, GRID)
    assert np.abs(comp.pair.d.mat - (d.mat + v.mat)).max() <= 1e-14
    assert composes(comp)


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
        p_ab = AsymptoticPair(
            RepresentedAlgebra(space, gens), random_odd_selfadjoint(rng, space, norm=1.0)
        )
        u = random_even_unitary(rng, space)

        def push(m, _u=u):
            return GradedMatrix(m.space, _u.entries @ m.entries @ _u.entries.conj().T)

        p_bc = AsymptoticPair(
            RepresentedAlgebra(space, {"b": random_even(rng, space)}),
            random_odd_selfadjoint(rng, space, norm=1.0),
        )
        comp = compose_pairs(p_ab, p_bc, push, GRID)
        assert composes(comp), f"trial {trial}"


def test_compose_requires_pushforward_and_matching_space():
    rng = rng_for(44)
    space = balanced_space(4)
    pair = AsymptoticPair(
        RepresentedAlgebra(space, {"a": identity(space)}), random_odd_selfadjoint(rng, space)
    )
    with pytest.raises(ValueError):
        compose_pairs(pair, pair, None, GRID)
    bigger = balanced_space(8)
    target = AsymptoticPair(
        RepresentedAlgebra(bigger, {"b": identity(bigger)}), random_odd_selfadjoint(rng, bigger)
    )
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
    return OddSelfAdjoint(graded_tensor(d.underlying, one)), OddSelfAdjoint(graded_tensor(one, d.underlying))


def test_comultiplication_zero():
    left, right = lifts(OddSelfAdjoint(zeros(TWO)))
    even_prof, odd_prof = factorization_defect_profiles(left, right, GRID)
    assert np.all(even_prof.values == 0.0) and np.all(odd_prof.values == 0.0)


def test_comultiplication_pauli_against_kron_oracle():
    """gauss0 of the summed lifts equals the Kronecker product of the
    one-factor heat kernels, computed directly, and the heat kernel of
    the sum factors exactly."""
    left, right = lifts(SX)
    # direct 4x4 oracle: lifts are sx (x) 1 and gamma (x) sx
    gamma = np.diag([1.0, -1.0]).astype(complex)
    sx = SIGMA_X.entries
    assert np.array_equal(left.mat, np.kron(sx, np.eye(2)))
    assert np.array_equal(right.mat, np.kron(gamma, sx))
    wx, vx = np.linalg.eigh(sx)
    heat_x = (vx * np.exp(-(wx**2))[None, :]) @ vx.conj().T
    heat_sum = Spectrum.of(left + right).apply(GAUSS0)
    assert np.abs(heat_sum - np.kron(heat_x, heat_x)).max() <= 1e-12
    even_prof, odd_prof = factorization_defect_profiles(left, right, GRID)
    assert even_prof.values.max() <= 1e-12
    assert odd_prof.values.max() <= 1e-12


def test_comultiplication_random():
    rng = rng_for(46)
    left, right = lifts(random_odd_selfadjoint(rng, balanced_space(8)))
    assert operator_norm(graded_commutator(left.underlying, right.underlying)) <= 1e-12
    even_prof, odd_prof = factorization_defect_profiles(left, right, GRID)
    assert even_prof.values.max() <= 1e-10
    assert odd_prof.values.max() <= 1e-10


# -- corner membership -------------------------------------------------------------


def test_corner_membership_full_projection():
    rng = rng_for(47)
    space = balanced_space(4)
    pair = AsymptoticPair(
        RepresentedAlgebra(space, {"a": random_even(rng, space)}),
        random_odd_selfadjoint(rng, space),
        identity(space),
    )
    report = validate_pair(pair, GRID)
    assert within_containment(report)
    assert all(v <= 1e-12 for per in report.containment.values() for v in per.values())


def test_corner_membership_cutoff_identity_is_exact():
    """chi(t^-1 D) f(D) phi(a) = f(D) phi(a) for every t >= 1 when the
    plateau radius of the cutoff chi covers ||D||."""
    pair = two_block_pair()
    spec = Spectrum.of(pair.d)
    cut = spec.apply_grid(cutoff_function(max(operator_norm(pair.d), 1.0)), 1.0 / GRID)
    for f in (GAUSS0, GAUSS1):
        target = spec.apply(f) @ pair.rep.generators["unit_top"].entries
        assert operator_norms(cut @ target - target).max() <= 1e-12


def test_corner_membership_block_mass_zero():
    report = validate_pair(two_block_pair(), GRID)
    assert set(report.containment["unit_top"]) == {f.name for f in PAIR_FUNCTIONS}
    for per in report.containment.values():
        for value in per.values():
            assert value <= 1e-12


def test_profile_points_parallelize_deterministically():
    """Grid points are pure functions of (t, inputs): evaluating them
    across threads reproduces the serial profile exactly."""
    from concurrent.futures import ThreadPoolExecutor

    rng = rng_for(53)
    space = balanced_space(8)
    d = random_odd_selfadjoint(rng, space)
    a = random_even(rng, space)

    def point(t):
        return operator_norm(graded_commutator(apply_function(d, GAUSS0, 1.0 / t), a))

    serial = norm_profile(lambda t: graded_commutator(apply_function(d, GAUSS0, 1.0 / t), a))
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(point, GRID))
    np.testing.assert_array_equal(np.asarray(threaded), serial.values)
