import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from gradedlab import (
    GradedMatrix,
    OddSelfAdjoint,
    graded_commutator,
    graded_tensor,
    identity,
    matrix_exp,
    operator_norm,
    transform_commutator_check,
    transform_sum_sweep,
    zeros,
)
from gradedlab.estimates import (
    SERIES_MAX_TERMS,
    exp_product_bound_check,
    exp_product_path_profiles,
    exp_product_series_bound,
    exp_product_series_terms,
    exp_shift_bound_check,
    THETA_13,
    pade_exps,
)
from gradedlab.experiments import ExperimentConfig, run_experiment
from gradedlab.funcalc import Spectrum, bounded_transform_function
from gradedlab.graded import negligible, operator_norms, parity_parts
from gradedlab.pairs import default_t_grid
from gradedlab.reporting import CERTIFICATE_TOL, BoundCertificate
from gradedlab.sampling import (
    balanced_space,
    random_even,
    random_hermitian_even,
    random_odd_selfadjoint,
    rng_for,
    trial_seed,
)

from helpers import SIGMA_X, SIGMA_Y, SX, TWO, matrix_exp_oracle

GRID = default_t_grid()
# techlemma's default t grid
SWEEP_GRID = default_t_grid(10.0, 1e3, 30)
# the bounds of techlemma's sweep_monotone and sweep_final certificates
MONOTONE_SLACK = 1e-12
FINAL_SUP = 1e-6


# -- matrix exponential ---------------------------------------------------------


def test_matrix_exp_matches_scipy():
    rng = rng_for(60)
    for _ in range(10):
        space = balanced_space(8)
        x = random_even(rng, space, norm=3.0)
        ours = matrix_exp(x)
        reference = scipy.linalg.expm(x.entries)
        assert np.abs(ours.entries - reference).max() <= 1e-11 * np.abs(reference).max()


def test_matrix_exp_hermitian_path():
    rng = rng_for(61)
    space = balanced_space(8)
    x = random_hermitian_even(rng, space, norm=2.0)
    ours = matrix_exp(x)
    reference = scipy.linalg.expm(x.entries)
    assert np.abs(ours.entries - reference).max() <= 1e-11 * np.abs(reference).max()


def test_matrix_exp_inverse_selftest():
    """||e^x e^(-x) - 1|| <= 1e-12 for ||x|| <= 5."""
    rng = rng_for(62)
    space = balanced_space(8)
    for _ in range(20):
        x = random_even(rng, space, norm=5.0 * float(rng.uniform(0.1, 1.0)))
        product = matrix_exp(x) @ matrix_exp(-1.0 * x)
        assert operator_norm(product - identity(space)) <= 1e-12


# Gaussian stacks scaled to 1-norms from 1e-8 to 60: up to four squarings after the
# Pade step, and several squaring counts in one stack.
EXP_NORMS = np.geomspace(1e-8, 60.0, 12)
EXP_DIMS = [1, 2, 4, 8, 16, 34]


def gaussian_exp_stack(seed, d, dtype):
    rng = rng_for(seed)
    stack = rng.standard_normal((EXP_NORMS.size, d, d))
    if dtype is complex:
        stack = stack + 1j * rng.standard_normal(stack.shape)
    return stack * (EXP_NORMS / np.abs(stack).sum(axis=-2).max(axis=-1))[:, None, None]


def relative_error(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def exp_tolerance(m) -> float:
    """1e-13 relative, doubled for each squaring the kernel runs on m: squaring
    doubles the relative error of the scaled approximant.  This matters for
    e^z of a scalar with Re z << 0, where the Pade step cancels: 300 random
    complex z with |z| = 40 (three squarings) gave up to 2.1e-13."""
    return 1e-13 * 2.0 ** max(0, math.ceil(math.log2(np.abs(m).sum(axis=0).max() / THETA_13)))


def mpmath_expm(m, dps):
    with mpmath.workdps(dps):
        return np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=complex)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("d", EXP_DIMS)
def test_pade_exps_equal_their_one_matrix_stacks(d, dtype):
    """Each matrix of a stack, with several squaring counts in it, equals its
    one-matrix stack bit for bit, in the stack's dtype."""
    stack = gaussian_exp_stack(90 + d, d, dtype)
    got = pade_exps(stack)
    assert got.dtype == stack.dtype
    for m, e in zip(stack, got):
        assert np.array_equal(e, pade_exps(m[None])[0])


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("d", EXP_DIMS)
def test_pade_exps_match_scipy(d, dtype):
    """Within exp_tolerance of scipy's expm, relative to its largest entry.
    scipy is itself off by up to 7e-13 on a few real non-normal matrices here
    (d = 2 at ||m||_1 = 7.7, d = 4 at 60); there a 40-digit mpmath value
    decides, and the Pade kernel must be within the tolerance of it and scipy not."""
    stack = gaussian_exp_stack(70 + d, d, dtype)
    for m, e in zip(stack, pade_exps(stack)):
        reference, tol = scipy.linalg.expm(m), exp_tolerance(m)
        if relative_error(e, reference) > tol:
            exact = mpmath_expm(m, 40)
            assert relative_error(e, exact) <= tol < relative_error(reference, exact)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_pade_exps_match_mpmath(d, dtype):
    """Within exp_tolerance of a 30-digit mpmath expm, relative to its largest entry."""
    stack = gaussian_exp_stack(80 + d, d, dtype)
    for m, e in zip(stack, pade_exps(stack)):
        assert relative_error(e, mpmath_expm(m, 30)) <= exp_tolerance(m)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("d", EXP_DIMS)
def test_pade_exps_match_eigh_on_hermitian_negative_semidefinite_stacks(d, dtype):
    """-t^-2 D^2, the operand of appendixB's path, is Hermitian and negative
    semidefinite, with ||x|| up to 100 at a t_grid start of 0.1.  On such
    stacks, with norms from 1e-3 to 100, the Pade kernel is within 128 eps
    absolute of U e^Lambda U* from eigh; the largest error seen is 37 eps
    (up to 10 squarings, and eigh's own d eps)."""
    rng = rng_for(100 + d)
    g = rng.standard_normal((12, d, d))
    if dtype is complex:
        g = g + 1j * rng.standard_normal(g.shape)
    stack = -(g @ g.conj().swapaxes(-1, -2))
    stack *= (np.geomspace(1e-3, 100.0, 12) / operator_norms(stack))[:, None, None]
    values, vectors = np.linalg.eigh(stack)
    reference = (vectors * np.exp(values)[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
    assert np.abs(pade_exps(stack) - reference).max() <= 128 * np.finfo(float).eps


def test_pade_exps_of_zero_is_the_identity_and_non_finite_input_is_refused():
    for d in (1, 4):
        assert np.array_equal(pade_exps(np.zeros((2, d, d))), np.broadcast_to(np.eye(d), (2, d, d)))
        assert np.array_equal(pade_exps(np.zeros((1, d, d), dtype=complex))[0], np.eye(d))
    for bad in (np.nan, np.inf, -np.inf):
        stack = np.ones((3, 4, 4))
        stack[1, 2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pade_exps(stack)


# -- exponential shift bound -----------------------------------------------------


def test_exp_shift_zero_case():
    assert exp_shift_bound_check(zeros(TWO), zeros(TWO)) == (0.0, 0.0)


def test_exp_shift_commuting_diagonal_oracle():
    """Scalar evaluation: max |e^(x_i + y_i) - e^(x_i)| <= 0.5 e^2."""
    x = GradedMatrix(TWO, np.diag([1.0, -1.0]).astype(complex))
    y = GradedMatrix(TWO, np.diag([0.5, 0.5]).astype(complex))
    lhs, rhs = exp_shift_bound_check(x, y)
    expected = max(abs(math.exp(1.5) - math.e), abs(math.exp(-0.5) - math.exp(-1.0)))
    assert abs(lhs - expected) <= 1e-12
    assert rhs == 0.5 * math.exp(2.0)
    assert lhs <= rhs


def test_exp_shift_requires_small_shift_and_even_inputs():
    small = GradedMatrix(TWO, np.diag([0.1, 0.1]).astype(complex))
    big = GradedMatrix(TWO, np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError):
        exp_shift_bound_check(small, big)
    with pytest.raises(ValueError):
        exp_shift_bound_check(SIGMA_X, SIGMA_X)


def test_exp_shift_random_suite():
    rng = rng_for(63)
    for trial in range(100):
        space = balanced_space(int(rng.choice([4, 8, 16])))
        x = random_even(rng, space, norm=3.0 * float(rng.uniform(0.1, 1.0)))
        y = random_even(rng, space, norm=operator_norm(x) * float(rng.uniform(0.0, 1.0)))
        lhs, rhs = exp_shift_bound_check(x, y)
        assert rhs - lhs >= -CERTIFICATE_TOL, f"trial {trial}: margin {rhs - lhs}"


# -- exponential product bound ----------------------------------------------------


def test_exp_product_commuting_diagonal():
    rng = rng_for(64)
    space = balanced_space(6)
    x = GradedMatrix(space, np.diag(rng.standard_normal(6)).astype(complex))
    y = GradedMatrix(space, np.diag(rng.standard_normal(6)).astype(complex))
    lhs, _ = exp_product_bound_check(x, y)
    assert lhs <= 1e-12


def test_exp_product_equal_commuting_path_point():
    """x_t = y_t = -1/t^2 from D = D' = sigma_x: defect vanishes."""
    t = 7.0
    x = GradedMatrix(TWO, (-1.0 / t**2) * (SIGMA_X.entries @ SIGMA_X.entries))
    lhs, _ = exp_product_bound_check(x, x)
    assert lhs <= 1e-13


def test_exp_product_random_suite():
    rng = rng_for(65)
    for trial in range(100):
        space = balanced_space(int(rng.choice([4, 8, 16])))
        x = random_even(rng, space, norm=float(rng.uniform(0.05, 1.0)))
        y = random_even(rng, space, norm=float(rng.uniform(0.05, 1.0)))
        lhs, rhs = exp_product_bound_check(x, y)
        assert rhs - lhs >= -CERTIFICATE_TOL, f"trial {trial}: margin {rhs - lhs}"


def test_exp_product_path_profiles_decay():
    rng = rng_for(66)
    space = balanced_space(8)
    d = random_odd_selfadjoint(rng, space, norm=1.0)
    dp = random_odd_selfadjoint(rng, space, norm=1.0)
    lhs, rhs = exp_product_path_profiles(d, dp, GRID)
    assert np.all(lhs.values <= rhs.values + 1e-10)
    assert lhs.fitted_exponent <= -1.75


def test_series_bound_is_finite_and_scales_linearly():
    b1 = exp_product_series_bound(1.0, 1.0)
    b2 = exp_product_series_bound(2.0, 1.0)
    assert 0.0 < b1 < 100.0
    assert abs(b2 - 2.0 * b1) <= 1e-12 * b1
    assert exp_product_series_bound(0.0, 5.0) == 0.0


def series_oracle(commutator_norm, m_bound, stop=1000):
    """The swap-counting series over degrees 2 .. stop - 1 at 40 digits; the
    default stop runs far past the peak of every series tested here."""
    with mpmath.workdps(40):
        c, m = mpmath.mpf(commutator_norm), mpmath.mpf(m_bound)
        return mpmath.fsum((n + 1) * mpmath.mpf(n * n) / 4 * c * m ** (n - 2) / mpmath.factorial(n // 2) ** 2
                           for n in range(2, stop))


@pytest.mark.parametrize(
    "commutator_norm, m_bound",
    [(2.0, 3.0), (1.0, 50.0), (1.0, 100.0), (1e-310, 1e-3), (1e-300, 60.0)],
    ids=["moderate", "power-overflows", "factorial-and-power-overflow", "subnormal-commutator", "terms-underflow"],
)
def test_series_bound_matches_mpmath(commutator_norm, m_bound):
    """Bounds whose float terms overflow (M^(n-2) at M = 50; (n/2)! and M^(n-2)
    at M = 100), start subnormal, or underflow to 0 long before the series
    peaks (||[x,y]|| = 1e-300, M = 60), against the whole series."""
    want = float(series_oracle(commutator_norm, m_bound))
    assert exp_product_series_bound(commutator_norm, m_bound) == pytest.approx(want, rel=3e-14, abs=0)


@pytest.mark.parametrize("m_bound", [50.0, 100.0, 130.0])
def test_series_bound_with_its_tail_is_above_the_series(m_bound):
    """Where the terms fall slowly, the partial sum at the 1e-16 cutoff is
    5.0e-15 (M = 50) to 2.1e-14 (M = 130) below the series; with the
    geometric bound on its tail the bound is above the 40-digit sum, and
    above it by less than 1e-14 of it."""
    want = series_oracle(1.0, m_bound)
    got = mpmath.mpf(exp_product_series_bound(1.0, m_bound))
    assert want <= got <= want * (1 + mpmath.mpf(1e-14))


def test_series_bound_is_inf_past_its_term_cap():
    """At M = 150 the terms are still above the cutoff at SERIES_MAX_TERMS,
    where the partial sum falls short of the (finite) series, so it is no
    bound: the bound is inf.  At M = 130 the cutoff comes first."""
    assert exp_product_series_bound(1.0, 150.0) == math.inf
    assert series_oracle(1.0, 150.0, SERIES_MAX_TERMS) < series_oracle(1.0, 150.0) < mpmath.inf
    assert exp_product_series_bound(1.0, 130.0) == pytest.approx(float(series_oracle(1.0, 130.0)), rel=3e-14)


def test_series_two_step_ratio_test():
    """Terms alternate with the floor(n/2)! plateau, so convergence shows
    in the two-step ratios, which eventually drop below 1/2."""
    terms = exp_product_series_terms(1.0, 1.0, 120)
    two_step = terms[2:] / terms[:-2]
    assert two_step[40:].max() < 0.5
    # single-step ratios genuinely oscillate above 1 early on
    one_step = terms[1:] / terms[:-1]
    assert one_step[:10].max() > 1.0


# -- transform commutator bound -----------------------------------------------------


def test_transform_commutator_tensor_lifts():
    lift_d = OddSelfAdjoint(graded_tensor(SIGMA_X, identity(TWO)))
    lift_dp = OddSelfAdjoint(graded_tensor(identity(TWO), SIGMA_Y))
    lhs, rhs = transform_commutator_check(lift_d, lift_dp, [0.5, 1.0, 2.0], GRID)
    assert lhs.shape == (3, 1 + GRID.size) and rhs == 0.0
    assert np.all(lhs <= 1e-12)


def test_transform_commutator_pauli_values():
    """i_1(sigma_x) = sigma_x / 2, so the smoothed self-commutator is
    2 (1/2)^2 = 1/2 against the plain value 2."""
    lhs, rhs = transform_commutator_check(SX, SX, [1.0], GRID)
    assert abs(lhs[0, 0] - 0.5) <= 1e-12
    assert abs(rhs - 2.0) <= 1e-12


def test_transform_commutator_random_suite():
    rng = rng_for(67)
    for trial in range(30):
        space = balanced_space(int(rng.choice([4, 8, 16])))
        d = random_odd_selfadjoint(rng, space)
        dp = random_odd_selfadjoint(rng, space)
        lhs, rhs = transform_commutator_check(d, dp, [0.5, 1, 2, 4, 8, 16], GRID)
        # column 0 against ||[D, D']||, column 1 + k against t_k^-2 ||[D, D']||
        bounds = rhs * np.concatenate([[1.0], 1.0 / GRID**2])
        assert np.all(bounds - lhs >= -CERTIFICATE_TOL), f"trial {trial}"


def test_transform_commutator_rejects_bad_scales():
    with pytest.raises(ValueError):
        transform_commutator_check(SX, SX, [0.0, 1.0], GRID)


def test_transform_commutator_rejects_empty_scale_grid():
    with pytest.raises(ValueError):
        transform_commutator_check(SX, SX, [], GRID)


# -- double-limit sweep ---------------------------------------------------------------


def test_sweep_zero_operators():
    d0 = OddSelfAdjoint(zeros(TWO))
    report = transform_sum_sweep(d0, d0, SWEEP_GRID)
    assert np.all(report.suprema == 0.0)
    assert report.relative_bounds == ((0.0, 1.0), (0.0, 1.0))
    assert np.all(report.defects == 0.0)


def test_sweep_commuting_scalar_oracle():
    """For D' = 2D the joint eigenbasis reduces the sweep to scalars."""
    rng = rng_for(68)
    space = balanced_space(6)
    d = random_odd_selfadjoint(rng, space, norm=1.0)
    d_prime = OddSelfAdjoint(2.0 * d.underlying)
    n_grid = [1.0, 4.0, 16.0]
    t_grid = np.geomspace(10.0, 100.0, 5)
    report = transform_sum_sweep(d, d_prime, n_grid=n_grid, t_grid=t_grid)
    eigenvalues = Spectrum.of(d).eigenvalues
    for i, n in enumerate(n_grid):
        transform = bounded_transform_function(n)
        for j, t in enumerate(t_grid):
            lam = eigenvalues / t
            smoothed = np.asarray(transform(lam)) + np.asarray(transform(2.0 * lam))
            scalar = np.abs(1.0 / (smoothed + 1j) - 1.0 / (3.0 * lam + 1j)).max()
            assert abs(report.defects[i, j] - scalar) <= 1e-12


def test_sweep_random_suite():
    rng = rng_for(69)
    for trial in range(5):
        space = balanced_space(8)
        d = random_odd_selfadjoint(rng, space, norm=1.0)
        dp = random_odd_selfadjoint(rng, space, norm=1.0)
        report = transform_sum_sweep(d, dp, SWEEP_GRID)
        assert np.all(np.diff(report.suprema) <= MONOTONE_SLACK), f"trial {trial}: suprema {report.suprema}"
        assert report.suprema[-1] <= FINAL_SUP
        for lhs, rhs in report.relative_bounds:
            assert rhs - lhs >= -CERTIFICATE_TOL


def test_sweep_relative_bound_certificate_values():
    """||D (D + D' + i)^-1||^2 <= 1 + ||[D, D']|| measured directly."""
    rng = rng_for(70)
    space = balanced_space(8)
    d = random_odd_selfadjoint(rng, space)
    dp = random_odd_selfadjoint(rng, space)
    report = transform_sum_sweep(d, dp, SWEEP_GRID)
    resolvent = np.linalg.inv(d.mat + dp.mat + 1j * np.eye(8))
    direct = operator_norm(d.mat @ resolvent) ** 2
    (lhs, rhs), _ = report.relative_bounds
    assert abs(lhs - direct) <= 1e-12
    comm = operator_norm(graded_commutator(d.underlying, dp.underlying))
    assert abs(rhs - (1.0 + comm)) <= 1e-12


def test_relative_bound_holds_for_100_random_pairs():
    """||D (D + D' + i)^-1||^2 <= 1 + ||[D, D']|| directly, 100 pairs."""
    rng = rng_for(71)
    for trial in range(100):
        space = balanced_space(int(rng.choice([4, 8])))
        d = random_odd_selfadjoint(rng, space)
        dp = random_odd_selfadjoint(rng, space)
        resolvent = np.linalg.inv(d.mat + dp.mat + 1j * np.eye(space.dim))
        lhs = operator_norm(d.mat @ resolvent) ** 2
        rhs = 1.0 + operator_norm(graded_commutator(d.underlying, dp.underlying))
        assert lhs <= rhs + 1e-10, f"trial {trial}"


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        transform_sum_sweep(SX, SX, SWEEP_GRID, n_grid=[])
    with pytest.raises(ValueError):
        transform_sum_sweep(SX, SX, t_grid=np.array([1.0]))


# -- appendixB's trials ------------------------------------------------------------


def appendix_b_trial_oracle(cfg):
    """appendixB's exp_shift and exp_product certificates from a loop over
    trials, each drawn with random_even and measured one matrix at a time."""
    certs = []
    for i in range(cfg.trials):
        seed = trial_seed(cfg.seed, i)
        rng = rng_for(seed)
        space = balanced_space(cfg.dims[i % len(cfg.dims)])
        x = random_even(rng, space, norm=3.0 * float(rng.uniform(0.1, 1.0)))
        y = random_even(rng, space, norm=operator_norm(x) * float(rng.uniform(0.0, 1.0)))
        assert all(negligible(parity_parts(space, m.entries)[1], m.entries) for m in (x, y))
        nx, ny = operator_norm(x), operator_norm(y)
        lhs = operator_norm(matrix_exp_oracle((x + y).entries) - matrix_exp_oracle(x.entries))
        certs.append(BoundCertificate("exp_shift", lhs, ny * math.exp(2.0 * nx), list(seed)))
        x1 = random_even(rng, space, norm=float(rng.uniform(0.05, 1.0)))
        y1 = random_even(rng, space, norm=float(rng.uniform(0.05, 1.0)))
        product = matrix_exp_oracle(x1.entries) @ matrix_exp_oracle(y1.entries)
        lhs = operator_norm(matrix_exp_oracle((x1 + y1).entries) - product)
        comm = operator_norm(graded_commutator(x1, y1))
        rhs = exp_product_series_bound(comm, max(operator_norm(x1), operator_norm(y1)))
        certs.append(BoundCertificate("exp_product", lhs, rhs, list(seed)))
    return certs


@pytest.mark.parametrize("trials,dims", [(55, (4, 16, 8)), (37, (16, 4, 16))])
def test_appendix_b_trials_equal_the_per_trial_loop(trials, dims):
    """appendixB checks the trials of one dimension as stacks, in blocks of
    STACK_ENTRIES // (4 d^2) trials (16 at d = 16); these trial counts leave
    partial blocks, and a repeated dimension joins one group.  Every
    certificate equals the per-trial loop bit for bit, in trial order."""
    cfg = ExperimentConfig("appendixB", seed=5, trials=trials, dims=dims)
    got = run_experiment(cfg).certificates[: 2 * trials]

    def bits(certs):
        return [(c.check, c.lhs.hex(), c.rhs.hex(), c.seed) for c in certs]

    assert bits(got) == bits(appendix_b_trial_oracle(cfg))
