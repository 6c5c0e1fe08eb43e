import math

import numpy as np
import pytest

from gradedlab import (
    AsymptoticPair,
    GradedMatrix,
    OddSelfAdjoint,
    RepresentedAlgebra,
    Spectrum,
    bott_dirac,
    dc_commutator_check,
    graded_commutator,
    graded_tensor,
    ground_vector,
    hermite_model,
    identity,
    multiplication_generators,
    operator_norm,
    perturbation_check,
    spectrum_and_kernel,
    validate_pair,
    zeros,
)
from gradedlab.estimates import BoundCertificate
from gradedlab.experiments import ExperimentConfig, _worst_exponent, run_experiment
from gradedlab.funcalc import CAYLEY
from gradedlab.pairs import COMMUTATION_EXPONENT_THRESHOLD, COMPOSE_EXPONENT_THRESHOLD, DecayProfile, default_t_grid
from gradedlab.sampling import balanced_space, random_even, rng_for

from helpers import SIGMA_X, SIGMA_Y, SX, TWO, commutes_asymptotically, composes, fitted_exponents, max_abs

GRID = default_t_grid(points=24)


# -- clifford generators from graded-tensor lifts ------------------------------


def clifford_generators(n):
    """e_1..e_n of Cliff_C(R^n) on ceil(n/2) graded factors C^(1|1):
    e_(2k-1) and e_(2k) lift sigma_x and sigma_y to factor k.  The Koszul
    sign of graded_tensor supplies the Jordan-Wigner string Z..Z."""
    gens = []
    for index in range(n):
        lifted = None
        for factor in range((n + 1) // 2):
            m = (SIGMA_X, SIGMA_Y)[index % 2] if factor == index // 2 else identity(TWO)
            lifted = m if lifted is None else graded_tensor(lifted, m)
        gens.append(lifted)
    return gens


def test_clifford_one_is_sigma_x():
    (e1,) = clifford_generators(1)
    assert e1.space.parity == (0, 1)
    assert np.array_equal(e1.entries, SIGMA_X.entries)


def test_clifford_two_anticommute_and_square():
    e1, e2 = clifford_generators(2)
    assert max_abs(e1 @ e2 + e2 @ e1) <= 1e-14
    assert max_abs(e1 @ e1 - identity(e1.space)) <= 1e-14
    assert max_abs(e2 @ e2 - identity(e2.space)) <= 1e-14


def test_clifford_relations_all_supported_sizes():
    """[e_i, e_j] = 2 delta_ij in the graded sense, for every n <= 6."""
    for n in range(1, 7):
        gens = clifford_generators(n)
        space = gens[0].space
        assert space.dim == 2 ** ((n + 1) // 2)
        for i, ei in enumerate(gens):
            assert ei.parity() == 1 and ei.is_hermitian()
            for j, ej in enumerate(gens):
                expected = 2.0 * identity(space) if i == j else zeros(space)
                assert operator_norm(graded_commutator(ei, ej) - expected) <= 1e-12


# -- hermite model -------------------------------------------------------------


def test_hermite_ladder_matrix_element():
    model = hermite_model(16)
    assert abs(model.x_mat[0, 1] - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert abs(model.d_mat[0, 1] - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert abs(model.d_mat[1, 0] + 1.0 / math.sqrt(2.0)) <= 1e-15


def test_hermite_structure():
    model = hermite_model(32)
    assert np.abs(model.x_mat - model.x_mat.T).max() == 0.0
    assert np.abs(model.d_mat + model.d_mat.T).max() == 0.0


def test_hermite_canonical_commutation_interior():
    """[d, x] = 1 on all but the top truncation level."""
    model = hermite_model(32)
    comm = model.d_mat @ model.x_mat - model.x_mat @ model.d_mat
    interior = np.diag((np.arange(32) < 30).astype(float))
    assert np.abs(interior @ (comm - np.eye(32)) @ interior).max() <= 1e-12


def test_hermite_eigenvalues_are_gauss_hermite_nodes():
    model = hermite_model(64)
    nodes = np.polynomial.hermite.hermgauss(64)[0]
    eigenvalues = np.linalg.eigvalsh(model.x_mat)
    np.testing.assert_allclose(eigenvalues, nodes, atol=1e-8)


def test_hermite_model_validation():
    with pytest.raises(ValueError):
        hermite_model(4)
    with pytest.raises(ValueError):
        hermite_model(16, 0)


# -- bott-dirac -----------------------------------------------------------------


def test_bott_operators_are_odd_selfadjoint():
    ops = bott_dirac(hermite_model(16))
    # OddSelfAdjoint construction is itself the Hermitian/odd check
    assert isinstance(ops.dirac, OddSelfAdjoint)
    assert isinstance(ops.clifford_mult, OddSelfAdjoint)
    assert ops.space.dim == 31


def test_bott_ground_vector_is_annihilated():
    ops = bott_dirac(hermite_model(64))
    residual = np.linalg.norm(ops.bott.mat @ ground_vector(ops))
    assert residual <= 1e-10


def test_bott_kernel_is_one_dimensional():
    for n_basis in (32, 64):
        ops = bott_dirac(hermite_model(n_basis))
        eigenvalues, kernel_dim = spectrum_and_kernel(ops.bott, 1e-8)
        assert kernel_dim == 1
        magnitudes = np.sort(np.abs(eigenvalues))
        assert abs(magnitudes[1] - math.sqrt(2.0)) <= 1e-6


def test_bott_spectrum_matches_ladder_oracle():
    """Nonzero eigenvalue magnitudes are sqrt(2k), k = 1, 2, ..., each
    seen twice (once per fiber sector)."""
    ops = bott_dirac(hermite_model(32))
    magnitudes = np.sort(np.abs(np.linalg.eigvalsh(ops.bott.mat)))
    expected = np.sort(
        np.concatenate([[0.0], *[[math.sqrt(2 * k)] * 2 for k in range(1, 32)]])
    )
    np.testing.assert_allclose(magnitudes, expected, atol=1e-10)


def test_bott_spectrum_is_symmetric():
    ops = bott_dirac(hermite_model(24))
    eigenvalues = np.sort(np.linalg.eigvalsh(ops.bott.mat))
    np.testing.assert_allclose(eigenvalues, -eigenvalues[::-1], atol=1e-10)


def test_dc_anticommutator_is_degree_involution_on_interior():
    ops = bott_dirac(hermite_model(32))
    report = dc_commutator_check(ops)
    assert report["interior_defect_vs_involution"] <= 1e-10
    # the anticommutator has both involution eigenvalues, so its distance
    # to the identity is exactly 2 and cannot vanish
    assert abs(report["interior_defect_vs_identity"] - 2.0) <= 1e-10


def test_bott_truncation_convergence():
    """Ground residual and gap defect do not grow as the basis doubles;
    in the Hermite frame both sit at rounding level."""
    residuals = []
    for n_basis in (32, 64, 128):
        ops = bott_dirac(hermite_model(n_basis))
        magnitudes = np.sort(np.abs(np.linalg.eigvalsh(ops.bott.mat)))
        residuals.append(
            (
                np.linalg.norm(ops.bott.mat @ ground_vector(ops)),
                abs(magnitudes[1] - math.sqrt(2.0)),
            )
        )
    for (g0, s0), (g1, s1) in zip(residuals, residuals[1:]):
        assert g1 <= g0 + 1e-12
        assert s1 <= s0 + 1e-12
    assert residuals[-1][0] <= 1e-10 and residuals[-1][1] <= 1e-6


def test_spectrum_and_kernel_zero_operator():
    d0 = OddSelfAdjoint(zeros(TWO))
    eigenvalues, kernel_dim = spectrum_and_kernel(d0, 1e-10)
    assert kernel_dim == 2
    assert np.all(eigenvalues == 0.0)
    with pytest.raises(ValueError):
        spectrum_and_kernel(d0, 0.0)


def test_bott_two_coordinates():
    """The two-coordinate model keeps the one-dimensional kernel."""
    ops = bott_dirac(hermite_model(8, 2))
    assert ops.space.dim == 15**2
    eigenvalues, kernel_dim = spectrum_and_kernel(ops.bott, 1e-8)
    assert kernel_dim == 1
    magnitudes = np.sort(np.abs(eigenvalues))
    assert abs(magnitudes[1] - math.sqrt(2.0)) <= 1e-8
    report = dc_commutator_check(ops)
    assert report["interior_defect_vs_involution"] <= 1e-10


def test_bott_pairs_validate():
    model = hermite_model(24)
    ops = bott_dirac(model)
    scalar_pair = AsymptoticPair(
        RepresentedAlgebra(ops.space, {"unit": identity(ops.space)}), ops.clifford_mult
    )
    assert set(fitted_exponents(validate_pair(scalar_pair, GRID))) == {-math.inf}
    mult_pair = AsymptoticPair(
        RepresentedAlgebra(ops.space, multiplication_generators(model)), ops.dirac
    )
    assert commutes_asymptotically(validate_pair(mult_pair, GRID))


def test_bott_pair_certificate_records_the_worst_exponent():
    """bott_pair[multiplication] carries the largest fitted exponent of
    validate_pair on the same pair, against the commutation threshold."""
    cfg = ExperimentConfig("bott", n_basis=8, t_points=12)
    certs = {c.check: c for c in run_experiment(cfg).certificates}
    model = hermite_model(8)
    ops = bott_dirac(model)
    mult_pair = AsymptoticPair(
        RepresentedAlgebra(ops.space, multiplication_generators(model)), ops.dirac
    )
    exponents = fitted_exponents(validate_pair(mult_pair, cfg.t_grid()))
    cert = certs["bott_pair[multiplication]"]
    assert cert.lhs == max(exponents) and cert.rhs == COMMUTATION_EXPONENT_THRESHOLD
    assert cert.passed
    assert certs["bott_pair[scalar]"].lhs == -math.inf
    assert certs["bott_compose_kernel[defect-exponents]"].rhs == COMPOSE_EXPONENT_THRESHOLD


@pytest.mark.parametrize("position", [0, 1, 2])
def test_worst_exponent_certificate_fails_on_a_failed_fit(position):
    """One NaN exponent (a failed fit) makes the worst exponent NaN in any
    position, and the certificate built from it fails."""
    grid = default_t_grid(points=8)
    fits = [DecayProfile.from_values(grid, v) for v in (np.zeros(8), 1.0 / grid**2)]
    failed = DecayProfile.from_values(grid, np.full(8, np.inf))
    assert math.isnan(failed.fitted_exponent)
    fits.insert(position, failed)
    worst = _worst_exponent({"a": {f"f{i}": p for i, p in enumerate(fits)}})
    assert math.isnan(worst)
    assert not BoundCertificate("bott_pair[test]", worst, COMMUTATION_EXPONENT_THRESHOLD).passed


def test_bott_composition_yields_bott_dirac():
    """Composing the scalar pair (unit, C) with the multiplication pair
    (M, D) gives the pair with operator D + C and one-dimensional kernel."""
    from gradedlab import compose_pairs, identity_pushforward

    model = hermite_model(24)
    ops = bott_dirac(model)
    scalar_pair = AsymptoticPair(
        RepresentedAlgebra(ops.space, {"unit": identity(ops.space)}), ops.clifford_mult
    )
    mult_pair = AsymptoticPair(
        RepresentedAlgebra(ops.space, multiplication_generators(model)), ops.dirac
    )
    comp = compose_pairs(scalar_pair, mult_pair, identity_pushforward, GRID)
    assert composes(comp)
    assert np.abs(comp.pair.d.mat - ops.bott.mat).max() <= 1e-14
    _, kernel_dim = spectrum_and_kernel(comp.pair.d, 1e-8)
    assert kernel_dim == 1


# -- perturbation ----------------------------------------------------------------


def assert_perturbation_rates(report):
    """The thresholds `lab perturb` certifies: cayley and both factorization
    defects at the t^-2 rate, the odd generator g at t^-1 (with slack)."""
    for per_fn in report.homom_profiles.values():
        assert per_fn["cayley"].fitted_exponent <= COMPOSE_EXPONENT_THRESHOLD
        assert per_fn["g"].fitted_exponent <= COMMUTATION_EXPONENT_THRESHOLD
    assert report.defect_even.fitted_exponent <= COMPOSE_EXPONENT_THRESHOLD
    assert report.defect_odd.fitted_exponent <= COMPOSE_EXPONENT_THRESHOLD


def test_perturbation_zero_potential():
    rng = rng_for(50)
    space = balanced_space(6)
    pair = AsymptoticPair(
        RepresentedAlgebra(space, {"a": random_even(rng, space)}),
        OddSelfAdjoint(zeros(space)),
    )
    report = perturbation_check(pair, OddSelfAdjoint(zeros(space)), GRID)
    assert_perturbation_rates(report)
    for per_fn in report.homom_profiles.values():
        for profile in per_fn.values():
            assert profile.values.max() == 0.0


def test_perturbation_pauli_scalar_expansion():
    """||cayley(t^-1 sigma_x) b - b|| <= t^-2 ||sigma_x^2 b|| since the
    scaled resolvent is (1 + t^-2)^(-1) on both eigenvalues."""
    b = identity(TWO)
    for t in (10.0, 100.0, 1000.0):
        moved = GradedMatrix(TWO, Spectrum.of(SX).apply(CAYLEY, 1.0 / t))
        defect = operator_norm(moved @ b - b)
        assert defect <= (1.0 / t**2) * operator_norm(b) + 1e-15


def test_perturbation_rates():
    """cayley converges at t^-2, the odd resolvent generator at t^-1, and
    the factorization defect at t^-2."""
    from gradedlab.sampling import random_odd, random_odd_selfadjoint

    rng = rng_for(51)
    space = balanced_space(8)
    gens = {
        "a": random_even(rng, space, norm=1.0),
        "b": random_odd(rng, space, norm=1.0),
    }
    pair = AsymptoticPair(
        RepresentedAlgebra(space, gens), random_odd_selfadjoint(rng, space, norm=1.0)
    )
    potential = random_odd_selfadjoint(rng, space, norm=1.0)
    report = perturbation_check(pair, potential, default_t_grid(points=40))
    assert_perturbation_rates(report)


def test_perturbation_rejects_space_mismatch():
    rng = rng_for(52)
    space = balanced_space(4)
    pair = AsymptoticPair(
        RepresentedAlgebra(space, {"a": identity(space)}),
        OddSelfAdjoint(zeros(space)),
    )
    from gradedlab.sampling import random_odd_selfadjoint

    other = random_odd_selfadjoint(rng, balanced_space(6))
    with pytest.raises(ValueError):
        perturbation_check(pair, other, GRID)


def test_perturbation_bott_model():
    """Dirac perturbed by Clifford multiplication: the composition
    certificate decays at the t^-2 rate."""
    model = hermite_model(16)
    ops = bott_dirac(model)
    pair = AsymptoticPair(
        RepresentedAlgebra(ops.space, multiplication_generators(model)), ops.dirac
    )
    report = perturbation_check(pair, ops.clifford_mult, GRID)
    assert_perturbation_rates(report)
