"""Negative controls: inputs that theory says violate a certified claim,
run through the same path `lab` runs, must make the check fail."""

import math

import numpy as np
import pytest
import scipy.sparse

import gradedlab.bott
import gradedlab.estimates
import gradedlab.experiments
from gradedlab import (
    BottOperators,
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    bott_dirac,
    graded_tensor,
    hermite_model,
    identity,
)
from gradedlab.bott import KERNEL_TOL
from gradedlab.experiments import CHECKS, ExperimentConfig, load_config, run_experiment

from helpers import OddNonzeros, _lift, bott_nonzeros, unsigned_sign


def product_pieces(model):
    """bott_dirac on the plain product truncation: both fiber sectors to
    level K - 1, in interleaved (h_k (x) 1, h_k (x) e) order.  The top odd
    state h_{K-1} (x) e loses its partner h_K (x) 1 and is orphaned."""
    right_e_signed = np.array([[0.0, -1.0], [1.0, 0.0]])
    left_e = np.array([[0.0, 1.0], [1.0, 0.0]])
    parity = GradedSpace((0, 1) * model.n_basis)
    d, c = (OddSelfAdjoint(GradedMatrix(parity, np.kron(m, e)))
            for m, e in ((model.d_mat, right_e_signed), (model.x_mat, left_e)))
    return BottOperators(model, parity, d, c, np.ones(parity.dim))


def product_truncation(model):
    """B on the plain product truncation, as nonzeros, lifted to model.n
    coordinates by dense graded tensor products."""
    ops = product_pieces(model)
    b1 = ops.dirac.underlying + ops.clifford_mult.underlying
    one = identity(b1.space)
    b = b1
    for _ in range(1, model.n):
        b = graded_tensor(b, one) + graded_tensor(identity(b.space), b1)
    rows, cols = np.nonzero(b.entries)
    return OddNonzeros(np.array(b.space.parity), rows, cols, b.entries[rows, cols])


@pytest.mark.parametrize("n", [1, 2])
def test_product_truncation_has_a_spurious_zero_mode(n):
    """The component spectrum reports kernel 2^n (each coordinate has two
    zero modes) and a zero second magnitude on the product truncation, as
    the dense eigensolve does."""
    b = product_truncation(hermite_model(8, n))
    eigenvalues = b.eigenvalues()
    magnitudes = np.sort(np.abs(eigenvalues))
    assert np.count_nonzero(magnitudes < KERNEL_TOL) == 2**n
    assert magnitudes[1] == 0.0
    oracle = np.linalg.eigvalsh(b.dense())
    assert np.count_nonzero(np.abs(oracle) < KERNEL_TOL) == 2**n
    np.testing.assert_allclose(eigenvalues, oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_convergence_fails_on_the_product_truncation(n, monkeypatch):
    """With the ladder's top rung built by the one builder on the product
    truncation's one-coordinate pieces, the gap defect jumps to sqrt(2) and
    bott_convergence fails."""
    cfg = ExperimentConfig("bott", coordinates=n, n_basis=8, t_points=8)
    paired = gradedlab.experiments.bott_dirac

    def patched(model):
        return product_pieces(model) if model.n_basis == 2 * cfg.n_basis else paired(model)

    monkeypatch.setattr(gradedlab.experiments, "bott_dirac", patched)
    result = run_experiment(cfg)
    certs = {c.check: c for c in result.certificates}
    assert certs["bott_convergence"].lhs == pytest.approx(math.sqrt(2.0))
    assert not certs["bott_convergence"].passed
    assert not result.passed
    assert result.summary["convergence"][2]["gap_defect"] == pytest.approx(math.sqrt(2.0))


def test_product_truncation_is_the_bott_dirac_spectrum_plus_one_zero():
    """Sanity check on the control itself: in one coordinate it differs
    from the paired model only by the orphaned zero mode."""
    model = hermite_model(8)
    paired = np.linalg.eigvalsh(bott_nonzeros(model).dense())
    product = product_truncation(model).eigenvalues()
    np.testing.assert_allclose(product, np.sort(np.r_[paired, 0.0]), rtol=0, atol=1e-12)


PARITY = np.array([0, 0, 1, 1])


@pytest.mark.parametrize(
    "rows, cols, values",
    [
        pytest.param([0, 1], [1, 0], [1.0, 1.0], id="even-entry"),
        pytest.param([2, 3], [3, 2], [1.0, 1.0], id="odd-odd-entry"),
        pytest.param([0, 2], [2, 0], [1.0, 1.0 + 1e-9], id="unequal-mirror"),
        pytest.param([0, 2], [2, 0], [1.0, -1.0], id="antisymmetric"),
        pytest.param([0], [2], [1.0], id="missing-mirror"),
        pytest.param([0, 2, 0, 2], [2, 0, 2, 0], [0.5, 0.5, 0.5, 0.5], id="repeated-position"),
    ],
)
def test_nonzeros_that_are_not_odd_symmetric_are_refused(rows, cols, values):
    with pytest.raises(ValueError):
        OddNonzeros(PARITY, np.array(rows), np.array(cols), np.array(values))


def test_odd_symmetric_nonzeros_within_tolerance_are_accepted():
    b = OddNonzeros(PARITY, np.array([0, 2, 1, 3]), np.array([2, 0, 3, 1]), np.array([1.0, 1.0 + 1e-14, 2.0, 2.0]))
    np.testing.assert_allclose(b.eigenvalues(), [-2.0, -1.0, 1.0, 2.0], rtol=0, atol=1e-13)


@pytest.mark.parametrize("seed", [42, 7])
def test_sweep_final_fails_on_transforms_built_at_the_wrong_scale(seed, monkeypatch):
    """techlemma with every transform i_N built at N/256: the smoothed sum no
    longer approaches D + D' at the largest N, so sweep_final fails on every
    trial.  (Building every transform at N = 1 instead fails only some.)"""
    transform = gradedlab.estimates.bounded_transform_function
    monkeypatch.setattr(gradedlab.estimates, "bounded_transform_function", lambda n: transform(n / 256))
    result = run_experiment(load_config(experiment="techlemma", seed=seed))
    final = [c for c in result.certificates if c.check.startswith("sweep_final")]
    assert len(final) == 20
    assert not any(c.passed for c in final)
    assert min(c.lhs for c in final) > 10 * final[0].rhs


def plain_kronecker_sum(m, n):
    """sum_i 1^(x)i (x) m (x) 1^(x)(n-i-1) with no sign, as nonzeros:
    M_{i+1} = M_i (x) 1 + 1 (x) m by scipy.sparse."""
    parity = space = np.array(m.space.parity)
    one = scipy.sparse.csr_matrix(m.mat)
    total = one
    for _ in range(1, n):
        total = scipy.sparse.kron(total, scipy.sparse.identity(parity.size))
        total = total + scipy.sparse.kron(scipy.sparse.identity(space.size), one)
        space = ((space[:, None] + parity) % 2).ravel()
    total = total.tocoo()
    return OddNonzeros(space, total.row, total.col, total.data)


def test_unsigned_lift_differs_from_the_koszul_lift_only_in_sign(monkeypatch):
    """Sanity check on the control: with the sign replaced by 1 the lift is
    the plain Kronecker sum, and at two coordinates it has the Koszul lift's
    nonzeros up to sign, and some signs differ."""
    ops = bott_dirac(hermite_model(8))
    b1 = ops.dirac + ops.clifford_mult
    signed = _lift(b1, 2).dense()
    monkeypatch.setattr(gradedlab.bott, "_koszul_sign", unsigned_sign)
    unsigned = _lift(b1, 2).dense()
    assert np.array_equal(unsigned, plain_kronecker_sum(b1, 2).dense())
    assert np.array_equal(np.abs(signed), np.abs(unsigned))
    assert not np.array_equal(signed, unsigned)


@pytest.mark.parametrize("seed", [42, 7])
def test_bott_checks_fail_on_a_lift_without_the_koszul_sign(seed, monkeypatch):
    """Two-coordinate bott with the Koszul sign replaced by 1, in the one
    definition the slot-wise certificates and the lifts share: D and C then
    commute across coordinates instead of anticommuting, so B^2 is no longer
    the oscillator less the involution.  The cross terms' Weyl slack then
    covers every eigenvalue, so the kernel may be all of the space and the
    gap is not certified, and the interior anticommutator's cross terms
    keep it far from the degree involution."""
    monkeypatch.setattr(gradedlab.bott, "_koszul_sign", unsigned_sign)
    result = run_experiment(ExperimentConfig("bott", seed=seed, coordinates=2, n_basis=12))
    certs = {c.check: c for c in result.certificates}
    for check in ("bott_kernel_dim", "bott_gap", "bott_dc_involution"):
        assert not certs[check].passed, check
    assert certs["bott_kernel_dim"].lhs > 1
    assert certs["bott_dc_involution"].lhs > 1
    assert not result.passed


def plain_tensor(a, b):
    """graded_tensor without the Koszul sign: a (x) b on the same product
    parities, (pa_i + pb_j) mod 2 in row-major Kronecker order."""
    pa, pb = np.asarray(a.space.parity), np.asarray(b.space.parity)
    parity = tuple(int(p) for p in ((pa[:, None] + pb[None, :]) % 2).ravel())
    return GradedMatrix(GradedSpace(parity), np.kron(a.entries, b.entries))


@pytest.mark.parametrize("seed", [42, 7])
def test_factorization_exact_fails_on_an_unsigned_tensor_lift(seed, monkeypatch):
    """expfactor with sigma_x (x) 1 and 1 (x) sigma_y built as plain Kronecker
    products: they commute, so they do not graded-commute, and the
    tensor-lift defects are O(1) where the Pauli pair stays exact."""
    monkeypatch.setattr(gradedlab.experiments, "graded_tensor", plain_tensor)
    result = run_experiment(load_config(experiment="expfactor", seed=seed))
    certs = {c.check: c for c in result.certificates}
    assert not certs["factorization_exact[tensor-lift]"].passed
    assert certs["factorization_exact[tensor-lift]"].lhs > 1e-3
    assert certs["factorization_exact[pauli]"].passed
    assert not result.passed


# Each check name with the control above that makes it fail.
CONTROLS = {
    "bott_convergence": test_convergence_fails_on_the_product_truncation,
    "sweep_final": test_sweep_final_fails_on_transforms_built_at_the_wrong_scale,
    "bott_kernel_dim": test_bott_checks_fail_on_a_lift_without_the_koszul_sign,
    "bott_gap": test_bott_checks_fail_on_a_lift_without_the_koszul_sign,
    "bott_dc_involution": test_bott_checks_fail_on_a_lift_without_the_koszul_sign,
    "factorization_exact": test_factorization_exact_fails_on_an_unsigned_tensor_lift,
}

# The check names that no control makes fail yet.
OPEN = {
    "transform_commutator", "transform_commutator_scaled", "factorization_exponent", "factorization_rate",
    "relative_bound", "sweep_monotone", "compose_defect", "compose_identity", "bott_compose_kernel",
    "bott_ground_residual", "bott_lambda_min", "bott_pair", "perturb_defect", "perturb_homom", "exp_product",
    "exp_product_commuting", "exp_product_path", "exp_selftest", "exp_shift", "series_ratio",
}


def test_every_check_has_a_control_or_is_open():
    """Every registered check is either made to fail by a control here or is
    listed as open, never both."""
    assert CONTROLS.keys().isdisjoint(OPEN)
    assert set(CONTROLS) | OPEN == set(CHECKS)
