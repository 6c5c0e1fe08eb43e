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
    bott_dirac,
    graded_tensor,
    hermite_model,
    identity,
)
from gradedlab.bott import KERNEL_TOL
from gradedlab.experiments import CHECKS, ExperimentConfig, load_config, run_experiment
from gradedlab.funcalc import ChiralSpectrum

from helpers import OddNonzeros, _lift, bott_nonzeros, unsigned_sign


def product_pieces(n_basis):
    """bott_dirac on the plain product truncation: both fiber sectors to
    level K - 1, the even h_k (x) 1 first, so the [e, o] blocks are square:
    -d and x.  The top odd state h_{K-1} (x) e loses its partner h_K (x) 1
    and is orphaned."""
    x, d = hermite_model(n_basis)
    return BottOperators(n_basis, GradedSpace(n_basis, n_basis), x, -d, x, np.ones(2 * n_basis))


def product_truncation(n_basis, n=1):
    """B on the plain product truncation, as nonzeros, lifted to n
    coordinates by dense graded tensor products."""
    ops = product_pieces(n_basis)
    b1 = ops.dirac + ops.clifford_mult
    one = identity(b1.space)
    b = b1
    for _ in range(1, n):
        b = graded_tensor(b, one) + graded_tensor(identity(b.space), b1)
    rows, cols = np.nonzero(b.entries)
    return OddNonzeros(np.array(b.space.parity), rows, cols, b.entries[rows, cols])


@pytest.mark.parametrize("n", [1, 2])
def test_product_truncation_has_a_spurious_zero_mode(n):
    """The component spectrum reports kernel 2^n (each coordinate has two
    zero modes) and a zero second magnitude on the product truncation, as
    the dense eigensolve does."""
    b = product_truncation(8, n)
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

    def patched(n_basis):
        return product_pieces(n_basis) if n_basis == 2 * cfg.n_basis else paired(n_basis)

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
    paired = np.linalg.eigvalsh(bott_nonzeros(8).dense())
    product = product_truncation(8).eigenvalues()
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
    one = scipy.sparse.csr_matrix(m.entries)
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
    ops = bott_dirac(8)
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
    """graded_tensor without the Koszul sign: a Kron b on the product
    parities (pa_i + pb_j) mod 2, permuted stably into parity order as
    graded_tensor permutes."""
    parity = (np.asarray(a.space.parity)[:, None] + np.asarray(b.space.parity)).ravel() % 2
    order, odd = np.argsort(parity, kind="stable"), int(parity.sum())
    return GradedMatrix(GradedSpace(parity.size - odd, odd), np.kron(a.entries, b.entries)[np.ix_(order, order)])


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


# The lhs / rhs that each rate check reaches at least once under the doubled scale below:
# about 2 for the t^-1 pair bound and 4 for the sharp t^-2 heat bounds.
DOUBLED_SCALE_RATIOS = {
    "bott_pair": 1.9, "bott_compose_kernel": 3.9, "compose_defect": 3.5,
    "factorization_exponent": 3.9, "perturb_homom": 1.5, "perturb_defect": 3.9,
}


@pytest.mark.parametrize("seed", [42, 7])
def test_rate_checks_fail_on_a_calculus_at_twice_its_scale(seed, monkeypatch):
    """The default bott, compose, expfactor and perturb with every chiral
    weight of f(s D) evaluated at 2 s: each profile then measures the
    operator at t / 2, and each proved constant bounds it only there.  The
    sharp bounds are exceeded about twofold (t^-1) or fourfold (t^-2), so
    each of the six rate checks fails, bott_compose_kernel by its defect
    certificate, and so does factorization_rate, t^2 times the defect at
    the last t against ||[D, D']||; the kernel checks still pass."""
    weights = ChiralSpectrum.weights

    def doubled(self, f, scales, increment=False):
        return weights(self, f, 2.0 * np.asarray(scales, dtype=float), increment)

    monkeypatch.setattr(ChiralSpectrum, "weights", doubled)
    ratios, results = {}, {}
    for experiment in ("bott", "compose", "expfactor", "perturb"):
        results[experiment] = result = run_experiment(load_config(experiment=experiment, seed=seed))
        for cert in result.certificates:
            name = cert.check.split("[")[0]
            if name in DOUBLED_SCALE_RATIOS and cert.rhs > 0:
                ratios[name] = max(ratios.get(name, 0.0), cert.lhs / cert.rhs)
    for name, ratio in DOUBLED_SCALE_RATIOS.items():
        assert ratios[name] >= ratio, (name, ratios[name])
    checks = {check.name: check for result in results.values() for check in result.checks}
    assert all(checks[name].failed_count for name in DOUBLED_SCALE_RATIOS)
    certs = {c.check: c for c in results["bott"].certificates}
    assert certs["bott_compose_kernel"].passed and not certs["bott_compose_kernel[defect-exponents]"].passed
    assert checks["bott_kernel_dim"].failed_count == 0 and checks["factorization_rate"].failed_count > 0


# Each check name with the control above that makes it fail.
CONTROLS = {
    "bott_convergence": test_convergence_fails_on_the_product_truncation,
    "sweep_final": test_sweep_final_fails_on_transforms_built_at_the_wrong_scale,
    "bott_kernel_dim": test_bott_checks_fail_on_a_lift_without_the_koszul_sign,
    "bott_gap": test_bott_checks_fail_on_a_lift_without_the_koszul_sign,
    "bott_dc_involution": test_bott_checks_fail_on_a_lift_without_the_koszul_sign,
    "factorization_exact": test_factorization_exact_fails_on_an_unsigned_tensor_lift,
    **dict.fromkeys([*DOUBLED_SCALE_RATIOS, "factorization_rate"],
                    test_rate_checks_fail_on_a_calculus_at_twice_its_scale),
}

# The check names that no control makes fail yet.
OPEN = {
    "transform_commutator", "transform_commutator_scaled", "relative_bound", "sweep_monotone", "compose_identity",
    "bott_ground_residual", "bott_lambda_min", "exp_product", "exp_product_commuting", "exp_product_path",
    "exp_selftest", "exp_shift", "series_ratio",
}


def test_every_check_has_a_control_or_is_open():
    """Every registered check is either made to fail by a control here or is
    listed as open, never both."""
    assert CONTROLS.keys().isdisjoint(OPEN)
    assert set(CONTROLS) | OPEN == set(CHECKS)
