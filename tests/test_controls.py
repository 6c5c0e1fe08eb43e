"""Negative controls: inputs that theory says violate a certified claim,
run through the same path `lab` runs, must make the check fail."""

import math

import numpy as np
import pytest

from gradedlab import GradedMatrix, GradedSpace, OddNonzeros, bott_dirac, graded_tensor, hermite_model, identity
from gradedlab.experiments import ExperimentConfig, run_experiment

from helpers import densified

KERNEL_TOL = 1e-8


def product_truncation(model):
    """B on the plain product truncation, as nonzeros: both fiber sectors to
    level K - 1, in interleaved (h_k (x) 1, h_k (x) e) order, lifted to
    model.n coordinates by dense graded tensor products.  The top odd state
    h_{K-1} (x) e loses its partner h_K (x) 1 and is orphaned."""
    right_e_signed = np.array([[0.0, -1.0], [1.0, 0.0]])
    left_e = np.array([[0.0, 1.0], [1.0, 0.0]])
    b1 = GradedMatrix(GradedSpace((0, 1) * model.n_basis),
                      np.kron(model.d_mat, right_e_signed) + np.kron(model.x_mat, left_e))
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
    oracle = np.linalg.eigvalsh(densified(b))
    assert np.count_nonzero(np.abs(oracle) < KERNEL_TOL) == 2**n
    np.testing.assert_allclose(eigenvalues, oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_convergence_fails_on_the_product_truncation(n, monkeypatch):
    """With the ladder's top basis built on the product truncation, the gap
    defect jumps to sqrt(2) and bott_convergence fails."""
    import gradedlab.experiments

    cfg = ExperimentConfig("bott", coordinates=n, n_basis=8, t_points=8)
    paired = gradedlab.experiments.bott_nonzeros

    def patched(model):
        return product_truncation(model) if model.n_basis == 2 * cfg.n_basis else paired(model)

    monkeypatch.setattr(gradedlab.experiments, "bott_nonzeros", patched)
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
    paired = np.linalg.eigvalsh(bott_dirac(model).bott.mat)
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
