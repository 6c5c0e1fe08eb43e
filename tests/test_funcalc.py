import math

import numpy as np
import pytest

from gradedlab import (
    GradedMatrix,
    GradedSpace,
    NAMED_FUNCTIONS,
    OddSelfAdjoint,
    Spectrum,
    apply_function,
    bounded_transform,
    bounded_transform_function,
    cutoff_function,
    graded_commutator,
    identity,
    operator_norm,
    zeros,
)
from gradedlab.funcalc import CAYLEY, GAUSS0, GAUSS1, MULTIPLIER_G, RESOLVENT_PLUS, ScalarFunction
from gradedlab.sampling import (
    balanced_space,
    random_homogeneous,
    random_odd_selfadjoint,
    random_space,
    rng_for,
)

from helpers import SIGMA_X, SX, SY, TWO, max_abs


def test_named_sup_norms_match_dense_scan():
    """Declared sup norms agree with a dense scan of |f| on the line."""
    xs = np.linspace(-50, 50, 400001)
    for f in NAMED_FUNCTIONS:
        observed = np.abs(f(xs)).max()
        assert observed <= f.sup_norm + 1e-12
        assert observed >= f.sup_norm - 1e-4
    transform = bounded_transform_function(3.0)
    observed = np.abs(transform(xs)).max()
    assert abs(observed - 1.5) <= 1e-6


def test_cutoff_shape():
    chi = cutoff_function(2.0)
    assert np.all(chi(np.linspace(-2, 2, 101)) == 1.0)
    assert np.all(chi(np.array([4.0, -4.0, 7.0])) == 0.0)
    mid = chi(np.array([3.0]))[0]
    assert 0.0 < mid < 1.0


def test_apply_function_identity_cases():
    d0 = OddSelfAdjoint(zeros(TWO))
    assert max_abs(apply_function(d0, GAUSS0) - identity(TWO)) <= 1e-15
    # sigma_x squares to 1, so the heat value is e^{-1} on both eigenvalues
    heat = apply_function(SX, GAUSS0)
    assert max_abs(heat - math.exp(-1.0) * identity(TWO)) <= 1e-14


def test_resolvent_identity():
    rng = rng_for(10)
    for _ in range(10):
        space = balanced_space(8)
        d = random_odd_selfadjoint(rng, space)
        resolvent = apply_function(d, RESOLVENT_PLUS)
        product = resolvent.entries @ (d.mat + 1j * np.eye(8))
        assert np.abs(product - np.eye(8)).max() <= 1e-10 * max(1.0, operator_norm(d))


def test_functional_calculus_is_multiplicative():
    """f(D) g(D) = (fg)(D) for the named functions."""
    rng = rng_for(11)
    space = balanced_space(8)
    d = random_odd_selfadjoint(rng, space)
    for f in NAMED_FUNCTIONS:
        for g in NAMED_FUNCTIONS:
            product = ScalarFunction("fg", lambda x, _f=f, _g=g: _f(x) * _g(x))
            lhs = apply_function(d, f) @ apply_function(d, g)
            rhs = apply_function(d, product)
            scale = max(1.0, operator_norm(rhs))
            assert operator_norm(lhs - rhs) <= 1e-10 * scale


def test_contractivity():
    rng = rng_for(12)
    for _ in range(5):
        space = random_space(rng, 8)
        d = random_odd_selfadjoint(rng, space, norm=float(rng.uniform(0.5, 20.0)))
        for f in NAMED_FUNCTIONS:
            assert operator_norm(apply_function(d, f)) <= f.sup_norm + 1e-10


def test_grading_covariance():
    """gamma f(D) gamma = f(-D); even f gives even f(D), odd f odd."""
    rng = rng_for(13)
    space = balanced_space(8)
    gamma = space.gamma()
    for _ in range(5):
        d = random_odd_selfadjoint(rng, space)
        for f in NAMED_FUNCTIONS:
            value = apply_function(d, f)
            flipped = apply_function(-d, f)
            assert np.abs(gamma @ value.entries @ gamma - flipped.entries).max() <= 1e-10
            if f.parity is not None:
                assert value.parity(1e-10) == f.parity


def test_degenerate_eigenvalues_are_basis_invariant():
    """f(D) does not depend on the eigenbasis chosen inside eigenspaces."""
    space = GradedSpace((0, 0, 1, 1))
    block = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    entries = np.zeros((4, 4), dtype=complex)
    entries[:2, 2:] = block  # doubly degenerate singular values
    entries[2:, :2] = block.conj().T
    d = OddSelfAdjoint(GradedMatrix(space, entries))
    spec = Spectrum.of(d)
    assert np.abs(np.abs(spec.eigenvalues) - 1.0).max() <= 1e-12
    rng = rng_for(14)
    reference = spec.apply(GAUSS1)
    for _ in range(5):
        # re-mix each degenerate eigenspace by a random unitary
        vectors = spec.eigenvectors.copy()
        for eigenvalue in (-1.0, 1.0):
            idx = np.flatnonzero(np.abs(spec.eigenvalues - eigenvalue) < 1e-9)
            mix = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            vectors[:, idx] = vectors[:, idx] @ mix
        shuffled = Spectrum(spec.eigenvalues, vectors)
        assert np.abs(shuffled.apply(GAUSS1) - reference).max() <= 1e-10


def test_bounded_transform_values():
    assert max_abs(bounded_transform(OddSelfAdjoint(zeros(TWO)), 5.0).underlying) == 0.0
    half = bounded_transform(SX, 1.0)
    assert max_abs(half.underlying - 0.5 * SIGMA_X) <= 1e-14
    with pytest.raises(ValueError):
        bounded_transform(SX, 0.0)
    with pytest.raises(ValueError):
        bounded_transform(SX, -2.0)


def test_bounded_transform_norm_bound():
    rng = rng_for(15)
    for n_scale in (0.5, 1.0, 4.0):
        d = random_odd_selfadjoint(rng, balanced_space(8), norm=10.0)
        assert operator_norm(bounded_transform(d, n_scale)) <= n_scale / 2.0 + 1e-12


def test_transform_heat_distance_decreasing_in_scale():
    """||gauss0(D_N) - gauss0(D)|| decreases over N in {1, 10, 100} at ||D|| = 10."""
    rng = rng_for(16)
    d = random_odd_selfadjoint(rng, balanced_space(8), norm=10.0)
    target = apply_function(d, GAUSS0)
    distances = [
        operator_norm(apply_function(bounded_transform(d, n), GAUSS0) - target)
        for n in (1.0, 10.0, 100.0)
    ]
    assert distances[0] > distances[1] > distances[2]


def test_transform_convergence_monotone_and_small():
    """N -> ||f(D_N) - f(D)|| is nonincreasing once N >= ||D|| and tiny at 1e4 ||D||."""
    rng = rng_for(17)
    d = random_odd_selfadjoint(rng, balanced_space(8), norm=1.0)
    for f in (GAUSS0, RESOLVENT_PLUS):
        target = apply_function(d, f)
        scales = [1.0, 10.0, 100.0, 1e3, 1e4]
        distances = [
            operator_norm(apply_function(bounded_transform(d, n), f) - target) for n in scales
        ]
        assert all(b <= a + 1e-15 for a, b in zip(distances, distances[1:]))
        assert distances[-1] <= 1e-8


def commutator_norms(d, t):
    """||[f(D), T]|| for the resolvent-type f = cayley and g, and ||[D, T]||."""
    lhs = [operator_norm(graded_commutator(apply_function(d, f), t)) for f in (CAYLEY, MULTIPLIER_G)]
    return lhs, operator_norm(graded_commutator(d.underlying, t))


def test_resolvent_commutator_trivial_cases():
    lhs, rhs = commutator_norms(SX, identity(TWO))
    assert max(lhs) <= 1e-14 and rhs <= 1e-14
    # anticommuting odd pair: all commutators vanish
    lhs, rhs = commutator_norms(SX, SY.underlying)
    assert max(lhs) <= 1e-14 and rhs <= 1e-14


def test_resolvent_commutator_random_suite():
    """||[f(D), T]|| <= ||[D, T]|| over 200 random homogeneous pairs."""
    rng = rng_for(20)
    for trial in range(200):
        dim = int(rng.choice([4, 8, 16]))
        space = balanced_space(dim)
        d = random_odd_selfadjoint(rng, space)
        t = random_homogeneous(rng, space, int(rng.integers(0, 2)))
        lhs, rhs = commutator_norms(d, t)
        assert max(lhs) <= rhs + 1e-10, f"trial {trial}: {lhs} > {rhs}"


def test_spectrum_rejects_non_hermitian():
    bad = GradedMatrix(TWO, np.array([[0, 2], [1, 0]], dtype=complex))
    with pytest.raises(ValueError):
        Spectrum.of(bad)
