import math

import numpy as np
import pytest

from gradedlab import (
    GradedMatrix,
    GradedSpace,
    NAMED_FUNCTIONS,
    OddSelfAdjoint,
    Spectrum,
    bounded_transform_function,
    graded_commutator,
    identity,
    operator_norm,
    spectrum_and_kernel,
    zeros,
)
from gradedlab.funcalc import (
    CAYLEY, GAUSS0, GAUSS1, MAX_TRANSFORM_SCALE, MULTIPLIER_G, RESOLVENT_PLUS, ChiralSpectrum, ParityBlocks,
    ScalarFunction,
)
from gradedlab.graded import parity_parts
from gradedlab.sampling import (
    balanced_space,
    random_homogeneous,
    random_odd_selfadjoint,
    random_space,
    rng_for,
)

from helpers import SIGMA_X, SX, SY, TWO, as_odd, max_abs


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


def bounded_transform(d, n_scale) -> np.ndarray:
    """D_N = i_N(D) with i_N(x) = x (1 + x^2/N^2)^(-1), through the spectrum of D."""
    return Spectrum.of(d).apply(bounded_transform_function(n_scale))


def test_apply_function_identity_cases():
    d0 = as_odd(zeros(TWO))
    assert max_abs(Spectrum.of(d0).apply(GAUSS0) - np.eye(2)) <= 1e-15
    # sigma_x squares to 1, so the heat value is e^{-1} on both eigenvalues
    heat = Spectrum.of(SX).apply(GAUSS0)
    assert max_abs(heat - math.exp(-1.0) * np.eye(2)) <= 1e-14


def test_resolvent_identity():
    rng = rng_for(10)
    for _ in range(10):
        space = balanced_space(8)
        d = random_odd_selfadjoint(rng, space)
        resolvent = Spectrum.of(d).apply(RESOLVENT_PLUS)
        product = resolvent @ (d.entries + 1j * np.eye(8))
        assert np.abs(product - np.eye(8)).max() <= 1e-10 * max(1.0, operator_norm(d))


def test_functional_calculus_is_multiplicative():
    """f(D) g(D) = (fg)(D) for the named functions."""
    rng = rng_for(11)
    space = balanced_space(8)
    spec = Spectrum.of(random_odd_selfadjoint(rng, space))
    for f in NAMED_FUNCTIONS:
        for g in NAMED_FUNCTIONS:
            product = ScalarFunction("fg", lambda x, _f=f, _g=g: _f(x) * _g(x))
            lhs = spec.apply(f) @ spec.apply(g)
            rhs = spec.apply(product)
            scale = max(1.0, operator_norm(rhs))
            assert operator_norm(lhs - rhs) <= 1e-10 * scale


def test_contractivity():
    rng = rng_for(12)
    for _ in range(5):
        space = random_space(rng, 8)
        d = random_odd_selfadjoint(rng, space, norm=float(rng.uniform(0.5, 20.0)))
        for f in NAMED_FUNCTIONS:
            assert operator_norm(Spectrum.of(d).apply(f)) <= f.sup_norm + 1e-10


def test_grading_covariance():
    """gamma f(D) gamma = f(-D); even f gives even f(D), odd f odd."""
    rng = rng_for(13)
    space = balanced_space(8)
    gamma = np.diag(space.gamma_signs())
    for _ in range(5):
        d = random_odd_selfadjoint(rng, space)
        for f in NAMED_FUNCTIONS:
            value = GradedMatrix(space, Spectrum.of(d).apply(f))
            flipped = Spectrum.of(-d).apply(f)
            assert np.abs(gamma @ value.entries @ gamma - flipped).max() <= 1e-10
            if f.parity is not None:
                # the part of the other parity is at roundoff
                wrong = parity_parts(space, value.entries)[1 - f.parity]
                assert np.abs(wrong).max() <= 1e-10 * max(1.0, np.abs(value.entries).max())


def test_degenerate_eigenvalues_are_basis_invariant():
    """f(D) does not depend on the eigenbasis chosen inside eigenspaces."""
    space = GradedSpace(2, 2)
    block = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    entries = np.zeros((4, 4), dtype=complex)
    entries[:2, 2:] = block  # doubly degenerate singular values
    entries[2:, :2] = block.conj().T
    d = OddSelfAdjoint(space, entries)
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
    assert max_abs(bounded_transform(as_odd(zeros(TWO)), 5.0)) == 0.0
    half = bounded_transform(SX, 1.0)
    assert max_abs(half - 0.5 * SIGMA_X.entries) <= 1e-14
    with pytest.raises(ValueError):
        bounded_transform_function(0.0)
    with pytest.raises(ValueError):
        bounded_transform_function(-2.0)
    # N^2 must be a finite float: 1e300 squared overflows
    with pytest.raises(ValueError):
        bounded_transform_function(1e300)
    assert bounded_transform_function(MAX_TRANSFORM_SCALE).sup_norm == MAX_TRANSFORM_SCALE / 2.0


def test_scalar_function_checks_its_declared_parity():
    """The chiral weights drop the part a declared parity makes zero, so a
    parity outside {None, 0, 1}, or one that f does not have at its check
    points, raises: MULTIPLIER_G declared even or with parity 2 would
    lose its odd part.  The named functions and the transforms, down to an
    N whose square underflows, declare theirs exactly."""
    for parity in (2, -1, 0.5):
        with pytest.raises(ValueError, match="parity must be"):
            ScalarFunction("g", MULTIPLIER_G.fn, 0.5, parity)
    with pytest.raises(ValueError, match="not even"):
        ScalarFunction("g", MULTIPLIER_G.fn, 0.5, 0)
    for f in (CAYLEY, RESOLVENT_PLUS):
        with pytest.raises(ValueError, match="not odd"):
            ScalarFunction(f.name, f.fn, f.sup_norm, 1)
    for n in (1e-200, 1.0, 3.0, MAX_TRANSFORM_SCALE):
        bounded_transform_function(n)


def test_bounded_transform_norm_bound():
    rng = rng_for(15)
    for n_scale in (0.5, 1.0, 4.0):
        d = random_odd_selfadjoint(rng, balanced_space(8), norm=10.0)
        assert operator_norm(bounded_transform(d, n_scale)) <= n_scale / 2.0 + 1e-12


def test_transform_heat_distance_decreasing_in_scale():
    """||gauss0(D_N) - gauss0(D)|| decreases over N in {1, 10, 100} at ||D|| = 10."""
    rng = rng_for(16)
    d = random_odd_selfadjoint(rng, balanced_space(8), norm=10.0)
    target = Spectrum.of(d).apply(GAUSS0)
    distances = [
        operator_norm(Spectrum.of(bounded_transform(d, n)).apply(GAUSS0) - target)
        for n in (1.0, 10.0, 100.0)
    ]
    assert distances[0] > distances[1] > distances[2]


def test_transform_convergence_monotone_and_small():
    """N -> ||f(D_N) - f(D)|| is nonincreasing once N >= ||D|| and tiny at 1e4 ||D||."""
    rng = rng_for(17)
    d = random_odd_selfadjoint(rng, balanced_space(8), norm=1.0)
    for f in (GAUSS0, RESOLVENT_PLUS):
        target = Spectrum.of(d).apply(f)
        scales = [1.0, 10.0, 100.0, 1e3, 1e4]
        distances = [
            operator_norm(Spectrum.of(bounded_transform(d, n)).apply(f) - target) for n in scales
        ]
        assert all(b <= a + 1e-15 for a, b in zip(distances, distances[1:]))
        assert distances[-1] <= 1e-8


def commutator_norms(d, t):
    """||[f(D), T]|| for the resolvent-type f = cayley and g, and ||[D, T]||."""
    spec = Spectrum.of(d)
    lhs = [operator_norm(graded_commutator(GradedMatrix(d.space, spec.apply(f)), t)) for f in (CAYLEY, MULTIPLIER_G)]
    return lhs, operator_norm(graded_commutator(d, t))


def test_resolvent_commutator_trivial_cases():
    lhs, rhs = commutator_norms(SX, identity(TWO))
    assert max(lhs) <= 1e-14 and rhs <= 1e-14
    # anticommuting odd pair: all commutators vanish
    lhs, rhs = commutator_norms(SX, SY)
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


@pytest.mark.parametrize("block", [[[1.0, 0.0], [0.0, np.nan]], [[2.0, np.nan], [np.nan, 3.0]]])
@pytest.mark.parametrize("hermitian", [True, False])
def test_parity_block_norms_refuse_non_finite_entries(block, hermitian):
    """Both block-norm kernels raise on NaN, the Hermitian eigvalsh one as
    the Gram kernel does, rather than read a norm off the finite entries."""
    x = np.array([block])
    with pytest.raises(np.linalg.LinAlgError):
        ParityBlocks(x, None, None, x).norms(hermitian=hermitian)


def test_chiral_spectrum_refuses_a_plain_graded_matrix():
    """ChiralSpectrum.of reads D[e, o] alone, so only a validated odd
    operator may reach it: a plain GradedMatrix raises TypeError, whether
    its entries are odd and Hermitian or not."""
    d = random_odd_selfadjoint(rng_for(72), GradedSpace(3, 2))
    for entries in (d.entries, d.entries + np.eye(d.space.dim)):
        with pytest.raises(TypeError, match="OddSelfAdjoint"):
            ChiralSpectrum.of(GradedMatrix(d.space, entries))


@pytest.mark.parametrize("corrupt", ["u", "sigma", "vh"])
def test_chiral_spectrum_validates_its_svd(corrupt, monkeypatch):
    """ChiralSpectrum.of checks its SVD as Spectrum.of checks eigh: a factor
    off by 1e-8 raises, as a residual defect (sigma, vh) or, in a column of U
    that no singular value reaches, as a unitarity defect (u); the
    values-only SVD of spectrum_and_kernel, which has no factors, does not
    validate."""
    d = random_odd_selfadjoint(rng_for(71), GradedSpace(5, 2))
    ChiralSpectrum.of(d)
    svd = np.linalg.svd

    def corrupted(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        if not kwargs.get("compute_uv", True):
            return out
        u, sigma, vh = (m.copy() for m in out)
        {"u": u, "sigma": sigma, "vh": vh}[corrupt][..., -1] += 1e-8
        return u, sigma, vh

    monkeypatch.setattr(np.linalg, "svd", corrupted)
    with pytest.raises(ValueError, match="accuracy validation"):
        ChiralSpectrum.of(d)
    eigenvalues, _ = spectrum_and_kernel(d)
    assert np.count_nonzero(eigenvalues > 0) == min(d.space.even, d.space.odd)
