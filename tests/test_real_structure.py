"""Real models run in real arithmetic.

The dtype of a GradedMatrix follows its data (float64 for real input,
complex128 for complex input), and Spectrum keeps the dtype of the
operator and of the function applied.  The Bott-Dirac model is real, so
its spectra, functional calculus stacks and norms stay real, while the
random complex suites are untouched.  Two savings in validate_pair rest
on exact algebra: a generator equal to c 1 has zero commutators, and on
real data the resolvent- profile equals the resolvent+ one.
"""

import itertools
import math

import numpy as np
import pytest

import gradedlab.bott
import gradedlab.pairs
from gradedlab.bott import (
    bott_dirac,
    hermite_model,
    multiplication_generators,
    perturbation_check,
    spectrum_and_kernel,
)
from gradedlab.funcalc import NAMED_FUNCTIONS, PAIR_FUNCTIONS, Spectrum
from gradedlab.graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    direct_sum,
    gamma_matrix,
    identity,
    operator_norm,
    zeros,
)
from gradedlab.pairs import (
    AsymptoticPair,
    RepresentedAlgebra,
    compose_pairs,
    default_t_grid,
    identity_pushforward,
    validate_pair,
)
from gradedlab.sampling import balanced_space, random_even, random_odd, random_odd_selfadjoint, rng_for

GRID = default_t_grid(points=24)


def bott_pair(n_basis=24):
    model = hermite_model(n_basis, 1)
    ops = bott_dirac(model)
    return ops, AsymptoticPair(RepresentedAlgebra(ops.space, multiplication_generators(model)), ops.dirac)


def complex_copy(pair):
    """The same pair with every matrix cast to complex128."""
    gens = {name: GradedMatrix(pair.space, g.entries.astype(complex)) for name, g in pair.rep.generators.items()}
    d = OddSelfAdjoint(GradedMatrix(pair.space, pair.d.mat.astype(complex)))
    return AsymptoticPair(RepresentedAlgebra(pair.space, gens), d)


@pytest.fixture
def measured(monkeypatch):
    """Record the function name of every Spectrum.commutators call."""
    names = []
    original = Spectrum.commutators

    def recording(self, f, scales, parts):
        names.append(f.name)
        return original(self, f, scales, parts)

    monkeypatch.setattr(Spectrum, "commutators", recording)
    return names


@pytest.fixture
def norm_dtypes(monkeypatch):
    """Record the dtype of every stack whose norms the pair and Bott layers take."""
    dtypes = []
    original = gradedlab.pairs.operator_norms

    def recording(stack):
        dtypes.append(stack.dtype)
        return original(stack)

    monkeypatch.setattr(gradedlab.pairs, "operator_norms", recording)
    monkeypatch.setattr(gradedlab.bott, "operator_norms", recording)
    return dtypes


# -- the dtype contract ------------------------------------------------------


def test_dtype_follows_the_data():
    space = GradedSpace((0, 1, 1))
    assert GradedMatrix(space, np.eye(3, dtype=int)).entries.dtype == np.float64
    assert GradedMatrix(space, np.eye(3, dtype=np.float32)).entries.dtype == np.float64
    assert GradedMatrix(space, np.eye(3, dtype=complex)).entries.dtype == np.complex128
    for m in (identity(space), zeros(space), gamma_matrix(space), direct_sum(identity(space), zeros(space))):
        assert m.entries.dtype == np.float64
    cplx = GradedMatrix(space, 1j * np.eye(3))
    assert (identity(space) + cplx).entries.dtype == np.complex128
    assert direct_sum(identity(space), cplx).entries.dtype == np.complex128
    assert (identity(space) * 1j).entries.dtype == np.complex128


def test_bott_model_is_real():
    ops, pair = bott_pair()
    for m in (ops.dirac.mat, ops.clifford_mult.mat, ops.bott.mat, *(g.entries for g in pair.rep.generators.values())):
        assert m.dtype == np.float64
    spec = Spectrum.of(ops.bott)
    assert spec.eigenvectors.dtype == np.float64
    scales = 1.0 / GRID[:3]
    for f in NAMED_FUNCTIONS:
        want = np.complex128 if f.name.startswith("resolvent") else np.float64
        assert spec.apply_grid(f, scales).dtype == want, f.name


@pytest.mark.parametrize("dim", [4, 16])
def test_random_suites_stay_complex_and_unchanged(dim):
    """Random samples are complex128, and so are their f(D) stacks.  Real
    weights on a complex spectrum give the same bits as the same weights
    cast to complex first."""
    rng = rng_for((5, dim))
    space = balanced_space(dim)
    d = random_odd_selfadjoint(rng, space, norm=1.0)
    assert d.mat.dtype == np.complex128
    assert random_even(rng, space).entries.dtype == np.complex128
    assert random_odd(rng, space).entries.dtype == np.complex128
    spec = Spectrum.of(d)
    assert spec.eigenvectors.dtype == np.complex128
    for f in NAMED_FUNCTIONS:
        stacked = spec.apply_grid(f, 1.0 / GRID)
        assert stacked.dtype == np.complex128
        assert np.array_equal(stacked, spec.synthesize(spec.weights(f, 1.0 / GRID).astype(np.complex128))), f.name


def test_bott_norms_run_on_real_stacks(norm_dtypes):
    """validate_pair, compose_pairs and perturbation_check on the real model
    take norms of real stacks, except for the resolvent commutators."""
    ops, pair = bott_pair()
    validate_pair(pair, GRID)
    # validate_pair measures gauss0, gauss1 and resolvent+ per generator
    assert norm_dtypes.count(np.complex128) == norm_dtypes.count(np.float64) // 2 > 0
    del norm_dtypes[:]
    scalar = AsymptoticPair(RepresentedAlgebra(ops.space, {"unit": identity(ops.space)}), ops.clifford_mult)
    compose_pairs(scalar, pair, identity_pushforward, GRID)
    perturbation_check(pair, ops.clifford_mult, GRID)
    assert norm_dtypes and all(dtype == np.float64 for dtype in norm_dtypes)


# -- an exact oracle for the real two-coordinate spectrum -------------------------


def test_two_coordinate_spectrum_matches_ladder_oracle():
    """Paired truncation keeps B invariant, and B^2 = B_1^2 (x) 1 + 1 (x) B_1^2,
    so B^2/2 has eigenvalues m_1 + m_2 with m_i in {0, ..., K - 1}, each of
    multiplicity prod(1 if m_i = 0 else 2), split evenly between +-."""
    k = 8
    ops = bott_dirac(hermite_model(k, 2))
    assert ops.bott.mat.dtype == np.float64
    eigenvalues, kernel_dim = spectrum_and_kernel(ops.bott, 1e-8)
    oracle = []
    for m in itertools.product(range(k), repeat=2):
        multiplicity = math.prod(1 if mi == 0 else 2 for mi in m)
        magnitude = math.sqrt(2.0 * sum(m))
        oracle += [0.0] if multiplicity == 1 else [magnitude, -magnitude] * (multiplicity // 2)
    assert len(oracle) == ops.space.dim == 225
    np.testing.assert_allclose(eigenvalues, np.sort(oracle), rtol=0, atol=1e-10)
    assert kernel_dim == 1


# -- the two exact savings in validate_pair ----------------------------------------


def test_real_pair_reuses_resolvent_plus(measured):
    _, pair = bott_pair()
    profiles = validate_pair(pair, GRID)
    assert "resolvent-" not in measured
    for per_fn in profiles.values():
        assert list(per_fn) == [f.name for f in PAIR_FUNCTIONS]
        assert np.array_equal(per_fn["resolvent-"].values, per_fn["resolvent+"].values)
        assert per_fn["resolvent-"].fitted_exponent == per_fn["resolvent+"].fitted_exponent


def test_complex_copy_measures_the_same_profiles(measured):
    """The complex-cast pair runs the complex kernels and measures resolvent-
    on its own; every profile matches the real pair's to 1e-10 relative, up
    to the 4 eps ||a|| absolute roundoff of the commutators."""
    _, pair = bott_pair()
    real = validate_pair(pair, GRID)
    assert "resolvent-" not in measured
    cplx = validate_pair(complex_copy(pair), GRID)
    assert "resolvent-" in measured
    for name, gen in pair.rep.generators.items():
        roundoff = 4 * np.finfo(float).eps * operator_norm(gen)
        for f in PAIR_FUNCTIONS:
            np.testing.assert_allclose(
                real[name][f.name].values, cplx[name][f.name].values, rtol=1e-10, atol=roundoff
            )


@pytest.mark.parametrize("scalar", [1.0, 2.5, 1.0 - 2.0j])
def test_scalar_generator_is_exactly_zero(scalar, measured):
    _, pair = bott_pair()
    unit = identity(pair.space) * scalar
    profiles = validate_pair(AsymptoticPair(RepresentedAlgebra(pair.space, {"c": unit}), pair.d), GRID)
    assert measured == []
    for f in PAIR_FUNCTIONS:
        profile = profiles["c"][f.name]
        assert np.array_equal(profile.values, np.zeros(GRID.size))
        assert profile.fitted_exponent == -np.inf


def test_nearly_scalar_generator_is_measured(measured):
    """One off-diagonal entry of size 1e-9 makes the generator non-scalar:
    its small commutators are measured, not assumed."""
    _, pair = bott_pair()
    entries = np.eye(pair.space.dim)
    entries[0, 1] = entries[1, 0] = 1e-9
    gen = GradedMatrix(pair.space, entries)
    profiles = validate_pair(AsymptoticPair(RepresentedAlgebra(pair.space, {"a": gen}), pair.d), GRID)
    assert set(measured) == {"gauss0", "gauss1", "resolvent+"}
    values = profiles["a"]["gauss1"].values
    assert 0.0 < values.max() < 1e-8
