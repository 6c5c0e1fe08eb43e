"""Real models run in real arithmetic.

The dtype of a GradedMatrix follows its data (float64 for real input,
complex128 for complex input), and Spectrum keeps the dtype of the
operator and of the function applied.  The Bott-Dirac model is real, so
its spectra, functional calculus stacks and norms stay real, while the
random complex suites are untouched.  Two savings in validate_pair rest
on exact algebra: a generator equal to c 1 has zero commutators, and for a
homogeneous generator one factored norm gives both resolvent profiles.
"""

import itertools
import math

import numpy as np
import pytest

import gradedlab.funcalc
from gradedlab.bott import (
    bott_dirac,
    multiplication_generators,
    perturbation_check,
    spectrum_and_kernel,
)
from gradedlab.funcalc import CAYLEY, NAMED_FUNCTIONS, PAIR_FUNCTIONS, ChiralSpectrum, ParityBlocks, Spectrum
from gradedlab.graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    direct_sum,
    identity,
    operator_norm,
    zeros,
)
from gradedlab.pairs import (
    AsymptoticPair,
    compose_pairs,
    default_t_grid,
    identity_pushforward,
    validate_pair,
)
from gradedlab.sampling import balanced_space, random_even, random_odd, random_odd_selfadjoint, rng_for

from helpers import bott_operator

GRID = default_t_grid(points=24)


def bott_pair(n_basis=24):
    ops = bott_dirac(n_basis)
    return ops, AsymptoticPair(multiplication_generators(ops), ops.dirac)


def complex_copy(pair):
    """The same pair with every matrix cast to complex128."""
    gens = {name: GradedMatrix(pair.space, g.entries.astype(complex)) for name, g in pair.generators.items()}
    d = OddSelfAdjoint(pair.space, pair.d.entries.astype(complex))
    return AsymptoticPair(gens, d)


@pytest.fixture
def measured(monkeypatch):
    """One record per ChiralSpectrum.commutator_norms call: the names of the
    functions whose Schur stacks it forms, and the number of norm stacks it
    takes.  It reads the cayley weights for rho, the factored stack's
    scaling, so a homogeneous generator's record is SCHUR_PAIR and 3 stacks:
    one factored stack serves both resolvents.  validate_pair reads weights
    and takes norms inside commutator_norms only."""
    records = []
    commutator_norms, weights, norms = ChiralSpectrum.commutator_norms, ChiralSpectrum.weights, ParityBlocks.norms

    def recording_commutator_norms(self, *args):
        records.append([[], 0])
        return commutator_norms(self, *args)

    def recording_weights(self, f, *args, **kwargs):
        if f is not CAYLEY:
            records[-1][0].append(f.name)
        return weights(self, f, *args, **kwargs)

    def recording_norms(self, *args, **kwargs):
        records[-1][1] += 1
        return norms(self, *args, **kwargs)

    monkeypatch.setattr(ChiralSpectrum, "commutator_norms", recording_commutator_norms)
    monkeypatch.setattr(ChiralSpectrum, "weights", recording_weights)
    monkeypatch.setattr(ParityBlocks, "norms", recording_norms)
    return records


# the functions whose Schur stacks a homogeneous generator's commutator_norms call forms
SCHUR_PAIR = ["gauss0", "gauss1"]


@pytest.fixture
def norm_stacks(monkeypatch):
    """Record (dtype, matrix shape) of every stack whose SVD norms the parity blocks take."""
    stacks = []
    original = gradedlab.funcalc.operator_norms

    def recording(stack):
        stacks.append((stack.dtype, stack.shape[-2:]))
        return original(stack)

    monkeypatch.setattr(gradedlab.funcalc, "operator_norms", recording)
    return stacks


# -- the dtype contract ------------------------------------------------------


def test_dtype_follows_the_data():
    space = GradedSpace(1, 2)
    assert GradedMatrix(space, np.eye(3, dtype=int)).entries.dtype == np.float64
    assert GradedMatrix(space, np.eye(3, dtype=np.float32)).entries.dtype == np.float64
    assert GradedMatrix(space, np.eye(3, dtype=complex)).entries.dtype == np.complex128
    for m in (identity(space), zeros(space), GradedMatrix(space, np.diag(space.gamma_signs())), direct_sum(identity(space), zeros(space))):
        assert m.entries.dtype == np.float64
    cplx = GradedMatrix(space, 1j * np.eye(3))
    assert (identity(space) + cplx).entries.dtype == np.complex128
    assert direct_sum(identity(space), cplx).entries.dtype == np.complex128
    assert (identity(space) * 1j).entries.dtype == np.complex128


def test_bott_model_is_real():
    ops, pair = bott_pair()
    b = bott_operator(24)
    for m in (ops.dirac.entries, ops.clifford_mult.entries, b.entries, *(g.entries for g in pair.generators.values())):
        assert m.dtype == np.float64
    spec = Spectrum.of(b)
    assert spec.eigenvectors.dtype == np.float64
    for f in NAMED_FUNCTIONS:
        want = np.complex128 if f.name.startswith("resolvent") else np.float64
        assert spec.apply(f, 1.0 / GRID[0]).dtype == want, f.name


@pytest.mark.parametrize("dim", [4, 16])
def test_random_suites_stay_complex_and_unchanged(dim):
    """Random samples are complex128, and so are their f(D).  Real
    weights on a complex spectrum give the same bits as the same weights
    cast to complex first."""
    rng = rng_for((5, dim))
    space = balanced_space(dim)
    d = random_odd_selfadjoint(rng, space, norm=1.0)
    assert d.entries.dtype == np.complex128
    assert random_even(rng, space).entries.dtype == np.complex128
    assert random_odd(rng, space).entries.dtype == np.complex128
    spec = Spectrum.of(d)
    assert spec.eigenvectors.dtype == np.complex128
    u = spec.eigenvectors
    for f in NAMED_FUNCTIONS:
        for s in 1.0 / GRID:
            value = spec.apply(f, s)
            assert value.dtype == np.complex128
            weights = np.asarray(f(s * spec.eigenvalues)).astype(np.complex128)
            assert np.array_equal(value, (u * weights) @ u.conj().T), f.name


def test_bott_norms_run_on_real_stacks(norm_stacks):
    """validate_pair, compose_pairs and perturbation_check on the real model
    take norms of real half-size parity blocks only.  Per generator and
    chunk, validate_pair takes the gauss0 norms of the two diagonal blocks,
    and the stacked gauss1 and resolvent+ norms of the two off-diagonal
    blocks: the resolvent commutator's norm is that of the real odd matrix
    s rho(s D) [D, a] rho(s D), so no (d, d) stack is taken."""
    ops, pair = bott_pair()
    dim = ops.space.dim
    validate_pair(pair, GRID)
    assert norm_stacks and all(dtype == np.float64 for dtype, _ in norm_stacks)
    assert not any(shape == (dim, dim) for _, shape in norm_stacks)
    del norm_stacks[:]
    scalar = AsymptoticPair({"unit": identity(ops.space)}, ops.clifford_mult)
    compose_pairs(scalar, pair, identity_pushforward, GRID)
    perturbation_check(pair, ops.clifford_mult, GRID)
    assert norm_stacks and all(dtype == np.float64 and max(shape) < dim for dtype, shape in norm_stacks)


# -- an exact oracle for the real two-coordinate spectrum -------------------------


def assert_two_coordinate_ladder_spectrum(k):
    """Paired truncation keeps B invariant, and B^2 = B_1^2 (x) 1 + 1 (x) B_1^2,
    so B^2/2 has eigenvalues m_1 + m_2 with m_i in {0, ..., K - 1}, each of
    multiplicity prod(1 if m_i = 0 else 2), split evenly between +-.  The
    spectrum comes from the odd block; its one zero is the dimension gap."""
    b = bott_operator(k, 2)
    assert b.entries.dtype == np.float64
    eigenvalues, kernel_dim = spectrum_and_kernel(b)
    oracle = []
    for m in itertools.product(range(k), repeat=2):
        multiplicity = math.prod(1 if mi == 0 else 2 for mi in m)
        magnitude = math.sqrt(2.0 * sum(m))
        oracle += [0.0] if multiplicity == 1 else [magnitude, -magnitude] * (multiplicity // 2)
    assert len(oracle) == b.space.dim == (2 * k - 1) ** 2
    np.testing.assert_allclose(eigenvalues, np.sort(oracle), rtol=0, atol=1e-10)
    assert kernel_dim == 1
    assert np.count_nonzero(eigenvalues == 0.0) == 1


def test_two_coordinate_spectrum_matches_ladder_oracle():
    assert_two_coordinate_ladder_spectrum(8)


def test_two_coordinate_spectrum_matches_ladder_oracle_at_benchmark_size():
    """The n_basis model of the bott-2d benchmark config, d = 529."""
    assert_two_coordinate_ladder_spectrum(12)


# -- the two exact savings in validate_pair ----------------------------------------


def test_real_pair_reuses_resolvent_plus(measured):
    _, pair = bott_pair()
    profiles = validate_pair(pair, GRID)
    assert measured and all(record == [SCHUR_PAIR, 3] for record in measured)
    for per_fn in profiles.values():
        assert list(per_fn) == [f.name for f in PAIR_FUNCTIONS]
        assert np.array_equal(per_fn["resolvent-"].values, per_fn["resolvent+"].values)
        assert per_fn["resolvent-"].fitted_exponent == per_fn["resolvent+"].fitted_exponent


def test_complex_copy_measures_the_same_profiles(measured):
    """The complex-cast pair runs the complex kernels; every profile matches
    the real pair's to 1e-10 relative, up to the 4 eps ||a|| absolute
    roundoff of the commutators.  Each resolvent takes a Schur stack of its
    own only for a mixed generator: a homogeneous one, real or complex,
    takes one factored stack for both."""
    _, pair = bott_pair()
    real = validate_pair(pair, GRID)
    cplx_pair = complex_copy(pair)
    cplx = validate_pair(cplx_pair, GRID)
    assert measured and all(record == [SCHUR_PAIR, 3] for record in measured)
    for name, gen in pair.generators.items():
        roundoff = 4 * np.finfo(float).eps * operator_norm(gen)
        for f in PAIR_FUNCTIONS:
            np.testing.assert_allclose(
                real[name][f.name].values, cplx[name][f.name].values, rtol=1e-10, atol=roundoff
            )
    mixed = next(iter(cplx_pair.generators.values())) + cplx_pair.d
    del measured[:]
    validate_pair(AsymptoticPair({"mixed": mixed}, cplx_pair.d), GRID)
    assert measured and all(record == [[f.name for f in PAIR_FUNCTIONS], 4] for record in measured)


@pytest.mark.parametrize("scalar", [1.0, 2.5, 1.0 - 2.0j])
def test_scalar_generator_is_exactly_zero(scalar, measured):
    _, pair = bott_pair()
    unit = identity(pair.space) * scalar
    profiles = validate_pair(AsymptoticPair({"c": unit}, pair.d), GRID)
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
    profiles = validate_pair(AsymptoticPair({"a": gen}, pair.d), GRID)
    assert measured and all(record == [SCHUR_PAIR, 3] for record in measured)
    values = profiles["a"]["gauss1"].values
    assert 0.0 < values.max() < 1e-8
