"""Property tests on random graded spaces, the premises of the block kernels.

Each example draws a root seed and a space of (even, odd) counts 1..8
each, so dimension 2..16 and any imbalance between the parity blocks.
The fixed derandomized profile makes tier-1 run the same examples every
time.  The chiral spectrum's examples also draw the rank of D's odd
block, for kernels beyond the dimension gap, and the parity examples
draw counts 0..8, so one parity block may be empty.

transform_commutator_check rests on three facts checked here: an odd f
gives an odd f(D) (from gamma f(D) gamma = f(-D)); the anticommutator of
two odd Hermitian matrices is even; and the norm of that even matrix is
the largest of its two diagonal parity blocks' norms.  The Bott spectrum
rests on a fourth: an odd Hermitian matrix has the spectrum
+-sigma(B[e, o]) and |#e - #o| exact zeros.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedlab.funcalc
from gradedlab.bott import spectrum_and_kernel
from gradedlab.estimates import transform_commutator_check
from gradedlab.funcalc import (
    NAMED_FUNCTIONS,
    PAIR_FUNCTIONS,
    RESOLVENT_MINUS,
    RESOLVENT_PLUS,
    ChiralSpectrum,
    ParityBlocks,
    Spectrum,
    bounded_transform_function,
)
from gradedlab.graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    graded_commutator,
    graded_tensor,
    operator_norm,
    operator_norms,
    zeros,
)
from gradedlab.pairs import default_t_grid
from gradedlab.sampling import (
    random_even,
    random_homogeneous,
    random_odd,
    random_odd_selfadjoint,
    rng_for,
)

settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=40)
TIER1 = settings.get_profile("tier1")

SEEDS = st.integers(0, 2**32 - 1)
COUNTS = st.integers(1, 8)
SPACES = st.builds(GradedSpace, COUNTS, COUNTS)
# tensor factors: (even, odd) counts 0..2 each, dimension 1..4
FACTORS = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any).map(lambda counts: GradedSpace(*counts))
# (even, odd) counts 0..8 each, dimension 1..16
SPLITS = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(any).map(lambda counts: GradedSpace(*counts))
FUNCTIONS = (*NAMED_FUNCTIONS, bounded_transform_function(2.0))


@TIER1
@given(SEEDS, SPLITS)
def test_parity_reads_exact_zero_blocks(seed, space):
    """GradedMatrix.parity is 0 for an even draw and the zero matrix, 1 for an
    odd draw and None for the sum of an even and an odd draw, or a full
    Gaussian draw; on a space with no even or no odd vectors the odd blocks
    are empty, so every matrix has parity 0."""
    rng = rng_for(seed)
    even, odd = random_even(rng, space), random_odd(rng, space)
    full = GradedMatrix(space, rng.standard_normal((space.dim, space.dim)))
    one_sided = 0 in (space.even, space.odd)
    assert even.parity == zeros(space).parity == 0
    assert odd.parity == (0 if one_sided else 1)
    assert (even + odd).parity == full.parity == (0 if one_sided else None)


@TIER1
@given(SEEDS, SPACES, st.floats(0.1, 20.0))
def test_grading_covariance_on_random_parities(seed, space, norm):
    """gamma f(D) gamma = f(-D); odd f gives zero diagonal parity blocks, and
    even f zero off-diagonal ones, at roundoff level."""
    rng = rng_for(seed)
    d = random_odd_selfadjoint(rng, space, norm=norm)
    signs, k = space.gamma_signs(), space.even
    for f in FUNCTIONS:
        value = Spectrum.of(d).apply(f)
        flipped = Spectrum.of(-d).apply(f)
        roundoff = 1e-12 * max(1.0, np.abs(value).max())
        assert np.abs(signs[:, None] * value * signs[None, :] - flipped).max() <= roundoff
        if f.parity == 1:
            assert max(np.abs(value[:k, :k]).max(), np.abs(value[k:, k:]).max()) <= roundoff
        elif f.parity == 0:
            assert np.abs(value[:k, k:]).max() <= roundoff


@TIER1
@given(SEEDS, SPACES)
def test_anticommutator_of_odd_hermitians_is_even(seed, space):
    """{a, b} has exactly zero off-diagonal parity blocks, and its norm is the
    larger of its diagonal blocks' norms."""
    rng = rng_for(seed)
    a, b = (random_odd_selfadjoint(rng, space).entries for _ in range(2))
    anti = a @ b + b @ a
    k = space.even
    assert np.all(anti[:k, k:] == 0) and np.all(anti[k:, :k] == 0)
    blocks = max(operator_norm(anti[:k, :k]), operator_norm(anti[k:, k:]))
    assert abs(blocks - operator_norm(anti)) <= 1e-12 * blocks


@TIER1
@given(SEEDS, SPACES)
def test_transform_commutator_block_kernel_on_random_parities(seed, space):
    """The block kernel's lhs equals the full anticommutator's norm to 1e-12."""
    rng = rng_for(seed)
    d, d_prime = random_odd_selfadjoint(rng, space), random_odd_selfadjoint(rng, space)
    n = float(rng.uniform(0.5, 8.0))
    lhs, _ = transform_commutator_check(d, d_prime, (n,), default_t_grid(points=2))
    f = bounded_transform_function(n)
    a, b = Spectrum.of(d).apply(f), Spectrum.of(d_prime).apply(f)
    want = np.abs(np.linalg.eigvalsh(a @ b + b @ a)).max()
    assert abs(lhs[0, 0] - want) <= 1e-12 * want


@TIER1
@given(SEEDS, SPACES, st.floats(0.1, 20.0), st.booleans())
def test_odd_block_spectrum_on_random_parities(seed, space, norm, real):
    """The odd-block spectrum is symmetric under lambda -> -lambda, holds at
    least |#e - #o| exact zeros, and matches eigvalsh of the full matrix."""
    rng = rng_for(seed)
    b = random_odd_selfadjoint(rng, space, norm=norm)
    if real:
        b = OddSelfAdjoint(space, b.entries.real)
    eigenvalues, kernel_dim = spectrum_and_kernel(b)
    gap = abs(space.even - space.odd)
    assert np.array_equal(eigenvalues, -eigenvalues[::-1])
    assert np.count_nonzero(eigenvalues == 0.0) >= gap
    assert kernel_dim >= gap
    roundoff = 4 * space.dim * np.finfo(float).eps * operator_norm(b)
    assert np.abs(eigenvalues - np.linalg.eigvalsh(b.entries)).max() <= roundoff


@TIER1
@given(SEEDS, SPACES, st.floats(0.1, 20.0))
def test_contractivity_on_random_parities(seed, space, norm):
    """||f(D)|| <= sup |f| for every function with a declared sup norm."""
    rng = rng_for(seed)
    d = random_odd_selfadjoint(rng, space, norm=norm)
    for f in FUNCTIONS:
        assert operator_norm(Spectrum.of(d).apply(f)) <= f.sup_norm * (1 + 1e-12)


@TIER1
@given(SEEDS, SPACES, st.tuples(*[st.integers(0, 1)] * 3))
def test_super_jacobi(seed, space, parities):
    """(-1)^(pa pc) [a, [b, c]] + (-1)^(pb pa) [b, [c, a]] + (-1)^(pc pb) [c, [a, b]] = 0."""
    rng = rng_for(seed)
    a, b, c = (random_homogeneous(rng, space, p) for p in parities)
    pa, pb, pc = parities
    total = (
        (-1) ** (pa * pc) * graded_commutator(a, graded_commutator(b, c)).entries
        + (-1) ** (pb * pa) * graded_commutator(b, graded_commutator(c, a)).entries
        + (-1) ** (pc * pb) * graded_commutator(c, graded_commutator(a, b)).entries
    )
    scale = operator_norm(a) * operator_norm(b) * operator_norm(c)
    assert np.abs(total).max() <= 1e-12 * scale


@TIER1
@given(SEEDS, FACTORS, FACTORS, st.tuples(*[st.integers(0, 1)] * 4))
def test_graded_tensor_koszul_multiplicativity(seed, left, right, parities):
    """(a (x) b)(c (x) d) = (-1)^(pb pc) (ac (x) bd) for homogeneous b, c, on
    product spaces of dimension up to 16, in their permuted parity order."""
    rng = rng_for(seed)
    pa, pb, pc, pd = parities
    a, c = random_homogeneous(rng, left, pa), random_homogeneous(rng, left, pc)
    b, d = random_homogeneous(rng, right, pb), random_homogeneous(rng, right, pd)
    product = graded_tensor(a, b) @ graded_tensor(c, d)
    koszul = (-1) ** (pb * pc) * graded_tensor(a @ c, b @ d)
    scale = operator_norm(a) * operator_norm(b) * operator_norm(c) * operator_norm(d)
    assert np.abs(product.entries - koszul.entries).max() <= 1e-12 * max(scale, 1.0)
    assert product.space == koszul.space


def chiral_operator(rng, n_even, n_odd, rank, real):
    """Odd Hermitian D on the space (n_even, n_odd) whose odd block A = D[e, o]
    has the given rank: |#e - #o| + 2 (min - rank) zero modes."""
    a = rng.standard_normal((n_even, rank)) @ rng.standard_normal((rank, n_odd))
    if not real:
        a = a + 1j * rng.standard_normal((n_even, rank)) @ rng.standard_normal((rank, n_odd))
    return OddSelfAdjoint(GradedSpace(n_even, n_odd), np.block([[np.zeros((n_even, n_even)), a],
                                                                [a.conj().T, np.zeros((n_odd, n_odd))]]))


@TIER1
@given(SEEDS, st.integers(1, 8), st.integers(1, 8), st.integers(0, 8), st.booleans(), st.floats(0.1, 5.0))
def test_chiral_spectrum_on_random_parities(seed, n_even, n_odd, rank, real, scale):
    """f(s D) from the chiral spectrum is exactly even for even f and exactly
    odd for odd f, and gamma f(s D) gamma is f(-s D) bit for bit.  The
    parity-block norms of f(s D) a match the full-matrix norms of the eigh
    calculus to 1e-12 relative, for even, odd and mixed f and for even, odd
    and mixed a (gathered as its two parity parts), and so do those of
    [f(s D), a] for even and odd a in each PAIR_FUNCTIONS column;
    chiral_parts refuses the mixed a.  A mixed product, as the resolvents'
    is, real D and a included, takes the full-size norm.  The tolerance is
    the eigh calculus's own roundoff: f(s (D + E)) with ||E|| ~ eps ||D||,
    or 32 eps (1 + s ||D||) ||a|| absolute for these functions of Lipschitz
    constant at most 1."""
    rng = rng_for(seed)
    d = chiral_operator(rng, n_even, n_odd, min(rank, n_even, n_odd), real)
    space, signs, k = d.space, d.space.gamma_signs(), d.space.even
    chiral, spec = ChiralSpectrum.of(d), Spectrum.of(d)
    cast = (lambda m: m.real) if real else (lambda m: m)
    gens = [GradedMatrix(space, cast(draw(rng, space, norm=1.0).entries)) for draw in (random_even, random_odd)]
    commutators = [dict(zip(PAIR_FUNCTIONS, chiral.commutator_norms([scale], chiral.chiral_parts(a))[0]))
                   for a in gens]
    blocks = [ParityBlocks.gather(space, a.entries, a.parity) for a in gens]
    gens.append(gens[0] + gens[1])
    with pytest.raises(ValueError, match="homogeneous"):
        chiral.chiral_parts(gens[2])
    blocks.append(blocks[0] + blocks[1])
    commutators.append({})
    for f in FUNCTIONS:
        value = chiral.apply(f, scale)
        assert np.array_equal(signs[:, None] * value * signs[None, :], chiral.apply(f, -scale)), f.name
        if f.parity is not None:
            zero_blocks = [value[:k, k:], value[k:, :k]] if f.parity == 0 else [value[:k, :k], value[k:, k:]]
            assert not any(np.any(block) for block in zero_blocks), f.name
        full = spec.apply(f, scale)
        for a, a_blocks, columns in zip(gens, blocks, commutators):
            floor = 32 * np.finfo(float).eps * (1 + scale * operator_norm(d)) * operator_norm(a)
            product = (chiral.blocks(f, [scale]) @ a_blocks).norms()[0]
            assert abs(product - operator_norm(full @ a.entries)) <= 1e-12 * product + floor, f.name
            if f in columns:
                want = operator_norm(graded_commutator(GradedMatrix(space, full), a))
                assert abs(columns[f] - want) <= 1e-12 * want + floor, f.name


@TIER1
@given(SEEDS, st.integers(1, 8), st.integers(1, 8), st.integers(0, 8), st.booleans(), st.floats(-3.0, 0.0))
def test_factored_resolvent_norms_on_random_parities(seed, n_even, n_odd, rank, real, log_scale):
    """For homogeneous a, ||[R+-(s D), a]|| = s ||rho(s D) [D, a] rho(s D)||
    with rho(x) = (1 + x^2)^(-1/2): commutator_norms takes the resolvent
    norms in this form, from half-size blocks only, on D with zero modes,
    real and complex, for even and odd a, at scales s from 1 to 1e-3.  The
    resolvent+ and resolvent- columns are one norm, bit for bit, and equal
    the dense graded_commutator norm of the eigh calculus to 1e-12
    relative, up to the floor 32 eps (1 + s ||D||) ||a||."""
    rng = rng_for(seed)
    d = chiral_operator(rng, n_even, n_odd, min(rank, n_even, n_odd), real)
    scale = 10.0**log_scale
    chiral, spec = ChiralSpectrum.of(d), Spectrum.of(d)
    cast = (lambda m: m.real) if real else (lambda m: m)
    for draw in (random_even, random_odd):
        a = GradedMatrix(d.space, cast(draw(rng, d.space, norm=1.0).entries))
        parts = chiral.chiral_parts(a)
        with mock.patch.object(gradedlab.funcalc, "operator_norms", wraps=operator_norms) as norms:
            columns = dict(zip(PAIR_FUNCTIONS, chiral.commutator_norms([scale], parts)[0]))
        assert all(max(call.args[0].shape[-2:]) < d.space.dim for call in norms.call_args_list)
        plus, minus = columns[RESOLVENT_PLUS], columns[RESOLVENT_MINUS]
        floor = 32 * np.finfo(float).eps * (1 + scale * operator_norm(d)) * operator_norm(a)
        assert plus == minus
        for f, got in ((RESOLVENT_PLUS, plus), (RESOLVENT_MINUS, minus)):
            want = operator_norm(graded_commutator(GradedMatrix(d.space, spec.apply(f, scale)), a))
            assert abs(got - want) <= 1e-12 * want + floor, f.name
