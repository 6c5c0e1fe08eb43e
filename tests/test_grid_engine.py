"""The grid engine against point-by-point evaluation.

ChiralSpectrum.blocks(f, scales) evaluates f(s D) of an odd D for a whole
chunk of scales as one stack of parity blocks, and its rows equal the
one-scale evaluation bit for bit.  Every profile comes from the chiral
spectrum: f(s D) as parity blocks from the SVD of D's odd block,
commutators as Schur products in D's chiral basis, and norms from
half-size blocks.  Another factorization and other products change the
last bits, so every such profile is held to the plain loops below, which
call Spectrum.apply (the eigendecomposition of the full matrix) and
operator_norm once per grid point, to 1e-10 relative up to the loop's
own cancellation floor; values below RESOLVED stay below it.  The
certificates commbound names from its table match the full-matrix loop's
with equal check names and lhs to 1e-12 relative.  30-digit mpmath
oracles hold transform_commutator_check, validate_pair, compose_pairs and
transform_sum_sweep to 1e-12 relative, and the Bott profiles of
perturbation_check at t = 1e3, which no longer subtract O(1) matrices, to
1e-13.  The exponentials of exp_product_path_profiles also run as stacks
over the grid, and equal a per-point loop bit for bit.
"""

import weakref

import mpmath
import numpy as np
import pytest

from gradedlab.estimates import (
    exp_product_path_profiles,
    exp_product_series_bound,
    transform_commutator_check,
    transform_sum_sweep,
)
from gradedlab.funcalc import (
    CAYLEY,
    GAUSS0,
    GAUSS1,
    MULTIPLIER_G,
    NAMED_FUNCTIONS,
    PAIR_FUNCTIONS,
    RESOLVENT_PLUS,
    STACK_ENTRIES,
    ChiralSpectrum,
    Spectrum,
    bounded_transform_function,
    grid_chunks,
    map_grid,
)
from gradedlab.bott import bott_dirac, multiplication_generators, perturbation_check
from gradedlab.experiments import ExperimentConfig, _transform_commutator_certs, run_experiment
from gradedlab.graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    graded_commutator,
    graded_tensor,
    identity,
    negligible,
    operator_norm,
    parity_parts,
    zeros,
)
from gradedlab.pairs import (
    AsymptoticPair,
    DecayProfile,
    compose_pairs,
    default_t_grid,
    factorization_defect_profiles,
    grid_profiles,
    identity_pushforward,
    validate_pair,
)
from gradedlab.reporting import BoundCertificate
from gradedlab.sampling import (
    balanced_space,
    random_even,
    random_even_unitary,
    random_odd,
    random_odd_selfadjoint,
    random_space,
    rng_for,
)

from helpers import as_odd, homogeneous_parts, matrix_exp_oracle

GRID_FUNCTIONS = (*NAMED_FUNCTIONS, bounded_transform_function(3.0))
# 4 runs every grid in one stack; 34 needs 14-matrix chunks, so grids cross chunk boundaries
TOY_DIMS = (4, 34)
# Oracle values below this are roundoff, held only to stay below it.
RESOLVED = 1e-14


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


def operands(dim, seed=7):
    rng = rng_for((seed, dim))
    space = balanced_space(dim)
    gens = {"a_even": random_even(rng, space, norm=1.0), "a_odd": random_odd(rng, space, norm=1.0)}
    pair = AsymptoticPair(gens, random_odd_selfadjoint(rng, space, norm=1.0))
    return rng, pair, random_odd_selfadjoint(rng, space, norm=1.0)


@pytest.fixture
def stack_rows(monkeypatch):
    """Record the length of every stack the engine synthesizes by parity
    blocks, or whose commutator norms it takes."""
    rows = []

    def recording(method, length):
        def wrapper(self, *args, **kwargs):
            out = method(self, *args, **kwargs)
            rows.append(length(out))
            return out

        return wrapper

    monkeypatch.setattr(ChiralSpectrum, "blocks", recording(ChiralSpectrum.blocks, lambda out: len(out.top)))
    monkeypatch.setattr(ChiralSpectrum, "odd_block", recording(ChiralSpectrum.odd_block, len))
    monkeypatch.setattr(ChiralSpectrum, "commutator_norms", recording(ChiralSpectrum.commutator_norms, len))
    return rows


def within_cap(stack_rows, dim):
    return all(rows == 1 or rows * dim * dim <= STACK_ENTRIES for rows in stack_rows)


# -- the primitive -----------------------------------------------------------


def chiral_stack(spec, f, scales):
    """f(s D) for each s in scales from ChiralSpectrum.blocks, which takes an
    even or odd f; a resolvent as the sum of its two parts."""
    return sum(c * spec.blocks(part, scales).dense() for c, part in homogeneous_parts(f))


@pytest.mark.parametrize("dim", [2, 8, 16, 31, 127])
def test_apply_grid_rows_equal_apply(dim):
    """Rows of a chunked grid of ChiralSpectrum.blocks equal the one-scale
    evaluation bit for bit, and Spectrum.apply to roundoff; the resolvents
    through their two parts.  At odd dim the space has one more even than
    odd vector, so D has a zero mode."""
    space = GradedSpace((dim + 1) // 2, dim // 2)
    d = random_odd_selfadjoint(rng_for(dim), space, norm=1.0)
    spec, full = ChiralSpectrum.of(d), Spectrum.of(d)
    per_chunk = max(1, STACK_ENTRIES // (dim * dim))
    scales = 1.0 / np.geomspace(1.0, 1e3, per_chunk + 3)
    assert len(grid_chunks(scales.size, dim)) >= 2
    for f in GRID_FUNCTIONS:
        stacked = map_grid(lambda chunk, f=f: chiral_stack(spec, f, chunk), scales, dim)
        assert stacked.shape == (scales.size, dim, dim)
        for row, s in zip(stacked, scales):
            assert np.array_equal(row, chiral_stack(spec, f, [s])[0]), f.name
            np.testing.assert_allclose(row, full.apply(f, float(s)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 8, 16, 31, 127, 200])
@pytest.mark.parametrize("count", [1, 5, 61, 5000])
def test_grid_chunks_cover_the_grid_within_the_cap(dim, count):
    chunks = grid_chunks(count, dim)
    assert [i for c in chunks for i in range(c.start, c.stop)] == list(range(count))
    for c in chunks:
        rows = c.stop - c.start
        assert rows == 1 or rows * dim * dim <= STACK_ENTRIES


def test_apply_grid_needs_a_single_spectrum():
    """Spectrum is the eigendecomposition of one matrix: a stack of
    Hermitian matrices is refused, and grids run through ChiralSpectrum."""
    with pytest.raises(ValueError, match="one matrix"):
        Spectrum.of(np.stack([random_hermitian(rng_for(i), 4) for i in range(3)]))


def test_grid_profiles_take_columns_in_order_from_t_values():
    """grid_profiles passes each chunk of t values itself (callers take 1/t)
    and returns one profile per column of norms, in column order.  The call
    evaluates the window, the upper half of the grid, in order; the
    first read of values evaluates the lower half, once for all columns."""
    grid, seen = default_t_grid(points=40), []

    def norms(ts):
        seen.append(ts)
        return np.stack([1.0 / ts, ts**-2, np.zeros(ts.size)], -1)

    inverse, square, zero = grid_profiles(grid, 34, norms)
    assert len(seen) > 1 and np.array_equal(np.concatenate(seen), grid[20:])
    upper_chunks = len(seen)
    assert np.array_equal(inverse.values, 1.0 / grid)
    assert len(seen) > upper_chunks + 1 and np.array_equal(np.concatenate(seen[upper_chunks:]), grid[:20])
    lower_chunks = len(seen)
    assert np.array_equal(square.values, grid**-2) and np.array_equal(zero.values, np.zeros(grid.size))
    assert len(seen) == lower_chunks
    assert np.array_equal(inverse.window, 1.0 / grid[20:]) and np.array_equal(square.window, grid[20:] ** -2)


@pytest.mark.parametrize("read", [False, True])
def test_dropped_profiles_free_what_their_norms_hold(read):
    """A profile holds its norms callback until it is dropped, values read or
    not, and nothing else holds it: dropping the profiles frees the
    callback's operands at once, with no garbage collection."""

    class Operand:
        pass

    operand = Operand()
    held = weakref.ref(operand)
    profiles = grid_profiles(default_t_grid(), 4, lambda ts, operand=operand: (1.0 / ts)[:, None])
    del operand
    if read:
        profiles[0].values
    assert held() is not None
    del profiles
    assert held() is None


def test_grid_profiles_over_several_chunks_equal_one_chunk():
    """At dim 34 a 60-point grid runs in chunks of 14 t values, at dim 1 in
    one; the profiles agree bit for bit, 1/t of a chunk being (1/t)[chunk]."""
    _, pair, _ = operands(34)
    spec, grid = ChiralSpectrum.of(pair.d), default_t_grid()
    parts = spec.chiral_parts(pair.generators["a_odd"])

    def norms(ts):
        return spec.commutator_norms(1.0 / ts, parts)

    assert len(grid_chunks(grid.size, 34)) > 1 and len(grid_chunks(grid.size, 1)) == 1
    chunked_profiles, whole_profiles = grid_profiles(grid, 34, norms), grid_profiles(grid, 1, norms)
    assert len(chunked_profiles) == len(PAIR_FUNCTIONS)
    for chunked, whole in zip(chunked_profiles, whole_profiles, strict=True):
        assert np.array_equal(chunked.values, whole.values)


# -- routed profile functions against per-point oracles ----------------------


def commbound_oracle(d, d_prime, n_grid, grid, seed):
    spec_d, spec_dp = Spectrum.of(d), Spectrum.of(d_prime)
    rhs = operator_norm(graded_commutator(d, d_prime))

    def norm(a, b):
        return float(np.abs(np.linalg.eigvalsh(a @ b + b @ a)).max())

    certs = []
    for n in n_grid:
        f = bounded_transform_function(n)
        lhs = norm(spec_d.apply(f), spec_dp.apply(f))
        certs.append(BoundCertificate(f"transform_commutator[N={n:g}]", lhs, rhs, seed))
    for n in n_grid:
        f = bounded_transform_function(n)
        worst = None
        for t in grid:
            s = 1.0 / float(t)
            lhs = norm(spec_d.apply(f, s), spec_dp.apply(f, s))
            cert = BoundCertificate(f"transform_commutator_scaled[N={n:g},t={t:.6g}]", lhs, rhs * s * s, seed)
            if worst is None or cert.margin < worst.margin:
                worst = cert
        certs.append(worst)
    return certs


def factorization_oracle(d, d_prime, grid):
    spec_sum, spec_d, spec_dp = Spectrum.of(d + d_prime), Spectrum.of(d), Spectrum.of(d_prime)
    evens, odds = [], []
    for t in grid:
        s = 1.0 / float(t)
        heat_d, heat_dp = spec_d.apply(GAUSS0, s), spec_dp.apply(GAUSS0, s)
        evens.append(operator_norm(spec_sum.apply(GAUSS0, s) - heat_d @ heat_dp))
        odd = spec_sum.apply(GAUSS1, s) - spec_d.apply(GAUSS1, s) @ heat_dp - heat_d @ spec_dp.apply(GAUSS1, s)
        odds.append(operator_norm(odd))
    return evens, odds


def assert_matches_loop(got, want, operand_norm=1.0):
    """Profile values against a per-point loop: 1e-10 relative, up to the
    loop's own cancellation floor of 64 eps times its operands' norm.  The
    loop subtracts O(1) matrices whose difference is ~1e-6 at t = 1e3, while
    the profile forms that difference from chiral weights and parity blocks."""
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=64 * np.finfo(float).eps * operand_norm)


def split_or_lifted_operands(case):
    """Odd D, D' on a random_space split, or lifts to a graded_tensor product,
    whose Kronecker parities (0, 1, 0, 1, 1, 0, 1, 0) it permutes into (4, 4)."""
    rng = rng_for(11)
    if case == "random-space":
        space = random_space(rng, 10)
        return random_odd_selfadjoint(rng, space), random_odd_selfadjoint(rng, space)
    base, fiber = balanced_space(4), balanced_space(2)
    d, d_prime, e = (random_odd_selfadjoint(rng, s) for s in (base, base, fiber))
    lift = as_odd(graded_tensor(d, identity(fiber)))
    lift_prime = as_odd(
        graded_tensor(d_prime, identity(fiber)) + graded_tensor(identity(base), e)
    )
    return lift, lift_prime


def assert_same_certificates(got, want):
    """Equal check names, seeds and rhs; lhs to 1e-12 relative (the block
    form's products and eigensolve differ from the full matrix's)."""
    assert [(c.check, c.seed, c.rhs) for c in got] == [(c.check, c.seed, c.rhs) for c in want]
    np.testing.assert_allclose([c.lhs for c in got], [c.lhs for c in want], rtol=1e-12, atol=0)


@pytest.mark.parametrize("case", [*TOY_DIMS, "random-space", "tensor-lift"])
def test_transform_commutator_check_matches_oracle(case, stack_rows):
    if case in TOY_DIMS:
        _, pair, d_prime = operands(case)
        d = pair.d
    else:
        d, d_prime = split_or_lifted_operands(case)
    if case == "tensor-lift":
        assert d.space == GradedSpace(4, 4)
    grid = default_t_grid(points=20)
    n_grid = (0.5, 2.0, 8.0)
    got = _transform_commutator_certs(n_grid, grid, *transform_commutator_check(d, d_prime, n_grid, grid), [1, 2])
    assert_same_certificates(got, commbound_oracle(d, d_prime, n_grid, grid, [1, 2]))
    assert within_cap(stack_rows, d.space.dim)


def mp_anticommutator_norm(d, d_prime, n, s):
    """||{(s D)_N, (s D')_N}|| at 30 digits, from mpmath's eigh of D and D',
    the full matrix products and the largest singular value."""
    with mpmath.workdps(30):
        n2 = mpmath.mpf(n) ** 2

        def transform(m):
            values, vectors = mpmath.eigh(mpmath.matrix(m.entries.tolist()))
            weights = [s * v / (1 + (s * v) ** 2 / n2) for v in values]
            return vectors * mpmath.diag(weights) * vectors.H

        a, b = transform(d), transform(d_prime)
        return float(max(mpmath.svd_c(a * b + b * a, compute_uv=False)))


@pytest.mark.parametrize("case", ["balanced", "random-space"])
def test_transform_commutator_check_matches_mpmath(case):
    """A 30-digit oracle at d = 4 and on the random split (2, 3), for every
    entry of the table: 1e-12 relative."""
    rng = rng_for(31)
    space = balanced_space(4) if case == "balanced" else random_space(rng, 5)
    d, d_prime = random_odd_selfadjoint(rng, space), random_odd_selfadjoint(rng, space)
    grid = default_t_grid(points=4)
    n_grid = (0.5, 4.0)
    lhs, _ = transform_commutator_check(d, d_prime, n_grid, grid)
    assert lhs.shape == (len(n_grid), 1 + grid.size)
    for k, n in enumerate(n_grid):
        assert lhs[k, 0] == pytest.approx(mp_anticommutator_norm(d, d_prime, n, mpmath.mpf(1)), rel=1e-12)
        for j, t in enumerate(grid):
            want = mp_anticommutator_norm(d, d_prime, n, 1 / mpmath.mpf(float(t)))
            assert lhs[k, 1 + j] == pytest.approx(want, rel=1e-12)


def test_transform_commutator_check_keeps_the_first_worst_point():
    # zero operators tie every scaled margin at zero
    zero = as_odd(zeros(balanced_space(4)))
    grid = default_t_grid(points=10)
    certs = _transform_commutator_certs((1.0,), grid, *transform_commutator_check(zero, zero, (1.0,), grid), None)
    assert certs == commbound_oracle(zero, zero, (1.0,), grid, None)
    assert certs[1].check == f"transform_commutator_scaled[N=1,t={grid[0]:.6g}]"


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_factorization_profiles_match_oracle(dim, stack_rows):
    _, pair, d_prime = operands(dim)
    grid = default_t_grid(10.0, 1e3, 30)
    even, odd = factorization_defect_profiles(pair.d, d_prime, grid)
    want_even, want_odd = factorization_oracle(pair.d, d_prime, grid)
    assert_matches_loop(even.values, want_even)
    assert_matches_loop(odd.values, want_odd)
    assert within_cap(stack_rows, dim)


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_compose_pairs_matches_oracle(dim, stack_rows):
    rng, p_ab, d_prime = operands(dim)
    unitary = random_even_unitary(rng, p_ab.space).entries
    p_bc = AsymptoticPair({"b": random_even(rng, p_ab.space)}, d_prime)

    def push(m):
        return GradedMatrix(m.space, unitary @ m.entries @ unitary.conj().T)

    grid = default_t_grid(points=24)
    composed, defect_profiles = compose_pairs(p_ab, p_bc, push, grid)
    inner, outer = Spectrum.of(push(p_ab.d)), Spectrum.of(d_prime)
    total = Spectrum.of(composed.d)
    for name, gen in p_ab.generators.items():
        rho = push(gen).entries
        evens, odds = [], []
        for t in grid:
            s = 1.0 / float(t)
            heat_inner, heat_outer = inner.apply(GAUSS0, s), outer.apply(GAUSS0, s)
            evens.append(operator_norm(total.apply(GAUSS0, s) @ rho - heat_outer @ heat_inner @ rho))
            naive_odd = (outer.apply(GAUSS1, s) @ heat_inner + heat_outer @ inner.apply(GAUSS1, s)) @ rho
            odds.append(operator_norm(total.apply(GAUSS1, s) @ rho - naive_odd))
        assert_matches_loop(defect_profiles[name]["gauss0"].values, evens, operator_norm(rho))
        assert_matches_loop(defect_profiles[name]["gauss1"].values, odds, operator_norm(rho))
    assert within_cap(stack_rows, dim)


def bott_pairs(n_basis=64):
    """The scalar and multiplication pairs of `lab bott`, at d = 2 n_basis - 1."""
    ops = bott_dirac(n_basis)
    scalar = AsymptoticPair({"unit": identity(ops.space)}, ops.clifford_mult)
    return scalar, AsymptoticPair(multiplication_generators(ops), ops.dirac)


@pytest.mark.parametrize("case", [*TOY_DIMS, "bott"])
def test_validate_pair_matches_oracle(case, stack_rows):
    pair = bott_pairs()[1] if case == "bott" else operands(case)[1]
    grid = default_t_grid(points=24)
    profiles = validate_pair(pair, grid)
    spec = Spectrum.of(pair.d)
    for name, gen in pair.generators.items():
        for f in PAIR_FUNCTIONS:
            want = np.array([
                operator_norm(graded_commutator(GradedMatrix(pair.space, spec.apply(f, 1.0 / float(t))), gen))
                for t in grid
            ])
            got = profiles[name][f.name].values
            resolved = want >= RESOLVED
            # the loop's products carry about eps ||a|| absolute error: at
            # t = 1e3 its gauss0 values (~1e-6) are off by 4e-10 relative
            roundoff = 4 * np.finfo(float).eps * operator_norm(gen)
            np.testing.assert_allclose(got[resolved], want[resolved], rtol=1e-10, atol=roundoff)
            assert np.all(got[~resolved] < RESOLVED)
    assert within_cap(stack_rows, pair.space.dim)


MP_FUNCTIONS = {
    "gauss0": lambda x: mpmath.exp(-(x**2)),
    "gauss1": lambda x: x * mpmath.exp(-(x**2)),
    "resolvent+": lambda x: 1 / (x + 1j),
    "resolvent-": lambda x: 1 / (x - 1j),
}


def mp_commutator_norm(f, d, a, t):
    """||[f(D/t), a]|| at 30 digits: f(D/t) from mpmath's eigh, the graded
    commutator summed over parity parts, the norm from svd_c."""
    with mpmath.workdps(30):
        values, vectors = mpmath.eigh(mpmath.matrix(d.entries.tolist()))
        weights = [MP_FUNCTIONS[f.name](v / mpmath.mpf(float(t))) for v in values]
        fd = vectors * mpmath.diag(weights) * vectors.H
        gamma = mpmath.diag(d.space.gamma_signs().tolist())

        def parts(m):
            return [(m + gamma * m * gamma) / 2, (m - gamma * m * gamma) / 2]

        a_parts = parts(mpmath.matrix(a.entries.tolist()))
        out = mpmath.zeros(d.space.dim)
        for p, f_part in enumerate(parts(fd)):
            for q, a_part in enumerate(a_parts):
                out += f_part * a_part - (-1) ** (p * q) * a_part * f_part
        return float(max(mpmath.svd_c(out, compute_uv=False)))


def test_validate_pair_matches_mpmath():
    """A 30-digit oracle at d = 4 for the two parity parts of a mixed,
    non-Hermitian generator, each a generator of its own: 1e-12 relative,
    up to 4 eps ||a|| absolute.  The absolute term matters at t = 1e3 only,
    where the gauss0 commutator is ~1e-6 and the weights w_i - w_j cancel
    down to eps.  The mixed generator itself is refused."""
    rng = rng_for((30, 4))
    space = balanced_space(4)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mixed = GradedMatrix(space, m / np.linalg.norm(m, 2))
    parts = {name: GradedMatrix(space, part) for name, part in zip(("a0", "a1"), parity_parts(space, mixed.entries))}
    assert not any(negligible(part.entries, mixed.entries) for part in parts.values())
    assert [part.parity for part in parts.values()] == [0, 1] and not mixed.is_hermitian()
    d = random_odd_selfadjoint(rng, space, norm=1.0)
    with pytest.raises(ValueError, match="generator 'a' is neither even nor odd"):
        AsymptoticPair({"a": mixed}, d)
    grid = default_t_grid(points=3)
    profiles = validate_pair(AsymptoticPair(parts, d), grid)
    for name, gen in parts.items():
        for f in PAIR_FUNCTIONS:
            want = [mp_commutator_norm(f, d, gen, t) for t in grid]
            np.testing.assert_allclose(profiles[name][f.name].values, want, rtol=1e-12, atol=4 * np.finfo(float).eps)


def chiral_operands():
    """Real odd D and D' at d = 6 with four even and two odd basis vectors, so
    D has at least two zero modes, and a real even and a real odd generator:
    every norm runs on the half-size blocks, the resolvents' on those of the
    factored form s rho(s D) [D, a] rho(s D)."""
    rng = rng_for(61)
    space = GradedSpace(4, 2)
    d, d_prime = (OddSelfAdjoint(space, random_odd_selfadjoint(rng, space).entries.real) for _ in range(2))
    gens = {name: GradedMatrix(space, draw(rng, space, norm=1.0).entries.real) for name, draw in
            (("a_even", random_even), ("a_odd", random_odd))}
    return AsymptoticPair(gens, d), d_prime


def test_validate_pair_on_chiral_blocks_matches_mpmath():
    """The 30-digit oracle at t = 1 and 1e3: 1e-12 relative, up to the
    4 eps ||a|| absolute cancellation of the gauss0 weights at t = 1e3."""
    pair, _ = chiral_operands()
    grid = np.array([1.0, 1e3])
    profiles = validate_pair(pair, grid)
    for name, gen in pair.generators.items():
        for f in PAIR_FUNCTIONS:
            want = [mp_commutator_norm(f, pair.d, gen, t) for t in grid]
            np.testing.assert_allclose(profiles[name][f.name].values, want, rtol=1e-12, atol=4 * np.finfo(float).eps)


def mp_heat(d, s):
    """gauss0 and gauss1 of s D at 30 digits, from mpmath's eigh."""
    values, vectors = mpmath.eigh(mpmath.matrix(d.entries.tolist()))
    return [vectors * mpmath.diag([MP_FUNCTIONS[f](s * v) for v in values]) * vectors.H for f in ("gauss0", "gauss1")]


def test_compose_pairs_on_chiral_blocks_matches_mpmath():
    """Both defects of composing two real pairs at t = 1 and 1e3 against a
    30-digit oracle: 1e-12 relative, up to 16 eps s ||D + D'|| ||rho||
    absolute.  That is the cancellation of the gauss1 defect's leading terms,
    each ~s ||D||, down to ~1e-9 at t = 1e3."""
    p_ab, d_prime = chiral_operands()
    p_bc = AsymptoticPair({"b": p_ab.generators["a_even"]}, d_prime)
    grid = np.array([1.0, 1e3])
    composed, defect_profiles = compose_pairs(p_ab, p_bc, identity_pushforward, grid)
    for k, t in enumerate(grid):
        with mpmath.workdps(30):
            s = 1 / mpmath.mpf(float(t))
            (h_in, g_in), (h_out, g_out), (h_total, g_total) = (mp_heat(d, s) for d in (p_ab.d, d_prime, composed.d))
            defects = {"gauss0": h_total - h_out * h_in, "gauss1": g_total - g_out * h_in - h_out * g_in}
            for name, gen in composed.generators.items():
                rho = mpmath.matrix(gen.entries.tolist())
                for fn, defect in defects.items():
                    want = float(max(mpmath.svd_r(defect * rho, compute_uv=False)))
                    got = defect_profiles[name][fn].values[k]
                    floor = 16 * np.finfo(float).eps * operator_norm(composed.d) * operator_norm(gen) / t
                    assert got == pytest.approx(want, rel=1e-12, abs=floor), (name, fn, t)


def test_bott_scalar_pair_stays_below_the_fit_floor():
    """The unit generator commutes exactly, so validate_pair records exact
    zeros for it without measuring, below any floor; ||[C, 1]|| is an exact
    0 too, so at the same n_basis the bott_pair[scalar] certificate holds as
    0 <= 0."""
    profiles = validate_pair(bott_pairs()[0], default_t_grid())["unit"]
    assert max(p.values.max() for p in profiles.values()) == 0.0
    (cert,) = [c for c in run_experiment(ExperimentConfig("bott")).certificates if c.check == "bott_pair[scalar]"]
    assert (cert.lhs, cert.rhs) == (0.0, 0.0) and cert.passed


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_perturbation_check_matches_oracle(dim, stack_rows):
    _, pair, potential = operands(dim)
    grid = default_t_grid(points=24)
    homom_profiles, defect_even, defect_odd = perturbation_check(pair, potential, grid)
    spec_v = Spectrum.of(potential)
    for name, gen in pair.generators.items():
        for f in (CAYLEY, MULTIPLIER_G):
            at_zero = complex(np.asarray(f(np.zeros(1)))[0])
            want = [
                operator_norm(spec_v.apply(f, 1.0 / float(t)) @ gen.entries - at_zero * gen.entries) for t in grid
            ]
            assert_matches_loop(homom_profiles[name][f.name].values, want, operator_norm(gen))
    want_even, want_odd = factorization_oracle(pair.d, potential, grid)
    assert_matches_loop(defect_even.values, want_even)
    assert_matches_loop(defect_odd.values, want_odd)
    assert within_cap(stack_rows, dim)


def test_perturbation_check_bott_matches_mpmath():
    """The perturb experiment's Bott profiles at t = 1e3, where ||f(s V) a - f(0) a||
    and the even heat defect are ~1e-6 to ~1e-3, against a 30-digit oracle to
    1e-13 relative: f(s V) - f(0) comes from the chiral weights, and the heat
    kernels from expm1, so no O(1) matrices cancel."""
    ops = bott_dirac(16)
    pair = AsymptoticPair(multiplication_generators(ops), ops.dirac)
    grid = default_t_grid()
    homom_profiles, defect_even, _ = perturbation_check(pair, ops.clifford_mult, grid)
    with mpmath.workdps(30):
        s = 1 / mpmath.mpf(float(grid[-1]))
        c, d = (mpmath.matrix(m.entries.tolist()) for m in (ops.clifford_mult, ops.dirac))
        squared = (s * c) ** 2
        resolvent = mpmath.inverse(mpmath.eye(c.rows) + squared)
        moved = {"cayley": -squared * resolvent, "g": s * c * resolvent}

        def top(m):
            return float(max(mpmath.svd_r(m, compute_uv=False)))

        for name, gen in pair.generators.items():
            for fn, m in moved.items():
                want = top(m * mpmath.matrix(gen.entries.tolist()))
                assert homom_profiles[name][fn].values[-1] == pytest.approx(want, rel=1e-13, abs=0), (name, fn)
        heat = mpmath.expm(-((s * (d + c)) ** 2)) - mpmath.expm(-((s * d) ** 2)) * mpmath.expm(-((s * c) ** 2))
        assert defect_even.values[-1] == pytest.approx(top(heat), rel=1e-13, abs=0)


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_transform_sum_sweep_matches_oracle(dim, stack_rows):
    """The sweep chunks its t values, 14 at dim 34, and each chunk runs
    every N: 20 t values cross a chunk boundary."""
    _, pair, d_prime = operands(dim)
    grid = default_t_grid(10.0, 1e3, 20)
    n_grid = (1.0, 4.0, 16.0)
    report = transform_sum_sweep(pair.d, d_prime, n_grid=n_grid, t_grid=grid)
    spec_d, spec_dp = Spectrum.of(pair.d), Spectrum.of(d_prime)
    spec_sum = Spectrum.of(pair.d.entries + d_prime.entries)
    want = np.zeros((len(n_grid), grid.size))
    for j, t in enumerate(grid):
        s = 1.0 / float(t)
        for i, n in enumerate(n_grid):
            transform = bounded_transform_function(n)
            smoothed = spec_d.apply(transform, s) + spec_dp.apply(transform, s)
            want[i, j] = operator_norm(Spectrum.of(smoothed).apply(RESOLVENT_PLUS) - spec_sum.apply(RESOLVENT_PLUS, s))
    assert_matches_loop(report.defects, want)
    assert within_cap(stack_rows, dim)
    if dim == 34:
        assert max(stack_rows) == STACK_ENTRIES // (dim * dim)


def test_transform_sum_sweep_builds_each_plain_resolvent_once(monkeypatch):
    """The plain resolvent of s (D + D') depends on t alone: the sweep builds
    it, as g - i cayley, once per t value for all seven default N, chunk by
    chunk, and builds no other chiral stack."""
    built = {}
    blocks = ChiralSpectrum.blocks

    def recording(self, f, scales, **kwargs):
        built.setdefault(f.name, []).append(np.array(scales))
        return blocks(self, f, scales, **kwargs)

    monkeypatch.setattr(ChiralSpectrum, "blocks", recording)
    _, pair, d_prime = operands(34)
    grid = default_t_grid(10.0, 1e3, 30)
    transform_sum_sweep(pair.d, d_prime, grid)
    assert sorted(built) == ["cayley", "g"]
    for chunks in built.values():
        assert [len(scales) for scales in chunks] == [14, 14, 2]
        assert np.array_equal(np.concatenate(chunks), 1.0 / grid)


def mp_sweep_defect(d, d_prime, n, t):
    """||(i_N(D/t) + i_N(D'/t) + i)^-1 - ((D + D')/t + i)^-1|| at 30 digits,
    from mpmath's eigh of D and D', full-matrix inverses and svd_c."""
    with mpmath.workdps(30):
        s, n2 = 1 / mpmath.mpf(float(t)), mpmath.mpf(float(n)) ** 2
        m, m_prime = (mpmath.matrix(x.entries.tolist()) for x in (d, d_prime))

        def transform(x):
            values, vectors = mpmath.eigh(x)
            return vectors * mpmath.diag([s * v / (1 + (s * v) ** 2 / n2) for v in values]) * vectors.H

        shift = 1j * mpmath.eye(m.rows)
        smoothed = mpmath.inverse(transform(m) + transform(m_prime) + shift)
        plain = mpmath.inverse(s * (m + m_prime) + shift)
        return float(max(mpmath.svd_c(smoothed - plain, compute_uv=False)))


def test_transform_sum_sweep_matches_mpmath():
    """A 30-digit oracle at d = 4 for every (N, t) of a small sweep: 1e-12
    relative, up to 4 eps absolute.  The defects are differences of two
    resolvents of norm <= 1, so below about 1e-4 the eps-level roundoff of
    the float64 sweep is the bound that matters."""
    rng = rng_for(32)
    space = balanced_space(4)
    d, d_prime = random_odd_selfadjoint(rng, space, norm=1.0), random_odd_selfadjoint(rng, space, norm=1.0)
    grid = np.array([1.0, 10.0, 1e3])
    n_grid = (0.5, 4.0, 64.0)
    report = transform_sum_sweep(d, d_prime, n_grid=n_grid, t_grid=grid)
    for i, n in enumerate(n_grid):
        for j, t in enumerate(grid):
            want = mp_sweep_defect(d, d_prime, n, t)
            assert report.defects[i, j] == pytest.approx(want, rel=1e-12, abs=4 * np.finfo(float).eps), (n, t)


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_exp_product_path_profiles_match_oracle(dim):
    """The path runs as stacks of t-grid points (at d = 34, chunks of 14)."""
    _, pair, d_prime = operands(dim)
    grid = default_t_grid(points=40)
    lhs, rhs = exp_product_path_profiles(pair.d, d_prime, grid)
    want_lhs, want_rhs = [], []
    for t in grid:
        s = 1.0 / float(t) ** 2
        x, y = -s * (pair.d.entries @ pair.d.entries), -s * (d_prime.entries @ d_prime.entries)
        product = matrix_exp_oracle(x) @ matrix_exp_oracle(y)
        want_lhs.append(operator_norm(matrix_exp_oracle(x + y) - product))
        comm = operator_norm(graded_commutator(GradedMatrix(pair.space, x), GradedMatrix(pair.space, y)))
        want_rhs.append(exp_product_series_bound(comm, max(operator_norm(x), operator_norm(y))))
    assert lhs.values.tolist() == want_lhs
    assert rhs.values.tolist() == want_rhs


# -- the t-grid contract ------------------------------------------------------------

_, _PAIR, _D_PRIME = operands(4)
T_GRID_CONSUMERS = {
    "from_values": lambda grid: DecayProfile.from_values(grid, np.ones(len(grid))),
    "validate_pair": lambda grid: validate_pair(_PAIR, grid),
    "factorization_defect_profiles": lambda grid: factorization_defect_profiles(_PAIR.d, _D_PRIME, grid),
    "compose_pairs": lambda grid: compose_pairs(_PAIR, _PAIR, identity_pushforward, grid),
    "perturbation_check": lambda grid: perturbation_check(_PAIR, _D_PRIME, grid),
    "exp_product_path_profiles": lambda grid: exp_product_path_profiles(_PAIR.d, _D_PRIME, grid),
    "transform_commutator_check": lambda grid: transform_commutator_check(_PAIR.d, _D_PRIME, (1.0,), grid),
    "transform_sum_sweep": lambda grid: transform_sum_sweep(_PAIR.d, _D_PRIME, grid),
}


@pytest.mark.parametrize("consumer", sorted(T_GRID_CONSUMERS))
@pytest.mark.parametrize(
    "grid", [[0.0, 1.0], [1.0], [2.0, 1.0], [1.0, np.inf]], ids=["zero", "single", "decreasing", "inf"]
)
def test_bad_t_grid_is_rejected_before_linear_algebra(consumer, grid, monkeypatch):
    """Every t-grid consumer raises ValueError on a grid that is too short,
    non-positive, not increasing or not finite, before any LAPACK call."""

    def no_linear_algebra(*args, **kwargs):
        raise AssertionError("linear algebra ran on a bad t grid")

    for name in ("eigh", "eigvalsh", "norm", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, no_linear_algebra)
    with pytest.raises(ValueError, match="t grid"):
        T_GRID_CONSUMERS[consumer](np.asarray(grid))
