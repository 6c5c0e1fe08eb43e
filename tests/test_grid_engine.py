"""The grid engine against point-by-point evaluation.

Spectrum.apply_grid evaluates f(s D) for a whole chunk of scales as one
stack.  Every profile function routed through it must reproduce, bit for
bit, the plain loops below, which call Spectrum.apply and operator_norm
once per grid point.
"""

import numpy as np
import pytest

from gradedlab.estimates import (
    BoundCertificate,
    exp_product_path_profiles,
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
    Spectrum,
    bounded_transform_function,
    cutoff_function,
    grid_chunks,
    map_grid,
)
from gradedlab.bott import perturbation_check
from gradedlab.graded import GradedMatrix, OddSelfAdjoint, graded_commutator, operator_norm, zeros
from gradedlab.pairs import (
    AsymptoticPair,
    DecayProfile,
    RepresentedAlgebra,
    compose_pairs,
    default_t_grid,
    factorization_defect_profiles,
    identity_pushforward,
    validate_pair,
)
from gradedlab.sampling import (
    balanced_space,
    random_even,
    random_even_unitary,
    random_odd,
    random_odd_selfadjoint,
    rng_for,
)

GRID_FUNCTIONS = (*NAMED_FUNCTIONS, bounded_transform_function(3.0), cutoff_function(0.7))
# 4 runs every grid in one stack; 34 needs 14-matrix chunks, so grids cross chunk boundaries
TOY_DIMS = (4, 34)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


def operands(dim, seed=7):
    rng = rng_for((seed, dim))
    space = balanced_space(dim)
    gens = {"a_even": random_even(rng, space, norm=1.0), "a_odd": random_odd(rng, space, norm=1.0)}
    pair = AsymptoticPair(RepresentedAlgebra(space, gens), random_odd_selfadjoint(rng, space, norm=1.0))
    return rng, pair, random_odd_selfadjoint(rng, space, norm=1.0)


@pytest.fixture
def stack_rows(monkeypatch):
    """Record the length of every stack the engine synthesizes (1 for a
    single matrix)."""
    rows = []
    synthesize = Spectrum.synthesize

    def recording(self, weights):
        out = synthesize(self, weights)
        rows.append(out.shape[0] if out.ndim == 3 else 1)
        return out

    monkeypatch.setattr(Spectrum, "synthesize", recording)
    return rows


def within_cap(stack_rows, dim):
    return all(rows == 1 or rows * dim * dim <= STACK_ENTRIES for rows in stack_rows)


# -- the primitive -----------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 8, 16, 31, 127])
def test_apply_grid_rows_equal_apply(dim):
    spec = Spectrum.of(random_hermitian(rng_for(dim), dim))
    per_chunk = max(1, STACK_ENTRIES // (dim * dim))
    scales = 1.0 / np.geomspace(1.0, 1e3, per_chunk + 3)
    assert len(grid_chunks(scales.size, dim)) >= 2
    for f in GRID_FUNCTIONS:
        stacked = map_grid(lambda chunk, f=f: spec.apply_grid(f, chunk), scales, dim)
        assert stacked.shape == (scales.size, dim, dim)
        for row, s in zip(stacked, scales):
            assert np.array_equal(row, spec.apply(f, float(s))), f.name


@pytest.mark.parametrize("dim", [1, 2, 8, 16, 31, 127, 200])
@pytest.mark.parametrize("count", [1, 5, 61, 5000])
def test_grid_chunks_cover_the_grid_within_the_cap(dim, count):
    chunks = grid_chunks(count, dim)
    assert [i for c in chunks for i in range(c.start, c.stop)] == list(range(count))
    for c in chunks:
        rows = c.stop - c.start
        assert rows == 1 or rows * dim * dim <= STACK_ENTRIES


def test_apply_grid_needs_a_single_spectrum():
    stacked = Spectrum.of(np.stack([random_hermitian(rng_for(i), 4) for i in range(3)]))
    assert stacked.eigenvalues.shape == (3, 4)
    with pytest.raises(ValueError):
        stacked.apply_grid(GAUSS0, np.ones(2))


def test_stacked_spectrum_validates_every_matrix():
    good = random_hermitian(rng_for(1), 4)
    bad = good.copy()
    bad[0, 1] += 1.0
    with pytest.raises(ValueError):
        Spectrum.of(np.stack([good, bad]))


# -- routed profile functions against per-point oracles ----------------------


def commbound_oracle(d, d_prime, n_grid, grid, seed):
    spec_d, spec_dp = Spectrum.of(d), Spectrum.of(d_prime)
    rhs = operator_norm(graded_commutator(d.underlying, d_prime.underlying))

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


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_transform_commutator_check_matches_oracle(dim, stack_rows):
    _, pair, d_prime = operands(dim)
    grid = default_t_grid(points=20)
    n_grid = (0.5, 2.0, 8.0)
    got = transform_commutator_check(pair.d, d_prime, n_grid, grid, seed=[1, 2])
    assert got == commbound_oracle(pair.d, d_prime, n_grid, grid, [1, 2])
    assert within_cap(stack_rows, dim)


def test_transform_commutator_check_keeps_the_first_worst_point():
    # zero operators tie every scaled margin at zero
    zero = OddSelfAdjoint(zeros(balanced_space(4)))
    grid = default_t_grid(points=10)
    certs = transform_commutator_check(zero, zero, (1.0,), grid)
    assert certs == commbound_oracle(zero, zero, (1.0,), grid, None)
    assert certs[1].check == f"transform_commutator_scaled[N=1,t={grid[0]:.6g}]"


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_factorization_profiles_match_oracle(dim, stack_rows):
    _, pair, d_prime = operands(dim)
    grid = default_t_grid(10.0, 1e3, 30)
    even, odd = factorization_defect_profiles(pair.d, d_prime, grid)
    want_even, want_odd = factorization_oracle(pair.d, d_prime, grid)
    assert even.values.tolist() == want_even
    assert odd.values.tolist() == want_odd
    assert within_cap(stack_rows, dim)


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_compose_pairs_matches_oracle(dim, stack_rows):
    rng, p_ab, d_prime = operands(dim)
    unitary = random_even_unitary(rng, p_ab.space).entries
    p_bc = AsymptoticPair(RepresentedAlgebra(p_ab.space, {"b": random_even(rng, p_ab.space)}), d_prime)

    def push(m):
        return GradedMatrix(m.space, unitary @ m.entries @ unitary.conj().T)

    grid = default_t_grid(points=24)
    comp = compose_pairs(p_ab, p_bc, push, grid)
    inner, outer = Spectrum.of(push(p_ab.d.underlying)), Spectrum.of(d_prime)
    total = Spectrum.of(comp.pair.d)
    for name, gen in p_ab.rep.generators.items():
        rho = push(gen).entries
        evens, odds = [], []
        for t in grid:
            s = 1.0 / float(t)
            heat_inner, heat_outer = inner.apply(GAUSS0, s), outer.apply(GAUSS0, s)
            evens.append(operator_norm(total.apply(GAUSS0, s) @ rho - heat_outer @ heat_inner @ rho))
            naive_odd = (outer.apply(GAUSS1, s) @ heat_inner + heat_outer @ inner.apply(GAUSS1, s)) @ rho
            odds.append(operator_norm(total.apply(GAUSS1, s) @ rho - naive_odd))
        assert comp.defect_profiles[name]["gauss0"].values.tolist() == evens
        assert comp.defect_profiles[name]["gauss1"].values.tolist() == odds
    assert within_cap(stack_rows, dim)


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_validate_pair_matches_oracle(dim, stack_rows):
    _, pair, _ = operands(dim)
    grid = default_t_grid(points=24)
    report = validate_pair(pair, grid)
    spec = Spectrum.of(pair.d)
    for name, gen in pair.rep.generators.items():
        for f in PAIR_FUNCTIONS:
            want = [
                operator_norm(graded_commutator(GradedMatrix(pair.space, spec.apply(f, 1.0 / float(t))), gen))
                for t in grid
            ]
            assert report.profiles[name][f.name].values.tolist() == want
    assert within_cap(stack_rows, dim)


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_perturbation_check_matches_oracle(dim, stack_rows):
    _, pair, potential = operands(dim)
    grid = default_t_grid(points=24)
    report = perturbation_check(pair, potential, grid)
    spec_v = Spectrum.of(potential)
    for name, gen in pair.rep.generators.items():
        for f in (CAYLEY, MULTIPLIER_G):
            at_zero = complex(np.asarray(f(np.zeros(1)))[0])
            want = [
                operator_norm(spec_v.apply(f, 1.0 / float(t)) @ gen.entries - at_zero * gen.entries) for t in grid
            ]
            assert report.homom_profiles[name][f.name].values.tolist() == want
    want_even, want_odd = factorization_oracle(pair.d, potential, grid)
    assert report.defect_even.values.tolist() == want_even
    assert report.defect_odd.values.tolist() == want_odd
    assert within_cap(stack_rows, dim)


@pytest.mark.parametrize("dim", TOY_DIMS)
def test_transform_sum_sweep_matches_oracle(dim, stack_rows):
    _, pair, d_prime = operands(dim)
    grid = default_t_grid(10.0, 1e3, 12)
    n_grid = (1.0, 4.0, 16.0)
    report = transform_sum_sweep(pair.d, d_prime, n_grid=n_grid, t_grid=grid)
    spec_d, spec_dp = Spectrum.of(pair.d), Spectrum.of(d_prime)
    spec_sum = Spectrum.of(pair.d.mat + d_prime.mat)
    want = np.zeros((len(n_grid), grid.size))
    for j, t in enumerate(grid):
        s = 1.0 / float(t)
        for i, n in enumerate(n_grid):
            transform = bounded_transform_function(n)
            smoothed = spec_d.apply(transform, s) + spec_dp.apply(transform, s)
            want[i, j] = operator_norm(Spectrum.of(smoothed).apply(RESOLVENT_PLUS) - spec_sum.apply(RESOLVENT_PLUS, s))
    assert np.array_equal(report.defects, want)
    assert within_cap(stack_rows, dim)
    if dim == 34:
        assert max(stack_rows) == STACK_ENTRIES // (dim * dim)


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
