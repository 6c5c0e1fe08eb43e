import functools
import math
import tracemalloc

import numpy as np
import pytest

from gradedlab import (
    AsymptoticPair,
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    Spectrum,
    bott_dirac,
    dc_commutator_check,
    emit_report,
    graded_commutator,
    graded_tensor,
    hermite_model,
    identity,
    ladder_spectrum,
    multiplication_generators,
    operator_norm,
    perturbation_check,
    spectrum_and_kernel,
    validate_pair,
    zeros,
)
from gradedlab.experiments import ExperimentConfig, run_experiment
from gradedlab.funcalc import CAYLEY, MULTIPLIER_G, ChiralSpectrum
from gradedlab.graded import negligible, parity_parts
from gradedlab.pairs import COMMUTATION_EXPONENT_THRESHOLD, COMPOSE_EXPONENT_THRESHOLD, DecayProfile, default_t_grid
from gradedlab.sampling import balanced_space, random_even, random_odd_selfadjoint, random_space, rng_for

from helpers import (
    SIGMA_X,
    SIGMA_Y,
    SX,
    TWO,
    as_odd,
    bott_nonzeros,
    bott_operator,
    chiral_apply,
    commutes_asymptotically,
    composes,
    dc_nonzeros,
    dense_dc_check,
    fitted_exponents,
    in_tensor_order,
    lifted_dirac,
    max_abs,
    nonzeros_norm,
    tensor_order,
    unsigned_sign,
)

GRID = default_t_grid(points=24)


# -- clifford generators from graded-tensor lifts ------------------------------


def clifford_generators(n):
    """e_1..e_n of Cliff_C(R^n) on ceil(n/2) graded factors C^(1|1):
    e_(2k-1) and e_(2k) lift sigma_x and sigma_y to factor k.  The Koszul
    sign of graded_tensor supplies the Jordan-Wigner string Z..Z."""
    gens = []
    for index in range(n):
        lifted = None
        for factor in range((n + 1) // 2):
            m = (SIGMA_X, SIGMA_Y)[index % 2] if factor == index // 2 else identity(TWO)
            lifted = m if lifted is None else graded_tensor(lifted, m)
        gens.append(lifted)
    return gens


def test_clifford_one_is_sigma_x():
    (e1,) = clifford_generators(1)
    assert e1.space.parity == (0, 1)
    assert np.array_equal(e1.entries, SIGMA_X.entries)


def test_clifford_two_anticommute_and_square():
    e1, e2 = clifford_generators(2)
    assert max_abs(e1 @ e2 + e2 @ e1) <= 1e-14
    assert max_abs(e1 @ e1 - identity(e1.space)) <= 1e-14
    assert max_abs(e2 @ e2 - identity(e2.space)) <= 1e-14


def test_clifford_relations_all_supported_sizes():
    """[e_i, e_j] = 2 delta_ij in the graded sense, for every n <= 6."""
    for n in range(1, 7):
        gens = clifford_generators(n)
        space = gens[0].space
        assert space.dim == 2 ** ((n + 1) // 2)
        for i, ei in enumerate(gens):
            assert negligible(parity_parts(space, ei.entries)[0], ei.entries) and ei.is_hermitian()
            for j, ej in enumerate(gens):
                expected = 2.0 * identity(space) if i == j else zeros(space)
                assert operator_norm(graded_commutator(ei, ej) - expected) <= 1e-12


# -- hermite model -------------------------------------------------------------


def test_hermite_ladder_matrix_element():
    x, d = hermite_model(16)
    assert abs(x[0, 1] - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert abs(d[0, 1] - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert abs(d[1, 0] + 1.0 / math.sqrt(2.0)) <= 1e-15


def test_hermite_structure():
    x, d = hermite_model(32)
    assert np.abs(x - x.T).max() == 0.0
    assert np.abs(d + d.T).max() == 0.0


def test_hermite_canonical_commutation_interior():
    """[d, x] = 1 on all but the top truncation level."""
    x, d = hermite_model(32)
    comm = d @ x - x @ d
    interior = np.diag((np.arange(32) < 30).astype(float))
    assert np.abs(interior @ (comm - np.eye(32)) @ interior).max() <= 1e-12


def test_hermite_eigenvalues_are_gauss_hermite_nodes():
    x, _ = hermite_model(64)
    nodes = np.polynomial.hermite.hermgauss(64)[0]
    eigenvalues = np.linalg.eigvalsh(x)
    np.testing.assert_allclose(eigenvalues, nodes, atol=1e-8)


def test_hermite_model_validation():
    """Fewer than 8 Hermite levels, or fewer than one coordinate, is refused."""
    with pytest.raises(ValueError):
        hermite_model(4)
    with pytest.raises(ValueError):
        bott_dirac(4)
    ops = bott_dirac(16)
    for read in (ladder_spectrum, dc_commutator_check):
        with pytest.raises(ValueError, match="coordinate"):
            read(ops, 0)


# -- bott-dirac -----------------------------------------------------------------


def test_bott_operators_are_odd_selfadjoint():
    ops = bott_dirac(16)
    # OddSelfAdjoint construction is itself the Hermitian/odd check
    assert isinstance(ops.dirac, OddSelfAdjoint)
    assert isinstance(ops.clifford_mult, OddSelfAdjoint)
    assert ops.space.dim == 31


def test_bott_rung_builds_its_dense_operators_on_first_read():
    """A rung holds x and the 16 x 15 [e, o] blocks; the ladder and the dc
    check read only those, and D and C, built on first read and then kept,
    are the blocks and their transposes around zero parity-diagonal blocks,
    with x (x) e and -d (x) e^ as the blocks."""
    ops = bott_dirac(16)
    x, d = hermite_model(16)
    assert ops.n_basis == 16 and ops.space == GradedSpace(16, 15)
    assert np.array_equal(ops.x, x) and np.array_equal(ops.c_block, x[:, :-1])
    assert np.array_equal(ops.d_block, -d[:, :-1]) and not np.any(np.signbit(ops.d_block[ops.d_block == 0]))
    ladder_spectrum(ops, 2)
    dc_commutator_check(ops, 2)
    assert "dirac" not in vars(ops) and "clifford_mult" not in vars(ops)
    for dense, block in ((ops.dirac, ops.d_block), (ops.clifford_mult, ops.c_block)):
        m = dense.entries
        assert np.array_equal(m[:16, 16:], block) and np.array_equal(m[16:, :16], block.T)
        assert not np.any(m[:16, :16]) and not np.any(m[16:, 16:])
    assert ops.dirac is ops.dirac and ops.clifford_mult is ops.clifford_mult


def test_bott_ground_vector_is_annihilated():
    """B e_0, the Gaussian h_0 (x) 1 ground state, is column 0 of B."""
    residual = np.linalg.norm(bott_nonzeros(64).dense()[:, 0])
    assert residual <= 1e-10


def test_bott_kernel_is_one_dimensional():
    for n_basis in (32, 64):
        magnitudes = np.sort(np.abs(bott_nonzeros(n_basis).eigenvalues()))
        assert np.count_nonzero(magnitudes < 1e-8) == 1
        assert abs(magnitudes[1] - math.sqrt(2.0)) <= 1e-6


def test_bott_spectrum_matches_ladder_oracle():
    """Nonzero eigenvalue magnitudes are sqrt(2k), k = 1, 2, ..., each
    seen twice (once per fiber sector)."""
    magnitudes = np.sort(np.abs(np.linalg.eigvalsh(bott_nonzeros(32).dense())))
    expected = np.sort(
        np.concatenate([[0.0], *[[math.sqrt(2 * k)] * 2 for k in range(1, 32)]])
    )
    np.testing.assert_allclose(magnitudes, expected, atol=1e-10)


def test_bott_spectrum_is_symmetric():
    eigenvalues = np.sort(np.linalg.eigvalsh(bott_nonzeros(24).dense()))
    np.testing.assert_allclose(eigenvalues, -eigenvalues[::-1], atol=1e-10)


def test_dc_anticommutator_is_degree_involution_on_interior():
    report = dc_commutator_check(bott_dirac(32), 1)
    assert report["interior_defect_vs_involution"] <= 1e-10
    # the anticommutator has both involution eigenvalues, so its distance
    # to the identity is exactly 2 and cannot vanish
    assert abs(report["interior_defect_vs_identity"] - 2.0) <= 1e-10


def test_bott_truncation_convergence():
    """Ground residual and gap defect do not grow as the basis doubles;
    in the Hermite frame both sit at rounding level."""
    residuals = []
    for n_basis in (32, 64, 128):
        b = bott_nonzeros(n_basis).dense()
        magnitudes = np.sort(np.abs(np.linalg.eigvalsh(b)))
        residuals.append((np.linalg.norm(b[:, 0]), abs(magnitudes[1] - math.sqrt(2.0))))
    for (g0, s0), (g1, s1) in zip(residuals, residuals[1:]):
        assert g1 <= g0 + 1e-12
        assert s1 <= s0 + 1e-12
    assert residuals[-1][0] <= 1e-10 and residuals[-1][1] <= 1e-6


@pytest.mark.parametrize("n_basis", [8, 64])
def test_multiplication_generators_match_the_dense_calculus(n_basis):
    """The generators from half-size inverses equal the dense calculus,
    CAYLEY of x (x) 1 by eigh and MULTIPLIER_G of C by the chiral SVD, to
    1e-13 relative; the odd one is exactly odd and symmetric."""
    ops = bott_dirac(n_basis)
    gens = multiplication_generators(ops)
    x_even = np.zeros((ops.space.dim, ops.space.dim))  # x (x) 1, sector by sector
    x_even[:n_basis, :n_basis], x_even[n_basis:, n_basis:] = ops.x, ops.x[:-1, :-1]
    dense = {"mult_even": Spectrum.of(x_even).apply(CAYLEY),
             "mult_odd": chiral_apply(ChiralSpectrum.of(ops.clifford_mult), MULTIPLIER_G)}
    for name, want in dense.items():
        assert gens[name].space == ops.space
        assert np.abs(gens[name].entries - want).max() <= 1e-13 * operator_norm(want), name
    odd = gens["mult_odd"].entries
    OddSelfAdjoint(ops.space, odd)
    assert np.array_equal(odd, odd.T)


def test_multiplication_generators_run_on_the_blocks(monkeypatch):
    """Building the generators calls no eigensolver or SVD and leaves the
    dense D and C of the rung unbuilt."""
    ops = bott_dirac(16)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense decomposition ran")

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    multiplication_generators(ops)
    assert "dirac" not in vars(ops) and "clifford_mult" not in vars(ops)


def test_spectrum_and_kernel_zero_operator():
    d0 = as_odd(zeros(TWO))
    eigenvalues, kernel_dim = spectrum_and_kernel(d0)
    assert kernel_dim == 2
    assert np.all(eigenvalues == 0.0)


def test_spectrum_and_kernel_refuses_a_plain_graded_matrix():
    """spectrum_and_kernel reads b[e, o] alone: a plain GradedMatrix, even
    one whose entries are B's, raises TypeError."""
    b = bott_operator(8)
    for entries in (b.entries, b.entries + np.eye(b.space.dim)):
        with pytest.raises(TypeError, match="OddSelfAdjoint"):
            spectrum_and_kernel(GradedMatrix(b.space, entries))


# -- the spectrum from the odd block ----------------------------------------------


def odd_block_cases():
    """Odd self-adjoint operators on unbalanced, random-split, tensor-product
    and all-even spaces, complex and real, and the zero operator."""
    rng = rng_for(60)
    spaces = {
        "unbalanced": GradedSpace(7, 3),
        "unbalanced-odd-heavy": GradedSpace(2, 9),
        "random-split": random_space(rng, 13),
        "lift": graded_tensor(identity(GradedSpace(1, 2)), identity(GradedSpace(1, 1))).space,
        "all-even": GradedSpace(5, 0),
    }
    for name, space in spaces.items():
        b = random_odd_selfadjoint(rng, space)
        yield pytest.param(b, id=f"{name}-complex")
        yield pytest.param(OddSelfAdjoint(space, b.entries.real), id=f"{name}-real")
    yield pytest.param(as_odd(zeros(GradedSpace(4, 6))), id="zero")


@pytest.mark.parametrize("b", list(odd_block_cases()))
def test_odd_block_spectrum_matches_eigvalsh(b):
    """+-sigma(B[e, o]) and |#e - #o| zeros is the spectrum of B, to
    4 d eps ||B||, with the same kernel count as the full eigensolve."""
    eigenvalues, kernel_dim = spectrum_and_kernel(b)
    oracle = np.linalg.eigvalsh(b.entries)
    d = b.space.dim
    assert eigenvalues.shape == (d,) and eigenvalues.dtype == np.float64
    assert np.all(np.diff(eigenvalues) >= 0)
    np.testing.assert_allclose(eigenvalues, oracle, rtol=0, atol=4 * d * np.finfo(float).eps * operator_norm(b))
    assert kernel_dim == int(np.count_nonzero(np.abs(oracle) < 1e-8))
    assert kernel_dim >= abs(b.space.even - b.space.odd)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("n_basis", [8, 12])
def test_bott_operator_is_d_plus_c_bit_for_bit(n, n_basis):
    """B assembled as nonzeros, scattered dense, equals D + C, signed zeros
    included: bott_dirac's dense D and C at one coordinate (which carry no
    -0.0), the lifts of d_1 and c_1 above."""
    b = bott_nonzeros(n_basis, n)
    ops = bott_dirac(n_basis)
    d, c = ops.dirac.entries, ops.clifford_mult.entries
    assert d.dtype == c.dtype == np.float64
    assert not np.any(np.signbit(d[d == 0])) and not np.any(np.signbit(c[c == 0]))
    if n == 1:
        parity = ops.space.parity
    else:
        lifts = lifted_dirac(n_basis, n)
        parity, (d, c) = tuple(lifts[0].parity), (m.dense() for m in lifts)
    assert tuple(b.parity) == parity
    assert b.values.dtype == np.float64
    assert np.array_equal(b.dense().view(np.uint64), (d + c).view(np.uint64))


def lift_sum(space, n, m):
    """sum_i lift_i(m): m on coordinate i of the n-fold graded tensor power of
    space and the identity on the others, by dense graded tensor products."""
    one = identity(space)
    total = None
    for i in range(n):
        lift = m if i == 0 else one
        for j in range(1, n):
            lift = graded_tensor(lift, m if j == i else one)
        total = lift if total is None else total + lift
    return total


@pytest.mark.parametrize("n_basis, n", [(8, 1), (12, 2), (8, 3)])
def test_bott_dirac_equals_the_graded_tensor_lift(n_basis, n):
    """D and C, bott_dirac's at one coordinate and the oracle's nonzeros
    lifts above, equal the sums of dense graded-tensor lifts of the
    one-coordinate d_1 and c_1 entry for entry (the lifts may carry -0.0
    where a scatter writes +0.0)."""
    ops = bott_dirac(n_basis)
    parity, d1, c1 = ops.space, ops.dirac, ops.clifford_mult
    if n == 1:
        space, d, c = parity, d1.entries, c1.entries
    else:
        d, c = (in_tensor_order(m, parity, n) for m in lifted_dirac(n_basis, n))
        space, d, c = d.space, d.entries, c.entries
    assert space == lift_sum(parity, n, d1).space
    for mine, one_coordinate in ((d, d1), (c, c1)):
        assert np.array_equal(mine, lift_sum(parity, n, one_coordinate).entries)


@pytest.mark.parametrize("n_basis, n", [(8, 1), (64, 1), (8, 2), (12, 2)])
def test_dc_check_matches_the_dense_oracle(n_basis, n):
    """The dc check's three norms, taken on the lifts' nonzeros, equal the
    dense computation to 4 d eps ||D|| ||C||: D, C and the degree involution
    diag(2 deg - n) as sums of dense graded-tensor lifts of d_1, c_1 and
    -gamma, dense products, the interior mask on columns, and
    np.linalg.norm(., 2)."""
    ops = bott_dirac(n_basis)
    parity, d1, c1, interior1 = ops.space, ops.dirac, ops.clifford_mult, ops.interior
    gamma = GradedMatrix(parity, np.diag(parity.gamma_signs()))
    d, c, involution = (lift_sum(parity, n, m).entries for m in (d1, c1, -gamma))
    # the degree and the mask in Kronecker order, then in the lifts' parity order
    order = tensor_order(*[parity] * n)
    degree = sum(np.ix_(*[np.array(parity.parity)] * n)).ravel()[order]
    assert np.array_equal(involution, np.diag(2.0 * degree - n))
    mask = functools.reduce(np.kron, [interior1] * n)[order]
    anticommutator = d @ c + c @ d
    oracle = {
        "commutator_norm": np.linalg.norm(anticommutator, 2),
        "interior_defect_vs_involution": np.linalg.norm((anticommutator - involution) * mask, 2),
        "interior_defect_vs_identity": np.linalg.norm((anticommutator - np.eye(d.shape[0])) * mask, 2),
    }
    report = dc_commutator_check(ops, n)
    tol = 4 * d.shape[0] * np.finfo(float).eps * np.linalg.norm(d, 2) * np.linalg.norm(c, 2)
    assert report.keys() == oracle.keys()
    for name, value in oracle.items():
        assert abs(report[name] - value) <= tol, name


@pytest.mark.parametrize("n_basis, n", [(12, 2), (16, 3)])
def test_dc_check_closed_form(n_basis, n):
    """At (16, 3), d = 29,791, where a dense D alone would take 7.1 GB: the
    anticommutator's norm is n (n_basis - 1), reached at the truncation
    edge; on the interior it is the degree involution diag(2 deg - n),
    n + 1 from the identity.  The identity defect is the exact one only up
    to the rounding of the ladder entries sqrt(k/2), k < n_basis, whose
    squares make up each diagonal entry: hence 4 n n_basis eps."""
    report = dc_commutator_check(bott_dirac(n_basis), n)
    assert report["commutator_norm"] == n * (n_basis - 1)
    assert abs(report["interior_defect_vs_identity"] - (n + 1)) <= 4 * n * n_basis * np.finfo(float).eps
    assert report["interior_defect_vs_involution"] <= 1e-10


@pytest.mark.parametrize("n_basis, n", [(8, 1), (12, 2), (24, 3), (64, 1), (128, 1)])
def test_dc_check_on_odd_blocks_equals_the_dense_form(n_basis, n):
    """Formed from the odd blocks of d and c, the dc check's three norms
    equal the dense d c + c d, target and mask stack form bit for bit."""
    ops = bott_dirac(n_basis)
    assert dc_commutator_check(ops, n) == dense_dc_check(ops, n)


def test_dc_check_memory_stays_on_half_blocks():
    """At n_basis 128 (d = 255) the dc check stays below 3 MB of traced
    allocation; the dense form, with its d x d products and (3, d, d)
    target and mask stacks, peaks at about 5.4 MB."""
    ops = bott_dirac(128)
    tracemalloc.start()
    try:
        dc_commutator_check(ops, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def sparse_norm_cases():
    """Seeded random sparse 40 x 40 matrices, each position at most once, and
    matrices made from them: symmetric, column-masked, with positions repeated
    by entries that cancel exactly, diagonal (1 x 1 components), empty."""
    rng = rng_for(62)
    size = 40
    rows, cols = np.divmod(rng.choice(size * size, 60, replace=False), size)
    values = rng.standard_normal(60)
    symmetric = np.r_[rows, cols], np.r_[cols, rows], np.r_[values, values]
    kept = (rng.random(size) < 0.5)[symmetric[1]]
    yield pytest.param(rows, cols, values, id="random")
    yield pytest.param(*symmetric, id="symmetric")
    yield pytest.param(*(x[kept] for x in symmetric), id="column-masked")
    yield pytest.param(np.r_[rows, rows[:20]], np.r_[cols, cols[:20]], np.r_[values, -values[:20]], id="cancelling")
    yield pytest.param(np.r_[rows, rows], np.r_[cols, cols], np.r_[values, -values], id="all-cancelling")
    yield pytest.param(np.arange(size), np.arange(size), rng.standard_normal(size), id="diagonal")
    yield pytest.param(np.zeros(0, int), np.zeros(0, int), np.zeros(0), id="empty")


@pytest.mark.parametrize("rows, cols, values", list(sparse_norm_cases()))
def test_nonzeros_norm_matches_the_dense_svd_norm(rows, cols, values):
    """The largest component block norm is the dense matrix's norm, to
    4 d eps of it; a matrix whose entries all cancel has norm exactly 0."""
    dense = np.zeros((40, 40))
    np.add.at(dense, (rows, cols), values)
    oracle = np.linalg.norm(dense, 2)
    norm = nonzeros_norm(rows, cols, values, 40)
    assert abs(norm - oracle) <= 4 * 40 * np.finfo(float).eps * oracle
    assert (norm == 0.0) == (not np.any(dense))


def paired_closed_form(n_basis, n):
    """Spectrum of the paired truncation: |lambda|^2 = 2 (m_1 + ... + m_n)
    over m_i < n_basis, with multiplicity prod(1 if m_i = 0 else 2), each
    nonzero value split evenly between + and -."""
    levels, weight = np.zeros(1, dtype=int), np.ones(1, dtype=int)
    one = np.arange(n_basis)
    for _ in range(n):
        levels = (levels[:, None] + one).ravel()
        weight = (weight[:, None] * np.where(one == 0, 1, 2)).ravel()
    magnitude = np.sqrt(2.0 * levels)
    zeros = np.zeros(int(weight[levels == 0].sum()))
    half = np.repeat(magnitude[levels > 0], weight[levels > 0] // 2)
    return np.sort(np.concatenate([-half, zeros, half]))


@pytest.mark.parametrize("n_basis, n", [(8, 1), (64, 1), (12, 2), (24, 2), (8, 3), (24, 3)])
def test_component_spectrum_is_the_closed_form(n_basis, n):
    """The connected-component spectrum of B is the paired truncation's
    closed form, multiplicities included, to 1e-13."""
    eigenvalues = bott_nonzeros(n_basis, n).eigenvalues()
    assert eigenvalues.shape == ((2 * n_basis - 1) ** n,)
    np.testing.assert_allclose(eigenvalues, paired_closed_form(n_basis, n), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_basis, n", [(8, 1), (12, 1), (8, 2), (12, 2)])
def test_component_spectrum_matches_dense_eigvalsh(n_basis, n):
    """Within 4 d eps ||B|| of the dense eigensolve, with the same kernel count."""
    b = bott_operator(n_basis, n)
    eigenvalues = bott_nonzeros(n_basis, n).eigenvalues()
    oracle = np.linalg.eigvalsh(b.entries)
    d = b.space.dim
    np.testing.assert_allclose(eigenvalues, oracle, rtol=0, atol=4 * d * np.finfo(float).eps * operator_norm(b))
    assert np.count_nonzero(np.abs(eigenvalues) < 1e-8) == np.count_nonzero(np.abs(oracle) < 1e-8) == 1


def test_bott_two_coordinates():
    """The two-coordinate model keeps the one-dimensional kernel."""
    rung = ladder_spectrum(bott_dirac(8), 2)
    assert rung.multiplicity.sum() == 15**2 and rung.slack == 0.0
    assert rung.kernel_dim() == 1
    magnitudes = np.sort(np.abs(bott_nonzeros(8, 2).eigenvalues()))
    assert np.count_nonzero(magnitudes < 1e-8) == 1
    assert abs(magnitudes[1] - math.sqrt(2.0)) <= 1e-8
    report = dc_commutator_check(bott_dirac(8), 2)
    assert report["interior_defect_vs_involution"] <= 1e-10


def expanded(rung):
    """B's eigenvalues from the sum set, ascending, multiplicities expanded."""
    values, multiplicity = rung.eigenvalues()
    return np.repeat(values, multiplicity)


@pytest.mark.parametrize("n_basis, n", [(8, 2), (12, 2), (10, 3)])
def test_sum_set_spectrum_matches_the_component_spectrum(n_basis, n):
    """The n-fold sum set of b_1's squared spectrum, expanded by
    multiplicity, is the lifted B's exact component spectrum to 1e-12; the
    multiplicities sum to (2 n_basis - 1)^n, and the Koszul sign leaves no
    slack."""
    rung = ladder_spectrum(bott_dirac(n_basis), n)
    assert rung.slack == 0.0
    assert rung.multiplicity.dtype == np.int64 and rung.multiplicity.sum() == (2 * n_basis - 1) ** n
    assert rung.squares.size == n * (n_basis - 1) + 1
    np.testing.assert_allclose(expanded(rung), bott_nonzeros(n_basis, n).eigenvalues(), rtol=0, atol=1e-12)
    assert rung.kernel_dim() == 1
    assert rung.ground_residual == np.linalg.norm(bott_nonzeros(n_basis, n).dense()[:, 0]) == 0.0


@pytest.mark.parametrize("n_basis, n", [(12, 2), (8, 3)])
def test_one_slot_dc_matches_the_full_lift(n_basis, n):
    """The dc check's slot-wise bounds equal the norms taken on the full
    lifts' nonzeros: on this model the bounds are attained."""
    mine, oracle = dc_commutator_check(bott_dirac(n_basis), n), dc_nonzeros(n_basis, n)
    assert mine.keys() == oracle.keys()
    for name, value in oracle.items():
        assert abs(mine[name] - value) <= 1e-12, name


def test_sum_set_merges_within_its_tolerance():
    """Sums that differ by roundoff are one value with the summed
    multiplicity; values further apart than SUM_SET_RTOL stay apart."""
    from gradedlab.bott import SUM_SET_RTOL, _merged

    values = np.array([2.0, 0.0, 2.0 * (1 + 1e-15), 2.0 * (1 + 10 * SUM_SET_RTOL), 0.0])
    merged, count = _merged(values, np.array([1, 1, 2, 4, 3]))
    assert merged.tolist() == [0.0, 2.0, 2.0 * (1 + 10 * SUM_SET_RTOL)]
    assert count.tolist() == [4, 3, 4]


def test_slack_covers_the_unsigned_sum(monkeypatch):
    """With the Koszul sign replaced by 1 the cross terms do not vanish:
    each eigenvalue of the unsigned B^2 lies within the slack of the sum
    set, which is what the sum set alone would miss."""
    import gradedlab.bott

    monkeypatch.setattr(gradedlab.bott, "_koszul_sign", unsigned_sign)
    rung = ladder_spectrum(bott_dirac(8), 2)
    unsigned = np.sort(bott_nonzeros(8, 2).eigenvalues() ** 2)
    sum_set = np.sort(expanded(rung) ** 2)
    assert rung.slack > 1.0
    assert np.abs(unsigned - sum_set).max() > 1e-6
    assert np.abs(unsigned - sum_set).max() <= rung.slack


def test_run_bott_two_coordinates(monkeypatch):
    """run_bott above one coordinate (d = 225, ladder bases up to d = 961)
    builds no n-coordinate operator: bott_dirac, called once per distinct
    basis, builds one coordinate's odd blocks, and the only kernel calls are the
    ladder's values-only SVDs of the one-coordinate b_1[e, o] blocks, one
    per distinct basis, and the dc check's stacked Gram eigvalsh of its
    three one-coordinate matrices, one per parity block (they are even);
    the gap defects are roundoff in sqrt(2)."""
    import gradedlab.experiments

    built = []
    original_bott_dirac = gradedlab.experiments.bott_dirac

    def recording(n_basis):
        built.append(n_basis)
        return original_bott_dirac(n_basis)

    monkeypatch.setattr(gradedlab.experiments, "bott_dirac", recording)
    calls = []
    for name in ("svd", "eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def shape_recording(a, *args, name=name, original=original, **kwargs):
            calls.append((name, np.shape(a)))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, shape_recording)
    result = run_experiment(ExperimentConfig("bott", coordinates=2, n_basis=8))
    assert built == [8, 16]
    assert calls == [("svd", (8, 7)), ("svd", (16, 15)), ("eigvalsh", (3, 8, 8)), ("eigvalsh", (3, 7, 7))]
    assert result.passed and all(c.passed for c in result.certificates)
    assert result.summary["kernel_dim"] == 1
    assert [row["n_basis"] for row in result.summary["convergence"]] == [8, 8, 16]
    for row in result.summary["convergence"]:
        assert row["gap_defect"] <= 4 * np.spacing(math.sqrt(2.0))
        assert row["ground_residual"] == 0.0


@pytest.mark.parametrize(
    "cfg, bases",
    [
        (ExperimentConfig("bott", n_basis=8, t_points=8), [8, 16]),
        (ExperimentConfig("bott", n_basis=16, t_points=8), [8, 16, 32]),
        (ExperimentConfig("bott", n_basis=8, coordinates=2), [8, 16]),
        (ExperimentConfig("bott", n_basis=16, coordinates=2), [8, 16, 32]),
        (ExperimentConfig("perturb", n_basis=8, dims=(4,), t_points=8), [8]),
    ],
    ids=["bott-8-1", "bott-16-1", "bott-8-2", "bott-16-2", "perturb-8"],
)
def test_each_rung_is_built_once(cfg, bases, monkeypatch):
    """run_bott builds each distinct basis of its ladder once, and
    run_perturb its one Bott model: one bott_dirac call per basis, with its
    one hermite_model call, whose blocks every consumer reads."""
    import gradedlab.bott
    import gradedlab.experiments

    calls = []
    for module, name in ((gradedlab.bott, "hermite_model"), (gradedlab.experiments, "bott_dirac")):
        original = getattr(module, name)

        def recording(n_basis, name=name, original=original):
            result = original(n_basis)
            calls.append((name, n_basis))
            return result

        monkeypatch.setattr(module, name, recording)
    assert run_experiment(cfg).passed
    assert calls == [(name, basis) for basis in bases for name in ("hermite_model", "bott_dirac")]


def test_run_bott_sweeps_evaluate_the_fit_window_alone(tmp_path, monkeypatch):
    """bott writes no profile, so on the default 60-point grid each of its two
    t sweeps (the multiplication pair's commutators and the composition's
    defects; the scalar pair is not measured) evaluates the 30 t values of its
    fit window and none below it.  Reading every profile's values, which
    evaluates the rest, writes the same bytes."""
    import gradedlab.pairs

    swept = []
    original_map_grid, original_grid_profiles = gradedlab.pairs.map_grid, gradedlab.pairs.grid_profiles

    def recording(fn, rows, dim):
        swept.append(len(rows))
        return original_map_grid(fn, rows, dim)

    def read_every_value(*args):
        profiles = original_grid_profiles(*args)
        for profile in profiles:
            profile.values
        return profiles

    monkeypatch.setattr(gradedlab.pairs, "map_grid", recording)
    cfg = ExperimentConfig("bott", n_basis=8)
    emit_report(run_experiment(cfg), tmp_path / "fitted")
    assert swept == [30, 30]
    monkeypatch.setattr(gradedlab.pairs, "grid_profiles", read_every_value)
    emit_report(run_experiment(cfg), tmp_path / "read")
    assert swept == [30, 30] * 3
    fitted, read = sorted((tmp_path / "fitted").iterdir()), sorted((tmp_path / "read").iterdir())
    assert [path.name for path in fitted] == [path.name for path in read]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(fitted, read))


def test_run_bott_builds_no_dense_operator_above_one_coordinate(monkeypatch):
    """At the bott-2d config (coordinates 2, d = 529, ladder bases 8, 12
    and 24 to d = 2209) run_bott builds no GradedMatrix at all: each rung is
    read from its odd blocks.  Its traced peak memory stays below one dense
    d x d operator."""
    built = []
    original = GradedMatrix.__post_init__

    def recording(self):
        built.append(self.space.dim)
        return original(self)

    monkeypatch.setattr(GradedMatrix, "__post_init__", recording)
    tracemalloc.start()
    try:
        result = run_experiment(ExperimentConfig("bott", coordinates=2, n_basis=12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert built == []
    assert peak < 529**2 * np.dtype(float).itemsize


def test_run_bott_peak_stays_below_three_dense_top_rungs():
    """At (n_basis 128, coordinates 2) the traced peak of run_bott stays
    below three dense one-coordinate operators of the top rung,
    (4 * 128 - 1)^2 floats each (6.3 MB), which building the dense top rung
    d and c and their sum b = d + c would reach."""
    tracemalloc.start()
    try:
        result = run_experiment(ExperimentConfig("bott", coordinates=2, n_basis=128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 3 * (4 * 128 - 1) ** 2 * np.dtype(float).itemsize


@pytest.mark.parametrize("n_basis, n", [(8, 1), (8, 2)])
def test_spectrum_csv_is_the_component_spectrum(tmp_path, n_basis, n):
    """The spectrum CSV emit_report writes prints the model rung's distinct
    eigenvalues with multiplicities; expanded, they are the component
    spectrum to 1e-12 and number (2 n_basis - 1)^n, and the summary's kernel
    count and smallest magnitudes agree with them."""
    result = run_experiment(ExperimentConfig("bott", coordinates=n, n_basis=n_basis, t_points=8))
    emit_report(result, tmp_path)
    header, *rows = (tmp_path / f"spectrum_n{n_basis}.csv").read_text().splitlines()
    assert header == "eigenvalue,multiplicity"
    values = np.array([float(row.split(",")[0]) for row in rows])
    multiplicity = np.array([int(row.split(",")[1]) for row in rows])
    assert np.all(np.diff(values) > 0) and multiplicity.sum() == (2 * n_basis - 1) ** n
    eigenvalues = bott_nonzeros(n_basis, n).eigenvalues()
    np.testing.assert_allclose(np.repeat(values, multiplicity), eigenvalues, rtol=0, atol=1e-12)
    magnitudes = np.sort(np.abs(eigenvalues))
    assert result.summary["kernel_dim"] == np.count_nonzero(magnitudes < 1e-8) == 1
    np.testing.assert_allclose(result.summary["smallest_magnitudes"], magnitudes[:8], rtol=0, atol=1e-12)


def test_bott_pairs_validate():
    ops = bott_dirac(24)
    scalar_pair = AsymptoticPair({"unit": identity(ops.space)}, ops.clifford_mult)
    assert set(fitted_exponents(validate_pair(scalar_pair, GRID))) == {-math.inf}
    mult_pair = AsymptoticPair(multiplication_generators(ops), ops.dirac)
    assert commutes_asymptotically(validate_pair(mult_pair, GRID))


def test_bott_pair_certificate_records_the_worst_exponent():
    """bott_pair[multiplication] carries the largest fitted exponent of
    validate_pair on the same pair, against the commutation threshold."""
    cfg = ExperimentConfig("bott", n_basis=8, t_points=12)
    certs = {c.check: c for c in run_experiment(cfg).certificates}
    ops = bott_dirac(8)
    mult_pair = AsymptoticPair(multiplication_generators(ops), ops.dirac)
    exponents = fitted_exponents(validate_pair(mult_pair, cfg.t_grid()))
    cert = certs["bott_pair[multiplication]"]
    assert cert.lhs == max(exponents) and cert.rhs == COMMUTATION_EXPONENT_THRESHOLD
    assert cert.passed
    assert certs["bott_pair[scalar]"].lhs == -math.inf
    assert certs["bott_compose_kernel[defect-exponents]"].rhs == COMPOSE_EXPONENT_THRESHOLD


@pytest.mark.parametrize("position", [0, 1, 2])
def test_worst_exponent_certificate_fails_on_a_failed_fit(position, monkeypatch):
    """One NaN exponent (a failed fit) in any position of a validate_pair
    table makes run_bott's worst exponent NaN, and the bott_pair
    certificates built from it fail."""
    import gradedlab.experiments

    grid = default_t_grid(points=8)
    fits = [DecayProfile.from_values(grid, v) for v in (np.zeros(8), 1.0 / grid**2)]
    failed = DecayProfile.from_values(grid, np.full(8, np.inf))
    assert math.isnan(failed.fitted_exponent)
    fits.insert(position, failed)
    table = {"a": {f"f{i}": p for i, p in enumerate(fits)}}
    monkeypatch.setattr(gradedlab.experiments, "validate_pair", lambda pair, t_grid: table)
    result = run_experiment(ExperimentConfig("bott", n_basis=8, t_points=8))
    certs = {c.check: c for c in result.certificates}
    for name in ("bott_pair[scalar]", "bott_pair[multiplication]"):
        assert math.isnan(certs[name].lhs) and certs[name].rhs == COMMUTATION_EXPONENT_THRESHOLD
        assert not certs[name].passed
    assert not result.passed


def test_bott_composition_yields_bott_dirac():
    """Composing the scalar pair (unit, C) with the multiplication pair
    (M, D) gives the pair with operator D + C and one-dimensional kernel."""
    from gradedlab import compose_pairs, identity_pushforward

    ops = bott_dirac(24)
    scalar_pair = AsymptoticPair({"unit": identity(ops.space)}, ops.clifford_mult)
    mult_pair = AsymptoticPair(multiplication_generators(ops), ops.dirac)
    composed, defect_profiles = compose_pairs(scalar_pair, mult_pair, identity_pushforward, GRID)
    assert composes(defect_profiles)
    assert np.abs(composed.d.entries - bott_nonzeros(24).dense()).max() <= 1e-14
    _, kernel_dim = spectrum_and_kernel(composed.d)
    assert kernel_dim == 1


# -- perturbation ----------------------------------------------------------------


def assert_perturbation_rates(homom_profiles, defect_even, defect_odd):
    """The thresholds `lab perturb` certifies: cayley and both factorization
    defects at the t^-2 rate, the odd generator g at t^-1 (with slack)."""
    for per_fn in homom_profiles.values():
        assert per_fn["cayley"].fitted_exponent <= COMPOSE_EXPONENT_THRESHOLD
        assert per_fn["g"].fitted_exponent <= COMMUTATION_EXPONENT_THRESHOLD
    assert defect_even.fitted_exponent <= COMPOSE_EXPONENT_THRESHOLD
    assert defect_odd.fitted_exponent <= COMPOSE_EXPONENT_THRESHOLD


def test_perturbation_zero_potential():
    rng = rng_for(50)
    space = balanced_space(6)
    pair = AsymptoticPair({"a": random_even(rng, space)}, as_odd(zeros(space)))
    homom_profiles, *defects = perturbation_check(pair, as_odd(zeros(space)), GRID)
    assert_perturbation_rates(homom_profiles, *defects)
    for per_fn in homom_profiles.values():
        for profile in per_fn.values():
            assert profile.values.max() == 0.0


def test_perturbation_pauli_scalar_expansion():
    """||cayley(t^-1 sigma_x) b - b|| <= t^-2 ||sigma_x^2 b|| since the
    scaled resolvent is (1 + t^-2)^(-1) on both eigenvalues."""
    b = identity(TWO)
    for t in (10.0, 100.0, 1000.0):
        moved = GradedMatrix(TWO, Spectrum.of(SX).apply(CAYLEY, 1.0 / t))
        defect = operator_norm(moved @ b - b)
        assert defect <= (1.0 / t**2) * operator_norm(b) + 1e-15


def test_perturbation_rates():
    """cayley converges at t^-2, the odd resolvent generator at t^-1, and
    the factorization defect at t^-2."""
    from gradedlab.sampling import random_odd, random_odd_selfadjoint

    rng = rng_for(51)
    space = balanced_space(8)
    gens = {
        "a": random_even(rng, space, norm=1.0),
        "b": random_odd(rng, space, norm=1.0),
    }
    pair = AsymptoticPair(gens, random_odd_selfadjoint(rng, space, norm=1.0))
    potential = random_odd_selfadjoint(rng, space, norm=1.0)
    assert_perturbation_rates(*perturbation_check(pair, potential, default_t_grid(points=40)))


def test_perturbation_rejects_space_mismatch():
    rng = rng_for(52)
    space = balanced_space(4)
    pair = AsymptoticPair({"a": identity(space)}, as_odd(zeros(space)))
    from gradedlab.sampling import random_odd_selfadjoint

    other = random_odd_selfadjoint(rng, balanced_space(6))
    with pytest.raises(ValueError):
        perturbation_check(pair, other, GRID)


def test_perturbation_bott_model():
    """Dirac perturbed by Clifford multiplication: the composition
    certificate decays at the t^-2 rate."""
    ops = bott_dirac(16)
    pair = AsymptoticPair(multiplication_generators(ops), ops.dirac)
    assert_perturbation_rates(*perturbation_check(pair, ops.clifford_mult, GRID))


def test_run_perturb_keeps_no_trial_profiles():
    """run_perturb certifies each trial as it runs, so what a trial leaves
    behind is its six certificates, whatever the t grid: the traced peak of
    a run grows per trial by no more at 600 t points than at 60, give or
    take the 540 extra values of one profile, where keeping a trial's six
    profiles would add 6 x 540 x 8 bytes."""

    def peak_per_trial(points):
        peaks = []
        for trials in (2, 8):
            cfg = ExperimentConfig("perturb", trials=trials, dims=(4,), t_points=points, n_basis=8)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return (peaks[1] - peaks[0]) / 6

    assert peak_per_trial(600) < peak_per_trial(60) + 540 * np.dtype(float).itemsize
