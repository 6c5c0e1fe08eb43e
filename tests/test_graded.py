import numpy as np
import pytest

from gradedlab import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    conjugate_by_grading,
    direct_sum,
    graded_commutator,
    graded_tensor,
    identity,
    operator_norm,
)
from gradedlab.estimates import exp_shift_bounds
from gradedlab.funcalc import Spectrum
from gradedlab.graded import VALIDATION_TOL, adjoint, graded_commutators, negligible, operator_norms, parity_parts
from gradedlab.sampling import (
    random_hermitian_even,
    random_homogeneous,
    random_odd,
    random_odd_selfadjoint,
    random_space,
    rescale,
    rng_for,
)

from helpers import SIGMA_X, SIGMA_Y, SIGMA_Z, TWO, max_abs, tensor_order


def test_space_validation():
    """A space is two counts, (even, odd), neither negative and not both 0;
    its basis is in parity order."""
    for even, odd in ((0, 0), (-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            GradedSpace(even, odd)
    space = GradedSpace(1, 2)
    assert (space.even, space.odd, space.dim) == (1, 2, 3)
    assert GradedSpace(0, 3).parity == (1, 1, 1) and GradedSpace(4, 0).gamma_signs().tolist() == [1.0] * 4
    assert GradedSpace(2, 1) == GradedSpace(2, 1) != GradedSpace(1, 2)


def test_space_counts_are_integers():
    """A non-integer count is refused at construction, not at first use, and
    numpy integer counts are stored as int."""
    for even, odd in ((1.5, 0.5), (2.0, 1), (1, "2"), (1, None)):
        with pytest.raises(TypeError):
            GradedSpace(even, odd)
    space = GradedSpace(np.int64(2), np.int32(1))
    assert type(space.even) is int and type(space.odd) is int and type(space.dim) is int
    assert space == GradedSpace(2, 1) and hash(space) == hash(GradedSpace(2, 1))


def test_gamma_squares_to_identity_exactly():
    rng = rng_for(1)
    for dim in (2, 5, 9, 16):
        space = random_space(rng, dim)
        gamma = np.diag(space.gamma_signs())
        assert np.array_equal(gamma @ gamma, np.eye(dim, dtype=complex))


def test_parity_parts_exact_and_idempotent():
    rng = rng_for(2)
    for _ in range(20):
        space = random_space(rng, 6)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        even, odd = parity_parts(space, m)
        assert np.array_equal(even + odd, m)
        even2, odd_of_even = parity_parts(space, even)
        assert np.array_equal(even2, even)
        assert max_abs(odd_of_even) == 0.0
        gamma = np.diag(space.gamma_signs())
        assert max_abs(gamma @ even - even @ gamma) <= 1e-12
        assert max_abs(gamma @ odd + odd @ gamma) <= 1e-12


def test_graded_commutator_identity_cases():
    gamma = GradedMatrix(TWO, np.diag(TWO.gamma_signs()))
    assert max_abs(graded_commutator(gamma, gamma)) == 0.0
    # two anticommuting odd elements have vanishing graded commutator
    assert max_abs(graded_commutator(SIGMA_X, SIGMA_Y)) <= 1e-15
    # odd self-commutator doubles the square
    assert max_abs(graded_commutator(SIGMA_X, SIGMA_X) - 2 * identity(TWO)) <= 1e-15


def test_graded_commutator_space_mismatch():
    other = identity(GradedSpace(2, 1))
    with pytest.raises(ValueError):
        graded_commutator(SIGMA_X, other)


def test_graded_commutator_antisymmetry():
    """[a,b] + (-1)^(pa pb) [b,a] = 0 for homogeneous a, b."""
    rng = rng_for(3)
    for _ in range(200):
        space = random_space(rng, int(rng.integers(2, 7)))
        pa, pb = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        a = random_homogeneous(rng, space, pa)
        b = random_homogeneous(rng, space, pb)
        sign = -1.0 if pa * pb else 1.0
        residual = graded_commutator(a, b).entries + sign * graded_commutator(b, a).entries
        assert np.abs(residual).max() <= 1e-12 * max(1.0, max_abs(a) * max_abs(b))


def four_part_commutators(space, a, b):
    """[a, b] as the bilinear expansion over the parity parts of both operands,
    term by term as the sign rule states it: eight products."""
    a0, a1 = parity_parts(space, a)
    b0, b1 = parity_parts(space, b)
    return (a0 @ b0 - b0 @ a0) + (a0 @ b1 - b1 @ a0) + (a1 @ b0 - b0 @ a1) + (a1 @ b1 + b1 @ a1)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_graded_commutators_match_the_four_part_expansion(real):
    """a b - b0 a - b1 (gamma a gamma) equals the 4-part expansion: within
    1e-13 ||a|| ||b|| on mixed-parity stacks, and bit for bit on homogeneous
    pairs, where the terms the expansion adds are exact zeros."""
    rng = rng_for(5)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        space = random_space(rng, dim)
        a, b = (rng.standard_normal((6, dim, dim)) + (0 if real else 1j * rng.standard_normal((6, dim, dim)))
                for _ in range(2))
        scale = operator_norms(a) * operator_norms(b)
        defect = np.abs(graded_commutators(space, a, b) - four_part_commutators(space, a, b)).max(axis=(-2, -1))
        assert np.all(defect <= 1e-13 * scale)
        for pa in (0, 1):
            for pb in (0, 1):
                a, b = (random_homogeneous(rng, space, p).entries for p in (pa, pb))
                if real:
                    a, b = a.real, b.real
                assert np.array_equal(graded_commutators(space, a, b), four_part_commutators(space, a, b))


def test_graded_commutators_stacked_equal_one_matrix_calls():
    rng = rng_for(6)
    space = random_space(rng, 7)
    a, b = (rng.standard_normal((5, 7, 7)) + 1j * rng.standard_normal((5, 7, 7)) for _ in range(2))
    stacked = graded_commutators(space, a, b)
    for i in range(5):
        assert np.array_equal(stacked[i], graded_commutators(space, a[i], b[i]))
        one = graded_commutator(GradedMatrix(space, a[i]), GradedMatrix(space, b[i]))
        assert np.array_equal(stacked[i], one.entries)


def test_graded_leibniz_rule():
    """[a, bc] = [a,b] c + (-1)^(pa pb) b [a,c]."""
    rng = rng_for(4)
    for _ in range(100):
        space = random_space(rng, int(rng.integers(2, 7)))
        pa, pb = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        a = random_homogeneous(rng, space, pa)
        b = random_homogeneous(rng, space, pb)
        c = random_homogeneous(rng, space, int(rng.integers(0, 2)))
        sign = -1.0 if pa * pb else 1.0
        lhs = graded_commutator(a, b @ c)
        rhs = graded_commutator(a, b) @ c + sign * (b @ graded_commutator(a, c))
        scale = max(1.0, max_abs(lhs))
        assert np.abs(lhs.entries - rhs.entries).max() <= 1e-10 * scale


def test_graded_tensor_identity():
    lifted = graded_tensor(identity(TWO), identity(TWO))
    assert np.array_equal(lifted.entries, np.eye(4, dtype=complex))
    assert lifted.space == GradedSpace(2, 2)


def test_graded_tensor_is_the_permuted_kronecker_oracle():
    """On C^(1|1) (x) C^(1|1) the product basis e(x)e, o(x)o, e(x)o, o(x)e is
    Kronecker order 0, 3, 1, 2.  On random spaces and homogeneous b,
    graded_tensor(a, b) is (a gamma^pb) Kron b with rows and columns in the
    stable parity order of the Kronecker basis, bit for bit, on the space
    (#even, #odd) of the product parities."""
    assert tensor_order(TWO, TWO).tolist() == [0, 3, 1, 2]
    rng = rng_for(18)
    for _ in range(30):
        sa, sb = random_space(rng, int(rng.integers(1, 6))), random_space(rng, int(rng.integers(1, 6)))
        a = GradedMatrix(sa, rng.standard_normal((sa.dim, sa.dim)) + 1j * rng.standard_normal((sa.dim, sa.dim)))
        for pb in (0, 1):
            b = random_homogeneous(rng, sb, pb)
            order = tensor_order(sa, sb)
            oracle = np.kron(a.entries * sa.gamma_signs() ** pb, b.entries)[np.ix_(order, order)]
            lifted = graded_tensor(a, b)
            assert np.array_equal(lifted.entries, oracle)
            odd = sum((p + q) % 2 for p in sa.parity for q in sb.parity)
            assert lifted.space == GradedSpace(sa.dim * sb.dim - odd, odd)


def test_graded_tensor_lifts_commute():
    """D (x) 1 and 1 (x) D' graded-commute for odd D, D'."""
    rng = rng_for(5)
    for _ in range(20):
        s1, s2 = random_space(rng, 4), random_space(rng, 6)
        d = random_odd(rng, s1)
        dp = random_odd(rng, s2)
        left = graded_tensor(d, identity(s2))
        right = graded_tensor(identity(s1), dp)
        assert max_abs(graded_commutator(left, right)) <= 1e-12 * max(1.0, max_abs(d) * max_abs(dp))


def test_graded_tensor_square_of_pauli_lift():
    # square of the lift vs the Koszul-signed lift of the square
    lift = graded_tensor(SIGMA_X, SIGMA_X)
    direct = lift @ lift
    signed = -1.0 * graded_tensor(SIGMA_X @ SIGMA_X, SIGMA_X @ SIGMA_X)
    assert np.abs(direct.entries - signed.entries).max() <= 1e-14


def test_graded_tensor_koszul_multiplicativity():
    """(a x b)(c x d) = (-1)^(pb pc) (ac x bd) for homogeneous b, c."""
    rng = rng_for(6)
    for _ in range(200):
        s1, s2 = random_space(rng, int(rng.integers(2, 7))), random_space(rng, int(rng.integers(2, 7)))
        pb, pc = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        a = GradedMatrix(s1, rng.standard_normal((s1.dim, s1.dim)) + 0j)
        c = random_homogeneous(rng, s1, pc)
        b = random_homogeneous(rng, s2, pb)
        d = GradedMatrix(s2, rng.standard_normal((s2.dim, s2.dim)) + 0j)
        lhs = graded_tensor(a, b) @ graded_tensor(c, d)
        sign = -1.0 if pb * pc else 1.0
        rhs = sign * graded_tensor(a @ c, b @ d)
        scale = max(1.0, max_abs(lhs))
        assert np.abs(lhs.entries - rhs.entries).max() <= 1e-10 * scale


def test_direct_sum_zero_and_parity():
    z = GradedMatrix(TWO, np.zeros((2, 2)))
    total = direct_sum(z, z)
    assert max_abs(total) == 0.0
    assert total.space == GradedSpace(2, 2)


def test_direct_sum_orders_its_basis_by_parity():
    """a on (2, 1) and b on (1, 2) sum on (3, 3) with basis a's even, b's
    even, a's odd, b's odd: a sits at 0, 1, 3 and b at 2, 4, 5, with exact
    zeros between them, and a sum of odd operators is odd."""
    rng = rng_for(20)
    a, b = random_odd_selfadjoint(rng, GradedSpace(2, 1)), random_odd_selfadjoint(rng, GradedSpace(1, 2))
    total = direct_sum(a, b)
    assert total.space == GradedSpace(3, 3)
    at_a, at_b = [0, 1, 3], [2, 4, 5]
    assert np.array_equal(total.entries[np.ix_(at_a, at_a)], a.entries)
    assert np.array_equal(total.entries[np.ix_(at_b, at_b)], b.entries)
    assert not np.any(total.entries[np.ix_(at_a, at_b)]) and not np.any(total.entries[np.ix_(at_b, at_a)])
    OddSelfAdjoint(total.space, total.entries)

def test_direct_sum_norm_is_max_of_blocks():
    rng = rng_for(7)
    for _ in range(25):
        s1, s2 = random_space(rng, 4), random_space(rng, 5)
        a = GradedMatrix(s1, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        b = GradedMatrix(s2, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        expected = max(np.linalg.svd(a.entries, compute_uv=False).max(),
                       np.linalg.svd(b.entries, compute_uv=False).max())
        assert abs(operator_norm(direct_sum(a, b)) - expected) <= 1e-10 * expected


def test_direct_sum_pauli_eigenvalues():
    total = direct_sum(SIGMA_X, -1.0 * SIGMA_X)
    eigs = np.sort(np.linalg.eigvalsh(total.entries))
    np.testing.assert_allclose(eigs, [-1, -1, 1, 1], atol=1e-12)


def test_conjugate_by_grading():
    gamma = GradedMatrix(TWO, np.diag(TWO.gamma_signs()))
    assert np.array_equal(conjugate_by_grading(gamma).entries, gamma.entries)
    assert np.abs(conjugate_by_grading(SIGMA_X).entries + SIGMA_X.entries).max() == 0.0
    rng = rng_for(8)
    for _ in range(20):
        space = random_space(rng, 6)
        m = GradedMatrix(space, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        twice = conjugate_by_grading(conjugate_by_grading(m))
        assert np.array_equal(twice.entries, m.entries)


def test_operator_norm_values():
    assert operator_norm(identity(TWO)) == 1.0
    assert abs(operator_norm(SIGMA_X) - 1.0) <= 1e-12
    diag = GradedMatrix(TWO, np.diag([3.0, -4.0j]))
    assert abs(operator_norm(diag) - 4.0) <= 1e-12


def test_operator_norm_matches_svd_oracle():
    rng = rng_for(9)
    for _ in range(20):
        space = random_space(rng, 8)
        m = GradedMatrix(space, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        oracle = np.linalg.svd(m.entries, compute_uv=False).max()
        assert abs(operator_norm(m) - oracle) <= 1e-10 * oracle


def _gaussian_stack(rng, shape, complex_):
    stack = rng.standard_normal(shape)
    return stack + 1j * rng.standard_normal(shape) if complex_ else stack


def _assert_svd_accurate(stack):
    """operator_norms is within 4 max(m, n) eps relative of the SVD's largest
    singular value, and equals its per-matrix calls and operator_norm bit for
    bit."""
    norms = operator_norms(stack)
    flat = stack.reshape(-1, *stack.shape[-2:])
    oracle = np.linalg.svd(flat, compute_uv=False)[:, 0].reshape(stack.shape[:-2])
    tol = 4 * max(stack.shape[-2:]) * np.finfo(float).eps
    assert np.all(np.abs(norms - oracle) <= tol * oracle)
    assert np.array_equal(norms.ravel(), [operator_norms(m[None])[0] for m in flat])
    assert np.array_equal(norms.ravel(), [operator_norm(m) for m in flat])


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(6, 8, 8), (3, 64, 63), (3, 63, 64), (2, 2, 1, 5), (9, 1, 1), (1, 127, 127)],
                         ids=["square", "tall", "wide", "row", "one-by-one", "bott-size"])
def test_operator_norms_match_svd_oracle(shape, complex_):
    rng = rng_for((10, len(shape), shape[-1], complex_))
    stack = _gaussian_stack(rng, shape, complex_)
    _assert_svd_accurate(stack)
    stack.reshape(-1, *shape[-2:])[0] = 0.0
    _assert_svd_accurate(stack)
    assert operator_norms(stack).ravel()[0] == 0.0


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_operator_norms_outside_the_gram_range(complex_):
    """Entries whose Gram matrix would overflow (2^600) or underflow (2^-600,
    subnormal 1e-310) are rescaled by a power of two, in one stack with
    matrices that are not."""
    rng = rng_for((11, complex_))
    scales = np.array([1.0, 2.0**600, 2.0**-600, 1e-310, 2.0**600, 3.0])
    stack = _gaussian_stack(rng, (6, 7, 5), complex_) * scales[:, None, None]
    stack[4, 0, 0] = 1e-310
    _assert_svd_accurate(stack)


def test_operator_norm_of_a_one_by_one_matrix_is_its_absolute_value():
    rng = rng_for(12)
    x = rng.standard_normal(2000) * 10.0 ** rng.uniform(-300, 300, 2000)
    x = np.r_[x, 2.0**600, -(2.0**-600), 1e-310, -5e-324, 0.0, 22.0]
    assert np.array_equal(operator_norms(x[:, None, None]), np.abs(x))


def test_operator_norms_of_zero_size_matrices_are_zero():
    for shape in [(2, 0, 3), (2, 3, 0), (0, 0)]:
        assert np.array_equal(operator_norms(np.zeros(shape)), np.zeros(shape[:-2]))
    assert operator_norms(np.zeros((0, 4, 4))).shape == (0,)
    assert operator_norm(np.zeros((0, 0))) == 0.0


def test_operator_norms_of_one_matrix_without_stack_axes():
    """A (m, n) input is one matrix, as sampling.rescale passes it."""
    assert operator_norms(np.zeros((3, 3))) == 0.0
    assert operator_norms(2.0**600 * np.eye(3)) == 2.0**600
    assert operator_norms(np.diag([3.0, -4.0])) == 4.0
    with pytest.raises(ValueError, match="zero sample"):
        rescale(np.zeros((3, 3)), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "-inf", "complex-nan"])
def test_operator_norms_refuse_non_finite_entries(bad):
    stack = np.ones((3, 4, 4), dtype=type(bad) if isinstance(bad, complex) else float)
    stack[1, 2, 3] = bad
    with pytest.raises(np.linalg.LinAlgError):
        operator_norms(stack)
    with pytest.raises(np.linalg.LinAlgError):
        operator_norm(stack[1])


def test_odd_selfadjoint_validation():
    OddSelfAdjoint(TWO, SIGMA_X.entries)
    with pytest.raises(ValueError):
        OddSelfAdjoint(TWO, SIGMA_Z.entries)  # even, not odd
    with pytest.raises(ValueError):
        OddSelfAdjoint(TWO, np.array([[0, 1], [2, 0]], dtype=complex))  # not Hermitian


def test_space_parity_forms():
    """The space (2, 3) lists parities (0, 0, 1, 1, 1) and gamma diag(1, 1,
    -1, -1, -1); the even part of m is its [e, e] and [o, o] blocks and the
    odd part its [e, o] and [o, e] blocks, each exactly, the other blocks
    exact zeros."""
    space = GradedSpace(2, 3)
    assert space.parity == (0, 0, 1, 1, 1) and space.gamma_signs().tolist() == [1.0, 1.0, -1.0, -1.0, -1.0]
    m = random_homogeneous(rng_for(16), space, 0).entries + random_odd(rng_for(17), space).entries
    even, odd = parity_parts(space, m)
    ee, eo, oe, oo = np.s_[:2, :2], np.s_[:2, 2:], np.s_[2:, :2], np.s_[2:, 2:]
    for part, kept, dropped in ((even, (ee, oo), (eo, oe)), (odd, (eo, oe), (ee, oo))):
        assert all(np.array_equal(part[x], m[x]) for x in kept) and not any(np.any(part[x]) for x in dropped)


def test_odd_selfadjoint_is_a_graded_matrix():
    """The graded core and Spectrum.of take an OddSelfAdjoint as it is and
    give the values of the plain graded matrix of its entries, bit for bit."""
    rng = rng_for(14)
    space = random_space(rng, 7)
    d, d_prime = (random_odd_selfadjoint(rng, space) for _ in range(2))
    plain, plain_prime = (GradedMatrix(m.space, m.entries) for m in (d, d_prime))
    assert isinstance(d, GradedMatrix)
    assert np.array_equal(graded_commutator(d, d_prime).entries, graded_commutator(plain, plain_prime).entries)
    assert operator_norm(d) == operator_norm(plain)
    spec, plain_spec = Spectrum.of(d), Spectrum.of(plain)
    assert np.array_equal(spec.eigenvalues, plain_spec.eigenvalues)
    assert np.array_equal(spec.eigenvectors, plain_spec.eigenvectors)


def test_odd_selfadjoint_arithmetic_keeps_or_drops_the_type():
    """A sum, difference or negation of odd operators is an OddSelfAdjoint,
    validated again, so adding a nonzero even matrix raises; a product or a
    scalar multiple is a plain GradedMatrix."""
    rng = rng_for(15)
    space = random_space(rng, 6)
    d, d_prime = (random_odd_selfadjoint(rng, space) for _ in range(2))
    for value, entries in ((d + d_prime, d.entries + d_prime.entries), (d - d_prime, d.entries - d_prime.entries),
                           (-d, -d.entries)):
        assert type(value) is OddSelfAdjoint and np.array_equal(value.entries, entries)
    with pytest.raises(ValueError, match="anticommute"):
        d + random_hermitian_even(rng, space, norm=1.0)
    for value in (d @ d, d @ d_prime, 1j * d, d * 2.0):
        assert type(value) is GradedMatrix


def old_oddness_verdict(m):
    """The full-matrix oddness test: |gamma m gamma + m| <= VALIDATION_TOL * scale."""
    signs = m.space.gamma_signs()
    flipped = (signs[:, None] * m.entries) * signs[None, :]
    scale = max(1.0, float(np.abs(m.entries).max(initial=0.0)))
    return bool(np.abs(flipped + m.entries).max(initial=0.0) <= VALIDATION_TOL * scale)


def accepted_as_odd(m):
    try:
        OddSelfAdjoint(m.space, m.entries)
    except ValueError as exc:
        assert "anticommute" in str(exc)
        return False
    return True


@pytest.mark.parametrize("real", [False, True])
def test_oddness_check_on_blocks_matches_full_formula(real):
    """The same-parity block test gives the full formula's verdict on inputs
    whose even part sits just under, at and just over VALIDATION_TOL."""
    rng = rng_for(12)
    for space in (GradedSpace(5, 3), random_space(rng, 9), random_space(rng, 12)):
        for norm in (0.5, 4.0):
            odd = random_odd_selfadjoint(rng, space, norm=norm).entries
            even = random_hermitian_even(rng, space).entries
            if real:
                odd, even = odd.real, even.real
            even = even / np.abs(even).max()
            scale = max(1.0, float(np.abs(odd).max()))
            for factor in (0.5, 1 - 1e-3, 1.0, 1 + 1e-3, 2.0):
                m = GradedMatrix(space, odd + even * (factor * VALIDATION_TOL * scale / 2))
                verdict = old_oddness_verdict(m)
                if factor != 1.0:
                    assert verdict == (factor < 1)
                assert accepted_as_odd(m) == verdict


def site_rule(defect, entries):
    """The rule as each validation site once wrote it for one matrix:
    max |defect| <= VALIDATION_TOL max(1, max |entries|)."""
    scale = max(1.0, float(np.abs(entries).max(initial=0.0)))
    return bool(np.abs(defect).max(initial=0.0) <= VALIDATION_TOL * scale)


@pytest.mark.parametrize("real", [False, True])
def test_validation_rule_matrix_by_matrix(real):
    """negligible over a stack gives each matrix its own verdict, and
    is_hermitian, parity, Spectrum.of and the exponential estimates' even
    check follow it.  The Hermitian-part and odd-part defects sit at 0.5,
    0.9, 1.1 and 2 times the tolerance of entries of size 4; a last matrix,
    Hermitian and even with entries of size 1000, shows that each matrix is
    held to its own scale."""
    rng = rng_for(13)
    space = GradedSpace(4, 4)
    d = space.dim
    h = random_hermitian_even(rng, space).entries
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    o = random_odd_selfadjoint(rng, space).entries
    if real:
        h, g, o = h.real, g.real, o.real
    h = 4.0 * h / np.abs(h).max()
    k = (g - adjoint(g)) / np.abs(g - adjoint(g)).max()  # anti-Hermitian, largest entry 1
    o = o / np.abs(o).max()
    factors = (0.5, 0.9, 1.1, 2.0)
    expected = [f < 1 for f in factors] + [True]

    # m - m* = 2 c k
    stack = np.stack([h + (f * VALIDATION_TOL * 4.0 / 2) * k for f in factors] + [250.0 * h])
    verdicts = negligible(stack - adjoint(stack), stack)
    assert verdicts.tolist() == expected
    assert [site_rule(m - m.conj().T, m) for m in stack] == expected
    assert [GradedMatrix(space, m).is_hermitian() for m in stack] == expected
    for m, ok in zip(stack, expected):
        if ok:
            Spectrum.of(m)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                Spectrum.of(m)

    # the odd part of m is c o
    stack = np.stack([h + (f * VALIDATION_TOL * 4.0) * o for f in factors] + [250.0 * h])
    verdicts = negligible(parity_parts(space, stack)[1], stack)
    assert verdicts.tolist() == expected
    assert [site_rule(parity_parts(space, m)[1], m) for m in stack] == expected
    assert [bool(negligible(parity_parts(space, m)[1], m)) for m in stack] == expected
    exp_shift_bounds(space, stack[:2], 0.5 * stack[:2])
    with pytest.raises(ValueError, match="even"):
        exp_shift_bounds(space, stack, 0.5 * stack)


def test_nan_entries_fail_validation():
    """A NaN is never negligible.  Spectrum.of and the even check once raised
    only on `defect > tol`, which a NaN never satisfies, and eigh then read
    one triangle and ignored the NaN."""
    space = GradedSpace(2, 2)
    m = np.eye(4)
    m[0, 1] = np.nan  # an even position, above the diagonal
    assert not negligible(m - adjoint(m), m)
    assert not GradedMatrix(space, m).is_hermitian()
    with pytest.raises(ValueError, match="Hermitian"):
        Spectrum.of(m)
    x = np.eye(4)
    x[0, 2] = np.nan  # an odd position
    with pytest.raises(ValueError, match="even"):
        exp_shift_bounds(space, x[None], 0.5 * np.eye(4)[None])


def test_graded_matrix_immutability():
    m = identity(TWO)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0
