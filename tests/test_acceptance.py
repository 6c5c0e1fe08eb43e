"""Acceptance suite: one test per headline criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Criterion 8 is split: the kernel, gap, ground-residual and convergence
clauses pass; the clause asking the interior Dirac-Clifford anticommutator
to equal the identity is recorded as a strict expected failure, because
the anticommutator provably equals the Clifford-degree involution (minus
the grading in one coordinate) and an identity anticommutator would force
B^2 = D^2 + C^2 + 1 >= 1, contradicting the one-dimensional-kernel clause
of the same criterion.  The involution identity itself is verified to the
stated 1e-10 tolerance.
"""

import math
import time

import numpy as np
import pytest

from gradedlab import (
    AsymptoticPair,
    GradedMatrix,
    OddSelfAdjoint,
    bott_dirac,
    compose_pairs,
    dc_commutator_check,
    factorization_defect_profiles,
    graded_commutator,
    graded_tensor,
    hermite_model,
    identity,
    identity_pushforward,
    ladder_spectrum,
    operator_norm,
    perturbation_check,
    transform_commutator_check,
    transform_sum_sweep,
    zeros,
)
from gradedlab.cli import main
from gradedlab.estimates import exp_product_bound_check, exp_shift_bound_check
from gradedlab.pairs import default_t_grid
from gradedlab.sampling import (
    balanced_space,
    random_even,
    random_even_unitary,
    random_odd,
    random_odd_selfadjoint,
    rng_for,
    trial_seed,
)

from helpers import SX, SY

ROOT_SEED = 42


def verdict(number: int, ok: bool, label: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_transform_commutator_bound():
    """200 random odd pairs, dims in {4, 8, 16}, N in {0.5 .. 16}:
    every margin >= -1e-10, in under 10 seconds."""
    start = time.monotonic()
    n_grid = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    t_grid = default_t_grid(points=12)
    worst = math.inf
    for i in range(200):
        rng = rng_for(trial_seed(ROOT_SEED, i))
        space = balanced_space([4, 8, 16][i % 3])
        d = random_odd_selfadjoint(rng, space)
        dp = random_odd_selfadjoint(rng, space)
        lhs, rhs = transform_commutator_check(d, dp, n_grid, t_grid)
        # column 0 against ||[D, D']||, column 1 + k against t_k^-2 ||[D, D']||
        bounds = rhs * np.concatenate([[1.0], 1.0 / t_grid**2])
        worst = min(worst, float((bounds - lhs).min()))
    elapsed = time.monotonic() - start
    verdict(1, worst >= -1e-10 and elapsed < 10.0,
            f"transform commutator bound (worst margin {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_exponential_shift_bound():
    """500 random even pairs with ||y|| <= ||x|| <= 3, dim <= 16, under 10 s."""
    start = time.monotonic()
    worst = math.inf
    for i in range(500):
        rng = rng_for(trial_seed(ROOT_SEED, 1000 + i))
        space = balanced_space([4, 8, 16][i % 3])
        x = random_even(rng, space, norm=3.0 * float(rng.uniform(0.05, 1.0)))
        y = random_even(rng, space, norm=operator_norm(x) * float(rng.uniform(0.0, 1.0)))
        lhs, rhs = exp_shift_bound_check(x, y)
        worst = min(worst, rhs - lhs)
    elapsed = time.monotonic() - start
    verdict(2, worst >= -1e-10 and elapsed < 10.0,
            f"exponential shift bound (worst margin {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_exponential_product_bound():
    """500 random even pairs with ||x||, ||y|| <= 1: defect <= series bound."""
    worst = math.inf
    for i in range(500):
        rng = rng_for(trial_seed(ROOT_SEED, 2000 + i))
        space = balanced_space([4, 8, 16][i % 3])
        x = random_even(rng, space, norm=float(rng.uniform(0.02, 1.0)))
        y = random_even(rng, space, norm=float(rng.uniform(0.02, 1.0)))
        lhs, rhs = exp_product_bound_check(x, y)
        worst = min(worst, rhs - lhs)
    verdict(3, worst >= -1e-10, f"exponential product series bound (worst margin {worst:.2e})")


def test_criterion_04_factorization_rate():
    """50 unit-norm pairs: t^2 * even defect at t = 1e3 matches ||[D, D']||
    within 2%, fitted exponent -2 +- 0.1 on [10, 1e3], under 30 s."""
    start = time.monotonic()
    grid = default_t_grid(10.0, 1e3, 40)
    ok = True
    worst_rel, worst_exp = 0.0, 0.0
    for i in range(50):
        rng = rng_for(trial_seed(ROOT_SEED, 3000 + i))
        space = balanced_space(8)
        d = random_odd_selfadjoint(rng, space, norm=1.0)
        dp = random_odd_selfadjoint(rng, space, norm=1.0)
        even_prof, _ = factorization_defect_profiles(d, dp, grid)
        comm = operator_norm(graded_commutator(d.underlying, dp.underlying))
        rel = abs(grid[-1] ** 2 * even_prof.values[-1] - comm) / comm
        exp_err = abs(even_prof.fitted_exponent + 2.0)
        worst_rel, worst_exp = max(worst_rel, rel), max(worst_exp, exp_err)
        ok = ok and rel <= 0.02 and exp_err <= 0.1
    elapsed = time.monotonic() - start
    verdict(4, ok and elapsed < 30.0,
            f"factorization rate (worst rel {worst_rel:.2e}, worst exponent err {worst_exp:.2e}, {elapsed:.1f}s)")


def test_criterion_05_exact_factorization():
    """Tensor-lift pairs and (sigma_x, sigma_y): defects <= 1e-12 at every t."""
    grid = default_t_grid()
    worst = 0.0
    even_prof, odd_prof = factorization_defect_profiles(SX, SY, grid)
    worst = max(worst, float(even_prof.values.max()), float(odd_prof.values.max()))
    rng = rng_for(trial_seed(ROOT_SEED, 4000))
    left_base = random_odd_selfadjoint(rng, balanced_space(4))
    right_base = random_odd_selfadjoint(rng, balanced_space(4))
    lift_left = OddSelfAdjoint(graded_tensor(left_base.underlying, identity(right_base.space)))
    lift_right = OddSelfAdjoint(graded_tensor(identity(left_base.space), right_base.underlying))
    even_prof, odd_prof = factorization_defect_profiles(lift_left, lift_right, grid)
    worst = max(worst, float(even_prof.values.max()), float(odd_prof.values.max()))
    verdict(5, worst <= 1e-12, f"exact factorization for graded-commuting pairs (worst defect {worst:.2e})")


def test_criterion_06_composition_formula():
    """50 random composable configurations: naive-composition defect fits
    exponent <= -1.75; composing with (identity, 0) is exact."""
    grid = default_t_grid()
    worst_exponent = -math.inf
    for i in range(50):
        rng = rng_for(trial_seed(ROOT_SEED, 5000 + i))
        space = balanced_space(8)
        gens = {
            "a_even": random_even(rng, space, norm=1.0),
            "a_odd": random_odd(rng, space, norm=1.0),
        }
        p_ab = AsymptoticPair(gens, random_odd_selfadjoint(rng, space, norm=1.0))
        u = random_even_unitary(rng, space)

        def push(m, _u=u):
            return GradedMatrix(m.space, _u.entries @ m.entries @ _u.entries.conj().T)

        p_bc = AsymptoticPair({"b": random_even(rng, space)}, random_odd_selfadjoint(rng, space, norm=1.0))
        _, defect_profiles = compose_pairs(p_ab, p_bc, push, grid)
        for per_fn in defect_profiles.values():
            for profile in per_fn.values():
                worst_exponent = max(worst_exponent, profile.fitted_exponent)

    rng = rng_for(trial_seed(ROOT_SEED, 5999))
    space = balanced_space(8)
    gens = {"a": random_even(rng, space)}
    pair = AsymptoticPair(gens, random_odd_selfadjoint(rng, space))
    trivial = AsymptoticPair({"unit": identity(space)}, OddSelfAdjoint(zeros(space)))
    composed, _ = compose_pairs(pair, trivial, identity_pushforward, grid)
    exact = float(np.abs(composed.d.mat - pair.d.mat).max())
    exact = max(exact, float(np.abs(composed.generators["a"].entries - gens["a"].entries).max()))
    verdict(6, worst_exponent <= -1.75 and exact == 0.0,
            f"composition formula (worst exponent {worst_exponent:.3f}, identity defect {exact:.1e})")


def test_criterion_07_double_limit_sweep():
    """20 random unit pairs: per-N suprema over t in [100, 1000] are
    nonincreasing across N = 1 .. 64 and <= 1e-6 at the top, and the
    relative bound ||D (D + D' + i)^-1||^2 <= 1 + ||[D, D']|| holds."""
    ok = True
    worst_final = 0.0
    for i in range(20):
        rng = rng_for(trial_seed(ROOT_SEED, 6000 + i))
        space = balanced_space(8)
        d = random_odd_selfadjoint(rng, space, norm=1.0)
        dp = random_odd_selfadjoint(rng, space, norm=1.0)
        report = transform_sum_sweep(
            d, dp, n_grid=[1, 2, 4, 8, 16, 32, 64], t_grid=default_t_grid(10.0, 1e3, 30)
        )
        # techlemma's default monotone_slack
        ok = ok and bool(np.all(np.diff(report.suprema) <= 1e-12)) and report.suprema[-1] <= 1e-6
        ok = ok and all(rhs - lhs >= -1e-10 for lhs, rhs in report.relative_bounds)
        worst_final = max(worst_final, report.suprema[-1])
    verdict(7, ok, f"double-limit sweep (worst final supremum {worst_final:.2e})")


def _bott_measurements(n_basis: int):
    rung = ladder_spectrum(bott_dirac(hermite_model(n_basis)))
    magnitudes = np.sqrt(rung.smallest(2))
    gap_defect = abs(float(magnitudes[1]) - math.sqrt(2.0))
    return rung.kernel_dim(), float(magnitudes[0]), gap_defect, rung.ground_residual


def test_criterion_08_bott_dirac_kernel_and_gap():
    """n_basis = 64: kernel dimension exactly 1 with |lambda_min| < 1e-8,
    second-smallest |lambda| = sqrt(2) within 1e-6, interior anticommutator
    equal to the degree involution within 1e-10, residuals nonincreasing
    as the basis doubles, under 5 s."""
    start = time.monotonic()
    kernel_dim, lam_min, gap_defect, ground_residual = _bott_measurements(64)
    dc = dc_commutator_check(bott_dirac(hermite_model(64)))
    history = []
    for n_basis in (32, 64, 128):
        _, _, gap, ground = _bott_measurements(n_basis)
        history.append((ground, gap))
    shrinks = all(
        g1 <= g0 + 1e-12 and s1 <= s0 + 1e-12
        for (g0, s0), (g1, s1) in zip(history, history[1:])
    )
    elapsed = time.monotonic() - start
    ok = (
        kernel_dim == 1
        and lam_min < 1e-8
        and gap_defect <= 1e-6
        and ground_residual <= 1e-10
        and dc["interior_defect_vs_involution"] <= 1e-10
        and shrinks
        and elapsed < 5.0
    )
    verdict(8, ok,
            f"Bott-Dirac kernel/gap (kernel {kernel_dim}, |lam_min| {lam_min:.1e}, "
            f"gap defect {gap_defect:.1e}, involution defect {dc['interior_defect_vs_involution']:.1e}, {elapsed:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated clause: interior ||[D, C] - 1|| <= 1e-10.  The interior "
        "anticommutator is the Clifford-degree involution, whose distance "
        "to the identity is exactly 2; an identity anticommutator would "
        "give B^2 >= 1 and an empty kernel, contradicting the kernel "
        "clause verified above.  Kept as stated and expected to fail."
    ),
)
def test_criterion_08_dc_anticommutator_identity_as_stated():
    dc = dc_commutator_check(bott_dirac(hermite_model(64)))
    print(
        f"[FAIL] criterion 8 (identity clause): interior ||[D,C] - 1|| = "
        f"{dc['interior_defect_vs_identity']:.3f} (involution defect "
        f"{dc['interior_defect_vs_involution']:.1e})"
    )
    assert dc["interior_defect_vs_identity"] <= 1e-10


def test_criterion_09_perturbation_invariance():
    """Bounded odd potentials: ||f(t^-1 V) b - f(0) b|| fits the resolvent
    rates (cayley at -2, g at -1) and the factorization defect fits
    exponent <= -1.75, on random pairs and on the Dirac/Clifford model."""
    grid = default_t_grid(points=40)
    ok = True
    worst = {"cayley": -math.inf, "g": -math.inf, "defect": -math.inf}
    for i in range(10):
        rng = rng_for(trial_seed(ROOT_SEED, 7000 + i))
        space = balanced_space(8)
        gens = {"a": random_even(rng, space, norm=1.0), "b": random_odd(rng, space, norm=1.0)}
        pair = AsymptoticPair(gens, random_odd_selfadjoint(rng, space, norm=1.0))
        potential = random_odd_selfadjoint(rng, space, norm=1.0)
        homom_profiles, defect_even, defect_odd = perturbation_check(pair, potential, grid)
        for per_fn in homom_profiles.values():
            worst["cayley"] = max(worst["cayley"], per_fn["cayley"].fitted_exponent)
            worst["g"] = max(worst["g"], per_fn["g"].fitted_exponent)
        worst["defect"] = max(worst["defect"], defect_even.fitted_exponent, defect_odd.fitted_exponent)
    from gradedlab import multiplication_generators

    ops = bott_dirac(hermite_model(16))
    pair = AsymptoticPair(multiplication_generators(ops), ops.dirac)
    homom_profiles, defect_even, defect_odd = perturbation_check(pair, ops.clifford_mult, grid)
    for per_fn in homom_profiles.values():
        worst["cayley"] = max(worst["cayley"], per_fn["cayley"].fitted_exponent)
        worst["g"] = max(worst["g"], per_fn["g"].fitted_exponent)
    worst["defect"] = max(worst["defect"], defect_even.fitted_exponent, defect_odd.fitted_exponent)
    ok = worst["cayley"] <= -1.75 and worst["g"] <= -0.75 and worst["defect"] <= -1.75
    verdict(9, ok,
            f"perturbation invariance (worst cayley {worst['cayley']:.2f}, "
            f"g {worst['g']:.2f}, defect {worst['defect']:.2f})")


def test_criterion_10_deterministic_reports(tmp_path):
    """Two runs with identical config and seed give byte-identical report.json."""
    import json

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "commbound",
        "trials": 6,
        "dims": [4, 8],
        "n_grid": [0.5, 2.0],
        "t_grid": {"start": 1.0, "stop": 100.0, "points": 10},
        "seed": 42,
    }))
    out1, out2 = tmp_path / "one", tmp_path / "two"
    code1 = main(["--config", str(config), "--out", str(out1)])
    code2 = main(["--config", str(config), "--out", str(out2)])
    identical = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    certs_identical = (
        (out1 / "certificates.jsonl").read_bytes() == (out2 / "certificates.jsonl").read_bytes()
    )
    verdict(10, code1 == 0 and code2 == 0 and identical and certs_identical,
            "byte-identical reports for identical config and seed")
