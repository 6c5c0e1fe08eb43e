"""Reproducible experiment suites behind the `lab` command.

Every experiment consumes an ExperimentConfig (JSON file plus command
line overrides), derives one deterministic seed per trial from the root
seed, and returns one certificate per measured bound, tables of named
columns (one CSV file each, written decay profiles among them) and a
summary, all of them numbers that reporting alone turns into text;
run_experiment wraps them in an ExperimentResult, whose checks count the
certificates under the claims of CHECKS.  Trials run serially in a fixed
order so reports are byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bott import (
    KERNEL_TOL,
    bott_dirac,
    dc_commutator_check,
    hermite_model,
    ladder_spectrum,
    multiplication_generators,
    perturbation_check,
    spectrum_and_kernel,
)
from .estimates import (
    exp_product_bound_check,
    exp_product_bounds,
    exp_product_path_profiles,
    exp_product_series_terms,
    exp_shift_bounds,
    matrix_exp,
    transform_commutator_check,
    transform_sum_sweep,
)
from .funcalc import MAX_TRANSFORM_SCALE, grid_chunks
from .graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    graded_commutator,
    graded_tensor,
    identity,
    operator_norm,
    operator_norms,
    zeros,
)
from .pairs import (
    COMMUTATION_EXPONENT_THRESHOLD,
    COMPOSE_EXPONENT_THRESHOLD,
    AsymptoticPair,
    DecayProfile,
    compose_pairs,
    default_t_grid,
    factorization_defect_profiles,
    identity_pushforward,
    validate_pair,
)
from .reporting import BoundCertificate
from .sampling import (
    balanced_space,
    even_gaussian,
    random_even,
    random_even_unitary,
    random_odd,
    random_odd_selfadjoint,
    rescale,
    rng_for,
    trial_seed,
)

__all__ = [
    "EXPERIMENT_NAMES",
    "UnknownExperimentError",
    "ConfigError",
    "ExperimentConfig",
    "CHECKS",
    "CheckSummary",
    "ExperimentResult",
    "load_config",
    "run_experiment",
]

class UnknownExperimentError(ValueError):
    pass


class ConfigError(ValueError):
    pass


# Largest dense operator dimension a config may ask for.  One 4096 x 4096 dense matrix
# takes 134 MB real or 268 MB complex, and a run holds several at once.
MAX_DENSE_DIM = 4096
# Largest total dimension of an n-coordinate Bott model: its spectrum's multiplicities are int64.
MAX_MULTIPLICITY = np.iinfo(np.int64).max
# Most trials a config may ask for.  A run keeps every trial's certificates and their jsonl
# text to the end, and no trial's profiles: 7.7 kB a trial for commbound at its 6 default
# transform scales, the most of any experiment (tracemalloc peaks of run_experiment and
# emit_report), so 0.77 GB at the bound.  commbound certifies each scale twice a trial, so
# trials x len(n_grid) is bounded by the same budget, 6 MAX_TRIALS.
MAX_TRIALS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 42
    trials: int = 1
    dims: tuple[int, ...] = (8,)
    t_start: float = 1.0
    t_stop: float = 1e3
    t_points: int = 60
    n_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    n_basis: int = 64
    coordinates: int = 1
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise UnknownExperimentError(f"unknown experiment {self.experiment!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be between 1 and {MAX_TRIALS}")
        if not self.n_grid or not all(0 < n <= MAX_TRANSFORM_SCALE for n in self.n_grid):
            raise ConfigError("invalid transform-scale grid")
        if self.trials * len(self.n_grid) > 6 * MAX_TRIALS:
            raise ConfigError(f"trials x len(n_grid) may not exceed {6 * MAX_TRIALS}")
        if not self.dims or any(d < 2 or d % 2 for d in self.dims):
            raise ConfigError("dims must be a non-empty list of even integers >= 2")
        # the largest grid-shaped arrays: the odd chiral weight stacks of commbound
        # and techlemma, one row of min(#e, #o) weights per (N, t) pair, bounded
        # here by max(dims) weights a row
        grid_entries = (self.t_points + 1) * max(len(self.n_grid), 7) * max(self.dims)
        if grid_entries > MAX_DENSE_DIM**2:
            raise ConfigError(f"t grid of {self.t_points} points would need {grid_entries} weights")
        try:
            self.t_grid()
        except ValueError as exc:
            raise ConfigError(f"invalid t grid: {exc}") from exc
        # expfactor's rate certificate squares the last grid point
        if self.experiment == "expfactor" and self.t_stop > MAX_TRANSFORM_SCALE:
            raise ConfigError("expfactor needs a t_grid stop with a finite square")
        if self.n_basis < 8:
            raise ConfigError("n_basis must be >= 8")
        if self.coordinates < 1:
            raise ConfigError("coordinates must be >= 1")
        largest = self._largest_dense_dim()
        if largest > MAX_DENSE_DIM:
            raise ConfigError(f"largest operator would be {largest}-dimensional, above {MAX_DENSE_DIM}")

    def _largest_dense_dim(self) -> int:
        """Dimension of the largest dense operator the experiment builds."""
        largest = max(self.dims)
        if self.experiment == "bott":
            # the convergence ladder's top basis on one coordinate, 2 (2 n_basis) - 1; its
            # spectrum on all of them has multiplicities summing to base**coordinates, refused
            # by its logarithm before a huge power is ever evaluated
            base = 4 * self.n_basis - 1
            if self.coordinates * math.log(base) > math.log(MAX_MULTIPLICITY):
                raise ConfigError(f"the model would be {base}**{self.coordinates}-dimensional, "
                                  f"above the int64 multiplicities' {MAX_MULTIPLICITY}")
            largest = max(largest, base)
        elif self.experiment == "perturb":
            largest = max(largest, 2 * self.n_basis - 1)
        return largest

    def t_grid(self) -> np.ndarray:
        return default_t_grid(self.t_start, self.t_stop, self.t_points)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "trials": self.trials,
            "dims": list(self.dims),
            "t_grid": {"start": self.t_start, "stop": self.t_stop, "points": self.t_points},
            "n_grid": list(self.n_grid),
            "n_basis": self.n_basis,
            "coordinates": self.coordinates,
        }


def _number(value) -> float:
    """value as a float; a bool or a non-number (a string, say) is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}")
    return float(value)


def _path(value) -> str:
    """value as an output directory; anything but a non-empty string is a ConfigError."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"expected a non-empty path string, got {value!r}")
    return value


def _integer(value) -> int:
    """value as an int; a non-number or a non-integral number is a ConfigError."""
    if not _number(value).is_integer():
        raise ConfigError(f"expected an integer, got {value!r}")
    return int(value)


# The keys a config file may set besides "experiment", each with the parser of the
# ExperimentConfig field it fills; t_grid's keys fill t_start, t_stop and t_points.
_PARSERS = {
    "seed": _integer,
    "trials": _integer,
    "dims": lambda v: tuple(_integer(d) for d in v),
    "n_grid": lambda v: tuple(_number(n) for n in v),
    "n_basis": _integer,
    "coordinates": _integer,
    "out": _path,
}
_GRID_PARSERS = {"start": _number, "stop": _number, "points": _integer}


def load_config(
    path: str | Path | None = None,
    experiment: str | None = None,
    seed: int | None = None,
    out: str | None = None,
) -> ExperimentConfig:
    """Assemble a config from the experiment's defaults, an optional JSON file,
    and overrides, merged key by key (t_grid too); absent keys keep the
    ExperimentConfig field defaults."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    name = experiment or data.get("experiment")
    if name is None:
        raise ConfigError("no experiment selected")
    if name not in EXPERIMENT_NAMES:
        raise UnknownExperimentError(f"unknown experiment {name!r}")
    _, reads, defaults = _EXPERIMENTS[name]
    flags = {key: value for key, value in (("seed", seed), ("out", out)) if value is not None}
    merged = {**defaults, **{k: v for k, v in data.items() if k != "experiment"}, **flags}
    unknown = sorted(set(merged) - reads - {"seed", "out"})
    grid = merged.pop("t_grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("t_grid must be an object with start/stop/points")
    grid = {**defaults.get("t_grid", {}), **grid}
    unknown += [f"t_grid.{k}" for k in sorted(set(grid) - set(_GRID_PARSERS))]
    if unknown:
        raise ConfigError(f"unknown config keys for {name}: {', '.join(unknown)}")
    # run_bott's pair and composition checks, the only readers of t_grid, run at one coordinate
    if name == "bott" and "t_grid" in data and merged.get("coordinates", 1) != 1:
        raise ConfigError("bott reads t_grid only at coordinates = 1")
    try:
        fields = {key: _PARSERS[key](value) for key, value in merged.items()}
        fields.update({f"t_{key}": _GRID_PARSERS[key](value) for key, value in grid.items()})
        return ExperimentConfig(experiment=name, **fields)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, (UnknownExperimentError, ConfigError)):
            raise
        raise ConfigError(f"malformed config: {exc}") from exc


# The claim of every check, keyed by the name before "[" that its certificates carry, in
# the order of the experiments that emit them.  A report counts each check's certificates
# under its claim; a certificate whose check is not listed here cannot be reported.
CHECKS: dict[str, str] = {
    "transform_commutator": "commutator norm of smoothed transforms never exceeds the plain commutator norm",
    "transform_commutator_scaled": "the same contraction holds after t-rescaling, uniformly on the grid",
    "factorization_rate": "t^2 times the even heat-factorization defect reaches the commutator norm within 2%",
    "factorization_exponent": "even heat-factorization defect decays with exponent -2 +- 0.1",
    "factorization_exact": "graded-commuting operators factor exactly (defects at rounding level)",
    "sweep_monotone": "per-scale suprema of the smoothed-sum calculus defect are nonincreasing",
    "sweep_final": "the supremum at the largest transform scale is below 1e-6",
    "relative_bound": "||D (D + D' + i)^-1||^2 <= 1 + ||[D, D']||",
    "compose_defect": "naive two-step composition defect decays with fitted exponent <= -1.75",
    "compose_identity": "composition with the trivial pair (identity, 0) is exact",
    "bott_kernel_dim": "the Bott-Dirac operator has a one-dimensional kernel",
    "bott_lambda_min": "the kernel eigenvalue is numerically zero",
    "bott_gap": "the second-smallest eigenvalue magnitude is sqrt(2)",
    "bott_ground_residual": "the Gaussian ground vector is annihilated",
    "bott_dc_involution": "interior anticommutator of D and C equals the degree involution",
    "bott_convergence": "kernel and gap residuals do not grow as the basis doubles",
    "bott_pair": "the model pairs satisfy the decay conditions",
    "bott_compose_kernel": "composing the two model pairs yields the Bott-Dirac operator with kernel dimension 1, "
                           "and the composition defects decay with fitted exponent <= -1.75",
    "perturb_homom": "f(t^-1 V) phi(a) converges to f(0) phi(a) at the resolvent rate",
    "perturb_defect": "heat factorization defect of (D, V) decays with exponent <= -1.75",
    "exp_shift": "||e^(x+y) - e^x|| <= ||y|| e^(2||x||)",
    "exp_product": "||e^(x+y) - e^x e^y|| is below the swap-counting series bound",
    "exp_product_commuting": "commuting pairs have defect at rounding level",
    "exp_product_path": "the defect vanishes along paths with vanishing commutator",
    "series_ratio": "the series bound converges (two-step term ratios fall below 1/2)",
    "exp_selftest": "||e^x e^(-x) - 1|| stays at rounding level for ||x|| <= 5",
}


@dataclass(frozen=True)
class CheckSummary:
    """The certificates of one check: its claim, pass and fail counts, and the
    certificate with the smallest margin (a NaN margin, a failed fit, first)."""

    name: str
    claim: str
    passed_count: int
    failed_count: int
    worst: BoundCertificate


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    config: dict
    certificates: list[BoundCertificate]
    summary: dict = field(default_factory=dict)
    # {file stem: {column name: values}}, one CSV file each
    tables: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    @functools.cached_property
    def checks(self) -> list[CheckSummary]:
        """One summary per check name, sorted, derived once; a name missing
        from CHECKS raises KeyError."""
        groups: dict[str, list[BoundCertificate]] = {}
        for cert in self.certificates:
            groups.setdefault(cert.check.split("[")[0], []).append(cert)
        summaries = []
        for name, certs in sorted(groups.items()):
            passed = sum(c.passed for c in certs)
            worst = min(certs, key=lambda c: -math.inf if math.isnan(c.margin) else c.margin)
            summaries.append(CheckSummary(name, CHECKS[name], passed, len(certs) - passed, worst))
        return summaries

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)


def _trials(cfg: ExperimentConfig):
    """(index, seed, rng, space) for each trial, dims taken round-robin; the
    seed is the list a certificate records."""
    for i in range(cfg.trials):
        seed = trial_seed(cfg.seed, i)
        yield i, list(seed), rng_for(seed), balanced_space(cfg.dims[i % len(cfg.dims)])


def _table_rows(table: dict[str, dict[str, DecayProfile]]) -> list[tuple[str, str, DecayProfile]]:
    """(generator, function, profile) for every profile of a {generator: {function: profile}} table, in order."""
    return [(gen, fn, profile) for gen, per_fn in table.items() for fn, profile in per_fn.items()]


def _written(profile: DecayProfile) -> dict[str, np.ndarray]:
    """The columns of a written profile's CSV file, t and value, its whole t-grid evaluated."""
    return {"t": profile.t_grid, "value": profile.values}


# -- individual experiments -------------------------------------------------


def run_commbound(cfg: ExperimentConfig):
    grid = cfg.t_grid()
    certs: list[BoundCertificate] = []
    for i, seed, rng, space in _trials(cfg):
        d = random_odd_selfadjoint(rng, space)
        d_prime = random_odd_selfadjoint(rng, space)
        lhs, rhs = transform_commutator_check(d, d_prime, cfg.n_grid, grid)
        certs += _transform_commutator_certs(cfg.n_grid, grid, lhs, rhs, seed)
    return certs, {}, {"trials": cfg.trials, "n_grid": list(cfg.n_grid)}


def _transform_commutator_certs(n_grid, grid, lhs, rhs, seed) -> list[BoundCertificate]:
    """The certificates of one transform_commutator_check table: column 0 against
    ||[D, D']|| for every N, then for every N the worst grid point of the scaled
    form, which bounds column 1 + j by t_j^-2 ||[D, D']||."""
    certs = [
        BoundCertificate(f"transform_commutator[N={n:g}]", float(lhs[k, 0]), rhs, seed) for k, n in enumerate(n_grid)
    ]
    bounds = rhs * (1.0 / grid) * (1.0 / grid)
    for k, n in enumerate(n_grid):
        # argmin takes the first of equal margins, as a strict-less scan would
        j = int(np.argmin(bounds - lhs[k, 1:]))
        name = f"transform_commutator_scaled[N={n:g},t={grid[j]:.6g}]"
        certs.append(BoundCertificate(name, float(lhs[k, 1 + j]), float(bounds[j]), seed))
    return certs


def run_expfactor(cfg: ExperimentConfig):
    grid = cfg.t_grid()
    certs: list[BoundCertificate] = []
    tables = {}
    exponents = []
    for i, seed, rng, space in _trials(cfg):
        d = random_odd_selfadjoint(rng, space, norm=1.0)
        d_prime = random_odd_selfadjoint(rng, space, norm=1.0)
        even_prof, odd_prof = factorization_defect_profiles(d, d_prime, grid)
        comm = operator_norm(graded_commutator(d.underlying, d_prime.underlying))
        t_last = float(grid[-1])
        certs.append(
            BoundCertificate(
                f"factorization_rate[trial={i}]",
                abs(t_last**2 * float(even_prof.window[-1]) - comm),
                0.02 * comm,
                seed,
            )
        )
        certs.append(
            BoundCertificate(
                f"factorization_exponent[trial={i}]",
                abs(even_prof.fitted_exponent + 2.0),
                0.1,
                seed,
            )
        )
        exponents.append(even_prof.fitted_exponent)
        if i < 3:
            tables[f"profile_expfactor_trial{i}_even"] = _written(even_prof)
            tables[f"profile_expfactor_trial{i}_odd"] = _written(odd_prof)
    certs.extend(_exact_factorization_certs(grid))
    return certs, tables, {"even_exponents": exponents}


def _exact_factorization_certs(grid) -> list[BoundCertificate]:
    two = GradedSpace((0, 1))
    sigma_x = OddSelfAdjoint(GradedMatrix(two, np.array([[0, 1], [1, 0]], dtype=complex)))
    sigma_y = OddSelfAdjoint(GradedMatrix(two, np.array([[0, -1j], [1j, 0]], dtype=complex)))
    cases = {
        "pauli": (sigma_x, sigma_y),
        "tensor-lift": (
            OddSelfAdjoint(graded_tensor(sigma_x.underlying, identity(two))),
            OddSelfAdjoint(graded_tensor(identity(two), sigma_y.underlying)),
        ),
    }
    certs = []
    for name, (d, d_prime) in cases.items():
        even_prof, odd_prof = factorization_defect_profiles(d, d_prime, grid)
        worst = max(float(even_prof.values.max()), float(odd_prof.values.max()))
        certs.append(BoundCertificate(f"factorization_exact[{name}]", worst, 1e-12))
    return certs


def run_techlemma(cfg: ExperimentConfig):
    grid = cfg.t_grid()
    certs: list[BoundCertificate] = []
    tables = {}
    for i, seed, rng, space in _trials(cfg):
        d = random_odd_selfadjoint(rng, space, norm=1.0)
        d_prime = random_odd_selfadjoint(rng, space, norm=1.0)
        report = transform_sum_sweep(d, d_prime, grid)
        worst_jump = float(np.diff(report.suprema).max(initial=-math.inf))
        certs.append(BoundCertificate(f"sweep_monotone[trial={i}]", max(worst_jump, 0.0), 1e-12, seed))
        certs.append(BoundCertificate(f"sweep_final[trial={i}]", float(report.suprema[-1]), 1e-6, seed))
        for x, (lhs, rhs) in zip(("D", "D'"), report.relative_bounds):
            certs.append(BoundCertificate(f"relative_bound[trial={i},relative_bound[{x}]]", lhs, rhs, seed))
        if i == 0:
            for n, row in zip(report.n_grid, report.defects):
                tables[f"profile_techlemma_N{n:g}"] = {"t": report.t_grid, "value": row}
    return certs, tables, {}


def run_compose(cfg: ExperimentConfig):
    grid = cfg.t_grid()
    certs: list[BoundCertificate] = []
    tables = {}
    exponents = []
    for i, seed, rng, space in _trials(cfg):
        gens = {"a_even": random_even(rng, space, norm=1.0), "a_odd": random_odd(rng, space, norm=1.0)}
        p_ab = AsymptoticPair(gens, random_odd_selfadjoint(rng, space, norm=1.0))
        unitary = random_even_unitary(rng, space)

        def pushforward(m, _u=unitary):
            return GradedMatrix(m.space, _u.entries @ m.entries @ _u.entries.conj().T)

        p_bc = AsymptoticPair({"b": random_even(rng, space, norm=1.0)}, random_odd_selfadjoint(rng, space, norm=1.0))
        _, defect_profiles = compose_pairs(p_ab, p_bc, pushforward, grid)
        for gen, fn, profile in _table_rows(defect_profiles):
            exponents.append(profile.fitted_exponent)
            name = f"compose_defect[trial={i},{gen},{fn}]"
            certs.append(BoundCertificate(name, exponents[-1], COMPOSE_EXPONENT_THRESHOLD, seed))
            if i == 0:
                tables[f"profile_compose_trial0_{gen}_{fn}"] = _written(profile)
    certs.append(_identity_composition_cert(cfg))
    return certs, tables, {"exponents": exponents}


def _identity_composition_cert(cfg: ExperimentConfig) -> BoundCertificate:
    seed = trial_seed(cfg.seed, 10_000)
    rng = rng_for(seed)
    space = balanced_space(cfg.dims[0])
    gens = {"a": random_even(rng, space, norm=1.0), "b": random_odd(rng, space, norm=1.0)}
    pair = AsymptoticPair(gens, random_odd_selfadjoint(rng, space, norm=1.0))
    trivial = AsymptoticPair({"unit": identity(space)}, OddSelfAdjoint(zeros(space)))
    composed, _ = compose_pairs(pair, trivial, identity_pushforward, cfg.t_grid())
    defect = float(np.abs(composed.d.mat - pair.d.mat).max())
    for name in gens:
        defect = max(defect, float(np.abs(composed.generators[name].entries - gens[name].entries).max()))
    return BoundCertificate("compose_identity", defect, 0.0, list(seed))


def run_bott(cfg: ExperimentConfig):
    certs: list[BoundCertificate] = []
    summary: dict = {}

    # the truncation ladder n_basis / 2, n_basis, 2 n_basis, each rung's one-coordinate pieces
    # built once per basis, for at n_basis 8 the first two rungs coincide.  Each rung's spectrum
    # is the sum set of its b's, and each certificate takes the Weyl slack of the cross terms
    # against it.  The middle rung is the model.
    bases = (max(8, cfg.n_basis // 2), cfg.n_basis, 2 * cfg.n_basis)
    rungs = {basis: bott_dirac(hermite_model(basis, cfg.coordinates)) for basis in dict.fromkeys(bases)}
    ladder = {basis: ladder_spectrum(ops) for basis, ops in rungs.items()}

    def gap_defect(rung):
        return max(abs(float(bound[1]) - math.sqrt(2.0)) for bound in rung.magnitude_bounds(2))

    rung = ladder[cfg.n_basis]
    kernel_dim = rung.kernel_dim()
    certs.append(BoundCertificate("bott_kernel_dim", float(abs(kernel_dim - 1)), 0.0))
    certs.append(BoundCertificate("bott_lambda_min", float(rung.magnitude_bounds(1)[1][0]), KERNEL_TOL))
    certs.append(BoundCertificate("bott_gap", gap_defect(rung), 1e-6))
    certs.append(BoundCertificate("bott_ground_residual", rung.ground_residual, 1e-10))
    ops = rungs.pop(cfg.n_basis)
    del rungs  # frees the other rungs' pieces (1 MB at the default top rung) before the pairs
    dc = dc_commutator_check(ops)
    certs.append(BoundCertificate("bott_dc_involution", dc["interior_defect_vs_involution"], 1e-10))
    summary["kernel_dim"] = kernel_dim
    summary["smallest_magnitudes"] = [float(v) for v in np.sqrt(rung.smallest(8))]
    summary["dc_commutator_norm"] = dc["commutator_norm"]
    summary["dc_interior_defect_vs_identity"] = dc["interior_defect_vs_identity"]
    tables = {f"spectrum_n{cfg.n_basis}": dict(zip(("eigenvalue", "multiplicity"), rung.eigenvalues()))}

    residuals = [(basis, ladder[basis].ground_residual, gap_defect(ladder[basis])) for basis in bases]
    summary["convergence"] = [{"n_basis": b, "ground_residual": g, "gap_defect": s} for b, g, s in residuals]
    growth = [max(g1 - g0, s1 - s0) for (_, g0, s0), (_, g1, s1) in zip(residuals, residuals[1:])]
    certs.append(BoundCertificate("bott_convergence", max([0.0, *growth]), 1e-12))

    def worst_exponent(table):
        # np.max is NaN if any fit failed; max() would depend on the order
        return float(np.max([profile.fitted_exponent for _, _, profile in _table_rows(table)]))

    # the two model pairs and their composition, on the model's one-coordinate D and C
    if cfg.coordinates == 1:
        grid = cfg.t_grid()
        scalar_pair = AsymptoticPair({"unit": identity(ops.space)}, ops.clifford_mult)
        dirac_pair = AsymptoticPair(multiplication_generators(ops), ops.dirac)
        for name, pair in (("scalar", scalar_pair), ("multiplication", dirac_pair)):
            worst = worst_exponent(validate_pair(pair, grid))
            certs.append(BoundCertificate(f"bott_pair[{name}]", worst, COMMUTATION_EXPONENT_THRESHOLD))
        composed, defect_profiles = compose_pairs(scalar_pair, dirac_pair, identity_pushforward, grid)
        _, comp_kernel = spectrum_and_kernel(composed.d)
        certs.append(BoundCertificate("bott_compose_kernel", float(abs(comp_kernel - 1)), 0.0))
        certs.append(
            BoundCertificate(
                "bott_compose_kernel[defect-exponents]",
                worst_exponent(defect_profiles),
                COMPOSE_EXPONENT_THRESHOLD,
            )
        )
    return certs, tables, summary


def run_perturb(cfg: ExperimentConfig):
    grid = cfg.t_grid()
    certs: list[BoundCertificate] = []

    def certify(tag, report, seed):
        # certifies one perturbation_check report as it is made, so no trial's profiles outlive the trial
        homom_profiles, defect_even, defect_odd = report
        for gen, fn, profile in _table_rows(homom_profiles):
            # f(s V) - f(0) is O(s^2) for the even cayley, O(s) for the odd g
            threshold = COMPOSE_EXPONENT_THRESHOLD if fn == "cayley" else COMMUTATION_EXPONENT_THRESHOLD
            certs.append(BoundCertificate(f"perturb_homom[{tag},{gen},{fn}]", profile.fitted_exponent, threshold, seed))
        for part, profile in (("even", defect_even), ("odd", defect_odd)):
            exponent = profile.fitted_exponent
            certs.append(BoundCertificate(f"perturb_defect[{tag},{part}]", exponent, COMPOSE_EXPONENT_THRESHOLD, seed))

    for i, seed, rng, space in _trials(cfg):
        gens = {"a_even": random_even(rng, space, norm=1.0), "a_odd": random_odd(rng, space, norm=1.0)}
        pair = AsymptoticPair(gens, random_odd_selfadjoint(rng, space, norm=1.0))
        potential = random_odd_selfadjoint(rng, space, norm=1.0)
        certify(f"trial={i}", perturbation_check(pair, potential, grid), seed)

    ops = bott_dirac(hermite_model(cfg.n_basis, 1))
    bott_pair = AsymptoticPair(multiplication_generators(ops), ops.dirac)
    bott_report = perturbation_check(bott_pair, ops.clifford_mult, grid)
    certify("bott", bott_report, None)
    bott_homom, bott_defect_even, _ = bott_report
    tables = {"profile_perturb_bott_defect_even": _written(bott_defect_even)}
    tables |= {f"profile_perturb_bott_{gen}_{fn}": _written(profile) for gen, fn, profile in _table_rows(bott_homom)}
    return certs, tables, {}


def run_appendix_b(cfg: ExperimentConfig):
    certs = _exp_trial_certs(cfg)

    rng = rng_for(trial_seed(cfg.seed, 20_000))
    space = balanced_space(cfg.dims[0])
    diag_x = GradedMatrix(space, np.diag(rng.standard_normal(space.dim)).astype(complex))
    diag_y = GradedMatrix(space, np.diag(rng.standard_normal(space.dim)).astype(complex))
    commuting_lhs, _ = exp_product_bound_check(diag_x, diag_y)
    certs.append(BoundCertificate("exp_product_commuting", commuting_lhs, 1e-12))

    d = random_odd_selfadjoint(rng, space, norm=1.0)
    d_prime = random_odd_selfadjoint(rng, space, norm=1.0)
    path_lhs, path_rhs = exp_product_path_profiles(d, d_prime, cfg.t_grid())
    certs.append(
        BoundCertificate(
            "exp_product_path", float((path_lhs.values - path_rhs.values).max()), 0.0
        )
    )
    tables = {"profile_appendixB_path_defect": _written(path_lhs), "profile_appendixB_path_bound": _written(path_rhs)}

    terms = exp_product_series_terms(1.0, 1.0, 100)
    two_step = terms[2:] / terms[:-2]
    certs.append(BoundCertificate("series_ratio", float(two_step[40:].max()), 0.5))

    for i in range(20):
        seed = trial_seed(cfg.seed, 30_000 + i)
        rng = rng_for(seed)
        x = random_even(rng, space, norm=5.0 * float(rng.uniform(0.2, 1.0)))
        lhs = operator_norm(matrix_exp(x) @ matrix_exp(-1.0 * x) - identity(space))
        certs.append(BoundCertificate(f"exp_selftest[{i}]", lhs, 1e-12, list(seed)))
    return certs, tables, {}


def _exp_trial_draws(rng, space: GradedSpace) -> list:
    """One appendixB trial's draws, in the order its rng makes them: for each
    of x, y, x1 and y1 a uniform norm factor, then the unscaled even entries."""
    draws = []
    for low in (0.1, 0.0, 0.05, 0.05):
        draws += [float(rng.uniform(low, 1.0)), even_gaussian(rng, space)]
    return draws


def _exp_trial_certs(cfg: ExperimentConfig) -> list[BoundCertificate]:
    """The exp_shift and exp_product certificates of every appendixB trial, in
    trial order.  From its norm factors u1 .. u4 a trial takes ||x|| = 3 u1,
    ||y|| = ||x|| u2, ||x1|| = u3 and ||y1|| = u4.  The trials of one
    dimension run as stacks, in blocks whose four operand stacks hold at most
    STACK_ENTRIES entries; each certificate equals its one-trial evaluation
    bit for bit."""
    certs: list = [None] * (2 * cfg.trials)
    for dim in dict.fromkeys(cfg.dims):
        space = balanced_space(dim)
        trials = [i for i in range(cfg.trials) if cfg.dims[i % len(cfg.dims)] == dim]
        # four d x d operands per trial hold as many entries as one 2d x 2d matrix
        for block in grid_chunks(len(trials), 2 * dim):
            indices = trials[block]
            seeds = [trial_seed(cfg.seed, i) for i in indices]
            draws = zip(*(_exp_trial_draws(rng_for(seed), space) for seed in seeds))
            u1, g_x, u2, g_y, u3, g_x1, u4, g_y1 = (np.array(column) for column in draws)
            x = rescale(g_x, 3.0 * u1)
            y = rescale(g_y, operator_norms(x) * u2)
            shift = zip(*exp_shift_bounds(space, x, y))
            product = zip(*exp_product_bounds(space, rescale(g_x1, u3), rescale(g_y1, u4)))
            for i, seed, (shift_lhs, shift_rhs), (product_lhs, product_rhs) in zip(indices, seeds, shift, product):
                certs[2 * i] = BoundCertificate("exp_shift", shift_lhs, shift_rhs, list(seed))
                certs[2 * i + 1] = BoundCertificate("exp_product", product_lhs, product_rhs, list(seed))
    return certs


# Each experiment's runner, which returns (certificates, tables, summary), the top-level config
# keys it reads, and its departures from the ExperimentConfig field defaults in config-file form.
# A config file may set the keys an experiment reads, and seed and out, and nothing else.
_EXPERIMENTS = {
    "commbound": (run_commbound, {"trials", "dims", "t_grid", "n_grid"}, {"trials": 200, "dims": [4, 8, 16]}),
    "expfactor": (run_expfactor, {"trials", "dims", "t_grid"}, {"trials": 50, "t_grid": {"start": 10.0, "points": 40}}),
    "techlemma": (run_techlemma, {"trials", "dims", "t_grid"}, {"trials": 20, "t_grid": {"start": 10.0, "points": 30}}),
    "compose": (run_compose, {"trials", "dims", "t_grid"}, {"trials": 50}),
    "bott": (run_bott, {"n_basis", "coordinates", "t_grid"}, {}),
    "perturb": (run_perturb, {"trials", "dims", "t_grid", "n_basis"}, {"trials": 10, "n_basis": 16}),
    "appendixB": (
        run_appendix_b, {"trials", "dims", "t_grid"}, {"trials": 500, "dims": [4, 8, 16], "t_grid": {"points": 40}}
    ),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured suite and return its result tree: the runner's
    (certificates, tables, summary) under the experiment's name and config."""
    runner, _, _ = _EXPERIMENTS[config.experiment]
    certificates, tables, summary = runner(config)
    return ExperimentResult(config.experiment, config.as_dict(), certificates, summary, tables)
