"""Reproducible experiment suites behind the `lab` command.

Every experiment consumes an ExperimentConfig (JSON file plus command
line overrides), derives one deterministic seed per trial from the root
seed, and produces an ExperimentResult: named checks with pass counts,
one certificate per measured bound, decay-profile CSV payloads, and a
summary.  Trials run serially in a fixed order so reports are
byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bott import (
    bott_dirac,
    dc_commutator_check,
    ground_vector,
    hermite_model,
    multiplication_generators,
    perturbation_check,
    spectrum_and_kernel,
)
from .estimates import (
    MONOTONE_SLACK,
    BoundCertificate,
    exp_product_bound_check,
    exp_product_path_profiles,
    exp_product_series_terms,
    exp_shift_bound_check,
    matrix_exp,
    transform_commutator_check,
    transform_sum_sweep,
)
from .graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    graded_commutator,
    graded_tensor,
    identity,
    operator_norm,
    zeros,
)
from .pairs import (
    COMMUTATION_EXPONENT_THRESHOLD,
    COMPOSE_EXPONENT_THRESHOLD,
    AsymptoticPair,
    DecayProfile,
    RepresentedAlgebra,
    compose_pairs,
    default_t_grid,
    factorization_defect_profiles,
    identity_pushforward,
    validate_pair,
)
from .sampling import (
    balanced_space,
    random_even,
    random_even_unitary,
    random_odd,
    random_odd_selfadjoint,
    rng_for,
    trial_seed,
)

__all__ = [
    "EXPERIMENT_NAMES",
    "UnknownExperimentError",
    "ConfigError",
    "ExperimentConfig",
    "CheckSummary",
    "ExperimentResult",
    "load_config",
    "run_experiment",
]

EXPERIMENT_NAMES = (
    "commbound",
    "expfactor",
    "techlemma",
    "compose",
    "bott",
    "perturb",
    "appendixB",
)


class UnknownExperimentError(ValueError):
    pass


class ConfigError(ValueError):
    pass


# Largest dense operator dimension a config may ask for.  One 4096 x 4096
# matrix takes 134 MB real or 268 MB complex, and a run holds several at once.
MAX_DENSE_DIM = 4096
# The tolerance keys each experiment reads, with their defaults; no other key may be set.
_TOLERANCES: dict[str, dict[str, float]] = {
    "commbound": {},
    "expfactor": {"rate_rel": 0.02, "exponent_window": 0.1},
    "techlemma": {"final_sup": 1e-6, "monotone_slack": MONOTONE_SLACK},
    "compose": {"compose_exponent": COMPOSE_EXPONENT_THRESHOLD},
    "bott": {"kernel": 1e-8, "gap": 1e-6, "interior": 1e-10, "convergence_slack": 1e-12},
    "perturb": {"homom_exponent": COMMUTATION_EXPONENT_THRESHOLD, "cayley_exponent": COMPOSE_EXPONENT_THRESHOLD,
                "defect_exponent": COMPOSE_EXPONENT_THRESHOLD},
    "appendixB": {},
}


# Each experiment's departures from the ExperimentConfig field defaults, in config-file form.
_DEFAULTS: dict[str, dict] = {
    "commbound": {"trials": 200, "dims": [4, 8, 16]},
    "expfactor": {"trials": 50, "t_grid": {"start": 10.0, "points": 40}},
    "techlemma": {"trials": 20, "t_grid": {"start": 10.0, "points": 30}},
    "compose": {"trials": 50},
    "bott": {},
    "perturb": {"trials": 10, "n_basis": 16},
    "appendixB": {"trials": 500, "dims": [4, 8, 16], "t_grid": {"points": 40}},
}


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
    tolerances: dict = field(default_factory=dict)
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise UnknownExperimentError(f"unknown experiment {self.experiment!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.n_grid or not all(0 < n < math.inf for n in self.n_grid):
            raise ConfigError("invalid transform-scale grid")
        if not self.dims or any(d < 2 or d % 2 for d in self.dims):
            raise ConfigError("dims must be a non-empty list of even integers >= 2")
        # the largest grid-shaped arrays: the weight stacks of commbound and
        # techlemma, one row of max(dims) weights per (N, t) pair
        grid_entries = (self.t_points + 1) * max(len(self.n_grid), 7) * max(self.dims)
        if grid_entries > MAX_DENSE_DIM**2:
            raise ConfigError(f"t grid of {self.t_points} points would need {grid_entries} weights")
        try:
            self.t_grid()
        except ValueError as exc:
            raise ConfigError(f"invalid t grid: {exc}") from exc
        if self.n_basis < 8:
            raise ConfigError("n_basis must be >= 8")
        if self.coordinates < 1:
            raise ConfigError("coordinates must be >= 1")
        unknown = sorted(set(self.tolerances) - set(_TOLERANCES[self.experiment]))
        if unknown:
            raise ConfigError(f"unknown tolerance keys for {self.experiment}: {', '.join(unknown)}")
        for key, value in self.tolerances.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigError(f"tolerance {key!r} must be a finite number")
        if self.tolerances.get("kernel", 1.0) <= 0:
            raise ConfigError("kernel tolerance must be positive")
        largest = self._largest_dense_dim()
        if largest > MAX_DENSE_DIM:
            raise ConfigError(f"largest dense operator would be {largest}-dimensional, above {MAX_DENSE_DIM}")

    def _largest_dense_dim(self) -> int:
        """Dimension of the largest dense matrix the experiment builds."""
        largest = max(self.dims)
        if self.experiment == "bott":
            # the convergence step doubles the basis: 2 (2 n_basis) - 1 per coordinate
            largest = max(largest, (4 * self.n_basis - 1) ** self.coordinates)
        elif self.experiment == "perturb":
            largest = max(largest, 2 * self.n_basis - 1)
        return largest

    def tolerance(self, key: str) -> float:
        return float(self.tolerances.get(key, _TOLERANCES[self.experiment][key]))

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
            "tolerances": dict(self.tolerances),
        }


def _number(value) -> float:
    """value as a float; a bool or a non-number (a string, say) is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}")
    return float(value)


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
    "tolerances": dict,
    "out": lambda v: v,
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
    flags = {key: value for key, value in (("seed", seed), ("out", out)) if value is not None}
    merged = {**_DEFAULTS[name], **{k: v for k, v in data.items() if k != "experiment"}, **flags}
    grid = merged.pop("t_grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("t_grid must be an object with start/stop/points")
    grid = {**_DEFAULTS[name].get("t_grid", {}), **grid}
    unknown = sorted(set(merged) - set(_PARSERS)) + [f"t_grid.{k}" for k in sorted(set(grid) - set(_GRID_PARSERS))]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        fields = {key: _PARSERS[key](value) for key, value in merged.items()}
        fields.update({f"t_{key}": _GRID_PARSERS[key](value) for key, value in grid.items()})
        return ExperimentConfig(experiment=name, **fields)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, (UnknownExperimentError, ConfigError)):
            raise
        raise ConfigError(f"malformed config: {exc}") from exc


@dataclass(frozen=True)
class CheckSummary:
    name: str
    claim: str
    passed_count: int
    failed_count: int


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    config: dict
    checks: list[CheckSummary]
    certificates: list[BoundCertificate]
    profiles: list[tuple[str, DecayProfile]]
    summary: dict
    passed: bool
    tables: dict[str, str] = field(default_factory=dict)


def _summarize(certificates, claims: dict[str, str]) -> list[CheckSummary]:
    counts: dict[str, list[int]] = {}
    for cert in certificates:
        base = cert.check.split("[")[0]
        counts.setdefault(base, [0, 0])[0 if cert.passed else 1] += 1
    return [
        CheckSummary(name, claims.get(name, name), passed, failed)
        for name, (passed, failed) in sorted(counts.items())
    ]


def _trials(cfg: ExperimentConfig):
    """(index, seed, rng, space) for each trial, dims taken round-robin."""
    for i in range(cfg.trials):
        seed = trial_seed(cfg.seed, i)
        rng = rng_for(seed)
        yield i, seed, rng, balanced_space(cfg.dims[i % len(cfg.dims)])


def _result(cfg, claims, certs, profiles=None, summary=None, tables=None) -> ExperimentResult:
    return ExperimentResult(
        cfg.experiment,
        cfg.as_dict(),
        _summarize(certs, claims),
        certs,
        profiles or [],
        summary or {},
        all(c.passed for c in certs),
        tables or {},
    )


# -- individual experiments -------------------------------------------------


def run_commbound(cfg: ExperimentConfig) -> ExperimentResult:
    claims = {
        "transform_commutator": "commutator norm of smoothed transforms never exceeds the plain commutator norm",
        "transform_commutator_scaled": "the same contraction holds after t-rescaling, uniformly on the grid",
    }
    grid = cfg.t_grid()
    certs: list[BoundCertificate] = []
    for i, seed, rng, space in _trials(cfg):
        d = random_odd_selfadjoint(rng, space)
        d_prime = random_odd_selfadjoint(rng, space)
        certs.extend(transform_commutator_check(d, d_prime, cfg.n_grid, grid, seed=list(seed)))
    return _result(cfg, claims, certs, summary={"trials": cfg.trials, "n_grid": list(cfg.n_grid)})


def run_expfactor(cfg: ExperimentConfig) -> ExperimentResult:
    claims = {
        "factorization_rate": "t^2 times the even heat-factorization defect reaches the commutator norm within 2%",
        "factorization_exponent": "even heat-factorization defect decays with exponent -2 +- 0.1",
        "factorization_exact": "graded-commuting operators factor exactly (defects at rounding level)",
    }
    grid = cfg.t_grid()
    rate_tol = cfg.tolerance("rate_rel")
    exp_tol = cfg.tolerance("exponent_window")
    certs: list[BoundCertificate] = []
    profiles: list[tuple[str, DecayProfile]] = []
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
                abs(t_last**2 * float(even_prof.values[-1]) - comm),
                rate_tol * comm,
                list(seed),
            )
        )
        certs.append(
            BoundCertificate(
                f"factorization_exponent[trial={i}]",
                abs(even_prof.fitted_exponent + 2.0),
                exp_tol,
                list(seed),
            )
        )
        exponents.append(even_prof.fitted_exponent)
        if i < 3:
            profiles.append((f"expfactor_trial{i}_even", even_prof))
            profiles.append((f"expfactor_trial{i}_odd", odd_prof))
    certs.extend(_exact_factorization_certs(grid))
    summary = {"even_exponents": exponents}
    return _result(cfg, claims, certs, profiles, summary)


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


def run_techlemma(cfg: ExperimentConfig) -> ExperimentResult:
    claims = {
        "sweep_monotone": "per-scale suprema of the smoothed-sum calculus defect are nonincreasing",
        "sweep_final": "the supremum at the largest transform scale is below 1e-6",
        "relative_bound": "||D (D + D' + i)^-1||^2 <= 1 + ||[D, D']||",
    }
    grid = cfg.t_grid()
    final_tol = cfg.tolerance("final_sup")
    slack = cfg.tolerance("monotone_slack")
    certs: list[BoundCertificate] = []
    profiles: list[tuple[str, DecayProfile]] = []
    for i, seed, rng, space in _trials(cfg):
        d = random_odd_selfadjoint(rng, space, norm=1.0)
        d_prime = random_odd_selfadjoint(rng, space, norm=1.0)
        report = transform_sum_sweep(d, d_prime, grid)
        worst_jump = float(np.diff(report.suprema).max(initial=-math.inf))
        certs.append(BoundCertificate(f"sweep_monotone[trial={i}]", max(worst_jump, 0.0), slack, list(seed)))
        certs.append(BoundCertificate(f"sweep_final[trial={i}]", report.final_supremum, final_tol, list(seed)))
        for cert in report.relative_bound_certificates:
            certs.append(
                BoundCertificate(f"relative_bound[trial={i},{cert.check}]", cert.lhs, cert.rhs, list(seed))
            )
        if i == 0:
            for n, row in zip(report.n_grid, report.defects):
                profiles.append((f"techlemma_N{n:g}", DecayProfile.from_values(report.t_grid, row)))
    return _result(cfg, claims, certs, profiles)


def run_compose(cfg: ExperimentConfig) -> ExperimentResult:
    claims = {
        "compose_defect": "naive two-step composition defect decays with fitted exponent <= -1.75",
        "compose_identity": "composition with the trivial pair (identity, 0) is exact",
    }
    grid = cfg.t_grid()
    threshold = cfg.tolerance("compose_exponent")
    certs: list[BoundCertificate] = []
    profiles: list[tuple[str, DecayProfile]] = []
    exponents = []
    for i, seed, rng, space in _trials(cfg):
        gens = {
            "a_even": random_even(rng, space, norm=1.0),
            "a_odd": random_odd(rng, space, norm=1.0),
        }
        p_ab = AsymptoticPair(RepresentedAlgebra(space, gens), random_odd_selfadjoint(rng, space, norm=1.0))
        unitary = random_even_unitary(rng, space)

        def pushforward(m, _u=unitary):
            return GradedMatrix(m.space, _u.entries @ m.entries @ _u.entries.conj().T)

        p_bc = AsymptoticPair(
            RepresentedAlgebra(space, {"b": random_even(rng, space, norm=1.0)}),
            random_odd_selfadjoint(rng, space, norm=1.0),
        )
        comp = compose_pairs(p_ab, p_bc, pushforward, grid)
        for gen_name, per_fn in comp.defect_profiles.items():
            for fn_name, profile in per_fn.items():
                certs.append(
                    BoundCertificate(
                        f"compose_defect[trial={i},{gen_name},{fn_name}]",
                        profile.fitted_exponent,
                        threshold,
                        list(seed),
                    )
                )
                exponents.append(profile.fitted_exponent)
        if i == 0:
            for gen_name, per_fn in comp.defect_profiles.items():
                for fn_name, profile in per_fn.items():
                    profiles.append((f"compose_trial0_{gen_name}_{fn_name}", profile))
    certs.append(_identity_composition_cert(cfg))
    return _result(cfg, claims, certs, profiles, {"exponents": exponents})


def _identity_composition_cert(cfg: ExperimentConfig) -> BoundCertificate:
    seed = trial_seed(cfg.seed, 10_000)
    rng = rng_for(seed)
    space = balanced_space(cfg.dims[0])
    gens = {"a": random_even(rng, space, norm=1.0), "b": random_odd(rng, space, norm=1.0)}
    pair = AsymptoticPair(RepresentedAlgebra(space, gens), random_odd_selfadjoint(rng, space, norm=1.0))
    trivial = AsymptoticPair(
        RepresentedAlgebra(space, {"unit": identity(space)}),
        OddSelfAdjoint(zeros(space)),
    )
    comp = compose_pairs(pair, trivial, identity_pushforward, cfg.t_grid())
    defect = float(np.abs(comp.pair.d.mat - pair.d.mat).max())
    for name in gens:
        defect = max(defect, float(np.abs(comp.pair.rep.generators[name].entries - gens[name].entries).max()))
    return BoundCertificate("compose_identity", defect, 0.0, list(seed))


def _worst_exponent(profiles: dict[str, dict[str, DecayProfile]]) -> float:
    """Largest fitted exponent, NaN if any fit failed (max() would depend on the order)."""
    return float(np.max([p.fitted_exponent for per_fn in profiles.values() for p in per_fn.values()]))


def run_bott(cfg: ExperimentConfig) -> ExperimentResult:
    claims = {
        "bott_kernel_dim": "the Bott-Dirac operator has a one-dimensional kernel",
        "bott_lambda_min": "the kernel eigenvalue is numerically zero",
        "bott_gap": "the second-smallest eigenvalue magnitude is sqrt(2)",
        "bott_ground_residual": "the Gaussian ground vector is annihilated",
        "bott_dc_involution": "interior anticommutator of D and C equals the degree involution",
        "bott_convergence": "kernel and gap residuals do not grow as the basis doubles",
        "bott_pair": "the model pairs satisfy the decay conditions",
        "bott_compose_kernel": "composing the two model pairs yields the Bott-Dirac operator with kernel dimension 1",
    }
    kernel_tol = cfg.tolerance("kernel")
    gap_tol = cfg.tolerance("gap")
    interior_tol = cfg.tolerance("interior")
    certs: list[BoundCertificate] = []
    tables: dict[str, str] = {}
    summary: dict = {}

    model = hermite_model(cfg.n_basis, cfg.coordinates)
    ops = bott_dirac(model)
    eigenvalues, kernel_dim = spectrum_and_kernel(ops.bott, kernel_tol)
    magnitudes = np.sort(np.abs(eigenvalues))
    certs.append(BoundCertificate("bott_kernel_dim", float(abs(kernel_dim - 1)), 0.0))
    certs.append(BoundCertificate("bott_lambda_min", float(magnitudes[0]), kernel_tol))
    certs.append(BoundCertificate("bott_gap", abs(float(magnitudes[1]) - math.sqrt(2.0)), gap_tol))
    ground = ground_vector(ops)
    certs.append(BoundCertificate("bott_ground_residual", float(np.linalg.norm(ops.bott.mat @ ground)), 1e-10))
    dc = dc_commutator_check(ops)
    certs.append(BoundCertificate("bott_dc_involution", dc["interior_defect_vs_involution"], interior_tol))
    summary["kernel_dim"] = kernel_dim
    summary["smallest_magnitudes"] = [float(v) for v in magnitudes[:8]]
    summary["dc_commutator_norm"] = dc["commutator_norm"]
    summary["dc_interior_defect_vs_identity"] = dc["interior_defect_vs_identity"]
    lines = ["index,eigenvalue"]
    lines += [f"{i},{v:.12e}" for i, v in enumerate(eigenvalues)]
    tables[f"spectrum_n{cfg.n_basis}"] = "\n".join(lines) + "\n"

    # truncation convergence across doubled bases
    residuals = []
    for basis in (max(8, cfg.n_basis // 2), cfg.n_basis, 2 * cfg.n_basis):
        if basis == cfg.n_basis:
            ops_b, mags = ops, magnitudes
        else:
            ops_b = bott_dirac(hermite_model(basis, cfg.coordinates))
            mags = np.sort(np.abs(spectrum_and_kernel(ops_b.bott, kernel_tol)[0]))
        residuals.append(
            (
                basis,
                float(np.linalg.norm(ops_b.bott.mat @ ground_vector(ops_b))),
                abs(float(mags[1]) - math.sqrt(2.0)),
            )
        )
    summary["convergence"] = [
        {"n_basis": b, "ground_residual": g, "gap_defect": s} for b, g, s in residuals
    ]
    worst_growth = 0.0
    for (_, g0, s0), (_, g1, s1) in zip(residuals, residuals[1:]):
        worst_growth = max(worst_growth, g1 - g0, s1 - s0)
    certs.append(BoundCertificate("bott_convergence", worst_growth, cfg.tolerance("convergence_slack")))

    # the two model pairs and their composition
    if cfg.coordinates == 1:
        grid = cfg.t_grid()
        unit_rep = RepresentedAlgebra(ops.space, {"unit": identity(ops.space)})
        scalar_pair = AsymptoticPair(unit_rep, ops.clifford_mult)
        mult_rep = RepresentedAlgebra(ops.space, multiplication_generators(model))
        dirac_pair = AsymptoticPair(mult_rep, ops.dirac)
        for name, pair in (("scalar", scalar_pair), ("multiplication", dirac_pair)):
            worst = _worst_exponent(validate_pair(pair, grid))
            certs.append(BoundCertificate(f"bott_pair[{name}]", worst, COMMUTATION_EXPONENT_THRESHOLD))
        comp = compose_pairs(scalar_pair, dirac_pair, identity_pushforward, grid)
        _, comp_kernel = spectrum_and_kernel(comp.pair.d, kernel_tol)
        certs.append(BoundCertificate("bott_compose_kernel", float(abs(comp_kernel - 1)), 0.0))
        certs.append(
            BoundCertificate(
                "bott_compose_kernel[defect-exponents]",
                _worst_exponent(comp.defect_profiles),
                COMPOSE_EXPONENT_THRESHOLD,
            )
        )
    return _result(cfg, claims, certs, summary=summary, tables=tables)


def run_perturb(cfg: ExperimentConfig) -> ExperimentResult:
    claims = {
        "perturb_homom": "f(t^-1 V) phi(a) converges to f(0) phi(a) at the resolvent rate",
        "perturb_defect": "heat factorization defect of (D, V) decays with exponent <= -1.75",
    }
    grid = cfg.t_grid()
    odd_threshold = cfg.tolerance("homom_exponent")
    even_threshold = cfg.tolerance("cayley_exponent")
    defect_threshold = cfg.tolerance("defect_exponent")
    certs: list[BoundCertificate] = []
    profiles: list[tuple[str, DecayProfile]] = []

    def harvest(tag, report, seed=None):
        for gen_name, per_fn in report.homom_profiles.items():
            for fn_name, profile in per_fn.items():
                threshold = even_threshold if fn_name == "cayley" else odd_threshold
                certs.append(
                    BoundCertificate(
                        f"perturb_homom[{tag},{gen_name},{fn_name}]",
                        profile.fitted_exponent,
                        threshold,
                        seed,
                    )
                )
        certs.append(
            BoundCertificate(f"perturb_defect[{tag},even]", report.defect_even.fitted_exponent, defect_threshold, seed)
        )
        certs.append(
            BoundCertificate(f"perturb_defect[{tag},odd]", report.defect_odd.fitted_exponent, defect_threshold, seed)
        )

    for i, seed, rng, space in _trials(cfg):
        gens = {"a_even": random_even(rng, space, norm=1.0), "a_odd": random_odd(rng, space, norm=1.0)}
        pair = AsymptoticPair(RepresentedAlgebra(space, gens), random_odd_selfadjoint(rng, space, norm=1.0))
        potential = random_odd_selfadjoint(rng, space, norm=1.0)
        harvest(f"trial={i}", perturbation_check(pair, potential, grid), list(seed))

    model = hermite_model(cfg.n_basis, 1)
    ops = bott_dirac(model)
    mult_rep = RepresentedAlgebra(ops.space, multiplication_generators(model))
    report = perturbation_check(AsymptoticPair(mult_rep, ops.dirac), ops.clifford_mult, grid)
    harvest("bott", report)
    profiles.append(("perturb_bott_defect_even", report.defect_even))
    for gen_name, per_fn in report.homom_profiles.items():
        for fn_name, profile in per_fn.items():
            profiles.append((f"perturb_bott_{gen_name}_{fn_name}", profile))
    return _result(cfg, claims, certs, profiles)


def run_appendix_b(cfg: ExperimentConfig) -> ExperimentResult:
    claims = {
        "exp_shift": "||e^(x+y) - e^x|| <= ||y|| e^(2||x||)",
        "exp_product": "||e^(x+y) - e^x e^y|| is below the swap-counting series bound",
        "exp_product_commuting": "commuting pairs have defect at rounding level",
        "exp_product_path": "the defect vanishes along paths with vanishing commutator",
        "series_ratio": "the series bound converges (two-step term ratios fall below 1/2)",
        "exp_selftest": "||e^x e^(-x) - 1|| stays at rounding level for ||x|| <= 5",
    }
    certs: list[BoundCertificate] = []
    profiles: list[tuple[str, DecayProfile]] = []
    for i, seed, rng, space in _trials(cfg):
        x = random_even(rng, space, norm=3.0 * float(rng.uniform(0.1, 1.0)))
        y = random_even(rng, space, norm=operator_norm(x) * float(rng.uniform(0.0, 1.0)))
        cert = exp_shift_bound_check(x, y, seed=list(seed))
        certs.append(cert)
        x1 = random_even(rng, space, norm=float(rng.uniform(0.05, 1.0)))
        y1 = random_even(rng, space, norm=float(rng.uniform(0.05, 1.0)))
        certs.append(exp_product_bound_check(x1, y1, seed=list(seed)))

    rng = rng_for(trial_seed(cfg.seed, 20_000))
    space = balanced_space(cfg.dims[0])
    diag_x = GradedMatrix(space, np.diag(rng.standard_normal(space.dim)).astype(complex))
    diag_y = GradedMatrix(space, np.diag(rng.standard_normal(space.dim)).astype(complex))
    commuting = exp_product_bound_check(diag_x, diag_y)
    certs.append(BoundCertificate("exp_product_commuting", commuting.lhs, 1e-12))

    d = random_odd_selfadjoint(rng, space, norm=1.0)
    d_prime = random_odd_selfadjoint(rng, space, norm=1.0)
    path_lhs, path_rhs = exp_product_path_profiles(d, d_prime, cfg.t_grid())
    certs.append(
        BoundCertificate(
            "exp_product_path", float((path_lhs.values - path_rhs.values).max()), 0.0
        )
    )
    profiles.append(("appendixB_path_defect", path_lhs))
    profiles.append(("appendixB_path_bound", path_rhs))

    terms = exp_product_series_terms(1.0, 1.0, 100)
    two_step = terms[2:] / terms[:-2]
    certs.append(BoundCertificate("series_ratio", float(two_step[40:].max()), 0.5))

    for i in range(20):
        seed = trial_seed(cfg.seed, 30_000 + i)
        rng = rng_for(seed)
        x = random_even(rng, space, norm=5.0 * float(rng.uniform(0.2, 1.0)))
        lhs = operator_norm(matrix_exp(x) @ matrix_exp(-1.0 * x) - identity(space))
        certs.append(BoundCertificate(f"exp_selftest[{i}]", lhs, 1e-12, list(seed)))
    return _result(cfg, claims, certs, profiles)


_RUNNERS = {
    "commbound": run_commbound,
    "expfactor": run_expfactor,
    "techlemma": run_techlemma,
    "compose": run_compose,
    "bott": run_bott,
    "perturb": run_perturb,
    "appendixB": run_appendix_b,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured suite and return its result tree."""
    runner = _RUNNERS.get(config.experiment)
    if runner is None:
        raise UnknownExperimentError(f"unknown experiment {config.experiment!r}")
    return runner(config)
