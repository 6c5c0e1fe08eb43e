"""Benchmark workloads, their metrics, and the certificate counts each
experiment config implies.

A workload is a list of `lab` experiments with config overrides; every
pass of a workload runs all of them, in order, at one root seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    experiments: tuple[tuple[str, dict], ...]
    # Alternate passes between the root seed and root seed + 1, so the
    # run can check that the seed moves certificate values but not counts.
    seed_variation: bool = False
    # per-layer metrics whose sum, over the traced pass wall time, is the
    # share of the pass the workload's stated dominant cost takes
    dominant: tuple[str, ...] = ()

    @property
    def min_passes(self) -> int:
        # two passes at one seed for the determinism check, plus one at
        # the second seed when the workload varies it
        return 3 if self.seed_variation else 2

    def seed_for(self, root_seed: int, pass_index: int) -> int:
        return root_seed + (pass_index % 2 if self.seed_variation else 0)


WORKLOADS = {
    # ~830 small independent trials (d <= 16): per-call Python overhead in
    # funcalc / estimates dominates, commbound alone is over half the pass.
    "lab-small": Workload(
        tuple((name, {}) for name in ("commbound", "appendixB", "compose", "expfactor", "techlemma", "perturb")),
        seed_variation=True,
        dominant=("experiments.commbound.wall_s",),
    ),
    # one large operator (d = 127, convergence bases up to d = 255): the
    # graded commutator matmuls and SVD norms of validate_pair/compose_pairs.
    "bott-1d": Workload(
        (("bott", {}),),
        dominant=("graded.commutator.self_s", "graded.operator_norm.self_s", "graded.tensor.self_s",
                  "graded.construct.self_s", "linalg.norm2.self_s"),
    ),
    # tensor-power assembly and one dense eigvalsh at d = 2209; the pair
    # and profile layers are skipped at coordinates > 1.  The eigensolve
    # is a linalg.eigvalsh span inside bott.spectrum, so it is counted too.
    "bott-2d": Workload(
        (("bott", {"coordinates": 2, "n_basis": 12}),),
        dominant=("bott.assemble.self_s", "bott.spectrum.self_s", "graded.tensor.self_s",
                  "graded.construct.self_s", "linalg.eigvalsh.self_s"),
    ),
    # every experiment at toy size, for the benchmark's own self-tests
    "smoke": Workload(
        (
            ("commbound", {"trials": 2, "dims": [4], "n_grid": [1, 4], "t_grid": {"start": 1.0, "stop": 1e3, "points": 8}}),
            ("appendixB", {"trials": 4, "dims": [4], "t_grid": {"start": 1.0, "stop": 1e3, "points": 8}}),
            ("compose", {"trials": 1, "dims": [4], "t_grid": {"start": 1.0, "stop": 1e3, "points": 12}}),
            ("expfactor", {"trials": 2, "dims": [4], "t_grid": {"start": 10.0, "stop": 1e3, "points": 12}}),
            ("techlemma", {"trials": 1, "dims": [4], "t_grid": {"start": 10.0, "stop": 1e3, "points": 8}}),
            ("perturb", {"trials": 1, "dims": [4], "n_basis": 8, "t_grid": {"start": 1.0, "stop": 1e3, "points": 12}}),
            ("bott", {"n_basis": 8, "t_grid": {"start": 1.0, "stop": 1e3, "points": 12}}),
        ),
        seed_variation=True,
    ),
}

BENCHMARK_WORKLOADS = ("lab-small", "bott-1d", "bott-2d")

# name -> unit, in the order they are printed
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cert_pass_share": "ratio",
}

_LAYER_SPANS = (
    "sampling",
    "graded.commutator", "graded.operator_norm", "graded.tensor", "graded.construct",
    "funcalc.spectrum_of", "funcalc.apply",
    "pairs.decay_fit", "estimates.matrix_exp",
    "linalg.eigh", "linalg.eigvalsh", "linalg.norm2", "linalg.inv", "linalg.expm",
)
_SELF_ONLY = (
    "pairs.validate_pair", "pairs.compose_pairs", "pairs.factorization_profiles",
    "estimates.transform_commutator", "estimates.sum_sweep", "estimates.exp_checks",
    "bott.assemble", "bott.spectrum", "bott.dc_check", "bott.perturbation",
    "reporting.emit",
)
EXPERIMENTS = ("commbound", "expfactor", "techlemma", "compose", "bott", "perturb", "appendixB")

PER_LAYER = {
    **{f"experiments.{name}.wall_s": "s" for name in EXPERIMENTS},
    "experiments.self_s": "s",
    **{k: v for span in _LAYER_SPANS for k, v in ((f"{span}.calls", "count"), (f"{span}.self_s", "s"))},
    **{f"{span}.self_s": "s" for span in _SELF_ONLY},
    "graded.commutator.useful_term_ratio": "ratio",
    "funcalc.spectrum_of.repeat_ratio": "ratio",
    "reporting.bytes": "bytes",
    "linalg.gflop_computed": "GFLOP",
    "trace.bookkeeping_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def expected_counts(cfg) -> dict[str, int]:
    """Certificates per check that an ExperimentConfig must produce."""
    t = cfg.trials
    name = cfg.experiment
    if name == "commbound":
        n = len(cfg.n_grid)
        return {"transform_commutator": t * n, "transform_commutator_scaled": t * n}
    if name == "expfactor":
        return {"factorization_rate": t, "factorization_exponent": t, "factorization_exact": 2}
    if name == "techlemma":
        return {"sweep_monotone": t, "sweep_final": t, "relative_bound": 2 * t}
    if name == "compose":
        # two generators x two heat functions per trial, plus the identity check
        return {"compose_defect": 4 * t, "compose_identity": 1}
    if name == "perturb":
        # every trial and the Bott model: 2 generators x 2 functions, 2 defects
        return {"perturb_homom": 4 * (t + 1), "perturb_defect": 2 * (t + 1)}
    if name == "appendixB":
        return {"exp_shift": t, "exp_product": t, "exp_product_commuting": 1,
                "exp_product_path": 1, "series_ratio": 1, "exp_selftest": 20}
    if name == "bott":
        counts = {check: 1 for check in ("bott_kernel_dim", "bott_lambda_min", "bott_gap",
                                         "bott_ground_residual", "bott_dc_involution", "bott_convergence")}
        if cfg.coordinates == 1:
            counts.update(bott_pair=2, bott_compose_kernel=2)
        return counts
    raise ValueError(f"no certificate count model for experiment {name!r}")
