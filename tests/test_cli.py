import json
import re
import time

import jsonschema
import numpy as np
import pytest

import gradedlab.estimates
import gradedlab.experiments
from gradedlab.cli import main
from gradedlab.experiments import (
    CHECKS,
    MAX_DENSE_DIM,
    MAX_TRIALS,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    UnknownExperimentError,
    load_config,
    run_experiment,
)
from gradedlab.pairs import DecayProfile, grid_profiles
from gradedlab.reporting import REPORT_SCHEMA, BoundCertificate, emit_report

from helpers import SMALL


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_every_experiment_runs_and_reports(tmp_path, experiment):
    config = write_config(tmp_path, experiment=experiment, **SMALL[experiment])
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["experiment"] == experiment
    assert report["pass"] is True
    assert (out / "certificates.jsonl").exists()
    for line in (out / "certificates.jsonl").read_text().splitlines():
        record = json.loads(line)
        assert set(record) == {"check", "seed", "lhs", "rhs", "margin", "pass"}


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_reports_are_byte_identical(tmp_path, experiment):
    config = write_config(tmp_path, experiment=experiment, **SMALL[experiment])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", config, "--out", str(out1)]) == 0
    assert main(["--config", config, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "certificates.jsonl").read_bytes() == (out2 / "certificates.jsonl").read_bytes()


def test_seed_changes_report(tmp_path):
    config = write_config(tmp_path, experiment="commbound", **SMALL["commbound"])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", config, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["--config", config, "--out", str(out2), "--seed", "2"]) == 0
    assert (out1 / "certificates.jsonl").read_bytes() != (out2 / "certificates.jsonl").read_bytes()


def test_failing_certificates_exit_1(tmp_path, monkeypatch, capsys):
    """Exit status 0 holds exactly when every certificate passes; transforms
    built at N/256 (the sweep_final control of test_controls) force a
    recorded failure and exit 1.  The line after each check's counts names
    its worst certificate: here a failed sweep_final trial, with a negative
    margin and the seed that reproduces it."""
    transform = gradedlab.estimates.bounded_transform_function
    monkeypatch.setattr(gradedlab.estimates, "bounded_transform_function", lambda n: transform(n / 256))
    config = write_config(tmp_path, experiment="techlemma", **SMALL["techlemma"])
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    failed = [c for c in report["checks"] if c["failed"]]
    assert failed and failed[0]["name"] == "sweep_final"
    lines = capsys.readouterr().out.splitlines()
    worst = lines[lines.index(next(line for line in lines if line.startswith("[FAIL] sweep_final"))) + 1]
    match = re.fullmatch(r"    worst sweep_final\[trial=\d+\]: margin (\S+), seed \[42, \d+\]", worst)
    assert match and float(match.group(1)) < 0


def test_crash_exits_5_and_writes_nothing(tmp_path, capsys, monkeypatch):
    """An exception inside a runner is a crash, not a failed certificate."""
    def runner(cfg):
        raise OverflowError("math range error")

    _, reads, defaults = gradedlab.experiments._EXPERIMENTS["expfactor"]
    monkeypatch.setitem(gradedlab.experiments._EXPERIMENTS, "expfactor", (runner, reads, defaults))
    out = tmp_path / "out"
    assert main(["expfactor", "--out", str(out)]) == 5
    assert capsys.readouterr().err.startswith("error: OverflowError: ")
    assert not out.exists()


def test_failure_below_a_fit_window_exits_5_and_writes_nothing(tmp_path, capsys, monkeypatch):
    """A profile evaluates the values below its window when its runner
    reads them into a written table; an exception there is a crash, raised
    before any file is written."""
    def runner(cfg):
        grid = cfg.t_grid()

        def norms(ts):
            if ts[0] < grid[grid.size // 2]:
                raise FloatingPointError("below the fit window")
            return (1.0 / ts)[:, None]

        (profile,) = grid_profiles(grid, 4, norms)
        table = {"t": profile.t_grid, "value": profile.values}
        return [BoundCertificate("compose_identity", 0.0, 0.0)], {"profile_deferred": table}, {}

    _, reads, defaults = gradedlab.experiments._EXPERIMENTS["compose"]
    monkeypatch.setitem(gradedlab.experiments._EXPERIMENTS, "compose", (runner, reads, defaults))
    out = tmp_path / "out"
    assert main(["compose", "--out", str(out)]) == 5
    assert capsys.readouterr().err.startswith("error: FloatingPointError: below the fit window")
    assert not out.exists()


def test_unregistered_check_exits_5_and_writes_nothing(tmp_path, monkeypatch):
    """A certificate whose check has no claim in CHECKS cannot be reported."""
    def runner(cfg):
        return [BoundCertificate("unregistered_check", 0.0, 1.0)], {}, {}

    _, reads, defaults = gradedlab.experiments._EXPERIMENTS["bott"]
    monkeypatch.setitem(gradedlab.experiments._EXPERIMENTS, "bott", (runner, reads, defaults))
    out = tmp_path / "out"
    assert main(["bott", "--out", str(out)]) == 5
    assert not out.exists()


def test_write_failure_after_the_first_file_exits_4_and_leaves_nothing(tmp_path, capsys):
    """A file that cannot be written once others are is an output error, and
    the files the run wrote before it are removed: here certificates.jsonl,
    the second file, is a directory."""
    config = write_config(tmp_path, experiment="techlemma", **SMALL["techlemma"])
    out = tmp_path / "out"
    (out / "certificates.jsonl").mkdir(parents=True)
    assert main(["--config", config, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(f"error: cannot write to {out}: ")
    assert [p.name for p in out.iterdir()] == ["certificates.jsonl"]
    assert not any((out / "certificates.jsonl").iterdir())


def test_worst_certificate_is_the_smallest_margin_and_a_failed_fit_first():
    certs = [BoundCertificate("bott_pair[a]", 0.0, 1.0), BoundCertificate("bott_pair[b]", 0.0, -5.0)]
    result = ExperimentResult("bott", {}, certs)
    assert result.checks[0].worst.check == "bott_pair[b]"
    unmeasured = BoundCertificate("bott_pair[c]", float("nan"), 1.0)
    (check,) = ExperimentResult("bott", {}, [*certs, unmeasured]).checks
    assert (check.worst.check, check.passed_count, check.failed_count) == ("bott_pair[c]", 1, 2)


def test_techlemma_fits_no_decay_profile(tmp_path, monkeypatch):
    """techlemma certifies its sweeps by their suprema and writes the first
    trial's seven sweep rows as tables, so a run builds no DecayProfile."""
    fits, build = [], DecayProfile.__init__
    monkeypatch.setattr(DecayProfile, "__init__", lambda self, *a: fits.append(a) or build(self, *a))
    result = run_experiment(load_config(write_config(tmp_path, experiment="techlemma", **SMALL["techlemma"])))
    assert fits == []
    assert len(result.tables) == 7 and all(name.startswith("profile_techlemma_N") for name in result.tables)
    grid = result.tables["profile_techlemma_N1"]["t"]
    DecayProfile.from_values(grid, 1.0 / grid)
    assert len(fits) == 1


def test_check_registry_matches_the_emitted_names(tmp_path):
    """Every check name the seven experiments emit has a claim in CHECKS, and
    every claim in CHECKS is emitted by some experiment."""
    emitted = set()
    for experiment, fields in SMALL.items():
        result = run_experiment(load_config(write_config(tmp_path, experiment=experiment, **fields)))
        names = {c.check.split("[")[0] for c in result.certificates}
        assert names <= set(CHECKS), experiment
        emitted |= names
    assert emitted == set(CHECKS)


def test_two_point_compose_grid_is_certified_at_its_window_point_exits_0(tmp_path):
    """A two-point grid leaves one point, t = 1e3, in each window: every
    compose_defect certificate is t^2 times the defect there against its
    heat bound, and passes, as a rate bound needs no second point."""
    config = write_config(tmp_path, experiment="compose", trials=1, dims=[4], t_grid={"points": 2})
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert (checks["compose_defect"]["passed"], checks["compose_defect"]["failed"]) == (4, 0)
    assert checks["compose_identity"]["failed"] == 0
    lines = [json.loads(line) for line in (out / "certificates.jsonl").read_text().splitlines()]
    defects = [line for line in lines if line["check"].startswith("compose_defect")]
    assert len(defects) == 4 and all(0.0 < float(line["lhs"]) <= float(line["rhs"]) for line in defects)


@pytest.mark.parametrize("stop", [1e9, 1e14])
def test_perturb_far_out_on_the_t_grid_exits_0(tmp_path, stop):
    """perturb's four trials to t = 1e9 and 1e14, where the profiles fall to
    roundoff (a least-squares slope there failed as NaN): every rate bound
    still holds, each certificate at its smallest-margin window point."""
    config = write_config(tmp_path, experiment="perturb", trials=4, t_grid={"stop": stop})
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert (checks["perturb_homom"]["failed"], checks["perturb_defect"]["failed"]) == (0, 0)
    assert (checks["perturb_homom"]["passed"], checks["perturb_defect"]["passed"]) == (20, 10)


@pytest.mark.parametrize("t_grid", [{"start": 0.1}, {"stop": 1e80}], ids=["path-m-100", "subnormal-commutator"])
def test_appendix_b_series_bound_outside_the_float_range_exits_0(tmp_path, t_grid):
    """The path bound's series at M = t^-2 = 100 has terms whose factorial and
    power overflow a float, and at t = 1e80 a subnormal ||[x, y]||; both are
    bounds to compute, not crashes, and every certificate passes."""
    config = write_config(tmp_path, experiment="appendixB", trials=1, t_grid=t_grid)
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 0


def test_unknown_experiment_exits_2_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    assert main(["does-not-exist", "--out", str(out)]) == 2
    assert not out.exists()


def test_invalid_grid_exits_3(tmp_path):
    config = write_config(
        tmp_path, experiment="commbound", t_grid={"start": 10.0, "stop": 1.0, "points": 8}
    )
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize(
    "experiment,fields",
    [
        ("commbound", {"dims": []}),
        ("commbound", {"n_grid": []}),
        ("commbound", {"t_grid": {"stop": float("inf")}}),
        ("expfactor", {"t_grid": {"start": 1.0, "stop": 1.0 + 1e-15, "points": 8}}),
        ("techlemma", {"t_grid": {"start": float("nan")}}),
        ("compose", {"t_grid": {"points": float("inf")}}),
        ("commbound", {"n_grid": [float("nan")]}),
        ("commbound", {"n_grid": [1.0, float("inf")]}),
        ("commbound", {"n_grid": [1e300]}),
        ("bott", {"n_basiss": 8, "t_grid": {"pionts": 12}}),
        ("bott", {"n_basiss": 8}),
        ("bott", {"t_grid": {"start": 1.0, "stop": 1e3, "pionts": 12}}),
        ("bott", {"seed": 1.5}),
        ("commbound", {"trials": True}),
        ("commbound", {"dims": [4, 8.9]}),
        ("bott", {"n_basis": 8.9}),
        ("bott", {"coordinates": True}),
        ("compose", {"t_grid": {"points": 12.5}}),
        ("commbound", {"dims": "48"}),
        ("commbound", {"n_grid": "12"}),
        ("commbound", {"dims": ["4", "8"]}),
        ("expfactor", {"t_grid": {"start": "10"}}),
        ("appendixB", {"trials": 2, "dims": [4], "out": 5}),
        ("appendixB", {"trials": 2, "dims": [4], "out": ""}),
        ("perturb", {"coordinates": 3}),
        ("techlemma", {"n_grid": [1.0, 2.0]}),
        ("bott", {"trials": 2, "dims": [4], "n_grid": [1.0]}),
        ("bott", {"coordinates": 2, "n_basis": 8, "t_grid": {"points": 7}}),
        ("expfactor", {"trials": 1, "dims": [4], "t_grid": {"stop": 1e300}}),
    ],
    ids=[
        "empty-dims", "empty-n-grid", "infinite-t-stop", "collapsed-t-grid", "nan-t-start",
        "infinite-t-points", "nan-n-grid", "infinite-n-grid", "n-grid-square-overflows", "misspelt-keys",
        "unknown-key", "unknown-t-grid-key", "fractional-seed", "bool-trials", "fractional-dims",
        "fractional-n-basis", "bool-coordinates", "fractional-t-points", "string-dims", "string-n-grid",
        "string-dims-entries", "string-t-start", "numeric-out", "empty-out", "unread-perturb-coordinates",
        "unread-techlemma-n-grid", "unread-bott-trials-dims-n-grid", "unread-bott-t-grid-at-two-coordinates",
        "expfactor-t-stop-square-overflows",
    ],
)
def test_malformed_config_exits_3_and_writes_nothing(tmp_path, monkeypatch, experiment, fields):
    """A config whose own out is under test gets no --out flag, which would override it;
    run from tmp_path, the default lab_results/<experiment> would show there."""
    config = write_config(tmp_path, experiment=experiment, **fields)
    monkeypatch.chdir(tmp_path)
    flags = [] if "out" in fields else ["--out", str(tmp_path / "out")]
    assert main(["--config", config, *flags]) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_tolerances_key_is_unknown(tmp_path):
    """Thresholds are constants at their certificates: a config cannot set
    one, and its tolerances key is refused as unknown."""
    with pytest.raises(ConfigError, match="unknown config keys for bott: tolerances"):
        load_config(write_config(tmp_path, experiment="bott", tolerances={"kernel": 1e-3}))


def test_oversized_dense_config_exits_3_and_writes_nothing(tmp_path):
    """bott builds dense operators on one coordinate only, the convergence
    ladder's top basis 4 n_basis - 1: n_basis = 1024 gives 4,095 dimensions
    and 1025 gives 4,099, above MAX_DENSE_DIM, at any coordinate count.  An
    oversized dims entry is named as the operator it is, not as the weight
    count of its default grid."""
    # config-level checks first, so a broken guard fails here and not by allocating
    ExperimentConfig(experiment="bott", n_basis=1024)
    for coordinates in (1, 2):
        with pytest.raises(ConfigError, match="4099-dimensional, above 4096"):
            ExperimentConfig(experiment="bott", n_basis=1025, coordinates=coordinates)
    ExperimentConfig(experiment="perturb", n_basis=2048)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="perturb", n_basis=2049)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="commbound", dims=(MAX_DENSE_DIM + 2,))
    with pytest.raises(ConfigError, match="^largest operator would be 40000-dimensional, above 4096$"):
        load_config(write_config(tmp_path, experiment="compose", dims=[40000]))
    ExperimentConfig(experiment="bott", n_basis=12, coordinates=2)  # bott-2d: 23-dimensional pieces, accepted
    ExperimentConfig(experiment="bott", n_basis=64, coordinates=2)  # 255**2 = 65,025 dimensions, never built
    config = write_config(tmp_path, experiment="bott", coordinates=2, n_basis=1025)
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["commbound", "expfactor", "techlemma", "compose", "perturb", "appendixB"])
def test_trials_above_the_bound_exit_3_and_write_nothing(tmp_path, experiment):
    """Every experiment that reads trials accepts MAX_TRIALS of them and
    refuses one more, and 10**12, before allocating anything: load_config
    raises ConfigError and lab exits 3 with nothing written.  No suite runs
    at the bound."""
    assert load_config(write_config(tmp_path, experiment=experiment, trials=MAX_TRIALS)).trials == MAX_TRIALS
    for trials in (MAX_TRIALS + 1, 10**12):
        config = write_config(tmp_path, experiment=experiment, trials=trials)
        with pytest.raises(ConfigError, match=f"trials must be between 1 and {MAX_TRIALS}"):
            load_config(config)
        out = tmp_path / "out"
        assert main(["--config", config, "--out", str(out)]) == 3
        assert not out.exists()
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment, trials=10**12)


def test_trials_times_transform_scales_above_the_bound_exit_3_and_write_nothing(tmp_path):
    """commbound keeps two certificates per transform scale a trial, so
    trials x len(n_grid) is bounded by MAX_TRIALS at the 6 default scales:
    100,000 trials at 6 scales and 600 at 1,000 are accepted; 100,000 at
    1,000, 601 at 1,000 and 100,000 at 7 are refused before anything is
    allocated, and lab exits 3 with nothing written.  No suite runs at the
    bound."""
    assert 6 * MAX_TRIALS == 600_000
    for trials, scales in ((MAX_TRIALS, 6), (600, 1_000)):
        assert load_config(write_config(tmp_path, experiment="commbound", trials=trials, n_grid=[1.0] * scales))
    for trials, scales in ((MAX_TRIALS, 1_000), (601, 1_000), (MAX_TRIALS, 7)):
        config = write_config(tmp_path, experiment="commbound", trials=trials, n_grid=[1.0] * scales)
        with pytest.raises(ConfigError, match="trials x len\\(n_grid\\) may not exceed 600000"):
            load_config(config)
        out = tmp_path / "out"
        assert main(["--config", config, "--out", str(out)]) == 3
        assert not out.exists()


def test_multiplicity_overflow_is_refused_on_both_sides():
    """The n-coordinate spectrum's multiplicities are int64 and sum to
    (4 n_basis - 1)**coordinates at the top rung: 31**12 < 2**63 - 1 <
    31**13, and 4095**5 < 2**63 - 1 < 4095**6."""
    for n_basis, accepted in ((8, 12), (1024, 5)):
        base = 4 * n_basis - 1
        assert base**accepted <= np.iinfo(np.int64).max < base ** (accepted + 1)
        ExperimentConfig(experiment="bott", n_basis=n_basis, coordinates=accepted)
        with pytest.raises(ConfigError, match=f"{base}\\*\\*{accepted + 1}-dimensional, above the int64"):
            ExperimentConfig(experiment="bott", n_basis=n_basis, coordinates=accepted + 1)


def test_huge_coordinate_count_exits_3_at_once(tmp_path, capsys):
    """255**10,000,000 has 24 million digits; the budget compares logarithms,
    so the refusal names base and exponent, takes well under a second, and
    writes nothing."""
    config = write_config(tmp_path, experiment="bott", coordinates=10_000_000)
    out = tmp_path / "out"
    start = time.monotonic()
    assert main(["--config", config, "--out", str(out)]) == 3
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().err == ("error: the model would be 255**10000000-dimensional, "
                                       "above the int64 multiplicities' 9223372036854775807\n")
    assert not out.exists()


def test_oversized_t_grid_exits_3_and_writes_nothing(tmp_path):
    """The weight stacks hold (t_points + 1) max(len(n_grid), 7) rows of
    max(dims) weights; a grid past MAX_DENSE_DIM^2 entries is refused."""
    rows_allowed = MAX_DENSE_DIM**2 // (7 * 16)
    ExperimentConfig(experiment="commbound", dims=(16,), t_points=rows_allowed - 1)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="commbound", dims=(16,), t_points=rows_allowed)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="techlemma", n_grid=(1.0,) * 64, dims=(16,), t_points=rows_allowed // 8)
    config = write_config(tmp_path, experiment="commbound", t_grid={"start": 1.0, "stop": 1e3, "points": 10**9})
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 3
    assert not out.exists()


def test_unwritable_output_exits_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    config = write_config(tmp_path, experiment="commbound", **SMALL["commbound"])
    assert main(["--config", config, "--out", str(blocker)]) == 4


def test_compose_at_default_scale(tmp_path):
    """The default compose suite (seed 42, 50 trials, dim 8) exits 0 with
    every defect within its heat bound."""
    out = tmp_path / "out"
    assert main(["compose", "--seed", "42", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["compose_defect"]["failed"] == 0
    assert checks["compose_defect"]["passed"] == 200  # 50 trials x 2 generators x 2 functions
    assert checks["compose_identity"]["failed"] == 0


def test_bott_report_contains_kernel_dim(tmp_path):
    config = write_config(tmp_path, experiment="bott", **SMALL["bott"])
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["kernel_dim"] == 1
    spectrum = (out / f"spectrum_n{SMALL['bott']['n_basis']}.csv").read_text().splitlines()
    assert spectrum[0] == "eigenvalue,multiplicity"


def test_profile_csv_headers(tmp_path):
    config = write_config(tmp_path, experiment="expfactor", **SMALL["expfactor"])
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 0
    profiles = sorted(out.glob("profile_*.csv"))
    assert profiles
    for path in profiles:
        assert path.read_text().splitlines()[0] == "t,value"


def test_emit_report_refuses_empty_results(tmp_path):
    config = load_config(None, experiment="bott")
    result = run_experiment(
        ExperimentConfig(experiment="bott", n_basis=10, t_points=12)
    )
    empty = type(result)(experiment=result.experiment, config=result.config, certificates=[])
    with pytest.raises(ValueError):
        emit_report(empty, tmp_path / "out")
    assert not (tmp_path / "out" / "report.json").exists()


def test_load_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, experiment=None)
    with pytest.raises(UnknownExperimentError):
        load_config(None, experiment="nope")
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(ConfigError):
        load_config(bad, experiment="bott")
    with pytest.raises(ConfigError):
        load_config(None, experiment="bott", seed=-1)
    malformed_grid = tmp_path / "grid.json"
    malformed_grid.write_text(json.dumps({"experiment": "bott", "t_grid": 5}))
    with pytest.raises(ConfigError):
        load_config(malformed_grid)


def test_bott_refuses_t_grid_beyond_one_coordinate(tmp_path):
    """run_bott reads t_grid only for the one-coordinate pair checks, so a file
    that sets it at two coordinates is refused by name; at one coordinate, and
    at two without it, the same file loads."""
    with pytest.raises(ConfigError, match="t_grid"):
        load_config(write_config(tmp_path, experiment="bott", coordinates=2, n_basis=8, t_grid={"points": 7}))
    assert load_config(write_config(tmp_path, experiment="bott", coordinates=1, t_grid={"points": 7})).t_points == 7
    assert load_config(write_config(tmp_path, experiment="bott", coordinates=2, n_basis=8)).coordinates == 2


@pytest.mark.parametrize(
    "experiment, t_grid, expected",
    [
        ("expfactor", {"points": 12}, (10.0, 1e3, 12)),
        ("techlemma", {"points": 12}, (10.0, 1e3, 12)),
        ("appendixB", {"start": 2.0}, (2.0, 1e3, 40)),
    ],
)
def test_partial_t_grid_keeps_the_experiment_grid_defaults(tmp_path, experiment, t_grid, expected):
    """A file's t_grid overrides the experiment's own grid key by key."""
    loaded = load_config(write_config(tmp_path, experiment=experiment, t_grid=t_grid))
    assert (loaded.t_start, loaded.t_stop, loaded.t_points) == expected


def test_default_configs_resolve_per_experiment():
    """Each experiment's departures from the ExperimentConfig field defaults."""
    common = {"seed": 42, "trials": 1, "dims": [8], "t_grid": {"start": 1.0, "stop": 1e3, "points": 60},
              "n_grid": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], "n_basis": 64, "coordinates": 1}
    departures = {
        "commbound": {"trials": 200, "dims": [4, 8, 16]},
        "expfactor": {"trials": 50, "t_grid": {"start": 10.0, "stop": 1e3, "points": 40}},
        "techlemma": {"trials": 20, "t_grid": {"start": 10.0, "stop": 1e3, "points": 30}},
        "compose": {"trials": 50},
        "bott": {},
        "perturb": {"trials": 10, "n_basis": 16},
        "appendixB": {"trials": 500, "dims": [4, 8, 16], "t_grid": {"start": 1.0, "stop": 1e3, "points": 40}},
    }
    for name, changed in departures.items():
        assert load_config(None, experiment=name).as_dict() == {"experiment": name, **common, **changed}


def test_integral_numbers_are_accepted_for_integer_fields(tmp_path):
    config = write_config(tmp_path, experiment="bott", seed=7.0, n_basis=12.0, t_grid={"points": 12.0})
    loaded = load_config(config)
    assert (loaded.seed, loaded.n_basis, loaded.t_points) == (7, 12, 12)
    assert all(type(v) is int for v in (loaded.seed, loaded.n_basis, loaded.t_points))


def test_flag_overrides_config_experiment(tmp_path):
    config = write_config(tmp_path, experiment="commbound", n_basis=12)
    out = tmp_path / "out"
    assert main(["bott", "--config", config, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "bott"
