import json

import jsonschema
import pytest

from gradedlab.cli import main
from gradedlab.experiments import (
    MAX_DENSE_DIM,
    ConfigError,
    ExperimentConfig,
    UnknownExperimentError,
    load_config,
    run_experiment,
)
from gradedlab.reporting import REPORT_SCHEMA, emit_report


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


SMALL = {
    "commbound": {"trials": 4, "dims": [4], "n_grid": [1.0, 4.0],
                  "t_grid": {"start": 1.0, "stop": 100.0, "points": 8}},
    "expfactor": {"trials": 3, "dims": [4], "t_grid": {"start": 10.0, "stop": 1000.0, "points": 16}},
    "techlemma": {"trials": 2, "dims": [4], "t_grid": {"start": 10.0, "stop": 1000.0, "points": 10}},
    "compose": {"trials": 2, "dims": [4], "t_grid": {"start": 1.0, "stop": 1000.0, "points": 16}},
    "bott": {"n_basis": 12, "t_grid": {"start": 1.0, "stop": 1000.0, "points": 12}},
    "perturb": {"trials": 1, "dims": [4], "n_basis": 10,
                "t_grid": {"start": 1.0, "stop": 1000.0, "points": 16}},
    "appendixB": {"trials": 10, "dims": [4]},
}


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


def test_failing_certificates_exit_1(tmp_path):
    """Exit status 0 holds exactly when every certificate passes; an
    impossible tolerance forces a recorded failure and exit 1."""
    config = write_config(
        tmp_path,
        experiment="techlemma",
        tolerances={"final_sup": 1e-30},
        **SMALL["techlemma"],
    )
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    failed = [c for c in report["checks"] if c["failed"]]
    assert failed and failed[0]["name"] == "sweep_final"


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
        ("expfactor", {"tolerances": {"rate_rel": "x"}}),
        ("techlemma", {"tolerances": {"final_sup": float("nan")}}),
        ("bott", {"tolerances": {"kernel": -1}}),
        ("commbound", {"t_grid": {"stop": float("inf")}}),
        ("expfactor", {"t_grid": {"start": 1.0, "stop": 1.0 + 1e-15, "points": 8}}),
        ("techlemma", {"t_grid": {"start": float("nan")}}),
        ("compose", {"t_grid": {"points": float("inf")}}),
        ("commbound", {"n_grid": [float("nan")]}),
        ("commbound", {"n_grid": [1.0, float("inf")]}),
        ("bott", {"n_basiss": 8, "t_grid": {"pionts": 12}}),
        ("bott", {"n_basiss": 8}),
        ("bott", {"t_grid": {"start": 1.0, "stop": 1e3, "pionts": 12}}),
        ("bott", {"seed": 1.5}),
        ("commbound", {"trials": True}),
        ("commbound", {"dims": [4, 8.9]}),
        ("bott", {"n_basis": 8.9}),
        ("bott", {"coordinates": True}),
        ("compose", {"t_grid": {"points": 12.5}}),
        ("bott", {"tolerances": {"kernal": 1e-3}}),
        ("commbound", {"tolerances": {"kernel": 1e-3}}),
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
    ],
    ids=[
        "empty-dims", "empty-n-grid", "non-numeric-tolerance", "nan-tolerance", "non-positive-kernel",
        "infinite-t-stop", "collapsed-t-grid", "nan-t-start", "infinite-t-points", "nan-n-grid",
        "infinite-n-grid", "misspelt-keys", "unknown-key", "unknown-t-grid-key", "fractional-seed",
        "bool-trials", "fractional-dims", "fractional-n-basis", "bool-coordinates", "fractional-t-points",
        "misspelt-tolerance", "other-experiments-tolerance", "string-dims", "string-n-grid", "string-dims-entries",
        "string-t-start", "numeric-out", "empty-out", "unread-perturb-coordinates", "unread-techlemma-n-grid",
        "unread-bott-trials-dims-n-grid", "unread-bott-t-grid-at-two-coordinates",
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


def test_oversized_dense_config_exits_3_and_writes_nothing(tmp_path):
    """Two coordinates at n_basis = 64 would build 16,129-dimensional dense
    operators, and 65,025-dimensional ones in the convergence step."""
    # config-level checks first, so a broken guard fails here and not by allocating
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="bott", n_basis=64, coordinates=2)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="perturb", n_basis=2049)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="commbound", dims=(MAX_DENSE_DIM + 2,))
    ExperimentConfig(experiment="bott", n_basis=12, coordinates=2)  # bott-2d: 2,209 dimensions, accepted
    config = write_config(tmp_path, experiment="bott", coordinates=2, n_basis=64)
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == 3
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
    every fitted exponent certified."""
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
    assert spectrum[0] == "index,eigenvalue"


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
    empty = type(result)(
        experiment=result.experiment,
        config=result.config,
        checks=[],
        certificates=[],
        profiles=[],
        summary={},
        passed=True,
    )
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
              "n_grid": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], "n_basis": 64, "coordinates": 1, "tolerances": {}}
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
    assert main(["--config", config, "--experiment", "bott", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "bott"
