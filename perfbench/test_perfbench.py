"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, expected_counts  # noqa: E402


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric_with_its_unit(trace):
    code, result = _run("--workload", "smoke", "--seed", "5", "--seconds", "0", "--trace", trace)
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = _benchmark_spec()["end_to_end" if trace == "0" else "per_layer"]
    names = END_TO_END if trace == "0" else PER_LAYER
    assert {m["name"]: m["unit"] for m in spec} == names
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_benchmark_workloads_are_defined():
    assert [w["name"] for w in _benchmark_spec()["workloads"]] == ["lab-small", "bott-1d", "bott-2d"]
    assert all(w["name"] in WORKLOADS for w in _benchmark_spec()["workloads"])


@pytest.fixture(scope="module")
def commbound_output(tmp_path_factory):
    from gradedlab.experiments import load_config, run_experiment
    from gradedlab.reporting import emit_report

    out = tmp_path_factory.mktemp("gate") / "commbound"
    config = tmp_path_factory.getbasetemp() / "commbound.json"
    config.write_text(json.dumps({"experiment": "commbound", "trials": 2, "dims": [4], "n_grid": [1, 4],
                                  "t_grid": {"start": 1.0, "stop": 1e3, "points": 8}}))
    cfg = load_config(config, seed=3)
    emit_report(run_experiment(cfg), out)
    return out, expected_counts(cfg)


def _gate(out_dir, expected, raised=None):
    from gradedlab.reporting import REPORT_SCHEMA

    return gate.gate_experiment(out_dir, "commbound", expected, raised, REPORT_SCHEMA)


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for name in gate.DETERMINISTIC_FILES:
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_gate_accepts_real_output(commbound_output):
    out, expected = commbound_output
    verdict = _gate(out, expected)
    assert verdict["shortfall"] == 0 and verdict["problems"] == []
    assert verdict["expected"] == 8


def test_gate_counts_a_failed_certificate(commbound_output, tmp_path):
    out, expected = _copy(commbound_output[0], tmp_path / "failed"), commbound_output[1]
    lines = (out / "certificates.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first["pass"] = False
    lines[0] = json.dumps(first, sort_keys=True)
    (out / "certificates.jsonl").write_text("\n".join(lines) + "\n")
    report = json.loads((out / "report.json").read_text())
    check = next(c for c in report["checks"] if first["check"].startswith(c["name"] + "["))
    check["passed"] -= 1
    check["failed"] += 1
    report["pass"] = False
    (out / "report.json").write_text(json.dumps(report))
    verdict = _gate(out, expected)
    assert (verdict["failed"], verdict["missing"], verdict["shortfall"]) == (1, 0, 1)
    assert verdict["problems"]


def test_gate_counts_missing_certificates(commbound_output, tmp_path):
    out, expected = _copy(commbound_output[0], tmp_path / "missing"), commbound_output[1]
    lines = (out / "certificates.jsonl").read_text().splitlines()
    (out / "certificates.jsonl").write_text("\n".join(lines[:-3]) + "\n")
    verdict = _gate(out, expected)
    assert (verdict["missing"], verdict["shortfall"]) == (3, 3)
    assert verdict["problems"]


def test_gate_counts_an_experiment_that_raised(commbound_output):
    out, expected = commbound_output
    verdict = _gate(out, expected, raised="RuntimeError: boom")
    assert verdict["shortfall"] == verdict["expected"] == 8


def test_gate_rejects_a_report_outside_the_schema(commbound_output, tmp_path):
    out, expected = _copy(commbound_output[0], tmp_path / "schema"), commbound_output[1]
    report = json.loads((out / "report.json").read_text())
    del report["summary"]
    (out / "report.json").write_text(json.dumps(report))
    assert _gate(out, expected)["shortfall"] == 8


def _pass(mode: str, tmp_path: Path) -> dict:
    rundir = tmp_path / mode
    (rundir / "configs").mkdir(parents=True)
    for exp, overrides in WORKLOADS["smoke"].experiments:
        (rundir / "configs" / f"{exp}.json").write_text(json.dumps({"experiment": exp, **overrides}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), "--workload", "smoke", "--seed", "1", "--mode", mode,
         "--rundir", str(rundir), "--out", str(rundir / "out"), "--t0", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_pass_installs_no_wrappers(tmp_path):
    untraced, traced = _pass("untraced", tmp_path), _pass("traced", tmp_path)
    assert untraced["wrappers"] == 0 and "layers" not in untraced
    # the count is not vacuous: the traced pass finds every site it rebound
    assert traced["wrappers"] == traced["sites"] > 0


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):            # 0 .. 10
        with tracer.span("inner"):        # 1 .. 5
            with tracer.span("leaf"):     # 2 .. 4
                pass
        with tracer.span("inner"):        # 6 .. 9
            pass
    table, min_self = tracer.table()
    assert table["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["inner"] == {"calls": 2, "total_s": 7.0, "self_s": 5.0}
    assert table["leaf"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert min_self >= 0.0
