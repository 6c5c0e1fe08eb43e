"""scripts/report_diff.py's comparison, on hand-written output trees."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)


def _cert(check, lhs, rhs, seed=None, passed=True):
    return json.dumps({"check": check, "lhs": f"{lhs:.12e}", "rhs": f"{rhs:.12e}",
                       "margin": f"{rhs - lhs:.12e}", "pass": passed, "seed": seed}, sort_keys=True)


def _write(root: Path, certs: list[str], passed=(2, 0), extra: dict | None = None):
    run = root / "demo-42"
    run.mkdir(parents=True)
    (run / "certificates.jsonl").write_text("".join(c + "\n" for c in certs))
    report = {"pass": passed[1] == 0, "checks": [{"name": "bound", "passed": passed[0], "failed": passed[1]}]}
    (run / "report.json").write_text(json.dumps(report))
    for name, text in (extra or {}).items():
        (run / name).write_text(text)


def test_roundoff_changes_are_counted_not_flagged(tmp_path):
    base = [_cert("bound[a]", 1.0, 2.0, [42, 0]), _cert("bound[b]", 0.5, 2.0, [42, 1])]
    head = [_cert("bound[a]", 1.0 + 2e-12, 2.0, [42, 0]), base[1]]
    _write(tmp_path / "base", base, extra={"profile.csv": "1\n2\n"})
    _write(tmp_path / "head", head, extra={"profile.csv": "1\n3\n"})
    lines, flags = report_diff.compare(tmp_path / "base", tmp_path / "head")
    assert flags == []
    assert lines[0] == "files: 2 of 3 differ"
    assert "  demo-42/profile.csv  1 lines" in lines
    assert "certificate lines: 1 of 2 differ" in lines
    (row,) = [line for line in lines if " bound " in line]
    assert row.split()[2:5] == ["2", "1", "2.0e-12"]


@pytest.mark.parametrize("change, expected", [
    ("pass", ["certificates.jsonl:2: pass True -> False"]),
    ("seed", ["certificates.jsonl:2: seed [42, 1] -> [42, 2]"]),
    ("check", ["certificates.jsonl:2: check 'bound[b]' -> 'bound[c]'"]),
    ("count", ["certificates.jsonl: 2 certificates -> 1"]),
    ("report", ["report.json: pass True -> False", "report.json: checks (passed, failed)"]),
])
def test_verdict_changes_are_flagged(tmp_path, change, expected):
    base = [_cert("bound[a]", 1.0, 2.0, [42, 0]), _cert("bound[b]", 0.5, 2.0, [42, 1])]
    head = list(base)
    passed = (2, 0)
    if change == "pass":
        head[1] = _cert("bound[b]", 0.5, 2.0, [42, 1], passed=False)
    elif change == "seed":
        head[1] = _cert("bound[b]", 0.5, 2.0, [42, 2])
    elif change == "check":
        head[1] = _cert("bound[c]", 0.5, 2.0, [42, 1])
    elif change == "count":
        head = head[:1]
    else:
        passed = (1, 1)
    _write(tmp_path / "base", base)
    _write(tmp_path / "head", head, passed)
    _, flags = report_diff.compare(tmp_path / "base", tmp_path / "head")
    assert len(flags) == len(expected)
    assert all(flag.startswith("demo-42/") and want in flag for flag, want in zip(flags, expected))


def test_a_file_written_by_one_tree_is_flagged(tmp_path):
    certs = [_cert("bound[a]", 1.0, 2.0)]
    _write(tmp_path / "base", certs)
    _write(tmp_path / "head", certs, extra={"profile.csv": "1\n"})
    _, flags = report_diff.compare(tmp_path / "base", tmp_path / "head")
    assert flags == ["demo-42/profile.csv: written by head only"]


def test_relative_change():
    assert report_diff.relative("1.000000000000e+00", "1.000000000000e+00") == 0.0
    assert report_diff.relative("2.000000000000e+00", "3.000000000000e+00") == 0.5
    assert report_diff.relative("0.000000000000e+00", "1.000000000000e-300") == float("inf")
    assert report_diff.relative("nan", "nan") == 0.0
    assert report_diff.relative("-inf", "-inf") == 0.0
