"""Correctness checks on what a pass emitted.

The gate reads each experiment's report.json and certificates.jsonl,
validates the report against gradedlab's REPORT_SCHEMA, requires
`pass: true`, and compares the certificates per check with the counts
the experiment's config implies.  A shortfall is a certificate that
failed, is missing, or belongs to an experiment that raised; the
kernel dimension of every bott summary must also be 1.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import jsonschema

DETERMINISTIC_FILES = ("report.json", "certificates.jsonl")


def gate_experiment(out_dir: Path, name: str, expected: dict[str, int], raised: str | None, schema) -> dict:
    total = sum(expected.values())
    verdict = {"experiment": name, "expected": total, "failed": 0, "missing": 0, "shortfall": 0, "problems": []}
    problems = verdict["problems"]

    def lost(reason: str) -> dict:
        verdict.update(missing=total, shortfall=total)
        problems.append(reason)
        return verdict

    if raised is not None:
        return lost(f"{name} raised: {raised}")
    try:
        report = json.loads((out_dir / "report.json").read_text())
        certs = [json.loads(line) for line in (out_dir / "certificates.jsonl").read_text().splitlines()]
    except (OSError, ValueError) as exc:
        return lost(f"{name}: cannot read output: {exc}")
    errors = [e.message for e in jsonschema.Draft7Validator(schema).iter_errors(report)]
    if errors:
        return lost(f"{name}: report.json fails REPORT_SCHEMA: {errors[0]}")
    if report["pass"] is not True:
        problems.append(f"{name}: report.json has pass: {report['pass']}")

    passed, failed = Counter(), Counter()
    for cert in certs:
        base = str(cert.get("check", "")).split("[")[0]
        (passed if cert.get("pass") is True else failed)[base] += 1
    reported = {c["name"]: (c["passed"], c["failed"]) for c in report["checks"]}
    for check, n in expected.items():
        got = (passed[check], failed[check])
        if reported.get(check, (0, 0)) != got:
            problems.append(f"{name}/{check}: report counts {reported.get(check)} != certificates {got}")
        verdict["failed"] += got[1]
        verdict["missing"] += max(0, n - sum(got))
        verdict["shortfall"] += max(0, n - got[0])
        if sum(got) > n:
            problems.append(f"{name}/{check}: {sum(got)} certificates, config implies {n}")
    unexpected = (set(passed) | set(failed) | set(reported)) - set(expected)
    if unexpected:
        problems.append(f"{name}: unexpected checks {sorted(unexpected)}")
    if name == "bott" and report["summary"].get("kernel_dim") != 1:
        verdict["shortfall"] += 1
        problems.append(f"bott summary kernel_dim is {report['summary'].get('kernel_dim')}, not 1")
    if verdict["shortfall"]:
        problems.append(f"{name}: {verdict['failed']} failed and {verdict['missing']} missing certificates")
    return verdict


def digests(pass_dir: Path, experiments) -> dict[str, str]:
    out = {}
    for name in experiments:
        for fname in DETERMINISTIC_FILES:
            path = pass_dir / name / fname
            out[f"{name}/{fname}"] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "absent"
    return out


def check_determinism(passes: list[dict]) -> list[str]:
    """Every pass at one seed emitted byte-identical deterministic files."""
    by_seed: dict[int, list[dict]] = {}
    for p in passes:
        by_seed.setdefault(p["seed"], []).append(p)
    if not any(len(group) > 1 for group in by_seed.values()):
        return ["determinism: no two passes ran at one seed"]
    problems = []
    for seed, group in by_seed.items():
        for other in group[1:]:
            differing = sorted(k for k, v in group[0]["digests"].items() if other["digests"].get(k) != v)
            if differing:
                problems.append(
                    f"determinism: pass {other['index']} differs from pass {group[0]['index']} "
                    f"at seed {seed} in {differing}"
                )
    return problems


def _values_and_counts(exp_dir: Path):
    report = json.loads((exp_dir / "report.json").read_text())
    counts = {c["name"]: c["passed"] + c["failed"] for c in report["checks"]}
    lines = (exp_dir / "certificates.jsonl").read_text().splitlines()
    certs = [json.loads(line) for line in lines]
    values = [(c["check"], c["lhs"], c["rhs"]) for c in certs]
    return values, counts, any(c["seed"] is not None for c in certs)


def check_seed_variation(dir_a: Path, dir_b: Path, experiments) -> list[str]:
    """A second seed changes the certificate values of every experiment
    with seeded certificates, and changes no experiment's counts."""
    problems = []
    for name in experiments:
        try:
            values_a, counts_a, seeded = _values_and_counts(dir_a / name)
            values_b, counts_b, _ = _values_and_counts(dir_b / name)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"seed variation: cannot compare {name}: {exc}")
            continue
        if counts_a != counts_b:
            problems.append(f"seed variation: {name} check counts changed with the seed")
        if seeded and values_a == values_b:
            problems.append(f"seed variation: {name} certificate values did not change with the seed")
    return problems
