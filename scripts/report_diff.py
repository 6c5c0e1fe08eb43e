"""Compare the files two gradedlab source trees write, check by check.

    python scripts/report_diff.py --base TREE [--head TREE] [SEED ...]

Runs scripts/report_digests.py on TREE/src of each tree (head defaults to
this checkout) and keeps the files it writes: the seven experiments at
their default configs and the Bott configs CI's tier-1 job runs, once
per seed (default 42).
For example, compare a pull request with its parent commit by checking the
parent out in a worktree:

    git worktree add --detach ../base HEAD~1
    python scripts/report_diff.py --base ../base 42 7

It prints
  * every output file whose bytes differ, with its number of changed lines;
  * for each check of each run, its certificates, how many of their
    certificates.jsonl lines changed, and the largest relative change of
    lhs and of rhs;
  * every change in a pass flag, check name, seed or count: of a
    certificate, or of report.json's pass flag and per-check counts, or a
    file that only one tree writes.
It exits 0 when there is no change of the last kind and 1 when there is.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def emit(tree: Path, seeds: list[int], out: Path) -> None:
    cmd = [sys.executable, str(HERE / "report_digests.py"), "--src", str(tree / "src"), "--out", str(out)]
    subprocess.run(cmd + [str(seed) for seed in seeds], check=True, stdout=subprocess.DEVNULL)


def relative(old: str, new: str) -> float:
    """|new - old| / |old| of two printed numbers; inf when old is 0 or
    either is not finite and they differ."""
    a, b = float(old), float(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if a == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a)


def changed_lines(old: list[str], new: list[str]) -> int:
    return sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))


def compare_certificates(run: str, old: list[str], new: list[str], flags: list[str]) -> dict:
    """Per check: [certificates, changed lines, max rel lhs, max rel rhs]."""
    if len(old) != len(new):
        flags.append(f"{run}/certificates.jsonl: {len(old)} certificates -> {len(new)}")
    stats: dict[str, list] = {}
    for line, (a, b) in enumerate(zip(map(json.loads, old), map(json.loads, new)), 1):
        row = stats.setdefault(a["check"].split("[")[0], [0, 0, 0.0, 0.0])
        row[0] += 1
        if a == b:
            continue
        row[1] += 1
        for key in ("check", "seed", "pass"):
            if a[key] != b[key]:
                flags.append(f"{run}/certificates.jsonl:{line}: {key} {a[key]!r} -> {b[key]!r}")
        row[2] = max(row[2], relative(a["lhs"], b["lhs"]))
        row[3] = max(row[3], relative(a["rhs"], b["rhs"]))
    return stats


def compare_report(run: str, old: str, new: str, flags: list[str]) -> None:
    a, b = json.loads(old), json.loads(new)
    if a["pass"] != b["pass"]:
        flags.append(f"{run}/report.json: pass {a['pass']} -> {b['pass']}")
    counts = [{c["name"]: (c["passed"], c["failed"]) for c in r["checks"]} for r in (a, b)]
    if counts[0] != counts[1]:
        flags.append(f"{run}/report.json: checks (passed, failed) {counts[0]} -> {counts[1]}")


def compare(base: Path, head: Path) -> tuple[list[str], list[str]]:
    """The printed summary lines and the flagged changes."""
    flags: list[str] = []
    names = sorted({p.relative_to(root).as_posix() for root in (base, head) for p in root.glob("*/*")})
    files, checks, lines = [], [], [0, 0]
    for name in names:
        run, file = name.split("/")
        if not ((base / name).exists() and (head / name).exists()):
            flags.append(f"{name}: written by {'head' if (head / name).exists() else 'base'} only")
            continue
        texts = [(root / name).read_text() for root in (base, head)]
        old, new = (text.splitlines() for text in texts)
        if old != new:
            files.append(f"  {name}  {changed_lines(old, new)} lines")
        if file == "report.json":
            compare_report(run, *texts, flags)
        elif file == "certificates.jsonl":
            lines[0] += changed_lines(old, new)
            lines[1] += len(old)
            for check, (count, changed, lhs, rhs) in compare_certificates(run, old, new, flags).items():
                checks.append(f"  {run:<16} {check:<36} {count:>6} {changed:>7} {lhs:>11.1e} {rhs:>11.1e}")
    out = [f"files: {len(files)} of {len(names)} differ", *files,
           f"certificate lines: {lines[0]} of {lines[1]} differ",
           f"  {'run':<16} {'check':<36} {'certs':>6} {'changed':>7} {'max rel lhs':>11} {'max rel rhs':>11}",
           *checks,
           f"pass flag, check name, seed or count changes: {len(flags)}", *(f"  {f}" for f in flags)]
    return out, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[42], help="root seeds (default 42)")
    parser.add_argument("--base", type=Path, required=True, help="the source tree to compare against")
    parser.add_argument("--head", type=Path, default=CHECKOUT, help="the source tree compared (default: this checkout)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        roots = Path(tmp) / "base", Path(tmp) / "head"
        for tree, root in zip((args.base, args.head), roots):
            emit(tree.resolve(), args.seeds, root)
        out, flags = compare(*roots)
    print(f"base {args.base} against head {args.head}, seeds {' '.join(map(str, args.seeds))}")
    print("\n".join(out))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
