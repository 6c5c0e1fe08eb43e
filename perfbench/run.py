"""gradedlab benchmark: run a workload's `lab` passes and report metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lab-small --seed 1 --seconds 30 --trace 0

Load model: closed loop.  One client runs the passes of a workload back
to back, each in a fresh child process with one BLAS thread, until
--seconds have passed (and at least the passes its checks need).  With
--trace 0 the passes are untraced and the last stdout line holds the
end-to-end metrics; with --trace 1 passes alternate between untraced
and traced, and it holds the per-layer metrics.  Every pass goes
through the correctness gate; the run exits 1 when any check fails and
2 or 3 when it cannot run at all.  `--workload all` runs the three
benchmark workloads in turn.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_determinism, check_seed_variation, digests, gate_experiment
from workloads import BENCHMARK_WORKLOADS, END_TO_END, EXPERIMENTS, PER_LAYER, WORKLOADS, expected_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
# The whole run must end within 180 s; stop starting passes before this.
DEADLINE_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to measuring a failure)."""


def spawn(args: list[str], deadline: float) -> dict:
    """Run passrun.py in a fresh interpreter; returns its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a pass")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "passrun.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE,
                              text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"pass did not finish before the run deadline: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_ratio excluded)."""
    table, counters = p["layers"], p["counters"]

    def field(span: str, key: str):
        return table.get(span, {}).get(key, 0)

    m: dict[str, float] = {}
    for exp in EXPERIMENTS:
        m[f"experiments.{exp}.wall_s"] = float(field(f"experiments.{exp}", "total_s"))
    m["experiments.self_s"] = sum(float(field(f"experiments.{exp}", "self_s")) for exp in EXPERIMENTS)
    for key in PER_LAYER:
        if key.endswith(".calls"):
            m[key] = field(key[: -len(".calls")], "calls")
        elif key.endswith(".self_s") and key not in m:
            m[key] = float(field(key[: -len(".self_s")], "self_s"))
    commutators = field("graded.commutator", "calls")
    spectra = field("funcalc.spectrum_of", "calls")
    m["graded.commutator.useful_term_ratio"] = (
        counters.get("graded.commutator.useful_terms", 0) / (4 * commutators) if commutators else 0.0
    )
    m["funcalc.spectrum_of.repeat_ratio"] = (
        counters.get("funcalc.spectrum_of.repeats", 0) / spectra if spectra else 0.0
    )
    m["reporting.bytes"] = p["bytes"]
    m["linalg.gflop_computed"] = counters.get("linalg.flops", 0.0) / 1e9
    m["trace.bookkeeping_s"] = float(field("trace.bookkeeping", "self_s"))
    layer_self = sum(row["self_s"] for name, row in table.items() if name != "pass")
    m["trace.unattributed_s"] = p["wall_s"] - layer_self
    return m


def _self_time_problems(p: dict) -> list[str]:
    table = p["layers"]
    problems = []
    if p["min_self_s"] < -1e-9:
        problems.append(f"trace: pass {p['index']} has a span with negative self time (spans overlap)")
    total_self = sum(row["self_s"] for row in table.values())
    if abs(total_self - table["pass"]["total_s"]) > 1e-6:
        problems.append(f"trace: pass {p['index']} self times sum to {total_self}, not its span")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name]
    experiments = [exp for exp, _ in workload.experiments]
    rundir = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "configs").mkdir(parents=True)
    for exp, overrides in workload.experiments:
        (rundir / "configs" / f"{exp}.json").write_text(json.dumps({"experiment": exp, **overrides}))

    from gradedlab.experiments import load_config
    from gradedlab.reporting import REPORT_SCHEMA

    expected = {exp: expected_counts(load_config(rundir / "configs" / f"{exp}.json", seed=seed))
                for exp in experiments}
    common = ["--workload", name, "--rundir", str(rundir)]
    setup = [spawn([*common, "--seed", str(seed), "--mode", "setup"], deadline)["setup_s"]
             for _ in range(SETUP_PROBES)]

    passes: list[dict] = []
    min_passes = 2 if trace else workload.min_passes
    start = time.monotonic()
    while len(passes) < min_passes or time.monotonic() - start < seconds:
        i = len(passes)
        longest = max((p["wall_s"] for p in passes), default=0.0)
        if i >= min_passes and time.monotonic() + 1.5 * longest + 5.0 > deadline:
            break
        # trace mode alternates untraced and traced passes, so each traced
        # pass has an untraced neighbour that ran at nearly the same box speed
        mode = "traced" if trace and i % 2 else "untraced"
        pass_seed = seed if trace else workload.seed_for(seed, i)
        pass_dir = rundir / f"pass-{i:02d}"
        p = spawn([*common, "--seed", str(pass_seed), "--mode", mode, "--out", str(pass_dir)], deadline)
        p.update(index=i, seed=pass_seed, mode=mode, dir=str(pass_dir), digests=digests(pass_dir, experiments))
        p["gate"] = [gate_experiment(pass_dir / exp, exp, expected[exp], p["raised"].get(exp), REPORT_SCHEMA)
                     for exp in experiments]
        passes.append(p)

    untraced = [p for p in passes if p["mode"] == "untraced"]
    traced = [p for p in passes if p["mode"] == "traced"]
    problems = [msg for p in passes for v in p["gate"] for msg in v["problems"]]
    problems += check_determinism(passes)
    if workload.seed_variation and not trace:
        first = {p["seed"]: p for p in reversed(passes)}
        problems += check_seed_variation(Path(first[seed]["dir"]), Path(first[seed + 1]["dir"]), experiments)
    src = str(ROOT / "src")
    for p in passes:
        if not p["gradedlab_file"].startswith(src):
            problems.append(f"pass {p['index']} imported gradedlab from {p['gradedlab_file']}, not {src}")
        if p["mode"] == "untraced" and p["wrappers"]:
            problems.append(f"untraced pass {p['index']} found {p['wrappers']} wrappers installed")
        if p["mode"] == "traced":
            if not 0 < p["wrappers"] == p["sites"]:
                problems.append(f"traced pass {p['index']}: {p['wrappers']} wrappers for {p['sites']} sites")
            problems += _self_time_problems(p)

    expected_total = sum(v["expected"] for p in passes for v in p["gate"])
    shortfall = sum(v["shortfall"] for p in passes for v in p["gate"])
    failed = sum(v["failed"] for p in passes for v in p["gate"])
    missing = sum(v["missing"] for p in passes for v in p["gate"])
    setup_samples = setup + [p["setup_s"] for p in passes]
    walls = [p["wall_s"] for p in untraced]
    summary = {
        "workload": name,
        "seed": seed,
        "correct": not problems and shortfall == 0,
        "attempted": expected_total,
        "failed": shortfall,
        "problems": problems,
        "samples": {"passes": len(untraced), "traced_passes": len(traced), "setup": len(setup_samples),
                    "pass_seeds": [p["seed"] for p in passes]},
        "certificates": {"expected": expected_total, "failed": failed, "missing": missing,
                         "cert_fail_share": shortfall / expected_total},
    }
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {
            # a count is reported as one observed value, a time as the median
            key: (statistics.median_low if PER_LAYER[key] in ("count", "bytes") else statistics.median)(
                [m[key] for m in per_pass])
            for key in per_pass[0]
        }
        wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_ratio"] = statistics.median(
            p["wall_s"] / passes[p["index"] - 1]["wall_s"] for p in traced)
        summary["dominant_share"] = sum(metrics[k] for k in workload.dominant) / wall if workload.dominant else None
        summary["traced_wall_s"] = wall
        summary["untraced_wall_s"] = statistics.median(walls)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024.0 for p in untraced),
            "setup_s": statistics.median(setup_samples),
            "cert_pass_share": 1.0 - shortfall / expected_total,
        }
        units = END_TO_END
    summary["metrics"] = {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}
    summary["spread"] = {
        "wall_s": [min(walls), max(walls)],
        "setup_s": [min(setup_samples), max(setup_samples)],
        "cpu_over_wall": statistics.median(p["cpu_s"] / p["wall_s"] for p in untraced),
    }

    first = passes[0]
    manifest = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(ROOT),
        "versions": first["versions"],
        "child_env": first["env"],
        "cpu_over_wall": summary["spread"]["cpu_over_wall"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "samples": summary["samples"],
        "certificates": summary["certificates"],
        "checks": {"correct": summary["correct"], "problems": problems},
        "dominant_share": summary.get("dominant_share"),
        "passes": [
            {k: p.get(k) for k in ("index", "seed", "mode", "setup_s", "wall_s", "cpu_s", "peak_rss_kb", "bytes",
                                   "raised", "wrappers", "sites", "digests")}
            for p in passes
        ],
        "setup_samples": setup_samples,
    }
    (rundir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (rundir / "result.json").write_text(json.dumps(summary, indent=2) + "\n")
    summary["manifest"] = str(rundir / "manifest.json")
    return summary


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(s: dict) -> None:
    samples, certs = s["samples"], s["certificates"]
    seeds = ", ".join(str(x) for x in samples["pass_seeds"])
    print(f"[{s['workload']}] seed {s['seed']}: {samples['passes']} untraced and {samples['traced_passes']} "
          f"traced passes (seeds {seeds}); {samples['setup']} set-up samples; cpu/wall "
          f"{s['spread']['cpu_over_wall']:.3f}")
    n = samples["passes"]
    lo, hi = s["spread"]["wall_s"]
    notes = {
        "wall_s": f"median of {n} passes (range {lo:.4g} .. {hi:.4g})",
        "cpu_s": f"median of {n} passes",
        "peak_rss_mb": f"median of {n} passes",
        "setup_s": f"median of {samples['setup']} samples (range "
                   + " .. ".join(f"{x:.4g}" for x in s["spread"]["setup_s"]) + ")",
        "cert_pass_share": f"{certs['expected']} certificates expected, {certs['failed']} failed, "
                           f"{certs['missing']} missing; cert_fail_share {certs['cert_fail_share']:.6g}",
    }
    if samples["traced_passes"]:
        notes = {key: f"median of {samples['traced_passes']} traced passes" for key in s["metrics"]}
        notes["trace.overhead_ratio"] = (f"median over {samples['traced_passes']} traced passes of traced wall / "
                                         f"wall of the untraced pass before it (medians {s['traced_wall_s']:.4g} s, "
                                         f"{s['untraced_wall_s']:.4g} s)")
    for key, m in s["metrics"].items():
        print(f"  {key:<40} {_fmt(m['value']):>14} {m['unit']:<6} {notes.get(key, '')}")
    if s.get("dominant_share") is not None:
        print(f"  dominant cost share of the traced pass: {s['dominant_share']:.3f}")
    status = "ok" if s["correct"] else "FAILED"
    print(f"  checks: {status} (correctness gate, determinism, seed variation, wrappers); manifest {s['manifest']}")
    for problem in s["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "gradedlab" / "__init__.py").is_file():
        print(f"error: gradedlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for s in summaries:
        print_summary(s)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}/{k}": v for s in summaries for k, v in s["metrics"].items()}
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
