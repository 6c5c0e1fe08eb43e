"""One pass of a workload, in a fresh interpreter (started by run.py).

Usage: passrun.py --workload W --seed S --mode {setup,untraced,traced}
                  --rundir DIR [--out DIR] --t0 MONOTONIC

Set-up is timed from --t0, the parent's time.monotonic() just before it
started this process (the clock is system-wide), to gradedlab imported
and every experiment config loaded.  In `setup` mode the process stops
there.  Otherwise it runs each experiment and emits its report into
--out/<experiment>, as `lab` does, and times that pass.  The result is
one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import gradedlab
    from gradedlab.experiments import load_config, run_experiment
    from gradedlab.reporting import emit_report
    from workloads import WORKLOADS

    names = [name for name, _ in WORKLOADS[args.workload].experiments]
    configs = [load_config(Path(args.rundir) / "configs" / f"{name}.json", seed=args.seed) for name in names]
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "gradedlab_file": gradedlab.__file__}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import spans

    tracer = spans.Tracer() if args.mode == "traced" else None
    result["sites"] = spans.install(tracer) if tracer else 0
    result["wrappers"] = spans.installed_wrappers()

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    out = Path(args.out)
    raised, written_bytes = {}, 0
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    with span("pass"):
        for name, cfg in zip(names, configs):
            try:
                with span(f"experiments.{name}"):
                    res = run_experiment(cfg)
                with span("reporting.emit"):
                    written = emit_report(res, out / name)
            except Exception as exc:  # a failing experiment is a result, not a crash
                traceback.print_exc()
                raised[name] = f"{type(exc).__name__}: {exc}"
                continue
            written_bytes += sum(p.stat().st_size for p in written)
    wall = time.perf_counter() - wall0
    cpu = _cpu_seconds() - cpu0
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        raised=raised,
        bytes=written_bytes,
        env={k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        versions=_versions(),
    )
    if tracer:
        table, min_self = tracer.table()
        result.update(layers=table, min_self_s=min_self, counters=dict(tracer.counters))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
