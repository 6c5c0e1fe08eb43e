"""Command line runner: `lab <experiment> [--config ...] [--seed ...] [--out ...]`.

Exit codes:
    0  every certificate in the run passed
    1  the suite ran but at least one certificate failed
    2  unknown experiment name (nothing is written)
    3  invalid configuration or grid
    4  output directory cannot be written
    5  the run crashed: an exception while running the suite or assembling its report
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ConfigError,
    EXPERIMENT_NAMES,
    UnknownExperimentError,
    load_config,
    run_experiment,
)
from .reporting import OutputError, emit_report, fmt_float

EXIT_OK = 0
EXIT_FAILED_CHECKS = 1
EXIT_UNKNOWN_EXPERIMENT = 2
EXIT_BAD_CONFIG = 3
EXIT_BAD_OUTPUT = 4
EXIT_CRASHED = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Run a verification suite and write report.json, certificates.jsonl and profile CSVs.",
    )
    parser.add_argument("experiment", nargs="?", help=f"one of {', '.join(EXPERIMENT_NAMES)}")
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int, help="root seed (default 42)")
    parser.add_argument("--out", help="output directory (default lab_results/<experiment>)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, experiment=args.experiment, seed=args.seed, out=args.out)
    except UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_EXPERIMENT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    out_dir = config.out or f"lab_results/{config.experiment}"
    try:
        result = run_experiment(config)
        written = emit_report(result, out_dir)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_OUTPUT
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CRASHED

    for check in result.checks:
        status = "PASS" if check.failed_count == 0 else "FAIL"
        print(f"[{status}] {check.name}: {check.passed_count} passed, {check.failed_count} failed -- {check.claim}")
        print(f"    worst {check.worst.check}: margin {fmt_float(check.worst.margin)}, seed {check.worst.seed}")
    print(f"report: {written[0]}")
    return EXIT_OK if result.passed else EXIT_FAILED_CHECKS


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
