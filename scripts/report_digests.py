"""Print the sha256 of every file the `lab` experiments write.

    python scripts/report_digests.py [--src DIR] [--out DIR] [SEED ...]

Runs the seven experiments at their default configs, and the Bott configs
CI's tier-1 job runs beside them, once per seed (default 42), and prints
one line per output file:

    <sha256>  <experiment>-<seed>/<file>

The Bott configs are labelled by what they set: bott-2d is
{"experiment": "bott", "coordinates": 2, "n_basis": 12}, the bott-2d
benchmark config, and bott-c3-n24, bott-c6-n24 and bott-c2-n512 set
coordinates 3, 6 and 2 at n_basis 24, 24 and 512.  The lines are sorted, so two
listings of the same seeds diff line by line; a refactor that claims
byte-identical reports compares its listing with the parent commit's.
--src names the gradedlab sources to run (default: this checkout's src),
and --out keeps the files in DIR/<experiment>-<seed>/ (default: a
temporary directory).  BLAS runs on one thread unless the environment
already sets it.  Uses only the standard library and those sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
CHECKOUT_SRC = Path(__file__).resolve().parents[1] / "src"

BOTT_CONFIGS = {
    "bott-2d": {"experiment": "bott", "coordinates": 2, "n_basis": 12},
    "bott-c3-n24": {"experiment": "bott", "coordinates": 3, "n_basis": 24},
    "bott-c6-n24": {"experiment": "bott", "coordinates": 6, "n_basis": 24},
    "bott-c2-n512": {"experiment": "bott", "coordinates": 2, "n_basis": 512},
}


def emit_all(seeds: list[int], root: Path) -> None:
    """Write every run's files into root/<label>-<seed>/."""
    from gradedlab.experiments import EXPERIMENT_NAMES, load_config, run_experiment
    from gradedlab.reporting import emit_report

    paths = {label: root / f"{label}.json" for label in BOTT_CONFIGS}
    for label, path in paths.items():
        path.write_text(json.dumps(BOTT_CONFIGS[label]))
    runs = [(name, {"experiment": name}) for name in EXPERIMENT_NAMES] + [(k, {"path": v}) for k, v in paths.items()]
    for seed in seeds:
        for label, source in runs:
            emit_report(run_experiment(load_config(**source, seed=seed)), root / f"{label}-{seed}")
    for path in paths.values():
        path.unlink()


def digests(seeds: list[int], root: Path) -> list[str]:
    emit_all(seeds, root)
    lines = []
    for path in sorted(root.glob("*/*")):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.parent.name}/{path.name}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[42], help="root seeds (default 42)")
    parser.add_argument("--src", type=Path, default=CHECKOUT_SRC, help="gradedlab sources (default: this checkout's)")
    parser.add_argument("--out", type=Path, help="keep the output files here (default: a temporary directory)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        if any(args.out.iterdir()):
            parser.error(f"--out {args.out} is not empty")
        lines = digests(args.seeds, args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = digests(args.seeds, Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
