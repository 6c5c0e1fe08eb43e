"""Print the sha256 of every file the `lab` experiments write.

    python scripts/report_digests.py [--src DIR] [--out DIR] [SEED ...]

Runs the seven experiments at their default configs, and the two-coordinate
Bott config {"experiment": "bott", "coordinates": 2, "n_basis": 12}, once per
seed (default 42), and prints one line per output file:

    <sha256>  <experiment>-<seed>/<file>

with the Bott config labelled bott-2d.  The lines are sorted, so two
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

BOTT_2D = {"experiment": "bott", "coordinates": 2, "n_basis": 12}


def emit_all(seeds: list[int], root: Path) -> None:
    """Write every run's files into root/<label>-<seed>/."""
    from gradedlab.experiments import EXPERIMENT_NAMES, load_config, run_experiment
    from gradedlab.reporting import emit_report

    bott_2d = root / "bott-2d.json"
    bott_2d.write_text(json.dumps(BOTT_2D))
    runs = [(name, {"experiment": name}) for name in EXPERIMENT_NAMES] + [("bott-2d", {"path": bott_2d})]
    for seed in seeds:
        for label, source in runs:
            emit_report(run_experiment(load_config(**source, seed=seed)), root / f"{label}-{seed}")
    bott_2d.unlink()


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
