"""Print the sha256 of every file the `lab` experiments write.

    python scripts/report_digests.py [SEED ...]

Runs the seven experiments at their default configs, and the two-coordinate
Bott config {"experiment": "bott", "coordinates": 2, "n_basis": 12}, once per
seed (default 42), and prints one line per output file:

    <sha256>  <experiment>-<seed>/<file>

with the Bott config labelled bott-2d.  The lines are sorted, so two
listings of the same seeds diff line by line; a refactor that claims
byte-identical reports compares its listing with the parent commit's.
BLAS runs on one thread unless the environment already sets it.  Uses only
the standard library and the gradedlab sources of this checkout.
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
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gradedlab.experiments import EXPERIMENT_NAMES, load_config, run_experiment  # noqa: E402
from gradedlab.reporting import emit_report  # noqa: E402

BOTT_2D = {"experiment": "bott", "coordinates": 2, "n_basis": 12}


def digests(seeds: list[int]) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        bott_2d = Path(tmp) / "bott-2d.json"
        bott_2d.write_text(json.dumps(BOTT_2D))
        runs = [(name, {"experiment": name}) for name in EXPERIMENT_NAMES] + [("bott-2d", {"path": bott_2d})]
        for seed in seeds:
            for label, source in runs:
                out = Path(tmp) / f"{label}-{seed}"
                emit_report(run_experiment(load_config(**source, seed=seed)), out)
                for path in sorted(out.iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {out.name}/{path.name}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[42], help="root seeds (default 42)")
    args = parser.parse_args(argv)
    print("\n".join(digests(args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
