"""Run one `lab` config in a child process and print its exit code, wall time and peak RSS.

    PYTHONPATH=src python scripts/timed_lab.py CONFIG OUT LABEL

Runs `python -m gradedlab --config CONFIG --out OUT` with its standard
output discarded, prints

    LABEL: exit <code>, wall <seconds> s, peak RSS <MB> MB

and exits with the run's exit code.  The peak RSS is the largest resident
set of the child processes (getrusage RUSAGE_CHILDREN, which Linux reports
in kB).  The child inherits the environment, so PYTHONPATH selects the
gradedlab sources it runs.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: timed_lab.py CONFIG OUT LABEL", file=sys.stderr)
        return 2
    config, out, label = argv
    start = time.perf_counter()
    command = [sys.executable, "-m", "gradedlab", "--config", config, "--out", out]
    code = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{label}: exit {code}, wall {wall:.2f} s, peak RSS {peak:.0f} MB")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
