"""Certificates and deterministic report emission: report.json,
certificates.jsonl and CSV files, every byte of a run's output.

Experiments hand over numbers; each float is serialized through the fixed
format %.12e (fmt_float) and each integer in decimal, which makes reports
byte-identical across runs for identical configuration and seed (and keeps
non-finite sentinels like -inf representable in strict JSON).  Files are
assembled fully in memory before the first is written, and a failed write
removes every file the run wrote, so a failing run never leaves partial
output.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CERTIFICATE_TOL",
    "BoundCertificate",
    "OutputError",
    "fmt_float",
    "jsonable",
    "csv_text",
    "REPORT_SCHEMA",
    "emit_report",
]


# A certificate passes when margin = rhs - lhs >= -CERTIFICATE_TOL.
CERTIFICATE_TOL = 1e-10


class OutputError(RuntimeError):
    """The output directory cannot be created or written."""


def fmt_float(x: float) -> str:
    return f"{float(x):.12e}"


def jsonable(obj):
    """Recursively convert a result tree to JSON-safe values.

    Floats (including numpy scalars) become %.12e strings; arrays become
    lists; dict keys are stringified.
    """
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return fmt_float(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_text(columns: dict[str, np.ndarray]) -> str:
    """CSV of equal-length named columns, {name: values} (ValueError if the
    lengths differ), under a header of their names: integer columns in
    decimal, the rest through fmt_float, each column's formatter from its dtype."""
    cells = []
    for values in columns.values():
        values = np.asarray(values)
        cells.append(map(str if values.dtype.kind in "iu" else fmt_float, values.tolist()))
    return "".join(",".join(row) + "\n" for row in [tuple(columns), *zip(*cells, strict=True)])


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["experiment", "config", "checks", "summary", "pass"],
    "properties": {
        "experiment": {"type": "string"},
        "config": {"type": "object"},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "claim", "passed", "failed"],
                "properties": {
                    "name": {"type": "string"},
                    "claim": {"type": "string"},
                    "passed": {"type": "integer", "minimum": 0},
                    "failed": {"type": "integer", "minimum": 0},
                },
            },
        },
        "summary": {"type": "object"},
        "pass": {"type": "boolean"},
    },
}


@dataclass(frozen=True)
class BoundCertificate:
    """One measured bound lhs <= rhs, named by its check, with the trial seed
    that reproduces it (None for deterministic checks)."""

    check: str
    lhs: float
    rhs: float
    seed: object = None

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -CERTIFICATE_TOL

    def jsonl_line(self) -> str:
        """The certificates.jsonl line: six keys, sorted, numbers as %.12e strings."""
        return '{"check": %s, "lhs": "%.12e", "margin": "%.12e", "pass": %s, "rhs": "%.12e", "seed": %s}' % (
            json.dumps(self.check), self.lhs, self.margin, "true" if self.passed else "false", self.rhs,
            json.dumps(self.seed),
        )


def emit_report(result, out_dir) -> list[Path]:
    """Write report.json, certificates.jsonl, and one CSV file per table.

    `result` is an ExperimentResult; raises ValueError on empty results
    and OutputError, leaving no file of this run, when a file cannot be
    written.  Output is byte-deterministic for identical results.
    """
    if not result.checks:
        raise ValueError("refusing to emit an empty report")
    report = {
        "experiment": result.experiment,
        "config": jsonable(result.config),
        "checks": [
            {
                "name": c.name,
                "claim": c.claim,
                "passed": int(c.passed_count),
                "failed": int(c.failed_count),
            }
            for c in result.checks
        ],
        "summary": jsonable(result.summary),
        "pass": bool(result.passed),
    }
    files: dict[str, str] = {
        "report.json": json.dumps(report, sort_keys=True, indent=2) + "\n",
        "certificates.jsonl": "".join(cert.jsonl_line() + "\n" for cert in result.certificates),
    }
    for name, columns in result.tables.items():
        files[f"{name}.csv"] = csv_text(columns)

    out = Path(out_dir)
    written: list[Path] = []
    try:
        os.makedirs(out, exist_ok=True)
        for name, text in files.items():
            with open(out / name, "wb") as f:
                # opened, so truncated: from here on the file is this run's
                written.append(out / name)
                f.write(text.encode("ascii"))
    except OSError as exc:
        for path in written:
            path.unlink(missing_ok=True)
        raise OutputError(f"cannot write to {out}: {exc}") from exc
    return written
