"""The certificates.jsonl line, written by BoundCertificate.jsonl_line alone,
and the CSV files, written by csv_text alone, which emit_report assembles
before it writes any."""

import json
import math

import numpy as np
import pytest

from gradedlab.experiments import ExperimentResult
from gradedlab.reporting import CERTIFICATE_TOL, BoundCertificate, csv_text, emit_report


def test_certificate_line_has_six_sorted_keys_and_formatted_numbers():
    line = BoundCertificate("exp_shift", np.float64(0.25), 1.0, [3, 4]).jsonl_line()
    record = json.loads(line)
    assert list(record) == ["check", "lhs", "margin", "pass", "rhs", "seed"]
    assert record == {
        "check": "exp_shift",
        "lhs": "2.500000000000e-01",
        "margin": "7.500000000000e-01",
        "pass": True,
        "rhs": "1.000000000000e+00",
        "seed": [3, 4],
    }
    assert line == json.dumps(record, sort_keys=True)


def test_certificate_line_keeps_unseeded_and_non_finite_values():
    record = json.loads(BoundCertificate("bott_pair[scalar]", -math.inf, -0.75).jsonl_line())
    assert record["seed"] is None
    assert (record["lhs"], record["margin"], record["pass"]) == ("-inf", "inf", True)
    record = json.loads(BoundCertificate("bott_pair[scalar]", math.nan, -0.75).jsonl_line())
    assert (record["lhs"], record["margin"], record["pass"]) == ("nan", "nan", False)


@pytest.mark.parametrize("lhs, passed", [(1e-10, True), (2e-10, False)])
def test_pass_flips_at_minus_certificate_tol(lhs, passed):
    """rhs 0 gives margin -lhs exactly: -1e-10 passes, -2e-10 fails."""
    assert CERTIFICATE_TOL == 1e-10
    cert = BoundCertificate("c", lhs, 0.0)
    assert cert.margin == -lhs
    assert cert.passed is passed
    assert json.loads(cert.jsonl_line())["pass"] is passed


def test_csv_text_writes_floats_as_12e_and_integers_in_decimal():
    """The header is the column names; every float, -inf and nan among
    them, is written as the f"{t:.12e},{v:.12e}" rows profiles had, and an
    int64 column in decimal, past 2**53 too."""
    t = np.geomspace(1.0, 1e3, 7)
    values = np.array([0.5, -math.inf, math.nan, 1e-300, -0.0, 3.0, math.inf])
    expected = "t,value\n" + "".join(f"{a:.12e},{b:.12e}\n" for a, b in zip(t, values))
    assert csv_text({"t": t, "value": values}) == expected
    multiplicity = np.array([1, 2**62 + 1], dtype=np.int64)
    text = csv_text({"eigenvalue": np.array([-1.5, 0.0]), "multiplicity": multiplicity})
    assert text == "eigenvalue,multiplicity\n-1.500000000000e+00,1\n0.000000000000e+00,4611686018427387905\n"


def test_csv_text_refuses_columns_of_unequal_length():
    """A 3-row t with a 2-row value raises instead of writing 2 data rows."""
    with pytest.raises(ValueError):
        csv_text({"t": np.arange(3.0), "value": np.arange(2.0)})
    with pytest.raises(ValueError):
        csv_text({"t": np.arange(2.0), "value": np.arange(3.0)})


def test_emit_report_with_unequal_columns_writes_nothing(tmp_path):
    """emit_report assembles every file before writing any, so a table whose
    columns differ in length leaves no file of the run."""
    result = ExperimentResult("bott", {}, [BoundCertificate("bott_gap", 0.0, 1.0)],
                              tables={"profile_x": {"t": np.arange(3.0), "value": np.arange(2.0)}})
    with pytest.raises(ValueError):
        emit_report(result, tmp_path / "out")
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
