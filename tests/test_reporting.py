"""The certificates.jsonl line, written by BoundCertificate.jsonl_line alone."""

import json
import math

import numpy as np
import pytest

from gradedlab.reporting import CERTIFICATE_TOL, BoundCertificate


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
