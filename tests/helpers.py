"""Shared fixtures-by-hand for the test suite."""

import numpy as np

from gradedlab import GradedMatrix, GradedSpace, OddSelfAdjoint
from gradedlab.pairs import COMMUTATION_EXPONENT_THRESHOLD, COMPOSE_EXPONENT_THRESHOLD

TWO = GradedSpace((0, 1))

SIGMA_X = GradedMatrix(TWO, np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = GradedMatrix(TWO, np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = GradedMatrix(TWO, np.array([[1, 0], [0, -1]], dtype=complex))

SX = OddSelfAdjoint(SIGMA_X)
SY = OddSelfAdjoint(SIGMA_Y)


def max_abs(matrix) -> float:
    entries = matrix.entries if isinstance(matrix, GradedMatrix) else np.asarray(matrix)
    return float(np.abs(entries).max(initial=0.0))


# Largest off-corner mass ||(1 - P) m|| + ||m (1 - P)|| the pair tests accept.
CONTAINMENT_TOL = 1e-8


def fitted_exponents(profiles) -> list[float]:
    """Every fitted exponent of a {generator: {function: DecayProfile}} map."""
    return [p.fitted_exponent for per_fn in profiles.values() for p in per_fn.values()]


def commutes_asymptotically(report) -> bool:
    """Every commutation exponent of validate_pair reaches the threshold `lab` certifies."""
    return all(e <= COMMUTATION_EXPONENT_THRESHOLD for e in fitted_exponents(report.profiles))


def composes(comp) -> bool:
    """Every composition-defect exponent reaches the threshold `lab` certifies."""
    return all(e <= COMPOSE_EXPONENT_THRESHOLD for e in fitted_exponents(comp.defect_profiles))


def within_containment(report) -> bool:
    """validate_pair measured every off-corner mass at most CONTAINMENT_TOL."""
    masses = [mass for per_fn in report.containment.values() for mass in per_fn.values()]
    return bool(masses) and all(mass <= CONTAINMENT_TOL for mass in masses)
