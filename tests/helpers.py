"""Shared fixtures-by-hand for the test suite."""

import numpy as np
import scipy.linalg

from gradedlab import GradedMatrix, GradedSpace, OddSelfAdjoint, bott_nonzeros
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


def bott_operator(model) -> OddSelfAdjoint:
    """B = D + C of the Bott-Dirac model as a dense OddSelfAdjoint, scattered from its nonzeros."""
    b = bott_nonzeros(model)
    return OddSelfAdjoint(GradedMatrix(GradedSpace(tuple(b.parity.tolist())), b.dense()))


def fitted_exponents(profiles) -> list[float]:
    """Every fitted exponent of a {generator: {function: DecayProfile}} map."""
    return [p.fitted_exponent for per_fn in profiles.values() for p in per_fn.values()]


def commutes_asymptotically(profiles) -> bool:
    """Every commutation exponent of validate_pair reaches the threshold `lab` certifies."""
    return all(e <= COMMUTATION_EXPONENT_THRESHOLD for e in fitted_exponents(profiles))


def composes(defect_profiles) -> bool:
    """Every composition-defect exponent of compose_pairs reaches the threshold `lab` certifies."""
    return all(e <= COMPOSE_EXPONENT_THRESHOLD for e in fitted_exponents(defect_profiles))


def matrix_exp_oracle(entries):
    """e^m one matrix at a time: eigh for Hermitian m, scipy's expm otherwise."""
    scale = max(1.0, float(np.abs(entries).max(initial=0.0)))
    if np.abs(entries - entries.conj().T).max(initial=0.0) <= 1e-12 * scale:
        values, vectors = np.linalg.eigh(entries)
        return (vectors * np.exp(values)[None, :]) @ vectors.conj().T
    return scipy.linalg.expm(entries)
