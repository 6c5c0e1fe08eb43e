"""Seeded random graded matrices for the certificate suites.

Even samples have Gaussian entries on the diagonal parity blocks, odd
samples on the off-diagonal ones, Hermitized where a self-adjoint sample is
needed.  Trial seeds derive deterministically from a root seed so every
randomized certificate can be reproduced from its recorded seed.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package instead

from .graded import GradedMatrix, GradedSpace, OddSelfAdjoint, operator_norms

__all__ = [
    "rng_for",
    "trial_seed",
    "balanced_space",
    "random_space",
    "even_gaussian",
    "rescale",
    "random_even",
    "random_odd",
    "random_hermitian_even",
    "random_odd_selfadjoint",
    "random_homogeneous",
    "random_even_unitary",
]


def trial_seed(root_seed: int, index: int) -> tuple[int, int]:
    """Deterministic per-trial seed, recorded as (root, index)."""
    return (int(root_seed), int(index))


def rng_for(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def balanced_space(dim: int) -> GradedSpace:
    if dim < 2 or dim % 2:
        raise ValueError("balanced space needs even dimension >= 2")
    return GradedSpace(dim // 2, dim // 2)


def random_space(rng: np.random.Generator, dim: int) -> GradedSpace:
    """Space with a random (even, odd) split, at least one of each for dim >= 2."""
    parity = rng.integers(0, 2, size=dim)
    if parity.min(initial=1) == parity.max(initial=0):
        parity[rng.integers(0, dim)] ^= 1
    return GradedSpace(dim - int(parity.sum()), int(parity.sum()))


def _gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def rescale(entries: np.ndarray, norm) -> np.ndarray:
    """entries scaled to operator norm `norm` (unchanged when norm is None).

    A (k, d, d) stack takes k target norms, one per matrix, and each
    matrix equals its own rescale bit for bit.
    """
    if norm is None:
        return entries
    current = operator_norms(entries)
    if np.any(current == 0.0):
        raise ValueError("cannot rescale a zero sample")
    return entries * (norm / current)[..., None, None]


def even_gaussian(rng: np.random.Generator, space: GradedSpace) -> np.ndarray:
    """The entries random_even draws before rescaling: complex Gaussian on
    the diagonal parity blocks, zero on the others."""
    m, k = _gaussian(rng, space.dim), space.even
    m[:k, k:] = m[k:, :k] = 0
    return m


def random_even(rng, space: GradedSpace, norm: float | None = None) -> GradedMatrix:
    return GradedMatrix(space, rescale(even_gaussian(rng, space), norm))


def random_odd(rng, space: GradedSpace, norm: float | None = None) -> GradedMatrix:
    m, k = _gaussian(rng, space.dim), space.even
    m[:k, :k] = m[k:, k:] = 0
    return GradedMatrix(space, rescale(m, norm))


def random_homogeneous(rng, space: GradedSpace, parity: int, norm: float | None = None) -> GradedMatrix:
    return random_even(rng, space, norm) if parity == 0 else random_odd(rng, space, norm)


def random_hermitian_even(rng, space: GradedSpace, norm: float | None = None) -> GradedMatrix:
    m = random_even(rng, space).entries
    return GradedMatrix(space, rescale((m + m.conj().T) * 0.5, norm))


def random_odd_selfadjoint(rng, space: GradedSpace, norm: float | None = None) -> OddSelfAdjoint:
    m = random_odd(rng, space).entries
    return OddSelfAdjoint(space, rescale((m + m.conj().T) * 0.5, norm))


def random_even_unitary(rng, space: GradedSpace) -> GradedMatrix:
    """Grading-preserving unitary, drawn per parity block, even then odd."""
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for start, size in ((0, space.even), (space.even, space.odd)):
        if size == 0:
            continue
        q, r = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        block = slice(start, start + size)
        out[block, block] = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
    return GradedMatrix(space, out)
