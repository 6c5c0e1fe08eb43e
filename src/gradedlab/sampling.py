"""Seeded random graded matrices for the certificate suites.

Even samples have Gaussian entries on the parity-preserving positions
(block-diagonal once the basis is sorted by parity), odd samples on the
parity-flipping positions, Hermitized where a self-adjoint sample is
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
    return GradedSpace.split(dim // 2, dim // 2)


def random_space(rng: np.random.Generator, dim: int) -> GradedSpace:
    """Space with random parity pattern (at least one vector of each parity)."""
    parity = rng.integers(0, 2, size=dim)
    if parity.min(initial=1) == parity.max(initial=0):
        parity[rng.integers(0, dim)] ^= 1
    return GradedSpace(tuple(int(p) for p in parity))


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
    the parity-preserving positions, zero elsewhere."""
    return _gaussian(rng, space.dim) * space.same_parity()


def random_even(rng, space: GradedSpace, norm: float | None = None) -> GradedMatrix:
    return GradedMatrix(space, rescale(even_gaussian(rng, space), norm))


def random_odd(rng, space: GradedSpace, norm: float | None = None) -> GradedMatrix:
    entries = _gaussian(rng, space.dim) * ~space.same_parity()
    return GradedMatrix(space, rescale(entries, norm))


def random_homogeneous(rng, space: GradedSpace, parity: int, norm: float | None = None) -> GradedMatrix:
    return random_even(rng, space, norm) if parity == 0 else random_odd(rng, space, norm)


def random_hermitian_even(rng, space: GradedSpace, norm: float | None = None) -> GradedMatrix:
    m = random_even(rng, space).entries
    return GradedMatrix(space, rescale((m + m.conj().T) * 0.5, norm))


def random_odd_selfadjoint(rng, space: GradedSpace, norm: float | None = None) -> OddSelfAdjoint:
    m = random_odd(rng, space).entries
    return OddSelfAdjoint(space, rescale((m + m.conj().T) * 0.5, norm))


def random_even_unitary(rng, space: GradedSpace) -> GradedMatrix:
    """Grading-preserving unitary, drawn per parity class."""
    dim = space.dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    for idx in space.parity_order():
        if idx.size == 0:
            continue
        block = rng.standard_normal((idx.size, idx.size)) + 1j * rng.standard_normal((idx.size, idx.size))
        q, r = np.linalg.qr(block)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
        out[np.ix_(idx, idx)] = q
    return GradedMatrix(space, out)
