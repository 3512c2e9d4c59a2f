"""Random Hermitian matrices, states, channels on C^d and their Choi
matrices, and traceless directions, each drawn from the given numpy
generator, for ``qprogopt verify`` and the tests."""

from __future__ import annotations

import numpy as np

from .channels import ChoiMatrix, DensityMatrix, KrausChannel, choi_of_channel
from .hermlin import hermitize

__all__ = [
    "random_hermitian",
    "random_density",
    "random_channel",
    "random_choi",
    "random_traceless_direction",
]


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(g)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(hermitize(m / np.trace(m).real))


def random_channel(d: int, rng: np.random.Generator) -> KrausChannel:
    """Haar-flavored CPTP map on C^d: d^2 Kraus operators cut from a random
    Stinespring isometry."""
    g = rng.normal(size=(d**3, d)) + 1j * rng.normal(size=(d**3, d))
    q, _ = np.linalg.qr(g)  # columns orthonormal: sum_k K_k^dag K_k = I
    ops = [q[k * d : (k + 1) * d, :] for k in range(d * d)]
    return KrausChannel(tuple(ops), d, d)


def random_choi(d: int, rng: np.random.Generator) -> ChoiMatrix:
    return choi_of_channel(random_channel(d, rng))


def random_traceless_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-Frobenius Hermitian direction with zero trace."""
    h = random_hermitian(dim, rng)
    h -= np.trace(h) / dim * np.eye(dim)
    return h / np.linalg.norm(h)

