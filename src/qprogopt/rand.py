"""Seeded random Hermitian matrices, states, channels and traceless
directions for ``qprogopt verify`` and the tests."""

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


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * hermitize(g)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(hermitize(m / np.trace(m).real))


def random_channel(d_in: int, d_out: int | None = None, kraus_rank: int | None = None,
                   rng: np.random.Generator | None = None) -> KrausChannel:
    """Haar-flavored CPTP map from a random Stinespring isometry."""
    rng = np.random.default_rng() if rng is None else rng
    d_out = d_in if d_out is None else d_out
    kraus_rank = d_in * d_out if kraus_rank is None else kraus_rank
    g = rng.normal(size=(d_out * kraus_rank, d_in)) + 1j * rng.normal(
        size=(d_out * kraus_rank, d_in)
    )
    q, _ = np.linalg.qr(g)  # columns orthonormal: sum_k K_k^dag K_k = I
    ops = [q[k * d_out : (k + 1) * d_out, :] for k in range(kraus_rank)]
    return KrausChannel(tuple(ops), d_in, d_out)


def random_choi(d: int, rng: np.random.Generator, kraus_rank: int | None = None) -> ChoiMatrix:
    return choi_of_channel(random_channel(d, d, kraus_rank, rng))


def random_traceless_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-Frobenius Hermitian direction with zero trace."""
    h = random_hermitian(dim, rng)
    h -= np.trace(h) / dim * np.eye(dim)
    return h / np.linalg.norm(h)

