"""Deterministic randomness helpers.

Everything stochastic in this package — graph generators, stream shuffles,
hash-based partitioners, workload generators and the discrete-event
simulator — draws randomness through the helpers in this module so that
every experiment is reproducible bit-for-bit from an integer seed.

Two primitives are provided:

* :func:`make_rng` normalises "anything seed-like" into a
  :class:`numpy.random.Generator`.
* :func:`splitmix64` / :class:`SeededHash` give a fast, high-quality,
  *stateless* integer hash.  Hash partitioners must not consume stream
  randomness (two workers hashing the same vertex must agree), so they use a
  seeded avalanche hash instead of an RNG.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]

_U64 = np.uint64
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``seed`` may be ``None`` (non-deterministic), an ``int``, a
    ``SeedSequence`` or an existing ``Generator`` (returned unchanged so
    callers can thread one generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def splitmix64(value: Union[int, np.ndarray], seed: int = 0) -> np.ndarray:
    """SplitMix64 avalanche hash of ``value`` (scalar or ndarray) → uint64.

    Deterministic given ``(value, seed)``; changing ``seed`` yields an
    effectively independent hash function, which is how hash partitioners
    are seeded.
    """
    x = (np.asarray(value, dtype=np.uint64) + _U64(seed * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF))
    with np.errstate(over="ignore"):
        x = (x + _U64(0x9E3779B97F4A7C15)) & _MASK64
        x = ((x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)) & _MASK64
        x = ((x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)) & _MASK64
        x = x ^ (x >> _U64(31))
    return x


class SeededHash:
    """A stateless hash function family ``h_seed : int -> [0, buckets)``.

    Used by every hash-based partitioner (ECR, VCR, DBH, Grid, HCR).  Two
    instances with the same seed are the same function — the property that
    makes hash partitioning "embarrassingly parallel" in the paper.
    """

    def __init__(self, buckets: int, seed: int = 0) -> None:
        if buckets <= 0:
            raise ValueError(f"buckets must be positive, got {buckets}")
        self.buckets = int(buckets)
        self.seed = int(seed)

    def __call__(self, value: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
        """Hash a scalar or ndarray of non-negative ints into buckets."""
        hashed = splitmix64(value, self.seed)
        result = (hashed % _U64(self.buckets)).astype(np.int64)
        if np.ndim(value) == 0:
            return int(result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededHash(buckets={self.buckets}, seed={self.seed})"
