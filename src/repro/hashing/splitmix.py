"""SplitMix64-based edge hashing (the default family).

The splitmix64 finaliser is a well-known 64-bit avalanche mix; combined
with a random per-function seed it behaves like a uniform random function
for partitioning purposes, which is what REPT's analysis assumes of ``h``.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import EdgeHashFunction, _MASK64
from repro.utils.rng import SeedLike, as_random_source


def splitmix64(x: int) -> int:
    """Apply the splitmix64 finaliser to a 64-bit integer."""
    x &= _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a ``uint64`` array.

    Bit-identical to the scalar version element-wise: ``uint64`` arithmetic
    wraps modulo :math:`2^{64}`, which is exactly the scalar ``& _MASK64``.
    """
    z = np.ascontiguousarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class SplitMixEdgeHash(EdgeHashFunction):
    """Seeded splitmix64 hashing of canonical edge keys.

    Parameters
    ----------
    buckets:
        Range size ``m``.
    seed:
        Seed-like value; two functions built with different seeds are
        effectively independent.
    """

    def __init__(self, buckets: int, seed: SeedLike = None) -> None:
        super().__init__(buckets)
        self._seed = as_random_source(seed).random_uint64()

    @property
    def seed(self) -> int:
        """The 64-bit value xor-ed into every key (the compiled hash's parameter)."""
        return self._seed

    def _hash_key(self, key: int) -> int:
        return splitmix64(key ^ self._seed)

    def _hash_keys_many(self, keys):
        return splitmix64_array(keys ^ np.uint64(self._seed))
