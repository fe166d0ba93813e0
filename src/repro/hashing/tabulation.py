"""Simple tabulation hashing for edge partitioning.

Simple tabulation is 3-independent and has strong concentration properties;
it is included as an alternative family to verify (ablation A3) that REPT's
accuracy does not depend on the specific hash family, only on its uniformity.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import EdgeHashFunction, _MASK64
from repro.hashing.splitmix import splitmix64, splitmix64_array
from repro.utils.rng import SeedLike, as_random_source


class TabulationEdgeHash(EdgeHashFunction):
    """Byte-wise simple tabulation hashing of a pre-mixed 64-bit edge key.

    The key is first passed through splitmix64 (unseeded) so that
    structured node identifiers still exercise all eight byte tables, then
    each byte indexes a random table and the entries are XOR-ed.
    """

    _NUM_TABLES = 8
    _TABLE_SIZE = 256

    def __init__(self, buckets: int, seed: SeedLike = None) -> None:
        super().__init__(buckets)
        rng = as_random_source(seed)
        self._tables = rng.generator.integers(
            0, 2**64, size=(self._NUM_TABLES, self._TABLE_SIZE), dtype=np.uint64
        )

    @property
    def tables(self) -> np.ndarray:
        """The ``(8, 256)`` ``uint64`` rows, row ``i`` indexed by byte ``i``
        of the mixed key (the compiled hash's parameter)."""
        return self._tables

    def _hash_key(self, key: int) -> int:
        mixed = splitmix64(key)
        acc = 0
        for i in range(self._NUM_TABLES):
            byte = (mixed >> (8 * i)) & 0xFF
            acc ^= int(self._tables[i, byte])
        return acc & _MASK64

    def _hash_keys_many(self, keys):
        mixed = splitmix64_array(keys)
        acc = np.zeros(len(mixed), dtype=np.uint64)
        byte_mask = np.uint64(0xFF)
        for i in range(self._NUM_TABLES):
            bytes_i = (mixed >> np.uint64(8 * i)) & byte_mask
            acc ^= self._tables[i][bytes_i]
        return acc
