"""Abstract interface for edge-partitioning hash functions.

Besides the scalar :meth:`EdgeHashFunction.bucket` used by the per-edge
path, every function exposes a *vectorized* entry point for the batched
ingestion pipeline:

* :meth:`EdgeHashFunction.bucket_many` hashes whole arrays of endpoint
  pairs in one call;
* :meth:`EdgeHashFunction.bucket_from_keys` skips straight to the seeded
  mixing stage when the caller already holds the canonical 64-bit edge keys
  (which are seed-independent, so one key array serves every processor
  group of an estimator).

Both are exact: for every pair they return the same bucket as the scalar
path, bit for bit, which the hashing tests assert over int, string and
mixed node identifiers.

A third implementation lives in the compiled kernel
(:mod:`repro.core.kernel`): a native state set hands the canonical edge
keys of its batches, and :meth:`EdgeHashFunction._edge_key` on the
per-edge path, to C ports of both families, which turn each key into the
group's slot inside the record loop.  It reads each family's parameters
(``SplitMixEdgeHash.seed``, ``TabulationEdgeHash.tables``), and
``tests/properties/test_property_per_edge.py`` holds it to :meth:`bucket`
bit for bit.  :meth:`bucket_from_keys` thus serves the dict reference
only.
"""

from __future__ import annotations

import abc
import numbers
from typing import List, Sequence

import numpy as np

from repro.types import NodeId, canonical_edge


class EdgeHashFunction(abc.ABC):
    """Maps undirected edges uniformly into ``{0, ..., buckets - 1}``.

    Implementations must be deterministic for a given seed and must treat
    ``(u, v)`` and ``(v, u)`` identically (the canonical edge is hashed).
    """

    def __init__(self, buckets: int) -> None:
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.buckets = buckets

    @abc.abstractmethod
    def _hash_key(self, key: int) -> int:
        """Hash a non-negative integer key to a 64-bit value."""

    def _hash_keys_many(self, keys: np.ndarray) -> np.ndarray:
        """Hash a ``uint64`` array of edge keys to 64-bit values.

        The base implementation loops over the scalar :meth:`_hash_key`;
        the built-in families override it with pure NumPy pipelines.
        """
        return np.fromiter(
            (self._hash_key(int(key)) for key in keys),
            dtype=np.uint64,
            count=len(keys),
        )

    def _edge_key(self, u: NodeId, v: NodeId) -> int:
        cu, cv = canonical_edge(u, v)
        # Combine endpoint hashes order-insensitively but injectively enough
        # for partitioning purposes; Python's hash() of ints is the identity,
        # strings fall back to a stable FNV-style fold so results do not
        # depend on PYTHONHASHSEED.
        return (_stable_node_key(cu) * 0x9E3779B97F4A7C15 + _stable_node_key(cv)) & _MASK64

    def bucket(self, u: NodeId, v: NodeId) -> int:
        """Return the bucket of edge ``{u, v}`` in ``{0, ..., buckets-1}``."""
        return self._hash_key(self._edge_key(u, v)) % self.buckets

    def bucket_many(self, u_nodes: Sequence[NodeId], v_nodes: Sequence[NodeId]) -> np.ndarray:
        """Vectorized :meth:`bucket` over parallel endpoint sequences.

        Returns a ``uint64`` array of buckets, one per pair, identical to
        calling :meth:`bucket` element-wise.  Self-loops are rejected just
        like the scalar path (via :func:`canonical_edge`).
        """
        if len(u_nodes) != len(v_nodes):
            raise ValueError("u_nodes and v_nodes must have equal length")
        first_keys: List[int] = []
        second_keys: List[int] = []
        for u, v in zip(u_nodes, v_nodes):
            cu, cv = canonical_edge(u, v)
            first_keys.append(_stable_node_key(cu))
            second_keys.append(_stable_node_key(cv))
        return self.bucket_from_keys(edge_key_array(first_keys, second_keys))

    def bucket_from_keys(self, edge_keys: np.ndarray) -> np.ndarray:
        """Vectorized bucketing of precomputed canonical edge keys.

        ``edge_keys`` is the ``uint64`` array produced by
        :func:`edge_key_array` (or, equivalently, scalar :meth:`_edge_key`
        values).  The keys are seed-independent, so callers with several
        hash functions compute them once and reuse the array.
        """
        edge_keys = np.ascontiguousarray(edge_keys, dtype=np.uint64)
        return self._hash_keys_many(edge_keys) % np.uint64(self.buckets)

    def __call__(self, u: NodeId, v: NodeId) -> int:
        return self.bucket(u, v)


class HashFamily:
    """An ordered collection of independent :class:`EdgeHashFunction` objects."""

    def __init__(self, functions: Sequence[EdgeHashFunction]) -> None:
        if not functions:
            raise ValueError("a hash family needs at least one function")
        buckets = {f.buckets for f in functions}
        if len(buckets) != 1:
            raise ValueError("all functions in a family must share the bucket count")
        self._functions: List[EdgeHashFunction] = list(functions)
        self.buckets = functions[0].buckets

    def __len__(self) -> int:
        return len(self._functions)

    def __getitem__(self, index: int) -> EdgeHashFunction:
        return self._functions[index]

    def __iter__(self):
        return iter(self._functions)


_MASK64 = (1 << 64) - 1

#: 64-bit golden-ratio constant used to fold the two endpoint keys.
_GOLDEN64 = 0x9E3779B97F4A7C15


def edge_key_array(first_keys, second_keys) -> np.ndarray:
    """Vectorized :meth:`EdgeHashFunction._edge_key` from stable node keys.

    ``first_keys``/``second_keys`` hold :func:`stable_node_key` values of
    the *canonically ordered* endpoints (first ≤ second in canonical-edge
    order).  Arithmetic is ``uint64`` with wraparound, matching the scalar
    path's ``& _MASK64`` exactly.
    """
    first = np.ascontiguousarray(first_keys, dtype=np.uint64)
    second = np.ascontiguousarray(second_keys, dtype=np.uint64)
    return first * np.uint64(_GOLDEN64) + second


def node_key_array(nodes: Sequence[NodeId]) -> np.ndarray:
    """Return the :func:`stable_node_key` of every node as a ``uint64`` array."""
    return np.fromiter(
        (_stable_node_key(node) for node in nodes), dtype=np.uint64, count=len(nodes)
    )


def stable_node_key(node: NodeId) -> int:
    """Public alias of :func:`_stable_node_key` (stable 64-bit node key)."""
    return _stable_node_key(node)


def _stable_node_key(node: NodeId) -> int:
    """Map a node identifier to a stable non-negative 64-bit integer.

    Identifiers that are *equal* must map to the same key: dict/set
    semantics treat ``1``, ``1.0``, ``True`` and ``numpy.int64(1)`` as one
    node everywhere else in the library (adjacency keys, interning), so the
    hash layer canonicalises numeric equality classes to the integer branch
    before hashing.  Without this, the per-edge path (which hashes each raw
    arrival) and the batched path (which memoises one key per interned
    node) could route the same edge to different processor slots.
    """
    if type(node) is int:  # fast path: the overwhelmingly common case
        return node & _MASK64
    if isinstance(node, bool):
        return int(node)
    if isinstance(node, numbers.Integral):  # numpy integer scalars, etc.
        return int(node) & _MASK64
    if isinstance(node, numbers.Real):
        as_float = float(node)
        if as_float.is_integer():
            return int(as_float) & _MASK64
    # surrogatepass: a str holding a lone surrogate (valid JSON, e.g.
    # "\ud800") still has a key; no other str's bytes change.
    data = str(node).encode("utf-8", "surrogatepass")
    acc = 0xCBF29CE484222325  # FNV-1a 64-bit offset basis
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & _MASK64
    return acc
