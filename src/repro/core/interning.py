"""Node interning: arbitrary hashable node identifiers → dense integers.

The hot structures of the REPT state (:mod:`repro.core.state`) key on node
identities for every arriving edge.  Arbitrary hashables — strings, tuples,
large ints — pay full object hashing and comparison cost on each probe; a
:class:`NodeInterner` assigns every distinct node a *dense* small-int id on
first appearance, so adjacency sets, counter dicts and the per-node slot
bitmasks all operate on small ints instead.

The interner also memoises each node's stable 64-bit hash key (the same
``stable_node_key`` the scalar hash path computes per call), exposed as a
NumPy array: the batched ingestion pipeline gathers per-edge canonical
edge keys with two fancy-index reads (:meth:`NodeInterner.edge_key_array`)
and hands them to every group, which hashes them to its slots — in the C
record loop on the compiled kernel, with
:meth:`~repro.hashing.base.EdgeHashFunction.bucket_from_keys` on the dict
reference.

On a native state set, batches whose records are all 2-item tuples or
lists of plain ``int`` node ids inside int64 take a compiled encode pass
(:meth:`NodeInterner._encode_columns`).  Ids come from an open-addressing
int64→id cache probed in C; values it lacks are looked up in ``_ids``
itself (so dict equality holds exactly as in the Python loop: ``1`` finds
a held ``True`` or ``1.0``), values new to the interner are interned in
first-appearance order, and all of them enter the cache.  One C walk over
the interleaved endpoints then skips self-loops, canonicalises and writes
the ids.  Every other batch keeps the Python loop of
:meth:`NodeInterner.encode_pairs`, which is the parity oracle for the
compiled pass.

Encoding decides nothing about first occurrence: each processor group
tests an arriving edge against its own sampled set ``E(i)`` when it
ingests the record (see :mod:`repro.core.state`).

Interned ids are an internal representation only — every public surface of
the estimators (estimates, summaries, snapshots) speaks raw node
identifiers, so interning is invisible to callers and to the cross-backend
equivalence guarantees.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core import kernel as kernel_mod
from repro.hashing.base import _GOLDEN64, _stable_node_key
from repro.types import EdgeTuple, NodeId

_RECORD_TYPES = frozenset({tuple, list})
#: Initial cells of the interner's int64 id cache (kept at most half full).
_CACHE_MIN = 1024


def _int_endpoints(pairs) -> Optional[List[int]]:
    """Interleaved endpoints ``[u0, v0, u1, v1, ...]`` of an all-int batch, or None.

    The batch qualifies when it is a non-empty list or tuple of 2-item
    tuple/list records whose items are plain ``int`` — exactly the batches
    on which :meth:`NodeInterner.encode_pairs` reads each record as
    ``u, v`` and compares raw ints.  The first record is checked on its
    own first, so a batch of other ids falls back in constant time.
    """
    if type(pairs) not in (list, tuple) or not pairs:
        return None
    head = pairs[0]
    if (
        type(head) not in _RECORD_TYPES
        or len(head) != 2
        or type(head[0]) is not int
        or type(head[1]) is not int
    ):
        return None
    if not set(map(type, pairs)) <= _RECORD_TYPES or set(map(len, pairs)) != {2}:
        return None
    flat = list(chain.from_iterable(pairs))
    if set(map(type, flat)) != {int}:
        return None
    return flat


class NodeInterner:
    """Bidirectional NodeId ↔ dense-int table with memoised hash keys.

    Ids are assigned by first appearance, starting at 0.  The table only
    grows; it is shared by every :class:`~repro.core.state.ProcessorGroup`
    of one estimator so all groups agree on node identities.
    """

    __slots__ = (
        "_ids",
        "nodes",
        "_keys",
        "_key_buffer",
        "_key_array",
        "_cache_val",
        "_cache_id",
        "_cache_used",
    )

    def __init__(self) -> None:
        self._ids: Dict[NodeId, int] = {}
        #: Dense id -> original node identifier.
        self.nodes: List[NodeId] = []
        # Python-int keys (append-only).  key_array() copies the keys added
        # since its last call into a doubling uint64 buffer.
        self._keys: List[int] = []
        self._reset_derived()

    def _reset_derived(self) -> None:
        self._key_buffer = np.empty(0, dtype=np.uint64)
        self._key_array: np.ndarray = self._key_buffer
        # The int64 value -> dense id cache of _encode_columns: open
        # addressing, id -1 marks an empty cell.  Each entry is what
        # ``_ids.get(value)`` returned when it was cached, and ids never
        # change, so every entry stays exact whatever else is interned.
        self._cache_val = np.zeros(_CACHE_MIN, np.int64)
        self._cache_id = np.full(_CACHE_MIN, -1, np.int64)
        self._cache_used = 0

    def __getstate__(self):
        # The key array and the id cache are derived from the rest.
        return {"_ids": self._ids, "nodes": self.nodes, "_keys": self._keys}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # the slot pickle of earlier versions
            state = state[1]
        self._ids = state["_ids"]
        self.nodes = state["nodes"]
        self._keys = state["_keys"]
        self._reset_derived()

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._ids

    def intern(self, node: NodeId) -> int:
        """Return the dense id of ``node``, assigning one on first sight."""
        ids = self._ids
        dense = ids.get(node)
        if dense is None:
            # The key first: a node whose key raises is not interned.
            key = _stable_node_key(node)
            dense = len(self.nodes)
            ids[node] = dense
            self.nodes.append(node)
            self._keys.append(key)
        return dense

    def node_of(self, dense: int) -> NodeId:
        """Return the original identifier for a dense id."""
        return self.nodes[dense]

    def id_of(self, node: NodeId) -> Optional[int]:
        """Return the dense id of ``node`` without interning (None if unseen)."""
        return self._ids.get(node)

    def key_array(self) -> np.ndarray:
        """Stable 64-bit hash keys indexed by dense id (``uint64``).

        A view of an append-only buffer that grows by doubling, so only
        keys added since the last call are converted, and arrays handed
        out earlier keep their contents.
        """
        have = len(self._key_array)
        n = len(self._keys)
        if have != n:
            buffer = self._key_buffer
            if n > len(buffer):
                buffer = np.empty(max(n, 2 * len(buffer)), dtype=np.uint64)
                buffer[:have] = self._key_array
                self._key_buffer = buffer
            buffer[have:n] = self._keys[have:n]
            self._key_array = buffer[:n]
        return self._key_array

    # -- batch encoding ------------------------------------------------------

    def encode_pairs(self, pairs: Iterable[EdgeTuple]):
        """Intern and canonicalise a batch of raw edge pairs in one pass.

        Returns ``(cu, cv, None, n_records)`` where ``cu``/``cv`` are
        parallel lists of dense ids in *canonical* orientation (matching
        :func:`repro.types.canonical_edge` on the raw identifiers — the
        orientation the edge hash is defined over), self-loops — records
        whose endpoints are one interner key — are dropped, and
        ``n_records`` counts every input record including the dropped
        loops (the ``edges_processed`` contract).  The third item, always
        ``None``, keeps the tuple shape the benchmark's tracer unpacks.  If
        the batch raises (an unhashable node, a record that is not a pair),
        nodes interned on the way stay, unreferenced.
        """
        ids = self._ids
        nodes = self.nodes
        keys = self._keys
        cu: List[int] = []
        cv: List[int] = []
        cu_append = cu.append
        cv_append = cv.append
        n_records = 0
        for u, v in pairs:
            n_records += 1
            # The dict's own key test: one NaN object is one node.
            if u is v or u == v:
                continue
            iu = ids.get(u)
            if iu is None:
                key = _stable_node_key(u)
                iu = len(nodes)
                ids[u] = iu
                nodes.append(u)
                keys.append(key)
            iv = ids.get(v)
            if iv is None:
                key = _stable_node_key(v)
                iv = len(nodes)
                ids[v] = iv
                nodes.append(v)
                keys.append(key)
            # Canonical orientation mirrors repro.types.canonical_edge.
            try:
                flip = not (u <= v)
            except TypeError:
                flip = (str(u), repr(u)) > (str(v), repr(v))
            if flip:
                iu, iv = iv, iu
            cu_append(iu)
            cv_append(iv)
        return cu, cv, None, n_records

    def _encode_columns(self, pairs):
        """The compiled :meth:`encode_pairs` of an all-int batch, or None.

        Takes a non-empty list or tuple of 2-item tuple/list records of
        plain ``int`` ids inside int64; returns ``(cu, cv, edge_keys,
        n_records)`` with int64/int64/uint64 arrays, equal element for
        element to ``encode_pairs(pairs)`` followed by
        :meth:`edge_key_array`, with the interner advanced identically.
        Returns None, having changed nothing, when the batch does not
        qualify — the caller then takes :meth:`encode_pairs`.
        """
        flat = _int_endpoints(pairs)
        if flat is None:
            return None
        try:
            raw = np.fromiter(flat, np.int64, len(flat))
        except OverflowError:
            return None
        dense = np.empty(len(raw), np.int64)
        kernel_mod.table_lookup(raw, self._cache_val, self._cache_id, dense)
        missed = np.flatnonzero(dense < 0)
        if len(missed):
            self._resolve_missed(raw, dense, missed)
        n = len(pairs)
        cu = np.empty(n, np.int64)
        cv = np.empty(n, np.int64)
        n_out = kernel_mod.encode_columns(raw, dense, cu, cv)
        cu = cu[:n_out]
        cv = cv[:n_out]
        return cu, cv, self.edge_key_array(cu, cv), n

    def _resolve_missed(self, raw: np.ndarray, dense: np.ndarray, missed: np.ndarray) -> None:
        """Fill in the ids of endpoints the cache lacks, as :meth:`encode_pairs` would.

        ``missed`` indexes those endpoints of ``raw``.  Their values are
        looked up in ``_ids`` itself, so dict equality holds exactly (``1``
        finds a held ``True`` or ``1.0``); values ``_ids`` lacks are
        interned in first-appearance order, u before v.  Self-loop
        endpoints are skipped, since ``encode_pairs`` never interns them.
        Every resolved value then enters the cache.
        """
        missed = missed[raw[missed] != raw[missed ^ 1]]
        if not len(missed):
            return
        values, first, inverse = np.unique(
            raw[missed], return_index=True, return_inverse=True
        )
        listed = values.tolist()
        ids = np.fromiter(map(self._ids.get, listed, repeat(-1)), np.int64, len(listed))
        new = np.flatnonzero(ids < 0)
        if len(new):
            new = new[np.argsort(first[new])]
            base = len(self.nodes)
            ids[new] = np.arange(base, base + len(new))
            fresh = values[new]
            nodes = fresh.tolist()
            self.nodes.extend(nodes)
            self._ids.update(zip(nodes, range(base, base + len(nodes))))
            # _stable_node_key of an int64 int is its two's-complement uint64.
            self._keys.extend(fresh.view(np.uint64).tolist())
        dense[missed] = ids[inverse]
        used = self._cache_used + len(values)
        if 2 * used > len(self._cache_id):
            # Rebuild at the next power of two that keeps the cache half empty.
            held = self._cache_id >= 0
            values = np.concatenate((self._cache_val[held], values))
            ids = np.concatenate((self._cache_id[held], ids))
            cap = 1 << (2 * used - 1).bit_length()
            self._cache_val = np.zeros(cap, np.int64)
            self._cache_id = np.full(cap, -1, np.int64)
        kernel_mod.table_insert(values, ids, self._cache_val, self._cache_id)
        self._cache_used = used

    def edge_key_array(self, cu: List[int], cv: List[int]) -> np.ndarray:
        """Canonical 64-bit edge keys for encoded id pairs (``uint64``).

        Equals the scalar ``EdgeHashFunction._edge_key`` of the raw pairs;
        seed-independent, so one array serves every processor group.
        """
        node_keys = self.key_array()
        cu_idx = np.array(cu, dtype=np.intp)
        cv_idx = np.array(cv, dtype=np.intp)
        return node_keys[cu_idx] * np.uint64(_GOLDEN64) + node_keys[cv_idx]
