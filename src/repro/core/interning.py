"""Node interning: arbitrary hashable node identifiers → dense integers.

The hot structures of the REPT state (:mod:`repro.core.state`) key on node
identities for every arriving edge.  Arbitrary hashables — strings, tuples,
large ints — pay full object hashing and comparison cost on each probe; a
:class:`NodeInterner` assigns every distinct node a *dense* small-int id on
first appearance, so adjacency sets, counter dicts and the per-node slot
bitmasks all operate on small ints instead.

The interner also memoises each node's stable 64-bit hash key (the same
``stable_node_key`` the scalar hash path computes per call), exposed as a
NumPy array: the batched ingestion pipeline gathers per-edge canonical key
pairs with two fancy-index reads and hands them to the vectorized hash
layer (:meth:`~repro.hashing.base.EdgeHashFunction.bucket_from_keys`).

Interned ids are an internal representation only — every public surface of
the estimators (estimates, summaries, snapshots) speaks raw node
identifiers, so interning is invisible to callers and to the cross-backend
equivalence guarantees.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.hashing.base import _GOLDEN64, _stable_node_key
from repro.types import EdgeTuple, NodeId


class NodeInterner:
    """Bidirectional NodeId ↔ dense-int table with memoised hash keys.

    Ids are assigned by first appearance, starting at 0.  The table only
    grows; it is shared by every :class:`~repro.core.state.ProcessorGroup`
    of one estimator so all groups agree on node identities.
    """

    __slots__ = ("_ids", "nodes", "_keys", "_key_array", "_key_array_len")

    def __init__(self) -> None:
        self._ids: Dict[NodeId, int] = {}
        #: Dense id -> original node identifier.
        self.nodes: List[NodeId] = []
        # Python-int keys (append-only); the uint64 array view is rebuilt
        # lazily when the table has grown since the last batch.
        self._keys: List[int] = []
        self._key_array: np.ndarray = np.empty(0, dtype=np.uint64)
        self._key_array_len = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._ids

    def intern(self, node: NodeId) -> int:
        """Return the dense id of ``node``, assigning one on first sight."""
        ids = self._ids
        dense = ids.get(node)
        if dense is None:
            dense = len(self.nodes)
            ids[node] = dense
            self.nodes.append(node)
            self._keys.append(_stable_node_key(node))
        return dense

    def node_of(self, dense: int) -> NodeId:
        """Return the original identifier for a dense id."""
        return self.nodes[dense]

    def id_of(self, node: NodeId) -> Optional[int]:
        """Return the dense id of ``node`` without interning (None if unseen)."""
        return self._ids.get(node)

    def key_array(self) -> np.ndarray:
        """Stable 64-bit hash keys indexed by dense id (``uint64``)."""
        if self._key_array_len != len(self._keys):
            self._key_array = np.array(self._keys, dtype=np.uint64)
            self._key_array_len = len(self._keys)
        return self._key_array

    # -- batch encoding ------------------------------------------------------

    def encode_pairs(
        self,
        pairs: Iterable[EdgeTuple],
        seen: Optional[Set[Tuple[int, int]]] = None,
    ):
        """Intern and canonicalise a batch of raw edge pairs in one pass.

        Returns ``(cu, cv, firsts, n_records)`` where ``cu``/``cv`` are
        parallel lists of dense ids in *canonical* orientation (matching
        :func:`repro.types.canonical_edge` on the raw identifiers — the
        orientation the edge hash is defined over), self-loops are dropped,
        and ``n_records`` counts every input record including the dropped
        loops (the ``edges_processed`` contract).

        When ``seen`` is given it is used (and updated in place) to flag
        each surviving record's first occurrence: ``firsts[k]`` is True iff
        the canonical edge had not been seen before.  Because an edge always
        hashes to the same slot, "seen before" is exactly the per-slot
        ``already_stored`` test of the storing process, hoisted out of the
        per-group loops.  With ``seen=None``, ``firsts`` is returned as
        ``None``.  If the batch raises (an unhashable node, a record that
        is not a pair), ``seen`` is restored before the exception
        propagates; nodes interned on the way stay, unreferenced.
        """
        ids = self._ids
        nodes = self.nodes
        keys = self._keys
        cu: List[int] = []
        cv: List[int] = []
        cu_append = cu.append
        cv_append = cv.append
        firsts: Optional[List[bool]] = None
        if seen is not None:
            firsts = []
            firsts_append = firsts.append
            seen_add = seen.add
            seen_size = len(seen)
        n_records = 0
        try:
            for u, v in pairs:
                n_records += 1
                if u == v:
                    continue
                iu = ids.get(u)
                if iu is None:
                    iu = len(nodes)
                    ids[u] = iu
                    nodes.append(u)
                    keys.append(_stable_node_key(u))
                iv = ids.get(v)
                if iv is None:
                    iv = len(nodes)
                    ids[v] = iv
                    nodes.append(v)
                    keys.append(_stable_node_key(v))
                # Canonical orientation mirrors repro.types.canonical_edge.
                try:
                    flip = not (u <= v)
                except TypeError:
                    flip = (str(u), repr(u)) > (str(v), repr(v))
                if flip:
                    iu, iv = iv, iu
                cu_append(iu)
                cv_append(iv)
                if seen is not None:
                    # Membership keys are id-ordered (not canonical-raw order):
                    # interning is injective, so id order identifies the
                    # undirected edge, and id comparison is cheapest.  The
                    # size-delta trick tests and inserts with a single probe.
                    seen_add((iu, iv) if iu < iv else (iv, iu))
                    new_size = len(seen)
                    firsts_append(new_size != seen_size)
                    seen_size = new_size
        except BaseException:
            if seen is not None:
                # Commit on success only: forget the keys this call added,
                # or the failed batch's edges would count as seen forever.
                for iu, iv, first in zip(cu, cv, firsts):
                    if first:
                        seen.discard((iu, iv) if iu < iv else (iv, iu))
            raise
        return cu, cv, firsts, n_records

    def edge_key_array(self, cu: List[int], cv: List[int]) -> np.ndarray:
        """Canonical 64-bit edge keys for encoded id pairs (``uint64``).

        Equals the scalar ``EdgeHashFunction._edge_key`` of the raw pairs;
        seed-independent, so one array serves every processor group.
        """
        node_keys = self.key_array()
        cu_idx = np.array(cu, dtype=np.intp)
        cv_idx = np.array(cv, dtype=np.intp)
        return node_keys[cu_idx] * np.uint64(_GOLDEN64) + node_keys[cv_idx]
