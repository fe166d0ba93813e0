"""Array-backed processor-group state for the compiled ingestion kernel.

:class:`~repro.core.state.ProcessorGroup` keeps its hot state in Python
dicts and sets — the reference every other path is checked against, but
every probe and store in its
:meth:`~repro.core.state.ProcessorGroup.process_encoded` loop pays
interpreter and hashing overhead.  This module re-hosts one group's state
on flat int64 columns so the C closure+store loop (:mod:`repro.core.kernel`)
advances a whole encoded batch — or one edge of the per-edge path —
without touching a Python object:

``GroupArrays``
    The storage: a half-edge pool of singly-linked neighbour chains
    (``pool_nbr``/``pool_eid``/``pool_nxt`` with per-``(slot, node)`` chain
    heads), dense per-node slot bitmasks keyed by interned id, flat edge
    records (``edge_u``/``edge_v``/``edge_slot``/``edge_tri``) and per-slot
    counter rows.  Growth is amortised doubling with contiguous
    reallocation; the wrappers *pre-ensure* every capacity before a kernel
    call, so the compiled loop never allocates.

``NativeProcessorGroup``
    A drop-in :class:`~repro.core.state.ProcessorGroup` subclass backed by
    ``GroupArrays``.  Public semantics — snapshot/restore/merge,
    ``seed_adjacency``, the pane-delta protocol, aggregates and stored-edge
    introspection — are preserved exactly (bit-identical counters, asserted
    by the kernel-parity property suite), so the chunked, elastic, durable
    and monitor paths are untouched at their boundaries.

Dict-equivalence notes (the subtle bits the parity suite pins down):

* ``tau_local`` entries in the dict implementation are created only with
  strictly positive increments, so non-zero array cells recover the dict
  exactly; explicit zero-valued entries can only arrive via merges of
  pathological snapshots and are preserved in ``tau_zero`` side sets.
* ``eta_local`` *does* receive zero increments in normal operation
  (``count_uw`` may be 0 when the wedge edge was stored this instant), and
  the dict keeps those explicit zero entries — ``eta_mark`` records
  touched cells so extraction reproduces them.
* ``edge_triangles`` is keyed by stored edges but a merged snapshot may
  contain keys whose edge is not in the adjacency; those live in the
  ``loose_tri`` side dicts and fold with the same η correction.
* ``edge_tri``/``edge_seen`` carry the *detachable* per-edge counters: the
  pane-delta protocol zeroes them while the adjacency (pool, heads,
  bitmasks) stays — exactly the seeded-at-a-boundary state the merge
  contract expects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import kernel as kernel_mod
from repro.core.interning import NodeInterner, pack_pair, pack_pairs
from repro.core.state import (
    GroupSnapshot,
    ProcessorCounters,
    ProcessorGroup,
    _internalize_processor,
)
from repro.hashing.base import EdgeHashFunction
from repro.types import NodeId, canonical_edge

_INIT_NODES = 64
_INIT_EDGES = 64


def _grown(array: np.ndarray, cap: int) -> np.ndarray:
    """Copy a 1-D array into a zero-initialised buffer of ``cap`` entries."""
    out = np.zeros(cap, dtype=array.dtype)
    out[: array.shape[0]] = array
    return out


class GroupArrays:
    """Flat-column state of one processor group (see module docstring).

    All integer columns are int64 — including the slot bitmasks, which is
    why native groups are limited to
    :data:`~repro.core.kernel.MAX_NATIVE_GROUP_SIZE` slots — and the
    boolean markers are uint8.  ``meta`` carries the mutable scalars the
    kernel advances in place: ``[n_half, n_edges, epoch]``.
    """

    def __init__(self, group_size: int, track_local: bool, track_eta: bool) -> None:
        if not 1 <= group_size <= kernel_mod.MAX_NATIVE_GROUP_SIZE:
            raise ValueError(
                "array-backed groups support 1..{} slots, got {}".format(
                    kernel_mod.MAX_NATIVE_GROUP_SIZE, group_size
                )
            )
        self.group_size = group_size
        self.track_local = track_local
        self.track_eta = track_eta
        self.node_cap = _INIT_NODES
        self.edge_cap = _INIT_EDGES
        self.pool_cap = 2 * _INIT_EDGES
        # Per-node columns (indexed by interned id).
        self.node_bits = np.zeros(self.node_cap, np.int64)
        self.heads = np.full((group_size, self.node_cap), -1, np.int64)
        self.mark = np.zeros(self.node_cap, np.int64)
        self.mark_eid = np.zeros(self.node_cap, np.int64)
        # Half-edge pool: two entries per stored edge, chained via pool_nxt.
        self.pool_nbr = np.zeros(self.pool_cap, np.int64)
        self.pool_eid = np.zeros(self.pool_cap, np.int64)
        self.pool_nxt = np.zeros(self.pool_cap, np.int64)
        # Flat edge records; edge_u < edge_v (id order).  edge_tri/edge_seen
        # are the detachable per-edge triangle counters ("seen" = the dict
        # implementation would hold a key for this edge).
        self.edge_u = np.zeros(self.edge_cap, np.int64)
        self.edge_v = np.zeros(self.edge_cap, np.int64)
        self.edge_slot = np.zeros(self.edge_cap, np.int64)
        self.edge_tri = np.zeros(self.edge_cap, np.int64)
        self.edge_seen = np.zeros(self.edge_cap, np.uint8)
        # Per-slot counter rows.
        self.tau = np.zeros(group_size, np.int64)
        self.eta = np.zeros(group_size, np.int64)
        self.edges_stored = np.zeros(group_size, np.int64)
        if track_local:
            self.tau_local = np.zeros((group_size, self.node_cap), np.int64)
        else:
            self.tau_local = np.zeros((1, 1), np.int64)
        if track_local and track_eta:
            self.eta_local = np.zeros((group_size, self.node_cap), np.int64)
            self.eta_mark = np.zeros((group_size, self.node_cap), np.uint8)
        else:
            self.eta_local = np.zeros((1, 1), np.int64)
            self.eta_mark = np.zeros((1, 1), np.uint8)
        self.meta = np.zeros(3, np.int64)
        # Side state the flat columns cannot express (see module docstring).
        self.loose_tri: List[Dict[Tuple[int, int], int]] = [
            {} for _ in range(group_size)
        ]
        self.tau_zero: List[Set[int]] = [set() for _ in range(group_size)]
        # Lazily synchronised (slot, u, v) -> eid index; kernel stores
        # bypass it, _sync_pairs catches up over the appended suffix.
        self._pair_eids: Dict[Tuple[int, int, int], int] = {}
        self._pair_sync = 0
        # Per-call-site cache of kernel argument tuples (raw ctypes
        # pointers + scalar input buffers).  Pointers die whenever a column
        # reallocates, so every growth clears this dict, and pickling drops
        # it (see __getstate__) — a restored state rebuilds on first call.
        self._call_cache: Dict = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_call_cache", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._call_cache = {}

    @property
    def n_edges(self) -> int:
        return int(self.meta[1])

    @property
    def has_eta_local(self) -> bool:
        return self.track_local and self.track_eta

    # -- growth ---------------------------------------------------------------

    def ensure_nodes(self, n: int) -> None:
        """Grow every per-node column to hold interned ids ``< n``."""
        if n <= self.node_cap:
            return
        cap = self.node_cap
        while cap < n:
            cap *= 2
        self.node_bits = _grown(self.node_bits, cap)
        heads = np.full((self.group_size, cap), -1, np.int64)
        heads[:, : self.node_cap] = self.heads
        self.heads = heads
        self.mark = _grown(self.mark, cap)
        self.mark_eid = _grown(self.mark_eid, cap)
        if self.track_local:
            tau_local = np.zeros((self.group_size, cap), np.int64)
            tau_local[:, : self.node_cap] = self.tau_local
            self.tau_local = tau_local
            if self.track_eta:
                eta_local = np.zeros((self.group_size, cap), np.int64)
                eta_local[:, : self.node_cap] = self.eta_local
                self.eta_local = eta_local
                eta_mark = np.zeros((self.group_size, cap), np.uint8)
                eta_mark[:, : self.node_cap] = self.eta_mark
                self.eta_mark = eta_mark
        self.node_cap = cap
        self._call_cache.clear()

    def ensure_edges(self, extra: int) -> None:
        """Guarantee room for ``extra`` more stored edges (and half-edges)."""
        need = int(self.meta[1]) + extra
        if need > self.edge_cap:
            cap = self.edge_cap
            while cap < need:
                cap *= 2
            self.edge_u = _grown(self.edge_u, cap)
            self.edge_v = _grown(self.edge_v, cap)
            self.edge_slot = _grown(self.edge_slot, cap)
            self.edge_tri = _grown(self.edge_tri, cap)
            self.edge_seen = _grown(self.edge_seen, cap)
            self.edge_cap = cap
            self._call_cache.clear()
        need = int(self.meta[0]) + 2 * extra
        if need > self.pool_cap:
            cap = self.pool_cap
            while cap < need:
                cap *= 2
            self.pool_nbr = _grown(self.pool_nbr, cap)
            self.pool_eid = _grown(self.pool_eid, cap)
            self.pool_nxt = _grown(self.pool_nxt, cap)
            self.pool_cap = cap
            self._call_cache.clear()

    # -- edge index -----------------------------------------------------------

    def _sync_pairs(self) -> Dict[Tuple[int, int, int], int]:
        n_edges = int(self.meta[1])
        if self._pair_sync < n_edges:
            index = self._pair_eids
            edge_u = self.edge_u
            edge_v = self.edge_v
            edge_slot = self.edge_slot
            for e in range(self._pair_sync, n_edges):
                index[(int(edge_slot[e]), int(edge_u[e]), int(edge_v[e]))] = e
            self._pair_sync = n_edges
        return self._pair_eids

    def find_edge(self, slot: int, a: int, b: int) -> Optional[int]:
        """Return the eid of the id-ordered pair ``(a, b)`` on ``slot``."""
        return self._sync_pairs().get((slot, a, b))

    def append_edge(self, iu: int, iv: int, slot: int) -> None:
        """Cold-path insert of one edge (see :meth:`append_edges`)."""
        a, b = (iu, iv) if iu < iv else (iv, iu)
        self.append_edges([a], [b], [slot])

    def append_edges(self, us: Sequence[int], vs: Sequence[int], ss: Sequence[int]) -> None:
        """Insert id-ordered pairs ``us[k] < vs[k]`` on slots ``ss[k]`` in
        one compiled call (restore/seed/merge; per-edge counters zero)."""
        n = len(us)
        self.ensure_nodes(max(vs) + 1)
        self.ensure_edges(n)
        e = int(self.meta[1])
        kernel_mod.append_edges(
            np.array(us, np.int64), np.array(vs, np.int64), np.array(ss, np.int64), self
        )
        if self._pair_sync == e:
            self._pair_eids.update(zip(zip(ss, us, vs), range(e, e + n)))
            self._pair_sync = e + n

    # -- extraction ------------------------------------------------------------

    def adjacency_dict(self, slot: int) -> Dict[int, List[int]]:
        """Interned ``node -> [neighbors]`` of one slot, in eid order."""
        n = int(self.meta[1])
        sel = np.flatnonzero(self.edge_slot[:n] == slot)
        adjacency: Dict[int, List[int]] = {}
        edge_u = self.edge_u
        edge_v = self.edge_v
        for e in sel:
            a = int(edge_u[e])
            b = int(edge_v[e])
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        return adjacency

    def tau_local_dict(self, slot: int) -> Dict[int, int]:
        if not self.track_local:
            return {}
        row = self.tau_local[slot]
        out = {int(i): int(row[i]) for i in np.flatnonzero(row)}
        for node in self.tau_zero[slot]:
            out.setdefault(node, 0)
        return out

    def eta_local_dict(self, slot: int) -> Dict[int, int]:
        if not self.has_eta_local:
            return {}
        row = self.eta_local[slot]
        return {int(i): int(row[i]) for i in np.flatnonzero(self.eta_mark[slot])}

    def edge_triangles_dict(self, slot: int) -> Dict[Tuple[int, int], int]:
        n = int(self.meta[1])
        sel = np.flatnonzero((self.edge_slot[:n] == slot) & (self.edge_seen[:n] != 0))
        edge_u = self.edge_u
        edge_v = self.edge_v
        edge_tri = self.edge_tri
        out = {
            (int(edge_u[e]), int(edge_v[e])): int(edge_tri[e]) for e in sel
        }
        out.update(self.loose_tri[slot])
        return out

    # -- detachment (pane-delta protocol) --------------------------------------

    def take_tau_local(self, slot: int) -> Dict[int, int]:
        if not self.track_local:
            return {}
        row = self.tau_local[slot]
        idx = np.flatnonzero(row)
        out = {int(i): int(row[i]) for i in idx}
        row[idx] = 0
        zeros = self.tau_zero[slot]
        if zeros:
            for node in zeros:
                out.setdefault(node, 0)
            zeros.clear()
        return out

    def take_eta_local(self, slot: int) -> Dict[int, int]:
        if not self.has_eta_local:
            return {}
        row = self.eta_local[slot]
        marks = self.eta_mark[slot]
        idx = np.flatnonzero(marks)
        out = {int(i): int(row[i]) for i in idx}
        row[idx] = 0
        marks[idx] = 0
        return out

    def take_edge_triangles(self) -> List[Dict[Tuple[int, int], int]]:
        """Detach every slot's per-edge counters (eid order, then loose)."""
        n = int(self.meta[1])
        sel = np.flatnonzero(self.edge_seen[:n])
        out: List[Dict[Tuple[int, int], int]] = [{} for _ in range(self.group_size)]
        if len(sel):
            for slot, a, b, tri in zip(
                self.edge_slot[sel].tolist(),
                self.edge_u[sel].tolist(),
                self.edge_v[sel].tolist(),
                self.edge_tri[sel].tolist(),
            ):
                out[slot][(a, b)] = tri
            self.edge_tri[sel] = 0
            self.edge_seen[sel] = 0
        for slot, loose in enumerate(self.loose_tri):
            if loose:
                out[slot].update(loose)
                self.loose_tri[slot] = {}
        return out


class NativeProcessorGroup(ProcessorGroup):
    """:class:`ProcessorGroup` backed by :class:`GroupArrays` + the C kernel.

    Only plain arrays are held, so instances pickle freely — the compiled
    handle is loaded in the receiving process on first use.  All public
    :class:`ProcessorGroup` semantics are preserved bit-identically; the
    inherited ``processors`` list is deliberately set to ``None`` so any
    unported internal access fails loudly instead of reading empty state.
    """

    def __init__(
        self,
        hash_function: EdgeHashFunction,
        group_size: int,
        m: int,
        track_local: bool = True,
        track_eta: bool = False,
        interner: Optional[NodeInterner] = None,
    ) -> None:
        super().__init__(hash_function, group_size, m, track_local, track_eta, interner)
        self.processors = None  # type: ignore[assignment]
        self._node_bits = None  # type: ignore[assignment]
        self._arrays = GroupArrays(group_size, track_local, track_eta)
        self._pairs_cache: Optional[Set[int]] = None

    # -- ingestion -------------------------------------------------------------

    def _ingest(self, iu: int, iv: int, slot: int, first: bool) -> None:
        # One record through the compiled kernel as an n=1 batch (cached
        # argument tuple, see kernel.run_scalar), so the closure walks run
        # at C speed.
        arrays = self._arrays
        arrays.ensure_nodes((iu if iu > iv else iv) + 1)
        store = first and slot < self.group_size
        if store:
            arrays.ensure_edges(1)
        kernel_mod.run_scalar(iu, iv, slot, 1 if store else 0, arrays)
        if store and self._pairs_cache is not None:
            self._pairs_cache.add((iu << 32 | iv) if iu < iv else (iv << 32 | iu))

    def process_encoded(
        self,
        cu: Sequence[int],
        cv: Sequence[int],
        slots: Sequence[int],
        firsts: Sequence[bool],
    ) -> None:
        n = len(cu)
        if n == 0:
            return
        arrays = self._arrays
        cu_a = np.asarray(cu, np.int64)
        cv_a = np.asarray(cv, np.int64)
        slots_a = np.asarray(slots, np.int64)
        firsts_a = np.asarray(firsts, np.uint8)
        # Pre-ensure every capacity: the kernel never grows storage.  Node
        # columns cover the ids this batch references (not the whole shared
        # interner); the store count is exactly the storable first flags.
        arrays.ensure_nodes(max(int(cu_a.max()), int(cv_a.max())) + 1)
        store_mask = (firsts_a != 0) & (slots_a < self.group_size)
        n_stores = int(np.count_nonzero(store_mask))
        if n_stores:
            arrays.ensure_edges(n_stores)
        kernel_mod.run_batch(n, cu_a, cv_a, slots_a, firsts_a, arrays)
        if n_stores and self._pairs_cache is not None:
            self._pairs_cache.update(
                pack_pairs(cu_a[store_mask], cv_a[store_mask]).tolist()
            )

    def _stored_pairs(self) -> Set[int]:
        cache = self._pairs_cache
        if cache is None:
            cache = self._derive_stored_pairs()
            self._pairs_cache = cache
        return cache

    def _derive_stored_pairs(self) -> Set[int]:
        arrays = self._arrays
        n = arrays.n_edges
        return set(pack_pairs(arrays.edge_u[:n], arrays.edge_v[:n]).tolist())

    # -- chunked execution support ---------------------------------------------

    def snapshot(self) -> GroupSnapshot:
        nodes = self.interner.nodes
        arrays = self._arrays
        processors = []
        for slot in range(self.group_size):
            processors.append(
                {
                    "adjacency": {
                        nodes[iu]: [nodes[iv] for iv in neighbors]
                        for iu, neighbors in arrays.adjacency_dict(slot).items()
                    },
                    "tau": int(arrays.tau[slot]),
                    "tau_local": {
                        nodes[node]: value
                        for node, value in arrays.tau_local_dict(slot).items()
                    },
                    "edge_triangles": {
                        canonical_edge(nodes[a], nodes[b]): value
                        for (a, b), value in arrays.edge_triangles_dict(slot).items()
                    },
                    "eta": int(arrays.eta[slot]),
                    "eta_local": {
                        nodes[node]: value
                        for node, value in arrays.eta_local_dict(slot).items()
                    },
                    "edges_stored": int(arrays.edges_stored[slot]),
                }
            )
        return {"group_size": self.group_size, "m": self.m, "processors": processors}

    def restore(self, snapshot: GroupSnapshot) -> None:
        if snapshot["group_size"] != self.group_size or snapshot["m"] != self.m:
            raise ValueError(
                "snapshot shape mismatch: expected "
                f"(group_size={self.group_size}, m={self.m}), got "
                f"(group_size={snapshot['group_size']}, m={snapshot['m']})"
            )
        # Folding into fresh arrays *is* a restore: every prior is zero, so
        # no correction fires and the counters are copied verbatim.
        self._arrays = GroupArrays(self.group_size, self.track_local, self.track_eta)
        self._pairs_cache = None
        intern = self.interner.intern
        self._fold_group(
            [_internalize_processor(entry, intern) for entry in snapshot["processors"]]
        )

    def seed_adjacency(self, stored_edges: Sequence[Tuple[int, NodeId, NodeId]]) -> None:
        group_size = self.group_size
        for slot, u, v in stored_edges:
            if not 0 <= slot < group_size:
                raise ValueError(f"stored edge ({u!r}, {v!r}) names invalid slot {slot}")
        intern = self.interner.intern
        arrays = self._arrays
        index = arrays._sync_pairs()
        # New (slot, lo, hi) keys in record order: the eids a record-by-
        # record insert would assign.
        fresh: Dict[Tuple[int, int, int], None] = {}
        for slot, u, v in stored_edges:
            iu = intern(u)
            iv = intern(v)
            key = (slot, iu, iv) if iu < iv else (slot, iv, iu)
            if key not in index:
                fresh[key] = None
        if not fresh:
            return
        ss, us, vs = zip(*fresh)
        arrays.append_edges(us, vs, ss)
        if self._pairs_cache is not None:
            self._pairs_cache.update(map(pack_pair, us, vs))

    def merge_snapshot(self, snapshot: GroupSnapshot) -> None:
        if snapshot["group_size"] != self.group_size or snapshot["m"] != self.m:
            raise ValueError(
                "cannot merge groups of different shape: expected "
                f"(group_size={self.group_size}, m={self.m}), got "
                f"(group_size={snapshot['group_size']}, m={snapshot['m']})"
            )
        intern = self.interner.intern
        self._fold_group(
            [_internalize_processor(entry, intern) for entry in snapshot["processors"]]
        )
        self._pairs_cache = None

    def _fold_group(self, laters: Sequence[ProcessorCounters]) -> None:
        """Fold every slot's chunk counters into the arrays.

        Mirrors :meth:`ProcessorCounters.merge` slot by slot exactly.  The
        adjacency edges new to each slot are appended first, slot-major and
        id-sorted in one compiled call — the edge ids a slot-at-a-time fold
        would assign — so every ``edge_triangles`` key of a well-formed
        chunk finds its eid; then each slot's per-edge counters fold with
        the closed-form η correction against the *prior* values, and its
        scalar and per-node counters add.  Node columns grow to the ids the
        counters reference, not to the shared interner.
        """
        arrays = self._arrays
        index = arrays._sync_pairs()
        us: List[int] = []
        vs: List[int] = []
        ss: List[int] = []
        top = -1
        for slot, later in enumerate(laters):
            pairs = {
                (iu, iv)
                for iu, neighbors in later.adjacency.items()
                for iv in neighbors
                if iu < iv
            }
            for a, b in sorted(pairs):
                if (slot, a, b) not in index:
                    us.append(a)
                    vs.append(b)
                    ss.append(slot)
            for nodes in (later.tau_local, later.eta_local):
                if nodes:
                    top = max(top, max(nodes))
            if later.edge_triangles:
                top = max(top, max(b for _, b in later.edge_triangles))
        if us:
            arrays.append_edges(us, vs, ss)
        arrays.ensure_nodes(top + 1)
        for slot, later in enumerate(laters):
            self._fold_counters(slot, later)

    def _fold_counters(self, slot: int, later: ProcessorCounters) -> None:
        """Fold one slot's counters; its edges are already appended."""
        arrays = self._arrays
        track_local = self.track_local
        has_eta_local = arrays.has_eta_local
        for key, delta in later.edge_triangles.items():
            a, b = key
            eid = arrays.find_edge(slot, a, b)
            if eid is None:
                loose = arrays.loose_tri[slot]
                prior = loose.get(key, 0)
                loose[key] = prior + delta
            else:
                prior = int(arrays.edge_tri[eid]) if arrays.edge_seen[eid] else 0
                arrays.edge_tri[eid] = prior + delta
                arrays.edge_seen[eid] = 1
            if prior:
                correction = delta * prior
                arrays.eta[slot] += correction
                if track_local and has_eta_local:
                    arrays.eta_local[slot, a] += correction
                    arrays.eta_local[slot, b] += correction
                    arrays.eta_mark[slot, a] = 1
                    arrays.eta_mark[slot, b] = 1
        arrays.tau[slot] += later.tau
        arrays.eta[slot] += later.eta
        if track_local:
            tau_local = arrays.tau_local
            tau_zero = arrays.tau_zero[slot]
            for node, value in later.tau_local.items():
                total = int(tau_local[slot, node]) + value
                tau_local[slot, node] = total
                if total == 0:
                    tau_zero.add(node)
            if has_eta_local:
                eta_local = arrays.eta_local
                eta_mark = arrays.eta_mark
                for node, value in later.eta_local.items():
                    eta_local[slot, node] += value
                    eta_mark[slot, node] = 1
        arrays.edges_stored[slot] += later.edges_stored

    # -- pane-delta protocol ---------------------------------------------------

    def take_pane_deltas(
        self, new_stored: Sequence[Tuple[int, int, int]]
    ) -> List[ProcessorCounters]:
        per_slot_adjacency: List[Dict[int, Set[int]]] = [
            {} for _ in range(self.group_size)
        ]
        for slot, iu, iv in new_stored:
            adjacency = per_slot_adjacency[slot]
            neighbors = adjacency.get(iu)
            if neighbors is None:
                adjacency[iu] = {iv}
            else:
                neighbors.add(iv)
            neighbors = adjacency.get(iv)
            if neighbors is None:
                adjacency[iv] = {iu}
            else:
                neighbors.add(iu)
        arrays = self._arrays
        per_slot_triangles = arrays.take_edge_triangles()
        deltas: List[ProcessorCounters] = []
        for slot in range(self.group_size):
            deltas.append(
                ProcessorCounters(
                    adjacency=per_slot_adjacency[slot],
                    tau=int(arrays.tau[slot]),
                    tau_local=arrays.take_tau_local(slot),
                    edge_triangles=per_slot_triangles[slot],
                    eta=int(arrays.eta[slot]),
                    eta_local=arrays.take_eta_local(slot),
                    edges_stored=int(arrays.edges_stored[slot]),
                )
            )
        arrays.tau[:] = 0
        arrays.eta[:] = 0
        arrays.edges_stored[:] = 0
        return deltas

    def merge_deltas(self, deltas: Sequence[ProcessorCounters]) -> None:
        if len(deltas) != self.group_size:
            raise ValueError(
                f"expected {self.group_size} per-slot deltas, got {len(deltas)}"
            )
        self._fold_group(deltas)
        self._pairs_cache = None

    # -- aggregates ------------------------------------------------------------

    def tau_values(self) -> List[int]:
        return [int(value) for value in self._arrays.tau]

    def eta_values(self) -> List[int]:
        return [int(value) for value in self._arrays.eta]

    def total_edges_stored(self) -> int:
        return int(self._arrays.edges_stored.sum())

    def _local_sums(self, attribute: str, as_float: bool):
        arrays = self._arrays
        nodes = self.interner.nodes
        if attribute == "tau_local":
            if not self.track_local:
                return {}
            sums = arrays.tau_local.sum(axis=0)
            out = {}
            for i in np.flatnonzero(sums):
                out[nodes[int(i)]] = float(sums[i]) if as_float else int(sums[i])
            zero = 0.0 if as_float else 0
            for zeros in arrays.tau_zero:
                for node in zeros:
                    out.setdefault(nodes[node], zero)
            return out
        if not arrays.has_eta_local:
            return {}
        sums = arrays.eta_local.sum(axis=0)
        touched = arrays.eta_mark.any(axis=0)
        return {
            nodes[int(i)]: (float(sums[i]) if as_float else int(sums[i]))
            for i in np.flatnonzero(touched)
        }

    # -- raw-keyed introspection -----------------------------------------------

    def stored_edges(self) -> List[Tuple[int, NodeId, NodeId]]:
        nodes = self.interner.nodes
        arrays = self._arrays
        records: List[Tuple[int, NodeId, NodeId]] = []
        edge_u = arrays.edge_u
        edge_v = arrays.edge_v
        edge_slot = arrays.edge_slot
        for e in range(arrays.n_edges):
            cu, cv = canonical_edge(nodes[int(edge_u[e])], nodes[int(edge_v[e])])
            records.append((int(edge_slot[e]), cu, cv))
        return records

    def stored_neighbors(self, slot: int, node: NodeId) -> Set[NodeId]:
        dense = self.interner.id_of(node)
        if dense is None:
            return set()
        arrays = self._arrays
        if dense >= arrays.node_cap:
            return set()
        nodes = self.interner.nodes
        out: Set[NodeId] = set()
        h = int(arrays.heads[slot, dense])
        while h != -1:
            out.add(nodes[int(arrays.pool_nbr[h])])
            h = int(arrays.pool_nxt[h])
        return out


def make_processor_group(
    hash_function: EdgeHashFunction,
    group_size: int,
    m: int,
    track_local: bool = True,
    track_eta: bool = False,
    interner: Optional[NodeInterner] = None,
    kernel: str = "auto",
) -> ProcessorGroup:
    """Build a processor group honouring a kernel request.

    Resolves ``kernel`` (see :func:`repro.core.kernel.resolve_kernel`) for
    this group's size in *this* process — worker processes re-resolve
    locally, so a pool whose children cannot load the C kernel still runs
    (the counters are bit-identical across kernels; only the top-level
    estimate metadata records the driver's resolved label).
    """
    if kernel_mod.resolve_kernel(kernel, group_size) == "python":
        return ProcessorGroup(
            hash_function, group_size, m, track_local, track_eta, interner
        )
    return NativeProcessorGroup(
        hash_function, group_size, m, track_local, track_eta, interner
    )
