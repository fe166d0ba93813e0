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
    call, so the compiled loop never allocates.  There is no separate edge
    index: an edge's row in the flat columns (its *eid*) is found by the
    compiled lookup, which walks both endpoints' neighbour chains on the
    edge's slot in lockstep.

``ColumnarDelta``
    One group's pane delta (or snapshot, once internalised) as int64
    columns: pane-new stored edges, detached per-edge counters, the
    touched ``τ_v``/``η_v`` cells and the per-slot counter rows.  It reads
    as a sequence of per-slot :class:`~repro.core.state.ProcessorCounters`,
    built only when indexed, so every consumer of the dict protocol still
    works; the monitor's hot path never indexes it.

``NativeProcessorGroup``
    A drop-in :class:`~repro.core.state.ProcessorGroup` subclass backed by
    ``GroupArrays``.  Public semantics — snapshot/restore/merge, the
    pane-delta protocol, aggregates and stored-edge introspection — are
    preserved exactly (bit-identical counters, asserted by the kernel-parity
    and pane-delta property suites), so the elastic, durable and monitor
    paths are untouched at their boundaries.
    ``restore``, ``merge_snapshot`` and ``merge_deltas`` share one fold
    (:meth:`NativeProcessorGroup._fold_group`): new edges are appended in
    one compiled call, the per-edge counters fold with the exact η
    correction in another, and node cells and slot rows are numpy adds.

Dict-equivalence notes (the subtle bits the parity suites pin down):

* ``tau_local`` entries in the dict implementation are created only with
  strictly positive increments, so non-zero array cells recover the dict
  exactly; explicit zero-valued entries can only arrive via merges of
  pathological snapshots and are preserved in ``tau_zero`` side sets.
  Counts are non-negative: a merged negative ``τ_v`` that later cancels
  to zero leaves the dict a zero entry the arrays do not record.
* ``eta_local`` *does* receive zero increments in normal operation
  (``count_uw`` may be 0 when the wedge edge was stored this instant), and
  the dict keeps those explicit zero entries — ``eta_mark`` records
  touched cells so extraction reproduces them.
* ``edge_triangles`` is keyed by stored edges but a merged snapshot may
  contain keys whose edge is not in the adjacency; those live in the
  ``loose_tri`` side dicts and fold with the same η correction.  Once such
  an edge is stored, its loose counter moves onto the edge
  (:meth:`GroupArrays.settle_loose`), unless the ingest loop already set
  the edge's counter — the dict reference overwrites the key there.
* ``edge_tri``/``edge_seen`` carry the *detachable* per-edge counters: the
  pane-delta protocol zeroes them while the adjacency (pool, heads,
  bitmasks) stays — exactly the seeded-at-a-boundary state the merge
  contract expects.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import kernel as kernel_mod
from repro.core.interning import NodeInterner, pack_pairs
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


def _columns(records, width: int) -> np.ndarray:
    """``(width, n)`` C-contiguous int64 columns of ``n`` int records."""
    return np.array(records, np.int64).reshape(-1, width).T.copy()


def _cell_dict(cells: np.ndarray, slot: int) -> Dict[int, int]:
    sel = cells[0] == slot
    return dict(zip(cells[1, sel].tolist(), cells[2, sel].tolist()))


class ColumnarDelta(SequenceABC):
    """One native group's counters as int64 columns (see module docstring).

    Every column block is a C-contiguous int64 array with one column per
    entry:

    * ``edges`` ``(3, n)`` — slot, lo, hi of the stored edges the delta
      adds (the pane-new ones for a pane delta), id-ordered;
    * ``tri`` ``(4, n)`` — slot, lo, hi, value of the per-edge counters
      ``τ_(u,v)``;
    * ``tau_cells`` ``(3, n)`` — slot, node, value of the ``τ_v`` entries
      (explicit zero entries are cells with value 0);
    * ``eta_cells`` ``(3, n)`` — slot, node, value of the ``η_v`` entries;
    * ``rows`` ``(3, group_size)`` — ``τ``, ``η`` and ``edges_stored`` per
      slot.

    ``loose`` is ``None`` or the per-slot dicts of per-edge counters whose
    edge the group does not store (rare; they ride along as they are).

    Read-only :class:`~collections.abc.Sequence` of ``group_size``
    :class:`~repro.core.state.ProcessorCounters`, each built when indexed,
    so code written against per-slot counters (snapshot externalisation,
    the dict group's merge) reads it unchanged.
    """

    __slots__ = ("edges", "tri", "tau_cells", "eta_cells", "rows", "loose")

    def __init__(
        self,
        edges: np.ndarray,
        tri: np.ndarray,
        tau_cells: np.ndarray,
        eta_cells: np.ndarray,
        rows: np.ndarray,
        loose: Optional[List[Dict[Tuple[int, int], int]]] = None,
    ) -> None:
        self.edges = edges
        self.tri = tri
        self.tau_cells = tau_cells
        self.eta_cells = eta_cells
        self.rows = rows
        self.loose = loose

    def __len__(self) -> int:
        return self.rows.shape[1]

    def __getitem__(self, slot: int) -> ProcessorCounters:
        size = len(self)
        if slot < 0:
            slot += size
        if not 0 <= slot < size:
            raise IndexError("slot index out of range")
        adjacency: Dict[int, Set[int]] = {}
        edges = self.edges
        for a, b in zip(*edges[1:, edges[0] == slot].tolist()):
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        tri = self.tri
        sel = tri[0] == slot
        edge_triangles = dict(zip(zip(*tri[1:3, sel].tolist()), tri[3, sel].tolist()))
        if self.loose is not None:
            edge_triangles.update(self.loose[slot])
        rows = self.rows
        return ProcessorCounters(
            adjacency=adjacency,
            tau=int(rows[0, slot]),
            tau_local=_cell_dict(self.tau_cells, slot),
            edge_triangles=edge_triangles,
            eta=int(rows[1, slot]),
            eta_local=_cell_dict(self.eta_cells, slot),
            edges_stored=int(rows[2, slot]),
        )


def _counter_columns(laters: Sequence[ProcessorCounters]) -> ColumnarDelta:
    """The :class:`ColumnarDelta` of per-slot (interned) counters.

    ``edge_triangles`` keys must be id-ordered, as interned counters'
    keys are.
    """
    edges = []
    tri = []
    tau_cells = []
    eta_cells = []
    rows = np.zeros((3, len(laters)), np.int64)
    for slot, later in enumerate(laters):
        for a, neighbors in later.adjacency.items():
            edges.extend((slot, a, b) for b in neighbors if a < b)
        tri.extend((slot, a, b, value) for (a, b), value in later.edge_triangles.items())
        tau_cells.extend((slot, node, value) for node, value in later.tau_local.items())
        eta_cells.extend((slot, node, value) for node, value in later.eta_local.items())
        rows[:, slot] = (later.tau, later.eta, later.edges_stored)
    return ColumnarDelta(
        _columns(edges, 3),
        _columns(tri, 4),
        _columns(tau_cells, 3),
        _columns(eta_cells, 3),
        rows,
    )


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
        # Older pickles carry a (slot, u, v) -> eid dict and its sync mark;
        # the compiled lookup replaced them.
        state.pop("_pair_eids", None)
        state.pop("_pair_sync", None)
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

    # -- edge lookup and insertion ---------------------------------------------

    def find_edge(self, slot: int, a: int, b: int) -> Optional[int]:
        """Return the eid of the pair ``{a, b}`` on ``slot``, if stored."""
        if a >= self.node_cap or b >= self.node_cap:
            return None
        eid = int(kernel_mod.find_edges(np.array([slot]), np.array([a]), np.array([b]), self)[0])
        return None if eid < 0 else eid

    def append_edge(self, iu: int, iv: int, slot: int) -> None:
        """Cold-path insert of one edge (see :meth:`append_edges`)."""
        a, b = (iu, iv) if iu < iv else (iv, iu)
        self.append_edges([a], [b], [slot])

    def append_edges(self, us: Sequence[int], vs: Sequence[int], ss: Sequence[int]) -> None:
        """Insert id-ordered pairs ``us[k] < vs[k]`` on slots ``ss[k]`` in
        one compiled call (restore/seed/merge; per-edge counters zero,
        apart from loose counters the new edges settle)."""
        us = np.asarray(us, np.int64)
        vs = np.asarray(vs, np.int64)
        ss = np.asarray(ss, np.int64)
        self.ensure_nodes(int(vs.max()) + 1)
        self.ensure_edges(len(us))
        kernel_mod.append_edges(us, vs, ss, self)
        self.settle_loose()

    def settle_loose(self) -> None:
        """Move each loose per-edge counter whose edge is now stored onto it.

        The dict reference keeps one ``edge_triangles`` entry per key, so a
        loose counter becomes the stored edge's prior — unless the ingest
        loop already set that edge's counter at store time, which the dict
        loop does by overwriting the key; then the loose value is dropped.
        """
        for slot, loose in enumerate(self.loose_tri):
            if not loose:
                continue
            keys = list(loose)
            a, b = _columns(keys, 2)
            eids = kernel_mod.find_edges(np.full(len(keys), slot), a, b, self)
            for key, eid in zip(keys, eids.tolist()):
                if eid >= 0:
                    value = loose.pop(key)
                    if not self.edge_seen[eid]:
                        self.edge_tri[eid] = value
                        self.edge_seen[eid] = 1

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

    def detach(self, new_stored: np.ndarray) -> ColumnarDelta:
        """Detach every counter as a :class:`ColumnarDelta` and zero it.

        ``new_stored`` holds the ``(slot, u, v)`` columns of the edges
        stored since the last detach; the adjacency stays.
        """
        slots, u, v = new_stored
        edges = np.stack((slots, np.minimum(u, v), np.maximum(u, v)))
        n = int(self.meta[1])
        sel = np.flatnonzero(self.edge_seen[:n])
        tri = np.stack(
            (self.edge_slot[sel], self.edge_u[sel], self.edge_v[sel], self.edge_tri[sel])
        )
        self.edge_tri[sel] = 0
        self.edge_seen[sel] = 0
        loose = None
        if any(self.loose_tri):
            loose = self.loose_tri
            self.loose_tri = [{} for _ in range(self.group_size)]
        rows = np.stack((self.tau, self.eta, self.edges_stored))
        self.tau[:] = 0
        self.eta[:] = 0
        self.edges_stored[:] = 0
        return ColumnarDelta(
            edges, tri, self._take_tau_cells(), self._take_eta_cells(), rows, loose
        )

    def _take_tau_cells(self) -> np.ndarray:
        if not self.track_local:
            return _columns((), 3)
        flat = self.tau_local.reshape(-1)
        idx = np.flatnonzero(flat)
        slots, nodes = np.divmod(idx, self.node_cap)
        cells = np.stack((slots, nodes, flat[idx]))
        if any(self.tau_zero):
            zeros = [
                (slot, node, 0)
                for slot, members in enumerate(self.tau_zero)
                for node in members
                if self.tau_local[slot, node] == 0
            ]
            cells = np.concatenate((cells, _columns(zeros, 3)), axis=1)
            for members in self.tau_zero:
                members.clear()
        flat[idx] = 0
        return cells

    def _take_eta_cells(self) -> np.ndarray:
        if not self.has_eta_local:
            return _columns((), 3)
        marks = self.eta_mark.reshape(-1)
        idx = np.flatnonzero(marks)
        flat = self.eta_local.reshape(-1)
        slots, nodes = np.divmod(idx, self.node_cap)
        cells = np.stack((slots, nodes, flat[idx]))
        flat[idx] = 0
        marks[idx] = 0
        return cells


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
        if store:
            if self._pairs_cache is not None:
                self._pairs_cache.add((iu << 32 | iv) if iu < iv else (iv << 32 | iu))
            if any(arrays.loose_tri):
                arrays.settle_loose()

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
        if n_stores:
            if self._pairs_cache is not None:
                self._pairs_cache.update(
                    pack_pairs(cu_a[store_mask], cv_a[store_mask]).tolist()
                )
            if any(arrays.loose_tri):
                arrays.settle_loose()

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

    # -- snapshot / merge ------------------------------------------------------

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
            _counter_columns(
                [_internalize_processor(entry, intern) for entry in snapshot["processors"]]
            )
        )

    def merge_snapshot(self, snapshot: GroupSnapshot) -> None:
        if snapshot["group_size"] != self.group_size or snapshot["m"] != self.m:
            raise ValueError(
                "cannot merge groups of different shape: expected "
                f"(group_size={self.group_size}, m={self.m}), got "
                f"(group_size={snapshot['group_size']}, m={snapshot['m']})"
            )
        intern = self.interner.intern
        self._fold_group(
            _counter_columns(
                [_internalize_processor(entry, intern) for entry in snapshot["processors"]]
            )
        )
        self._pairs_cache = None

    def _fold_group(self, delta: ColumnarDelta) -> None:
        """Fold a whole group's counters, slot by slot exactly like
        :meth:`ProcessorCounters.merge`.

        1. The stored edges new to each slot are sorted slot-major and by
           id — the edge ids a slot-at-a-time fold would assign — and the
           ones not already stored are appended in one compiled call (their
           loose counters settle onto them as priors).
        2. The per-edge counters fold in one compiled call that finds each
           eid by a chain walk and applies the closed-form η correction
           against the prior value; counters whose edge is not stored fold
           into the loose side dicts the same way.
        3. ``τ_v``/``η_v`` cells and the slot rows are numpy adds.

        Node columns grow to the ids the delta references, not to the
        shared interner.
        """
        arrays = self._arrays
        edges = delta.edges
        tri = delta.tri
        if delta.loose is not None:
            extra = [
                (slot, a, b, value)
                for slot, loose in enumerate(delta.loose)
                for (a, b), value in loose.items()
            ]
            if extra:
                tri = np.concatenate((tri, _columns(extra, 4)), axis=1)
        top = -1
        for ids in (edges[1:], tri[1:3], delta.tau_cells[1], delta.eta_cells[1]):
            if ids.size:
                top = max(top, int(ids.max()))
        arrays.ensure_nodes(top + 1)

        if edges.shape[1]:
            ss, us, vs = edges[:, np.lexsort((edges[2], edges[1], edges[0]))]
            new = np.ones(len(ss), bool)
            new[1:] = (ss[1:] != ss[:-1]) | (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
            new &= kernel_mod.find_edges(ss, us, vs, arrays) < 0
            if new.any():
                arrays.append_edges(us[new], vs[new], ss[new])

        if tri.shape[1]:
            misses = kernel_mod.fold_edge_counters(tri[0], tri[1], tri[2], tri[3], arrays)
            for slot, a, b, value in zip(*tri[:, misses].tolist()):
                loose = arrays.loose_tri[slot]
                prior = loose.get((a, b), 0)
                loose[(a, b)] = prior + value
                if prior:
                    correction = value * prior
                    arrays.eta[slot] += correction
                    if arrays.has_eta_local:
                        arrays.eta_local[slot, a] += correction
                        arrays.eta_local[slot, b] += correction
                        arrays.eta_mark[slot, a] = 1
                        arrays.eta_mark[slot, b] = 1

        if self.track_local:
            cells = delta.tau_cells
            if cells.shape[1]:
                slots, nodes, values = cells
                np.add.at(arrays.tau_local, (slots, nodes), values)
                zero = arrays.tau_local[slots, nodes] == 0
                for slot, node in zip(slots[zero].tolist(), nodes[zero].tolist()):
                    arrays.tau_zero[slot].add(node)
            cells = delta.eta_cells
            if arrays.has_eta_local and cells.shape[1]:
                slots, nodes, values = cells
                np.add.at(arrays.eta_local, (slots, nodes), values)
                arrays.eta_mark[slots, nodes] = 1
        rows = delta.rows
        arrays.tau += rows[0]
        arrays.eta += rows[1]
        arrays.edges_stored += rows[2]

    # -- pane-delta protocol ---------------------------------------------------

    def take_pane_deltas(self, new_stored: np.ndarray) -> ColumnarDelta:
        return self._arrays.detach(new_stored)

    def merge_deltas(self, deltas: Sequence[ProcessorCounters]) -> None:
        if len(deltas) != self.group_size:
            raise ValueError(
                f"expected {self.group_size} per-slot deltas, got {len(deltas)}"
            )
        if not isinstance(deltas, ColumnarDelta):
            deltas = _counter_columns(deltas)
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
