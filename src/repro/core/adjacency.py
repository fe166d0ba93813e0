"""Array-backed processor-group state for the compiled ingestion kernel.

:class:`~repro.core.state.ProcessorGroup` keeps its hot state in Python
dicts and sets — the reference every other path is checked against, but
every probe and store in its
:meth:`~repro.core.state.ProcessorGroup.process_encoded` loop pays
interpreter and hashing overhead.  This module re-hosts one group's state
on flat int64 columns so the C closure+store step (:mod:`repro.core.kernel`)
advances a whole encoded batch — or, in one call for every group of a
state set, one record of the per-edge path — without touching a Python
object:

``GroupArrays``
    The storage: a half-edge pool of singly-linked neighbour chains
    (``pool_nbr``/``pool_eid``/``pool_nxt`` with per-``(slot, node)`` chain
    heads), dense per-node slot bitmasks keyed by interned id, flat edge
    records (``edge_u``/``edge_v``/``edge_slot``/``edge_tri``) and per-slot
    counter rows.  Growth is amortised doubling with contiguous
    reallocation, and the compiled calls never allocate: a batch's
    capacities are ensured before its call, and the per-edge call reports
    a group short of room instead of writing, so the caller grows it and
    calls again.  The group's state record
    (:class:`~repro.core.kernel.GroupRecord`) holds the columns' addresses
    and capacities; every growth rewrites it, a reset hands it on to the
    new columns, and it is never pickled.  There is no separate edge
    index: an edge's row in the flat columns (its *eid*) is found by the
    compiled lookup, which walks both endpoints' neighbour chains on the
    edge's slot in lockstep.

``NativeProcessorGroup``
    A drop-in :class:`~repro.core.state.ProcessorGroup` subclass backed by
    ``GroupArrays``.  It supplies the three primitives every state
    boundary is built on (see :mod:`repro.core.portable`): ``columns``
    reads the state as a :class:`~repro.core.portable.ColumnarDelta` with
    one scan per counter block, ``merge_deltas`` folds one — new edges are
    appended in one compiled call, the per-edge counters fold with the
    exact η correction in another, and node cells and slot rows are numpy
    adds — and ``reset`` drops the state.  Snapshots, restores, merges,
    pane deltas, aggregates and stored-edge introspection are
    bit-identical to the dict reference (asserted by the kernel-parity,
    pane-delta and state-format property suites), so no per-edge Python
    object is built at any boundary.

Dict-equivalence notes (the subtle bits the parity suites pin down):

* ``tau_local`` entries in the dict implementation are created only with
  strictly positive increments, so non-zero array cells recover the dict
  exactly.  Explicit zero or negative entries could only arrive through a
  merged snapshot, and the portable reader rejects any part with a
  negative counter or a zero ``τ_v`` cell.
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

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import kernel as kernel_mod
from repro.core.interning import NodeInterner, pack_pairs
from repro.core.portable import ColumnarDelta, columns
from repro.core.state import ProcessorGroup, _check_group_size, _id_ordered
from repro.hashing.base import EdgeHashFunction

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
    kernel advances in place: ``[n_half, n_edges, epoch]``.  ``record`` is
    the :class:`~repro.core.kernel.GroupRecord` the compiled calls read;
    every growth rewrites it, and a group that resets passes its record
    on, so its address stays the group's for life.
    """

    def __init__(
        self,
        group_size: int,
        track_local: bool,
        track_eta: bool,
        record: Optional[kernel_mod.GroupRecord] = None,
    ) -> None:
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
        self.record = record if record is not None else kernel_mod.GroupRecord()
        kernel_mod.sync_record(self.record, self)

    def __getstate__(self):
        # Raw addresses are never pickled: an unpickled state writes a new
        # record (and its group binds the hash into it).
        state = self.__dict__.copy()
        del state["record"]
        return state

    def __setstate__(self, state) -> None:
        # Older pickles carry a (slot, u, v) -> eid dict and its sync mark,
        # which the compiled lookup replaced, and explicit zero τ_v cells,
        # which no kernel writes.
        state.pop("_pair_eids", None)
        state.pop("_pair_sync", None)
        state.pop("tau_zero", None)
        self.__dict__.update(state)
        self.record = kernel_mod.GroupRecord()
        kernel_mod.sync_record(self.record, self)

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
        kernel_mod.sync_record(self.record, self)

    def ensure_edges(self, extra: int) -> None:
        """Guarantee room for ``extra`` more stored edges (and half-edges)."""
        grown = False
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
            grown = True
        need = int(self.meta[0]) + 2 * extra
        if need > self.pool_cap:
            cap = self.pool_cap
            while cap < need:
                cap *= 2
            self.pool_nbr = _grown(self.pool_nbr, cap)
            self.pool_eid = _grown(self.pool_eid, cap)
            self.pool_nxt = _grown(self.pool_nxt, cap)
            self.pool_cap = cap
            grown = True
        if grown:
            kernel_mod.sync_record(self.record, self)

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
            a, b = columns(keys, 2)
            eids = kernel_mod.find_edges(np.full(len(keys), slot), a, b, self)
            for key, eid in zip(keys, eids.tolist()):
                if eid >= 0:
                    value = loose.pop(key)
                    if not self.edge_seen[eid]:
                        self.edge_tri[eid] = value
                        self.edge_seen[eid] = 1

    # -- extraction and detachment ---------------------------------------------

    def columns(self) -> ColumnarDelta:
        """Every stored edge and counter as a :class:`ColumnarDelta`; changes nothing."""
        n = int(self.meta[1])
        edges = np.stack((self.edge_slot[:n], self.edge_u[:n], self.edge_v[:n]))
        tri, _ = self._tri()
        tau_cells, _ = self._cells(self.tau_local, self.tau_local)
        eta_cells, _ = self._cells(self.eta_local, self.eta_mark)
        return ColumnarDelta(edges, tri, tau_cells, eta_cells, self._rows())

    def detach(self, new_stored: np.ndarray) -> ColumnarDelta:
        """Detach every counter as a :class:`ColumnarDelta` and zero it.

        ``new_stored`` holds the ``(slot, u, v)`` columns of the edges
        stored since the last detach; the adjacency stays.  Each counter
        block is scanned once, for both the columns and the zeroing.
        """
        tri, sel = self._tri()
        self.edge_tri[sel] = 0
        self.edge_seen[sel] = 0
        self.loose_tri = [{} for _ in range(self.group_size)]
        tau_cells, idx = self._cells(self.tau_local, self.tau_local)
        self.tau_local.reshape(-1)[idx] = 0
        eta_cells, idx = self._cells(self.eta_local, self.eta_mark)
        self.eta_local.reshape(-1)[idx] = 0
        self.eta_mark.reshape(-1)[idx] = 0
        rows = self._rows()
        self.tau[:] = 0
        self.eta[:] = 0
        self.edges_stored[:] = 0
        return ColumnarDelta(_id_ordered(new_stored), tri, tau_cells, eta_cells, rows)

    def _rows(self) -> np.ndarray:
        return np.stack((self.tau, self.eta, self.edges_stored))

    def _tri(self) -> Tuple[np.ndarray, np.ndarray]:
        """The per-edge counter columns, loose ones last, and the eids of the stored ones."""
        n = int(self.meta[1])
        sel = np.flatnonzero(self.edge_seen[:n])
        tri = np.stack(
            (self.edge_slot[sel], self.edge_u[sel], self.edge_v[sel], self.edge_tri[sel])
        )
        loose = [
            (slot, a, b, value)
            for slot, counters in enumerate(self.loose_tri)
            for (a, b), value in counters.items()
        ]
        if loose:
            tri = np.concatenate((tri, columns(loose, 4)), axis=1)
        return tri, sel

    def _cells(self, values: np.ndarray, marks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The marked ``(slot, node, value)`` cells of a per-(slot, node) block
        and their flat indices.  An untracked block is a ``(1, 1)`` zero
        placeholder nothing writes, so it yields no cells."""
        idx = np.flatnonzero(marks.reshape(-1))
        slots, nodes = np.divmod(idx, self.node_cap)
        return np.stack((slots, nodes, values.reshape(-1)[idx])), idx


class NativeProcessorGroup(ProcessorGroup):
    """:class:`ProcessorGroup` backed by :class:`GroupArrays` + the C kernel.

    Only plain arrays are held, so instances pickle freely — the compiled
    handle is loaded in the receiving process on first use, and the group
    binds its hash into a new record there.  The hash must be one of the
    two families the compiled per-edge hash ports
    (:func:`~repro.core.kernel.bind_hash`).  All public
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
        kernel_mod.bind_hash(self._arrays.record, hash_function)
        self._pairs_cache: Optional[Set[int]] = None

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        kernel_mod.bind_hash(self._arrays.record, self.hash_function)

    # -- ingestion -------------------------------------------------------------

    def _after_store(self, pair: int) -> None:
        """Bookkeeping once the per-edge call stored the packed ``pair`` here."""
        if self._pairs_cache is not None:
            self._pairs_cache.add(pair)
        if any(self._arrays.loose_tri):
            self._arrays.settle_loose()

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
        kernel_mod.run_batch(n, cu_a, cv_a, slots_a, firsts_a, arrays.record)
        if n_stores:
            if self._pairs_cache is not None:
                self._pairs_cache.update(
                    pack_pairs(cu_a[store_mask], cv_a[store_mask]).tolist()
                )
            if any(arrays.loose_tri):
                arrays.settle_loose()

    # -- the kernel primitives: columns, fold and reset -------------------------

    def columns(self) -> ColumnarDelta:
        return self._arrays.columns()

    def reset(self) -> None:
        self._arrays = GroupArrays(
            self.group_size, self.track_local, self.track_eta, record=self._arrays.record
        )
        self._pairs_cache = None

    def merge_deltas(self, delta: ColumnarDelta) -> None:
        """Fold a whole group's columns, slot by slot exactly like
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
        _check_group_size(delta, self.group_size)
        arrays = self._arrays
        edges = delta.edges
        tri = delta.tri
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
            cells = delta.eta_cells
            if arrays.has_eta_local and cells.shape[1]:
                slots, nodes, values = cells
                np.add.at(arrays.eta_local, (slots, nodes), values)
                arrays.eta_mark[slots, nodes] = 1
        rows = delta.rows
        arrays.tau += rows[0]
        arrays.eta += rows[1]
        arrays.edges_stored += rows[2]
        self._pairs_cache = None

    def take_pane_deltas(self, new_stored: np.ndarray) -> ColumnarDelta:
        return self._arrays.detach(new_stored)

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
            return {
                nodes[int(i)]: (float(sums[i]) if as_float else int(sums[i]))
                for i in np.flatnonzero(sums)
            }
        if not arrays.has_eta_local:
            return {}
        sums = arrays.eta_local.sum(axis=0)
        touched = arrays.eta_mark.any(axis=0)
        return {
            nodes[int(i)]: (float(sums[i]) if as_float else int(sums[i]))
            for i in np.flatnonzero(touched)
        }


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
