"""Array-backed processor-group state for the compiled ingestion kernel.

:class:`~repro.core.state.ProcessorGroup` keeps its hot state in Python
dicts and sets — the reference every other path is checked against, but
every probe and store in its
:meth:`~repro.core.state.ProcessorGroup.process_encoded` loop pays
interpreter and hashing overhead.  This module re-hosts one group's state
on flat int64 columns so the C record loop (:mod:`repro.core.kernel`),
which hashes each record's edge key to the group's slot and runs the
closure+store step, advances every group of a state set over a whole
encoded batch in one call (:func:`ingest_batch`, the groups on threads
of their own when they have enough records left and the room to store
them), or over one record of the per-edge path, without touching a
Python object:

``GroupArrays``
    The storage: a half-edge pool of singly-linked neighbour chains
    (``pool_nbr``/``pool_eid``/``pool_nxt``), flat edge records
    (``edge_u``/``edge_v``/``edge_slot``/``edge_tri``), per-slot counter
    rows and a pool of *cells*, one per ``(slot, node)`` where the node
    holds the slot — the bitmap-indexed node of Bagwell's hash array mapped
    trie ("Ideal Hash Trees", 2001).  ``node_bits[x]`` is node ``x``'s slot
    mask and ``node_base[x]`` the start of its block of cells, one per set
    bit in slot order, so slot ``s``'s cell sits at ``node_base[x] +
    popcount(node_bits[x] & ((1 << s) - 1))``.  A cell holds the head of
    the node's neighbour chain on that slot (``cell_head``, -1 for an empty
    chain) and, when the group tracks them, ``τ_v``, ``η_v`` and the η mark
    (``cell_tau``/``cell_eta``/``cell_mark``).  A node gains a slot when it
    stores its first edge there, or when a fold gives it a ``τ_v`` or
    ``η_v`` on a slot where it stores no edge; that cell's chain stays
    empty.  So a group's memory follows its sample, not the largest
    interned id.

    Growth is amortised doubling with contiguous reallocation, and the
    compiled calls never allocate.  Node capacity is ensured before a
    batch, from the largest id it references.  A node that gains a slot
    moves its block to the end of the cell pool, or grows it in place if
    it ends the pool; the cells it leaves are zeroed and counted dead.  A
    compiled entry that would run out of room stops before the record (or
    edge, or counter) that does not fit and returns its index; the group
    makes room for one stored record (:meth:`GroupArrays.make_room`) and
    the entry resumes there.  The batch call of a state set reports each
    group's stop, so only the groups that stopped grow, all on the calling
    thread, before it runs again (:func:`ingest_batch`); the cold-path
    folds resume one group at a time (:meth:`GroupArrays.fill`).  The edge
    columns and the half-edge pool double, and the cell pool doubles or,
    when its dead cells outnumber the live ones, is compacted in one pass.
    The per-edge call reports a group short of room instead of writing, so
    the caller makes the same room and calls again.  The group's state
    record (:class:`~repro.core.kernel.GroupRecord`) holds the columns' addresses
    and capacities; every growth and compaction rewrites it, a reset hands
    it on to the new columns, and it is never pickled.  There is no
    separate edge index: an edge's row in the flat columns (its *eid*) is
    found by the compiled lookup, which walks both endpoints' neighbour
    chains on the edge's slot in lockstep.

``NativeProcessorGroup``
    A drop-in :class:`~repro.core.state.ProcessorGroup` subclass backed by
    ``GroupArrays``.  A standalone group (a cluster shard's, say) ingests a
    batch as the one-group case of :func:`ingest_batch`.  It supplies the
    three primitives every state boundary is built on (see
    :mod:`repro.core.portable`): ``columns`` reads the state as a
    :class:`~repro.core.portable.ColumnarDelta`, its
    ``τ_v``/``η_v`` entries in one compiled pass over the occupied cells,
    ``merge_deltas`` folds one — new edges are appended in one compiled
    call, the per-edge counters fold with the exact η correction in
    another, ``τ_v``/``η_v`` entries add onto cells in a third, and slot
    rows are numpy adds — and ``reset`` drops the state.  Snapshots,
    restores, merges, pane deltas, aggregates and stored-edge
    introspection are bit-identical to the dict reference (asserted by the
    kernel-parity, pane-delta, cell-layout and state-format property
    suites), so no per-edge Python object is built at any boundary.

Dict-equivalence notes (the subtle bits the parity suites pin down):

* ``tau_local`` entries in the dict implementation are created only with
  strictly positive increments, so the non-zero ``cell_tau`` values
  recover the dict exactly.  Explicit zero or negative entries could only
  arrive through a merged snapshot, and the portable reader rejects any
  part with a negative counter or a zero ``τ_v`` cell.
* ``eta_local`` *does* receive zero increments in normal operation
  (``count_uw`` may be 0 when the wedge edge was stored this instant), and
  the dict keeps those explicit zero entries — ``cell_mark`` records
  touched cells so extraction reproduces them.
* A dict entry for a node on a slot where it stores no edge (from a
  restored part, or from the η correction of a loose per-edge counter)
  is a cell with an empty chain: the closure walks it as nothing, so the
  counters stay exact.
* ``edge_triangles`` is keyed by stored edges but a merged snapshot may
  contain keys whose edge is not in the adjacency; those live in the
  ``loose_tri`` side dicts and fold with the same η correction.  Once such
  an edge is stored, its loose counter moves onto the edge
  (:meth:`GroupArrays.settle_loose`), unless the ingest loop already set
  the edge's counter — the dict reference overwrites the key there.
* ``edge_tri``/``edge_seen`` carry the *detachable* per-edge counters: the
  pane-delta protocol zeroes them and the cells' counters while the
  adjacency (pool, cells, bitmasks) stays — exactly the
  seeded-at-a-boundary state the merge contract expects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernel as kernel_mod
from repro.core.interning import NodeInterner
from repro.core.portable import ColumnarDelta, columns
from repro.core.state import ProcessorGroup, _check_group_size, _id_ordered
from repro.hashing.base import EdgeHashFunction

_INIT_NODES = 64
_INIT_EDGES = 64
_INIT_CELLS = 64


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
    kernel advances in place: ``[n_half, n_edges, epoch, n_cells,
    n_dead]``, the last two being the cells in use at the pool's front and
    the abandoned (zeroed) ones among them.  ``record`` is the
    :class:`~repro.core.kernel.GroupRecord` the compiled calls read; every
    growth and compaction rewrites it, and a group that resets passes its
    record on, so its address stays the group's for life.
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
        self.cell_cap = _INIT_CELLS
        # Per-node columns (indexed by interned id): the slots the node
        # holds and where its block of cells starts, and the closure walk's
        # scratch.
        self.node_bits = np.zeros(self.node_cap, np.int64)
        self.node_base = np.zeros(self.node_cap, np.int64)
        self.mark = np.zeros(self.node_cap, np.int64)
        self.mark_eid = np.zeros(self.node_cap, np.int64)
        # The cell pool: one cell per (slot, node) the node holds, with the
        # head of its neighbour chain and, when tracked, τ_v, η_v and the
        # η mark.
        self.cell_head, self.cell_tau, self.cell_eta, self.cell_mark = self._cell_columns(
            self.cell_cap
        )
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
        self.meta = np.zeros(5, np.int64)
        # Side state the flat columns cannot express (see module docstring).
        self.loose_tri: List[Dict[Tuple[int, int], int]] = [
            {} for _ in range(group_size)
        ]
        self.record = record if record is not None else kernel_mod.GroupRecord()
        kernel_mod.sync_record(self.record, self)

    def _cell_columns(self, cap: int) -> Tuple[np.ndarray, ...]:
        """Zeroed ``cell_head``, ``cell_tau``, ``cell_eta`` and ``cell_mark``
        columns of ``cap`` cells; an untracked one is a one-entry
        placeholder nothing writes."""
        tau_cap = cap if self.track_local else 1
        eta_cap = cap if self.has_eta_local else 1
        return (
            np.zeros(cap, np.int64),
            np.zeros(tau_cap, np.int64),
            np.zeros(eta_cap, np.int64),
            np.zeros(eta_cap, np.uint8),
        )

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
        if "heads" in state:
            self._cells_from_dense()
        self.record = kernel_mod.GroupRecord()
        kernel_mod.sync_record(self.record, self)

    def _cells_from_dense(self) -> None:
        """Convert the dense ``group_size × node_cap`` blocks of an older
        pickle: every chain head, non-zero ``τ_v`` and marked ``η_v`` becomes
        a cell, node by node."""
        heads = self.__dict__.pop("heads")
        tau_local = self.__dict__.pop("tau_local")
        eta_local = self.__dict__.pop("eta_local")
        eta_mark = self.__dict__.pop("eta_mark")
        held = heads != -1
        if self.track_local:
            held |= tau_local != 0
        if self.has_eta_local:
            held |= eta_mark != 0
        nodes, slots = np.nonzero(held.T)
        n = len(nodes)
        cap = _INIT_CELLS
        while cap < n:
            cap *= 2
        self.cell_cap = cap
        self.cell_head, self.cell_tau, self.cell_eta, self.cell_mark = self._cell_columns(cap)
        self.cell_head[:n] = heads[slots, nodes]
        if self.track_local:
            self.cell_tau[:n] = tau_local[slots, nodes]
        if self.has_eta_local:
            self.cell_eta[:n] = eta_local[slots, nodes]
            self.cell_mark[:n] = eta_mark[slots, nodes]
        self.node_bits = np.zeros(self.node_cap, np.int64)
        np.add.at(self.node_bits, nodes, np.left_shift(1, slots))
        counts = np.bincount(nodes, minlength=self.node_cap)
        self.node_base = np.cumsum(counts) - counts
        self.meta = np.concatenate((self.meta[:3], [n, 0]))

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
        self.node_base = _grown(self.node_base, cap)
        self.mark = _grown(self.mark, cap)
        self.mark_eid = _grown(self.mark_eid, cap)
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

    def ensure_cells(self, extra: int) -> None:
        """Guarantee room for ``extra`` more cells at the pool's end.

        Short of room, a pool whose abandoned cells outnumber its live ones
        is compacted in one compiled pass into new columns of at least
        twice the live cells plus ``extra`` (so it keeps its size unless
        ``extra`` is large); any other pool doubles, its cells copied as
        they lie.
        """
        top, dead = int(self.meta[3]), int(self.meta[4])
        cap = self.cell_cap
        if top + extra <= cap:
            return
        live = top - dead
        compact = dead > live
        need = 2 * (live + extra) if compact else top + extra
        while cap < need:
            cap *= 2
        columns = self._cell_columns(cap)
        if compact:
            # The record points at the old columns until the pass has read them.
            self.meta[3] = kernel_mod.compact_cells(self.record, *columns)
            self.meta[4] = 0
        else:
            old = (self.cell_head, self.cell_tau, self.cell_eta, self.cell_mark)
            for new_column, old_column in zip(columns, old):
                if len(new_column) == cap:
                    new_column[:top] = old_column[:top]
        self.cell_head, self.cell_tau, self.cell_eta, self.cell_mark = columns
        self.cell_cap = cap
        kernel_mod.sync_record(self.record, self)

    def make_room(self) -> None:
        """Room for one more stored record: one edge, two half-edges and
        the most cells its endpoints may need (each gaining a slot)."""
        self.ensure_edges(1)
        self.ensure_cells(2 * self.group_size)

    def fill(self, step, n: int) -> None:
        """Run a compiled entry over ``n`` items until all are done.

        ``step(start)`` advances items ``start..n-1``, stops before the
        first one that does not fit, and returns its index; each stop
        makes room for one stored record, which covers one item of every
        entry, and resumes there.
        """
        done = step(0)
        while done < n:
            self.make_room()
            resumed = step(done)
            if resumed == done:
                raise RuntimeError("a compiled call found no room after growth")
            done = resumed

    # -- edge lookup and insertion ---------------------------------------------

    def find_edge(self, slot: int, a: int, b: int) -> Optional[int]:
        """Return the eid of the pair ``{a, b}`` on ``slot``, if stored."""
        if a >= self.node_cap or b >= self.node_cap:
            return None
        eid = int(kernel_mod.find_edges([slot], [a], [b], self.record)[0])
        return None if eid < 0 else eid

    def append_edge(self, iu: int, iv: int, slot: int) -> None:
        """Cold-path insert of one edge (see :meth:`append_edges`)."""
        a, b = (iu, iv) if iu < iv else (iv, iu)
        self.append_edges([a], [b], [slot])

    def append_edges(self, us: Sequence[int], vs: Sequence[int], ss: Sequence[int]) -> None:
        """Insert id-ordered pairs ``us[k] < vs[k]`` on slots ``ss[k]`` in
        one compiled call (restore/seed/merge; per-edge counters zero,
        apart from loose counters the new edges settle)."""
        us = np.ascontiguousarray(us, np.int64)
        vs = np.ascontiguousarray(vs, np.int64)
        ss = np.ascontiguousarray(ss, np.int64)
        self.ensure_nodes(int(vs.max()) + 1)
        self.ensure_edges(len(us))
        self.fill(lambda start: kernel_mod.append_edges(start, us, vs, ss, self.record), len(us))
        self.settle_loose()

    def add_cells(self, ss: np.ndarray, xs: np.ndarray, vs: np.ndarray, eta: bool) -> None:
        """Add ``vs[k]`` to node ``xs[k]``'s ``τ_v`` (or ``η_v``, marked) cell
        on slot ``ss[k]``; a node without a stored edge there gains the cell."""
        ss, xs, vs = (np.ascontiguousarray(c, np.int64) for c in (ss, xs, vs))
        self.ensure_nodes(int(xs.max()) + 1)
        self.fill(lambda start: kernel_mod.add_cells(start, ss, xs, vs, eta, self.record), len(ss))

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
            eids = kernel_mod.find_edges(np.full(len(keys), slot), a, b, self.record)
            for key, eid in zip(keys, eids.tolist()):
                if eid >= 0:
                    value = loose.pop(key)
                    if not self.edge_seen[eid]:
                        self.edge_tri[eid] = value
                        self.edge_seen[eid] = 1

    # -- extraction and detachment ---------------------------------------------

    def edge_rows(self, start: int) -> np.ndarray:
        """The ``(slot, lo, hi)`` columns of the edges stored from eid ``start`` on."""
        n = int(self.meta[1])
        return np.stack((self.edge_slot[start:n], self.edge_u[start:n], self.edge_v[start:n]))

    def columns(self) -> ColumnarDelta:
        """Every stored edge and counter as a :class:`ColumnarDelta`; changes nothing."""
        edges = self.edge_rows(0)
        tri, _ = self._tri()
        tau_cells, eta_cells = self.cells(take=False)
        return ColumnarDelta(edges, tri, tau_cells, eta_cells, self._rows())

    def detach(self, new_stored: np.ndarray) -> ColumnarDelta:
        """Detach every counter as a :class:`ColumnarDelta` and zero it.

        ``new_stored`` holds the ``(slot, u, v)`` columns of the edges
        stored since the last detach; the adjacency and the cells stay.
        One compiled pass over the cells reads and zeroes them.
        """
        tri, sel = self._tri()
        self.edge_tri[sel] = 0
        self.edge_seen[sel] = 0
        self.loose_tri = [{} for _ in range(self.group_size)]
        tau_cells, eta_cells = self.cells(take=True)
        rows = self._rows()
        self.tau[:] = 0
        self.eta[:] = 0
        self.edges_stored[:] = 0
        return ColumnarDelta(_id_ordered(new_stored), tri, tau_cells, eta_cells, rows)

    def cells(self, take: bool) -> Tuple[np.ndarray, np.ndarray]:
        """The non-zero ``τ_v`` and the marked ``η_v`` cells as ``(slot, node,
        value)`` columns, node by node; ``take`` zeroes them.  Untracked
        counters yield no cells."""
        live = int(self.meta[3] - self.meta[4])
        tau = np.empty((3, live if self.track_local else 0), np.int64)
        eta = np.empty((3, live if self.has_eta_local else 0), np.int64)
        n_tau, n_eta = kernel_mod.read_cells(self.record, take, tau, eta).tolist()
        # Copies: a view would keep the whole buffer alive.
        return tau[:, :n_tau].copy(), eta[:, :n_eta].copy()

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

    #: The one-group entry of :meth:`process_encoded`, built on first use;
    #: a group in a state set ingests through the state set's entry.
    _entry: Optional[kernel_mod.EdgeEntry] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_entry", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        kernel_mod.bind_hash(self._arrays.record, self.hash_function)

    # -- ingestion -------------------------------------------------------------

    def process_encoded(
        self, cu: Sequence[int], cv: Sequence[int], keys: np.ndarray
    ) -> np.ndarray:
        """Advance the group over a whole encoded batch: the one-group case
        of :func:`ingest_batch`, over an entry of its own.

        Returns the edge rows the batch appended (see
        :meth:`GroupArrays.edge_rows`).
        """
        arrays = self._arrays
        if self._entry is None:
            self._entry = kernel_mod.EdgeEntry([arrays.record])
        (stored,) = ingest_batch(self._entry, [arrays], cu, cv, keys)
        return arrays.edge_rows(stored)

    # -- the kernel primitives: columns, fold and reset -------------------------

    def columns(self) -> ColumnarDelta:
        return self._arrays.columns()

    def reset(self) -> None:
        self._arrays = GroupArrays(
            self.group_size, self.track_local, self.track_eta, record=self._arrays.record
        )

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
        3. ``τ_v``/``η_v`` cells add in one compiled call per block (a node
           gains a cell on a slot where it stores no edge), and the slot
           rows are numpy adds.

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
            new &= kernel_mod.find_edges(ss, us, vs, arrays.record) < 0
            if new.any():
                arrays.append_edges(us[new], vs[new], ss[new])

        if tri.shape[1]:
            misses = kernel_mod.fold_edge_counters(tri[0], tri[1], tri[2], tri[3], arrays.record)
            corrections = []
            for slot, a, b, value in zip(*tri[:, misses].tolist()):
                loose = arrays.loose_tri[slot]
                prior = loose.get((a, b), 0)
                loose[(a, b)] = prior + value
                if prior:
                    correction = value * prior
                    arrays.eta[slot] += correction
                    corrections.append((slot, a, correction))
                    corrections.append((slot, b, correction))
            if corrections and arrays.has_eta_local:
                arrays.add_cells(*columns(corrections, 3), eta=True)

        if self.track_local:
            cells = delta.tau_cells
            if cells.shape[1]:
                arrays.add_cells(*cells, eta=False)
            cells = delta.eta_cells
            if arrays.has_eta_local and cells.shape[1]:
                arrays.add_cells(*cells, eta=True)
        rows = delta.rows
        arrays.tau += rows[0]
        arrays.eta += rows[1]
        arrays.edges_stored += rows[2]

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
        tau_cells, eta_cells = self._arrays.cells(take=False)
        _, ids, values = tau_cells if attribute == "tau_local" else eta_cells
        if not ids.size:
            return {}
        # Cells come node by node: sum each node's run.
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        sums = np.add.reduceat(values, starts)
        nodes = self.interner.nodes
        convert = float if as_float else int
        return {
            nodes[node]: convert(total)
            for node, total in zip(ids[starts].tolist(), sums.tolist())
        }


def ingest_batch(
    entry: kernel_mod.EdgeEntry,
    arrays: Sequence[GroupArrays],
    cu: Sequence[int],
    cv: Sequence[int],
    keys: np.ndarray,
) -> List[int]:
    """Advance the groups of ``entry`` over one encoded batch.

    ``arrays[k]`` holds the columns of the entry's group ``k``.  Node
    columns first grow to the largest id the batch references, not to the
    whole shared interner.  Then one compiled call runs every group's
    record loop, on threads where a group has enough records left and the
    room to store them (:func:`~repro.core.kernel.run_groups`); each group
    that stopped short gets room for one stored record, here on the
    calling thread, and the call runs again from where each group stopped.
    Returns each group's number of stored edges before the batch (see
    :meth:`GroupArrays.edge_rows`).
    """
    stored = [group.n_edges for group in arrays]
    n = len(cu)
    if len(cv) != n or len(keys) != n:
        raise ValueError("an encoded batch needs one cv entry and one key per cu entry")
    if not n:
        return stored
    cu = np.ascontiguousarray(cu, np.int64)
    cv = np.ascontiguousarray(cv, np.int64)
    keys = np.ascontiguousarray(keys, np.uint64)
    top = max(int(cu.max()), int(cv.max())) + 1
    for group in arrays:
        group.ensure_nodes(top)
    entry.stops.fill(0)
    starts = [-1] * len(arrays)
    while kernel_mod.run_groups(entry, n, cu, cv, keys):
        stops = entry.stops.tolist()
        for group, start, stop in zip(arrays, starts, stops):
            if stop < n:
                if stop == start:
                    raise RuntimeError("a compiled call found no room after growth")
                group.make_room()
        starts = stops
    for group, before in zip(arrays, stored):
        if group.n_edges > before and any(group.loose_tri):
            group.settle_loose()
    return stored


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
