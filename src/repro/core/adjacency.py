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
them), a per-edge record being a one-record call, without touching a
Python object:

``GroupArrays``
    The storage: one row of flat edge columns per stored edge
    (``edge_slot``/``edge_tri``/``edge_seen``), whose index is the edge's
    *eid* and its only index; a half-edge pool of singly-linked neighbour
    chains (``pool_nbr``/``pool_nxt``), in which edge ``e``'s two
    half-edges sit at ``2e`` (in its first endpoint's chain, naming the
    second) and ``2e + 1`` (in the second's, naming the first), so a
    half-edge's eid is ``h >> 1`` and the pair names both endpoints;
    per-slot counter rows; and a pool of *cells*, one per ``(slot, node)``
    where the node holds the slot — the bitmap-indexed node of Bagwell's
    hash array mapped trie ("Ideal Hash Trees", 2001).  ``node_bits[x]`` is node ``x``'s slot
    mask and ``node_base[x]`` the start of its block of cells, one per set
    bit in slot order, so slot ``s``'s cell sits at ``node_base[x] +
    popcount(node_bits[x] & ((1 << s) - 1))``.  A cell holds the head of
    the node's neighbour chain on that slot (``cell_head``) and, when the
    group tracks them, ``τ_v``, ``η_v`` and the η mark
    (``cell_tau``/``cell_eta``/``cell_mark``).  A node gains a slot when it
    stores its first edge there, and ``τ_v``/``η_v`` only ever touch nodes
    with a stored edge on the slot, so no chain is empty.  So a group's
    memory follows its sample, not the largest interned id.

    Growth is amortised doubling with contiguous reallocation, and the
    compiled calls never allocate.  Node capacity is ensured before a
    batch, from the largest id it references, and the compiled entry
    refuses a record past it.  A node that gains a slot
    moves its block to the end of the cell pool, or grows it in place if
    it ends the pool; the cells it leaves are zeroed and counted dead.  A
    compiled entry that would run out of room stops before the record (or
    edge) that does not fit and returns its index; the group makes room
    for one stored record (:meth:`GroupArrays.make_room`) and the entry
    resumes there.  The batch call of a state set reports each group's
    stop, so only the groups that stopped grow, all on the calling thread,
    before it runs again (:func:`ingest_batch`); the bulk append of a fold
    resumes one group at a time (:meth:`GroupArrays.append_edges`).  The
    edge columns double with their half-edges, and the cell pool doubles
    or, when its dead cells outnumber the live ones, is compacted in one
    pass.  A one-record call of the per-edge path changes every group or
    none, and it does not say which group was short, so when it is
    refused every group grows its node columns to both ids and makes room
    for one stored record before the call runs once more.  The group's state
    record (:class:`~repro.core.kernel.GroupRecord`) holds the columns' addresses
    and capacities; every growth and compaction rewrites it, a reset hands
    it on to the new columns, and it is never pickled.  There is no
    separate edge index: an edge's row in the flat columns (its *eid*) is
    found by the compiled lookup, which walks both endpoints' neighbour
    chains on the edge's slot in lockstep.

``NativeProcessorGroup``
    A drop-in :class:`~repro.core.state.ProcessorGroup` subclass backed by
    ``GroupArrays``, built by :class:`~repro.core.state.GroupStateSet`
    (a cluster shard's one group included).  A standalone group ingests a
    batch as the one-group case of :func:`ingest_batch`.  It supplies the
    three primitives every state boundary is built on (see
    :mod:`repro.core.portable`): ``columns`` reads the state as a
    :class:`~repro.core.portable.ColumnarDelta`, its
    ``τ_v``/``η_v`` entries in one compiled pass over the occupied cells,
    ``merge_deltas`` folds one — new edges are appended in one compiled
    call, the per-edge counters fold onto stored edges with the exact η
    correction in another, ``τ_v``/``η_v`` entries add onto held cells in a
    third, and slot rows are numpy adds — and ``reset`` drops the state.
    Snapshots, restores, merges, pane deltas, aggregates and stored-edge
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
* ``edge_triangles`` and the ``τ_v``/``η_v`` dicts hold entries only for
  stored edges and for nodes with a stored edge on the slot, as in
  Algorithms 1–2; the portable reader refuses any other part, and a fold
  that meets one raises :class:`ValueError`.
* ``edge_tri``/``edge_seen`` carry the *detachable* per-edge counters: the
  pane-delta protocol zeroes them and the cells' counters while the
  adjacency (pool, cells, bitmasks) stays — exactly the
  seeded-at-a-boundary state the merge contract expects.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernel as kernel_mod
from repro.core.interning import NodeInterner
from repro.core.portable import ColumnarDelta
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
    kernel advances in place: ``[n_edges, epoch, n_cells, n_dead]``, the
    last two being the cells in use at the pool's front and the abandoned
    (zeroed) ones among them.  The half-edge pool holds two entries per
    edge row, ``2 * edge_cap``.  ``record`` is the
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
        # Half-edge pool: edge e's half-edges at 2e and 2e + 1, each naming
        # the other endpoint, chained via pool_nxt.
        self.pool_nbr = np.zeros(2 * self.edge_cap, np.int64)
        self.pool_nxt = np.zeros(2 * self.edge_cap, np.int64)
        # Edge rows, indexed by eid.  edge_tri/edge_seen are the detachable
        # per-edge triangle counters ("seen" = the dict implementation
        # would hold a key for this edge).
        self.edge_slot = np.zeros(self.edge_cap, np.int64)
        self.edge_tri = np.zeros(self.edge_cap, np.int64)
        self.edge_seen = np.zeros(self.edge_cap, np.uint8)
        # Per-slot counter rows.
        self.tau = np.zeros(group_size, np.int64)
        self.eta = np.zeros(group_size, np.int64)
        self.edges_stored = np.zeros(group_size, np.int64)
        self.meta = np.zeros(4, np.int64)
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
        # which the compiled lookup replaced, explicit zero τ_v cells, which
        # no kernel writes, and per-slot dicts of per-edge counters of
        # edges the group does not store, which no run writes.
        state.pop("_pair_eids", None)
        state.pop("_pair_sync", None)
        state.pop("tau_zero", None)
        if any(state.pop("loose_tri", ())):
            raise ValueError(
                "the pickle holds a per-edge counter of an edge its group does not store"
            )
        self.__dict__.update(state)
        if "pool_eid" in state:
            self._drop_repeated_ids()
        if "heads" in state:
            self._cells_from_dense()
        self.record = kernel_mod.GroupRecord()
        kernel_mod.sync_record(self.record, self)

    def _drop_repeated_ids(self) -> None:
        """Drop what an older pickle kept beside each edge's eid: each
        half-edge's eid (``pool_eid``), each edge's id-ordered endpoints
        (``edge_u``/``edge_v``), the half-edge pool's capacity
        (``pool_cap``) and the half-edge count ahead of ``meta``.

        Every older layout put edge ``e``'s half-edges at ``2e`` and ``2e +
        1``, and the current one derives all of these from that, so each is
        checked against it first: a mismatch raises :class:`ValueError`
        naming the column, and no endpoint loads that the half-edges do not
        name.
        """
        pool_eid, edge_u, edge_v, pool_cap = (
            self.__dict__.pop(name) for name in ("pool_eid", "edge_u", "edge_v", "pool_cap")
        )
        n_half, n = int(self.meta[0]), int(self.meta[1])
        if n_half != 2 * n:
            raise ValueError(f"n_half is {n_half}, not twice the {n} stored edges")
        if pool_cap != 2 * self.edge_cap:
            raise ValueError(f"pool_cap is {pool_cap}, not twice edge_cap {self.edge_cap}")
        if not np.array_equal(pool_eid[:n_half], np.arange(n_half) >> 1):
            raise ValueError("pool_eid does not put edge e's half-edges at 2e and 2e + 1")
        lo, hi = self._ends(slice(0, n))
        for name, held, ends in (("edge_u", edge_u, lo), ("edge_v", edge_v, hi)):
            if not np.array_equal(held[:n], ends):
                raise ValueError(f"{name} differs from the endpoints the half-edges name")
        self.meta = self.meta[1:].copy()

    def _cells_from_dense(self) -> None:
        """Convert the dense ``group_size × node_cap`` blocks of an older
        pickle: every chain becomes a cell, node by node, with its ``τ_v``
        and ``η_v``.  A non-zero ``τ_v`` or a marked ``η_v`` without a
        chain raises :class:`ValueError`: no run writes one."""
        heads = self.__dict__.pop("heads")
        tau_local = self.__dict__.pop("tau_local")
        eta_local = self.__dict__.pop("eta_local")
        eta_mark = self.__dict__.pop("eta_mark")
        held = heads != -1
        for name, dense, tracked in (
            ("τ_v", tau_local, self.track_local),
            ("η_v", eta_mark, self.has_eta_local),
        ):
            if tracked and dense[~held].any():
                raise ValueError(
                    f"the pickle holds a {name} of a node that stores no edge on its slot"
                )
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
        self.meta = np.concatenate((self.meta[:2], [n, 0]))

    @property
    def n_edges(self) -> int:
        return int(self.meta[0])

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
        """Guarantee room for ``extra`` more stored edges, rows and half-edges."""
        need = int(self.meta[0]) + extra
        if need <= self.edge_cap:
            return
        cap = self.edge_cap
        while cap < need:
            cap *= 2
        self.edge_slot = _grown(self.edge_slot, cap)
        self.edge_tri = _grown(self.edge_tri, cap)
        self.edge_seen = _grown(self.edge_seen, cap)
        self.pool_nbr = _grown(self.pool_nbr, 2 * cap)
        self.pool_nxt = _grown(self.pool_nxt, 2 * cap)
        self.edge_cap = cap
        kernel_mod.sync_record(self.record, self)

    def ensure_cells(self, extra: int) -> None:
        """Guarantee room for ``extra`` more cells at the pool's end.

        Short of room, a pool whose abandoned cells outnumber its live ones
        is compacted in one compiled pass into new columns of at least
        twice the live cells plus ``extra`` (so it keeps its size unless
        ``extra`` is large); any other pool doubles, its cells copied as
        they lie.
        """
        top, dead = int(self.meta[2]), int(self.meta[3])
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
            self.meta[2] = kernel_mod.compact_cells(self.record, *columns)
            self.meta[3] = 0
        else:
            old = (self.cell_head, self.cell_tau, self.cell_eta, self.cell_mark)
            for new_column, old_column in zip(columns, old):
                if len(new_column) == cap:
                    new_column[:top] = old_column[:top]
        self.cell_head, self.cell_tau, self.cell_eta, self.cell_mark = columns
        self.cell_cap = cap
        kernel_mod.sync_record(self.record, self)

    def make_room(self) -> None:
        """Room for one more stored record: one edge row and the most cells
        its endpoints may need (each gaining a slot)."""
        self.ensure_edges(1)
        self.ensure_cells(2 * self.group_size)

    # -- the cold-path folds ---------------------------------------------------

    def append_edges(self, us: Sequence[int], vs: Sequence[int], ss: Sequence[int]) -> None:
        """Insert id-ordered pairs ``us[k] < vs[k]`` on slots ``ss[k]`` with
        per-edge counters zero (restore/merge).

        One compiled call runs until an edge does not fit; each stop makes
        room for one stored record and the call resumes there.
        """
        us = np.ascontiguousarray(us, np.int64)
        vs = np.ascontiguousarray(vs, np.int64)
        ss = np.ascontiguousarray(ss, np.int64)
        self.ensure_nodes(int(vs.max()) + 1)
        self.ensure_edges(len(us))
        done = kernel_mod.append_edges(0, us, vs, ss, self.record)
        while done < len(us):
            self.make_room()
            resumed = kernel_mod.append_edges(done, us, vs, ss, self.record)
            if resumed == done:
                raise RuntimeError("a compiled call found no room after growth")
            done = resumed

    def add_cells(self, ss: np.ndarray, xs: np.ndarray, vs: np.ndarray, eta: bool) -> None:
        """Add ``vs[k]`` to node ``xs[k]``'s ``τ_v`` (or ``η_v``, marked) cell
        on slot ``ss[k]``, which the node holds.

        An entry of a node with no stored edge on its slot raises
        :class:`ValueError`; the entries before it are added.
        """
        ss, xs, vs = (np.ascontiguousarray(c, np.int64) for c in (ss, xs, vs))
        bad = kernel_mod.add_cells(ss, xs, vs, eta, self.record)
        if bad < len(ss):
            raise ValueError(
                f"node {xs[bad]} stores no edge on slot {ss[bad]} to hold its τ_v or η_v"
            )

    # -- extraction and detachment ---------------------------------------------

    def edge_rows(self, start: int) -> np.ndarray:
        """The ``(slot, lo, hi)`` columns of the edges stored from eid ``start`` on."""
        eids = slice(start, int(self.meta[0]))
        return np.stack((self.edge_slot[eids], *self._ends(eids)))

    def _ends(self, eids) -> Tuple[np.ndarray, np.ndarray]:
        """The id-ordered endpoints ``(lo, hi)`` of edges ``eids`` (a slice
        or an index array): half-edges ``2e`` and ``2e + 1`` name them."""
        first, second = self.pool_nbr[0::2][eids], self.pool_nbr[1::2][eids]
        return np.minimum(first, second), np.maximum(first, second)

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
        live = int(self.meta[2] - self.meta[3])
        tau = np.empty((3, live if self.track_local else 0), np.int64)
        eta = np.empty((3, live if self.has_eta_local else 0), np.int64)
        n_tau, n_eta = kernel_mod.read_cells(self.record, take, tau, eta).tolist()
        # Copies: a view would keep the whole buffer alive.
        return tau[:, :n_tau].copy(), eta[:, :n_eta].copy()

    def _rows(self) -> np.ndarray:
        return np.stack((self.tau, self.eta, self.edges_stored))

    def _tri(self) -> Tuple[np.ndarray, np.ndarray]:
        """The per-edge counter columns and the eids of the edges that hold one."""
        sel = np.flatnonzero(self.edge_seen[: int(self.meta[0])])
        return np.stack((self.edge_slot[sel], *self._ends(sel), self.edge_tri[sel])), sel


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
        stored = arrays.n_edges
        ingest_batch(self._entry, [arrays], cu, cv, keys)
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
           ones not already stored are appended in one compiled call.
        2. The per-edge counters fold in one compiled call that finds each
           eid by a chain walk and applies the closed-form η correction
           against the prior value.
        3. ``τ_v``/``η_v`` entries add onto their nodes' cells in one
           compiled call per block, and the slot rows are numpy adds.

        A processor keeps per-edge counters only for its stored edges and
        ``τ_v``/``η_v`` only for nodes with a stored edge on the slot, so
        after step 1 every counter has its edge and every entry its cell.
        A counter or entry that does not raises :class:`ValueError` and
        may leave the group partly folded; the portable reader refuses such
        parts before anything changes (:mod:`repro.core.portable`).

        Node columns grow to the ids the delta's edges reference, not to
        the shared interner.
        """
        _check_group_size(delta, self.group_size)
        arrays = self._arrays
        edges = delta.edges
        if edges.shape[1]:
            arrays.ensure_nodes(int(edges[1:].max()) + 1)
            ss, us, vs = edges[:, np.lexsort((edges[2], edges[1], edges[0]))]
            new = np.ones(len(ss), bool)
            new[1:] = (ss[1:] != ss[:-1]) | (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
            new &= kernel_mod.find_edges(ss, us, vs, arrays.record) < 0
            if new.any():
                arrays.append_edges(us[new], vs[new], ss[new])

        tri = delta.tri
        if tri.shape[1]:
            bad = kernel_mod.fold_edge_counters(*tri, arrays.record)
            if bad < tri.shape[1]:
                raise ValueError(
                    f"edge {tuple(tri[1:3, bad].tolist())} on slot {tri[0, bad]} holds a "
                    "per-edge counter but is not stored"
                )
        if self.track_local:
            arrays.add_cells(*delta.tau_cells, eta=False)
            if arrays.has_eta_local:
                arrays.add_cells(*delta.eta_cells, eta=True)
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

    def _local_sums(self, as_float: bool):
        nodes = self.interner.nodes
        convert = float if as_float else int
        sums = []
        # One compiled pass reads both: cells come node by node, so each
        # node's run is summed.
        for _, ids, values in self._arrays.cells(take=False):
            if not ids.size:
                sums.append({})
                continue
            starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
            totals = np.add.reduceat(values, starts)
            sums.append(
                {
                    nodes[node]: convert(total)
                    for node, total in zip(ids[starts].tolist(), totals.tolist())
                }
            )
        return tuple(sums)


def ingest_batch(
    entry: kernel_mod.EdgeEntry,
    arrays: Sequence[GroupArrays],
    cu: Sequence[int],
    cv: Sequence[int],
    keys: np.ndarray,
) -> None:
    """Advance the groups of ``entry`` over one encoded batch.

    ``arrays[k]`` holds the columns of the entry's group ``k``.  Node
    columns first grow to the largest id the batch references, not to the
    whole shared interner.  Then one compiled call runs every group's
    record loop from the batch's first record, on threads where a group
    has enough records left and the room to store them
    (:func:`~repro.core.kernel.run_groups`); each group that stopped short
    gets room for one stored record, here on the calling thread, and the
    call runs again from where each group stopped.
    """
    n = len(cu)
    if len(cv) != n or len(keys) != n:
        raise ValueError("an encoded batch needs one cv entry and one key per cu entry")
    if not n:
        return
    cu = np.ascontiguousarray(cu, np.int64)
    cv = np.ascontiguousarray(cv, np.int64)
    keys = np.ascontiguousarray(keys, np.uint64)
    top = max(int(cu.max()), int(cv.max())) + 1
    for group in arrays:
        group.ensure_nodes(top)
    starts = [-1] * len(arrays)
    fresh = True
    while kernel_mod.run_groups(entry, n, cu, cv, keys, fresh):
        fresh = False
        stops = entry.stops.tolist()
        for group, start, stop in zip(arrays, starts, stops):
            if stop < n:
                if stop == start:
                    raise RuntimeError("a compiled call found no room after growth")
                group.make_room()
        starts = stops
