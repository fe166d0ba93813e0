"""Per-processor state of REPT's Algorithms 1 and 2.

A *processor* in the paper is an abstract worker: it owns a sampled edge
set ``E(i)`` and a handful of counters.  :class:`ProcessorCounters` is that
state; :class:`ProcessorGroup` owns the ``m`` (or fewer) processors that
share one hash function and advances them edge by edge, implementing the
``UpdateTriangleCNT`` / ``UpdateTrianglePairCNT`` procedures of the paper's
pseudocode.

Performance note
----------------
A literal transcription would, for every arriving edge, visit every
processor and intersect its neighbor sets — O(c) dictionary probes per edge
even though most processors store neither endpoint.  Because an update can
only occur on a processor where *both* endpoints already have at least one
stored edge, each group maintains a per-node *bitmask* of the slots holding
the node; per edge the candidate slots are one integer AND of the two
endpoints' masks.  This is an exact optimisation (identical counters), not
an approximation.

Two further exact optimisations serve the batched ingestion pipeline:

* node identifiers are interned to dense small ints on entry (see
  :mod:`repro.core.interning`), so every adjacency set, counter dict and
  bitmask probe operates on small ints; raw identifiers reappear only at
  the public boundaries (aggregates, snapshots, stored-edge records);
* :meth:`ProcessorGroup.process_encoded` consumes whole batches whose
  canonicalisation and edge keys were precomputed as array operations.
  The dict reference hashes the keys with
  :meth:`~repro.hashing.base.EdgeHashFunction.bucket_from_keys` and drops
  into per-edge Python only for the residual state updates of its one
  ingestion loop; a per-edge call, hashed with
  :meth:`~repro.hashing.base.EdgeHashFunction.bucket`, is a one-record
  batch of that loop, so the two paths cannot drift apart.  The compiled
  kernel keeps the same guarantee with one record loop that hashes each
  key in C, behind both its batch entry and the per-edge entry of
  :meth:`GroupStateSet.process_edge`.  Each entry advances every group of
  a state set in one call; the groups share no state, so the batch entry
  runs them on threads of their own when they have enough records left
  and the room to store them (see :mod:`repro.core.kernel`), and the
  results do not depend on it.

First occurrence
----------------
Algorithms 1–2 store an arriving edge on processor ``i`` only when it is
not already in ``E(i)``.  Each group makes exactly that test in its own
record step — the dict reference looks the edge up in the slot's
adjacency, the C step reads it off the neighbourhood walk it makes anyway
— so no stream-global set of consumed edges exists.  The test is exact
because an edge's slot is fixed by its hash: the edges a group stores are
exactly the distinct edges consumed whose slot is real, and an edge on a
virtual slot is never stored whatever its history.  So whatever carries
a group's stored edges (a snapshot, a restore, a pane delta, a merge)
carries its first-occurrence state with them.

Mergeable state
---------------
The counters are *mergeable* across consecutive stretches of the stream,
which is what snapshots, restores and the pane-delta protocol below
exploit.  The key observation is that the **storing** process (which edges
end up in which processor's sampled edge set) depends only on the hash
function and the set of distinct edges consumed — never on the counters.  A
group that keeps the stored-edge index as it stood at a boundary but
starts the next stretch with every counter zeroed therefore computes
*exact* per-event closure counts, so ``τ`` and the ``τ_v`` merge by pure
summation.

The pair counters are only slightly harder: every η increment reads the
per-edge counters ``τ_(u,w)(i)`` and ``τ_(v,w)(i)``, which accumulate across
stretches, but the increment is *linear* in those counters.  A group that
restarts its ``edge_triangles`` map at zero therefore under-counts each
usage of a stored edge as a wedge by exactly the edge's accumulated count
from earlier stretches, and :meth:`ProcessorCounters.merge` repairs this
with the closed-form correction ``Σ_key Δ_later[key] · τ_key(prefix)`` (the
same correction applies to ``η_v`` on the key's two endpoints).  The merge
is exact — merged counters are bit-identical to an uninterrupted run's —
because all the quantities involved are integers and the correction is an
identity, not an approximation.

Shared state abstraction
------------------------
:class:`GroupStateSet` is the abstraction every REPT path builds on: the
complete counter state of one :class:`~repro.core.config.ReptConfig` —
every processor group and the shared interning table — with batch
ingestion, snapshot/merge and summarisation in one place.  The estimator
(:class:`~repro.core.rept.ReptEstimator`), the serial driver
(:mod:`repro.core.parallel`), the durable runner and the service sessions
each advance one through :meth:`GroupStateSet.process_edges`; the
sliding-window monitor (:mod:`repro.streaming.monitor`) feeds shared
encoded batches to one state set per open window.

State format and pane deltas
----------------------------
Every boundary moves a group's state as one
:class:`~repro.core.portable.ColumnarDelta` of int64 columns.  Each kernel
supplies three primitives — :meth:`ProcessorGroup.columns`, the fold
:meth:`ProcessorGroup.merge_deltas` (with the exact η correction above)
and :meth:`ProcessorGroup.reset` — and snapshot, restore and merge are
built on them once here; :mod:`repro.core.portable` writes and reads the
portable form.

The *pane delta* protocol (:meth:`ProcessorGroup.take_pane_deltas` and
:meth:`GroupStateSet.merge_pane_deltas`) is library API with no monitor
caller: the monitor's windows each ingest their own records into one
state set.  A take detaches a live group's counters at a boundary while
the group keeps its stored-edge index — exactly the
zeroed-counters-at-a-boundary state the merge contract expects — so an
accumulator advances by folding one O(stretch) delta.  The delta's stored
edges are only the stretch's new ones: :meth:`GroupStateSet.ingest_encoded`
with ``collect_stored=True`` returns each group's stored edges of a batch
as ``(slot, u, v)`` int64 columns — on the C kernel the edge rows the
batch appended — which the caller concatenates per stretch and hands to
the take.  The live groups keep their stored edges, so each decides first
occurrence as an uninterrupted run would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core import portable
from repro.core.combine import GroupSummary, combine_group_estimates
from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.core.portable import ColumnarDelta, columns
from repro.hashing.base import EdgeHashFunction
from repro.types import EdgeTuple, NodeId, canonical_edge

#: Picklable portable snapshot of a whole group (see :mod:`repro.core.portable`).
GroupSnapshot = Dict[str, object]


@dataclass
class ProcessorCounters:
    """Counters and sampled edge set of one processor ``i``.

    Attributes mirror the paper's notation:

    * ``adjacency`` — the graph formed by the stored edge set ``E(i)``;
    * ``tau`` — ``τ(i)``, the number of semi-triangles observed;
    * ``tau_local`` — ``τ_v(i)`` per node;
    * ``edge_triangles`` — ``τ_(u,v)(i)``: for each stored edge, the number
      of semi-triangles in ``Δ(i)`` containing that edge (used to maintain
      the η counters);
    * ``eta`` / ``eta_local`` — ``η(i)`` and ``η_v(i)``.
    """

    adjacency: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    tau: int = 0
    tau_local: Dict[NodeId, int] = field(default_factory=dict)
    edge_triangles: Dict[EdgeTuple, int] = field(default_factory=dict)
    eta: int = 0
    eta_local: Dict[NodeId, int] = field(default_factory=dict)
    edges_stored: int = 0

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """Return the stored neighbor set of ``node`` (empty if absent)."""
        return self.adjacency.get(node, _EMPTY)

    def store_edge(
        self, u: NodeId, v: NodeId, closing_triangles: int, track_pairs: bool = True
    ) -> None:
        """Insert edge ``(u, v)`` into ``E(i)``.

        ``closing_triangles`` is ``|N_u,v(i)|`` at insertion time, which
        initialises the per-edge triangle counter ``τ_(u,v)(i)``.  With
        ``track_pairs=False`` (groups that do not maintain the η counters)
        the per-edge counter is not materialised at all.
        """
        adjacency = self.adjacency
        neighbors = adjacency.get(u)
        if neighbors is None:
            adjacency[u] = {v}
        else:
            neighbors.add(v)
        neighbors = adjacency.get(v)
        if neighbors is None:
            adjacency[v] = {u}
        else:
            neighbors.add(u)
        if track_pairs:
            self.edge_triangles[canonical_edge(u, v)] = closing_triangles
        self.edges_stored += 1

    # -- merge ---------------------------------------------------------------

    def merge(self, later: "ProcessorCounters", track_local: bool = True) -> None:
        """Fold in the state of the same processor advanced over the *next* stretch.

        Contract: ``later`` must have been advanced, with all counters zeroed,
        over the stream stretch immediately following the one(s) this
        processor has seen, starting from this processor's stored-edge index
        (the state :meth:`ProcessorGroup.take_pane_deltas` leaves behind).
        Under that contract the merge reproduces the counters of an
        uninterrupted run exactly:

        * ``τ``/``τ_v`` increments were computed against the true adjacency,
          so they sum directly;
        * each η increment in ``later`` read per-edge counters that were
          missing this prefix's contribution.  ``later.edge_triangles[key]``
          equals the number of times ``key`` served as a wedge edge during the
          stretch (its initialisation term only exists for edges first stored
          in the stretch, whose prefix count is zero), so the missing mass is
          ``Δ_later[key] · τ_key(prefix)`` — added to ``η`` and to ``η_v`` of
          both endpoints of ``key``.
        """
        for key, delta in later.edge_triangles.items():
            prior = self.edge_triangles.get(key, 0)
            if prior:
                correction = delta * prior
                self.eta += correction
                if track_local:
                    a, b = key
                    self.eta_local[a] = self.eta_local.get(a, 0) + correction
                    self.eta_local[b] = self.eta_local.get(b, 0) + correction
            self.edge_triangles[key] = prior + delta

        self.tau += later.tau
        self.eta += later.eta
        for node, value in later.tau_local.items():
            self.tau_local[node] = self.tau_local.get(node, 0) + value
        for node, value in later.eta_local.items():
            self.eta_local[node] = self.eta_local.get(node, 0) + value
        self.edges_stored += later.edges_stored
        for node, neighbors in later.adjacency.items():
            mine = self.adjacency.get(node)
            if mine is None:
                self.adjacency[node] = set(neighbors)
            else:
                mine |= neighbors


_EMPTY: Set[NodeId] = frozenset()  # type: ignore[assignment]


class ProcessorGroup:
    """A group of processors sharing one edge-partition hash function.

    Internally every node is interned to a dense int (see
    :mod:`repro.core.interning`); all public outputs — aggregates,
    snapshots, stored-edge records — speak raw node identifiers.

    Parameters
    ----------
    hash_function:
        Maps each edge to a bucket in ``{0, ..., m-1}``.
    group_size:
        Number of processors (slots) actually present in this group; slots
        ``group_size .. m-1`` exist only virtually (edges hashed there are
        discarded), which is exactly the ``c ≤ m`` situation of Algorithm 1
        and the partial group of Algorithm 2.
    m:
        The hash range (inverse sampling probability).
    track_local:
        Maintain the per-node counters ``τ_v(i)``.
    track_eta:
        Maintain the pair counters ``η(i)`` / ``η_v(i)`` and the per-edge
        triangle counters they require.
    interner:
        Node-interning table; an estimator shares one across its groups so
        encoded batches are valid for all of them.  A private table is
        created when omitted (standalone use).
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
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        if group_size > m:
            raise ValueError("group_size cannot exceed the hash range m")
        if hash_function.buckets != m:
            raise ValueError(
                f"hash function has {hash_function.buckets} buckets, expected m={m}"
            )
        self.hash_function = hash_function
        self.group_size = group_size
        self.m = m
        self.track_local = track_local
        self.track_eta = track_eta
        self.interner = interner if interner is not None else NodeInterner()
        self.processors: List[ProcessorCounters] = [
            ProcessorCounters() for _ in range(group_size)
        ]
        # dense node id -> bitmask of slots where the node has a stored edge.
        self._node_bits: Dict[int, int] = {}

    # -- per-edge update ----------------------------------------------------

    def process_edge(self, u: NodeId, v: NodeId) -> None:
        """Advance every processor of the group with the arriving edge.

        A one-record :meth:`process_edges` call, so a self-loop is skipped
        exactly like in a batch.
        """
        self.process_edges(((u, v),))

    # -- batched update ------------------------------------------------------

    def process_encoded(
        self, cu: Sequence[int], cv: Sequence[int], keys: np.ndarray
    ) -> np.ndarray:
        """Advance the group over a whole encoded batch.

        ``cu``/``cv`` are canonical interned id pairs (self-loops already
        dropped) and ``keys`` their canonical uint64 edge keys (see
        :meth:`~repro.core.interning.NodeInterner.edge_key_array`).  The
        dict reference hashes the keys with
        :meth:`~repro.hashing.base.EdgeHashFunction.bucket_from_keys`.
        Returns the edges the batch stored as ``(slot, u, v)`` int64
        columns (a ``(3, n)`` array in record order).
        """
        slots = self.hash_function.bucket_from_keys(keys).tolist()
        return columns(self._ingest(cu, cv, slots), 3)

    def _ingest(
        self, cu: Sequence[int], cv: Sequence[int], slots: Sequence[int]
    ) -> List[Tuple[int, int, int]]:
        """The group's one ingestion loop, over records hashed to ``slots``.

        Batches arrive here from :meth:`process_encoded`; the per-edge path
        of :meth:`GroupStateSet.process_edge` hashes its record with
        :meth:`~repro.hashing.base.EdgeHashFunction.bucket` and passes it as
        a one-record batch.  Only the edges whose endpoints actually
        co-occur in a slot reach the closure logic, everything else is a
        handful of int operations.  A record on a real slot is stored
        unless the slot's adjacency already holds it.  Returns the stored
        records as ``(slot, u, v)``.
        """
        node_bits = self._node_bits
        processors = self.processors
        group_size = self.group_size
        track_eta = self.track_eta
        apply_closure = self._apply_closure
        bits_get = node_bits.get
        # Hoisted per-slot structures: one list index instead of an
        # attribute chain on every probe and store.
        adjacencies = [processor.adjacency for processor in processors]
        # ``slot < group_size`` can only fail for a partial group; complete
        # groups (group_size == m) take a branch-free specialisation.
        complete = group_size == self.m
        stored: List[Tuple[int, int, int]] = []
        for iu, iv, slot in zip(cu, cv, slots):
            bits_u = bits_get(iu, 0)
            bits_v = bits_get(iv, 0)
            closing_at_store = 0

            candidates = bits_u & bits_v
            if candidates:
                storeable = complete or slot < group_size
                while candidates:
                    low = candidates & -candidates
                    candidates -= low
                    s = low.bit_length() - 1
                    adjacency = adjacencies[s]
                    # Both endpoints have stored edges on this slot (that is
                    # what the bitmask intersection says), so the adjacency
                    # entries exist.  isdisjoint runs in C with no set
                    # allocation, so the common case — nothing closes —
                    # costs a single early-exit probe.
                    neighbors_u = adjacency[iu]
                    neighbors_v = adjacency[iv]
                    if not neighbors_u.isdisjoint(neighbors_v):
                        closed = apply_closure(
                            processors[s], iu, iv, neighbors_u & neighbors_v
                        )
                        if storeable and s == slot:
                            closing_at_store = closed

            if complete or slot < group_size:
                adjacency = adjacencies[slot]
                neighbors = adjacency.get(iu)
                if neighbors is None:
                    adjacency[iu] = {iv}
                elif iv in neighbors:
                    continue  # E(slot) already holds the edge
                else:
                    neighbors.add(iv)
                neighbors = adjacency.get(iv)
                if neighbors is None:
                    adjacency[iv] = {iu}
                else:
                    neighbors.add(iu)
                if track_eta:
                    processors[slot].edge_triangles[
                        (iu, iv) if iu < iv else (iv, iu)
                    ] = closing_at_store
                processors[slot].edges_stored += 1
                bit = 1 << slot
                node_bits[iu] = bits_u | bit
                node_bits[iv] = bits_v | bit
                stored.append((slot, iu, iv))
        return stored

    def process_edges(self, edges) -> None:
        """Standalone batched ingestion for one group.

        Encodes ``edges`` through this group's interner and advances the
        counters via :meth:`process_encoded`.  The group decides first
        occurrence from its own stored edges, so this is exact on a group
        restored with zeroed counters too.
        """
        interner = self.interner
        cu, cv, _, _ = interner.encode_pairs(edges)
        if cu:
            self.process_encoded(cu, cv, interner.edge_key_array(cu, cv))

    def _apply_closure(
        self, processor: ProcessorCounters, u: int, v: int, common: Set[int]
    ) -> int:
        """Credit the semi-triangles closed by ``(u, v)`` via ``common``.

        ``common`` is the (non-empty) set of shared stored neighbors on this
        processor; every per-``w`` update touches distinct keys, so the
        iteration order of the set does not affect any counter.
        """
        closed = len(common)
        processor.tau += closed
        if self.track_local:
            local = processor.tau_local
            local[u] = local.get(u, 0) + closed
            local[v] = local.get(v, 0) + closed
            for w in common:
                local[w] = local.get(w, 0) + 1

        if self.track_eta:
            edge_triangles = processor.edge_triangles
            eta_local = processor.eta_local
            track_local = self.track_local
            for w in common:
                key_uw = (u, w) if u < w else (w, u)
                key_vw = (v, w) if v < w else (w, v)
                count_uw = edge_triangles.get(key_uw, 0)
                count_vw = edge_triangles.get(key_vw, 0)
                pair_increment = count_uw + count_vw
                processor.eta += pair_increment
                if track_local:
                    eta_local[w] = eta_local.get(w, 0) + pair_increment
                    eta_local[u] = eta_local.get(u, 0) + count_uw
                    eta_local[v] = eta_local.get(v, 0) + count_vw
                edge_triangles[key_uw] = count_uw + 1
                edge_triangles[key_vw] = count_vw + 1
        return closed

    # -- the kernel primitives: columns, fold and reset ----------------------

    def columns(self) -> ColumnarDelta:
        """The group's whole state as interned columns; changes nothing."""
        return counter_columns(self.processors)

    def merge_deltas(self, delta: ColumnarDelta) -> None:
        """Fold a later stretch's columns, interned by this group's interner.

        The fold of every boundary — pane deltas, snapshots and restores —
        with the exact η correction of :meth:`ProcessorCounters.merge`.
        """
        _check_group_size(delta, self.group_size)
        node_bits = self._node_bits
        track_local = self.track_local
        for slot, (processor, later) in enumerate(
            zip(self.processors, slot_counters(delta))
        ):
            processor.merge(later, track_local=track_local)
            # Only the incoming stretch's nodes can gain this slot.
            bit = 1 << slot
            for node in later.adjacency:
                node_bits[node] = node_bits.get(node, 0) | bit

    def reset(self) -> None:
        """Drop every stored edge and counter."""
        self.processors = [ProcessorCounters() for _ in range(self.group_size)]
        self._node_bits = {}

    # -- snapshot / merge, built on the primitives ----------------------------

    def snapshot(self) -> GroupSnapshot:
        """The group's state as a portable part (see :mod:`repro.core.portable`).

        Raw node ids travel in the part's own node table, so a snapshot
        taken in one process (with its own interning order) restores or
        merges exactly in any other, on either kernel.
        """
        return self.externalize_deltas(self.columns())

    def restore(self, snapshot: GroupSnapshot) -> None:
        """Replace this group's state with :meth:`snapshot` output."""
        delta = self._read(snapshot)
        self.reset()
        self.merge_deltas(delta)

    def merge(self, later: "ProcessorGroup") -> None:
        """Fold in a group advanced over the next stretch (see ProcessorCounters.merge).

        ``later`` must share this group's shape and hash function and must
        have been advanced from this group's adjacency (counters zero) over
        the stream stretch immediately following this group's.  It may use
        a different interning table — the snapshot carries raw node ids.
        """
        self.merge_snapshot(later.snapshot())

    def merge_snapshot(self, snapshot: GroupSnapshot) -> None:
        """Fold in a later stretch's snapshot without materialising its group."""
        self.merge_deltas(self._read(snapshot))

    def _read(self, snapshot: GroupSnapshot) -> ColumnarDelta:
        """The columns of a snapshot, checked before anything is interned."""
        (part,) = portable.read_groups([snapshot], [(self.group_size, self.m)])
        return portable.intern_group(part, self.interner)

    def externalize_deltas(self, delta: ColumnarDelta) -> GroupSnapshot:
        """Write columns interned by this group's interner as a portable part.

        For a pane delta the part is O(pane): its stored edges are only the
        pane-new ones.  It merges anywhere via :meth:`merge_snapshot`.
        """
        return portable.group_part(self.group_size, self.m, self.interner.nodes, delta)

    # -- pane-delta protocol (windowed monitoring) ----------------------------

    def take_pane_deltas(self, new_stored: np.ndarray) -> ColumnarDelta:
        """Detach the counters accumulated since the last call as columns.

        ``new_stored`` holds the ``(slot, iu, iv)`` int64 columns (a
        ``(3, n)`` array of interned ids, id-ordered or canonical) of the
        edges stored since the previous boundary: the caller concatenates
        what :meth:`GroupStateSet.ingest_encoded` returns with
        ``collect_stored=True``.  The returned
        :class:`~repro.core.portable.ColumnarDelta` carries the pane's
        counter deltas and, as its stored edges, *only* the pane-new ones.

        After the call this group keeps its full stored-edge index (and node
        bitmasks) but has all counters zeroed, so the next pane accumulates
        one pane's worth of deltas, the shape :meth:`ProcessorCounters.merge`
        expects.
        """
        delta = counter_columns(self.processors, _id_ordered(new_stored))
        for processor in self.processors:
            processor.tau = 0
            processor.tau_local = {}
            processor.edge_triangles = {}
            processor.eta = 0
            processor.eta_local = {}
            processor.edges_stored = 0
        return delta

    # -- aggregates ----------------------------------------------------------

    def summarise(self, is_complete: bool) -> GroupSummary:
        """Detach the counters into a plain, picklable ``GroupSummary``.

        Local and η aggregations only run when the group actually tracks
        them — untracked runs skip the dict passes entirely.
        """
        return GroupSummary(
            group_size=self.group_size,
            is_complete=is_complete,
            tau_sum=float(sum(self.tau_values())),
            eta_sum=float(sum(self.eta_values())) if self.track_eta else 0.0,
            local_tau=self.local_tau_sums(as_float=True) if self.track_local else {},
            local_eta=(
                self.local_eta_sums(as_float=True)
                if self.track_local and self.track_eta
                else {}
            ),
            edges_stored=self.total_edges_stored(),
        )

    def tau_values(self) -> List[int]:
        """Return ``[τ(i)]`` for the processors of this group."""
        return [processor.tau for processor in self.processors]

    def eta_values(self) -> List[int]:
        """Return ``[η(i)]`` for the processors of this group."""
        return [processor.eta for processor in self.processors]

    def total_edges_stored(self) -> int:
        """Total number of edges stored across the group's processors."""
        return sum(processor.edges_stored for processor in self.processors)

    def local_tau_sums(self, as_float: bool = False) -> "Dict[NodeId, Union[int, float]]":
        """Return ``Σ_i τ_v(i)`` over this group's processors, per (raw) node.

        Values are ints by default; ``as_float=True`` accumulates float
        values directly (exact for counts below 2**53), saving the summary
        layer a second conversion pass.
        """
        return self._local_sums("tau_local", as_float)

    def local_eta_sums(self, as_float: bool = False) -> "Dict[NodeId, Union[int, float]]":
        """Return ``Σ_i η_v(i)`` over this group's processors, per (raw) node."""
        return self._local_sums("eta_local", as_float)

    def _local_sums(self, attribute: str, as_float: bool) -> "Dict[NodeId, Union[int, float]]":
        zero = 0.0 if as_float else 0
        sums: Dict[int, int] = {}
        for processor in self.processors:
            for node, value in getattr(processor, attribute).items():
                sums[node] = sums.get(node, zero) + value
        nodes = self.interner.nodes
        return {nodes[node]: value for node, value in sums.items()}

    # -- raw-keyed introspection ----------------------------------------------

    def stored_edges(self) -> List[Tuple[int, NodeId, NodeId]]:
        """Return every stored edge as raw ``(slot, u, v)`` records.

        Endpoints are in canonical order; record order is unspecified.
        """
        nodes = self.interner.nodes
        return [
            (slot, *canonical_edge(nodes[a], nodes[b]))
            for slot, a, b in zip(*self.columns().edges.tolist())
        ]


# -- the dict reference's columns ---------------------------------------------


def _check_group_size(delta: ColumnarDelta, group_size: int) -> None:
    if delta.group_size != group_size:
        raise ValueError(
            f"expected {group_size} per-slot deltas, got {delta.group_size}"
        )


def _id_ordered(stored: np.ndarray) -> np.ndarray:
    """``(slot, lo, hi)`` columns of ``(slot, iu, iv)`` stored-edge columns."""
    slots, u, v = stored
    return np.stack((slots, np.minimum(u, v), np.maximum(u, v)))


def counter_columns(
    processors: Sequence[ProcessorCounters], edges: Optional[np.ndarray] = None
) -> ColumnarDelta:
    """The columns of per-slot (interned) counters.

    ``edges`` replaces the stored edges the processors' adjacencies hold
    (a pane delta carries only the pane-new ones).  ``edge_triangles``
    keys are id-ordered, as interned counters' keys are.
    """
    edge_records = []
    tri = []
    tau_cells = []
    eta_cells = []
    rows = np.zeros((3, len(processors)), np.int64)
    for slot, processor in enumerate(processors):
        if edges is None:
            for a, neighbors in processor.adjacency.items():
                edge_records.extend((slot, a, b) for b in neighbors if a < b)
        tri.extend(
            (slot, a, b, value) for (a, b), value in processor.edge_triangles.items()
        )
        tau_cells.extend((slot, node, value) for node, value in processor.tau_local.items())
        eta_cells.extend((slot, node, value) for node, value in processor.eta_local.items())
        rows[:, slot] = (processor.tau, processor.eta, processor.edges_stored)
    return ColumnarDelta(
        columns(edge_records, 3) if edges is None else edges,
        columns(tri, 4),
        columns(tau_cells, 3),
        columns(eta_cells, 3),
        rows,
    )


def slot_counters(delta: ColumnarDelta) -> List[ProcessorCounters]:
    """The per-slot counters a group's columns hold (the dict reference's view)."""
    laters = [ProcessorCounters() for _ in range(delta.group_size)]
    for slot, a, b in zip(*delta.edges.tolist()):
        adjacency = laters[slot].adjacency
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    for slot, a, b, value in zip(*delta.tri.tolist()):
        laters[slot].edge_triangles[(a, b)] = value
    for slot, node, value in zip(*delta.tau_cells.tolist()):
        local = laters[slot].tau_local
        local[node] = local.get(node, 0) + value
    for slot, node, value in zip(*delta.eta_cells.tolist()):
        local = laters[slot].eta_local
        local[node] = local.get(node, 0) + value
    for later, (tau, eta, stored) in zip(laters, delta.rows.T.tolist()):
        later.tau = tau
        later.eta = eta
        later.edges_stored = stored
    return laters


@dataclass
class EncodedBatch:
    """One batch of records encoded once for every group of a config.

    ``cu``/``cv`` are canonical interned id pairs (self-loops dropped) —
    lists on the dict kernel, int64 arrays on the C kernel — ``keys`` their
    canonical uint64 edge keys, which no seed enters (each group hashes
    them to its own slots, so one encoding serves every
    :class:`GroupStateSet` of a config sharing the same interner), and
    ``n_records`` counts all input records including dropped self-loops.
    The encoding carries no first-occurrence flags: each group decides
    first occurrence from its own stored edges as it ingests the batch.
    """

    cu: Sequence[int]
    cv: Sequence[int]
    keys: np.ndarray
    n_records: int


class GroupStateSet:
    """The complete mergeable counter state of one REPT configuration.

    Owns the processor groups described by a
    :class:`~repro.core.config.ReptConfig` and the interning table shared
    by all of them.  This is the
    abstraction shared by :class:`~repro.core.rept.ReptEstimator` and the
    serial driver (one state set advanced in process), the durable runner
    (one state set checkpointed between segments) and the windowed monitor
    (one state set per open window).

    Parameters
    ----------
    config:
        Validated REPT parameters; hash seeds derive from it, so two state
        sets built from the same config are hash-compatible (their encoded
        batches and slot assignments agree).
    interner:
        Optional shared interning table.  Consumers that exchange
        *interned* data between state sets (encoded batches, pane deltas)
        must share one; when omitted a private table is created.
    hash_functions:
        Optional pre-built hash functions (one per group), letting many
        state sets of the same config share the table-backed functions
        instead of rebuilding them; must match the config's seeds.
    kernel:
        Optional override of the config's ingestion-kernel request
        (``"auto"``/``"python"``/``"native"``).  The request is resolved
        once here — :attr:`kernel` holds the resolved label (``"python"`` or
        ``"cc"``), which is also recorded in estimate metadata.
    """

    #: Always empty: each group decides first occurrence from its own
    #: stored edges.  Only perfbench's tracer reads it.
    seen = frozenset()

    def __init__(
        self,
        config: ReptConfig,
        interner: Optional[NodeInterner] = None,
        hash_functions: Optional[Sequence[EdgeHashFunction]] = None,
        kernel: Optional[str] = None,
    ) -> None:
        # Local import: the hashing package depends only on repro.hashing
        # internals, but importing it lazily keeps this module importable
        # from anywhere in the package without ordering constraints.
        from repro.hashing import make_hash_function

        self.config = config
        self.interner = interner if interner is not None else NodeInterner()
        sizes = config.group_sizes()
        if hash_functions is None:
            seeds = config.group_hash_seeds()
            hash_functions = [
                make_hash_function(config.hash_kind, buckets=config.m, seed=seeds[i])
                for i in range(len(sizes))
            ]
        elif len(hash_functions) != len(sizes):
            raise ValueError(
                f"expected {len(sizes)} hash functions, got {len(hash_functions)}"
            )
        from repro.core.kernel import resolve_kernel

        requested = kernel if kernel is not None else getattr(config, "kernel", "auto")
        self.kernel: str = resolve_kernel(requested, max(sizes))
        self._native = self.kernel != "python"
        if self._native:
            from repro.core.adjacency import NativeProcessorGroup

            self.groups: List[ProcessorGroup] = [
                NativeProcessorGroup(
                    hash_function=hash_functions[index],
                    group_size=size,
                    m=config.m,
                    track_local=config.track_local,
                    track_eta=bool(config.track_eta),
                    interner=self.interner,
                )
                for index, size in enumerate(sizes)
            ]
            self._bind_edge_entry()
        else:
            self.groups = [
                ProcessorGroup(
                    hash_function=hash_functions[index],
                    group_size=size,
                    m=config.m,
                    track_local=config.track_local,
                    track_eta=bool(config.track_eta),
                    interner=self.interner,
                )
                for index, size in enumerate(sizes)
            ]

    # -- ingestion -----------------------------------------------------------

    def _bind_edge_entry(self) -> None:
        from repro.core.kernel import EdgeEntry

        self._edge_entry = EdgeEntry([group._arrays.record for group in self.groups])

    def process_edge(self, u: NodeId, v: NodeId) -> None:
        """Advance every group with one raw edge (the per-edge path).

        Interns once.  On a native state set one compiled call then hashes
        the edge's key (:meth:`~repro.hashing.base.EdgeHashFunction._edge_key`,
        which no seed enters) for every group and advances every group, so
        a record that raises leaves every counter as it was.  When a group
        lacks room the call changes nothing and says which groups would
        store; their columns grow and the call runs again.  On the dict
        kernel every group hashes the edge with
        :meth:`~repro.hashing.base.EdgeHashFunction.bucket` before any
        advances over the encoded record.
        """
        if u is v or u == v:
            return
        intern = self.interner.intern
        iu = intern(u)
        iv = intern(v)
        groups = self.groups
        if self._native:
            key = groups[0].hash_function._edge_key(u, v)
            entry = self._edge_entry
            stored = entry.ingest(entry.address, key, iu, iv)
            if stored < 0:
                top = (iu if iu > iv else iv) + 1
                for group, store in zip(groups, entry.stored):
                    arrays = group._arrays
                    arrays.ensure_nodes(top)
                    if store:
                        arrays.make_room()
                stored = entry.ingest(entry.address, key, iu, iv)
                if stored < 0:
                    raise RuntimeError("the per-edge kernel call found no room after growth")
            if stored:
                for group, store in zip(groups, entry.stored):
                    if store and any(group._arrays.loose_tri):
                        group._arrays.settle_loose()
            return
        slots = [group.hash_function.bucket(u, v) for group in groups]
        for group, slot in zip(groups, slots):
            group._ingest((iu,), (iv,), (slot,))

    def process_edges(self, edges: Iterable[EdgeTuple]) -> int:
        """Advance every group over a raw batch; returns records consumed.

        :meth:`ingest_encoded` of :meth:`encode`: canonicalisation,
        interning and edge keys run once as array operations shared by all
        groups, and each group hashes the keys to its slots — bit-identical
        to per-edge :meth:`process_edge` calls.  A batch that raises while
        it is encoded changes no counter.
        """
        batch = self.encode(edges)
        self.ingest_encoded(batch)
        return batch.n_records

    def ingest_stream(
        self, edges: Sequence[EdgeTuple], batch_edges: int = 65536
    ) -> int:
        """Consume a whole materialised stream in bounded batches."""
        total = 0
        for start in range(0, len(edges), batch_edges):
            total += self.process_edges(edges[start : start + batch_edges])
        return total

    # -- shared-encoding ingestion (windowed monitor) ------------------------

    def encode(self, edges: Iterable[EdgeTuple]) -> EncodedBatch:
        """Encode a batch once for every state set of this config.

        Does *not* touch this state set's counters — the batch is a pure
        function of the interner, so any state set of the config sharing
        the interner can :meth:`ingest_encoded` it.  On a native state set
        an all-int batch is encoded by the compiled pass
        (:meth:`~repro.core.interning.NodeInterner._encode_columns`), and
        every batch's ids become int64 columns once, shared by every group
        and every state set that ingests it.
        """
        interner = self.interner
        if self._native:
            encoded = interner._encode_columns(edges)
            if encoded is not None:
                return EncodedBatch(*encoded)
        cu, cv, _, n_records = interner.encode_pairs(edges)
        keys = interner.edge_key_array(cu, cv)
        if self._native:
            cu = np.asarray(cu, np.int64)
            cv = np.asarray(cv, np.int64)
        return EncodedBatch(cu, cv, keys, n_records)

    def ingest_encoded(
        self, batch: EncodedBatch, collect_stored: bool = False
    ) -> Optional[List[np.ndarray]]:
        """Advance every group over a shared encoded batch.

        Each group decides first occurrence from its own stored edges, so
        several state sets can consume the same :class:`EncodedBatch`, each
        in its own scope.  With ``collect_stored=True`` each group's edges
        stored by this batch are returned as ``(slot, u, v)`` int64 columns
        (a ``(3, n)`` array, in record order, endpoints id-ordered on the C
        kernel and canonical on the dict one) — concatenated per pane, they
        are what :meth:`take_pane_deltas` needs.  On the C kernel they are
        the edge rows the batch appended.

        On the C kernel one compiled call advances every group, each on a
        thread of its own when it has enough records left and the room to
        store them (:func:`~repro.core.adjacency.ingest_batch`); on the dict
        kernel the groups advance one after another.
        """
        if not self._native:
            stored = [
                group.process_encoded(batch.cu, batch.cv, batch.keys) for group in self.groups
            ]
            return stored if collect_stored else None
        from repro.core.adjacency import ingest_batch

        arrays = [group._arrays for group in self.groups]
        stored = ingest_batch(self._edge_entry, arrays, batch.cu, batch.cv, batch.keys)
        if not collect_stored:
            return None
        return [group.edge_rows(start) for group, start in zip(arrays, stored)]

    # -- pane-delta protocol --------------------------------------------------

    def take_pane_deltas(self, new_stored: Sequence[np.ndarray]) -> List[ColumnarDelta]:
        """Detach every group's pane counters (see ProcessorGroup.take_pane_deltas).

        ``new_stored`` holds one group's ``(slot, iu, iv)`` columns per group.
        """
        return [
            group.take_pane_deltas(records)
            for group, records in zip(self.groups, new_stored)
        ]

    def merge_pane_deltas(self, deltas: Sequence[ColumnarDelta]) -> None:
        """Fold per-group pane deltas from a state set sharing this interner."""
        for group, delta in zip(self.groups, deltas):
            group.merge_deltas(delta)

    # -- snapshot / merge -----------------------------------------------------

    def _shapes(self) -> List[Tuple[int, int]]:
        return [(group.group_size, group.m) for group in self.groups]

    def snapshot(self) -> List[GroupSnapshot]:
        """Portable snapshots of every group (see ProcessorGroup.snapshot)."""
        return [group.snapshot() for group in self.groups]

    def merge_snapshots(self, snapshots: Sequence[GroupSnapshot]) -> None:
        """Fold one per-group snapshot list (one later stretch's states).

        Every snapshot is checked before any group changes.
        """
        parts = portable.read_groups(snapshots, self._shapes())
        deltas = [portable.intern_group(part, self.interner) for part in parts]
        for group, delta in zip(self.groups, deltas):
            group.merge_deltas(delta)

    # -- durable state --------------------------------------------------------

    def portable_state(self) -> Dict[str, object]:
        """The complete state in portable (interner-independent) form.

        The group parts of :meth:`snapshot` — everything a fresh process
        needs to continue the stream bit-identically, first occurrence
        included, since each group decides it from its stored edges.  The
        result is picklable and checkpoint-friendly; restore with
        :meth:`restore_portable`.
        """
        return portable.portable_state(self.snapshot())

    def restore_portable(self, state: Dict[str, object]) -> None:
        """Replace this state set's contents with :meth:`portable_state` output.

        The receiving state set must be built from the same config.  The
        whole state is checked first (see :mod:`repro.core.portable`), so a
        rejected one raises ``ValueError`` and changes nothing; the forms
        earlier versions wrote are read too.  Interning order may differ
        from the originating process — slot assignment keys on raw node
        identity, so the restored run is bit-identical regardless.
        """
        parts = portable.read_state(state, self._shapes())
        deltas = [portable.intern_group(part, self.interner) for part in parts]
        for group, delta in zip(self.groups, deltas):
            group.reset()
            group.merge_deltas(delta)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_edge_entry", None)
        return state

    def __setstate__(self, state) -> None:
        # Pickles of earlier versions carry a stream-global set of the
        # edges consumed, which the groups' stored edges now stand for.
        state.pop("seen", None)
        self.__dict__.update(state)
        if self._native:
            self._bind_edge_entry()

    # -- aggregates -----------------------------------------------------------

    def summaries(self) -> List[GroupSummary]:
        """Per-group :class:`GroupSummary` with the config's completeness flags."""
        uses_groups = self.config.uses_groups
        m = self.config.m
        return [
            group.summarise(uses_groups and group.group_size == m)
            for group in self.groups
        ]

    def estimate(self, edges_processed: int):
        """Combine the current counters into a TriangleEstimate."""
        config = self.config
        estimate = combine_group_estimates(
            self.summaries(),
            m=config.m,
            c=config.c,
            edges_processed=edges_processed,
            track_local=config.track_local,
            eta_tracked=bool(config.track_eta),
        )
        estimate.metadata["kernel"] = self.kernel
        return estimate

    def total_edges_stored(self) -> int:
        """Total edges currently stored across all groups."""
        return sum(group.total_edges_stored() for group in self.groups)

