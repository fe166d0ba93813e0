"""The one group-state format: int64 columns, portable over a node table.

In Algorithms 1–2 each processor's state is its sampled edge set ``E(i)``
plus the counters ``τ(i)``, ``τ_v(i)``, ``τ_(u,v)(i)``, ``η(i)`` and
``η_v(i)``.  Every boundary that moves or keeps a group's state — pane
deltas, snapshots, restores, merges, checkpoints and shard migration —
speaks one layout, :class:`ColumnarDelta`.

In process its node columns hold interned ids.  The *portable* form is
made of self-contained *parts* holding the same blocks over positions
into the part's own node table, a plain list of the distinct raw node
ids the part references.  A part restores under any interning order, and
the elastic coordinator assembles its shards' parts into one state as
they are.  A portable state is ``{"snapshots": [group part, ...]}``: a
group part holds ``format``, ``group_size``, ``m``, ``nodes`` and the
five blocks.  Each group decides first occurrence from its own stored
edges, so the parts carry it.

This module is the only code that reads or writes those fields.  Its
reader checks every part of an input before anything is interned, so a
rejected input raises :class:`ValueError` and leaves the receiving state
unchanged.  It rejects a block of the wrong shape or dtype, a position
outside the node table, a repeated node-table entry, a slot ``>=
group_size``, an edge whose two endpoints are equal, a per-edge counter
key given twice, a negative counter, a zero ``τ_v`` cell (no kernel
writes one), a per-edge counter of an edge the part does not store on
that slot, a ``τ_v`` or ``η_v`` cell of a node that stores no edge on
that slot (as Algorithms 1–2 keep them, so no run writes either) and a
``group_size`` or ``m`` other than the receiver's.  A pane delta
(:meth:`~repro.core.state.ProcessorGroup.take_pane_deltas`) is therefore
no reader input: its counters may sit on edges an earlier pane stored, so
pane deltas fold in process only
(:meth:`~repro.core.state.GroupStateSet.merge_pane_deltas`).  It also
rejects a block of counters the receiver does not track (its
:data:`Shape`): ``τ_v`` cells unless it tracks ``τ_v``, per-edge
counters unless it tracks η, and ``η_v`` cells unless it tracks both.
No run of the receiver's shape writes one, and the two kernels would
fold it differently.  The reader also reads what earlier versions wrote
(see :func:`read_state`): the raw-keyed dict form, and a ``seen`` part
beside the groups — the set of distinct edges consumed, ``format``,
``nodes`` and ``pairs`` (``(2, n)``) — which it checks like any other
part and then drops.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.interning import NodeInterner

#: Tag of the current part layout.
FORMAT = "rept-columns-1"

#: The blocks of a :class:`ColumnarDelta`, their widths and their node rows.
_BLOCKS = {
    "edges": (3, slice(1, 3)),
    "tri": (4, slice(1, 3)),
    "tau_cells": (3, slice(1, 2)),
    "eta_cells": (3, slice(1, 2)),
}

Part = Dict[str, object]

#: What the reader checks a group part against: the receiving group's
#: ``(group_size, m, track_local, track_eta)``.
Shape = Tuple[int, int, bool, bool]


def columns(records, width: int) -> np.ndarray:
    """``(width, n)`` C-contiguous int64 columns of ``n`` int records."""
    return np.array(records, np.int64).reshape(-1, width).T.copy()


class ColumnarDelta:
    """One processor group's counters as int64 columns.

    Every block is a C-contiguous int64 array with one column per entry:

    * ``edges`` ``(3, n)`` — slot, lo, hi of stored edges, id-ordered: all
      of the group's in a snapshot, the ones stored since the previous
      boundary in a pane delta;
    * ``tri`` ``(4, n)`` — slot, lo, hi, value of the per-edge counters
      ``τ_(u,v)``: of stored edges in a snapshot, and in a pane delta of
      edges this pane or an earlier one stored;
    * ``tau_cells`` ``(3, n)`` — slot, node, value of the ``τ_v`` entries;
    * ``eta_cells`` ``(3, n)`` — slot, node, value of the ``η_v`` entries,
      zero-valued ones included (the dict reference keeps them);
    * ``rows`` ``(3, group_size)`` — ``τ``, ``η`` and ``edges_stored``.
    """

    __slots__ = ("edges", "tri", "tau_cells", "eta_cells", "rows")

    def __init__(self, edges, tri, tau_cells, eta_cells, rows) -> None:
        self.edges = edges
        self.tri = tri
        self.tau_cells = tau_cells
        self.eta_cells = eta_cells
        self.rows = rows

    @property
    def group_size(self) -> int:
        return self.rows.shape[1]

    def __setstate__(self, state) -> None:
        _, slots = state
        # Earlier pickles kept the per-edge counters of unstored edges
        # apart, as per-slot dicts under ``loose``.
        loose = slots.pop("loose", None) or ()
        for name, value in slots.items():
            setattr(self, name, value)
        extra = [(s, a, b, v) for s, kept in enumerate(loose) for (a, b), v in kept.items()]
        if extra:
            self.tri = np.concatenate((self.tri, columns(extra, 4)), axis=1)


# -- writers -------------------------------------------------------------------


def group_part(group_size: int, m: int, nodes: Sequence, delta: ColumnarDelta) -> Part:
    """The portable part of one group's columns (``nodes``: id → raw id).

    The node table lists the referenced ids in id order, so id-ordered
    pairs stay position-ordered.
    """
    blocks = {name: getattr(delta, name).copy() for name in _BLOCKS}
    ids = np.concatenate([blocks[name][rows].ravel() for name, (_, rows) in _BLOCKS.items()])
    table, positions = np.unique(ids, return_inverse=True)
    start = 0
    for name, (_, rows) in _BLOCKS.items():
        shape = blocks[name][rows].shape
        blocks[name][rows] = positions[start : start + shape[0] * shape[1]].reshape(shape)
        start += shape[0] * shape[1]
    return {
        "format": FORMAT,
        "group_size": group_size,
        "m": m,
        "nodes": [nodes[i] for i in table.tolist()],
        "rows": delta.rows.copy(),
        **blocks,
    }


def portable_state(groups: Sequence[Part]) -> Dict[str, object]:
    """A portable state from its group parts."""
    return {"snapshots": list(groups)}


# -- the validating reader -----------------------------------------------------


def read_state(state, shapes: Sequence[Shape]) -> List[Part]:
    """Check a portable state against one :data:`Shape` per group.

    Returns its group parts in the current layout.  ``state["seen"]`` is
    the set of consumed edges earlier versions wrote beside the groups, if
    any: it is checked, then dropped.  Those versions also wrote each group
    as raw-keyed per-processor dicts, with ``seen`` as a list of raw node
    pairs; such input is converted by :func:`_from_dict_form` first and
    then checked like any other.
    """
    if not isinstance(state, dict) or "snapshots" not in state:
        raise ValueError("a portable state is a dict with 'snapshots'")
    groups, seen = state["snapshots"], state.get("seen")
    if isinstance(seen, list):
        groups = _from_dict_form(groups, seen)
    elif seen is not None:
        pairs = _block(seen, "pairs", 2, _node_count(seen), slice(None))
        if np.any(pairs[0] == pairs[1]):
            raise ValueError("seen holds an edge whose two endpoints are equal")
    return read_groups(groups, shapes)


def read_groups(parts, shapes: Sequence[Shape]) -> List[Part]:
    """Check one group part per :data:`Shape`; returns them."""
    count = len(parts) if isinstance(parts, (list, tuple)) else type(parts).__name__
    if count != len(shapes):
        raise ValueError(f"expected {len(shapes)} group snapshots, got {count}")
    for part, shape in zip(parts, shapes):
        _check_group(part, *shape)
    return list(parts)


def _node_count(part) -> int:
    """The size of a part's node table, once the part's format and table pass."""
    if not isinstance(part, dict) or part.get("format") != FORMAT:
        raise ValueError(f"not a part of format {FORMAT!r}")
    nodes = part.get("nodes")
    if type(nodes) is not list:
        raise ValueError("the node table must be a list")
    try:
        if len(set(nodes)) != len(nodes):
            raise ValueError("the node table repeats an entry")
    except TypeError as exc:
        raise ValueError(f"unhashable node id: {exc}") from exc
    return len(nodes)


def _block(part: Part, name: str, width: int, n_nodes: int, rows=slice(0)) -> np.ndarray:
    """``part[name]`` checked as a ``(width, n)`` int64 block whose ``rows``
    are positions into a node table of ``n_nodes`` entries."""
    block = part.get(name)
    if (
        not isinstance(block, np.ndarray)
        or block.dtype != np.int64
        or block.ndim != 2
        or block.shape[0] != width
    ):
        raise ValueError(f"{name} must be a ({width}, n) int64 block")
    positions = block[rows]
    if positions.size and (positions.min() < 0 or positions.max() >= n_nodes):
        raise ValueError(f"{name} holds a position outside the node table")
    return block


def _check_group(part, group_size: int, m: int, track_local: bool, track_eta: bool) -> None:
    n_nodes = _node_count(part)
    if part.get("group_size") != group_size or part.get("m") != m:
        raise ValueError(
            f"snapshot shape mismatch: expected (group_size={group_size}, m={m}), "
            f"got (group_size={part.get('group_size')}, m={part.get('m')})"
        )
    blocks = {
        name: _block(part, name, width, n_nodes, rows)
        for name, (width, rows) in _BLOCKS.items()
    }
    # τ_v cells need τ_v tracked, the per-edge counters η, and η_v cells both.
    for name, tracked in (
        ("tau_cells", track_local),
        ("tri", track_eta),
        ("eta_cells", track_local and track_eta),
    ):
        if blocks[name].shape[1] and not tracked:
            raise ValueError(f"{name} holds counters the receiving state does not track")
    rows = _block(part, "rows", 3, 0)
    if rows.shape[1] != group_size:
        raise ValueError(f"rows must be a (3, {group_size}) int64 block")
    for name, block in blocks.items():
        if block.shape[1] and (block[0].min() < 0 or block[0].max() >= group_size):
            raise ValueError(f"{name} holds a slot outside 0..{group_size - 1}")
    edges, tri = blocks["edges"], blocks["tri"]
    if np.any(edges[1] == edges[2]) or np.any(tri[1] == tri[2]):
        raise ValueError("an edge's two endpoints are equal")
    keys = np.stack((tri[0], np.minimum(tri[1], tri[2]), np.maximum(tri[1], tri[2])))
    if np.unique(keys, axis=1).shape[1] != keys.shape[1]:
        raise ValueError("tri holds a per-edge counter key twice")
    for name, values in (
        ("tri", tri[3]),
        ("tau_cells", blocks["tau_cells"][2]),
        ("eta_cells", blocks["eta_cells"][2]),
        ("rows", rows),
    ):
        if values.size and values.min() < 0:
            raise ValueError(f"{name} holds a negative counter")
    if np.any(blocks["tau_cells"][2] == 0):
        raise ValueError("tau_cells holds a zero cell")
    # A processor keeps τ_(u,v) only for the edges of E(i), and τ_v and η_v
    # only for the nodes an edge of E(i) touches.
    stored = np.stack((edges[0], np.minimum(edges[1], edges[2]), np.maximum(edges[1], edges[2])))
    if not _all_in(keys, stored):
        raise ValueError("tri holds a counter of an edge the part does not store")
    ends = np.concatenate((edges[:2], edges[::2]), axis=1)
    for name in ("tau_cells", "eta_cells"):
        if not _all_in(blocks[name][:2], ends):
            raise ValueError(f"{name} holds a cell of a node that stores no edge on its slot")


def _all_in(keys: np.ndarray, block: np.ndarray) -> bool:
    """Whether every column of ``keys`` is a column of ``block``."""
    if not keys.shape[1]:
        return True
    _, inverse = np.unique(np.concatenate((block, keys), axis=1), axis=1, return_inverse=True)
    n = block.shape[1]
    return bool(np.isin(inverse[n:], inverse[:n]).all())


# -- interning checked parts ---------------------------------------------------


def _ids(part: Part, interner: NodeInterner) -> np.ndarray:
    nodes = part["nodes"]
    return np.fromiter(map(interner.intern, nodes), np.int64, len(nodes))


def intern_group(part: Part, interner: NodeInterner) -> ColumnarDelta:
    """The in-process columns of a checked group part (see :func:`read_groups`)."""
    ids = _ids(part, interner)
    edges, tri = part["edges"], part["tri"]
    tau_cells, eta_cells = part["tau_cells"], part["eta_cells"]
    a, b = ids[edges[1]], ids[edges[2]]
    edges = np.stack((edges[0], np.minimum(a, b), np.maximum(a, b)))
    a, b = ids[tri[1]], ids[tri[2]]
    return ColumnarDelta(
        edges,
        np.stack((tri[0], np.minimum(a, b), np.maximum(a, b), tri[3])),
        np.stack((tau_cells[0], ids[tau_cells[1]], tau_cells[2])),
        np.stack((eta_cells[0], ids[eta_cells[1]], eta_cells[2])),
        part["rows"].copy(),
    )


# -- the dict form of earlier versions -----------------------------------------


def _from_dict_form(snapshots, seen: list) -> List[Part]:
    """Current group parts of a state in the raw-keyed dict form of earlier versions.

    Nodes are numbered by a scratch interner and the parts written by the
    writer above.  ``seen``, a list of raw node pairs (empty from the
    segment driver of earlier versions), is checked and dropped: a
    storeable edge is stored on its first arrival and an edge no group can
    store never needs the test, so the stored edges carry it.
    """
    scratch = NodeInterner()
    intern = scratch.intern
    try:
        for u, v in seen:
            hash((u, v))
        groups = []
        for snapshot in snapshots:
            records: Tuple[list, list, list, list] = ([], [], [], [])
            rows = []
            for slot, entry in enumerate(snapshot["processors"]):
                _internalize_processor(entry, slot, intern, records)
                rows.append((entry["tau"], entry["eta"], entry["edges_stored"]))
            edges, tri, tau_cells, eta_cells = map(columns, records, (3, 4, 3, 3))
            delta = ColumnarDelta(edges, tri, tau_cells, eta_cells, columns(rows, 3))
            groups.append(group_part(snapshot["group_size"], snapshot["m"], scratch.nodes, delta))
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ValueError(f"malformed dict-form state: {exc!r}") from exc
    return groups


def _internalize_processor(
    entry, slot: int, intern: Callable[[object], int], records: Tuple[list, list, list, list]
) -> None:
    """Append one raw-keyed processor entry's columns to ``records``."""
    edges, tri, tau_cells, eta_cells = records
    for node, neighbors in entry["adjacency"].items():
        a = intern(node)
        for other in neighbors:
            b = intern(other)
            if a < b:
                edges.append((slot, a, b))
    tri.extend(
        (slot, intern(a), intern(b), value) for (a, b), value in entry["edge_triangles"].items()
    )
    tau_cells.extend((slot, intern(node), value) for node, value in entry["tau_local"].items())
    eta_cells.extend((slot, intern(node), value) for node, value in entry["eta_local"].items())
