"""Property-based tests: a native group's sparse (slot, node) cells.

A native group keeps a node's per-slot state — the head of its neighbour
chain, and ``τ_v``, ``η_v`` and the η mark when tracked — in one pool of
cells, only where the node holds a slot.  Node ``x``'s cells form one
block at ``node_base[x]``, one per set bit of ``node_bits[x]`` in slot
order.  These tests hold the layout to its invariants and to the dict
kernel:

* after every batch and every per-edge step, each node with slot bits
  owns ``popcount(bits)`` cells at ``node_base``, the blocks do not
  overlap and count exactly the live cells, every other cell is zero,
  each cell's chain holds exactly the node's stored edges on its slot
  and is never empty, ``columns()`` equals the dict reference and every
  group record holds its arrays' current addresses and capacities;
* batches forced short mid-batch (a one-cell initial pool, with or
  without a one-edge initial edge store) stop on cells and on edges and
  half-edges, resume where they stopped, and like compaction mid-stream
  and per-edge calls after a compaction and after unpickling give the
  same columns as a roomy pool;
* the η correction of a per-edge counter merged twice lands on cells its
  ends already hold, a restored state round-trips bit-identically on both
  kernels, and later ingest stays exact; a restored ``τ_v`` cell of a
  node without an edge is refused and changes nothing;
* older pickles in the dense ``group_size × node_cap`` layout convert
  cell for cell, and an older pickle that holds what no run writes — a
  ``τ_v`` or ``η_v`` without a chain, or a per-edge counter of an edge
  its group does not store — is refused;
* a group's arrays scale with its sample, not with the interner, and the
  cell columns a pane take returns do not pin the scan's scratch.

Under ``REPRO_KERNEL=python`` the ``auto`` side resolves to the dict
groups too: the parity checks still run and the layout checks skip.
"""

from __future__ import annotations

import ctypes
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_property_per_edge import _assert_records_fresh

from repro.core import adjacency
from repro.core import kernel as kernel_mod
from repro.core.adjacency import GroupArrays
from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.core.kernel import resolve_kernel
from repro.core.portable import columns
from repro.core.state import GroupStateSet
from repro.types import canonical_edge

SEED = 20261019
CONFIGS = {
    "alg1": dict(m=4, c=3, track_eta=True),
    "alg2-complete": dict(m=3, c=6, track_eta=True),
    "alg2-partial": dict(m=4, c=6),
    "wide": dict(m=9, c=9, track_eta=True),
}

needs_cc = pytest.mark.skipif(
    resolve_kernel("auto") == "python", reason="kernel='auto' resolves to the dict groups here"
)


def _config(name, track_local=True, hash_kind="splitmix"):
    return ReptConfig(seed=SEED, track_local=track_local, hash_kind=hash_kind, **CONFIGS[name])


def _native_groups(state):
    return [group for group in state.groups if hasattr(group, "_arrays")]


# -- the layout's invariants -----------------------------------------------------


def _assert_cells(arrays):
    """The cell pool of one group against the edge columns it indexes."""
    n_cells, n_dead = int(arrays.meta[2]), int(arrays.meta[3])
    assert 0 <= n_dead <= n_cells <= arrays.cell_cap
    owner = {}
    for x in np.flatnonzero(arrays.node_bits[: arrays.node_cap]).tolist():
        bits = int(arrays.node_bits[x])
        assert 0 < bits < 1 << arrays.group_size
        base = int(arrays.node_base[x])
        held = [s for s in range(arrays.group_size) if bits >> s & 1]
        assert len(held) == bits.bit_count()
        assert 0 <= base and base + len(held) <= n_cells
        for rank, s in enumerate(held):
            assert base + rank not in owner, "blocks overlap"
            owner[base + rank] = (x, s)
    assert len(owner) == n_cells - n_dead
    free = np.ones(arrays.cell_cap, bool)
    free[list(owner)] = False
    for name in ("cell_head", "cell_tau", "cell_eta", "cell_mark"):
        column = getattr(arrays, name)
        if len(column) == arrays.cell_cap:
            assert not column[free].any(), f"{name} holds a value outside every block"
        else:
            assert column.tolist() == [0], f"{name} is an untracked placeholder"
    expected = {}
    for e, (s, a, b) in enumerate(zip(*arrays.edge_rows(0).tolist())):
        expected.setdefault((a, s), set()).add((b, e))
        expected.setdefault((b, s), set()).add((a, e))
    for cell, (x, s) in owner.items():
        assert arrays.cell_head[cell] != -1, f"node {x}'s chain on slot {s} is empty"
        chain = set()
        h = int(arrays.cell_head[cell])
        for _ in range(2 * arrays.n_edges + 1):
            if h == -1:
                break
            chain.add((int(arrays.pool_nbr[h]), h >> 1))
            h = int(arrays.pool_nxt[h])
        assert h == -1, "a chain does not end"
        assert chain == expected.pop((x, s), set()), (x, s)
    assert not expected, "a stored edge's endpoint does not hold its slot"


def _assert_layout(state):
    for group in _native_groups(state):
        _assert_cells(group._arrays)
    _assert_records_fresh(state)


def _raw_columns(delta, nodes):
    """A group's columns with raw node ids, comparable with ``==``.

    Ids mix ints and strs, so entries sort by their ``repr``.
    """
    return (
        sorted(
            (
                (slot, canonical_edge(nodes[a], nodes[b]))
                for slot, a, b in zip(*delta.edges.tolist())
            ),
            key=repr,
        ),
        sorted(
            (
                (slot, canonical_edge(nodes[a], nodes[b]), value)
                for slot, a, b, value in zip(*delta.tri.tolist())
            ),
            key=repr,
        ),
        *(
            sorted(((slot, nodes[n], value) for slot, n, value in zip(*cells.tolist())), key=repr)
            for cells in (delta.tau_cells, delta.eta_cells)
        ),
        delta.rows.tolist(),
    )


def _state_columns(state):
    nodes = state.interner.nodes
    return [_raw_columns(group.columns(), nodes) for group in state.groups]


def _assert_same(native, python):
    assert _state_columns(native) == _state_columns(python)
    assert native.summaries() == python.summaries()


def _exact_columns(state):
    """Every block of every group, in the native order (for pool-independence)."""
    return [
        [block.tolist() for block in (d.edges, d.tri, d.tau_cells, d.eta_cells, d.rows)]
        for d in (group.columns() for group in state.groups)
    ]


# -- growth paths -------------------------------------------------------------------


def _stream(seed, n=700, nodes=260):
    """Hub-heavy records: hubs gain every slot, one at a time."""
    rng = random.Random(seed)
    hubs = list(range(10))
    return [
        (rng.choice(hubs) if rng.random() < 0.5 else rng.randrange(nodes), rng.randrange(nodes))
        for _ in range(n)
    ]


class _Rebuilds:
    """Spies on the pool's compactions: (cap before, cap after, dead before)."""

    def __init__(self, monkeypatch):
        self.seen = []
        ensure = GroupArrays.ensure_cells

        def spy(arrays, extra):
            before = (arrays.cell_cap, int(arrays.meta[3]), arrays.cell_head)
            ensure(arrays, extra)
            if arrays.cell_head is not before[2]:
                self.seen.append((before[0], arrays.cell_cap, before[1]))

        monkeypatch.setattr(GroupArrays, "ensure_cells", spy)


def _run(config, edges, kernel="auto"):
    """Batches of 30 records, each followed by 10 per-edge calls."""
    state = GroupStateSet(config, kernel=kernel)
    for start in range(0, len(edges), 40):
        chunk = edges[start : start + 40]
        state.process_edges(chunk[:30])
        for u, v in chunk[30:]:
            state.process_edge(u, v)
        _assert_layout(state)
    return state


def _short_of(record):
    """The room a batch call that stopped lacked: ``"edges"`` when the
    group has no edge row left, else ``"cells"``."""
    n_edges = ctypes.c_int64.from_address(record.meta).value
    return "edges" if n_edges == record.edge_cap else "cells"


@needs_cc
@pytest.mark.parametrize("short", ["cells", "edges"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_a_short_pool_mid_batch_ends_like_a_roomy_one(config_name, short, monkeypatch):
    config = _config(config_name)
    edges = _stream(3)
    init_edges = adjacency._INIT_EDGES
    monkeypatch.setattr(adjacency, "_INIT_CELLS", 1 << 16)
    monkeypatch.setattr(adjacency, "_INIT_EDGES", 1 << 16)
    roomy = _run(config, edges)
    assert all(
        (group._arrays.cell_cap, group._arrays.edge_cap) == (1 << 16, 1 << 16)
        for group in roomy.groups
    )
    # A one-cell pool, and with "edges" one edge and two half-edges too.
    monkeypatch.setattr(adjacency, "_INIT_CELLS", 1)
    monkeypatch.setattr(adjacency, "_INIT_EDGES", 1 if short == "edges" else init_edges)
    calls = []
    run_groups = kernel_mod.run_groups

    def spy(entry, n, cu, cv, keys, fresh):
        starts = [0] * entry.n_groups if fresh else entry.stops.tolist()
        short = run_groups(entry, n, cu, cv, keys, fresh)
        for record, start, done in zip(entry.records, starts, entry.stops.tolist()):
            if start < n:
                calls.append(
                    (ctypes.addressof(record), start, done, n, done < n and _short_of(record))
                )
        return short

    monkeypatch.setattr(kernel_mod, "run_groups", spy)
    short_run = _run(config, edges)
    # Batches stopped mid-way and each group resumed where it stopped.
    assert any(0 < done < n for _, _, done, n, _ in calls)
    resume = {}
    for address, start, done, n, _ in calls:
        assert start == resume.get(address, 0)
        resume[address] = done if done < n else 0
    lacked = {reason for *_, reason in calls if reason}
    assert lacked == {"cells", "edges"}
    assert _exact_columns(short_run) == _exact_columns(roomy)
    _assert_same(short_run, _run(config, edges, "python"))


@needs_cc
@pytest.mark.parametrize("hash_kind", ["splitmix", "tabulation"])
def test_compaction_mid_stream_and_per_edge_calls_after_it(hash_kind, monkeypatch):
    # Nine slots over few nodes: blocks move often.
    config = _config("wide", hash_kind=hash_kind)
    edges = _stream(7, n=900, nodes=40)
    monkeypatch.setattr(adjacency, "_INIT_CELLS", 1 << 16)
    roomy = GroupStateSet(config, kernel="auto")
    roomy.ingest_stream(edges[:450], batch_edges=50)
    monkeypatch.setattr(adjacency, "_INIT_CELLS", 8)
    rebuilds = _Rebuilds(monkeypatch)
    state = GroupStateSet(config, kernel="auto")
    state.ingest_stream(edges[:450], batch_edges=50)
    # Some rebuild packed a pool whose abandoned cells outnumbered the
    # live ones, and kept its size.
    assert any(before == after and dead for before, after, dead in rebuilds.seen)
    _assert_layout(state)
    python = GroupStateSet(config, kernel="python")
    python.ingest_stream(edges[:450], batch_edges=50)
    for u, v in edges[450:]:
        for target in (state, roomy, python):
            target.process_edge(u, v)
    _assert_layout(state)
    assert _exact_columns(state) == _exact_columns(roomy)
    _assert_same(state, python)


@needs_cc
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_per_edge_calls_after_unpickling(config_name, monkeypatch):
    config = _config(config_name)
    edges = _stream(11, n=600)
    monkeypatch.setattr(adjacency, "_INIT_CELLS", 2)
    state = _run(config, edges[:300])
    python = _run(config, edges[:300], "python")
    state = pickle.loads(pickle.dumps(state))
    _assert_layout(state)
    for u, v in edges[300:]:
        state.process_edge(u, v)
        python.process_edge(u, v)
    _assert_layout(state)
    _assert_same(state, python)


# -- cells that restores and merges fold into ---------------------------------------


def _assert_round_trips(native, python, config):
    """Both states, written and read on either kernel, read back the same."""
    written = [pickle.loads(pickle.dumps(state.portable_state())) for state in (native, python)]
    readers = []
    for state in written:
        for kernel in ("auto", "python"):
            reader = GroupStateSet(config, kernel=kernel)
            reader.restore_portable(state)
            _assert_layout(reader)
            readers.append(reader)
    for reader in readers:
        _assert_same(reader, python)
    snapshots = [reader.portable_state() for reader in readers if reader.kernel != "python"]
    for snapshot in snapshots[1:]:
        assert _raw_state(snapshot) == _raw_state(snapshots[0])
    return readers


_BLOCKS = ("edges", "tri", "tau_cells", "eta_cells")


def _raw_state(state):
    return pickle.dumps(
        [
            (part["nodes"], [part[name].tolist() for name in _BLOCKS])
            for part in state["snapshots"]
        ]
    )


def _continue(states, python, edges):
    for k, (u, v) in enumerate(edges):
        if k % 4 == 3:
            batch = edges[k : k + 3]
            for state in states + [python]:
                state.process_edges(batch)
        for state in states + [python]:
            state.process_edge(u, v)
        for state in states:
            _assert_same(state, python)
            _assert_layout(state)


def _eta_cells(state, nodes):
    """``(group, slot, raw node, η_v)`` of the η cells of ``nodes``."""
    found = []
    for index, group in enumerate(state.groups):
        cells = group.columns().eta_cells
        for slot, x, value in zip(*cells.tolist()):
            if state.interner.nodes[x] in nodes:
                found.append((index, slot, state.interner.nodes[x], value))
    return sorted(found, key=repr)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("config_name", ["alg1", "alg2-complete", "wide"])
def test_an_eta_correction_of_a_merged_counter_lands_on_held_cells(config_name, seed):
    config = _config(config_name)
    rng = random.Random(seed)
    edges = [(rng.randrange(12), rng.randrange(12)) for _ in range(160)]
    native = GroupStateSet(config, kernel="auto")
    python = GroupStateSet(config, kernel="python")
    for state in (native, python):
        state.process_edges(edges[:40])
    # A run over a clique of fresh nodes, hung off the stream's nodes,
    # merged twice: the second fold corrects η_v of both ends of every
    # per-edge counter, on cells the first fold gave them.
    fresh = [f"fresh-{k}" for k in range(7)]
    side = GroupStateSet(config, kernel="python")
    side.process_edges(
        [(a, b) for k, a in enumerate(fresh) for b in fresh[k + 1 :]]
        + [(a, rng.randrange(12)) for a in fresh]
    )
    parts = side.snapshot()
    assert any(part["tri"][3].any() for part in parts), "nothing to correct"
    for state in (native, python):
        state.merge_snapshots(parts)
    once = _eta_cells(python, fresh)
    for state in (native, python):
        state.merge_snapshots(parts)
        _assert_layout(state)
    _assert_same(native, python)
    twice = _eta_cells(python, fresh)
    assert [cell[:3] for cell in twice] == [cell[:3] for cell in once]
    assert sum(cell[3] for cell in twice) > 2 * sum(cell[3] for cell in once)
    readers = _assert_round_trips(native, python, config)
    later = edges[40:] + [(fresh[0], 1), (fresh[1], 1), (fresh[0], fresh[1])]
    _continue([native] + readers, python, later)


def _with_edgeless_node(state, track_eta):
    """A portable state whose node 99, which stores no edge, has a τ_v (and
    an η_v) on every slot."""
    for part in state["snapshots"]:
        nodes = list(part["nodes"]) + [99]
        k = len(nodes) - 1
        size = part["group_size"]
        part["nodes"] = nodes
        part["tau_cells"] = np.concatenate(
            (part["tau_cells"], columns([(s, k, 2 + s) for s in range(size)], 3)), axis=1
        )
        if track_eta:
            part["eta_cells"] = np.concatenate(
                (part["eta_cells"], columns([(s, k, s) for s in range(size)], 3)), axis=1
            )
    return state


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_a_restored_tau_cell_without_an_edge_is_refused(config_name, seed):
    config = _config(config_name)
    rng = random.Random(seed)
    edges = [(rng.randrange(12), rng.randrange(12)) for _ in range(160)]
    source = GroupStateSet(config, kernel="python")
    source.process_edges(edges[:50])
    state = source.portable_state()
    native = GroupStateSet(config, kernel="auto")
    python = GroupStateSet(config, kernel="python")
    for target in (native, python):
        target.process_edges(edges[100:120])
        before = (_exact_columns(target), list(target.interner.nodes))
        broken = _with_edgeless_node(pickle.loads(pickle.dumps(state)), config.track_eta)
        with pytest.raises(ValueError, match="stores no edge on its slot"):
            target.restore_portable(broken)
        assert (_exact_columns(target), list(target.interner.nodes)) == before
        _assert_layout(target)
        target.restore_portable(pickle.loads(pickle.dumps(state)))
    _assert_same(native, python)
    _assert_layout(native)
    assert native.estimate(50).local_counts == python.estimate(50).local_counts
    readers = _assert_round_trips(native, python, config)
    _continue([native] + readers, python, edges[50:] + [(99, 1), (99, 2), (1, 2)])


# -- older pickles and the footprint ------------------------------------------------


def _dense_pickle_state(arrays):
    """``arrays``' state as the dense layout pickled it, with a tag column."""
    size, cap = arrays.group_size, arrays.node_cap
    heads = np.full((size, cap), -1, np.int64)
    tau_local = np.zeros((size, cap) if arrays.track_local else (1, 1), np.int64)
    dense_eta = arrays.has_eta_local
    eta_local = np.zeros((size, cap) if dense_eta else (1, 1), np.int64)
    eta_mark = np.zeros((size, cap) if dense_eta else (1, 1), np.uint8)
    for x in np.flatnonzero(arrays.node_bits[:cap]).tolist():
        bits = int(arrays.node_bits[x])
        held = [s for s in range(size) if bits >> s & 1]
        for rank, s in enumerate(held):
            cell = int(arrays.node_base[x]) + rank
            heads[s, x] = arrays.cell_head[cell]
            if arrays.track_local:
                tau_local[s, x] = arrays.cell_tau[cell]
            if dense_eta:
                eta_local[s, x] = arrays.cell_eta[cell]
                eta_mark[s, x] = arrays.cell_mark[cell]
    state = {
        name: value
        for name, value in vars(arrays).items()
        if name not in ("record", "node_base", "cell_cap") and not name.startswith("cell_")
    }
    # The dense layout set a node's bit only where it stored an edge.
    state["node_bits"] = np.zeros(cap, np.int64)
    for s in range(size):
        state["node_bits"] |= np.where(heads[s] != -1, 1 << s, 0)
    state.update(heads=heads, tau_local=tau_local, eta_local=eta_local, eta_mark=eta_mark)
    # It also kept each half-edge's eid, each edge's endpoints, the pool's
    # capacity and the half-edge count.
    n, edge_cap = arrays.n_edges, arrays.edge_cap
    _, lo, hi = arrays.edge_rows(0)
    pool_eid = np.arange(2 * edge_cap) >> 1
    pool_eid[2 * n :] = 0
    state.update(
        pool_eid=pool_eid,
        edge_u=np.concatenate((lo, np.zeros(edge_cap - n, np.int64))),
        edge_v=np.concatenate((hi, np.zeros(edge_cap - n, np.int64))),
        pool_cap=2 * edge_cap,
        meta=np.array([2 * n, n, arrays.meta[1]]),
    )
    return state


@needs_cc
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_dense_pickles_convert_cell_for_cell(config_name):
    config = _config(config_name)
    edges = _stream(5, n=400, nodes=90)
    state = GroupStateSet(config, kernel="auto")
    state.ingest_stream(edges[:200], batch_edges=30)
    python = GroupStateSet(config, kernel="python")
    python.ingest_stream(edges[:200], batch_edges=30)
    # Folded cells too: the state restored from the dict kernel's.
    restored = pickle.loads(pickle.dumps(python.portable_state()))
    state.restore_portable(restored)
    before = _exact_columns(state)
    for group in state.groups:
        converted = GroupArrays.__new__(GroupArrays)
        converted.__setstate__(_dense_pickle_state(group._arrays))
        group._arrays = converted
    state._bind_edge_entry()
    for group in state.groups:
        group.__setstate__(group.__dict__)
    _assert_layout(state)
    assert _exact_columns(state) == before
    for u, v in edges[200:]:
        state.process_edge(u, v)
        python.process_edge(u, v)
    _assert_same(state, python)
    _assert_layout(state)


@needs_cc
@pytest.mark.parametrize("counter", ["tau", "eta"])
def test_a_dense_pickle_with_a_counter_off_every_chain_is_refused(counter):
    state = GroupStateSet(_config("alg1"), kernel="auto")
    state.process_edges(_stream(5, n=200, nodes=90))
    (group,) = state.groups
    dense = _dense_pickle_state(group._arrays)
    slot, node = np.argwhere(dense["heads"] == -1)[0]
    if counter == "tau":
        dense["tau_local"][slot, node] = 2
    else:
        dense["eta_mark"][slot, node] = 1
    with pytest.raises(ValueError, match="stores no edge on its slot"):
        GroupArrays.__new__(GroupArrays).__setstate__(dense)


@needs_cc
def test_an_older_pickle_with_a_loose_counter_is_refused():
    state = GroupStateSet(_config("alg1"), kernel="auto")
    state.process_edges(_stream(5, n=200, nodes=90))
    arrays = state.groups[0]._arrays
    held = arrays.__getstate__()
    # Older pickles kept per-slot dicts of per-edge counters of edges the
    # group does not store: empty ones are dropped.
    empty = [{} for _ in range(arrays.group_size)]
    converted = GroupArrays.__new__(GroupArrays)
    converted.__setstate__(dict(held, loose_tri=empty))
    assert "loose_tri" not in vars(converted)
    got, want = converted.columns(), arrays.columns()
    for name in ("edges", "tri", "tau_cells", "eta_cells", "rows"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    loose = [{(1, 2): 3}] + empty[1:]
    with pytest.raises(ValueError, match="does not store"):
        GroupArrays.__new__(GroupArrays).__setstate__(dict(held, loose_tri=loose))


@needs_cc
def test_arrays_scale_with_the_sample_not_the_interner():
    # The monitor's chains share one interner: a young chain references
    # only the newest ids of a large table.
    interner = NodeInterner()
    for node in range(50_000):
        interner.intern(node)
    config = ReptConfig(m=16, c=16, seed=SEED, track_local=True, track_eta=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_KERNEL", raising=False)
        state = GroupStateSet(config, interner=interner, kernel="native")
    newest = range(49_990, 50_000)
    state.process_edges([(u, v) for u in newest for v in newest if u < v][:10])
    (group,) = state.groups
    arrays = group._arrays
    assert arrays.node_cap >= 50_000
    size = sum(column.nbytes for column in vars(arrays).values() if isinstance(column, np.ndarray))
    assert size < 64 * arrays.node_cap
    _assert_layout(state)


@needs_cc
def test_taken_cell_columns_own_their_memory():
    # The compiled read writes into scratch sized for every live cell; a
    # pane delta kept in a ring must not keep that scratch alive.
    state = GroupStateSet(_config("alg2-complete"), kernel="auto")
    state.process_edges(_stream(2, n=300, nodes=40))
    stored = [np.empty((3, 0), np.int64) for _ in state.groups]
    for delta in state.take_pane_deltas(stored) + [group.columns() for group in state.groups]:
        for block in (delta.tau_cells, delta.eta_cells):
            assert block.base is None and block.flags.c_contiguous


# -- every step, on random plans (last: shrinking a failure takes a while) ------

node_ids = st.integers(min_value=0, max_value=15)
records = st.tuples(node_ids, node_ids)
#: A step is one per-edge record or one batch.
steps = st.lists(
    st.one_of(
        records.map(lambda record: ("edge", record)),
        st.lists(records, max_size=14).map(lambda batch: ("batch", batch)),
    ),
    max_size=50,
)


def _apply(state, step):
    kind, payload = step
    if kind == "edge":
        state.process_edge(*payload)
    else:
        state.process_edges(payload)


@pytest.mark.parametrize("initial_cells", [1, 64], ids=["one-cell-pool", "default-pool"])
@pytest.mark.parametrize("track_local", [True, False], ids=["local", "global"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@given(plan=steps)
@settings(max_examples=12, deadline=None)
def test_invariants_hold_after_every_step(config_name, track_local, initial_cells, plan):
    config = _config(config_name, track_local)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adjacency, "_INIT_CELLS", initial_cells)
        native = GroupStateSet(config, kernel="auto")
        python = GroupStateSet(config, kernel="python")
        for step in plan:
            _apply(native, step)
            _apply(python, step)
            _assert_same(native, python)
            _assert_layout(native)
