"""Property-based tests: the per-edge path's one compiled call.

On a native state set :meth:`~repro.core.state.GroupStateSet.process_edge`
makes one compiled call per record: every group runs the record loop of
the batch entry over the one record, in which C ports of both hash
families turn the edge's key into the group's slot.  These tests hold it
to the dict kernel, whose per-edge path is ``EdgeHashFunction.bucket``
plus the group's one batch loop:

* the compiled slot of every edge equals ``bucket(u, v)`` for both
  families over several seeds and values of ``m``, on int ids (0, ±1, the
  int64 extremes, values past int64), strs (lone surrogates included),
  bools and integral floats;
* per-edge calls mixed with batches leave a ``kernel="auto"`` and a
  ``kernel="python"`` state set equal after every step, in
  ``summaries()`` and every group's ``columns()``, on Algorithm 1,
  complete groups and a partial group, with local counts on and off,
  with η on, and with both hash families;
* every group record holds its arrays' current addresses and capacities,
  the cell pool's included, across growth, ``restore_portable``,
  ``merge_snapshots`` and pickling;
* pools that start at one node, one edge row and one cell make per-edge
  records stop and grow all three, and still match the dict kernel;
* a record that raises changes no stored edge and no counter, in any
  group: when its key raises, and when growth raises after the call
  refused a record that left every group short of node columns, or one
  group short of edge rows or cells while the other had room.

Under ``REPRO_KERNEL=python`` the ``auto`` side resolves to the dict
groups too; the tests that need the compiled call skip.
"""

from __future__ import annotations

import ctypes
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import adjacency
from repro.core.adjacency import GroupArrays
from repro.core.config import ReptConfig
from repro.core.kernel import RECORD_COLUMNS, find_edges, native_available
from repro.core.state import GroupStateSet
from repro.exceptions import ConfigurationError
from repro.hashing import SplitMixEdgeHash, TabulationEdgeHash, make_hash_function
from repro.hashing.base import EdgeHashFunction
from repro.types import canonical_edge
from tests.conftest import zeroed_snapshot

SEED = 20261018
HASH_KINDS = ("splitmix", "tabulation")
CONFIGS = {
    "alg1": dict(m=4, c=3, track_eta=True),
    "alg2-complete": dict(m=3, c=6, track_eta=True),
    "alg2-partial": dict(m=4, c=6),
}


def _native_state(config):
    """A native state set even where ``REPRO_KERNEL=python`` is set."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_KERNEL", raising=False)
        return GroupStateSet(config, kernel="native")


needs_cc = pytest.mark.skipif(not native_available(), reason="no C compiler available")


def _config(name, track_local, hash_kind):
    return ReptConfig(seed=SEED, track_local=track_local, hash_kind=hash_kind, **CONFIGS[name])


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
        sorted(
            ((slot, nodes[n], value) for slot, n, value in zip(*delta.tau_cells.tolist())), key=repr
        ),
        sorted(
            ((slot, nodes[n], value) for slot, n, value in zip(*delta.eta_cells.tolist())), key=repr
        ),
        delta.rows.tolist(),
    )


def _state_columns(state):
    nodes = state.interner.nodes
    return [_raw_columns(group.columns(), nodes) for group in state.groups]


def _assert_same(native, python):
    assert native.summaries() == python.summaries()
    assert _state_columns(native) == _state_columns(python)


def _assert_records_fresh(state):
    """Every address the per-edge call reads is the group's current one."""
    if state.kernel == "python":
        return
    entry = state._edge_entry
    assert entry.n_groups == len(state.groups)
    pointers = (ctypes.c_void_p * entry.n_groups).from_address(entry.groups)
    for pointer, group in zip(pointers, state.groups):
        arrays = group._arrays
        record = arrays.record
        assert pointer == ctypes.addressof(record)
        assert (record.group_size, record.m) == (group.group_size, group.m)
        assert (record.node_cap, record.edge_cap, record.cell_cap) == (
            arrays.node_cap,
            arrays.edge_cap,
            arrays.cell_cap,
        )
        assert len(arrays.cell_head) == arrays.cell_cap
        assert len(arrays.pool_nbr) == len(arrays.pool_nxt) == 2 * arrays.edge_cap
        assert int(arrays.meta[3]) <= int(arrays.meta[2]) <= arrays.cell_cap
        for name in RECORD_COLUMNS:
            assert getattr(record, name) == getattr(arrays, name).ctypes.data, name
        hash_function = group.hash_function
        if isinstance(hash_function, SplitMixEdgeHash):
            assert (record.hash_kind, record.seed) == (0, hash_function.seed)
        else:
            assert (record.hash_kind, record.table) == (1, hash_function.tables.ctypes.data)
        n = arrays.n_edges
        assert n <= arrays.edge_cap
        if n:
            _, lo, hi = arrays.edge_rows(0)
            assert int(hi.max()) < arrays.node_cap
            assert (lo < hi).all()


# -- hash parity ---------------------------------------------------------------

INT64_MAX = 2**63 - 1
SPECIAL_IDS = [
    0, 1, -1, 2, INT64_MAX, -(2**63), 2**63, 2**64 - 1, 2**64, 2**70 + 3, -(2**64) - 7,
    "a", "", "node-17", "ü", "\ud800", "x\udfffy", "\udc80",
    True, False, 3.0, -5.0, 1e18, 2.5,
]
int_ids = st.integers(min_value=-(2**70), max_value=2**70)
str_ids = st.text(max_size=6) | st.sampled_from(["\ud800", "\udfff", "a\udc80b", "\ud83d"])
any_ids = int_ids | str_ids | st.booleans() | st.integers(-1000, 1000).map(float)


def _assert_slots_match(pairs, hash_kind, m, seed):
    """Per-edge calls on one complete group store every edge on its bucket."""
    state = _native_state(ReptConfig(m=m, c=m, seed=seed, hash_kind=hash_kind))
    (group,) = state.groups
    expected = {}
    for u, v in pairs:
        if u == v:
            continue
        state.process_edge(u, v)
        # The first arrival of an edge stores it, on that arrival's bucket.
        pair = tuple(sorted((state.interner.id_of(u), state.interner.id_of(v))))
        expected.setdefault(pair, group.hash_function.bucket(u, v))
    got = {(a, b): slot for slot, a, b in zip(*group.columns().edges.tolist())}
    assert got == expected
    _assert_records_fresh(state)


@needs_cc
@pytest.mark.parametrize("hash_kind", HASH_KINDS)
@pytest.mark.parametrize("m", [1, 2, 5, 16, 63])
@pytest.mark.parametrize("seed", [1, 7, 20261018])
def test_compiled_slot_equals_bucket_on_special_ids(hash_kind, m, seed):
    pairs = [(u, v) for u in SPECIAL_IDS for v in SPECIAL_IDS]
    _assert_slots_match(pairs, hash_kind, m, seed)


@needs_cc
@pytest.mark.parametrize("hash_kind", HASH_KINDS)
@given(
    pairs=st.lists(st.tuples(any_ids, any_ids), max_size=40),
    m=st.sampled_from([1, 3, 8, 31, 63]),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_compiled_slot_equals_bucket(hash_kind, pairs, m, seed):
    _assert_slots_match(pairs, hash_kind, m, seed)


@needs_cc
@pytest.mark.parametrize("hash_kind", HASH_KINDS)
def test_partial_group_stores_exactly_the_edges_bucketed_below_its_size(hash_kind):
    config = ReptConfig(m=50, c=7, seed=3, hash_kind=hash_kind)
    state = _native_state(config)
    (group,) = state.groups
    pairs = [(u, u * 7 + 1) for u in range(400)] + [(f"s{u}", u) for u in range(200)]
    for u, v in pairs:
        state.process_edge(u, v)
    stored = {
        canonical_edge(state.interner.nodes[a], state.interner.nodes[b]): slot
        for slot, a, b in zip(*group.columns().edges.tolist())
    }
    buckets = {canonical_edge(u, v): group.hash_function.bucket(u, v) for u, v in pairs}
    assert stored == {edge: slot for edge, slot in buckets.items() if slot < 7}
    assert 0 < len(stored) < len(buckets)


# -- kernel parity ---------------------------------------------------------------

node_ids = st.integers(min_value=0, max_value=11) | st.sampled_from(["p", "q", "\ud800"])
records = st.tuples(node_ids, node_ids)
#: A step is one per-edge record or one batch.
steps = st.lists(
    st.one_of(
        records.map(lambda record: ("edge", record)),
        st.lists(records, max_size=12).map(lambda batch: ("batch", batch)),
    ),
    max_size=60,
)


def _apply(state, step):
    kind, payload = step
    if kind == "edge":
        state.process_edge(*payload)
    else:
        state.process_edges(payload)


@pytest.mark.parametrize("hash_kind", HASH_KINDS)
@pytest.mark.parametrize("track_local", [True, False], ids=["local", "global"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@given(plan=steps)
@settings(max_examples=15, deadline=None)
def test_per_edge_calls_mixed_with_batches_match_dict_kernel(
    config_name, track_local, hash_kind, plan
):
    config = _config(config_name, track_local, hash_kind)
    native = GroupStateSet(config, kernel="auto")
    python = GroupStateSet(config, kernel="python")
    for step in plan:
        _apply(native, step)
        _apply(python, step)
        _assert_same(native, python)
        _assert_records_fresh(native)


# -- edge cases ----------------------------------------------------------------


def _growth_stream(seed, n=900, nodes=700):
    """Distinct-heavy records over many ids: node and edge columns double
    several times."""
    rng = random.Random(seed)
    hubs = list(range(12))
    out = []
    for _ in range(n):
        u = rng.choice(hubs) if rng.random() < 0.5 else rng.randrange(nodes)
        out.append((u, rng.randrange(nodes)))
    return out


def _capacities(state):
    return [
        (group._arrays.node_cap, group._arrays.edge_cap, group._arrays.cell_cap)
        for group in state.groups
    ]


@pytest.mark.parametrize("pools", ["default", "one-entry"])
@pytest.mark.parametrize("hash_kind", HASH_KINDS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_capacities_double_mid_stream(config_name, hash_kind, pools, monkeypatch):
    if pools == "one-entry":
        for name in ("_INIT_NODES", "_INIT_EDGES", "_INIT_CELLS"):
            monkeypatch.setattr(adjacency, name, 1)
    config = _config(config_name, True, hash_kind)
    native = GroupStateSet(config, kernel="auto")
    python = GroupStateSet(config, kernel="python")
    edges = _growth_stream(5)
    # Which of node columns, edge rows and cells grew inside a per-edge call.
    grew = set()
    for start in range(0, len(edges), 150):
        chunk = edges[start : start + 150]
        for u, v in chunk[:120]:
            before = _capacities(native) if native.kernel != "python" else None
            native.process_edge(u, v)
            python.process_edge(u, v)
            _assert_records_fresh(native)
            if before is not None:
                for caps, after in zip(before, _capacities(native)):
                    grew |= {
                        name
                        for name, old, new in zip(("nodes", "edges", "cells"), caps, after)
                        if new != old
                    }
        native.process_edges(chunk[120:])
        python.process_edges(chunk[120:])
        _assert_same(native, python)
    if native.kernel != "python":
        arrays = native.groups[0]._arrays
        assert arrays.node_cap >= 512 and arrays.edge_cap >= 256
        assert grew == {"nodes", "edges", "cells"}


@pytest.mark.parametrize("hash_kind", HASH_KINDS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_per_edge_after_restore_portable(config_name, hash_kind):
    config = _config(config_name, True, hash_kind)
    edges = _growth_stream(9, n=600, nodes=300)
    source = GroupStateSet(config, kernel="python")
    source.process_edges(edges[:300])
    state = pickle.loads(pickle.dumps(source.portable_state()))
    native = GroupStateSet(config, kernel="auto")
    python = GroupStateSet(config, kernel="python")
    for target in (native, python):
        # Content of another stream first, so the restore replaces columns.
        for u, v in _growth_stream(11, n=200, nodes=900):
            target.process_edge(u, v)
        target.restore_portable(state)
    _assert_records_fresh(native)
    for u, v in edges[300:]:
        native.process_edge(u, v)
        python.process_edge(u, v)
    _assert_same(native, python)
    _assert_records_fresh(native)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("hash_kind", HASH_KINDS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_per_edge_after_merging_a_later_stretch(config_name, hash_kind, seed):
    config = _config(config_name, True, hash_kind)
    rng = random.Random(seed)
    edges = _growth_stream(17 + seed, n=480, nodes=rng.choice([14, 60, 300]))
    first = rng.randint(40, 200)
    second = rng.randint(first + 40, 400)
    # Odd seeds advance the stretch on the compiled groups where available.
    worker_kernel = ("python", "auto")[seed % 2]
    native = GroupStateSet(config, kernel="auto")
    python = GroupStateSet(config, kernel="python")
    for target in (native, python):
        target.process_edges(edges[:first])
        # The next stretch, advanced from the stored edges with zeroed counters.
        worker = GroupStateSet(config, kernel=worker_kernel)
        for group, prefix in zip(worker.groups, target.groups):
            group.restore(zeroed_snapshot(prefix))
        worker.process_edges(edges[first:second])
        target.merge_snapshots(worker.snapshot())
    _assert_same(native, python)
    _assert_records_fresh(native)
    for u, v in edges[second : second + 80]:
        native.process_edge(u, v)
        python.process_edge(u, v)
        _assert_same(native, python)
    _assert_records_fresh(native)


@pytest.mark.parametrize("hash_kind", HASH_KINDS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_per_edge_after_pickling_mid_stream(config_name, hash_kind):
    config = _config(config_name, True, hash_kind)
    edges = _growth_stream(13, n=500, nodes=250)
    native = GroupStateSet(config, kernel="auto")
    python = GroupStateSet(config, kernel="python")
    for u, v in edges[:250]:
        native.process_edge(u, v)
        python.process_edge(u, v)
    native = pickle.loads(pickle.dumps(native))
    _assert_records_fresh(native)
    for u, v in edges[250:]:
        native.process_edge(u, v)
        python.process_edge(u, v)
    _assert_same(native, python)
    _assert_records_fresh(native)


class Touchy:
    """A hashable node id whose ordering raises (not as a TypeError)."""

    def __le__(self, other):
        raise RuntimeError("no order")

    __lt__ = __ge__ = __gt__ = __le__


@pytest.mark.parametrize("kernel", ["auto", "python"])
def test_a_record_whose_key_raises_changes_nothing(kernel):
    state = GroupStateSet(ReptConfig(m=3, c=6, seed=2, track_eta=True), kernel=kernel)
    state.process_edges([(1, 2), (2, 3)])
    before = _state_columns(state)
    with pytest.raises(RuntimeError, match="no order"):
        state.process_edge(Touchy(), 1)
    assert _state_columns(state) == before


def _lacks(state, u, v):
    """What each native group lacks to take record ``(u, v)``: ``"nodes"``,
    ``"edges"`` or ``"cells"``, or None when the record fits (the room
    check of the compiled entry, made here from the arrays)."""
    iu, iv = state.interner.id_of(u), state.interner.id_of(v)
    out = []
    for group in state.groups:
        arrays = group._arrays
        slot = group.hash_function.bucket(u, v)
        if max(iu, iv) >= arrays.node_cap:
            out.append("nodes")
        elif slot >= arrays.group_size or find_edges([slot], [iu], [iv], arrays.record)[0] >= 0:
            out.append(None)
        elif arrays.n_edges == arrays.edge_cap:
            out.append("edges")
        else:
            bits = [int(arrays.node_bits[x]) for x in (iu, iv)]
            need = sum(0 if b >> slot & 1 else b.bit_count() + 1 for b in bits)
            out.append("cells" if int(arrays.meta[2]) + need > arrays.cell_cap else None)
    return out


def _grows(arrays, short, extra):
    """Whether ``arrays.ensure_<short>(extra)`` grows a column."""
    if short == "nodes":
        return extra > arrays.node_cap
    if short == "edges":
        return arrays.n_edges + extra > arrays.edge_cap
    return int(arrays.meta[2]) + extra > arrays.cell_cap


def _record_short_of(short, native, python):
    """Advance both state sets to where the next per-edge record leaves
    ``native``'s groups short of ``short``, and return that record: every
    group short of node columns, or the first group short of edge rows or
    cells while the second has room."""
    if short == "nodes":
        for state in (native, python):
            state.process_edges([(0, 1), (1, 2), (0, 2)])
            # Ids past the groups' node columns, which cover the ids they reference.
            for node in range(1000, 1200):
                state.interner.intern(node)
        assert _lacks(native, 1, 1150) == ["nodes", "nodes"]
        return 1, 1150
    roomy = native.groups[1]._arrays
    roomy.ensure_edges(4096)
    roomy.ensure_cells(4096)
    rng = random.Random(3)
    for _ in range(5000):
        u, v = rng.randrange(40), rng.randrange(40)
        if u == v:
            continue
        native.interner.intern(u)
        native.interner.intern(v)
        if _lacks(native, u, v) == [short, None]:
            return u, v
        native.process_edge(u, v)
        python.process_edge(u, v)
    raise AssertionError(f"no record left the first group short of {short}")


@needs_cc
@pytest.mark.parametrize("short", ["nodes", "edges", "cells"])
def test_a_record_whose_growth_raises_changes_nothing(short, monkeypatch):
    config = ReptConfig(m=4, c=8, seed=3, track_eta=True)
    native = _native_state(config)
    python = GroupStateSet(config, kernel="python")
    u, v = _record_short_of(short, native, python)
    before = _state_columns(native)
    grow = getattr(GroupArrays, f"ensure_{short}")

    def refuse(self, extra):
        if _grows(self, short, extra):
            raise MemoryError("refused")
        grow(self, extra)

    monkeypatch.setattr(GroupArrays, f"ensure_{short}", refuse)
    with pytest.raises(MemoryError):
        native.process_edge(u, v)
    # No group ran the record, the one with room included.
    assert _state_columns(native) == before
    monkeypatch.setattr(GroupArrays, f"ensure_{short}", grow)
    native.process_edge(u, v)
    python.process_edge(u, v)
    _assert_same(native, python)
    _assert_records_fresh(native)


@needs_cc
def test_a_foreign_hash_function_is_refused():
    class Foreign(EdgeHashFunction):
        def _hash_key(self, key):
            return key

    config = ReptConfig(m=4, c=8, seed=1)
    foreign = [Foreign(4), Foreign(4)]
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_KERNEL", raising=False)
        with pytest.raises(ConfigurationError, match="Foreign"):
            GroupStateSet(config, hash_functions=foreign, kernel="auto")
        subclass = type("Derived", (TabulationEdgeHash,), {})
        with pytest.raises(ConfigurationError, match="Derived"):
            GroupStateSet(config, hash_functions=[subclass(4, 1), subclass(4, 2)], kernel="auto")
    # The dict kernel hashes with bucket() and takes any family.
    state = GroupStateSet(config, hash_functions=foreign, kernel="python")
    state.process_edge(1, 2)
    assert state.total_edges_stored() == 2


def test_family_parameters_are_exposed():
    splitmix = make_hash_function("splitmix", 8, seed=5)
    assert 0 <= splitmix.seed < 2**64
    tabulation = make_hash_function("tabulation", 8, seed=5)
    tables = tabulation.tables
    assert tables.shape == (8, 256) and tables.dtype == np.uint64
    assert tables.flags.c_contiguous
