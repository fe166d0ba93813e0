"""Property-based tests: one state format on both kernels.

Every state boundary speaks :class:`~repro.core.portable.ColumnarDelta`
columns (see :mod:`repro.core.portable`).  Hypothesis drives duplicate-
heavy streams through Algorithm 1, complete groups and a partial group,
each with and without local counts, and checks that

* after every batch, the native and the dict groups' ``columns()`` agree
  once mapped to raw node ids;
* ``restore_portable(portable_state())`` continues bit-identically on
  the same kernel and across kernels, and so does the state rewritten in
  the dict form earlier versions wrote;
* every part a run writes passes the reader — each per-edge counter on
  an edge the part stores, each ``τ_v``/``η_v`` cell on a node with an
  edge on the slot — after batches, per-edge calls, pickling mid-stream,
  a restore then more records, a later stretch advanced from a zeroed
  snapshot and merged, and in every open monitor window.

Under ``REPRO_KERNEL=python`` the ``auto`` side resolves to the dict
groups too, which keeps the format paths in the pure-Python lane.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import portable
from repro.core.config import ReptConfig
from repro.core.state import GroupStateSet
from repro.streaming.monitor import WindowedTriangleMonitor
from repro.types import canonical_edge
from tests.conftest import dict_form, zeroed_snapshot

SEED = 20261017

CONFIGS = {
    "alg1": dict(m=4, c=3, track_eta=True),
    "alg2-complete": dict(m=3, c=6),
    "alg2-partial": dict(m=4, c=6),
}
KERNELS = ("auto", "python")

node_ids = st.integers(min_value=0, max_value=11)
streams = st.lists(st.tuples(node_ids, node_ids), min_size=0, max_size=160)
batch_sizes = st.integers(min_value=1, max_value=40)


def _config(name, track_local):
    return ReptConfig(seed=SEED, track_local=track_local, **CONFIGS[name])


def _raw_columns(delta, nodes):
    """A group's columns with raw node ids, comparable with ``==``."""
    return (
        sorted(
            (slot, canonical_edge(nodes[a], nodes[b]))
            for slot, a, b in zip(*delta.edges.tolist())
        ),
        sorted(
            (slot, canonical_edge(nodes[a], nodes[b]), value)
            for slot, a, b, value in zip(*delta.tri.tolist())
        ),
        sorted((slot, nodes[n], value) for slot, n, value in zip(*delta.tau_cells.tolist())),
        sorted((slot, nodes[n], value) for slot, n, value in zip(*delta.eta_cells.tolist())),
        delta.rows.tolist(),
    )


def _state_columns(state):
    nodes = state.interner.nodes
    return [_raw_columns(group.columns(), nodes) for group in state.groups]


def _key(estimate):
    return (
        estimate.global_count,
        estimate.local_counts,
        estimate.edges_processed,
        estimate.edges_stored,
        estimate.metadata.get("eta_hat"),
    )


@pytest.mark.parametrize("track_local", [True, False], ids=["local", "global"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@given(edges=streams, batch=batch_sizes)
@settings(max_examples=25, deadline=None)
def test_columns_agree_after_every_batch(config_name, track_local, edges, batch):
    config = _config(config_name, track_local)
    native = GroupStateSet(config, kernel="auto")
    python = GroupStateSet(config, kernel="python")
    for start in range(0, len(edges), batch):
        native.process_edges(edges[start : start + batch])
        python.process_edges(edges[start : start + batch])
        assert _state_columns(native) == _state_columns(python)


@pytest.mark.parametrize("track_local", [True, False], ids=["local", "global"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@given(edges=streams, cut=st.integers(min_value=0, max_value=160))
@settings(max_examples=15, deadline=None)
def test_portable_round_trip_continues_bit_identically(config_name, track_local, edges, cut):
    config = _config(config_name, track_local)
    cut = min(cut, len(edges))
    straight = GroupStateSet(config, kernel="python")
    n = straight.process_edges(edges)
    expected = _key(straight.estimate(n))
    for source_kernel in KERNELS:
        source = GroupStateSet(config, kernel=source_kernel)
        source.process_edges(edges[:cut])
        state = pickle.loads(pickle.dumps(source.portable_state()))
        for target_kernel in KERNELS:
            for written in (state, dict_form(state)):
                resumed = GroupStateSet(config, kernel=target_kernel)
                resumed.restore_portable(written)
                assert _state_columns(resumed) == _state_columns(source)
                resumed.process_edges(edges[cut:])
                assert _key(resumed.estimate(n)) == expected
                assert _state_columns(resumed) == _state_columns(straight)


# -- every part a run writes passes the reader -----------------------------------

records = st.tuples(node_ids, node_ids)
record_lists = st.lists(records, max_size=14)
#: A step of a run: a batch, a per-edge record, a pickle round trip, a
#: restore into a fresh state set, or a later stretch advanced from a
#: zeroed snapshot and merged.
steps = st.lists(
    st.one_of(
        record_lists.map(lambda batch: ("batch", batch)),
        records.map(lambda record: ("edge", record)),
        st.just(("pickle", None)),
        st.just(("restore", None)),
        record_lists.map(lambda batch: ("stretch", batch)),
    ),
    max_size=30,
)


def _assert_parts_pass(state):
    shapes = [group.part_shape for group in state.groups]
    portable.read_state(pickle.loads(pickle.dumps(state.portable_state())), shapes)


def _step(state, step, kernel):
    kind, payload = step
    if kind == "batch":
        state.process_edges(payload)
    elif kind == "edge":
        state.process_edge(*payload)
    elif kind == "pickle":
        return pickle.loads(pickle.dumps(state))
    elif kind == "restore":
        fresh = GroupStateSet(state.config, kernel=kernel)
        fresh.restore_portable(state.portable_state())
        return fresh
    else:
        worker = GroupStateSet(state.config, kernel=kernel)
        for group, prefix in zip(worker.groups, state.groups):
            group.restore(zeroed_snapshot(prefix))
        worker.process_edges(payload)
        _assert_parts_pass(worker)
        state.merge_snapshots(worker.snapshot())
    return state


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("track_local", [True, False], ids=["local", "global"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@given(plan=steps)
@settings(max_examples=15, deadline=None)
def test_every_part_a_run_writes_passes_the_reader(config_name, track_local, kernel, plan):
    state = GroupStateSet(_config(config_name, track_local), kernel=kernel)
    for step in plan:
        state = _step(state, step, kernel)
        _assert_parts_pass(state)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@given(
    stamped=st.lists(
        st.tuples(node_ids, node_ids, st.integers(min_value=0, max_value=80)), max_size=120
    ),
    cut=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=10, deadline=None)
def test_every_monitor_window_state_passes_the_reader(config_name, kernel, stamped, cut):
    monitor = WindowedTriangleMonitor(
        12.0,
        slide_seconds=4.0,
        pane_seconds=2.0,
        config=ReptConfig(seed=SEED, kernel=kernel, **CONFIGS[config_name]),
        allowed_lateness=1.0,
    )
    ordered = [(u, v, t / 2.0) for u, v, t in sorted(stamped, key=lambda r: r[2])]
    for index, start in enumerate(range(0, len(ordered), 10)):
        if index == cut:
            monitor = pickle.loads(pickle.dumps(monitor))
        monitor.ingest(ordered[start : start + 10])
        for chain in monitor._chains.values():
            _assert_parts_pass(chain.state)
