"""Property-based tests: native pane deltas ≡ the dict reference's.

Both kernels detach each pane as int64 columns
(:class:`~repro.core.portable.ColumnarDelta`); the array-backed groups
read and fold them with compiled calls, the dict groups through per-slot
:class:`~repro.core.state.ProcessorCounters`, the oracle.  Hypothesis
drives a ``kernel="auto"`` state set and a ``kernel="python"`` one through
the same panes and checks, after every take, that

* the deltas written as portable parts and read with raw ids agree —
  stored edges, ``τ``, ``τ_v``, ``τ_(u,v)``, ``η``, ``η_v`` (explicit
  zeros included) and ``edges_stored``;
* the live counters are zero, and each accumulator's ``snapshot()``
  agrees after every fold.

Between panes the runs may merge snapshots a run could write: a side
run's into the accumulators, and an accumulator's stored edges with zero
counters into the live sets.  A part no run writes — a per-edge counter
of an edge it does not store, or a ``τ_v``/``η_v`` cell of a node with no
edge on the slot — is refused by both kernels before anything changes;
where the receiver does not track that block, the reader refuses the
block itself.
A last property pickles a whole monitor mid-pane, resumes it and
compares every window with an uninterrupted dict-reference monitor.
Under ``REPRO_KERNEL=python`` both sides run the dict groups, which keeps
the monitor and pane paths in the pure-Python lane.
"""

from __future__ import annotations

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import portable
from repro.core.config import ReptConfig
from repro.core.portable import ColumnarDelta
from repro.core.state import GroupStateSet
from repro.streaming.monitor import WindowedTriangleMonitor
from tests.conftest import raw_snapshot, zeroed_snapshot

SEED = 20261017
NODES = 12

CONFIGS = {
    "alg1": dict(m=4, c=3, track_eta=True),
    "alg2-partial-eta": dict(m=3, c=8),
    "alg2-complete": dict(m=4, c=8),
}

node_ids = st.integers(min_value=0, max_value=NODES - 1)
streams = st.lists(st.tuples(node_ids, node_ids), min_size=20, max_size=160)
rng_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _config(name, track_local, kernel):
    return ReptConfig(seed=SEED, track_local=track_local, kernel=kernel, **CONFIGS[name])


def _side_snapshots(config, edges, rng):
    """The snapshots of a dict-kernel run over a random sample of ``edges``."""
    side = GroupStateSet(config, kernel="python")
    side.process_edges(rng.sample(edges, min(len(edges), rng.randint(1, 30))))
    return side.snapshot()


def _break_one_rule(part, rng):
    """A copy of a snapshot with one counter no run writes, and the block
    it sits in: a per-edge counter of an edge it does not store, or a
    ``τ_v``/``η_v`` cell of a node that stores no edge on the slot."""
    part = copy.deepcopy(part)
    slot = rng.randrange(part["group_size"])
    edges = part["edges"]
    touching = set(edges[1:, edges[0] == slot].ravel().tolist())
    free = [k for k in range(len(part["nodes"])) if k not in touching]
    while len(free) < 2:
        free.append(len(part["nodes"]))
        part["nodes"].append(NODES + len(free))
    a, b = sorted(rng.sample(free, 2))
    block = rng.choice(["tri", "tau_cells", "eta_cells"])
    entry = (slot, a, b, rng.randint(0, 3)) if block == "tri" else (slot, a, rng.randint(1, 3))
    part[block] = np.concatenate((part[block], np.array(entry, np.int64)[:, None]), axis=1)
    return part, block


def _refusal(config, block):
    """What the reader says of an odd entry in ``block``: a block the
    receiver does not track is refused for that before its entries are
    looked at."""
    tracked = {
        "tri": config.track_eta,
        "tau_cells": config.track_local,
        "eta_cells": config.track_local and config.track_eta,
    }
    return "does not store|stores no edge" if tracked[block] else "does not track"


def _assert_takes_agree(native, python, native_deltas, python_deltas):
    for n_group, p_group, n_delta, p_delta in zip(
        native.groups, python.groups, native_deltas, python_deltas
    ):
        assert isinstance(n_delta, ColumnarDelta) and isinstance(p_delta, ColumnarDelta)
        assert n_delta.group_size == p_delta.group_size == n_group.group_size
        raw = raw_snapshot(n_group.externalize_deltas(n_delta))
        assert raw == raw_snapshot(p_group.externalize_deltas(p_delta))
        # The stored edges are exactly the ones stored this pane.
        for entry in raw["processors"]:
            assert len(entry["edges"]) == entry["edges_stored"]


def _assert_live_zero(state):
    for group in state.groups:
        assert group.tau_values() == [0] * group.group_size
        assert group.eta_values() == [0] * group.group_size
        assert group.total_edges_stored() == 0
        for entry in raw_snapshot(group.snapshot())["processors"]:
            assert entry["tau_local"] == {}
            assert entry["edge_triangles"] == {}
            assert entry["eta_local"] == {}


def _assert_snapshots_agree(native, python):
    assert [raw_snapshot(s) for s in native.snapshot()] == [
        raw_snapshot(s) for s in python.snapshot()
    ]


@pytest.mark.parametrize("track_local", [True, False], ids=["local", "global"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@given(edges=streams, seed=rng_seeds)
@settings(max_examples=30, deadline=None)
def test_pane_deltas_match_dict_reference(config_name, track_local, edges, seed):
    rng = random.Random(seed)
    native = GroupStateSet(_config(config_name, track_local, "auto"))
    python = GroupStateSet(_config(config_name, track_local, "python"))
    native_acc = GroupStateSet(native.config, interner=native.interner)
    python_acc = GroupStateSet(python.config, interner=python.interner)
    position = 0
    while position < len(edges) or position == 0:
        pane_end = position + rng.randint(1, 30)
        native_stored = [[] for _ in native.groups]
        python_stored = [[] for _ in python.groups]
        while position < min(pane_end, len(edges)):
            stop = min(position + rng.randint(1, 9), pane_end, len(edges))
            for state, buckets in ((native, native_stored), (python, python_stored)):
                batch = state.encode(edges[position:stop])
                for bucket, new in zip(buckets, state.ingest_encoded(batch, collect_stored=True)):
                    assert new.dtype.name == "int64" and new.shape[0] == 3
                    bucket.append(new)
            position = stop
        deltas = []
        for state, buckets in ((native, native_stored), (python, python_stored)):
            columns = [
                np.concatenate(bucket, axis=1) if bucket else np.empty((3, 0), np.int64)
                for bucket in buckets
            ]
            deltas.append(state.take_pane_deltas(columns))
        _assert_takes_agree(native, python, *deltas)
        _assert_live_zero(native)
        _assert_live_zero(python)
        native_acc.merge_pane_deltas(deltas[0])
        python_acc.merge_pane_deltas(deltas[1])
        _assert_snapshots_agree(native_acc, python_acc)

        # Fold snapshots a run could write in between, now and then.
        if rng.random() < 0.4:
            side = _side_snapshots(python.config, edges, rng)
            native_acc.merge_snapshots(side)
            python_acc.merge_snapshots(side)
            _assert_snapshots_agree(native_acc, python_acc)
        if rng.random() < 0.4:
            # The accumulators store every edge the live sets do, so the
            # live sets may take all of theirs: later panes' counters
            # still sit on edges the accumulators store.
            zeroed = [zeroed_snapshot(group) for group in python_acc.groups]
            native.merge_snapshots(zeroed)
            python.merge_snapshots(zeroed)
            _assert_snapshots_agree(native, python)
        if position >= len(edges):
            break
    native_est = native_acc.estimate(len(edges))
    python_est = python_acc.estimate(len(edges))
    assert native_est.global_count == python_est.global_count
    assert native_est.local_counts == python_est.local_counts


@pytest.mark.parametrize("track_local", [True, False], ids=["local", "global"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@given(edges=streams, seed=rng_seeds)
@settings(max_examples=15, deadline=None)
def test_restore_of_odd_snapshots_is_refused_by_both_kernels(
    config_name, track_local, edges, seed
):
    """A part with one counter off its edges is refused, and nothing
    changes; the same part without it restores like the dict reference."""
    rng = random.Random(seed)
    config = _config(config_name, track_local, "python")
    source = GroupStateSet(config)
    source.ingest_stream(edges, batch_edges=17)
    snapshots = source.snapshot()
    odd, blocks = zip(*(_break_one_rule(part, rng) for part in snapshots))
    refused = [_refusal(config, block) for block in blocks]
    restored = []
    for kernel in ("auto", "python"):
        state = GroupStateSet(_config(config_name, track_local, kernel))
        state.ingest_stream(edges[: len(edges) // 2], batch_edges=17)
        before = ([raw_snapshot(s) for s in state.snapshot()], list(state.interner.nodes))
        for group, part, message in zip(state.groups, odd, refused):
            for fold in (group.restore, group.merge_snapshot):
                with pytest.raises(ValueError, match=message):
                    fold(part)
        # The reader checks the parts in group order.
        with pytest.raises(ValueError, match=refused[0]):
            state.merge_snapshots(list(odd))
        with pytest.raises(ValueError, match=refused[0]):
            state.restore_portable(portable.portable_state(odd))
        assert ([raw_snapshot(s) for s in state.snapshot()], list(state.interner.nodes)) == before
        for group, part in zip(state.groups, snapshots):
            group.restore(part)
            arrays = getattr(group, "_arrays", None)
            if arrays is not None:
                # A fold appends its new edges slot-major and by id.
                keys = list(zip(*arrays.edge_rows(0).tolist()))
                assert keys == sorted(keys)
        restored.append(state)
    _assert_snapshots_agree(*restored)


def _monitor(config_name, track_local, kernel):
    return WindowedTriangleMonitor(
        12.0,
        slide_seconds=4.0,
        pane_seconds=2.0,
        config=_config(config_name, track_local, kernel),
        allowed_lateness=1.0,
    )


def _window_rows(results):
    rows = []
    for result in results:
        rows.append(
            (
                result.index,
                result.records,
                result.complete,
                result.estimate.global_count,
                result.estimate.local_counts,
                result.estimate.edges_stored,
                result.estimate.metadata.get("eta_hat"),
            )
        )
    return rows


@pytest.mark.parametrize("track_local", [True, False], ids=["local", "global"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@given(
    records=st.lists(
        st.tuples(node_ids, node_ids, st.integers(min_value=0, max_value=80)),
        min_size=0,
        max_size=120,
    ),
    cut=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=15, deadline=None)
def test_monitor_pickled_mid_pane_matches_dict_reference(config_name, track_local, records, cut):
    stamped = [(u, v, t / 2.0) for u, v, t in sorted(records, key=lambda r: r[2])]
    chunks = [stamped[start : start + 10] for start in range(0, len(stamped), 10)]
    reference = _monitor(config_name, track_local, "python")
    expected = []
    for chunk in chunks:
        expected.extend(reference.ingest(chunk))
    expected.extend(reference.flush())

    monitor = _monitor(config_name, track_local, "auto")
    results = []
    for index, chunk in enumerate(chunks):
        if index == cut:
            monitor = pickle.loads(pickle.dumps(monitor))
        results.extend(monitor.ingest(chunk))
    results.extend(monitor.flush())
    assert _window_rows(results) == _window_rows(expected)
