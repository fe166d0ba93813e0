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

Between panes the runs may merge odd but valid snapshots that carry loose
per-edge keys (edges the group does not store) into the live sets or the
accumulators, so the loose side dicts and their settling once an edge gets
stored are covered too.  A second property pickles a whole monitor
mid-pane, resumes it and compares every window with an uninterrupted
dict-reference monitor.  Under ``REPRO_KERNEL=python`` both sides run the
dict groups, which keeps the monitor and pane paths in the pure-Python
lane.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import portable
from repro.core.adjacency import NativeProcessorGroup
from repro.core.config import ReptConfig
from repro.core.kernel import native_available
from repro.core.portable import ColumnarDelta, columns
from repro.core.state import GroupStateSet, ProcessorGroup
from repro.hashing import make_hash_function
from repro.streaming.monitor import WindowedTriangleMonitor
from repro.types import canonical_edge
from tests.conftest import raw_snapshot

SEED = 20261017
NODES = 12

CONFIGS = {
    "alg1": dict(m=4, c=3, track_eta=True),
    "alg2-partial-eta": dict(m=3, c=8),
    "alg2-complete": dict(m=4, c=8),
}

node_ids = st.integers(min_value=0, max_value=NODES - 1)
streams = st.lists(st.tuples(node_ids, node_ids), min_size=20, max_size=160)
#: Per-edge keys an odd snapshot may repeat, so loose counters fold twice.
LOOSE_POOL = [(0, 1), (2, 3), (4, 5), (1, 7)]
rng_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _config(name, track_local, kernel):
    return ReptConfig(seed=SEED, track_local=track_local, kernel=kernel, **CONFIGS[name])


def _part(group_size, m, edges, tri, tau_cells=(), eta_cells=(), rows=None):
    """A portable group part over raw node ids ``0..NODES-1``."""
    delta = ColumnarDelta(
        columns(edges, 3),
        columns(tri, 4),
        columns(tau_cells, 3),
        columns(eta_cells, 3),
        np.zeros((3, group_size), np.int64) if rows is None else columns(rows, 3),
    )
    return portable.group_part(group_size, m, list(range(NODES)), delta)


def _odd_snapshot(group, rng, with_adjacency, upcoming):
    """A valid snapshot whose per-edge keys are often loose.

    Per-edge keys come from the stream's upcoming edges (often not stored
    yet, stored later), a small pool of repeated pairs and the whole node
    universe.  Counts are non-negative and ``τ_v`` cells positive, as the
    portable reader requires.  Counter kinds the group does not track stay
    empty, as in any snapshot it could take.
    """
    candidates = [(u, v) for u, v in upcoming[:40] if u != v] + LOOSE_POOL
    edges, tri, tau_cells, eta_cells, rows = [], [], [], [], []
    for slot in range(group.group_size):
        stored = 0
        if with_adjacency:
            for _ in range(rng.randint(0, 3)):
                edges.append((slot, *sorted(rng.sample(range(NODES), 2))))
            stored = rng.randint(0, 2)
        if group.track_eta:
            keys = {}
            for _ in range(rng.randint(0, 4)):
                u, v = rng.choice(candidates) if rng.random() < 0.8 else rng.sample(range(NODES), 2)
                keys[canonical_edge(u, v)] = rng.randint(0, 3)
            tri.extend((slot, a, b, value) for (a, b), value in keys.items())
        if group.track_local:
            cells = {rng.randrange(NODES): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}
            tau_cells.extend((slot, node, value) for node, value in cells.items())
            if group.track_eta:
                cells = {rng.randrange(NODES): rng.randint(0, 2) for _ in range(rng.randint(0, 2))}
                eta_cells.extend((slot, node, value) for node, value in cells.items())
        rows.append((rng.randint(0, 3), rng.randint(0, 3) if group.track_eta else 0, stored))
    return _part(group.group_size, group.m, edges, tri, tau_cells, eta_cells, rows)


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

        # Fold malformed-but-well-typed state in between, now and then.
        upcoming = edges[position:]
        if rng.random() < 0.4:
            odd = [_odd_snapshot(g, rng, True, upcoming) for g in native_acc.groups]
            native_acc.merge_snapshots(odd)
            python_acc.merge_snapshots(odd)
            _assert_snapshots_agree(native_acc, python_acc)
        if rng.random() < 0.4:
            # No adjacency: the live sets' dedup scope stays exact.
            odd = [_odd_snapshot(g, rng, False, upcoming) for g in native.groups]
            native.merge_snapshots(odd)
            python.merge_snapshots(odd)
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
def test_restore_of_odd_snapshots_matches_dict_reference(config_name, track_local, edges, seed):
    """restore folds snapshots with loose keys and zero cells like the dict."""
    rng = random.Random(seed)
    source = GroupStateSet(_config(config_name, track_local, "python"))
    source.ingest_stream(edges, batch_edges=17)
    snapshots = source.snapshot()
    odd = [_odd_snapshot(g, rng, True, edges) for g in source.groups]
    native = GroupStateSet(_config(config_name, track_local, "auto"))
    python = GroupStateSet(_config(config_name, track_local, "python"))
    for state in (native, python):
        for group, snapshot, extra in zip(state.groups, snapshots, odd):
            group.restore(extra)
            arrays = getattr(group, "_arrays", None)
            if arrays is not None:
                # A fold appends its new edges slot-major and by id.
                keys = list(zip(*arrays.edge_rows(0).tolist()))
                assert keys == sorted(keys)
            group.merge_snapshot(snapshot)
    _assert_snapshots_agree(native, python)


class TestLooseCounterRegression:
    """A loose per-edge counter becomes the prior once its edge is stored."""

    @staticmethod
    def _snapshot(edges, edge_triangles):
        return _part(
            1,
            1,
            [(0, a, b) for a, b in edges],
            [(0, a, b, value) for (a, b), value in edge_triangles.items()],
        )

    @pytest.mark.parametrize("kind", ["python", "native"])
    def test_fold_uses_loose_value_as_prior(self, kind):
        if kind == "native" and not native_available():
            pytest.skip("no C compiler available")
        cls = NativeProcessorGroup if kind == "native" else ProcessorGroup
        group = cls(
            make_hash_function("splitmix", buckets=1, seed=1),
            1,
            1,
            track_local=True,
            track_eta=True,
        )
        group.merge_snapshot(self._snapshot([(3, 4)], {(1, 2): 5, (3, 4): 1}))
        group.merge_snapshot(self._snapshot([(1, 2)], {(1, 2): 2}))
        (entry,) = raw_snapshot(group.snapshot())["processors"]
        assert entry["eta"] == 10
        assert entry["edge_triangles"] == {(1, 2): 7, (3, 4): 1}
        assert entry["eta_local"] == {1: 10, 2: 10}

    @pytest.mark.parametrize("per_edge", [False, True], ids=["batch", "per-edge"])
    def test_ingest_store_overwrites_loose_value(self, per_edge):
        # The dict loop sets a newly stored edge's counter to its closing
        # count, replacing a loose value merged in earlier.
        snapshots = []
        for kernel in ("auto", "python"):
            state = GroupStateSet(ReptConfig(m=1, c=1, seed=1, track_eta=True), kernel=kernel)
            state.merge_snapshots([self._snapshot([], {(1, 2): 5})])
            edges = [(1, 2), (2, 3), (1, 3)]
            if per_edge:
                for u, v in edges:
                    state.process_edge(u, v)
            else:
                state.process_edges(edges)
            snapshots.append([raw_snapshot(s) for s in state.snapshot()])
        assert snapshots[0] == snapshots[1]
        (entry,) = snapshots[1][0]["processors"]
        assert entry["edge_triangles"][(1, 2)] == 1


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
