"""Property-based tests: native pane deltas ≡ the dict reference's.

The array-backed groups detach each pane as int64 columns
(:class:`~repro.core.adjacency.ColumnarDelta`) and fold them with compiled
calls; the dict groups keep per-slot
:class:`~repro.core.state.ProcessorCounters`, the oracle.  Hypothesis
drives a ``kernel="auto"`` state set and a ``kernel="python"`` one through
the same panes and checks, after every take, that

* the per-slot counters the native delta builds equal the dict delta's —
  adjacency, ``τ``, ``τ_v`` (explicit zeros included), ``τ_(u,v)``,
  ``η``, ``η_v`` and ``edges_stored``;
* so do the raw-keyed ``externalize_deltas`` snapshots;
* the live counters are zero, and each accumulator's ``snapshot()``
  agrees after every fold.

Between panes the runs may merge malformed-but-well-typed snapshots that
carry loose per-edge keys (edges the group does not store) and
zero-valued ``τ_v`` entries, into the live sets or the accumulators, so
the loose side dicts, their settling once an edge gets stored, and the
``tau_zero`` cells are covered too.  A second property pickles a whole
monitor mid-pane, resumes it and compares every window, pane-delta
snapshot and ``tau_delta`` with an uninterrupted dict-reference monitor.
Under ``REPRO_KERNEL=python`` both sides run the dict groups, which keeps
the monitor and pane paths in the pure-Python lane.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adjacency import ColumnarDelta, NativeProcessorGroup
from repro.core.config import ReptConfig
from repro.core.kernel import native_available
from repro.core.state import GroupStateSet, ProcessorGroup
from repro.hashing import make_hash_function
from repro.streaming.monitor import WindowedTriangleMonitor
from repro.types import canonical_edge

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


def _raw_counters(counters, nodes):
    """A per-slot ProcessorCounters keyed by raw node ids."""
    return {
        "adjacency": {
            nodes[a]: {nodes[b] for b in neighbors}
            for a, neighbors in counters.adjacency.items()
        },
        "tau": counters.tau,
        "tau_local": {nodes[n]: v for n, v in counters.tau_local.items()},
        "edge_triangles": {
            canonical_edge(nodes[a], nodes[b]): v
            for (a, b), v in counters.edge_triangles.items()
        },
        "eta": counters.eta,
        "eta_local": {nodes[n]: v for n, v in counters.eta_local.items()},
        "edges_stored": counters.edges_stored,
    }


def _comparable(snapshot):
    """A group snapshot with adjacency lists as sets (their order is free)."""
    return {
        **snapshot,
        "processors": [
            {
                **entry,
                "adjacency": {
                    node: set(neighbors) for node, neighbors in entry["adjacency"].items()
                },
            }
            for entry in snapshot["processors"]
        ],
    }


def _odd_snapshot(group, rng, with_adjacency, upcoming):
    """A well-typed snapshot with loose keys and zero-valued ``τ_v`` cells.

    Per-edge keys come from the stream's upcoming edges (often not stored
    yet, stored later), a small pool of repeated pairs and the whole node
    universe; ``τ_v`` values include 0, which a node without a prior count
    keeps as an explicit zero entry.  Values stay non-negative, as counts
    are (see the notes in :mod:`repro.core.adjacency`).  Counter kinds the
    group does not track stay empty, as in any snapshot it could take.
    """
    candidates = [(u, v) for u, v in upcoming[:40] if u != v] + LOOSE_POOL
    processors = []
    for _ in range(group.group_size):
        adjacency = {}
        if with_adjacency:
            for _ in range(rng.randint(0, 3)):
                u, v = rng.sample(range(NODES), 2)
                adjacency.setdefault(u, []).append(v)
                adjacency.setdefault(v, []).append(u)
        edge_triangles = {}
        if group.track_eta:
            for _ in range(rng.randint(0, 4)):
                u, v = rng.choice(candidates) if rng.random() < 0.8 else rng.sample(range(NODES), 2)
                edge_triangles[canonical_edge(u, v)] = rng.randint(0, 3)
        tau_local = {}
        eta_local = {}
        if group.track_local:
            tau_local = {rng.randrange(NODES): rng.randint(0, 2) for _ in range(rng.randint(0, 3))}
            if group.track_eta:
                eta_local = {rng.randrange(NODES): rng.randint(0, 2) for _ in range(rng.randint(0, 2))}
        processors.append(
            {
                "adjacency": adjacency,
                "tau": rng.randint(0, 3),
                "tau_local": tau_local,
                "edge_triangles": edge_triangles,
                "eta": rng.randint(0, 3) if group.track_eta else 0,
                "eta_local": eta_local,
                "edges_stored": rng.randint(0, 2) if with_adjacency else 0,
            }
        )
    return {"group_size": group.group_size, "m": group.m, "processors": processors}


def _assert_takes_agree(native, python, native_deltas, python_deltas):
    for n_group, p_group, n_delta, p_delta in zip(
        native.groups, python.groups, native_deltas, python_deltas
    ):
        if native.kernel != "python":
            assert isinstance(n_delta, ColumnarDelta)
        assert len(n_delta) == len(p_delta) == n_group.group_size
        n_nodes = native.interner.nodes
        p_nodes = python.interner.nodes
        for slot in range(n_group.group_size):
            counters = _raw_counters(n_delta[slot], n_nodes)
            assert counters == _raw_counters(p_delta[slot], p_nodes)
            # The adjacency holds exactly the edges stored this pane.
            degrees = sum(len(neighbors) for neighbors in counters["adjacency"].values())
            assert degrees == 2 * counters["edges_stored"]
        assert _comparable(n_group.externalize_deltas(n_delta)) == _comparable(
            p_group.externalize_deltas(p_delta)
        )


def _assert_live_zero(state):
    for group in state.groups:
        assert group.tau_values() == [0] * group.group_size
        assert group.eta_values() == [0] * group.group_size
        assert group.total_edges_stored() == 0
        for entry in group.snapshot()["processors"]:
            assert entry["tau_local"] == {}
            assert entry["edge_triangles"] == {}
            assert entry["eta_local"] == {}


def _assert_snapshots_agree(native, python):
    assert [_comparable(s) for s in native.snapshot()] == [
        _comparable(s) for s in python.snapshot()
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
                n = arrays.n_edges
                keys = list(
                    zip(arrays.edge_slot[:n].tolist(), arrays.edge_u[:n].tolist(), arrays.edge_v[:n].tolist())
                )
                assert keys == sorted(keys)
            group.merge_snapshot(snapshot)
    _assert_snapshots_agree(native, python)


class TestLooseCounterRegression:
    """A loose per-edge counter becomes the prior once its edge is stored."""

    @staticmethod
    def _snapshot(adjacency, edge_triangles):
        return {
            "group_size": 1,
            "m": 1,
            "processors": [
                {
                    "adjacency": adjacency,
                    "tau": 0,
                    "tau_local": {},
                    "edge_triangles": edge_triangles,
                    "eta": 0,
                    "eta_local": {},
                    "edges_stored": 0,
                }
            ],
        }

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
        group.merge_snapshot(self._snapshot({3: [4], 4: [3]}, {(1, 2): 5, (3, 4): 1}))
        group.merge_snapshot(self._snapshot({1: [2], 2: [1]}, {(1, 2): 2}))
        (entry,) = group.snapshot()["processors"]
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
            state.merge_snapshots([self._snapshot({}, {(1, 2): 5})])
            edges = [(1, 2), (2, 3), (1, 3)]
            if per_edge:
                for u, v in edges:
                    state.process_edge(u, v)
            else:
                state.process_edges(edges)
            snapshots.append([_comparable(s) for s in state.snapshot()])
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
                [
                    (
                        delta.pane,
                        delta.records,
                        delta.tau_delta,
                        [_comparable(s) for s in delta.snapshots],
                    )
                    for delta in result.pane_deltas or ()
                ],
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
            open_rings = monitor.open_pane_deltas()
            monitor = pickle.loads(pickle.dumps(monitor))
            resumed_rings = monitor.open_pane_deltas()
            assert sorted(open_rings) == sorted(resumed_rings)
        results.extend(monitor.ingest(chunk))
    results.extend(monitor.flush())
    assert _window_rows(results) == _window_rows(expected)
