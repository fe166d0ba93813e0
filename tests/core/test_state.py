"""Tests for ProcessorGroup (the per-edge update rules) and GroupStateSet."""

import math

import numpy as np
import pytest

from repro.core.config import ReptConfig
from repro.core.kernel import resolve_kernel
from repro.core.rept import ReptEstimator
from repro.core.state import GroupStateSet, ProcessorGroup
from repro.generators.planted import planted_clique_stream, planted_triangles_stream
from repro.hashing import make_hash_function


def make_group(m=4, group_size=None, seed=1, track_eta=True, track_local=True):
    return ProcessorGroup(
        hash_function=make_hash_function("splitmix", m, seed=seed),
        group_size=group_size if group_size is not None else m,
        m=m,
        track_local=track_local,
        track_eta=track_eta,
    )


class TestConstruction:
    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            make_group(m=4, group_size=0)
        with pytest.raises(ValueError):
            make_group(m=4, group_size=5)

    def test_hash_range_must_match_m(self):
        with pytest.raises(ValueError):
            ProcessorGroup(make_hash_function("splitmix", 8, seed=1), group_size=4, m=4)

    def test_processor_count(self):
        group = make_group(m=6, group_size=3)
        assert len(group.processors) == 3


class TestSemiTriangleCounting:
    def test_full_group_counts_every_triangle_once(self, clique_stream):
        """With group_size == m the union of processors stores every edge,
        and every triangle is counted as a semi-triangle on exactly one
        processor (the one holding its first two stream edges) only if those
        two edges hash to the same processor — so the *scaled* sum is what
        is unbiased, not the raw sum.  With m = 1 the single processor holds
        everything and the raw count is exact."""
        group = ProcessorGroup(
            make_hash_function("splitmix", 1, seed=1), group_size=1, m=1,
            track_local=True, track_eta=True,
        )
        for u, v in clique_stream:
            group.process_edge(u, v)
        assert sum(group.tau_values()) == math.comb(12, 3)

    def test_local_counts_with_m1(self, clique_stream):
        group = ProcessorGroup(
            make_hash_function("splitmix", 1, seed=1), group_size=1, m=1,
            track_local=True, track_eta=False,
        )
        for u, v in clique_stream:
            group.process_edge(u, v)
        sums = group.local_tau_sums()
        assert all(value == math.comb(11, 2) for value in sums.values())

    def test_eta_counters_with_m1_match_exact_eta(self):
        """With every edge stored, η(i) equals the exact η of the stream."""
        stream = planted_triangles_stream(6, shared_edge=True)
        group = ProcessorGroup(
            make_hash_function("splitmix", 1, seed=1), group_size=1, m=1,
            track_local=True, track_eta=True,
        )
        for u, v in stream:
            group.process_edge(u, v)
        assert sum(group.eta_values()) == math.comb(6, 2)

    def test_eta_local_with_m1(self):
        stream = planted_triangles_stream(5, shared_edge=True)
        group = ProcessorGroup(
            make_hash_function("splitmix", 1, seed=1), group_size=1, m=1,
            track_local=True, track_eta=True,
        )
        for u, v in stream:
            group.process_edge(u, v)
        eta_local = group.local_eta_sums()
        assert eta_local[0] == math.comb(5, 2)
        assert eta_local[1] == math.comb(5, 2)

    def test_partial_group_discards_other_buckets(self):
        """With group_size < m some edges are not stored anywhere."""
        group = make_group(m=8, group_size=2, seed=3)
        for i in range(50):
            group.process_edge(i, i + 1)
        stored = group.total_edges_stored()
        assert 0 < stored < 50

    def test_edge_sets_are_disjoint(self, medium_stream):
        group = make_group(m=4, group_size=4, seed=5, track_eta=False)
        for u, v in medium_stream.prefix(2000):
            group.process_edge(u, v)
        edge_sets = [set() for _ in group.processors]
        for slot, u, v in group.stored_edges():
            edge_sets[slot].add((u, v))
        for i in range(len(edge_sets)):
            for j in range(i + 1, len(edge_sets)):
                assert not (edge_sets[i] & edge_sets[j])

    def test_every_stored_edge_went_to_its_hash_bucket(self):
        group = make_group(m=4, group_size=4, seed=7, track_eta=False)
        edges = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        for u, v in edges:
            group.process_edge(u, v)
        records = group.stored_edges()
        assert len(records) == len(edges)
        for slot, u, v in records:
            assert group.hash_function.bucket(u, v) == slot

    def test_track_local_disabled_keeps_dicts_empty(self, clique_stream):
        group = make_group(m=2, group_size=2, track_local=False, track_eta=False)
        for u, v in clique_stream:
            group.process_edge(u, v)
        assert group.local_tau_sums() == {}


def _dup_heavy_stream():
    """Duplicates, self-loops and triangles over a tiny node universe."""
    edges = []
    for r in range(3):
        edges.extend(
            [(0, 1), (1, 2), (0, 2), (2, 2), (1, 2), (3, 4), (4, 5), (3, 5), (0, 3)]
        )
        edges.extend((i, (i + r) % 7) for i in range(7))
    return edges


class TestGroupStateSet:
    """The shared mergeable-state abstraction (estimator/backends/monitor)."""

    CONFIGS = [
        ReptConfig(m=4, c=3, seed=21),  # Alg. 1, c < m
        ReptConfig(m=3, c=8, seed=21),  # Alg. 2 with partial group: η tracked
        ReptConfig(m=4, c=8, seed=21, track_local=False),
    ]

    def _assert_same(self, estimate, expected):
        assert estimate.global_count == expected.global_count
        assert estimate.local_counts == expected.local_counts
        assert estimate.edges_stored == expected.edges_stored
        assert estimate.metadata.get("eta_hat") == expected.metadata.get("eta_hat")

    @pytest.mark.parametrize("config", CONFIGS, ids=["alg1", "alg2-eta", "alg2"])
    def test_matches_estimator_bit_for_bit(self, config):
        edges = _dup_heavy_stream()
        reference = ReptEstimator(config)
        reference.process_edges(edges)

        state = GroupStateSet(config)
        n = state.ingest_stream(edges, batch_edges=7)
        assert n == len(edges)
        self._assert_same(state.estimate(n), reference.estimate())

    @pytest.mark.parametrize("config", CONFIGS, ids=["alg1", "alg2-eta", "alg2"])
    def test_shared_encoding_across_state_sets(self, config):
        """One EncodedBatch serves several state sets sharing the interner."""
        edges = _dup_heavy_stream()
        template = GroupStateSet(config)
        functions = [group.hash_function for group in template.groups]
        a = GroupStateSet(config, interner=template.interner, hash_functions=functions)
        b = GroupStateSet(config, interner=template.interner, hash_functions=functions)
        n = 0
        for start in range(0, len(edges), 9):
            batch = template.encode(edges[start : start + 9])
            a.ingest_encoded(batch)
            b.ingest_encoded(batch)
            n += batch.n_records
        reference = ReptEstimator(config)
        reference.process_edges(edges)
        self._assert_same(a.estimate(n), reference.estimate())
        self._assert_same(b.estimate(n), reference.estimate())

    @pytest.mark.parametrize("config", CONFIGS, ids=["alg1", "alg2-eta", "alg2"])
    def test_pane_delta_roll_merge_is_exact(self, config):
        """take_pane_deltas/merge_pane_deltas reproduce an uninterrupted run."""
        edges = _dup_heavy_stream()
        live = GroupStateSet(config)
        acc = GroupStateSet(config, interner=live.interner)
        n = 0
        for start in range(0, len(edges), 11):  # every chunk = one "pane"
            batch = live.encode(edges[start : start + 11])
            stored = live.ingest_encoded(batch, collect_stored=True)
            n += batch.n_records
            acc.merge_pane_deltas(live.take_pane_deltas(stored))
        reference = ReptEstimator(config)
        reference.process_edges(edges)
        self._assert_same(acc.estimate(n), reference.estimate())
        # The live set keeps its stored-edge index but zero counters.
        assert live.total_edges_stored() == 0
        assert acc.total_edges_stored() == reference.edges_stored

    @pytest.mark.skipif(
        resolve_kernel("auto") == "python", reason="kernel='auto' resolves to the dict groups here"
    )
    @pytest.mark.parametrize("track_eta", [True, False], ids=["eta", "tau"])
    def test_off_contract_pane_merge_raises_on_the_c_kernel(self, track_eta):
        """A pane delta whose counters sit on edges and nodes its
        accumulator does not store raises instead of writing elsewhere."""
        config = ReptConfig(m=1, c=1, seed=5, track_eta=track_eta)
        edges = list(planted_clique_stream(12))
        live = GroupStateSet(config)
        acc = GroupStateSet(config, interner=live.interner)
        # The first pane is never folded, so acc lacks its edges.
        live.take_pane_deltas(live.ingest_encoded(live.encode(edges[:30]), collect_stored=True))
        second = live.ingest_encoded(live.encode(edges[30:]), collect_stored=True)
        with pytest.raises(ValueError, match="is not stored|stores no edge"):
            acc.merge_pane_deltas(live.take_pane_deltas(second))

    def test_hash_function_count_validated(self):
        config = ReptConfig(m=4, c=8, seed=1)
        template = GroupStateSet(config)
        with pytest.raises(ValueError, match="hash functions"):
            GroupStateSet(config, hash_functions=template.groups[:1])

    def test_merge_snapshots_shape_validated(self):
        config = ReptConfig(m=4, c=8, seed=1)
        state = GroupStateSet(config)
        with pytest.raises(ValueError, match="group snapshots"):
            state.merge_snapshots(state.snapshot()[:1])

    def test_merge_deltas_shape_validated(self):
        config = ReptConfig(m=4, c=4, seed=1)
        state = GroupStateSet(config)
        narrow = GroupStateSet(ReptConfig(m=4, c=2, seed=1)).groups[0].columns()
        with pytest.raises(ValueError, match="per-slot deltas"):
            state.groups[0].merge_deltas(narrow)


class TestNanSelfLoop:
    """A record whose two endpoints are one NaN object is a self-loop.

    ``nan != nan``, yet one NaN object is one interner key, so the record
    used to be stored as an edge from a node to itself and to close
    triangles with it — and the batched C path counted it twice.  It is
    skipped like any self-loop, on every path and either kernel.
    """

    def _stream(self):
        nan = float("nan")
        return [(nan, nan), (nan, 1), (nan, 1)]

    def _assert_no_triangle(self, state):
        estimate = state.estimate(3)
        assert estimate.global_count == 0.0
        assert estimate.local_counts == {}
        assert state.total_edges_stored() == 1

    @pytest.mark.parametrize("kernel", ["auto", "python"])
    def test_per_edge_and_batched(self, kernel):
        config = ReptConfig(m=1, c=1, seed=3, kernel=kernel)
        batched = GroupStateSet(config)
        batched.process_edges(self._stream())
        self._assert_no_triangle(batched)
        per_edge = GroupStateSet(config)
        for u, v in self._stream():
            per_edge.process_edge(u, v)
        self._assert_no_triangle(per_edge)
        assert len(per_edge.interner) == len(batched.interner) == 2

    @pytest.mark.parametrize("kernel", ["auto", "python"])
    def test_monitor_columns(self, kernel):
        from repro.streaming.monitor import WindowedTriangleMonitor

        monitor = WindowedTriangleMonitor(
            window_seconds=10.0, config=ReptConfig(m=1, c=1, seed=3, kernel=kernel)
        )
        us, vs = zip(*self._stream())
        results = monitor.ingest_columns(list(us), list(vs), [0.0, 1.0, 2.0])
        results.extend(monitor.flush())
        (result,) = results
        assert result.records == 3
        assert result.estimate.global_count == 0.0
        assert result.estimate.local_counts == {}
        assert result.estimate.edges_stored == 1

    def _monitor(self, kernel):
        from repro.streaming.monitor import WindowedTriangleMonitor

        return WindowedTriangleMonitor(
            window_seconds=10.0, config=ReptConfig(m=1, c=1, seed=3, kernel=kernel)
        )

    @staticmethod
    def _windows(results):
        return [
            (r.records, r.estimate.global_count, r.estimate.local_counts, r.estimate.edges_stored)
            for r in results
        ]

    @pytest.mark.parametrize("kernel", ["auto", "python"])
    def test_monitor_float_arrays_holding_nan_raise_and_change_nothing(self, kernel):
        nan = float("nan")
        us, vs, ts = [nan, nan, nan, 2.0], [1.0, 2.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0]
        monitor = self._monitor(kernel)

        def state():
            interner = monitor._template.interner
            return (monitor._origin, monitor._watermark, len(interner), dict(monitor._chains))

        before = state()
        # An array holds no NaN object, so its NaNs name no one node.
        for columns in ((np.array(us), np.array(vs)), (np.array(vs), np.array(us))):
            with pytest.raises(ValueError, match="NaN"):
                monitor.ingest_columns(*columns, ts)
            assert state() == before
        # The list form shares one NaN object: one node, one triangle.
        results = monitor.ingest_columns(us, vs, ts) + monitor.flush()
        assert self._windows(results) == [(4, 1.0, {nan: 1.0, 1.0: 1.0, 2.0: 1.0}, 3)]
        assert len(monitor._template.interner) == 3

    @pytest.mark.parametrize("kernel", ["auto", "python"])
    def test_monitor_finite_float_arrays_match_lists(self, kernel):
        us, vs, ts = [0.5, 0.5, 0.5, 2.0, 0.5], [1.0, 2.0, 1.0, 1.0, 3.0], [0, 1, 2, 3, 14]
        by_lists = self._monitor(kernel)
        lists = by_lists.ingest_columns(us, vs, ts) + by_lists.flush()
        by_arrays = self._monitor(kernel)
        columns = (np.array(us), np.array(vs), np.array(ts, np.float64))
        arrays = by_arrays.ingest_columns(*columns) + by_arrays.flush()
        assert self._windows(arrays) == self._windows(lists)
        assert [r.estimate.global_count for r in lists] == [1.0, 0.0]

    def test_service_frame_of_json_nans(self):
        import asyncio
        import json

        from repro.service import EstimationService, InProcessClient

        async def scenario():
            service = EstimationService()
            client = InProcessClient(service)
            await client.open("t", engine={"kind": "rept", "m": 1, "c": 1, "seed": 3})
            # json.loads returns one shared NaN object for every NaN token.
            await client.ingest("t", json.loads("[[NaN, NaN], [NaN, 1], [NaN, 1]]"))
            await service.sessions["t"].queue.join()
            return await client.query_global("t")

        answer = asyncio.run(scenario())
        assert answer["global_count"] == 0.0
        assert answer["edges_stored"] == 1
