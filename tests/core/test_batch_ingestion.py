"""Deterministic tests for the batched ingestion pipeline.

Covers the :class:`NodeInterner` table, the estimator-level
``process_edges`` override (bit-identical to per-edge ingestion across
configurations and node-id types), batches that raise part-way, the
standalone :meth:`ProcessorGroup.process_edges` batch path, and the batch
plumbing of ``DriverBackedRept``.
"""

import numpy as np
import pytest

from repro.core import DriverBackedRept, NodeInterner, ReptConfig, ReptEstimator
from repro.core.kernel import native_available
from repro.core.state import GroupStateSet, ProcessorGroup
from repro.generators.planted import planted_triangles_stream
from repro.generators.random_graphs import barabasi_albert_stream
from repro.hashing import make_hash_function
from repro.types import canonical_edge
from tests.conftest import zeroed_snapshot


def noisy_stream():
    """A stream with duplicates and self-loops over int nodes."""
    base = barabasi_albert_stream(120, 3, triad_closure=0.5, seed=21).edges()
    stream = []
    for index, edge in enumerate(base):
        stream.append(edge)
        if index % 3 == 0:
            stream.append(base[index // 2])  # duplicate re-arrival
        if index % 17 == 0:
            stream.append((edge[0], edge[0]))  # self-loop
    return stream


def assert_identical(reference, batched):
    assert batched.global_count == reference.global_count
    assert batched.local_counts == reference.local_counts
    assert batched.edges_processed == reference.edges_processed
    assert batched.edges_stored == reference.edges_stored
    assert batched.metadata == reference.metadata


class TestNodeInterner:
    def test_ids_are_dense_and_stable(self):
        interner = NodeInterner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0
        assert interner.node_of(1) == "b"
        assert interner.id_of("b") == 1
        assert interner.id_of("missing") is None
        assert len(interner) == 2
        assert "a" in interner

    def test_key_array_matches_scalar_keys(self):
        from repro.hashing import stable_node_key

        interner = NodeInterner()
        nodes = [5, "alpha", -3, 2**70, ("t", 1)]
        for node in nodes:
            interner.intern(node)
        keys = interner.key_array()
        assert keys.dtype == np.uint64
        for index, node in enumerate(nodes):
            assert int(keys[index]) == stable_node_key(node) % 2**64

    def test_encode_pairs_canonicalises_and_counts(self):
        interner = NodeInterner()
        cu, cv, firsts, n = interner.encode_pairs([(2, 1), (1, 2), (3, 3), (1, 2)])
        assert n == 4  # self-loop counted
        assert len(cu) == 3  # but dropped from the encoded batch
        # Canonical orientation matches canonical_edge on the raw ids.
        pairs = [(interner.node_of(a), interner.node_of(b)) for a, b in zip(cu, cv)]
        assert pairs == [canonical_edge(2, 1)] * 3
        assert firsts is None  # first occurrence is each group's own test

    def test_encode_pairs_mixed_types_match_canonical_edge(self):
        interner = NodeInterner()
        raw = [(1, "1"), ("b", 3), (10, "2"), ("2", 3)]
        cu, cv, _, _ = interner.encode_pairs(raw)
        for (a, b), (u, v) in zip(zip(cu, cv), raw):
            assert (interner.node_of(a), interner.node_of(b)) == canonical_edge(u, v)


class Unkeyable:
    """A hashable node id whose stable key cannot be computed."""

    def __str__(self):
        raise RuntimeError("no key")


def assert_interner_in_sync(interner):
    from repro.hashing import stable_node_key

    assert len(interner._ids) == len(interner.nodes) == len(interner._keys)
    for dense, node in enumerate(interner.nodes):
        assert interner._ids[node] == dense
        assert interner._keys[dense] == stable_node_key(node)
    assert interner.key_array().tolist() == interner._keys


class TestInternerKeys:
    """A node id is interned only once its stable key is computed, so a
    failing id cannot leave the key list one entry short."""

    @pytest.mark.parametrize("kernel", ["python", "native"])
    def test_lone_surrogate_id_keeps_later_batches_in_sync(self, kernel, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        if kernel == "native" and not native_available():
            pytest.skip("the C kernel is not buildable here")
        from repro.generators.traffic import packet_flow_stream

        edges = packet_flow_stream(20000, seed=4).edges()[10000:]
        config = ReptConfig(m=4, c=8, seed=3, track_eta=True, kernel=kernel)
        estimator = ReptEstimator(config)
        estimator.process_edge("\ud800", "x")
        estimator.process_edges(edges)
        assert_interner_in_sync(estimator.interner)
        reference = ReptEstimator(ReptConfig(m=4, c=8, seed=3, track_eta=True, kernel="python"))
        for u, v in [("\ud800", "x")] + edges:
            reference.process_edge(u, v)
        got, expected = estimator.estimate(), reference.estimate()
        got.metadata.pop("kernel")
        expected.metadata.pop("kernel")
        assert_identical(expected, got)

    def test_key_of_a_failing_id_is_not_shifted_onto_the_next(self):
        from repro.hashing import stable_node_key

        interner = NodeInterner()
        interner.intern(100)
        with pytest.raises(RuntimeError, match="no key"):
            interner.intern(Unkeyable())
        for node in (200, 300, 400):
            interner.intern(node)
        assert int(interner.key_array()[1]) == stable_node_key(200)
        with pytest.raises(RuntimeError, match="no key"):
            interner.encode_pairs([(500, 600), (700, Unkeyable())])
        assert_interner_in_sync(interner)
        interner.intern("\ud800")
        assert_interner_in_sync(interner)

    def test_surrogatepass_keeps_every_encodable_key(self):
        from repro.hashing import stable_node_key

        def fnv(data):
            acc = 0xCBF29CE484222325
            for byte in data:
                acc = ((acc ^ byte) * 0x100000001B3) % 2**64
            return acc

        for node in ["", "a", "node-17", "ü", "日本", "\U0001F600", 2.5]:
            assert stable_node_key(node) == fnv(str(node).encode("utf-8"))
        assert stable_node_key("\ud800") == fnv(b"\xed\xa0\x80")


class TestReptBatchEquivalence:
    @pytest.mark.parametrize(
        "m,c,track_local",
        [(4, 4, True), (4, 2, True), (3, 8, True), (16, 32, False), (3, 7, False)],
    )
    def test_batch_matches_per_edge(self, m, c, track_local):
        edges = noisy_stream()
        reference = ReptEstimator(
            ReptConfig(m=m, c=c, seed=77, track_local=track_local)
        )
        for u, v in edges:
            reference.process_edge(u, v)
        batched = ReptEstimator(ReptConfig(m=m, c=c, seed=77, track_local=track_local))
        for start in range(0, len(edges), 97):
            batched.process_edges(edges[start : start + 97])
        assert_identical(reference.estimate(), batched.estimate())

    @pytest.mark.parametrize("hash_kind", ["splitmix", "tabulation"])
    def test_batch_matches_per_edge_for_each_hash_family(self, hash_kind):
        edges = noisy_stream()
        config = dict(m=4, c=9, seed=5, hash_kind=hash_kind)
        reference = ReptEstimator(ReptConfig(**config)).run(edges)
        batched = ReptEstimator(ReptConfig(**config)).run(edges, batch_size=64)
        assert_identical(reference, batched)

    def test_batch_with_equal_but_distinct_type_nodes(self):
        """1, 1.0 and True are one node under dict semantics; the hash layer
        must agree, or the per-edge path (hashing each raw arrival) and the
        batch path (one memoised key per interned node) diverge."""
        edges = [(1, 2), (1.0, 3), (2, 3), (1.0, 2), (True, 4), (0, False)]
        reference = ReptEstimator(ReptConfig(m=4, c=4, seed=5)).run(edges)
        batched = ReptEstimator(ReptConfig(m=4, c=4, seed=5)).run(edges, batch_size=2)
        assert_identical(reference, batched)
        # (1, 2) and (1.0, 2) are the same edge: stored at most once.
        assert reference.edges_stored <= 4

    def test_batch_with_string_nodes(self):
        edges = [(f"host-{u}", f"host-{v}") for u, v in noisy_stream()]
        reference = ReptEstimator(ReptConfig(m=3, c=8, seed=13)).run(edges)
        batched = ReptEstimator(ReptConfig(m=3, c=8, seed=13)).run(edges, batch_size=50)
        assert_identical(reference, batched)

    def test_eta_heavy_stream_matches(self):
        # Shared-edge triangle fans maximise the η pair-counter coupling.
        edges = planted_triangles_stream(8, shared_edge=True).edges() * 3
        config = dict(m=2, c=5, seed=3)  # partial group -> η required
        reference = ReptEstimator(ReptConfig(**config)).run(edges)
        batched = ReptEstimator(ReptConfig(**config)).run(edges, batch_size=7)
        assert_identical(reference, batched)
        assert reference.metadata["eta_tracked"] == 1.0

    def test_empty_and_loop_only_batches(self):
        estimator = ReptEstimator(ReptConfig(m=4, c=4, seed=1))
        estimator.process_edges([])
        estimator.process_edges([(1, 1), (2, 2)])
        assert estimator.edges_processed == 2
        assert estimator.edges_stored == 0

    def test_process_stream_rejects_bad_batch_size(self):
        estimator = ReptEstimator(ReptConfig(m=4, c=4, seed=1))
        with pytest.raises(ValueError):
            estimator.process_stream([(1, 2)], batch_size=0)


class TestFailedBatch:
    """A batch that raises part-way must not store its earlier records:
    those edges would otherwise count as duplicates forever."""

    @pytest.mark.parametrize("kernel", ["python", "native"])
    def test_raising_batch_does_not_hide_its_edges(self, kernel, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        if kernel == "native" and not native_available():
            pytest.skip("the C kernel is not buildable here")
        state = GroupStateSet(ReptConfig(m=1, c=1, seed=1), kernel=kernel)
        with pytest.raises(TypeError):
            state.process_edges([(1, 2), (2, 3), ([9], 3)])
        with pytest.raises(TypeError):
            state.process_edge([9], 3)
        assert state.total_edges_stored() == 0
        n_records = state.process_edges([(1, 2), (2, 3), (1, 3)])
        assert state.total_edges_stored() == 3
        assert state.estimate(n_records).global_count == 1.0

    def test_standalone_group_keeps_its_pairs_cache_clean(self):
        group = ProcessorGroup(make_hash_function("splitmix", 1, seed=1), 1, 1)
        with pytest.raises(ValueError):
            group.process_edges([(1, 2), (1, 2, 3)])
        group.process_edges([(1, 2), (2, 3), (1, 3)])
        assert group.total_edges_stored() == 3
        assert group.tau_values() == [1]


class TestProcessorGroupBatch:
    def make_group(self, **kwargs):
        kwargs.setdefault("group_size", 3)
        m = kwargs.setdefault("m", 4)
        seed = kwargs.pop("seed", 11)
        return ProcessorGroup(
            hash_function=make_hash_function("splitmix", m, seed=seed), **kwargs
        )

    def test_standalone_batch_matches_per_edge(self):
        edges = [(u, v) for u, v in noisy_stream() if u != v]
        reference = self.make_group(track_eta=True)
        for u, v in edges:
            reference.process_edge(u, v)
        batched = self.make_group(track_eta=True)
        for start in range(0, len(edges), 41):
            batched.process_edges(edges[start : start + 41])
        assert batched.tau_values() == reference.tau_values()
        assert batched.eta_values() == reference.eta_values()
        assert batched.local_tau_sums() == reference.local_tau_sums()
        assert batched.local_eta_sums() == reference.local_eta_sums()
        assert batched.total_edges_stored() == reference.total_edges_stored()

    def test_batch_after_zeroed_restore_matches(self):
        """First-occurrence flags derived from a restored adjacency are exact."""
        edges = [(u, v) for u, v in noisy_stream() if u != v]
        split = len(edges) // 2
        reference = self.make_group(track_eta=True)
        for u, v in edges:
            reference.process_edge(u, v)

        prefix = self.make_group(track_eta=True)
        for u, v in edges[:split]:
            prefix.process_edge(u, v)
        worker = self.make_group(track_eta=True)
        worker.restore(zeroed_snapshot(prefix))
        worker.process_edges(edges[split:])  # duplicates of stored edges inside

        merged = self.make_group(track_eta=True)
        merged.merge(prefix)
        merged.merge(worker)
        assert merged.tau_values() == reference.tau_values()
        assert merged.eta_values() == reference.eta_values()
        assert merged.total_edges_stored() == reference.total_edges_stored()


class TestDriverBackedBatch:
    def test_process_edges_buffers_in_bulk(self):
        edges = noisy_stream()
        per_edge = DriverBackedRept(ReptConfig(m=3, c=5, seed=9), backend="serial")
        for u, v in edges:
            per_edge.process_edge(u, v)
        batched = DriverBackedRept(ReptConfig(m=3, c=5, seed=9), backend="serial")
        batched.process_edges(edges)
        assert batched.edges_processed == per_edge.edges_processed
        assert_identical(per_edge.estimate(), batched.estimate())
