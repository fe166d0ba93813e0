"""Tests for the serial and elastic REPT drivers."""

import pytest

from repro.core.config import ReptConfig
from repro.core.parallel import (
    MIN_CHUNK_EDGES,
    DriverBackedRept,
    auto_chunk_size,
    run_rept,
)
from repro.core.rept import ReptEstimator
from repro.exceptions import ConfigurationError


class TestDriverEquivalence:
    def test_serial_matches_estimator(self, clique_stream):
        config = ReptConfig(m=3, c=7, seed=5)
        direct = ReptEstimator(config).run(clique_stream)
        driven = run_rept(clique_stream.edges(), config, backend="serial")
        assert driven.global_count == pytest.approx(direct.global_count)
        assert driven.local_counts == direct.local_counts

    def test_elastic_matches_serial(self, clique_stream):
        config = ReptConfig(m=3, c=7, seed=5)
        reference = run_rept(clique_stream.edges(), config, backend="serial")
        estimate = run_rept(
            clique_stream.edges(), config,
            backend="chunked-elastic", max_workers=2, chunk_size=50,
        )
        assert estimate.global_count == reference.global_count
        assert estimate.local_counts == reference.local_counts
        assert estimate.edges_stored == reference.edges_stored
        assert estimate.metadata["chunk_size"] == 50.0

    def test_unknown_backend_rejected(self, triangle_stream):
        with pytest.raises(ConfigurationError):
            run_rept(triangle_stream.edges(), ReptConfig(m=2, c=2, seed=1), backend="gpu")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_per_group_pool_backends_are_gone(self, triangle_stream, backend):
        with pytest.raises(ConfigurationError):
            run_rept(triangle_stream.edges(), ReptConfig(m=2, c=2, seed=1), backend=backend)

    @pytest.mark.parametrize("backend", ["chunked-serial", "chunked-process"])
    def test_stream_sharded_backends_are_gone(self, triangle_stream, backend):
        with pytest.raises(ConfigurationError):
            run_rept(triangle_stream.edges(), ReptConfig(m=2, c=2, seed=1), backend=backend)

    def test_self_loops_skipped_by_driver(self):
        config = ReptConfig(m=1, c=1, seed=1)
        estimate = run_rept([(0, 0), (0, 1), (1, 2), (0, 2)], config)
        assert estimate.global_count == pytest.approx(1.0)

    def test_self_loops_skipped_by_chunked_driver(self):
        config = ReptConfig(m=1, c=1, seed=1)
        estimate = run_rept(
            [(0, 0), (0, 1), (1, 2), (0, 2)], config,
            backend="chunked-elastic", chunk_size=2,
        )
        assert estimate.global_count == pytest.approx(1.0)
        assert estimate.edges_processed == 4

    def test_single_group_starts_one_worker(self, triangle_stream):
        # One processor group is one shard: the default pool never starts
        # a worker that would own nothing.
        config = ReptConfig(m=4, c=2, seed=1)
        estimate = run_rept(triangle_stream.edges(), config, backend="chunked-elastic")
        assert estimate.edges_processed == 3
        assert estimate.metadata["workers"] == 1.0

    def test_default_chunk_size_is_auto_tuned(self, clique_stream):
        config = ReptConfig(m=3, c=7, seed=5)
        edges = clique_stream.edges()
        estimate = run_rept(edges, config, backend="chunked-elastic", max_workers=2)
        groups = len(config.group_sizes())
        assert estimate.metadata["chunk_size"] == float(
            auto_chunk_size(len(edges), 2, groups)
        )

    def test_accepts_generator_input(self, triangle_stream):
        config = ReptConfig(m=2, c=2, seed=1)
        estimate = run_rept((edge for edge in triangle_stream.edges()), config)
        assert estimate.edges_processed == 3

    def test_accepts_empty_stream(self):
        estimate = run_rept([], ReptConfig(m=2, c=2, seed=1), backend="serial")
        assert estimate.global_count == 0.0
        assert estimate.edges_processed == 0

    def test_chunked_accepts_empty_stream(self):
        estimate = run_rept(
            [], ReptConfig(m=2, c=2, seed=1), backend="chunked-elastic", max_workers=1
        )
        assert estimate.global_count == 0.0
        assert estimate.edges_processed == 0

    @pytest.mark.parametrize("chunk_size", [-3, 0])
    def test_chunk_size_rejected_when_invalid(self, triangle_stream, chunk_size):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            run_rept(
                triangle_stream.edges(), ReptConfig(m=2, c=2, seed=1),
                backend="chunked-elastic", chunk_size=chunk_size,
            )

    def test_auto_chunk_size_scales_with_workers(self):
        # More workers -> more, smaller batches (down to the floor).
        n = 1_000_000
        sizes = [auto_chunk_size(n, workers, num_groups=1) for workers in (1, 4, 16)]
        assert sizes[0] >= sizes[1] >= sizes[2]
        assert all(size >= 1 for size in sizes)
        # Tiny streams never split below one batch.
        assert auto_chunk_size(100, 16, num_groups=4) == 100

    def test_auto_chunk_size_keeps_the_floor(self):
        # Long streams are never cut below MIN_CHUNK_EDGES per batch, and an
        # empty stream still gets a valid (positive) batch size.
        n = 10 * MIN_CHUNK_EDGES
        assert auto_chunk_size(n, workers=64, num_groups=1) == MIN_CHUNK_EDGES
        assert auto_chunk_size(0, workers=4, num_groups=2) == 1


class TestDriverBackedRept:
    def test_matches_direct_estimator(self, clique_stream):
        config = ReptConfig(m=3, c=7, seed=5)
        direct = ReptEstimator(config).run(clique_stream)
        adapted = DriverBackedRept(config, backend="serial").run(clique_stream)
        assert adapted.global_count == direct.global_count
        assert adapted.local_counts == direct.local_counts
        assert adapted.metadata["algorithm"] == direct.metadata["algorithm"]

    def test_forwards_options_to_elastic_backend(self, clique_stream):
        config = ReptConfig(m=3, c=7, seed=5)
        direct = ReptEstimator(config).run(clique_stream)
        adapter = DriverBackedRept(
            config, backend="chunked-elastic", max_workers=2, chunk_size=50
        )
        adapted = adapter.run(clique_stream)
        assert adapted.global_count == direct.global_count
        assert adapted.local_counts == direct.local_counts
        assert adapted.metadata["chunk_size"] == 50.0
        assert adapted.metadata["workers"] == 2.0

    def test_counts_edges_like_one_pass_estimators(self):
        adapter = DriverBackedRept(ReptConfig(m=2, c=2, seed=1))
        adapter.process_edge(0, 1)
        adapter.process_edge(3, 3)  # counted, never estimated
        assert adapter.edges_processed == 2
        assert adapter.estimate().edges_processed == 2

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            DriverBackedRept(ReptConfig(m=2, c=2, seed=1), backend="gpu")

    def test_defaults_to_serial(self):
        adapter = DriverBackedRept(ReptConfig(m=2, c=2, seed=1))
        assert adapter.backend == "serial"

    def test_describe_names_backend(self):
        adapter = DriverBackedRept(ReptConfig(m=2, c=2, seed=1), backend="serial")
        assert "serial" in adapter.describe()
