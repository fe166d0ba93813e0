"""Tests for the serial and chunked REPT drivers."""

import pytest

from repro.core.config import ReptConfig
from repro.core.parallel import DriverBackedRept, run_rept
from repro.core.rept import ReptEstimator
from repro.exceptions import ConfigurationError


class TestDriverEquivalence:
    def test_serial_matches_estimator(self, clique_stream):
        config = ReptConfig(m=3, c=7, seed=5)
        direct = ReptEstimator(config).run(clique_stream)
        driven = run_rept(clique_stream.edges(), config, backend="serial")
        assert driven.global_count == pytest.approx(direct.global_count)
        assert driven.local_counts == direct.local_counts

    def test_unknown_backend_rejected(self, triangle_stream):
        with pytest.raises(ConfigurationError):
            run_rept(triangle_stream.edges(), ReptConfig(m=2, c=2, seed=1), backend="gpu")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_per_group_pool_backends_are_gone(self, triangle_stream, backend):
        with pytest.raises(ConfigurationError):
            run_rept(triangle_stream.edges(), ReptConfig(m=2, c=2, seed=1), backend=backend)

    def test_single_group_short_circuits_pools(self, triangle_stream):
        # A stream that fits one chunk never starts a pool: the chunked
        # process backend runs it inline.
        config = ReptConfig(m=4, c=2, seed=1)
        estimate = run_rept(triangle_stream.edges(), config, backend="chunked-process")
        assert estimate.edges_processed == 3
        assert estimate.metadata["num_chunks"] == 1.0

    def test_self_loops_skipped_by_driver(self):
        config = ReptConfig(m=1, c=1, seed=1)
        estimate = run_rept([(0, 0), (0, 1), (1, 2), (0, 2)], config)
        assert estimate.global_count == pytest.approx(1.0)

    def test_self_loops_skipped_by_chunked_driver(self):
        config = ReptConfig(m=1, c=1, seed=1)
        estimate = run_rept(
            [(0, 0), (0, 1), (1, 2), (0, 2)], config,
            backend="chunked-serial", chunk_size=2,
        )
        assert estimate.global_count == pytest.approx(1.0)
        assert estimate.edges_processed == 4

    def test_accepts_generator_input(self, triangle_stream):
        config = ReptConfig(m=2, c=2, seed=1)
        estimate = run_rept((edge for edge in triangle_stream.edges()), config)
        assert estimate.edges_processed == 3

    def test_chunked_accepts_empty_stream(self):
        estimate = run_rept([], ReptConfig(m=2, c=2, seed=1), backend="chunked-serial")
        assert estimate.global_count == 0.0
        assert estimate.edges_processed == 0

    def test_chunk_size_rejected_when_invalid(self, triangle_stream):
        with pytest.raises(ConfigurationError):
            run_rept(
                triangle_stream.edges(), ReptConfig(m=2, c=2, seed=1),
                backend="chunked-serial", chunk_size=-3,
            )


class TestDriverBackedRept:
    def test_matches_direct_estimator(self, clique_stream):
        config = ReptConfig(m=3, c=7, seed=5)
        direct = ReptEstimator(config).run(clique_stream)
        adapted = DriverBackedRept(config, backend="chunked-serial", chunk_size=50).run(
            clique_stream
        )
        assert adapted.global_count == direct.global_count
        assert adapted.local_counts == direct.local_counts
        assert adapted.metadata["algorithm"] == direct.metadata["algorithm"]

    def test_counts_edges_like_one_pass_estimators(self):
        adapter = DriverBackedRept(ReptConfig(m=2, c=2, seed=1))
        adapter.process_edge(0, 1)
        adapter.process_edge(3, 3)  # counted, never estimated
        assert adapter.edges_processed == 2
        assert adapter.estimate().edges_processed == 2

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            DriverBackedRept(ReptConfig(m=2, c=2, seed=1), backend="gpu")

    def test_describe_names_backend(self):
        adapter = DriverBackedRept(ReptConfig(m=2, c=2, seed=1), backend="chunked-serial")
        assert "chunked-serial" in adapter.describe()
