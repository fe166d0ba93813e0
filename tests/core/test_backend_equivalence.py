"""Cross-backend equivalence: the acceptance gate for the chunked engine.

Every execution backend must return *bit-identical* global and local
estimates for the same :class:`ReptConfig` and stream, across the full
algorithm grid: ``c < m`` and ``c == m`` (Algorithm 1), ``c % m == 0``
(complete groups only) and ``c % m != 0`` (partial group, Graybill–Deal
combination with η̂).  Exact ``==`` comparisons are intentional — the
combination arithmetic is a pure function of integer counters, so any
drift indicates a broken merge, not floating-point noise.
"""

import pytest

from repro.core.config import ReptConfig
from repro.core.parallel import run_rept
from repro.core.rept import ReptEstimator
from repro.generators.random_graphs import barabasi_albert_stream

#: (m, c) covering c < m, c == m, c % m == 0 and c % m != 0.
GRID = [(4, 3), (4, 4), (3, 6), (4, 11)]



@pytest.fixture(scope="module")
def grid_stream():
    base = barabasi_albert_stream(250, 3, triad_closure=0.5, seed=21).edges()
    # Duplicate re-arrivals exercise the already_stored path across chunks.
    return base + base[:80]


def assert_identical(estimate, reference):
    assert estimate.global_count == reference.global_count
    assert estimate.local_counts == reference.local_counts
    assert estimate.edges_stored == reference.edges_stored
    assert estimate.edges_processed == reference.edges_processed
    for key in ("tau_hat_complete", "tau_hat_partial", "eta_hat"):
        assert estimate.metadata.get(key) == reference.metadata.get(key)


class TestBackendEquivalence:
    @pytest.mark.parametrize("m,c", GRID)
    def test_chunked_serial_matches_serial(self, grid_stream, m, c):
        config = ReptConfig(m=m, c=c, seed=13)
        reference = run_rept(grid_stream, config, backend="serial")
        estimate = run_rept(
            grid_stream, config, backend="chunked-serial", chunk_size=97
        )
        assert_identical(estimate, reference)

    @pytest.mark.slow
    @pytest.mark.parametrize("m,c", GRID)
    def test_process_backends_match_serial(self, grid_stream, m, c):
        config = ReptConfig(m=m, c=c, seed=13)
        reference = run_rept(grid_stream, config, backend="serial")
        estimate = run_rept(
            grid_stream, config, backend="chunked-process", chunk_size=97, max_workers=2
        )
        assert_identical(estimate, reference)

    @pytest.mark.parametrize("m,c", GRID)
    def test_estimator_matches_chunked(self, grid_stream, m, c):
        config = ReptConfig(m=m, c=c, seed=13)
        direct = ReptEstimator(config).run(grid_stream)
        chunked = run_rept(
            grid_stream, config, backend="chunked-serial", chunk_size=97
        )
        assert_identical(chunked, direct)

    def test_chunk_size_does_not_matter(self, grid_stream):
        config = ReptConfig(m=4, c=11, seed=13)
        reference = run_rept(grid_stream, config, backend="serial")
        for chunk_size in (1, 7, 64, 10_000):
            estimate = run_rept(
                grid_stream, config, backend="chunked-serial", chunk_size=chunk_size
            )
            assert_identical(estimate, reference)

    def test_chunked_metadata_reports_sharding(self, grid_stream):
        config = ReptConfig(m=4, c=3, seed=13)
        estimate = run_rept(
            grid_stream, config, backend="chunked-serial", chunk_size=100
        )
        assert estimate.metadata["num_chunks"] == pytest.approx(
            -(-len(grid_stream) // 100)
        )
        assert estimate.metadata["chunk_edges_max"] <= 100
