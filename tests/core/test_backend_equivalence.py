"""Estimator/driver equivalence across the REPT algorithm grid.

The per-edge :class:`ReptEstimator`, the batched ``serial`` driver of
:func:`run_rept`, its ``chunked-elastic`` driver and the durable runner
must return *bit-identical* global and local estimates for the same
:class:`ReptConfig` and stream, across the full algorithm grid:
``c < m`` and ``c == m`` (Algorithm 1), ``c % m == 0`` (complete groups
only) and ``c % m != 0`` (partial group, Graybill–Deal combination with
η̂).  Exact ``==`` comparisons are intentional — the combination arithmetic
is a pure function of integer counters, so any drift indicates a broken
ingest path, not floating-point noise.  Both kernel-parity lanes run this
file, so it gates the C kernel and the dict reference alike.
"""

import pytest

from repro.core.config import ReptConfig
from repro.core.parallel import run_rept
from repro.core.rept import ReptEstimator
from repro.durability import run_rept_durable
from repro.generators.random_graphs import barabasi_albert_stream

#: (m, c) covering c < m, c == m, c % m == 0 and c % m != 0.
GRID = [(4, 3), (4, 4), (3, 6), (4, 11)]


@pytest.fixture(scope="module")
def grid_stream():
    base = barabasi_albert_stream(250, 3, triad_closure=0.5, seed=21).edges()
    # Duplicate re-arrivals exercise the already_stored path.
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
    def test_estimator_matches_serial(self, grid_stream, m, c):
        config = ReptConfig(m=m, c=c, seed=13)
        direct = ReptEstimator(config).run(grid_stream)
        driven = run_rept(grid_stream, config, backend="serial")
        assert_identical(driven, direct)

    @pytest.mark.parametrize("m,c", GRID)
    def test_process_backends_match_serial(self, grid_stream, m, c):
        config = ReptConfig(m=m, c=c, seed=13)
        reference = run_rept(grid_stream, config, backend="serial")
        estimate = run_rept(
            grid_stream, config, backend="chunked-elastic", chunk_size=97, max_workers=2
        )
        assert_identical(estimate, reference)

    def test_chunk_size_does_not_matter(self, grid_stream):
        config = ReptConfig(m=4, c=11, seed=13)
        reference = run_rept(grid_stream, config, backend="serial")
        for chunk_size in (1, 7, 64, 10_000):
            estimate = run_rept(
                grid_stream, config, backend="chunked-elastic",
                chunk_size=chunk_size, max_workers=2,
            )
            assert_identical(estimate, reference)

    def test_durable_segment_size_does_not_matter(self, grid_stream, tmp_path):
        config = ReptConfig(m=4, c=11, seed=13)
        reference = run_rept(grid_stream, config, backend="serial")
        for every in (7, 64, 10_000):
            estimate, _ = run_rept_durable(
                grid_stream, config, tmp_path / str(every), checkpoint_every=every
            )
            assert_identical(estimate, reference)
