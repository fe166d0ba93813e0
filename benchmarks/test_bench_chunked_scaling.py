"""Scaling benchmark: the stream-sharded engine against the serial driver.

The chunked backends split the stream into chunks so that every
(group × chunk) pair is an independent task: no task receives more than one
chunk of the stream, and parallelism grows with stream length rather than
being capped at the number of processor groups.  This benchmark runs the
same configuration through ``serial`` and ``chunked-process`` on a
synthetic Barabási–Albert stream and records:

* wall-clock per backend (one round each — these are second-scale runs);
* the maximum number of stream edges any single task receives (one chunk
  for ``chunked-process``);
* exact equality of the estimates, which is asserted, not just recorded.

Scale knob: the stream defaults to ~40k edges so the benchmark stays in the
suite's time budget on a laptop; set ``REPRO_BENCH_CHUNKED_NODES`` (e.g. to
``125000``, giving a ≥500k-edge stream) to reproduce the scaling on real
hardware.
"""

from __future__ import annotations

import os

import pytest

from repro.core import ReptConfig, run_rept
from repro.core.parallel import auto_chunk_size
from repro.generators.random_graphs import barabasi_albert_stream

BENCH_NODES = int(os.environ.get("REPRO_BENCH_CHUNKED_NODES", "10000"))
BENCH_CHUNK_SIZE = 8192
_CONFIG = dict(m=8, c=12, seed=3, track_local=False)


@pytest.fixture(scope="module")
def chunked_stream():
    return barabasi_albert_stream(BENCH_NODES, 4, triad_closure=0.3, seed=17).edges()


@pytest.fixture(scope="module")
def serial_reference(chunked_stream):
    return run_rept(chunked_stream, ReptConfig(**_CONFIG), backend="serial")


class TestChunkedScaling:
    def test_bench_serial_reference(self, benchmark, chunked_stream, serial_reference):
        estimate = benchmark.pedantic(
            lambda: run_rept(chunked_stream, ReptConfig(**_CONFIG), backend="serial"),
            rounds=1,
            iterations=1,
        )
        benchmark.extra_info["num_edges"] = len(chunked_stream)
        assert estimate.global_count == serial_reference.global_count

    def test_bench_chunked_process_bounded_payload(
        self, benchmark, chunked_stream, serial_reference
    ):
        estimate = benchmark.pedantic(
            lambda: run_rept(
                chunked_stream,
                ReptConfig(**_CONFIG),
                backend="chunked-process",
                chunk_size=BENCH_CHUNK_SIZE,
            ),
            rounds=1,
            iterations=1,
        )
        assert estimate.global_count == serial_reference.global_count
        assert estimate.local_counts == serial_reference.local_counts
        assert estimate.edges_stored == serial_reference.edges_stored
        # Peak per-task stream payload is one chunk, not the whole stream.
        max_payload = estimate.metadata["chunk_edges_max"]
        benchmark.extra_info["max_task_payload_edges"] = max_payload
        benchmark.extra_info["num_chunks"] = estimate.metadata["num_chunks"]
        assert max_payload <= BENCH_CHUNK_SIZE
        assert max_payload < len(chunked_stream)

    def test_auto_chunk_size_scales_with_workers(self):
        # More workers -> more, smaller chunks (down to the floor).
        n = 1_000_000
        sizes = [auto_chunk_size(n, workers, num_groups=1) for workers in (1, 4, 16)]
        assert sizes[0] >= sizes[1] >= sizes[2]
        assert all(size >= 1 for size in sizes)
        # Tiny streams never split below one chunk.
        assert auto_chunk_size(100, 16, num_groups=4) == 100
