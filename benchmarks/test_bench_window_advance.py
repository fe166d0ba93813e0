"""Window-advance benchmark: closing a monitor window vs per-window re-ingestion.

The sliding-window monitor does its counting work when records *arrive*:
each open window's one state set ingests the window's records.  Advancing
a window across its last pane boundary then only combines that state
set's summaries into the estimate — no record is ever re-ingested.  The
re-ingestion alternative pays O(window) at every advance: build a fresh
estimator and replay the window's records.

This benchmark drives both over the same timestamped packet-flow trace and
asserts

* **exactness** — every monitor window estimate is bit-identical to the
  from-scratch re-ingestion of the same records, and
* **advance latency** — the monitor's median per-advance cost beats the
  median per-window re-ingestion cost (``REPRO_BENCH_WINDOW_ADVANCE_TOL``
  relaxes the comparison for noisy machines).

The amortized totals (arrival-time ingestion vs summed re-ingestion) are
printed for context: with overlapping windows both designs update each
record once per covering window, so total work is comparable — the
monitor's structural wins are the O(pane) advance, O(window-state) memory
instead of retaining the whole trace, and online results.

Scale knobs: ``REPRO_BENCH_WINDOW_EDGES`` (default 30000).
"""

from __future__ import annotations

import os
import time
from statistics import median

from repro.core import ReptConfig, ReptEstimator
from repro.generators.traffic import packet_flow_records
from repro.streaming.monitor import WindowedTriangleMonitor

BENCH_EDGES = int(os.environ.get("REPRO_BENCH_WINDOW_EDGES", "30000"))
ADVANCE_TOL = float(os.environ.get("REPRO_BENCH_WINDOW_ADVANCE_TOL", "1.0"))

DURATION = 1800.0
NUM_HOSTS = 1000
WINDOW_SECONDS = 300.0
PANE_SECONDS = 60.0  # slide = pane: a window closes at every pane boundary
CONFIG = ReptConfig(m=16, c=32, seed=7, hash_kind="tabulation", track_local=False)


def test_bench_window_advance():
    records = packet_flow_records(
        BENCH_EDGES, duration_seconds=DURATION, num_hosts=NUM_HOSTS, seed=13
    )
    pane_buckets = {}
    for record in records:
        pane_buckets.setdefault(int(record.time // PANE_SECONDS), []).append(record)

    # Monitor: arrival work per pane, then the timed advance — an explicit
    # watermark tick across the pane boundary that closes the due window
    # by estimating its state set.
    monitor = WindowedTriangleMonitor(
        WINDOW_SECONDS,
        slide_seconds=PANE_SECONDS,
        pane_seconds=PANE_SECONDS,
        config=CONFIG,
        origin=0.0,
        record_replay=True,
    )
    advance_seconds = []
    results = []
    ingest_total = 0.0
    for pane in sorted(pane_buckets):
        start = time.perf_counter()
        monitor.ingest(pane_buckets[pane])
        ingest_total += time.perf_counter() - start
        start = time.perf_counter()
        closed = monitor.advance_watermark((pane + 1) * PANE_SECONDS)
        elapsed = time.perf_counter() - start
        if closed:
            advance_seconds.append(elapsed)
            results.extend(closed)
    results.extend(monitor.flush())
    assert len(advance_seconds) >= 10, "stream too short to measure advances"

    # Re-ingestion alternative: at each advance, replay the window's
    # records (already assembled — the replay log is exactly the window's
    # member records in ingestion order) through a fresh estimator.
    reingest_seconds = []
    for result in results:
        start = time.perf_counter()
        estimator = ReptEstimator(CONFIG)
        estimator.process_stream(result.replay, batch_size=65536)
        estimate = estimator.estimate()
        reingest_seconds.append(time.perf_counter() - start)

        # Exactness first: advancing without re-ingestion is an execution
        # strategy, not an approximation.
        assert estimate.global_count == result.estimate.global_count
        assert estimate.local_counts == result.estimate.local_counts
        assert estimate.edges_stored == result.estimate.edges_stored
        assert estimate.edges_processed == result.records

    advance_ms = median(advance_seconds) * 1e3
    reingest_ms = median(reingest_seconds) * 1e3
    print(
        f"\n  {len(results)} windows (window={WINDOW_SECONDS:.0f}s, "
        f"pane={PANE_SECONDS:.0f}s, {len(records)} records): "
        f"window-close advance median {advance_ms:.2f}ms vs "
        f"re-ingestion median {reingest_ms:.2f}ms "
        f"({reingest_ms / advance_ms:.1f}x)"
    )
    print(
        f"  amortized context: arrival-time ingestion {ingest_total:.2f}s total, "
        f"summed re-ingestion {sum(reingest_seconds):.2f}s total"
    )
    assert advance_ms * ADVANCE_TOL < reingest_ms, (
        f"window-close advance ({advance_ms:.2f}ms median) did not beat "
        f"per-window re-ingestion ({reingest_ms:.2f}ms median)"
    )
