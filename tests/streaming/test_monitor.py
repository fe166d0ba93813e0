"""Tests for the sliding-window triangle monitor."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.baselines.exact import ExactStreamingCounter
from repro.baselines.triest import TriestImprEstimator
from repro.core import GroupStateSet, ReptConfig, ReptEstimator
from repro.core.kernel import native_available
from repro.durability.checkpoint import CheckpointManager
from repro.streaming.monitor import WindowedTriangleMonitor
from repro.streaming.windows import TimeWindowedStream, TimestampedRecord
from repro.utils.rng import as_random_source, derive_seed
from tests.conftest import reachable

CONFIG = ReptConfig(m=4, c=6, seed=11, track_local=True)  # partial group: η tracked
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
KERNELS = [
    pytest.param(
        "auto", marks=pytest.mark.skipif(not native_available(), reason="no C compiler available")
    ),
    "python",
]


def _trace(n=2500, nodes=30, span=60.0, jitter=0.0, seed=5):
    """Duplicate-heavy timestamped records, optionally delivered out of order."""
    rng = as_random_source(seed)
    records = []
    time = 0.0
    for _ in range(n):
        time += float(rng.random()) * (span / n) * 2.0
        u = int(rng.integers(0, nodes))
        v = int(rng.integers(0, nodes))
        stamp = time + (float(rng.random()) * 2.0 - 1.0) * jitter
        records.append((u, v, max(0.0, stamp)))
    return records


def _drain(monitor, records, chunk=700):
    closed = []
    for start in range(0, len(records), chunk):
        closed.extend(monitor.ingest(records[start : start + chunk]))
    closed.extend(monitor.flush())
    return closed


class TestValidation:
    def test_requires_exactly_one_engine(self):
        with pytest.raises(ValueError, match="exactly one"):
            WindowedTriangleMonitor(10.0)
        with pytest.raises(ValueError, match="exactly one"):
            WindowedTriangleMonitor(
                10.0, config=CONFIG, estimator_factory=lambda s: ExactStreamingCounter()
            )

    def test_slide_cannot_exceed_window(self):
        with pytest.raises(ValueError, match="slide"):
            WindowedTriangleMonitor(10.0, slide_seconds=20.0, config=CONFIG)

    def test_pane_must_divide_window_and_slide(self):
        with pytest.raises(ValueError, match="evenly divide"):
            WindowedTriangleMonitor(10.0, pane_seconds=3.0, config=CONFIG)
        with pytest.raises(ValueError, match="evenly divide"):
            WindowedTriangleMonitor(
                12.0, slide_seconds=6.0, pane_seconds=4.0, config=CONFIG
            )

    def test_late_policy_validated(self):
        with pytest.raises(ValueError, match="late_policy"):
            WindowedTriangleMonitor(10.0, config=CONFIG, late_policy="whatever")

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError, match="allowed_lateness"):
            WindowedTriangleMonitor(10.0, config=CONFIG, allowed_lateness=-1.0)


class TestTumblingEquivalence:
    def test_matches_offline_windowing_and_reingestion(self):
        """Monitor windows == TimeWindowedStream slices re-ingested from scratch."""
        records = _trace()
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG)
        results = _drain(monitor, records)

        offline = TimeWindowedStream(records, 10.0)
        streams = offline.window_streams()
        assert len(results) == len(streams)
        for result, stream in zip(results, streams):
            reference = ReptEstimator(CONFIG)
            reference.process_edges(stream.edges())
            expected = reference.estimate()
            assert result.estimate.global_count == expected.global_count
            assert result.estimate.local_counts == expected.local_counts
            assert result.estimate.edges_stored == expected.edges_stored
            assert result.estimate.metadata.get("eta_hat") == expected.metadata.get(
                "eta_hat"
            )

    def test_window_bounds_are_half_open_and_aligned(self):
        records = [(0, 1, 0.0), (1, 2, 10.0), (2, 0, 10.0)]
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, record_replay=True)
        results = _drain(monitor, records)
        assert [(r.start, r.end) for r in results] == [(0.0, 10.0), (10.0, 20.0)]
        assert results[0].replay == [(0, 1)]
        assert results[1].replay == [(1, 2), (2, 0)]


class TestSlidingWindows:
    def test_replay_is_bit_identical_to_reingestion(self):
        records = _trace(jitter=1.0)
        monitor = WindowedTriangleMonitor(
            20.0,
            slide_seconds=5.0,
            config=CONFIG,
            allowed_lateness=2.0,
            record_replay=True,
        )
        results = _drain(monitor, records)
        assert len(results) > 5
        for result in results:
            reference = ReptEstimator(CONFIG)
            reference.process_edges(result.replay)
            expected = reference.estimate()
            assert result.estimate.global_count == expected.global_count
            assert result.estimate.local_counts == expected.local_counts
            assert result.estimate.edges_stored == expected.edges_stored
            assert result.records == expected.edges_processed

    def test_advance_is_merge_only(self):
        """Advancing by one pane never re-ingests retained panes: each window
        counts every record of its panes exactly once."""
        records = [(i % 7, (i + 1) % 7, float(t)) for t in range(40) for i in range(3)]
        monitor = WindowedTriangleMonitor(
            20.0, slide_seconds=10.0, pane_seconds=10.0, config=CONFIG
        )
        results = _drain(monitor, records)
        # 30 records per pane: every full window holds its two panes', the
        # flushed tail window the one pane it observed.
        assert [(r.records, r.complete) for r in results] == [
            (60, True),
            (60, True),
            (60, True),
            (30, False),
        ]
        assert [r.estimate.edges_processed for r in results] == [60, 60, 60, 30]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_one_state_set_per_open_window(self, kernel):
        # An open window is one state set over its records, beside the
        # template that owns the interning table every window shares.
        config = ReptConfig(m=4, c=6, seed=11, track_local=True, kernel=kernel)
        monitor = WindowedTriangleMonitor(
            12.0, slide_seconds=4.0, pane_seconds=2.0, config=config, allowed_lateness=1.0
        )
        records = _trace(n=600, span=30.0, jitter=0.5)
        open_counts = set()
        for start in range(0, len(records), 40):
            monitor.ingest(records[start : start + 40])
            state_sets = [obj for obj in reachable(monitor) if isinstance(obj, GroupStateSet)]
            assert len(state_sets) == len(monitor.open_window_indices()) + 1
            open_counts.add(len(monitor.open_window_indices()))
        assert max(open_counts) >= 3


class TestSealingAndLateness:
    def test_results_stream_out_as_watermark_passes(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, origin=0.0)
        assert monitor.ingest([(0, 1, 1.0), (1, 2, 5.0)]) == []
        closed = monitor.ingest([(2, 0, 10.0)])  # watermark reaches pane 0's edge
        assert [r.index for r in closed] == [0]
        assert closed[0].records == 2
        assert monitor.open_window_indices() == [1]

    def test_allowed_lateness_defers_sealing(self):
        monitor = WindowedTriangleMonitor(
            10.0, config=CONFIG, origin=0.0, allowed_lateness=5.0
        )
        assert monitor.ingest([(0, 1, 1.0), (1, 2, 12.0)]) == []
        # A record 3s behind the max timestamp is still admitted.
        assert monitor.ingest([(2, 0, 9.0)]) == []
        closed = monitor.ingest([(0, 2, 15.5)])
        assert [r.index for r in closed] == [0]
        assert closed[0].records == 2
        assert monitor.late_records == 0

    def test_late_records_dropped_and_counted(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG)
        monitor.ingest([(0, 1, 1.0), (1, 2, 11.0)])  # seals pane 0
        monitor.ingest([(2, 0, 2.0)])  # late for pane 0
        assert monitor.late_records == 1
        results = monitor.flush()
        assert results[0].records == 1  # the late record is not smuggled in

    def test_late_policy_raise(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, late_policy="raise")
        monitor.ingest([(0, 1, 1.0), (1, 2, 11.0)])
        with pytest.raises(ValueError, match="sealed pane"):
            monitor.ingest([(2, 0, 2.0)])

    def test_advance_watermark_closes_without_records(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, origin=0.0)
        monitor.ingest([(0, 1, 1.0), (1, 2, 2.0)])
        closed = monitor.advance_watermark(10.0)
        assert [r.index for r in closed] == [0]
        assert closed[0].records == 2
        # Ticks are monotone and idempotent.
        assert monitor.advance_watermark(5.0) == []
        assert monitor.watermark == 10.0

    def test_advance_watermark_estimate_matches_reingestion(self):
        records = [r for r in _trace(n=800, span=20.0) if r[2] < 10.0]
        assert records
        monitor = WindowedTriangleMonitor(
            10.0, config=CONFIG, origin=0.0, record_replay=True
        )
        assert monitor.ingest(records) == []
        closed = monitor.advance_watermark(10.0)
        assert len(closed) == 1
        reference = ReptEstimator(CONFIG)
        reference.process_edges(closed[0].replay)
        assert closed[0].estimate.global_count == reference.estimate().global_count

    def test_advance_watermark_respects_lateness(self):
        monitor = WindowedTriangleMonitor(
            10.0, config=CONFIG, origin=0.0, allowed_lateness=5.0
        )
        monitor.ingest([(0, 1, 1.0)])
        assert monitor.advance_watermark(12.0) == []  # watermark only 7.0
        assert monitor.advance_watermark(15.0) != []

    def test_advance_watermark_rejects_non_finite(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, origin=0.0)
        monitor.ingest([(0, 1, 1.0)])
        with pytest.raises(ValueError, match="finite"):
            monitor.advance_watermark(float("inf"))
        with pytest.raises(ValueError, match="finite"):
            monitor.advance_watermark(float("nan"))

    def test_far_future_tick_terminates_and_seals(self):
        # A tick far beyond the observed span must close the observed
        # windows promptly (no pane-by-pane spin, no unbounded empty
        # results) and still make subsequent old records late.
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, origin=0.0)
        closed = monitor.ingest([(0, 1, 1.0), (1, 2, 12.0)])
        assert [r.index for r in closed] == [0]  # t=12 already sealed pane 0
        closed = monitor.advance_watermark(1.0e12)
        assert [r.index for r in closed] == [1]  # data span ends at pane 1
        assert len(monitor.results) == 2
        monitor.ingest([(2, 0, 13.0)])
        assert monitor.late_records == 1

    def test_derived_origin_admits_bounded_out_of_order(self):
        # With a derived origin, a record delivered late but within
        # allowed_lateness must be admitted even if its timestamp precedes
        # the first batch's minimum (the lateness contract).
        monitor = WindowedTriangleMonitor(
            10.0, config=CONFIG, allowed_lateness=30.0, record_replay=True
        )
        monitor.ingest([(1, 2, 5.0), (2, 0, 6.0)])
        monitor.ingest([(0, 1, 1.0)])  # earlier than anything in batch 1
        results = monitor.flush()
        assert monitor.late_records == 0
        assert sum(r.records for r in results) == 3
        reference = ReptEstimator(CONFIG)
        reference.process_edges([(1, 2), (2, 0), (0, 1)])
        assert (
            sum(r.estimate.global_count for r in results)
            == reference.estimate().global_count
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_closed_results_hold_no_window_state(self, kernel):
        # A closed result keeps none of its window's counting state, and
        # neither does one that an older version pickled with its window's
        # ring of pane deltas, nor one such a version's open window closes.
        config = ReptConfig(m=4, c=6, seed=11, track_local=True, kernel=kernel)
        monitor = WindowedTriangleMonitor(10.0, pane_seconds=5.0, config=config)
        results = _drain(monitor, _trace(n=600, span=20.0))
        name = "monitor" if kernel == "auto" else "monitor-python"
        directories = sorted(FIXTURES.glob(f"*/{name}"))
        assert len(directories) >= 3
        for directory in directories:
            payload = CheckpointManager(directory).recover().checkpoint.payload
            assert payload["results"] and payload["monitor"].open_window_indices()
            results.extend(payload["results"])
            results.extend(payload["monitor"].flush())
        held = reachable(results)
        assert not any(isinstance(obj, (np.ndarray, GroupStateSet)) for obj in held)

    def test_empty_windows_keep_series_aligned(self):
        records = [(0, 1, 1.0), (1, 2, 35.0)]
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG)
        results = _drain(monitor, records)
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.records for r in results] == [1, 0, 0, 1]
        assert results[1].estimate.global_count == 0.0

    def test_flush_marks_partial_windows(self):
        records = [(0, 1, 1.0), (1, 2, 12.0)]
        monitor = WindowedTriangleMonitor(
            20.0, slide_seconds=10.0, config=CONFIG
        )
        results = _drain(monitor, records)
        # Window 0 saw both its panes; window 1's second pane never arrived.
        assert [r.index for r in results] == [0, 1]
        assert results[0].complete is True
        assert results[1].complete is False


class TestServiceTimerIdempotency:
    """The service layer ticks flush()/advance_watermark() on timers: both
    must be re-entrant and idempotent when no new panes arrived."""

    def test_double_flush_emits_nothing_new(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, origin=0.0)
        monitor.ingest([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        first = monitor.flush()
        assert [r.index for r in first] == [0]
        emitted = len(monitor.results)
        assert monitor.flush() == []
        assert monitor.flush() == []
        assert len(monitor.results) == emitted

    def test_non_advancing_watermark_ticks_emit_nothing(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, origin=0.0)
        monitor.ingest([(0, 1, 1.0), (1, 2, 2.0)])
        closed = monitor.advance_watermark(10.0)
        assert [r.index for r in closed] == [0]
        emitted = len(monitor.results)
        # Repeated identical (and stale) ticks: no duplicates, no movement.
        for tick in (10.0, 10.0, 4.0, 10.0):
            assert monitor.advance_watermark(tick) == []
        assert monitor.watermark == 10.0
        assert len(monitor.results) == emitted

    def test_watermark_tick_after_flush_never_reemits(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, origin=0.0)
        monitor.ingest([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        flushed = monitor.flush()
        assert [r.index for r in flushed] == [0]
        # flush() emitted window 0 without sealing its panes; a later timer
        # tick walking the seal must not emit the same window index again.
        assert monitor.advance_watermark(100.0) == []
        assert [r.index for r in monitor.results] == [0]
        assert monitor.flush() == []

    def test_flush_tick_interleaving_with_sliding_windows(self):
        monitor = WindowedTriangleMonitor(
            20.0, slide_seconds=10.0, config=CONFIG, origin=0.0
        )
        monitor.ingest([(0, 1, 1.0), (1, 2, 12.0), (2, 0, 15.0)])
        flushed = monitor.flush()
        assert [r.index for r in flushed] == [0, 1]
        assert monitor.advance_watermark(500.0) == []
        assert monitor.flush() == []
        assert [r.index for r in monitor.results] == [0, 1]

    def test_factory_engine_flush_then_tick(self):
        monitor = WindowedTriangleMonitor(
            10.0, estimator_factory=lambda s: ExactStreamingCounter(), origin=0.0
        )
        monitor.ingest([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        assert [r.index for r in monitor.flush()] == [0]
        assert monitor.advance_watermark(50.0) == []
        assert monitor.flush() == []
        assert len(monitor.results) == 1


class TestColumnarAndEngines:
    def test_ingest_columns_accepts_numpy(self):
        us = np.array([0, 1, 2, 0], dtype=np.int64)
        vs = np.array([1, 2, 0, 2], dtype=np.int64)
        ts = np.array([0.0, 1.0, 2.0, 11.0])
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, record_replay=True)
        closed = monitor.ingest_columns(us, vs, ts)
        closed.extend(monitor.flush())
        reference = ReptEstimator(CONFIG)
        reference.process_edges([(0, 1), (1, 2), (2, 0)])
        assert closed[0].estimate.global_count == reference.estimate().global_count
        # Raw Python ints reach the estimator, not numpy scalars.
        assert all(type(u) is int for u, _ in closed[0].replay)

    def test_mismatched_columns_rejected(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG)
        with pytest.raises(ValueError, match="equal lengths"):
            monitor.ingest_columns([0, 1], [1], [0.0, 1.0])

    def test_non_finite_timestamps_rejected(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG)
        with pytest.raises(ValueError, match="finite"):
            monitor.ingest([(0, 1, float("nan"))])

    def test_factory_engine_matches_fresh_estimator(self):
        records = _trace(n=900, span=30.0)
        monitor = WindowedTriangleMonitor(
            10.0,
            estimator_factory=lambda s: TriestImprEstimator(budget=50, seed=s),
            seed=77,
            record_replay=True,
        )
        results = _drain(monitor, records)
        for result in results:
            reference = TriestImprEstimator(
                budget=50, seed=derive_seed(77, "monitor-window", result.index)
            )
            reference.process_edges(result.replay)
            assert result.estimate.global_count == reference.estimate().global_count

    def test_exact_factory_matches_offline_truth(self):
        records = _trace(n=900, span=30.0)
        monitor = WindowedTriangleMonitor(
            10.0, estimator_factory=lambda s: ExactStreamingCounter()
        )
        results = _drain(monitor, records)
        offline = TimeWindowedStream(records, 10.0)
        for result, stream in zip(results, offline.window_streams()):
            truth = ExactStreamingCounter()
            truth.process_edges(stream.edges())
            assert result.estimate.global_count == truth.estimate().global_count

    def test_explicit_origin_controls_alignment(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG, origin=100.0)
        monitor.ingest([(0, 1, 105.0)])
        results = monitor.flush()
        assert (results[0].start, results[0].end) == (100.0, 110.0)

    def test_timestamped_record_objects_accepted(self):
        monitor = WindowedTriangleMonitor(10.0, config=CONFIG)
        monitor.ingest([TimestampedRecord(0, 1, 0.5)])
        results = monitor.flush()
        assert results[0].records == 1
