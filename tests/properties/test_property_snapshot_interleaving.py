"""Property: read-path calls interleaved with ingestion never perturb state.

The service serves queries (estimates) and checkpoints (snapshots /
portable state) between ingest frames of a live estimator.  The contract
this file pins down: interleaving those *read* operations with batched
ingestion must leave every subsequent result bit-identical to a run that
never queried — and every mid-stream estimate must equal the estimate of
a fresh estimator fed exactly that stream prefix.

Hypothesis drives random streams (duplicates and self-loops included)
chopped into random frame sizes, reading after every frame, against REPT
(``GroupStateSet`` — the service's REPT engine substrate), the exact
counter and TRIÈST-IMPR.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import ExactStreamingCounter
from repro.baselines.triest import TriestImprEstimator
from repro.core import ReptConfig
from repro.core.state import GroupStateSet
from tests.conftest import raw_snapshot

node_ids = st.integers(min_value=0, max_value=10)
streams = st.lists(st.tuples(node_ids, node_ids), min_size=0, max_size=80)
frame_sizes = st.integers(min_value=1, max_value=17)

SEED = 20260808

CONFIG_KWARGS = dict(m=3, c=7, seed=SEED)  # partial group + η tracking


def _frames(stream, frame_size):
    return [stream[i : i + frame_size] for i in range(0, len(stream), frame_size)]


def _estimate_key(estimate):
    """Full comparable identity of a TriangleEstimate (bit-level)."""
    return (
        estimate.global_count,
        sorted(estimate.local_counts.items()),
        estimate.edges_processed,
        estimate.edges_stored,
        sorted(estimate.metadata.items()),
    )


class TestReptStateSet:
    @given(stream=streams, frame_size=frame_sizes)
    @settings(max_examples=40, deadline=None)
    def test_snapshot_and_estimate_between_frames_change_nothing(
        self, stream, frame_size
    ):
        probed = GroupStateSet(ReptConfig(**CONFIG_KWARGS))
        silent = GroupStateSet(ReptConfig(**CONFIG_KWARGS))
        probed_n = silent_n = 0
        for frame in _frames(stream, frame_size):
            probed_n += probed.process_edges(frame)
            silent_n += silent.process_edges(frame)
            # Read path after every frame: snapshot, portable state, estimate.
            probed.snapshot()
            probed.portable_state()
            probed.estimate(probed_n)
        assert probed_n == silent_n
        assert _estimate_key(probed.estimate(probed_n)) == _estimate_key(
            silent.estimate(silent_n)
        )
        assert [raw_snapshot(p) for p in probed.snapshot()] == [
            raw_snapshot(p) for p in silent.snapshot()
        ]

    @given(stream=streams, frame_size=frame_sizes)
    @settings(max_examples=40, deadline=None)
    def test_mid_stream_estimates_equal_serial_prefix_runs(self, stream, frame_size):
        live = GroupStateSet(ReptConfig(**CONFIG_KWARGS))
        delivered = 0
        consumed = 0
        for frame in _frames(stream, frame_size):
            delivered += live.process_edges(frame)
            consumed += len(frame)
            fresh = GroupStateSet(ReptConfig(**CONFIG_KWARGS))
            for u, v in stream[:consumed]:  # strictly per-edge serial
                fresh.process_edge(u, v)
            # process_edges counts every record (self-loops included), so
            # the delivered count equals the records consumed so far.
            assert delivered == consumed
            assert _estimate_key(live.estimate(delivered)) == _estimate_key(
                fresh.estimate(consumed)
            )

    @given(stream=streams, frame_size=frame_sizes)
    @settings(max_examples=40, deadline=None)
    def test_portable_round_trip_mid_stream_continues_identically(
        self, stream, frame_size
    ):
        """Checkpoint/restore between frames, then finish: bit-identical."""
        frames = _frames(stream, frame_size)
        half = len(frames) // 2

        straight = GroupStateSet(ReptConfig(**CONFIG_KWARGS))
        straight_n = 0
        for frame in frames:
            straight_n += straight.process_edges(frame)

        hopped = GroupStateSet(ReptConfig(**CONFIG_KWARGS))
        hopped_n = 0
        for frame in frames[:half]:
            hopped_n += hopped.process_edges(frame)
        resumed = GroupStateSet(ReptConfig(**CONFIG_KWARGS))
        resumed.restore_portable(hopped.portable_state())
        for frame in frames[half:]:
            hopped_n += resumed.process_edges(frame)

        assert _estimate_key(resumed.estimate(hopped_n)) == _estimate_key(
            straight.estimate(straight_n)
        )


class TestBaselineEstimators:
    @given(stream=streams, frame_size=frame_sizes)
    @settings(max_examples=40, deadline=None)
    def test_exact_counter_estimates_between_batches_change_nothing(
        self, stream, frame_size
    ):
        probed = ExactStreamingCounter()
        serial = ExactStreamingCounter()
        for frame in _frames(stream, frame_size):
            probed.process_edges(frame)
            probed.estimate()  # read between frames
            for u, v in frame:
                serial.process_edge(u, v)
            # Mid-stream agreement with the serial prefix run.
            assert _estimate_key(probed.estimate()) == _estimate_key(
                serial.estimate()
            )

    @given(stream=streams, frame_size=frame_sizes)
    @settings(max_examples=40, deadline=None)
    def test_triest_estimates_between_batches_change_nothing(
        self, stream, frame_size
    ):
        probed = TriestImprEstimator(12, seed=SEED)
        serial = TriestImprEstimator(12, seed=SEED)
        for frame in _frames(stream, frame_size):
            probed.process_edges(frame)
            probed.estimate()  # read between frames must not touch the RNG
            for u, v in frame:
                serial.process_edge(u, v)
            assert _estimate_key(probed.estimate()) == _estimate_key(
                serial.estimate()
            )
