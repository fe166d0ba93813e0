"""Property-based tests: monitor windows ≡ from-scratch re-ingestion.

The monitor's contract (see :mod:`repro.streaming.monitor`) is that every
emitted window's estimate is **bit-identical** to building a fresh
estimator and feeding it the window's records in the order the window
ingested them — merge-based advance is an execution strategy, never an
approximation.  Hypothesis drives duplicate-heavy timestamped streams
(small node universe, explicit self-loops) delivered out of order within a
bounded delay, through tumbling and sliding windows at several pane
granularities, for the merge-based REPT engine (complete groups, partial
group with η, and c < m) and for the factory engines (exact, TRIÈST).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import ExactStreamingCounter
from repro.baselines.triest import TriestImprEstimator
from repro.core import ReptConfig, ReptEstimator
from repro.streaming.monitor import WindowedTriangleMonitor
from repro.utils.rng import derive_seed

SEED = 20260731

node_ids = st.integers(min_value=0, max_value=10)
# (u, v, coarse time, delivery delay): duplicates and self-loops are
# frequent on an 11-node universe; times land in [0, 36); delays up to 3s
# create bounded out-of-order delivery (timestamps keep their value — the
# *list order* is by delivery).
raw_records = st.lists(
    st.tuples(
        node_ids,
        node_ids,
        st.integers(min_value=0, max_value=119),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=0,
    max_size=140,
)
# (window, slide, pane) in seconds — tumbling, sliding and fine panes.
window_shapes = st.sampled_from(
    [(12.0, 12.0, 12.0), (12.0, 12.0, 3.0), (12.0, 4.0, 4.0), (16.0, 4.0, 2.0)]
)

REPT_CONFIGS = {
    "alg1-partial": ReptConfig(m=4, c=3, seed=SEED),
    "alg2-eta": ReptConfig(m=3, c=8, seed=SEED),  # partial group: η tracked
    "alg2-complete": ReptConfig(m=4, c=8, seed=SEED, track_local=False),
}


def _deliveries(raw):
    """Turn the raw tuples into (u, v, t) in bounded out-of-order delivery."""
    stamped = [
        (u, v, tenth / 10.0 * 3.0, tenth / 10.0 * 3.0 + delay / 10.0)
        for u, v, tenth, delay in raw
    ]
    stamped.sort(key=lambda r: r[3])  # delivery order, not timestamp order
    return [(u, v, t) for u, v, t, _ in stamped]


def _run(monitor, records):
    closed = []
    for start in range(0, len(records), 23):
        closed.extend(monitor.ingest(records[start : start + 23]))
    closed.extend(monitor.flush())
    return closed


@pytest.mark.parametrize("config_name", sorted(REPT_CONFIGS))
@given(raw=raw_records, shape=window_shapes)
@settings(max_examples=25, deadline=None)
def test_rept_windows_bit_identical_to_reingestion(config_name, raw, shape):
    config = REPT_CONFIGS[config_name]
    window, slide, pane = shape
    monitor = WindowedTriangleMonitor(
        window,
        slide_seconds=slide,
        pane_seconds=pane,
        config=config,
        allowed_lateness=3.0,
        record_replay=True,
    )
    results = _run(monitor, _deliveries(raw))
    for result in results:
        reference = ReptEstimator(config)
        reference.process_edges(result.replay)
        expected = reference.estimate()
        assert result.estimate.global_count == expected.global_count
        assert result.estimate.local_counts == expected.local_counts
        assert result.estimate.edges_stored == expected.edges_stored
        assert result.estimate.edges_processed == expected.edges_processed
        assert result.estimate.metadata.get("eta_hat") == expected.metadata.get(
            "eta_hat"
        )


@given(raw=raw_records, shape=window_shapes)
@settings(max_examples=20, deadline=None)
def test_factory_windows_bit_identical_to_reingestion(raw, shape):
    window, slide, pane = shape
    factories = {
        "exact": lambda s: ExactStreamingCounter(),
        "triest": lambda s: TriestImprEstimator(budget=16, seed=s),
    }
    for name, factory in factories.items():
        monitor = WindowedTriangleMonitor(
            window,
            slide_seconds=slide,
            pane_seconds=pane,
            estimator_factory=factory,
            seed=SEED,
            allowed_lateness=3.0,
            record_replay=True,
        )
        results = _run(monitor, _deliveries(raw))
        for result in results:
            reference = factory(derive_seed(SEED, "monitor-window", result.index))
            reference.process_edges(result.replay)
            expected = reference.estimate()
            assert result.estimate.global_count == expected.global_count, name
            assert result.estimate.local_counts == expected.local_counts, name
            assert result.estimate.edges_stored == expected.edges_stored, name


@given(raw=raw_records)
@settings(max_examples=15, deadline=None)
def test_zero_lateness_drops_are_counted_never_smuggled(raw):
    """With allowed_lateness=0 some deliveries are late; they must be
    counted as dropped and the admitted records must still reproduce the
    re-ingestion estimate exactly."""
    config = REPT_CONFIGS["alg2-eta"]
    monitor = WindowedTriangleMonitor(
        12.0, config=config, allowed_lateness=0.0, record_replay=True
    )
    records = _deliveries(raw)
    results = _run(monitor, records)
    admitted = sum(result.records for result in results)
    assert admitted + monitor.late_records == len(records)
    for result in results:
        reference = ReptEstimator(config)
        reference.process_edges(result.replay)
        assert result.estimate.global_count == reference.estimate().global_count
