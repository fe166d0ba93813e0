"""Crash-then-resume tests for the windowed-monitor durable driver."""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import ReptConfig
from repro.durability import run_monitor_durable
from repro.exceptions import RecoveryError
from repro.streaming.monitor import WindowedTriangleMonitor
from repro.testing.faults import FaultPlan, FaultSpec, InjectedFault, arm
from repro.utils.rng import as_random_source

CONFIG = ReptConfig(m=4, c=6, seed=11, track_local=True)


def _records(n=2000, nodes=25, span=60.0, seed=9):
    """Timestamped ``(u, v, time)`` records with duplicates and self-loops."""
    rng = as_random_source(seed)
    records, time = [], 0.0
    for _ in range(n):
        time += float(rng.random()) * (span / n) * 2.0
        records.append((int(rng.integers(0, nodes)), int(rng.integers(0, nodes)), time))
    return records


RECORDS = _records()


def _make_monitor():
    return WindowedTriangleMonitor(
        12.0, slide_seconds=6.0, pane_seconds=3.0, config=CONFIG
    )


def _rows(results):
    """Comparable view of window results (full estimate, not a summary)."""
    return [
        (
            r.index,
            r.start,
            r.end,
            r.records,
            r.complete,
            r.estimate.global_count,
            r.estimate.local_counts,
            r.estimate.edges_processed,
            r.estimate.edges_stored,
        )
        for r in results
    ]


def _reference_rows():
    monitor = _make_monitor()
    results = monitor.ingest(RECORDS)
    results.extend(monitor.flush())
    return _rows(results)


def _kill_plan(kill_segment):
    return FaultPlan(
        faults=(FaultSpec(site="monitor-segment", skip=kill_segment),)
    )


class TestMonitorDurable:
    def test_uninterrupted_matches_one_shot(self, tmp_path):
        results, report = run_monitor_durable(
            _make_monitor, RECORDS, tmp_path, checkpoint_every=400
        )
        assert report.checkpoint is None
        assert _rows(results) == _reference_rows()

    @pytest.mark.parametrize("kill_segment", [1, 3])
    def test_killed_then_resumed_matches_one_shot(self, tmp_path, kill_segment):
        with arm(_kill_plan(kill_segment)):
            with pytest.raises(InjectedFault):
                run_monitor_durable(
                    _make_monitor, RECORDS, tmp_path, checkpoint_every=400
                )
        results, report = run_monitor_durable(
            _make_monitor, RECORDS, tmp_path, checkpoint_every=400
        )
        assert report.checkpoint is not None
        assert report.checkpoint.stream_offset == kill_segment * 400
        assert _rows(results) == _reference_rows()

    def test_pre_crash_windows_come_from_the_checkpoint(self, tmp_path):
        """Windows sealed before the crash are returned without re-sealing."""
        with arm(_kill_plan(4)):
            with pytest.raises(InjectedFault):
                run_monitor_durable(
                    _make_monitor, RECORDS, tmp_path, checkpoint_every=400
                )
        # resume over a source whose pre-checkpoint records are vandalised:
        # replay must skip them by offset, never re-ingest them
        vandalised = [(0, 0, 0.0)] * 1600 + RECORDS[1600:]
        results, report = run_monitor_durable(
            _make_monitor, vandalised, tmp_path, checkpoint_every=400
        )
        assert report.checkpoint.stream_offset == 1600
        assert _rows(results) == _reference_rows()

    def test_no_flush_omits_open_windows(self, tmp_path):
        results, _ = run_monitor_durable(
            _make_monitor, RECORDS, tmp_path, checkpoint_every=400, flush=False
        )
        flushed = _reference_rows()
        assert _rows(results) == flushed[: len(results)]
        assert len(results) < len(flushed)

    def test_wrong_monitor_class_is_rejected(self, tmp_path):
        run_monitor_durable(
            _make_monitor, RECORDS[:400], tmp_path, checkpoint_every=200
        )
        class OtherMonitor(WindowedTriangleMonitor):
            pass
        with pytest.raises(RecoveryError, match="incompatible"):
            run_monitor_durable(
                lambda: OtherMonitor(
                    12.0, slide_seconds=6.0, pane_seconds=3.0, config=CONFIG
                ),
                RECORDS,
                tmp_path,
                checkpoint_every=200,
            )

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_monitor_durable(_make_monitor, RECORDS, tmp_path, checkpoint_every=0)


def _age_to_older_format(monitor):
    """Rewrite a monitor's window state in the layout older checkpoints hold.

    Older versions gave every array-backed group a ``(slot, u, v) -> eid``
    dict with its sync mark.  The chain layouts of older monitors (a live
    state set, an accumulator and a ring of pane deltas per window) are
    pinned by the checkpoints under ``tests/fixtures/``.
    """
    for chain in monitor._chains.values():
        for group in chain.state.groups:
            arrays = getattr(group, "_arrays", None)
            if arrays is not None:
                rows = zip(*arrays.edge_rows(0).tolist())
                arrays._pair_eids = {key: e for e, key in enumerate(rows)}
                arrays._pair_sync = arrays.n_edges


class TestOlderCheckpoints:
    @pytest.mark.parametrize("cut", [700, 1300])
    def test_older_group_arrays_resume_exactly(self, cut):
        reference = _make_monitor()
        expected = reference.ingest(RECORDS)
        expected.extend(reference.flush())

        monitor = _make_monitor()
        results = monitor.ingest(RECORDS[:cut])
        assert monitor._chains
        _age_to_older_format(monitor)
        resumed = pickle.loads(pickle.dumps(monitor, protocol=pickle.HIGHEST_PROTOCOL))
        for chain in resumed._chains.values():
            for group in chain.state.groups:
                assert not hasattr(getattr(group, "_arrays", None), "_pair_eids")
        results.extend(resumed.ingest(RECORDS[cut:]))
        results.extend(resumed.flush())
        assert _rows(results) == _rows(expected)
