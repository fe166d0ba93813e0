"""Durable drivers: checkpointed, resumable runs of the estimation engines.

Each driver runs its engine over a stream in fixed-size segments, writing a
:class:`~repro.durability.checkpoint.CheckpointManager` checkpoint after
every segment, and on startup recovers the newest valid checkpoint and
replays the stream from its recorded offset.  All three are **bit-identical
resumable**: a run killed at any point and resumed from its checkpoint
directory produces exactly the estimates of the uninterrupted run —

* :func:`run_rept_durable` checkpoints the
  :class:`~repro.core.state.GroupStateSet` through its portable state
  (:mod:`repro.core.portable`; checkpoints in the dict form of earlier
  versions still resume) and advances each segment with
  :meth:`~repro.core.state.GroupStateSet.ingest_stream`, the serial
  driver's ingest call, so neither segment boundaries nor the crash point
  show up in the counters;
* :func:`run_estimator_durable` checkpoints any picklable
  :class:`~repro.baselines.base.StreamingTriangleEstimator` whole — the
  pickle captures its RNG state (TRIÈST's reservoir coin-flips resume
  mid-sequence) and its sampled sets;
* :func:`run_monitor_durable` checkpoints a
  :class:`~repro.streaming.monitor.WindowedTriangleMonitor` whole, plus the
  window results already emitted, so the returned result list is complete
  even though pre-crash windows are not re-sealed on replay.

The drivers only require the *source* to be re-iterable from the start
(replay skips ``stream_offset`` records); they never require the crashed
process's memory.  Checkpoint compatibility is guarded through the header
``meta``: recovery rejects (with
:class:`~repro.exceptions.RecoveryError`) a checkpoint whose recorded
engine configuration differs from the caller's — resuming REPT with a
different ``(m, c)`` would silently corrupt counters otherwise.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, Iterable, List

from repro.core.config import ReptConfig
from repro.core.state import GroupStateSet
from repro.durability.checkpoint import CheckpointManager, RecoveryReport
from repro.exceptions import RecoveryError
from repro.testing.faults import maybe_fail

#: Default stream records per segment (and thus per checkpoint).
DEFAULT_CHECKPOINT_EVERY = 100_000


def _segments(source, offset: int, segment_records: int):
    """Yield ``(next_offset, records)`` segments of ``source`` after ``offset``.

    ``source`` is re-iterated from the start; lists and tuples skip by
    slicing, everything else through :func:`itertools.islice`.
    """
    if isinstance(source, (list, tuple)):
        iterator = iter(source[offset:])
    else:
        iterator = islice(iter(source), offset, None)
    position = offset
    while True:
        segment = list(islice(iterator, segment_records))
        if not segment:
            return
        position += len(segment)
        yield position, segment


def _check_meta(report: RecoveryReport, expected: Dict[str, object]):
    """Validate a recovered checkpoint's meta; return the checkpoint or None."""
    if report.checkpoint is None:
        return None
    meta = report.checkpoint.meta
    for key, value in expected.items():
        if meta.get(key) != value:
            raise RecoveryError(
                f"checkpoint {report.checkpoint.path.name} is from an "
                f"incompatible run: meta[{key!r}] = {meta.get(key)!r}, "
                f"this run expects {value!r}"
            )
    return report.checkpoint


def run_rept_durable(
    edges: Iterable,
    config: ReptConfig,
    checkpoint_dir,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    keep: int = 3,
    resume: bool = True,
):
    """Run REPT durably over ``edges``; returns ``(estimate, report)``.

    The stream is consumed in segments of ``checkpoint_every`` records;
    after each segment the group states (portable snapshot), the stream
    offset, and the run configuration are checkpointed under
    ``checkpoint_dir``.  With ``resume=True`` (the default) an existing
    valid checkpoint is restored first and the stream replayed from its
    offset — the returned estimate is bit-identical to an uninterrupted
    run with the same parameters.

    ``edges`` must be re-iterable from the start on resume (a list, or a
    reader that restarts); generators consumed by the crashed process
    cannot be replayed.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    manager = CheckpointManager(checkpoint_dir, keep=keep)
    expected_meta = {"engine": "rept", "config": repr(config)}
    state = GroupStateSet(config)
    offset = 0
    report = RecoveryReport()
    if resume:
        report = manager.recover()
        checkpoint = _check_meta(report, expected_meta)
        if checkpoint is not None:
            state.restore_portable(checkpoint.payload)
            offset = checkpoint.stream_offset

    for position, segment in _segments(edges, offset, checkpoint_every):
        maybe_fail("rept-segment", offset=offset)
        state.ingest_stream(segment)
        manager.save(state.portable_state(), position, meta=expected_meta)
        offset = position

    return state.estimate(edges_processed=offset), report


def run_estimator_durable(
    factory: Callable[[], object],
    edges: Iterable,
    checkpoint_dir,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    keep: int = 3,
    resume: bool = True,
):
    """Run any picklable streaming estimator durably; returns
    ``(estimator, report)``.

    ``factory`` builds the fresh estimator when no checkpoint exists (or
    ``resume=False``); on resume the checkpointed estimator object itself
    is restored — pickling captures sampled edge sets and RNG state, so
    randomised estimators (TRIÈST) continue their coin-flip sequence
    exactly where the crashed run left it.  The estimator's class name is
    recorded in the checkpoint meta and checked on resume.

    The caller takes the final estimate from the returned estimator
    (``estimator.estimate()``), keeping this driver agnostic to the
    estimator interface beyond ``process_edges``/``process_edge``.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    manager = CheckpointManager(checkpoint_dir, keep=keep)
    estimator = factory()
    expected_meta = {"engine": "estimator", "class": type(estimator).__name__}
    offset = 0
    report = RecoveryReport()
    if resume:
        report = manager.recover()
        checkpoint = _check_meta(report, expected_meta)
        if checkpoint is not None:
            estimator = checkpoint.payload
            offset = checkpoint.stream_offset

    for position, segment in _segments(edges, offset, checkpoint_every):
        maybe_fail("estimator-segment", offset=offset)
        ingest = getattr(estimator, "process_edges", None)
        if ingest is not None:
            ingest(segment)
        else:
            for u, v in segment:
                estimator.process_edge(u, v)
        manager.save(estimator, position, meta=expected_meta)
        offset = position

    return estimator, report


def run_monitor_durable(
    factory: Callable[[], object],
    records: Iterable,
    checkpoint_dir,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    keep: int = 3,
    resume: bool = True,
    flush: bool = True,
):
    """Run a windowed monitor durably; returns ``(results, report)``.

    ``factory`` builds the fresh
    :class:`~repro.streaming.monitor.WindowedTriangleMonitor` (it must be
    picklable: REPT chains always are; custom ``estimator_factory``
    callables must be module-level, not lambdas).  Each checkpoint carries
    the monitor *and* every window result sealed so far, so the returned
    ``results`` list is complete across crashes: windows sealed before the
    last checkpoint come from the checkpoint, later ones from replay —
    and because the monitor's open windows' state sets and its watermark
    round-trip exactly through pickle, the combined list is bit-identical
    to the uninterrupted run's.  Checkpoints whose windows still carry
    the pane-delta rings of earlier versions resume bit-identically too.

    ``flush=True`` drains still-open windows once the stream ends (same
    contract as :meth:`WindowedTriangleMonitor.flush`).
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    manager = CheckpointManager(checkpoint_dir, keep=keep)
    monitor = factory()
    expected_meta = {"engine": "monitor", "class": type(monitor).__name__}
    results: List[object] = []
    offset = 0
    report = RecoveryReport()
    if resume:
        report = manager.recover()
        checkpoint = _check_meta(report, expected_meta)
        if checkpoint is not None:
            monitor = checkpoint.payload["monitor"]
            results = list(checkpoint.payload["results"])
            offset = checkpoint.stream_offset

    for position, segment in _segments(records, offset, checkpoint_every):
        maybe_fail("monitor-segment", offset=offset)
        results.extend(monitor.ingest(segment))
        manager.save(
            {"monitor": monitor, "results": results}, position, meta=expected_meta
        )
        offset = position

    if flush:
        results.extend(monitor.flush())
    return results, report
