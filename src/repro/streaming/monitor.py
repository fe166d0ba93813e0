"""Sliding-window triangle monitoring: one REPT state set per open window.

The paper's headline deployment is interval-based traffic monitoring: a
router observes a packet stream and wants global/local triangle counts
*per time interval*.  :class:`~repro.streaming.windows.TimeWindowedStream`
serves that workload offline by slicing a materialised trace;
:class:`WindowedTriangleMonitor` serves it online: timestamped records are
ingested once, windows (tumbling or sliding) are assembled from fixed-width
**panes**, and advancing a window never re-ingests a record.

Architecture
------------
Time is divided into half-open panes of ``pane_seconds`` aligned at the
monitor's origin.  Window ``w`` covers the ``K = window/pane`` panes
starting at pane ``w · s`` (``s = slide/pane``); tumbling windows are the
``s = K`` special case.  Panes are the routing and sealing grid: each
arriving batch is split into pane buckets, each bucket goes to every open
window covering its pane, and a window closes once the watermark seals its
last pane.

Each REPT window in flight is one :class:`~repro.core.state.GroupStateSet`
that ingests exactly the window's records, so it runs the paper's
Algorithms 1–2 over them and is estimated, as it stands, when the window
closes.  Because every window of one monitor shares the configuration's
hash seeds and one interning table, each pane bucket is canonicalised,
interned and keyed **once** (:meth:`~repro.core.state.GroupStateSet.encode`,
the compiled pass for all-int batches on the C kernel) and every open
window consumes the same :class:`~repro.core.state.EncodedBatch`.  Each
window's groups keep the window's stored edges, so they decide first
occurrence within the window themselves — the per-record cost of window
overlap is only each window's record step, not the full pipeline.
Closing a window estimates its state set and drops it in O(1).

Estimates are **bit-identical** to re-ingesting each emitted window's
records from scratch with :class:`~repro.core.rept.ReptEstimator` (the
monitor property tests assert exact equality).  Non-mergeable estimators
(the exact counter, TRIÈST, …) plug in through ``estimator_factory``: each
window then owns one incrementally-fed estimator — still no re-ingestion
on advance, at the cost of one estimator instance per open window.

Out-of-order input is handled with a watermark: records may arrive up to
``allowed_lateness`` seconds behind the maximum timestamp seen.  A pane is
*sealed* once the watermark passes its right edge (sealing the last pane of
a window emits that window's result); records for sealed panes follow
``late_policy`` — dropped-and-counted by default, never silently lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import StreamingTriangleEstimator, TriangleEstimate
from repro.core.config import ReptConfig
from repro.exceptions import ConfigurationError
from repro.core.state import EncodedBatch, GroupStateSet
from repro.streaming.windows import TimestampedRecord
from repro.types import EdgeTuple, NodeId
from repro.utils.rng import derive_seed

#: Accepted policies for records older than the watermark allows.
LATE_POLICIES = ("drop", "raise")

#: Builds a fresh estimator for one window; receives a per-window seed.
EstimatorFactory = Callable[[int], StreamingTriangleEstimator]


class PaneDelta:
    """What a pane delta pickled by an earlier version unpickles into.

    Windows and results of earlier versions kept rings of per-pane
    counter deltas; loading one of their pickles drops every ring, so an
    instance holds nothing.
    """

    __slots__ = ()

    def __setstate__(self, state) -> None:
        pass


@dataclass(frozen=True)
class MonitorWindowResult:
    """Per-interval output of the monitor.

    ``complete`` is False only for windows emitted by :meth:`flush` whose
    span had not been fully observed when the stream ended.  ``replay``
    (audit mode) carries the window's records in the exact order the
    window ingested them — re-running any estimator over it reproduces
    ``estimate`` bit for bit.
    """

    index: int
    start: float
    end: float
    records: int
    estimate: TriangleEstimate
    complete: bool = True
    replay: Optional[List[EdgeTuple]] = None

    def __setstate__(self, state) -> None:
        # Results of earlier versions kept their window's pane-delta ring.
        state.pop("pane_deltas", None)
        self.__dict__.update(state)


def _rept_estimate(state: GroupStateSet, records: int) -> TriangleEstimate:
    estimate = state.estimate(records)
    estimate.metadata["algorithm"] = 2.0 if state.config.uses_groups else 1.0
    return estimate


class _MergeableReptChain:
    """One in-flight window of the REPT engine: one state set over its records."""

    __slots__ = ("state", "records", "replay")

    def __init__(self, state: GroupStateSet, record_replay: bool) -> None:
        self.state = state
        self.records = 0
        self.replay: Optional[List[EdgeTuple]] = [] if record_replay else None

    def ingest(self, batch: EncodedBatch, raw_edges: Sequence[EdgeTuple]) -> None:
        """Advance the window over one shared encoded pane bucket."""
        self.state.ingest_encoded(batch)
        self.records += batch.n_records
        if self.replay is not None:
            self.replay.extend(raw_edges)

    def __setstate__(self, state) -> None:
        _, slots = state
        if "acc" in slots:
            # Windows of earlier versions split their counters at every pane
            # boundary between a live state set and an accumulator, beside a
            # ring of pane deltas.  The live set's counters are the pending
            # pane's: fold them in, and the accumulator stands for the window.
            acc = slots["acc"]
            for group, live in zip(acc.groups, slots["live"].groups):
                group.merge_deltas(live.columns())
            slots = {"state": acc, "records": slots["records"], "replay": slots["replay"]}
        for name, value in slots.items():
            setattr(self, name, value)

    def finalize(self) -> Tuple[int, TriangleEstimate]:
        return self.records, _rept_estimate(self.state, self.records)


class _EstimatorChain:
    """One in-flight window fed to a factory-built streaming estimator."""

    __slots__ = ("estimator", "replay")

    def __init__(self, factory: EstimatorFactory, seed: int, record_replay: bool) -> None:
        self.estimator = factory(seed)
        self.replay: Optional[List[EdgeTuple]] = [] if record_replay else None

    def ingest(self, edges: Sequence[EdgeTuple]) -> None:
        self.estimator.process_edges(edges)
        if self.replay is not None:
            self.replay.extend(edges)

    def finalize(self) -> Tuple[int, TriangleEstimate]:
        return self.estimator.edges_processed, self.estimator.estimate()


class WindowedTriangleMonitor:
    """Serve per-interval triangle estimates over a timestamped stream.

    Parameters
    ----------
    window_seconds:
        Width of each reported window.
    slide_seconds:
        Stride between window starts (default: ``window_seconds`` —
        tumbling).  Must not exceed the window width and must be an integer
        multiple of the pane width.
    pane_seconds:
        Pane granularity (default: ``slide_seconds``).  Must evenly divide
        both the window and the slide.
    config:
        REPT parameters — selects the REPT engine (shared encoding, one
        state set per open window).  Mutually exclusive with
        ``estimator_factory``.
    estimator_factory:
        ``(seed) -> estimator`` building a fresh
        :class:`~repro.baselines.base.StreamingTriangleEstimator` per
        window (exact counter, TRIÈST, …).  Windows are fed incrementally —
        no re-ingestion — but overlapping windows each own an instance.
    seed:
        Master seed; window ``w`` derives ``derive_seed(seed,
        "monitor-window", w)`` for its factory estimator.
    origin:
        Left edge of pane 0.  Default: the first ingested batch's minimum
        timestamp minus ``allowed_lateness``, so every record the
        watermark admits maps to a non-negative pane — bounded
        out-of-order delivery is never dropped as pre-origin.  With an
        explicit origin, records before it are governed by
        ``late_policy`` like any sealed-pane record.
    allowed_lateness:
        How far (seconds) a record may lag the maximum timestamp seen
        before its pane is sealed.  0 (default) expects in-order panes.
    late_policy:
        ``"drop"`` (default) discards records for sealed panes and counts
        them in :attr:`late_records`; ``"raise"`` fails loudly.
    record_replay:
        Audit mode: every result carries the window's records in exact
        ingestion order (memory O(window) — testing and debugging).

    All interval bounds are half-open ``[start, end)``, matching
    :class:`~repro.streaming.windows.TimeWindowedStream`.
    """

    __slots__ = (
        "window_seconds",
        "slide_seconds",
        "pane_seconds",
        "_window_panes",
        "_slide_panes",
        "config",
        "estimator_factory",
        "seed",
        "allowed_lateness",
        "late_policy",
        "record_replay",
        "results",
        "late_records",
        "_origin",
        "_watermark",
        "_sealed_before",
        "_next_close_index",
        "_max_pane_seen",
        "_chains",
        "_template",
        "_hash_functions",
        "__weakref__",
    )

    def __init__(
        self,
        window_seconds: float,
        slide_seconds: Optional[float] = None,
        pane_seconds: Optional[float] = None,
        config: Optional[ReptConfig] = None,
        estimator_factory: Optional[EstimatorFactory] = None,
        seed: int = 0,
        origin: Optional[float] = None,
        allowed_lateness: float = 0.0,
        late_policy: str = "drop",
        record_replay: bool = False,
    ) -> None:
        if window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        if slide_seconds is None:
            slide_seconds = window_seconds
        if slide_seconds <= 0 or slide_seconds > window_seconds:
            raise ConfigurationError(
                "slide_seconds must be in (0, window_seconds] "
                f"(got slide={slide_seconds}, window={window_seconds})"
            )
        if pane_seconds is None:
            pane_seconds = slide_seconds
        if pane_seconds <= 0:
            raise ConfigurationError("pane_seconds must be positive")
        self.window_seconds = float(window_seconds)
        self.slide_seconds = float(slide_seconds)
        self.pane_seconds = float(pane_seconds)
        self._window_panes = self._exact_multiple(
            window_seconds, pane_seconds, "window_seconds", "pane_seconds"
        )
        self._slide_panes = self._exact_multiple(
            slide_seconds, pane_seconds, "slide_seconds", "pane_seconds"
        )
        if (config is None) == (estimator_factory is None):
            raise ConfigurationError(
                "exactly one of config (REPT engine) or "
                "estimator_factory must be given"
            )
        if late_policy not in LATE_POLICIES:
            raise ConfigurationError(
                f"late_policy must be one of {LATE_POLICIES}, got {late_policy!r}"
            )
        if allowed_lateness < 0 or not math.isfinite(allowed_lateness):
            raise ConfigurationError("allowed_lateness must be finite and >= 0")
        self.config = config
        self.estimator_factory = estimator_factory
        self.seed = seed
        self.allowed_lateness = float(allowed_lateness)
        self.late_policy = late_policy
        self.record_replay = record_replay

        #: Results of every closed window, in window order.
        self.results: List[MonitorWindowResult] = []
        #: Records discarded by the ``"drop"`` late policy.
        self.late_records = 0

        self._origin: Optional[float] = None if origin is None else float(origin)
        self._watermark = float("-inf")
        self._sealed_before = 0  # first pane index not yet sealed
        self._next_close_index = 0  # windows close strictly in index order
        self._max_pane_seen = -1
        self._chains: Dict[int, object] = {}
        if config is not None:
            # Template state: owns the interning table and the (possibly
            # table-backed) hash functions every chain of this monitor
            # shares; its counters never advance.
            self._template = GroupStateSet(config)
            self._hash_functions = [
                group.hash_function for group in self._template.groups
            ]
        else:
            self._template = None
            self._hash_functions = None

    def __setstate__(self, state) -> None:
        # Monitors of earlier versions pickled a __dict__ that also held a
        # shared index of the panes each edge had arrived in; the windows'
        # groups decide first occurrence now, so only the declared
        # attributes are restored.
        if isinstance(state, tuple):
            state = state[1]
        for name, value in state.items():
            if name in WindowedTriangleMonitor.__slots__:
                setattr(self, name, value)

    @staticmethod
    def _exact_multiple(total: float, unit: float, total_name: str, unit_name: str) -> int:
        ratio = float(total) / float(unit)
        count = int(round(ratio))
        if count < 1 or abs(ratio - count) > 1e-9:
            raise ConfigurationError(
                f"{unit_name} ({unit}) must evenly divide {total_name} ({total})"
            )
        return count

    # -- ingestion -------------------------------------------------------------

    def ingest(self, records: Iterable) -> List[MonitorWindowResult]:
        """Consume timestamped records; returns windows closed by this call.

        ``records`` is an iterable of :class:`TimestampedRecord` or
        ``(u, v, time)`` tuples; see :meth:`ingest_columns` for the
        columnar fast path.
        """
        us: List[NodeId] = []
        vs: List[NodeId] = []
        ts: List[float] = []
        for record in records:
            if isinstance(record, TimestampedRecord):
                us.append(record.u)
                vs.append(record.v)
                ts.append(record.time)
            else:
                u, v, time = record
                us.append(u)
                vs.append(v)
                ts.append(float(time))
        return self.ingest_columns(us, vs, ts)

    def ingest_columns(
        self, us: Sequence[NodeId], vs: Sequence[NodeId], ts: Sequence[float]
    ) -> List[MonitorWindowResult]:
        """Columnar ingestion: parallel endpoint/timestamp sequences.

        Pane routing runs vectorially over the timestamp column; records
        are then delivered to the open windows pane-bucket by pane-bucket
        (stable order within a bucket).

        A NaN node id is one node per NaN object, as in any dict, but an
        array holds no object identity: a float endpoint array that holds
        NaN raises ``ValueError`` before anything changes.
        """
        times = np.asarray(ts, dtype=np.float64)
        if times.size == 0:
            return []
        if not np.isfinite(times).all():
            raise ValueError("timestamps must be finite")
        for column in (us, vs):
            if (
                isinstance(column, np.ndarray)
                and np.issubdtype(column.dtype, np.floating)
                and np.isnan(column).any()
            ):
                raise ValueError("a float endpoint array holds NaN, which names no one node")
        if isinstance(us, np.ndarray):
            us = us.tolist()  # interner and hash layers key on exact types
        if isinstance(vs, np.ndarray):
            vs = vs.tolist()
        if len(us) != times.size or len(vs) != times.size:
            raise ValueError("us, vs and ts must have equal lengths")
        if self._origin is None:
            # Back the derived origin off by the lateness allowance: any
            # record the watermark still admits then maps to pane >= 0, so
            # bounded out-of-order delivery is never dropped as pre-origin.
            self._origin = float(times.min()) - self.allowed_lateness

        pane_index = np.floor_divide(times - self._origin, self.pane_seconds).astype(
            np.int64
        )
        order = np.argsort(pane_index, kind="stable")
        sorted_panes = pane_index[order]
        run_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_panes)) + 1)
        )
        run_ends = np.concatenate((run_starts[1:], [sorted_panes.size]))
        for start, stop in zip(run_starts, run_ends):
            pane = int(sorted_panes[start])
            indices = order[start:stop]
            if pane < self._sealed_before:
                if self.late_policy == "raise":
                    raise ValueError(
                        f"{stop - start} record(s) arrived for sealed pane {pane} "
                        f"(sealed before {self._sealed_before}; "
                        f"allowed_lateness={self.allowed_lateness})"
                    )
                self.late_records += stop - start
                continue
            edges = [(us[i], vs[i]) for i in indices]
            self._route(pane, edges)

        self._watermark = max(
            self._watermark, float(times.max()) - self.allowed_lateness
        )
        return self._seal_up_to_watermark()

    def _route(self, pane: int, edges: List[EdgeTuple]) -> None:
        """Deliver one pane bucket to every open window covering the pane."""
        if pane > self._max_pane_seen:
            self._max_pane_seen = pane
        slide = self._slide_panes
        lowest = pane - self._window_panes + 1
        first_window = -(-lowest // slide) if lowest > 0 else 0  # ceil, >= 0
        # Closed is closed: after a flush, records for already-emitted
        # windows only feed the still-open ones.
        if first_window < self._next_close_index:
            first_window = self._next_close_index
        last_window = pane // slide
        if first_window > last_window:
            # Every window covering this pane has already closed; the
            # records feed nothing.
            return
        if self._template is not None:
            batch = self._template.encode(edges)
            for window in range(first_window, last_window + 1):
                self._rept_chain(window).ingest(batch, edges)
        else:
            for window in range(first_window, last_window + 1):
                self._factory_chain(window).ingest(edges)

    def _rept_chain(self, window: int) -> _MergeableReptChain:
        chain = self._chains.get(window)
        if chain is None:
            state = GroupStateSet(
                self.config,
                interner=self._template.interner,
                hash_functions=self._hash_functions,
            )
            chain = _MergeableReptChain(state, self.record_replay)
            self._chains[window] = chain
        return chain

    def _factory_chain(self, window: int) -> _EstimatorChain:
        chain = self._chains.get(window)
        if chain is None:
            chain = _EstimatorChain(
                self.estimator_factory,
                derive_seed(self.seed, "monitor-window", window),
                self.record_replay,
            )
            self._chains[window] = chain
        return chain

    # -- sealing ---------------------------------------------------------------

    def advance_watermark(self, time: float) -> List[MonitorWindowResult]:
        """Advance event time without records; returns windows this closes.

        An explicit event-time tick (e.g. an idle stream, or a driver that
        knows a pane's arrivals are complete).  ``allowed_lateness`` is
        honoured exactly as for record timestamps.  Advancing across a
        window's final pane boundary **re-ingests nothing**: the window's
        state set already holds its counters, and the estimate is combined
        from their summaries.  The watermark never moves backwards.
        """
        time = float(time)
        if not math.isfinite(time):
            raise ValueError("watermark time must be finite")
        self._watermark = max(self._watermark, time - self.allowed_lateness)
        if self._origin is None:
            return []
        return self._seal_up_to_watermark()

    def _seal_up_to_watermark(self) -> List[MonitorWindowResult]:
        closed: List[MonitorWindowResult] = []
        if self._origin is None or not math.isfinite(self._watermark):
            return closed
        # First pane the watermark does NOT seal (pane p is sealed iff
        # origin + (p+1)·w <= watermark).
        target = int((self._watermark - self._origin) // self.pane_seconds)
        # Walk pane-by-pane only across the span whose windows can hold
        # data (a window ending after pane max_seen + K - 1 starts after
        # every observed pane); beyond it every window is empty, so
        # fast-forward arithmetically — a far-future tick must not spin
        # pane-by-pane or materialise unbounded empty results.
        emit_limit = self._max_pane_seen + self._window_panes - 1
        while self._sealed_before < target:
            pane = self._sealed_before
            if pane > emit_limit:
                self._sealed_before = target
                break
            self._sealed_before = pane + 1
            last_of_window = pane - self._window_panes + 1
            if last_of_window >= 0 and last_of_window % self._slide_panes == 0:
                window = last_of_window // self._slide_panes
                # Closed is closed: flush() may already have emitted this
                # window without advancing the pane seal, and a service
                # timer may tick the watermark again afterwards — never
                # emit the same window index twice.
                if window >= self._next_close_index:
                    closed.append(self._close_window(window, True))
        return closed

    def _close_window(self, window: int, complete: bool) -> MonitorWindowResult:
        chain = self._chains.pop(window, None)
        start = self._origin + window * self._slide_panes * self.pane_seconds
        if chain is not None:
            records, estimate = chain.finalize()
            replay = chain.replay
        else:
            # An empty window: emit the zero estimate so per-interval series
            # stay aligned with time.
            records = 0
            replay = [] if self.record_replay else None
            if self._template is not None:
                estimate = _rept_estimate(self._template, 0)
            else:
                estimate = self.estimator_factory(
                    derive_seed(self.seed, "monitor-window", window)
                ).estimate()
        result = MonitorWindowResult(
            index=window,
            start=start,
            end=start + self.window_seconds,
            records=records,
            estimate=estimate,
            complete=complete,
            replay=replay,
        )
        self.results.append(result)
        self._next_close_index = window + 1
        return result

    def flush(self) -> List[MonitorWindowResult]:
        """Close every remaining window (stream end).

        Emits, in index order, every window whose span had started by the
        last observed pane; windows whose final pane was never observed are
        marked ``complete=False``.
        """
        if self._origin is None or self._max_pane_seen < 0:
            return []
        closed: List[MonitorWindowResult] = []
        last_window = self._max_pane_seen // self._slide_panes
        for window in range(self._next_close_index, last_window + 1):
            last_pane = window * self._slide_panes + self._window_panes - 1
            closed.append(self._close_window(window, last_pane <= self._max_pane_seen))
        return closed

    # -- introspection ---------------------------------------------------------

    @property
    def watermark(self) -> float:
        """Current watermark (−inf before any record)."""
        return self._watermark

    def open_window_indices(self) -> List[int]:
        """Indices of the windows currently holding state, ascending."""
        return sorted(self._chains)
