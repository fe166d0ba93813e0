"""Sliding-window triangle monitoring with merge-based window advance.

The paper's headline deployment is interval-based traffic monitoring: a
router observes a packet stream and wants global/local triangle counts
*per time interval*.  :class:`~repro.streaming.windows.TimeWindowedStream`
serves that workload offline by slicing a materialised trace;
:class:`WindowedTriangleMonitor` serves it online: timestamped records are
ingested once, windows (tumbling or sliding) are assembled from fixed-width
**panes**, and advancing a window never re-ingests retained panes.

Architecture
------------
Time is divided into half-open panes of ``pane_seconds`` aligned at the
monitor's origin.  Window ``w`` covers the ``K = window/pane`` panes
starting at pane ``w · s`` (``s = slide/pane``); tumbling windows are the
``s = K`` special case.  Each window in flight is a *chain* built on the
shared mergeable-state abstraction of :mod:`repro.core.state`:

* a **live** :class:`~repro.core.state.GroupStateSet` ingests the window's
  records as they arrive;
* at every pane boundary the live counters are detached as an O(pane)
  *pane delta* (:meth:`~repro.core.state.ProcessorGroup.take_pane_deltas`)
  — the live groups keep their stored-edge index with zeroed counters,
  exactly the boundary state the merge contract expects — and folded into
  an **accumulator** state set with the exact η correction
  (:meth:`~repro.core.state.ProcessorCounters.merge`);
* the window's **ring** of pane deltas is retained for per-pane
  attribution and diagnostics, and a closed window's result keeps it.
  Each pane delta is a handful of int64 column blocks per group
  (:class:`~repro.core.portable.ColumnarDelta`), on the C kernel detached
  and folded by compiled calls, so a ring holds a fixed number of Python
  objects whatever its panes held; a pane's portable snapshots are
  written only when read.

Because every chain of one monitor shares the configuration's hash seeds
and one interning table, each arriving batch is canonicalised, interned
and hashed **once** (:meth:`~repro.core.state.GroupStateSet.encode`) and
every open window consumes the same :class:`~repro.core.state.EncodedBatch`
with its own first-occurrence scope — the per-record cost of window overlap
is only the residual counter updates, not the full pipeline.  Closing a
window drops its chain in O(1); no retained pane is ever re-ingested.

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
from repro.core import portable
from repro.core.config import ReptConfig
from repro.core.portable import ColumnarDelta
from repro.exceptions import ConfigurationError
from repro.core.state import (
    EncodedBatch,
    GroupSnapshot,
    GroupStateSet,
    counter_columns,
)
from repro.streaming.windows import TimestampedRecord
from repro.types import EdgeTuple, NodeId
from repro.utils.rng import derive_seed

#: Accepted policies for records older than the watermark allows.
LATE_POLICIES = ("drop", "raise")

#: Builds a fresh estimator for one window; receives a per-window seed.
EstimatorFactory = Callable[[int], StreamingTriangleEstimator]


class PaneDelta:
    """One retained pane of one window: counters detached at the boundary.

    The pane's counters are kept as one
    :class:`~repro.core.portable.ColumnarDelta` of int64 columns per
    processor group, on either kernel.  :attr:`snapshots` writes them as
    portable group parts (see :mod:`repro.core.portable`) whose stored
    edges are only the pane-new ones — genuine mergeable snapshots of
    O(pane) size, foldable anywhere via
    :meth:`~repro.core.state.ProcessorGroup.merge_snapshot`.  They are
    written on first access, so the monitor's hot path never pays for
    snapshots nobody reads; the shared interning table is append-only,
    which is what makes late translation safe.  A delta holds only the
    group *shapes*, the monitor-wide id→node table and its own O(pane)
    counters — never the window's live groups — so retaining closed-window
    results does not pin per-window adjacency state.

    Attribution note: records admitted late (within ``allowed_lateness``)
    are booked into the pane a window is assembling when they *arrive*;
    window totals and estimates are unaffected (the merge is split-point
    agnostic), only this diagnostic per-pane breakdown follows arrival
    rather than event time.
    """

    __slots__ = ("pane", "records", "_shapes", "_nodes", "_deltas", "_snapshots")

    def __init__(self, pane: int, records: int, shapes, nodes, deltas) -> None:
        self.pane = pane
        self.records = records
        self._shapes = shapes
        self._nodes = nodes
        self._deltas = deltas
        self._snapshots: Optional[Tuple[GroupSnapshot, ...]] = None

    def __setstate__(self, state) -> None:
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        # Earlier versions kept per-slot ProcessorCounters lists on the dict
        # reference and cached snapshots in the dict form.
        self._deltas = [
            delta if isinstance(delta, ColumnarDelta) else counter_columns(delta)
            for delta in self._deltas
        ]
        self._snapshots = None

    @property
    def snapshots(self) -> Tuple[GroupSnapshot, ...]:
        """Portable per-group snapshots of this pane's deltas (cached)."""
        if self._snapshots is None:
            self._snapshots = tuple(
                portable.group_part(group_size, m, self._nodes, delta)
                for (group_size, m), delta in zip(self._shapes, self._deltas)
            )
        return self._snapshots

    @property
    def tau_delta(self) -> int:
        """Summed semi-triangle increments of this pane (diagnostics)."""
        return sum(int(delta.rows[0].sum()) for delta in self._deltas)


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
    pane_deltas: Optional[Tuple[PaneDelta, ...]] = None


class _MergeableReptChain:
    """One in-flight window of the REPT engine.

    The **live** state set ingests the window's records as they arrive.
    Every pane boundary detaches the live counters as an O(pane) delta
    (the live groups keep their stored-edge index with zeroed counters —
    the boundary state of the merge contract), keeps it in the window's
    ring and folds it into the **accumulator** with the exact η
    correction; the final estimate comes from the accumulator,
    bit-identical to from-scratch re-ingestion.
    """

    __slots__ = (
        "live",
        "acc",
        "start_pane",
        "end_pane",
        "current_pane",
        "records",
        "pane_records",
        "_pane_stored",
        "ring",
        "replay",
    )

    def __init__(
        self,
        config: ReptConfig,
        interner,
        hash_functions,
        start_pane: int,
        end_pane: int,
        record_replay: bool,
    ) -> None:
        self.live = GroupStateSet(config, interner=interner, hash_functions=hash_functions)
        self.acc = GroupStateSet(config, interner=interner, hash_functions=hash_functions)
        self.start_pane = start_pane
        self.end_pane = end_pane
        self.current_pane = start_pane
        self.records = 0
        self.pane_records = 0
        self.replay: Optional[List[EdgeTuple]] = [] if record_replay else None
        self._pane_stored: List[List[np.ndarray]] = [[] for _ in self.live.groups]
        self.ring: List[PaneDelta] = []

    def ingest(
        self,
        pane: int,
        batch: EncodedBatch,
        raw_edges: Sequence[EdgeTuple],
        firsts: Optional[Sequence[bool]] = None,
    ) -> None:
        """Advance the window over one shared encoded pane bucket.

        ``firsts`` carries the window-scoped first-occurrence flags the
        monitor derives once per batch from its shared arrival index (see
        :meth:`WindowedTriangleMonitor._record_arrivals`); the chain's own
        ``live.seen`` set then stays empty.  ``None`` falls back to the
        chain-local dedup scope (bit-identical, one set pass per chain).
        """
        self._roll_to(pane)
        stored = self.live.ingest_encoded(batch, collect_stored=True, firsts=firsts)
        for bucket, new in zip(self._pane_stored, stored):
            if new.shape[1]:
                bucket.append(new)
        self.records += batch.n_records
        self.pane_records += batch.n_records
        if self.replay is not None:
            self.replay.extend(raw_edges)

    def _roll_to(self, pane: int) -> None:
        while self.current_pane < pane:
            self._roll()

    def _roll(self) -> None:
        """Advance one pane boundary: detach the live counters as an O(pane)
        delta, keep it in the ring and fold it into the accumulator."""
        deltas = self.live.take_pane_deltas(
            [
                np.concatenate(bucket, axis=1) if bucket else np.empty((3, 0), np.int64)
                for bucket in self._pane_stored
            ]
        )
        if self.pane_records:
            self.ring.append(
                PaneDelta(
                    pane=self.current_pane,
                    records=self.pane_records,
                    shapes=[(g.group_size, g.m) for g in self.live.groups],
                    nodes=self.live.interner.nodes,
                    deltas=deltas,
                )
            )
        self.acc.merge_pane_deltas(deltas)
        self._pane_stored = [[] for _ in self.live.groups]
        self.pane_records = 0
        self.current_pane += 1

    def __setstate__(self, state) -> None:
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        # Older checkpoints collected stored edges as (slot, iu, iv) tuples.
        self._pane_stored = [
            [np.array(bucket, np.int64).reshape(-1, 3).T.copy()]
            if bucket and isinstance(bucket[0], tuple)
            else bucket
            for bucket in self._pane_stored
        ]

    def finalize(self) -> Tuple[int, TriangleEstimate]:
        if self.pane_records:
            self._roll()
        estimate = self.acc.estimate(self.records)
        estimate.metadata["algorithm"] = 2.0 if self.acc.config.uses_groups else 1.0
        return self.records, estimate


class _EstimatorChain:
    """One in-flight window fed to a factory-built streaming estimator."""

    __slots__ = ("estimator", "replay")

    def __init__(self, factory: EstimatorFactory, seed: int, record_replay: bool) -> None:
        self.estimator = factory(seed)
        self.replay: Optional[List[EdgeTuple]] = [] if record_replay else None

    def ingest(self, pane: int, edges: Sequence[EdgeTuple]) -> None:
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
        REPT parameters — selects the merge-based engine (shared encoding,
        O(pane) advance).  Mutually exclusive with ``estimator_factory``.
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
                "exactly one of config (merge-based REPT engine) or "
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
        #: Shared arrival index of the REPT engine: canonical interned edge
        #: -> bitmask of the panes it has arrived in, rebased so bit 0 is
        #: pane ``_dedup_base`` (the first pane an open window can cover).
        #: One pass over each encoded batch updates it, and every
        #: overlapping window derives its first-occurrence flags from the
        #: recorded prior masks — the chains' own ``seen`` sets stay empty.
        self._edge_panes: Dict[Tuple[int, int], int] = {}
        self._dedup_base = 0
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
            # records feed nothing (and need no arrival-index entry — no
            # remaining window's pane span can include this pane).
            return
        if self._template is not None:
            batch = self._template.encode(edges)
            priors = self._record_arrivals(pane, batch)
            for window in range(first_window, last_window + 1):
                firsts = self._window_firsts(window, priors)
                self._rept_chain(window).ingest(pane, batch, edges, firsts)
        else:
            for window in range(first_window, last_window + 1):
                self._factory_chain(window).ingest(pane, edges)

    def _record_arrivals(
        self, pane: int, batch: EncodedBatch
    ) -> Optional[List[int]]:
        """Fold one encoded pane bucket into the shared arrival index.

        Returns each record's *prior* pane mask — the panes the edge had
        already arrived in before this record, captured before the current
        pane's bit is set so in-batch duplicates are flagged non-first.
        ``None`` for an empty batch (every record was a self-loop).
        """
        if not batch.cu:
            return None
        offset = pane - self._dedup_base
        bit = 1 << offset
        index = self._edge_panes
        priors: List[int] = []
        append = priors.append
        for iu, iv in zip(batch.cu, batch.cv):
            key = (iu, iv) if iu < iv else (iv, iu)
            prior = index.get(key, 0)
            append(prior)
            index[key] = prior | bit
        return priors

    def _window_firsts(
        self, window: int, priors: Optional[List[int]]
    ) -> Optional[List[bool]]:
        """Window-scoped first-occurrence flags from recorded prior masks.

        A record is first-in-window exactly when no prior arrival fell in
        any pane of the window's span — one mask test per record, shared
        with every other window through the arrival index.
        """
        if priors is None:
            return None
        start = window * self._slide_panes
        wmask = ((1 << self._window_panes) - 1) << (start - self._dedup_base)
        return [(prior & wmask) == 0 for prior in priors]

    def _rept_chain(self, window: int) -> _MergeableReptChain:
        chain = self._chains.get(window)
        if chain is None:
            start_pane = window * self._slide_panes
            chain = _MergeableReptChain(
                self.config,
                self._template.interner,
                self._hash_functions,
                start_pane,
                start_pane + self._window_panes,
                self.record_replay,
            )
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
        window's final pane boundary performs **no re-ingestion of retained
        panes**: the pending pane's counters are detached as an O(pane)
        delta, folded into the window's accumulator with the exact η
        correction, and the estimate is combined from the merged summaries.
        The watermark never moves backwards.
        """
        time = float(time)
        if not math.isfinite(time):
            raise ValueError("watermark time must be finite")
        self._watermark = max(self._watermark, time - self.allowed_lateness)
        if self._origin is None:
            return []
        return self._seal_up_to_watermark()

    def _pane_end(self, pane: int) -> float:
        return self._origin + (pane + 1) * self.pane_seconds

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
        replay: Optional[List[EdgeTuple]] = [] if self.record_replay else None
        pane_deltas: Optional[Tuple[PaneDelta, ...]] = None
        if chain is None:
            # An empty window: emit the zero estimate so per-interval series
            # stay aligned with time.
            if self._template is not None:
                acc = GroupStateSet(
                    self.config,
                    interner=self._template.interner,
                    hash_functions=self._hash_functions,
                )
                estimate = acc.estimate(0)
                estimate.metadata["algorithm"] = (
                    2.0 if self.config.uses_groups else 1.0
                )
            else:
                estimate = self.estimator_factory(
                    derive_seed(self.seed, "monitor-window", window)
                ).estimate()
            records = 0
        else:
            records, estimate = chain.finalize()
            if chain.replay is not None:
                replay = chain.replay
            if isinstance(chain, _MergeableReptChain):
                pane_deltas = tuple(chain.ring)
        result = MonitorWindowResult(
            index=window,
            start=start,
            end=start + self.window_seconds,
            records=records,
            estimate=estimate,
            complete=complete,
            replay=replay,
            pane_deltas=pane_deltas,
        )
        self.results.append(result)
        self._next_close_index = window + 1
        self._rebase_arrival_index()
        return result

    def _rebase_arrival_index(self) -> None:
        """Shift the arrival index down to the earliest still-open window.

        Panes below ``_next_close_index * _slide_panes`` can never fall in
        an open window's span again, so their bits are shifted out and
        fully-expired edges are dropped — the index stays bounded by the
        open-window pane span regardless of stream length.
        """
        new_base = self._next_close_index * self._slide_panes
        shift = new_base - self._dedup_base
        if shift <= 0:
            return
        self._dedup_base = new_base
        index = self._edge_panes
        if not index:
            return
        expired = []
        for key, mask in index.items():
            mask >>= shift
            if mask:
                index[key] = mask
            else:
                expired.append(key)
        for key in expired:
            del index[key]

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

    def open_pane_deltas(self) -> Dict[int, Tuple[PaneDelta, ...]]:
        """The retained pane-delta rings of the open REPT windows."""
        return {
            window: tuple(chain.ring)
            for window, chain in sorted(self._chains.items())
            if isinstance(chain, _MergeableReptChain)
        }
