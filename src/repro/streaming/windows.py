"""Time-interval windowing of timestamped edge streams.

The paper motivates interval-based analysis: "Π is a network packet stream
collected on a router in a time interval (e.g., one hour in a day), and one
wants to compute global and local triangle counts for each interval."
:class:`TimeWindowedStream` slices a timestamped record sequence into
fixed-width windows, each of which is an ordinary :class:`EdgeStream` that
any estimator in this library can consume.

Boundary semantics
------------------
Every interval in this module is **half-open**: window ``k`` covers
``[origin + k·w, origin + (k+1)·w)``.  A record whose timestamp equals a
window's right edge belongs to the *next* window — including the final
one: when bounds are derived from the data, a record landing exactly on
the last window's right edge gets a fresh window of its own rather than
being silently dropped (regression-tested).  When explicit bounds are
given, records outside the covered span follow the ``out_of_range``
policy — never a silent drop.

This class slices a *materialised* record sequence, so out-of-order
delivery is handled by sorting.  The streaming counterpart — watermarks,
bounded lateness, window advance without re-ingestion — lives in
:class:`repro.streaming.monitor.WindowedTriangleMonitor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.streaming.edge_stream import EdgeStream
from repro.types import NodeId

#: Accepted ``out_of_range`` policies: fail loudly, or drop with a count.
OUT_OF_RANGE_POLICIES = ("raise", "drop")


@dataclass(frozen=True)
class TimestampedRecord:
    """One observed interaction: an edge plus a real-valued timestamp."""

    u: NodeId
    v: NodeId
    time: float


class TimeWindowedStream:
    """Slice timestamped records into consecutive fixed-width windows.

    Parameters
    ----------
    records:
        Iterable of :class:`TimestampedRecord` (or ``(u, v, time)`` tuples).
        Records are sorted by time internally, so out-of-order delivery is
        tolerated.
    window_seconds:
        Width of each window.
    name:
        Base name for the produced window streams.
    origin:
        Left edge of window 0.  Default: the earliest record's timestamp.
        Pass an absolute origin (e.g. the top of the hour) to align windows
        to wall-clock boundaries.
    end:
        Explicit right edge of the covered span.  Default: derived so every
        record is covered.  With an explicit ``end``, the covered span is
        ``[origin, origin + ceil((end - origin)/w)·w)`` — the final window
        may extend past ``end`` when the width does not divide the span —
        and records outside it follow ``out_of_range``.
    out_of_range:
        What to do with records outside the covered span when explicit
        bounds are given: ``"raise"`` (default) raises :class:`ValueError`,
        ``"drop"`` discards them and counts them in
        :attr:`records_out_of_range`.  Bounds derived from the data cover
        every record, so the policy never fires in that case.
    """

    def __init__(
        self,
        records: Iterable,
        window_seconds: float,
        name: str = "windowed",
        origin: Optional[float] = None,
        end: Optional[float] = None,
        out_of_range: str = "raise",
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if out_of_range not in OUT_OF_RANGE_POLICIES:
            raise ValueError(
                f"out_of_range must be one of {OUT_OF_RANGE_POLICIES}, "
                f"got {out_of_range!r}"
            )
        normalised: List[TimestampedRecord] = []
        for record in records:
            if isinstance(record, TimestampedRecord):
                normalised.append(record)
            else:
                u, v, time = record
                normalised.append(TimestampedRecord(u, v, float(time)))
        normalised.sort(key=lambda r: r.time)
        self.window_seconds = float(window_seconds)
        self.name = name
        self.out_of_range = out_of_range
        #: Records discarded by the ``"drop"`` policy (explicit bounds only).
        self.records_out_of_range = 0

        if origin is None:
            origin = normalised[0].time if normalised else 0.0
        self.origin = float(origin)
        if end is not None:
            if end <= self.origin:
                raise ValueError(
                    f"end ({end}) must be greater than origin ({self.origin})"
                )
            width = self.window_seconds
            span = float(end) - self.origin
            num_windows = int(span // width) + (1 if span % width else 0)
            self._num_windows = max(1, num_windows)
            self._explicit_bounds = True
        else:
            self._num_windows = 0  # derived lazily from the records below
            self._explicit_bounds = False

        self._records = self._filter_in_range(normalised)
        if not self._explicit_bounds:
            if self._records:
                last = self._records[-1].time
                self._num_windows = int((last - self.origin) // self.window_seconds) + 1
            else:
                self._num_windows = 0

    def _filter_in_range(
        self, records: List[TimestampedRecord]
    ) -> List[TimestampedRecord]:
        """Apply the half-open span check (explicit bounds or explicit origin)."""
        if not records:
            return records
        width = self.window_seconds
        origin = self.origin
        limit = (
            origin + self._num_windows * width if self._explicit_bounds else None
        )
        kept: List[TimestampedRecord] = []
        for record in records:
            below = record.time < origin
            above = limit is not None and record.time >= limit
            if below or above:
                if self.out_of_range == "raise":
                    bound = (
                        f"[{origin}, {limit})"
                        if limit is not None
                        else f"[{origin}, ∞)"
                    )
                    raise ValueError(
                        f"record ({record.u!r}, {record.v!r}) at t={record.time} "
                        f"falls outside the half-open covered span {bound}"
                    )
                self.records_out_of_range += 1
                continue
            kept.append(record)
        return kept

    def __len__(self) -> int:
        """Number of windows in the covered span (0 when empty and unbounded)."""
        return self._num_windows

    def records(self) -> List[TimestampedRecord]:
        """The in-range records, sorted by timestamp."""
        return list(self._records)

    def _buckets(
        self, width: float, count: int
    ) -> List[List[Tuple[NodeId, NodeId]]]:
        """Assign records to ``count`` half-open intervals of ``width``.

        Self-loops are dropped (they carry no triangle information).
        """
        origin = self.origin
        last = count - 1
        buckets: List[List[Tuple[NodeId, NodeId]]] = [[] for _ in range(count)]
        for record in self._records:
            index = int((record.time - origin) // width)
            if index > last:
                # Guards float pathology only: an in-range record (t < the
                # covered span's right edge) whose floor-division rounds up.
                index = last
            if record.u != record.v:
                buckets[index].append((record.u, record.v))
        return buckets

    def windows(self) -> Iterator[Tuple[float, float, EdgeStream]]:
        """Yield ``(window_start, window_end, stream)`` triples in time order.

        Windows are half-open ``[start, end)``.  Empty windows are still
        yielded (with empty streams) so downstream per-interval series stay
        aligned with time.
        """
        width = self.window_seconds
        origin = self.origin
        for index, edges in enumerate(self._buckets(width, self._num_windows)):
            start = origin + index * width
            yield (
                start,
                start + width,
                EdgeStream(edges, name=f"{self.name}[{index}]", validate=False),
            )

    def panes(
        self, pane_seconds: Optional[float] = None
    ) -> Iterator[Tuple[float, float, EdgeStream]]:
        """Yield pane-aligned ``(start, end, stream)`` triples in time order.

        Panes are half-open intervals of ``pane_seconds`` (default: the
        window width) aligned at :attr:`origin`, covering the same span as
        :meth:`windows`; a sliding-window consumer re-assembles windows
        from consecutive panes (see
        :class:`repro.streaming.monitor.WindowedTriangleMonitor`).
        ``pane_seconds`` must evenly divide the window width so pane edges
        line up with window edges.
        """
        width = self.window_seconds
        if pane_seconds is None:
            pane_seconds = width
        pane_seconds = float(pane_seconds)
        if pane_seconds <= 0:
            raise ValueError("pane_seconds must be positive")
        ratio = width / pane_seconds
        panes_per_window = int(round(ratio))
        if panes_per_window < 1 or abs(ratio - panes_per_window) > 1e-9:
            raise ValueError(
                f"pane_seconds ({pane_seconds}) must evenly divide "
                f"window_seconds ({width})"
            )
        count = self._num_windows * panes_per_window
        origin = self.origin
        for index, edges in enumerate(self._buckets(pane_seconds, count)):
            start = origin + index * pane_seconds
            yield (
                start,
                start + pane_seconds,
                EdgeStream(edges, name=f"{self.name}.pane[{index}]", validate=False),
            )

    def window_streams(self) -> List[EdgeStream]:
        """Return just the per-window edge streams, in time order."""
        return [stream for _, _, stream in self.windows()]
