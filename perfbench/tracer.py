"""Span ledger of the traced runs: per-layer numbers measured from outside.

:meth:`Ledger.install` wraps public entry points of each ``repro`` layer
from the benchmark's own files (``src/`` carries no tracing).  Every call
records a span: entry point, start, end and parent span.  Spans stay in
flat in-memory columns until :meth:`Ledger.write` saves them when the
process ends, and :meth:`Ledger.layer_metrics` folds them into the
per-layer metrics named in ``BENCHMARK.json``.

A span's parent is the innermost span still open in the same asyncio task
(a ``ContextVar``).  A task started inside a span that has since closed
(the service starts each session's ingest loop while answering ``open``)
opens root spans of its own.  A layer's self time is its spans' duration
minus the part covered by their child spans.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import time
import weakref
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from common import percentile

#: Hook run after a successful call: ``(ledger, span, args, kwargs, result)``.
Hook = Callable[["Ledger", int, tuple, dict, object], None]


def _decode_hook(ledger, span, args, kwargs, result):
    ledger.value[span] = len(args[0])


def _request_hook(ledger, span, args, kwargs, result):
    if not result.get("ok"):
        ledger.value[span] = 1
    request = args[1]
    if isinstance(request, dict) and request.get("op") == "hello":
        ledger.marks.append(span)


def _offer_hook(ledger, span, args, kwargs, result):
    if result.get("shed"):
        ledger.value[span] = 1
    ledger.offered[id(args[1])] = ledger.end[span]


def _frame_hook(ledger, span, args, kwargs, result):
    offered = ledger.offered.pop(id(args[1]), None)
    ledger.value[span] = -1 if offered is None else ledger.start[span] - offered


def _encode_pairs_hook(ledger, span, args, kwargs, result):
    cu, _cv, firsts, n_records = result
    ledger.value[span] = n_records
    if firsts is not None:
        ledger.first_flags[0] += sum(firsts)
        ledger.first_flags[1] += len(cu)


def _count_hook(ledger, span, args, kwargs, result):
    ledger.value[span] = len(args[1])


def _state_register_hook(ledger, span, args, kwargs, result):
    ledger.states.add(args[0])


def _state_edge_hook(ledger, span, args, kwargs, result):
    # One record; the seen set grows exactly on a first occurrence.
    state = args[0]
    size = len(state.seen)
    before = ledger.seen_size.get(id(state))
    if before is None:
        ledger.states.add(state)
        before = 0
    ledger.first_flags[0] += size != before
    ledger.first_flags[1] += 1
    ledger.seen_size[id(state)] = size


def _ingest_encoded_hook(ledger, span, args, kwargs, result):
    ledger.states.add(args[0])
    batch = args[1]
    ledger.value[span] = batch.n_records
    firsts = kwargs.get("firsts", args[3] if len(args) > 3 else None)
    if firsts is not None:
        ledger.first_flags[0] += sum(firsts)
        ledger.first_flags[1] += len(batch.cu)


def _monitor_ingest_hook(ledger, span, args, kwargs, result):
    ledger.monitors.add(args[0])
    ledger.value[span] = len(args[3])
    ledger.extra[span] = len(result)


def _watermark_hook(ledger, span, args, kwargs, result):
    ledger.monitors.add(args[0])
    ledger.extra[span] = len(result)


def _save_hook(ledger, span, args, kwargs, result):
    ledger.value[span] = os.path.getsize(result.path)


def _entry_points():
    """``(span name, owner, attribute, hook)`` for every wrapped entry point."""
    import repro.core.interning as interning
    import repro.core.kernel as kernel
    import repro.core.state as state
    import repro.durability.checkpoint as checkpoint
    import repro.hashing.base as hashing
    import repro.service.server as server
    import repro.service.session as session
    import repro.streaming.monitor as monitor
    from repro.core.adjacency import NativeProcessorGroup

    GroupStateSet = state.GroupStateSet
    return [
        ("protocol.decode_line", server, "decode_line", _decode_hook),
        ("protocol.encode_line", server, "encode_line", None),
        ("server.handle_request", server.EstimationService, "handle_request", _request_hook),
        ("session.offer", session.StreamSession, "offer", _offer_hook),
        ("session.ingest_frame", session.ReptEngine, "ingest_frame", _frame_hook),
        ("interning.encode_pairs", interning.NodeInterner, "encode_pairs", _encode_pairs_hook),
        ("interning.intern", interning.NodeInterner, "intern", None),
        ("hashing.edge_key_array", interning.NodeInterner, "edge_key_array", None),
        ("hashing.bucket_from_keys", hashing.EdgeHashFunction, "bucket_from_keys", _count_hook),
        ("hashing.bucket", hashing.EdgeHashFunction, "bucket", None),
        ("kernel.process_encoded", NativeProcessorGroup, "process_encoded", _count_hook),
        ("kernel.process_edge", NativeProcessorGroup, "process_edge", None),
        ("kernel.resolve_kernel", kernel, "resolve_kernel", None),
        ("state.process_edges", GroupStateSet, "process_edges", _state_register_hook),
        ("state.process_edge", GroupStateSet, "process_edge", _state_edge_hook),
        ("state.estimate", GroupStateSet, "estimate", _state_register_hook),
        ("state.encode", GroupStateSet, "encode", None),
        ("state.ingest_encoded", GroupStateSet, "ingest_encoded", _ingest_encoded_hook),
        ("state.take_pane_deltas", GroupStateSet, "take_pane_deltas", None),
        ("state.merge_pane_deltas", GroupStateSet, "merge_pane_deltas", None),
        ("state.portable_state", GroupStateSet, "portable_state", None),
        ("combine.combine_group_estimates", state, "combine_group_estimates", None),
        ("monitor.ingest_columns", monitor.WindowedTriangleMonitor, "ingest_columns", _monitor_ingest_hook),
        ("monitor.advance_watermark", monitor.WindowedTriangleMonitor, "advance_watermark", _watermark_hook),
        ("checkpoint.save", checkpoint.CheckpointManager, "save", _save_hook),
    ]


class Ledger:
    """In-memory span columns plus the wrappers that fill them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.value = array("d")
        self.extra = array("d")
        self.raised: List[int] = []
        self.current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=-1)
        #: Span ids of ``hello`` requests: the service run's window marks.
        self.marks: List[int] = []
        #: Frame object id -> return time of its ``offer`` (queue wait).
        self.offered: Dict[int, int] = {}
        #: [first occurrences, records] over every dedup scope.
        self.first_flags = [0, 0]
        self.seen_size: Dict[int, int] = {}
        self.states: "weakref.WeakSet" = weakref.WeakSet()
        self.monitors: "weakref.WeakSet" = weakref.WeakSet()

    # -- recording -------------------------------------------------------------

    def _open(self, name_id: int) -> Tuple[int, contextvars.Token]:
        parent = self.current.get()
        if parent >= 0 and self.end[parent]:
            parent = -1
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(parent)
        self.end.append(0)
        self.value.append(0.0)
        self.extra.append(0.0)
        token = self.current.set(span)
        self.start.append(time.perf_counter_ns())
        return span, token

    def _close(self, span: int, token: contextvars.Token) -> None:
        self.end[span] = time.perf_counter_ns()
        self.current.reset(token)

    def _wrap(self, name: str, owner: object, attribute: str, hook: Optional[Hook]) -> None:
        original = getattr(owner, attribute)
        name_id = len(self.names)
        self.names.append(name)
        self.raised.append(0)
        ledger = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span, token = ledger._open(name_id)
                try:
                    result = await original(*args, **kwargs)
                except BaseException:
                    ledger.raised[name_id] += 1
                    raise
                finally:
                    ledger._close(span, token)
                if hook is not None:
                    hook(ledger, span, args, kwargs, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span, token = ledger._open(name_id)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    ledger.raised[name_id] += 1
                    raise
                finally:
                    ledger._close(span, token)
                if hook is not None:
                    hook(ledger, span, args, kwargs, result)
                return result

        setattr(owner, attribute, wrapper)

    def install(self) -> "Ledger":
        """Wrap every entry point; call before the workload is built."""
        for name, owner, attribute, hook in _entry_points():
            self._wrap(name, owner, attribute, hook)
        return self

    def mark_window(self) -> Tuple[int, int]:
        """The service window: from the first ``hello`` to the last one."""
        if len(self.marks) < 2:
            raise RuntimeError("the service run sent fewer than two window marks")
        return self.end[self.marks[0]], self.start[self.marks[-1]]

    def write(self, path: str) -> None:
        """Save every span: a JSON header line, then the raw columns."""
        columns = [
            ("name", self.name),
            ("parent", self.parent),
            ("start_ns", self.start),
            ("end_ns", self.end),
            ("value", self.value),
            ("extra", self.extra),
        ]
        header = {
            "names": self.names,
            "spans": len(self.name),
            "columns": [[label, column.typecode] for label, column in columns],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for _label, column in columns:
                column.tofile(handle)

    # -- folding ---------------------------------------------------------------

    def layer_metrics(self, window: Tuple[int, int]) -> Dict[str, float]:
        """Per-layer metrics over spans that start inside ``window`` (ns).

        ``kernel.load_s`` is the exception: kernel resolution happens at
        set-up, so it sums every ``resolve_kernel`` span of the process.
        """
        import numpy as np

        names = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        value = np.frombuffer(self.value, dtype=np.float64)
        extra = np.frombuffer(self.extra, dtype=np.float64)
        closed = end > 0
        duration = np.where(closed, end - start, 0)
        covered = np.zeros(len(names), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_ns = duration - covered
        low, high = window
        inside = closed & (start >= low) & (start <= high)
        ids = {name: index for index, name in enumerate(self.names)}

        def pick(*span_names: str, everywhere: bool = False):
            mask = np.zeros(len(names), dtype=bool)
            for span_name in span_names:
                mask |= names == ids[span_name]
            return mask & (closed if everywhere else inside)

        def self_s(*span_names: str) -> float:
            return float(self_ns[pick(*span_names)].sum()) / 1e9

        def total_s(*span_names: str) -> float:
            return float(duration[pick(*span_names)].sum()) / 1e9

        def calls(*span_names: str) -> float:
            return float(pick(*span_names).sum())

        def summed(column, span_name: str) -> float:
            return float(column[pick(span_name)].sum())

        waits = value[pick("session.ingest_frame")]
        waits_ms = (waits[waits >= 0] / 1e6).tolist()
        offer = pick("session.offer")
        busy_ns = float(self_ns[inside & ~offer].sum())
        monitor_records = summed(value, "monitor.ingest_columns")

        states = list(self.states)
        interners = {id(s.interner): s.interner for s in states}
        array_bytes = 0
        for s in states:
            for group in s.groups:
                arrays = getattr(group, "_arrays", None)
                if arrays is not None:
                    array_bytes += sum(
                        column.nbytes for column in vars(arrays).values() if isinstance(column, np.ndarray)
                    )
        save = pick("checkpoint.save")
        return {
            "protocol.decode_s": self_s("protocol.decode_line"),
            "protocol.encode_s": self_s("protocol.encode_line"),
            "protocol.bytes_in": summed(value, "protocol.decode_line"),
            "server.dispatch_self_s": self_s("server.handle_request"),
            "server.requests": calls("server.handle_request"),
            "server.errors": summed(value, "server.handle_request"),
            "session.admit_wait_s": total_s("session.offer"),
            "session.queue_wait_p50_ms": percentile(waits_ms, 50) if waits_ms else 0.0,
            "session.queue_wait_p99_ms": percentile(waits_ms, 99) if waits_ms else 0.0,
            "session.frame_self_s": self_s("session.ingest_frame"),
            "session.frames": calls("session.ingest_frame"),
            "session.shed": summed(value, "session.offer"),
            "interning.encode_s": self_s("interning.encode_pairs"),
            "interning.encode_records": summed(value, "interning.encode_pairs"),
            "interning.first_ratio": (
                self.first_flags[0] / self.first_flags[1] if self.first_flags[1] else 0.0
            ),
            "interning.intern_s": self_s("interning.intern"),
            "interning.intern_calls": calls("interning.intern"),
            "interning.nodes": float(sum(len(i) for i in interners.values())),
            "hashing.keys_s": self_s("hashing.edge_key_array"),
            "hashing.bucket_s": self_s("hashing.bucket_from_keys"),
            "hashing.bucket_scalar_s": self_s("hashing.bucket"),
            "hashing.bucket_scalar_calls": calls("hashing.bucket"),
            "kernel.batch_s": self_s("kernel.process_encoded"),
            "kernel.batch_calls": calls("kernel.process_encoded"),
            "kernel.batch_records": summed(value, "kernel.process_encoded"),
            "kernel.scalar_s": self_s("kernel.process_edge"),
            "kernel.scalar_calls": calls("kernel.process_edge"),
            "kernel.load_s": float(duration[pick("kernel.resolve_kernel", everywhere=True)].sum()) / 1e9,
            "kernel.array_mb": array_bytes / 1e6,
            "kernel.edges_stored": float(sum(s.total_edges_stored() for s in states)),
            "state.ingest_self_s": self_s(
                "state.process_edges", "state.process_edge", "state.ingest_encoded", "state.encode"
            ),
            "state.estimate_s": self_s("state.estimate"),
            "state.seen_entries": float(sum(len(s.seen) for s in states)),
            "state.pane_take_s": self_s("state.take_pane_deltas"),
            "state.pane_merge_s": self_s("state.merge_pane_deltas"),
            "state.portable_s": self_s("state.portable_state"),
            "combine.estimate_s": self_s("combine.combine_group_estimates"),
            "combine.calls": calls("combine.combine_group_estimates"),
            "monitor.ingest_self_s": self_s("monitor.ingest_columns", "monitor.advance_watermark"),
            "monitor.encode_s": total_s("state.encode"),
            "monitor.chain_ingest_s": total_s("state.ingest_encoded"),
            "monitor.chain_records_per_record": (
                summed(value, "state.ingest_encoded") / monitor_records if monitor_records else 0.0
            ),
            "monitor.windows": float(extra[pick("monitor.ingest_columns", "monitor.advance_watermark")].sum()),
            "monitor.late_records": float(sum(m.late_records for m in self.monitors)),
            "checkpoint.save_s": total_s("checkpoint.save"),
            "checkpoint.count": float(save.sum()),
            "checkpoint.bytes": float(value[save].sum()),
            "checkpoint.failures": float(self.raised[ids["checkpoint.save"]]),
            "trace.unattributed_share": 1.0 - busy_ns / max(high - low, 1),
        }
