"""Workload definitions: inputs, configurations, timed loops and references.

Each workload is built from the benchmark seed alone.  The parent process
generates every input and computes the dict-kernel reference
(``kernel="python"``) before any timing; the measured processes load the
generated inputs and run the same configuration with ``kernel="auto"``.

Nothing here imports ``repro`` at module level: the measured child times
set-up from just before the first ``repro`` import.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Sequence

import common

#: Open-loop query probe period (the service loadgen's 20 queries/s).
PROBE_INTERVAL_S = 0.05

# batch-ingest / per-edge-ingest: the headline library configuration.
BATCH_RECORDS = 300_000
PER_EDGE_RECORDS = 80_000
BATCH_SIZE = 65_536

# monitor-sliding: the README's monitor shape at its record rate (100k
# records per hour), so a 2000-record chunk spans about 72 s and closes about
# one window.  A pass closes MONITOR_WINDOWS windows during the timed span;
# 200 would take about 30 s a pass, more than a run's time budget allows.
MONITOR_RECORDS_PER_S = 100_000 / 3600.0
MONITOR_WINDOWS = 40
MONITOR_DURATION_S = 300.0 + 60.0 * MONITOR_WINDOWS
MONITOR_RECORDS = round(MONITOR_RECORDS_PER_S * MONITOR_DURATION_S)
MONITOR_CHUNK = 2_000

# service-mixed: three tenants with disjoint node ids, 2000-record frames.
SERVICE_TENANTS = 3
SERVICE_RECORDS = 90_000
SERVICE_FRAME = 2_000
SERVICE_QUEUE_FRAMES = 64
#: About one checkpoint per tenant per second, the cadence of serve's 1 s
#: timer, at fixed stream offsets (frames 15, 30 and 45 of each tenant).
SERVICE_CHECKPOINT_EVERY = 15
SERVICE_PROBE_NODES = 3

WORKLOADS = ("batch-ingest", "per-edge-ingest", "service-mixed", "monitor-sliding")


def config_seed(seed: int) -> int:
    """The REPT master seed used with workload seed ``seed``."""
    return 1_000_003 + seed


# -- configurations ------------------------------------------------------------


def make_estimator(seed: int, kernel: str):
    from repro.core import ReptConfig, ReptEstimator

    return ReptEstimator(
        ReptConfig(
            m=16,
            c=32,
            seed=config_seed(seed),
            hash_kind="tabulation",
            track_local=False,
            kernel=kernel,
        )
    )


def make_monitor(seed: int, kernel: str):
    from repro.core import ReptConfig
    from repro.streaming.monitor import WindowedTriangleMonitor

    # c mod m != 0 forces eta tracking on.
    return WindowedTriangleMonitor(
        window_seconds=300.0,
        slide_seconds=60.0,
        pane_seconds=60.0,
        config=ReptConfig(m=16, c=24, seed=config_seed(seed), kernel=kernel),
        allowed_lateness=30.0,
    )


def tenant_name(index: int) -> str:
    return f"tenant-{index}"


def tenant_engine(index: int) -> Dict[str, object]:
    """The loadgen's engine spec (local counts on by default)."""
    return {"kind": "rept", "m": 32, "c": 64, "seed": 7 + index}


# -- inputs --------------------------------------------------------------------


def library_inputs(workload: str, seed: int) -> Dict[str, object]:
    """Generated input of one library workload (picklable, stdlib types)."""
    from repro.generators.traffic import packet_flow_records, packet_flow_stream

    if workload == "monitor-sliding":
        records = packet_flow_records(
            MONITOR_RECORDS,
            duration_seconds=MONITOR_DURATION_S,
            out_of_order_fraction=0.05,
            max_delay_seconds=30.0,
            seed=seed,
        )
        chunks = []
        newest = float("-inf")
        for start in range(0, len(records), MONITOR_CHUNK):
            part = records[start : start + MONITOR_CHUNK]
            times = [r.time for r in part]
            newest = max(newest, max(times))
            chunks.append(([r.u for r in part], [r.v for r in part], times, newest))
        return {"seed": seed, "chunks": chunks, "records": len(records)}
    count = BATCH_RECORDS if workload == "batch-ingest" else PER_EDGE_RECORDS
    edges = list(packet_flow_stream(count, seed=seed).edges())
    return {"seed": seed, "edges": edges, "records": len(edges)}


def service_inputs(seed: int) -> List[Dict[str, object]]:
    """Per-tenant frames; tenant ``i`` shifts its node ids by ``i * 2**32``."""
    from repro.generators.traffic import packet_flow_stream

    tenants = []
    for index in range(SERVICE_TENANTS):
        shift = index << 32
        edges = [
            (u + shift, v + shift)
            for u, v in packet_flow_stream(SERVICE_RECORDS, seed=seed + 1000 * index).edges()
        ]
        nodes: List[int] = []
        for edge in edges:
            for node in edge:
                if node not in nodes:
                    nodes.append(node)
            if len(nodes) >= SERVICE_PROBE_NODES:
                break
        tenants.append(
            {
                "name": tenant_name(index),
                "engine": tenant_engine(index),
                "frames": [
                    edges[start : start + SERVICE_FRAME]
                    for start in range(0, len(edges), SERVICE_FRAME)
                ],
                "probe_nodes": nodes[:SERVICE_PROBE_NODES],
            }
        )
    return tenants


def request_line(request_id: int, op: str, **fields: object) -> bytes:
    """One protocol request as an NDJSON line."""
    message = {"v": 1, "id": request_id, "op": op}
    message.update(fields)
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


# -- references ----------------------------------------------------------------


def estimator_outputs(estimator) -> Dict[str, object]:
    estimate = estimator.estimate()
    return {
        "global_count": estimate.global_count,
        "edges_stored": estimator.edges_stored,
        "local_counts": sorted([node, value] for node, value in estimate.local_counts.items()),
    }


def window_outputs(windows) -> List[List[object]]:
    return [[w.index, w.estimate.global_count, w.records] for w in windows]


def library_reference(workload: str, data: Dict[str, object]) -> object:
    """Outputs of the dict reference (``kernel="python"``, same seed)."""
    seed = data["seed"]
    if workload == "monitor-sliding":
        monitor = make_monitor(seed, "python")
        windows = []
        for us, vs, ts, newest in data["chunks"]:
            windows.extend(monitor.ingest_columns(us, vs, ts))
            windows.extend(monitor.advance_watermark(newest))
        windows.extend(monitor.flush())
        return window_outputs(windows)
    estimator = make_estimator(seed, "python")
    estimator.process_stream(data["edges"], batch_size=BATCH_SIZE)
    return estimator_outputs(estimator)


def service_reference(tenants: List[Dict[str, object]]) -> Dict[str, object]:
    """Per-tenant global count and probed local counts after full delivery."""
    from repro.core import ReptConfig
    from repro.core.state import GroupStateSet

    reference = {}
    for tenant in tenants:
        spec = tenant["engine"]
        state = GroupStateSet(
            ReptConfig(m=spec["m"], c=spec["c"], seed=spec["seed"], track_local=True, kernel="python")
        )
        delivered = 0
        for frame in tenant["frames"]:
            delivered += state.process_edges(frame)
        estimate = state.estimate(delivered)
        reference[tenant["name"]] = {
            "global_count": estimate.global_count,
            "edges_processed": delivered,
            "local_counts": [
                [node, estimate.local_count(node)] for node in tenant["probe_nodes"]
            ],
        }
    return reference


# -- timed loops (measured child) ----------------------------------------------


class Probe:
    """Open-loop count query, due every :data:`PROBE_INTERVAL_S`.

    The library is single-threaded, so a query due while a call is in
    flight is answered at the next call boundary.  Latency runs from the
    due time to the answer; the result lag runs from the hand-off of the
    newest record the answer reflects (the start of the call that applied
    it) to the answer.

    After answering, the probe also runs one reference slice
    (:func:`common.reference_slice`) to sample the machine's speed; the
    time spent in slices is kept in :attr:`slice_s` and left out of the
    timed span.
    """

    def __init__(self, ask: Callable[[], object], start: float) -> None:
        self.ask = ask
        self.next_due = start + PROBE_INTERVAL_S
        self.latencies: List[float] = []
        self.lags: List[float] = []
        self.slices: List[float] = []
        self.slice_s = 0.0

    def serve(self, handoff: Optional[float]) -> None:
        clock = time.perf_counter
        if self.next_due > clock():
            return
        while self.next_due <= clock():
            self.ask()
            answered = clock()
            self.latencies.append(answered - self.next_due)
            if handoff is not None:
                self.lags.append(answered - handoff)
            self.next_due += PROBE_INTERVAL_S
        began = clock()
        self.slices.append(common.reference_slice())
        self.slice_s += clock() - began


def run_batch(estimator, edges: Sequence, probe: Probe) -> None:
    """``process_stream`` over the stream's batches, probing between them."""

    class _Batches:
        # The EdgeStream batch protocol process_stream consumes.
        def iter_batches(self, size: int):
            handoff = None
            for start in range(0, len(edges), size):
                probe.serve(handoff)
                handoff = time.perf_counter()
                yield edges[start : start + size]
            probe.serve(handoff)

    estimator.process_stream(_Batches(), batch_size=BATCH_SIZE)


def run_per_edge(estimator, edges: Sequence, probe: Probe) -> None:
    """One ``process_edge`` call per record, probing between calls."""
    process_edge = estimator.process_edge
    clock = time.perf_counter
    handoff = clock()
    for u, v in edges:
        process_edge(u, v)
        now = clock()
        if now >= probe.next_due:
            probe.serve(handoff)
            now = clock()
        handoff = now


def run_monitor(monitor, chunks: Sequence, probe: Probe, emits: List[float], windows: list) -> None:
    """Chunks in delivery order, each followed by a watermark tick.

    ``emits`` receives, per closed window, the duration of the call that
    returned it; the probe's answer is the newest closed window.
    """
    clock = time.perf_counter
    latest = None
    for us, vs, ts, newest in chunks:
        for call, args in ((monitor.ingest_columns, (us, vs, ts)), (monitor.advance_watermark, (newest,))):
            begin = clock()
            closed = call(*args)
            end = clock()
            if closed:
                emits.extend([end - begin] * len(closed))
                windows.extend(closed)
                latest = begin
            probe.serve(latest)
