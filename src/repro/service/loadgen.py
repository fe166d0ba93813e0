"""Multi-tenant load generator for the estimation service.

Drives N tenants concurrently at a target per-tenant edge rate using the
paper's packet-flow workload, with concurrent query tasks measuring
end-to-end query latency while ingestion is running.  The result dict is
what ``BENCH_service.json`` commits and what the CI smoke job asserts a
throughput floor against.

Pacing: each tenant pre-generates its stream (generation cost must not
pollute the ingest measurement), slices it into frames of
``frame_records`` edges, and submits frames no faster than the target
rate; when the service is the bottleneck the ``block`` backpressure policy
makes submission lag the schedule and the *delivered* rate (from session
metrics) is the honest number reported.

Calibration: raw single-thread ``GroupStateSet`` ingest throughput is
measured in the same process (:func:`measure_calibration_eps`) and stored
alongside, so the regression gate compares service-throughput *ratios*
across machines instead of absolute rates — the same trick the batch
ingest-throughput gate uses.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Optional

from repro.core.config import ReptConfig
from repro.core.state import GroupStateSet
from repro.generators.traffic import packet_flow_records

#: Engine spec used by loadgen tenants (and the committed bench).
DEFAULT_ENGINE = {"kind": "rept", "m": 32, "c": 64, "seed": 7}


def tenant_frames(
    tenant_index: int,
    num_records: int,
    frame_records: int,
    duration_seconds: float,
    seed: int,
) -> List[List[List[object]]]:
    """Pre-generate one tenant's stream as wire-ready frames.

    Frames are lists of ``[u, v, t]`` records (JSON-shaped, valid for both
    estimator and monitor engines); each tenant derives an independent
    stream from ``seed`` and its index.
    """
    records = packet_flow_records(
        num_records=num_records,
        duration_seconds=duration_seconds,
        seed=seed + 1000 * tenant_index,
    )
    rows = [[r.u, r.v, r.time] for r in records]
    return [
        rows[start : start + frame_records]
        for start in range(0, len(rows), frame_records)
    ]


async def drive_tenant(
    client,
    tenant: str,
    frames: List[List[List[object]]],
    rate_eps: float,
    deadline: float,
) -> Dict[str, object]:
    """Submit one tenant's frames at ``rate_eps`` until frames or time run out."""
    submitted_records = 0
    shed_frames = 0
    started = time.monotonic()
    for frame in frames:
        now = time.monotonic()
        if now >= deadline:
            break
        # Uniform pacing: the next frame is due when the records submitted
        # so far would take this long at the target rate.
        due = started + submitted_records / rate_eps if rate_eps > 0 else now
        if due > now:
            await asyncio.sleep(min(due - now, deadline - now))
        response = await client.ingest(tenant, frame, timestamped=True)
        if response.get("shed"):
            shed_frames += 1
        submitted_records += len(frame)
    return {
        "tenant": tenant,
        "submitted_records": submitted_records,
        "shed_frames": shed_frames,
        "elapsed_seconds": time.monotonic() - started,
    }


async def query_probe(
    client,
    tenants: List[str],
    stop: asyncio.Event,
    interval_seconds: float = 0.05,
) -> Dict[str, object]:
    """Issue round-robin global/local queries until ``stop`` is set.

    Latencies are measured client-side (request to response), so under the
    TCP transport they include serialisation and the wire — the number an
    operator would actually observe.
    """
    latencies: List[float] = []
    queries = 0
    index = 0
    while not stop.is_set():
        tenant = tenants[index % len(tenants)]
        index += 1
        started = time.perf_counter()
        if index % 2:
            await client.query_global(tenant)
        else:
            await client.query_local(tenant, [0, 1, 2])
        latencies.append(time.perf_counter() - started)
        queries += 1
        try:
            await asyncio.wait_for(stop.wait(), timeout=interval_seconds)
        except asyncio.TimeoutError:
            pass
    latencies.sort()

    def _pct(q: float) -> Optional[float]:
        if not latencies:
            return None
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))] * 1000.0

    return {
        "queries": queries,
        "p50_ms": _pct(0.50),
        "p95_ms": _pct(0.95),
        "p99_ms": _pct(0.99),
    }


async def run_loadgen(
    client_factory: Callable,
    tenants: int = 3,
    duration_seconds: float = 3.0,
    rate_eps: float = 50_000.0,
    frame_records: int = 2000,
    records_per_tenant: Optional[int] = None,
    engine: Optional[dict] = None,
    seed: int = 7,
) -> Dict[str, object]:
    """Run the full load: open tenants, drive them, probe queries, report.

    ``client_factory`` is an async callable returning a fresh client per
    task — one client per tenant plus one for queries and one for control,
    so under TCP each tenant gets its own connection (and its own
    backpressure).  ``rate_eps`` is the *per-tenant* target rate.

    The report's ``aggregate_eps`` is delivered records (from service
    stats) over the wall-clock driving span — the number the bench gate
    checks, honest under both backpressure policies.
    """
    engine = dict(engine or DEFAULT_ENGINE)
    if records_per_tenant is None:
        records_per_tenant = max(int(rate_eps * duration_seconds), frame_records)
    control = await client_factory()
    names = [f"tenant-{i}" for i in range(tenants)]
    for index, name in enumerate(names):
        spec = dict(engine)
        if "seed" in spec:
            spec["seed"] = spec["seed"] + index  # independent sampling per tenant
        await control.open(name, engine=spec)

    all_frames = [
        tenant_frames(i, records_per_tenant, frame_records, duration_seconds, seed)
        for i in range(tenants)
    ]
    stop = asyncio.Event()
    deadline = time.monotonic() + duration_seconds
    started = time.monotonic()

    async def _tenant_task(index: int):
        client = await client_factory()
        try:
            return await drive_tenant(
                client, names[index], all_frames[index], rate_eps, deadline
            )
        finally:
            closer = getattr(client, "close", None)
            if closer is not None:
                await closer()

    query_client = await client_factory()
    probe = asyncio.ensure_future(query_probe(query_client, names, stop))
    tenant_reports = await asyncio.gather(
        *(_tenant_task(i) for i in range(tenants))
    )
    stop.set()
    query_report = await probe
    elapsed = time.monotonic() - started

    stats = await control.stats()
    sessions = stats["sessions"]
    delivered = sum(s["delivered"] for s in sessions.values())
    # Frames still queued at deadline get delivered during shutdown; the
    # rate is measured over the driving span against what is delivered now.
    submitted = sum(r["submitted_records"] for r in tenant_reports)
    report = {
        "tenants": tenants,
        "duration_seconds": duration_seconds,
        "rate_eps_target_per_tenant": rate_eps,
        "frame_records": frame_records,
        "engine": engine,
        "submitted_records": submitted,
        "delivered_records": delivered,
        "aggregate_eps": delivered / max(elapsed, 1e-9),
        "elapsed_seconds": elapsed,
        "shed_frames": sum(s["shed_frames"] for s in sessions.values()),
        "query": query_report,
        "per_tenant": tenant_reports,
        "service_query_latency": {
            name: sessions[name]["query_latency"] for name in names
        },
    }
    for client in (control, query_client):
        closer = getattr(client, "close", None)
        if closer is not None:
            await closer()
    return report


def measure_calibration_eps(
    num_records: int = 100_000, engine: Optional[dict] = None, seed: int = 7
) -> float:
    """Raw single-thread ingest throughput of the bench engine config.

    Measures ``GroupStateSet`` ingest over the same packet-flow workload,
    outside the service entirely — the machine-speed yardstick
    ``BENCH_service.json`` stores as ``calibration_eps`` so the regression
    gate can compare service overhead ratios across hardware.  Each
    8192-record batch is encoded once and its groups advance one after
    another on this thread, as the service's 2000-record frames run them:
    a state-set batch that large would run its groups on threads (see
    :data:`repro.core.kernel.THREAD_FLOOR`), and the yardstick would then
    move with the core count rather than with the machine's speed.
    """
    engine = dict(engine or DEFAULT_ENGINE)
    records = packet_flow_records(num_records=num_records, seed=seed)
    edges = [(r.u, r.v) for r in records]
    config = ReptConfig(
        m=engine["m"], c=engine["c"], seed=engine["seed"],
        hash_kind=engine.get("hash_kind", "splitmix"),
    )
    state = GroupStateSet(config)
    started = time.perf_counter()
    n = 0
    batch = 8192
    for start in range(0, len(edges), batch):
        encoded = state.encode(edges[start : start + batch])
        for group in state.groups:
            group.process_encoded(encoded.cu, encoded.cv, encoded.keys)
        n += encoded.n_records
    elapsed = time.perf_counter() - started
    return n / max(elapsed, 1e-9)
