"""Load generator of service-mixed: one process, two connections.

Connection A carries the control traffic and a closed-loop ingest: each
tenant has at most one frame in flight and sends its next frame as soon
as the previous one is acknowledged, so the span from the first frame to
the server reporting every record delivered measures capacity at
saturation.  Connection B carries an open-loop query probe: a query is due
every :data:`workloads.PROBE_INTERVAL_S`, alternating ``query_global`` and
``query_local`` over the tenants, and its latency runs from the due time,
so a stalled server also delays every later query.  The probe reports its
own lateness (send time minus due time), so a stalled generator cannot
hide behind it.

Every frame and query is pre-encoded as an NDJSON line before the server
starts; the generator keeps the send time of every frame, from which each
answer's result lag is computed.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from typing import Dict, List

import workloads
from common import resident_bytes

#: Pre-encoded probe queries; at 20 queries/s this covers 200 s of ingest.
PROBE_LINES = 4000


class Plan:
    """Every request line of one repetition, encoded up front."""

    def __init__(self, tenants: List[Dict[str, object]]) -> None:
        self.tenants = tenants
        self.open_lines = [
            workloads.request_line(index + 1, "open", tenant=tenant["name"], engine=tenant["engine"])
            for index, tenant in enumerate(tenants)
        ]
        self.frame_lines = [
            [
                workloads.request_line((index + 1) * 1_000_000 + k, "ingest", tenant=tenant["name"], edges=frame)
                for k, frame in enumerate(tenant["frames"])
            ]
            for index, tenant in enumerate(tenants)
        ]
        self.records = sum(len(frame) for tenant in tenants for frame in tenant["frames"])
        self.probe_lines = []
        self.probe_tenants = []
        for k in range(PROBE_LINES):
            index = k % len(tenants)
            tenant = tenants[index]
            if k % 2 == 0:
                line = workloads.request_line(k, "query_global", tenant=tenant["name"])
            else:
                line = workloads.request_line(
                    k, "query_local", tenant=tenant["name"], nodes=tenant["probe_nodes"]
                )
            self.probe_lines.append(line)
            self.probe_tenants.append(index)


class _Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    async def call(self, line: bytes) -> Dict[str, object]:
        self.writer.write(line)
        await self.writer.drain()
        return json.loads(await self.reader.readline())

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _connect(host: str, port: int) -> _Connection:
    reader, writer = await asyncio.open_connection(host, port)
    return _Connection(reader, writer)


async def _probe(conn: _Connection, plan: Plan, start: float, stop: asyncio.Event) -> List[tuple]:
    """Send due queries until ``stop``; returns (due, sent, answered, tenant, response)."""
    outstanding: deque = deque()
    answers: List[tuple] = []
    all_sent = asyncio.Event()
    sent_count = 0

    async def read_answers() -> None:
        while not (all_sent.is_set() and len(answers) == sent_count):
            line = await conn.reader.readline()
            if not line:
                raise ConnectionError("service closed the probe connection")
            due, sent, tenant = outstanding.popleft()
            answers.append((due, sent, time.perf_counter(), tenant, json.loads(line)))

    reader = asyncio.get_running_loop().create_task(read_answers())
    due = start + workloads.PROBE_INTERVAL_S
    while not stop.is_set():
        delay = due - time.perf_counter()
        if delay > 0:
            try:
                await asyncio.wait_for(stop.wait(), delay)
                break
            except asyncio.TimeoutError:
                pass
        if sent_count >= len(plan.probe_lines):
            raise RuntimeError("query probe ran out of pre-encoded queries")
        outstanding.append((due, time.perf_counter(), plan.probe_tenants[sent_count]))
        conn.writer.write(plan.probe_lines[sent_count])
        sent_count += 1
        await conn.writer.drain()
        due += workloads.PROBE_INTERVAL_S
    all_sent.set()
    if len(answers) < sent_count:
        await reader
    else:
        reader.cancel()
        try:
            await reader
        except asyncio.CancelledError:
            pass
    return answers


async def run_repetition(host: str, port: int, plan: Plan, server_pid: int) -> Dict[str, object]:
    """Open the tenants, drive ingest and the probe, check, then shut down."""
    control = await _connect(host, port)
    query = await _connect(host, port)
    failed = 0
    attempted = 0
    for line in plan.open_lines:
        attempted += 1
        failed += not (await control.call(line)).get("ok")
    opened = time.perf_counter()
    control_ids = iter(range(100, 1_000_000))

    def control_line(op: str, **fields) -> bytes:
        return workloads.request_line(next(control_ids), op, **fields)

    # Window marks for the traced server: hello before the first frame...
    await control.call(control_line("hello"))
    resident_before = resident_bytes(server_pid)
    start = time.perf_counter()
    stop = asyncio.Event()
    probe = asyncio.get_running_loop().create_task(_probe(query, plan, start, stop))

    tenants = len(plan.tenants)
    next_frame = [0] * tenants
    send_times: List[List[float]] = [[] for _ in range(tenants)]
    in_flight: deque = deque()

    def send(index: int) -> None:
        k = next_frame[index]
        control.writer.write(plan.frame_lines[index][k])
        send_times[index].append(time.perf_counter())
        in_flight.append(index)
        next_frame[index] = k + 1

    for index in range(tenants):
        send(index)
    await control.writer.drain()
    while in_flight:
        response = json.loads(await control.reader.readline())
        index = in_flight.popleft()
        attempted += 1
        failed += not (response.get("ok") and response.get("accepted"))
        if next_frame[index] < len(plan.frame_lines[index]):
            send(index)
            await control.writer.drain()
    while True:
        stats = await control.call(control_line("stats"))
        sessions = stats["sessions"]
        if sum(s["delivered"] for s in sessions.values()) >= plan.records:
            break
        await asyncio.sleep(0.001)
    end = time.perf_counter()
    resident_after = resident_bytes(server_pid)
    stop.set()
    answers = await probe
    # ...and hello once every record is delivered.
    await control.call(control_line("hello"))
    for s in sessions.values():
        failed += s["shed_frames"] + s["dropped_frames"] + s["ingest_errors"] + s["checkpoint_failures"]

    latencies = []
    lateness = []
    lags = []
    for due, sent, answered, index, response in answers:
        attempted += 1
        if not response.get("ok"):
            failed += 1
            continue
        latencies.append(answered - due)
        lateness.append(sent - due)
        delivered = response["edges_processed"]
        if delivered:
            frame = -(-delivered // workloads.SERVICE_FRAME) - 1
            lags.append(answered - send_times[index][frame])

    outputs = {}
    for tenant in plan.tenants:
        name = tenant["name"]
        answer = await control.call(control_line("query_global", tenant=name))
        local = await control.call(control_line("query_local", tenant=name, nodes=tenant["probe_nodes"]))
        attempted += 2
        failed += (not answer.get("ok")) + (not local.get("ok"))
        outputs[name] = {
            "global_count": answer.get("global_count"),
            "edges_processed": answer.get("edges_processed"),
            "local_counts": local.get("counts"),
        }
    # Close the probe connection first so the server sees it end before
    # shutdown stops its event loop.
    await query.close()
    await control.call(control_line("shutdown"))
    await control.close()
    return {
        "opened": opened,
        "span_s": end - start,
        "records": plan.records,
        "state_bytes": resident_after - resident_before,
        "latencies": latencies,
        "lags": lags,
        "lateness": lateness,
        "attempted": attempted,
        "failed": failed,
        "outputs": outputs,
    }
