"""The estimation service: session registry, request dispatch, transports.

:class:`EstimationService` hosts many :class:`~repro.service.session.StreamSession`
objects — one per tenant — on a single asyncio event loop.  Every REPT
engine interns into its own :class:`~repro.core.interning.NodeInterner`,
so a tenant's dense ids, and the node columns sized by them, depend on
its own stream only.

The service is transport-agnostic: :meth:`EstimationService.handle_request`
takes a request dict and returns a response dict (the in-process client
calls it directly); :meth:`serve_tcp` frames the same dispatch over
newline-delimited JSON on a TCP socket, and :meth:`serve_stdio` over
stdin/stdout for subprocess embedding.

Two background timers run while the service is live:

* the **checkpoint timer** periodically checkpoints every running session
  (failures are counted per session and survived);
* the **watermark timer** ticks every monitor engine's watermark with the
  largest event time it has delivered — deliberately re-issuing the same
  value when no new data arrived, which is safe because the monitor's seal
  path is idempotent (see the monitor's service-timer regression tests).
"""

from __future__ import annotations

import asyncio
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ProtocolError, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    validate_request,
)
from repro.service.session import (
    StreamSession,
    build_engine,
    validate_engine_spec,
)

SERVICE_NAME = "rept-estimation-service"


def _fail(code: str, message: str) -> ServiceError:
    error = ServiceError(message)
    error.code = code  # consumed by the dispatcher's error mapping
    return error


class EstimationService:
    """Multi-tenant estimator/monitor host with a dict-in/dict-out API.

    Parameters
    ----------
    checkpoint_root:
        Directory holding one checkpoint subdirectory per tenant.  When
        given, sessions checkpoint durably and :meth:`recover_sessions`
        reopens every tenant found under it on start; None disables
        durability entirely.
    queue_frames / backpressure / checkpoint_every_frames / restart_limit:
        Session defaults; ``open`` may override queue and backpressure per
        tenant.
    checkpoint_interval_seconds / watermark_interval_seconds:
        Periods of the two background timers (None disables a timer).
    """

    def __init__(
        self,
        checkpoint_root=None,
        queue_frames: int = 64,
        backpressure: str = "block",
        checkpoint_every_frames: int = 0,
        checkpoint_interval_seconds: Optional[float] = None,
        watermark_interval_seconds: Optional[float] = None,
        restart_limit: int = 3,
        audit_logs: bool = False,
    ) -> None:
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self.queue_frames = queue_frames
        self.backpressure = backpressure
        self.checkpoint_every_frames = checkpoint_every_frames
        self.checkpoint_interval_seconds = checkpoint_interval_seconds
        self.watermark_interval_seconds = watermark_interval_seconds
        self.restart_limit = restart_limit
        self.audit_logs = audit_logs
        self.sessions: Dict[str, StreamSession] = {}
        self.shutdown_complete = asyncio.Event()
        self._accepting = True
        self._timers: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------------

    def recover_sessions(self) -> List[Tuple[str, int]]:
        """Reopen every tenant with a checkpoint under ``checkpoint_root``.

        Returns ``(tenant, recovered_offset)`` pairs.  Tenants whose
        directory holds no valid checkpoint are skipped (nothing to
        recover); engine specs come from checkpoint meta, so no external
        registry is needed.
        """
        recovered: List[Tuple[str, int]] = []
        if self.checkpoint_root is None or not self.checkpoint_root.is_dir():
            return recovered
        for entry in sorted(self.checkpoint_root.iterdir()):
            if not entry.is_dir() or entry.name in self.sessions:
                continue
            from repro.durability.checkpoint import CheckpointManager

            report = CheckpointManager(entry).recover()
            if report.checkpoint is None:
                continue
            spec = report.checkpoint.meta.get("engine")
            if spec is None:
                continue
            session, offset = self._open_session(entry.name, spec)
            recovered.append((session.tenant, offset))
        return recovered

    def start_timers(self) -> None:
        """Start the periodic checkpoint and watermark-tick timers."""
        loop = asyncio.get_running_loop()
        if self.checkpoint_interval_seconds is not None:
            self._timers.append(
                loop.create_task(
                    self._timer(self.checkpoint_interval_seconds, self._checkpoint_tick),
                    name="service-checkpoint-timer",
                )
            )
        if self.watermark_interval_seconds is not None:
            self._timers.append(
                loop.create_task(
                    self._timer(self.watermark_interval_seconds, self._watermark_tick),
                    name="service-watermark-timer",
                )
            )

    async def _timer(self, interval: float, tick) -> None:
        while True:
            await asyncio.sleep(interval)
            tick()

    def _checkpoint_tick(self) -> None:
        for session in self.sessions.values():
            if session.state == "running":
                try:
                    session.checkpoint()
                except ServiceError:
                    pass  # counted in the session's metrics

    def _watermark_tick(self) -> None:
        for session in self.sessions.values():
            engine = session.engine
            newest = engine.max_event_time
            if newest is not None and session.state in ("running", "draining"):
                try:
                    engine.advance_watermark(newest)
                except ServiceError:
                    pass  # non-monitor engines with timestamps: no watermark

    async def shutdown(self) -> List[str]:
        """Graceful drain: reject new frames, drain every session, stop."""
        self._accepting = False
        drained = []
        for tenant, session in list(self.sessions.items()):
            await session.drain()
            drained.append(tenant)
        for timer in self._timers:
            timer.cancel()
        for timer in self._timers:
            try:
                await timer
            except asyncio.CancelledError:
                pass
        self._timers = []
        self.shutdown_complete.set()
        return drained

    # -- request dispatch ----------------------------------------------------

    async def handle_request(self, request: Dict[str, object]) -> Dict[str, object]:
        """Dispatch one request dict; always returns a response dict."""
        try:
            op = validate_request(request)
        except ProtocolError as exc:
            return error_response(request if isinstance(request, dict) else None,
                                  "bad-request", str(exc))
        try:
            handler = getattr(self, f"_op_{op}")
            return await handler(request)
        except ProtocolError as exc:
            return error_response(request, "bad-request", str(exc))
        except ServiceError as exc:
            return error_response(request, getattr(exc, "code", "internal"), str(exc))
        except Exception as exc:  # the service must answer, not crash
            return error_response(request, "internal", f"{type(exc).__name__}: {exc}")

    def _session(self, request: Dict[str, object]) -> StreamSession:
        tenant = request.get("tenant")
        if not isinstance(tenant, str):
            raise ProtocolError("request needs a string 'tenant' field")
        session = self.sessions.get(tenant)
        if session is None:
            raise _fail("unknown-tenant", f"no open session for tenant {tenant!r}")
        return session

    def _open_session(
        self,
        tenant: str,
        spec: Dict[str, object],
        queue_frames: Optional[int] = None,
        backpressure: Optional[str] = None,
    ) -> Tuple[StreamSession, int]:
        spec = validate_engine_spec(spec)
        checkpoint_dir = (
            self.checkpoint_root / tenant if self.checkpoint_root is not None else None
        )
        audit_path = (
            checkpoint_dir / "audit.jsonl"
            if self.audit_logs and checkpoint_dir is not None
            else None
        )
        session = StreamSession(
            tenant=tenant,
            spec=spec,
            engine=build_engine(spec),
            queue_frames=queue_frames or self.queue_frames,
            backpressure=backpressure or self.backpressure,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_frames=self.checkpoint_every_frames,
            restart_limit=self.restart_limit,
            audit_log_path=audit_path,
        )
        offset = session.recover()
        session.start()
        self.sessions[tenant] = session
        return session, offset

    # -- operations ----------------------------------------------------------

    async def _op_hello(self, request):
        return ok_response(
            request,
            server=SERVICE_NAME,
            protocol=PROTOCOL_VERSION,
            sessions=len(self.sessions),
        )

    async def _op_open(self, request):
        if not self._accepting:
            raise _fail("session-closed", "service is shutting down")
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError("open needs a non-empty string 'tenant'")
        if any(sep in tenant for sep in ("/", "\\", "..")):
            raise ProtocolError("tenant names cannot contain path separators")
        existing = self.sessions.get(tenant)
        spec = request.get("engine")
        if existing is not None:
            if spec is not None and validate_engine_spec(spec) != existing.spec:
                raise _fail(
                    "engine-mismatch",
                    f"tenant {tenant!r} is open with engine "
                    f"{existing.spec!r}; reopen must match or omit 'engine'",
                )
            return ok_response(
                request,
                tenant=tenant,
                created=False,
                delivered=existing.engine.delivered,
            )
        if spec is None:
            raise ProtocolError("open of a new tenant needs an 'engine' spec")
        session, offset = self._open_session(
            tenant,
            spec,
            queue_frames=request.get("queue_frames"),
            backpressure=request.get("backpressure"),
        )
        return ok_response(
            request,
            tenant=tenant,
            created=True,
            recovered=offset > 0,
            delivered=session.engine.delivered,
        )

    async def _op_ingest(self, request):
        if not self._accepting:
            raise _fail("session-closed", "service is shutting down")
        session = self._session(request)
        frame = request.get("records", request.get("edges"))
        if not isinstance(frame, list):
            raise ProtocolError("ingest needs a list 'edges' or 'records' frame")
        outcome = await session.offer(frame)
        return ok_response(request, **outcome)

    async def _op_query_global(self, request):
        session = self._session(request)
        started = time.perf_counter()
        result = session.engine.query_global()
        session.metrics.record_query(time.perf_counter() - started)
        return ok_response(request, **result)

    async def _op_query_local(self, request):
        session = self._session(request)
        nodes = request.get("nodes")
        if not isinstance(nodes, list):
            raise ProtocolError("query_local needs a list 'nodes'")
        started = time.perf_counter()
        result = session.engine.query_local(nodes)
        session.metrics.record_query(time.perf_counter() - started)
        return ok_response(request, **result)

    async def _op_query_windows(self, request):
        session = self._session(request)
        since = request.get("since", 0)
        if not isinstance(since, int):
            raise ProtocolError("query_windows 'since' must be an int")
        started = time.perf_counter()
        windows = session.engine.query_windows(since)
        session.metrics.record_query(time.perf_counter() - started)
        return ok_response(request, windows=windows)

    async def _op_advance_watermark(self, request):
        session = self._session(request)
        value = request.get("time")
        if not isinstance(value, (int, float)):
            raise ProtocolError("advance_watermark needs a numeric 'time'")
        result = session.engine.advance_watermark(float(value))
        return ok_response(request, **result)

    async def _op_stats(self, request):
        tenant = request.get("tenant")
        if tenant is not None:
            session = self._session(request)
            return ok_response(request, stats=session.stats())
        per_tenant = {
            name: session.stats() for name, session in self.sessions.items()
        }
        aggregate = {
            "sessions": len(per_tenant),
            "ingested_records": sum(s["ingested_records"] for s in per_tenant.values()),
            "ingest_eps": sum(s["ingest_eps"] for s in per_tenant.values()),
            "shed_frames": sum(s["shed_frames"] for s in per_tenant.values()),
            "ingest_errors": sum(s["ingest_errors"] for s in per_tenant.values()),
            "checkpoint_failures": sum(
                s["checkpoint_failures"] for s in per_tenant.values()
            ),
        }
        return ok_response(request, sessions=per_tenant, aggregate=aggregate)

    async def _op_checkpoint(self, request):
        tenant = request.get("tenant")
        sessions = (
            [self._session(request)]
            if tenant is not None
            else list(self.sessions.values())
        )
        results = {}
        failures = 0
        for session in sessions:
            try:
                results[session.tenant] = session.checkpoint()
            except ServiceError as exc:
                failures += 1
                results[session.tenant] = {"enabled": True, "error": str(exc)}
        if failures and tenant is not None:
            raise _fail("checkpoint-failed", str(results[tenant].get("error")))
        return ok_response(request, checkpoints=results, failures=failures)

    async def _op_shutdown(self, request):
        drained = await self.shutdown()
        return ok_response(request, drained=drained)

    # -- transports ----------------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Start the TCP listener; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        return self._server.sockets[0].getsockname()[:2]

    async def wait_closed(self) -> None:
        """Block until shutdown completes, then close the listener."""
        await self.shutdown_complete.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_line(line)
                except ProtocolError as exc:
                    writer.write(
                        encode_line(error_response(None, "bad-request", str(exc)))
                    )
                    await writer.drain()
                    continue
                response = await self.handle_request(request)
                writer.write(encode_line(response))
                await writer.drain()
                if request.get("op") == "shutdown" and response.get("ok"):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-conversation; nothing to clean up
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def serve_stdio(self) -> None:
        """Serve requests line-by-line over stdin/stdout until EOF/shutdown.

        Intended for subprocess embedding: the parent writes request lines
        to our stdin and reads response lines from our stdout.  stdin is
        consumed through an executor thread so the event loop (and the
        ingest loops) stay free while waiting for input.
        """
        loop = asyncio.get_running_loop()
        stdout = sys.stdout
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                await self.shutdown()
                return
            if not line.strip():
                continue
            request = None
            try:
                request = decode_line(line.encode("utf-8"))
            except ProtocolError as exc:
                response = error_response(None, "bad-request", str(exc))
            else:
                response = await self.handle_request(request)
            stdout.write(encode_line(response).decode("utf-8"))
            stdout.flush()
            if isinstance(request, dict) and request.get("op") == "shutdown":
                return
