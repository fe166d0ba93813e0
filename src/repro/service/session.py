"""Per-tenant stream sessions: engines, ingest loop, backpressure, lifecycle.

A *session* is one tenant's long-lived estimator (or windowed monitor)
plus the machinery that keeps it healthy inside the service:

* an **engine** — the estimator state behind a uniform ingest/query
  facade (:class:`ReptEngine`, :class:`EstimatorEngine`,
  :class:`MonitorEngine`), built from a JSON-able *engine spec* so the
  wire protocol, checkpoints and recovery all describe engines the same
  way;
* a bounded ``asyncio.Queue`` of edge *frames* with an explicit
  backpressure policy — ``"block"`` (the ``ingest`` response waits for
  queue room, pushing back on the client) or ``"shed"`` (full queue drops
  the frame and counts it);
* a **single-writer ingest loop**: one task owns the engine and consumes
  frames in order, processing each frame synchronously (no awaits
  mid-frame).  Queries run on the same event loop and therefore interleave
  only at frame boundaries — every answer reflects a frame-aligned
  delivered prefix, never a torn mid-frame state, without any locking;
* supervised failure handling: an exception while delivering a frame
  (injectable via the ``service-ingest`` fault site, which fires *before*
  the engine is touched — a faulted frame is dropped whole, never half
  applied) increments the error counters and restarts the loop body until
  the restart budget is exhausted, after which the session degrades to
  ``"failed"`` and rejects further ingestion while still serving queries
  over the delivered prefix;
* durable checkpoints through a per-tenant
  :class:`~repro.durability.checkpoint.CheckpointManager` — periodic (every
  N delivered frames), on demand (the ``checkpoint`` op) and at drain; the
  ``service-checkpoint`` fault site makes checkpoint I/O failures
  injectable, and a failed checkpoint is counted and survived, never
  allowed to kill the ingest loop or tear engine state.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import TriangleEstimate
from repro.baselines.exact import ExactStreamingCounter
from repro.baselines.triest import TriestImprEstimator
from repro.core.config import ReptConfig
from repro.core.state import GroupStateSet
from repro.durability.checkpoint import CheckpointManager
from repro.exceptions import ServiceError
from repro.service.metrics import SessionMetrics
from repro.streaming.monitor import WindowedTriangleMonitor
from repro.streaming.writers import JsonlEdgeLogWriter
from repro.testing.faults import maybe_fail

#: Engine kinds accepted in engine specs.
ENGINE_KINDS = ("rept", "rept-elastic", "exact", "triest", "monitor")

#: Backpressure policies of the ingest queue.
BACKPRESSURE_POLICIES = ("block", "shed")


def validate_engine_spec(spec: object) -> Dict[str, object]:
    """Validate and normalise an engine spec dict; returns a plain copy.

    Specs are JSON-able dicts selected by ``kind``::

        {"kind": "rept", "m": 32, "c": 64, "seed": 7}
        {"kind": "rept-elastic", "m": 32, "c": 64, "seed": 7, "workers": 3}
        {"kind": "exact"}
        {"kind": "triest", "budget": 5000, "seed": 7}
        {"kind": "monitor", "window_seconds": 60.0, "slide_seconds": 60.0,
         "rept": {"m": 32, "c": 64, "seed": 7}}

    The same spec dict travels over the wire (``open``), into checkpoint
    meta, and back out of recovery — so it must stay JSON-round-trippable.
    """
    if not isinstance(spec, dict):
        raise ServiceError(f"engine spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in ENGINE_KINDS:
        raise ServiceError(
            f"unknown engine kind {kind!r}; known: {', '.join(ENGINE_KINDS)}"
        )
    normalised = dict(spec)
    if kind == "rept":
        _require_rept_params(normalised)
    elif kind == "rept-elastic":
        _require_rept_params(normalised)
        workers = normalised.setdefault("workers", 2)
        if not isinstance(workers, int) or workers < 0:
            raise ServiceError(
                "rept-elastic engine spec needs an integer 'workers' >= 0"
            )
    elif kind == "triest":
        if not isinstance(normalised.get("budget"), int) or normalised["budget"] < 1:
            raise ServiceError("triest engine spec needs an integer 'budget' >= 1")
        normalised.setdefault("seed", 0)
    elif kind == "monitor":
        if "window_seconds" not in normalised:
            raise ServiceError("monitor engine spec needs 'window_seconds'")
        rept = normalised.get("rept")
        if not isinstance(rept, dict):
            raise ServiceError("monitor engine spec needs a 'rept' config object")
        _require_rept_params(rept)
    return normalised


def _require_rept_params(params: Dict[str, object]) -> None:
    from repro.core.kernel import KERNEL_CHOICES

    for field in ("m", "c"):
        if not isinstance(params.get(field), int) or params[field] < 1:
            raise ServiceError(f"rept engine spec needs an integer {field!r} >= 1")
    # An unseeded config would resolve a fresh random seed per process,
    # breaking checkpoint/recovery bit-identity — force it explicit.
    if "seed" not in params:
        raise ServiceError("rept engine spec needs an explicit 'seed'")
    kernel = params.get("kernel", "auto")
    if kernel not in KERNEL_CHOICES:
        raise ServiceError(
            f"rept engine spec kernel must be one of {KERNEL_CHOICES}, got {kernel!r}"
        )


def _rept_config(params: Dict[str, object]) -> ReptConfig:
    return ReptConfig(
        m=params["m"],
        c=params["c"],
        seed=params["seed"],
        hash_kind=params.get("hash_kind", "splitmix"),
        track_local=bool(params.get("track_local", True)),
        track_eta=params.get("track_eta"),
        kernel=params.get("kernel", "auto"),
    )


def _frame_pairs(frame: Sequence) -> List[Tuple[object, object]]:
    """Extract ``(u, v)`` pairs from a frame of 2- or 3-element records."""
    pairs: List[Tuple[object, object]] = []
    for record in frame:
        if not isinstance(record, (list, tuple)) or not 2 <= len(record) <= 3:
            raise ServiceError(f"frame record is not [u, v(, t)]: {record!r}")
        pairs.append((record[0], record[1]))
    return pairs


def _frame_timestamped(frame: Sequence) -> List[Tuple[object, object, float]]:
    """Extract ``(u, v, t)`` records; monitor frames must carry timestamps."""
    records: List[Tuple[object, object, float]] = []
    for record in frame:
        if not isinstance(record, (list, tuple)) or len(record) != 3:
            raise ServiceError(
                f"monitor frame record is not [u, v, t]: {record!r}"
            )
        records.append((record[0], record[1], float(record[2])))
    return records


def build_engine(spec: Dict[str, object]) -> "SessionEngine":
    """Build a fresh engine from a validated spec.

    A ``rept`` engine interns into its own table, so its dense ids — and
    the native groups' node columns they size — follow its own stream,
    whatever other tenants ingest.
    """
    kind = spec["kind"]
    if kind == "rept":
        return ReptEngine(spec)
    if kind == "rept-elastic":
        return ElasticReptEngine(spec)
    if kind == "exact":
        return EstimatorEngine(spec, ExactStreamingCounter())
    if kind == "triest":
        return EstimatorEngine(
            spec,
            TriestImprEstimator(
                budget=spec["budget"],
                seed=spec.get("seed", 0),
                track_local=bool(spec.get("track_local", True)),
            ),
        )
    if kind == "monitor":
        return MonitorEngine(spec)
    raise ServiceError(f"unknown engine kind {kind!r}")


class SessionEngine:
    """Uniform facade every session engine implements.

    ``delivered`` counts the stream records fully applied to the engine —
    the session's *delivered prefix*, which is also the ``stream_offset``
    persisted with every checkpoint.  An estimator engine supplies
    :meth:`estimate`, from which the global and local answers are built
    here; the monitor engine answers from its closed windows instead.
    """

    kind: str = "abstract"

    def __init__(self, spec: Dict[str, object]) -> None:
        self.spec = dict(spec)
        self.delivered = 0

    # -- ingest / queries ----------------------------------------------------

    def ingest_frame(self, frame: Sequence) -> int:
        raise NotImplementedError

    def estimate(self) -> TriangleEstimate:
        """The current estimate, which both default answers read."""
        raise NotImplementedError

    def query_global(self) -> Dict[str, object]:
        estimate = self.estimate()
        return {
            "global_count": estimate.global_count,
            "edges_processed": estimate.edges_processed,
            "edges_stored": estimate.edges_stored,
            **self._global_extras(estimate),
        }

    def _global_extras(self, estimate: TriangleEstimate) -> Dict[str, object]:
        """Fields an engine adds to the global answer."""
        return {}

    def query_local(self, nodes: Sequence) -> Dict[str, object]:
        estimate = self.estimate()
        return {
            "counts": [[node, estimate.local_count(node)] for node in nodes],
            "edges_processed": estimate.edges_processed,
        }

    def query_windows(self, since: int) -> List[Dict[str, object]]:
        raise ServiceError(f"engine kind {self.kind!r} has no windowed results")

    def advance_watermark(self, time: float) -> Dict[str, object]:
        raise ServiceError(f"engine kind {self.kind!r} has no watermark")

    @property
    def max_event_time(self) -> Optional[float]:
        """Largest event timestamp delivered (None for untimestamped engines)."""
        return None

    # -- durability ----------------------------------------------------------

    def state_payload(self) -> object:
        raise NotImplementedError

    def restore(self, payload: object, stream_offset: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release engine-held resources (worker processes, files)."""


class ReptEngine(SessionEngine):
    """REPT estimator engine over its own interning table.

    Checkpoints persist the interner-independent
    :meth:`~repro.core.state.GroupStateSet.portable_state`, so a recovered
    process — with a different interning order — restores bit-identically.
    """

    kind = "rept"

    def __init__(self, spec: Dict[str, object]) -> None:
        super().__init__(spec)
        self.config = _rept_config(spec)
        self.state = GroupStateSet(self.config)

    def ingest_frame(self, frame: Sequence) -> int:
        """Advance the state over one frame.

        An all-int ``[u, v]`` frame is encoded as it arrived, in one
        compiled walk (:meth:`~repro.core.state.GroupStateSet.encode_compiled`);
        every other frame goes through :func:`_frame_pairs`.
        """
        state = self.state
        batch = state.encode_compiled(frame)
        if batch is None:
            n = state.process_edges(_frame_pairs(frame))
        else:
            state.ingest_encoded(batch)
            n = batch.n_records
        self.delivered += n
        return n

    def estimate(self) -> TriangleEstimate:
        return self.state.estimate(self.delivered)

    def state_payload(self) -> object:
        return {"portable": self.state.portable_state()}

    def restore(self, payload: object, stream_offset: int) -> None:
        fresh = GroupStateSet(self.config, interner=self.state.interner)
        fresh.restore_portable(payload["portable"])
        self.state = fresh
        self.delivered = stream_offset


class ElasticReptEngine(SessionEngine):
    """REPT engine hosted on the elastic shard coordinator.

    Functionally the same estimator as :class:`ReptEngine`, but the
    processor groups live as shards on a pool of worker processes managed
    by :class:`repro.cluster.ElasticCoordinator` — so the session keeps
    answering bit-identical estimates through worker failures and
    membership changes.  Checkpoints use the coordinator's portable state,
    which is format-compatible with :class:`ReptEngine` checkpoints: a
    session can be recovered onto either engine kind.
    """

    kind = "rept-elastic"

    def __init__(self, spec: Dict[str, object]) -> None:
        super().__init__(spec)
        # Imported lazily so the service layer does not pay the cluster
        # import (multiprocessing machinery) unless an elastic engine is
        # actually built.
        from repro.cluster import ElasticCoordinator

        self.config = _rept_config(spec)
        self.coordinator = ElasticCoordinator(
            self.config, num_workers=int(spec.get("workers", 2))
        )

    def ingest_frame(self, frame: Sequence) -> int:
        pairs = _frame_pairs(frame)
        self.coordinator.submit(pairs)
        self.delivered += len(pairs)
        return len(pairs)

    def estimate(self) -> TriangleEstimate:
        return self.coordinator.estimate()

    def _global_extras(self, estimate: TriangleEstimate) -> Dict[str, object]:
        metadata = estimate.metadata
        return {
            name: int(metadata.get(name, 0))
            for name in ("workers", "worker_deaths", "shard_migrations")
        }

    def state_payload(self) -> object:
        return {"portable": self.coordinator.portable_state()}

    def restore(self, payload: object, stream_offset: int) -> None:
        self.coordinator.restore_portable(
            payload["portable"], edges_processed=stream_offset
        )
        self.delivered = stream_offset

    def close(self) -> None:
        self.coordinator.close()


class EstimatorEngine(SessionEngine):
    """Baseline estimator engine (exact counter, TRIÈST-IMPR).

    The estimator object is self-contained and picklable, so the
    checkpoint payload is simply the estimator itself — reservoir, RNG
    state and counters all travel with it, which is what makes the
    kill-and-recover drill bit-identical for the sampled baselines too.
    """

    def __init__(self, spec: Dict[str, object], estimator) -> None:
        super().__init__(spec)
        self.kind = spec["kind"]
        self.estimator = estimator

    def ingest_frame(self, frame: Sequence) -> int:
        pairs = _frame_pairs(frame)
        self.estimator.process_edges(pairs)
        self.delivered = self.estimator.edges_processed
        return len(pairs)

    def estimate(self) -> TriangleEstimate:
        return self.estimator.estimate()

    def state_payload(self) -> object:
        return {"estimator": self.estimator}

    def restore(self, payload: object, stream_offset: int) -> None:
        self.estimator = payload["estimator"]
        self.delivered = stream_offset


class MonitorEngine(SessionEngine):
    """Sliding-window monitor engine (one REPT state set per open window).

    Frames must carry timestamps.  The service's watermark timer ticks
    :meth:`advance_watermark` with the largest event time seen — possibly
    repeatedly with the same value, which is exactly the re-entrant service
    pattern the monitor's seal path is idempotent against.
    """

    kind = "monitor"

    def __init__(self, spec: Dict[str, object]) -> None:
        super().__init__(spec)
        self.monitor = WindowedTriangleMonitor(
            window_seconds=float(spec["window_seconds"]),
            slide_seconds=(
                float(spec["slide_seconds"]) if "slide_seconds" in spec else None
            ),
            pane_seconds=(
                float(spec["pane_seconds"]) if "pane_seconds" in spec else None
            ),
            config=_rept_config(spec["rept"]),
            allowed_lateness=float(spec.get("allowed_lateness", 0.0)),
            late_policy=spec.get("late_policy", "drop"),
        )
        self._max_time: Optional[float] = None

    def ingest_frame(self, frame: Sequence) -> int:
        records = _frame_timestamped(frame)
        # The monitor rejects non-finite timestamps; the watermark timer
        # ticks with _max_time, so it may only see times the monitor took.
        self.monitor.ingest(records)
        if records:
            newest = max(record[2] for record in records)
            if self._max_time is None or newest > self._max_time:
                self._max_time = newest
        self.delivered += len(records)
        return len(records)

    def query_global(self) -> Dict[str, object]:
        latest = self.monitor.results[-1] if self.monitor.results else None
        return {
            "windows_closed": len(self.monitor.results),
            "late_records": self.monitor.late_records,
            "latest": None if latest is None else _window_json(latest),
        }

    def query_local(self, nodes: Sequence) -> Dict[str, object]:
        latest = self.monitor.results[-1] if self.monitor.results else None
        if latest is None:
            return {"counts": [[node, 0.0] for node in nodes], "window": None}
        estimate = latest.estimate
        return {
            "counts": [[node, estimate.local_count(node)] for node in nodes],
            "window": latest.index,
        }

    def query_windows(self, since: int) -> List[Dict[str, object]]:
        return [
            _window_json(result)
            for result in self.monitor.results
            if result.index >= since
        ]

    def advance_watermark(self, time: float) -> Dict[str, object]:
        closed = self.monitor.advance_watermark(time)
        return {
            "closed": len(closed),
            "windows_closed": len(self.monitor.results),
        }

    @property
    def max_event_time(self) -> Optional[float]:
        return self._max_time

    def state_payload(self) -> object:
        return {"monitor": self.monitor, "max_time": self._max_time}

    def restore(self, payload: object, stream_offset: int) -> None:
        self.monitor = payload["monitor"]
        self._max_time = payload.get("max_time")
        self.delivered = stream_offset


def _window_json(result) -> Dict[str, object]:
    return {
        "index": result.index,
        "start": result.start,
        "end": result.end,
        "records": result.records,
        "complete": result.complete,
        "global_count": result.estimate.global_count,
    }


class StreamSession:
    """One tenant's engine plus queue, ingest loop, metrics and durability.

    The session must be :meth:`start`-ed inside a running event loop; all
    methods are then called from that loop only (the service is
    single-threaded by design — concurrency comes from task interleaving
    at await points, which for the engine means frame boundaries).
    """

    def __init__(
        self,
        tenant: str,
        spec: Dict[str, object],
        engine: SessionEngine,
        queue_frames: int = 64,
        backpressure: str = "block",
        checkpoint_dir=None,
        checkpoint_every_frames: int = 0,
        checkpoint_keep: int = 3,
        restart_limit: int = 3,
        audit_log_path=None,
    ) -> None:
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ServiceError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {backpressure!r}"
            )
        if queue_frames < 1:
            raise ServiceError(f"queue_frames must be >= 1, got {queue_frames}")
        self.tenant = tenant
        self.spec = dict(spec)
        self.engine = engine
        self.backpressure = backpressure
        self.restart_limit = restart_limit
        self.checkpoint_every_frames = checkpoint_every_frames
        self.metrics = SessionMetrics()
        self.state = "running"
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_frames)
        self.checkpoints = (
            CheckpointManager(checkpoint_dir, keep=checkpoint_keep)
            if checkpoint_dir is not None
            else None
        )
        self.audit_log = (
            JsonlEdgeLogWriter(audit_log_path) if audit_log_path is not None else None
        )
        self._task: Optional[asyncio.Task] = None
        self._frames_since_checkpoint = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the single-writer ingest loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._ingest_loop(), name=f"ingest:{self.tenant}"
            )

    def recover(self, strict: bool = False) -> int:
        """Restore the engine from the newest valid checkpoint, if any.

        Returns the recovered stream offset (0 = fresh start).  Must run
        before :meth:`start` delivers any frame.
        """
        if self.checkpoints is None:
            return 0
        report = self.checkpoints.recover(strict=strict)
        if report.checkpoint is None:
            return 0
        checkpoint = report.checkpoint
        meta_spec = checkpoint.meta.get("engine")
        if meta_spec is not None and meta_spec != self.spec:
            raise ServiceError(
                f"checkpoint for tenant {self.tenant!r} was written by engine "
                f"{meta_spec!r}, session opened with {self.spec!r}"
            )
        self.engine.restore(checkpoint.payload, checkpoint.stream_offset)
        return checkpoint.stream_offset

    async def drain(self) -> None:
        """Stop admitting frames, deliver everything queued, checkpoint, close."""
        if self.state == "running":
            self.state = "draining"
        await self.queue.join()
        try:
            self.checkpoint()
        except ServiceError:
            pass  # already counted; drain must still complete
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self.audit_log is not None:
            self.audit_log.close()
        self.engine.close()
        self.state = "closed"

    # -- ingestion -----------------------------------------------------------

    async def offer(self, frame: Sequence) -> Dict[str, object]:
        """Enqueue one frame under the session's backpressure policy."""
        if self.state != "running":
            raise ServiceError(
                f"session {self.tenant!r} is {self.state}; not accepting frames"
            )
        if self.backpressure == "block":
            await self.queue.put(frame)
        else:
            try:
                self.queue.put_nowait(frame)
            except asyncio.QueueFull:
                self.metrics.record_shed(len(frame))
                return {
                    "accepted": False,
                    "shed": True,
                    "queued": self.queue.qsize(),
                }
        return {"accepted": True, "shed": False, "queued": self.queue.qsize()}

    async def _ingest_loop(self) -> None:
        while True:
            frame = await self.queue.get()
            try:
                if self.state != "failed":
                    self._deliver(frame)
                else:
                    # Exhausted sessions keep draining (and discarding) so
                    # queue.join() at shutdown can still complete.
                    self.metrics.dropped_frames += 1
            except Exception:
                self.metrics.ingest_errors += 1
                self.metrics.dropped_frames += 1
                if self.metrics.restarts < self.restart_limit:
                    # Supervised restart: the faulted frame was dropped
                    # before any engine mutation, the loop carries on.
                    self.metrics.restarts += 1
                else:
                    self.state = "failed"
            finally:
                self.queue.task_done()

    def _deliver(self, frame: Sequence) -> None:
        maybe_fail("service-ingest", tenant=self.tenant)
        n = self.engine.ingest_frame(frame)
        self.metrics.record_frame(n)
        if self.audit_log is not None:
            self.audit_log.append_batch(frame)
        self._frames_since_checkpoint += 1
        if (
            self.checkpoint_every_frames
            and self._frames_since_checkpoint >= self.checkpoint_every_frames
        ):
            try:
                self.checkpoint()
            except ServiceError:
                pass  # counted in metrics; periodic checkpointing retries later

    # -- durability ----------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Write one durable checkpoint of the engine's delivered prefix.

        Runs synchronously on the event loop: the engine cannot be mutated
        mid-serialisation because the single writer only runs at await
        points.  Failures (including injected ``service-checkpoint``
        faults) are counted and re-raised as :class:`ServiceError`; earlier
        generations are never damaged by a failed write.
        """
        if self.checkpoints is None:
            return {"enabled": False}
        self._frames_since_checkpoint = 0
        try:
            maybe_fail("service-checkpoint", tenant=self.tenant)
            if self.audit_log is not None:
                self.audit_log.flush(sync=True)
            checkpoint = self.checkpoints.save(
                self.engine.state_payload(),
                stream_offset=self.engine.delivered,
                meta={"tenant": self.tenant, "engine": self.spec},
            )
        except Exception as exc:
            self.metrics.checkpoint_failures += 1
            raise ServiceError(
                f"checkpoint failed for tenant {self.tenant!r}: {exc}"
            ) from exc
        self.metrics.checkpoints_written += 1
        return {
            "enabled": True,
            "generation": checkpoint.generation,
            "stream_offset": checkpoint.stream_offset,
        }

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        payload = self.metrics.to_json(queue_depth=self.queue.qsize())
        payload.update(
            {
                "tenant": self.tenant,
                "state": self.state,
                "engine": self.engine.kind,
                "delivered": self.engine.delivered,
            }
        )
        return payload
