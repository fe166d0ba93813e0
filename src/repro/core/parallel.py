"""Execution drivers for REPT: the serial and elastic backends.

The estimator's accuracy is a property of its counters, not of how the
counters are advanced, so the drivers produce *identical* estimates for the
same :class:`~repro.core.config.ReptConfig` (hash seeds are derived
deterministically from the resolved config seed).  REPT parallelises by
giving each of its ``c`` processors the whole stream, in groups that share
one hash function, so work is divided only by processor group — every
group sees every record.  The backends differ only in where the groups
run:

* ``serial`` — one :class:`~repro.core.state.GroupStateSet` advances every
  group in process, encoding and hashing each batch once for all of them
  (the reference implementation);
* ``chunked-elastic`` — group shards on long-running worker processes that
  survive worker death and join by live migration (see
  :mod:`repro.cluster`); the stream reaches them in batches of
  ``chunk_size`` records.

Counted-edge semantics
----------------------
All drivers follow the library-wide contract documented on
:class:`~repro.baselines.base.StreamingTriangleEstimator`: every stream
record — including self-loops and duplicate arrivals — counts toward
``edges_processed``, but self-loops are skipped before any counter or
stored-edge update.  Duplicates *do* drive counter updates (a re-observed
edge closes semi-triangles) while the ``already_stored`` check keeps the
sampled edge sets simple.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.baselines.base import StreamingTriangleEstimator, TriangleEstimate
from repro.core.config import ReptConfig
from repro.core.state import GroupStateSet
from repro.durability.retry import RetryPolicy
from repro.exceptions import ConfigurationError, WorkerFailedError
from repro.types import EdgeTuple, NodeId

ParallelBackend = str
"""One of ``"serial"`` or ``"chunked-elastic"``."""

_BACKENDS = ("serial", "chunked-elastic")

#: Smallest batch the auto-tuner will produce; below this the per-batch
#: overhead (pickling, routing, WAL append) dominates the work.
MIN_CHUNK_EDGES = 2048

#: Oversubscription factor of the auto-tuner: aim for about this many
#: batches per worker so stragglers even out.
_TASKS_PER_WORKER = 4


def auto_chunk_size(n_edges: int, workers: int, num_groups: int) -> int:
    """Pick the elastic batch size from stream length and worker count.

    Aims for roughly ``_TASKS_PER_WORKER`` shard tasks per worker (tasks =
    groups × batches) so stragglers even out, while never producing
    batches smaller than :data:`MIN_CHUNK_EDGES`, below which per-batch
    overhead dominates the counting work.
    """
    if n_edges <= 0:
        return 1
    target_tasks = max(1, _TASKS_PER_WORKER * max(1, workers))
    num_chunks = max(1, target_tasks // max(1, num_groups))
    size = -(-n_edges // num_chunks)  # ceil division
    return max(1, min(n_edges, max(MIN_CHUNK_EDGES, size)))


# -- worker supervision ------------------------------------------------------


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the elastic driver responds to failing, dying, or hung workers.

    Attributes
    ----------
    retry:
        Retry budget and backoff of the coordinator's batch routing and
        shard migration (jitter is deterministic).
    worker_timeout:
        Seconds the coordinator waits for a worker reply before declaring
        it hung and migrating its shards.  ``None`` uses the coordinator's
        30 s default.
    allow_inline_fallback:
        When every worker has died, shards finish the stream hosted inline
        in the driver process (graceful degradation — slower, but the run
        completes with bit-identical results).  ``False`` raises
        :class:`~repro.exceptions.WorkerFailedError` instead.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    worker_timeout: Optional[float] = None
    allow_inline_fallback: bool = True

    def __post_init__(self) -> None:
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ConfigurationError(
                f"worker_timeout must be positive, got {self.worker_timeout}"
            )


#: Supervision applied when callers pass none: modest retries, inline
#: fallback once the pool is empty, the coordinator's default timeout.
DEFAULT_SUPERVISION = SupervisionPolicy()


# -- public driver -----------------------------------------------------------


def _run_elastic(
    edge_list: List[EdgeTuple],
    config: ReptConfig,
    max_workers: Optional[int],
    chunk_size: Optional[int],
    supervision: Optional[SupervisionPolicy],
) -> TriangleEstimate:
    """Drive the stream through the elastic shard coordinator.

    Shards (one per processor group) live on long-running worker processes
    and survive worker death/hang via snapshot restore + WAL replay (see
    :mod:`repro.cluster.coordinator`); the supervision policy supplies the
    retry/backoff and hang-detection budgets.  ``allow_inline_fallback``
    governs the end state: when every worker died and shards finished the
    stream hosted inline, ``False`` turns that degraded-but-correct result
    into :class:`~repro.exceptions.WorkerFailedError`.
    """
    # Local import: repro.cluster builds on core + durability; importing it
    # lazily keeps the core layer import-light and cycle-proof.
    from repro.cluster import ElasticCoordinator

    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    policy = supervision if supervision is not None else DEFAULT_SUPERVISION
    num_groups = len(config.group_sizes())
    workers = max_workers or min(num_groups, os.cpu_count() or 1)
    size = chunk_size or auto_chunk_size(len(edge_list), workers, num_groups)
    timeout = policy.worker_timeout if policy.worker_timeout is not None else 30.0
    with ElasticCoordinator(
        config,
        num_workers=workers,
        worker_timeout=timeout,
        retry=policy.retry,
    ) as coordinator:
        for start in range(0, len(edge_list), size):
            coordinator.submit(edge_list[start : start + size])
        estimate = coordinator.estimate()
    if estimate.metadata.get("degraded") and not policy.allow_inline_fallback:
        raise WorkerFailedError(
            "elastic pool died entirely and inline fallback is disabled "
            f"(worker_deaths={estimate.metadata.get('worker_deaths')})"
        )
    estimate.metadata["chunk_size"] = float(size)
    return estimate


def run_rept(
    edges: Iterable[EdgeTuple],
    config: ReptConfig,
    backend: ParallelBackend = "serial",
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    supervision: Optional[SupervisionPolicy] = None,
) -> TriangleEstimate:
    """Run REPT over ``edges`` with the chosen execution backend.

    Parameters
    ----------
    edges:
        The stream (any iterable of ``(u, v)`` pairs).  It is materialised
        into a list so that every group sees the same sequence; pass a list
        to avoid the copy.
    config:
        REPT parameters.
    backend:
        ``"serial"`` (one in-process state set advances every group) or
        ``"chunked-elastic"`` (processor-group shards on long-running
        worker processes with failure-aware live migration — see
        :mod:`repro.cluster`).
    max_workers:
        Worker cap for ``chunked-elastic`` (default: the number of groups
        capped at the CPU count).  Ignored by ``serial``.
    chunk_size:
        Edges per batch for ``chunked-elastic`` (default: auto-tuned from
        stream length and worker count, see :func:`auto_chunk_size`); must
        be at least 1.  Ignored by ``serial``.
    supervision:
        Worker-failure policy for ``chunked-elastic`` (default:
        :data:`DEFAULT_SUPERVISION`).  Recovery outcomes surface in the
        estimate metadata (``worker_deaths``, ``shard_migrations``,
        ``degraded``); recovery replays the stream into restored shards,
        so results stay bit-identical.  Ignored by ``serial``.

    Returns
    -------
    TriangleEstimate
        Identical (bit-for-bit) across backends for the same config.
    """
    if backend not in _BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {_BACKENDS}"
        )
    edge_list: List[EdgeTuple] = list(edges)
    if backend == "chunked-elastic":
        return _run_elastic(edge_list, config, max_workers, chunk_size, supervision)
    # The in-process reference: one shared state set advances every group,
    # so canonicalisation/interning run once per batch for all of them.
    state = GroupStateSet(config)
    state.ingest_stream(edge_list)
    return state.estimate(edges_processed=len(edge_list))


class DriverBackedRept(StreamingTriangleEstimator):
    """REPT behind the streaming-estimator interface, executed by a driver.

    The one-pass estimators advance counters on every
    :meth:`process_edge`; this adapter instead buffers the stream and runs
    the configured :func:`run_rept` backend when an estimate is requested,
    so the experiment harness can sweep execution backends through the same
    :class:`~repro.experiments.spec.MethodSpec` machinery.  Estimates are
    bit-identical to :class:`~repro.core.rept.ReptEstimator` with the same
    config.
    """

    name = "rept"

    def __init__(
        self,
        config: ReptConfig,
        backend: ParallelBackend = "serial",
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        supervision: Optional[SupervisionPolicy] = None,
    ) -> None:
        super().__init__()
        if backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        self.config = config
        self.backend = backend
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.supervision = supervision
        self._buffer: List[EdgeTuple] = []

    def process_edge(self, u: NodeId, v: NodeId) -> None:
        self._count_edge()
        self._buffer.append((u, v))

    def process_edges(self, edges: Iterable[EdgeTuple]) -> None:
        """Bulk-append a batch to the buffered stream (no per-edge cost)."""
        before = len(self._buffer)
        self._buffer.extend(edges)
        self.edges_processed += len(self._buffer) - before

    def estimate(self) -> TriangleEstimate:
        estimate = run_rept(
            self._buffer,
            self.config,
            backend=self.backend,
            max_workers=self.max_workers,
            chunk_size=self.chunk_size,
            supervision=self.supervision,
        )
        estimate.metadata["algorithm"] = 2.0 if self.config.uses_groups else 1.0
        return estimate

    def describe(self) -> str:
        """Human-readable configuration summary."""
        return f"{self.config.describe()} via backend={self.backend}"
