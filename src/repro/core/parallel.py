"""Execution drivers for REPT: serial, stream-sharded and elastic backends.

The estimator's accuracy is a property of its counters, not of how the
counters are advanced, so the drivers all produce *identical* estimates for
the same :class:`~repro.core.config.ReptConfig` (hash seeds are derived
deterministically from the resolved config seed).  The backends differ only
in how the work is scheduled:

* ``serial`` — one state set advances every group in process (reference
  implementation);
* ``chunked-process`` — the stream-sharded engine: the stream is split into
  chunks and every (group × chunk) pair becomes an independent task on a
  supervised process pool, so parallelism scales with stream length even
  for a single group and no task ever receives more than one chunk of the
  stream;
* ``chunked-serial`` — the same sharded schedule executed inline, used as
  the equality reference for the merge logic and as the zero-overhead
  fallback;
* ``chunked-elastic`` — group shards on long-running worker processes that
  survive worker death and join by live migration (see
  :mod:`repro.cluster`).

Shard-then-merge design
-----------------------
REPT's counters are mergeable (the paper's core point), and the chunked
backends exploit the precise form of that mergeability:

1. **Storing pass** (cheap, parallel over groups × chunks): which edges land
   in which processor's sampled set depends only on the hash function and
   the distinct edges seen — never on the counters.  Each storing task
   returns its chunk's stored ``(slot, u, v)`` records; the driver folds
   them into per-chunk-boundary *adjacency snapshots*.
2. **Counting pass** (the hot path, parallel over groups × chunks): each
   task seeds a fresh :class:`~repro.core.state.ProcessorGroup` with the
   snapshot at its chunk boundary (:meth:`ProcessorGroup.seed_adjacency`)
   and advances it over its chunk only.  Because the seeded adjacency is
   exactly the serial algorithm's state at that stream position, every
   closure count is exact, and ``τ``/``τ_v`` merge by pure summation.
3. **Merge** (driver): chunk states fold left-to-right via
   :meth:`ProcessorGroup.merge_snapshot`, which also applies the closed-form
   η cross-chunk correction (η increments are linear in the per-edge
   triangle counters; see :mod:`repro.core.state`).  The result is
   bit-identical to the serial counters — the cross-backend equivalence
   tests assert exact equality, not approximate.

Chunk payloads are passed to pooled workers as index spans into the edge
list (and keys into the boundary-snapshot table) that each pool receives
through its initializer.  The shared stream is staged *columnar*: all-int
streams become two ``int64`` NumPy arrays (see
:func:`repro.streaming.edge_stream.edge_columns`), whose binary buffers
pickle far cheaper than lists of tuples.  Under ``fork`` (Linux) the
initializer arguments are inherited copy-on-write — per-task shipping is
O(1); under ``spawn`` (macOS/Windows) they are pickled once per worker
rather than once per task.  Each pool owns its payload, so concurrent
``run_rept`` calls never share mutable module state.

Workers themselves ingest through the batched pipeline: the storing pass
hashes whole chunks vectorially and the counting pass drives
:meth:`~repro.core.state.ProcessorGroup.process_edges`, so the chunked
backends get the same per-edge-overhead amortisation as the estimator's
batch API (results stay bit-identical — the cross-backend equivalence
tests assert exact equality).

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

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import StreamingTriangleEstimator, TriangleEstimate
from repro.core.combine import GroupSummary, combine_group_estimates
from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.core.state import (
    GroupSnapshot,
    GroupStateSet,
    ProcessorGroup,
    ingest_edge_batches,
)
from repro.durability.retry import RetryPolicy
from repro.exceptions import ConfigurationError, WorkerFailedError
from repro.hashing import make_hash_function
from repro.streaming.edge_stream import edge_columns
from repro.testing.faults import maybe_fail
from repro.types import EdgeTuple, NodeId

ParallelBackend = str
"""One of ``"serial"``, ``"chunked-serial"``, ``"chunked-process"``,
``"chunked-elastic"``."""

_BACKENDS = ("serial", "chunked-serial", "chunked-process", "chunked-elastic")

#: Smallest chunk the auto-tuner will produce; below this the per-task
#: overhead (pickling, pool dispatch, snapshot seeding) dominates the work.
MIN_CHUNK_EDGES = 2048

#: Oversubscription factor of the auto-tuner: aim for about this many tasks
#: per worker per phase so stragglers even out.
_TASKS_PER_WORKER = 4

#: Per-worker-process payload, populated by :func:`_pool_initializer` when a
#: chunked-process pool starts its workers: "edges" holds the materialised
#: stream, "snapshots" the per-(group, chunk) boundary adjacency records.
#: Under fork the initializer arguments are inherited copy-on-write; under
#: spawn they are pickled once per worker.  The parent process never writes
#: this dict, so concurrent runs (each with their own pools) cannot race.
_WORKER_PAYLOAD: Dict[str, object] = {}


def _pool_initializer(edges, snapshots) -> None:
    """Stage the shared payload inside a pool worker process."""
    _WORKER_PAYLOAD["edges"] = edges
    _WORKER_PAYLOAD["snapshots"] = snapshots

#: (slot, u, v) records describing stored edges at a chunk boundary.
StoredEdgeRecord = Tuple[int, NodeId, NodeId]


def _make_group(
    hash_kind: str,
    hash_seed: int,
    group_size: int,
    m: int,
    track_local: bool,
    track_eta: bool,
    kernel: str = "python",
) -> ProcessorGroup:
    # Local import: repro.core.adjacency imports this module's sibling
    # (state); resolving lazily keeps the worker-unpickling path light.
    from repro.core.adjacency import make_processor_group

    return make_processor_group(
        hash_function=make_hash_function(hash_kind, buckets=m, seed=hash_seed),
        group_size=group_size,
        m=m,
        track_local=track_local,
        track_eta=track_eta,
        kernel=kernel,
    )


#: Edges per ``ProcessorGroup.process_edges`` call inside workers — bounds
#: the transient encode arrays without giving up the batch amortisation.
_WORKER_BATCH_EDGES = 65536


def _work_items(config: ReptConfig) -> List[Tuple[int, int]]:
    """Return ``(hash_seed, group_size)`` per group."""
    return list(zip(config.group_hash_seeds(), config.group_sizes()))


# -- chunked engine ----------------------------------------------------------


def _stage_columns(edge_list: List[EdgeTuple]):
    """Stage an edge list for pool shipping: columnar where possible."""
    return ("columns",) + edge_columns(edge_list)


def _resolve_edges(payload) -> Sequence[EdgeTuple]:
    """Resolve a task payload: an explicit edge list, or a span into the
    pool-shared stream.

    The shared stream is stored as endpoint columns; int64 column slices
    round-trip through ``tolist()`` so workers see plain Python ints (the
    hash and interning layers key on exact types).
    """
    if isinstance(payload, tuple):
        start, stop = payload
        us, vs = _WORKER_PAYLOAD["edges"][1:]  # type: ignore[index]
        us = us[start:stop]
        vs = vs[start:stop]
        if isinstance(us, np.ndarray):
            us = us.tolist()
            vs = vs.tolist()
        return list(zip(us, vs))
    return payload


def _resolve_stored(ref) -> Sequence[StoredEdgeRecord]:
    """Resolve a boundary-snapshot reference: an explicit record list, or a
    (group, chunk) key into the pool-shared snapshot table."""
    if isinstance(ref, tuple) and ref and ref[0] == "shared":
        return _WORKER_PAYLOAD["snapshots"][ref[1:]]  # type: ignore[index]
    return ref


def _storing_worker(
    payload,
    hash_kind: str,
    hash_seed: int,
    group_size: int,
    m: int,
    task_key: Optional[Tuple[int, int]] = None,
) -> List[StoredEdgeRecord]:
    """Storing pass over one chunk for one group.

    Returns the chunk's distinct stored edges (canonical orientation) with
    their processor slots, in arrival order.  The whole chunk is hashed
    vectorially; cross-chunk deduplication happens in the driver when
    boundary snapshots are assembled.
    """
    if task_key is not None:
        maybe_fail("storing-worker", group=task_key[0], chunk=task_key[1])
    hash_function = make_hash_function(hash_kind, buckets=m, seed=hash_seed)
    interner = NodeInterner()
    cu, cv, firsts, _ = interner.encode_pairs(_resolve_edges(payload), set())
    if not cu:
        return []
    slots = hash_function.bucket_from_keys(interner.edge_key_array(cu, cv)).tolist()
    nodes = interner.nodes
    stored: List[StoredEdgeRecord] = []
    for iu, iv, slot, first in zip(cu, cv, slots, firsts):
        if first and slot < group_size:
            # encode_pairs emits canonical orientation, so (nodes[iu],
            # nodes[iv]) is exactly canonical_edge(u, v).
            stored.append((slot, nodes[iu], nodes[iv]))
    return stored


def _chunk_counting_worker(
    payload,
    snapshot_ref,
    hash_kind: str,
    hash_seed: int,
    group_size: int,
    m: int,
    track_local: bool,
    track_eta: bool,
    kernel: str = "python",
    task_key: Optional[Tuple[int, int]] = None,
) -> GroupSnapshot:
    """Counting pass over one chunk for one group, seeded with the boundary
    adjacency, returning the chunk's counter deltas as a group snapshot."""
    if task_key is not None:
        maybe_fail("counting-worker", group=task_key[0], chunk=task_key[1])
    group = _make_group(
        hash_kind, hash_seed, group_size, m, track_local, track_eta, kernel
    )
    group.seed_adjacency(_resolve_stored(snapshot_ref))
    ingest_edge_batches(
        group, _resolve_edges(payload), batch_edges=_WORKER_BATCH_EDGES
    )
    return group.snapshot()


def auto_chunk_size(n_edges: int, workers: int, num_groups: int) -> int:
    """Pick a chunk size from stream length and worker count.

    Aims for roughly ``_TASKS_PER_WORKER`` tasks per worker per phase
    (tasks = groups × chunks) so stragglers even out, while never producing
    chunks smaller than :data:`MIN_CHUNK_EDGES`, below which task overhead
    dominates the counting work.
    """
    if n_edges <= 0:
        return 1
    target_tasks = max(1, _TASKS_PER_WORKER * max(1, workers))
    num_chunks = max(1, target_tasks // max(1, num_groups))
    size = -(-n_edges // num_chunks)  # ceil division
    return max(1, min(n_edges, max(MIN_CHUNK_EDGES, size)))


def _chunk_spans(n_edges: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Split ``range(n_edges)`` into consecutive ``(start, stop)`` spans."""
    if n_edges <= 0:
        return [(0, 0)]
    return [
        (start, min(start + chunk_size, n_edges))
        for start in range(0, n_edges, chunk_size)
    ]


def _prefix_snapshots(
    stored_per_chunk: Sequence[Sequence[StoredEdgeRecord]],
    initial: Optional[Sequence[StoredEdgeRecord]] = None,
) -> List[List[StoredEdgeRecord]]:
    """Turn per-chunk stored-edge lists into per-chunk *boundary* snapshots.

    Snapshot ``k`` holds the distinct stored edges of chunks ``0..k-1``
    (first arrival wins — the slot is hash-determined, so duplicates across
    chunks agree on it and are simply dropped).  ``initial`` seeds the
    prefix with edges stored *before* this stream segment (the
    checkpointed-state case of :func:`advance_state_chunked`): they join
    every boundary snapshot and suppress re-storing of re-arrivals.
    """
    snapshots: List[List[StoredEdgeRecord]] = []
    seen: set = set()
    prefix: List[StoredEdgeRecord] = []
    if initial:
        for slot, u, v in initial:
            seen.add((u, v))
            prefix.append((slot, u, v))
    for stored in stored_per_chunk:
        snapshots.append(list(prefix))
        for slot, u, v in stored:
            if (u, v) in seen:
                continue
            seen.add((u, v))
            prefix.append((slot, u, v))
    return snapshots


# -- worker supervision ------------------------------------------------------


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the pooled drivers respond to failing, dying, or hung workers.

    Attributes
    ----------
    retry:
        Per-chunk-task retry budget and backoff (jitter is deterministic;
        each task derives its own jitter seed from its (group, chunk) key).
    worker_timeout:
        Seconds the driver waits for *any* pooled task to complete before
        declaring the pool hung and restarting it.  ``None`` disables hang
        detection (a hung worker then blocks forever, as before).
    max_pool_restarts:
        How many times a broken or hung pool is rebuilt before the phase
        degrades (pool death cannot be attributed to one task, so it is
        budgeted per phase, not per task).
    allow_inline_fallback:
        When a task exhausts its retries or the pool-restart budget runs
        out, execute the remaining tasks on the driver's own inline path
        (graceful degradation — slower, but the run completes with
        bit-identical results).  ``False`` raises
        :class:`~repro.exceptions.WorkerFailedError` instead.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    worker_timeout: Optional[float] = None
    max_pool_restarts: int = 2
    allow_inline_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_pool_restarts < 0:
            raise ConfigurationError(
                f"max_pool_restarts must be >= 0, got {self.max_pool_restarts}"
            )
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ConfigurationError(
                f"worker_timeout must be positive, got {self.worker_timeout}"
            )


#: Supervision applied when callers pass none: modest retries, restartable
#: pools, inline fallback on persistent failure, no hang detection.
DEFAULT_SUPERVISION = SupervisionPolicy()

#: Fresh per-run supervision counters (merged into estimate metadata).
def _new_supervision_stats() -> Dict[str, float]:
    return {"worker_retries": 0.0, "pool_restarts": 0.0, "degraded": 0.0}


def _task_jitter_seed(base: int, key: Tuple[int, int]) -> int:
    """Decorrelate per-task retry jitter without losing determinism."""
    return (base * 1000003 + key[0] * 8191 + key[1]) & 0x7FFFFFFF


def task_retry_delays(
    policy: SupervisionPolicy, key: Tuple[int, int]
) -> List[float]:
    """The complete backoff schedule of one (group, chunk) task key.

    A pure function of (policy, key) — deliberately independent of pool
    lifetime, so a task retried after a pool rebuild sleeps exactly the
    delay it would have slept had the pool survived.  Tests pin both the
    same-pool and the post-rebuild retry path against this schedule.
    """
    return policy.retry.reseeded(
        _task_jitter_seed(policy.retry.seed, key)
    ).delays()


def _supervised_phase(
    make_pool: Callable[[], ProcessPoolExecutor],
    tasks: Dict[Tuple[int, int], Tuple[Callable, Tuple]],
    inline_tasks: Dict[Tuple[int, int], Callable[[], object]],
    policy: SupervisionPolicy,
    stats: Dict[str, float],
) -> Dict[Tuple[int, int], object]:
    """Run one phase's tasks on supervised process pools.

    ``tasks`` maps each (group, chunk) key to its pooled ``(fn, args)``;
    ``inline_tasks`` maps the same keys to zero-argument thunks with
    explicitly resolved arguments (the parent never reads
    ``_WORKER_PAYLOAD``, so degraded execution cannot depend on pool
    staging).  Failure handling:

    * a task raising an ordinary exception consumes one retry attempt and
      is resubmitted after its backoff delay; exhausting the budget runs it
      inline (or raises :class:`WorkerFailedError` without fallback);
    * a broken pool (worker death) or a hang (no completion within
      ``worker_timeout``) rebuilds the pool and resubmits every unfinished
      task, budgeted by ``max_pool_restarts``; exhausting that budget
      degrades the whole remainder to inline execution (or raises).

    Results are keyed like ``tasks``; completion order never affects them.
    """
    results: Dict[Tuple[int, int], object] = {}
    pending = set(tasks)
    attempts = {key: 0 for key in tasks}
    # Computed once per phase, never per pool: a rebuild resubmits pending
    # tasks but their attempt counters and backoff schedules carry over,
    # so retry timing is a function of the task key alone.
    delays = {key: task_retry_delays(policy, key) for key in tasks}

    def run_inline(key: Tuple[int, int], cause: Optional[BaseException]) -> None:
        if not policy.allow_inline_fallback:
            raise WorkerFailedError(
                f"chunk task {key} failed {attempts[key]} time(s) and inline "
                "fallback is disabled"
            ) from cause
        stats["degraded"] = 1.0
        results[key] = inline_tasks[key]()
        pending.discard(key)

    pool_restarts = 0
    while pending:
        if pool_restarts > policy.max_pool_restarts:
            if not policy.allow_inline_fallback:
                raise WorkerFailedError(
                    f"worker pool died {pool_restarts} time(s); "
                    f"{len(pending)} task(s) unfinished and inline fallback "
                    "is disabled"
                )
            stats["degraded"] = 1.0
            for key in sorted(pending):
                results[key] = inline_tasks[key]()
            pending.clear()
            break

        pool = make_pool()
        pool_failed = False
        try:
            futures = {}
            for key in sorted(pending):
                fn, args = tasks[key]
                futures[pool.submit(fn, *args)] = key
            not_done = set(futures)
            while not_done:
                done, not_done = wait(
                    not_done, timeout=policy.worker_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Nothing completed within the timeout: the pool is
                    # hung.  Abandon it (shutdown below does not wait).
                    pool_failed = True
                    break
                for future in done:
                    key = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # Worker death poisons every in-flight future; the
                        # culprit task is unknowable, so this is budgeted
                        # as a pool restart, not per-task attempts.
                        pool_failed = True
                        continue
                    except Exception as exc:
                        attempts[key] += 1
                        used = attempts[key] - 1
                        if used < len(delays[key]):
                            stats["worker_retries"] += 1.0
                            time.sleep(delays[key][used])
                            try:
                                fn, args = tasks[key]
                                retry_future = pool.submit(fn, *args)
                            except BaseException:
                                pool_failed = True
                                continue
                            futures[retry_future] = key
                            not_done.add(retry_future)
                        else:
                            run_inline(key, exc)
                        continue
                    results[key] = result
                    pending.discard(key)
                if pool_failed:
                    break
        finally:
            pool.shutdown(wait=not pool_failed, cancel_futures=True)
        if pool_failed and pending:
            pool_restarts += 1
            stats["pool_restarts"] += 1.0
    return results


def _run_chunked(
    edge_list: List[EdgeTuple],
    config: ReptConfig,
    use_processes: bool,
    max_workers: Optional[int],
    chunk_size: Optional[int],
    supervision: Optional[SupervisionPolicy] = None,
) -> Tuple[List[GroupSummary], Dict[str, float]]:
    """Execute the shard-then-merge schedule; returns (summaries, chunk info)."""
    items = _work_items(config)
    track_local = config.track_local
    track_eta = bool(config.track_eta)
    n = len(edge_list)
    workers = max_workers or os.cpu_count() or 1
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    size = chunk_size or auto_chunk_size(n, workers, len(items))
    spans = _chunk_spans(n, size)
    stats = _new_supervision_stats()
    info = {
        "num_chunks": float(len(spans)),
        "chunk_edges_max": float(max(stop - start for start, stop in spans)),
        **stats,
    }

    if len(spans) == 1 or not edge_list:
        # A single chunk degenerates to the in-process schedule: one shared
        # state set advances every group (one encode serves all groups) and
        # the storing pass is skipped entirely.
        state = GroupStateSet(config)
        state.ingest_stream(edge_list, batch_edges=_WORKER_BATCH_EDGES)
        return state.summaries(), info

    if use_processes:
        chunk_states = _chunked_phases_pooled(
            edge_list, config, items, spans, workers, track_local, track_eta,
            supervision=supervision, stats=stats,
        )
        info.update(stats)
    else:
        chunk_states = _chunked_phases_inline(
            edge_list, config, items, spans, track_local, track_eta
        )

    # Fold the chunk states left-to-right into one fresh state set (the η
    # cross-chunk correction is applied inside each group merge).
    merged = GroupStateSet(config)
    for chunk_index in range(len(spans)):
        merged.merge_snapshots(
            [
                chunk_states[(group_index, chunk_index)]
                for group_index in range(len(items))
            ]
        )
    return merged.summaries(), info


def _chunked_phases_inline(
    edge_list: List[EdgeTuple],
    config: ReptConfig,
    items: Sequence[Tuple[int, int]],
    spans: Sequence[Tuple[int, int]],
    track_local: bool,
    track_eta: bool,
    initial_stored: Optional[List[List[StoredEdgeRecord]]] = None,
) -> Dict[Tuple[int, int], GroupSnapshot]:
    """Run both chunked phases inline (the ``chunked-serial`` backend).

    ``initial_stored`` (one record list per group) seeds the boundary
    snapshots with edges stored before this stream segment — the
    checkpointed-state continuation of :func:`advance_state_chunked`.
    """
    chunk_states: Dict[Tuple[int, int], GroupSnapshot] = {}
    stored_all: Dict[int, List[List[StoredEdgeRecord]]] = {}
    for group_index, (seed, group_size) in enumerate(items):
        stored_all[group_index] = [
            _storing_worker(
                edge_list[start:stop], config.hash_kind, seed, group_size,
                config.m, (group_index, chunk_index),
            )
            for chunk_index, (start, stop) in enumerate(spans)
        ]
    for group_index, (seed, group_size) in enumerate(items):
        snapshots = _prefix_snapshots(
            stored_all[group_index],
            initial=initial_stored[group_index] if initial_stored else None,
        )
        for chunk_index, (start, stop) in enumerate(spans):
            chunk_states[(group_index, chunk_index)] = _chunk_counting_worker(
                edge_list[start:stop],
                snapshots[chunk_index],
                config.hash_kind,
                seed,
                group_size,
                config.m,
                track_local,
                track_eta,
                config.kernel,
                (group_index, chunk_index),
            )
    return chunk_states


def _chunked_phases_pooled(
    edge_list: List[EdgeTuple],
    config: ReptConfig,
    items: Sequence[Tuple[int, int]],
    spans: Sequence[Tuple[int, int]],
    workers: int,
    track_local: bool,
    track_eta: bool,
    initial_stored: Optional[List[List[StoredEdgeRecord]]] = None,
    supervision: Optional[SupervisionPolicy] = None,
    stats: Optional[Dict[str, float]] = None,
) -> Dict[Tuple[int, int], GroupSnapshot]:
    """Run both chunked phases on supervised process pools (the
    ``chunked-process`` backend).  Each pool receives its payload through
    its initializer — inherited copy-on-write under fork, pickled once per
    worker under spawn — and tasks carry only spans and snapshot keys.
    Pools are rebuilt by the supervisor on worker death or hang, so the
    initializer also re-runs; the inline fallback thunks resolve explicit
    edge slices instead (the parent never writes ``_WORKER_PAYLOAD``)."""
    policy = supervision if supervision is not None else DEFAULT_SUPERVISION
    stats = stats if stats is not None else _new_supervision_stats()
    use_fork = "fork" in multiprocessing.get_all_start_methods()
    mp_context = multiprocessing.get_context("fork") if use_fork else None
    num_tasks = len(items) * len(spans)
    pool_size = max(1, min(workers, num_tasks))
    staged = _stage_columns(edge_list)

    def make_pool(initargs):
        def factory() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=pool_size,
                mp_context=mp_context,
                initializer=_pool_initializer,
                initargs=initargs,
            )
        return factory

    # Phase 1: storing pass.
    storing_tasks = {}
    storing_inline = {}
    for group_index, (seed, group_size) in enumerate(items):
        for chunk_index, span in enumerate(spans):
            key = (group_index, chunk_index)
            storing_tasks[key] = (
                _storing_worker,
                (span, config.hash_kind, seed, group_size, config.m, key),
            )
            storing_inline[key] = (
                lambda s=span, sd=seed, gs=group_size, k=key: _storing_worker(
                    edge_list[s[0] : s[1]], config.hash_kind, sd, gs, config.m, k
                )
            )
    storing_results = _supervised_phase(
        make_pool((staged, None)), storing_tasks, storing_inline, policy, stats
    )
    stored_all = {
        group_index: [
            storing_results[(group_index, chunk_index)]
            for chunk_index in range(len(spans))
        ]
        for group_index in range(len(items))
    }

    snapshot_table = {
        (group_index, chunk_index): snapshot
        for group_index in range(len(items))
        for chunk_index, snapshot in enumerate(
            _prefix_snapshots(
                stored_all[group_index],
                initial=initial_stored[group_index] if initial_stored else None,
            )
        )
    }

    # Phase 2: counting pass, on a fresh pool whose initializer also carries
    # the boundary snapshots.
    counting_tasks = {}
    counting_inline = {}
    for group_index, (seed, group_size) in enumerate(items):
        for chunk_index, span in enumerate(spans):
            key = (group_index, chunk_index)
            counting_tasks[key] = (
                _chunk_counting_worker,
                (
                    span,
                    ("shared", group_index, chunk_index),
                    config.hash_kind,
                    seed,
                    group_size,
                    config.m,
                    track_local,
                    track_eta,
                    config.kernel,
                    key,
                ),
            )
            counting_inline[key] = (
                lambda s=span, sd=seed, gs=group_size, k=key: _chunk_counting_worker(
                    edge_list[s[0] : s[1]],
                    snapshot_table[k],
                    config.hash_kind,
                    sd,
                    gs,
                    config.m,
                    track_local,
                    track_eta,
                    config.kernel,
                    k,
                )
            )
    return _supervised_phase(
        make_pool((staged, snapshot_table)),
        counting_tasks,
        counting_inline,
        policy,
        stats,
    )


def advance_state_chunked(
    state: GroupStateSet,
    edges: Iterable[EdgeTuple],
    use_processes: bool = False,
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    supervision: Optional[SupervisionPolicy] = None,
) -> Dict[str, float]:
    """Advance a live :class:`GroupStateSet` over one stream segment via the
    shard-then-merge schedule — bit-identical to ingesting the segment
    serially on the same state.

    This is the segmented driver the durability runner builds on: each
    group's boundary snapshots are seeded with the state's *current* stored
    edges (:meth:`ProcessorGroup.stored_edges`), so every counting task
    sees the true cross-segment adjacency, and the per-chunk snapshots are
    folded into ``state`` with the exact η correction.  First-occurrence
    semantics follow the chunked contract (derived from stored adjacency —
    exact, see :meth:`ProcessorGroup.process_edges`), so ``state.seen`` is
    not consulted and not updated; mixing segmented advancement with direct
    ``state.process_edges`` calls on the same state is not supported.

    Returns the chunk/supervision info dict (same keys as the
    ``chunked-*`` backends' estimate metadata).
    """
    config = state.config
    items = _work_items(config)
    edge_list: List[EdgeTuple] = list(edges)
    n = len(edge_list)
    stats = _new_supervision_stats()
    if n == 0:
        return {"num_chunks": 0.0, "chunk_edges_max": 0.0, **stats}
    workers = max_workers or os.cpu_count() or 1
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    size = chunk_size or auto_chunk_size(n, workers, len(items))
    spans = _chunk_spans(n, size)
    initial_stored = [group.stored_edges() for group in state.groups]

    if use_processes and len(spans) > 1:
        chunk_states = _chunked_phases_pooled(
            edge_list, config, items, spans, workers,
            config.track_local, bool(config.track_eta),
            initial_stored=initial_stored, supervision=supervision, stats=stats,
        )
    else:
        chunk_states = _chunked_phases_inline(
            edge_list, config, items, spans,
            config.track_local, bool(config.track_eta),
            initial_stored=initial_stored,
        )

    for chunk_index in range(len(spans)):
        state.merge_snapshots(
            [
                chunk_states[(group_index, chunk_index)]
                for group_index in range(len(items))
            ]
        )
    return {
        "num_chunks": float(len(spans)),
        "chunk_edges_max": float(max(stop - start for start, stop in spans)),
        **stats,
    }


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
        ``"serial"``, ``"chunked-serial"``, ``"chunked-process"`` or
        ``"chunked-elastic"`` (long-running shard workers with
        failure-aware live migration — see :mod:`repro.cluster`).
    max_workers:
        Worker cap for the pooled backends (default: CPU count for
        ``chunked-process``, the number of groups capped at the CPU count
        for ``chunked-elastic``).
    chunk_size:
        Edges per chunk for the chunked backends (default: auto-tuned from
        stream length and worker count, see :func:`auto_chunk_size`).
        Ignored by ``serial``.
    supervision:
        Worker-failure policy for ``"chunked-process"`` (default:
        :data:`DEFAULT_SUPERVISION` — retries with deterministic backoff,
        pool restarts on worker death, inline fallback when both budgets
        run out).  Supervision outcomes surface in the estimate metadata
        (``worker_retries``, ``pool_restarts``, ``degraded``); recovery
        paths reuse inline execution, so supervised results stay
        bit-identical.  Ignored by the other backends.

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
    chunk_info: Dict[str, float] = {}

    if backend == "chunked-elastic":
        return _run_elastic(edge_list, config, max_workers, chunk_size, supervision)

    if backend == "serial":
        # The in-process reference: one shared state set advances every
        # group, so canonicalisation/interning run once per batch for all
        # of them.
        state = GroupStateSet(config)
        state.ingest_stream(edge_list, batch_edges=_WORKER_BATCH_EDGES)
        summaries = state.summaries()
    else:
        summaries, chunk_info = _run_chunked(
            edge_list, config, backend == "chunked-process", max_workers,
            chunk_size, supervision=supervision,
        )

    estimate = combine_group_estimates(
        summaries,
        m=config.m,
        c=config.c,
        edges_processed=len(edge_list),
        track_local=config.track_local,
        eta_tracked=bool(config.track_eta),
    )
    estimate.metadata.update(chunk_info)
    # Resolved in the driver; pool workers re-resolve per process, which is
    # safe because both kernels are bit-identical (the label is descriptive).
    from repro.core.kernel import resolve_kernel

    estimate.metadata["kernel"] = resolve_kernel(
        config.kernel, max(config.group_sizes())
    )
    return estimate


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
        backend: ParallelBackend = "chunked-serial",
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
