"""Failure-aware elastic coordination of processor-group shards.

The :class:`ElasticCoordinator` runs one REPT estimation across a dynamic
pool of worker processes, each hosting a subset of the configuration's
processor groups (see :mod:`repro.cluster.worker`).  Every submitted batch
is sequence-numbered, appended to a bounded WAL
(:class:`~repro.durability.wal.BatchWAL`), and routed to each shard's
current owner under the shard map's epoch.  Because every shard consumes
the *full* stream, per-shard counters are independent of placement — the
final estimate is bit-identical to the serial driver no matter how many
times shards moved.

Failure model, in timeline order:

1. **detect** — a worker that closes its pipe (death, ``SIGKILL``,
   ``os._exit``) raises ``EOFError``/``BrokenPipeError`` at the next
   interaction; a worker that stops answering is caught by
   ``conn.poll(worker_timeout)`` (hang).  Error replies (a fault raised
   inside a command handler) are treated the same way: the worker's state
   can no longer be trusted.
2. **migrate** — the dead worker leaves the shard map (epoch bump); each
   orphaned shard is rebuilt on the deterministically-chosen survivor from
   its best *restore point*: the in-memory portable snapshot of the last
   snapshot round, else the shard's durable checkpoint
   (``<base>/shard-NNNN/``), else fresh state.  A restore point is the
   shard's group part alone: the group decides first occurrence from its
   own stored edges, so nothing else has to travel.
3. **replay** — the WAL suffix after the restore point is re-routed to the
   rebuilt shards only; the per-shard ``applied_seq`` guard makes replay
   idempotent, so overshooting (replaying a batch the restore point
   already covers, or one the normal routing loop also delivers) is
   harmless.

Membership is elastic in both directions: :meth:`ElasticCoordinator.add_worker`
live-migrates shards onto a joining worker (snapshot on the donor → restore
on the joiner → drop on the donor), and :meth:`ElasticCoordinator.remove_worker`
drains a worker gracefully.  Degradation is *gradual*: failures shrink the
pool one worker at a time, and only when the pool is empty do shards fall
back to inline hosting in the coordinator process (``degraded`` metadata).
Typed failures are never silent — ``MembershipError`` /
``ShardMigrationError`` are raised to the caller *and* counted in the
estimate metadata (``membership_errors`` / ``migration_errors``).

Fault-injection sites: ``cluster-route`` (coordinator, before each batch
send; retried under the routing :class:`RetryPolicy`) and
``cluster-migrate`` (coordinator, before placing shards on a migration
target; retried, then the target is treated as failed).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.shard_map import ShardMap
from repro.cluster.worker import ShardState, _encode_batch, worker_main
from repro.core import portable
from repro.core.combine import combine_group_estimates
from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.durability.checkpoint import CheckpointManager, shard_checkpoint_dir
from repro.durability.retry import RetryPolicy, call_with_retry
from repro.durability.wal import BatchWAL
from repro.exceptions import CheckpointError, MembershipError, ShardMigrationError
from repro.testing.faults import InjectedFault, maybe_fail


class _WorkerDown(Exception):
    """Internal: worker ``worker_id`` can no longer be trusted (``reason``)."""

    def __init__(self, worker_id: int, reason: str) -> None:
        super().__init__(f"worker {worker_id} down: {reason}")
        self.worker_id = worker_id
        self.reason = reason


@dataclass
class _WorkerHandle:
    worker_id: int
    process: "multiprocessing.process.BaseProcess"
    conn: object
    outstanding: int = 0


_COUNTER_KEYS = (
    "worker_deaths",
    "worker_joins",
    "worker_removals",
    "shard_migrations",
    "routing_retries",
    "snapshot_rounds",
    "checkpoint_failures",
    "membership_errors",
    "migration_errors",
)


class ElasticCoordinator:
    """Route one REPT stream across an elastic pool of shard workers.

    Parameters
    ----------
    config:
        Validated REPT parameters; one shard per processor group.
    num_workers:
        Initial pool size.  0 starts fully inline (degraded from birth) —
        useful for tests, not the intended production mode.
    worker_timeout:
        Seconds to wait for a worker reply before declaring it hung.
    retry:
        Routing/migration retry policy (transient injected failures);
        worker death is never retried — it triggers migration instead.
    snapshot_every:
        Snapshot-round cadence in batches; also the WAL truncation cadence,
        so it bounds replay cost after a failure.
    wal_capacity:
        Retained-suffix bound; exceeding it forces a snapshot round.
    max_inflight:
        Unacknowledged batches tolerated per worker before routing blocks
        on acks (the drain window a migration must wait for).
    checkpoint_base:
        Optional directory for durable per-shard checkpoints
        (``<base>/shard-NNNN/``); snapshots stay purely in memory when
        omitted.
    """

    def __init__(
        self,
        config: ReptConfig,
        num_workers: int = 2,
        *,
        worker_timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        snapshot_every: int = 8,
        wal_capacity: int = 64,
        max_inflight: int = 8,
        checkpoint_base: Optional[str] = None,
    ) -> None:
        if num_workers < 0:
            raise MembershipError(f"num_workers must be >= 0, got {num_workers}")
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.config = config
        self.num_shards = len(config.group_sizes())
        self.worker_timeout = worker_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.snapshot_every = snapshot_every
        self.max_inflight = max_inflight
        self.checkpoint_base = checkpoint_base
        use_fork = "fork" in multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context("fork" if use_fork else None)
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        self._seq = 0
        self._records = 0
        self._closed = False
        self.wal = BatchWAL(capacity=wal_capacity)
        #: shard id -> (applied_seq, portable payload) of the newest snapshot.
        self._restore_points: Dict[int, Tuple[int, Dict[str, object]]] = {}
        self._inline: Dict[int, ShardState] = {}
        self._inline_interner = NodeInterner()
        self.counters: Dict[str, int] = {key: 0 for key in _COUNTER_KEYS}
        for _ in range(num_workers):
            self._spawn()
        self.shard_map = ShardMap(self.num_shards, list(self._workers))
        if self._workers:
            for worker_id, shard_ids in self.shard_map.by_worker().items():
                handle = self._workers[worker_id]
                for shard_id in shard_ids:
                    self._command(handle, ("assign", shard_id, None))
        else:
            for shard_id in range(self.num_shards):
                self._inline[shard_id] = ShardState(
                    config, shard_id, self._inline_interner
                )

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "ElasticCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker gracefully (terminate the unresponsive ones)."""
        if self._closed:
            return
        self._closed = True
        for worker_id in list(self._workers):
            handle = self._workers.get(worker_id)
            if handle is None:
                continue
            try:
                self._command(handle, ("stop",))
            except _WorkerDown:
                pass
            self._dispose(worker_id)

    # -- worker plumbing -------------------------------------------------------

    def _spawn(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=worker_main,
            args=(child_conn, worker_id, self.config),
            daemon=True,
            name=f"rept-shard-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        self._workers[worker_id] = _WorkerHandle(worker_id, process, parent_conn)
        return worker_id

    def _dispose(self, worker_id: int) -> None:
        handle = self._workers.pop(worker_id, None)
        if handle is None:
            return
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=5.0)

    def _send(self, handle: _WorkerHandle, message: tuple) -> None:
        try:
            handle.conn.send(message)
        except (OSError, ValueError) as exc:
            raise _WorkerDown(handle.worker_id, f"send failed: {exc}") from exc
        handle.outstanding += 1

    def _read_reply(self, handle: _WorkerHandle) -> tuple:
        try:
            if not handle.conn.poll(self.worker_timeout):
                raise _WorkerDown(
                    handle.worker_id,
                    f"no reply within worker_timeout={self.worker_timeout}s (hang)",
                )
            reply = handle.conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerDown(handle.worker_id, f"pipe closed: {exc}") from exc
        handle.outstanding -= 1
        if reply[0] == "error":
            raise _WorkerDown(handle.worker_id, f"command failed: {reply[1]}")
        return reply

    def _drain(self, handle: _WorkerHandle) -> None:
        while handle.outstanding:
            self._read_reply(handle)

    def _command(self, handle: _WorkerHandle, message: tuple) -> tuple:
        """Send one command and return *its* reply (replies are ordered)."""
        self._send(handle, message)
        reply: tuple = ()
        while handle.outstanding:
            reply = self._read_reply(handle)
        return reply

    def flush(self) -> None:
        """Harvest every outstanding ack (handling failures found en route)."""
        for worker_id in list(self._workers):
            handle = self._workers.get(worker_id)
            if handle is None or not handle.outstanding:
                continue
            try:
                self._drain(handle)
            except _WorkerDown as down:
                self._handle_worker_failure(down.worker_id, down.reason)

    # -- observability ---------------------------------------------------------

    def worker_ids(self) -> List[int]:
        """Live worker ids, sorted (the shard map's membership view)."""
        return self.shard_map.workers

    def worker_pid(self, worker_id: int) -> int:
        """OS pid of a live worker — the chaos drills' SIGKILL target."""
        handle = self._workers.get(worker_id)
        if handle is None or handle.process.pid is None:
            raise MembershipError(f"worker {worker_id} is not running")
        return handle.process.pid

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL a worker without telling the coordinator (chaos helper).

        The death is *not* handled here — it surfaces at the next routing
        or drain interaction, exactly like an external kill would.
        """
        os.kill(self.worker_pid(worker_id), signal.SIGKILL)

    # -- ingestion -------------------------------------------------------------

    def submit(self, edges: Sequence) -> int:
        """Route one batch to every shard; returns records submitted.

        Counts every record (self-loops and duplicates included), matching
        the serial driver's ``edges_processed`` contract.
        """
        if self._closed:
            raise MembershipError("coordinator is closed")
        batch = list(edges)
        self._seq += 1
        seq = self._seq
        self._records += len(batch)
        self.wal.append(seq, batch)
        self._route(seq, batch)
        if seq % self.snapshot_every == 0 or self.wal.over_capacity:
            self._snapshot_round()
        return len(batch)

    def _route(self, seq: int, batch: list) -> None:
        for worker_id in list(self.shard_map.workers):
            handle = self._workers.get(worker_id)
            shard_ids = self.shard_map.shards_of(worker_id)
            if handle is None or not shard_ids:
                continue
            try:
                self._send_batch(handle, seq, shard_ids, batch)
            except _WorkerDown as down:
                # Migration replays the WAL suffix — which includes this
                # batch — onto the survivors, so the batch is still
                # delivered exactly once per shard.
                self._handle_worker_failure(down.worker_id, down.reason)
        if self._inline:
            self._apply_inline(seq, batch)

    def _send_batch(
        self, handle: _WorkerHandle, seq: int, shard_ids: List[int], batch: list
    ) -> None:
        def attempt() -> None:
            maybe_fail("cluster-route", worker=handle.worker_id, seq=seq)
            self._send(
                handle, ("batch", seq, self.shard_map.epoch, shard_ids, batch)
            )

        call_with_retry(
            attempt,
            self.retry,
            retry_on=(InjectedFault, OSError),
            on_retry=self._count_routing_retry,
        )
        while handle.outstanding > self.max_inflight:
            self._read_reply(handle)

    def _count_routing_retry(self, attempt: int, exc: BaseException) -> None:
        self.counters["routing_retries"] += 1

    def _apply_inline(self, seq: int, batch: list) -> None:
        cu, cv, edge_keys = _encode_batch(self._inline_interner, batch)
        for shard in self._inline.values():
            shard.apply_encoded(seq, cu, cv, edge_keys)

    # -- snapshots / durability ------------------------------------------------

    def _snapshot_round(self) -> None:
        """Refresh every shard's restore point, then truncate the WAL."""
        for worker_id in list(self.shard_map.workers):
            handle = self._workers.get(worker_id)
            shard_ids = self.shard_map.shards_of(worker_id)
            if handle is None or not shard_ids:
                continue
            try:
                _, portables = self._command(handle, ("snapshot", shard_ids))
            except _WorkerDown as down:
                self._handle_worker_failure(down.worker_id, down.reason)
                continue
            for shard_id, point in portables.items():
                self._adopt_restore_point(shard_id, point)
        for shard_id, shard in self._inline.items():
            self._adopt_restore_point(shard_id, shard.portable())
        if len(self._restore_points) == self.num_shards:
            self.wal.truncate_through(
                min(seq for seq, _ in self._restore_points.values())
            )
        self.counters["snapshot_rounds"] += 1

    def _adopt_restore_point(
        self, shard_id: int, point: Dict[str, object]
    ) -> None:
        applied_seq = int(point["applied_seq"])
        known = self._restore_points.get(shard_id)
        if known is not None and known[0] > applied_seq:
            return
        self._restore_points[shard_id] = (applied_seq, point)
        if self.checkpoint_base is not None:
            try:
                manager = CheckpointManager(
                    shard_checkpoint_dir(self.checkpoint_base, shard_id), keep=2
                )
                manager.save(
                    point,
                    stream_offset=applied_seq,
                    meta={
                        "shard_id": shard_id,
                        "m": self.config.m,
                        "c": self.config.c,
                        "seed": self.config.seed,
                    },
                )
            except CheckpointError:
                # Durability is belt-and-braces on top of the in-memory
                # restore point; a failed disk write must not fail routing.
                self.counters["checkpoint_failures"] += 1

    def _restore_point(self, shard_id: int) -> Tuple[int, Optional[Dict[str, object]]]:
        known = self._restore_points.get(shard_id)
        if known is not None:
            return known
        if self.checkpoint_base is not None:
            manager = CheckpointManager(
                shard_checkpoint_dir(self.checkpoint_base, shard_id), keep=2
            )
            report = manager.recover()
            checkpoint = report.checkpoint
            if checkpoint is not None and checkpoint.meta.get("shard_id") == shard_id:
                return (int(checkpoint.stream_offset), checkpoint.payload)
        return (0, None)

    # -- failure handling / migration ------------------------------------------

    def _handle_worker_failure(self, worker_id: int, reason: str) -> None:
        self._dispose(worker_id)
        if worker_id not in self.shard_map.workers:
            return  # already handled (double detection on one worker)
        self.counters["worker_deaths"] += 1
        moves = self.shard_map.remove_worker(worker_id)
        self._migrate(moves)

    def _migrate(self, moves: Dict[int, Optional[int]]) -> None:
        """Rebuild each moved shard on its new owner and replay the WAL suffix."""
        by_target: Dict[Optional[int], List[int]] = {}
        for shard_id, target in sorted(moves.items()):
            by_target.setdefault(target, []).append(shard_id)
        for target in sorted(by_target, key=lambda t: (t is None, t)):
            shard_ids = by_target[target]
            if target is None:
                for shard_id in shard_ids:
                    self._restore_inline(shard_id)
                self.counters["shard_migrations"] += len(shard_ids)
                continue
            handle = self._workers.get(target)
            if handle is None:
                raise ShardMigrationError(
                    f"shard map names worker {target} but it has no process"
                )
            try:
                self._place_shards(handle, shard_ids)
            except _WorkerDown as down:
                # The target itself failed: its removal re-orphans these
                # shards (the map already assigned them to it) plus its own,
                # and recursion places them on the remaining pool.
                self._handle_worker_failure(down.worker_id, down.reason)
                continue
            self.counters["shard_migrations"] += len(shard_ids)

    def _place_shards(self, handle: _WorkerHandle, shard_ids: List[int]) -> None:
        restores = {sid: self._restore_point(sid) for sid in shard_ids}
        min_seq = min(seq for seq, _ in restores.values())
        try:
            entries = self.wal.entries_after(min_seq)
        except LookupError as exc:
            self.counters["migration_errors"] += 1
            raise ShardMigrationError(
                f"cannot migrate shards {shard_ids} to worker "
                f"{handle.worker_id}: {exc}"
            ) from exc

        def attempt() -> None:
            maybe_fail("cluster-migrate", worker=handle.worker_id)

        try:
            call_with_retry(
                attempt,
                self.retry,
                retry_on=(InjectedFault, OSError),
                on_retry=self._count_routing_retry,
            )
        except (InjectedFault, OSError) as exc:
            self.counters["migration_errors"] += 1
            raise _WorkerDown(
                handle.worker_id, f"migration retries exhausted: {exc}"
            ) from exc
        for shard_id in shard_ids:
            self._command(handle, ("assign", shard_id, restores[shard_id][1]))
        epoch = self.shard_map.epoch
        for entry in entries:
            self._send(handle, ("batch", entry.seq, epoch, shard_ids, entry.batch))
            while handle.outstanding > self.max_inflight:
                self._read_reply(handle)
        self._drain(handle)

    def _restore_inline(self, shard_id: int) -> None:
        seq, point = self._restore_point(shard_id)
        shard = ShardState(self.config, shard_id, self._inline_interner)
        if point is not None:
            shard.restore(point)
        try:
            entries = self.wal.entries_after(seq)
        except LookupError as exc:
            self.counters["migration_errors"] += 1
            raise ShardMigrationError(
                f"cannot host shard {shard_id} inline: {exc}"
            ) from exc
        for entry in entries:
            shard.apply_raw(entry.seq, entry.batch)
        self._inline[shard_id] = shard

    # -- membership ------------------------------------------------------------

    def add_worker(self) -> int:
        """Spawn a worker and live-migrate its fair share of shards onto it."""
        if self._closed:
            raise MembershipError("coordinator is closed")
        self.flush()
        worker_id = self._spawn()
        try:
            moves = self.shard_map.add_worker(worker_id)
        except MembershipError:
            self.counters["membership_errors"] += 1
            self._dispose(worker_id)
            raise
        # Freshen the restore points of the moving shards from their donors
        # (a live migration must carry current state, not the last snapshot
        # round's), then place them through the normal migration machinery.
        donors: Dict[Optional[int], List[int]] = {}
        for shard_id, (donor, _target) in moves.items():
            donors.setdefault(donor, []).append(shard_id)
        for donor, shard_ids in donors.items():
            if donor is None:
                for shard_id in shard_ids:
                    shard = self._inline.get(shard_id)
                    if shard is not None:
                        self._adopt_restore_point(shard_id, shard.portable())
                continue
            donor_handle = self._workers.get(donor)
            if donor_handle is None:
                continue
            try:
                _, portables = self._command(donor_handle, ("snapshot", shard_ids))
            except _WorkerDown as down:
                self._handle_worker_failure(down.worker_id, down.reason)
                continue
            for shard_id, point in portables.items():
                self._adopt_restore_point(shard_id, point)
        # Recompute from the map: donor failures above may have re-homed
        # some shards already.
        placement = {
            shard_id: self.shard_map.owner(shard_id)
            for shard_id in moves
            if self.shard_map.owner(shard_id) == worker_id
        }
        self._migrate(placement)
        # Release the moved shards on their (still live) donors.
        for donor, shard_ids in donors.items():
            if donor is None:
                for shard_id in shard_ids:
                    self._inline.pop(shard_id, None)
                continue
            donor_handle = self._workers.get(donor)
            if donor_handle is None:
                continue
            try:
                self._command(donor_handle, ("drop", shard_ids))
            except _WorkerDown as down:
                self._handle_worker_failure(down.worker_id, down.reason)
        self.counters["worker_joins"] += 1
        return worker_id

    def remove_worker(self, worker_id: int) -> None:
        """Gracefully retire a worker, migrating its shards off first.

        Refuses (``MembershipError``) to remove an unknown worker or the
        last live one — worker *death* degrades to inline hosting, but an
        operator-requested removal of the final worker is almost certainly
        a mistake.
        """
        if worker_id not in self.shard_map.workers:
            self.counters["membership_errors"] += 1
            raise MembershipError(f"worker {worker_id} is not a member")
        if len(self.shard_map.workers) == 1:
            self.counters["membership_errors"] += 1
            raise MembershipError(
                "refusing to remove the last live worker; "
                "shard hosting would become inline-only"
            )
        self.flush()
        handle = self._workers.get(worker_id)
        shard_ids = self.shard_map.shards_of(worker_id)
        if handle is not None and shard_ids:
            try:
                _, portables = self._command(handle, ("snapshot", shard_ids))
            except _WorkerDown as down:
                self._handle_worker_failure(down.worker_id, down.reason)
                return
            for shard_id, point in portables.items():
                self._adopt_restore_point(shard_id, point)
        if handle is not None:
            try:
                self._command(handle, ("stop",))
            except _WorkerDown:
                pass
        self._dispose(worker_id)
        moves = self.shard_map.remove_worker(worker_id)
        self._migrate(moves)
        self.counters["worker_removals"] += 1

    # -- aggregates ------------------------------------------------------------

    def estimate(self):
        """Combine every shard's counters into the global TriangleEstimate.

        Read-only with respect to shard state; failures discovered while
        gathering are recovered (migrate + replay) and the gather restarts,
        so the returned estimate always covers every submitted batch.
        """
        self.flush()
        for _ in range(self.num_shards + len(self._workers) + 2):
            summaries = {
                shard_id: shard.summary()
                for shard_id, shard in self._inline.items()
            }
            failed = False
            for worker_id in list(self.shard_map.workers):
                handle = self._workers.get(worker_id)
                if handle is None:
                    continue
                try:
                    _, per_shard = self._command(handle, ("summaries",))
                except _WorkerDown as down:
                    self._handle_worker_failure(down.worker_id, down.reason)
                    failed = True
                    break
                for shard_id, (_applied_seq, summary) in per_shard.items():
                    if shard_id in self.shard_map.shards_of(worker_id):
                        summaries[shard_id] = summary
            if not failed:
                break
        else:
            raise ShardMigrationError(
                "could not gather a consistent summary round: "
                "workers kept failing"
            )
        missing = [s for s in range(self.num_shards) if s not in summaries]
        if missing:
            raise ShardMigrationError(f"no live replica of shards {missing}")
        ordered = [summaries[shard_id] for shard_id in range(self.num_shards)]
        estimate = combine_group_estimates(
            ordered,
            m=self.config.m,
            c=self.config.c,
            edges_processed=self._records,
            track_local=self.config.track_local,
            eta_tracked=bool(self.config.track_eta),
        )
        estimate.metadata.update(
            {key: float(value) for key, value in self.counters.items()}
        )
        estimate.metadata["workers"] = float(len(self.shard_map.workers))
        estimate.metadata["shard_map_epoch"] = float(self.shard_map.epoch)
        estimate.metadata["inline_shards"] = float(len(self._inline))
        estimate.metadata["degraded"] = 1.0 if self._inline else 0.0
        # The coordinator's own resolution; remote hosts re-resolve locally
        # but all kernels are bit-identical, so one label describes the run.
        from repro.core.kernel import resolve_kernel

        estimate.metadata["kernel"] = resolve_kernel(
            getattr(self.config, "kernel", "auto"), max(self.config.group_sizes())
        )
        return estimate

    # -- portable state (service engine) ---------------------------------------

    def portable_state(self) -> Dict[str, object]:
        """Cluster state in :meth:`GroupStateSet.portable_state` format.

        Each shard is one group of the serial state set (it consumes the
        full stream and decides first occurrence from its own stored
        edges), so the result is interchangeable with a serial state set's
        — a checkpoint taken from the cluster restores into a serial engine
        and vice versa.
        """
        self.flush()
        # A worker failing mid-round leaves its shards' restore points one
        # snapshot behind (migration replayed the live state, but the
        # *recorded* point is the older one) — re-run the round until every
        # shard reports the same applied offset.
        for _ in range(self.num_shards + 2):
            self._snapshot_round()
            offsets = {
                seq for seq, _ in (
                    self._restore_points[s] for s in range(self.num_shards)
                )
            }
            if len(offsets) == 1:
                break
        else:
            raise ShardMigrationError(
                f"shards disagree on applied offsets {sorted(offsets)}; "
                "snapshot rounds kept tearing"
            )
        points = [self._restore_points[s][1] for s in range(self.num_shards)]
        return portable.portable_state([point["snapshot"] for point in points])

    def restore_portable(
        self, state: Dict[str, object], edges_processed: Optional[int] = None
    ) -> None:
        """Adopt a portable state (from this cluster or a serial state set).

        The state is checked before any shard changes.
        """
        snapshots = portable.read_state(
            state, [(size, self.config.m) for size in self.config.group_sizes()]
        )
        self.flush()
        for shard_id in range(self.num_shards):
            point = {
                "shard_id": shard_id,
                "applied_seq": self._seq,
                "snapshot": snapshots[shard_id],
            }
            self._restore_points[shard_id] = (self._seq, point)
            owner = self.shard_map.owner(shard_id)
            if owner is None:
                shard = ShardState(self.config, shard_id, self._inline_interner)
                shard.restore(point)
                self._inline[shard_id] = shard
            else:
                handle = self._workers[owner]
                try:
                    self._command(handle, ("assign", shard_id, point))
                except _WorkerDown as down:
                    self._handle_worker_failure(down.worker_id, down.reason)
        self.wal.truncate_through(self.wal.last_seq)
        if edges_processed is not None:
            self._records = int(edges_processed)
