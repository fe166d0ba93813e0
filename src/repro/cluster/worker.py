"""Shard-hosting worker runtime for the elastic coordinator.

One worker process hosts any number of :class:`ShardState` objects and
serves an ordered command protocol over a ``multiprocessing`` pipe.  A
shard is the :class:`~repro.core.state.GroupStateSet` of one group of the
config: it encodes, ingests, snapshots, restores and summarises exactly
as the serial driver's state set does, and decides first occurrence from
its own stored edges.  The shards a worker hosts share its interning
table and one kernel rule, so the worker encodes each batch once, with
the first shard's state set, and every shard ingests that encoding.
Because every shard's counters depend only on (stream, group hash seed,
group size), a shard computes the same bits on any worker, and a shard
restored from its portable snapshot continues bit-identically even though
the receiving worker's interning order differs (slot assignment keys on
raw node identity throughout).

Idempotence is the replay contract: every batch carries a routing sequence
number, every shard remembers ``applied_seq``, and :meth:`ShardState.apply_encoded`
skips batches at or below it.  The coordinator can therefore replay a WAL
suffix after migration without double-counting, whatever the shard's exact
restore point was.

The command protocol (one pipe per worker, strictly ordered replies):

====================================  =========================================
command                               reply
====================================  =========================================
``("assign", shard_id, portable)``    ``("ok", "assign", shard_id)``
``("batch", seq, epoch, ids, edges)`` ``("ack", seq, epoch, applied_ids)``
``("snapshot", ids)``                 ``("snapshots", {id: portable})``
``("drop", ids)``                     ``("ok", "drop", ids)``
``("summaries",)``                    ``("summaries", {id: (seq, summary)})``
``("ping",)``                         ``("pong", worker_id, shard_ids)``
``("stop",)``                         ``("bye", worker_id)`` then exit
====================================  =========================================

Fault-injection sites ``cluster-worker-batch`` (keys: worker, seq) and
``cluster-worker-snapshot`` (key: worker) let chaos drills kill, hang, or
fail a worker at the two state-bearing moments.  Any exception inside a
command handler is reported as ``("error", message)`` — the coordinator
treats that worker as failed and migrates its shards.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.core.state import EncodedBatch, GroupStateSet
from repro.testing.faults import maybe_fail


class ShardState:
    """One migratable processor-group shard hosted on a worker.

    Parameters
    ----------
    config:
        The REPT configuration; the shard's hash seed and group size are
        derived from it by ``shard_id``, so any process building a
        ShardState from the same config computes identical counters.
    shard_id:
        Group index in ``config.group_sizes()`` — the stable identity the
        shard keeps across migrations.
    interner:
        The hosting worker's shared interning table (private when omitted).

    ``state`` is the :class:`~repro.core.state.GroupStateSet` of the
    shard's one group.  Its kernel is resolved here, in the hosting
    process, by the rule every state set of the config follows: compiled
    handles do not travel, and all kernels are bit-identical, so a shard
    may migrate between differently-resolved hosts freely.
    """

    def __init__(
        self,
        config: ReptConfig,
        shard_id: int,
        interner: Optional[NodeInterner] = None,
    ) -> None:
        self.shard_id = shard_id
        self.state = GroupStateSet(config, interner, group=shard_id)
        self.applied_seq = 0

    # -- ingestion ------------------------------------------------------------

    def apply_encoded(self, seq: int, batch: EncodedBatch) -> bool:
        """Advance the shard with one encoded batch; False = already applied.

        ``batch`` comes from one per-worker encoding of the raw batch
        (shared across all shards the worker hosts); the shard's group
        hashes the keys to its slots and tests first occurrence against its
        own stored edges, which travel with it on migration.  The sequence
        guard makes WAL replay after migration idempotent.
        """
        if seq <= self.applied_seq:
            return False
        self.state.ingest_encoded(batch)
        self.applied_seq = seq
        return True

    def apply_raw(self, seq: int, edges: Sequence) -> bool:
        """Encode and apply one raw batch (WAL replay and test convenience)."""
        return self.apply_encoded(seq, self.state.encode(edges))

    # -- migration ------------------------------------------------------------

    def portable(self) -> Dict[str, object]:
        """Picklable state: everything a migration must carry.

        ``snapshot`` is a portable group part (see
        :mod:`repro.core.portable`), which the coordinator assembles as it
        is.
        """
        return {
            "shard_id": self.shard_id,
            "applied_seq": self.applied_seq,
            "snapshot": self.state.snapshot()[0],
        }

    def restore(self, payload: Dict[str, object]) -> None:
        """Adopt a :meth:`portable` payload produced on any worker.

        The part is checked before anything changes; payloads earlier
        versions wrote (older per-shard checkpoints, with a ``seen`` part
        and possibly in the dict form) are read too.
        """
        if payload["shard_id"] != self.shard_id:
            raise ValueError(
                f"portable state is for shard {payload['shard_id']}, "
                f"this is shard {self.shard_id}"
            )
        self.state.restore_portable(
            {"snapshots": [payload["snapshot"]], "seen": payload.get("seen")}
        )
        self.applied_seq = int(payload["applied_seq"])

    # -- aggregates -----------------------------------------------------------

    def summary(self):
        """Raw-keyed :class:`~repro.core.combine.GroupSummary` for this shard."""
        return self.state.summaries()[0]


def worker_main(conn, worker_id: int, config: ReptConfig) -> None:
    """Blocking command loop of one shard-hosting worker process."""
    interner = NodeInterner()
    shards: Dict[int, ShardState] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        try:
            if op == "assign":
                _, shard_id, portable = message
                shard = ShardState(config, shard_id, interner)
                if portable is not None:
                    shard.restore(portable)
                shards[shard_id] = shard
                conn.send(("ok", "assign", shard_id))
            elif op == "batch":
                _, seq, epoch, shard_ids, edges = message
                maybe_fail("cluster-worker-batch", worker=worker_id, seq=seq)
                # One encoding serves every hosted shard: they share the
                # interner and the kernel rule.
                batch = shards[shard_ids[0]].state.encode(edges) if shard_ids else None
                applied = [
                    shard_id
                    for shard_id in shard_ids
                    if shards[shard_id].apply_encoded(seq, batch)
                ]
                conn.send(("ack", seq, epoch, applied))
            elif op == "snapshot":
                _, shard_ids = message
                maybe_fail("cluster-worker-snapshot", worker=worker_id)
                conn.send(
                    (
                        "snapshots",
                        {sid: shards[sid].portable() for sid in shard_ids},
                    )
                )
            elif op == "drop":
                _, shard_ids = message
                for shard_id in shard_ids:
                    shards.pop(shard_id, None)
                conn.send(("ok", "drop", list(shard_ids)))
            elif op == "summaries":
                conn.send(
                    (
                        "summaries",
                        {
                            shard_id: (shard.applied_seq, shard.summary())
                            for shard_id, shard in shards.items()
                        },
                    )
                )
            elif op == "ping":
                conn.send(("pong", worker_id, sorted(shards)))
            elif op == "stop":
                conn.send(("bye", worker_id))
                break
            else:
                conn.send(("error", f"unknown op {op!r}"))
        except SystemExit:
            raise
        except BaseException as exc:
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except OSError:
                break
    try:
        conn.close()
    except OSError:
        pass
