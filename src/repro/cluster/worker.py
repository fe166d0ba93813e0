"""Shard-hosting worker runtime for the elastic coordinator.

One worker process hosts any number of :class:`ShardState` objects — each
a single processor group, which decides first occurrence from its own
stored edges — and serves an ordered command protocol over a
``multiprocessing`` pipe.
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

from repro.core import portable
from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
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
    """

    def __init__(
        self,
        config: ReptConfig,
        shard_id: int,
        interner: Optional[NodeInterner] = None,
    ) -> None:
        from repro.hashing import make_hash_function

        sizes = config.group_sizes()
        if not 0 <= shard_id < len(sizes):
            raise ValueError(
                f"shard_id {shard_id} out of range for {len(sizes)} groups"
            )
        self.config = config
        self.shard_id = shard_id
        self.interner = interner if interner is not None else NodeInterner()
        hash_function = make_hash_function(
            config.hash_kind,
            buckets=config.m,
            seed=config.group_hash_seeds()[shard_id],
        )
        # Kernel resolution happens here, in the hosting process: compiled
        # handles do not travel, and all kernels are bit-identical, so a
        # shard may migrate between differently-resolved hosts freely.
        from repro.core.adjacency import make_processor_group

        self.group = make_processor_group(
            hash_function=hash_function,
            group_size=sizes[shard_id],
            m=config.m,
            track_local=config.track_local,
            track_eta=bool(config.track_eta),
            interner=self.interner,
            kernel=getattr(config, "kernel", "auto"),
        )
        self.applied_seq = 0

    # -- ingestion ------------------------------------------------------------

    def apply_encoded(self, seq: int, cu, cv, edge_keys) -> bool:
        """Advance the shard with one encoded batch; False = already applied.

        ``cu``/``cv``/``edge_keys`` come from one per-worker encoding of the
        raw batch (shared across all shards the worker hosts); the shard's
        group hashes the keys to its slots and tests first occurrence
        against its own stored edges, which travel with it on migration.
        The sequence guard makes WAL replay after migration idempotent.
        """
        if seq <= self.applied_seq:
            return False
        if cu:
            self.group.process_encoded(cu, cv, edge_keys)
        self.applied_seq = seq
        return True

    def apply_raw(self, seq: int, edges: Sequence) -> bool:
        """Encode and apply one raw batch (inline-host and test convenience)."""
        return self.apply_encoded(seq, *_encode_batch(self.interner, edges))

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
            "snapshot": self.group.snapshot(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`portable` payload produced on any worker.

        The parts are checked before anything changes; payloads earlier
        versions wrote (older per-shard checkpoints, with a ``seen`` part
        and possibly in the dict form) are read too.
        """
        if state["shard_id"] != self.shard_id:
            raise ValueError(
                f"portable state is for shard {state['shard_id']}, "
                f"this is shard {self.shard_id}"
            )
        (part,) = portable.read_parts(
            [state["snapshot"]], [self.group.part_shape], state.get("seen")
        )
        delta = portable.intern_group(part, self.interner)
        self.group.reset()
        self.group.merge_deltas(delta)
        self.applied_seq = int(state["applied_seq"])

    # -- aggregates -----------------------------------------------------------

    def summary(self):
        """Raw-keyed :class:`~repro.core.combine.GroupSummary` for this shard."""
        is_complete = (
            self.config.uses_groups and self.group.group_size == self.config.m
        )
        return self.group.summarise(is_complete)


def _encode_batch(interner: NodeInterner, edges: Sequence):
    cu, cv, _, _ = interner.encode_pairs(edges)
    edge_keys = interner.edge_key_array(cu, cv) if cu else None
    return cu, cv, edge_keys


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
                cu, cv, edge_keys = _encode_batch(interner, edges)
                applied = [
                    shard_id
                    for shard_id in shard_ids
                    if shards[shard_id].apply_encoded(seq, cu, cv, edge_keys)
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
