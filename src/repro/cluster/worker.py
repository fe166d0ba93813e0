"""Shard-hosting worker runtime for the elastic coordinator.

One worker process hosts any number of :class:`ShardState` objects — each
a single processor group plus its own stream-global first-occurrence set —
and serves an ordered command protocol over a ``multiprocessing`` pipe.
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

from typing import Dict, Optional, Sequence, Set

from repro.core import portable
from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.core.state import first_flags
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
        #: First-occurrence scope.  Per-shard (not per-worker!) so the flags
        #: survive migration: a shard's ``seen`` travels in its portable
        #: state, while the other shards on the same worker keep their own.
        #: Holds packed pair keys (see :func:`~repro.core.interning.pack_pair`).
        self.seen: Set[int] = set()
        self.applied_seq = 0

    # -- ingestion ------------------------------------------------------------

    def apply_encoded(self, seq: int, cu, cv, edge_keys) -> bool:
        """Advance the shard with one encoded batch; False = already applied.

        ``cu``/``cv``/``edge_keys`` come from one per-worker encoding of the
        raw batch (shared across all shards the worker hosts); first flags
        are derived per shard, and the shard's group hashes the keys to its
        slots.  The sequence guard makes WAL replay after migration
        idempotent.
        """
        if seq <= self.applied_seq:
            return False
        if cu:
            firsts = first_flags(self.seen, cu, cv)
            self.group.process_encoded(cu, cv, edge_keys, firsts)
        self.applied_seq = seq
        return True

    def apply_raw(self, seq: int, edges: Sequence) -> bool:
        """Encode and apply one raw batch (inline-host and test convenience)."""
        cu, cv, _firsts, _n = self.interner.encode_pairs(edges, None)
        edge_keys = self.interner.edge_key_array(cu, cv) if cu else None
        return self.apply_encoded(seq, cu, cv, edge_keys)

    # -- migration ------------------------------------------------------------

    def portable(self) -> Dict[str, object]:
        """Picklable state: everything a migration must carry.

        ``snapshot`` and ``seen`` are portable parts (see
        :mod:`repro.core.portable`), which the coordinator assembles as
        they are.
        """
        return {
            "shard_id": self.shard_id,
            "applied_seq": self.applied_seq,
            "snapshot": self.group.snapshot(),
            "seen": portable.seen_part(self.interner.nodes, self.seen),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`portable` payload produced on any worker.

        The parts are checked before anything changes; payloads in the
        dict form of earlier versions (older per-shard checkpoints) are
        read too.
        """
        if state["shard_id"] != self.shard_id:
            raise ValueError(
                f"portable state is for shard {state['shard_id']}, "
                f"this is shard {self.shard_id}"
            )
        parts, seen = portable.read_parts(
            [state["snapshot"]], state["seen"], [(self.group.group_size, self.group.m)]
        )
        (delta,), seen = portable.intern_parts(parts, seen, self.interner)
        self.group.reset()
        self.group.merge_deltas(delta)
        self.seen = seen
        self.applied_seq = int(state["applied_seq"])

    # -- aggregates -----------------------------------------------------------

    def summary(self):
        """Raw-keyed :class:`~repro.core.combine.GroupSummary` for this shard."""
        is_complete = (
            self.config.uses_groups and self.group.group_size == self.config.m
        )
        return self.group.summarise(is_complete)


def _encode_batch(interner: NodeInterner, edges: Sequence):
    cu, cv, _firsts, _n = interner.encode_pairs(edges, None)
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
