"""Elastic shard runtime: live migration of processor-group shards.

One shard = one processor group of a :class:`~repro.core.config.ReptConfig`,
held as the :class:`~repro.core.state.GroupStateSet` of that one group, so
a shard encodes, ingests, snapshots, restores and summarises exactly as the
serial driver's state set does.
The :class:`ShardMap` owns the versioned shard → worker assignment with
deterministic minimal-movement rebalancing; :mod:`repro.cluster.worker`
hosts shards in worker processes behind an ordered pipe protocol; and the
:class:`ElasticCoordinator` routes sequence-numbered batches, detects
worker death and hang, and migrates live shards (restore point + bounded
WAL replay) so estimates stay bit-identical to the serial driver through
kills, joins, and rebalances.
"""

from repro.cluster.coordinator import ElasticCoordinator
from repro.cluster.shard_map import ShardMap
from repro.cluster.worker import ShardState, worker_main

__all__ = [
    "ElasticCoordinator",
    "ShardMap",
    "ShardState",
    "worker_main",
]
