"""Durability layer: checkpointing, recovery, and retry policies.

This package makes long-running runs survivable:

* :mod:`repro.durability.checkpoint` — integrity-checked, generation-
  numbered, atomically-renamed checkpoint files with a manifest, a
  retention policy and a recovery path that skips torn or corrupt files;
* :mod:`repro.durability.retry` — the shared exponential-backoff-with-
  jitter policy used by the elastic coordinator's routing and migration
  retries and the campaign engine's retry-on-task-failure;
* :mod:`repro.durability.runner` — checkpointed drivers (``run_rept_durable``,
  ``run_estimator_durable``, ``run_monitor_durable``) whose resumed runs are
  bit-identical to uninterrupted ones;
* :mod:`repro.durability.wal` — the bounded write-ahead log of stream
  batches that the elastic shard coordinator replays after migrating a
  shard's restore point to a healthy worker.
"""

from repro.durability.checkpoint import (
    Checkpoint,
    CheckpointManager,
    RecoveryReport,
    shard_checkpoint_dir,
)
from repro.durability.retry import RetryPolicy, call_with_retry
from repro.durability.runner import (
    run_estimator_durable,
    run_monitor_durable,
    run_rept_durable,
)
from repro.durability.wal import BatchWAL, WalEntry

__all__ = [
    "BatchWAL",
    "Checkpoint",
    "CheckpointManager",
    "RecoveryReport",
    "RetryPolicy",
    "WalEntry",
    "call_with_retry",
    "run_estimator_durable",
    "run_monitor_durable",
    "run_rept_durable",
    "shard_checkpoint_dir",
]
