"""Exception hierarchy for the REPT reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause
while still letting programming errors (``TypeError`` and friends)
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """An estimator or experiment was configured with invalid parameters.

    Examples: a sampling probability outside ``(0, 1]``, a processor count
    of zero, or a reservoir budget smaller than one edge.  Also a
    ``ValueError`` so callers that predate the hierarchy (and tests written
    against plain ``ValueError``) keep working.
    """


class StreamFormatError(ReproError):
    """An edge-stream file or record could not be parsed."""


class DatasetNotFoundError(ReproError):
    """A dataset name was requested that is not present in the registry."""


class EstimatorStateError(ReproError):
    """An estimator was used in an invalid order.

    For example requesting an estimate before any edge has been processed
    when the estimator requires at least one observation, or feeding edges
    after :meth:`finalize` has been called.
    """


class ExperimentError(ReproError):
    """An experiment specification is inconsistent or failed to run."""


class CheckpointError(ReproError):
    """A checkpoint could not be written or validated.

    Raised by :class:`~repro.durability.checkpoint.CheckpointManager` when
    serialising state fails, the target filesystem rejects the write, or a
    just-written checkpoint fails its own integrity read-back.  A failed
    *write* never corrupts earlier checkpoints — files are staged under a
    temporary name and atomically renamed, so recovery always has the last
    complete generation to fall back on.
    """


class WorkerFailedError(ReproError):
    """Every elastic worker died (or hung) and inline fallback is disabled.

    The ``chunked-elastic`` driver migrates a failed worker's shards to the
    survivors and, once none is left, finishes the stream with the shards
    hosted inline; this error surfaces only when that graceful degradation
    is disabled (``allow_inline_fallback=False``).
    """


class MembershipError(ReproError):
    """A cluster membership change could not be applied.

    Raised by the elastic shard coordinator for invalid membership
    operations: joining a worker id that is already a member, removing an
    unknown worker, or gracefully removing the last live worker (which
    would leave the shard map with no owner — worker *death* degrades to
    inline execution instead, but an operator-requested removal of the
    final worker is refused loudly).
    """


class ShardMigrationError(ReproError):
    """A live shard could not be migrated to a healthy worker.

    Raised when the elastic coordinator exhausts its retry budget moving a
    shard: the restore point (in-memory snapshot or durable checkpoint)
    cannot be materialised on any live worker, or replaying the unacked
    WAL suffix keeps failing.  Migration failures during *worker death*
    recovery degrade to inline execution instead when permitted; this
    error surfaces only once every recovery path is exhausted.
    """


class ServiceError(ReproError):
    """The estimation service could not satisfy a request.

    Covers session-level failures surfaced through the service API: an
    unknown tenant, an engine/spec mismatch on reopen, a session that has
    exhausted its restart budget, or an operation issued against a session
    that is draining or closed.  Transport-visible errors carry the message
    in the response's ``error`` field rather than crossing the wire as an
    exception.
    """


class ProtocolError(ServiceError):
    """A service request or response violates the wire protocol.

    Raised for undecodable frames (not JSON, not an object), missing or
    unknown ``op`` fields, and protocol-version mismatches.  The server
    answers with an error response where it can; the client raises.
    """


class RecoveryError(ReproError):
    """Recovery from checkpoints was requested but could not proceed.

    Raised in ``strict`` recovery when no valid checkpoint exists, or when
    the newest valid checkpoint is incompatible with the requested run
    (different config fingerprint, stream identity, or monitor parameters)
    — silently restarting from scratch would mask operator error, so the
    mismatch is loud instead.
    """
