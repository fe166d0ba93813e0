"""Seeded, deterministic fault injection for the durability layer.

The harness answers one question reproducibly: *what happens when this
exact operation fails?*  Production code embeds :func:`maybe_fail` hooks at
its failure-prone sites (shard-worker batch apply, checkpoint write,
campaign task execution).  When no plan is armed the hook is a single
dictionary probe — the zero-overhead-when-off guarantee the CI bench gate
asserts.  When a
test (or the ``--chaos`` CLI flag) arms a :class:`FaultPlan`, matching
sites perform the planned action:

* ``"raise"`` — raise :class:`InjectedFault` (a recoverable worker error);
* ``"io-error"`` — raise :class:`OSError` (a failed write);
* ``"exit"`` — ``os._exit(73)``: genuine process death, indistinguishable
  from ``kill -9`` to the parent (no cleanup, no exception propagation);
* ``"hang"`` — sleep ``delay_seconds`` (exercises worker timeouts).

Plans are armed through an environment variable naming a plan directory,
so they survive ``fork``/``spawn`` into worker processes and subprocesses.
Single-firing across *processes* is enforced with atomically-created token
files in the plan directory: the first process to claim a token fires, all
others pass — which is what makes "crash the worker once, then let the
retry succeed" deterministic across worker processes.

Faults select their call two ways, combinable:

* ``match`` — exact keys the call site must present (e.g.
  ``{"worker": 1, "seq": 2}``): deterministic regardless of scheduling
  order, the right tool under parallelism;
* ``skip`` — fire on the (skip+1)-th *matching* call, counted across all
  processes via claimed ordinal tokens: the right tool in serial code.

Instrumented sites (the ``site`` a spec targets):

* ``rept-segment`` / ``estimator-segment`` / ``monitor-segment`` —
  durable-driver segment boundaries (key: ``offset``);
* ``checkpoint-write`` — :meth:`CheckpointManager.save` staging (key:
  ``generation``);
* ``campaign-task`` — campaign engine task execution (key: ``task``);
* ``service-ingest`` / ``service-checkpoint`` — session frame apply and
  periodic checkpoint (key: ``tenant``);
* ``cluster-worker-batch`` — shard-worker batch application (keys:
  ``worker``, ``seq``): ``exit`` kills the worker mid-batch, ``hang``
  trips the coordinator's ``worker_timeout``;
* ``cluster-worker-snapshot`` — shard-worker snapshot command (key:
  ``worker``);
* ``cluster-route`` — the coordinator's batch send, inside its retry
  loop (keys: ``worker``, ``seq``);
* ``cluster-migrate`` — the coordinator's shard placement on a migration
  target, inside its retry loop (key: ``worker``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

PathLike = Union[str, Path]

#: Environment variable naming the armed plan directory.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: File inside the plan directory holding the serialized plan.
PLAN_FILE = "plan.json"

_ACTIONS = ("raise", "io-error", "exit", "hang")

#: Exit status of the ``"exit"`` action — distinctive in waitpid output.
EXIT_STATUS = 73


class InjectedFault(RuntimeError):
    """The error raised by the ``"raise"`` action.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    faults model infrastructure failures (a crashed worker, a flaky disk),
    which the supervision and retry layers must handle exactly like any
    foreign exception.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes
    ----------
    site:
        Name of the :func:`maybe_fail` call site to target.
    action:
        One of ``"raise"``, ``"io-error"``, ``"exit"``, ``"hang"``.
    match:
        Keys the call site must present with equal values; missing or
        different keys mean the call is not a match.  Empty matches every
        call at the site.
    skip:
        Number of matching calls to let through before firing.
    times:
        How many matching calls fire (after ``skip``); further matches pass.
    delay_seconds:
        Sleep duration of the ``"hang"`` action.
    """

    site: str
    action: str = "raise"
    match: Mapping[str, object] = field(default_factory=dict)
    skip: int = 0
    times: int = 1
    delay_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; use {_ACTIONS}")
        if self.skip < 0 or self.times < 1:
            raise ValueError("skip must be >= 0 and times >= 1")

    def to_json(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "action": self.action,
            "match": dict(self.match),
            "skip": self.skip,
            "times": self.times,
            "delay_seconds": self.delay_seconds,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "FaultSpec":
        return cls(
            site=str(data["site"]),
            action=str(data.get("action", "raise")),
            match=dict(data.get("match", {})),
            skip=int(data.get("skip", 0)),
            times=int(data.get("times", 1)),
            delay_seconds=float(data.get("delay_seconds", 30.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A set of :class:`FaultSpec` entries plus the seed they were built from."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def to_json(self) -> Dict[str, object]:
        return {"seed": self.seed, "faults": [f.to_json() for f in self.faults]}

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "FaultPlan":
        return cls(
            faults=tuple(FaultSpec.from_json(f) for f in data.get("faults", ())),
            seed=int(data.get("seed", 0)),
        )

    def write(self, directory: PathLike) -> Path:
        """Serialise the plan into ``directory`` (created if needed)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / PLAN_FILE
        path.write_text(json.dumps(self.to_json(), indent=2), encoding="utf-8")
        return path


@contextmanager
def arm(
    plan: FaultPlan, directory: Optional[PathLike] = None
) -> Iterator[Path]:
    """Arm ``plan`` for the duration of the ``with`` block.

    Writes the plan (and its firing tokens) under ``directory`` — a fresh
    temporary directory when omitted — and exports :data:`PLAN_ENV` so the
    plan reaches worker processes and subprocesses.  Yields the plan
    directory; on exit the previous environment is restored (tokens are
    left behind for post-mortem inspection when an explicit directory was
    given).
    """
    created: Optional[tempfile.TemporaryDirectory] = None
    if directory is None:
        created = tempfile.TemporaryDirectory(prefix="repro-faults-")
        directory = created.name
    directory = Path(directory)
    plan.write(directory)
    previous = os.environ.get(PLAN_ENV)
    os.environ[PLAN_ENV] = str(directory)
    try:
        yield directory
    finally:
        if previous is None:
            os.environ.pop(PLAN_ENV, None)
        else:
            os.environ[PLAN_ENV] = previous
        if created is not None:
            created.cleanup()


#: Per-process plan cache keyed by the plan directory path.
_PLAN_CACHE: Dict[str, FaultPlan] = {}


def _load_plan(directory: str) -> Optional[FaultPlan]:
    plan = _PLAN_CACHE.get(directory)
    if plan is None:
        path = Path(directory) / PLAN_FILE
        try:
            plan = FaultPlan.from_json(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except (OSError, ValueError, KeyError):
            return None
        _PLAN_CACHE[directory] = plan
    return plan


def _claim(directory: Path, token: str) -> bool:
    """Atomically claim ``token``; True for exactly one claimant ever."""
    try:
        fd = os.open(directory / token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _claim_ordinal(directory: Path, prefix: str) -> int:
    """Claim the next call ordinal for ``prefix`` across all processes."""
    ordinal = 0
    while not _claim(directory, f"{prefix}-call-{ordinal}"):
        ordinal += 1
    return ordinal


def maybe_fail(site: str, **key: object) -> None:
    """Fire any armed fault matching ``site`` and ``key``.

    The un-armed fast path is one ``os.environ`` probe — safe to leave in
    hot-ish paths (task entry, file write), though never inside per-edge
    loops.
    """
    directory = os.environ.get(PLAN_ENV)
    if directory is None:
        return
    plan = _load_plan(directory)
    if plan is None:
        return
    plan_dir = Path(directory)
    for index, spec in enumerate(plan.faults):
        if spec.site != site:
            continue
        if any(key.get(k) != v for k, v in spec.match.items()):
            continue
        ordinal = _claim_ordinal(plan_dir, f"fault-{index}")
        if not spec.skip <= ordinal < spec.skip + spec.times:
            continue
        if spec.action == "raise":
            raise InjectedFault(f"injected fault at {site} ({key or 'any'})")
        if spec.action == "io-error":
            raise OSError(f"injected I/O failure at {site} ({key or 'any'})")
        if spec.action == "hang":
            time.sleep(spec.delay_seconds)
            continue
        # "exit": genuine process death — no cleanup, no exception.
        os._exit(EXIT_STATUS)


# -- post-hoc corruption helpers ---------------------------------------------


def truncate_file(path: PathLike, keep_bytes: int) -> None:
    """Truncate ``path`` to its first ``keep_bytes`` bytes (a torn write)."""
    with open(path, "r+b") as handle:
        handle.truncate(max(0, keep_bytes))


def corrupt_file(path: PathLike, seed: int = 0, num_bytes: int = 8) -> None:
    """Deterministically flip ``num_bytes`` byte positions of ``path``.

    Positions and XOR masks derive from ``seed`` via a private RNG, so a
    corruption test observes the same damage on every run.  Empty files are
    left untouched.
    """
    import random

    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        return
    rng = random.Random(seed)
    for _ in range(num_bytes):
        position = rng.randrange(len(data))
        data[position] ^= rng.randrange(1, 256)
    path.write_bytes(bytes(data))
