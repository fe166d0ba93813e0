"""Exponential backoff with deterministic jitter.

One policy object serves every retry loop in the package — the elastic
coordinator's batch routing and shard migration
(:mod:`repro.cluster.coordinator`, configured through
:class:`~repro.core.parallel.SupervisionPolicy`) and the campaign engine's
retry-on-task-failure (:mod:`repro.experiments.campaign.engine`) — so their
behaviour under repeated failure is tuned in exactly one place.

Jitter is *deterministic*: each policy derives a private
:class:`random.Random` from its ``seed``, so a test that injects a fault on
attempt N observes the same delay schedule on every run.  Pass a different
seed per call site (e.g. derived from the task key) to decorrelate retry
storms without losing reproducibility.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.exceptions import ConfigurationError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait between attempts.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first (1 = no retries).
    base_delay:
        Delay before the first retry, in seconds.
    backoff:
        Multiplier applied to the delay after every failed attempt.
    max_delay:
        Ceiling on any single delay (applied before jitter).
    jitter:
        Fraction of the delay drawn uniformly at random and *added*:
        the actual sleep is ``delay * (1 + U[0, jitter])``.  0 disables it.
    seed:
        Seed of the private jitter RNG — the delay schedule is a pure
        function of (policy, attempt sequence).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1, got {self.backoff}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays(self) -> "list[float]":
        """The jittered delay before each retry (``max_attempts - 1`` values)."""
        rng = random.Random(self.seed)
        delays = []
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            bounded = min(delay, self.max_delay)
            delays.append(bounded * (1.0 + rng.random() * self.jitter))
            delay *= self.backoff
        return delays


def call_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` under ``policy``; return its result or re-raise.

    Exceptions matching ``retry_on`` consume an attempt and trigger the
    next backoff delay; anything else propagates immediately.  ``on_retry``
    (if given) observes ``(attempt_number, exception)`` before each sleep —
    the elastic coordinator uses it to count retries in run metadata.  The
    final failure re-raises the last exception unchanged so callers keep
    the original type and traceback.
    """
    delays = policy.delays()
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except retry_on as exc:
            if attempt >= len(delays):
                raise
            if on_retry is not None:
                on_retry(attempt + 1, exc)
            sleep(delays[attempt])
    raise AssertionError("unreachable")  # pragma: no cover
