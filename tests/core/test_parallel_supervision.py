"""Tests for the worker-supervision policies.

:class:`SupervisionPolicy` configures the ``chunked-elastic`` driver's
retries, hang detection and inline fallback; :class:`RetryPolicy` is the
backoff shared by the elastic coordinator and the campaign engine.
:class:`TestSupervisedExecution` injects faults at the cluster sites and
checks that :func:`~repro.core.parallel.run_rept` hands each policy field
to the coordinator, with the estimate bit-identical to the serial
reference.  The coordinator's own recovery paths are exercised in
``tests/cluster``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import ReptConfig
from repro.core.parallel import DEFAULT_SUPERVISION, SupervisionPolicy, run_rept
from repro.durability.retry import RetryPolicy, call_with_retry
from repro.exceptions import ConfigurationError, WorkerFailedError
from repro.testing.faults import FaultPlan, FaultSpec, arm

CONFIG = ReptConfig(m=2, c=4, seed=23, track_local=True)


def _edges(n=600, nodes=40, seed=6):
    rng = random.Random(seed)
    return [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(n)]


EDGES = _edges()

#: Fast retries so fault scenarios don't sleep through real backoff.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)

#: Kills both workers of a two-worker pool, one after the other.
KILL_EVERY_WORKER = FaultPlan(
    faults=(
        FaultSpec(site="cluster-worker-batch", action="exit", match={"worker": 0, "seq": 2}),
        FaultSpec(site="cluster-worker-batch", action="exit", match={"worker": 1, "seq": 4}),
    )
)


def _elastic(policy):
    return run_rept(
        EDGES, CONFIG, backend="chunked-elastic",
        max_workers=2, chunk_size=100, supervision=policy,
    )


def _assert_same(estimate, reference):
    assert estimate.global_count == reference.global_count
    assert estimate.local_counts == reference.local_counts
    assert estimate.edges_stored == reference.edges_stored
    assert estimate.edges_processed == reference.edges_processed


@pytest.fixture(scope="module")
def reference():
    return run_rept(EDGES, CONFIG, backend="serial")


class TestPolicyValidation:
    def test_defaults_are_sane(self):
        assert DEFAULT_SUPERVISION.allow_inline_fallback
        assert DEFAULT_SUPERVISION.worker_timeout is None

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError, match="worker_timeout"):
            SupervisionPolicy(worker_timeout=0.0)


class TestRetryPolicy:
    def test_delay_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, seed=9)
        assert policy.delays() == policy.delays()

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, backoff=4.0, max_delay=5.0, jitter=0.0
        )
        assert policy.delays() == [1.0, 4.0, 5.0, 5.0, 5.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)

    def test_call_with_retry_succeeds_after_failures(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "ok"

        observed = []
        result = call_with_retry(
            flaky,
            RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
            on_retry=lambda attempt, exc: observed.append(attempt),
            sleep=lambda _: None,
        )
        assert result == "ok"
        assert observed == [1, 2]

    def test_call_with_retry_exhausts_and_reraises(self):
        def always_fails():
            raise RuntimeError("permanent")

        with pytest.raises(RuntimeError, match="permanent"):
            call_with_retry(
                always_fails,
                RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
                sleep=lambda _: None,
            )

    def test_call_with_retry_ignores_foreign_exceptions(self):
        calls = []

        def fails_with_value_error():
            calls.append(1)
            raise ValueError("not retryable here")

        with pytest.raises(ValueError):
            call_with_retry(
                fails_with_value_error,
                RetryPolicy(max_attempts=5, base_delay=0.0),
                retry_on=(RuntimeError,),
                sleep=lambda _: None,
            )
        assert len(calls) == 1


class TestSupervisedExecution:
    def test_clean_run_reports_zero_events(self, reference):
        estimate = _elastic(SupervisionPolicy(retry=FAST_RETRY))
        _assert_same(estimate, reference)
        assert estimate.metadata["worker_deaths"] == 0.0
        assert estimate.metadata["shard_migrations"] == 0.0
        assert estimate.metadata["routing_retries"] == 0.0
        assert estimate.metadata["degraded"] == 0.0

    def test_dying_worker_migrates_its_shards(self, reference):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="cluster-worker-batch", action="exit",
                    match={"worker": 1, "seq": 3},
                ),
            )
        )
        with arm(plan):
            estimate = _elastic(SupervisionPolicy(retry=FAST_RETRY))
        _assert_same(estimate, reference)
        assert estimate.metadata["worker_deaths"] == 1.0
        assert estimate.metadata["shard_migrations"] > 0
        assert estimate.metadata["degraded"] == 0.0

    def test_hung_worker_times_out_under_the_policy(self, reference):
        # The coordinator's default timeout is 30 s; only the policy's
        # 0.4 s turns this 20 s hang into a death.
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="cluster-worker-batch", action="hang",
                    match={"worker": 0, "seq": 2}, delay_seconds=20.0,
                ),
            )
        )
        with arm(plan):
            estimate = _elastic(
                SupervisionPolicy(retry=FAST_RETRY, worker_timeout=0.4)
            )
        _assert_same(estimate, reference)
        assert estimate.metadata["worker_deaths"] == 1.0

    def test_policy_retry_reaches_the_router(self, reference):
        plan = FaultPlan(
            faults=(FaultSpec(site="cluster-route", action="io-error", times=2),)
        )
        with arm(plan):
            estimate = _elastic(SupervisionPolicy(retry=FAST_RETRY))
        _assert_same(estimate, reference)
        assert estimate.metadata["routing_retries"] == 2.0
        assert estimate.metadata["worker_deaths"] == 0.0

    def test_policy_without_retries_surfaces_the_route_failure(self):
        # The coordinator's default policy would retry this send; a policy
        # of one attempt must reach the router and let the failure out.
        plan = FaultPlan(
            faults=(FaultSpec(site="cluster-route", action="io-error", times=1),)
        )
        with arm(plan):
            with pytest.raises(OSError, match="cluster-route"):
                _elastic(SupervisionPolicy(retry=RetryPolicy(max_attempts=1)))

    def test_persistent_failure_degrades_to_inline(self, reference):
        with arm(KILL_EVERY_WORKER):
            estimate = _elastic(SupervisionPolicy(retry=FAST_RETRY))
        _assert_same(estimate, reference)
        assert estimate.metadata["worker_deaths"] == 2.0
        assert estimate.metadata["degraded"] == 1.0

    def test_fallback_disabled_raises_worker_failed(self):
        with arm(KILL_EVERY_WORKER):
            with pytest.raises(WorkerFailedError, match="inline fallback"):
                _elastic(
                    SupervisionPolicy(retry=FAST_RETRY, allow_inline_fallback=False)
                )
