"""The campaign engine: fingerprint, cache, execute, resume.

Execution model:

1. the planner expands the spec into a task graph;
2. every task's fingerprint is computed *up front* (fingerprints depend on
   configs and upstream fingerprints, never on payloads), so cache hits and
   misses are known before anything runs — ``--explain``/``--dry-run`` are
   free;
3. tasks whose fingerprint is already in the store are loaded, not re-run;
   everything else executes — serially or fanned across worker processes —
   and is written to the store atomically on completion.

Because completed tasks persist individually, a campaign killed at any
point resumes from exactly the last completed task: the next run sees
their fingerprints in the store and recomputes only what is missing.
Worker-pool execution is bit-identical to serial execution: every task's
randomness is derived from its config, never from scheduling order.
"""

from __future__ import annotations

import time
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.core import kernel
from repro.durability.retry import RetryPolicy
from repro.exceptions import ExperimentError
from repro.experiments.campaign.fingerprint import CODE_TAG, task_fingerprint
from repro.experiments.campaign.kinds import get_task_kind
from repro.experiments.campaign.planner import Task, TaskGraph, plan_campaign
from repro.experiments.results import ResultStore, _atomic_write_json, encode_value
from repro.experiments.spec import CampaignSpec
from repro.testing.faults import maybe_fail
from repro.utils.tables import format_table

PathLike = Union[str, Path]

#: Task statuses reported by :class:`CampaignReport`.
STATUS_CACHED = "cached"
STATUS_COMPUTED = "computed"
STATUS_STALE = "stale"  # dry-run only: would be computed


@dataclass(frozen=True)
class TaskReport:
    """Outcome of one task in a campaign run."""

    task_id: str
    stage: str
    kind: str
    fingerprint: str
    status: str
    seconds: float = 0.0


@dataclass
class CampaignReport:
    """Summary of one campaign run (what ``--explain`` renders)."""

    campaign: str
    store_root: str
    tasks: List[TaskReport] = field(default_factory=list)
    dry_run: bool = False
    out_dir: Optional[str] = None

    @property
    def num_cached(self) -> int:
        return sum(1 for task in self.tasks if task.status == STATUS_CACHED)

    @property
    def num_computed(self) -> int:
        return sum(1 for task in self.tasks if task.status != STATUS_CACHED)

    def explain_text(self) -> str:
        """Per-task cache hit/miss table plus a one-line summary."""
        rows = [
            [
                task.task_id,
                task.kind,
                task.status,
                round(task.seconds, 3) if task.status == STATUS_COMPUTED else "",
                task.fingerprint[:12],
            ]
            for task in self.tasks
        ]
        verb = "would compute" if self.dry_run else "computed"
        title = (
            f"campaign {self.campaign}: {len(self.tasks)} tasks, "
            f"{self.num_cached} cached, {self.num_computed} {verb}"
        )
        return format_table(
            ["task", "kind", "status", "seconds", "fingerprint"], rows, title=title
        )

    def summary_line(self) -> str:
        verb = "would compute" if self.dry_run else "computed"
        return (
            f"campaign {self.campaign}: {len(self.tasks)} tasks "
            f"({self.num_cached} cached, {self.num_computed} {verb})"
        )


def _execute_task(kind_name: str, config: Mapping, inputs: Mapping):
    """Run one task (possibly inside a worker process)."""
    kind = get_task_kind(kind_name)
    start = time.perf_counter()
    payload = kind.fn(config, inputs)
    return payload, time.perf_counter() - start


def _share_cpus(workers: int) -> None:
    """Pool initializer: each of ``workers`` processes takes its share of the
    CPUs for the threads of native batch calls.

    A batch call runs a state set's groups on up to ``kernel.CPUS`` threads
    (see :mod:`repro.core.kernel`); at the whole count in every worker the
    pool would run ``workers`` times as many threads as there are CPUs.
    """
    kernel.CPUS = max(1, kernel.CPUS // workers)


def _supervised_execute(kind_name: str, config: Mapping, inputs: Mapping, task_id: str):
    """Fault-injection shim around :func:`_execute_task`.

    The ``campaign-task`` site (keyed by task id) lets the chaos suite make
    a specific task raise, hang, or kill its worker; the plan travels via
    environment variable, so it reaches pool workers too.
    """
    maybe_fail("campaign-task", task=task_id)
    return _execute_task(kind_name, config, inputs)


class _Run:
    """State of one campaign execution."""

    def __init__(
        self,
        graph: TaskGraph,
        store: ResultStore,
        use_cache: bool,
        task_retries: int = 0,
    ) -> None:
        self.graph = graph
        self.store = store
        self.order = graph.topological_ids()
        self.fingerprints: Dict[str, str] = {}
        for task_id in self.order:
            task = graph.tasks[task_id]
            kind = get_task_kind(task.kind)
            upstream = {dep: self.fingerprints[dep] for dep in task.deps}
            self.fingerprints[task_id] = task_fingerprint(
                task.kind, kind.version, task.config, upstream
            )
        # verify (not just has): a torn or bit-rotted record is quarantined
        # as *.corrupt here, so it counts as a miss and recomputes instead
        # of failing at load time deep into the run.
        self.cached = {
            task_id
            for task_id in self.order
            if use_cache and store.verify(self.fingerprints[task_id])
        }
        self.task_retries = task_retries
        self.payloads: Dict[str, object] = {}
        self.seconds: Dict[str, float] = {}

    def _retry_delays(self, task_id: str) -> List[float]:
        """Deterministic per-task backoff delays (empty = fail fast)."""
        if self.task_retries <= 0:
            return []
        policy = RetryPolicy(
            max_attempts=self.task_retries + 1,
            base_delay=0.05,
            seed=zlib.crc32(task_id.encode("utf-8")),
        )
        return policy.delays()

    def payload_of(self, task_id: str):
        """Payload of a completed task, loading cached records on demand."""
        if task_id not in self.payloads:
            self.payloads[task_id] = self.store.load(self.fingerprints[task_id])
        return self.payloads[task_id]

    def inputs_for(self, task: Task) -> Dict[str, object]:
        return {dep: self.payload_of(dep) for dep in task.deps}

    def complete(self, task: Task, payload, seconds: float) -> None:
        self.store.save(
            self.fingerprints[task.task_id], task.task_id, task.kind, payload
        )
        self.payloads[task.task_id] = payload
        self.seconds[task.task_id] = seconds

    def run_serial(self) -> None:
        for task_id in self.order:
            if task_id in self.cached:
                continue
            task = self.graph.tasks[task_id]
            delays = self._retry_delays(task_id)
            for attempt in range(len(delays) + 1):
                try:
                    payload, seconds = _supervised_execute(
                        task.kind, task.config, self.inputs_for(task), task_id
                    )
                    break
                except ExperimentError:
                    # Deterministic failure (bad config, broken spec):
                    # retrying replays the same error, so don't.
                    raise
                except Exception as exc:
                    if attempt < len(delays):
                        time.sleep(delays[attempt])
                        continue
                    raise ExperimentError(f"task {task_id!r} failed: {exc}") from exc
            self.complete(task, payload, seconds)

    def run_parallel(self, workers: int) -> None:
        pending = [tid for tid in self.order if tid not in self.cached]
        if not pending:
            return
        pending_set = set(pending)
        blockers = {
            tid: {dep for dep in self.graph.tasks[tid].deps if dep in pending_set}
            for tid in pending
        }
        dependents: Dict[str, List[str]] = {}
        for tid in pending:
            for dep in blockers[tid]:
                dependents.setdefault(dep, []).append(tid)
        ready = [tid for tid in pending if not blockers[tid]]
        attempts: Dict[str, int] = {}
        first_error: Optional[BaseException] = None
        failed_task: Optional[str] = None

        def record_failure(task_id: str, exc: BaseException) -> None:
            """Consume a retry attempt for ``task_id`` or record the error."""
            nonlocal first_error, failed_task
            delays = self._retry_delays(task_id)
            used = attempts.get(task_id, 0)
            if (
                first_error is None
                and used < len(delays)
                and not isinstance(exc, KeyboardInterrupt)
            ):
                attempts[task_id] = used + 1
                time.sleep(delays[used])
                ready.append(task_id)
                return
            if first_error is None:
                first_error, failed_task = exc, task_id

        def settle(future, task_id: str) -> bool:
            """Fold one finished future into the run; True if the pool died.

            Broken pools charge a retry attempt to every poisoned task (the
            culprit is unknowable) and signal the caller to rebuild the
            pool.  Other failures are retried or recorded — the caller
            keeps draining in-flight tasks either way, so completed results
            are persisted and the failed campaign stays resumable from the
            last *completed* task.
            """
            try:
                payload, seconds = future.result()
            except ExperimentError as exc:
                # Deterministic failure — never retried.
                nonlocal first_error, failed_task
                if first_error is None:
                    first_error, failed_task = exc, task_id
                return False
            except BrokenProcessPool as exc:
                record_failure(task_id, exc)
                return True
            except BaseException as exc:
                record_failure(task_id, exc)
                return False
            self.complete(self.graph.tasks[task_id], payload, seconds)
            for dependent in dependents.get(task_id, ()):
                blockers[dependent].discard(task_id)
                if not blockers[dependent]:
                    ready.append(dependent)
            return False

        while True:
            pool_broken = False
            in_flight: Dict[object, str] = {}
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_share_cpus, initargs=(workers,)
            ) as pool:
                while (ready or in_flight) and not pool_broken:
                    while ready and first_error is None:
                        task_id = ready.pop(0)
                        task = self.graph.tasks[task_id]
                        try:
                            future = pool.submit(
                                _supervised_execute,
                                task.kind,
                                task.config,
                                self.inputs_for(task),
                                task_id,
                            )
                        except Exception:  # the pool itself died
                            ready.insert(0, task_id)
                            pool_broken = True
                            break
                        in_flight[future] = task_id
                    if not in_flight:
                        break
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in done:
                        if settle(future, in_flight.pop(future)):
                            pool_broken = True
                if pool_broken and in_flight:
                    # A dead pool poisons every in-flight future; drain them
                    # all so each gets its retry accounting.
                    done, _ = wait(in_flight)
                    for future in done:
                        settle(future, in_flight.pop(future))
            if pool_broken and first_error is None and ready:
                continue  # rebuild the pool and resubmit the survivors
            break
        if first_error is not None:
            raise ExperimentError(
                f"task {failed_task!r} failed: {first_error}"
            ) from first_error


def run_campaign(
    spec: CampaignSpec,
    store: Union[ResultStore, PathLike],
    out_dir: Optional[PathLike] = None,
    resume: bool = True,
    force: bool = False,
    workers: Optional[int] = None,
    dry_run: bool = False,
) -> CampaignReport:
    """Execute (or, with ``dry_run``, just plan) one campaign.

    Parameters
    ----------
    spec:
        The validated campaign.
    store:
        A :class:`~repro.experiments.results.ResultStore` or its root path.
    out_dir:
        When given, terminal stage outputs are materialised there
        (``<stage>.json`` + ``<stage>.txt``) along with ``manifest.json``
        recording every task's fingerprint and status.
    resume:
        Reuse cached records (default).  ``resume=False`` ignores the cache
        entirely — every task recomputes and overwrites its record.
    force:
        Same effect as ``resume=False``; matches the CLI ``--force`` flag.
    workers:
        Worker processes for task fan-out; defaults to the spec's
        ``workers``.  Results are bit-identical to serial execution.
    dry_run:
        Plan and fingerprint only; report which tasks *would* run.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    graph = plan_campaign(spec)
    use_cache = resume and not force
    run = _Run(graph, store, use_cache, task_retries=spec.task_retries)

    if not dry_run:
        effective_workers = spec.workers if workers is None else workers
        if effective_workers < 1:
            raise ExperimentError("workers must be >= 1")
        if effective_workers == 1:
            run.run_serial()
        else:
            run.run_parallel(effective_workers)

    reports: List[TaskReport] = []
    for task_id in run.order:
        task = graph.tasks[task_id]
        if task_id in run.cached:
            status = STATUS_CACHED
        elif dry_run:
            status = STATUS_STALE
        else:
            status = STATUS_COMPUTED
        reports.append(
            TaskReport(
                task_id=task_id,
                stage=task.stage,
                kind=task.kind,
                fingerprint=run.fingerprints[task_id],
                status=status,
                seconds=run.seconds.get(task_id, 0.0),
            )
        )
    report = CampaignReport(
        campaign=spec.name,
        store_root=str(store.root),
        tasks=reports,
        dry_run=dry_run,
        out_dir=str(out_dir) if out_dir is not None else None,
    )

    if out_dir is not None and not dry_run:
        _materialise_outputs(spec, graph, run, report, Path(out_dir))
    return report


def _materialise_outputs(
    spec: CampaignSpec,
    graph: TaskGraph,
    run: _Run,
    report: CampaignReport,
    out_dir: Path,
) -> None:
    """Write terminal payloads and the run manifest under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for stage_name in spec.stage_names():
        for task_id in graph.terminals.get(stage_name, ()):
            payload = run.payload_of(task_id)
            base = task_id.replace("/", "__")
            _atomic_write_json(
                {
                    "campaign": spec.name,
                    "task_id": task_id,
                    "fingerprint": run.fingerprints[task_id],
                    "payload": encode_value(payload),
                },
                out_dir / f"{base}.json",
            )
            if isinstance(payload, Mapping) and payload.get("text"):
                text_path = out_dir / f"{base}.txt"
                text_path.write_text(str(payload["text"]) + "\n", encoding="utf-8")
    manifest = {
        "campaign": spec.name,
        "code_tag": CODE_TAG,
        "store_root": report.store_root,
        "tasks": [
            {
                "task_id": task.task_id,
                "stage": task.stage,
                "kind": task.kind,
                "fingerprint": task.fingerprint,
                "status": task.status,
                "seconds": task.seconds,
            }
            for task in report.tasks
        ],
    }
    _atomic_write_json(manifest, out_dir / "manifest.json")
