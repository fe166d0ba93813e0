"""Execution-backend comparison artefact.

Not a figure of the paper, but the experiment that backs its deployment
story: the same :class:`~repro.core.config.ReptConfig` run through every
execution backend of :func:`repro.core.parallel.run_rept` must produce
bit-identical estimates, while wall-clock varies with where the processor
groups run.  The comparison reports both, and is exposed on the CLI as
``rept-experiment backends``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import ReptConfig
from repro.core.parallel import run_rept
from repro.exceptions import ExperimentError
from repro.experiments.spec import ExperimentResult
from repro.generators.datasets import load_dataset
from repro.utils.tables import format_table
from repro.utils.timer import Timer

#: Backends compared by default, reference first.
DEFAULT_BACKENDS = ("serial", "chunked-elastic")


def backend_comparison(
    dataset: str = "flickr-sim",
    backends: Sequence[str] = DEFAULT_BACKENDS,
    m: int = 8,
    c: int = 24,
    seed: int = 2024,
    max_edges: Optional[int] = None,
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    elastic: bool = False,
    kernel: str = "auto",
) -> ExperimentResult:
    """Run one REPT configuration through every execution backend.

    Returns a table of wall-clock seconds, the estimate, and whether each
    backend's estimate is bit-identical to the first (reference) backend —
    which it must be; a mismatch raises :class:`ExperimentError` because it
    indicates a broken shard or recovery path, not a tuning problem.
    ``elastic=True`` adds the ``chunked-elastic`` shard-coordinator backend
    to an explicit ``backends`` list that lacks it (the CLI's ``--elastic``,
    typically with ``--workers N`` and a ``--chaos`` plan targeting the
    cluster fault sites).
    """
    if not backends:
        raise ExperimentError("at least one backend is required")
    if elastic and "chunked-elastic" not in backends:
        backends = tuple(backends) + ("chunked-elastic",)
    stream = load_dataset(dataset)
    if max_edges is not None and len(stream) > max_edges:
        stream = stream.prefix(max_edges)
    edges = stream.edges()
    config = ReptConfig(m=m, c=c, seed=seed, track_local=False, kernel=kernel)

    headers = [
        "backend", "seconds", "global estimate", "edges stored", "faults",
        "identical",
    ]
    rows: List[List] = []
    reference = None
    timings = {}
    supervision_events = {}
    for backend in backends:
        with Timer() as timer:
            estimate = run_rept(
                edges,
                config,
                backend=backend,
                max_workers=max_workers,
                chunk_size=chunk_size,
            )
        if reference is None:
            reference = estimate
        identical = (
            estimate.global_count == reference.global_count
            and estimate.edges_stored == reference.edges_stored
        )
        if not identical:
            raise ExperimentError(
                f"backend {backend!r} diverged from {backends[0]!r}: "
                f"{estimate.global_count!r} != {reference.global_count!r}"
            )
        timings[backend] = timer.elapsed
        # Recovery counters of the elastic backend (nonzero only under
        # injected/real worker failures, e.g. a --chaos run): the estimate
        # must stay identical anyway — that is the point of the recovery
        # paths.
        degraded = estimate.metadata.get("degraded", 0.0) > 0
        deaths = int(estimate.metadata.get("worker_deaths", 0))
        migrations = int(estimate.metadata.get("shard_migrations", 0))
        supervision_events[backend] = {
            "degraded": degraded,
            "worker_deaths": deaths,
            "shard_migrations": migrations,
        }
        if deaths or migrations or degraded:
            faults = f"{deaths}d/{migrations}m" + ("/degraded" if degraded else "")
        else:
            faults = "-"
        rows.append(
            [
                backend,
                round(timer.elapsed, 3),
                estimate.global_count,
                estimate.edges_stored,
                faults,
                "yes",
            ]
        )

    text = format_table(
        headers,
        rows,
        title=f"Execution backends on {dataset} ({len(edges)} edges, {config.describe()})",
    )
    return ExperimentResult(
        experiment_id="backends",
        description="Same REPT configuration through every execution backend",
        rows=rows,
        headers=headers,
        text=text,
        metadata={
            "dataset": dataset,
            "m": m,
            "c": c,
            "seed": seed,
            "num_edges": len(edges),
            "timings": timings,
            "supervision": supervision_events,
        },
    )
