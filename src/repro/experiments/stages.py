"""Shared stage primitives behind every figure, table and campaign task.

Before the campaign refactor each figure function carried its own copy of
the dataset-loading / sweep-driving scaffolding.  This module is the single
home of those primitives:

* :func:`prepare_stream` / :func:`resolve_datasets` — dataset prep;
* :class:`AccuracySweepDef` — the *declarative* description of an accuracy
  figure (Figures 3–6 are four instances of it, see
  :data:`repro.experiments.figures.ACCURACY_FIGURES`);
* :func:`accuracy_cell` — one (figure, dataset, c) cell: the unit of work
  the campaign engine caches and fans out across workers;
* :func:`accuracy_sweep` — a full sweep assembled from cells, returning the
  same :class:`~repro.experiments.spec.ExperimentResult` the pre-campaign
  figure functions produced (bit-identical text and series).

Determinism contract: a cell's randomness is fully determined by
``derive_seed(seed, experiment_id, dataset, c)``, so the same cell computed
serially, in a worker process, or in a different campaign always yields the
same numbers.  That is what makes content-addressed caching sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import (
    default_method_specs,
    run_global_trials,
    run_local_trials,
)
from repro.experiments.spec import ExperimentResult
from repro.generators.datasets import available_datasets, load_dataset
from repro.graph.statistics import compute_statistics
from repro.utils.rng import derive_seed
from repro.utils.tables import format_series


def prepare_stream(dataset: str, max_edges: Optional[int] = None):
    """Load a registered dataset, optionally truncated to ``max_edges``."""
    stream = load_dataset(dataset)
    if max_edges is not None and len(stream) > max_edges:
        stream = stream.prefix(max_edges)
    return stream


def resolve_datasets(datasets: Optional[Sequence[str]]) -> List[str]:
    """Default to every registered dataset, in Table II order."""
    return list(datasets) if datasets else available_datasets()


def dataset_statistics(dataset: str, max_edges: Optional[int] = None) -> Dict[str, float]:
    """Exact global statistics of one (possibly truncated) dataset.

    The campaign ``dataset-stats`` task kind wraps this: its payload is the
    identity card of the prepared stream, and its fingerprint is what ties
    every downstream sweep cell to the dataset configuration.
    """
    stream = prepare_stream(dataset, max_edges)
    edges = stream.edges()
    stats = compute_statistics(edges, name=dataset)
    return {
        "dataset": dataset,
        "num_nodes": int(stats.num_nodes),
        "num_edges": int(stats.num_edges),
        "num_triangles": int(stats.num_triangles),
        "eta": int(stats.eta),
    }


@dataclass(frozen=True)
class AccuracySweepDef:
    """Declarative description of one accuracy figure (NRMSE vs ``c``).

    Figures 3–6 of the paper differ only in these fields; everything that
    *runs* lives in :func:`accuracy_cell` / :func:`accuracy_sweep`.
    """

    experiment_id: str
    description: str
    p: float
    c_values: Sequence[int]
    methods: Sequence[str]
    local: bool
    default_seed: int
    default_trials: int = 5


def accuracy_cell(
    experiment_id: str,
    dataset: str,
    c: int,
    p: float,
    methods: Sequence[str],
    num_trials: int,
    seed: int,
    local: bool,
    max_edges: Optional[int] = None,
    rept_backend: Optional[str] = None,
) -> Dict[str, float]:
    """Run one (figure, dataset, c) cell and return method → NRMSE.

    The returned mapping preserves method order (the order of
    ``default_method_specs``), which downstream rendering relies on.
    ``rept_backend`` routes the REPT trials through one of the
    :mod:`repro.core.parallel` drivers (``serial`` or ``chunked-elastic``);
    estimates are bit-identical across backends, so the choice affects
    wall-clock only, never the cached numbers.
    """
    stream = prepare_stream(dataset, max_edges)
    edges = stream.edges()
    stats = compute_statistics(edges, name=dataset)
    specs = default_method_specs(
        p, c, len(edges), methods=methods, track_local=local, rept_backend=rept_backend
    )
    cell_seed = derive_seed(seed, experiment_id, dataset, c)
    if local:
        truth_local = {
            node: float(value) for node, value in stats.local_triangles.items()
        }
        summaries = run_local_trials(specs, edges, truth_local, num_trials, seed=cell_seed)
    else:
        summaries = run_global_trials(
            specs, edges, float(stats.num_triangles), num_trials, seed=cell_seed
        )
    return {name: summary.nrmse for name, summary in summaries.items()}


def assemble_accuracy_result(
    sweep: AccuracySweepDef,
    datasets: Sequence[str],
    c_values: Sequence[int],
    cells: Dict[str, Dict[int, Dict[str, float]]],
    num_trials: int,
    seed: int,
    max_edges: Optional[int],
    methods: Sequence[str],
    rept_backend: Optional[str] = None,
) -> ExperimentResult:
    """Assemble per-cell method → NRMSE maps into an :class:`ExperimentResult`.

    ``cells`` maps dataset → c → (method → NRMSE).  Shared by the direct
    figure functions and the campaign's ``accuracy-figure`` aggregation
    task, so both produce identical series, text and metadata.
    """
    series: Dict[str, Dict[str, List[float]]] = {}
    text_blocks: List[str] = []
    for name in datasets:
        per_method: Dict[str, List[float]] = {}
        for c in c_values:
            for method_name, nrmse in cells[name][c].items():
                per_method.setdefault(method_name, []).append(nrmse)
        series[name] = per_method
        text_blocks.append(
            format_series(
                "c",
                list(c_values),
                [(method, values) for method, values in per_method.items()],
                title=f"{sweep.experiment_id} — {name} (p={sweep.p}, trials={num_trials})",
            )
        )
    metadata: Dict[str, object] = {
        "p": sweep.p,
        "datasets": list(datasets),
        "methods": list(methods),
        "num_trials": num_trials,
        "seed": seed,
        "max_edges": max_edges,
        "local": sweep.local,
    }
    if rept_backend is not None:
        metadata["rept_backend"] = rept_backend
    return ExperimentResult(
        experiment_id=sweep.experiment_id,
        description=sweep.description,
        axis_name="c",
        axis_values=list(c_values),
        series=series,
        text="\n\n".join(text_blocks),
        metadata=metadata,
    )


def accuracy_sweep(
    sweep: AccuracySweepDef,
    datasets: Optional[Sequence[str]] = None,
    c_values: Optional[Sequence[int]] = None,
    num_trials: Optional[int] = None,
    seed: Optional[int] = None,
    max_edges: Optional[int] = None,
    methods: Optional[Sequence[str]] = None,
    rept_backend: Optional[str] = None,
) -> ExperimentResult:
    """Run a full accuracy sweep (all datasets × all c values) directly.

    This is the serial path behind :func:`repro.experiments.figures.figure3`
    and friends; the campaign engine runs the same cells as independent
    cached tasks and aggregates them with
    :func:`assemble_accuracy_result` — the outputs are identical.
    """
    names = resolve_datasets(datasets)
    c_values = list(c_values if c_values is not None else sweep.c_values)
    num_trials = sweep.default_trials if num_trials is None else num_trials
    seed = sweep.default_seed if seed is None else seed
    methods = list(methods if methods is not None else sweep.methods)
    cells: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name in names:
        # One stream/statistics computation per dataset, shared by its cells.
        stream = prepare_stream(name, max_edges)
        edges = stream.edges()
        stats = compute_statistics(edges, name=name)
        truth_local = None
        if sweep.local:
            truth_local = {
                node: float(value) for node, value in stats.local_triangles.items()
            }
        per_c: Dict[int, Dict[str, float]] = {}
        for c in c_values:
            specs = default_method_specs(
                sweep.p, c, len(edges), methods=methods,
                track_local=sweep.local, rept_backend=rept_backend,
            )
            cell_seed = derive_seed(seed, sweep.experiment_id, name, c)
            if sweep.local:
                summaries = run_local_trials(
                    specs, edges, truth_local, num_trials, seed=cell_seed
                )
            else:
                summaries = run_global_trials(
                    specs, edges, float(stats.num_triangles), num_trials, seed=cell_seed
                )
            per_c[c] = {m: summary.nrmse for m, summary in summaries.items()}
        cells[name] = per_c
    return assemble_accuracy_result(
        sweep, names, c_values, cells, num_trials, seed, max_edges, methods,
        rept_backend=rept_backend,
    )
