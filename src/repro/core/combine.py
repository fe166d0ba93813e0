"""Assembling REPT's final estimate from per-group counters.

This module is deliberately separated from the streaming state so that the
execution drivers (for example the elastic cluster's shard workers) can
ship back plain :class:`GroupSummary` objects and combine them here with
the exact same arithmetic as the single-threaded estimator — the estimate
is a pure function of the counters.

Three cases (paper Section III):

* ``c ≤ m`` (Algorithm 1): ``τ̂ = (m²/c) Σ_i τ(i)``.
* ``c > m, c mod m = 0``: ``τ̂ = (m/c₁) Σ_i τ(i)`` over the complete groups.
* ``c > m, c mod m ≠ 0``: two unbiased estimates — ``τ̂⁽¹⁾`` from the
  complete groups and ``τ̂⁽²⁾`` from the partial group — are combined with
  Graybill–Deal inverse-variance weights, where the unknown ``τ`` and ``η``
  in the variance formulas are replaced by the plug-in estimates ``τ̂⁽¹⁾``
  and ``η̂ = (m³/c) Σ_i η(i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import TriangleEstimate
from repro.types import NodeId


@dataclass
class GroupSummary:
    """The counters of one processor group, detached from streaming state.

    Attributes
    ----------
    group_size:
        Number of processors in the group.
    is_complete:
        ``True`` when the group has exactly ``m`` processors (a "complete"
        group in Algorithm 2's terminology).
    tau_sum:
        ``Σ_i τ(i)`` over the group's processors.
    eta_sum:
        ``Σ_i η(i)`` over the group's processors.
    local_tau:
        ``Σ_i τ_v(i)`` per node.
    local_eta:
        ``Σ_i η_v(i)`` per node.
    edges_stored:
        Total stored edges (memory accounting).
    """

    group_size: int
    is_complete: bool
    tau_sum: float
    eta_sum: float = 0.0
    local_tau: Dict[NodeId, float] = field(default_factory=dict)
    local_eta: Dict[NodeId, float] = field(default_factory=dict)
    edges_stored: int = 0


def graybill_deal(
    estimate_1: float, variance_1: float, estimate_2: float, variance_2: float
) -> Tuple[float, float]:
    """Combine two independent unbiased estimates by inverse-variance weighting.

    Returns the combined estimate and its variance:
    ``τ̂ = (V₂ τ̂₁ + V₁ τ̂₂) / (V₁ + V₂)`` and ``V = V₁V₂ / (V₁ + V₂)``.

    Degenerate cases: if both variances are non-positive the plain average
    is returned with variance 0; if exactly one is non-positive that
    estimate is returned unchanged (it is "certain" under the plug-in
    variance model).
    """
    v1 = max(0.0, variance_1)
    v2 = max(0.0, variance_2)
    if v1 <= 0 and v2 <= 0:
        return (estimate_1 + estimate_2) / 2.0, 0.0
    if v1 <= 0:
        return estimate_1, 0.0
    if v2 <= 0:
        return estimate_2, 0.0
    combined = (v2 * estimate_1 + v1 * estimate_2) / (v1 + v2)
    variance = (v1 * v2) / (v1 + v2)
    return combined, variance


def _combine_scalar(
    m: int,
    c: int,
    complete_tau_sum: float,
    partial_tau_sum: float,
    partial_size: int,
    num_complete: int,
    eta_hat: float,
) -> Tuple[float, Dict[str, float]]:
    """Combine global-count contributions; returns (τ̂, diagnostics)."""
    diagnostics: Dict[str, float] = {}
    if num_complete == 0:
        # Algorithm 1: a single (possibly partial) group of c processors.
        tau_hat = (m * m / c) * partial_tau_sum
        return tau_hat, diagnostics

    c1 = num_complete
    tau_hat_1 = (m / c1) * complete_tau_sum
    diagnostics["tau_hat_complete"] = tau_hat_1
    if partial_size == 0:
        return tau_hat_1, diagnostics

    c2 = partial_size
    tau_hat_2 = (m * m / c2) * partial_tau_sum
    diagnostics["tau_hat_partial"] = tau_hat_2
    diagnostics["eta_hat"] = eta_hat
    variance_1 = tau_hat_1 * (m - 1) / c1
    variance_2 = (tau_hat_1 * (m * m - c2) + 2.0 * eta_hat * (m - c2)) / c2
    combined, combined_variance = graybill_deal(tau_hat_1, variance_1, tau_hat_2, variance_2)
    diagnostics["plugin_variance_complete"] = variance_1
    diagnostics["plugin_variance_partial"] = variance_2
    diagnostics["plugin_variance_combined"] = combined_variance
    return combined, diagnostics


def combine_group_estimates(
    summaries: Sequence[GroupSummary],
    m: int,
    c: int,
    edges_processed: int = 0,
    track_local: bool = True,
    eta_tracked: Optional[bool] = None,
) -> TriangleEstimate:
    """Turn per-group counter summaries into the final REPT estimate.

    Parameters
    ----------
    summaries:
        One :class:`GroupSummary` per processor group (any order).
    m, c:
        REPT parameters (hash range and total processor count).
    edges_processed:
        Stream length, recorded on the returned estimate.
    track_local:
        Whether to assemble per-node estimates.
    eta_tracked:
        Whether the η counters were actually maintained during the run.
        Recorded in ``metadata["eta_tracked"]`` so consumers can tell a true
        ``η̂ = 0`` apart from "η was never counted" (the latter would corrupt
        the Graybill–Deal plug-in variances if it occurred in the
        partial-group regime; :class:`~repro.core.config.ReptConfig` now
        force-resolves ``track_eta=True`` there).  ``None`` leaves the
        metadata key unset (caller did not know).
    """
    complete = [s for s in summaries if s.is_complete]
    partial = [s for s in summaries if not s.is_complete]
    if len(partial) > 1:
        raise ValueError("at most one partial group is expected")
    partial_summary: Optional[GroupSummary] = partial[0] if partial else None

    num_complete = len(complete)
    complete_tau_sum = sum(s.tau_sum for s in complete)
    partial_tau_sum = partial_summary.tau_sum if partial_summary else 0.0
    partial_size = partial_summary.group_size if partial_summary else 0
    total_eta = sum(s.eta_sum for s in summaries)
    eta_hat = (m**3 / c) * total_eta

    global_count, diagnostics = _combine_scalar(
        m,
        c,
        complete_tau_sum,
        partial_tau_sum,
        partial_size,
        num_complete,
        eta_hat,
    )

    local_counts: Dict[NodeId, float] = {}
    if track_local:
        local_counts = _combine_local(
            complete, partial_summary, m, c, num_complete, partial_size
        )

    metadata = {"m": float(m), "c": float(c)}
    if eta_tracked is not None:
        metadata["eta_tracked"] = 1.0 if eta_tracked else 0.0
    metadata.update(diagnostics)
    return TriangleEstimate(
        global_count=global_count,
        local_counts=local_counts,
        edges_processed=edges_processed,
        edges_stored=sum(s.edges_stored for s in summaries),
        metadata=metadata,
    )


def _combine_local(
    complete: List[GroupSummary],
    partial_summary: Optional[GroupSummary],
    m: int,
    c: int,
    num_complete: int,
    partial_size: int,
) -> Dict[NodeId, float]:
    """Per-node version of the combination rules."""
    local: Dict[NodeId, float] = {}

    if num_complete == 0:
        # Algorithm 1.
        assert partial_summary is not None
        scale = m * m / c
        for node, value in partial_summary.local_tau.items():
            local[node] = scale * value
        return local

    c1 = num_complete
    complete_sums: Dict[NodeId, float] = {}
    for summary in complete:
        for node, value in summary.local_tau.items():
            complete_sums[node] = complete_sums.get(node, 0.0) + value

    if partial_size == 0 or partial_summary is None:
        scale = m / c1
        return {node: scale * value for node, value in complete_sums.items()}

    c2 = partial_size
    partial_sums = dict(partial_summary.local_tau)

    eta_local_total: Dict[NodeId, float] = {}
    for summary in list(complete) + [partial_summary]:
        for node, value in summary.local_eta.items():
            eta_local_total[node] = eta_local_total.get(node, 0.0) + value

    nodes = set(complete_sums) | set(partial_sums)
    for node in nodes:
        tau_1_v = (m / c1) * complete_sums.get(node, 0.0)
        tau_2_v = (m * m / c2) * partial_sums.get(node, 0.0)
        eta_hat_v = (m**3 / c) * eta_local_total.get(node, 0.0)
        variance_1 = tau_1_v * (m - 1) / c1
        variance_2 = (tau_1_v * (m * m - c2) + 2.0 * eta_hat_v * (m - c2)) / c2
        combined, _ = graybill_deal(tau_1_v, variance_1, tau_2_v, variance_2)
        local[node] = combined
    return local
