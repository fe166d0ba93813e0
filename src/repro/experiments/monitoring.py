"""Windowed-monitoring artefact: per-interval triangle series, online.

The paper's motivating deployment — per-interval triangle counts over a
router packet stream — exercised end to end: a synthetic packet trace with
planted anomaly bursts is fed once, in arrival order, through
:class:`~repro.streaming.monitor.WindowedTriangleMonitor`, and every
emitted window is estimated three ways:

* **REPT** through the monitor's REPT engine (one state set per open
  window, shared encoding, no re-ingestion on window advance);
* **exact** through a per-window exact streaming counter (ground truth);
* **TRIÈST** through a per-window reservoir estimator (fixed-memory
  baseline).

The table reports the per-window series and relative errors, so accuracy
can be compared across window sizes (``--window``/``--slide``/``--panes``
on the CLI).  Exposed as ``rept-experiment monitor``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.exact import ExactStreamingCounter
from repro.baselines.triest import TriestImprEstimator
from repro.core.config import ReptConfig
from repro.durability import RetryPolicy, call_with_retry, run_monitor_durable
from repro.exceptions import ExperimentError
from repro.experiments.spec import ExperimentResult
from repro.generators.traffic import TrafficTraceSpec, synthetic_packet_trace
from repro.streaming.monitor import MonitorWindowResult, WindowedTriangleMonitor
from repro.utils.tables import format_table

#: Records handed to the monitors per ingest call (arrival batching).
_INGEST_BATCH = 8192


def _run_monitor(
    monitor: WindowedTriangleMonitor, records
) -> List[MonitorWindowResult]:
    """Feed the trace once, in arrival order, and collect every window."""
    closed: List[MonitorWindowResult] = []
    for start in range(0, len(records), _INGEST_BATCH):
        closed.extend(monitor.ingest(records[start : start + _INGEST_BATCH]))
    closed.extend(monitor.flush())
    return closed


def windowed_monitoring(
    window_seconds: float = 300.0,
    slide_seconds: Optional[float] = None,
    panes_per_window: Optional[int] = None,
    duration_seconds: float = 3600.0,
    background_rate: float = 20.0,
    num_hosts: int = 500,
    m: int = 8,
    c: int = 16,
    triest_budget: int = 2000,
    seed: int = 2024,
    checkpoint_dir: Optional[str] = None,
    kernel: str = "auto",
) -> ExperimentResult:
    """Per-interval triangle monitoring over a synthetic router trace.

    Returns one row per emitted window with the exact count, the REPT and
    TRIÈST estimates and their relative errors.  The REPT column comes from
    the monitor's REPT engine, whose estimates are bit-identical to
    re-ingesting each window from scratch — so its errors here are purely
    the estimator's sampling error, never an artefact of the windowing.

    ``checkpoint_dir`` routes the REPT monitor through the durable runner
    (:func:`~repro.durability.run_monitor_durable`): every ingest batch is
    checkpointed, and the whole run is retried on failure, resuming from
    the newest checkpoint.  Under a ``--chaos`` fault plan this is the
    artefact-level demonstration that a crashed-and-recovered monitoring
    session reports the same window series (the runner's results are
    bit-identical to the in-memory path, so the error columns do not
    move).
    """
    if window_seconds <= 0:
        raise ExperimentError("window_seconds must be positive")
    if panes_per_window is not None and panes_per_window < 1:
        raise ExperimentError("panes_per_window must be >= 1")
    spec = TrafficTraceSpec(
        num_hosts=num_hosts,
        duration_seconds=duration_seconds,
        background_rate=background_rate,
        window_seconds=window_seconds,
    )
    records = synthetic_packet_trace(spec, seed=seed)
    if not records:
        raise ExperimentError("the synthetic trace is empty")
    slide = window_seconds if slide_seconds is None else slide_seconds
    pane = (
        min(window_seconds, slide)
        if panes_per_window is None
        else window_seconds / panes_per_window
    )

    def make_monitor(**engine) -> WindowedTriangleMonitor:
        return WindowedTriangleMonitor(
            window_seconds,
            slide_seconds=slide,
            pane_seconds=pane,
            seed=seed,
            origin=0.0,
            allowed_lateness=0.0,
            **engine,
        )

    config = ReptConfig(m=m, c=c, seed=seed, track_local=False, kernel=kernel)
    if checkpoint_dir is not None:
        def durable_run() -> List[MonitorWindowResult]:
            results, _ = run_monitor_durable(
                lambda: make_monitor(config=config),
                records,
                checkpoint_dir,
                checkpoint_every=_INGEST_BATCH,
            )
            return results

        # Injected (or real) mid-run failures surface here as exceptions;
        # each retry re-enters the durable runner, which resumes from the
        # newest valid checkpoint instead of starting over.
        rept_windows = call_with_retry(
            durable_run, RetryPolicy(max_attempts=4, base_delay=0.01, seed=seed)
        )
    else:
        rept_windows = _run_monitor(make_monitor(config=config), records)
    exact_windows = _run_monitor(
        make_monitor(estimator_factory=lambda _s: ExactStreamingCounter()), records
    )
    triest_windows = _run_monitor(
        make_monitor(
            estimator_factory=lambda s: TriestImprEstimator(
                budget=triest_budget, seed=s, track_local=False
            )
        ),
        records,
    )
    if not (len(rept_windows) == len(exact_windows) == len(triest_windows)):
        raise ExperimentError("monitor engines disagree on the window series")

    headers = [
        "window",
        "start",
        "records",
        "exact",
        "rept",
        "rept_err%",
        "triest",
        "triest_err%",
    ]
    rows: List[List] = []
    series = {"exact": [], "rept": [], "triest": []}
    for rept, exact, triest in zip(rept_windows, exact_windows, triest_windows):
        truth = exact.estimate.global_count
        rept_value = rept.estimate.global_count
        triest_value = triest.estimate.global_count
        denominator = truth if truth else 1.0
        series["exact"].append(truth)
        series["rept"].append(rept_value)
        series["triest"].append(triest_value)
        rows.append(
            [
                rept.index,
                round(rept.start, 1),
                rept.records,
                int(truth),
                round(rept_value, 1),
                round(100.0 * abs(rept_value - truth) / denominator, 2),
                round(triest_value, 1),
                round(100.0 * abs(triest_value - truth) / denominator, 2),
            ]
        )

    text = format_table(
        headers,
        rows,
        title=(
            f"Windowed triangle monitoring ({len(records)} records, "
            f"window={window_seconds}s, slide={slide}s, pane={pane}s, "
            f"REPT m={m} c={c}, TRIÈST budget={triest_budget})"
        ),
    )
    return ExperimentResult(
        experiment_id="monitor",
        description="Per-interval triangle estimates via the sliding-window monitor",
        rows=rows,
        headers=headers,
        text=text,
        metadata={
            "num_records": len(records),
            "window_seconds": window_seconds,
            "slide_seconds": slide,
            "pane_seconds": pane,
            "num_windows": len(rows),
            "m": m,
            "c": c,
            "triest_budget": triest_budget,
            "seed": seed,
            "checkpointed": checkpoint_dir is not None,
            "series": series,
        },
    )
