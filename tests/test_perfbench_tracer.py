"""perfbench's tracer wraps ``repro`` entry points from outside ``src/``.

``perfbench/tracer.py`` names each one as an ``(owner, attribute)`` pair.
A pair that no longer resolves makes every traced run
(``perfbench/run.py --trace 1``) raise when it installs its ledger, so a
change that renames or deletes a wrapped name fails here first.  The
tests only read ``perfbench/``; the second installs a ledger in this
process and restores every wrapped attribute when it ends.
"""

from __future__ import annotations

import importlib
import math
import pathlib
import time

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_entry_point_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    entry_points = tracer._entry_points()
    assert entry_points
    missing = [
        name
        for name, owner, attribute, _hook in entry_points
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []


def test_ledger_traces_the_library_in_process(monkeypatch):
    """A ledger installed in this process traces a batch, per-edge calls, an
    estimate and a small monitor pass, and folds them into layer metrics.

    Every wrapped attribute is registered with ``monkeypatch`` first, so
    the originals come back when the test ends.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    for _name, owner, attribute, _hook in tracer._entry_points():
        monkeypatch.setattr(owner, attribute, getattr(owner, attribute))
    ledger = tracer.Ledger().install()

    from repro.core.config import ReptConfig
    from repro.core.state import GroupStateSet
    from repro.streaming.monitor import WindowedTriangleMonitor

    begin = time.perf_counter_ns()
    config = ReptConfig(m=4, c=6, seed=3, track_local=True, track_eta=True)
    edges = [(u % 97, (u * 7 + 3) % 89) for u in range(2000)]
    state = GroupStateSet(config)
    n_records = state.process_edges(edges)
    for u, v in edges[:200]:
        state.process_edge(u, v)
    estimate = state.estimate(n_records + 200)
    monitor = WindowedTriangleMonitor(window_seconds=4.0, slide_seconds=2.0, config=config)
    times = [index / 100.0 for index in range(len(edges))]
    closed = monitor.ingest_columns([u for u, _ in edges], [v for _, v in edges], times)
    closed += monitor.advance_watermark(times[-1] + 10.0)
    metrics = ledger.layer_metrics((begin, time.perf_counter_ns()))

    assert estimate.global_count > 0 and closed
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["kernel.edges_stored"] >= state.total_edges_stored() > 0
    assert metrics["monitor.windows"] == len(closed)
    # Each group decides first occurrence from its stored edges: no seen set.
    assert metrics["state.seen_entries"] == 0.0
    assert metrics["interning.first_ratio"] == 0.0
