"""Ingestion-throughput benchmark: per-edge vs batched vs native ingestion.

Measures edges/second for the per-edge streaming path against the batched
pipeline (``process_stream(batch_size=...)``) across (m, c) shapes, both
hash families, two stream sizes and both ingestion kernels, on the
packet-flow workload the paper motivates (duplicate-heavy arrivals over a
scale-free host topology).  Every cell asserts bit-identical estimates
between the two paths; two cells carry acceptance bars at m=16, c=32 on
the full-size stream:

* the **python headline** (tabulation hashing) asserts the batch path is
  at least ``REPRO_BENCH_INGEST_MIN_SPEEDUP`` (default 3×) faster than
  the per-edge path;
* the **native headline** asserts the compiled kernel's batch path is at
  least ``REPRO_BENCH_INGEST_MIN_NATIVE_SPEEDUP`` (default 2×) faster
  than the python kernel's batch path on the same cell.

Every other cell asserts the batch path is not slower than per-edge (with
a small noise allowance).

Each run writes the measured numbers to the git-ignored
``benchmarks/out/BENCH_ingest.json``; the regression gate
(``benchmarks/check_bench_regression.py``) compares that file, cells
matched kernel-keyed, against the committed ``benchmarks/BENCH_ingest.json``
baseline, and the CI smoke job uploads it as an artifact.  Refreshing the
baseline is a deliberate copy of the fresh file over the committed one.

Scale knobs: ``REPRO_BENCH_INGEST_EDGES`` (default 250000; CI uses a
smaller stream), ``REPRO_BENCH_INGEST_ROUNDS`` (interleaved best-of
rounds), ``REPRO_BENCH_INGEST_MIN_SPEEDUP`` and
``REPRO_BENCH_INGEST_MIN_NATIVE_SPEEDUP``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.core import ReptConfig, ReptEstimator
from repro.core.kernel import resolve_kernel
from repro.generators.traffic import packet_flow_stream

BENCH_EDGES = int(os.environ.get("REPRO_BENCH_INGEST_EDGES", "250000"))
BENCH_ROUNDS = int(os.environ.get("REPRO_BENCH_INGEST_ROUNDS", "2"))
MIN_HEADLINE_SPEEDUP = float(os.environ.get("REPRO_BENCH_INGEST_MIN_SPEEDUP", "3.0"))
#: Native-kernel acceptance bar: compiled batch ingestion vs the python
#: kernel's batch ingestion on the same (m, c, hash, stream) cell.
MIN_NATIVE_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_INGEST_MIN_NATIVE_SPEEDUP", "2.0")
)
#: Noise allowance for the "batch is not slower" assertion on non-headline
#: cells (process schedulers on shared CI runners jitter second-scale runs).
NOT_SLOWER_TOLERANCE = 0.9
BATCH_SIZE = 65536
RESULTS_PATH = Path(__file__).with_name("out") / "BENCH_ingest.json"

#: (m, c, hash_kind, fraction of BENCH_EDGES, kernel, headline?).  The
#: headline rows are the acceptance-criterion configuration: two complete
#: processor groups (c = 2m) at m=16 over a ≥200k-record stream, with the
#: hash family whose scalar path is the most expensive — exactly what
#: vectorization (and the compiled closure loop) amortise.  The python
#: cell of each (shape, hash, fraction) runs before its native twin so the
#: native headline can compare against the freshly measured python cell.
GRID = [
    (16, 32, "tabulation", 1.0, "python", True),
    (16, 32, "tabulation", 1.0, "auto", True),
    (16, 32, "splitmix", 1.0, "python", False),
    (16, 32, "splitmix", 1.0, "auto", False),
    (16, 16, "tabulation", 0.2, "python", False),
    (16, 32, "splitmix", 0.2, "python", False),
    (4, 8, "splitmix", 0.2, "auto", False),
]

_cells = []


def _measure(edges, m, c, hash_kind, kernel="python"):
    """Interleaved best-of-``BENCH_ROUNDS`` timing of both ingestion paths.

    Cyclic garbage collection is suspended inside the timed sections (and
    run between them): a generation-2 collection scans every live object —
    including the stream and whatever else the test session keeps resident
    — so letting one fire inside a timing window makes the measured ratio
    depend on allocation-count phase alignment rather than on the
    ingestion paths themselves.
    """
    config = dict(
        m=m, c=c, seed=7, hash_kind=hash_kind, track_local=False, kernel=kernel
    )
    per_edge_best = batch_best = float("inf")
    per_edge_estimate = batch_estimate = None
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(BENCH_ROUNDS):
            estimator = ReptEstimator(ReptConfig(**config))
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            estimator.process_stream(edges)
            per_edge_best = min(per_edge_best, time.perf_counter() - start)
            gc.enable()
            per_edge_estimate = estimator.estimate()
            del estimator

            estimator = ReptEstimator(ReptConfig(**config))
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            estimator.process_stream(edges, batch_size=BATCH_SIZE)
            batch_best = min(batch_best, time.perf_counter() - start)
            gc.enable()
            batch_estimate = estimator.estimate()
            del estimator
    finally:
        if gc_was_enabled:
            gc.enable()
    return per_edge_best, batch_best, per_edge_estimate, batch_estimate


@pytest.fixture(scope="module")
def full_stream():
    return packet_flow_stream(BENCH_EDGES, seed=13)


def _python_twin(m, c, hash_kind, num_records):
    """The already-measured python-kernel cell matching a native cell."""
    for cell in _cells:
        if (
            cell["m"] == m
            and cell["c"] == c
            and cell["hash"] == hash_kind
            and cell["num_records"] == num_records
            and cell["kernel"] == "python"
        ):
            return cell
    return None


@pytest.mark.parametrize(
    "m,c,hash_kind,fraction,kernel,headline",
    GRID,
    ids=[
        f"m{m}-c{c}-{kind}-{int(frac * 100)}pct-{kernel}"
        for m, c, kind, frac, kernel, _ in GRID
    ],
)
def test_bench_ingest_throughput(full_stream, m, c, hash_kind, fraction, kernel, headline):
    if kernel != "python" and resolve_kernel(kernel, min(m, c)) == "python":
        pytest.skip("the C kernel is not available in this environment")
    edges = full_stream.edges()
    if fraction < 1.0:
        edges = edges[: int(len(edges) * fraction)]
    num_distinct = len({tuple(sorted(edge)) for edge in edges})

    per_edge_seconds, batch_seconds, per_edge_estimate, batch_estimate = _measure(
        edges, m, c, hash_kind, kernel
    )
    resolved = batch_estimate.metadata.get("kernel", "python")
    python_twin = _python_twin(m, c, hash_kind, len(edges)) if kernel != "python" else None

    def _needs_retry():
        if not headline or len(edges) < 200_000:
            return False
        if kernel == "python":
            return per_edge_seconds / batch_seconds < MIN_HEADLINE_SPEEDUP
        return (
            python_twin is not None
            and python_twin["batch_seconds"] / batch_seconds < MIN_NATIVE_SPEEDUP
        )

    if _needs_retry():
        # Adaptive retry before judging the headline bar: best-of timings
        # can dip a few percent under ambient machine noise (the preceding
        # benchmarks saturate every core for minutes).  Extra interleaved
        # rounds only ever tighten the best-of estimates, so a genuine
        # regression still fails -- transient jitter recovers.
        retry = _measure(edges, m, c, hash_kind, kernel)
        per_edge_seconds = min(per_edge_seconds, retry[0])
        batch_seconds = min(batch_seconds, retry[1])

    # Exactness first: the batch pipeline (and the compiled kernel) is an
    # optimisation, not an approximation.
    assert batch_estimate.global_count == per_edge_estimate.global_count
    assert batch_estimate.local_counts == per_edge_estimate.local_counts
    assert batch_estimate.edges_stored == per_edge_estimate.edges_stored

    speedup = per_edge_seconds / batch_seconds
    _cells.append(
        {
            "m": m,
            "c": c,
            "hash": hash_kind,
            "kernel": resolved,
            "num_records": len(edges),
            "num_distinct": num_distinct,
            "per_edge_seconds": round(per_edge_seconds, 4),
            "batch_seconds": round(batch_seconds, 4),
            "per_edge_eps": int(len(edges) / per_edge_seconds),
            "batch_eps": int(len(edges) / batch_seconds),
            "speedup": round(speedup, 3),
            "headline": headline,
        }
    )
    print(
        f"\n  m={m} c={c} hash={hash_kind} kernel={resolved} records={len(edges)}: "
        f"per-edge {len(edges) / per_edge_seconds / 1e3:.0f}k eps, "
        f"batch {len(edges) / batch_seconds / 1e3:.0f}k eps ({speedup:.2f}x)"
    )

    if headline and kernel != "python" and len(edges) >= 200_000:
        # The native acceptance-criterion cell: the compiled kernel's batch
        # path against the python kernel's batch path on the same cell.  At
        # reduced smoke scale it degrades to the not-slower assertion.
        assert python_twin is not None, "python twin cell did not run first"
        native_speedup = python_twin["batch_seconds"] / batch_seconds
        print(f"  native batch speedup over python batch: {native_speedup:.2f}x")
        assert native_speedup >= MIN_NATIVE_SPEEDUP, (
            f"native batch ingestion speedup {native_speedup:.2f}x below the "
            f"{MIN_NATIVE_SPEEDUP}x acceptance bar at m={m}, c={c}"
        )
    elif headline and len(edges) >= 200_000:
        # The python acceptance-criterion cell; at reduced smoke scale
        # (REPRO_BENCH_INGEST_EDGES < 200k) it degrades to the
        # not-slower assertion like every other cell.
        assert speedup >= MIN_HEADLINE_SPEEDUP, (
            f"batch ingestion speedup {speedup:.2f}x below the "
            f"{MIN_HEADLINE_SPEEDUP}x acceptance bar at m={m}, c={c}"
        )
    else:
        assert speedup >= NOT_SLOWER_TOLERANCE, (
            f"batch ingestion slower than per-edge ({speedup:.2f}x) at "
            f"m={m}, c={c}, hash={hash_kind}, kernel={resolved}"
        )


def test_bench_ingest_writes_baseline():
    """Write the measured cells where the regression gate reads them."""
    assert _cells, "benchmark cells did not run"
    payload = {
        "benchmark": "ingest-throughput",
        "created_unix": int(time.time()),
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "batch_size": BATCH_SIZE,
        "rounds": BENCH_ROUNDS,
        "min_headline_speedup": MIN_HEADLINE_SPEEDUP,
        "min_native_speedup": MIN_NATIVE_SPEEDUP,
        "cells": _cells,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert RESULTS_PATH.exists()
