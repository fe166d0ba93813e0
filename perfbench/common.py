"""Helpers shared by the benchmark's processes (stdlib only)."""

from __future__ import annotations

import os
import statistics
import sys
import time
from typing import Sequence

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

#: Iterations of one reference slice (1.1-2.3 ms on the tuning machine).
SLICE_ITERATIONS = 20_000
#: Duration of one reference slice on the machine the benchmark was tuned on
#: (2 vCPUs of a shared host, CPython 3.11) in its fast phase.  Timing
#: metrics are scaled to this speed; see :func:`speed`.
REFERENCE_SLICE_S = 0.0012
#: A measured process runs a reference slice at most this often.
SLICE_PERIOD_S = 0.05
#: Reference slices a measured process runs right before its set-up.
SETUP_SLICES = 10


def reference_slice() -> float:
    """Seconds taken by a fixed pure-Python loop that runs no code under test."""
    began = time.perf_counter()
    total = 0
    for i in range(SLICE_ITERATIONS):
        total += i * i
    return time.perf_counter() - began


def setup_slices() -> list:
    return [reference_slice() for _ in range(SETUP_SLICES)]


def speed(slices: Sequence[float]) -> float:
    """Machine speed over a timed span, relative to the tuning machine.

    ``slices`` are :func:`reference_slice` timings taken inside the span,
    between calls of the code under test.  1.0 is the tuning machine's
    fast phase; 0.8 is a phase in which the same loop runs 25 % longer.  On a
    shared host the other tenants slow the loop and the code under test
    alike, so durations times ``speed`` (and rates divided by it) compare
    across machine phases.  The mean, not the median, so that slices that
    lose the CPU count as the code under test's calls do.
    """
    return REFERENCE_SLICE_S / statistics.mean(slices)


def resident_bytes(pid: int) -> int:
    """Resident set size of ``pid``, read from ``/proc/<pid>/statm``."""
    with open(f"/proc/{pid}/statm") as handle:
        return int(handle.read().split()[1]) * PAGE_BYTES


def trimmed_mean(values: Sequence[float], share: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and the highest ``share``."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.mean(ordered[cut : len(ordered) - cut])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def use_checkout_sources(root: str) -> None:
    """Import ``repro`` from the checkout's ``src/``."""
    source = os.path.join(root, "src")
    if source not in sys.path:
        sys.path.insert(0, source)
