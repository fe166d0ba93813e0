"""Execution backends: the same REPT estimate from every driver.

REPT's accuracy is a property of its counters, not of the scheduling of the
``c`` processors.  REPT parallelises by giving every processor the whole
stream, in groups that share one hash function, so the only thing a
backend chooses is where those groups run.  This example runs the same
configuration through both drivers — the in-process ``serial`` reference
and the ``chunked-elastic`` shard workers, which host whole processor
groups on long-running worker processes — checks the estimates agree
bit-for-bit, and reports the wall-clock time of each backend so the worker
start-up and routing overheads are visible and honest.

Run with::

    python examples/scaling_backends.py
"""

from __future__ import annotations

from repro.core import ReptConfig, run_rept
from repro.generators.datasets import load_dataset
from repro.utils.tables import format_table
from repro.utils.timer import Timer

BACKENDS = ("serial", "chunked-elastic")


def main() -> None:
    stream = load_dataset("livejournal-sim")
    edges = stream.edges()
    config = ReptConfig(m=8, c=24, seed=2024, track_local=False)
    print(f"Stream: {stream!r}")
    print(f"Configuration: {config.describe()}")

    rows = []
    estimates = {}
    for backend in BACKENDS:
        with Timer() as timer:
            estimate = run_rept(edges, config, backend=backend)
        estimates[backend] = estimate.global_count
        rows.append([
            backend,
            round(timer.elapsed, 3),
            estimate.global_count,
            estimate.edges_stored,
        ])

    print()
    print(format_table(
        ["backend", "seconds", "global estimate", "edges stored"],
        rows,
        title="Same configuration, two execution backends",
    ))
    print()
    agree = len(set(estimates.values())) == 1
    print(f"Estimates identical across backends: {agree}")
    print("Notes: serial encodes each batch once for every group and runs the")
    print("groups on threads, up to one per usable core; the elastic backend")
    print("ships each batch to every worker and also pays for starting its")
    print("shard workers, so on one machine it buys fault tolerance, not speed.")


if __name__ == "__main__":
    main()
