"""Measured process of one library-workload repetition.

``run.py`` starts it as ``python3 perfbench/child.py ROOT WORKLOAD INPUTS TRACE SPANS``
and talks to it one line at a time, so that it can read this process's
resident memory from outside right before and after the timed span:

1. load the generated input, import numpy, run the set-up reference
   slices, time set-up from just before the first ``repro`` import until
   the estimator or monitor is built, print ``ready``;
2. wait for a line, run the timed span (the probe's reference slices in it
   are timed and left out), print ``done``;
3. wait for a line, compute the outputs the parent checks and print them
   as one JSON line.
"""

from __future__ import annotations

import json
import pickle
import sys
import time

import common
import workloads


def _handshake(word: str) -> None:
    print(word, flush=True)
    if not sys.stdin.readline():
        raise SystemExit("benchmark parent closed the pipe")


def main(argv) -> None:
    root, workload, inputs_path, trace, spans_path = argv
    common.use_checkout_sources(root)
    with open(inputs_path, "rb") as handle:
        data = pickle.load(handle)

    import numpy  # noqa: F401  (not part of set-up; see the README)

    setup_slices = common.setup_slices()
    started = time.perf_counter()
    import repro  # noqa: F401  (set-up is timed from the first repro import)

    ledger = None
    if trace == "1":
        import tracer

        ledger = tracer.Ledger().install()
    if workload == "monitor-sliding":
        target = workloads.make_monitor(data["seed"], "auto")

        def ask():
            return target.results[-1] if target.results else None

    else:
        target = workloads.make_estimator(data["seed"], "auto")
        ask = target.estimate
    setup_s = time.perf_counter() - started
    _handshake("ready")

    emits: list = []
    windows: list = []
    begin = time.perf_counter()
    begin_ns = time.perf_counter_ns()
    probe = workloads.Probe(ask, begin)
    if workload == "batch-ingest":
        workloads.run_batch(target, data["edges"], probe)
    elif workload == "per-edge-ingest":
        workloads.run_per_edge(target, data["edges"], probe)
    else:
        workloads.run_monitor(target, data["chunks"], probe, emits, windows)
    span_s = time.perf_counter() - begin - probe.slice_s
    end_ns = time.perf_counter_ns()
    _handshake("done")

    layers = None
    if ledger is not None:
        layers = ledger.layer_metrics((begin_ns, end_ns))
        ledger.write(spans_path)
    if workload == "monitor-sliding":
        late = target.late_records
        windows.extend(target.flush())
        outputs = workloads.window_outputs(windows)
        kernel = windows[0].estimate.metadata["kernel"]
    else:
        late = 0
        outputs = workloads.estimator_outputs(target)
        kernel = target.estimate().metadata["kernel"]
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "span_s": span_s,
                "slices": probe.slices,
                "setup_slices": setup_slices,
                "records": data["records"],
                "latencies": probe.latencies,
                "lags": probe.lags,
                "emits": emits,
                "late_records": late,
                "kernel": kernel,
                "outputs": outputs,
                "layers": layers,
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main(sys.argv[1:])
