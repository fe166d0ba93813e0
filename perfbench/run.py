"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs and the dict-kernel reference from ``--seed``,
warms the native kernel and bytecode caches, then runs fresh measured
processes until ``--seconds`` have passed (at least three).  Every
repetition's outputs are checked against the reference.  Each measured process also times short
reference slices inside its timed span; their mean gives the repetition's
machine speed (``common.speed``), and every reported duration is scaled by
it.  With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported; with ``--trace 1`` repetitions alternate between untraced and
traced processes and the per-layer metrics are reported.  Everything the
run writes goes under ``.perfbench/``.  The last line of standard output is
the JSON result; the line before it records the kernel, CPU count, Python
version, the repetitions' speeds and informational figures.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import gc
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List

import common
import loadgen
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: The whole invocation must finish within 180 s.
DEADLINE_S = 170
MIN_REPETITIONS = 3
#: Traced runs need at least two untraced and two traced repetitions.
MIN_TRACED_REPETITIONS = 4
#: Figures computed with the end-to-end metrics but printed for information.
INFO_METRICS = ("query_p50_ms", "query_p95_ms", "result_lag_p50_ms", "unscaled_throughput_eps")
#: Per-repetition figures kept in ``.perfbench/<workload>/result.json``.
REPETITION_KEYS = (
    "traced", "span_s", "setup_s", "speed", "setup_speed", "state_bytes", "kernel", "latencies", "lags"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _expect(proc: subprocess.Popen, word: str) -> None:
    line = proc.stdout.readline().strip()
    if line != word:
        raise RuntimeError(f"measured process printed {line!r}, expected {word!r}")


def _resume(proc: subprocess.Popen) -> None:
    proc.stdin.write("go\n")
    proc.stdin.flush()


def _run_child(root: str, workload: str, inputs: str, spans: str, traced: bool) -> Dict:
    """One fresh measured process; resident memory is read around its span."""
    command = [sys.executable, os.path.join(HERE, "child.py"), root, workload, inputs, str(int(traced)), spans]
    proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        _expect(proc, "ready")
        before = common.resident_bytes(proc.pid)
        _resume(proc)
        _expect(proc, "done")
        after = common.resident_bytes(proc.pid)
        _resume(proc)
        line = proc.stdout.readline()
        proc.stdin.close()
        if proc.wait(timeout=60) != 0 or not line:
            raise RuntimeError(f"measured process exited with {proc.returncode}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    result = json.loads(line)
    result["state_bytes"] = after - before
    result["attempted"] = result["records"] + len(result["latencies"])
    result["failed"] = result["late_records"]
    return result


def _repeat(run_one: Callable[[int, bool], Dict], seconds: float, trace: bool) -> List[Dict]:
    reps: List[Dict] = []
    minimum = MIN_TRACED_REPETITIONS if trace else MIN_REPETITIONS
    started = time.perf_counter()
    while len(reps) < minimum or time.perf_counter() - started < seconds:
        traced = trace and len(reps) % 2 == 1
        rep = run_one(len(reps), traced)
        rep["traced"] = traced
        rep["speed"] = common.speed(rep["slices"])
        rep["setup_speed"] = common.speed(rep["setup_slices"])
        reps.append(rep)
    return reps


def _library(root: str, args, out: str):
    data = workloads.library_inputs(args.workload, args.seed)
    inputs = os.path.join(out, "inputs.pkl")
    with open(inputs, "wb") as handle:
        pickle.dump(data, handle, protocol=pickle.HIGHEST_PROTOCOL)
    reference = workloads.library_reference(args.workload, data)
    if args.workload == "monitor-sliding":
        edges = [(u, v) for us, vs, _ts, _newest in data["chunks"] for u, v in zip(us, vs)]
    else:
        edges = data["edges"]
    distinct = len({(u, v) if u < v else (v, u) for u, v in edges})
    del data, edges

    def one(index: int, traced: bool) -> Dict:
        spans = os.path.join(out, f"spans-{index}.bin")
        return _run_child(root, args.workload, inputs, spans, traced)

    reps = _repeat(one, args.seconds, bool(args.trace))
    info = {"distinct_edges": distinct}
    plain = [r["state_bytes"] for r in reps if not r["traced"]]
    info["bytes_per_distinct_edge"] = statistics.median(plain) / distinct
    return reps, reference, info


def _service(root: str, args, out: str):
    tenants = workloads.service_inputs(args.seed)
    reference = workloads.service_reference(tenants)
    plan = loadgen.Plan(tenants)
    del tenants
    # The generator's own garbage collections must not stall the probe.
    gc.collect()
    gc.freeze()

    def one(index: int, traced: bool) -> Dict:
        checkpoints = os.path.join(out, f"checkpoints-{index}")
        spans = os.path.join(out, f"spans-{index}.bin")
        command = [sys.executable, os.path.join(HERE, "server.py"), root, checkpoints, str(int(traced)), spans]
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline().split()
            if len(ready) != 3 or ready[0] != "READY":
                raise RuntimeError(f"service process printed {' '.join(ready)!r}")
            result = asyncio.run(loadgen.run_repetition(ready[1], int(ready[2]), plan, proc.pid))
            tail = proc.stdout.read()
            if proc.wait(timeout=60) != 0:
                raise RuntimeError(f"service process exited with {proc.returncode}")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        summary = json.loads(tail.strip().splitlines()[-1])
        result["slices"] = summary["slices"]
        result["setup_slices"] = summary["setup_slices"]
        result["setup_s"] = result.pop("opened") - summary["started"]
        result["kernel"] = ",".join(summary["kernels"])
        result["layers"] = summary["layers"]
        shutil.rmtree(checkpoints, ignore_errors=True)
        return result

    reps = _repeat(one, args.seconds, bool(args.trace))
    plain = [r for r in reps if not r["traced"]]
    lateness = [x for r in plain for x in r["lateness"]] or [0.0]
    info = {
        "bytes_per_tenant": statistics.median(r["state_bytes"] for r in plain) / workloads.SERVICE_TENANTS,
        "probe_lateness_p50_ms": common.percentile(lateness, 50) * 1e3,
        "probe_lateness_max_ms": max(lateness) * 1e3,
    }
    return reps, reference, info


def _eps(rep: Dict) -> float:
    return rep["records"] / rep["span_s"]


def _end_to_end(reps: List[Dict]) -> Dict[str, float]:
    """End-to-end metrics, every duration scaled by its repetition's speed.

    Set-up is scaled by the speed of the slices run right before it.
    Latencies are pooled over the repetitions.
    """
    latencies = [x * r["speed"] for r in reps for x in r["latencies"]]
    lags = [x * r["speed"] for r in reps for x in r["lags"]]
    return {
        "throughput_eps": statistics.median(_eps(r) / r["speed"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] * r["setup_speed"] for r in reps),
        "state_mb": statistics.median(r["state_bytes"] for r in reps) / 1e6,
        "query_trimmed_mean_ms": common.trimmed_mean(latencies) * 1e3,
        "result_lag_trimmed_mean_ms": common.trimmed_mean(lags) * 1e3,
        # For information only: percentiles of the pooled samples swing
        # between the modes that checkpoints and window closes create.
        "query_p50_ms": common.percentile(latencies, 50) * 1e3,
        "query_p95_ms": common.percentile(latencies, 95) * 1e3,
        "result_lag_p50_ms": common.percentile(lags, 50) * 1e3,
        "unscaled_throughput_eps": statistics.median(_eps(r) for r in reps),
    }


def _per_layer(reps: List[Dict], declared: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics; those in ``s`` or ``ms`` are scaled by speed."""
    timed = {m["name"] for m in declared if m["unit"] in ("s", "ms")}
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = {
        name: statistics.median(r["layers"][name] * (r["speed"] if name in timed else 1.0) for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead"] = 1.0 - statistics.median(_eps(r) / r["speed"] for r in traced) / statistics.median(
        _eps(r) / r["speed"] for r in plain
    )
    # Window emits are end-to-end call durations, pooled over the untraced
    # repetitions so that tracing does not inflate them.
    emits_ms = [x * r["speed"] * 1e3 for r in plain for x in r.get("emits", ())]
    for q in (50, 95):
        metrics[f"monitor.window_emit_p{q}_ms"] = common.percentile(emits_ms, q) if emits_ms else 0.0
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no ./src/repro here; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    out = os.path.join(root, ".perfbench", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(root, ".perfbench", "kernel-cache")
    # The compiler's and tempfile's scratch files stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(os.environ["TMPDIR"])
    # Measured processes import from warm bytecode, as users of an installed
    # package do, even where PYTHONDONTWRITEBYTECODE is set; the bytecode
    # stays under .perfbench/ too.
    pycache = os.path.join(root, ".perfbench", "pycache")
    os.environ["PYTHONPYCACHEPREFIX"] = pycache
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.pycache_prefix = pycache
    common.use_checkout_sources(root)

    def _deadline(signum, frame):
        raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        for directory in (os.path.join(root, "src"), HERE):
            compileall.compile_dir(directory, quiet=1)
        from repro.core.kernel import resolve_kernel

        # Builds the native kernel into the cache before the first timed run.
        resolve_kernel("auto", 32)
        runner = _service if args.workload == "service-mixed" else _library
        reps, reference, info = runner(root, args, out)
        reference = json.loads(json.dumps(reference))
        correct = all(r["outputs"] == reference for r in reps) and all(
            r["kernel"] == reps[0]["kernel"] for r in reps
        )
        if args.trace:
            declared_metrics = declared["per_layer"]
            computed = _per_layer(reps, declared_metrics)
        else:
            computed, declared_metrics = _end_to_end(reps), declared["end_to_end"]
        metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared_metrics}
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
    speeds = [r["speed"] for r in reps]
    info.update(
        workload=args.workload,
        seed=args.seed,
        kernel=reps[0]["kernel"],
        cpus=os.cpu_count(),
        python=platform.python_version(),
        repetitions=len(reps),
        traced_repetitions=sum(r["traced"] for r in reps),
        queries=sum(len(r["latencies"]) for r in reps),
        mismatched=[i for i, r in enumerate(reps) if r["outputs"] != reference],
        speed=[min(speeds), statistics.median(speeds), max(speeds)],
    )
    if not args.trace:
        info.update((name, computed[name]) for name in INFO_METRICS)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    with open(os.path.join(out, "result.json"), "w") as handle:
        repetitions = [{key: r[key] for key in REPETITION_KEYS if key in r} for r in reps]
        json.dump(
            {"info": info, "result": result, "all_metrics": computed, "repetitions": repetitions},
            handle,
            indent=1,
        )
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
