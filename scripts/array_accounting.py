"""Count the bytes of the native groups' array columns in process.

Runs two of perfbench's workload shapes in this process with the C kernel
and prints, as one JSON object, what the ``ndarray`` attributes of every
native group's ``GroupArrays`` take (the sum perfbench's traced
``kernel.array_mb`` reports)::

    PYTHONPATH=src python scripts/array_accounting.py [--service-seed 901] [--monitor-seed 7]

* ``service``: ``service-mixed``'s tenants (three ``rept`` tenants with
  disjoint node ids) through an in-process ``EstimationService``, their
  frames interleaved one frame per tenant at a time; each tenant's array
  MB and their sum after the whole stream.
* ``monitor``: one pass of ``monitor-sliding``'s chunks and watermarks
  through a ``WindowedTriangleMonitor``; the array MB of the open windows'
  state sets (one per window) at the end of the pass (before the flush),
  split by column, and the growth of the process's resident set over the
  pass.

Beside each tenant's array MB and the open windows' MB it prints the array
bytes per stored edge (``total_edges_stored()``, summed over the groups,
so an edge two groups store counts twice) and per interned node (each
tenant's own interner; the monitor's one interner, which its windows
share).

It reads perfbench's input generators and configurations, so its figures
match the benchmark's shapes; it changes nothing there.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from collections import Counter

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import workloads  # noqa: E402


def _rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def _array_bytes(state, by_column=None) -> int:
    total = 0
    for group in state.groups:
        arrays = getattr(group, "_arrays", None)
        if arrays is None:
            continue
        for name, column in vars(arrays).items():
            if isinstance(column, np.ndarray):
                total += column.nbytes
                if by_column is not None:
                    by_column[name] += column.nbytes
    return total


def _per_edge_and_node(total: int, states, interner) -> dict:
    """Array bytes per stored edge and per interned node."""
    edges = sum(state.total_edges_stored() for state in states)
    return {
        "edges_stored": edges,
        "nodes": len(interner),
        "bytes_per_edge": round(total / edges, 1) if edges else None,
        "bytes_per_node": round(total / len(interner), 1) if len(interner) else None,
    }


def service(seed: int) -> dict:
    from repro.service import EstimationService, InProcessClient

    tenants = workloads.service_inputs(seed)

    async def scenario():
        service = EstimationService()
        client = InProcessClient(service)
        for tenant in tenants:
            await client.open(tenant["name"], engine=tenant["engine"])
        frames = max(len(tenant["frames"]) for tenant in tenants)
        for index in range(frames):
            for tenant in tenants:
                if index < len(tenant["frames"]):
                    frame = [list(edge) for edge in tenant["frames"][index]]
                    await client.ingest(tenant["name"], frame)
                    await service.sessions[tenant["name"]].queue.join()
        per_tenant = {}
        for tenant in tenants:
            state = service.sessions[tenant["name"]].engine.state
            total = _array_bytes(state)
            per_tenant[tenant["name"]] = {
                "array_mb": total / 1e6,
                **_per_edge_and_node(total, [state], state.interner),
            }
        return per_tenant

    per_tenant = asyncio.run(scenario())
    return {
        "tenants": per_tenant,
        "total_array_mb": sum(tenant["array_mb"] for tenant in per_tenant.values()),
    }


def monitor(seed: int) -> dict:
    data = workloads.library_inputs("monitor-sliding", seed)
    monitor = workloads.make_monitor(seed, "native")
    before = _rss_mb()
    for us, vs, ts, newest in data["chunks"]:
        monitor.ingest_columns(us, vs, ts)
        monitor.advance_watermark(newest)
    grown = _rss_mb() - before
    by_column: Counter = Counter()
    total = 0
    states = [chain.state for chain in monitor._chains.values()]
    for state in states:
        total += _array_bytes(state, by_column)
    return {
        "open_window_array_mb": total / 1e6,
        **_per_edge_and_node(total, states, monitor._template.interner),
        "by_column_mb": {name: round(size / 1e6, 3) for name, size in by_column.most_common()},
        "rss_growth_mb": grown,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--service-seed", type=int, default=901)
    parser.add_argument("--monitor-seed", type=int, default=7)
    args = parser.parse_args()
    result = {
        "monitor": monitor(args.monitor_seed),
        "service": service(args.service_seed),
    }
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
