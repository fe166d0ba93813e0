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
        return {
            tenant["name"]: _array_bytes(service.sessions[tenant["name"]].engine.state) / 1e6
            for tenant in tenants
        }

    per_tenant = asyncio.run(scenario())
    return {"tenant_array_mb": per_tenant, "total_array_mb": sum(per_tenant.values())}


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
    for chain in monitor._chains.values():
        total += _array_bytes(chain.state, by_column)
    return {
        "open_window_array_mb": total / 1e6,
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
