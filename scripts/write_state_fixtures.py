"""Write small checkpoints of every REPT state boundary into a directory.

The checkpoints pin the on-disk state formats.  Run this script with an
older checkout's ``src`` on ``PYTHONPATH`` and commit what it writes;
``tests/durability/test_state_fixtures.py`` then resumes every checkpoint
with the current code and requires the result to be bit-identical to an
uninterrupted run::

    PYTHONPATH=<checkout>/src python scripts/write_state_fixtures.py OUT_DIR

Every state uses (m, c) = (4, 6) with local counts: Algorithm 2 with one
complete group and a partial group of two processors, so η is tracked.
``OUT_DIR`` receives:

* ``stream.json`` — the records (``[u, v, t]``), the cut offset and the
  batch and segment sizes the writers used;
* ``service/t/`` — the checkpoint directory of a service ``rept`` tenant;
* ``durable/`` — a ``run_rept_durable`` checkpoint directory;
* ``elastic/shard-NNNN/`` — the elastic coordinator's per-shard
  checkpoints;
* ``estimator.pkl`` — a pickled ``ReptEstimator`` on the C kernel;
* ``monitor/`` and ``monitor-python/`` — ``run_monitor_durable``
  checkpoints with open windows and closed results, with
  ``kernel="auto"`` (the C kernel where it builds) and with
  ``kernel="python"``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pickle
import random
from pathlib import Path

from repro.cluster import ElasticCoordinator
from repro.core import ReptConfig, ReptEstimator
from repro.durability import run_monitor_durable, run_rept_durable
from repro.service import EstimationService, InProcessClient
from repro.streaming.monitor import WindowedTriangleMonitor

M, C, SEED = 4, 6, 29
RECORDS = 320
CUT = 160
BATCH = 40
SEGMENT = 80
#: The monitor: 3-pane windows sliding by one pane of one second.
MONITOR = {
    "window_seconds": 3.0,
    "slide_seconds": 1.0,
    "pane_seconds": 1.0,
    "allowed_lateness": 0.5,
}


def make_records(n: int, seed: int):
    """``n`` timestamped records over 36 nodes, half of them closing wedges.

    Repeated edges and a few out-of-order timestamps (within the
    monitor's lateness allowance) are part of the stream on purpose.
    """
    rng = random.Random(seed)
    edges = []
    adjacency = {}
    for _ in range(n):
        if edges and rng.random() < 0.15:
            u, v = rng.choice(edges)
        elif edges and rng.random() < 0.5:
            u, w = rng.choice(edges)
            v = rng.choice(sorted(adjacency[w]))
            if v == u:
                v = rng.randrange(36)
        else:
            u, v = rng.randrange(36), rng.randrange(36)
        edges.append((u, v))
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    records = []
    for i, (u, v) in enumerate(edges):
        time = i / 40.0
        if rng.random() < 0.1:
            time = max(0.0, time - 0.3)
        records.append([u, v, round(time, 3)])
    return records


def config(kernel: str = "auto") -> ReptConfig:
    return ReptConfig(m=M, c=C, seed=SEED, track_local=True, kernel=kernel)


def monitor_factory(kernel: str):
    def factory():
        return WindowedTriangleMonitor(config=config(kernel), **MONITOR)

    return factory


def write_service(out: Path, edges) -> None:
    async def scenario():
        service = EstimationService(checkpoint_root=out / "service")
        client = InProcessClient(service)
        await client.open("t", engine={"kind": "rept", "m": M, "c": C, "seed": SEED})
        for start in range(0, CUT, BATCH):
            await client.ingest("t", [list(e) for e in edges[start : start + BATCH]])
        await service.sessions["t"].queue.join()
        await client.checkpoint("t")

    asyncio.run(scenario())


def write_elastic(out: Path, edges) -> None:
    with ElasticCoordinator(
        config(), num_workers=0, snapshot_every=2, checkpoint_base=str(out / "elastic")
    ) as coordinator:
        for start in range(0, CUT, BATCH):
            coordinator.submit(edges[start : start + BATCH])
        coordinator.portable_state()
    # The coordinator keeps two generations per shard; the older ones are
    # not needed to resume.
    for shard in (out / "elastic").iterdir():
        *older, _newest = sorted(shard.glob("ckpt-*.ckpt"))
        for path in older:
            path.unlink()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    out = parser.parse_args().out
    out.mkdir(parents=True, exist_ok=True)
    records = make_records(RECORDS, SEED)
    edges = [(u, v) for u, v, _ in records]
    (out / "stream.json").write_text(
        json.dumps(
            {
                "m": M,
                "c": C,
                "seed": SEED,
                "cut": CUT,
                "batch": BATCH,
                "segment": SEGMENT,
                "monitor": MONITOR,
                "records": records,
            }
        )
    )
    write_service(out, edges)
    run_rept_durable(
        edges[:CUT], config(), out / "durable", checkpoint_every=SEGMENT, keep=1
    )
    write_elastic(out, edges)
    estimator = ReptEstimator(config("native"))
    estimator.process_edges(edges[:CUT])
    (out / "estimator.pkl").write_bytes(pickle.dumps(estimator))
    for kernel, name in (("auto", "monitor"), ("python", "monitor-python")):
        run_monitor_durable(
            monitor_factory(kernel),
            [tuple(r) for r in records[:CUT]],
            out / name,
            checkpoint_every=SEGMENT,
            keep=1,
            flush=False,
        )


if __name__ == "__main__":
    main()
