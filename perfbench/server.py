"""Service process of one service-mixed repetition.

``run.py`` starts it as ``python3 perfbench/server.py ROOT CHECKPOINT_DIR TRACE SPANS``.
It builds :class:`~repro.service.server.EstimationService` the way the
``serve`` artefact does, except that durability checkpoints every
:data:`workloads.SERVICE_CHECKPOINT_EVERY` frames instead of on a 1 s
timer, so every run writes the same checkpoints at the same stream
offsets.  It prints ``READY <host> <port>`` once listening and, after a
client's ``shutdown``, one JSON line with the tenants' resolved kernels,
the timings of the reference slices it ran at start-up and between its
own callbacks (one at most every ``common.SLICE_PERIOD_S``) and, in traced
runs, the per-layer metrics.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

import common
import workloads


def main(argv) -> None:
    root, checkpoint_dir, trace, spans_path = argv
    import numpy  # noqa: F401  (not part of set-up; see the README)

    setup_slices = common.setup_slices()
    common.use_checkout_sources(root)
    # Set-up runs from here until the generator has opened every tenant.
    # perf_counter is CLOCK_MONOTONIC on Linux, so the generator's clock
    # reads the same.
    started = time.perf_counter()
    from repro.service.server import EstimationService

    ledger = None
    if trace == "1":
        import tracer

        ledger = tracer.Ledger().install()

    slices: list = []

    async def reference_slices() -> None:
        # Runs between the service's own callbacks on its event loop.
        while True:
            slices.append(common.reference_slice())
            await asyncio.sleep(common.SLICE_PERIOD_S)

    async def serve() -> EstimationService:
        service = EstimationService(
            checkpoint_root=checkpoint_dir,
            queue_frames=workloads.SERVICE_QUEUE_FRAMES,
            backpressure="block",
            checkpoint_every_frames=workloads.SERVICE_CHECKPOINT_EVERY,
            checkpoint_interval_seconds=None,
            watermark_interval_seconds=0.5,
        )
        service.recover_sessions()
        host, port = await service.serve_tcp("127.0.0.1", 0)
        service.start_timers()
        print(f"READY {host} {port}", flush=True)
        slicer = asyncio.get_running_loop().create_task(reference_slices())
        await service.wait_closed()
        slicer.cancel()
        return service

    service = asyncio.run(serve())
    layers = None
    if ledger is not None:
        layers = ledger.layer_metrics(ledger.mark_window())
        ledger.write(spans_path)
    kernels = sorted({session.engine.state.kernel for session in service.sessions.values()})
    summary = {
        "kernels": kernels,
        "layers": layers,
        "slices": slices,
        "setup_slices": setup_slices,
        "started": started,
    }
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
