"""The load generator's calibration yardstick (``calibration_eps``)."""

import pytest

from repro.core import kernel as kernel_mod
from repro.core.kernel import resolve_kernel
from repro.service.loadgen import measure_calibration_eps


@pytest.mark.skipif(
    resolve_kernel("auto") == "python", reason="kernel='auto' resolves to the dict groups here"
)
def test_calibration_runs_on_the_calling_thread(monkeypatch):
    # The yardstick measures the machine's speed, not its core count: even
    # with every batch call allowed threads, its calls start none.
    monkeypatch.setattr(kernel_mod, "THREAD_FLOOR", 1)
    monkeypatch.setattr(kernel_mod, "CPUS", 2)
    threads = []
    run_groups = kernel_mod.run_groups

    def spy(entry, *args):
        short = run_groups(entry, *args)
        threads.append(entry.threads)
        return short

    monkeypatch.setattr(kernel_mod, "run_groups", spy)
    assert measure_calibration_eps(num_records=5000) > 0
    assert threads and set(threads) == {0}
