"""Tests for the CI throughput-regression gate.

The gate script (``benchmarks/check_bench_regression.py``) is standalone
(no package imports) so CI can run it without ``PYTHONPATH``; these tests
load it by path and drive simulated baseline/fresh payloads through it —
the acceptance criterion is that a ≥20% simulated batch-throughput
regression — or native per-edge one — fails the gate while parity (and
pure hardware drift, thanks to per-edge calibration) passes.
"""

from __future__ import annotations

import importlib.util
import io
import json
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_bench_regression.py"

spec = importlib.util.spec_from_file_location("check_bench_regression", GATE_PATH)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def _payload(cells):
    return {"benchmark": "ingest-throughput", "cells": cells}


def _cell(m, c, hash_kind, num_records, per_edge_eps, batch_eps, kernel="python"):
    return {
        "m": m,
        "c": c,
        "hash": hash_kind,
        "kernel": kernel,
        "num_records": num_records,
        "per_edge_eps": per_edge_eps,
        "batch_eps": batch_eps,
        "speedup": round(batch_eps / per_edge_eps, 3),
    }


BASELINE = [
    _cell(16, 32, "tabulation", 250_000, 40_000, 120_000),
    _cell(16, 32, "splitmix", 250_000, 60_000, 130_000),
    _cell(16, 16, "tabulation", 50_000, 90_000, 320_000),
]

#: A kernel-keyed baseline: each shape carries a python cell and a native
#: twin whose batch path is faster (the cc closure loop).
KERNEL_BASELINE = BASELINE + [
    _cell(16, 32, "tabulation", 250_000, 150_000, 360_000, kernel="cc"),
    _cell(16, 32, "splitmix", 250_000, 170_000, 390_000, kernel="cc"),
]


def _index(cells):
    return {
        (
            cell["m"],
            cell["c"],
            cell["hash"],
            cell.get("kernel", "python"),
            round(cell["num_records"] / max(x["num_records"] for x in cells), 3),
        ): cell
        for cell in cells
    }


def _scale(cells, per_edge=1.0, batch=1.0, records=1.0, kernel=None):
    """Rescale cells; ``kernel`` restricts the scaling to one kernel's cells."""
    return [
        _cell(
            cell["m"],
            cell["c"],
            cell["hash"],
            int(cell["num_records"] * records),
            cell["per_edge_eps"]
            * (per_edge if kernel in (None, cell["kernel"]) else 1.0),
            cell["batch_eps"]
            * (batch if kernel in (None, cell["kernel"]) else 1.0),
            kernel=cell["kernel"],
        )
        for cell in cells
    ]


def _run(baseline, fresh, **kwargs):
    out = io.StringIO()
    code = gate.check_regression(_index(baseline), _index(fresh), out=out, **kwargs)
    return code, out.getvalue()


class TestGateLogic:
    def test_parity_passes(self):
        code, text = _run(BASELINE, _scale(BASELINE), tolerance=0.20)
        assert code == 0
        assert "PASS" in text

    def test_simulated_25pct_batch_regression_fails(self):
        code, text = _run(BASELINE, _scale(BASELINE, batch=0.75), tolerance=0.20)
        assert code == 1
        assert "REGRESSED" in text

    def test_regression_in_one_cell_is_enough(self):
        fresh = _scale(BASELINE)
        fresh[1] = _cell(16, 32, "splitmix", 250_000, 60_000, 130_000 * 0.7)
        code, text = _run(BASELINE, fresh, tolerance=0.20)
        assert code == 1
        assert text.count("REGRESSED") == 1

    def test_within_tolerance_regression_passes(self):
        code, _ = _run(BASELINE, _scale(BASELINE, batch=0.85), tolerance=0.20)
        assert code == 0

    def test_tolerance_is_configurable(self):
        code, _ = _run(BASELINE, _scale(BASELINE, batch=0.85), tolerance=0.10)
        assert code == 1

    def test_uniform_hardware_slowdown_passes_with_calibration(self):
        # A slower runner shifts both paths equally; calibration absorbs it.
        fresh = _scale(BASELINE, per_edge=0.6, batch=0.6)
        code, text = _run(BASELINE, fresh, tolerance=0.20)
        assert code == 0
        assert "calibration=0.600" in text

    def test_batch_only_regression_not_masked_by_calibration(self):
        # Per-edge at parity, batch down 30%: a genuine pipeline regression.
        fresh = _scale(BASELINE, per_edge=1.0, batch=0.70)
        code, _ = _run(BASELINE, fresh, tolerance=0.20)
        assert code == 1

    def test_no_calibrate_gates_absolute_throughput(self):
        fresh = _scale(BASELINE, per_edge=0.6, batch=0.6)
        code, _ = _run(BASELINE, fresh, tolerance=0.20, calibrate=False)
        assert code == 1

    def test_reduced_ci_stream_still_matches_by_fraction(self):
        # CI runs a 60k stream vs the committed 250k: fractions line up.
        fresh = _scale(BASELINE, records=60_000 / 250_000)
        code, text = _run(BASELINE, fresh, tolerance=0.20)
        assert code == 0
        assert "3 matched cells" in text

    def test_unmatched_cells_is_an_input_error(self):
        fresh = [_cell(99, 99, "splitmix", 250_000, 60_000, 130_000)]
        code, text = _run(BASELINE, fresh, tolerance=0.20)
        assert code == 2
        assert "no cells match" in text

    def test_absurd_calibration_factor_aborts(self):
        fresh = _scale(BASELINE, per_edge=0.05, batch=0.05)
        code, text = _run(BASELINE, fresh, tolerance=0.20)
        assert code == 2
        assert "calibration factor" in text

    def test_speedup_metric_is_machine_independent(self):
        fresh = _scale(BASELINE, per_edge=0.5, batch=0.5)
        code, _ = _run(BASELINE, fresh, tolerance=0.20, metric="speedup")
        assert code == 0
        # Batch-only loss shows up as a speedup regression too.
        code, _ = _run(
            BASELINE, _scale(BASELINE, batch=0.7), tolerance=0.20, metric="speedup"
        )
        assert code == 1


class TestKernelKeyedCells:
    def test_kernel_cells_match_independently(self):
        code, text = _run(KERNEL_BASELINE, _scale(KERNEL_BASELINE), tolerance=0.20)
        assert code == 0
        assert "5 matched cells" in text
        assert "kernel=cc" in text
        assert "kernel=python" in text

    def test_simulated_native_kernel_regression_fails(self):
        """A 30% native-batch loss fails even when python cells improved —
        the native floor is keyed on the native cells, not the best cell."""
        fresh = _scale(KERNEL_BASELINE, batch=1.1, kernel="python")
        fresh = _scale(fresh, batch=0.70 / 1.0, kernel="cc")
        code, text = _run(KERNEL_BASELINE, fresh, tolerance=0.20)
        assert code == 1
        assert text.count("REGRESSED") == 2
        assert "kernel=cc" in text

    def test_python_kernel_regression_not_masked_by_native_cells(self):
        fresh = _scale(KERNEL_BASELINE, batch=0.70, kernel="python")
        code, text = _run(KERNEL_BASELINE, fresh, tolerance=0.20)
        assert code == 1
        for line in text.splitlines():
            if "REGRESSED" in line:
                assert "kernel=python" in line

    def test_calibration_uses_python_cells_only(self):
        """Hardware drift is measured on the python per-edge reference; a
        native per-edge slowdown must not rescale the python floors."""
        # Same machine, but the native per-edge path lost 50%: the factor
        # stays 1.0 (python cells at parity) and the native batch loss is
        # judged unrescaled.
        fresh = _scale(KERNEL_BASELINE, per_edge=0.5, batch=0.7, kernel="cc")
        code, text = _run(KERNEL_BASELINE, fresh, tolerance=0.20)
        assert "calibration=1.000" in text
        assert code == 1

    def test_uniform_slowdown_calibrates_across_kernels(self):
        fresh = _scale(KERNEL_BASELINE, per_edge=0.6, batch=0.6)
        code, text = _run(KERNEL_BASELINE, fresh, tolerance=0.20)
        assert code == 0
        assert "calibration=0.600" in text

    def test_pre_kernel_baseline_matches_python_cells(self):
        """Baselines written before the kernel dimension default to python
        and keep gating a kernel-keyed fresh run's python cells."""
        legacy = [
            {k: v for k, v in cell.items() if k != "kernel"} for cell in BASELINE
        ]
        code, text = _run(legacy, _scale(KERNEL_BASELINE), tolerance=0.20)
        assert code == 0
        assert "3 matched cells" in text
        code, _ = _run(
            legacy,
            _scale(KERNEL_BASELINE, batch=0.7, kernel="python"),
            tolerance=0.20,
        )
        assert code == 1


class TestNativePerEdgeGate:
    """A native cell's per-edge figure is the compiled per-edge call, so it
    is gated like the batch figure, calibrated by the python cells."""

    def test_25pct_native_per_edge_drop_fails(self):
        fresh = _scale(KERNEL_BASELINE, per_edge=0.75, kernel="cc")
        code, text = _run(KERNEL_BASELINE, fresh, tolerance=0.20)
        assert code == 1
        assert "calibration=1.000" in text
        regressed = [line for line in text.splitlines() if "REGRESSED" in line]
        assert len(regressed) == 2
        assert all("kernel=cc" in line and "per_edge_eps" in line for line in regressed)

    def test_25pct_native_per_edge_drop_fails_under_speedup_metric(self):
        fresh = _scale(KERNEL_BASELINE, per_edge=0.75, kernel="cc")
        code, text = _run(KERNEL_BASELINE, fresh, tolerance=0.20, metric="speedup")
        assert code == 1
        assert "per_edge_eps" in text

    def test_uniform_slowdown_passes(self):
        fresh = _scale(KERNEL_BASELINE, per_edge=0.6, batch=0.6)
        code, text = _run(KERNEL_BASELINE, fresh, tolerance=0.20)
        assert code == 0
        assert "calibration=0.600" in text
        assert text.count("per_edge_eps") == 2

    def test_python_cells_alone_set_the_calibration(self):
        # The native per-edge path doubled: the factor stays 1.0, since
        # only python cells calibrate, and nothing regressed.
        fresh = _scale(KERNEL_BASELINE, per_edge=2.0, kernel="cc")
        code, text = _run(KERNEL_BASELINE, fresh, tolerance=0.20)
        assert code == 0
        assert "calibration=1.000" in text
        # A python per-edge slowdown moves the factor and every floor with it.
        fresh = _scale(KERNEL_BASELINE, per_edge=0.5, kernel="python")
        code, text = _run(KERNEL_BASELINE, fresh, tolerance=0.20)
        assert "calibration=0.500" in text
        assert code == 0

    def test_python_per_edge_is_not_gated(self):
        fresh = _scale(KERNEL_BASELINE, per_edge=0.5)
        fresh = _scale(fresh, per_edge=2.0, batch=2.0, kernel="cc")
        code, text = _run(KERNEL_BASELINE, fresh, tolerance=0.20, calibrate=False)
        assert code == 0
        assert "kernel=python frac=1.0: per_edge_eps" not in text


class TestCommandLine:
    def _write(self, tmp_path, name, cells):
        path = tmp_path / name
        path.write_text(json.dumps(_payload(cells)))
        return path

    def test_main_pass_and_fail(self, tmp_path):
        base = self._write(tmp_path, "base.json", BASELINE)
        same = self._write(tmp_path, "same.json", _scale(BASELINE))
        bad = self._write(tmp_path, "bad.json", _scale(BASELINE, batch=0.75))
        assert gate.main(["--baseline", str(base), "--fresh", str(same)]) == 0
        assert gate.main(["--baseline", str(base), "--fresh", str(bad)]) == 1

    def test_tolerance_env_override(self, tmp_path, monkeypatch):
        base = self._write(tmp_path, "base.json", BASELINE)
        soft = self._write(tmp_path, "soft.json", _scale(BASELINE, batch=0.75))
        monkeypatch.setenv("REPRO_BENCH_REGRESSION_TOLERANCE", "0.30")
        assert gate.main(["--baseline", str(base), "--fresh", str(soft)]) == 0

    def test_calibrate_env_override(self, tmp_path, monkeypatch):
        base = self._write(tmp_path, "base.json", BASELINE)
        slow = self._write(tmp_path, "slow.json", _scale(BASELINE, per_edge=0.6, batch=0.6))
        monkeypatch.setenv("REPRO_BENCH_REGRESSION_CALIBRATE", "0")
        assert gate.main(["--baseline", str(base), "--fresh", str(slow)]) == 1

    def test_missing_file_is_an_input_error(self, tmp_path):
        base = self._write(tmp_path, "base.json", BASELINE)
        with pytest.raises(SystemExit):
            gate.main(["--baseline", str(base), "--fresh", str(tmp_path / "nope.json")])

    def test_bad_tolerance_rejected(self, tmp_path):
        base = self._write(tmp_path, "base.json", BASELINE)
        with pytest.raises(SystemExit):
            gate.main(
                ["--baseline", str(base), "--fresh", str(base), "--tolerance", "1.5"]
            )


def _service_report(aggregate_eps, calibration_eps, shed_frames=0):
    return {
        "benchmark": "service-loadgen",
        "aggregate_eps": aggregate_eps,
        "calibration_eps": calibration_eps,
        "service_to_raw_ratio": round(aggregate_eps / calibration_eps, 4),
        "shed_frames": shed_frames,
        "query": {"queries": 40, "p50_ms": 0.5, "p95_ms": 1.2, "p99_ms": 2.0},
    }


SERVICE_BASELINE = _service_report(80_000.0, 160_000.0)


def _run_service(baseline, fresh, **kwargs):
    out = io.StringIO()
    code = gate.check_service_regression(baseline, fresh, out=out, **kwargs)
    return code, out.getvalue()


class TestServiceGate:
    def test_parity_passes(self):
        code, text = _run_service(
            SERVICE_BASELINE, _service_report(80_000.0, 160_000.0), tolerance=0.20
        )
        assert code == 0
        assert "PASS" in text

    def test_simulated_30pct_regression_fails(self):
        code, text = _run_service(
            SERVICE_BASELINE, _service_report(56_000.0, 160_000.0), tolerance=0.20
        )
        assert code == 1
        assert "REGRESSED" in text

    def test_within_tolerance_regression_passes(self):
        code, _ = _run_service(
            SERVICE_BASELINE, _service_report(68_000.0, 160_000.0), tolerance=0.20
        )
        assert code == 0

    def test_uniform_hardware_slowdown_passes_with_calibration(self):
        # A slower runner halves raw estimator ingest and service delivery
        # alike; the calibration factor absorbs it.
        code, text = _run_service(
            SERVICE_BASELINE, _service_report(40_000.0, 80_000.0), tolerance=0.20
        )
        assert code == 0
        assert "calibration=0.500" in text

    def test_service_only_regression_not_masked_by_calibration(self):
        # Raw ingest at parity, service delivery down 30%: a genuine
        # regression in the service stack.
        code, _ = _run_service(
            SERVICE_BASELINE, _service_report(56_000.0, 160_000.0), tolerance=0.20
        )
        assert code == 1

    def test_no_calibrate_gates_absolute_throughput(self):
        fresh = _service_report(40_000.0, 80_000.0)
        code, _ = _run_service(
            SERVICE_BASELINE, fresh, tolerance=0.20, calibrate=False
        )
        assert code == 1

    def test_absurd_calibration_factor_aborts(self):
        fresh = _service_report(4_000.0, 8_000.0)
        code, text = _run_service(SERVICE_BASELINE, fresh, tolerance=0.20)
        assert code == 2
        assert "calibration factor" in text

    def test_missing_aggregate_eps_is_an_input_error(self):
        code, text = _run_service(SERVICE_BASELINE, {"query": {}}, tolerance=0.20)
        assert code == 2
        assert "aggregate_eps" in text

    def test_shed_frames_reported(self):
        _, text = _run_service(
            SERVICE_BASELINE,
            _service_report(80_000.0, 160_000.0, shed_frames=3),
            tolerance=0.20,
        )
        assert "shed 3 frame(s)" in text


class TestServiceCommandLine:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_main_autodetects_service_payloads(self, tmp_path):
        base = self._write(tmp_path, "base.json", SERVICE_BASELINE)
        same = self._write(
            tmp_path, "same.json", _service_report(80_000.0, 160_000.0)
        )
        bad = self._write(
            tmp_path, "bad.json", _service_report(56_000.0, 160_000.0)
        )
        assert gate.main(["--baseline", str(base), "--fresh", str(same)]) == 0
        assert gate.main(["--baseline", str(base), "--fresh", str(bad)]) == 1

    def test_explicit_kind_flag(self, tmp_path):
        base = self._write(tmp_path, "base.json", SERVICE_BASELINE)
        same = self._write(
            tmp_path, "same.json", _service_report(80_000.0, 160_000.0)
        )
        command = ["--baseline", str(base), "--fresh", str(same)]
        assert gate.main(command + ["--kind", "service"]) == 0

    def test_mixed_payload_kinds_is_an_input_error(self, tmp_path):
        ingest = self._write(tmp_path, "ingest.json", _payload(BASELINE))
        service = self._write(tmp_path, "service.json", SERVICE_BASELINE)
        assert gate.main(["--baseline", str(ingest), "--fresh", str(service)]) == 2

    def test_undetectable_payload_is_an_input_error(self, tmp_path):
        base = self._write(tmp_path, "base.json", SERVICE_BASELINE)
        mystery = self._write(tmp_path, "mystery.json", {"what": "is this"})
        with pytest.raises(SystemExit, match="cannot detect"):
            gate.main(["--baseline", str(base), "--fresh", str(mystery)])
