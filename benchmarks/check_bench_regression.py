#!/usr/bin/env python
"""CI throughput-regression gate for the ingest and service benchmarks.

Diffs a fresh benchmark payload against the baseline committed in the
repository and fails on regressions beyond a configurable tolerance
(default 20%).  Two payload kinds are understood (auto-detected from the
file, or forced with ``--kind``):

* **ingest** — ``BENCH_ingest.json`` (written to ``benchmarks/out/`` by
  ``benchmarks/test_bench_ingest_throughput.py``): every cell's **batch
  throughput** is gated, and so is every non-python cell's **per-edge
  throughput** (the compiled per-edge call), both calibrated by the
  python cells' per-edge reference path;
* **service** — ``BENCH_service.json`` (written to ``benchmarks/out/`` by
  ``benchmarks/test_bench_service.py``): the multi-tenant
  **aggregate delivered eps** of the estimation service is gated,
  calibrated by ``calibration_eps`` (raw single-threaded estimator
  ingest on the same engine shape).

Cross-machine calibration
-------------------------
CI runners and the machine that produced the committed baseline rarely
share clock speed, so absolute edges/second are not directly comparable.
The gate therefore rescales the baseline by a *calibration factor*: the
median ratio of fresh vs baseline **per-edge** throughput across matched
cells.  The per-edge path is the un-optimised reference loop — a slower
machine slows both paths by the same factor, so calibrating on it isolates
regressions in the batch pipeline (the thing this repo optimises) from
hardware drift.  A regression in code shared by both paths shows up in the
calibration factor itself, which is printed and bounded (a factor outside
[1/5, 5] aborts with a diagnostic rather than silently gating nonsense).
Disable with ``--no-calibrate`` (or ``REPRO_BENCH_REGRESSION_CALIBRATE=0``)
when baseline and fresh run share hardware.

Cells are matched on ``(m, c, hash, kernel, fraction-of-full-stream)`` so
the gate works even when CI runs a reduced stream
(``REPRO_BENCH_INGEST_EDGES``): the fraction each cell used of its run's
full stream is scale-invariant.  Cells written before the kernel dimension
existed default to ``kernel="python"``; each kernel's cells carry their
own floors, so a native-kernel regression cannot hide behind a python-path
improvement (or vice versa).  The calibration factor is computed from
python-kernel cells only — their per-edge path is the un-optimised
reference loop, while a native cell's per-edge path goes through the
compiled kernel and would fold kernel regressions into the hardware
factor.  That is also why a native cell's ``per_edge_eps`` is gated like
its batch figure: the same tolerance, against the baseline rescaled by
the same factor, under either metric.

Environment overrides (also available as flags):

* ``REPRO_BENCH_REGRESSION_TOLERANCE`` — allowed fractional regression
  per cell (default ``0.20``);
* ``REPRO_BENCH_REGRESSION_CALIBRATE`` — ``0`` disables calibration;
* ``REPRO_BENCH_REGRESSION_METRIC`` — ``batch_eps`` (default) gates
  calibrated batch throughput, ``speedup`` gates the machine-independent
  batch/per-edge ratio instead (ingest payloads only);
* ``REPRO_BENCH_REGRESSION_KIND`` — ``auto`` (default), ``ingest`` or
  ``service``.

Exit codes: 0 pass, 1 regression detected, 2 malformed/unmatched input.
Standalone by design — no imports from the package, runnable without
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

DEFAULT_TOLERANCE = 0.20
#: Calibration factors outside this band mean the per-edge reference itself
#: moved too much to trust a cross-machine comparison.
CALIBRATION_BAND = (0.2, 5.0)

CellKey = Tuple[int, int, str, str, float]


def _read_payload(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: cannot read benchmark payload {path}: {error}")
    if not isinstance(payload, dict):
        raise SystemExit(f"error: benchmark payload {path} is not a JSON object")
    return payload


def _detect_kind(payload: dict, path: Path) -> str:
    """Classify a payload as ``ingest`` (cell grid) or ``service`` (report)."""
    if "cells" in payload:
        return "ingest"
    if "aggregate_eps" in payload:
        return "service"
    raise SystemExit(
        f"error: cannot detect benchmark kind of {path}: expected an "
        "ingest payload (with 'cells') or a service payload (with "
        "'aggregate_eps')"
    )


def _load_cells(path: Path) -> Dict[CellKey, dict]:
    """Index a benchmark payload's cells by their scale-invariant key."""
    try:
        payload = json.loads(path.read_text())
        cells = payload["cells"]
        full = max(int(cell["num_records"]) for cell in cells)
    except (OSError, ValueError, KeyError) as error:
        raise SystemExit(f"error: cannot read benchmark payload {path}: {error}")
    indexed: Dict[CellKey, dict] = {}
    for cell in cells:
        key = (
            int(cell["m"]),
            int(cell["c"]),
            str(cell["hash"]),
            str(cell.get("kernel", "python")),
            round(int(cell["num_records"]) / full, 3),
        )
        indexed[key] = cell
    return indexed


def _env_flag(name: str, default: bool) -> bool:
    value = os.environ.get(name)
    if value is None:
        return default
    return value.strip().lower() not in ("0", "false", "no", "off")


def check_regression(
    baseline: Dict[CellKey, dict],
    fresh: Dict[CellKey, dict],
    tolerance: float,
    calibrate: bool = True,
    metric: str = "batch_eps",
    out=sys.stdout,
) -> int:
    """Compare fresh cells against the baseline; returns a process exit code."""
    if metric not in ("batch_eps", "speedup"):
        print(f"error: unknown metric {metric!r}", file=out)
        return 2
    matched = sorted(set(baseline) & set(fresh))
    if not matched:
        print(
            "error: no cells match between baseline and fresh run "
            f"(baseline keys: {sorted(baseline)}, fresh keys: {sorted(fresh)})",
            file=out,
        )
        return 2

    factor = 1.0
    if calibrate:
        # Python-kernel cells only: their per-edge path is the un-optimised
        # reference loop.  A native cell's per-edge path runs the compiled
        # kernel, so including it would launder kernel regressions into the
        # "hardware" factor.
        calibration_keys = [key for key in matched if key[3] == "python"]
        if not calibration_keys:
            calibration_keys = matched
        ratios = [
            fresh[key]["per_edge_eps"] / baseline[key]["per_edge_eps"]
            for key in calibration_keys
            if baseline[key].get("per_edge_eps")
        ]
        if ratios:
            factor = median(ratios)
        low, high = CALIBRATION_BAND
        if not low <= factor <= high:
            print(
                f"error: per-edge calibration factor {factor:.3f} is outside "
                f"[{low}, {high}] — the un-optimised reference path moved too "
                "much for a trustworthy cross-machine comparison; refresh the "
                "committed baseline or investigate the per-edge path",
                file=out,
            )
            return 2

    print(
        f"ingest-throughput regression gate: metric={metric}, "
        f"tolerance={tolerance:.0%}, calibration={factor:.3f} "
        f"({len(matched)} matched cells)",
        file=out,
    )
    failures: List[str] = []

    def gate(cell: str, name: str, expected: float, observed: float) -> None:
        floor = expected * (1.0 - tolerance)
        status = "ok" if observed >= floor else "REGRESSED"
        print(
            f"  {cell}: {name} {observed:,.2f} vs expected {expected:,.2f} "
            f"(floor {floor:,.2f}) {status}",
            file=out,
        )
        if observed < floor:
            failures.append(
                f"{cell}: {name} {observed:,.2f} < {floor:,.2f} "
                f"({1.0 - observed / expected:.1%} below baseline)"
            )

    for key in matched:
        m, c, hash_kind, kernel, fraction = key
        base_cell = baseline[key]
        fresh_cell = fresh[key]
        cell = f"m={m} c={c} hash={hash_kind} kernel={kernel} frac={fraction}"
        if metric == "speedup":
            expected = float(base_cell["speedup"])
        else:
            expected = float(base_cell["batch_eps"]) * factor
        gate(cell, metric, expected, float(fresh_cell[metric]))
        if kernel != "python" and base_cell.get("per_edge_eps"):
            # The compiled per-edge call, gated like the batch figure.
            gate(
                cell,
                "per_edge_eps",
                float(base_cell["per_edge_eps"]) * factor,
                float(fresh_cell["per_edge_eps"]),
            )
    if failures:
        print(
            f"FAIL: {len(failures)} cell(s) regressed more than "
            f"{tolerance:.0%}:",
            file=out,
        )
        for line in failures:
            print(f"  {line}", file=out)
        return 1
    print("PASS: no cell regressed beyond tolerance", file=out)
    return 0


def check_service_regression(
    baseline: dict,
    fresh: dict,
    tolerance: float,
    calibrate: bool = True,
    out=sys.stdout,
) -> int:
    """Gate the service loadgen's aggregate delivered throughput.

    The committed baseline and a CI runner rarely share hardware, so the
    baseline's ``aggregate_eps`` is rescaled by the ratio of fresh vs
    baseline ``calibration_eps`` — raw single-threaded estimator ingest,
    which moves with the machine but not with the service stack.  A
    regression in the estimator itself shows up in the factor, which is
    bounded like the ingest gate's.
    """
    try:
        base_eps = float(baseline["aggregate_eps"])
        fresh_eps = float(fresh["aggregate_eps"])
    except (KeyError, TypeError, ValueError) as error:
        print(f"error: service payload missing aggregate_eps: {error}", file=out)
        return 2

    factor = 1.0
    if calibrate:
        try:
            base_cal = float(baseline["calibration_eps"])
            fresh_cal = float(fresh["calibration_eps"])
        except (KeyError, TypeError, ValueError):
            base_cal = fresh_cal = 0.0
        if base_cal > 0.0 and fresh_cal > 0.0:
            factor = fresh_cal / base_cal
        low, high = CALIBRATION_BAND
        if not low <= factor <= high:
            print(
                f"error: service calibration factor {factor:.3f} is outside "
                f"[{low}, {high}] — raw estimator ingest moved too much for "
                "a trustworthy cross-machine comparison; refresh the "
                "committed baseline or investigate the estimator hot path",
                file=out,
            )
            return 2

    expected = base_eps * factor
    floor = expected * (1.0 - tolerance)
    status = "ok" if fresh_eps >= floor else "REGRESSED"
    print(
        f"service-throughput regression gate: tolerance={tolerance:.0%}, "
        f"calibration={factor:.3f}",
        file=out,
    )
    print(
        f"  aggregate_eps {fresh_eps:,.0f} vs expected {expected:,.0f} "
        f"(floor {floor:,.0f}) {status}",
        file=out,
    )
    shed = fresh.get("shed_frames")
    if shed:
        print(f"  note: fresh run shed {shed} frame(s)", file=out)
    query = fresh.get("query") or {}
    if query.get("p95_ms") is not None:
        print(f"  query p95 {query['p95_ms']:.2f} ms (informational)", file=out)
    if fresh_eps < floor:
        print(
            f"FAIL: aggregate throughput {fresh_eps:,.0f} eps is "
            f"{1.0 - fresh_eps / expected:.1%} below the calibrated "
            f"baseline (tolerance {tolerance:.0%})",
            file=out,
        )
        return 1
    print("PASS: aggregate throughput within tolerance", file=out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed BENCH_ingest.json to gate against",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="BENCH_ingest.json written by the fresh benchmark run",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(
            os.environ.get("REPRO_BENCH_REGRESSION_TOLERANCE", DEFAULT_TOLERANCE)
        ),
        help="allowed fractional regression per cell (default 0.20)",
    )
    parser.add_argument(
        "--metric",
        choices=("batch_eps", "speedup"),
        default=os.environ.get("REPRO_BENCH_REGRESSION_METRIC", "batch_eps"),
        help="what to gate: calibrated batch throughput (default) or the "
        "machine-independent batch/per-edge speedup (ingest payloads only)",
    )
    parser.add_argument(
        "--kind",
        choices=("auto", "ingest", "service"),
        default=os.environ.get("REPRO_BENCH_REGRESSION_KIND", "auto"),
        help="payload kind; 'auto' (default) detects it from the files",
    )
    parser.add_argument(
        "--no-calibrate",
        action="store_true",
        help="compare absolute batch_eps without per-edge calibration "
        "(same-hardware runs)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")
    calibrate = not args.no_calibrate and _env_flag(
        "REPRO_BENCH_REGRESSION_CALIBRATE", True
    )
    baseline_payload = _read_payload(args.baseline)
    fresh_payload = _read_payload(args.fresh)
    kind = args.kind
    if kind == "auto":
        kind = _detect_kind(baseline_payload, args.baseline)
        fresh_kind = _detect_kind(fresh_payload, args.fresh)
        if fresh_kind != kind:
            print(
                f"error: baseline is a {kind} payload but fresh is "
                f"{fresh_kind} — compare like with like"
            )
            return 2
    if kind == "service":
        return check_service_regression(
            baseline_payload,
            fresh_payload,
            tolerance=args.tolerance,
            calibrate=calibrate,
        )
    return check_regression(
        _load_cells(args.baseline),
        _load_cells(args.fresh),
        tolerance=args.tolerance,
        calibrate=calibrate,
        metric=args.metric,
    )


if __name__ == "__main__":
    sys.exit(main())
