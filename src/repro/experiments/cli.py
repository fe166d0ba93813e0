"""Command-line entry point: ``rept-experiment <artefact> [options]``.

Examples
--------
Run the Table II reproduction on every registered dataset::

    rept-experiment table2

Run Figure 3 on two datasets with 3 trials and truncated streams::

    rept-experiment figure3 --datasets flickr-sim youtube-sim --trials 3 --max-edges 4000

Run (or incrementally re-run) a full campaign from a spec file::

    rept-experiment campaign --spec campaigns/paper_full.toml --explain

The campaign artefact caches every task in a content-addressed store; an
immediate re-run is pure cache hits, ``--force`` recomputes everything,
``--dry-run`` shows what would run without running it, and
``--require-cached`` fails (exit code 3) if anything was *not* served from
cache — the CI hook that proves incremental reproduction works.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.kernel import KERNEL_CHOICES
from repro.experiments.backends import DEFAULT_BACKENDS
from repro.experiments.registry import artefact_names, get_artefact
from repro.experiments.spec import ExperimentResult

#: Exit code of ``--require-cached`` when a task had to be computed.
EXIT_CACHE_MISS = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rept-experiment",
        description="Regenerate a table or figure of the REPT paper, or run a campaign",
    )
    parser.add_argument(
        "artefact",
        choices=sorted(artefact_names() + ["campaign"]),
        help="which paper artefact (or ablation, or 'campaign') to regenerate",
    )
    parser.add_argument(
        "--datasets",
        nargs="*",
        default=None,
        help="registered dataset names (default: all)",
    )
    parser.add_argument("--trials", type=int, default=None, help="independent trials per cell")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--max-edges",
        type=int,
        default=None,
        help="truncate every stream to this many edges (smaller = faster)",
    )
    parser.add_argument(
        "--c-values",
        nargs="*",
        type=int,
        default=None,
        help="override the processor-count axis for the accuracy figures",
    )
    parser.add_argument(
        "--backends",
        nargs="*",
        default=None,
        help="execution backends for the 'backends' artefact "
        f"(default: {' '.join(DEFAULT_BACKENDS)})",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="edges per batch for chunked-elastic (default: auto-tuned)",
    )
    parser.add_argument(
        "--elastic",
        action="store_true",
        help="add the 'chunked-elastic' shard-coordinator backend to an "
        "explicit --backends list (combine with --workers and --chaos for "
        "membership-change chaos drills)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="records per ingestion batch for the 'ingest' artefact "
        "(default: 65536)",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=None,
        help="window width in seconds for the 'monitor' artefact "
        "(default: 300)",
    )
    parser.add_argument(
        "--slide",
        type=float,
        default=None,
        help="window slide in seconds for the 'monitor' artefact "
        "(default: the window width — tumbling)",
    )
    parser.add_argument(
        "--panes",
        type=int,
        default=None,
        help="panes per window for the 'monitor' artefact "
        "(default: one pane per slide)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="trace duration in seconds for the 'monitor' artefact "
        "(default: 3600; smaller = faster)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="durable checkpoint directory for the 'monitor' artefact: "
        "every ingest batch is checkpointed and the run resumes from the "
        "newest valid checkpoint on failure (a temporary directory is used "
        "when --chaos is given without one)",
    )
    parser.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help="ingestion-kernel selection for the 'ingest', 'backends' and "
        "'monitor' artefacts: 'auto' (default) uses the compiled C kernel "
        "when it builds here, 'python' forces the dict/set reference, "
        "'native' requires the C kernel",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="arm a deterministic fault-injection plan (a plan JSON file, "
        "or a directory containing plan.json) for the run — injected "
        "worker crashes exercise the supervision and checkpoint/recovery "
        "paths while the artefact's results must stay bit-identical; see "
        "repro.testing.faults",
    )

    service = parser.add_argument_group("service options (serve / loadgen)")
    service.add_argument(
        "--host",
        default=None,
        help="bind address for 'serve' / target address for 'loadgen' "
        "(default: 127.0.0.1 / self-hosted loopback)",
    )
    service.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port for 'serve' (0 = ephemeral) or the 'loadgen' target "
        "(omitted: loadgen self-hosts a loopback server)",
    )
    service.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="number of concurrent tenants for 'loadgen' (default: 3)",
    )
    service.add_argument(
        "--rate",
        type=float,
        default=None,
        help="target per-tenant ingest rate in edges/s for 'loadgen' "
        "(default: 50000)",
    )
    service.add_argument(
        "--frame-records",
        type=int,
        default=None,
        help="records per ingest frame for 'loadgen' (default: 2000)",
    )
    service.add_argument(
        "--queue-frames",
        type=int,
        default=None,
        help="per-session ingest queue bound, in frames (default: 64)",
    )
    service.add_argument(
        "--backpressure",
        choices=("block", "shed"),
        default=None,
        help="queue-full policy: 'block' delays the ingest response, "
        "'shed' drops the frame and counts it (default: block)",
    )
    service.add_argument(
        "--bench-out",
        default=None,
        help="write the 'loadgen' report as a bench JSON file "
        "(the BENCH_service.json payload)",
    )

    campaign = parser.add_argument_group("campaign options")
    campaign.add_argument(
        "--spec",
        default=None,
        help="campaign spec file (.toml or .json); required for 'campaign'",
    )
    campaign.add_argument(
        "--store",
        default=None,
        help="content-addressed result store directory "
        "(default: campaign-out/<name>/store)",
    )
    campaign.add_argument(
        "--out",
        default=None,
        help="directory for rendered outputs + manifest "
        "(default: campaign-out/<name>/artefacts)",
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes: campaign task fan-out (default: the spec's "
        "setting) or the 'backends' artefact's elastic worker count",
    )
    campaign.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached task results (on by default); --no-resume recomputes "
        "everything without consulting the cache",
    )
    campaign.add_argument(
        "--force",
        action="store_true",
        help="recompute every task, overwriting cached records",
    )
    campaign.add_argument(
        "--explain",
        action="store_true",
        help="print the per-task cache hit/miss table",
    )
    campaign.add_argument(
        "--dry-run",
        action="store_true",
        help="plan and fingerprint only; show what would run",
    )
    campaign.add_argument(
        "--require-cached",
        action="store_true",
        help=f"exit with code {EXIT_CACHE_MISS} if any task was not served "
        "from cache (CI regression hook)",
    )
    return parser


def _run_artefact(name: str, args: argparse.Namespace) -> ExperimentResult:
    kwargs: Dict[str, object] = {}
    if args.max_edges is not None:
        kwargs["max_edges"] = args.max_edges

    if name in ("figure3", "figure4", "figure5", "figure6"):
        if args.datasets is not None:
            kwargs["datasets"] = args.datasets
        if args.trials is not None:
            kwargs["num_trials"] = args.trials
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.c_values:
            kwargs["c_values"] = args.c_values
    elif name == "figure1":
        if args.datasets is not None:
            kwargs["datasets"] = args.datasets
    elif name == "figure7":
        if args.datasets is not None:
            kwargs["datasets"] = args.datasets
    elif name == "figure8":
        if args.datasets:
            kwargs["dataset"] = args.datasets[0]
        if args.trials is not None:
            kwargs["num_trials"] = args.trials
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.c_values:
            kwargs["c_values"] = args.c_values
    elif name == "table2":
        if args.datasets is not None:
            kwargs["datasets"] = args.datasets
    elif name == "backends":
        if args.datasets:
            kwargs["dataset"] = args.datasets[0]
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.backends:
            kwargs["backends"] = args.backends
        if args.chunk_size is not None:
            kwargs["chunk_size"] = args.chunk_size
        if args.elastic:
            kwargs["elastic"] = True
        if args.workers is not None:
            kwargs["max_workers"] = args.workers
        if args.kernel is not None:
            kwargs["kernel"] = args.kernel
    elif name == "ingest":
        kwargs.pop("max_edges", None)
        if args.max_edges is not None:
            kwargs["num_edges"] = args.max_edges
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.batch_size is not None:
            kwargs["batch_size"] = args.batch_size
        if args.kernel is not None:
            kwargs["kernel"] = args.kernel
    elif name == "serve":
        kwargs.pop("max_edges", None)
        if args.host is not None:
            kwargs["host"] = args.host
        if args.port is not None:
            kwargs["port"] = args.port
        if args.checkpoint_dir is not None:
            kwargs["checkpoint_dir"] = args.checkpoint_dir
        if args.duration is not None:
            kwargs["duration_seconds"] = args.duration
        if args.queue_frames is not None:
            kwargs["queue_frames"] = args.queue_frames
        if args.backpressure is not None:
            kwargs["backpressure"] = args.backpressure
    elif name == "loadgen":
        kwargs.pop("max_edges", None)
        if args.host is not None:
            kwargs["host"] = args.host
        if args.port is not None:
            kwargs["port"] = args.port
        if args.tenants is not None:
            kwargs["tenants"] = args.tenants
        if args.duration is not None:
            kwargs["duration_seconds"] = args.duration
        if args.rate is not None:
            kwargs["rate_eps"] = args.rate
        if args.frame_records is not None:
            kwargs["frame_records"] = args.frame_records
        if args.queue_frames is not None:
            kwargs["queue_frames"] = args.queue_frames
        if args.backpressure is not None:
            kwargs["backpressure"] = args.backpressure
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.bench_out is not None:
            kwargs["bench_out"] = args.bench_out
    elif name == "monitor":
        kwargs.pop("max_edges", None)
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.checkpoint_dir is not None:
            kwargs["checkpoint_dir"] = args.checkpoint_dir
        if args.window is not None:
            kwargs["window_seconds"] = args.window
        if args.slide is not None:
            kwargs["slide_seconds"] = args.slide
        if args.panes is not None:
            kwargs["panes_per_window"] = args.panes
        if args.duration is not None:
            kwargs["duration_seconds"] = args.duration
        if args.kernel is not None:
            kwargs["kernel"] = args.kernel
    else:  # ablations / predictions
        if args.datasets:
            kwargs["dataset"] = args.datasets[0]
        if args.trials is not None:
            kwargs["num_trials"] = args.trials
        if args.seed is not None:
            kwargs["seed"] = args.seed
    return get_artefact(name)(**kwargs)


def _run_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import load_campaign_spec, run_campaign

    if not args.spec:
        print("campaign requires --spec <file.toml|file.json>", file=sys.stderr)
        return 2
    spec = load_campaign_spec(args.spec)
    base = Path("campaign-out") / spec.name
    store = Path(args.store) if args.store else base / "store"
    out_dir = Path(args.out) if args.out else base / "artefacts"
    report = run_campaign(
        spec,
        store=store,
        out_dir=out_dir,
        resume=args.resume,
        force=args.force,
        workers=args.workers,
        dry_run=args.dry_run,
    )
    if args.explain:
        print(report.explain_text())
    else:
        print(report.summary_line())
    if not args.dry_run:
        print(f"store: {report.store_root}")
        print(f"outputs: {report.out_dir}")
    if args.require_cached and report.num_computed > 0:
        print(
            f"--require-cached: {report.num_computed} task(s) were not served "
            "from cache",
            file=sys.stderr,
        )
        return EXIT_CACHE_MISS
    return 0


def _chaos_context(plan_argument: str):
    """Arm the fault plan named by ``--chaos``.

    Accepts either a plan JSON file or a plan directory (one holding
    ``plan.json``).  A directory keeps its firing tokens afterwards for
    post-mortem inspection; a bare file gets a throwaway token directory.
    """
    import json as _json

    from repro.testing.faults import PLAN_FILE, FaultPlan, arm

    path = Path(plan_argument)
    directory = path if path.is_dir() else None
    plan_file = (path / PLAN_FILE) if directory else path
    plan = FaultPlan.from_json(_json.loads(plan_file.read_text(encoding="utf-8")))
    return arm(plan, directory=directory)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    import contextlib
    import tempfile

    args = _build_parser().parse_args(argv)
    if args.artefact == "campaign":
        return _run_campaign(args)
    with contextlib.ExitStack() as stack:
        if args.chaos:
            if args.artefact in ("monitor", "serve") and args.checkpoint_dir is None:
                # Chaos without durability would simply crash the artefact;
                # default to a throwaway checkpoint directory so recovery
                # has somewhere to resume from.
                args.checkpoint_dir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-service-ckpt-")
                )
            stack.enter_context(_chaos_context(args.chaos))
        result = _run_artefact(args.artefact, args)
    print(result.text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
