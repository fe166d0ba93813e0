"""Crash-then-resume tests: recovered runs are bit-identical to uninterrupted ones.

The durability contract under test (see :mod:`repro.durability.runner`): a
run killed at *any* segment boundary — by an exception, an I/O failure, or
genuine process death — and resumed from its checkpoint directory produces
exactly the estimates of the run that was never interrupted.  Exact
equality throughout, never approximate.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import ExactStreamingCounter
from repro.baselines.triest import TriestImprEstimator
from repro.core.config import ReptConfig
from repro.core.parallel import run_rept
from repro.core.state import GroupStateSet
from repro.durability import run_estimator_durable, run_rept_durable
from repro.durability.checkpoint import CheckpointManager
from repro.exceptions import RecoveryError
from repro.testing.faults import (
    EXIT_STATUS,
    PLAN_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    arm,
    truncate_file,
)
from tests.conftest import dict_form, raw_snapshot

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def _edges(n=600, nodes=40, seed=3):
    """Deterministic duplicate- and self-loop-bearing edge list."""
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, nodes, size=(n, 2))
    return [(int(u), int(v)) for u, v in cols]


EDGES = _edges()


def _assert_same_estimate(candidate, reference):
    assert candidate.global_count == reference.global_count
    assert candidate.local_counts == reference.local_counts
    assert candidate.edges_processed == reference.edges_processed
    assert candidate.edges_stored == reference.edges_stored


def _canonical_payload(payload):
    """A portable state read with raw node ids, so interning order drops out."""
    assert set(payload) == {"snapshots"}
    return [raw_snapshot(part) for part in payload["snapshots"]]


def _kill_plan(site, kill_segment, action="raise"):
    return FaultPlan(faults=(FaultSpec(site=site, skip=kill_segment, action=action),))


class TestReptDurable:
    @pytest.mark.parametrize("m,c", [(1, 1), (2, 4), (4, 6), (4, 8)])
    def test_uninterrupted_durable_matches_serial(self, tmp_path, m, c):
        config = ReptConfig(m=m, c=c, seed=17, track_local=True)
        reference = run_rept(EDGES, config, backend="serial")
        estimate, report = run_rept_durable(
            EDGES, config, tmp_path, checkpoint_every=150
        )
        _assert_same_estimate(estimate, reference)
        assert report.checkpoint is None  # fresh start

    @pytest.mark.parametrize("m,c", [(2, 4), (4, 6)])
    def test_killed_then_resumed_matches_serial(self, tmp_path, m, c):
        config = ReptConfig(m=m, c=c, seed=17, track_local=True)
        reference = run_rept(EDGES, config, backend="serial")
        with arm(_kill_plan("rept-segment", kill_segment=2)):
            with pytest.raises(InjectedFault):
                run_rept_durable(EDGES, config, tmp_path, checkpoint_every=100)
        # two checkpoints exist; the resumed run replays from the second
        estimate, report = run_rept_durable(
            EDGES, config, tmp_path, checkpoint_every=100
        )
        assert report.checkpoint is not None
        assert report.checkpoint.stream_offset == 200
        _assert_same_estimate(estimate, reference)

    @pytest.mark.parametrize("m,c", [(2, 4), (4, 6)])
    def test_checkpoint_with_empty_seen_resumes_exactly(self, tmp_path, m, c):
        """Dict-form checkpoints of the former shard-then-merge segment
        driver carry ``seen: []``; the groups' stored edges decide first
        occurrence on resume."""
        config = ReptConfig(m=m, c=c, seed=17, track_local=True)
        reference = run_rept(EDGES, config, backend="serial")
        run_rept_durable(EDGES[:300], config, tmp_path, checkpoint_every=300)
        manager = CheckpointManager(tmp_path)
        written = manager.recover().checkpoint
        assert "seen" not in written.payload
        manager.save(
            dict(dict_form(written.payload), seen=[]),
            written.stream_offset,
            meta=written.meta,
        )
        estimate, report = run_rept_durable(
            EDGES, config, tmp_path, checkpoint_every=300
        )
        assert report.checkpoint.generation == written.generation + 1
        assert report.checkpoint.payload["seen"] == []
        _assert_same_estimate(estimate, reference)
        assert estimate.metadata.get("eta_hat") == reference.metadata.get("eta_hat")

    @pytest.mark.parametrize("m,c", [(2, 4), (4, 6)])
    def test_checkpoint_is_the_serial_state(self, tmp_path, m, c):
        """Segments advance through the serial ingest path, so the last
        checkpoint holds exactly the serial state set's portable state —
        whose groups' stored edges decide first occurrence."""
        config = ReptConfig(m=m, c=c, seed=17, track_local=True)
        serial = GroupStateSet(config)
        serial.ingest_stream(EDGES)
        run_rept_durable(EDGES, config, tmp_path, checkpoint_every=250)
        written = CheckpointManager(tmp_path).recover().checkpoint
        assert written.stream_offset == len(EDGES)
        assert _canonical_payload(written.payload) == _canonical_payload(
            serial.portable_state()
        )

    def test_resume_with_another_segment_size_matches_serial(self, tmp_path):
        config = ReptConfig(m=4, c=6, seed=17, track_local=True)
        reference = run_rept(EDGES, config, backend="serial")
        with arm(_kill_plan("rept-segment", kill_segment=2)):
            with pytest.raises(InjectedFault):
                run_rept_durable(EDGES, config, tmp_path, checkpoint_every=100)
        estimate, report = run_rept_durable(
            EDGES, config, tmp_path, checkpoint_every=250
        )
        assert report.checkpoint.stream_offset == 200
        _assert_same_estimate(estimate, reference)

    def test_flags_rebuilt_on_resume_carry_into_later_checkpoints(self, tmp_path):
        """A run resumed from an empty-``seen`` checkpoint writes checkpoints
        that a second resume continues from bit-identically."""
        config = ReptConfig(m=4, c=6, seed=17, track_local=True)
        longer = EDGES + _edges(n=300, seed=4)
        reference = run_rept(longer, config, backend="serial")
        run_rept_durable(longer[:300], config, tmp_path, checkpoint_every=300)
        manager = CheckpointManager(tmp_path)
        written = manager.recover().checkpoint
        manager.save(
            dict(dict_form(written.payload), seen=[]),
            written.stream_offset,
            meta=written.meta,
        )
        run_rept_durable(longer[:600], config, tmp_path, checkpoint_every=300)
        estimate, report = run_rept_durable(
            longer, config, tmp_path, checkpoint_every=300
        )
        assert report.checkpoint.stream_offset == 600
        assert "seen" not in report.checkpoint.payload
        _assert_same_estimate(estimate, reference)
        assert estimate.metadata.get("eta_hat") == reference.metadata.get("eta_hat")

    def test_torn_checkpoint_recovers_from_previous_generation(self, tmp_path):
        config = ReptConfig(m=2, c=4, seed=17, track_local=True)
        reference = run_rept(EDGES, config, backend="serial")
        with arm(_kill_plan("rept-segment", kill_segment=3)):
            with pytest.raises(InjectedFault):
                run_rept_durable(EDGES, config, tmp_path, checkpoint_every=100)
        newest = sorted(tmp_path.glob("ckpt-*.ckpt"))[-1]
        truncate_file(newest, newest.stat().st_size - 7)
        estimate, report = run_rept_durable(
            EDGES, config, tmp_path, checkpoint_every=100
        )
        assert report.skipped  # the torn file was examined and rejected
        assert report.checkpoint.stream_offset == 200
        _assert_same_estimate(estimate, reference)

    def test_incompatible_config_is_rejected(self, tmp_path):
        config = ReptConfig(m=2, c=4, seed=17, track_local=True)
        run_rept_durable(EDGES, config, tmp_path, checkpoint_every=300)
        other = ReptConfig(m=4, c=4, seed=17, track_local=True)
        with pytest.raises(RecoveryError, match="incompatible"):
            run_rept_durable(EDGES, other, tmp_path, checkpoint_every=300)

    def test_resume_false_ignores_checkpoints(self, tmp_path):
        config = ReptConfig(m=2, c=4, seed=17, track_local=True)
        reference = run_rept(EDGES, config, backend="serial")
        run_rept_durable(EDGES[:300], config, tmp_path, checkpoint_every=100)
        estimate, report = run_rept_durable(
            EDGES, config, tmp_path, checkpoint_every=100, resume=False
        )
        assert report.checkpoint is None
        _assert_same_estimate(estimate, reference)

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        config = ReptConfig(m=2, c=4, seed=17)
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_rept_durable(EDGES, config, tmp_path, checkpoint_every=0)

    def test_driver_process_death_then_resume(self, tmp_path):
        """The child dies via os._exit (kill -9 semantics); the parent resumes."""
        config = ReptConfig(m=2, c=4, seed=17, track_local=True)
        reference = run_rept(EDGES, config, backend="serial")
        checkpoint_dir = tmp_path / "ckpt"
        plan_dir = tmp_path / "plan"
        _kill_plan("rept-segment", kill_segment=2, action="exit").write(plan_dir)
        script = (
            "import numpy as np\n"
            "from repro.core.config import ReptConfig\n"
            "from repro.durability import run_rept_durable\n"
            "rng = np.random.default_rng(3)\n"
            "cols = rng.integers(0, 40, size=(600, 2))\n"
            "edges = [(int(u), int(v)) for u, v in cols]\n"
            "config = ReptConfig(m=2, c=4, seed=17, track_local=True)\n"
            f"run_rept_durable(edges, config, {str(checkpoint_dir)!r}, "
            "checkpoint_every=100)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": SRC_DIR,
                PLAN_ENV: str(plan_dir),
            },
        )
        assert child.returncode == EXIT_STATUS
        report = CheckpointManager(checkpoint_dir).recover()
        assert report.checkpoint is not None  # the child left durable state
        estimate, report = run_rept_durable(
            EDGES, config, checkpoint_dir, checkpoint_every=100
        )
        assert report.checkpoint.stream_offset == 200
        _assert_same_estimate(estimate, reference)


class TestGridProperty:
    @given(
        m=st.sampled_from([1, 2, 4]),
        c=st.sampled_from([1, 4, 6]),
        seed=st.integers(min_value=0, max_value=2**16),
        checkpoint_every=st.integers(min_value=50, max_value=250),
        kill_segment=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=12, deadline=None)
    def test_kill_and_resume_is_bit_identical_over_grid(
        self, m, c, seed, checkpoint_every, kill_segment
    ):
        config = ReptConfig(m=m, c=c, seed=seed, track_local=True)
        reference = run_rept(EDGES, config, backend="serial")
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            with arm(_kill_plan("rept-segment", kill_segment)):
                try:
                    run_rept_durable(
                        EDGES, config, checkpoint_dir,
                        checkpoint_every=checkpoint_every,
                    )
                except InjectedFault:
                    pass  # killed mid-stream; state is on disk
            estimate, _ = run_rept_durable(
                EDGES, config, checkpoint_dir, checkpoint_every=checkpoint_every
            )
        _assert_same_estimate(estimate, reference)


class TestEstimatorDurable:
    def test_exact_counter_killed_then_resumed(self, tmp_path):
        reference = ExactStreamingCounter()
        reference.process_edges(EDGES)
        with arm(_kill_plan("estimator-segment", kill_segment=1)):
            with pytest.raises(InjectedFault):
                run_estimator_durable(
                    ExactStreamingCounter, EDGES, tmp_path, checkpoint_every=150
                )
        estimator, report = run_estimator_durable(
            ExactStreamingCounter, EDGES, tmp_path, checkpoint_every=150
        )
        assert report.checkpoint is not None
        _assert_same_estimate(estimator.estimate(), reference.estimate())

    def test_triest_resumes_its_rng_mid_sequence(self, tmp_path):
        """The reservoir's coin flips continue exactly where the crash left them."""
        factory = lambda: TriestImprEstimator(budget=150, seed=5, track_local=True)
        reference = factory()
        reference.process_edges(EDGES)
        with arm(_kill_plan("estimator-segment", kill_segment=2)):
            with pytest.raises(InjectedFault):
                run_estimator_durable(factory, EDGES, tmp_path, checkpoint_every=100)
        estimator, _ = run_estimator_durable(
            factory, EDGES, tmp_path, checkpoint_every=100
        )
        _assert_same_estimate(estimator.estimate(), reference.estimate())

    def test_wrong_estimator_class_is_rejected(self, tmp_path):
        run_estimator_durable(
            ExactStreamingCounter, EDGES[:200], tmp_path, checkpoint_every=100
        )
        with pytest.raises(RecoveryError, match="incompatible"):
            run_estimator_durable(
                lambda: TriestImprEstimator(budget=150, seed=5),
                EDGES,
                tmp_path,
                checkpoint_every=100,
            )
