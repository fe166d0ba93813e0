"""Unit tests for the elastic shard coordinator's happy and failure paths."""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.cluster import ElasticCoordinator, ShardState, worker_main
from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.core.kernel import native_available
from repro.core.state import GroupStateSet
from repro.exceptions import MembershipError

from tests.cluster.conftest import assert_bit_identical, make_edges, serial_estimate
from tests.conftest import raw_snapshot

PROBE_NODES = (0, 1, 2, 17, 42)


def feed(coordinator, edges, batch=100):
    for i in range(0, len(edges), batch):
        coordinator.submit(edges[i : i + batch])


class TestHappyPath:
    def test_matches_serial_reference(self, small_config):
        edges = make_edges(1200)
        reference = serial_estimate(edges, small_config)
        with ElasticCoordinator(small_config, num_workers=2) as coord:
            feed(coord, edges)
            estimate = coord.estimate()
        assert_bit_identical(estimate, reference, PROBE_NODES)
        assert estimate.metadata["worker_deaths"] == 0.0
        assert estimate.metadata["degraded"] == 0.0
        assert estimate.metadata["workers"] == 2.0

    def test_zero_workers_runs_inline(self, small_config):
        edges = make_edges(600)
        reference = serial_estimate(edges, small_config)
        with ElasticCoordinator(small_config, num_workers=0) as coord:
            feed(coord, edges)
            estimate = coord.estimate()
        assert_bit_identical(estimate, reference, PROBE_NODES)
        assert estimate.metadata["degraded"] == 1.0
        assert estimate.metadata["inline_shards"] == float(
            len(small_config.group_sizes())
        )

    def test_estimate_is_repeatable_and_resumable(self, small_config):
        edges = make_edges(900)
        with ElasticCoordinator(small_config, num_workers=2) as coord:
            feed(coord, edges[:600])
            first = coord.estimate()
            again = coord.estimate()
            assert first.global_count == again.global_count
            feed(coord, edges[600:])
            final = coord.estimate()
        reference = serial_estimate(edges, small_config)
        assert_bit_identical(final, reference, PROBE_NODES)


class TestFailureRecovery:
    def test_sigkill_mid_stream_is_bit_identical(self, small_config):
        edges = make_edges(1500)
        reference = serial_estimate(edges, small_config)
        with ElasticCoordinator(small_config, num_workers=2) as coord:
            feed(coord, edges[:700])
            victim = coord.worker_ids()[0]
            coord.kill_worker(victim)
            feed(coord, edges[700:])
            estimate = coord.estimate()
            assert estimate.metadata["worker_deaths"] == 1.0
            assert estimate.metadata["shard_migrations"] > 0
            assert victim not in coord.worker_ids()
        assert_bit_identical(estimate, reference, PROBE_NODES)

    def test_killing_every_worker_degrades_inline(self, small_config):
        edges = make_edges(1000)
        reference = serial_estimate(edges, small_config)
        with ElasticCoordinator(small_config, num_workers=2) as coord:
            feed(coord, edges[:400])
            for victim in coord.worker_ids():
                coord.kill_worker(victim)
            feed(coord, edges[400:])
            estimate = coord.estimate()
            assert coord.worker_ids() == []
            assert estimate.metadata["degraded"] == 1.0
            assert estimate.metadata["worker_deaths"] == 2.0
            # heal: a fresh worker takes the shards back off the inline host
            coord.add_worker()
            healed = coord.estimate()
            assert healed.metadata["degraded"] == 0.0
        assert_bit_identical(estimate, reference, PROBE_NODES)
        assert_bit_identical(healed, reference, PROBE_NODES)


class TestMembership:
    def test_join_mid_stream_is_bit_identical(self, small_config):
        edges = make_edges(1500)
        reference = serial_estimate(edges, small_config)
        with ElasticCoordinator(small_config, num_workers=1) as coord:
            feed(coord, edges[:800])
            epoch_before = coord.shard_map.epoch
            new_id = coord.add_worker()
            assert coord.shard_map.epoch > epoch_before
            assert new_id in coord.worker_ids()
            assert coord.shard_map.shards_of(new_id)
            feed(coord, edges[800:])
            estimate = coord.estimate()
        assert_bit_identical(estimate, reference, PROBE_NODES)
        assert estimate.metadata["worker_joins"] == 1.0
        assert estimate.metadata["shard_migrations"] > 0

    def test_graceful_remove_mid_stream(self, small_config):
        edges = make_edges(1200)
        reference = serial_estimate(edges, small_config)
        with ElasticCoordinator(small_config, num_workers=3) as coord:
            feed(coord, edges[:500])
            coord.remove_worker(coord.worker_ids()[-1])
            feed(coord, edges[500:])
            estimate = coord.estimate()
            assert len(coord.worker_ids()) == 2
        assert_bit_identical(estimate, reference, PROBE_NODES)
        assert estimate.metadata["worker_removals"] == 1.0
        # a graceful removal is not a death
        assert estimate.metadata["worker_deaths"] == 0.0

    def test_cannot_remove_last_worker(self, small_config):
        with ElasticCoordinator(small_config, num_workers=1) as coord:
            (only,) = coord.worker_ids()
            with pytest.raises(MembershipError, match="last live worker"):
                coord.remove_worker(only)
            assert coord.counters["membership_errors"] == 1

    def test_remove_unknown_worker(self, small_config):
        with ElasticCoordinator(small_config, num_workers=2) as coord:
            with pytest.raises(MembershipError):
                coord.remove_worker(999)


class TestPortableState:
    def test_round_trip_to_fresh_coordinator(self, small_config):
        edges = make_edges(1000)
        with ElasticCoordinator(small_config, num_workers=2) as coord:
            feed(coord, edges)
            want = coord.estimate()
            state = coord.portable_state()
        with ElasticCoordinator(small_config, num_workers=3) as fresh:
            fresh.restore_portable(state, edges_processed=len(edges))
            got = fresh.estimate()
        assert_bit_identical(got, want, PROBE_NODES)

    def test_state_is_serial_engine_compatible(self, small_config):
        edges = make_edges(1000)
        with ElasticCoordinator(small_config, num_workers=2) as coord:
            feed(coord, edges)
            want = coord.estimate()
            state = coord.portable_state()
        serial = GroupStateSet(small_config)
        serial.restore_portable(state)
        got = serial.estimate(len(edges))
        assert_bit_identical(got, want, PROBE_NODES)

    def test_restore_then_continue_streaming(self, small_config):
        edges = make_edges(1400)
        reference = serial_estimate(edges, small_config)
        with ElasticCoordinator(small_config, num_workers=2) as coord:
            feed(coord, edges[:700])
            state = coord.portable_state()
        with ElasticCoordinator(small_config, num_workers=2) as resumed:
            resumed.restore_portable(state, edges_processed=700)
            feed(resumed, edges[700:])
            estimate = resumed.estimate()
        assert_bit_identical(estimate, reference, PROBE_NODES)


#: Algorithm 1, complete groups, and a partial group with η tracked.
SHARD_SHAPES = [(4, 2), (3, 9), (4, 6)]


class TestShardState:
    @pytest.mark.parametrize("kernel", ["python", "auto"])
    @pytest.mark.parametrize("m,c", SHARD_SHAPES)
    def test_a_shard_is_its_groups_state_set(self, m, c, kernel):
        config = ReptConfig(m=m, c=c, seed=41, track_local=True, kernel=kernel)
        edges = make_edges(800, nodes=60)
        full = GroupStateSet(config)
        full.process_edges(edges)
        summaries = full.summaries()
        for k in range(len(full.groups)):
            shard = ShardState(config, k)
            shard.apply_raw(1, edges[:400])
            shard.apply_raw(2, edges[400:])
            assert shard.state.kernel == full.kernel
            assert shard.summary() == summaries[k]
            assert raw_snapshot(shard.portable()["snapshot"]) == raw_snapshot(
                full.snapshot()[k]
            )
            if len(full.groups) == 1:
                # The one group of Algorithm 1 is every group.
                got, want = shard.state.estimate(800), full.estimate(800)
                assert (got.global_count, got.local_counts) == (
                    want.global_count,
                    want.local_counts,
                )
            else:
                with pytest.raises(ValueError, match="one group of several"):
                    shard.state.estimate(800)
        with pytest.raises(ValueError, match="out of range"):
            ShardState(config, len(full.groups))

    def test_a_shard_runs_its_configs_kernel(self):
        """Kernels resolve over the config's largest group, so the shard of
        a small group runs what the serial state set runs."""
        config = ReptConfig(m=64, c=72, seed=13)
        assert config.group_sizes() == [64, 8]
        serial = GroupStateSet(config)
        shard = ShardState(config, 1)
        assert shard.state.kernel == serial.kernel == "python"
        assert type(shard.state.groups[0]) is type(serial.groups[1])

    @pytest.mark.skipif(not native_available(), reason="no C compiler available")
    def test_inline_shards_share_one_compiled_encoding(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        config = ReptConfig(m=4, c=12, seed=5, track_local=True, kernel="native")
        edges = make_edges(900)
        reference = serial_estimate(edges, config)
        calls = []
        encode_columns = NodeInterner._encode_columns

        def spy(self, pairs):
            calls.append(len(pairs))
            return encode_columns(self, pairs)

        monkeypatch.setattr(NodeInterner, "_encode_columns", spy)
        with ElasticCoordinator(config, num_workers=0) as coord:
            feed(coord, edges)
            estimate = coord.estimate()
        assert calls == [100] * 9
        assert_bit_identical(estimate, reference, PROBE_NODES)

    def test_a_worker_acks_a_batch_for_no_shard(self, small_config):
        """A batch naming no shard is acknowledged with no ids; one naming
        hosted shards with theirs."""
        ours, theirs = multiprocessing.Pipe()
        worker = threading.Thread(
            target=worker_main, args=(theirs, 7, small_config), daemon=True
        )
        worker.start()
        try:
            ours.send(("assign", 1, None))
            assert ours.recv() == ("ok", "assign", 1)
            edges = make_edges(50)
            ours.send(("batch", 1, 0, [], edges))
            assert ours.recv() == ("ack", 1, 0, [])
            ours.send(("batch", 1, 0, [1], edges))
            assert ours.recv() == ("ack", 1, 0, [1])
            ours.send(("stop",))
            assert ours.recv() == ("bye", 7)
        finally:
            ours.close()
            worker.join(timeout=10)
        assert not worker.is_alive()
