"""Service-level tests: dispatch, tenancy, transports, recovery, timers."""

import asyncio

import pytest

from repro.core.config import ReptConfig
from repro.core.state import GroupStateSet
from repro.exceptions import ServiceError
from repro.service import (
    EstimationService,
    InProcessClient,
    TcpServiceClient,
)

REPT = {"kind": "rept", "m": 8, "c": 16, "seed": 5}
MONITOR = {"kind": "monitor", "window_seconds": 10.0, "rept": dict(REPT)}

EDGES = [[1, 2], [2, 3], [1, 3], [3, 4], [2, 4], [1, 4], [4, 5], [5, 6], [4, 6]]


def reference_global(edges):
    state = GroupStateSet(ReptConfig(m=8, c=16, seed=5))
    delivered = state.process_edges([tuple(e) for e in edges])
    return state.estimate(delivered).global_count


class TestDispatch:
    def test_hello_reports_protocol_and_sessions(self):
        async def scenario():
            client = InProcessClient(EstimationService())
            response = await client.call("hello")
            assert response["server"]
            assert response["protocol"] == 1
            assert response["sessions"] == 0

        asyncio.run(scenario())

    def test_unknown_op_is_answered_not_raised(self):
        async def scenario():
            service = EstimationService()
            response = await service.handle_request({"op": "explode"})
            assert response["ok"] is False
            assert response["code"] == "bad-request"

        asyncio.run(scenario())

    def test_unknown_tenant_code(self):
        async def scenario():
            client = InProcessClient(EstimationService())
            with pytest.raises(ServiceError) as excinfo:
                await client.query_global("ghost")
            assert excinfo.value.code == "unknown-tenant"

        asyncio.run(scenario())

    def test_internal_errors_become_error_responses(self):
        async def scenario():
            service = EstimationService()
            client = InProcessClient(service)
            await client.open("t", engine=REPT)
            # advance_watermark with a non-numeric time is a protocol error;
            # with a fine time on a non-monitor engine it's a service error.
            response = await service.handle_request(
                {"op": "advance_watermark", "tenant": "t", "time": "soon"}
            )
            assert response["code"] == "bad-request"
            with pytest.raises(ServiceError, match="watermark"):
                await client.advance_watermark("t", 1.0)

        asyncio.run(scenario())


class TestTenantInterners:
    def test_a_lone_surrogate_id_cannot_break_another_tenant(self):
        # A lone surrogate arrives as valid JSON; its node key must not
        # break the tenant that sent it, nor any other tenant's frames.
        from repro.generators.traffic import packet_flow_stream

        spec = {"kind": "rept", "m": 4, "c": 4, "seed": 5}
        edges = packet_flow_stream(20000, seed=4).edges()
        frames = [[list(e) for e in edges[k : k + 2000]] for k in range(0, 20000, 2000)]

        async def scenario():
            service = EstimationService()
            client = InProcessClient(service)
            await client.open("a", engine=spec)
            await client.open("b", engine=spec)
            answer = await client.ingest("a", [["\ud800", "x"]])
            assert answer["accepted"] is True
            for frame in frames:
                await client.ingest("b", frame)
            session = service.sessions["b"]
            await session.queue.join()
            stats = (await client.stats("b"))["stats"]
            assert stats["state"] == "running"
            assert stats["delivered"] == 20000
            assert stats["ingest_errors"] == stats["dropped_frames"] == 0
            return session.engine.state.estimate(session.engine.delivered)

        estimate = asyncio.run(scenario())
        reference = GroupStateSet(ReptConfig(m=4, c=4, seed=5))
        n = sum(reference.process_edges([tuple(e) for e in frame]) for frame in frames)
        expected = reference.estimate(n)
        assert estimate.global_count == expected.global_count
        assert estimate.local_counts == expected.local_counts


class TestTenancy:
    def test_open_reopen_and_engine_mismatch(self):
        async def scenario():
            client = InProcessClient(EstimationService())
            created = await client.open("t", engine=REPT)
            assert created["created"] is True
            again = await client.open("t")  # re-attach, no spec
            assert again["created"] is False
            same = await client.open("t", engine=dict(REPT))
            assert same["created"] is False
            with pytest.raises(ServiceError) as excinfo:
                await client.open("t", engine={"kind": "exact"})
            assert excinfo.value.code == "engine-mismatch"

        asyncio.run(scenario())

    def test_open_requires_engine_for_new_tenant(self):
        async def scenario():
            client = InProcessClient(EstimationService())
            with pytest.raises(ServiceError, match="engine"):
                await client.open("t")

        asyncio.run(scenario())

    def test_tenant_names_cannot_traverse_paths(self):
        async def scenario():
            client = InProcessClient(EstimationService())
            for name in ("../evil", "a/b", "a\\b"):
                with pytest.raises(ServiceError, match="path"):
                    await client.open(name, engine=REPT)

        asyncio.run(scenario())

    def test_tenants_are_isolated_with_their_own_interners(self):
        async def scenario():
            service = EstimationService()
            client = InProcessClient(service)
            await client.open("a", engine=REPT)
            await client.open("b", engine=REPT)
            await client.ingest("a", EDGES)
            await client.ingest("b", EDGES[:3])
            for session in service.sessions.values():
                await session.queue.join()
            qa = await client.query_global("a")
            qb = await client.query_global("b")
            assert qa["edges_processed"] == len(EDGES)
            assert qb["edges_processed"] == 3
            interners = [session.engine.state.interner for session in service.sessions.values()]
            assert interners[0] is not interners[1]
            assert len(interners[0]) == 6 and len(interners[1]) == 3

        asyncio.run(scenario())

    def test_a_tenants_arrays_do_not_grow_with_another_tenants_nodes(self):
        # Tenant a's array bytes after its stream are the same whether or
        # not tenant b, over disjoint node ids, ingests in between.
        import numpy as np

        from repro.generators.traffic import packet_flow_stream

        def frames(seed, shift):
            stream = packet_flow_stream(20000, seed=seed).edges()
            edges = [(u + shift, v + shift) for u, v in stream]
            return [[list(e) for e in edges[k : k + 2000]] for k in range(0, len(edges), 2000)]

        def array_bytes(state):
            return sum(
                column.nbytes
                for group in state.groups
                for column in vars(getattr(group, "_arrays", group)).values()
                if isinstance(column, np.ndarray)
            )

        async def scenario(interleave):
            service = EstimationService()
            client = InProcessClient(service)
            await client.open("a", engine=REPT)
            await client.open("b", engine=REPT)
            for frame_a, frame_b in zip(frames(4, 0), frames(5, 1 << 32)):
                await client.ingest("a", frame_a)
                await service.sessions["a"].queue.join()
                if interleave:
                    await client.ingest("b", frame_b)
                    await service.sessions["b"].queue.join()
            state = service.sessions["a"].engine.state
            return array_bytes(state), state.estimate(20000).global_count

        alone = asyncio.run(scenario(False))
        interleaved = asyncio.run(scenario(True))
        assert interleaved == alone

    def test_stats_rollup_aggregates_tenants(self):
        async def scenario():
            service = EstimationService()
            client = InProcessClient(service)
            await client.open("a", engine=REPT)
            await client.open("b", engine={"kind": "exact"})
            await client.ingest("a", EDGES[:4])
            await client.ingest("b", EDGES[:2])
            for session in service.sessions.values():
                await session.queue.join()
            rollup = await client.stats()
            assert rollup["aggregate"]["sessions"] == 2
            assert rollup["aggregate"]["ingested_records"] == 6
            assert rollup["sessions"]["b"]["engine"] == "exact"
            single = await client.stats("a")
            assert single["stats"]["delivered"] == 4

        asyncio.run(scenario())


class TestRecovery:
    def test_kill_and_recover_is_bit_identical(self, tmp_path):
        """The acceptance drill: recover from checkpoints in a new process
        (modelled as a new service instance) and verify queries equal an
        uninterrupted run over the same delivered prefix."""
        root = tmp_path / "ckpt"

        async def first_life():
            service = EstimationService(checkpoint_root=root)
            client = InProcessClient(service)
            await client.open("t", engine=REPT)
            await client.ingest("t", EDGES[:6])
            await service.sessions["t"].queue.join()
            await client.checkpoint("t")
            # No drain, no shutdown: the "kill" is simply abandoning the
            # instance after the checkpoint hit disk.

        async def second_life():
            service = EstimationService(checkpoint_root=root)
            recovered = service.recover_sessions()
            assert recovered == [("t", 6)]
            client = InProcessClient(service)
            reopen = await client.open("t")
            assert reopen["delivered"] == 6
            mid = await client.query_global("t")
            await client.ingest("t", EDGES[6:])
            await service.sessions["t"].queue.join()
            return mid, await client.query_global("t")

        asyncio.run(first_life())
        mid, final = asyncio.run(second_life())
        assert mid["global_count"] == reference_global(EDGES[:6])
        assert final["global_count"] == reference_global(EDGES)

    def test_recovered_monitor_resumes_windows(self, tmp_path):
        root = tmp_path / "ckpt"
        records = [[1, 2, 1.0], [2, 3, 2.0], [1, 3, 3.0]]

        async def first_life():
            service = EstimationService(checkpoint_root=root)
            client = InProcessClient(service)
            await client.open("m", engine=MONITOR)
            await client.ingest("m", records, timestamped=True)
            await service.sessions["m"].queue.join()
            await client.checkpoint("m")

        async def second_life():
            service = EstimationService(checkpoint_root=root)
            service.recover_sessions()
            client = InProcessClient(service)
            await client.advance_watermark("m", 25.0)
            return await client.query_windows("m")

        asyncio.run(first_life())
        windows = asyncio.run(second_life())["windows"]
        assert [w["records"] for w in windows] == [3]

    def test_recover_skips_tenants_without_checkpoints(self, tmp_path):
        root = tmp_path / "ckpt"
        (root / "empty-tenant").mkdir(parents=True)

        async def scenario():
            service = EstimationService(checkpoint_root=root)
            assert service.recover_sessions() == []
            assert service.sessions == {}

        asyncio.run(scenario())


class TestTimers:
    def test_watermark_timer_ticks_monitors_idempotently(self):
        async def scenario():
            service = EstimationService(watermark_interval_seconds=0.02)
            client = InProcessClient(service)
            await client.open("m", engine=MONITOR)
            await client.ingest(
                "m", [[1, 2, 1.0], [2, 3, 2.0], [7, 8, 25.0]], timestamped=True
            )
            service.start_timers()
            # Several timer periods re-issue the same watermark value; the
            # monitor's idempotent seal path must emit window 0 exactly once.
            await asyncio.sleep(0.1)
            windows = (await client.query_windows("m"))["windows"]
            await service.shutdown()
            return windows

        windows = asyncio.run(scenario())
        assert [w["index"] for w in windows] == [0, 1]
        assert windows[0]["records"] == 2

    def test_non_finite_timestamp_leaves_watermark_timer_running(self):
        # The wire decoder reads 1e999 and Infinity as inf.  The monitor
        # rejects the frame, so it must not reach the timer's watermark.
        async def scenario():
            service = EstimationService(watermark_interval_seconds=0.02)
            client = InProcessClient(service)
            await client.open("m", engine=MONITOR)
            await client.ingest("m", [[1, 2, 1.0]], timestamped=True)
            session = service.sessions["m"]
            await session.queue.join()
            before = session.engine.max_event_time
            service.start_timers()
            await client.ingest("m", [[1, 2, float("inf")]], timestamped=True)
            await session.queue.join()
            await asyncio.sleep(0.1)
            (timer,) = service._timers
            running = not timer.done()
            after = session.engine.max_event_time
            response = await client.shutdown()
            return before, after, running, response

        before, after, running, response = asyncio.run(scenario())
        assert running
        assert after == before == 1.0
        assert response["drained"] == ["m"]

    def test_checkpoint_timer_writes_generations(self, tmp_path):
        async def scenario():
            service = EstimationService(
                checkpoint_root=tmp_path / "ckpt",
                checkpoint_interval_seconds=0.02,
            )
            client = InProcessClient(service)
            await client.open("t", engine=REPT)
            await client.ingest("t", EDGES)
            service.start_timers()
            await asyncio.sleep(0.08)
            await service.shutdown()
            return service.sessions["t"].metrics.checkpoints_written

        assert asyncio.run(scenario()) >= 2


class TestTcpTransport:
    def test_tcp_round_trip_and_graceful_shutdown(self, tmp_path):
        async def scenario():
            service = EstimationService(checkpoint_root=tmp_path / "ckpt")
            host, port = await service.serve_tcp()
            client = await TcpServiceClient.connect(host, port)
            hello = await client.call("hello")
            assert hello["protocol"] == 1
            await client.open("t", engine=REPT)
            await client.ingest("t", EDGES)
            result = None
            # Poll until the frame drains (ingest ack is enqueue, not apply).
            for _ in range(100):
                result = await client.query_global("t")
                if result["edges_processed"] == len(EDGES):
                    break
                await asyncio.sleep(0.01)
            drained = await client.shutdown()
            await client.close()
            await service.wait_closed()
            return result, drained, service

        result, drained, service = asyncio.run(scenario())
        assert result["global_count"] == reference_global(EDGES)
        assert drained["drained"] == ["t"]
        assert service.sessions["t"].state == "closed"
        # Drain wrote the final checkpoint.
        assert service.sessions["t"].metrics.checkpoints_written >= 1

    def test_tcp_pipelines_concurrent_clients(self):
        async def scenario():
            service = EstimationService()
            host, port = await service.serve_tcp()
            control = await TcpServiceClient.connect(host, port)
            await control.open("a", engine=REPT)
            await control.open("b", engine={"kind": "exact"})

            async def hammer(tenant, frames):
                client = await TcpServiceClient.connect(host, port)
                for frame in frames:
                    await client.ingest(tenant, frame)
                await client.close()

            await asyncio.gather(
                hammer("a", [EDGES[:3], EDGES[3:6], EDGES[6:]]),
                hammer("b", [EDGES[:5], EDGES[5:]]),
            )
            for session in service.sessions.values():
                await session.queue.join()
            qa = await control.query_global("a")
            qb = await control.query_global("b")
            await control.shutdown()
            await control.close()
            await service.wait_closed()
            return qa, qb

        qa, qb = asyncio.run(scenario())
        assert qa["edges_processed"] == len(EDGES)
        assert qb["edges_processed"] == len(EDGES)

    def test_malformed_tcp_line_gets_error_response(self):
        async def scenario():
            service = EstimationService()
            host, port = await service.serve_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            await service.shutdown()
            await service.wait_closed()
            return line

        import json

        response = json.loads(asyncio.run(scenario()))
        assert response["ok"] is False
        assert response["code"] == "bad-request"
