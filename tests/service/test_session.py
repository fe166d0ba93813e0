"""Session-layer tests: engine specs, backpressure, consistency, durability.

Async behaviour is exercised through ``asyncio.run`` inside synchronous
test functions (no pytest-asyncio dependency).
"""

import asyncio
import random
import re

import pytest

import repro.service.session as session_mod
from repro.baselines.exact import ExactStreamingCounter
from repro.core.config import ReptConfig
from repro.core.state import GroupStateSet
from repro.exceptions import ServiceError
from repro.service.session import (
    StreamSession,
    build_engine,
    validate_engine_spec,
)
from tests.conftest import raw_snapshot

REPT_SPEC = {"kind": "rept", "m": 8, "c": 16, "seed": 5}

EDGES = [[1, 2], [2, 3], [1, 3], [3, 4], [2, 4], [1, 4], [4, 5], [5, 6], [4, 6]]


class TestEngineSpecs:
    def test_rept_spec_round_trips(self):
        spec = validate_engine_spec(REPT_SPEC)
        engine = build_engine(spec)
        assert engine.kind == "rept"
        assert engine.spec == spec

    def test_rept_spec_requires_explicit_seed(self):
        with pytest.raises(ServiceError, match="seed"):
            validate_engine_spec({"kind": "rept", "m": 8, "c": 16})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown engine kind"):
            validate_engine_spec({"kind": "quantum"})

    def test_non_dict_rejected(self):
        with pytest.raises(ServiceError, match="object"):
            validate_engine_spec("rept")

    def test_triest_needs_budget(self):
        with pytest.raises(ServiceError, match="budget"):
            validate_engine_spec({"kind": "triest"})

    def test_monitor_needs_window_and_rept(self):
        with pytest.raises(ServiceError, match="window_seconds"):
            validate_engine_spec({"kind": "monitor", "rept": REPT_SPEC})
        with pytest.raises(ServiceError, match="rept"):
            validate_engine_spec({"kind": "monitor", "window_seconds": 10.0})


class TestEngines:
    def test_rept_engine_matches_serial_state_set(self):
        engine = build_engine(validate_engine_spec(REPT_SPEC))
        engine.ingest_frame(EDGES[:5])
        engine.ingest_frame(EDGES[5:])

        reference = GroupStateSet(ReptConfig(m=8, c=16, seed=5))
        delivered = reference.process_edges([tuple(e) for e in EDGES])
        expected = reference.estimate(delivered)

        result = engine.query_global()
        assert result["global_count"] == expected.global_count
        assert result["edges_processed"] == len(EDGES)

    def test_exact_engine_counts_triangles(self):
        engine = build_engine(validate_engine_spec({"kind": "exact"}))
        engine.ingest_frame(EDGES)
        reference = ExactStreamingCounter()
        reference.process_edges([tuple(e) for e in EDGES])
        assert engine.query_global()["global_count"] == reference.estimate().global_count

    def test_triest_engine_restore_is_bit_identical(self):
        spec = validate_engine_spec({"kind": "triest", "budget": 5, "seed": 3})
        engine = build_engine(spec)
        engine.ingest_frame(EDGES[:5])
        payload = engine.state_payload()
        mid = engine.delivered

        twin = build_engine(spec)
        twin.restore(payload, mid)
        engine.ingest_frame(EDGES[5:])
        twin.ingest_frame(EDGES[5:])
        # Same reservoir RNG state restored => identical continuation.
        assert twin.query_global() == engine.query_global()

    def test_monitor_engine_rejects_untimestamped_frames(self):
        spec = validate_engine_spec(
            {"kind": "monitor", "window_seconds": 10.0, "rept": dict(REPT_SPEC)}
        )
        engine = build_engine(spec)
        with pytest.raises(ServiceError, match="u, v, t"):
            engine.ingest_frame([[1, 2]])

    def test_monitor_engine_windows_and_watermark(self):
        spec = validate_engine_spec(
            {"kind": "monitor", "window_seconds": 10.0, "rept": dict(REPT_SPEC)}
        )
        engine = build_engine(spec)
        engine.ingest_frame([[1, 2, 1.0], [2, 3, 2.0], [1, 3, 3.0], [7, 8, 12.0]])
        assert engine.max_event_time == 12.0
        engine.advance_watermark(25.0)
        windows = engine.query_windows(0)
        assert [w["index"] for w in windows] == [0, 1]
        assert engine.query_windows(1)[0]["index"] == 1

    def test_estimator_engines_have_no_windows(self):
        engine = build_engine(validate_engine_spec({"kind": "exact"}))
        with pytest.raises(ServiceError, match="windowed"):
            engine.query_windows(0)
        with pytest.raises(ServiceError, match="watermark"):
            engine.advance_watermark(1.0)


def _make_session(tmp_path=None, **kwargs):
    spec = validate_engine_spec(REPT_SPEC)
    return StreamSession(
        tenant="t",
        spec=spec,
        engine=build_engine(spec),
        checkpoint_dir=(tmp_path / "ckpt") if tmp_path is not None else None,
        **kwargs,
    )


class TestBackpressure:
    def test_block_policy_waits_for_queue_room(self):
        async def scenario():
            session = _make_session(queue_frames=1, backpressure="block")
            # Do NOT start the loop: the queue can never drain, so the
            # second offer must block until we give up on it.
            await session.offer(EDGES[:2])
            second = asyncio.ensure_future(session.offer(EDGES[2:4]))
            await asyncio.sleep(0.05)
            assert not second.done()
            # Free one slot; the blocked offer completes.
            session.queue.get_nowait()
            session.queue.task_done()
            outcome = await asyncio.wait_for(second, timeout=1)
            assert outcome["accepted"] is True

        asyncio.run(scenario())

    def test_shed_policy_drops_and_counts(self):
        async def scenario():
            session = _make_session(queue_frames=1, backpressure="shed")
            first = await session.offer(EDGES[:2])
            assert first["accepted"] is True
            second = await session.offer(EDGES[2:5])
            assert second == {"accepted": False, "shed": True, "queued": 1}
            assert session.metrics.shed_frames == 1
            assert session.metrics.shed_records == 3

        asyncio.run(scenario())

    def test_bad_policy_rejected(self):
        with pytest.raises(ServiceError, match="backpressure"):
            _make_session(backpressure="yolo")


class TestIngestLoop:
    def test_frames_deliver_in_order_and_match_reference(self):
        async def scenario():
            session = _make_session()
            session.start()
            for start in range(0, len(EDGES), 3):
                await session.offer(EDGES[start : start + 3])
            await session.queue.join()
            return session.engine.query_global(), session.metrics.ingested_records

        result, ingested = asyncio.run(scenario())
        reference = GroupStateSet(ReptConfig(m=8, c=16, seed=5))
        delivered = reference.process_edges([tuple(e) for e in EDGES])
        assert result["global_count"] == reference.estimate(delivered).global_count
        assert ingested == len(EDGES)

    def test_queries_observe_frame_aligned_prefixes(self):
        """A query between offers sees a whole number of frames applied."""

        async def scenario():
            session = _make_session()
            session.start()
            frames = [EDGES[start : start + 3] for start in range(0, len(EDGES), 3)]
            observed = []
            for frame in frames:
                await session.offer(frame)
                await asyncio.sleep(0)  # let the loop run (or not) a bit
                observed.append(session.engine.query_global()["edges_processed"])
            await session.queue.join()
            return observed

        observed = asyncio.run(scenario())
        assert all(count % 3 == 0 for count in observed)

    def test_bad_frame_counts_error_and_loop_survives(self):
        async def scenario():
            session = _make_session()
            session.start()
            await session.offer([[1]])  # malformed record
            await session.offer(EDGES[:3])
            await session.queue.join()
            return session

        session = asyncio.run(scenario())
        assert session.metrics.ingest_errors == 1
        assert session.metrics.dropped_frames == 1
        assert session.metrics.restarts == 1
        assert session.engine.delivered == 3
        assert session.state == "running"

    def test_restart_budget_exhaustion_fails_session(self):
        async def scenario():
            session = _make_session(restart_limit=1)
            session.start()
            await session.offer([[1]])
            await session.offer([[2]])
            await session.queue.join()
            # A failed session rejects new frames but still drains the queue.
            with pytest.raises(ServiceError, match="failed"):
                await session.offer(EDGES[:2])
            return session

        session = asyncio.run(scenario())
        assert session.state == "failed"
        assert session.metrics.ingest_errors == 2


class TestDurability:
    def test_checkpoint_and_recover_bit_identical(self, tmp_path):
        async def first_life():
            session = _make_session(tmp_path)
            session.start()
            await session.offer(EDGES[:6])
            await session.queue.join()
            session.checkpoint()
            return session.engine.query_global()

        async def second_life():
            session = _make_session(tmp_path)
            offset = session.recover()
            session.start()
            await session.offer(EDGES[6:])
            await session.queue.join()
            return offset, session.engine.query_global()

        before = asyncio.run(first_life())
        offset, after = asyncio.run(second_life())
        assert offset == 6
        reference = GroupStateSet(ReptConfig(m=8, c=16, seed=5))
        reference.process_edges([tuple(e) for e in EDGES[:6]])
        assert before["global_count"] == reference.estimate(6).global_count
        reference.process_edges([tuple(e) for e in EDGES[6:]])
        assert after["global_count"] == reference.estimate(len(EDGES)).global_count

    def test_recover_rejects_mismatched_engine_spec(self, tmp_path):
        async def first_life():
            session = _make_session(tmp_path)
            session.start()
            await session.offer(EDGES[:3])
            await session.queue.join()
            session.checkpoint()

        asyncio.run(first_life())
        other_spec = validate_engine_spec({"kind": "rept", "m": 4, "c": 8, "seed": 5})
        impostor = StreamSession(
            tenant="t",
            spec=other_spec,
            engine=build_engine(other_spec),
            checkpoint_dir=tmp_path / "ckpt",
        )

        async def second_life():
            with pytest.raises(ServiceError, match="engine"):
                impostor.recover()

        asyncio.run(second_life())

    def test_periodic_checkpoint_by_frames(self, tmp_path):
        async def scenario():
            session = _make_session(tmp_path, checkpoint_every_frames=2)
            session.start()
            for start in range(0, 8, 2):
                await session.offer(EDGES[start : start + 2])
            await session.queue.join()
            return session

        session = asyncio.run(scenario())
        assert session.metrics.checkpoints_written == 2
        assert session.checkpoints.generations() != []

    def test_drain_writes_final_checkpoint_and_closes(self, tmp_path):
        async def scenario():
            session = _make_session(tmp_path)
            session.start()
            await session.offer(EDGES[:4])
            await session.drain()
            return session

        session = asyncio.run(scenario())
        assert session.state == "closed"
        assert session.metrics.checkpoints_written == 1
        report = session.checkpoints.recover()
        assert report.checkpoint.stream_offset == 4

    def test_audit_log_written_and_synced(self, tmp_path):
        from repro.streaming.readers import read_jsonl_records

        async def scenario():
            spec = validate_engine_spec(REPT_SPEC)
            session = StreamSession(
                tenant="t",
                spec=spec,
                engine=build_engine(spec),
                checkpoint_dir=tmp_path / "ckpt",
                audit_log_path=tmp_path / "audit.jsonl",
            )
            session.start()
            await session.offer(EDGES[:4])
            await session.drain()

        asyncio.run(scenario())
        records, log = read_jsonl_records(tmp_path / "audit.jsonl")
        assert [list(r) for r in records] == EDGES[:4]
        assert log.skipped == 0


_shape_rng = random.Random(11)
#: One stream for the frame-shape tests: small ids, so closures are common.
SHAPE_STREAM = [(_shape_rng.randrange(40), _shape_rng.randrange(40)) for _ in range(600)]
SHAPE_SPEC = {"kind": "rept", "m": 4, "c": 6, "seed": 11}
FRAME = 50


def _shape_records(shape):
    """The stream's records as a frame shape sends them: ``[u, v]`` with int
    ids, ``[u, v, t]``, or ``[u, v]`` with every fifth ``u`` a string id."""
    if shape == "int-pairs":
        return [[u, v] for u, v in SHAPE_STREAM]
    if shape == "timestamped":
        return [[u, v, float(k)] for k, (u, v) in enumerate(SHAPE_STREAM)]
    return [[u if k % 5 else f"n{u}", v] for k, (u, v) in enumerate(SHAPE_STREAM)]


def _shape_frames(shape):
    records = _shape_records(shape)
    return [records[start : start + FRAME] for start in range(0, len(records), FRAME)]


def _answers(engine, nodes):
    return engine.query_global(), engine.query_local(nodes)


def _shape_session(tmp_path, shape):
    spec = validate_engine_spec(SHAPE_SPEC)
    return StreamSession(
        tenant=shape,
        spec=spec,
        engine=build_engine(spec),
        checkpoint_dir=tmp_path / shape,
    )


def _snapshot(engine):
    return [raw_snapshot(part) for part in engine.state.snapshot()]


SHAPES = ("int-pairs", "timestamped", "mixed-ids")
PROBES = list(range(10)) + ["n1", "n2"]


class TestFrameShapes:
    """All-int ``[u, v]`` frames are encoded as they arrive, in one compiled
    walk; ``[u, v, t]`` frames and frames with other ids go through
    ``_frame_pairs``.  Either way a tenant answers as before."""

    def test_every_shape_answers_like_the_serial_state_set(self):
        answers = {}
        for shape in SHAPES:
            engine = build_engine(validate_engine_spec(SHAPE_SPEC))
            reference = GroupStateSet(ReptConfig(m=4, c=6, seed=11))
            delivered = 0
            for frame in _shape_frames(shape):
                assert engine.ingest_frame(frame) == len(frame)
                delivered += reference.process_edges([(r[0], r[1]) for r in frame])
            answers[shape] = _answers(engine, PROBES)
            estimate = reference.estimate(delivered)
            assert answers[shape] == (
                {
                    "global_count": estimate.global_count,
                    "edges_processed": delivered,
                    "edges_stored": estimate.edges_stored,
                },
                {
                    "counts": [[node, estimate.local_count(node)] for node in PROBES],
                    "edges_processed": delivered,
                },
            )
        assert answers["int-pairs"] == answers["timestamped"]
        assert answers["int-pairs"][0]["global_count"] > 0

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_tenant_restores_from_its_checkpoint_bit_identically(self, tmp_path, shape):
        frames = _shape_frames(shape)

        async def first_life():
            session = _shape_session(tmp_path, shape)
            session.start()
            for frame in frames[:5]:
                await session.offer(frame)
            await session.queue.join()
            session.checkpoint()
            at_checkpoint = _snapshot(session.engine)
            for frame in frames[5:]:
                await session.offer(frame)
            await session.queue.join()
            return at_checkpoint, session.engine

        async def second_life():
            session = _shape_session(tmp_path, shape)
            offset = session.recover()
            restored = _snapshot(session.engine)
            session.start()
            for frame in frames[5:]:
                await session.offer(frame)
            await session.queue.join()
            return offset, restored, session.engine

        at_checkpoint, first = asyncio.run(first_life())
        offset, restored, second = asyncio.run(second_life())
        assert offset == 5 * FRAME
        assert restored == at_checkpoint
        assert _snapshot(second) == _snapshot(first)
        assert _answers(second, PROBES) == _answers(first, PROBES)

    def test_only_all_int_pair_frames_skip_frame_pairs(self, monkeypatch):
        calls = []
        frame_pairs = session_mod._frame_pairs

        def spy(frame):
            calls.append(frame)
            return frame_pairs(frame)

        monkeypatch.setattr(session_mod, "_frame_pairs", spy)
        for shape in SHAPES:
            engine = build_engine(validate_engine_spec(SHAPE_SPEC))
            frames = _shape_frames(shape)
            del calls[:]
            for frame in frames:
                engine.ingest_frame(frame)
            compiled = shape == "int-pairs" and engine.state.kernel == "cc"
            assert calls == ([] if compiled else frames)

    @pytest.mark.parametrize(
        "frame, record",
        [
            ([[1]], "[1]"),
            ([[1, 2, 3, 4]], "[1, 2, 3, 4]"),
            ([5], "5"),
            ([[1, 2], [2, 3], [1]], "[1]"),
            ([[1, 2], 5], "5"),
        ],
    )
    def test_malformed_records_keep_their_error(self, frame, record):
        engine = build_engine(validate_engine_spec(SHAPE_SPEC))
        engine.ingest_frame(_shape_frames("int-pairs")[0])
        before = (_snapshot(engine), engine.delivered)
        message = f"frame record is not [u, v(, t)]: {record}"
        with pytest.raises(ServiceError, match=f"^{re.escape(message)}$"):
            engine.ingest_frame(frame)
        assert (_snapshot(engine), engine.delivered) == before
