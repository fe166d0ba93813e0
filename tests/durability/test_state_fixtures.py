"""Checkpoints written by older versions resume bit-identically.

Each directory under ``tests/fixtures/`` holds one checkpoint of every
state boundary as an older version wrote it (see its README and
``scripts/write_state_fixtures.py``): a service ``rept`` tenant, a
``run_rept_durable`` run, the elastic coordinator's per-shard checkpoints,
a pickled native ``ReptEstimator`` and ``run_monitor_durable`` runs on
each kernel.  ``dict-form/`` pins the raw-keyed dict state format;
``dense-cells/`` pins native groups whose per-(slot, node) state was laid
out in dense ``group_size × node_cap`` blocks, in the pickled estimator
and the native monitor's checkpoints; ``pane-rings/`` pins the monitor
windows' last layout with a live state set, an accumulator and a ring of
pane deltas each (all three sets' windows kept those), which now resume
as one state set per window.  Every native group pickled in these sets
also kept each half-edge's eid and each edge's endpoints beside the
half-edges, which now name both; they load with the same edges, and a
pickle whose columns break that rule is refused.  Every one is cut halfway
through the same stream; resumed here and fed the rest, through batches
and through per-edge calls, each must end exactly where an uninterrupted
run ends: global and local counts, ``eta_hat``, ``edges_stored`` and
every window result.
"""

from __future__ import annotations

import asyncio
import copy
import json
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ElasticCoordinator, ShardState
from repro.core import ReptConfig, ReptEstimator
from repro.core.adjacency import GroupArrays, NativeProcessorGroup
from repro.core.combine import combine_group_estimates
from repro.core.kernel import native_available
from repro.core.state import GroupStateSet
from repro.durability import run_monitor_durable, run_rept_durable
from repro.durability.checkpoint import CheckpointManager, shard_checkpoint_dir
from repro.service import EstimationService, InProcessClient
from repro.streaming.monitor import WindowedTriangleMonitor
from tests.conftest import reachable

ROOT = Path(__file__).resolve().parents[1] / "fixtures"
FIXTURE_SETS = ("dict-form", "dense-cells", "pane-rings")
STREAM = json.loads((ROOT / "dict-form" / "stream.json").read_text())
RECORDS = [tuple(record) for record in STREAM["records"]]
EDGES = [(u, v) for u, v, _ in RECORDS]
CUT = STREAM["cut"]
BATCH = STREAM["batch"]
SEGMENT = STREAM["segment"]

needs_cc = pytest.mark.skipif(not native_available(), reason="no C compiler available")


@pytest.fixture(params=FIXTURE_SETS)
def fixtures(request):
    """One fixture set's directory; every set was cut from the same stream."""
    directory = ROOT / request.param
    assert json.loads((directory / "stream.json").read_text()) == STREAM
    return directory


def _config(kernel="auto"):
    return ReptConfig(
        m=STREAM["m"], c=STREAM["c"], seed=STREAM["seed"], track_local=True, kernel=kernel
    )


def _monitor_factory(kernel):
    def factory():
        return WindowedTriangleMonitor(config=_config(kernel), **STREAM["monitor"])

    return factory


def _copy(fixtures, tmp_path, name):
    return Path(shutil.copytree(fixtures / name, tmp_path / name))


def _key(estimate):
    return (
        estimate.global_count,
        estimate.local_counts,
        estimate.edges_processed,
        estimate.edges_stored,
        estimate.metadata.get("eta_hat"),
    )


def _uninterrupted():
    state = GroupStateSet(_config())
    return state.estimate(state.process_edges(EDGES))


def test_service_tenant_resumes(fixtures, tmp_path):
    root = _copy(fixtures, tmp_path, "service")

    async def scenario():
        service = EstimationService(checkpoint_root=root)
        assert service.recover_sessions() == [("t", CUT)]
        client = InProcessClient(service)
        for start in range(CUT, len(EDGES), BATCH):
            await client.ingest("t", [list(e) for e in EDGES[start : start + BATCH]])
        session = service.sessions["t"]
        await session.queue.join()
        return session.engine.state.estimate(session.engine.delivered)

    assert _key(asyncio.run(scenario())) == _key(_uninterrupted())


def test_service_checkpoint_restores_into_the_coordinator(fixtures):
    # rept and rept-elastic checkpoints interchange: the coordinator reads
    # the older tenant's state too.
    payload = CheckpointManager(fixtures / "service" / "t").recover().checkpoint.payload
    with ElasticCoordinator(_config(), num_workers=0) as coordinator:
        coordinator.restore_portable(payload["portable"], edges_processed=CUT)
        for start in range(CUT, len(EDGES), BATCH):
            coordinator.submit(EDGES[start : start + BATCH])
        estimate = coordinator.estimate()
    assert _key(estimate) == _key(_uninterrupted())


def test_durable_run_resumes(fixtures, tmp_path):
    directory = _copy(fixtures, tmp_path, "durable")
    estimate, report = run_rept_durable(EDGES, _config(), directory, checkpoint_every=SEGMENT)
    assert report.checkpoint.stream_offset == CUT
    assert _key(estimate) == _key(_uninterrupted())
    # The checkpoints written after the resume are in the current format,
    # with no seen part: the groups' stored edges decide first occurrence.
    written = CheckpointManager(directory).recover().checkpoint
    assert written.stream_offset == len(EDGES)
    assert set(written.payload) == {"snapshots"}
    resumed = GroupStateSet(_config())
    resumed.restore_portable(written.payload)
    assert _key(resumed.estimate(len(EDGES))) == _key(_uninterrupted())


def test_elastic_shard_checkpoints_resume(fixtures, tmp_path):
    base = _copy(fixtures, tmp_path, "elastic")
    config = _config()
    batches = [EDGES[start : start + BATCH] for start in range(0, len(EDGES), BATCH)]
    summaries = []
    for shard_id in range(len(config.group_sizes())):
        checkpoint = CheckpointManager(shard_checkpoint_dir(base, shard_id)).recover().checkpoint
        assert checkpoint.stream_offset == CUT // BATCH
        shard = ShardState(config, shard_id)
        shard.restore(checkpoint.payload)
        for seq, batch in enumerate(batches, start=1):
            shard.apply_raw(seq, batch)
        assert "seen" not in shard.portable()
        summaries.append(shard.summary())
    estimate = combine_group_estimates(
        summaries,
        m=config.m,
        c=config.c,
        edges_processed=len(EDGES),
        track_local=True,
        eta_tracked=True,
    )
    assert _key(estimate) == _key(_uninterrupted())


@needs_cc
def test_pickled_native_estimator_resumes(fixtures):
    # The pickle carries no group records: unpickling builds them, and the
    # per-edge path's one compiled call reads them from the first record.
    # Its groups' dense per-(slot, node) blocks become cells.
    reference = ReptEstimator(_config())
    reference.process_edges(EDGES)
    estimator = pickle.loads((fixtures / "estimator.pkl").read_bytes())
    assert all(isinstance(group, NativeProcessorGroup) for group in estimator.groups)
    assert not any(hasattr(group._arrays, "heads") for group in estimator.groups)
    # The older set of consumed edges is dropped; the groups stand for it.
    assert "seen" not in vars(estimator._state)
    estimator.process_edges(EDGES[CUT:])
    assert _key(estimator.estimate()) == _key(reference.estimate())
    estimator = pickle.loads((fixtures / "estimator.pkl").read_bytes())
    for u, v in EDGES[CUT:]:
        estimator.process_edge(u, v)
    assert _key(estimator.estimate()) == _key(reference.estimate())


def _unpickled_arrays(load):
    """Run ``load()``; return every ``GroupArrays`` it unpickled with a copy
    of the state its pickle held and its edge rows as it was loaded (an
    older monitor's windows fold into some of them afterwards)."""
    loaded = []
    setstate = GroupArrays.__setstate__

    def spy(arrays, state):
        held = copy.deepcopy(state)
        setstate(arrays, state)
        loaded.append((held, arrays, arrays.edge_rows(0)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GroupArrays, "__setstate__", spy)
        load()
    return loaded


def _load_pickled(path):
    if path.suffix == ".pkl":
        return lambda: pickle.loads(path.read_bytes())
    return lambda: CheckpointManager(path).recover().checkpoint.payload


@needs_cc
@pytest.mark.parametrize("name", ["estimator.pkl", "monitor"])
def test_pickled_groups_load_the_edges_they_held(fixtures, name):
    loaded = _unpickled_arrays(_load_pickled(fixtures / name))
    assert loaded
    for held, arrays, rows in loaded:
        n = int(held["meta"][1])
        columns = np.stack([held[column][:n] for column in ("edge_slot", "edge_u", "edge_v")])
        assert np.array_equal(rows, columns)
        assert len(arrays.meta) == 4
        assert not {"pool_eid", "edge_u", "edge_v", "pool_cap"} & set(vars(arrays))


@needs_cc
@pytest.mark.parametrize("column", ["pool_eid", "n_half", "edge_u", "edge_v", "pool_cap"])
def test_a_pickle_off_the_half_edge_rule_is_refused(column):
    (state, _, _), *_ = _unpickled_arrays(_load_pickled(ROOT / "pane-rings" / "estimator.pkl"))
    GroupArrays.__new__(GroupArrays).__setstate__(copy.deepcopy(state))
    if column == "n_half":
        state["meta"][0] += 2
    elif column == "pool_cap":
        state["pool_cap"] *= 2
    else:
        state[column][3] += 1
    with pytest.raises(ValueError, match=column):
        GroupArrays.__new__(GroupArrays).__setstate__(state)


@pytest.mark.parametrize("kernel", [pytest.param("auto", marks=needs_cc), "python"])
@pytest.mark.parametrize("name", ["service/t", "durable"])
def test_older_state_resumes_per_edge(fixtures, name, kernel):
    payload = CheckpointManager(fixtures / name).recover().checkpoint.payload
    state = GroupStateSet(_config(kernel))
    state.restore_portable(payload.get("portable", payload))
    for u, v in EDGES[CUT:]:
        state.process_edge(u, v)
    assert _key(state.estimate(len(EDGES))) == _key(_uninterrupted())


def _window_rows(results):
    return [
        (
            result.index,
            result.start,
            result.end,
            result.records,
            result.complete,
            _key(result.estimate),
        )
        for result in results
    ]


@pytest.mark.parametrize(
    "name,kernel",
    [pytest.param("monitor", "auto", marks=needs_cc), ("monitor-python", "python")],
)
def test_monitor_with_pane_rings_resumes(fixtures, tmp_path, name, kernel):
    directory = _copy(fixtures, tmp_path, name)
    checkpoint = CheckpointManager(directory).recover().checkpoint
    monitor = checkpoint.payload["monitor"]
    assert monitor._chains
    # Each older window's accumulator, with its pending pane folded in, is
    # the window's one state set; its live set and pane-delta ring are
    # dropped, as are the older monitor's shared arrival index and its
    # chains' consumed-edge sets.
    state_sets = [obj for obj in reachable(monitor) if isinstance(obj, GroupStateSet)]
    assert len(state_sets) == len(monitor._chains) + 1  # and the template
    assert not any("seen" in vars(state) for state in state_sets)
    assert not hasattr(monitor, "_edge_panes") and not hasattr(monitor, "_dedup_base")
    factory = _monitor_factory(kernel)
    results, report = run_monitor_durable(
        factory, RECORDS, directory, checkpoint_every=SEGMENT
    )
    assert report.checkpoint.stream_offset == CUT
    expected, _ = run_monitor_durable(
        factory, RECORDS, tmp_path / "fresh", checkpoint_every=SEGMENT
    )
    assert _window_rows(results) == _window_rows(expected)
    # The same checkpoint resumed one record at a time ends like a fresh
    # monitor fed the same calls (a call's records share one watermark).
    payload = CheckpointManager(fixtures / name).recover().checkpoint.payload
    resumed, fresh = payload["monitor"], factory()
    one_by_one = list(payload["results"])
    expected = []
    for start in range(0, CUT, SEGMENT):
        expected.extend(fresh.ingest(RECORDS[start : start + SEGMENT]))
    for record in RECORDS[CUT:]:
        one_by_one.extend(resumed.ingest([record]))
        expected.extend(fresh.ingest([record]))
    one_by_one.extend(resumed.flush())
    expected.extend(fresh.flush())
    assert _window_rows(one_by_one) == _window_rows(expected)
