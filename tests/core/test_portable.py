"""The portable state reader: one test per rule it enforces.

Each malformed input must raise ``ValueError`` and leave the receiving
state unchanged — its stored edges, its counters and its interner.  The
receiving state already holds a stretch of stream, so "unchanged" is not
the same as "empty".  Every input also carries the ``seen`` part earlier
versions wrote beside the groups, which the reader checks and drops.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cluster import ElasticCoordinator, ShardState
from repro.core.config import ReptConfig
from repro.core.portable import FORMAT, ColumnarDelta
from repro.core.state import GroupStateSet
from tests.conftest import dict_form, raw_snapshot, stored_raw_edges

# (m, c) = (4, 6): a complete group and a partial one, so η and every
# block of a part are populated.
CONFIG = ReptConfig(m=4, c=6, seed=7, track_local=True)
EDGES = [(u, (u * 7 + 3) % 23) for u in range(60)] + [
    (u, (u * 5 + 1) % 23) for u in range(60)
]


def _state(kernel, edges):
    state = GroupStateSet(CONFIG, kernel=kernel)
    state.process_edges(edges)
    return state


def _view(state):
    return (
        [raw_snapshot(part) for part in state.snapshot()],
        list(state.interner.nodes),
    )


def _with_legacy_seen(state):
    """``state`` with the ``seen`` part earlier versions wrote beside the
    groups: one column of node-table positions per distinct edge consumed
    (the stored ones here)."""
    edges = sorted(stored_raw_edges(state), key=repr)
    nodes = list(dict.fromkeys(node for edge in edges for node in edge))
    position = {node: index for index, node in enumerate(nodes)}
    pairs = np.array([[position[u] for u, _ in edges], [position[v] for _, v in edges]], np.int64)
    return dict(state, seen={"format": FORMAT, "nodes": nodes, "pairs": pairs})


def _break_shape(state):
    state["snapshots"][0]["edges"] = state["snapshots"][0]["edges"][:2]


def _break_dtype(state):
    state["snapshots"][1]["tri"] = state["snapshots"][1]["tri"].astype(np.int32)


def _break_position(state):
    part = state["snapshots"][0]
    part["edges"][1, 0] = len(part["nodes"])


def _break_seen_position(state):
    state["seen"]["pairs"][0, 0] = -1


def _break_repeat(state):
    part = state["snapshots"][0]
    part["nodes"].append(part["nodes"][0])


def _break_slot(state):
    part = state["snapshots"][1]
    part["tau_cells"][0, 0] = part["group_size"]


def _break_loop(state):
    edges = state["snapshots"][0]["edges"]
    edges[2, 0] = edges[1, 0]


def _break_repeated_key(state):
    part = state["snapshots"][1]
    part["tri"] = np.concatenate((part["tri"], part["tri"][:, :1]), axis=1)


def _break_negative(state):
    state["snapshots"][1]["rows"][1, 0] = -1


def _break_negative_cell(state):
    state["snapshots"][1]["eta_cells"][2, 0] = -2


def _break_zero_tau(state):
    state["snapshots"][0]["tau_cells"][2, 0] = 0


def _break_group_size(state):
    state["snapshots"][1]["group_size"] = 3


def _break_m(state):
    state["snapshots"][0]["m"] = 5


def _break_group_count(state):
    state["snapshots"].pop()


RULES = {
    "wrong-shape": (_break_shape, "int64 block"),
    "wrong-dtype": (_break_dtype, "int64 block"),
    "position-outside-table": (_break_position, "outside the node table"),
    "seen-position-outside-table": (_break_seen_position, "outside the node table"),
    "repeated-node": (_break_repeat, "repeats an entry"),
    "slot-too-large": (_break_slot, "slot outside"),
    "equal-endpoints": (_break_loop, "endpoints are equal"),
    "repeated-counter-key": (_break_repeated_key, "key twice"),
    "negative-counter": (_break_negative, "negative counter"),
    "negative-cell": (_break_negative_cell, "negative counter"),
    "zero-tau-cell": (_break_zero_tau, "zero cell"),
    "group-size-mismatch": (_break_group_size, "shape mismatch"),
    "m-mismatch": (_break_m, "shape mismatch"),
    "group-count": (_break_group_count, "group snapshots"),
}


def _broken(rule):
    breaker, message = RULES[rule]
    state = copy.deepcopy(_with_legacy_seen(_state("python", EDGES).portable_state()))
    breaker(state)
    return state, message


@pytest.mark.parametrize("kernel", ["python", "auto"])
@pytest.mark.parametrize("rule", sorted(RULES))
def test_rejected_state_leaves_receiver_unchanged(rule, kernel):
    state, message = _broken(rule)
    receiver = _state(kernel, EDGES[:50])
    before = _view(receiver)
    with pytest.raises(ValueError, match=message):
        receiver.restore_portable(state)
    assert _view(receiver) == before
    if rule != "seen-position-outside-table":
        with pytest.raises(ValueError, match=message):
            receiver.merge_snapshots(state["snapshots"])
        assert _view(receiver) == before


def test_rejected_shard_state_leaves_shard_unchanged():
    shard = ShardState(CONFIG, 0)
    shard.apply_raw(1, EDGES[:50])
    before = (raw_snapshot(shard.group.snapshot()), shard.applied_seq)
    for rule in ("position-outside-table", "seen-position-outside-table"):
        state, message = _broken(rule)
        point = {"shard_id": 0, "applied_seq": 9, "snapshot": state["snapshots"][0]}
        point["seen"] = state["seen"]
        with pytest.raises(ValueError, match=message):
            shard.restore(point)
        assert (raw_snapshot(shard.group.snapshot()), shard.applied_seq) == before


def test_coordinator_rejects_before_touching_shards():
    state, message = _broken("zero-tau-cell")
    with ElasticCoordinator(CONFIG, num_workers=0) as coordinator:
        coordinator.submit(EDGES[:50])
        before = coordinator.estimate()
        with pytest.raises(ValueError, match=message):
            coordinator.restore_portable(state)
        after = coordinator.estimate()
    assert (after.global_count, after.local_counts) == (before.global_count, before.local_counts)


@pytest.mark.parametrize("kernel", ["python", "auto"])
def test_dict_form_reads_like_the_columns(kernel):
    source = _state("auto", EDGES)
    state = source.portable_state()
    columnar = GroupStateSet(CONFIG, kernel=kernel)
    columnar.restore_portable(state)
    legacy = GroupStateSet(CONFIG, kernel=kernel)
    legacy.restore_portable(dict_form(state))
    assert legacy.total_edges_stored() == source.total_edges_stored() > 0
    assert [raw_snapshot(p) for p in legacy.snapshot()] == [
        raw_snapshot(p) for p in columnar.snapshot()
    ]
    assert "seen" not in legacy.portable_state()


def test_malformed_dict_form_is_a_value_error():
    state = dict_form(_state("python", EDGES).portable_state())
    del state["snapshots"][0]["processors"][0]["tau_local"]
    receiver = _state("python", EDGES[:50])
    before = _view(receiver)
    with pytest.raises(ValueError, match="dict-form"):
        receiver.restore_portable(state)
    assert _view(receiver) == before


@pytest.mark.parametrize("kernel", ["python", "auto"])
def test_restore_replaces_existing_state(kernel):
    state = _state("python", EDGES[50:]).portable_state()
    fresh = GroupStateSet(CONFIG, kernel=kernel)
    fresh.restore_portable(state)
    receiver = _state(kernel, EDGES[:50])
    receiver.restore_portable(state)
    got, want = receiver.portable_state(), fresh.portable_state()
    assert [raw_snapshot(p) for p in got["snapshots"]] == [
        raw_snapshot(p) for p in want["snapshots"]
    ]
    shard = ShardState(CONFIG, 1)
    shard.apply_raw(1, EDGES[:50])
    point = {"shard_id": 1, "applied_seq": 2, "snapshot": state["snapshots"][1]}
    shard.restore(point)
    assert raw_snapshot(shard.group.snapshot()) == raw_snapshot(fresh.snapshot()[1])
    assert set(shard.portable()) == {"shard_id", "applied_seq", "snapshot"}


@pytest.mark.parametrize("kernel", ["python", "auto"])
def test_legacy_seen_part_is_checked_then_dropped(kernel):
    """A state or shard point written with a ``seen`` part restores exactly
    like one without, and what the receiver writes back has none."""
    state = _state("auto", EDGES).portable_state()
    assert set(state) == {"snapshots"}
    plain = GroupStateSet(CONFIG, kernel=kernel)
    plain.restore_portable(state)
    legacy = GroupStateSet(CONFIG, kernel=kernel)
    legacy.restore_portable(_with_legacy_seen(state))
    assert _view(legacy)[0] == _view(plain)[0]
    assert set(legacy.portable_state()) == {"snapshots"}
    for resumed in (plain, legacy):
        resumed.process_edges(EDGES[::-1])
    assert _view(legacy)[0] == _view(plain)[0]
    shard = ShardState(CONFIG, 1)
    point = {"shard_id": 1, "applied_seq": 3, "snapshot": state["snapshots"][1]}
    shard.restore(dict(point, seen=_with_legacy_seen(state)["seen"]))
    assert raw_snapshot(shard.portable()["snapshot"]) == raw_snapshot(state["snapshots"][1])
    assert "seen" not in shard.portable()


def test_repeated_cells_add_up_on_both_kernels():
    part = copy.deepcopy(_state("python", EDGES).snapshot()[1])
    for name in ("tau_cells", "eta_cells"):
        part[name] = np.concatenate((part[name], part[name][:, :1]), axis=1)
    merged = []
    for kernel in ("python", "auto"):
        state = GroupStateSet(CONFIG, kernel=kernel)
        state.groups[1].merge_snapshot(part)
        merged.append(raw_snapshot(state.groups[1].snapshot()))
    assert merged[0] == merged[1]
    once = raw_snapshot(_state("python", EDGES).snapshot()[1])
    slot, node = part["tau_cells"][0, 0], part["nodes"][part["tau_cells"][1, 0]]
    entry = merged[0]["processors"][slot]
    assert entry["tau_local"][node] == 2 * once["processors"][slot]["tau_local"][node]


def test_older_pickled_delta_reads_its_loose_counters():
    delta = ColumnarDelta.__new__(ColumnarDelta)
    empty = np.empty((3, 0), np.int64)
    delta.__setstate__(
        (
            None,
            {
                "edges": empty,
                "tri": np.array([[0], [1], [2], [4]], np.int64),
                "tau_cells": empty,
                "eta_cells": empty,
                "rows": np.zeros((3, 2), np.int64),
                "loose": [{}, {(3, 5): 7}],
            },
        )
    )
    assert delta.tri.tolist() == [[0, 1], [1, 3], [2, 5], [4, 7]]
