"""Property-based tests: a state set's groups advanced in parallel.

On a native state set one compiled batch call advances every group
(:func:`~repro.core.kernel.run_groups`): a group with at least
``THREAD_FLOOR`` records left and room to store as many edges runs on a
thread of its own, up to ``CPUS`` threads with the calling one, and every
thread is joined before the call returns.  Groups that stop short grow on the calling thread and the call
runs again.  These tests lower the floor so that small batches take
threads, cap the threads below the groups of the widest config, and hold
the parallel runs to the inline ones and to the dict kernel:

* on Algorithm 1 (one group, which starts no thread), complete groups, a
  partial group, η with local counts and 8 groups of 2 slots, each
  parallel run equals an inline run column for column and the dict
  reference in ``summaries()`` and every group's ``columns()``;
* with a one-cell pool, and a one-edge store too, groups stop at
  different records inside one parallel call and each resumes where it
  stopped;
* every call starts exactly the threads that rule gives: at the default
  floor none below 4096 records, none for a young state set whose groups
  lack the room, none for a call that refuses its first record, and
  never more than ``CPUS`` less one;
* a state set that ran a parallel batch forks, and the child runs another
  parallel batch and reaches the parent's state; after a parallel call
  the process has the threads it had before.

Under ``REPRO_KERNEL=python`` ``kernel="auto"`` resolves to the dict
groups; the tests that need the compiled call skip.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_property_cells import _assert_layout, _assert_same, _exact_columns, _short_of

from repro.core import adjacency
from repro.core import kernel as kernel_mod
from repro.core.config import ReptConfig
from repro.core.kernel import resolve_kernel
from repro.core.state import GroupStateSet

SEED = 20261019
CONFIGS = {
    "alg1": dict(m=4, c=3),
    "alg2-complete": dict(m=3, c=6),
    "alg2-partial": dict(m=4, c=6),
    "eta-local": dict(m=3, c=9, track_eta=True),
    "many-groups": dict(m=2, c=16, track_eta=True),
}
#: The threads a parallel run may use: fewer than the 8 groups of
#: "many-groups", and more than one whatever this machine has.
PARALLEL_CPUS = 3
POOLS = ("default", "one-cell", "one-edge")

needs_cc = pytest.mark.skipif(
    resolve_kernel("auto") == "python", reason="kernel='auto' resolves to the dict groups here"
)


def _config(name):
    return ReptConfig(seed=SEED, track_local=True, **CONFIGS[name])


def _stream(seed, n=1500, nodes=300):
    """Hub-heavy records with repeats, so groups grow and close triangles."""
    rng = random.Random(seed)
    hubs = list(range(12))
    return [
        (rng.choice(hubs) if rng.random() < 0.4 else rng.randrange(nodes), rng.randrange(nodes))
        for _ in range(n)
    ]


def _run(config, edges, kernel="auto", batch=250):
    """Batches of ``batch`` records, each followed by 5 per-edge calls."""
    state = GroupStateSet(config, kernel=kernel)
    step = batch + 5
    for start in range(0, len(edges), step):
        chunk = edges[start : start + step]
        state.process_edges(chunk[:batch])
        for u, v in chunk[batch:]:
            state.process_edge(u, v)
    return state


def _room_for(record, count):
    """Whether the group has the edge room to store ``count`` more edges:
    as many free edge rows."""
    n_edges = ctypes.c_int64.from_address(record.meta).value
    return record.edge_cap - n_edges >= count


def _earned(entry, starts, n):
    """The groups that earn a thread in a call over ``n`` records."""
    floor = kernel_mod.THREAD_FLOOR
    return sum(
        start < n and n - start >= floor and _room_for(record, floor)
        for record, start in zip(entry.records, starts)
    )


class _Calls:
    """Spies on the batch call: per call, the threads it started and each
    running group's ``(record, start, stop, n, room it lacked)``.  Checks
    that each call started one thread per group that earned one, up to
    ``CPUS`` with the calling thread, and that a refused call (one in
    which no group advanced) started none; :attr:`earned` keeps those
    counts."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.earned = []
        run_groups = kernel_mod.run_groups

        def spy(entry, n, cu, cv, keys, fresh):
            starts = [0] * entry.n_groups if fresh else entry.stops.tolist()
            earned = _earned(entry, starts, n)
            short = run_groups(entry, n, cu, cv, keys, fresh)
            ran = [
                (record, start, stop, n, stop < n and _short_of(record))
                for record, start, stop in zip(entry.records, starts, entry.stops.tolist())
                if start < n
            ]
            refused = all(start == stop for _, start, stop, _, _ in ran)
            if refused:
                assert entry.threads == 0
            else:
                assert entry.threads == max(0, min(earned, kernel_mod.CPUS) - 1)
            self.earned.append(earned)
            assert short == sum(stop < n for _, _, stop, _, _ in ran)
            self.calls.append((entry.threads, ran))
            return short

        monkeypatch.setattr(kernel_mod, "run_groups", spy)

    @property
    def threads(self):
        return [threads for threads, _ in self.calls]


def _set_pools(monkeypatch, pools):
    if pools != "default":
        monkeypatch.setattr(adjacency, "_INIT_CELLS", 1)
    if pools == "one-edge":
        monkeypatch.setattr(adjacency, "_INIT_EDGES", 1)


@needs_cc
@pytest.mark.parametrize("pools", POOLS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_parallel_groups_equal_inline_and_dict(config_name, pools, monkeypatch):
    config = _config(config_name)
    edges = _stream(5)
    n_groups = len(config.group_sizes())
    python = _run(config, edges, "python")
    _set_pools(monkeypatch, pools)
    monkeypatch.setattr(kernel_mod, "CPUS", PARALLEL_CPUS)

    monkeypatch.setattr(kernel_mod, "THREAD_FLOOR", len(edges) + 1)
    inline_calls = _Calls(monkeypatch)
    inline = _run(config, edges)
    assert set(inline_calls.threads) == {0}

    monkeypatch.setattr(kernel_mod, "THREAD_FLOOR", 1)
    parallel_calls = _Calls(monkeypatch)
    parallel = _run(config, edges)
    threads = parallel_calls.threads
    if n_groups == 1:
        assert set(threads) == {0}
    else:
        assert max(threads) == min(n_groups, PARALLEL_CPUS) - 1
    _assert_layout(parallel)
    assert _exact_columns(parallel) == _exact_columns(inline)
    _assert_same(parallel, python)

    # Each group resumes where it stopped.
    resume = {}
    for _, ran in parallel_calls.calls:
        for record, start, stop, n, _ in ran:
            assert start == resume.get(id(record), 0)
            resume[id(record)] = stop if stop < n else 0
    if pools == "default" or n_groups == 1:
        return
    # Groups stopped at different records inside one parallel call, and
    # the calls stopped both for cells and for edges.
    assert any(
        started
        and len({stop for _, _, stop, _, _ in ran}) > 1
        and any(stop < n for _, _, stop, n, _ in ran)
        for started, ran in parallel_calls.calls
    )
    lacked = {reason for _, ran in parallel_calls.calls for *_, reason in ran if reason}
    assert lacked == {"cells", "edges"}


@needs_cc
@settings(max_examples=20, deadline=None)
@given(
    config_name=st.sampled_from(sorted(CONFIGS)),
    pools=st.sampled_from(POOLS),
    seed=st.integers(0, 10**6),
    batch=st.integers(1, 400),
    nodes=st.integers(8, 400),
)
def test_parallel_groups_match_dict_on_any_stream(config_name, pools, seed, batch, nodes):
    config = _config(config_name)
    edges = _stream(seed, n=900, nodes=nodes)
    python = _run(config, edges, "python", batch)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _set_pools(monkeypatch, pools)
        monkeypatch.setattr(kernel_mod, "CPUS", PARALLEL_CPUS)
        monkeypatch.setattr(kernel_mod, "THREAD_FLOOR", 1)
        parallel = _run(config, edges, batch=batch)
    _assert_layout(parallel)
    _assert_same(parallel, python)


@needs_cc
def test_the_floor_the_room_and_the_cpus_bound_the_threads(monkeypatch):
    config = _config("many-groups")
    floor = kernel_mod.THREAD_FLOOR
    edges = _stream(9, n=3 * floor, nodes=3000)
    monkeypatch.setattr(kernel_mod, "CPUS", 2)
    calls = _Calls(monkeypatch)
    state = GroupStateSet(config, kernel="auto")
    # Below the floor every call runs inline.
    state.process_edges(edges[: floor - 1])
    assert set(calls.threads) == {0}
    # The next batch leaves every group the floor, but the young groups
    # lack the room for it: those calls run inline too, until growth
    # gives the groups room and the call runs on both CPUs allowed.
    calls.calls.clear()
    calls.earned.clear()
    state.process_edges(edges[floor - 1 :])
    assert calls.threads[0] == 0 and calls.earned[0] == 0
    assert all(start == 0 for _, start, _, _, _ in calls.calls[0][1])
    assert 1 in calls.threads and set(calls.threads) <= {0, 1}
    python = GroupStateSet(config, kernel="python")
    python.process_edges(edges[: floor - 1])
    python.process_edges(edges[floor - 1 :])
    _assert_same(state, python)


@needs_cc
def test_cpus_are_the_usable_ones():
    if hasattr(os, "sched_getaffinity"):
        assert kernel_mod.CPUS == len(os.sched_getaffinity(0))
    assert kernel_mod.CPUS >= 1


# -- fork and threads -------------------------------------------------------------


def _thread_count():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise AssertionError("no Threads line")


def _raw_state(state):
    """The portable state as bytes, comparable with ``==``."""
    blocks = ("edges", "tri", "tau_cells", "eta_cells", "rows")
    return pickle.dumps(
        [
            (part["nodes"], [part[name].tolist() for name in blocks])
            for part in state.portable_state()["snapshots"]
        ]
    )


def _ingest_in_child(conn, state, batch):
    state.process_edges(batch)
    conn.send(_raw_state(state))
    conn.close()


@needs_cc
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_parallel_calls_leave_no_thread_behind(monkeypatch):
    monkeypatch.setattr(kernel_mod, "THREAD_FLOOR", 1)
    monkeypatch.setattr(kernel_mod, "CPUS", PARALLEL_CPUS)
    calls = _Calls(monkeypatch)
    state = GroupStateSet(_config("many-groups"), kernel="auto")
    edges = _stream(13)
    for start in range(0, len(edges), 300):
        before = _thread_count()
        state.process_edges(edges[start : start + 300])
        assert _thread_count() == before
    assert max(calls.threads) == PARALLEL_CPUS - 1


@needs_cc
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
@pytest.mark.parametrize("config_name", ["alg2-partial", "many-groups"])
def test_a_forked_child_runs_parallel_batches(config_name, monkeypatch):
    monkeypatch.setattr(kernel_mod, "THREAD_FLOOR", 1)
    monkeypatch.setattr(kernel_mod, "CPUS", PARALLEL_CPUS)
    calls = _Calls(monkeypatch)
    edges = _stream(17, n=1200)
    state = GroupStateSet(_config(config_name), kernel="auto")
    state.process_edges(edges[:600])
    assert max(calls.threads) > 0
    parent_calls = len(calls.calls)
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_ingest_in_child, args=(sender, state, edges[600:]))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the forked child's parallel batch did not finish"
        in_child = receiver.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    state.process_edges(edges[600:])
    assert max(calls.threads[parent_calls:]) > 0
    assert in_child == _raw_state(state)
