"""Property-based tests: array-backed adjacency ≡ dict-backed groups.

:class:`~repro.core.adjacency.NativeProcessorGroup` replaces the
dict-of-sets adjacency of :class:`~repro.core.state.ProcessorGroup` with
flat numpy columns (intrusive singly-linked neighbour lists over a shared
pool) so the compiled kernels can walk them.  The replacement is required
to be observationally identical: stored edges, τ/η counters, per-node
locals, summaries, snapshots and merges must all agree with the dict
implementation on any stream — including duplicate-heavy ones and any
chunking of the ingestion calls.  Hypothesis drives random streams and
random chunk boundaries through both implementations side by side; the
array growth paths are exercised naturally (capacities start small) and
explicitly via a model-checked sequence of one-edge ``append_edges`` calls.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adjacency import GroupArrays, NativeProcessorGroup
from repro.core.config import ReptConfig
from repro.core.kernel import find_edges, native_available
from repro.core.state import GroupStateSet, ProcessorGroup
from repro.hashing import make_hash_function
from tests.conftest import zeroed_snapshot

pytestmark = pytest.mark.skipif(not native_available(), reason="no C compiler available")

SEED = 20240808

# Small node universe => duplicates and triangles are common.  Self-loops
# are excluded: every ingestion path skips them, so they would only thin
# out the examples.
node_ids = st.integers(min_value=0, max_value=15)
edges_strategy = st.lists(
    st.tuples(node_ids, node_ids).filter(lambda e: e[0] != e[1]),
    min_size=0,
    max_size=150,
)
#: (m, group_size) with partial groups (group_size < m) and η tracking on
#: the full-size ones — both closure variants of the kernel.
shapes = st.sampled_from([(1, 1), (3, 3), (4, 2), (5, 5), (6, 3), (2, 1)])
#: (m, c) of whole configurations: one group (c <= m), complete groups, and
#: complete groups plus a partial one.
configs = st.sampled_from([(1, 1), (4, 2), (3, 3), (2, 4), (3, 7), (4, 9)])
chunk_seeds = st.integers(min_value=0, max_value=2**16)


def _pair(m, group_size, track_eta=True, track_local=True):
    """One dict-backed and one array-backed group with identical hashing."""
    python = ProcessorGroup(
        hash_function=make_hash_function("splitmix", m, seed=SEED),
        group_size=group_size,
        m=m,
        track_local=track_local,
        track_eta=track_eta,
    )
    native = NativeProcessorGroup(
        hash_function=make_hash_function("splitmix", m, seed=SEED),
        group_size=group_size,
        m=m,
        track_local=track_local,
        track_eta=track_eta,
    )
    return python, native


def _state_pair(config):
    """A python and a native :class:`GroupStateSet` of one config.

    ``REPRO_KERNEL`` is cleared while resolving, so the native side is
    built even in an environment that forces the python kernel.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_KERNEL", raising=False)
        return (
            GroupStateSet(config, kernel="python"),
            GroupStateSet(config, kernel="native"),
        )


def _chunks(edges, seed):
    """Split ``edges`` at random boundaries."""
    rng = random.Random(seed)
    out, i = [], 0
    while i < len(edges):
        n = rng.randrange(1, 40)
        out.append(edges[i : i + n])
        i += n
    return out


def _assert_groups_equal(python: ProcessorGroup, native: NativeProcessorGroup):
    assert sorted(python.stored_edges()) == sorted(native.stored_edges())
    assert python.tau_values() == native.tau_values()
    assert python.eta_values() == native.eta_values()
    assert python.total_edges_stored() == native.total_edges_stored()
    assert python.local_tau_sums() == native.local_tau_sums()
    assert python.local_eta_sums() == native.local_eta_sums()
    assert python.summarise(True) == native.summarise(True)
    assert python.summarise(False) == native.summarise(False)


class TestIngestionEquivalence:
    @given(edges=edges_strategy, shape=shapes, chunk_seed=chunk_seeds)
    @settings(max_examples=40, deadline=None)
    def test_chunked_batches_match_dict_impl(self, edges, shape, chunk_seed):
        m, group_size = shape
        python, native = _pair(m, group_size)
        for chunk in _chunks(edges, chunk_seed):
            python.process_edges(chunk)
            native.process_edges(chunk)
        _assert_groups_equal(python, native)

    @given(edges=edges_strategy, shape=configs)
    @settings(max_examples=40, deadline=None)
    def test_per_edge_path_matches_dict_impl(self, edges, shape):
        """The per-edge path hands each group an encoded record; the native
        groups run it through the scalar kernel call, the dict groups
        through their one batch loop."""
        m, c = shape
        python, native = _state_pair(ReptConfig(m=m, c=c, seed=SEED, track_eta=True))
        assert native.kernel == "cc"
        for u, v in edges:
            python.process_edge(u, v)
            native.process_edge(u, v)
        assert python.summaries() == native.summaries()
        for python_group, native_group in zip(python.groups, native.groups):
            _assert_groups_equal(python_group, native_group)

    @given(edges=edges_strategy, shape=shapes)
    @settings(max_examples=25, deadline=None)
    def test_untracked_locals_match(self, edges, shape):
        m, group_size = shape
        python, native = _pair(m, group_size, track_eta=False, track_local=False)
        python.process_edges(edges)
        native.process_edges(edges)
        assert python.summarise(True) == native.summarise(True)
        assert sorted(python.stored_edges()) == sorted(native.stored_edges())


class TestSnapshotAndMerge:
    @given(edges=edges_strategy, shape=shapes, cut=st.integers(0, 150))
    @settings(max_examples=30, deadline=None)
    def test_snapshot_restore_roundtrip(self, edges, shape, cut):
        """Mid-stream native snapshots restore into either implementation
        and both finish identically."""
        m, group_size = shape
        cut = min(cut, len(edges))
        python, native = _pair(m, group_size)
        native.process_edges(edges[:cut])
        snapshot = native.snapshot()
        python.restore(snapshot)
        resumed = _pair(m, group_size)[1]
        resumed.restore(snapshot)
        python.process_edges(edges[cut:])
        resumed.process_edges(edges[cut:])
        _assert_groups_equal(python, resumed)

    @given(edges=edges_strategy, shape=shapes, cut=st.integers(0, 150))
    @settings(max_examples=30, deadline=None)
    def test_merge_snapshot_matches_dict_impl(self, edges, shape, cut):
        """Folding the same later-chunk snapshot into identically-prepared
        accumulators gives the same state in both implementations."""
        m, group_size = shape
        cut = min(cut, len(edges))
        python, native = _pair(m, group_size)
        python.process_edges(edges[:cut])
        native.process_edges(edges[:cut])
        # The later chunk, counted against the prefix's stored edges.
        later = ProcessorGroup(
            hash_function=make_hash_function("splitmix", m, seed=SEED),
            group_size=group_size,
            m=m,
            track_local=True,
            track_eta=True,
        )
        later.restore(zeroed_snapshot(python))
        later.process_edges(edges[cut:])
        snapshot = later.snapshot()
        python.merge_snapshot(snapshot)
        native.merge_snapshot(snapshot)
        _assert_groups_equal(python, native)

    @given(edges=edges_strategy, shape=shapes, cut=st.integers(0, 150))
    @settings(max_examples=30, deadline=None)
    def test_zeroed_restore_interop(self, edges, shape, cut):
        """Groups restored from the other implementation's zeroed snapshot
        hold its stored-edge index with zero counters, and continue
        identically."""
        m, group_size = shape
        cut = min(cut, len(edges))
        source = _pair(m, group_size)[1]
        source.process_edges(edges[:cut])
        zeroed = zeroed_snapshot(source)
        python, native = _pair(m, group_size)
        python.restore(zeroed)
        native.restore(zeroed)
        assert sorted(python.stored_edges()) == sorted(source.stored_edges())
        assert sorted(native.stored_edges()) == sorted(source.stored_edges())
        assert python.total_edges_stored() == native.total_edges_stored() == 0
        python.process_edges(edges[cut:])
        native.process_edges(edges[cut:])
        _assert_groups_equal(python, native)


class TestGroupArraysModel:
    """Model-check the raw array layout against a plain dict under growth."""

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # slot
                st.integers(min_value=0, max_value=400),  # u (forces growth)
                st.integers(min_value=0, max_value=400),  # v
            ),
            min_size=0,
            max_size=80,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_append_edge_matches_model(self, ops):
        arrays = GroupArrays(group_size=4, track_local=True, track_eta=True)
        model = {slot: {} for slot in range(4)}
        stored = set()
        for slot, u, v in ops:
            if u == v:
                continue
            a, b = (u, v) if u < v else (v, u)
            arrays.ensure_nodes(b + 1)
            (eid,) = find_edges([slot], [a], [b], arrays.record)
            if (slot, a, b) in stored:
                assert eid >= 0
                continue
            assert eid == -1
            arrays.append_edges([a], [b], [slot])
            stored.add((slot, a, b))
            model[slot].setdefault(u, set()).add(v)
            model[slot].setdefault(v, set()).add(u)
        assert arrays.n_edges == len(stored)
        got = {slot: {} for slot in range(4)}
        for slot, a, b in zip(*arrays.columns().edges.tolist()):
            got[slot].setdefault(a, set()).add(b)
            got[slot].setdefault(b, set()).add(a)
        assert got == model

    @given(
        edges=edges_strategy,
        shape=shapes,
        cut=st.integers(0, 150),
    )
    @settings(max_examples=20, deadline=None)
    def test_pickle_roundtrip_preserves_state(self, edges, shape, cut):
        """Pickling drops the FFI call cache but never the counters —
        resumed ingestion after unpickle stays bit-identical."""
        import pickle

        m, group_size = shape
        cut = min(cut, len(edges))
        python, native = _pair(m, group_size)
        python.process_edges(edges[:cut])
        native.process_edges(edges[:cut])
        native = pickle.loads(pickle.dumps(native))
        python.process_edges(edges[cut:])
        native.process_edges(edges[cut:])
        _assert_groups_equal(python, native)
