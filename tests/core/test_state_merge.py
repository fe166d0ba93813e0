"""Tests for the mergeable chunk state of ProcessorCounters / ProcessorGroup.

The merge contract (see :mod:`repro.core.state`): a group advanced over a
later chunk, starting from the earlier chunks' stored-edge index with
zeroed counters, folds into the earlier state *exactly* — every counter,
including the η pair counters, matches an uninterrupted run bit for bit.
"""

import numpy as np
import pytest

from repro.core.config import ReptConfig
from repro.core.state import GroupStateSet, ProcessorGroup
from repro.generators.planted import planted_triangles_stream
from repro.generators.random_graphs import barabasi_albert_stream
from repro.hashing import make_hash_function
from tests.conftest import raw_snapshot, zeroed_snapshot


def make_group(m=3, group_size=2, seed=42, track_local=True, track_eta=True):
    return ProcessorGroup(
        hash_function=make_hash_function("splitmix", buckets=m, seed=seed),
        group_size=group_size,
        m=m,
        track_local=track_local,
        track_eta=track_eta,
    )


def advance(group, edges):
    for u, v in edges:
        if u != v:
            group.process_edge(u, v)
    return group


def positive_entries(mapping):
    """Drop zero-valued entries: serial and chunked runs may differ only in
    which zero-count local entries were ever touched."""
    return {key: value for key, value in mapping.items() if value}


def assert_same_state(reference, merged):
    """Exact-equality check through the raw-keyed snapshot boundary.

    Groups intern node ids internally in first-appearance order, so two
    groups that saw the same edges through different schedules hold
    differently-keyed dicts; the portable snapshot, read with raw ids, is
    the representation the merge contract is defined over.
    """
    for ref, got in zip(
        raw_snapshot(reference.snapshot())["processors"],
        raw_snapshot(merged.snapshot())["processors"],
    ):
        assert got["tau"] == ref["tau"]
        assert got["eta"] == ref["eta"]
        assert got["edges_stored"] == ref["edges_stored"]
        assert got["edge_triangles"] == ref["edge_triangles"]
        assert got["edges"] == ref["edges"]
        assert positive_entries(got["tau_local"]) == positive_entries(ref["tau_local"])
        assert positive_entries(got["eta_local"]) == positive_entries(ref["eta_local"])


def run_chunked(edges, boundaries, **group_kwargs):
    """Advance a group over ``edges`` in chunks: each chunk runs on a group
    restored from the merged prefix with zeroed counters, then merges."""
    bounds = [0] + list(boundaries) + [len(edges)]
    merged = make_group(**group_kwargs)
    for start, stop in zip(bounds, bounds[1:]):
        worker = make_group(**group_kwargs)
        worker.restore(zeroed_snapshot(merged))
        advance(worker, edges[start:stop])
        merged.merge(worker)
    return merged


class TestSnapshotRestore:
    def test_roundtrip_resumes_exactly(self):
        edges = barabasi_albert_stream(80, 3, triad_closure=0.5, seed=9).edges()
        reference = advance(make_group(), edges)

        interrupted = advance(make_group(), edges[:100])
        resumed = make_group()
        resumed.restore(interrupted.snapshot())
        advance(resumed, edges[100:])
        assert_same_state(reference, resumed)

    def test_snapshot_is_a_copy(self):
        group = advance(make_group(), [(0, 1), (1, 2), (0, 2)])
        snapshot = group.snapshot()
        advance(group, [(2, 3), (3, 0)])
        fresh = make_group()
        fresh.restore(snapshot)
        assert fresh.total_edges_stored() <= 3

    def test_restore_rejects_shape_mismatch(self):
        snapshot = make_group(group_size=2).snapshot()
        with pytest.raises(ValueError):
            make_group(group_size=1).restore(snapshot)


class TestChunkMerge:
    def test_two_chunk_merge_matches_serial(self):
        edges = barabasi_albert_stream(100, 3, triad_closure=0.5, seed=3).edges()
        reference = advance(make_group(), edges)
        merged = run_chunked(edges, [len(edges) // 2])
        assert_same_state(reference, merged)

    def test_many_chunks_with_duplicates_match_serial(self):
        base = barabasi_albert_stream(100, 3, triad_closure=0.5, seed=5).edges()
        edges = base + base[:60]  # re-arrivals exercise already_stored across chunks
        reference = advance(make_group(), edges)
        merged = run_chunked(edges, [40, 170, 260])
        assert_same_state(reference, merged)

    def test_eta_heavy_stream_matches_serial(self):
        # Six triangles sharing one edge: maximal pair-counter coupling, so
        # the cross-chunk η correction carries real weight.
        edges = planted_triangles_stream(6, shared_edge=True).edges()
        reference = advance(make_group(m=2, group_size=2), edges)
        merged = run_chunked(edges, [5], m=2, group_size=2)
        assert_same_state(reference, merged)

    def test_merge_without_eta_tracking(self):
        edges = barabasi_albert_stream(60, 3, triad_closure=0.5, seed=7).edges()
        kwargs = dict(track_eta=False, track_local=False)
        reference = advance(make_group(**kwargs), edges)
        merged = run_chunked(edges, [70], **kwargs)
        assert_same_state(reference, merged)

    def test_merge_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_group(group_size=2).merge(make_group(group_size=1))

    def test_zeroed_restore_keeps_only_the_index(self):
        prefix = advance(make_group(), [(1, 2), (2, 3), (1, 3), (3, 4)])
        group = make_group()
        group.restore(zeroed_snapshot(prefix))
        assert group.tau_values() == [0, 0]
        assert group.eta_values() == [0, 0]
        assert group.total_edges_stored() == 0
        assert sorted(group.stored_edges()) == sorted(prefix.stored_edges())

    def test_zeroed_snapshot_is_what_pane_deltas_leave(self):
        # The merge tests stand in for the windowed monitor's pane
        # boundary; take_pane_deltas must leave exactly that state.
        edges = barabasi_albert_stream(60, 3, triad_closure=0.5, seed=4).edges()
        group = advance(make_group(), edges)
        expected = zeroed_snapshot(group)
        group.take_pane_deltas(np.empty((3, 0), dtype=np.int64))
        assert raw_snapshot(group.snapshot()) == raw_snapshot(expected)


class TestMergedEdgesDecideFirstOccurrence:
    """A stretch merged into a state set leaves its stored edges there, and
    they decide first occurrence: an edge that was merged in and arrives
    again is not stored a second time."""

    STREAM = [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)]

    @pytest.mark.parametrize("kernel", ["python", "auto"])
    def test_merged_edge_arriving_again_is_not_stored_twice(self, kernel):
        config = ReptConfig(m=1, c=1, seed=1)
        stretch = GroupStateSet(config, kernel=kernel)
        stretch.process_edges(self.STREAM)
        merged = GroupStateSet(config, kernel=kernel)
        merged.merge_snapshots(stretch.snapshot())
        rest = self.STREAM + [(1, 4)]
        merged.process_edges(rest)
        uninterrupted = GroupStateSet(config, kernel=kernel)
        n = uninterrupted.process_edges(self.STREAM + rest)
        assert merged.total_edges_stored() == uninterrupted.total_edges_stored() == 6
        assert sorted(merged.groups[0].stored_edges()) == sorted(
            uninterrupted.groups[0].stored_edges()
        )
        got, want = merged.estimate(n), uninterrupted.estimate(n)
        assert (got.global_count, got.local_counts) == (want.global_count, want.local_counts)
