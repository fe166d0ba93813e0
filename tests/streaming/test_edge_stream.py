"""Tests for the EdgeStream abstraction."""

import pytest

from repro.exceptions import StreamFormatError
from repro.graph.adjacency import AdjacencyGraph
from repro.streaming.edge_stream import EdgeStream


class TestConstruction:
    def test_materialises_and_replays(self):
        stream = EdgeStream([(1, 2), (2, 3)])
        assert list(stream) == [(1, 2), (2, 3)]
        assert list(stream) == [(1, 2), (2, 3)]  # replayable

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(StreamFormatError):
            EdgeStream([(1, 1)])

    def test_self_loop_allowed_without_validation(self):
        stream = EdgeStream([(1, 1)], validate=False)
        assert len(stream) == 1

    def test_len_and_repr(self):
        stream = EdgeStream([(1, 2)], name="tiny")
        assert len(stream) == 1
        assert "tiny" in repr(stream)

    def test_from_pairs(self):
        assert len(EdgeStream.from_pairs([(1, 2), (3, 4)])) == 2

    def test_from_graph_is_deterministic(self):
        graph = AdjacencyGraph([(3, 1), (2, 1)])
        a = EdgeStream.from_graph(graph).edges()
        b = EdgeStream.from_graph(graph).edges()
        assert a == b
        assert len(a) == 2


class TestViews:
    def test_getitem_and_slice(self):
        stream = EdgeStream([(1, 2), (2, 3), (3, 4)])
        assert stream[0] == (1, 2)
        assert isinstance(stream[:2], EdgeStream)
        assert len(stream[:2]) == 2

    def test_enumerate_is_one_based(self):
        stream = EdgeStream([(1, 2), (2, 3)])
        assert list(stream.enumerate()) == [(1, (1, 2)), (2, (2, 3))]

    def test_distinct_edges_canonical(self):
        stream = EdgeStream([(2, 1), (1, 2), (3, 2)])
        assert stream.distinct_edges() == [(1, 2), (2, 3)]
        assert stream.num_distinct_edges == 2

    def test_nodes_first_appearance_order(self):
        stream = EdgeStream([(5, 2), (2, 7)])
        assert stream.nodes() == [5, 2, 7]

    def test_to_graph(self):
        stream = EdgeStream([(1, 2), (2, 3), (1, 2)])
        graph = stream.to_graph()
        assert graph.num_edges == 2

    def test_iter_batches_partitions_in_order(self):
        stream = EdgeStream([(i, i + 1) for i in range(7)])
        batches = list(stream.iter_batches(3))
        assert [len(batch) for batch in batches] == [3, 3, 1]
        assert [edge for batch in batches for edge in batch] == stream.edges()

    def test_iter_batches_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(EdgeStream([(1, 2)]).iter_batches(0))


class TestValidationPropagation:
    def test_constructor_sets_validated(self):
        assert EdgeStream([(1, 2)]).validated
        assert not EdgeStream([(1, 2)], validate=False).validated

    def test_slice_of_validated_stream_skips_revalidation(self):
        stream = EdgeStream([(1, 2), (2, 3)])
        assert stream[:1].validated

    def test_slice_of_unvalidated_stream_is_revalidated(self):
        dirty = EdgeStream([(1, 2), (3, 3)], validate=False)
        with pytest.raises(StreamFormatError):
            dirty[:2]
        clean_part = dirty[:1]  # the loop-free part passes and is now checked
        assert clean_part.validated

    def test_prefix_of_unvalidated_stream_is_revalidated(self):
        dirty = EdgeStream([(1, 2), (3, 3)], validate=False)
        with pytest.raises(StreamFormatError):
            dirty.prefix(2)

    def test_filter_and_concat_propagate_flag(self):
        validated = EdgeStream([(1, 2), (2, 3)])
        unvalidated = EdgeStream([(4, 5)], validate=False)
        assert validated.filter(lambda e: True).validated
        assert not unvalidated.filter(lambda e: True).validated
        assert validated.concat(validated).validated
        assert not validated.concat(unvalidated).validated

    def test_map_result_is_unvalidated(self):
        # A mapping may merge endpoints into a self-loop, so the child must
        # not claim loop-freedom.
        mapped = EdgeStream([(1, 2)]).map(lambda e: (0, 0))
        assert not mapped.validated
        with pytest.raises(StreamFormatError):
            mapped[:1]

    def test_from_graph_is_validated(self):
        graph = AdjacencyGraph([(1, 2)])
        assert EdgeStream.from_graph(graph).validated


class TestDerivation:
    def test_map(self):
        stream = EdgeStream([(1, 2)]).map(lambda e: (e[0] + 10, e[1] + 10))
        assert stream.edges() == [(11, 12)]

    def test_filter(self):
        stream = EdgeStream([(1, 2), (2, 3)]).filter(lambda e: e[0] == 1)
        assert stream.edges() == [(1, 2)]

    def test_prefix(self):
        stream = EdgeStream([(1, 2), (2, 3), (3, 4)])
        assert stream.prefix(2).edges() == [(1, 2), (2, 3)]
        with pytest.raises(ValueError):
            stream.prefix(-1)

    def test_concat(self):
        merged = EdgeStream([(1, 2)]).concat(EdgeStream([(3, 4)]))
        assert merged.edges() == [(1, 2), (3, 4)]
