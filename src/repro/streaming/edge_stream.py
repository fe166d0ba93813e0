"""The :class:`EdgeStream` abstraction.

An :class:`EdgeStream` is a *replayable* finite sequence of undirected
edges.  Estimators consume it edge by edge; the experiment harness replays
the same stream for every method and trial so that comparisons are
apples-to-apples (the paper fixes the stream and varies only the sampling
randomness).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from repro.exceptions import StreamFormatError
from repro.graph.adjacency import AdjacencyGraph
from repro.types import EdgeTuple, NodeId, canonical_edge


class EdgeStream:
    """A finite, replayable sequence of undirected edges.

    Parameters
    ----------
    edges:
        The edges in arrival order.  The constructor materialises them into
        a list so the stream can be iterated any number of times.
    name:
        Optional human-readable name (dataset name), used in reports.
    validate:
        If ``True`` (default), self-loops raise :class:`StreamFormatError`.
        Duplicate edges are allowed — the aggregate graph collapses them —
        because real streams contain re-observed edges.

    Attributes
    ----------
    validated:
        Whether this stream is *known* to be free of self-loops: either the
        constructor checked (``validate=True``), or the stream was derived
        from a checked/loop-free source (slices, prefixes and filters of a
        validated stream, streams built from an :class:`AdjacencyGraph`).
        Derivations propagate the flag so a slice of an *unvalidated* stream
        is re-checked instead of silently carrying self-loops into
        estimators.
    """

    def __init__(
        self,
        edges: Iterable[EdgeTuple],
        name: Optional[str] = None,
        validate: bool = True,
    ) -> None:
        materialised: List[EdgeTuple] = []
        for index, (u, v) in enumerate(edges):
            if validate and u == v:
                raise StreamFormatError(
                    f"stream record {index} is a self-loop ({u!r}); "
                    "use drop_self_loops() to clean the input first"
                )
            materialised.append((u, v))
        self._edges = materialised
        self.name = name
        self.validated = bool(validate)

    # -- sequence protocol --------------------------------------------------

    def __iter__(self) -> Iterator[EdgeTuple]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __getitem__(self, index):
        if isinstance(index, slice):
            # Skip re-validation only when the parent is itself known
            # loop-free; a slice of an unvalidated stream must be checked.
            child = EdgeStream(
                self._edges[index], name=self.name, validate=not self.validated
            )
            child.validated = True
            return child
        return self._edges[index]

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"EdgeStream({len(self._edges)} edges{label})"

    # -- views ----------------------------------------------------------------

    def edges(self) -> List[EdgeTuple]:
        """Return the underlying edge list (a copy)."""
        return list(self._edges)

    def enumerate(self) -> Iterator[tuple]:
        """Yield ``(t, (u, v))`` with 1-based stream positions ``t``."""
        for t, edge in enumerate(self._edges, start=1):
            yield t, edge

    def iter_batches(self, batch_size: int) -> Iterator[List[EdgeTuple]]:
        """Yield consecutive chunks of at most ``batch_size`` edges.

        The chunks partition the stream in order; estimators feed them to
        :meth:`~repro.baselines.base.StreamingTriangleEstimator.process_edges`
        (``process_stream(..., batch_size=...)`` does exactly that).
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        edges = self._edges
        for start in range(0, len(edges), batch_size):
            yield edges[start : start + batch_size]

    def distinct_edges(self) -> List[EdgeTuple]:
        """Return the distinct canonical edges in first-arrival order."""
        seen = set()
        result: List[EdgeTuple] = []
        for u, v in self._edges:
            key = canonical_edge(u, v)
            if key not in seen:
                seen.add(key)
                result.append(key)
        return result

    def nodes(self) -> List[NodeId]:
        """Return the distinct nodes in first-appearance order."""
        seen = set()
        result: List[NodeId] = []
        for u, v in self._edges:
            for node in (u, v):
                if node not in seen:
                    seen.add(node)
                    result.append(node)
        return result

    @property
    def num_distinct_edges(self) -> int:
        """Number of distinct undirected edges in the stream."""
        return len(self.distinct_edges())

    def to_graph(self) -> AdjacencyGraph:
        """Return the aggregate graph ``G = (V, E)`` of the stream."""
        graph = AdjacencyGraph()
        for u, v in self._edges:
            graph.add_edge(u, v)
        return graph

    # -- derivation -------------------------------------------------------------

    def map(self, fn: Callable[[EdgeTuple], EdgeTuple], name: Optional[str] = None) -> "EdgeStream":
        """Return a new stream with ``fn`` applied to every edge.

        The result is *unvalidated* regardless of this stream's status:
        ``fn`` may map distinct endpoints onto the same node.
        """
        return EdgeStream(
            (fn(edge) for edge in self._edges), name=name or self.name, validate=False
        )

    def filter(self, predicate: Callable[[EdgeTuple], bool], name: Optional[str] = None) -> "EdgeStream":
        """Return a new stream containing only edges where ``predicate`` holds.

        Filtering cannot introduce self-loops, so the child inherits this
        stream's :attr:`validated` status.
        """
        child = EdgeStream(
            (edge for edge in self._edges if predicate(edge)),
            name=name or self.name,
            validate=False,
        )
        child.validated = self.validated
        return child

    def prefix(self, count: int) -> "EdgeStream":
        """Return the stream consisting of the first ``count`` edges."""
        if count < 0:
            raise ValueError("count must be non-negative")
        child = EdgeStream(
            self._edges[:count], name=self.name, validate=not self.validated
        )
        child.validated = True
        return child

    def concat(self, other: "EdgeStream") -> "EdgeStream":
        """Return the concatenation of this stream and ``other``.

        The result is validated exactly when both inputs are.
        """
        child = EdgeStream(self._edges + other.edges(), name=self.name, validate=False)
        child.validated = self.validated and other.validated
        return child

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Sequence[EdgeTuple], name: Optional[str] = None) -> "EdgeStream":
        """Build a stream from a sequence of ``(u, v)`` pairs."""
        return cls(pairs, name=name)

    @classmethod
    def from_graph(cls, graph: AdjacencyGraph, name: Optional[str] = None) -> "EdgeStream":
        """Build a stream that replays the edges of ``graph`` in canonical order.

        The ordering is deterministic (sorted by the string form of the
        canonical edge) so results are reproducible; use
        :func:`repro.streaming.transforms.shuffle_stream` for a random order.
        """
        edges = sorted(graph.edges(), key=lambda e: (str(e[0]), str(e[1])))
        stream = cls(edges, name=name, validate=False)
        # AdjacencyGraph rejects self-loops, so the stream is loop-free by
        # construction.
        stream.validated = True
        return stream
