"""One-pass degree and wedge-count tracking.

Clustering-coefficient applications need the wedge count ``Σ_v C(d_v, 2)``
next to the (estimated) triangle count.  Degrees are cheap to maintain
exactly in one pass — one counter per node — so this tracker runs alongside
any estimator and provides the exact denominators without a second pass
over the stream.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.types import EdgeTuple, NodeId, canonical_edge


class DegreeTracker:
    """Exact degree, node and wedge counting over a stream.

    Duplicate observations of the same undirected edge are ignored (the
    aggregate graph is simple), which requires remembering the distinct
    edge set — the same Θ(|E|) memory the exact triangle counter uses.  For
    a memory-bounded variant feed the tracker a deduplicated stream instead.
    """

    def __init__(self) -> None:
        self._degrees: Dict[NodeId, int] = {}
        self._edges = set()
        self.edges_processed = 0

    def process_edge(self, u: NodeId, v: NodeId) -> None:
        """Observe one stream edge."""
        self.edges_processed += 1
        if u == v:
            return
        key = canonical_edge(u, v)
        if key in self._edges:
            return
        self._edges.add(key)
        self._degrees[u] = self._degrees.get(u, 0) + 1
        self._degrees[v] = self._degrees.get(v, 0) + 1

    def process_stream(self, edges: Iterable[EdgeTuple]) -> "DegreeTracker":
        """Observe every edge of ``edges``; returns self for chaining."""
        for u, v in edges:
            self.process_edge(u, v)
        return self

    # -- queries -------------------------------------------------------------

    def degree(self, node: NodeId) -> int:
        """Exact degree of ``node`` in the aggregate graph (0 if unseen)."""
        return self._degrees.get(node, 0)

    def degrees(self) -> Dict[NodeId, int]:
        """Mapping node -> exact degree (a copy)."""
        return dict(self._degrees)

    @property
    def num_nodes(self) -> int:
        """Number of distinct nodes observed."""
        return len(self._degrees)

    @property
    def num_distinct_edges(self) -> int:
        """Number of distinct undirected edges observed."""
        return len(self._edges)

    @property
    def num_wedges(self) -> int:
        """Exact wedge count ``Σ_v C(d_v, 2)`` of the aggregate graph."""
        return sum(d * (d - 1) // 2 for d in self._degrees.values())

    @property
    def max_degree(self) -> int:
        """Largest degree observed (0 for an empty stream)."""
        return max(self._degrees.values(), default=0)
