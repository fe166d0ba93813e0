"""Shared fixtures for the test suite.

Fixtures provide small, deterministic streams with known exact triangle
counts so estimator tests can assert against ground truth cheaply, plus a
session-cached medium stream for statistical tests.
"""

from __future__ import annotations

import pytest

from repro.generators.planted import planted_clique_stream, planted_triangles_stream
from repro.generators.random_graphs import barabasi_albert_stream
from repro.graph.statistics import compute_statistics
from repro.streaming.edge_stream import EdgeStream


@pytest.fixture
def triangle_stream() -> EdgeStream:
    """A single triangle: edges (0,1), (1,2), (0,2)."""
    return EdgeStream([(0, 1), (1, 2), (0, 2)], name="one-triangle")


@pytest.fixture
def clique_stream() -> EdgeStream:
    """A 12-clique: C(12, 3) = 220 triangles."""
    return planted_clique_stream(12)


@pytest.fixture
def book_stream() -> EdgeStream:
    """Six triangles all sharing edge (0, 1), which arrives first.

    τ = 6 and, because the shared edge arrives first, η = C(6, 2) = 15.
    """
    return planted_triangles_stream(6, shared_edge=True)


@pytest.fixture
def disjoint_triangles_stream() -> EdgeStream:
    """Eight node-disjoint triangles: τ = 8, η = 0."""
    return planted_triangles_stream(8, shared_edge=False)


@pytest.fixture(scope="session")
def medium_stream() -> EdgeStream:
    """A deterministic ~5800-edge BA graph used by statistical tests."""
    return barabasi_albert_stream(1500, 4, triad_closure=0.4, seed=99, name="medium")


@pytest.fixture(scope="session")
def medium_stats(medium_stream):
    """Exact statistics of :func:`medium_stream` (computed once per session)."""
    return compute_statistics(medium_stream.edges(), name="medium")


def zeroed_snapshot(group):
    """``group.snapshot()`` with every counter zeroed.

    Only the stored-edge index survives — the state
    :meth:`~repro.core.state.ProcessorGroup.take_pane_deltas` leaves
    behind.  A group restored from it counts the next stretch of the
    stream as a delta that :meth:`~repro.core.state.ProcessorGroup.merge`
    folds exactly.
    """
    snapshot = group.snapshot()
    for entry in snapshot["processors"]:
        entry.update(
            tau=0, tau_local={}, edge_triangles={}, eta=0, eta_local={}, edges_stored=0
        )
    return snapshot
