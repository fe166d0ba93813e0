"""Shared fixtures for the test suite.

Fixtures provide small, deterministic streams with known exact triangle
counts so estimator tests can assert against ground truth cheaply, plus a
session-cached medium stream for statistical tests.
"""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.core.portable import ColumnarDelta
from repro.generators.planted import planted_clique_stream, planted_triangles_stream
from repro.generators.random_graphs import barabasi_albert_stream
from repro.graph.statistics import compute_statistics
from repro.streaming.edge_stream import EdgeStream
from repro.types import canonical_edge


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
    columns = group.columns()
    empty = np.empty((3, 0), np.int64)
    return group.externalize_deltas(
        ColumnarDelta(
            columns.edges, np.empty((4, 0), np.int64), empty, empty, np.zeros_like(columns.rows)
        )
    )


def raw_snapshot(part):
    """A portable group part as raw-keyed per-slot dicts, comparable with ``==``.

    Each processor entry holds ``edges`` (a set of canonical raw edges),
    ``tau``, ``tau_local``, ``edge_triangles`` (keyed by canonical raw
    edge), ``eta``, ``eta_local`` and ``edges_stored``, so two parts
    written under different interning orders compare equal.
    """
    nodes = part["nodes"]

    def edge(a, b):
        return canonical_edge(nodes[a], nodes[b])

    processors = [
        {"edges": set(), "tau_local": {}, "edge_triangles": {}, "eta_local": {}}
        for _ in range(part["group_size"])
    ]
    for slot, a, b in zip(*part["edges"].tolist()):
        processors[slot]["edges"].add(edge(a, b))
    for slot, a, b, value in zip(*part["tri"].tolist()):
        processors[slot]["edge_triangles"][edge(a, b)] = value
    for slot, node, value in zip(*part["tau_cells"].tolist()):
        processors[slot]["tau_local"][nodes[node]] = value
    for slot, node, value in zip(*part["eta_cells"].tolist()):
        processors[slot]["eta_local"][nodes[node]] = value
    for entry, (tau, eta, stored) in zip(processors, part["rows"].T.tolist()):
        entry.update(tau=tau, eta=eta, edges_stored=stored)
    return {"group_size": part["group_size"], "m": part["m"], "processors": processors}


def stored_raw_edges(state):
    """The distinct canonical raw edges the group parts of a portable state store."""
    return {
        edge
        for part in state["snapshots"]
        for entry in raw_snapshot(part)["processors"]
        for edge in entry["edges"]
    }


def dict_snapshot(part):
    """A portable group part rewritten in the raw-keyed dict form of earlier versions."""
    raw = raw_snapshot(part)
    for entry in raw["processors"]:
        adjacency = {}
        for u, v in entry.pop("edges"):
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        entry["adjacency"] = adjacency
    return raw


def dict_form(state):
    """A portable state rewritten in the raw-keyed dict form of earlier versions.

    Those versions wrote beside the groups a ``seen`` list of the raw edges
    consumed; the stored ones stand in for it here.
    """
    return {
        "snapshots": [dict_snapshot(part) for part in state["snapshots"]],
        "seen": sorted(stored_raw_edges(state), key=repr),
    }


def reachable(*roots):
    """Every object reachable from ``roots`` through ``gc.get_referents``.

    Classes and modules are not entered, so the walk stays inside the
    instances the roots hold.
    """
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found
