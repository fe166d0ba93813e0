"""Property-based tests: ``process_edges(batch)`` ≡ sequential ``process_edge``.

The batch-ingestion contract (see
:meth:`repro.baselines.base.StreamingTriangleEstimator.process_edges`) is
strict equivalence: for every estimator, feeding the stream through the
batch API in arbitrary chunkings must produce a :class:`TriangleEstimate`
identical — global count, local counters, η metadata, edges processed and
stored — to feeding it edge by edge.  Hypothesis drives random streams
containing duplicates and self-loops through REPT (which overrides the
batch path with the vectorized pipeline) and every streaming baseline
(which inherit the fallback loop), with random batch sizes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DoulionEstimator,
    ExactStreamingCounter,
    GpsInStreamEstimator,
    MascotEstimator,
    TriestBaseEstimator,
    TriestImprEstimator,
    parallelize,
)
from repro.baselines.single_threaded import make_single_threaded_triest
from repro.core import DriverBackedRept, ReptConfig, ReptEstimator

# Streams over a small node universe: plenty of duplicates and triangles,
# plus explicit self-loops (u == v pairs are allowed by the strategy).
node_ids = st.integers(min_value=0, max_value=12)
streams = st.lists(st.tuples(node_ids, node_ids), min_size=0, max_size=120)
batch_sizes = st.integers(min_value=1, max_value=50)

SEED = 20240731


def _factories():
    return {
        "exact": lambda: ExactStreamingCounter(),
        "mascot": lambda: MascotEstimator(0.5, seed=SEED),
        "doulion": lambda: DoulionEstimator(0.5, seed=SEED),
        "triest": lambda: TriestImprEstimator(20, seed=SEED),
        "triest-base": lambda: TriestBaseEstimator(20, seed=SEED),
        "gps": lambda: GpsInStreamEstimator(20, seed=SEED),
        "triest-s": lambda: make_single_threaded_triest(0.25, 3, 120, seed=SEED),
        "ensemble-mascot": lambda: parallelize("mascot", 3, 0.5, 120, seed=SEED),
        "rept-alg1": lambda: ReptEstimator(ReptConfig(m=4, c=3, seed=SEED)),
        "rept-alg2-eta": lambda: ReptEstimator(ReptConfig(m=3, c=8, seed=SEED)),
        "rept-untracked": lambda: ReptEstimator(
            ReptConfig(m=4, c=8, seed=SEED, track_local=False)
        ),
        "rept-driver": lambda: DriverBackedRept(
            ReptConfig(m=3, c=5, seed=SEED), backend="serial"
        ),
    }


def assert_estimates_identical(reference, batched, label):
    __tracebackhide__ = True
    assert batched.global_count == reference.global_count, label
    assert batched.local_counts == reference.local_counts, label
    assert batched.edges_processed == reference.edges_processed, label
    assert batched.edges_stored == reference.edges_stored, label
    assert batched.metadata == reference.metadata, label


@pytest.mark.parametrize("name", sorted(_factories()))
@given(edges=streams, batch_size=batch_sizes)
@settings(max_examples=25, deadline=None)
def test_batched_ingestion_is_bit_identical(name, edges, batch_size):
    factory = _factories()[name]
    reference = factory()
    for u, v in edges:
        reference.process_edge(u, v)

    batched = factory()
    for start in range(0, len(edges), batch_size):
        batched.process_edges(edges[start : start + batch_size])

    assert_estimates_identical(reference.estimate(), batched.estimate(), name)


@given(edges=streams, batch_size=batch_sizes)
@settings(max_examples=25, deadline=None)
def test_process_stream_batch_size_matches_run(edges, batch_size):
    """`run(..., batch_size=...)` is the same contract end to end."""
    reference = ReptEstimator(ReptConfig(m=3, c=7, seed=SEED)).run(edges)
    batched = ReptEstimator(ReptConfig(m=3, c=7, seed=SEED)).run(
        edges, batch_size=batch_size
    )
    assert_estimates_identical(reference, batched, "run(batch_size)")


@given(edges=streams, pivot=st.integers(min_value=0, max_value=120))
@settings(max_examples=25, deadline=None)
def test_mixing_per_edge_and_batch_paths(edges, pivot):
    """Interleaving the two ingestion paths on one estimator stays exact."""
    pivot = min(pivot, len(edges))
    reference = ReptEstimator(ReptConfig(m=3, c=8, seed=SEED))
    for u, v in edges:
        reference.process_edge(u, v)

    mixed = ReptEstimator(ReptConfig(m=3, c=8, seed=SEED))
    mixed.process_edges(edges[:pivot])
    for u, v in edges[pivot : pivot + 10]:
        mixed.process_edge(u, v)
    mixed.process_edges(edges[pivot + 10 :])

    assert_estimates_identical(reference.estimate(), mixed.estimate(), "mixed paths")


@given(edges=streams)
@settings(max_examples=20, deadline=None)
def test_self_loops_count_but_do_not_update(edges):
    """Batches respect the count-then-skip contract for self-loops."""
    estimator = ReptEstimator(ReptConfig(m=2, c=2, seed=SEED))
    estimator.process_edges(edges)
    estimate = estimator.estimate()
    assert estimate.edges_processed == len(edges)
    loops = sum(1 for u, v in edges if u == v)
    assert estimator.edges_stored <= max(0, len(edges) - loops)
    assert not math.isnan(estimate.global_count)
