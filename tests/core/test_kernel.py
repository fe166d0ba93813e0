"""Tests for the compiled ingestion kernel: resolution, guards, parity.

The kernel contract (see :mod:`repro.core.kernel`) is strict bit-identity:
the C kernel advances a group's array state exactly like the pure-Python
:class:`~repro.core.state.ProcessorGroup`, so estimates, local counters,
η metadata and stored-edge sets never depend on which kernel ran.  These
tests cover the resolution rules (``auto`` fallback, explicit-request
errors, the ``REPRO_KERNEL`` environment override), equality over an
(m, c) grid that includes partial groups and η tracking, and the
snapshot/merge paths crossing the kernel boundary.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.config import ReptConfig
from repro.core.interning import NodeInterner
from repro.core.kernel import (
    CFLAGS,
    KERNEL_CHOICES,
    MAX_NATIVE_GROUP_SIZE,
    _cached_build,
    native_available,
    reset_kernel_cache,
    resolve_kernel,
)
from repro.core.rept import ReptEstimator
from repro.core.state import GroupStateSet
from repro.exceptions import ConfigurationError
from tests.conftest import zeroed_snapshot

SEED = 20240808

#: The C kernel must be buildable in CI (a C compiler is part of the test
#: image, and the kernel-parity job fails outright when it does not build);
#: every parity test below rides on it.
needs_cc = pytest.mark.skipif(not native_available(), reason="no C compiler available")


def _stream(num_records=400, num_nodes=14, seed=SEED):
    """Duplicate-heavy random stream including self-loops."""
    rng = random.Random(seed)
    return [
        (rng.randrange(num_nodes), rng.randrange(num_nodes))
        for _ in range(num_records)
    ]


@pytest.fixture
def clean_env(monkeypatch):
    """Clear REPRO_KERNEL and the build probe memo around a test."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    reset_kernel_cache()
    yield monkeypatch
    reset_kernel_cache()


class TestResolveKernel:
    def test_rejects_unknown_choice(self):
        with pytest.raises(ConfigurationError):
            resolve_kernel("fortran")

    def test_python_is_passthrough(self):
        assert resolve_kernel("python") == "python"
        assert resolve_kernel("python", 1000) == "python"

    def test_auto_falls_back_for_wide_groups(self, clean_env):
        assert resolve_kernel("auto", MAX_NATIVE_GROUP_SIZE + 1) == "python"

    @pytest.mark.parametrize("requested", ["native"])
    def test_explicit_native_rejects_wide_groups(self, requested, clean_env):
        with pytest.raises(ConfigurationError):
            resolve_kernel(requested, MAX_NATIVE_GROUP_SIZE + 1)

    @needs_cc
    def test_auto_prefers_cc(self, clean_env):
        assert resolve_kernel("auto", 8) == "cc"
        assert resolve_kernel("native", 8) == "cc"

    def test_env_python_disables_native(self, clean_env):
        clean_env.setenv("REPRO_KERNEL", "python")
        assert resolve_kernel("auto", 8) == "python"
        with pytest.raises(ConfigurationError):
            resolve_kernel("native", 8)

    @needs_cc
    @pytest.mark.parametrize("value", ["cc", "native"])
    def test_env_other_values_are_ignored(self, value, clean_env):
        clean_env.setenv("REPRO_KERNEL", value)
        assert resolve_kernel("auto", 8) == "cc"
        assert resolve_kernel("native", 8) == "cc"

    def test_unavailable_provider_is_explicit_error(self, clean_env, tmp_path):
        """A native request where the C kernel cannot be built fails loudly,
        naming the cause, instead of silently running the Python loop;
        ``auto`` falls back."""
        clean_env.setenv("CC", str(tmp_path / "no-such-compiler"))
        clean_env.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
        assert not native_available()
        with pytest.raises(ConfigurationError, match="cannot be built"):
            resolve_kernel("native", 8)
        assert resolve_kernel("auto", 8) == "python"

    def test_cached_build_is_named_by_compiler_and_flags(self, clean_env, tmp_path):
        """Changing the compiler or its flags builds afresh instead of
        loading a library built another way."""
        clean_env.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        path = _cached_build("/usr/bin/cc", CFLAGS)
        assert path == _cached_build("/usr/bin/cc", CFLAGS)
        assert path.startswith(str(tmp_path))
        others = {
            _cached_build("/usr/bin/cc", tuple(flag for flag in CFLAGS if flag != "-pthread")),
            _cached_build("/usr/bin/cc", (*CFLAGS, "-g")),
            _cached_build("/usr/bin/clang", CFLAGS),
        }
        assert len(others) == 3 and path not in others

    def test_config_validates_kernel_choice(self):
        assert KERNEL_CHOICES == ("auto", "python", "native")
        for rejected in ("fortran", "cc"):
            with pytest.raises(ConfigurationError):
                ReptConfig(m=4, c=8, seed=1, kernel=rejected)
        for choice in KERNEL_CHOICES:
            assert ReptConfig(m=4, c=8, seed=1, kernel=choice).kernel == choice


#: (m, c) grid: full single group, Algorithm 2 with an even split, a
#: partial trailing group (forces η tracking), and a wide-m config.
PARITY_GRID = [(1, 1), (4, 3), (3, 8), (4, 10), (8, 16), (2, 7)]


def _estimates(config, edges, kernel, batch_size=None):
    estimator = ReptEstimator(dataclasses.replace(config, kernel=kernel))
    if batch_size is None:
        estimator.process_stream(edges)
    else:
        estimator.process_stream(edges, batch_size=batch_size)
    return estimator.estimate()


def _assert_identical(left, right):
    assert left.global_count == right.global_count
    assert left.local_counts == right.local_counts
    assert left.edges_stored == right.edges_stored
    assert left.edges_processed == right.edges_processed
    assert left.metadata.get("eta_hat") == right.metadata.get("eta_hat")


@needs_cc
class TestKernelParity:
    @pytest.mark.parametrize("m,c", PARITY_GRID)
    @pytest.mark.parametrize("track_local", [True, False])
    def test_batched_ingestion_matches_python(self, m, c, track_local, clean_env):
        config = ReptConfig(m=m, c=c, seed=SEED, track_local=track_local)
        edges = _stream()
        python = _estimates(config, edges, "python", batch_size=64)
        native = _estimates(config, edges, "native", batch_size=64)
        assert native.metadata["kernel"] == "cc"
        assert python.metadata["kernel"] == "python"
        _assert_identical(python, native)

    @pytest.mark.parametrize("m,c", PARITY_GRID)
    def test_per_edge_ingestion_matches_python(self, m, c, clean_env):
        config = ReptConfig(m=m, c=c, seed=SEED, track_local=True)
        edges = _stream(num_records=250)
        python = _estimates(config, edges, "python")
        native = _estimates(config, edges, "native")
        _assert_identical(python, native)

    def test_group_summaries_match(self, clean_env):
        config = ReptConfig(m=3, c=8, seed=SEED, track_local=True)
        edges = _stream()
        python = GroupStateSet(config, kernel="python")
        native = GroupStateSet(config, kernel="native")
        python.process_edges(edges)
        native.process_edges(edges)
        assert python.summaries() == native.summaries()
        for p_group, n_group in zip(python.groups, native.groups):
            assert sorted(p_group.stored_edges()) == sorted(n_group.stored_edges())
            assert p_group.tau_values() == n_group.tau_values()
            assert p_group.eta_values() == n_group.eta_values()

    def test_snapshot_roundtrip_across_kernels(self, clean_env):
        """State snapshotted mid-stream under one kernel restores into the
        other and finishes bit-identically — snapshots are portable."""
        config = ReptConfig(m=3, c=8, seed=SEED, track_local=True)
        edges = _stream()
        half = len(edges) // 2
        for first_kernel, second_kernel in [
            ("python", "native"),
            ("native", "python"),
        ]:
            first = GroupStateSet(config, kernel=first_kernel)
            n_first = first.process_edges(edges[:half])
            second = GroupStateSet(
                config, interner=first.interner, kernel=second_kernel
            )
            for group, snapshot in zip(second.groups, first.snapshot()):
                group.restore(snapshot)
            n_second = second.process_edges(edges[half:])
            reference = GroupStateSet(config, kernel="python")
            n_ref = reference.process_edges(edges)
            _assert_identical(
                reference.estimate(n_ref), second.estimate(n_first + n_second)
            )

    def test_merge_snapshots_across_kernels(self, clean_env):
        """Chunked-style merge: a python-built snapshot folds into a
        native accumulator exactly like into a python one, and both end
        where one uninterrupted run does."""
        config = ReptConfig(m=4, c=10, seed=SEED, track_local=True)
        edges = _stream()
        half = len(edges) // 2
        shared = GroupStateSet(config, kernel="python")
        accum_native = GroupStateSet(
            config, interner=shared.interner, kernel="native"
        )
        accum_python = GroupStateSet(
            config, interner=shared.interner, kernel="python"
        )
        for chunk in (edges[:half], edges[half:]):
            worker = GroupStateSet(
                config, interner=shared.interner, kernel="python"
            )
            # The worker starts from the stored edges merged so far, with
            # zeroed counters, so it stores only edges new to the prefix.
            for group, accum_group in zip(worker.groups, accum_python.groups):
                group.restore(zeroed_snapshot(accum_group))
            worker.process_edges(chunk)
            snapshots = worker.snapshot()
            accum_native.merge_snapshots(snapshots)
            accum_python.merge_snapshots(snapshots)
        assert accum_python.summaries() == accum_native.summaries()
        reference = GroupStateSet(config, kernel="python")
        reference.process_edges(edges)
        assert accum_native.summaries() == reference.summaries()

    def test_estimate_metadata_records_resolved_label(self, clean_env):
        config = ReptConfig(m=3, c=8, seed=SEED, track_local=False, kernel="auto")
        estimator = ReptEstimator(config)
        estimator.process_edges(_stream(num_records=50))
        assert estimator.estimate().metadata["kernel"] == "cc"


class TestProviderParity:
    """Parity of the C kernel on a few more shapes, skipped (not failed)
    where it cannot be built; the CI kernel-parity job fails on that."""

    @pytest.mark.parametrize("provider", ["cc"])
    @pytest.mark.parametrize("m,c", [(3, 8), (4, 10), (8, 16)])
    def test_provider_matches_python(self, provider, m, c, clean_env):
        if not native_available():
            pytest.skip("the C kernel is not buildable here")
        config = ReptConfig(m=m, c=c, seed=SEED, track_local=True)
        edges = _stream()
        python = _estimates(config, edges, "python", batch_size=64)
        native = _estimates(config, edges, "native", batch_size=64)
        assert native.metadata["kernel"] == provider
        _assert_identical(python, native)

    @pytest.mark.parametrize("provider", ["cc"])
    def test_provider_per_edge_matches_python(self, provider, clean_env):
        if not native_available():
            pytest.skip("the C kernel is not buildable here")
        config = ReptConfig(m=3, c=8, seed=SEED, track_local=True)
        edges = _stream(num_records=250)
        native = _estimates(config, edges, "native")
        assert native.metadata["kernel"] == provider
        _assert_identical(_estimates(config, edges, "python"), native)


@needs_cc
class TestSharedInternerFootprint:
    """Regression: a native group sized its node columns to the whole
    shared interner, so every node a neighbour interned grew it."""

    def test_group_grows_only_to_the_ids_it_references(self, clean_env):
        interner = NodeInterner()
        config = ReptConfig(m=8, c=8, seed=SEED, track_local=True)
        a = GroupStateSet(config, interner=interner, kernel="native")
        b = GroupStateSet(config, interner=interner, kernel="native")
        a.process_edges([(i, i + 1000) for i in range(1000)])
        arrays = a.groups[0]._arrays
        assert arrays.node_cap == 2048
        b.process_edges(
            [(10**6 + 2 * i, 10**6 + 2 * i + 1) for i in range(50_000)]
        )
        assert len(interner) == 102_000
        a.process_edges([(0, 1)])
        a.process_edge(2, 3)
        assert a.groups[0]._arrays.node_cap == 2048
        # Restores and merges fold through the same sizing.
        c = GroupStateSet(config, interner=interner, kernel="native")
        c.restore_portable(a.portable_state())
        c.merge_snapshots(a.snapshot())
        assert c.groups[0]._arrays.node_cap == 2048
