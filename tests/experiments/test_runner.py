"""Tests for the trial runner and default method line-up."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.runner import (
    default_method_specs,
    run_global_trials,
    run_local_trials,
    run_trials,
)
from repro.graph.statistics import compute_statistics


class TestDefaultMethodSpecs:
    def test_standard_lineup_names(self):
        specs = default_method_specs(0.5, 2, 100)
        assert [spec.name for spec in specs] == ["REPT", "MASCOT", "TRIEST", "GPS"]

    def test_single_threaded_lineup(self):
        specs = default_method_specs(0.5, 2, 100, methods=("mascot-s", "triest-s", "gps-s"))
        assert [spec.name for spec in specs] == ["MASCOT-S", "TRIEST-S", "GPS-S"]

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            default_method_specs(0.3, 2, 100)  # not 1/m

    def test_rept_backend_produces_identical_trials(self, clique_stream):
        edges = clique_stream.edges()
        in_process = default_method_specs(0.5, 2, len(edges), methods=("rept",))[0]
        driven = default_method_specs(
            0.5, 2, len(edges), methods=("rept",), rept_backend="serial"
        )[0]
        a = [e.global_count for e in run_trials(in_process, edges, 3, seed=9)]
        b = [e.global_count for e in run_trials(driven, edges, 3, seed=9)]
        assert a == b

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            default_method_specs(0.5, 2, 100, methods=("magic",))

    def test_factories_produce_runnable_estimators(self, clique_stream):
        specs = default_method_specs(0.5, 2, len(clique_stream), track_local=True)
        for spec in specs:
            estimate = spec.factory(1).run(clique_stream)
            assert estimate.global_count >= 0


class TestRunTrials:
    def test_number_of_trials(self, clique_stream):
        spec = default_method_specs(0.5, 2, len(clique_stream))[0]
        estimates = run_trials(spec, clique_stream.edges(), num_trials=4, seed=1)
        assert len(estimates) == 4

    def test_zero_trials_rejected(self, clique_stream):
        spec = default_method_specs(0.5, 2, len(clique_stream))[0]
        with pytest.raises(ConfigurationError):
            run_trials(spec, clique_stream.edges(), num_trials=0)

    def test_trials_are_deterministic_given_seed(self, clique_stream):
        spec = default_method_specs(0.5, 2, len(clique_stream))[0]
        a = [e.global_count for e in run_trials(spec, clique_stream.edges(), 3, seed=9)]
        b = [e.global_count for e in run_trials(spec, clique_stream.edges(), 3, seed=9)]
        assert a == b

    def test_trials_vary_across_seeds(self, clique_stream):
        spec = default_method_specs(0.25, 2, len(clique_stream))[1]  # MASCOT
        a = [e.global_count for e in run_trials(spec, clique_stream.edges(), 3, seed=1)]
        b = [e.global_count for e in run_trials(spec, clique_stream.edges(), 3, seed=2)]
        assert a != b


class TestSummaries:
    def test_global_summaries_cover_all_methods(self, clique_stream):
        specs = default_method_specs(0.5, 2, len(clique_stream))
        truth = float(math.comb(12, 3))
        summaries = run_global_trials(specs, clique_stream.edges(), truth, num_trials=3, seed=1)
        assert set(summaries) == {"REPT", "MASCOT", "TRIEST", "GPS"}
        for summary in summaries.values():
            assert summary.num_trials == 3
            assert summary.nrmse >= 0

    def test_local_summaries(self, clique_stream):
        specs = default_method_specs(0.5, 2, len(clique_stream), methods=("rept", "mascot"), track_local=True)
        stats = compute_statistics(clique_stream.edges())
        truth_local = {node: float(v) for node, v in stats.local_triangles.items()}
        summaries = run_local_trials(specs, clique_stream.edges(), truth_local, num_trials=2, seed=1)
        assert set(summaries) == {"REPT", "MASCOT"}
        for summary in summaries.values():
            assert summary.num_nodes == 12
