"""Integration tests spanning multiple subsystems."""

import math

from repro import (
    ExactStreamingCounter,
    ReptConfig,
    ReptEstimator,
    load_dataset,
    parallelize,
    run_rept,
)
from repro.generators.traffic import TrafficTraceSpec, synthetic_packet_trace
from repro.graph.statistics import compute_statistics
from repro.metrics.errors import summarize_trials
from repro.metrics.local_errors import summarize_local_trials
from repro.streaming.readers import read_edge_list
from repro.streaming.transforms import shuffle_stream
from repro.streaming.windows import TimeWindowedStream
from repro.streaming.writers import write_edge_list


class TestFileToEstimatePipeline:
    def test_write_read_estimate_round_trip(self, tmp_path, clique_stream):
        """Stream -> file -> stream -> REPT estimate, end to end."""
        path = tmp_path / "clique.tsv"
        write_edge_list(clique_stream.edges(), path, header="12-clique")
        stream = read_edge_list(path, name="clique")
        estimate = ReptEstimator(ReptConfig(m=2, c=2, seed=1)).run(stream)
        truth = math.comb(12, 3)
        assert abs(estimate.global_count - truth) / truth < 0.5

    def test_registered_dataset_through_all_methods(self):
        """Every estimator family runs on a registered dataset prefix."""
        stream = load_dataset("youtube-sim").prefix(1500)
        truth = ExactStreamingCounter().run(stream).global_count
        assert truth > 0
        rept = ReptEstimator(ReptConfig(m=4, c=8, seed=1, track_local=False)).run(stream)
        mascot = parallelize("mascot", 4, 0.25, len(stream), seed=1, track_local=False).run(stream)
        triest = parallelize("triest", 4, 0.25, len(stream), seed=1, track_local=False).run(stream)
        gps = parallelize("gps", 4, 0.25, len(stream), seed=1, track_local=False).run(stream)
        for estimate in (rept, mascot, triest, gps):
            assert abs(estimate.global_count - truth) / truth < 1.0


class TestAccuracyOrdering:
    def test_rept_beats_parallel_mascot_on_dataset(self):
        """The paper's headline: REPT's NRMSE is lower than parallel MASCOT's
        under the same p and c, on a covariance-heavy dataset."""
        stream = load_dataset("flickr-sim").prefix(6000)
        edges = stream.edges()
        stats = compute_statistics(edges)
        truth = float(stats.num_triangles)
        trials = 16
        m, c = 10, 10
        rept_estimates = [
            ReptEstimator(ReptConfig(m=m, c=c, seed=seed, track_local=False))
            .run(edges)
            .global_count
            for seed in range(trials)
        ]
        mascot_estimates = [
            parallelize("mascot", c, 1.0 / m, len(edges), seed=seed, track_local=False)
            .run(edges)
            .global_count
            for seed in range(trials)
        ]
        rept_nrmse = summarize_trials(rept_estimates, truth).nrmse
        mascot_nrmse = summarize_trials(mascot_estimates, truth).nrmse
        assert rept_nrmse < mascot_nrmse

    def test_local_estimates_reasonable_on_dataset(self):
        stream = load_dataset("youtube-sim").prefix(2000)
        edges = stream.edges()
        stats = compute_statistics(edges)
        truth_local = {node: float(v) for node, v in stats.local_triangles.items()}
        trial_estimates = [
            ReptEstimator(ReptConfig(m=4, c=4, seed=seed)).run(edges).local_counts
            for seed in range(4)
        ]
        summary = summarize_local_trials(trial_estimates, truth_local)
        assert summary.nrmse < 5.0


class TestTrafficMonitoringScenario:
    def test_anomalous_interval_detected_via_rept(self):
        """The intro use case: per-interval triangle counts on a packet
        stream flag the interval containing a coordinated clique burst."""
        spec = TrafficTraceSpec(
            num_hosts=300,
            duration_seconds=2400.0,
            background_rate=4.0,
            anomaly_intervals=(5,),
            anomaly_clique_size=14,
            window_seconds=300.0,
        )
        records = synthetic_packet_trace(spec, seed=3)
        windows = TimeWindowedStream(records, spec.window_seconds).window_streams()
        estimates = []
        for index, window in enumerate(windows):
            estimator = ReptEstimator(ReptConfig(m=2, c=2, seed=100 + index, track_local=False))
            estimates.append(estimator.run(window).global_count)
        flagged = max(range(len(estimates)), key=estimates.__getitem__)
        assert flagged == 5

    def test_windowing_then_exact_counts_are_consistent(self):
        spec = TrafficTraceSpec(duration_seconds=1200.0, background_rate=2.0, anomaly_intervals=())
        records = synthetic_packet_trace(spec, seed=4)
        windows = TimeWindowedStream(records, 300.0).window_streams()
        total_edges = sum(len(window) for window in windows)
        assert total_edges == sum(1 for r in records if r.u != r.v)


class TestDriverConsistencyOnDataset:
    def test_serial_matches_estimator(self):
        stream = load_dataset("web-google-sim").prefix(2000)
        config = ReptConfig(m=3, c=7, seed=42, track_local=False)
        serial = run_rept(stream.edges(), config, backend="serial")
        direct = ReptEstimator(config).run(stream)
        assert serial.global_count == direct.global_count

    def test_serial_matches_chunked(self):
        stream = load_dataset("web-google-sim").prefix(2000)
        config = ReptConfig(m=3, c=7, seed=42, track_local=False)
        serial = run_rept(stream.edges(), config, backend="serial")
        chunked = run_rept(
            stream.edges(), config,
            backend="chunked-elastic", chunk_size=300, max_workers=2,
        )
        assert serial.global_count == chunked.global_count
        assert serial.edges_stored == chunked.edges_stored

    def test_stream_order_changes_estimate_but_not_truth(self):
        stream = load_dataset("youtube-sim").prefix(1500)
        shuffled = shuffle_stream(stream, seed=9)
        truth_a = ExactStreamingCounter().run(stream).global_count
        truth_b = ExactStreamingCounter().run(shuffled).global_count
        assert truth_a == truth_b
