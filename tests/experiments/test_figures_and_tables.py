"""Smoke + shape tests for the figure/table reproduction functions.

These use heavily reduced settings (small streams, few trials, short axes)
so the full experiment harness stays exercised by CI without taking the
minutes-long defaults.  The benchmark harness runs larger configurations.
"""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.backends import DEFAULT_BACKENDS, backend_comparison
from repro.experiments.figures import figure1, figure3, figure4, figure5, figure7, figure8
from repro.experiments.tables import table2
from repro.testing.faults import FaultPlan, FaultSpec, arm

QUICK = {"datasets": ["youtube-sim"], "max_edges": 1500}


class TestFigure1:
    def test_rows_and_series(self):
        result = figure1(datasets=["youtube-sim", "web-google-sim"], max_edges=1500)
        assert result.experiment_id == "figure1"
        assert len(result.rows) == 2
        assert "youtube-sim" in result.series
        assert "tau_term" in result.series["youtube-sim"]
        assert "Figure 1" in result.text

    def test_covariance_term_positive(self):
        result = figure1(datasets=["flickr-sim"], max_edges=2000)
        cov_terms = result.series["flickr-sim"]["cov_term"]
        assert all(value > 0 for value in cov_terms)


class TestAccuracyFigures:
    def test_figure3_shape(self):
        result = figure3(datasets=["youtube-sim"], c_values=(100, 200), num_trials=2, max_edges=1200)
        assert result.axis_values == [100, 200]
        series = result.series["youtube-sim"]
        assert set(series) == {"REPT", "MASCOT", "TRIEST", "GPS"}
        assert all(len(values) == 2 for values in series.values())

    def test_figure4_shape(self):
        result = figure4(datasets=["youtube-sim"], c_values=(2, 10), num_trials=2, max_edges=1200)
        assert set(result.series["youtube-sim"]) == {"REPT", "MASCOT", "TRIEST", "GPS"}

    def test_figure5_local_errors(self):
        result = figure5(datasets=["youtube-sim"], c_values=(100,), num_trials=2, max_edges=1000)
        series = result.series["youtube-sim"]
        assert set(series) == {"REPT", "MASCOT", "TRIEST"}
        assert all(value >= 0 for values in series.values() for value in values)

    def test_rept_no_worse_than_mascot_on_average(self):
        """On the quick configuration REPT should not lose to parallel MASCOT."""
        result = figure4(datasets=["flickr-sim"], c_values=(10,), num_trials=4, max_edges=2500,
                         methods=("mascot", "rept"))
        series = result.series["flickr-sim"]
        assert series["REPT"][0] <= series["MASCOT"][0] * 1.5


class TestRuntimeFigures:
    def test_figure7_structure(self):
        result = figure7(datasets=["youtube-sim"], inv_p_values=(2, 4), c=3, max_edges=800)
        series = result.series["youtube-sim"]
        assert set(series) == {"REPT", "MASCOT", "TRIEST", "GPS"}
        assert all(len(values) == 2 for values in series.values())
        assert all(value >= 0 for values in series.values() for value in values)

    def test_figure8_structure(self):
        result = figure8(dataset="youtube-sim", c_values=(2, 4), inv_p=5, num_trials=2, max_edges=1000)
        assert set(result.series) == {"runtime", "nrmse"}
        assert set(result.series["nrmse"]) == {"MASCOT-S", "TRIEST-S", "GPS-S", "REPT"}


class TestTable2:
    def test_all_datasets_by_default_structure(self):
        result = table2(datasets=["youtube-sim", "flickr-sim"], max_edges=1500)
        assert len(result.rows) == 2
        assert result.headers[0] == "dataset"
        assert "Table II" in result.text

    def test_paper_values_included(self):
        result = table2(datasets=["youtube-sim"], max_edges=800)
        row = result.rows[0]
        assert row[5] == "YouTube"
        assert row[6] == 1_138_499


class TestBackendComparison:
    QUICK_BACKENDS = {
        "dataset": "youtube-sim", "max_edges": 600, "m": 4, "c": 8,
        "max_workers": 2, "chunk_size": 100,
    }

    def test_default_rows_are_serial_then_elastic(self):
        result = backend_comparison(**self.QUICK_BACKENDS)
        assert DEFAULT_BACKENDS == ("serial", "chunked-elastic")
        assert [row[0] for row in result.rows] == list(DEFAULT_BACKENDS)
        assert result.headers == [
            "backend", "seconds", "global estimate", "edges stored", "faults",
            "identical",
        ]
        assert all(row[4] == "-" and row[5] == "yes" for row in result.rows)
        for events in result.metadata["supervision"].values():
            assert events == {
                "degraded": False, "worker_deaths": 0, "shard_migrations": 0,
            }

    def test_elastic_flag_appends_the_elastic_row(self):
        result = backend_comparison(
            backends=("serial",), elastic=True, **self.QUICK_BACKENDS
        )
        assert [row[0] for row in result.rows] == ["serial", "chunked-elastic"]

    def test_fault_column_reports_recovery(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="cluster-worker-batch", action="exit",
                    match={"worker": 0, "seq": 2},
                ),
                FaultSpec(
                    site="cluster-worker-batch", action="exit",
                    match={"worker": 1, "seq": 4},
                ),
            )
        )
        with arm(plan):
            result = backend_comparison(**self.QUICK_BACKENDS)
        serial_row, elastic_row = result.rows
        assert serial_row[4] == "-"
        assert elastic_row[4].startswith("2d/")
        assert elastic_row[4].endswith("/degraded")
        assert elastic_row[5] == "yes"
        assert result.metadata["supervision"]["chunked-elastic"]["degraded"]

    def test_empty_backend_list_rejected(self):
        with pytest.raises(ExperimentError, match="at least one backend"):
            backend_comparison(backends=(), **self.QUICK_BACKENDS)
