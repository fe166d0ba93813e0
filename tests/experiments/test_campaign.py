"""Campaign layer tests: specs, planning, fingerprints, cache correctness.

The cache-correctness tests are the heart of the campaign contract:

* identical spec ⇒ a second run is 100% cache hits with byte-identical
  stored records and outputs;
* changing a config field or an upstream task invalidates exactly the
  downstream cone — siblings stay cached;
* a run killed mid-campaign resumes without recomputing completed tasks;
* worker-pool execution is byte-identical to serial execution;
* a campaign figure equals the direct figure function call.
"""

import json

import pytest

from repro.core.config import ReptConfig
from repro.core.parallel import DriverBackedRept
from repro.exceptions import ExperimentError
from repro.experiments.campaign import (
    CODE_TAG,
    campaign_spec_from_mapping,
    load_campaign_spec,
    plan_campaign,
    run_campaign,
    task_fingerprint,
)
from repro.experiments.campaign import engine as engine_module
from repro.experiments.campaign.engine import STATUS_CACHED, STATUS_COMPUTED, STATUS_STALE
from repro.experiments.figures import figure4
from repro.experiments.results import ResultStore, encode_result
from repro.experiments.spec import CampaignSpec, StageSpec

DATASET = "youtube-sim"
MAX_EDGES = 800


def _smoke_mapping(num_trials=2, c_values=(2, 4), max_edges=MAX_EDGES):
    return {
        "campaign": {"name": "unit", "description": "unit-test campaign"},
        "defaults": {
            "max_edges": max_edges,
            "num_trials": num_trials,
            "datasets": [DATASET],
        },
        "stages": {
            "prep": {"kind": "dataset-stats"},
            "figure4": {
                "kind": "accuracy-figure",
                "depends_on": ["prep"],
                "c_values": list(c_values),
            },
            "table2": {
                "kind": "artefact",
                "artefact": "table2",
                "depends_on": ["prep"],
                "params": {"datasets": [DATASET], "max_edges": max_edges},
            },
            "report": {
                "kind": "report",
                "depends_on": ["figure4", "table2"],
                "title": "unit report",
            },
        },
    }


def _statuses(report):
    return {task.task_id: task.status for task in report.tasks}


class TestSpecValidation:
    def test_mapping_round_trip(self):
        spec = campaign_spec_from_mapping(_smoke_mapping())
        assert spec.name == "unit"
        assert spec.stage_names() == ["prep", "figure4", "table2", "report"]
        assert spec.stage("figure4").depends_on == ("prep",)

    def test_shipped_specs_load_and_plan(self):
        for path in ("campaigns/smoke.toml", "campaigns/paper_full.toml"):
            spec = load_campaign_spec(path)
            graph = plan_campaign(spec)
            assert len(graph.tasks) > 3

    def test_shipped_specs_name_live_rept_backends(self):
        backends = set()
        for path in ("campaigns/smoke.toml", "campaigns/paper_full.toml"):
            graph = plan_campaign(load_campaign_spec(path))
            backends |= {
                task.config["rept_backend"]
                for task in graph.tasks.values()
                if task.config.get("rept_backend") is not None
            }
        assert backends  # figure3 routes its trials through a driver
        for backend in backends:
            DriverBackedRept(ReptConfig(m=2, c=2, seed=1), backend=backend)

    def test_duplicate_stage_rejected(self):
        with pytest.raises(ExperimentError):
            CampaignSpec(
                name="dup",
                stages=(
                    StageSpec(name="a", kind="report"),
                    StageSpec(name="a", kind="report"),
                ),
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ExperimentError, match="unknown stage"):
            CampaignSpec(
                name="x",
                stages=(StageSpec(name="a", kind="report", depends_on=("ghost",)),),
            )

    def test_self_dependency_rejected(self):
        with pytest.raises(ExperimentError, match="depends on itself"):
            StageSpec(name="a", kind="report", depends_on=("a",))

    def test_cycle_rejected(self):
        spec = CampaignSpec(
            name="cyc",
            stages=(
                StageSpec(name="a", kind="report", depends_on=("b",)),
                StageSpec(name="b", kind="report", depends_on=("a",)),
            ),
        )
        with pytest.raises(ExperimentError, match="cycle"):
            plan_campaign(spec)

    def test_unknown_kind_rejected_at_plan_time(self):
        spec = CampaignSpec(
            name="x", stages=(StageSpec(name="a", kind="no-such-kind"),)
        )
        with pytest.raises(ExperimentError, match="unknown kind"):
            plan_campaign(spec)

    def test_unknown_config_key_rejected(self):
        mapping = _smoke_mapping()
        mapping["stages"]["figure4"]["typo_key"] = 1
        with pytest.raises(ExperimentError, match="typo_key"):
            plan_campaign(campaign_spec_from_mapping(mapping))

    def test_unknown_artefact_rejected(self):
        mapping = _smoke_mapping()
        mapping["stages"]["table2"]["artefact"] = "figure99"
        with pytest.raises(ExperimentError, match="figure99"):
            plan_campaign(campaign_spec_from_mapping(mapping))

    def test_sweep_dataset_not_prepared_rejected(self):
        mapping = _smoke_mapping()
        mapping["stages"]["figure4"]["datasets"] = ["flickr-sim"]
        with pytest.raises(ExperimentError, match="does not prepare"):
            plan_campaign(campaign_spec_from_mapping(mapping))

    def test_unknown_top_level_section_rejected(self):
        mapping = _smoke_mapping()
        mapping["bogus"] = {}
        with pytest.raises(ExperimentError, match="bogus"):
            campaign_spec_from_mapping(mapping)


class TestFingerprints:
    def test_deterministic(self):
        fp1 = task_fingerprint("artefact", 1, {"a": 1, "b": [2, 3]}, {"up": "ff"})
        fp2 = task_fingerprint("artefact", 1, {"b": [2, 3], "a": 1}, {"up": "ff"})
        assert fp1 == fp2  # key order never matters

    def test_sensitive_to_every_component(self):
        base = task_fingerprint("artefact", 1, {"a": 1}, {"up": "ff"})
        assert task_fingerprint("report", 1, {"a": 1}, {"up": "ff"}) != base
        assert task_fingerprint("artefact", 2, {"a": 1}, {"up": "ff"}) != base
        assert task_fingerprint("artefact", 1, {"a": 2}, {"up": "ff"}) != base
        assert task_fingerprint("artefact", 1, {"a": 1}, {"up": "00"}) != base

    def test_code_tag_embedded(self):
        # v2: estimate metadata gained the resolved-kernel label, which
        # flows into cached artefact payloads.
        assert "campaign-v2" in CODE_TAG


class TestPlanner:
    def test_sweep_expansion(self):
        graph = plan_campaign(campaign_spec_from_mapping(_smoke_mapping()))
        ids = graph.topological_ids()
        assert f"prep/{DATASET}" in ids
        assert f"figure4/{DATASET}/c2" in ids
        assert f"figure4/{DATASET}/c4" in ids
        assert ids.index(f"figure4/{DATASET}/c2") < ids.index("figure4")
        cell = graph.tasks[f"figure4/{DATASET}/c2"]
        assert cell.deps == (f"prep/{DATASET}",)
        aggregate = graph.tasks["figure4"]
        assert f"figure4/{DATASET}/c4" in aggregate.deps
        assert graph.terminals["figure4"] == ["figure4"]

    def test_report_sections_follow_declaration_order(self):
        graph = plan_campaign(campaign_spec_from_mapping(_smoke_mapping()))
        assert graph.tasks["report"].config["sections"] == ["figure4", "table2"]


class TestCacheCorrectness:
    def test_second_run_is_all_hits_and_byte_identical(self, tmp_path):
        spec = campaign_spec_from_mapping(_smoke_mapping())
        store = tmp_path / "store"
        out = tmp_path / "out"
        first = run_campaign(spec, store=store, out_dir=out)
        assert all(status == STATUS_COMPUTED for status in _statuses(first).values())
        snapshot = {
            path: path.read_bytes() for path in sorted(store.rglob("*.json"))
        }
        second = run_campaign(spec, store=store, out_dir=out)
        assert all(status == STATUS_CACHED for status in _statuses(second).values())
        assert second.num_computed == 0
        for path, blob in snapshot.items():
            assert path.read_bytes() == blob

    def test_fresh_store_reproduces_byte_identical_records(self, tmp_path):
        spec = campaign_spec_from_mapping(_smoke_mapping())
        run_campaign(spec, store=tmp_path / "a", out_dir=tmp_path / "outa")
        run_campaign(spec, store=tmp_path / "b", out_dir=tmp_path / "outb")
        blobs_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
        blobs_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.json"))
        assert blobs_a == blobs_b
        for rel in blobs_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_config_change_invalidates_exactly_the_downstream_cone(self, tmp_path):
        store = tmp_path / "store"
        run_campaign(campaign_spec_from_mapping(_smoke_mapping()), store=store)
        # Changing the sweep's trial count must recompute its cells, its
        # aggregate, and the report — but not dataset prep or table2.
        changed = campaign_spec_from_mapping(_smoke_mapping(num_trials=3))
        statuses = _statuses(run_campaign(changed, store=store))
        assert statuses[f"prep/{DATASET}"] == STATUS_CACHED
        assert statuses["table2"] == STATUS_CACHED
        assert statuses[f"figure4/{DATASET}/c2"] == STATUS_COMPUTED
        assert statuses[f"figure4/{DATASET}/c4"] == STATUS_COMPUTED
        assert statuses["figure4"] == STATUS_COMPUTED
        assert statuses["report"] == STATUS_COMPUTED

    def test_new_axis_value_reuses_existing_cells(self, tmp_path):
        store = tmp_path / "store"
        run_campaign(campaign_spec_from_mapping(_smoke_mapping()), store=store)
        grown = campaign_spec_from_mapping(_smoke_mapping(c_values=(2, 4, 8)))
        statuses = _statuses(run_campaign(grown, store=store))
        assert statuses[f"figure4/{DATASET}/c2"] == STATUS_CACHED
        assert statuses[f"figure4/{DATASET}/c4"] == STATUS_CACHED
        assert statuses[f"figure4/{DATASET}/c8"] == STATUS_COMPUTED
        assert statuses["figure4"] == STATUS_COMPUTED

    def test_upstream_change_propagates_through_cells(self, tmp_path):
        store = tmp_path / "store"
        run_campaign(campaign_spec_from_mapping(_smoke_mapping()), store=store)
        # Changing dataset preparation (max_edges) rewrites the prep task's
        # fingerprint; every cell hangs off it, so the whole cone reruns.
        changed = campaign_spec_from_mapping(_smoke_mapping(max_edges=900))
        statuses = _statuses(run_campaign(changed, store=store))
        assert all(status == STATUS_COMPUTED for status in statuses.values())

    def test_killed_campaign_resumes_from_last_completed_task(self, tmp_path, monkeypatch):
        spec = campaign_spec_from_mapping(_smoke_mapping())
        store = tmp_path / "store"
        real_execute = engine_module._execute_task

        def exploding_execute(kind_name, config, inputs):
            if kind_name == "artefact":
                raise RuntimeError("simulated crash")
            return real_execute(kind_name, config, inputs)

        monkeypatch.setattr(engine_module, "_execute_task", exploding_execute)
        with pytest.raises(ExperimentError, match="table2"):
            run_campaign(spec, store=store)
        monkeypatch.setattr(engine_module, "_execute_task", real_execute)

        statuses = _statuses(run_campaign(spec, store=store))
        # Everything that completed before the crash is served from cache.
        assert statuses[f"prep/{DATASET}"] == STATUS_CACHED
        assert statuses[f"figure4/{DATASET}/c2"] == STATUS_CACHED
        assert statuses[f"figure4/{DATASET}/c4"] == STATUS_CACHED
        assert statuses["figure4"] == STATUS_CACHED
        assert statuses["table2"] == STATUS_COMPUTED
        assert statuses["report"] == STATUS_COMPUTED

    def test_force_recomputes_everything(self, tmp_path):
        spec = campaign_spec_from_mapping(_smoke_mapping())
        store = tmp_path / "store"
        run_campaign(spec, store=store)
        forced = run_campaign(spec, store=store, force=True)
        assert all(status == STATUS_COMPUTED for status in _statuses(forced).values())

    def test_dry_run_reports_without_executing(self, tmp_path):
        spec = campaign_spec_from_mapping(_smoke_mapping())
        store = tmp_path / "store"
        dry = run_campaign(spec, store=store, dry_run=True)
        assert all(status == STATUS_STALE for status in _statuses(dry).values())
        assert ResultStore(store).fingerprints() == []


class TestEquivalenceAndParallelism:
    def test_campaign_figure_equals_direct_call(self, tmp_path):
        spec = campaign_spec_from_mapping(_smoke_mapping())
        out = tmp_path / "out"
        run_campaign(spec, store=tmp_path / "store", out_dir=out)
        payload = json.loads((out / "figure4.json").read_text())["payload"]
        direct = encode_result(
            figure4(
                datasets=[DATASET], c_values=(2, 4), num_trials=2, max_edges=MAX_EDGES
            )
        )
        assert payload == direct

    def test_worker_pool_is_byte_identical_to_serial(self, tmp_path):
        spec = campaign_spec_from_mapping(_smoke_mapping())
        run_campaign(spec, store=tmp_path / "serial", out_dir=tmp_path / "outs")
        parallel = run_campaign(
            spec, store=tmp_path / "parallel", out_dir=tmp_path / "outp", workers=2
        )
        assert parallel.num_computed == len(parallel.tasks)
        for rel in sorted(p.relative_to(tmp_path / "serial")
                          for p in (tmp_path / "serial").rglob("*.json")):
            assert (tmp_path / "serial" / rel).read_bytes() == (
                tmp_path / "parallel" / rel
            ).read_bytes()

    @pytest.mark.parametrize("cpus, workers, share", [(4, 2, 2), (2, 2, 1), (2, 3, 1), (6, 4, 1)])
    def test_pool_workers_share_the_cpus(self, cpus, workers, share, monkeypatch):
        # Each pool worker caps the threads of its batch calls at its share
        # of the CPUs, so the pool runs no more threads than there are.
        monkeypatch.setattr(engine_module.kernel, "CPUS", cpus)
        engine_module._share_cpus(workers)
        assert engine_module.kernel.CPUS == share

    def test_the_pool_initializes_workers_with_their_share(self, tmp_path, monkeypatch):
        pools = []
        pool_class = engine_module.ProcessPoolExecutor

        def spy(**kwargs):
            pools.append(kwargs)
            return pool_class(**kwargs)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", spy)
        spec = campaign_spec_from_mapping(_smoke_mapping())
        run_campaign(spec, store=tmp_path / "store", workers=2)
        assert pools == [
            dict(max_workers=2, initializer=engine_module._share_cpus, initargs=(2,))
        ]

    def test_parallel_failure_still_persists_completed_tasks(self, tmp_path):
        mapping = _smoke_mapping()
        mapping["stages"]["table2"]["artefact"] = "table2"
        mapping["stages"]["table2"]["params"] = {"datasets": ["no-such-dataset"]}
        spec = campaign_spec_from_mapping(mapping)
        store = tmp_path / "store"
        with pytest.raises(ExperimentError, match="table2"):
            run_campaign(spec, store=store, workers=2)
        # In-flight sweep cells were drained and persisted before the run
        # raised; resume serves them from cache.  (Whether the aggregate got
        # scheduled before the failure is a scheduler race, so only the
        # cells are guaranteed.)
        fixed = campaign_spec_from_mapping(_smoke_mapping())
        statuses = _statuses(run_campaign(fixed, store=store, workers=2))
        assert statuses[f"figure4/{DATASET}/c2"] == STATUS_CACHED
        assert statuses[f"figure4/{DATASET}/c4"] == STATUS_CACHED


class TestReportAndOutputs:
    def test_outputs_and_manifest(self, tmp_path):
        spec = campaign_spec_from_mapping(_smoke_mapping())
        out = tmp_path / "out"
        report = run_campaign(spec, store=tmp_path / "store", out_dir=out)
        assert (out / "report.txt").exists()
        assert (out / "figure4.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["campaign"] == "unit"
        assert manifest["code_tag"] == CODE_TAG
        assert {t["task_id"] for t in manifest["tasks"]} == {
            t.task_id for t in report.tasks
        }
        report_text = (out / "report.txt").read_text()
        assert "figure4" in report_text and "Table II" in report_text

    def test_explain_text_lists_every_task(self, tmp_path):
        spec = campaign_spec_from_mapping(_smoke_mapping())
        report = run_campaign(spec, store=tmp_path / "store")
        text = report.explain_text()
        for task in report.tasks:
            assert task.task_id in text
        assert "0 cached" in text
