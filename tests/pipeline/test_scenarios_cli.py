"""Scenario registry and the `python -m repro.pipeline` CLI."""

import json

import pytest

from repro.pipeline.cli import main
from repro.pipeline.config import PipelineConfig
from repro.pipeline.scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
)


class TestRegistry:
    def test_built_in_scenarios_present(self):
        names = {s.name for s in list_scenarios()}
        assert "quickstart-resnet18" in names
        assert {f"table3-case-{c}-resnet18" for c in "abcd"} <= names

    def test_every_scenario_config_builds(self):
        for scenario in list_scenarios():
            config = scenario.pipeline_config()
            assert isinstance(config, PipelineConfig)

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("quickstart-resnet18")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(scenario)
        register_scenario(scenario, overwrite=True)  # explicit overwrite ok
        assert SCENARIOS["quickstart-resnet18"] is scenario

    def test_scenario_dict_round_trip(self):
        scenario = get_scenario("quickstart-resnet18")
        again = Scenario.from_dict(scenario.to_dict())
        assert again == scenario

    def test_with_overrides_replaces_fields_and_merges_pipeline(self):
        scenario = get_scenario("quickstart-resnet18")
        variant = scenario.with_overrides(
            name="quickstart-k64",
            pipeline={"base": {"k": 64}, "export_path": "/tmp/m.npz"})
        assert variant.name == "quickstart-k64"
        assert variant.model == scenario.model
        # named keys changed, the rest of the nested pipeline kept
        assert variant.pipeline["base"]["k"] == 64
        assert variant.pipeline["base"]["max_kmeans_iterations"] == \
            scenario.pipeline["base"]["max_kmeans_iterations"]
        assert variant.pipeline["export_path"] == "/tmp/m.npz"
        assert variant.pipeline["serve"] == scenario.pipeline["serve"]
        # the original is untouched
        assert "export_path" not in scenario.pipeline
        assert scenario.pipeline["base"]["k"] != 64

    def test_with_overrides_without_pipeline(self):
        scenario = get_scenario("quickstart-resnet18")
        variant = scenario.with_overrides(workload="vgg16",
                                          input_shape=[3, 8, 8])
        assert variant.workload == "vgg16"
        assert variant.input_shape == (3, 8, 8)
        assert variant.pipeline == scenario.pipeline


#: a scenario small enough for the test suite: one tiny model, 3 stages of
#: serving/accelerator evaluation, few k-means iterations
_TINY_SCENARIO = Scenario(
    name="test-tiny",
    description="test scenario",
    model="resnet18",
    model_kwargs={"num_classes": 4, "seed": 2},
    pipeline={
        "preset": "mvq",
        "base": {"k": 8, "max_kmeans_iterations": 4},
        "stages": ["group", "prune", "cluster", "quantize", "export",
                   "serve_eval", "accel_eval"],
        "serve": {"batch_size": 2, "num_samples": 4},
    },
    workload="resnet18",
)


class TestRunScenario:
    def test_end_to_end_through_serving_and_accelerator(self, tmp_path):
        scenario = _TINY_SCENARIO.with_overrides(
            pipeline={"export_path": str(tmp_path / "artifact.npz")})
        result = run_scenario(scenario, cache_dir=str(tmp_path / "cache"))

        export = result.artifacts["export"]
        assert (tmp_path / "artifact.npz").exists()
        assert export["compression_ratio"] > 1.0

        serve = result.artifacts["serve_report"]
        assert serve["outputs_match"]
        assert serve["throughput_sps"] > 0

        accel = result.artifacts["accel_report"]
        assert accel["workload"] == "resnet18"
        assert accel["efficiency_tops_w"] > 0
        assert accel["runtime_ms"] > 0
        assert accel["table9_row"]["compression_ratio"] == pytest.approx(
            export["compression_ratio"])


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "quickstart-resnet18" in out

    def test_list_stages(self, capsys):
        assert main(["list-stages"]) == 0
        out = capsys.readouterr().out
        for stage in ("group", "prune", "cluster", "quantize", "serve_eval",
                      "accel_eval"):
            assert stage in out

    def test_run_requires_exactly_one_source(self, capsys):
        assert main(["run"]) == 2
        assert main(["run", "cfg.json", "--scenario", "x"]) == 2

    def test_run_scenario_spec_file_with_cache_and_report(self, tmp_path, capsys):
        spec = _TINY_SCENARIO.with_overrides(
            pipeline={"export_path": str(tmp_path / "m.npz")}).to_dict()
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(spec))
        cache = tmp_path / "cache"
        report_path = tmp_path / "report.json"

        assert main(["run", str(cfg_path), "--cache-dir", str(cache),
                     "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["serve_report"]["outputs_match"] is True
        assert report["accel_report"]["efficiency_tops_w"] > 0
        assert report["compression_ratio"] > 1.0
        assert report["cpu"]["cpus"] >= 1

        # warm re-run from the on-disk cache: clustering skipped
        assert main(["run", str(cfg_path), "--cache-dir", str(cache),
                     "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        cluster = [e for e in report["events"] if e["stage"] == "cluster"][0]
        assert cluster["status"] == "cached"

    def test_run_bare_pipeline_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "base": {"k": 8, "max_kmeans_iterations": 4},
            "stages": ["group", "prune", "cluster", "quantize"],
        }))
        assert main(["run", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "compression ratio" in out

    def test_run_stage_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"base": {"k": 8,
                                                 "max_kmeans_iterations": 4}}))
        assert main(["run", str(cfg_path), "--stages", "cluster,quantize"]) == 0
