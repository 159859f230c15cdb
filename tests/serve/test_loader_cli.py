"""Loader (scenario / .npz) and the JSONL CLI session."""

import io
import json

import numpy as np
import pytest

from repro.nn import predict_batched
from repro.serve import BatchPolicy, ModelServer, load_npz, load_scenario
from repro.serve.cli import JsonlSession, build_parser
from repro.serve.loader import policy_from_spec


class TestPolicyFromSpec:
    def test_spec_maps_onto_batch_policy(self):
        policy = policy_from_spec({"max_batch_size": 16, "max_wait_ms": 5.0,
                                   "overload": "block", "workers": 3})
        assert policy.max_batch_size == 16
        assert policy.overload == "block"  # unknown keys (workers) ignored

    def test_overrides_win_and_none_is_ignored(self):
        policy = policy_from_spec({"max_batch_size": 16},
                                  max_batch_size=4, max_wait_ms=None)
        assert policy.max_batch_size == 4
        assert policy.max_wait_ms == BatchPolicy().max_wait_ms


@pytest.fixture(scope="module")
def scenario_model(tmp_path_factory):
    cache = tmp_path_factory.mktemp("serve-cache")
    return load_scenario("serving-resnet18", replicas=2, cache_dir=str(cache))


class TestLoadScenario:
    def test_loaded_shape_and_meta(self, scenario_model):
        loaded = scenario_model
        assert loaded.name == "serving-resnet18"
        assert len(loaded.replicas) == 2
        assert loaded.replicas[0] is not loaded.replicas[1]
        assert loaded.input_shape == (3, 16, 16)
        assert loaded.meta["compression_ratio"] > 1.0
        assert loaded.meta["layers"] == len(loaded.compressed)

    def test_serving_spec_feeds_policy(self, scenario_model):
        policy = scenario_model.policy()
        assert policy.max_batch_size == 16
        assert policy.overload == "block"

    def test_replicas_serve_identically(self, scenario_model, rng):
        x = rng.normal(size=(6, 3, 16, 16))
        a = predict_batched(scenario_model.replicas[0], x, batch_size=4)
        b = predict_batched(scenario_model.replicas[1], x, batch_size=4)
        assert np.array_equal(a, b)

    def test_register_with_server_roundtrip(self, scenario_model, rng):
        server = ModelServer()
        scenario_model.register_with(server, max_batch_size=4, max_wait_ms=2.0)
        x = rng.normal(size=(8, 3, 16, 16))
        with server:
            out = server.predict_many("serving-resnet18", x)
        reference = predict_batched(scenario_model.replicas[0], x, batch_size=4)
        assert np.array_equal(out, reference)


class TestReplicaDedup:
    """Thread replicas share one physical copy of all read-only state."""

    def test_replicas_share_state_by_reference(self, scenario_model):
        from repro.serve import replica_state_report

        report = replica_state_report(scenario_model.replicas)
        assert report["replicas"] == 2
        assert report["total_bytes"] > 0
        # every param/buffer/engine table of replica 2 is a view of
        # replica 1's storage: unique bytes ~ one copy, not two
        assert report["unique_bytes"] * 2 == report["total_bytes"]
        assert report["dedup_ratio"] == pytest.approx(2.0)

    def test_shared_views_are_read_only(self, scenario_model):
        secondary = scenario_model.replicas[1]
        for name, param in secondary.named_parameters():
            if not param.value.flags.writeable:
                break
        else:
            pytest.fail("no read-only shared parameter found on replica 2")

    def test_adopt_state_views_strict_on_missing(self):
        from repro.nn.models import resnet18_mini
        from repro.serve import adopt_state_views

        model = resnet18_mini(num_classes=3, seed=0, width=8)
        with pytest.raises(KeyError):
            adopt_state_views(model, {})

    def test_process_pool_requires_builder_spec(self, scenario_model):
        import dataclasses

        broken = dataclasses.replace(scenario_model, builder_spec=None)
        with pytest.raises(ValueError):
            broken.process_pool()


class TestLoadNpz:
    def test_npz_roundtrip_matches_scenario_serving(self, tmp_path, rng):
        from repro.core.serialization import save_compressed_model
        from repro.nn.compressed import swap_to_compressed
        from repro.workloads import model_factory
        from repro.pipeline.config import CORE_STAGES
        from repro.pipeline.scenarios import run_scenario

        result = run_scenario("serving-resnet18", stages=CORE_STAGES)
        path = tmp_path / "model.npz"
        save_compressed_model(result.compressed, path)

        loaded = load_npz(str(path), "resnet18",
                          model_kwargs={"num_classes": 5, "seed": 1},
                          name="from-npz")
        assert loaded.meta["source"] == "npz"

        reference_model = model_factory("resnet18")(num_classes=5, seed=1)
        from repro.core.serialization import load_compressed_model
        compressed = load_compressed_model(reference_model, str(path))
        swap_to_compressed(reference_model, compressed)
        reference_model.eval()

        x = rng.normal(size=(4, 3, 16, 16))
        out = predict_batched(loaded.replicas[0], x, batch_size=4)
        reference = predict_batched(reference_model, x, batch_size=4)
        assert np.array_equal(out, reference)

    def test_unknown_zoo_model(self, tmp_path):
        with pytest.raises(KeyError):
            load_npz(str(tmp_path / "x.npz"), "not-a-model")


def _compressed_stack():
    from repro.core import LayerCompressionConfig, MVQCompressor
    from repro.nn import Conv2d, Sequential

    model = Sequential(
        Conv2d(4, 8, 3, padding=1, rng=np.random.default_rng(0)),
        Conv2d(8, 8, 3, padding=1, rng=np.random.default_rng(1)),
    )
    cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=5)
    MVQCompressor(cfg).export_compressed_model(model)
    model.eval()
    return model


class TestJsonlSession:
    INPUT_SHAPE = (4, 6, 6)

    def _session(self):
        server = ModelServer()
        server.register("stack", _compressed_stack(),
                        policy=BatchPolicy(max_batch_size=4, max_wait_ms=1.0),
                        input_shape=self.INPUT_SHAPE)
        session = JsonlSession(server, default_model="stack",
                               shapes={"stack": self.INPUT_SHAPE}, lookahead=8)
        return server, session

    def test_requests_answered_in_order(self, rng):
        server, session = self._session()
        x = rng.normal(size=(6, 4, 6, 6))
        lines = [json.dumps({"id": i, "input": x[i].tolist()})
                 for i in range(6)]
        out = io.StringIO()
        with server:
            session.run(lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["id"] for r in responses] == list(range(6))
        reference = predict_batched(_compressed_stack(), x, batch_size=4)
        for i, response in enumerate(responses):
            assert response["latency_ms"] >= 0
            np.testing.assert_array_equal(np.asarray(response["output"]),
                                          reference[i])

    def test_synthetic_stats_and_bad_lines(self):
        server, session = self._session()
        lines = [
            json.dumps({"id": 0, "synthetic": True, "seed": 3}),
            "this is not json",
            json.dumps({"id": 1, "input": [[0.0]]}),      # wrong shape
            json.dumps({"cmd": "stats"}),
        ]
        out = io.StringIO()
        with server:
            session.run(lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert "output" in responses[0]
        assert "bad json" in responses[1]["error"]
        assert "expects input shape" in responses[2]["error"]
        assert responses[3]["models"]["stack"]["requests_completed"] == 1


class TestCliParser:
    def test_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args([
            "--scenario", "serving-resnet18", "--scenario", "quickstart-resnet18",
            "--max-batch-size", "8", "--max-wait-ms", "3.5",
            "--overload", "block", "--engine-mode", "centroid",
            "--stdin-jsonl", "--stats"])
        assert args.scenario == ["serving-resnet18", "quickstart-resnet18"]
        assert args.max_batch_size == 8
        assert args.overload == "block"
        assert args.engine_mode == "centroid"

    def test_stdin_jsonl_and_port_are_mutually_exclusive(self, capsys):
        from repro.serve import cli

        with pytest.raises(SystemExit):
            cli.main(["--scenario", "serving-resnet18",
                      "--stdin-jsonl", "--port", "7070"])
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cli_main_stdin_jsonl(self, monkeypatch, capsys, tmp_path):
        import sys

        from repro.serve import cli

        requests = "\n".join(
            json.dumps({"id": i, "synthetic": True, "seed": i})
            for i in range(5)) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(requests))
        exit_code = cli.main(["--scenario", "serving-resnet18",
                              "--cache-dir", str(tmp_path / "cache"),
                              "--max-batch-size", "4", "--max-wait-ms", "1"])
        assert exit_code == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["id"] for r in responses] == list(range(5))
        assert all("output" in r for r in responses)
        assert "registered 'serving-resnet18'" in captured.err
