"""Pipeline runner: bit-exact equivalence with the imperative API, artifact
caching granularity and out-of-order stage composition."""

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor, precision
from repro.nn import Conv2d, Sequential
from repro.pipeline.artifacts import ArtifactStore, stable_hash
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import Pipeline


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(8, 16, 3, padding=1, rng=rng),
        Conv2d(16, 16, 3, padding=1, rng=rng),
        Conv2d(16, 24, 3, padding=1, rng=rng),
    )


BASE = {"k": 10, "max_kmeans_iterations": 6}


def config_dict(**extra):
    data = {"base": dict(BASE)}
    data.update(extra)
    return data


def assert_identical(c1, c2):
    assert sorted(c1.layers) == sorted(c2.layers)
    for name in c1.layers:
        a, b = c1.layers[name], c2.layers[name]
        assert np.array_equal(a.assignments, b.assignments), name
        assert np.array_equal(a.codebook.codewords, b.codebook.codewords), name
        assert np.array_equal(a.mask, b.mask), name
    assert c1.compression_ratio() == c2.compression_ratio()


class TestStableHash:
    def test_type_tags_prevent_collisions(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) != stable_hash(1)
        assert stable_hash([1, 2]) != stable_hash([[1], [2]])

    def test_array_dtype_and_shape_matter(self):
        a = np.zeros((2, 3))
        assert stable_hash(a) != stable_hash(a.astype(np.float32))
        assert stable_hash(a) != stable_hash(a.reshape(3, 2))
        assert stable_hash(a) == stable_hash(a.copy())


class TestArtifactStore:
    def test_memory_round_trip(self):
        store = ArtifactStore()
        store.put("k", {"x": 1})
        assert store.get("k") == {"x": 1}
        assert store.hits == 1 and store.misses == 0

    def test_disk_persistence_across_instances(self, tmp_path):
        ArtifactStore(tmp_path).put("k", np.arange(4))
        fresh = ArtifactStore(tmp_path)
        np.testing.assert_array_equal(fresh.get("k"), np.arange(4))

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
        from repro.pipeline.artifacts import MISS
        assert store.get("bad") is MISS


class TestBitExactEquivalence:
    def test_json_config_reproduces_imperative_compress(self):
        cfg = LayerCompressionConfig(**BASE)
        imperative = MVQCompressor(cfg).compress(small_model())

        config = PipelineConfig.from_json(
            PipelineConfig.from_dict(config_dict()).to_json())
        declarative = Pipeline(config).run(small_model()).compressed
        assert_identical(imperative, declarative)

    def test_crosslayer_equivalence(self):
        cfg = LayerCompressionConfig(**BASE)
        imperative = MVQCompressor(cfg, crosslayer=True).compress(small_model())
        config = PipelineConfig.from_dict(config_dict(crosslayer=True))
        declarative = Pipeline(config).run(small_model()).compressed
        assert_identical(imperative, declarative)
        # one shared codebook after the pipeline run as well
        ids = {id(s.codebook) for s in declarative}
        assert len(ids) == 1

    def test_per_layer_override_equivalence(self):
        override_cfg = {"pattern": "layers.0", "fields": {"k": 6}}
        config = PipelineConfig.from_dict(config_dict(overrides=[override_cfg]))
        declarative = Pipeline(config).run(small_model()).compressed

        cfg = LayerCompressionConfig(**BASE)
        imperative = MVQCompressor(
            cfg, per_layer_overrides={
                "layers.0": LayerCompressionConfig(k=6, max_kmeans_iterations=6)}
        ).compress(small_model())
        assert_identical(imperative, declarative)


class TestClusterCaching:
    def test_warm_rerun_skips_clustering_bit_identically(self):
        store = ArtifactStore()
        config = PipelineConfig.from_dict(config_dict())
        cold = Pipeline(config, store=store).run(small_model())
        warm = Pipeline(config, store=store).run(small_model())

        assert cold.event_for("cluster")["status"] == "run"
        event = warm.event_for("cluster")
        assert event["status"] == "cached"
        assert event["layers_clustered"] == []
        assert_identical(cold.compressed, warm.compressed)

    def test_block_budget_is_not_in_the_cluster_key(self):
        """The distance block budget changes timing, not bits: a store
        filled under one budget must serve every cluster artifact under
        another."""
        def digest(compressed):
            return stable_hash(*[
                (layer.assignments, layer.codebook.codewords, layer.mask)
                for _, layer in sorted(compressed.layers.items())])

        # k=64 float64 blocks of 64 KiB hold 128 rows: every layer is chunked
        config = PipelineConfig.from_dict(
            {"base": {"k": 64, "max_kmeans_iterations": 6}})
        store = ArtifactStore()
        with precision.precision(block_bytes=1 << 16):
            small = Pipeline(config, store=store).run(small_model())
        default = Pipeline(config, store=store).run(small_model())
        fresh = Pipeline(config).run(small_model())

        assert small.event_for("cluster")["status"] == "run"
        event = default.event_for("cluster")
        assert event["status"] == "cached"
        assert event["layers_clustered"] == []
        assert sorted(event["layers_cached"]) == sorted(small.compressed.layers)
        assert digest(small.compressed) == digest(default.compressed) \
            == digest(fresh.compressed)

    def test_quantize_only_change_keeps_cluster_cache_warm(self):
        """codebook_bits is read by the quantize stage only: changing it must
        not invalidate the cached clustering."""
        store = ArtifactStore()
        Pipeline(PipelineConfig.from_dict(config_dict()), store=store).run(small_model())
        changed = PipelineConfig.from_dict(
            {"base": dict(BASE, codebook_bits=6)})
        rerun = Pipeline(changed, store=store).run(small_model())
        assert rerun.event_for("cluster")["status"] == "cached"
        # ... and the new bits were actually applied downstream
        assert next(iter(rerun.compressed)).codebook.bits == 6

    def test_cluster_field_change_invalidates_all_layers(self):
        store = ArtifactStore()
        Pipeline(PipelineConfig.from_dict(config_dict()), store=store).run(small_model())
        changed = PipelineConfig.from_dict({"base": dict(BASE, k=12)})
        rerun = Pipeline(changed, store=store).run(small_model())
        event = rerun.event_for("cluster")
        assert event["status"] == "run"
        assert event["layers_cached"] == []

    def test_per_layer_change_invalidates_exactly_that_layer(self):
        store = ArtifactStore()
        Pipeline(PipelineConfig.from_dict(config_dict()), store=store).run(small_model())
        changed = PipelineConfig.from_dict(config_dict(
            overrides=[{"pattern": "layers.1", "fields": {"k": 7}}]))
        rerun = Pipeline(changed, store=store).run(small_model())
        event = rerun.event_for("cluster")
        assert event["layers_clustered"] == ["layers.1"]
        assert sorted(event["layers_cached"]) == ["layers.0", "layers.2"]

    def test_weight_change_invalidates_that_layer(self):
        store = ArtifactStore()
        config = PipelineConfig.from_dict(config_dict())
        Pipeline(config, store=store).run(small_model())
        model = small_model()
        model.layers[2].weight.copy_(model.layers[2].weight.value * 1.5)
        rerun = Pipeline(config, store=store).run(model)
        event = rerun.event_for("cluster")
        assert event["layers_clustered"] == ["layers.2"]

    def test_disk_cache_survives_process_style_reload(self, tmp_path):
        config = PipelineConfig.from_dict(config_dict(cache_dir=str(tmp_path)))
        cold = Pipeline(config).run(small_model())
        warm = Pipeline(config).run(small_model())  # fresh store, same dir
        assert warm.event_for("cluster")["status"] == "cached"
        assert_identical(cold.compressed, warm.compressed)

    def test_crosslayer_caching(self):
        store = ArtifactStore()
        config = PipelineConfig.from_dict(config_dict(crosslayer=True))
        cold = Pipeline(config, store=store).run(small_model())
        warm = Pipeline(config, store=store).run(small_model())
        assert warm.event_for("cluster")["status"] == "cached"
        assert_identical(cold.compressed, warm.compressed)


class TestOutOfOrderComposition:
    def test_apply_stage_alone_pulls_prerequisites_without_recompute(self):
        """`apply` composed on its own reuses the warm cluster cache — the
        satellite fix: CompressedModel.apply_to_model() is reachable as a
        stage with no hidden re-clustering."""
        store = ArtifactStore()
        config = PipelineConfig.from_dict(config_dict())
        Pipeline(config, store=store).run(small_model())

        model = small_model()
        result = Pipeline(config, store=store).run(model, stages=["apply"])
        assert result.event_for("cluster")["status"] == "cached"
        assert result.event_for("apply")["status"] == "run"
        # the reconstructed weights actually landed in the model
        state = result.compressed.layers["layers.0"]
        np.testing.assert_array_equal(model.layers[0].weight.value,
                                      state.reconstruct_weight())

    def test_serve_eval_alone_runs_without_reclustering(self):
        store = ArtifactStore()
        config = PipelineConfig.from_dict(config_dict(
            serve={"batch_size": 2, "num_samples": 4, "input_shape": [8, 5, 5]}))
        Pipeline(config, store=store).run(small_model())

        result = Pipeline(config, store=store).run(small_model(),
                                                   stages=["serve_eval"])
        assert result.event_for("cluster")["status"] == "cached"
        report = result.artifacts["serve_report"]
        assert report["outputs_match"]

    def test_duplicate_stage_names_run_once(self):
        config = PipelineConfig.from_dict(config_dict())
        result = Pipeline(config).run(
            small_model(), stages=["cluster", "cluster", "quantize"])
        assert result.stages_run.count("cluster") == 1

    def test_unknown_stage_fails_before_any_work(self):
        config = PipelineConfig.from_dict(config_dict())
        with pytest.raises(KeyError, match="unknown stage"):
            Pipeline(config).run(small_model(), stages=["cluster", "nope"])

    def test_context_continuation_reuses_artifacts(self):
        config = PipelineConfig.from_dict(config_dict())
        pipeline = Pipeline(config)
        model = small_model()
        first = pipeline.run(model)
        second = pipeline.run(model, stages=["apply"], context=first.context)
        # same context: compression artifacts reused, only `apply` added
        assert second.compressed is first.compressed
        assert second.stages_run == first.stages_run + ("apply",)

    def test_context_with_different_model_rejected(self):
        config = PipelineConfig.from_dict(config_dict())
        pipeline = Pipeline(config)
        result = pipeline.run(small_model())
        with pytest.raises(ValueError, match="different model"):
            pipeline.run(small_model(), stages=["apply"], context=result.context)
