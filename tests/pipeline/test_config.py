"""PipelineConfig schema: layer-config (de)serialization, presets and
per-layer-pattern overrides."""

import json

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.core.grouping import GroupingStrategy
from repro.core.serialization import load_compressed_model, save_compressed_model
from repro.nn import Conv2d, Sequential
from repro.pipeline.config import (
    CORE_STAGES,
    LayerOverride,
    PipelineConfig,
    PRESETS,
    layer_config_from_dict,
    layer_config_to_dict,
)


class TestLayerConfigSchema:
    def test_round_trip_preserves_all_fields(self):
        cfg = LayerCompressionConfig(
            k=17, d=4, n_keep=1, m=4, codebook_bits=6, weight_bits=16,
            strategy=GroupingStrategy.INPUT, prune=False,
            use_masked_kmeans=False, store_mask=False,
            max_kmeans_iterations=23, seed=7)
        assert layer_config_from_dict(layer_config_to_dict(cfg)) == cfg

    def test_dict_is_json_compatible(self):
        data = layer_config_to_dict(LayerCompressionConfig())
        assert layer_config_from_dict(json.loads(json.dumps(data))) == \
            LayerCompressionConfig()

    def test_pre_schema_manifest_still_loads(self):
        """Archives written before max_kmeans_iterations/seed joined the
        manifest deserialize with the dataclass defaults filled in."""
        legacy = {
            "k": 64, "d": 8, "n_keep": 2, "m": 8, "codebook_bits": 8,
            "weight_bits": 32, "strategy": "output", "prune": True,
            "use_masked_kmeans": True, "store_mask": True,
        }
        cfg = layer_config_from_dict(legacy)
        assert cfg.k == 64
        assert cfg.max_kmeans_iterations == LayerCompressionConfig().max_kmeans_iterations
        assert cfg.seed == LayerCompressionConfig().seed

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            layer_config_from_dict({"k": 8, "codeboook_bits": 8})

    def test_partial_dict_merges_onto_base(self):
        base = LayerCompressionConfig(k=32, n_keep=4)
        merged = layer_config_from_dict({"k": 8}, base=base)
        assert merged.k == 8 and merged.n_keep == 4

    def test_npz_round_trip_uses_shared_schema(self, tmp_path):
        model = Sequential(Conv2d(8, 16, 3, rng=np.random.default_rng(0)))
        cfg = LayerCompressionConfig(k=8, max_kmeans_iterations=4,
                                     seed=3, codebook_bits=6)
        compressed = MVQCompressor(cfg).compress(model)
        path = tmp_path / "model.npz"
        save_compressed_model(compressed, path)
        reloaded = load_compressed_model(model, path)
        state = next(iter(reloaded))
        # the full schema — including the runtime fields the old hand-rolled
        # dicts dropped — survives the archive round trip
        assert state.config == cfg


class TestPresets:
    #: (preset, prune, use_masked_kmeans, store_mask) — Table 3's cases
    CASES = [
        ("table3_case_a", False, False, False),
        ("table3_case_b", True, False, False),
        ("table3_case_c", True, False, True),
        ("table3_case_d", True, True, True),
        ("mvq", True, True, True),
    ]

    @pytest.mark.parametrize("preset,prune,masked,store", CASES)
    def test_table3_presets_match_ablation_cases(self, preset, prune, masked, store):
        config = PipelineConfig.from_preset(preset)
        assert config.base.prune is prune
        assert config.base.use_masked_kmeans is masked
        assert config.base.store_mask is store

    def test_preset_merges_under_user_fields(self):
        config = PipelineConfig.from_dict(
            {"preset": "table3_case_b", "base": {"k": 99}})
        assert config.base.k == 99
        assert config.base.use_masked_kmeans is False

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            PipelineConfig.from_dict({"preset": "nope"})

    def test_all_presets_build(self):
        for name in PRESETS:
            PipelineConfig.from_preset(name)


class TestPipelineConfigSchema:
    def test_json_round_trip(self):
        config = PipelineConfig.from_dict({
            "base": {"k": 12},
            "overrides": [{"pattern": "stem.*", "fields": {"k": 48}}],
            "crosslayer": True,
            "workers": 2,
            "stages": ["group", "prune", "cluster"],
            "serve": {"batch_size": 4},
        })
        again = PipelineConfig.from_json(config.to_json())
        assert again == config
        assert again.stages == ("group", "prune", "cluster")

    def test_default_stages_are_the_canonical_composition(self):
        assert PipelineConfig().stages == CORE_STAGES

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ValueError, match="unknown PipelineConfig"):
            PipelineConfig.from_dict({"bsae": {}})

    def test_removed_parallel_backend_key_rejected(self):
        """The compressor runs threads only; a stale key names itself."""
        with pytest.raises(ValueError, match="parallel_backend"):
            PipelineConfig.from_dict({"parallel_backend": "thread"})

    def test_workers_reach_the_compressor(self):
        """``workers`` is the config's one parallelism knob."""
        config = PipelineConfig.from_dict({"workers": 3})
        assert "parallel_backend" not in config.to_dict()
        model = Sequential(Conv2d(8, 16, 3, rng=np.random.default_rng(0)))
        assert config.compressor_for(model).workers == 3

    def test_override_with_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            LayerOverride("conv*", {"kk": 3})


class TestLayerOverrides:
    CONFIG = PipelineConfig.from_dict({
        "base": {"k": 16},
        "overrides": [
            {"pattern": "stem.*", "fields": {"k": 64}},
            {"pattern": "*.conv2", "fields": {"n_keep": 4}},
            {"pattern": "stem.special", "fields": {"k": 8}},
        ],
    })

    def test_no_match_returns_base(self):
        assert self.CONFIG.resolve_layer_config("stages.0.conv1") == self.CONFIG.base

    def test_single_pattern_applies(self):
        cfg = self.CONFIG.resolve_layer_config("stem.layers.0")
        assert cfg.k == 64 and cfg.n_keep == self.CONFIG.base.n_keep

    def test_later_patterns_win(self):
        assert self.CONFIG.resolve_layer_config("stem.special").k == 8

    def test_multiple_patterns_stack(self):
        cfg = self.CONFIG.resolve_layer_config("stem.conv2")
        assert cfg.k == 64 and cfg.n_keep == 4

    def test_resolved_overrides_only_lists_divergent_layers(self):
        names = ["stages.0.conv1", "stem.layers.0", "a.conv2"]
        resolved = self.CONFIG.resolved_overrides(names)
        assert set(resolved) == {"stem.layers.0", "a.conv2"}

    def test_compressor_for_resolves_patterns_to_exact_names(self):
        model = Sequential(Conv2d(8, 16, 3, rng=np.random.default_rng(0)))
        config = PipelineConfig.from_dict({
            "base": {"k": 16},
            "overrides": [{"pattern": "layers.0", "fields": {"k": 4}}],
        })
        compressor = config.compressor_for(model)
        assert compressor.layer_config("layers.0").k == 4
