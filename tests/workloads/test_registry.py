"""Unified workload registry: zoo and accelerator names resolve to the
same factory objects as their raw tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator.workloads import WORKLOADS
from repro.nn.models import MODEL_ZOO
from repro.workloads import (WorkloadEntry, WorkloadSpec, get_entry,
                             list_entries, model_factory, register,
                             register_spec, resolve, shape_factory,
                             spec_entries)


class TestResolve:
    def test_hit(self):
        assert resolve({"a": 1}, "a", "thing") == 1

    def test_miss_names_kind_and_choices(self):
        with pytest.raises(KeyError, match=r"unknown thing 'c'.*\['a', 'b'\]"):
            resolve({"b": 2, "a": 1}, "c", "thing")


class TestRawTables:
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_zoo_name_resolves_to_the_same_object(self, name):
        assert model_factory(name) is MODEL_ZOO[name]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_accelerator_name_resolves_to_the_same_object(self, name):
        assert shape_factory(name) is WORKLOADS[name]

    def test_zoo_model_output_is_bit_identical(self):
        a = model_factory("resnet18")(num_classes=5, seed=1)
        b = MODEL_ZOO["resnet18"](num_classes=5, seed=1)
        sd_a, sd_b = a.state_dict(), b.state_dict()
        assert sd_a.keys() == sd_b.keys()
        for key in sd_a:
            assert np.array_equal(sd_a[key], sd_b[key])

    def test_accelerator_table_is_bit_identical(self):
        assert shape_factory("alexnet")() == WORKLOADS["alexnet"]()

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            model_factory("resnet1234")
        with pytest.raises(KeyError, match="unknown workload"):
            shape_factory("resnet1234")


class TestRegistry:
    def test_zoo_and_accel_views_are_merged(self):
        entry = get_entry("resnet18")
        assert entry.has_model and entry.has_shapes
        assert entry.model_factory is MODEL_ZOO["resnet18"]
        assert entry.shape_factory is WORKLOADS["resnet18"]

    def test_spec_entries_carry_both_factories(self):
        names = {e.name for e in spec_entries()}
        assert {"transformer_block", "simple_detector", "deeplab_lite",
                "stress_gemm_tower", "stress_conv_ladder"} <= names
        for entry in spec_entries():
            assert entry.has_model and entry.has_shapes

    def test_transformer_table_lowers_attention(self):
        names = [s.name for s in shape_factory("transformer_block")()]
        assert {"attn.q", "attn.k", "attn.v", "attn.out"} <= set(names)

    def test_detection_segmentation_have_tables_now(self):
        for name in ("simple_detector", "deeplab_lite"):
            table = shape_factory(name)()
            assert table and all(s.num_weights > 0 for s in table)

    def test_shadow_entries_keep_hand_written_models(self):
        from repro.nn.models import deeplab_lite_mini, simple_detector_mini

        assert get_entry("simple_detector").model_factory is simple_detector_mini
        assert get_entry("deeplab_lite").model_factory is deeplab_lite_mini

    def test_missing_side_errors_name_the_alternatives(self):
        register(WorkloadEntry(name="shapes-only-test",
                               shape_factory=lambda: []), overwrite=True)
        with pytest.raises(KeyError, match="no executable model factory"):
            model_factory("shapes-only-test")
        register(WorkloadEntry(name="model-only-test",
                               model_factory=lambda **kw: None), overwrite=True)
        with pytest.raises(KeyError, match="no accelerator layer table"):
            shape_factory("model-only-test")

    def test_register_refuses_silent_overwrite(self):
        spec = WorkloadSpec(name="resnet18", input_shape=(8,), layers=[
            {"name": "fc", "op": "linear",
             "dims": {"in_features": 8, "out_features": 2}}])
        with pytest.raises(ValueError, match="already registered"):
            register_spec(spec)

    def test_user_registered_spec_resolves_everywhere(self):
        spec = WorkloadSpec(name="user-spec-test", input_shape=(16,), layers=[
            {"name": "fc", "op": "linear",
             "dims": {"in_features": 16, "out_features": 4}}])
        register_spec(spec, source="user", overwrite=True)
        model = model_factory("user-spec-test")(seed=0)
        assert model.forward(np.zeros((2, 16))).shape == (2, 4)
        assert shape_factory("user-spec-test")() == spec.layer_shapes()

    def test_list_entries_sorted(self):
        names = [e.name for e in list_entries()]
        assert names == sorted(names)
