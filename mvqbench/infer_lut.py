"""``infer-lut``: offline batched inference on the exact LUT engine.

``auto`` never picks the codebook-domain engine on a CPU (cached dense is
20-60x faster), so this workload pins every compressed layer of the conv
stack to exact ``lut`` and times ``predict_batched`` at batch 8 on 7x7
activations.  Outputs must match the ``dense`` engine within a float64
relative tolerance.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import numpy as np

from mvqbench import probes
from mvqbench.common import (Phase, Workload, build_spec_model, closed_loop,
                             conv_stack_spec, median, median_over, rel_sse)

BATCH = 8
#: distinct batches the ops cycle through
BATCHES = 8
#: k-means iterations of the set-up compression; they shape the codebooks
#: but not the cost of a LUT forward
ITERATIONS = 1
#: float64 relative tolerance of LUT outputs against the dense engine
REL_TOL = 1e-9
#: fixed weights, so the compressed model repeats exactly across runs; the
#: run seed draws the input batches
MODEL_SEED = 0


class InferLut(Workload):
    def __init__(self, seed: int, workdir: Path):
        from repro.pipeline import PipelineConfig

        self.spec = conv_stack_spec()
        self.config = PipelineConfig.from_dict({
            "preset": "mvq",
            "base": {"k": 256, "d": 8, "max_kmeans_iterations": ITERATIONS}})
        self.inputs = np.random.default_rng([seed, 0]).standard_normal(
            (BATCHES * BATCH, *self.spec.input_shape))
        #: worst relative error of any LUT output against the dense engine;
        #: outputs are compared as they arrive and not kept
        self.worst = 0.0
        self.ops = 0

    def setup(self) -> None:
        from repro.nn.compressed import swap_to_compressed
        from repro.nn.serve import predict_batched
        from repro.pipeline import Pipeline
        from repro.pipeline.artifacts import ArtifactStore

        model = build_spec_model(self.spec, MODEL_SEED)
        self.compressed = Pipeline(self.config, store=ArtifactStore()).run(
            model).compressed
        swap_to_compressed(model, self.compressed, mode="lut")
        # the spec has conv layers only, so every block is a compressed conv
        self.layers = dict(model.named_layer_blocks())
        probes.name_layers(self.layers.items())
        self.model = model
        self._set_mode("dense")
        self.reference = predict_batched(model, self.inputs, batch_size=BATCH)
        self._set_mode("lut")
        predict_batched(model, self.inputs[:BATCH], batch_size=BATCH)

    def _set_mode(self, mode: str) -> None:
        for module in self.layers.values():
            module.engine.mode = mode

    def teardown(self) -> None:
        self.model = None

    def measure(self, seconds: float, full: bool) -> Phase:
        from repro.nn import serve as nn_serve

        def run(index: int):
            # ops cycle through the batches across set-ups, not per segment
            batch = self.ops % BATCHES
            self.ops += 1
            lo = batch * BATCH
            return batch, nn_serve.predict_batched(
                self.model, self.inputs[lo:lo + BATCH], batch_size=BATCH)

        def post(index: int, outcome) -> float:
            batch, out = outcome
            ref = self.reference[batch * BATCH:(batch + 1) * BATCH]
            self.worst = max(self.worst, float(np.linalg.norm(out - ref)
                                               / np.linalg.norm(ref)))
            return float(BATCH)

        return closed_loop(run, post, seconds)

    def quality(self):
        return rel_sse(self.compressed), self.compressed.compression_ratio()

    def named(self, phase: Phase) -> Dict[str, object]:
        return {"infer_samples_per_s": (self.throughput(phase), "1/s")}

    def check(self) -> List[str]:
        modes = {module.engine.last_mode for module in self.layers.values()}
        if modes != {"lut"}:
            return [f"infer-lut: layers ran in modes {sorted(modes)}, not lut"]
        if self.worst > REL_TOL:
            return [f"infer-lut: LUT outputs deviate from dense by rel err {self.worst:.3g}"]
        return []

    def _lookups_per_batch(self) -> float:
        """Table lookups one batch makes: every output position of every
        layer reads one routed partial product per subvector."""
        from repro.nn import functional as F

        total = 0
        h, w = self.spec.input_shape[1:]
        for module in self.layers.values():
            k, s, p = module.kernel_size, module.stride, module.padding
            h, w = F.conv_output_size(h, k, s, p), F.conv_output_size(w, k, s, p)
            total += BATCH * h * w * module.engine.serving_stats()["subvectors"]
        return float(total)

    def layer_metrics(self, records, phase: Phase) -> Dict[str, float]:
        def layer_ms(name):
            return median([r["dur"] for r in probes.spans(
                records, "bench.layer.forward", phase.window)
                if r["args"].get("layer") == name]) * 1e3

        metrics = {f"nn.lut.{name}_ms": layer_ms(name) for name in self.layers}
        metrics.update({
            "nn.lut_forward_ms": median_over(phase.windows, lambda w: probes.total(
                records, "bench.layer.forward", w)) * 1e3,
            "nn.lut_lookups_per_batch": self._lookups_per_batch(),
            "nn.lut_table_bytes": float(sum(m.engine.lut_table_bytes()
                                            for m in self.layers.values())),
            "nn.engine_modes.lut": float(sum(m.engine.last_mode == "lut"
                                             for m in self.layers.values())),
        })
        return metrics
