"""``compress-cold``: repeated cold compression of the conv stack.

Every op runs ``Pipeline.run`` (group -> prune -> cluster -> quantize) on
the same spec-built model against a fresh disk ``ArtifactStore``, so
masked k-means and artifact writes do nearly all the work.  The worker
count is the affinity CPU count, which takes the parallel-compression
path on any multi-CPU host.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Dict, List

from mvqbench import probes
from mvqbench.common import (Phase, Workload, build_spec_model, closed_loop,
                             conv_stack_spec, digest, dir_bytes, median,
                             median_over, rel_sse)
from mvqbench.stats import self_times

#: k-means iteration cap: one compression takes a few seconds on 2 CPUs
ITERATIONS = 4
#: the model's weights are fixed, so every run compresses the same input
#: and ``compress_rel_sse`` repeats exactly; the run seed is not used
MODEL_SEED = 0


class CompressCold(Workload):
    def __init__(self, seed: int, workdir: Path):
        from repro.pipeline import PipelineConfig

        self.workdir = workdir
        self.workers = len(os.sched_getaffinity(0))
        self.config = PipelineConfig.from_dict({
            "preset": "mvq",
            "base": {"k": 256, "d": 8, "n_keep": 2, "m": 8,
                     "max_kmeans_iterations": ITERATIONS},
            "workers": self.workers,
        })
        self.digests: List[str] = []
        self.stores = 0
        self.compressed = None

    def setup(self) -> None:
        self.model = build_spec_model(conv_stack_spec(), MODEL_SEED)

    def teardown(self) -> None:
        self.model = None

    def measure(self, seconds: float, full: bool) -> Phase:
        from repro.pipeline import Pipeline
        from repro.pipeline.artifacts import ArtifactStore

        op_stats: List[Dict[str, float]] = []

        def run(index: int):
            self.stores += 1
            store = ArtifactStore(self.workdir / f"store-{self.stores}")
            return store, Pipeline(self.config, store=store).run(self.model)

        def post(index: int, outcome) -> float:
            store, result = outcome
            compressed = result.compressed
            self.digests.append(digest(compressed))
            stats = store.stats()
            op_stats.append({
                "misses": stats["misses"],
                "hit_ratio": stats["hits"] / max(1, stats["hits"] + stats["misses"]),
                "bytes": dir_bytes(store.cache_dir)})
            shutil.rmtree(store.cache_dir)
            if self.compressed is None:
                self.compressed = compressed
            return float(sum(state.num_subvectors for state in compressed))

        phase = closed_loop(run, post, seconds)
        phase.extra["op_stats"] = op_stats
        return phase

    def quality(self):
        return rel_sse(self.compressed), self.compressed.compression_ratio()

    def named(self, phase: Phase) -> Dict[str, object]:
        return {"compress_s": (median(phase.latencies), "s")}

    def check(self) -> List[str]:
        if len(set(self.digests)) > 1:
            return [f"compress-cold: {len(set(self.digests))} distinct "
                    "codebook/assignment/mask results across identical ops"]
        return []

    def layer_metrics(self, records, phase: Phase) -> Dict[str, float]:
        selfs = self_times(records)
        layers = len(self.compressed.layers)
        workers = max(1, min(self.workers, layers))
        stats = phase.extra["op_stats"]

        def kmeans(window):
            return probes.spans(records, "core.kmeans.layer", window)

        def stage_self(stage):
            return lambda w: sum(selfs[r["id"]] for r in probes.spans(
                records, f"pipeline.stage.{stage}", w))

        def kmeans_s(w):
            return sum(r["dur"] for r in kmeans(w))

        def evals_per_s(w):
            spans = kmeans(w)
            busy = sum(r["dur"] for r in spans)
            evals = sum(r["args"]["n"] * r["args"]["k"] * r["args"]["iterations"]
                        for r in spans)
            return evals / busy if busy else 0.0

        def efficiency(w):
            wall = probes.total(records, "pipeline.cluster.kmeans", w)
            return kmeans_s(w) / (wall * workers) if wall else 0.0

        windows = phase.windows
        return {
            "core.kmeans_s": median_over(windows, kmeans_s),
            "core.kmeans_iterations": median_over(
                windows, lambda w: sum(r["args"]["iterations"] for r in kmeans(w))),
            "core.assign_evals_per_s": median_over(windows, evals_per_s),
            "core.group_s": median_over(windows, stage_self("group")),
            "core.prune_s": median_over(windows, stage_self("prune")),
            "core.quantize_s": median_over(windows, stage_self("quantize")),
            "core.parallel_efficiency": median_over(windows, efficiency),
            "pipeline.store.write_s": median_over(
                windows, lambda w: probes.total(records, "bench.store.put", w)),
            "pipeline.store.read_s": median_over(
                windows, lambda w: probes.total(records, "bench.store.get", w)),
            "pipeline.store.bytes_written": median([s["bytes"] for s in stats]),
            "pipeline.store.misses": median([s["misses"] for s in stats]),
            "pipeline.store.hit_ratio": median([s["hit_ratio"] for s in stats]),
        }

