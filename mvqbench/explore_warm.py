"""``explore-warm``: repeated design-space sweeps against a warm store.

Set-up runs one cold ``models-grid`` sweep (16 candidates, two model
families) into a disk ``ArtifactStore``.  Every op then sweeps again
through a fresh store object over the same directory, so all cluster
results are disk *reads* (expect 120 hits, 0 misses per sweep) and the
work left is engine construction in ``serve_eval``, the evaluator pool
and the accelerator model — k-means does nothing.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Dict, List

from mvqbench import probes
from mvqbench.common import Phase, Workload, closed_loop, median, median_over, rel_sse
from mvqbench.stats import self_times


def _outcomes(result):
    """Per-candidate objectives and simulated accelerator numbers."""
    return sorted((r.candidate.index, tuple(sorted(r.objectives.items())),
                   r.report["accel"].get("runtime_ms"),
                   r.report["accel"].get("energy_mj_per_frame"))
                  for r in result.ok_results)


class ExploreWarm(Workload):
    def __init__(self, seed: int, workdir: Path):
        from repro.explore import get_space

        # the grid fixes every input (models, seeds, data), so runs differ
        # only in timing; the seed is not used
        self.workdir = workdir
        self.space = get_space("models-grid")
        self.workers = len(os.sched_getaffinity(0))
        self.setups = 0
        self.errors: List[str] = []

    def setup(self) -> None:
        from repro.explore import explore
        from repro.pipeline.artifacts import ArtifactStore

        self.setups += 1
        self.cache_dir = self.workdir / f"explore-store-{self.setups}"
        cold = explore(self.space, store=ArtifactStore(self.cache_dir),
                       workers=self.workers)
        self.cold = _outcomes(cold)
        self.cold_frontier = sorted(tuple(sorted(p.objectives.items()))
                                    for p in cold.frontier.points)

    def teardown(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def measure(self, seconds: float, full: bool) -> Phase:
        from repro.explore import explore
        from repro.pipeline.artifacts import ArtifactStore

        sweeps: List[Dict[str, float]] = []

        def run(index: int):
            return explore(self.space, store=ArtifactStore(self.cache_dir),
                           workers=self.workers)

        def post(index: int, result) -> float:
            stats = result.stats
            if stats["store_misses"] or result.errors:
                self.errors.append(
                    f"explore-warm: sweep {index} had {stats['store_misses']} store "
                    f"misses and {len(result.errors)} failed candidates")
            if _outcomes(result) != self.cold:
                self.errors.append(f"explore-warm: sweep {index} objectives or "
                                   "accelerator stats differ from the cold sweep")
            frontier = sorted(tuple(sorted(p.objectives.items()))
                              for p in result.frontier.points)
            if frontier != self.cold_frontier:
                self.errors.append(f"explore-warm: sweep {index} frontier differs "
                                   "from the cold sweep")
            accel = [r.report["accel"] for r in result.ok_results]
            sweeps.append({
                "hit_ratio": stats["store_hits"] / max(
                    1, stats["store_hits"] + stats["store_misses"]),
                "sim_latency_ms": sum(a["runtime_ms"] for a in accel) / len(accel),
                "sim_energy_mj": sum(a["energy_mj_per_frame"] for a in accel) / len(accel),
            })
            return float(len(result.results))

        phase = closed_loop(run, post, seconds)
        phase.extra["sweeps"] = sweeps
        return phase

    def quality(self):
        """Compression quality of candidate 0, recompressed from the warm store."""
        from repro.pipeline import Pipeline
        from repro.pipeline.artifacts import ArtifactStore
        from repro.pipeline.config import CORE_STAGES
        from repro.pipeline.scenarios import Scenario

        candidate = self.space.grid()[0]
        scenario = Scenario.from_dict({**candidate.scenario_spec(),
                                       "name": "explore-warm-quality"})
        compressed = Pipeline(scenario.pipeline_config(),
                              store=ArtifactStore(self.cache_dir)).run(
            scenario.build_model(), stages=CORE_STAGES).compressed
        return rel_sse(compressed), compressed.compression_ratio()

    def named(self, phase: Phase) -> Dict[str, object]:
        return {"explore_candidates_per_s": (self.throughput(phase), "1/s")}

    def check(self) -> List[str]:
        return self.errors

    def layer_metrics(self, records, phase: Phase) -> Dict[str, float]:
        selfs = self_times(records)
        windows = phase.windows
        sweeps = phase.extra["sweeps"]
        lo, hi = phase.window
        candidates = [r["dur"] for r in probes.spans(records, "explore.candidate", (lo, hi))]
        accel = [r["dur"] for r in probes.spans(records, "pipeline.stage.accel_eval", (lo, hi))]
        return {
            "pipeline.store.read_s": median_over(
                windows, lambda w: probes.total(records, "bench.store.get", w)),
            "pipeline.store.write_s": median_over(
                windows, lambda w: probes.total(records, "bench.store.put", w)),
            "pipeline.store.hit_ratio": median([s["hit_ratio"] for s in sweeps]),
            "pipeline.serve_eval_s": median_over(windows, lambda w: sum(
                selfs[r["id"]] for r in probes.spans(records, "pipeline.stage.serve_eval", w))),
            "pipeline.serve_eval.forward_s": median_over(
                windows, lambda w: probes.total(records, "pipeline.serve_eval.forward", w)),
            "explore.candidate_p50_ms": median(candidates) * 1e3,
            "explore.parallel_efficiency": median_over(windows, lambda w: probes.total(
                records, "explore.candidate", w) / ((w[1] - w[0]) * self.workers)),
            "accelerator.accel_eval_ms": median(accel) * 1e3,
            "accelerator.sim_latency_ms": median([s["sim_latency_ms"] for s in sweeps]),
            "accelerator.sim_energy_mj": median([s["sim_energy_mj"] for s in sweeps]),
        }
