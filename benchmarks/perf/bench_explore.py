"""Design-space exploration throughput: parallel fan-out + cache reuse.

Runs one small random search three ways and reports the two scale-free
ratios the perf gate tracks:

* ``speedup_parallel_vs_sequential`` — the same sweep with the evaluator's
  thread pool vs one worker (1.0 on single-CPU hosts, where the pool is
  capped to the CPUs actually available);
* ``cache_speedup`` — the sweep re-run against its own warm artifact store:
  zero re-clustering, so the ratio is the clustering share of the sweep.

Hard correctness gates ride along: the frontier must be non-empty, the
sweep must reuse cluster results across neighboring candidates (>= 1
cache hit), the parallel run must produce objective-identical results to
the sequential one, and the warm re-run must cluster nothing.  On hosts
with two or more CPUs the parallel sweep must also not lose to the
sequential one (``speedup_parallel_vs_sequential >= 1``).

``--quick`` runs the smoke-sized search standalone and exits non-zero on
any hard-gate failure (the CI ``explore-smoke`` job).
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from typing import Dict

if __package__ in (None, ""):  # running as a plain script
    _root = Path(__file__).resolve().parents[2]
    for entry in (_root, _root / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from repro.core import cpu
from repro.explore import SearchSpace, explore
from repro.pipeline.artifacts import ArtifactStore

FULL = dict(k=48, iterations=12, budget=8, serve_samples=8)
SMOKE = dict(k=12, iterations=5, budget=6, serve_samples=4)


def _space(p: Dict[str, int]) -> SearchSpace:
    """8-point grid: 4 clustering signatures x 2 accelerator variants, so a
    cold sweep already reuses cluster results across neighbors."""
    return SearchSpace.from_dict({
        "name": "bench-explore",
        "model": "resnet18",
        "model_kwargs": {"num_classes": 5, "seed": 1},
        "workload": "resnet18",
        "strategy": "random",
        "budget": p["budget"],
        "pipeline": {
            "preset": "mvq",
            "base": {"k": p["k"], "max_kmeans_iterations": p["iterations"]},
            "stages": ["group", "prune", "cluster", "quantize", "serve_eval",
                       "accel_eval"],
            "serve": {"batch_size": 4, "num_samples": p["serve_samples"]},
            "data": {"num_samples": 32, "image_size": 16, "num_classes": 5},
            "accelerator": {"setting": "EWS-CMS", "array_size": 64},
        },
        "axes": [
            {"path": "base.k", "values": [p["k"], p["k"] + p["k"] // 2]},
            {"pattern": "stem.*", "field": "n_keep", "values": [2, 4]},
            {"path": "accelerator.array_size", "values": [32, 64]},
        ],
    })


def _objective_table(result) -> Dict[int, Dict[str, float]]:
    return {r.candidate.index: r.objectives for r in result.ok_results}


def run(smoke: bool = False) -> Dict[str, object]:
    p = SMOKE if smoke else FULL
    space = _space(p)
    # single sweeps (~0.5s smoke, ~1s full) vary by +-20%, the sequential
    # ones most — report medians (a best-of would favour the noisier side);
    # sequential and parallel sweeps alternate so a drift in host speed
    # hits both sides alike
    repeats = 5 if smoke else 3

    cold_runs, parallel_runs = [], []
    for _ in range(repeats):
        store = ArtifactStore()
        cold_runs.append(explore(space, store=store, workers=1))
        parallel_runs.append(explore(space, store=ArtifactStore(),
                                     workers=None))
    warm_runs = [explore(space, store=store, workers=1)
                 for _ in range(repeats)]
    cold, parallel, warm = cold_runs[0], parallel_runs[0], warm_runs[0]
    cold_s, parallel_s, warm_s = (
        statistics.median(r.stats["seconds"] for r in runs)
        for runs in (cold_runs, parallel_runs, warm_runs))
    return {
        "workload": {"model": "resnet18", "budget": p["budget"],
                     "grid_size": space.grid_size, "k": p["k"],
                     "iterations": p["iterations"]},
        "workers_parallel": parallel.stats["workers"],
        "sequential_seconds": cold_s,
        "parallel_seconds": parallel_s,
        "speedup_parallel_vs_sequential": cold_s / max(parallel_s, 1e-12),
        "warm_seconds": warm_s,
        "cache_speedup": cold_s / max(warm_s, 1e-12),
        "candidates": cold.stats["candidates"],
        "frontier_size": cold.stats["frontier_size"],
        "cold_cluster_layers_cached": cold.stats["cluster_layers_cached"],
        "cold_cluster_layers_fresh": cold.stats["cluster_layers_fresh"],
        "warm_cluster_layers_fresh": warm.stats["cluster_layers_fresh"],
        "parallel_matches_sequential": (
            _objective_table(cold) == _objective_table(parallel)),
        "warm_matches_cold": _objective_table(cold) == _objective_table(warm),
    }


def check_report(report: Dict[str, object]):
    """Hard failures for the perf runner's exit code."""
    errors = []
    if not report["frontier_size"]:
        errors.append("exploration produced an empty Pareto frontier")
    if int(report["cold_cluster_layers_cached"]) < 1:
        errors.append("cold sweep reused no cluster results across "
                      "neighboring candidates")
    if int(report["warm_cluster_layers_fresh"]) != 0:
        errors.append("warm re-run of the sweep re-clustered layers")
    if not report["parallel_matches_sequential"]:
        errors.append("parallel sweep diverged from sequential results")
    speedup = report["speedup_parallel_vs_sequential"]
    cpus = cpu.available_cpus()
    if cpus >= 2 and speedup < 1.0:
        errors.append(f"parallel sweep is {speedup:.2f}x the sequential one "
                      f"on a {cpus}-CPU host (must not be slower)")
    if not report["warm_matches_cold"]:
        errors.append("warm-cache sweep diverged from cold results")
    return errors


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-sized search, hard gates only (CI)")
    parser.add_argument("--output", default=None,
                        help="write the JSON section to this path")
    args = parser.parse_args(argv)

    report = run(smoke=args.quick)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output:
        Path(args.output).write_text(
            json.dumps({"explore": report}, indent=2, sort_keys=True) + "\n")
    errors = check_report(report)
    for error in errors:
        print(f"[bench_explore] ERROR: {error}", file=sys.stderr)
    if not errors:
        print(f"[bench_explore] ok: frontier {report['frontier_size']} points, "
              f"{report['cold_cluster_layers_cached']} cluster results reused, "
              f"parallel {report['speedup_parallel_vs_sequential']:.2f}x, "
              f"warm cache {report['cache_speedup']:.2f}x")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
