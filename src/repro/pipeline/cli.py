"""Command-line entry points of the pipeline.

::

    python -m repro.pipeline run cfg.json           # scenario-spec JSON file
    python -m repro.pipeline run --scenario NAME    # registered scenario
    python -m repro.pipeline list-scenarios
    python -m repro.pipeline list-stages

A JSON file may be either a full scenario spec (a dict with a ``pipeline``
key, plus ``model``/``workload``) or a bare :class:`PipelineConfig` dict —
the latter runs against ``--model`` (default ``resnet18``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from repro.core import cpu, telemetry
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import PipelineResult
from repro.pipeline.scenarios import Scenario, list_scenarios, run_scenario
from repro.pipeline.stages import available_stages


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays so json.dumps succeeds."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


#: pipeline used when a bare workload-spec JSON is run directly; the spec's
#: ``meta["pipeline"]`` dict overrides any of these keys
_SPEC_SMOKE_PIPELINE = {
    "preset": "mvq",
    "base": {"k": 24, "max_kmeans_iterations": 10},
    "include_linear": True,
    "stages": ["group", "prune", "cluster", "quantize", "export",
               "serve_eval", "accel_eval"],
    "serve": {"batch_size": 4, "num_samples": 8},
    "accelerator": {"setting": "EWS-CMS", "array_size": 64},
}


def _scenario_from_file(path: str, model: str) -> Scenario:
    data = json.loads(Path(path).read_text())
    if "layers" in data:
        # declarative workload spec: validate it, then wrap into a scenario
        # that builds the model AND the accelerator table from the spec
        from repro.workloads import WorkloadSpec

        spec = WorkloadSpec.from_dict(data)
        pipeline = dict(_SPEC_SMOKE_PIPELINE)
        pipeline.update(spec.meta.get("pipeline", {}))
        return Scenario(name=spec.name,
                        description=spec.description or f"workload file {path}",
                        model=spec.name, workload_spec=data, pipeline=pipeline)
    if "pipeline" in data:
        return Scenario.from_dict(data)
    # bare PipelineConfig dict: validate it, then wrap into an ad-hoc scenario
    PipelineConfig.from_dict(data)
    return Scenario(name=Path(path).stem, description=f"config file {path}",
                    model=model, model_kwargs={"num_classes": 5, "seed": 1},
                    pipeline=data)


def _print_result(result: PipelineResult) -> None:
    for event in result.events:
        detail = {k: v for k, v in event.items() if k not in ("stage", "status")}
        line = f"[pipeline] {event['stage']:<10s} {event['status']}"
        if detail:
            line += "  " + json.dumps(_jsonable(detail), default=str)
        print(line)
    if result.compressed is not None:
        print(f"[pipeline] compression ratio: "
              f"{result.compressed.compression_ratio():.1f}x  "
              f"sparsity: {result.compressed.sparsity():.0%}")
    serve = result.artifacts.get("serve_report")
    if serve:
        print(f"[pipeline] serving: {serve['throughput_sps']:.1f} samples/s, "
              f"max |diff| vs dense reference {serve['max_abs_diff']:.2e}")
    accel = result.artifacts.get("accel_report")
    if accel:
        print(f"[pipeline] accelerator ({accel['workload']}, {accel['setting']}-"
              f"{accel['array_size']}): {accel['runtime_ms']:.2f} ms/frame, "
              f"{accel['efficiency_tops_w']:.2f} TOPS/W")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline",
        description="Declarative MVQ compression pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a pipeline from a JSON config or "
                                       "a registered scenario")
    run_p.add_argument("config", nargs="?", default=None,
                       help="JSON file: a scenario spec or a PipelineConfig dict")
    run_p.add_argument("--scenario", default=None,
                       help="name of a registered scenario")
    run_p.add_argument("--model", default="resnet18",
                       help="model-zoo entry for bare PipelineConfig files")
    run_p.add_argument("--stages", default=None,
                       help="comma-separated stage list overriding the config")
    run_p.add_argument("--cache-dir", default=None,
                       help="artifact cache directory (warm re-runs skip "
                            "clustering)")
    run_p.add_argument("--output", default=None,
                       help="write the JSON run report to this path")
    run_p.add_argument("--trace", default=None, metavar="OUT.json",
                       help="record a trace of the run and write it as "
                            "Chrome trace-event JSON (open in Perfetto or "
                            "chrome://tracing); OUT.jsonl is written too")

    sub.add_parser("list-scenarios", help="print the scenario registry")
    sub.add_parser("list-stages", help="print the stage registry")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for scenario in list_scenarios():
            print(f"{scenario.name:<32s} model={scenario.model:<14s} "
                  f"workload={scenario.workload or '-':<14s} "
                  f"{scenario.description}")
        return 0

    if args.command == "list-stages":
        for name, info in sorted(available_stages().items()):
            requires = ",".join(info.requires) or "-"
            print(f"{name:<12s} requires: {requires:<28s} {info.description}")
        return 0

    if (args.config is None) == (args.scenario is None):
        print("run: provide exactly one of a config file or --scenario",
              file=sys.stderr)
        return 2

    scenario = (args.scenario if args.scenario is not None
                else _scenario_from_file(args.config, args.model))
    stages = args.stages.split(",") if args.stages else None
    tracer = telemetry.enable() if args.trace else None
    result = run_scenario(scenario, stages=stages, cache_dir=args.cache_dir)
    _print_result(result)

    store = getattr(result.context, "store", None)
    store_stats = store.stats() if store is not None else None
    if store_stats is not None:
        print("[pipeline] artifact store: "
              f"{store_stats['hits']} hits, {store_stats['misses']} misses, "
              f"{store_stats['quarantined']} quarantined, "
              f"{store_stats['lock_takeovers']} lock takeovers")

    summary = None
    if tracer is not None:
        summary = tracer.summary()
        tracer.export_chrome(args.trace)
        tracer.export_jsonl(str(Path(args.trace).with_suffix(".jsonl")))
        telemetry.disable()
        for line in telemetry.format_summary(summary, prefix="[pipeline]"):
            print(line)
        print(f"[pipeline] wrote trace {args.trace} "
              f"(open at https://ui.perfetto.dev)")

    if args.output:
        report = _jsonable(result.report())
        report["cpu"] = cpu.policy()
        if store_stats is not None:
            report["artifact_store"] = store_stats
        if summary is not None:
            report["telemetry"] = _jsonable(summary)
        Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True)
                                     + "\n")
        print(f"[pipeline] wrote {args.output}")
    return 0
