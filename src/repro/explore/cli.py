"""Command-line entry points of the design-space explorer.

::

    python -m repro.explore run space.json            # search-space JSON file
    python -m repro.explore run --scenario NAME       # registered space
    python -m repro.explore list-strategies
    python -m repro.explore list-spaces
    python -m repro.explore report frontier.json      # re-render a saved run

A JSON file may be a standalone :class:`SearchSpace` dict or a
:class:`PipelineConfig` dict carrying an ``explore`` section (the remainder
of the config is then the sweep's base pipeline).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core import telemetry
from repro.explore.runner import ExplorationResult, explore, render_report
from repro.explore.space import SearchSpace
from repro.explore.spaces import get_space, list_spaces
from repro.explore.strategies import list_strategies


def _print_result(result: ExplorationResult) -> None:
    stats = result.stats
    print(f"[explore] space {result.space.name!r}: strategy "
          f"{result.strategy}, {stats['candidates']} candidates evaluated "
          f"in {stats['seconds']:.2f}s "
          f"({stats['workers']} workers)")
    print(f"[explore] cluster cache: "
          f"{stats['cluster_layers_cached']} layer results reused, "
          f"{stats['cluster_layers_fresh']} clustered fresh "
          f"(store: {stats['store_hits']} hits / "
          f"{stats['store_misses']} misses)")
    if stats.get("shared"):
        print(f"[explore] shared runs: {stats['shared']} accelerator-only "
              f"variants priced on another candidate's compress + "
              f"serve_eval run")
    if stats.get("retried"):
        print(f"[explore] transient failures retried: {stats['retried']}")
    for error in stats["errors"]:
        print(f"[explore] candidate {error['index']} failed "
              f"({error.get('error_type')}, "
              f"{error.get('attempts', 1)} attempts): "
              f"{error['error']}", file=sys.stderr)
    print(f"[explore] Pareto frontier: {len(result.frontier)} of "
          f"{len(result.ok_results)} feasible points "
          f"({stats['dominated']} dominated)")
    if len(result.frontier):
        print()
        print(result.to_markdown())
        best = result.best()
        print(f"[explore] best (scalarized): candidate "
              f"{best.candidate.index} {best.candidate.values_dict} -> "
              f"{ {k: round(v, 4) for k, v in best.objectives.items()} }")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Design-space exploration over compression x "
                    "accelerator configs")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a search from a JSON space or a "
                                       "registered space")
    run_p.add_argument("space", nargs="?", default=None,
                       help="JSON file: a SearchSpace dict or a "
                            "PipelineConfig dict with an 'explore' section")
    run_p.add_argument("--scenario", default=None,
                       help="name of a registered search space")
    run_p.add_argument("--strategy", default=None,
                       help="override the space's strategy "
                            "(grid | random | halving)")
    run_p.add_argument("--budget", type=int, default=None,
                       help="override the space's candidate budget")
    run_p.add_argument("--workers", type=int, default=None,
                       help="evaluator pool size (default: CPU count)")
    run_p.add_argument("--cache-dir", default=None,
                       help="artifact cache directory shared across "
                            "candidates (and across runs)")
    run_p.add_argument("--output", default=None,
                       help="write the JSON exploration report to this path")
    run_p.add_argument("--csv", default=None,
                       help="write the frontier as CSV to this path")
    run_p.add_argument("--markdown", default=None,
                       help="write the frontier markdown table to this path")
    run_p.add_argument("--register", action="store_true",
                       help="register the frontier's best point as a "
                            "pipeline scenario (explore-<space>-best)")
    run_p.add_argument("--retries", type=int, default=2,
                       help="retry budget per failing candidate before it "
                            "is recorded as a typed failure (default: 2)")
    run_p.add_argument("--faults", type=float, default=0.0, metavar="RATE",
                       help="chaos session: inject faults at this "
                            "probability into candidate evaluation and the "
                            "artifact store (0 disables; see README "
                            "'Robustness & fault injection')")
    run_p.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the injected fault plan (same seed = "
                            "bit-identical chaos)")
    run_p.add_argument("--trace", default=None, metavar="OUT.json",
                       help="record a trace of the sweep (per-candidate "
                            "spans grouped by wave) and write it as Chrome "
                            "trace-event JSON; OUT.jsonl is written too")

    sub.add_parser("list-strategies", help="print the strategy registry")
    sub.add_parser("list-spaces", help="print the search-space registry")

    report_p = sub.add_parser("report", help="re-render a saved exploration "
                                             "report's frontier")
    report_p.add_argument("report", help="JSON report written by run --output")
    report_p.add_argument("--format", default="markdown",
                          choices=("markdown", "csv", "json"))

    args = parser.parse_args(argv)

    if args.command == "list-strategies":
        for info in list_strategies():
            print(f"{info.name:<10s} {info.description}")
        return 0

    if args.command == "list-spaces":
        for space in list_spaces():
            print(f"{space.name:<20s} model={space.model:<14s} "
                  f"strategy={space.strategy:<8s} "
                  f"grid={space.grid_size:<4d} {space.description}")
        return 0

    if args.command == "report":
        report = json.loads(Path(args.report).read_text())
        print(render_report(report, fmt=args.format))
        return 0

    if (args.space is None) == (args.scenario is None):
        print("run: provide exactly one of a space file or --scenario",
              file=sys.stderr)
        return 2

    if args.scenario is not None:
        space = get_space(args.scenario)
    else:
        space = SearchSpace.from_dict(json.loads(Path(args.space).read_text()))

    tracer = telemetry.enable() if args.trace else None

    if args.faults > 0.0:
        from repro.core.faults import FaultPlan, FaultRule

        plan = FaultPlan([
            FaultRule("explore.candidate.eval", probability=args.faults),
            FaultRule("artifacts.store.write", probability=args.faults / 4,
                      kind="corrupt"),
        ], seed=args.fault_seed)
        print(f"[explore] chaos session: fault rate {args.faults} "
              f"(seed {args.fault_seed})")
        with plan.active():
            result = explore(space, strategy=args.strategy,
                             budget=args.budget, cache_dir=args.cache_dir,
                             workers=args.workers, retries=args.retries)
        summary = plan.summary()
        print(f"[explore] injected faults: "
              f"{ {k: v for k, v in summary['injections'].items() if v} }")
    else:
        result = explore(space, strategy=args.strategy, budget=args.budget,
                         cache_dir=args.cache_dir, workers=args.workers,
                         retries=args.retries)
    _print_result(result)

    telemetry_summary = None
    if tracer is not None:
        telemetry_summary = tracer.summary()
        tracer.export_chrome(args.trace)
        tracer.export_jsonl(str(Path(args.trace).with_suffix(".jsonl")))
        telemetry.disable()
        for line in telemetry.format_summary(telemetry_summary,
                                             prefix="[explore]"):
            print(line)
        print(f"[explore] wrote trace {args.trace} "
              f"(open at https://ui.perfetto.dev)")

    # write the reports even for a failed sweep: stats.errors and the
    # per-candidate records are exactly what debugging it needs
    if args.output:
        if telemetry_summary is not None:
            report = result.report()
            report["telemetry"] = telemetry_summary
            Path(args.output).write_text(
                json.dumps(report, indent=2, sort_keys=True, default=str))
        else:
            result.save(args.output)
        print(f"[explore] wrote {args.output}")
    if args.csv:
        Path(args.csv).write_text(result.to_csv())
        print(f"[explore] wrote {args.csv}")
    if args.markdown:
        Path(args.markdown).write_text(result.to_markdown())
        print(f"[explore] wrote {args.markdown}")

    if not len(result.frontier):
        print("[explore] ERROR: no feasible candidate survived — empty "
              "frontier", file=sys.stderr)
        return 1

    if args.register:
        scenario = result.register_best()
        print(f"[explore] registered scenario {scenario.name!r} "
              "(this process)")
    return 0
