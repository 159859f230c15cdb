"""Command-line front end: ``python -m repro.serve``.

Loads one or more compressed models (scenario registry or ``.npz``
manifest), starts the dynamic-batching :class:`~repro.serve.server.ModelServer`
and speaks newline-delimited JSON over stdin/stdout (``--stdin-jsonl``,
the default) or a threaded TCP socket (``--port``).

Protocol (one JSON object per line)::

    {"id": 1, "model": "quickstart-resnet18", "input": [[...]]}
    {"id": 2, "synthetic": true, "seed": 7}        # random input, load-gen
    {"cmd": "stats"}                               # JSON stats report

Responses preserve input order::

    {"id": 1, "output": [...], "latency_ms": 3.1}
    {"id": 2, "error": "server overloaded", "shed": true}

Requests are submitted as soon as their line is read and only *awaited*
once a lookahead window fills, so a fast client (or the bundled load
generator) keeps the batcher's queue populated and gets coalesced batches
— piping one request at a time still works, it just serves at batch size 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import socketserver
import sys
from collections import deque
from typing import Any, Dict, Optional, TextIO, Tuple

import numpy as np

from repro.core import telemetry
from repro.nn.compressed import MODES
from repro.serve.errors import ManifestError, error_payload
from repro.serve.loader import load_npz, load_scenario
from repro.serve.server import FaultPolicy, ModelServer, serving_chaos_plan


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Dynamic-batching model server for compressed inference.")
    source = parser.add_argument_group("model sources")
    source.add_argument("--scenario", action="append", default=[],
                        metavar="NAME",
                        help="serve a pipeline scenario (repeatable for a "
                             "multi-model server)")
    source.add_argument("--npz", metavar="PATH",
                        help="serve a serialized compressed-model archive")
    source.add_argument("--model", metavar="ZOO_NAME",
                        help="model-zoo architecture of the --npz archive")
    source.add_argument("--cache-dir", default=None,
                        help="pipeline artifact cache (warm cluster cache "
                             "makes scenario loading near-instant)")
    batching = parser.add_argument_group("batching policy")
    batching.add_argument("--max-batch-size", type=int, default=None)
    batching.add_argument("--max-wait-ms", type=float, default=None,
                          help="accepted for saved configs; dispatch is "
                               "work-conserving, so it delays nothing")
    batching.add_argument("--max-queue-size", type=int, default=None)
    batching.add_argument("--overload", choices=("shed", "block"), default=None)
    batching.add_argument("--workers", type=int, default=1,
                          help="workers (= model replicas) per model")
    batching.add_argument("--worker-mode", choices=("thread", "process"),
                          default="thread",
                          help="thread replicas (default) or sharded worker "
                               "processes over a zero-copy shared-memory "
                               "arena (see README 'Sharded serving')")
    batching.add_argument("--engine-mode",
                          choices=MODES,
                          default=None,
                          help="compressed-engine execution mode (default: "
                               "the scenario serving section's engine_mode, "
                               "else auto; auto spells dense and centroid "
                               "spells lut)")
    robustness = parser.add_argument_group("robustness")
    robustness.add_argument("--max-retries", type=int, default=None,
                            help="retry budget per request after replica "
                                 "failures (default 2)")
    robustness.add_argument("--deadline-ms", type=float, default=None,
                            help="per-request deadline; expired requests "
                                 "resolve with a timeout error (default: none)")
    robustness.add_argument("--faults", type=float, default=0.0, metavar="RATE",
                            help="chaos session: inject replica faults at "
                                 "this probability (0 disables; see README "
                                 "'Robustness & fault injection')")
    robustness.add_argument("--fault-seed", type=int, default=0,
                            help="seed of the injected fault plan (same "
                                 "seed = identical chaos)")
    transport = parser.add_argument_group("transport")
    transport.add_argument("--stdin-jsonl", action="store_true",
                           help="serve JSONL over stdin/stdout (default)")
    transport.add_argument("--port", type=int, default=None,
                           help="serve JSONL over TCP on this port instead")
    transport.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--lookahead", type=int, default=None,
                        help="max in-flight requests per connection before "
                             "responses are awaited (default 4x batch size)")
    parser.add_argument("--stats", action="store_true",
                        help="print the final stats report to stderr")
    parser.add_argument("--trace", default=None, metavar="OUT.json",
                        help="record a trace of the serving session and "
                             "write it as Chrome trace-event JSON (open in "
                             "Perfetto or chrome://tracing); with process "
                             "workers their spans are merged into one tree; "
                             "OUT.jsonl is written too")
    return parser


def _response(request_id: Any, handle, timeout: float = 60.0) -> Dict[str, Any]:
    try:
        output = handle.result(timeout)
    except Exception as error:  # noqa: BLE001 - report per-request, keep serving
        return error_payload(error, request_id)
    return {"id": request_id,
            "output": np.asarray(output).tolist(),
            "latency_ms": round(handle.latency_s * 1e3, 3)}


class JsonlSession:
    """One JSONL request stream served with submit-ahead/await-later."""

    def __init__(self, server: ModelServer, default_model: Optional[str],
                 shapes: Dict[str, Tuple[int, ...]], lookahead: int = 32):
        self.server = server
        self.default_model = default_model
        self.shapes = shapes
        self.lookahead = max(1, lookahead)

    def _input_for(self, request: Dict[str, Any], model: Optional[str]) -> np.ndarray:
        if request.get("synthetic"):
            key = model if model is not None else self.default_model
            shape = self.shapes[key]
            rng = np.random.default_rng(int(request.get("seed", 0)))
            return rng.standard_normal(shape)
        return np.asarray(request["input"], dtype=np.float64)

    def run(self, lines, out: TextIO) -> None:
        pending: deque = deque()        # (request_id, handle) in arrival order

        def flush(everything: bool) -> None:
            while pending and (everything or pending[0][1].done()
                               or len(pending) >= self.lookahead):
                request_id, handle = pending.popleft()
                out.write(json.dumps(_response(request_id, handle)) + "\n")
            out.flush()

        def reject(payload: Dict[str, Any]) -> None:
            # errors are emitted in stream position: everything submitted
            # before the bad line is answered first, then the error object
            flush(True)
            out.write(json.dumps(payload) + "\n")
            out.flush()

        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                reject({"error": f"bad json: {error}",
                        "error_type": "JSONDecodeError"})
                continue
            if not isinstance(request, dict):
                # a malformed-but-valid-JSON line (a bare list, string,
                # number...) must not tear down the session loop
                reject({"error": "request must be a JSON object, got "
                                 f"{type(request).__name__}",
                        "error_type": "BadRequest"})
                continue
            if request.get("cmd") == "stats":
                flush(True)  # stats reflect every request seen so far
                out.write(json.dumps(self.server.stats_report()) + "\n")
                out.flush()
                continue
            request_id = request.get("id")
            model = request.get("model", self.default_model)
            try:
                handle = self.server.submit(model, self._input_for(request, model))
            except Exception as error:  # noqa: BLE001 - any bad line answers
                # structured (overload carries shed:true, serving errors
                # their code) and the session keeps serving the stream
                reject(error_payload(error, request_id))
                continue
            pending.append((request_id, handle))
            flush(False)
        flush(True)


def _tcp_server(session: JsonlSession, host: str, port: int):
    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            reader = (raw.decode("utf-8") for raw in self.rfile)

            class _Out:
                def write(inner, text: str) -> None:
                    self.wfile.write(text.encode("utf-8"))

                def flush(inner) -> None:
                    self.wfile.flush()

            session.run(reader, _Out())

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    return Server((host, port), Handler)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.scenario and not args.npz:
        parser.error("need at least one model: --scenario NAME or --npz PATH")
    if args.npz and not args.model:
        parser.error("--npz requires --model (the zoo architecture)")
    if args.stdin_jsonl and args.port is not None:
        parser.error("--stdin-jsonl and --port are mutually exclusive")

    # enable tracing before any pool is built: worker processes inherit the
    # trace flag through the pool spec at construction time
    tracer = telemetry.enable() if args.trace else None

    # in process mode the in-process model is only the arena's state source;
    # the serving replicas are worker processes built by the pool
    replicas_in_process = 1 if args.worker_mode == "process" else args.workers
    loaded = []
    try:
        for scenario_name in args.scenario:
            print(f"[serve] loading scenario {scenario_name!r} ...",
                  file=sys.stderr, flush=True)
            loaded.append(load_scenario(scenario_name, mode=args.engine_mode,
                                        replicas=replicas_in_process,
                                        cache_dir=args.cache_dir))
        if args.npz:
            print(f"[serve] loading archive {args.npz!r} ({args.model}) ...",
                  file=sys.stderr, flush=True)
            loaded.append(load_npz(args.npz, args.model, mode=args.engine_mode,
                                   replicas=replicas_in_process))
    except ManifestError as error:
        # a broken deploy artifact is an operator problem, not a traceback:
        # say which file (and array) and exit non-zero
        print(f"[serve] ERROR: {error}", file=sys.stderr)
        return 1

    fault_policy = None
    if args.max_retries is not None or args.deadline_ms is not None:
        fault_policy = FaultPolicy(
            max_retries=args.max_retries if args.max_retries is not None else 2,
            deadline_ms=args.deadline_ms)
    server = ModelServer()
    pools = []
    for model in loaded:
        if args.worker_mode == "process":
            policy = model.policy(
                max_batch_size=args.max_batch_size,
                max_wait_ms=args.max_wait_ms,
                max_queue_size=args.max_queue_size,
                overload=args.overload)
            pool = model.process_pool(workers=args.workers,
                                      mode=args.engine_mode,
                                      max_batch_size=policy.max_batch_size)
            pools.append(pool)
            pool.register_with(server, model.name, policy=policy,
                               fault_policy=fault_policy)
        else:
            model.register_with(
                server,
                fault_policy=fault_policy,
                max_batch_size=args.max_batch_size,
                max_wait_ms=args.max_wait_ms,
                max_queue_size=args.max_queue_size,
                overload=args.overload,
            )
        print(f"[serve] registered {model.name!r} "
              f"(CR {model.meta['compression_ratio']:.1f}x, "
              f"{model.meta['layers']} compressed layers, "
              f"{args.workers} {args.worker_mode} worker(s))",
              file=sys.stderr, flush=True)

    session = JsonlSession(
        server, default_model=loaded[0].name,
        shapes={m.name: m.input_shape for m in loaded},
        lookahead=args.lookahead or 4 * next(
            iter(server.stats_report()["policies"].values()))["max_batch_size"])

    plan = None
    chaos = contextlib.nullcontext()
    if args.faults > 0.0:
        plan = serving_chaos_plan(args.faults, seed=args.fault_seed)
        chaos = plan.active()
        print(f"[serve] chaos session: fault rate {args.faults} "
              f"(seed {args.fault_seed})", file=sys.stderr, flush=True)

    try:
        with server, chaos:
            if args.port is not None:
                tcp = _tcp_server(session, args.host, args.port)
                print(f"[serve] listening on {args.host}:{args.port}",
                      file=sys.stderr, flush=True)
                try:
                    tcp.serve_forever()
                except KeyboardInterrupt:
                    pass
                finally:
                    tcp.server_close()
            else:
                try:
                    session.run(sys.stdin, sys.stdout)
                except BrokenPipeError:
                    pass  # client closed the stream; shut down quietly
    finally:
        # worker processes outlive the server's drain, never its exit
        # (pool.close() pulls worker-side spans into the trace first)
        for pool in pools:
            pool.close()
    telemetry_summary = None
    if tracer is not None:
        telemetry_summary = tracer.summary()
        tracer.export_chrome(args.trace)
        from pathlib import Path
        tracer.export_jsonl(str(Path(args.trace).with_suffix(".jsonl")))
        telemetry.disable()
        for line in telemetry.format_summary(telemetry_summary,
                                             prefix="[serve]"):
            print(line, file=sys.stderr)
        print(f"[serve] wrote trace {args.trace} "
              f"(open at https://ui.perfetto.dev)", file=sys.stderr)
    if plan is not None:
        summary = plan.summary()
        print(f"[serve] injected faults: "
              f"{ {k: v for k, v in summary['injections'].items() if v} }",
              file=sys.stderr)
    if args.stats:
        report = server.stats_report()
        if telemetry_summary is not None:
            report["telemetry"] = telemetry_summary
        for name, line in report["models"].items():
            lat = line["latency_ms"]
            print(f"[serve] {name}: {line['requests_completed']} requests, "
                  f"{line['throughput_rps']:.1f} req/s, latency p50 "
                  f"{lat['p50']:.2f} / p95 {lat['p95']:.2f} / "
                  f"p99 {lat['p99']:.2f} ms", file=sys.stderr)
            engines = report.get("engines", {}).get(name, {})
            if engines:
                modes: Dict[str, int] = {}
                lut_bytes = 0
                for stats in engines.values():
                    mode = stats.get("last_mode", stats.get("mode"))
                    modes[mode] = modes.get(mode, 0) + 1
                    lut_bytes += int(stats.get("lut_table_bytes", 0))
                mode_list = ", ".join(f"{mode} x{count}" for mode, count
                                      in sorted(modes.items()))
                print(f"[serve] {name}: engine modes [{mode_list}], "
                      f"LUT tables {lut_bytes / 1024:.1f} KiB",
                      file=sys.stderr)
        print(json.dumps(report, indent=2), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
