"""``serve-open``: open-loop Poisson load on the process-serving tier.

A ``ModelServer`` over a ``ProcessReplicaPool`` worker serves the
compressed ``resnet18_mini`` (engine ``auto``).  One sending thread
submits on a seeded Poisson schedule and every latency is taken from the
request's *due* time, so a stalled generator or a growing queue is
charged to the requests that waited.  Every set-up serves its share of the run
at the reference rate, then measures the saturation rate with a burst; the
last one then climbs a fixed rate ladder, one second a rung, to find the
highest rate that meets the latency limit.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

import numpy as np

from mvqbench import probes
from mvqbench.common import Phase, Workload, median, rel_sse
from mvqbench.stats import judge_rung, max_rps, poisson_schedule, quantile

INPUT_SHAPE = (3, 16, 16)
#: one worker process: with two, each running default multi-threaded BLAS on
#: two CPUs, latency at a fixed rate swung by a third between identical runs
WORKERS = 1
#: requests per second of the reference phase: a third of the one-worker
#: saturation rate (the burst) measured on a 2-CPU host, median 620 req/s
#: over 30 runs (quartiles 530 and 700)
REF_RPS = 200.0
#: the rate ladder, ~1.25x apart, from the reference rate to ~3x that
#: saturation, so a capacity gain stays on the ladder
LADDER = (200, 250, 315, 400, 500, 630, 800, 1000, 1250, 1600, 2000)
#: tail-latency limit a ladder rung must meet, from the request's due time
LIMIT_S = 0.25
#: requests of the saturation burst that ends every measured segment
BURST = 800
#: seconds per ladder rung: long enough that a 25% overload leaves a
#: backlog that takes longer than the limit to clear
RUNG_S = 1.0
#: seconds of reference-rate traffic that end each set-up, so measured
#: phases start from a steady pool
WARMUP_S = 1.0
#: the served model's weights, as in the serving-resnet18 scenario; the
#: run seed drives the request payloads and the arrival schedule
MODEL_SEED = 1
#: distinct request payloads the schedule draws from
POOL_ROWS = 256


class ServeOpen(Workload):
    def __init__(self, seed: int, workdir: Path):
        from repro.pipeline.scenarios import get_scenario

        self.seed = seed
        self.config = get_scenario("serving-resnet18").pipeline_config()
        self.max_batch = int(self.config.serving["max_batch_size"])
        self.max_wait_ms = float(self.config.serving["max_wait_ms"])
        self.rows = np.random.default_rng([seed, 0]).standard_normal(
            (POOL_ROWS, *INPUT_SHAPE))
        self.responses: List[tuple] = []
        self.streams = 0
        self.pool = self.server = None

    def setup(self) -> None:
        from repro.nn.compressed import swap_to_compressed
        from repro.pipeline import Pipeline
        from repro.pipeline.artifacts import ArtifactStore
        from repro.serve import BatchPolicy, ModelServer, ProcessReplicaPool
        from repro.workloads import model_factory

        factory = model_factory("resnet18")
        kwargs = {"num_classes": 5, "seed": MODEL_SEED}
        with probes.build_span():
            model = factory(**kwargs)
        self.compressed = Pipeline(self.config, store=ArtifactStore()).run(
            model).compressed
        swap_to_compressed(model, self.compressed, mode="auto")
        self.model = model
        self.pool = ProcessReplicaPool(
            self.compressed, ("factory", factory, kwargs), INPUT_SHAPE,
            workers=WORKERS, mode="auto", max_batch_size=self.max_batch,
            model=model)
        # shed with a queue no ladder rung can fill: an overloaded rung
        # fails on latency, and no request is refused
        policy = BatchPolicy(max_batch_size=self.max_batch,
                             max_wait_ms=self.max_wait_ms,
                             max_queue_size=1 << 16, overload="shed")
        self.server = ModelServer()
        self.pool.register_with(self.server, "resnet18", policy=policy)
        self.server.start()
        self.server.predict_many("resnet18", self.rows[:4 * self.max_batch])
        self._open_loop(REF_RPS, WARMUP_S)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
        if self.pool is not None:
            self.pool.close()
        self.pool = self.server = None

    def live_pids(self) -> List[int]:
        return [replica.pid for replica in self.pool.replicas] if self.pool else []

    def collect_trace(self) -> None:
        self.pool.collect_traces()

    def _open_loop(self, rate: float, duration: float) -> Dict[str, object]:
        """Send on a Poisson schedule from this one thread; gather results."""
        from repro.serve import ServingError

        self.streams += 1
        due = poisson_schedule(self.seed, self.streams, rate, duration)
        picks = np.random.default_rng([self.seed, self.streams, 1]).integers(
            0, POOL_ROWS, size=len(due))
        sent = []
        start = time.perf_counter()
        for offset, row in zip(due, picks):
            target = start + offset
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late = time.perf_counter() - target
            try:
                handle = self.server.submit("resnet18", self.rows[row])
            except ServingError:
                handle = None
            sent.append((row, target, handle, late))
        window_end = start + duration
        latencies, lateness, failed, last_done = [], [], 0, window_end
        for row, target, handle, late in sent:
            lateness.append(late)
            if handle is None:
                failed += 1
                continue
            try:
                out = handle.result(timeout=60.0)
            except (ServingError, TimeoutError):
                failed += 1
                continue
            latencies.append(handle.completed_at - target)
            last_done = max(last_done, handle.completed_at)
            self.responses.append((row, out))
        return {"latencies": latencies, "lateness": lateness, "failed": failed,
                "attempted": len(sent), "start": start, "end": last_done,
                "drain_s": last_done - window_end}

    def _burst(self) -> float:
        """Requests per second served from a queue filled all at once."""
        rows = np.random.default_rng([self.seed, self.streams, 2]).integers(
            0, POOL_ROWS, size=BURST)
        start = time.perf_counter()
        handles = [self.server.submit("resnet18", self.rows[row]) for row in rows]
        for row, handle in zip(rows, handles):
            self.responses.append((row, handle.result(timeout=60.0)))
        return BURST / (max(h.completed_at for h in handles) - start)

    def measure(self, seconds: float, full: bool) -> Phase:
        ref = self._open_loop(REF_RPS, seconds)
        phase = Phase(latencies=ref["latencies"],
                      windows=[(ref["start"], ref["end"])],
                      attempted=ref["attempted"], failed=ref["failed"],
                      elapsed=ref["end"] - ref["start"],
                      work=float(len(ref["latencies"])),
                      extra={"lateness": ref["lateness"]})
        phase.extra["burst_rps"] = [self._burst()]
        phase.attempted += BURST
        if full:
            rungs = []
            for rate in LADDER:
                rung = self._open_loop(rate, RUNG_S)
                verdict = judge_rung(rung["latencies"], rung["failed"],
                                     rung["drain_s"], LIMIT_S)
                rungs.append((float(rate), verdict))
                phase.attempted += rung["attempted"]
                phase.failed += rung["failed"]
                phase.extra["lateness"] += rung["lateness"]
                if not verdict["passed"]:
                    break   # the load only rises from here
            phase.extra.update(ladder=[{"rps": rate, **verdict} for rate, verdict in rungs],
                               max_rps=max_rps(rungs))
        return phase

    def quality(self):
        return rel_sse(self.compressed), self.compressed.compression_ratio()

    def named(self, phase: Phase) -> Dict[str, object]:
        from mvqbench.stats import summarize

        segments = phase.extra["segments"]
        ref = summarize(phase.latencies, scale=1e3)
        return {"serve_p50_ms": (ref["p50"], "ms"),
                "serve_p99_ms": (ref["tail"], "ms"),
                "serve_max_rps": (next(seg["max_rps"] for seg in segments
                                       if "max_rps" in seg), "1/s"),
                "serve_saturation_rps": (median(phase.extra["burst_rps"]), "1/s"),
                "serve_gen_late_p99_ms": (quantile(phase.extra["lateness"], 0.99) * 1e3,
                                          "ms")}

    def check(self) -> List[str]:
        from repro.nn.serve import predict_batched

        reference = predict_batched(self.model, self.rows, batch_size=self.max_batch)
        bad = sum(1 for row, out in self.responses
                  if not np.array_equal(out, reference[row]))
        if bad:
            return [f"serve-open: {bad} of {len(self.responses)} responses differ "
                    "from predict_batched on the same rows"]
        return []

    def layer_metrics(self, records, phase: Phase) -> Dict[str, float]:
        def within(name):
            # the reference-rate windows only: not the bursts that follow them
            return probes.spans_within(records, name, phase.windows)

        # workers trace for the pool's life; only forwards the parent sent
        # while tracing carry a sequence number
        forwards = [r for r in within("serve.worker.forward")
                    if r["args"].get("seq") is not None]
        worker_ms = {r["args"].get("seq"): r["dur"] for r in forwards}
        ipc_gaps = [r["dur"] - worker_ms[r["args"]["seq"]]
                    for r in within("serve.worker.ipc.forward")
                    if r["args"].get("seq") in worker_ms]
        waits = [r["dur"] for r in within("serve.request.queue_wait")]
        sizes = [r["args"]["batch_size"] for r in within("serve.batch")]
        modes = Counter(module.engine.last_mode
                        for _, module in self.model.named_modules()
                        if getattr(module, "engine", None) is not None)
        stats = self.server.stats_report()["models"]["resnet18"]
        return {
            "nn.forward_ms": median([r["dur"] for r in forwards]) * 1e3,
            "nn.engine_modes.dense": float(modes.get("dense", 0)),
            "nn.engine_modes.lut": float(modes.get("lut", 0)),
            "serve.queue_wait_p50_ms": quantile(waits, 0.5) * 1e3,
            "serve.queue_wait_p99_ms": quantile(waits, 0.99) * 1e3,
            "serve.assemble_ms": median([r["dur"] for r in within(
                "serve.batch.assemble")]) * 1e3,
            "serve.ipc_ms": median(ipc_gaps) * 1e3,
            "serve.batch_size_mean": float(np.mean(sizes)) if sizes else 0.0,
            "serve.pad_waste_frac": (1.0 - sum(sizes) / (len(sizes) * self.max_batch)
                                     if sizes else 0.0),
            "serve.shed": float(stats["requests_shed"]),
            "serve.retries": float(stats["faults"]["retries"]),
            "serve.timeouts": float(stats["faults"]["timeouts"]),
            "serve.gen_late_p99_ms": quantile(phase.extra["lateness"], 0.99) * 1e3,
        }
