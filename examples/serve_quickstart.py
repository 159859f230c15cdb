"""Quickstart: serve a compressed model behind the dynamic-batching server.

End-to-end tour of ``repro.serve``:

1. compress a scenario model through the declarative pipeline and swap in
   the decode-free compressed-domain modules (``load_scenario``);
2. register it with a :class:`~repro.serve.server.ModelServer` under a
   max-batch policy (dispatch is work-conserving: an idle worker takes
   whatever is queued now, so batches form while it is busy);
3. fire a burst of concurrent single-image requests at it (the client-side
   fan-out the batcher coalesces);
4. read the stats report: throughput, p50/p95 latency, and the batch-size
   histogram that shows dynamic batching actually happened;
5. demonstrate the overload policy by overfilling a tiny bounded queue.

The same server is scriptable from a shell::

    python -m repro.serve --scenario serving-resnet18 --stats <<'EOF'
    {"id": 1, "synthetic": true, "seed": 7}
    {"cmd": "stats"}
    EOF

Usage:  python examples/serve_quickstart.py
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.serve import (
    BatchPolicy,
    ModelServer,
    ServerOverloaded,
    load_scenario,
)


def main() -> None:
    # ---------------------------------------------------------- load + swap
    print("compressing scenario 'serving-resnet18' ...")
    loaded = load_scenario("serving-resnet18")
    print(f"  {loaded.meta['layers']} compressed layers, "
          f"CR {loaded.meta['compression_ratio']:.1f}x, "
          f"sparsity {loaded.meta['sparsity']:.2f}")

    # ------------------------------------------------------------- register
    server = ModelServer()
    loaded.register_with(server, policy=BatchPolicy(
        max_batch_size=16, max_queue_size=512, overload="shed"))

    rng = np.random.default_rng(0)
    requests = rng.standard_normal((128, *loaded.input_shape))

    with server:
        # ------------------------------------------------- batched serving
        server.predict_many(loaded.name, requests[:16])      # warm-up
        start = time.perf_counter()
        outputs = server.predict_many(loaded.name, requests)
        batched_s = time.perf_counter() - start

        # ------------------------------------------- sequential comparison
        start = time.perf_counter()
        for row in requests:
            server.predict(loaded.name, row)                 # one at a time
        sequential_s = time.perf_counter() - start

        stats = server.stats_report()["models"][loaded.name]

    print(f"\nserved {len(requests)} requests")
    print(f"  concurrent clients (coalesced) : {len(requests) / batched_s:8.0f} req/s")
    print(f"  one request in flight at a time: {len(requests) / sequential_s:8.0f} req/s"
          f"  (each runs a 1-row forward alone)")
    # the apples-to-apples compute-level comparison (no server)
    # lives in benchmarks/perf/bench_serving.py; this gap shows why clients
    # should keep the queue full rather than serialise their requests
    print(f"  latency p50/p95  : {stats['latency_ms']['p50']:.1f} / "
          f"{stats['latency_ms']['p95']:.1f} ms")
    print(f"  batch histogram  : {json.dumps(stats['batch_size_histogram'])}")
    print(f"  outputs shape    : {outputs.shape}")

    # --------------------------------------------------- overload shedding
    tiny = ModelServer()
    loaded_small = load_scenario("serving-resnet18")
    loaded_small.register_with(tiny, policy=BatchPolicy(
        max_batch_size=4, max_queue_size=8, overload="shed"))
    shed = 0
    # no started workers: the bounded queue fills and sheds deterministically
    for row in requests[:12]:
        try:
            tiny.submit(loaded_small.name, row)
        except ServerOverloaded:
            shed += 1
    print(f"\noverload policy: {shed} of 12 requests shed by the bounded queue "
          f"(queue depth 8)")
    tiny.shutdown(drain=False)


if __name__ == "__main__":
    main()
