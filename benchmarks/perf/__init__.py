"""Performance microbenchmark suite (tracked across PRs).

Unlike the ``bench_*`` reproductions of the paper's tables/figures, these
benchmarks time *this codebase itself*: masked k-means, conv GFLOP/s,
compressed inference, the pipeline, serving, explore and tracing.  The
runner (:mod:`benchmarks.perf.run_perf`) writes one JSON report, and
:mod:`benchmarks.perf.compare_perf` gates a change on paired runs against
its parent commit.

Run with::

    PYTHONPATH=src python -m benchmarks.perf.run_perf [--smoke] [--output BENCH_perf.json]
    python -m benchmarks.perf.compare_perf --parent HEAD~1
"""
