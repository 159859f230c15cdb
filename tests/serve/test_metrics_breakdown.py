"""p99 percentiles, the compact stats() view and the per-model report."""

from repro.serve import ServingMetrics, StatsRegistry


def _record_latencies(metrics, latencies_s):
    for latency in latencies_s:
        metrics.record_request(latency, queue_wait_s=latency / 10)


class TestP99:
    def test_snapshot_has_p99_for_latency_and_queue_wait(self):
        metrics = ServingMetrics()
        _record_latencies(metrics, [i / 1000 for i in range(1, 101)])
        snap = metrics.snapshot()
        assert snap["latency_ms"]["p50"] < snap["latency_ms"]["p95"]
        assert snap["latency_ms"]["p95"] < snap["latency_ms"]["p99"]
        assert snap["latency_ms"]["p99"] <= snap["latency_ms"]["max"]
        assert snap["queue_wait_ms"]["p95"] < snap["queue_wait_ms"]["p99"]

    def test_p99_interpolates_toward_the_tail(self):
        metrics = ServingMetrics()
        _record_latencies(metrics, [0.001] * 99 + [1.0])
        snap = metrics.snapshot()
        # one 1s outlier in 100 samples: p95 stays at the 1 ms floor, p99
        # starts interpolating toward the outlier (pos 98.01 -> ~11 ms)
        assert snap["latency_ms"]["p95"] < 2
        assert snap["latency_ms"]["p99"] > 5 * snap["latency_ms"]["p95"]


class TestStatsView:
    def test_stats_is_the_compact_subview(self):
        metrics = ServingMetrics()
        _record_latencies(metrics, [0.002, 0.004, 0.006])
        stats = metrics.stats()
        assert set(stats) == {"requests_completed", "throughput_rps",
                              "latency_ms", "queue_wait_ms"}
        assert stats["requests_completed"] == 3
        assert set(stats["latency_ms"]) >= {"p50", "p95", "p99"}

    def test_registry_report_breaks_down_per_model(self):
        registry = StatsRegistry()
        _record_latencies(registry.for_model("a"), [0.002, 0.004])
        _record_latencies(registry.for_model("b"), [0.008])
        report = registry.report()
        # the per-model headline numbers live in report["models"] (stats()
        # is their compact view); no second per-model copy rides along
        assert "breakdown" not in report
        assert set(report["models"]) == {"a", "b"}
        assert report["models"]["a"]["requests_completed"] == 2
        assert report["models"]["b"]["requests_completed"] == 1
        for name, snap in report["models"].items():
            assert "p99" in snap["latency_ms"]
            compact = registry.for_model(name).stats()
            assert compact["requests_completed"] == snap["requests_completed"]
        assert report["total_completed"] == 3
