"""DynamicBatcher concurrency semantics: ordering, dispatch, shed, block."""

import threading
import time

import pytest

from repro.serve import (
    BatchPolicy,
    DynamicBatcher,
    ServerClosed,
    ServerOverloaded,
)


class TestBatchPolicy:
    def test_defaults_valid(self):
        policy = BatchPolicy()
        assert policy.max_batch_size >= 1
        assert policy.overload in ("shed", "block")

    @pytest.mark.parametrize("kwargs", [
        {"max_batch_size": 0},
        {"max_wait_ms": -1.0},
        {"max_queue_size": 0},
        {"overload": "explode"},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchPolicy(**kwargs)


class TestCoalescing:
    def test_full_batch_released_without_waiting(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=4,
                                             max_wait_ms=10_000.0))
        handles = [batcher.submit(i) for i in range(4)]
        start = time.perf_counter()
        batch = batcher.next_batch()
        elapsed = time.perf_counter() - start
        assert [r.payload for r in batch] == [0, 1, 2, 3]
        assert elapsed < 1.0  # did not sit out the 10s max-wait
        assert all(h is r for h, r in zip(handles, batch))

    def test_lone_request_released_at_once(self):
        # work-conserving dispatch: an idle consumer takes what is queued
        # now, however long max_wait_ms is
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=64,
                                             max_wait_ms=10_000.0))
        batcher.submit("a")
        start = time.perf_counter()
        batch = batcher.next_batch()
        assert time.perf_counter() - start < 1.0
        assert [r.payload for r in batch] == ["a"]

    def test_arrivals_while_busy_leave_as_one_fifo_batch(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=4,
                                             max_wait_ms=10_000.0))
        release = threading.Event()
        batches = []

        def consumer():
            while True:
                batch = batcher.next_batch()
                if batch is None:
                    return
                batches.append([r.payload for r in batch])
                if len(batches) == 1:
                    assert release.wait(5.0)  # busy with the first batch

        thread = threading.Thread(target=consumer)
        thread.start()
        batcher.submit(0)
        deadline = time.perf_counter() + 5.0
        while not batches and time.perf_counter() < deadline:
            time.sleep(0.001)
        for i in range(1, 7):  # these queue while the consumer is busy
            batcher.submit(i)
        start = time.perf_counter()
        release.set()
        batcher.close()
        thread.join(5.0)
        assert not thread.is_alive()
        assert time.perf_counter() - start < 1.0
        # the busy window coalesced: one full FIFO batch, then the rest
        assert batches == [[0], [1, 2, 3, 4], [5, 6]]

    def test_oversize_stream_split_into_fifo_batches(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=3, max_wait_ms=1.0))
        for i in range(8):
            batcher.submit(i)
        sizes, order = [], []
        while len(order) < 8:
            batch = batcher.next_batch()
            sizes.append(len(batch))
            order.extend(r.payload for r in batch)
        assert order == list(range(8))
        assert sizes == [3, 3, 2]


class TestInterleavedArrivals:
    def test_single_producer_fifo_under_concurrent_consumer(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=4, max_wait_ms=2.0))
        consumed = []
        done = threading.Event()

        def consumer():
            while True:
                batch = batcher.next_batch()
                if batch is None:
                    break
                consumed.extend(r.payload for r in batch)
            done.set()

        thread = threading.Thread(target=consumer)
        thread.start()
        for i in range(50):
            batcher.submit(i)
            if i % 7 == 0:
                time.sleep(0.003)  # interleave arrivals with in-flight batches
        batcher.close()
        assert done.wait(10.0)
        thread.join(5.0)
        assert consumed == list(range(50))

    def test_multi_producer_per_thread_order_preserved(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=5, max_wait_ms=2.0))
        consumed = []

        def consumer():
            while True:
                batch = batcher.next_batch()
                if batch is None:
                    return
                consumed.extend(r.payload for r in batch)

        consumer_thread = threading.Thread(target=consumer)
        consumer_thread.start()

        def producer(tag):
            for i in range(20):
                batcher.submit((tag, i))

        producers = [threading.Thread(target=producer, args=(t,))
                     for t in range(3)]
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join(10.0)
        batcher.close()
        consumer_thread.join(10.0)

        assert len(consumed) == 60
        for tag in range(3):
            mine = [i for (t, i) in consumed if t == tag]
            assert mine == list(range(20))  # FIFO within each producer


class TestOverload:
    def test_shed_policy_raises_when_queue_full(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=2, max_queue_size=3,
                                             overload="shed"))
        for i in range(3):
            batcher.submit(i)
        with pytest.raises(ServerOverloaded):
            batcher.submit(3)
        # draining one batch frees space again
        batch = batcher.next_batch()
        assert len(batch) == 2
        batcher.submit(3)
        assert batcher.qsize() == 2

    def test_block_policy_applies_backpressure(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=2, max_queue_size=2,
                                             max_wait_ms=1.0, overload="block"))
        batcher.submit(0)
        batcher.submit(1)
        unblocked_at = []

        def blocked_producer():
            batcher.submit(2)  # must wait for queue space
            unblocked_at.append(time.perf_counter())

        thread = threading.Thread(target=blocked_producer)
        thread.start()
        time.sleep(0.05)
        assert not unblocked_at  # still blocked while the queue is full
        drained_at = time.perf_counter()
        batcher.next_batch()
        thread.join(5.0)
        assert unblocked_at and unblocked_at[0] >= drained_at

    def test_block_policy_timeout(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=2, max_queue_size=1,
                                             overload="block"))
        batcher.submit(0)
        with pytest.raises(ServerOverloaded):
            batcher.submit(1, timeout=0.05)


class TestLifecycle:
    def test_submit_after_close_raises(self):
        batcher = DynamicBatcher()
        batcher.close()
        with pytest.raises(ServerClosed):
            batcher.submit("late")

    def test_close_drains_then_signals_none(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=8, max_wait_ms=1.0))
        batcher.submit("queued")
        batcher.close()
        batch = batcher.next_batch()
        assert [r.payload for r in batch] == ["queued"]
        assert batcher.next_batch() is None

    def test_request_result_timeout(self):
        batcher = DynamicBatcher()
        handle = batcher.submit("never-served")
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.05)
