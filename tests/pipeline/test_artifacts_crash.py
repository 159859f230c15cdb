"""Crash-safety of the on-disk artifact store.

Torn writes, truncated pickles, bit rot, dead writers' locks and concurrent
multi-process writers: a reader must never observe a bad artifact — bad
entries are detected via the manifest digest, quarantined, and recomputed.
"""

import hashlib
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.faults import FaultPlan, FaultRule
from repro.pipeline import artifacts as artifacts_mod
from repro.pipeline.artifacts import MISS, ArtifactStore, _KeyLock, stable_hash

KEY = stable_hash("crash-test-entry")
VALUE = {"codebook": np.arange(64, dtype=np.float64).reshape(8, 8),
         "assignments": np.arange(32, dtype=np.int64)}


def _assert_value(loaded):
    assert loaded is not MISS
    assert np.array_equal(loaded["codebook"], VALUE["codebook"])
    assert np.array_equal(loaded["assignments"], VALUE["assignments"])


class TestAtomicCommit:
    def test_cross_process_warm_read_is_bit_identical(self, tmp_path):
        ArtifactStore(tmp_path).put(KEY, VALUE)
        _assert_value(ArtifactStore(tmp_path).get(KEY))  # fresh memory tier

    def test_manifest_records_payload_digest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, VALUE)
        manifest = json.loads((tmp_path / "manifest" / f"{KEY}.json").read_text())
        raw = (tmp_path / f"{KEY}.pkl").read_bytes()
        assert manifest["digest"] == hashlib.sha256(raw).hexdigest()
        assert manifest["key"] == KEY

    def test_leftover_tmp_files_are_never_read(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, VALUE)
        (tmp_path / f"{KEY}.999.888.tmp").write_bytes(b"torn write debris")
        _assert_value(ArtifactStore(tmp_path).get(KEY))
        assert len(ArtifactStore(tmp_path)) == 1  # debris is not an entry


class TestCorruptionDetection:
    def _written(self, tmp_path):
        ArtifactStore(tmp_path).put(KEY, VALUE)
        return tmp_path / f"{KEY}.pkl"

    def test_truncated_pickle_is_quarantined_and_recomputed(self, tmp_path):
        path = self._written(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # mid-write kill shape
        store = ArtifactStore(tmp_path)
        assert store.get(KEY) is MISS
        assert store.stats()["corrupted"] == 1
        assert list((tmp_path / "quarantine").glob(f"{KEY}.*.pkl"))
        assert not path.exists()
        store.put(KEY, VALUE)  # transparent recompute path
        _assert_value(ArtifactStore(tmp_path).get(KEY))

    def test_single_flipped_byte_is_detected(self, tmp_path):
        path = self._written(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert ArtifactStore(tmp_path).get(KEY) is MISS

    def test_unreadable_manifest_falls_back_to_unpickle_guard(self, tmp_path):
        self._written(tmp_path)
        (tmp_path / "manifest" / f"{KEY}.json").write_text("{not json")
        # payload itself is intact, so the read still succeeds
        _assert_value(ArtifactStore(tmp_path).get(KEY))

    def test_legacy_unmanifested_garbage_is_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        (tmp_path / f"{KEY}.pkl").write_bytes(b"\x80\x05 not a pickle")
        assert store.get(KEY) is MISS
        assert store.stats()["corrupted"] == 1

    def test_scrub_reports_and_quarantines(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = [stable_hash("scrub", i) for i in range(3)]
        for key in keys:
            store.put(key, VALUE)
        bad = tmp_path / f"{keys[1]}.pkl"
        bad.write_bytes(bad.read_bytes()[:-7])
        (tmp_path / "legacy.pkl").write_bytes(b"old format, no manifest")
        report = ArtifactStore(tmp_path).scrub()
        assert report["checked"] == 4
        assert report["ok"] == 2
        assert report["quarantined"] == 1
        assert report["unmanifested"] == 1
        assert not bad.exists()


class TestFaultInjection:
    def test_injected_write_corruption_is_caught_on_read(self, tmp_path):
        plan = FaultPlan([FaultRule("artifacts.store.write", kind="corrupt",
                                    probability=1.0)], seed=3)
        with plan.active():
            ArtifactStore(tmp_path).put(KEY, VALUE)
        store = ArtifactStore(tmp_path)  # no plan: clean read path
        assert store.get(KEY) is MISS
        assert store.stats()["corrupted"] == 1
        store.put(KEY, VALUE)
        _assert_value(ArtifactStore(tmp_path).get(KEY))

    def test_injected_read_corruption_is_caught_by_digest(self, tmp_path):
        ArtifactStore(tmp_path).put(KEY, VALUE)
        plan = FaultPlan([FaultRule("artifacts.store.read", kind="corrupt",
                                    probability=1.0, max_injections=1)], seed=5)
        store = ArtifactStore(tmp_path)
        with plan.active():
            assert store.get(KEY) is MISS  # mangled in flight: rejected

    def test_injected_write_error_leaves_no_partial_entry(self, tmp_path):
        plan = FaultPlan([FaultRule("artifacts.store.write", probability=1.0,
                                    max_injections=1)], seed=1)
        store = ArtifactStore(tmp_path)
        with plan.active():
            with pytest.raises(Exception):
                store.put(KEY, VALUE)
        assert not (tmp_path / f"{KEY}.pkl").exists()
        assert not (tmp_path / f"{KEY}.lock").exists()
        fresh = ArtifactStore(tmp_path)
        assert fresh.get(KEY) is MISS
        fresh.put(KEY, VALUE)
        _assert_value(ArtifactStore(tmp_path).get(KEY))


class TestLocks:
    def test_lock_is_exclusive_and_released(self, tmp_path):
        lock_path = tmp_path / "k.lock"
        with _KeyLock(lock_path):
            assert lock_path.exists()
            with pytest.raises(TimeoutError):
                _KeyLock(lock_path, timeout_s=0.05).__enter__()
        assert not lock_path.exists()

    def test_stale_lock_is_taken_over(self, tmp_path):
        lock_path = tmp_path / "k.lock"
        lock_path.write_text("99999")  # dead writer's leftover
        stale = time.time() - artifacts_mod.STALE_LOCK_S - 5.0
        os.utime(lock_path, (stale, stale))
        with _KeyLock(lock_path, timeout_s=2.0):
            assert lock_path.read_text() == str(os.getpid())

    def test_put_survives_dead_writers_lock(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts_mod, "STALE_LOCK_S", 0.05)
        store = ArtifactStore(tmp_path)
        lock = tmp_path / f"{KEY}.lock"
        lock.write_text("99999")
        time.sleep(0.1)  # let it go stale
        store.put(KEY, VALUE)
        _assert_value(ArtifactStore(tmp_path).get(KEY))
        assert not lock.exists()


def _hammer(args):
    cache_dir, worker, rounds = args
    store = ArtifactStore(cache_dir)
    for i in range(rounds):
        key = stable_hash("contended", i % 4)
        value = {"round": i % 4,
                 "payload": np.full((64,), float(i % 4))}
        store.put(key, value)
        loaded = store.get(key)
        if loaded is MISS:
            return f"worker {worker}: observed MISS for a written key"
        if not np.array_equal(loaded["payload"],
                              np.full((64,), float(loaded["round"]))):
            return f"worker {worker}: observed torn artifact"
    return None


class TestMultiProcess:
    def test_concurrent_writers_never_expose_a_bad_artifact(self, tmp_path):
        # 4 processes hammer the same 4 keys; content-addressing makes the
        # writes idempotent, so every read must be complete and consistent
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            failures = [f for f in pool.map(
                _hammer, [(str(tmp_path), w, 25) for w in range(4)]) if f]
        assert failures == []
        report = ArtifactStore(tmp_path).scrub()
        assert report["checked"] == 4
        assert report["quarantined"] == 0
        assert report["ok"] == 4

    def test_killed_writer_never_leaves_an_observable_bad_entry(
            self, tmp_path, monkeypatch):
        # kill a writer mid-hammer at an arbitrary instant; whatever state
        # it left behind, every committed entry still verifies and a fresh
        # run repairs the rest.  A lock the victim held goes stale after
        # 1 s instead of the production 30 s (commits take milliseconds).
        monkeypatch.setattr(artifacts_mod, "STALE_LOCK_S", 1.0)
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(target=_hammer,
                             args=((str(tmp_path), 0, 100_000),))
        victim.start()
        time.sleep(0.25)
        victim.terminate()
        victim.join(10.0)
        report = ArtifactStore(tmp_path).scrub()
        assert report["quarantined"] == 0  # atomic rename: no torn entries
        store = ArtifactStore(tmp_path)
        for i in range(4):
            key = stable_hash("contended", i)
            loaded = store.get(key)
            if loaded is not MISS:  # committed before the kill: intact
                assert np.array_equal(loaded["payload"],
                                      np.full((64,), float(loaded["round"])))
            store.put(key, {"round": i, "payload": np.full((64,), float(i))})
        assert ArtifactStore(tmp_path).scrub()["ok"] == 4
