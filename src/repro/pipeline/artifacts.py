"""Content-hash artifact store backing the pipeline's stage cache.

Stage outputs are keyed by a stable SHA-256 digest of their *inputs* — the
raw layer data plus exactly the config fields the stage reads — so a re-run
with unchanged inputs is a cache hit and any relevant config change misses
(and therefore recomputes) only the stages downstream of it.  Clustering is
the expensive stage this exists for; the store itself is generic.

Artifacts live in memory, and optionally on disk (``cache_dir``) as pickles
so warm caches survive across processes (e.g. the CLI run twice).

The disk tier is **crash-safe** and safe for concurrent multi-process
writers:

* every commit writes a temp file, ``fsync``\\ s it and atomically renames
  into place — a reader (or a re-run after a mid-write kill) only ever
  observes the old entry, the new entry, or a leftover ``*.tmp`` that is
  never read;
* each entry carries a SHA-256 digest of its pickle payload in a manifest
  sidecar (``manifest/<key>.json``); a digest mismatch (truncation, bit
  rot, torn write from a crashed process) is *detected*, the bad files are
  moved to ``quarantine/`` and the read is a miss — the pipeline then
  transparently recomputes and rewrites the entry;
* writers serialize per key through ``O_EXCL`` lock files with stale-lock
  takeover, so two processes producing the same key cannot interleave their
  pkl/manifest pairs.  Keys are content hashes of the inputs, so concurrent
  same-key writers are idempotent anyway — the lock only prevents a torn
  *pair*, not a wrong value.

The write and read paths are instrumented with the
``artifacts.store.write`` / ``artifacts.store.read`` fault points of
:mod:`repro.core.faults`; an injected ``corrupt`` rule mangles the payload
bytes exactly like a torn write would, and the digest check catches it.

The explorer's worker threads share one store in memory; the locks are
for separate processes that share a ``cache_dir`` — two CLI runs of the
pipeline or the explorer at once, or a run started while another one is
still writing the warm cache.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import pickle
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core import telemetry
from repro.core.faults import fault_point

#: sentinel returned by :meth:`ArtifactStore.get` on a miss (``None`` is a
#: legal artifact value)
MISS = object()

#: a lock file untouched for this long belongs to a dead writer
STALE_LOCK_S = 30.0


def _feed(h: "hashlib._Hash", obj: Any) -> None:
    """Feed one (possibly nested) object into the hash, type-tagged so that
    e.g. the int 1 and the string "1" cannot collide."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"nd")
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, bytes):
        h.update(b"by")
        h.update(obj)
    elif isinstance(obj, str):
        h.update(b"st")
        h.update(obj.encode("utf-8"))
    elif isinstance(obj, bool):
        h.update(b"bo" + (b"1" if obj else b"0"))
    elif isinstance(obj, (int, np.integer)):
        h.update(b"in")
        h.update(str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"fl")
        h.update(repr(float(obj)).encode())
    elif obj is None:
        h.update(b"no")
    elif isinstance(obj, enum.Enum):
        h.update(b"en")
        _feed(h, obj.value)
    elif isinstance(obj, dict):
        h.update(b"di")
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"li")
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot hash object of type {type(obj).__name__}")


def stable_hash(*parts: Any) -> str:
    """Stable SHA-256 content hash over nested python/numpy structures."""
    h = hashlib.sha256()
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


def _atomic_write(path: Path, payload: bytes) -> None:
    """Temp file + fsync + rename: the entry appears complete or not at all."""
    tmp = path.with_suffix(
        f".{os.getpid()}.{threading.get_ident()}.tmp")
    with tmp.open("wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)


class _KeyLock:
    """``O_EXCL`` lock file with stale-lock takeover.

    The lock's *existence* is the lock; its content (pid) is diagnostic
    only.  A writer that dies mid-commit leaves the file behind — the next
    writer takes it over once its mtime is older than ``STALE_LOCK_S``
    (refreshing a healthy long write is the holder's job; our commits are
    milliseconds, so the default margin is enormous).
    """

    def __init__(self, path: Path, timeout_s: float = 60.0,
                 on_takeover=None):
        self.path = path
        self.timeout_s = timeout_s
        self.on_takeover = on_takeover

    def __enter__(self) -> "_KeyLock":
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat; retry
                if age > STALE_LOCK_S:
                    # dead writer: steal by removing and re-contending; a
                    # race between stealers is fine — exactly one O_EXCL
                    # open wins the next round
                    try:
                        self.path.unlink()
                    except OSError:
                        pass
                    else:
                        if self.on_takeover is not None:
                            self.on_takeover()
                    continue
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"could not acquire artifact lock {self.path} "
                        f"within {self.timeout_s}s") from None
                time.sleep(0.005)
            else:
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                return self

    def __exit__(self, *exc) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


class ArtifactStore:
    """Two-level (memory, optional disk) store of stage artifacts.

    Keys are the content hashes of :func:`stable_hash`; values are arbitrary
    picklable objects.  A corrupt, truncated or unreadable disk entry is
    detected via its manifest digest, moved to ``quarantine/`` and counted
    as a miss — the pipeline recomputes and overwrites it.

    One store may be shared by concurrent pipeline runs across threads
    *and* processes: counters are lock-protected, commits are atomic
    (temp + fsync + rename) and per-key ``O_EXCL`` lock files with
    stale-lock takeover serialize writers of the same key.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None):
        self._memory: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            (self.cache_dir / "manifest").mkdir(exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupted = 0
        self.lock_takeovers = 0

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    def _manifest_path(self, key: str) -> Path:
        return self.cache_dir / "manifest" / f"{key}.json"

    def _lock_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.lock"

    def _quarantine_dir(self) -> Path:
        path = self.cache_dir / "quarantine"
        path.mkdir(exist_ok=True)
        return path

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        telemetry.counter_add(
            "artifacts.hits" if hit else "artifacts.misses")

    def _count_takeover(self) -> None:
        with self._lock:
            self.lock_takeovers += 1
        telemetry.counter_add("artifacts.lock_takeovers")
        telemetry.event("artifacts.lock_takeover")

    # -- read path ------------------------------------------------------------
    def _read_manifest(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._manifest_path(key)
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict) or "digest" not in manifest:
            return None
        return manifest

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a bad entry (pkl + manifest) out of the way of recompute."""
        qdir = self._quarantine_dir()
        stamp = f"{key}.{os.getpid()}"
        for src, suffix in ((self._path(key), "pkl"),
                            (self._manifest_path(key), "json")):
            if src.exists():
                try:
                    src.replace(qdir / f"{stamp}.{suffix}")
                except OSError:
                    pass  # another process already quarantined it
        with self._lock:
            self.corrupted += 1
        telemetry.counter_add("artifacts.quarantined")
        telemetry.event("artifacts.quarantine", key=key, reason=reason)

    def _load_disk(self, key: str) -> Any:
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return MISS
        raw = fault_point("artifacts.store.read", raw)
        manifest = self._read_manifest(key)
        if manifest is not None:
            if hashlib.sha256(raw).hexdigest() != manifest["digest"]:
                self._quarantine(key, "digest mismatch")
                return MISS
        try:
            return pickle.loads(raw)
        except Exception:
            # unpicklable despite a matching (or absent) manifest — a
            # pre-manifest legacy entry or a hash collision-grade anomaly;
            # either way: quarantine + miss + recompute
            self._quarantine(key, "unpicklable payload")
            return MISS

    def get(self, key: str) -> Any:
        if key in self._memory:
            self._count(hit=True)
            return self._memory[key]
        if self.cache_dir is not None:
            value = self._load_disk(key)
            if value is not MISS:
                self._memory[key] = value
                self._count(hit=True)
                return value
        self._count(hit=False)
        return MISS

    # -- write path -----------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self._memory[key] = value
        if self.cache_dir is None:
            return
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        # digest the *good* payload before the fault point: an injected
        # corruption then mangles what hits the disk, and the manifest
        # digest catches it on read — exactly like a real torn write
        digest = hashlib.sha256(payload).hexdigest()
        payload = fault_point("artifacts.store.write", payload)
        manifest = json.dumps({"key": key, "digest": digest,
                               "size": len(payload),
                               "writer_pid": os.getpid()}).encode()
        with _KeyLock(self._lock_path(key), on_takeover=self._count_takeover):
            _atomic_write(self._path(key), payload)
            _atomic_write(self._manifest_path(key), manifest)

    # -- maintenance ----------------------------------------------------------
    def scrub(self) -> Dict[str, int]:
        """Verify every disk entry against its manifest digest.

        Corrupted or truncated entries are quarantined; entries without a
        manifest are left alone (legacy format — they still fail safe at
        read time via the unpickle guard).  Returns counts.
        """
        report = {"checked": 0, "ok": 0, "quarantined": 0, "unmanifested": 0}
        if self.cache_dir is None:
            return report
        for path in sorted(self.cache_dir.glob("*.pkl")):
            key = path.stem
            report["checked"] += 1
            manifest = self._read_manifest(key)
            if manifest is None:
                report["unmanifested"] += 1
                continue
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            if hashlib.sha256(raw).hexdigest() == manifest["digest"]:
                report["ok"] += 1
            else:
                self._quarantine(key, "scrub digest mismatch")
                report["quarantined"] += 1
        return report

    def stats(self) -> Dict[str, int]:
        """Snapshot of the hit/miss/corruption counters (for sweep reports)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "corrupted": self.corrupted,
                    "quarantined": self.corrupted,
                    "lock_takeovers": self.lock_takeovers}

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.cache_dir is not None and self._path(key).exists()

    def __len__(self) -> int:
        keys = set(self._memory)
        if self.cache_dir is not None:
            keys.update(p.stem for p in self.cache_dir.glob("*.pkl"))
        return len(keys)
