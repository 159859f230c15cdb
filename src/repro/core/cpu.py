"""One CPU budget for every worker pool: workers x BLAS threads <= cores.

numpy's bundled OpenBLAS starts one thread per CPU.  A pool of N workers
that each call a multi-threaded GEMM therefore queues N x CPUs threads on
CPUs cores, which on a small host cancels the pool's speedup outright.
This module is the single owner of the core count and of the BLAS thread
setting, so every pool splits the cores the same way:

* :func:`parallel` — the region a pool runs in.  The outermost region
  grants ``min(workers, cpus)`` workers and, when that is more than one,
  holds BLAS at ``cpus // granted`` threads until it exits.  A region
  entered while another holds the budget (a pool inside a pool, or a pool
  on another thread) gets a single worker and leaves BLAS alone.
* :func:`worker_blas_threads` — the same split for spawned worker
  processes (the process serving replicas), which apply it with
  :func:`enter_worker` on start-up; that also holds the budget for the
  worker's life, so a pool started inside a worker gets a single worker.
* :func:`policy` — the resolved setting, stamped into reports, with the
  k-means distance block budget (:mod:`repro.core.precision`) and the
  host fingerprint (BLAS build, numpy, python, machine).

Sequential callers (one worker) never touch BLAS: a lone worker is
fastest with the library's own multi-threading.  BLAS threads are set at
runtime through the OpenBLAS ``*_set_num_threads*`` symbol via ``ctypes``;
where numpy ships no such symbol every BLAS call here is a no-op.  The
thread count changes timing only — results are bit-identical.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core import precision

#: (getter, setter) symbol pairs of the OpenBLAS builds numpy ships
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity (macOS, Windows)
        return os.cpu_count() or 1


def _find_blas():
    """``(setter name, getter, setter, default threads)`` of numpy's
    OpenBLAS, or ``None``."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return set_name, getter, setter, int(getter())
    return None


_blas_lock = threading.Lock()
_blas_found: Any = False  # False until looked up, then _find_blas()'s result


def _blas():
    """The BLAS handle, looked up on first use (not at import)."""
    global _blas_found
    with _blas_lock:
        if _blas_found is False:
            _blas_found = _find_blas()
        return _blas_found


def blas_threads() -> Optional[int]:
    """The BLAS library's current thread count, or ``None`` if unknown."""
    blas = _blas()
    return int(blas[1]()) if blas is not None else None


def set_blas_threads(n: Optional[int]) -> Optional[int]:
    """Set the BLAS thread count; returns the previous count.

    ``None`` leaves the setting alone.  Without a BLAS symbol this does
    nothing and returns ``None``.
    """
    previous = blas_threads()
    if previous is not None and n is not None:
        _blas()[2](max(1, int(n)))
    return previous


# the budget: regions holding it, and the last outermost grant (for
# policy()); module state because the BLAS thread count it guards is
# process-wide
_lock = threading.Lock()
_active = 0
_in_worker = False  # set by enter_worker: this process is one pool worker
_last_granted: Optional[int] = None


def _split(workers: int) -> Tuple[int, Optional[int]]:
    """``(granted workers, BLAS threads each)`` of the whole budget; the
    BLAS share is ``None`` when one worker is granted."""
    cpus = available_cpus()
    granted = max(1, min(int(workers), cpus))
    return granted, (cpus // granted if granted > 1 else None)


@contextmanager
def parallel(workers: int) -> Iterator[int]:
    """Run a worker pool inside the CPU budget; yields the granted workers.

    A request for one worker is sequential: it grants 1 and holds nothing.
    Otherwise the outermost region grants ``min(workers, cpus)`` and sets
    BLAS to ``cpus // granted`` threads, restoring the previous count on
    exit (exceptions included); a nested or concurrent region grants 1,
    so a pool started from a pool's thread runs sequentially.
    """
    global _active, _last_granted
    if workers <= 1:
        yield 1
        return
    with _lock:
        if _active or _in_worker:
            granted, restore = 1, None
        else:
            granted, blas = _split(workers)
            _last_granted = granted
            restore = set_blas_threads(blas) if blas is not None else None
        _active += 1
    try:
        yield granted
    finally:
        with _lock:
            _active -= 1
            set_blas_threads(restore)


def enter_worker(blas_threads: Optional[int]) -> None:
    """Start-up call of a spawned pool worker process, for its whole life.

    Sets BLAS to the parent's share (``None`` leaves it alone) and marks
    the budget as held, so a pool started inside the worker grants one
    worker instead of splitting the cores again.
    """
    global _in_worker
    with _lock:
        _in_worker = True
        set_blas_threads(blas_threads)


def worker_blas_threads(workers: int) -> Optional[int]:
    """BLAS threads for each of ``workers`` spawned worker processes.

    Their share of the cores, or ``None`` (keep the library default) for
    a single worker or a single CPU.
    """
    return _split(workers)[1]


def _blas_build() -> Tuple[Optional[str], Optional[str]]:
    """``(name, version)`` of the BLAS numpy was built against, from its
    build config (``None`` where numpy does not report it)."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return None, None
    return info.get("name"), info.get("version")


def policy() -> Dict[str, Any]:
    """The resolved CPU policy and host fingerprint, JSON-able, for reports.

    ``blas_default_threads`` is the library's count when first looked up;
    ``granted_workers`` is the grant of the latest outermost region
    (``None`` before the first).  ``distance_block_bytes`` is the current
    k-means distance block budget and ``distance_block_source`` where it
    came from (``default``, ``env`` or ``override``).  ``blas_name``,
    ``blas_version``, ``numpy``, ``python`` and ``machine`` say what the
    numbers were measured on.
    """
    blas = _blas()
    blas_name, blas_version = _blas_build()
    return {
        "cpus": available_cpus(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas_name,
        "blas_version": blas_version,
        "blas_symbol": blas[0] if blas is not None else None,
        "blas_default_threads": blas[3] if blas is not None else None,
        "blas_threads": blas_threads(),
        "granted_workers": _last_granted,
        "distance_block_bytes": precision.distance_block_bytes(),
        "distance_block_source": precision.distance_block_source(),
    }
