"""Host fingerprint and peak-memory readings stamped on every result.

The fingerprint records the BLAS threading the run actually had; the
benchmark never sets it, so a change that sizes BLAS threads per worker
shows up as a measured difference rather than being masked here.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
from typing import Any, Dict, Iterable, Optional


def _openblas_threads() -> Optional[int]:
    """The bundled OpenBLAS's runtime thread count, if it can be read."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> Dict[str, Any]:
    import numpy as np

    blas: Dict[str, Any] = {}
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    blas["runtime_threads"] = _openblas_threads()
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "env": {key: os.environ.get(key)
                for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _hwm_kb(pid: int) -> int:
    """VmHWM (peak resident set) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(live_workers: Iterable[int] = ()) -> float:
    """Peak RSS of this process plus its workers, in MiB.

    Live worker processes (serving workers) are read from ``/proc`` and
    summed; workers that already exited (fork pools) contribute the
    largest reaped child's peak.
    """
    own = _hwm_kb(os.getpid()) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    live = [pid for pid in live_workers if pid]
    if live:
        workers = sum(_hwm_kb(pid) for pid in live)
    else:
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0
