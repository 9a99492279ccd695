"""Host fingerprint and process resource readings.

Every result is stamped with the fingerprint so that two runs measured on
different machines, core sets or BLAS builds are never compared silently
(``compare.py`` flags them).
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import sys
import time

import numpy as np

_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_version() -> str:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _openblas_threads() -> int:
    """Thread count of the OpenBLAS NumPy links against, or -1 if unknown."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


def fingerprint() -> dict[str, object]:
    """What a measurement depends on besides the code: cores, Python, BLAS."""
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "blas_threads": _openblas_threads(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0 if sys.platform != "darwin" else kb / 2**20


class CpuClock:
    """Process CPU seconds over wall seconds since construction (``ratio``)."""

    def __init__(self) -> None:
        t = os.times()
        self._cpu0 = t.user + t.system
        self._wall0 = time.perf_counter()

    def ratio(self) -> float:
        t = os.times()
        wall = time.perf_counter() - self._wall0
        return (t.user + t.system - self._cpu0) / wall if wall > 0 else 0.0
