"""Per-run environment record: host, library versions, BLAS threads, steal
time and a fixed host-speed reference loop.

None of this is an end-to-end metric.  It is printed with each result so a
reader can tell host drift (steal time, a slower reference loop) from a
regression in formdec.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cache_sizes():
    """Cache size per level of CPU 0, as the kernel reports it."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(f"{base}/{entry}/size")
    return out


def openblas_threads():
    """Thread count of every OpenBLAS mapped into this process."""
    libs = set()
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in os.path.basename(path).lower():
            libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                out[os.path.basename(path)] = int(fn())
                break
    return out


def cpu_ticks():
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    line = (_read("/proc/stat") or "cpu 0").splitlines()[0].split()
    ticks = [int(x) for x in line[1:]]
    steal = ticks[7] if len(ticks) > 7 else 0
    # guest time is already counted in user time
    return steal, sum(ticks[:8])


def steal_share(before, after):
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def reference_loop_ms(repeats=5):
    """Best of `repeats` timings of a fixed pure-Python loop, in ms."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return round(1000.0 * best, 3)


def snapshot():
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
    }
