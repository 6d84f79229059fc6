"""Worker caps, the graph stage's threads, and the BLAS pin they run under.

``MOGNMF_THREADS`` caps both the worker processes of ``ablate`` and
``sweep`` and the threads of the graph stage (``thread_cap``); unset,
the cap is the available cores.

The graph stage's pooled work (the spectral k-NN and the fusion's Gram
pass) cuts its rows into work units of ``UNIT`` rows, at most ``BLOCK``
of them in flight: ``run_units`` runs them on the calling thread and a
pool made for that call, min(cap, BLOCK // UNIT) threads in all, and
the caller combines their results in unit order, so the stage's output
does not depend on the thread count.

While the pool works, every loaded OpenBLAS is held at one thread
(``blas_pinned``): after a multithreaded call, OpenBLAS's idle threads
busy-wait on their cores, leaving the pool no core of its own.  Where
no OpenBLAS thread-count setter is found (no OpenBLAS loaded, or no
/proc/self/maps to find it by), one thread runs the units and BLAS is
left alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from .errors import ParamError

__all__ = ["UNIT", "BLOCK", "thread_cap", "pool_size", "blas_pinned", "run_units", "trim_heaps"]

UNIT = 64  # rows of one work unit of the graph stage
BLOCK = 128  # most rows of the graph stage in flight at once

# the pin is process-wide: the first pin sets one thread, the last one out restores
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list = []


def thread_cap() -> int:
    """``MOGNMF_THREADS`` (an integer >= 1), or the available cores when it is unset."""
    raw = os.environ.get("MOGNMF_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParamError(f"MOGNMF_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ParamError("MOGNMF_THREADS must be >= 1")
    return value


def _thread_functions(path: str):
    """(get, set) of the thread count of the OpenBLAS at ``path``, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@functools.cache
def _openblas() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Looked up once: numpy, imported with the package, has loaded its
    BLAS by the time the graph stage first runs.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    return [f for f in map(_thread_functions, paths) if f is not None]


def pool_size() -> int:
    """Threads ``run_units`` uses: min(``thread_cap()``, BLOCK // UNIT), or 1 without a BLAS pin."""
    return min(thread_cap(), BLOCK // UNIT) if _openblas() else 1


@contextmanager
def blas_pinned():
    """Hold every loaded OpenBLAS at one thread; restore the previous counts on exit.

    Pins nest, from one thread or several: the counts are saved by the
    first and restored when the last exits, after an exception too.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = [(put, get()) for get, put in _openblas()]
            for put, _ in _pin_saved:
                put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for put, count in _pin_saved:
                    put(count)
                _pin_saved = []


def run_units(work, units, buffers) -> list:
    """[work(unit, b) for unit in units] on ``pool_size()`` threads, results in unit order.

    The calling thread makes ``buffers()`` once per thread and works
    beside a pool of the others, made for this call, under
    ``blas_pinned``; each thread keeps its buffers and claims the next
    unit under one lock.  Once a unit raises, none is claimed, and the
    exception is raised after the pool has shut down and the pin is off.
    """
    units = list(units)
    results, failed, lock = [None] * len(units), [], threading.Lock()
    pending = iter(range(len(units)))
    sets = [buffers() for _ in range(pool_size())]

    def drain(b):
        while True:
            with lock:
                i = None if failed else next(pending, None)
            if i is None:
                return
            try:
                results[i] = work(units[i], b)
            except BaseException as exc:
                with lock:
                    failed.append(exc)

    if len(sets) == 1:
        drain(sets[0])
    else:
        with blas_pinned(), ThreadPoolExecutor(len(sets) - 1, thread_name_prefix="mognmf") as pool:
            others = pool.map(drain, sets[1:])
            drain(sets[0])
            list(others)
    if failed:
        raise failed[0]
    return results


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def trim_heaps() -> None:
    """Return the memory the pool's threads freed to the OS; a no-op without glibc.

    glibc serves the pool's threads from arenas of their own and keeps
    what they free there, so the calling thread's next stage (the
    solver) would grow the main arena beside it.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
