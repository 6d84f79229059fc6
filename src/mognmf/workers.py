"""The package's pools: worker caps, the graph stage's threads, the study processes, the BLAS pin.

``MOGNMF_THREADS``, read and written here alone, caps the ``ablate`` and
``sweep`` worker processes (``run_jobs``) and the graph stage's threads
(``thread_cap``); unset, the cap is the cores in the CPU affinity mask.

The spatial stencil, the spectral k-NN and the fusion's Gram pass cut
their N rows by one rule (``units``): ``UNIT`` = 64 rows at every N, so a
thread's buffers hold at most 64 N doubles each.  ``run_units`` runs the
units on the calling thread and a pool made for that call, min(cap,
``MAX_THREADS``) threads in all, and the caller combines their results in
unit order, so the stage's output does not depend on the thread count.

``blas_pinned`` holds every loaded OpenBLAS at one thread: over every
``run_units`` call, and over ``unmix.run_solver`` and the scene generator,
whose bits would change with BLAS's thread count.
Where no OpenBLAS thread-count setter is found (no OpenBLAS loaded, or
no /proc/self/maps), the pin does nothing, so bits can depend on the BLAS
in use, and one thread runs the units.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from .errors import ParamError

__all__ = ["UNIT", "MAX_THREADS", "units", "thread_cap", "pool_size", "blas_pinned",
           "run_units", "run_jobs"]

UNIT = 64  # rows of one work unit of the graph stage
MAX_THREADS = 2  # most threads of the graph stage: two units of buffers in flight

# the pin is process-wide: the first pin sets one thread, the last one out restores
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list = []


def units(n: int) -> list[tuple[int, int]]:
    """(lo, hi) of each work unit over n rows: ``UNIT`` rows each, the last one the remainder."""
    return [(lo, min(lo + UNIT, n)) for lo in range(0, n, UNIT)]


def thread_cap() -> int:
    """``MOGNMF_THREADS`` (an integer >= 1), or the cores in the affinity mask when it is unset."""
    raw = os.environ.get("MOGNMF_THREADS")
    if raw is None:
        affinity = getattr(os, "sched_getaffinity", None)  # not on macOS or Windows
        return len(affinity(0)) if affinity else os.cpu_count() or 1
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

    Looked up once: numpy, which every module that calls this imports,
    has loaded its BLAS by then, and that is the only OpenBLAS the
    package loads (scipy's sparse kernels, all it loads of scipy, bring none).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    return [f for f in map(_thread_functions, paths) if f is not None]


def pool_size() -> int:
    """Threads ``run_units`` uses: min(``thread_cap()``, MAX_THREADS), or 1 without a BLAS pin."""
    return min(thread_cap(), MAX_THREADS) if _openblas() else 1


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
    unit under one lock.  Once a unit raises, none is claimed.  After the
    pool has shut down and the pin is off, the buffers are dropped, the
    memory the threads freed goes back to the OS (``_trim_heaps``), and
    then a unit's exception is raised.
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

    # with one buffer set the pool starts no thread
    pool = ThreadPoolExecutor(max(1, len(sets) - 1), thread_name_prefix="mognmf")
    with blas_pinned(), pool:
        others = pool.map(drain, sets[1:])
        drain(sets[0])
        list(others)
    del sets  # freed first: the trim returns only pages no buffer holds
    _trim_heaps()
    if failed:
        raise failed[0]
    return results


def _one_thread_worker() -> None:
    """Pool initializer: a study worker process runs its graph stage on one thread."""
    os.environ["MOGNMF_THREADS"] = "1"


def run_jobs(fn, jobs: list, cap: int) -> list:
    """[fn(job) for job in jobs] on min(``cap``, len(jobs)) worker processes, in job order.

    Below two workers they run in this process.  The workers are spawned,
    not forked, so they hold no lock or thread of this one.
    """
    workers = min(cap, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    # imported here: scene generation imports this module and would pay their import time
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"),
                             initializer=_one_thread_worker) as pool:
        return list(pool.map(fn, jobs))


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _trim_heaps() -> None:
    """Return the memory the stage's threads freed to the OS; a no-op without glibc.

    glibc serves the pool's threads from arenas of their own and keeps
    what they free there, so the calling thread's next stage (the next
    graph stage, the solver) would grow the main arena beside it.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
