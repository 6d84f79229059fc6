import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from mognmf import workers
from mognmf.errors import ParamError
from mognmf.hsi_core import HsiCube, UnmixParams
from mognmf.unmix import consensus_graph


class _FakeBlas:
    """A thread-count getter and setter pair that records what it is set to."""

    def __init__(self, count):
        self.count = count
        self.calls = []

    def get(self):
        return self.count

    def put(self, count):
        self.calls.append(count)
        self.count = count


@pytest.fixture
def fake_blas(monkeypatch):
    blas = [_FakeBlas(2), _FakeBlas(4)]
    monkeypatch.setattr(workers, "_openblas", lambda: [(b.get, b.put) for b in blas])
    return blas


class TestThreadCap:
    def test_unset_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("MOGNMF_THREADS", raising=False)
        assert workers.thread_cap() == (workers.os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["zero", "0", "-2", "1.5"])
    def test_malformed_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("MOGNMF_THREADS", raw)
        with pytest.raises(ParamError):
            workers.thread_cap()

    @pytest.mark.parametrize("threads, size", [("1", 1), ("2", 2), ("7", 2)])
    def test_pool_size_is_capped_by_units_in_flight(self, monkeypatch, fake_blas, threads, size):
        monkeypatch.setenv("MOGNMF_THREADS", threads)
        assert workers.pool_size() == size

    def test_pool_size_is_one_without_a_blas_setter(self, monkeypatch):
        monkeypatch.setenv("MOGNMF_THREADS", "2")
        monkeypatch.setattr(workers, "_openblas", lambda: [])
        assert workers.pool_size() == 1


class TestBlasPin:
    def test_restores_after_normal_exit(self, fake_blas):
        with workers.blas_pinned():
            assert [b.count for b in fake_blas] == [1, 1]
        assert [b.count for b in fake_blas] == [2, 4]

    def test_restores_after_exception(self, fake_blas):
        with pytest.raises(RuntimeError):
            with workers.blas_pinned():
                raise RuntimeError("unit failed")
        assert [b.count for b in fake_blas] == [2, 4]

    def test_nested_pins_restore_once(self, fake_blas):
        with workers.blas_pinned():
            with workers.blas_pinned():
                pass
            assert [b.count for b in fake_blas] == [1, 1]
        assert [b.calls for b in fake_blas] == [[1, 2], [1, 4]]

    def test_real_openblas(self):
        blas = workers._openblas()
        if not blas:
            pytest.skip("no OpenBLAS thread-count setter in this process")
        before = [get() for get, _ in blas]
        with pytest.raises(RuntimeError):
            with workers.blas_pinned():
                assert [get() for get, _ in blas] == [1] * len(blas)
                raise RuntimeError("unit failed")
        assert [get() for get, _ in blas] == before


class TestRunUnits:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_results_in_unit_order(self, monkeypatch, fake_blas, threads):
        monkeypatch.setenv("MOGNMF_THREADS", threads)
        made = []

        def buffers():
            made.append(threading.current_thread())
            return len(made)

        def work(unit, slot):
            time.sleep(0.001 * (unit % 3))  # units finish out of order
            return unit * unit

        assert workers.run_units(work, range(9), buffers) == [u * u for u in range(9)]
        # one buffer set per thread, all made by the calling thread
        assert made == [threading.current_thread()] * int(threads)
        # the pool ran under the pin, and a single thread left BLAS alone
        assert fake_blas[0].calls == ([1, 2] if threads == "2" else [])

    def test_exception_is_raised_after_units_stop(self, monkeypatch, fake_blas):
        monkeypatch.setenv("MOGNMF_THREADS", "2")
        running = []

        def work(unit, slot):
            running.append(unit)
            time.sleep(0.01)
            running.remove(unit)
            if unit == 2:
                raise ValueError("bad unit")
            return unit

        with pytest.raises(ValueError, match="bad unit"):
            workers.run_units(work, range(20), lambda: None)
        assert running == []
        assert [b.count for b in fake_blas] == [2, 4]

    def test_units_run_on_the_calling_thread_and_no_thread_outlives_the_call(
        self, monkeypatch, fake_blas
    ):
        monkeypatch.setenv("MOGNMF_THREADS", "2")
        before = set(threading.enumerate())
        seen = []

        def work(unit, slot):
            seen.append(threading.current_thread())
            time.sleep(0.01)
            return unit

        assert workers.run_units(work, range(8), lambda: None) == list(range(8))
        assert threading.current_thread() in seen
        assert len(set(seen)) <= workers.pool_size()
        assert set(threading.enumerate()) <= before  # the pool's threads have ended

    def test_no_unit_is_claimed_after_one_raises(self, monkeypatch, fake_blas):
        monkeypatch.setenv("MOGNMF_THREADS", "2")
        raised, late = threading.Event(), []

        def work(unit, slot):
            if raised.is_set():
                late.append(unit)
            if unit == 1:
                raised.set()
                raise ValueError("bad unit")
            time.sleep(0.02)
            return unit

        with pytest.raises(ValueError, match="bad unit"):
            workers.run_units(work, range(20), lambda: None)
        # a unit starts after the raise only if its thread claimed it before
        # the failure was recorded
        assert len(late) <= workers.pool_size() - 1

    def test_no_two_units_in_flight_share_buffers(self, monkeypatch, fake_blas):
        # four threads, twice the default, and frequent thread switches: a
        # slot handed to two units at once shows
        monkeypatch.setenv("MOGNMF_THREADS", "4")
        monkeypatch.setattr(workers, "BLOCK", 4 * workers.UNIT)
        busy, clashes, lock = set(), [], threading.Lock()

        def work(unit, slot):
            with lock:
                if slot in busy:
                    clashes.append(unit)
                busy.add(slot)
            sum(range(2000))
            with lock:
                busy.discard(slot)
            return unit

        slots, result = iter(range(100)), []
        caller = threading.Thread(target=lambda: result.extend(
            workers.run_units(work, range(400), lambda: next(slots))))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert result == list(range(400))
        assert clashes == []


# Python 3.12+ warns on fork() in a process with threads (OpenBLAS's own)
@pytest.mark.filterwarnings(r"ignore:This process \(pid=\d+\) is multi-threaded:DeprecationWarning")
def test_graph_stage_runs_in_a_child_forked_after_it(monkeypatch):
    # the graph stage leaves no pool behind whose threads a forked child lacks
    monkeypatch.setenv("MOGNMF_THREADS", "2")
    if not workers._openblas():
        pytest.skip("no OpenBLAS thread-count setter in this process")
    rng = np.random.default_rng(0)
    cube = HsiCube(data=rng.random((8, 16 * 16)), height=16, width=16)
    params = UnmixParams(neighbors=4)
    consensus_graph(cube, params)
    child = multiprocessing.get_context("fork").Process(target=consensus_graph, args=(cube, params))
    child.start()
    child.join(timeout=30)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0
