import multiprocessing
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import mognmf.unmix as unmix
from mognmf import simgen, workers
from mognmf.errors import DivergenceError, ParamError
from mognmf.hsi_core import HsiCube, UnmixParams
from mognmf.simgen import build_simu1_scene, synthetic_library
from mognmf.unmix import consensus_graph
from oracle import oracle_case


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
        # where os has no affinity mask (macOS, Windows)
        monkeypatch.delenv("MOGNMF_THREADS", raising=False)
        monkeypatch.delattr(workers.os, "sched_getaffinity", raising=False)
        assert workers.thread_cap() == (workers.os.cpu_count() or 1)

    @pytest.mark.parametrize(
        "cpus, size", [({0}, 1), ({1, 3}, 2), ({0, 1, 2, 5}, 2)], ids=["one", "two", "four"]
    )
    def test_unset_is_the_affinity_mask(self, monkeypatch, fake_blas, cpus, size):
        # under `taskset -c 0` the graph pool and the ablate/sweep workers get one core
        monkeypatch.delenv("MOGNMF_THREADS", raising=False)
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert workers.thread_cap() == len(cpus)
        assert workers.pool_size() == size

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


class TestNumericCodeIsPinned:
    def _counting(self, monkeypatch, fake_blas, name, seen, fail=False):
        inner = getattr(unmix, name)

        def counted(*args, **kwargs):
            seen.setdefault(name, set()).add(tuple(b.count for b in fake_blas))
            out = inner(*args, **kwargs)
            return np.full_like(out, np.nan) if fail else out

        monkeypatch.setattr(unmix, name, counted)

    def test_run_solver_runs_at_one_blas_thread(self, monkeypatch, fake_blas):
        # init, graph stage and loop: every BLAS call of a run, in-process
        # ablate/sweep jobs included, sees one thread, and the counts come back
        monkeypatch.setenv("MOGNMF_THREADS", "2")
        seen = {}
        names = ("init_vca", "init_fcls", "update_endmembers", "update_abundances",
                 "update_noise")
        for name in names:
            self._counting(monkeypatch, fake_blas, name, seen)
        scene = build_simu1_scene(synthetic_library(band_count=20), M=3, height=8, width=8)
        config = unmix.SolverConfig(UnmixParams(neighbors=4, t1=5))
        unmix.run_solver(scene.cube, 3, config)
        assert seen == {name: {(1, 1)} for name in names}
        assert [b.count for b in fake_blas] == [2, 4]
        seen.clear()
        self._counting(monkeypatch, fake_blas, "update_abundances", seen, fail=True)
        with pytest.raises(DivergenceError):
            unmix.run_solver(scene.cube, 3, config)
        assert seen["update_abundances"] == {(1, 1)}
        assert [b.count for b in fake_blas] == [2, 4]

    def test_generate_abundances_runs_at_one_blas_thread(self, monkeypatch, fake_blas):
        seen = []
        cholesky = simgen._rbf_cholesky

        def counted(*args):
            seen.append([b.count for b in fake_blas])
            return cholesky(*args)

        monkeypatch.setattr(simgen, "_rbf_cholesky", counted)
        simgen.generate_abundances(6, 7, 3, seed=0)
        assert seen == [[1, 1], [1, 1]]
        assert [b.count for b in fake_blas] == [2, 4]

    def test_scene_mixing_runs_at_one_blas_thread(self, monkeypatch, fake_blas):
        # the noise-free mixture A S of a scene, outside generate_abundances's pin
        seen = []
        mix = simgen.mix_lmm

        class Seen:
            # read by mix_lmm's np.asarray, inside its pin
            def __init__(self, array):
                self.array = array

            def __array__(self, dtype=None, copy=None):
                seen.append([b.count for b in fake_blas])
                return self.array.astype(dtype)

        monkeypatch.setattr(simgen, "mix_lmm", lambda A, S: mix(Seen(A), S))
        build_simu1_scene(synthetic_library(band_count=12), M=3, height=6, width=6)
        assert seen == [[1, 1]]
        assert [b.count for b in fake_blas] == [2, 4]


_BITS_SCRIPT = """
import sys
import numpy as np
from mognmf.hsi_core import HsiCube, UnmixParams
from mognmf.simgen import build_simu1_scene, synthetic_library
from mognmf.unmix import SolverConfig, run_solver

if sys.argv[1] == "scene":
    library = synthetic_library(band_count=100, seed=1)
    scene = build_simu1_scene(library, M=4, height=100, width=100, seed=0)
    arrays = [scene.cube.data, scene.S_true]
else:
    cube = HsiCube(data=np.load(sys.argv[1]), height=100, width=100)
    model = run_solver(cube, 4, SolverConfig(UnmixParams(t1=5), variant="nmf"))
    arrays = [model.endmembers, model.abundances, model.noise, model.objective_trace]
sys.stdout.buffer.write(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
"""


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: [0])(0)) < 2 or not workers._openblas(),
    reason="needs two cores in the affinity mask and an OpenBLAS thread-count setter",
)
@pytest.mark.parametrize("job", ["scene", "solver"])
def test_bits_do_not_depend_on_openblas_threads(tmp_path, job):
    # at 100x100 pixels the Cholesky products of the scene and X S^T, A^T X
    # of the loop change bits with OpenBLAS's thread count unless pinned
    arg = "scene"
    if job == "solver":
        library = synthetic_library(band_count=100, seed=1)
        arg = str(tmp_path / "cube.npy")
        np.save(arg, build_simu1_scene(library, M=4, height=100, width=100, seed=0).cube.data)
    src = str(Path(workers.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _BITS_SCRIPT, arg], env=env,
                              capture_output=True, check=True, timeout=120)
        outputs.append(done.stdout)
    assert len(outputs[0]) > 0
    assert outputs[0] == outputs[1]


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
        # the units ran under the pin, on one thread too
        assert fake_blas[0].calls == [1, 2]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "raised"])
    def test_trims_once_after_the_buffers_are_freed(self, monkeypatch, fake_blas, threads, fail):
        # one trim, once the buffers are unreferenced, so their pages go back
        # to the OS; a raising unit gets its one trim too
        monkeypatch.setenv("MOGNMF_THREADS", threads)
        refs, trims = [], []

        def buffers():
            b = np.empty(8)
            refs.append(weakref.ref(b))
            return b

        def work(unit, b):
            if fail and unit == 3:
                raise ValueError("bad unit")
            return unit

        monkeypatch.setattr(workers, "_trim_heaps", lambda: trims.append([r() for r in refs]))
        if fail:
            with pytest.raises(ValueError, match="bad unit"):
                workers.run_units(work, range(6), buffers)
            assert len(trims) == 1
        else:
            assert workers.run_units(work, range(6), buffers) == list(range(6))
            assert trims == [[None] * int(threads)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_stage_records_threads_and_trims_after_a_pool(self, monkeypatch, threads):
        # the spectral k-NN and the fusion's Gram pass each return their
        # threads' memory, on one thread too
        monkeypatch.setenv("MOGNMF_THREADS", threads)
        trims = []
        monkeypatch.setattr(workers, "_trim_heaps", lambda: trims.append(1))
        cube, kw = oracle_case("random24")
        state = consensus_graph(cube, UnmixParams(**kw))
        assert state.graph_workers == workers.pool_size()
        assert state.graph_ms >= 0
        assert len(trims) == 2

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
        monkeypatch.setattr(workers, "MAX_THREADS", 4)
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
