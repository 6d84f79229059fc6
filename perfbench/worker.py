"""One step of a benchmark run, executed in a fresh interpreter.

    python perfbench/worker.py setup <workload> <seed> <dir> <result.json>
    python perfbench/worker.py rep <workload> <seed> <dir> <rep> <result.json> [--trace]

``setup`` generates the run's scenes and writes them to ``<dir>``.
``rep`` runs one timed repetition of the workload on those files and
checks its outputs.  Each repetition gets its own process so that peak
RSS (``ru_maxrss``) covers that repetition only.  The package is
reached only through its public entry points, looked up on the module
at call time so that the tracer's wrappers are used when ``--trace`` is
given.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from workloads import (
    BANDS,
    CONVERGE_EPS1,
    CONVERGE_VARIANTS,
    LIBRARY_ENTRIES,
    LIBRARY_SEED,
    SNR_DB,
    WORKLOADS,
    scene_seed,
)

FACTOR_FILES = ("A.csv", "S.csv", "E.csv", "objective.csv", "H.csv")


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count OpenBLAS will use, asked from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "MOGNMF_THREADS": os.environ.get("MOGNMF_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# setup


def setup(workload: str, seed: int, root: Path) -> dict:
    """Generate the run's scenes; cube and truth go to disk."""
    import mognmf as mg

    wl = WORKLOADS[workload]
    library = mg.synthetic_library(band_count=BANDS, entries=LIBRARY_ENTRIES, seed=LIBRARY_SEED)
    for i in range(wl.scenes):
        sseed = scene_seed(seed, i)
        scene = mg.build_simu1_scene(
            library, M=wl.m, height=wl.size, width=wl.size,
            smoothness=wl.smoothness, target_snr_db=SNR_DB, seed=sseed,
        )
        d = root / f"scene{i}"
        d.mkdir(parents=True)
        if workload == "converge32":  # in-library workload: no file formats involved
            np.save(d / "cube.npy", scene.cube.data)
            np.save(d / "A_true.npy", scene.A_true)
            np.save(d / "S_true.npy", scene.S_true)
        else:
            mg.save_cube(scene.cube, d / "cube.raw")
            np.savetxt(d / "A_true.csv", scene.A_true, delimiter=",", fmt="%.17g")
            np.savetxt(d / "S_true.csv", scene.S_true, delimiter=",", fmt="%.17g")
            (d / "manifest.json").write_text(
                json.dumps({"command": "simulate", "preset": "simu1", "seed": sseed,
                            "snr_db": SNR_DB}) + "\n"
            )
    return {"env": environment()}


# ---------------------------------------------------------------------------
# output checks


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _factor_problems(A, S, E, shape) -> list[str]:
    L, M, N = shape
    problems = []
    for name, X, want in (("A", A, (L, M)), ("S", S, (M, N)), ("E", E, (L, N))):
        if X.shape != want:
            problems.append(f"{name} has shape {X.shape}, expected {want}")
        elif not np.all(np.isfinite(X)):
            problems.append(f"{name} is not finite")
        elif name != "E" and np.any(X < 0):
            problems.append(f"{name} has negative entries")
    return problems


def _load_csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=np.float64))


def _check_run_dir(run_dir: Path, shape) -> list[str]:
    A, S, E = (_load_csv(run_dir / n) for n in ("A.csv", "S.csv", "E.csv"))
    problems = _factor_problems(A, S, E, shape)
    if not np.all(np.isfinite(_load_csv(run_dir / "objective.csv"))):
        problems.append("objective trace is not finite")
    return problems


# ---------------------------------------------------------------------------
# one repetition per workload: each returns (wall_s, scene results)
#
# A scene result is {"scene", "runs", "failed", "problems", "mean_sad",
# "rmse", "digest"}; quality is the mean over the scene's successful runs.


def _quality(sads, rmses) -> dict:
    return {"mean_sad": float(np.mean(sads)) if sads else None,
            "rmse": float(np.mean(rmses)) if rmses else None}


def rep_unmix64(wl, seed, root: Path, out: Path, scenes):
    import mognmf.cli
    from mognmf.errors import UnmixingError

    L, N = BANDS, wl.size * wl.size
    done = []
    t0 = time.perf_counter()
    for i in scenes:
        d, run_dir = root / f"scene{i}", out / f"scene{i}"
        params = mognmf.UnmixParams(seed=scene_seed(seed, i))
        try:
            mognmf.cli.cmd_unmix(d / "cube.raw", wl.m, run_dir, variant="mognmf", params=params)
            mognmf.cli.cmd_evaluate(run_dir, d, run_dir / "eval")
            done.append((i, None))
        except UnmixingError as exc:
            done.append((i, f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - t0

    results = []
    for i, error in done:
        run_dir = out / f"scene{i}"
        res = {"scene": i, "runs": 1, "failed": 0, "problems": [], "digest": None}
        if error is None:
            res["problems"] = _check_run_dir(run_dir, (L, wl.m, N))
            if not (run_dir / "H.csv").exists():
                res["problems"].append("H.csv missing")
            report = json.loads((run_dir / "eval" / "report.json").read_text())
            res.update(_quality([report["mean_sad"]], [report["rmse"]]))
            if not res["problems"]:
                res["digest"] = _digest(*(run_dir / n for n in FACTOR_FILES))
        else:
            res["problems"] = [error]
        res["failed"] = 1 if res["problems"] else 0
        results.append(res)
    return wall, results


def rep_converge32(wl, seed, root: Path, out: Path, scenes):
    import mognmf.metrics
    import mognmf.unmix
    from mognmf.errors import UnmixingError

    inputs = []
    for i in scenes:
        d = root / f"scene{i}"
        cube = mognmf.HsiCube(np.load(d / "cube.npy"), wl.size, wl.size)
        inputs.append((i, cube, np.load(d / "A_true.npy"), np.load(d / "S_true.npy")))

    L, N = BANDS, wl.size * wl.size
    wall = 0.0  # solver and scoring only; the output checks between runs are not timed
    results = []
    for i, cube, A_true, S_true in inputs:
        res = {"scene": i, "runs": 0, "failed": 0, "problems": [], "digest": None}
        sads, rmses, digest = [], [], hashlib.sha256()
        for variant in CONVERGE_VARIANTS:
            params = mognmf.UnmixParams(seed=scene_seed(seed, i), eps1=CONVERGE_EPS1)
            config = mognmf.unmix.SolverConfig(params=params, variant=variant)
            res["runs"] += 1
            t0 = time.perf_counter()
            try:
                model = mognmf.unmix.run_solver(cube, wl.m, config)
                report = mognmf.metrics.evaluate_model(
                    A_true, S_true, model.endmembers, model.abundances
                )
                error = None
            except UnmixingError as exc:
                error = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            problems = [error] if error else _factor_problems(
                model.endmembers, model.abundances, model.noise, (L, wl.m, N))
            if problems:
                res["failed"] += 1
                res["problems"] += [f"{variant}: {p}" for p in problems]
                continue
            sads.append(report.mean_sad)
            rmses.append(report.rmse)
            for X in (model.endmembers, model.abundances, model.noise, model.objective_trace):
                digest.update(np.ascontiguousarray(X).tobytes())
        res.update(_quality(sads, rmses))
        if not res["problems"]:
            res["digest"] = digest.hexdigest()
        results.append(res)
    return wall, results


REPS = {"unmix64": rep_unmix64, "converge32": rep_converge32}


# ---------------------------------------------------------------------------
# tracing


def _matrix_size(W) -> tuple[int, int]:
    """(nonzeros, bytes) of a dense array or a scipy sparse matrix."""
    if hasattr(W, "nnz"):
        return int(W.nnz), int(sum(getattr(W, a).nbytes for a in ("data", "indices", "indptr")
                                   if hasattr(W, a)))
    return int(np.count_nonzero(W)), int(W.nbytes)


def _graph_attrs(args, kwargs, graphs):
    sizes = [_matrix_size(g.W) for g in graphs.all_graphs()]
    return {"nnz": sum(s[0] for s in sizes), "dense_bytes": sum(s[1] for s in sizes)}


def _iteration_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _paths_attrs(args, kwargs, paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def install_tracer():
    import mognmf.cli
    import mognmf.graph
    import mognmf.unmix
    from tracer import Tracer

    tracer = Tracer()
    wraps = [
        # (module, name looked up by the caller, span label, attrs)
        (mognmf.graph, "spatial_weights", "graph.spatial_weights", None),
        (mognmf.graph, "spectral_weights", "graph.spectral_weights", None),
        (mognmf.graph, "graph_powers", "graph.graph_powers", None),
        (mognmf.unmix, "build_multi_order_graphs", "graph.build_multi_order_graphs", _graph_attrs),
        (mognmf.unmix, "fuse_graphs", "fusion.fuse_graphs", _iteration_attrs),
        (mognmf.unmix, "estimate_gamma", "unmix.estimate_gamma", None),
        (mognmf.unmix, "init_vca", "unmix.init_vca", None),
        (mognmf.unmix, "init_fcls", "unmix.init_fcls", None),
        (mognmf.unmix, "update_endmembers", "unmix.update_endmembers", None),
        (mognmf.unmix, "update_abundances", "unmix.update_abundances", None),
        (mognmf.unmix, "update_noise", "unmix.update_noise", None),
        (mognmf.unmix, "run_solver", "unmix.run_solver", _iteration_attrs),
        (mognmf.cli, "run_solver", "unmix.run_solver", _iteration_attrs),
        (mognmf.cli, "load_cube", "hsi_core.load_cube", None),
        (mognmf.cli, "save_abundance_maps", "hsi_core.save_abundance_maps", _paths_attrs),
        (mognmf.cli, "_save_matrix", "cli.save_matrix", _file_attrs),
        (mognmf.cli, "cmd_unmix", "cli.cmd_unmix", None),
        (mognmf.cli, "cmd_evaluate", "cli.cmd_evaluate", None),
    ]
    for module, name, label, attrs in wraps:
        tracer.wrap(module, name, label, attrs)
    return tracer


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="step", required=True)
    s = sub.add_parser("setup")
    s.add_argument("workload", choices=sorted(WORKLOADS))
    s.add_argument("seed", type=int)
    s.add_argument("dir", type=Path)
    s.add_argument("result", type=Path)
    r = sub.add_parser("rep")
    r.add_argument("workload", choices=sorted(WORKLOADS))
    r.add_argument("seed", type=int)
    r.add_argument("dir", type=Path)
    r.add_argument("rep", type=int)
    r.add_argument("result", type=Path)
    r.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    if args.step == "setup":
        payload = setup(args.workload, args.seed, args.dir)
    else:
        wl = WORKLOADS[args.workload]
        out = args.result.parent / f"out-{args.rep}{'-trace' if args.trace else ''}"
        out.mkdir(parents=True)
        tracer = install_tracer() if args.trace else None
        wall, scenes = REPS[args.workload](wl, args.seed, args.dir, out, wl.rep_scenes(args.rep))
        payload = {
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "scenes": scenes,
            "spans": tracer.spans if tracer else None,
        }
    args.result.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
