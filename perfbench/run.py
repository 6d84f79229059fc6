"""Benchmark of the mognmf unmixing pipeline.

    python3 perfbench/run.py --workload unmix64 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  A run generates its scenes from
``--seed`` (set-up, repeated and timed), then repeats the workload in
fresh worker processes until ``--seconds`` have passed and every scene
has been processed, checks every output, and prints a report followed
by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` one more repetition runs under the
span tracer and the metrics are the per-layer ones.

Outputs must be bit-identical for one seed and one version of the
code.  Digests of the factors, the quality figures and the traced counts
are kept in ``.perfbench-work/ledger.json`` under a hash of the sources
(``src/mognmf`` and ``perfbench``), and every later run of the same seed
on the same sources is compared against them.  Any failed check makes
the run exit 1.  The workloads and the baseline are described in
perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
LEDGER = WORK / "ledger.json"

sys.path.insert(0, str(HERE))
from tracer import BOOKKEEPING, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
RUN_BUDGET_S = 150.0  # no optional repetition starts that would end past this
RUN_DEADLINE_S = 170.0  # workers still running at this point are killed

# traced counts that must repeat exactly between runs of one seed
EXACT_COUNTS = ("graph.nnz", "graph.dense_bytes", "graph.build_calls", "fusion.iterations",
                "unmix.iterations", "cli.artifact_bytes")


def code_hash() -> str:
    """Short hash of the package and benchmark sources: the ledger's key."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "mognmf").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def run_child(args: list[str], deadline: float) -> int:
    """Run worker.py in its own session; kill the whole group at ``deadline``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], env=env,
                            stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        rc = proc.wait()
    # processes a killed or crashed worker left behind: stop them and wait until they are gone
    for _ in range(100):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return rc


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(spans: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    selfs = self_times(spans)
    total = defaultdict(float)
    self_sum = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(int)
    for s in spans:
        name = s["name"]
        total[name] += s["end"] - s["start"]
        self_sum[name] += selfs[s["id"]]
        calls[name] += 1
        for key, value in s.get("attrs", {}).items():
            attr[f"{name}.{key}"] += value
    loop_self = self_sum["unmix.run_solver"]
    updates = sum(total[f"unmix.update_{b}"] for b in ("endmembers", "abundances", "noise"))
    iterations = attr["unmix.run_solver.iterations"]
    return {
        "graph.build_multi_order_graphs_s": total["graph.build_multi_order_graphs"],
        "graph.spatial_weights_s": total["graph.spatial_weights"],
        "graph.spectral_weights_s": total["graph.spectral_weights"],
        "graph.graph_powers_s": total["graph.graph_powers"],
        "graph.build_calls": calls["graph.build_multi_order_graphs"],
        "graph.nnz": attr["graph.build_multi_order_graphs.nnz"],
        "graph.dense_bytes": attr["graph.build_multi_order_graphs.dense_bytes"],
        "fusion.fuse_graphs_s": total["fusion.fuse_graphs"],
        "fusion.iterations": attr["fusion.fuse_graphs.iterations"],
        "unmix.run_solver_s": total["unmix.run_solver"],
        "unmix.estimate_gamma_s": total["unmix.estimate_gamma"],
        "unmix.init_vca_s": total["unmix.init_vca"],
        "unmix.init_fcls_s": total["unmix.init_fcls"],
        "unmix.update_endmembers_s": total["unmix.update_endmembers"],
        "unmix.update_abundances_s": total["unmix.update_abundances"],
        "unmix.update_noise_s": total["unmix.update_noise"],
        "unmix.loop_self_s": loop_self,
        "unmix.iterations": iterations,
        "unmix.s_per_iteration": (updates + loop_self) / iterations if iterations else 0.0,
        "hsi_core.load_cube_s": total["hsi_core.load_cube"],
        "hsi_core.save_abundance_maps_s": total["hsi_core.save_abundance_maps"],
        "cli.save_matrix_s": total["cli.save_matrix"],
        "cli.artifact_bytes": attr["cli.save_matrix.bytes"]
        + attr["hsi_core.save_abundance_maps.bytes"],
        "cli.evaluate_s": total["cli.cmd_evaluate"],
        "trace.bookkeeping_s": total[BOOKKEEPING],
        "trace.overhead_s": traced_wall - untraced_wall,
        # shares named by the acceptance checks in NOTES.md
        "share.graph_of_run_solver": (
            sum(v for k, v in self_sum.items() if k.startswith("graph."))
            / total["unmix.run_solver"] if total["unmix.run_solver"] else 0.0),
        "share.loop_of_wall": (updates + loop_self) / traced_wall,
    }


# ---------------------------------------------------------------------------
# ledger of values that must repeat for one seed


def check_ledger(entries: dict) -> list[str]:
    """Compare with earlier runs of the same sources in this checkout; record new keys."""
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    code = code_hash()
    entries = {f"{code}/{key}": value for key, value in entries.items()}
    problems = []
    for key, value in entries.items():
        if key not in ledger:
            ledger[key] = value
        elif ledger[key] != value:
            problems.append(f"{key} differs from an earlier run: {value} != {ledger[key]}")
    tmp = LEDGER.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(LEDGER)
    return problems


# ---------------------------------------------------------------------------


def benchmark(args, run_dir: Path) -> int:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup_times = []
    for k in range(SETUP_REPS):
        t0 = time.perf_counter()
        rc = run_child(["setup", wl.name, str(args.seed), str(run_dir / f"setup{k}"),
                        str(run_dir / f"setup{k}.json")], deadline)
        setup_times.append(time.perf_counter() - t0)
        if rc != 0:
            print(f"perfbench: set-up failed with exit code {rc}", file=sys.stderr)
            return 2
    env = json.loads((run_dir / "setup0.json").read_text())["env"]
    inputs = run_dir / "setup0"

    def rep(n: int, trace: bool) -> dict:
        result = run_dir / f"rep{n}{'-trace' if trace else ''}.json"
        rc = run_child(["rep", wl.name, str(args.seed), str(inputs), str(n), str(result)]
                       + (["--trace"] if trace else []), deadline)
        if rc != 0:
            return {"rc": rc, "scenes": [
                {"scene": i, "runs": wl.runs_per_scene, "failed": wl.runs_per_scene,
                 "problems": [f"worker exited with {rc}"]} for i in wl.rep_scenes(n)]}
        return {"rc": 0, **json.loads(result.read_text())}

    reps = []
    t_measure = time.perf_counter()
    longest = 0.0
    while time.perf_counter() < deadline and (len(reps) < wl.min_reps or (
        time.perf_counter() - t_measure < args.seconds
        and time.perf_counter() - start + 1.5 * longest < RUN_BUDGET_S
    )):
        t0 = time.perf_counter()
        reps.append(rep(len(reps), trace=False))
        longest = max(longest, time.perf_counter() - t0)
    traced = rep(0, trace=True) if args.trace and time.perf_counter() < deadline else None

    # -- checks --------------------------------------------------------------
    attempted = failed = 0
    problems = []
    first: dict = {}  # scene -> first result
    fields = ("digest", "mean_sad", "rmse")
    for r in reps + ([traced] if traced else []):
        for res in r["scenes"]:
            attempted += res["runs"]
            failed += res["failed"]
            problems += [f"scene {res['scene']}: {p}" for p in res["problems"]]
            if res["failed"]:
                continue
            ref = first.setdefault(res["scene"], res)
            if any(ref[f] != res[f] for f in fields):
                problems.append(f"scene {res['scene']}: outputs differ between repetitions")
                failed += res["runs"]
    ledger = {f"{wl.name}/seed{args.seed}/scene{i}": {f: res[f] for f in fields}
              for i, res in first.items()}

    untraced_walls = [r["wall_s"] for r in reps if r["rc"] == 0]
    # the traced repetition runs the scenes of repetition 0; compare like with like
    same_scene_walls = [r["wall_s"] for n, r in enumerate(reps)
                        if r["rc"] == 0 and wl.rep_scenes(n) == wl.rep_scenes(0)]
    metrics = {}
    if untraced_walls:
        wall = statistics.median(untraced_walls)
        if args.trace and traced and traced["rc"] == 0 and same_scene_walls:
            metrics = layer_metrics(traced["spans"], traced["wall_s"],
                                    statistics.median(same_scene_walls))
            ledger[f"{wl.name}/seed{args.seed}/counts"] = {k: metrics[k] for k in EXACT_COUNTS}
        elif not args.trace:
            metrics = {
                "wall_s": wall,
                "runs_per_s": wl.runs_per_rep / wall,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps if r["rc"] == 0),
                "setup_s": statistics.median(setup_times),
            }
            if len(first) == wl.scenes:
                metrics["mean_sad"] = statistics.fmean(r["mean_sad"] for r in first.values())
                metrics["rmse"] = statistics.fmean(r["rmse"] for r in first.values())
    problems += check_ledger(ledger)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    correct = not problems and failed == 0

    # -- report --------------------------------------------------------------
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} reps={len(reps)} elapsed={time.perf_counter() - start:.1f}s")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  setup_s samples {[round(t, 3) for t in setup_times]}")
    if untraced_walls:
        upper = (statistics.quantiles(untraced_walls, n=10, method="inclusive")[-1]
                 if len(untraced_walls) > 1 else untraced_walls[0])
        print(f"  wall_s samples {[round(t, 3) for t in untraced_walls]}: median "
              f"{statistics.median(untraced_walls):.3f}, p90 {upper:.3f}, "
              f"n={len(untraced_walls)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units.get(name, '')}")
    print(f"  {'error_rate':36s} {failed / attempted if attempted else 1.0:14.6g} "
          f"({failed} of {attempted} unmix runs failed)")
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "mognmf" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no mognmf sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return benchmark(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
