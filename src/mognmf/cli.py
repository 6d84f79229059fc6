"""Command-line pipeline: simulate, unmix, evaluate, ablate, fuse, sweep.

Every command reads an optional JSON config file, applies flag
overrides on top (flags win), writes its artifacts into --out, and
drops a manifest.json recording the full config snapshot, input hashes,
output names, timings, iteration counts, and the final objective.
Numeric artifacts (CSV, PGM, raw cubes) are bit-identical across runs
with the same config and seed; manifests additionally carry wall-clock
timings.

Exit codes: 0 success, 2 usage/validation error, 3 numerical failure.
The MOGNMF_THREADS environment variable caps sweep parallelism
(default: available cores).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import simgen
from .errors import DivergenceError, ParamError, ShapeError, UnmixingError
from .hsi_core import UnmixParams, load_cube, save_abundance_maps, save_cube
from .metrics import evaluate_model
from .unmix import SolverConfig, VARIANTS, consensus_graph, fused_orders, run_solver

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

EVAL_COLUMNS = ("variant", "K", "seed", "snr_db", "mean_sad", "rmse", "iters", "wall_ms")

ABLATION_CASES = (
    ("I", "mognmf"),
    ("II", "case_ii"),
    ("III", "case_iii"),
    ("IV", "case_iv"),
    ("V", "case_v"),
)


# ---------------------------------------------------------------------------
# shared helpers


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _save_matrix(path: Path, matrix: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.17g")


def _load_matrix(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=np.float64))


def _write_manifest(out_dir: Path, payload: dict) -> Path:
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _read_manifest(directory: Path) -> dict:
    path = directory / "manifest.json"
    if not path.exists():
        raise ParamError(f"no manifest.json in {directory}")
    return json.loads(path.read_text())


def _thread_cap() -> int:
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


def _build_params(config_path, **overrides) -> UnmixParams:
    base = {}
    if config_path is not None:
        try:
            base = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ParamError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(base, dict):
            raise ParamError("config file must hold a JSON object")
    params = UnmixParams.from_dict(base)
    changes = {k: v for k, v in overrides.items() if v is not None}
    if changes:
        params = params.replace(**changes)
    return params


def _resolve_library(library_path, bands: int, seed: int):
    if library_path is not None:
        return simgen.load_library(library_path), str(library_path)
    return simgen.synthetic_library(band_count=bands, seed=seed), f"synthetic(bands={bands})"


def _guarded(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DivergenceError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(EXIT_NUMERICAL)
    except UnmixingError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(EXIT_VALIDATION)


# ---------------------------------------------------------------------------
# command bodies (importable, CLI-independent)


def cmd_simulate(
    out_dir,
    preset: str = "simu1",
    m: int = 4,
    snr_db: float | None = 30.0,
    seed: int = 0,
    height: int = 64,
    width: int = 64,
    smoothness: float = 4.0,
    library_path=None,
    bands: int = 100,
) -> dict:
    """Generate a synthetic scene and write cube + ground truth + manifest."""
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    library, library_desc = _resolve_library(library_path, bands, seed)
    if preset == "simu1":
        scene = simgen.build_simu1_scene(
            library, M=m, height=height, width=width,
            smoothness=smoothness, target_snr_db=snr_db, seed=seed,
        )
    elif preset == "simu2":
        scene = simgen.build_simu2_layout(
            library, M=m, height=height, width=width,
            target_snr_db=snr_db, seed=seed,
        )
    else:
        raise ParamError(f"unknown preset {preset!r} (expected simu1 or simu2)")

    save_cube(scene.cube, out_dir / "cube.raw", format="raw-f32")
    _save_matrix(out_dir / "A_true.csv", scene.A_true)
    _save_matrix(out_dir / "S_true.csv", scene.S_true)
    outputs = ["cube.raw", "cube.raw.json", "A_true.csv", "S_true.csv"]
    manifest = {
        "command": "simulate",
        "preset": preset,
        "m": m,
        "snr_db": snr_db,
        "seed": seed,
        "height": height,
        "width": width,
        "smoothness": smoothness if preset == "simu1" else None,
        "library": library_desc,
        "library_hash": _sha256(Path(library_path)) if library_path else None,
        "endmember_names": list(scene.endmember_names),
        "clamp_fraction": scene.clamp_fraction,
        "outputs": outputs,
        "wall_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    _write_manifest(out_dir, manifest)
    return manifest


def cmd_unmix(
    cube_path,
    m: int,
    out_dir,
    variant: str = "mognmf",
    init: str = "vca_fcls",
    params: UnmixParams | None = None,
    cube_format: str = "raw-f32",
    dump_wm: bool = False,
) -> dict:
    """Unmix a cube and write A/S/E/objective CSVs, PGM maps, manifest."""
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = params or UnmixParams()
    cube = load_cube(cube_path, format=cube_format)
    config = SolverConfig(params=params, variant=variant, init=init)
    model = run_solver(cube, m, config)

    _save_matrix(out_dir / "A.csv", model.endmembers)
    _save_matrix(out_dir / "S.csv", model.abundances)
    _save_matrix(out_dir / "E.csv", model.noise)
    _save_matrix(out_dir / "objective.csv", model.objective_trace.reshape(-1, 1))
    map_paths = save_abundance_maps(
        model.abundances, cube.height, cube.width, out_dir / "maps"
    )
    outputs = ["A.csv", "S.csv", "E.csv", "objective.csv"]
    outputs += [f"maps/{p.name}" for p in map_paths]

    wm_stats = None
    if model.fusion is not None:
        _save_matrix(out_dir / "H.csv", model.fusion.H)
        outputs.append("H.csv")
        W = model.fusion.Wm.W
        wm_stats = {
            "min": float(W.min()),
            "max": float(W.max()),
            "mean": float(W.mean()),
            "frobenius": float(np.linalg.norm(W)),
            "degree_min": float(model.fusion.Dm.min()),
            "degree_max": float(model.fusion.Dm.max()),
            "fusion_iterations": int(model.fusion.iterations),
        }
        if dump_wm:
            _save_matrix(out_dir / "Wm.csv", W)
            outputs.append("Wm.csv")

    manifest = {
        "command": "unmix",
        "variant": variant,
        "init": init,
        "m": m,
        "config": params.to_dict(),
        "inputs": {str(cube_path): _sha256(Path(cube_path))},
        "outputs": outputs,
        "iterations": int(model.iterations),
        "converged": bool(model.converged),
        "final_objective": float(model.objective_trace[-1]),
        "gamma_used": model.gamma,
        "wm_stats": wm_stats,
        "wall_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    _write_manifest(out_dir, manifest)
    return manifest


def cmd_evaluate(result_dir, truth_dir, out_dir) -> dict:
    """Score an unmixing run against ground truth; write JSON + CSV row."""
    result_dir, truth_dir = Path(result_dir), Path(truth_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    A_est = _load_matrix(result_dir / "A.csv")
    S_est = _load_matrix(result_dir / "S.csv")
    A_true = _load_matrix(truth_dir / "A_true.csv")
    S_true = _load_matrix(truth_dir / "S_true.csv")
    if A_est.shape != A_true.shape:
        raise ShapeError(
            f"endmember count mismatch: truth {A_true.shape} vs estimate {A_est.shape}"
        )
    result_manifest = _read_manifest(result_dir)
    truth_manifest = _read_manifest(truth_dir)
    config = UnmixParams.from_dict(result_manifest.get("config", {}))
    orders = fused_orders(result_manifest.get("variant", ""), config.order)
    report = evaluate_model(A_true, S_true, A_est, S_est)

    (out_dir / "report.json").write_text(report.to_json() + "\n")
    snr_db = truth_manifest.get("snr_db")
    row = {
        "variant": result_manifest.get("variant", ""),
        "K": max(orders, default=config.order),
        "seed": config.seed,
        "snr_db": "" if snr_db is None else snr_db,
        "mean_sad": f"{report.mean_sad:.17g}",
        "rmse": f"{report.rmse:.17g}",
        "iters": result_manifest.get("iterations", ""),
        "wall_ms": result_manifest.get("wall_ms", ""),
    }
    with open(out_dir / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=EVAL_COLUMNS)
        writer.writeheader()
        writer.writerow(row)
    manifest = {
        "command": "evaluate",
        "inputs": {
            str(result_dir / "A.csv"): _sha256(result_dir / "A.csv"),
            str(truth_dir / "A_true.csv"): _sha256(truth_dir / "A_true.csv"),
        },
        "outputs": ["report.json", "report.csv"],
        "mean_sad": report.mean_sad,
        "rmse": report.rmse,
    }
    _write_manifest(out_dir, manifest)
    return manifest


def cmd_fuse(
    cube_path,
    out_dir,
    params: UnmixParams | None = None,
    cube_format: str = "raw-f32",
    dump_wm: bool = False,
    dump_graphs: bool = False,
) -> dict:
    """Build multi-order graphs for a cube, fuse them, and emit H (+ W_m, graphs)."""
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = params or UnmixParams()
    cube = load_cube(cube_path, format=cube_format)
    graphs, state = consensus_graph(cube, params)
    _save_matrix(out_dir / "H.csv", state.H)
    _save_matrix(out_dir / "fusion_objective.csv", state.objective_trace.reshape(-1, 1))
    outputs = ["H.csv", "fusion_objective.csv"]
    if dump_wm:
        _save_matrix(out_dir / "Wm.csv", state.Wm.W)
        outputs.append("Wm.csv")
    if dump_graphs:
        for g in graphs.all_graphs():
            name = f"W_{g.kind}_{g.order}.csv"
            _save_matrix(out_dir / name, g.W)
            outputs.append(name)
    manifest = {
        "command": "fuse",
        "config": params.to_dict(),
        "inputs": {str(cube_path): _sha256(Path(cube_path))},
        "outputs": outputs,
        "fusion_iterations": int(state.iterations),
        "fusion_converged": bool(state.converged),
        "final_objective": float(state.objective_trace[-1]),
        "wall_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    _write_manifest(out_dir, manifest)
    return manifest


def _job(cube_path, truth_dir, run_dir, m, variant, init, params, **row) -> dict:
    """One ablate/sweep run; ``row`` holds extra report columns for its table."""
    return {
        "cube_path": cube_path,
        "truth_dir": truth_dir,
        "run_dir": run_dir,
        "m": m,
        "variant": variant,
        "init": init,
        "params": params,
        "row": row,
    }


def _single_run(job: dict) -> dict:
    """Unmix + evaluate one job; returns its report row plus ``job["row"]``."""
    run_dir = job["run_dir"]
    cmd_unmix(
        job["cube_path"],
        job["m"],
        run_dir,
        variant=job["variant"],
        init=job["init"],
        params=job["params"],
    )
    cmd_evaluate(run_dir, job["truth_dir"], run_dir / "eval")
    with open(run_dir / "eval" / "report.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    row.update(job["row"])
    return row


def _run_jobs(jobs: list[dict]) -> list[dict]:
    workers = min(_thread_cap(), len(jobs)) if jobs else 1
    if workers <= 1:
        return [_single_run(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_single_run, jobs))


def cmd_ablate(
    cube_path,
    truth_dir,
    out_dir,
    seeds: list[int],
    m: int,
    params: UnmixParams | None = None,
    init: str = "vca_fcls",
) -> dict:
    """Run the regularization cases and the order study over several seeds.

    Cases: I = full model, II = no noise term, III = sparsity only,
    IV = second-order graph only, V = first-order graph only; the order
    study reruns the full model with K = 1, 2, 3.  Writes per-seed rows
    plus a mean +/- std summary per (case, K).
    """
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = params or UnmixParams()
    runs = out_dir / "runs"
    jobs = []
    for seed in seeds:
        seeded = params.replace(seed=seed)
        for case, variant in ABLATION_CASES:
            jobs.append(
                _job(cube_path, truth_dir, runs / f"case{case}_seed{seed}", m, variant,
                     init, seeded, case=case)
            )
        for k in (1, 2):  # K=3 is the Case I row
            jobs.append(
                _job(cube_path, truth_dir, runs / f"caseI_K{k}_seed{seed}", m, "mognmf",
                     init, seeded.replace(order=k), case="I")
            )
    rows = _run_jobs(jobs)

    run_columns = ("case",) + EVAL_COLUMNS
    with open(out_dir / "ablation_runs.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=run_columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)

    groups: dict = {}
    for row in rows:
        groups.setdefault((row["case"], row["K"]), []).append(row)
    with open(out_dir / "ablation_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["case", "K", "n_seeds", "mean_sad_mean", "mean_sad_std", "rmse_mean", "rmse_std"]
        )
        for (case, k), grp in sorted(groups.items()):
            sads = np.array([float(r["mean_sad"]) for r in grp])
            rmses = np.array([float(r["rmse"]) for r in grp])
            writer.writerow(
                [
                    case,
                    k,
                    len(grp),
                    f"{sads.mean():.17g}",
                    f"{sads.std():.17g}",
                    f"{rmses.mean():.17g}",
                    f"{rmses.std():.17g}",
                ]
            )
    manifest = {
        "command": "ablate",
        "inputs": {str(cube_path): _sha256(Path(cube_path))},
        "outputs": ["ablation_runs.csv", "ablation_summary.csv"],
        "seeds": list(seeds),
        "config": params.to_dict(),
        "wall_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    _write_manifest(out_dir, manifest)
    return manifest


REGULARIZATION_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)


def cmd_sweep(
    out_dir,
    preset: str,
    m: int,
    snrs: list[float],
    seeds: list[int],
    variants: list[str],
    params: UnmixParams | None = None,
    init: str = "vca_fcls",
    height: int = 64,
    width: int = 64,
    smoothness: float = 4.0,
    library_path=None,
    bands: int = 100,
    lambdas: list[float] | None = None,
    betas: list[float] | None = None,
) -> dict:
    """Grid sweep over SNRs, seeds, variants, and optionally lambda/beta.

    One sweep.csv row per run: the eval columns followed by the lambda
    and beta the run used.
    """
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = params or UnmixParams()
    lambdas = list(lambdas) if lambdas else [params.lam]
    betas = list(betas) if betas else [params.beta]
    jobs = []
    for snr in snrs:
        for seed in seeds:
            scene_dir = out_dir / "scenes" / f"snr{snr:g}_seed{seed}"
            cmd_simulate(
                scene_dir,
                preset=preset,
                m=m,
                snr_db=snr,
                seed=seed,
                height=height,
                width=width,
                smoothness=smoothness,
                library_path=library_path,
                bands=bands,
            )
            for variant in variants:
                for lam in lambdas:
                    for beta in betas:
                        name = f"snr{snr:g}_seed{seed}_{variant}_lam{lam:g}_beta{beta:g}"
                        jobs.append(
                            _job(scene_dir / "cube.raw", scene_dir, out_dir / "runs" / name,
                                 m, variant, init, params.replace(seed=seed, lam=lam, beta=beta),
                                 **{"lambda": f"{lam:g}", "beta": f"{beta:g}"})
                        )
    rows = _run_jobs(jobs)
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=EVAL_COLUMNS + ("lambda", "beta"), extrasaction="ignore"
        )
        writer.writeheader()
        writer.writerows(rows)
    manifest = {
        "command": "sweep",
        "outputs": ["sweep.csv"],
        "preset": preset,
        "snrs": list(snrs),
        "seeds": list(seeds),
        "variants": list(variants),
        "lambdas": lambdas,
        "betas": betas,
        "config": params.to_dict(),
        "wall_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    _write_manifest(out_dir, manifest)
    return manifest


# ---------------------------------------------------------------------------
# click wiring


def _int_list(ctx, param, value) -> list[int]:
    """Accepts '0..9' ranges and '0,3,7' lists."""
    text = value.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(
            f"expected a range like 0..9 or a list like 0,3,7, got {value!r}"
        ) from exc


def _float_list(ctx, param, value) -> list[float] | None:
    if value is None:
        return None
    try:
        return [float(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(f"expected a comma list of numbers, got {value!r}") from exc


def _reg_grid(ctx, param, value) -> list[float] | None:
    if value is not None and value.strip() == "grid":
        return list(REGULARIZATION_GRID)
    return _float_list(ctx, param, value)


def _variant_list(ctx, param, value) -> list[str]:
    variants = [v.strip() for v in value.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANTS:
            raise click.BadParameter(f"unknown variant {v!r}")
    return variants


def _sigma(ctx, param, value):
    if value is None or value == "auto":
        return value
    try:
        return float(value)
    except ValueError as exc:
        raise click.BadParameter(f'must be a number or "auto", got {value!r}') from exc


def _param_options(fn):
    """Adds --config and one flag per UnmixParams field; ``fn`` receives them as ``params=``."""

    @functools.wraps(fn)
    def command(config_path, **kw):
        overrides = {name: kw.pop(name) for name in UnmixParams.__dataclass_fields__}
        return fn(params=_guarded(_build_params, config_path, **overrides), **kw)

    options = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="JSON config file; flags override its values."),
        click.option("--gamma", type=float, default=None),
        click.option("--beta", type=float, default=None),
        click.option("--lambda", "lam", type=float, default=None),
        click.option("--mu", type=float, default=None),
        click.option("--alpha", type=float, default=None),
        click.option("--delta", type=float, default=None),
        click.option("--k", "order", type=int, default=None, help="graph order K"),
        click.option("--c", "neighbors", type=int, default=None, help="k-NN count C"),
        click.option("--c-spatial", "neighbors_spatial", type=int, default=None),
        click.option("--c-spectral", "neighbors_spectral", type=int, default=None),
        click.option("--sigma-s", type=str, default=None, callback=_sigma),
        click.option("--sigma-l", type=str, default=None, callback=_sigma),
        click.option("--eps1", type=float, default=None),
        click.option("--eps2", type=float, default=None),
        click.option("--t1", type=int, default=None),
        click.option("--t2", type=int, default=None),
        click.option("--seed", type=int, default=None),
        click.option("--gamma-as-written", is_flag=True, default=None,
                     help="Use the summed l1/l2 form of the gamma estimator."),
        click.option("--absolute-eps1", is_flag=True, default=None,
                     help="Interpret eps1 as an absolute objective change."),
        click.option("--no-order-norm", "order_norm", flag_value=False, default=None,
                     help="Keep raw graph powers (no per-order max normalization)."),
    ]
    for option in reversed(options):
        command = option(command)
    return command


@click.group()
def main():
    """Adaptive multi-order graph regularized NMF unmixing pipeline."""


@main.command()
@click.option("--preset", type=click.Choice(["simu1", "simu2"]), default="simu1")
@click.option("--m", type=int, default=4, help="number of endmembers (>= 2)")
@click.option("--snr", "snr_db", type=float, default=30.0)
@click.option("--noiseless", is_flag=True, default=False)
@click.option("--seed", type=int, default=0)
@click.option("--height", type=int, default=64)
@click.option("--width", type=int, default=64)
@click.option("--smoothness", type=float, default=4.0)
@click.option("--library", "library_path", type=click.Path(exists=True), default=None)
@click.option("--bands", type=int, default=100, help="bands for the synthetic library")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def simulate(snr_db, noiseless, **kw):
    """Generate a synthetic scene with ground truth."""
    manifest = _guarded(cmd_simulate, snr_db=None if noiseless else snr_db, **kw)
    click.echo(
        f"scene written to {kw['out_dir']} (clamp fraction {manifest['clamp_fraction']:.2e})"
    )


@main.command()
@click.option("--cube", "cube_path", type=click.Path(), required=True)
@click.option("--format", "cube_format", type=click.Choice(["raw-f32", "csv"]),
              default="raw-f32")
@click.option("--m", type=int, required=True)
@click.option("--variant", type=click.Choice(list(VARIANTS)), default="mognmf")
@click.option("--init", type=click.Choice(["vca_fcls", "random"]), default="vca_fcls")
@click.option("--dump-wm", is_flag=True, default=False)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_param_options
def unmix(**kw):
    """Unmix a cube; writes A/S/E/objective CSVs, PGM maps, and a manifest."""
    manifest = _guarded(cmd_unmix, **kw)
    click.echo(
        f"{kw['variant']} finished after {manifest['iterations']} iterations, "
        f"objective {manifest['final_objective']:.6e}"
    )


@main.command()
@click.option("--result", "result_dir", type=click.Path(exists=True), required=True)
@click.option("--truth", "truth_dir", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def evaluate(**kw):
    """Score an unmixing run against ground truth."""
    manifest = _guarded(cmd_evaluate, **kw)
    click.echo(f"mean SAD {manifest['mean_sad']:.6f}, RMSE {manifest['rmse']:.6f}")


@main.command()
@click.option("--cube", "cube_path", type=click.Path(), required=True)
@click.option("--format", "cube_format", type=click.Choice(["raw-f32", "csv"]),
              default="raw-f32")
@click.option("--dump-wm", is_flag=True, default=False)
@click.option("--dump-graphs", is_flag=True, default=False)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_param_options
def fuse(**kw):
    """Learn the consensus graph for a cube and emit H (optionally W_m and graphs)."""
    manifest = _guarded(cmd_fuse, **kw)
    click.echo(
        f"fusion converged={manifest['fusion_converged']} "
        f"after {manifest['fusion_iterations']} sweeps"
    )


@main.command()
@click.option("--cube", "cube_path", type=click.Path(exists=True), required=True)
@click.option("--truth", "truth_dir", type=click.Path(exists=True), required=True)
@click.option("--m", type=int, required=True)
@click.option("--seeds", type=str, default="0..4", callback=_int_list,
              help="e.g. 0..9 or 0,3,7")
@click.option("--init", type=click.Choice(["vca_fcls", "random"]), default="vca_fcls")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_param_options
def ablate(**kw):
    """Run regularization cases I-V plus the K=1..3 order study."""
    _guarded(cmd_ablate, **kw)
    click.echo(f"ablation table written to {kw['out_dir']}")


@main.command()
@click.option("--preset", type=click.Choice(["simu1", "simu2"]), default="simu1")
@click.option("--m", type=int, default=4)
@click.option("--snrs", type=str, default="10,20,30,40", callback=_float_list)
@click.option("--seeds", type=str, default="0..4", callback=_int_list)
@click.option("--variants", type=str, default="mognmf,nmf,snmf", callback=_variant_list)
@click.option("--lambdas", type=str, default=None, callback=_reg_grid,
              help='comma list of lambda values, or "grid" for the 1e-3..1e3 set')
@click.option("--betas", type=str, default=None, callback=_reg_grid,
              help='comma list of beta values, or "grid" for the 1e-3..1e3 set')
@click.option("--init", type=click.Choice(["vca_fcls", "random"]), default="vca_fcls")
@click.option("--height", type=int, default=64)
@click.option("--width", type=int, default=64)
@click.option("--smoothness", type=float, default=4.0)
@click.option("--library", "library_path", type=click.Path(exists=True), default=None)
@click.option("--bands", type=int, default=100)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_param_options
def sweep(**kw):
    """Simulate scenes over an SNR/seed grid and unmix with each variant."""
    _guarded(cmd_sweep, **kw)
    click.echo(f"sweep table written to {kw['out_dir']}")


if __name__ == "__main__":
    main()
