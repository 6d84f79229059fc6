"""Command-line pipeline: simulate, unmix, evaluate, ablate, fuse, sweep.

Every command reads an optional JSON config file, applies flag
overrides on top (flags win), and writes its artifacts into --out
through one writer, which creates --out on the first artifact written:
a command that fails before that leaves no --out behind.  The writer
also drops a manifest.json recording the command, its outputs in write
order, the wall-clock time ``wall_ms``, the peak resident set size
``peak_rss_mb`` (this process's own, or for a study, if larger, the
largest its runs' manifests report) and, where the command has them,
input hashes.  One rule (``_Outputs``) records the command's arguments:
every argument of its cmd_* function but out_dir, so

* simulate: preset, m, snr_db, seed, height, width, smoothness (null
  for simu2), library_path, bands;
* unmix: cube_path, m, variant, init, config, cube_format, dump_wm;
* evaluate: result_dir, truth_dir;
* fuse: cube_path, config, cube_format, dump_wm, m;
* ablate: cube_path, truth_dir, seeds, m, config, init;
* sweep: preset, m, snrs, seeds, variants, config, init, lambdas and
  betas (as its runs used them), height, width, smoothness,
  library_path, bands.

Beside them each command writes the fields it computes: iteration
counts, final objectives, fusion fields, scores.  Numeric artifacts
(CSV, PGM, raw cubes) are bit-identical across runs with the same
config and seed; manifests additionally carry wall-clock timings.

Exit codes, set by ``main`` alone: 0 success, 2 usage/validation or I/O
error (a wrong-typed config value, an --out beneath a regular file),
3 numerical failure; a diverged ``unmix`` still writes its manifest,
with ``stop_reason`` "diverged".  The MOGNMF_THREADS environment
variable (``workers``) caps the worker processes of ablate and sweep and
the threads of the graph stage.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import simgen
from .errors import DivergenceError, ParamError, ShapeError, UnmixingError
from .fusion import FusionState
from .graph import neighbor_count
from .hsi_core import CUBE_FORMATS, UnmixParams, load_cube, read_json_object, read_matrix
# _Outputs.matrix calls write_matrix as _save_matrix, the name perfbench/worker.py traces
from .hsi_core import save_abundance_maps, save_cube, write_matrix as _save_matrix
from .metrics import evaluate_model
from .unmix import INITS, VARIANTS, SolverConfig, consensus_graph, graph_orders
from .unmix import run_solver
from .workers import run_jobs, thread_cap

try:
    import resource
except ImportError:  # not on Windows
    resource = None

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

EVAL_COLUMNS = ("variant", "K", "seed", "snr_db", "mean_sad", "rmse", "iters", "wall_ms")
SUMMARY_COLUMNS = (
    "case", "K", "n_seeds", "mean_sad_mean", "mean_sad_std", "rmse_mean", "rmse_std"
)

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


class _Outputs:
    """One command's --out: its timer, its artifact list and its manifest.

    Built from the command's arguments (its ``locals()`` on entry), which
    the manifest records by one rule: every argument but ``out_dir``, a
    path as a string and ``params`` as ``config`` (``UnmixParams.to_dict``).
    The directory is created by the first ``path`` call, so a command
    that fails before writing an artifact leaves no --out behind.
    """

    def __init__(self, command: str, args: dict):
        self.t0 = time.perf_counter()
        self.command = command
        args = dict(args)
        self.dir = Path(args.pop("out_dir"))
        params = args.pop("params", None)
        self.args = {name: str(v) if isinstance(v, Path) else v for name, v in args.items()}
        if params is not None:
            self.args["config"] = params.to_dict()
        self.names: list[str] = []

    def path(self, name: str, *beside: str) -> Path:
        """Where artifact ``name`` goes; records it, then ``beside`` (files its writer adds)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        self.names += [name, *beside]
        return self.dir / name

    def matrix(self, name: str, matrix: np.ndarray) -> None:
        _save_matrix(self.path(name), matrix)

    def consensus(self, state: FusionState | None, dump_wm: bool) -> dict:
        """Writes H.csv and, under ``dump_wm``, W_m; returns the manifest's fusion fields.

        W_m = sum_v sum_k coef[v, k-1] W_v^k is dumped as ``coef.csv`` and each
        view's order-1 graph, one i,j,w row per stored entry, as ``W_<kind>.csv``.
        The fields, None without a graph term, are each view's sigma and
        order-1 max degree (the most neighbors any pixel has: the hub
        count), the spectral graph's subspace dimension (None over the raw
        bands), ``wm_stats``, read from D_m and the fusion Gram matrix (W_m
        is never formed), and the graph stage's thread count and wall time.
        """
        if state is None:
            return dict.fromkeys(
                ("sigma_s_used", "sigma_l_used", "max_degree_s", "max_degree_l",
                 "spectral_dims", "wm_stats", "graph_workers", "graph_ms"))
        self.matrix("H.csv", state.H)
        if dump_wm:
            for view in state.graphs.views:
                rows = np.repeat(np.arange(view.shape[0]), np.diff(view.indptr))
                self.matrix(f"W_{view.kind}.csv", np.column_stack([rows, view.indices, view.data]))
            self.matrix("coef.csv", state.Wm.coef)
        spatial, spectral = state.graphs.views
        degree = state.Wm.degree
        return {
            "sigma_s_used": spatial.sigma,
            "sigma_l_used": spectral.sigma,
            "max_degree_s": int(np.diff(spatial.indptr).max()),
            "max_degree_l": int(np.diff(spectral.indptr).max()),
            "spectral_dims": spectral.dims,
            "wm_stats": {
                "mean": float(degree.sum()) / degree.size**2,
                "frobenius": state.wm_norm,
                "degree_min": float(degree.min()),
                "degree_max": float(degree.max()),
                "fusion_iterations": int(state.iterations),
            },
            "graph_workers": state.graph_workers,
            "graph_ms": state.graph_ms,
        }

    def table(self, name: str, columns, rows) -> None:
        """A CSV with a header; columns a row holds beyond ``columns`` are dropped."""
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)

    def manifest(self, inputs=(), peaks=(), **fields) -> dict:
        """Writes manifest.json: the arguments, then ``fields`` (over them), the
        outputs so far, ``wall_ms``, ``peak_rss_mb`` and input hashes.

        ``peak_rss_mb`` is this process's, or the largest of ``peaks`` (a
        study's runs' values) if that is larger.
        """
        manifest = {"command": self.command, "outputs": self.names, **self.args, **fields}
        if inputs:
            manifest["inputs"] = {str(p): _sha256(Path(p)) for p in inputs}
        manifest["wall_ms"] = round(1000 * (time.perf_counter() - self.t0), 3)
        manifest["peak_rss_mb"] = max(
            (p for p in (_peak_rss_mb(), *peaks) if p is not None), default=None)
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        self.dir.mkdir(parents=True, exist_ok=True)  # a diverged unmix writes no artifact
        (self.dir / "manifest.json").write_text(text)
        return manifest


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size in MB (2^20 bytes); None where it is not reported.

    Read from ``VmHWM`` (``_vm_hwm_kb``) where there is one: it belongs to
    the address space, so it restarts at ``exec``.  Otherwise from
    ``ru_maxrss``, in kilobytes on Linux and in bytes on macOS, which Linux
    carries over ``fork`` and ``exec``: a command started by a larger
    process would report the starter's size.
    """
    kb = _vm_hwm_kb()
    if kb is not None:
        return round(kb / 2**10, 3)
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 3)


def _vm_hwm_kb() -> int | None:
    """The ``VmHWM`` line of /proc/self/status in kB; None where there is no such line."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _resolve_library(library_path, bands: int, seed: int):
    if library_path is not None:
        return simgen.load_library(library_path), str(library_path)
    return simgen.synthetic_library(band_count=bands, seed=seed), f"synthetic(bands={bands})"


def _check_truth(A_true, S_true, shape: tuple, against: str) -> None:
    """ShapeError unless the truth's A_true (L x m) and S_true (m x N) give ``shape`` (L, m, m, N).

    The message gives each count that differs, the truth's first.
    """
    counts = zip(("bands", "endmembers", "abundance rows", "pixels"),
                 (*A_true.shape, *S_true.shape), shape)
    differ = [f"{got} {name} vs {want}" for name, got, want in counts if got != want]
    if differ:
        raise ShapeError(f"the truth A_true {A_true.shape}, S_true {S_true.shape} does not fit "
                         f"{against}: {', '.join(differ)}")


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
    out = _Outputs("simulate", locals())
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
        raise ParamError(f"unknown preset {preset!r} (expected one of {simgen.PRESETS})")

    save_cube(scene.cube, out.path("cube.raw", "cube.raw.json"), format="raw-f32")
    out.matrix("A_true.csv", scene.A_true)
    out.matrix("S_true.csv", scene.S_true)
    return out.manifest(
        smoothness=smoothness if preset == "simu1" else None,  # simu2 takes none
        library=library_desc,
        library_hash=_sha256(Path(library_path)) if library_path else None,
        endmember_names=list(scene.endmember_names),
        clamp_fraction=scene.clamp_fraction,
    )


def cmd_unmix(
    cube_path,
    m: int,
    out_dir,
    variant: str = "mognmf",
    init: str = "vca_fcls",
    params: UnmixParams = UnmixParams(),
    cube_format: str = "raw-f32",
    dump_wm: bool = False,
) -> dict:
    """Unmix a cube and write A/S/E/objective CSVs, PGM maps, manifest."""
    out = _Outputs("unmix", locals())
    if dump_wm and not graph_orders(variant, params):
        raise ParamError(f"--dump-wm needs a graph term, which variant {variant} "
                         f"at lambda {params.lam:g} does not have")
    cube = load_cube(cube_path, format=cube_format)
    try:
        model = run_solver(cube, m, SolverConfig(params=params, variant=variant, init=init))
    except DivergenceError as exc:
        out.manifest(inputs=[cube_path], iterations=exc.iteration, converged=False,
                     stop_reason="diverged")
        raise

    out.matrix("A.csv", model.endmembers)
    out.matrix("S.csv", model.abundances)
    out.matrix("E.csv", model.noise)
    out.matrix("objective.csv", model.objective_trace.reshape(-1, 1))
    maps = save_abundance_maps(model.abundances, cube.height, cube.width, out.dir / "maps")
    out.names += [f"maps/{p.name}" for p in maps]
    fusion = out.consensus(model.fusion, dump_wm)
    return out.manifest(
        inputs=[cube_path],
        iterations=int(model.iterations),
        converged=bool(model.converged),
        stop_reason="tolerance" if model.converged else "max_iterations",
        final_objective=float(model.objective_trace[-1]),
        gamma_used=model.gamma,
        **fusion,
    )


def cmd_evaluate(result_dir, truth_dir, out_dir) -> tuple[dict, dict]:
    """Score an unmixing run against ground truth; write JSON + CSV row.

    Returns the manifest and the row written to report.csv.
    """
    out = _Outputs("evaluate", locals())
    result_dir, truth_dir = Path(result_dir), Path(truth_dir)
    inputs = [result_dir / "A.csv", result_dir / "S.csv",
              truth_dir / "A_true.csv", truth_dir / "S_true.csv"]
    A_est, S_est, A_true, S_true = map(read_matrix, inputs)
    _check_truth(A_true, S_true, (*A_est.shape, *S_est.shape), "the estimate")
    result_manifest = read_json_object(
        result_dir / "manifest.json", "variant", "config", "iterations", "wall_ms"
    )
    truth_manifest = read_json_object(truth_dir / "manifest.json")
    config = UnmixParams.from_dict(result_manifest["config"])
    report = evaluate_model(A_true, S_true, A_est, S_est)

    out.path("report.json").write_text(report.to_json() + "\n")
    snr_db = truth_manifest.get("snr_db")
    row = {
        "variant": result_manifest["variant"],
        "K": max(graph_orders(result_manifest["variant"], config), default=config.order),
        "seed": config.seed,
        "snr_db": "" if snr_db is None else snr_db,
        "mean_sad": f"{report.mean_sad:.17g}",
        "rmse": f"{report.rmse:.17g}",
        "iters": result_manifest["iterations"],
        "wall_ms": result_manifest["wall_ms"],
    }
    out.table("report.csv", EVAL_COLUMNS, [row])
    manifest = out.manifest(
        inputs=inputs,
        mean_sad=report.mean_sad,
        rmse=report.rmse,
    )
    return manifest, row


def cmd_fuse(
    cube_path,
    out_dir,
    params: UnmixParams = UnmixParams(),
    cube_format: str = "raw-f32",
    dump_wm: bool = False,
    m: int | None = None,
) -> dict:
    """Build multi-order graphs for a cube, fuse them, and emit H (+ W_m).

    Given the endmember count ``m``, the spectral graph is the one an
    ``unmix`` with that M builds; without it, the raw-band graph.
    """
    out = _Outputs("fuse", locals())
    cube = load_cube(cube_path, format=cube_format)
    state = consensus_graph(cube, params, m=m)
    out.matrix("fusion_objective.csv", state.objective_trace.reshape(-1, 1))
    fusion = out.consensus(state, dump_wm)
    return out.manifest(
        inputs=[cube_path],
        fusion_iterations=int(state.iterations),
        fusion_converged=bool(state.converged),
        final_objective=float(state.objective_trace[-1]),
        **fusion,
    )


def _single_run(job: tuple) -> dict:
    """One ablate/sweep run; ``job`` is (cmd_unmix arguments, truth dir, extra columns).

    Returns the run's report.csv row plus the extra columns and the run's
    ``peak_rss_mb``, its last manifest's, which no table writes.
    """
    unmix, truth_dir, extra = job
    cmd_unmix(**unmix)
    manifest, row = cmd_evaluate(unmix["out_dir"], truth_dir, unmix["out_dir"] / "eval")
    return {**row, **extra, "peak_rss_mb": manifest["peak_rss_mb"]}


def _check_neighbor_counts(jobs: list[tuple], n: int) -> None:
    """Each graph run's neighbor counts against the ``n`` pixels of its scene."""
    for unmix, _, _ in jobs:
        if graph_orders(unmix["variant"], unmix["params"]):
            for view in ("spatial", "spectral"):
                neighbor_count(unmix["params"], view, n)


def cmd_ablate(
    cube_path,
    truth_dir,
    out_dir,
    seeds: list[int],
    m: int,
    params: UnmixParams = UnmixParams(),
    init: str = "vca_fcls",
) -> dict:
    """Run the regularization cases and the order study over several seeds.

    Cases: I = full model, II = no noise term, III = sparsity only,
    IV = second-order graph only, V = first-order graph only; the order
    study reruns the full model with each K in 1..3 other than the
    configured one, whose rows are Case I.  Writes per-seed rows
    plus a mean +/- std summary per (case, K).
    """
    out = _Outputs("ablate", locals())
    cap = thread_cap()
    bands, pixels = load_cube(cube_path).data.shape
    A_true, S_true = (read_matrix(Path(truth_dir) / name) for name in ("A_true.csv", "S_true.csv"))
    _check_truth(A_true, S_true, (bands, m, m, pixels), f"the cube and --m {m}")
    # what each run's cmd_evaluate reads of the truth, checked before any run
    read_json_object(Path(truth_dir) / "manifest.json")
    evaluate_model(A_true, S_true, A_true, S_true)
    runs = []  # (run name, case, variant, params)
    for seed in seeds:
        seeded = params.replace(seed=seed)
        runs += [(f"case{case}_seed{seed}", case, variant, seeded)
                 for case, variant in ABLATION_CASES]
        # the configured K is the Case I row
        runs += [(f"caseI_K{k}_seed{seed}", "I", "mognmf", seeded.replace(order=k))
                 for k in sorted({1, 2, 3} - {params.order})]
    jobs = [
        (dict(cube_path=cube_path, m=m, out_dir=out.dir / "runs" / name, variant=variant,
              init=init, params=p), truth_dir, {"case": case})
        for name, case, variant, p in runs
    ]
    _check_neighbor_counts(jobs, pixels)
    rows = run_jobs(_single_run, jobs, cap)
    out.table("ablation_runs.csv", ("case",) + EVAL_COLUMNS, rows)

    groups: dict = {}  # keyed by (case, K), K the integer graph order
    for row in rows:
        groups.setdefault((row["case"], row["K"]), []).append(row)
    summary = []
    for (case, k), grp in sorted(groups.items()):
        sads = np.array([float(r["mean_sad"]) for r in grp])
        rmses = np.array([float(r["rmse"]) for r in grp])
        stats = (sads.mean(), sads.std(), rmses.mean(), rmses.std())
        values = (case, k, len(grp), *(f"{v:.17g}" for v in stats))
        summary.append(dict(zip(SUMMARY_COLUMNS, values)))
    out.table("ablation_summary.csv", SUMMARY_COLUMNS, summary)
    return out.manifest(inputs=[cube_path], peaks=[row["peak_rss_mb"] for row in rows])


REGULARIZATION_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)

def cmd_sweep(
    out_dir,
    preset: str,
    m: int,
    snrs: list[float],
    seeds: list[int],
    variants: list[str],
    params: UnmixParams = UnmixParams(),
    init: str = "vca_fcls",
    lambdas: list[float] | None = None,
    betas: list[float] | None = None,
    height: int = 64,
    width: int = 64,
    smoothness: float = 4.0,
    library_path=None,
    bands: int = 100,
) -> dict:
    """Grid sweep over SNRs, seeds, variants, and optionally lambda/beta.

    The scene arguments (height to bands) are passed to cmd_simulate,
    with its defaults.  One sweep.csv row per run: the eval columns
    followed by the lambda and beta the run used.
    """
    out = _Outputs("sweep", locals())
    lambdas = list(lambdas) if lambdas else [params.lam]
    betas = list(betas) if betas else [params.beta]
    scenes = {(snr, seed): out.dir / "scenes" / f"snr{snr:g}_seed{seed}"
              for snr in snrs for seed in seeds}
    runs = out.dir / "runs"
    # every run's parameters (a graph run's neighbor counts against the scene's
    # pixel count included), every target SNR and the worker cap are validated
    # before anything is written
    jobs = [
        (dict(cube_path=truth / "cube.raw", m=m,
              out_dir=runs / f"snr{snr:g}_seed{seed}_{variant}_lam{lam:g}_beta{beta:g}",
              variant=variant, init=init, params=params.replace(seed=seed, lam=lam, beta=beta)),
         truth, {"lambda": f"{lam:g}", "beta": f"{beta:g}"})
        for (snr, seed), truth in scenes.items()
        for variant in variants for lam in lambdas for beta in betas
    ]
    _check_neighbor_counts(jobs, height * width)
    for snr in snrs:
        simgen.power_ratio(snr)
    cap = thread_cap()
    for (snr, seed), truth in scenes.items():
        cmd_simulate(truth, preset=preset, m=m, snr_db=snr, seed=seed,
                     height=height, width=width, smoothness=smoothness,
                     library_path=library_path, bands=bands)
    rows = run_jobs(_single_run, jobs, cap)
    out.table("sweep.csv", EVAL_COLUMNS + ("lambda", "beta"), rows)
    # the grid the runs used, never None
    return out.manifest(lambdas=lambdas, betas=betas, peaks=[row["peak_rss_mb"] for row in rows])


# ---------------------------------------------------------------------------
# click wiring


def _distinct(values: list, value: str) -> list:
    """A list option's entries: at least one, none repeated."""
    if not values:
        raise click.BadParameter(f"expected at least one entry, got {value!r}")
    if len(set(values)) != len(values):
        raise click.BadParameter(f"repeated entry in {value!r}")
    return values


def _int_list(ctx, param, value) -> list[int]:
    """Accepts '0..9' ranges and '0,3,7' lists."""
    text = value.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(
            f"expected a range like 0..9 or a list like 0,3,7, got {value!r}"
        ) from exc
    return _distinct(values, value)


def _float_list(ctx, param, value) -> list[float] | None:
    if value is None:
        return None
    try:
        values = [float(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(f"expected a comma list of numbers, got {value!r}") from exc
    if not np.isfinite(values).all():
        raise click.BadParameter(f"non-finite entry in {value!r}")
    # sweep run directories are named by f"{value:g}"
    if len({f"{v:g}" for v in _distinct(values, value)}) != len(values):
        raise click.BadParameter(f"entries of {value!r} print alike in run names")
    return values


def _reg_grid(ctx, param, value) -> list[float] | None:
    if value is not None and value.strip() == "grid":
        return list(REGULARIZATION_GRID)
    return _float_list(ctx, param, value)


def _variant_list(ctx, param, value) -> list[str]:
    variants = [v.strip() for v in value.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANTS:
            raise click.BadParameter(f"unknown variant {v!r}")
    return _distinct(variants, value)


def _sigma(ctx, param, value):
    if value is None or value == "auto":
        return value
    try:
        return float(value)
    except ValueError as exc:
        raise click.BadParameter(f'must be a number or "auto", got {value!r}') from exc


def _stack(fn, options: list):
    """``fn`` decorated with ``options``, which list in --help in the given order."""
    for option in reversed(options):
        fn = option(fn)
    return fn


def _param_options(fn):
    """Adds --config and one flag per UnmixParams field; ``fn`` receives them as ``params=``."""

    @functools.wraps(fn)
    def command(config_path, **kw):
        flags = {name: kw.pop(name) for name in UnmixParams.__dataclass_fields__}
        overrides = {name: value for name, value in flags.items() if value is not None}
        base = {} if config_path is None else read_json_object(config_path)
        params = UnmixParams.from_dict(base).replace(**overrides)
        if "seeds" in kw and ("seed" in overrides or "seed" in base):
            # ablate and sweep give every run its seed from --seeds
            raise click.BadOptionUsage(
                "seed", "--seed and a config-file seed are not used here; pass --seeds"
            )
        return fn(params=params, **kw)

    return _stack(command, [
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
        click.option("--spectral-as-written", is_flag=True, default=None,
                     help="Build the spectral graph over the raw bands, not the "
                          "M-dimensional signal subspace."),
    ])


def _scene_options(fn):
    """Adds the scene flags cmd_simulate takes besides --snr and --seed."""
    return _stack(fn, [
        click.option("--preset", type=click.Choice(list(simgen.PRESETS)), default="simu1"),
        click.option("--m", type=int, default=4, help="number of endmembers (>= 2)"),
        click.option("--height", type=int, default=64),
        click.option("--width", type=int, default=64),
        click.option("--smoothness", type=float, default=4.0),
        click.option("--library", "library_path", type=click.Path(exists=True), default=None),
        click.option("--bands", type=int, default=100, help="bands for the synthetic library"),
    ])


_DUMP_WM = click.option(
    "--dump-wm", is_flag=True, default=False,
    help="Write W_m as its order-1 graphs (i,j,w rows) and coef.csv.",
)
_FORMAT = click.option("--format", "cube_format", type=click.Choice(list(CUBE_FORMATS)),
                       default="raw-f32")
_INIT = click.option("--init", type=click.Choice(list(INITS)), default="vca_fcls")


class _Boundary(click.Group):
    """The command group: a package error or an OSError becomes one line and an exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:  # click's own handling: a closed stdout exits quietly
            raise
        except (UnmixingError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            code = EXIT_NUMERICAL if isinstance(exc, DivergenceError) else EXIT_VALIDATION
            raise SystemExit(code)


@click.group(cls=_Boundary)
def main():
    """Adaptive multi-order graph regularized NMF unmixing pipeline."""


@main.command()
@_scene_options
@click.option("--snr", "snr_db", type=float, default=30.0)
@click.option("--noiseless", is_flag=True, default=False)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def simulate(snr_db, noiseless, **kw):
    """Generate a synthetic scene with ground truth."""
    manifest = cmd_simulate(snr_db=None if noiseless else snr_db, **kw)
    click.echo(
        f"scene written to {kw['out_dir']} (clamp fraction {manifest['clamp_fraction']:.2e})"
    )


@main.command()
@click.option("--cube", "cube_path", type=click.Path(), required=True)
@_FORMAT
@click.option("--m", type=int, required=True)
@click.option("--variant", type=click.Choice(list(VARIANTS)), default="mognmf")
@_INIT
@_DUMP_WM
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_param_options
def unmix(**kw):
    """Unmix a cube; writes A/S/E/objective CSVs, PGM maps, and a manifest."""
    manifest = cmd_unmix(**kw)
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
    manifest, _ = cmd_evaluate(**kw)
    click.echo(f"mean SAD {manifest['mean_sad']:.6f}, RMSE {manifest['rmse']:.6f}")


@main.command()
@click.option("--cube", "cube_path", type=click.Path(), required=True)
@_FORMAT
@click.option("--m", type=int, default=None,
              help="number of endmembers: the spectral graph is unmix's with this M "
                   "(default: over the raw bands)")
@_DUMP_WM
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_param_options
def fuse(**kw):
    """Learn the consensus graph for a cube and emit H (optionally W_m)."""
    manifest = cmd_fuse(**kw)
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
@_INIT
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_param_options
def ablate(**kw):
    """Run regularization cases I-V plus the K=1..3 order study."""
    cmd_ablate(**kw)
    click.echo(f"ablation table written to {kw['out_dir']}")


@main.command()
@_scene_options
@click.option("--snrs", type=str, default="10,20,30,40", callback=_float_list)
@click.option("--seeds", type=str, default="0..4", callback=_int_list)
@click.option("--variants", type=str, default="mognmf,nmf,snmf", callback=_variant_list)
@click.option("--lambdas", type=str, default=None, callback=_reg_grid,
              help='comma list of lambda values, or "grid" for the 1e-3..1e3 set')
@click.option("--betas", type=str, default=None, callback=_reg_grid,
              help='comma list of beta values, or "grid" for the 1e-3..1e3 set')
@_INIT
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_param_options
def sweep(**kw):
    """Simulate scenes over an SNR/seed grid and unmix with each variant."""
    cmd_sweep(**kw)
    click.echo(f"sweep table written to {kw['out_dir']}")


if __name__ == "__main__":
    main()
