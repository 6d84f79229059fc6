"""End-to-end acceptance gate.

Each test implements one acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on a green suite).  Criteria that involve unmixing quality run on
seeded synthetic scenes from this package's generators; the scene
recipe (library seed, size, smoothness) is fixed inside this module so
every run is reproducible.
"""

import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sp

from mognmf.cli import cmd_unmix
from mognmf.fusion import fuse_graphs, project_simplex, update_weights
from mognmf.graph import ConsensusOperator, laplacian_quadratic
from mognmf.hsi_core import UnmixParams
from mognmf.metrics import evaluate_model, match_endmembers, measure_snr, rmse
from mognmf.simgen import (
    add_noise_at_snr,
    build_simu1_scene,
    build_simu2_layout,
    synthetic_library,
)
from mognmf.unmix import (
    SolverConfig,
    init_fcls,
    init_vca,
    run_solver,
    update_abundances,
    update_noise,
)


def _library():
    return synthetic_library(band_count=100, entries=8, seed=1)


def _verdict(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"[criterion {number:02d}] {status} {name}: {detail} "
        f"({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number}: took {elapsed:.1f}s"


def _simplex_project_enumeration(y):
    n = len(y)
    best, best_val = None, np.inf
    for pattern in itertools.product([0, 1], repeat=n):
        support = [i for i, bit in enumerate(pattern) if bit]
        if not support:
            continue
        tau = (sum(y[i] for i in support) - 1.0) / len(support)
        h = np.zeros(n)
        ok = True
        for i in support:
            h[i] = y[i] - tau
            if h[i] < -1e-12:
                ok = False
                break
        if ok:
            val = np.sum((h - y) ** 2)
            if val < best_val:
                best, best_val = h, val
    return best


def test_criterion_01_fusion_qp_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_qp = 0.0
    for _ in range(200):
        P = rng.uniform(0.0, 5.0, size=(2, 3))
        alpha = float(rng.uniform(0.2, 2.0))
        H = update_weights(P, alpha)
        y = -P.ravel() / (2.0 * alpha)
        taus = np.arange(-y.max(), 1.0 - y.min() + 1e-3, 1e-3)
        grid = np.maximum(y[None, :] + taus[:, None], 0.0)
        best = grid[np.argmin(np.abs(grid.sum(axis=1) - 1.0))]
        worst_qp = max(worst_qp, float(np.max(np.abs(H.ravel() - best))))
    worst_proj = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        y = rng.normal(scale=4.0, size=n)
        err = np.max(np.abs(project_simplex(y) - _simplex_project_enumeration(y)))
        worst_proj = max(worst_proj, float(err))
    elapsed = time.perf_counter() - t0
    ok = worst_qp <= 2e-3 and worst_proj <= 1e-10
    _verdict(
        1,
        "fusion QP oracle equivalence",
        ok,
        f"grid-search err {worst_qp:.2e} (<=2e-3), enumeration err {worst_proj:.2e} (<=1e-10)",
        elapsed,
        10.0,
    )


def test_criterion_02_laplacian_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 31))
        m = int(rng.integers(1, 6))
        raw = rng.random((n, n))
        W = (raw + raw.T) / 2
        np.fill_diagonal(W, 0.0)
        S = rng.random((m, n))
        pairwise = 0.0
        for i in range(n):
            for j in range(n):
                pairwise += 0.5 * W[i, j] * np.sum((S[:, i] - S[:, j]) ** 2)
        trace_form = laplacian_quadratic(S, ConsensusOperator([sp.csr_array(W)], [[1.0]]))
        worst = max(worst, abs(trace_form - pairwise) / max(abs(pairwise), 1e-30))
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "Tr(S L S^T) equals pairwise sum",
        worst <= 1e-10,
        f"worst relative deviation {worst:.2e} (<=1e-10) over 100 instances",
        elapsed,
        5.0,
    )


def test_criterion_03_monotone_descent():
    t0 = time.perf_counter()
    lib = _library()
    solver_viol = solver_steps = 0
    fusion_viol = fusion_steps = 0
    for seed in range(20):
        scene = build_simu1_scene(
            lib, M=4, height=32, width=32, smoothness=4.0,
            target_snr_db=20.0, seed=seed,
        )
        params = UnmixParams(seed=seed)
        model = run_solver(scene.cube, 4, SolverConfig(params=params, variant="mognmf"))
        tr = model.objective_trace
        diffs = np.diff(tr)
        solver_viol += int(np.sum(diffs > 1e-8 * (1.0 + np.abs(tr[:-1]))))
        solver_steps += len(diffs)
        ft = model.fusion.objective_trace
        fdiffs = np.diff(ft)
        fusion_viol += int(np.sum(fdiffs > 1e-9 * (1.0 + abs(ft[0]))))
        fusion_steps += len(fdiffs)
    elapsed = time.perf_counter() - t0
    solver_frac = 1.0 - solver_viol / max(solver_steps, 1)
    ok = solver_frac >= 0.99 and fusion_viol == 0
    _verdict(
        3,
        "monotone descent of solver and fusion traces",
        ok,
        f"solver non-increasing {100 * solver_frac:.2f}% (>=99%), "
        f"fusion violations {fusion_viol}/{fusion_steps} (must be 0)",
        elapsed,
        120.0,
    )


def test_criterion_04_trend_reproduction():
    t0 = time.perf_counter()
    lib = _library()
    sads = {v: [] for v in ("mognmf", "nmf", "snmf")}
    rmses = {v: [] for v in ("mognmf", "nmf", "snmf")}
    for seed in range(10):
        scene = build_simu1_scene(
            lib, M=4, height=64, width=64, smoothness=6.0,
            target_snr_db=30.0, seed=seed,
        )
        for variant in sads:
            params = UnmixParams(seed=seed)
            model = run_solver(scene.cube, 4, SolverConfig(params=params, variant=variant))
            report = evaluate_model(
                scene.A_true, scene.S_true, model.endmembers, model.abundances
            )
            sads[variant].append(report.mean_sad)
            rmses[variant].append(report.rmse)
    mean_sad = {v: float(np.mean(s)) for v, s in sads.items()}
    mean_rmse = {v: float(np.mean(r)) for v, r in rmses.items()}
    ok = (
        mean_sad["mognmf"] < mean_sad["nmf"]
        and mean_sad["mognmf"] < mean_sad["snmf"]
        and mean_rmse["mognmf"] <= mean_rmse["snmf"]
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        "SAD/RMSE trend vs baselines at SNR=30",
        ok,
        "mean SAD mognmf {mognmf:.6f} < nmf {nmf:.6f}, snmf {snmf:.6f}; ".format(**mean_sad)
        + "mean RMSE mognmf {mognmf:.6f} <= snmf {snmf:.6f}".format(**mean_rmse),
        elapsed,
        600.0,
    )


def test_criterion_05_ablation_ordering():
    t0 = time.perf_counter()
    lib = _library()
    cases = {"I": "mognmf", "II": "case_ii", "III": "case_iii", "V": "case_v"}
    sad_by = {c: [] for c in cases}
    rmse_by = {c: [] for c in cases}
    for seed in range(10):
        scene = build_simu1_scene(
            lib, M=4, height=32, width=32, smoothness=4.0,
            target_snr_db=20.0, seed=seed,
        )
        for case, variant in cases.items():
            params = UnmixParams(seed=seed)
            model = run_solver(scene.cube, 4, SolverConfig(params=params, variant=variant))
            report = evaluate_model(
                scene.A_true, scene.S_true, model.endmembers, model.abundances
            )
            sad_by[case].append(report.mean_sad)
            rmse_by[case].append(report.rmse)
    med_sad = {c: float(np.median(v)) for c, v in sad_by.items()}
    # the order study: K=1 is the first-order-only model, K=3 the full one
    med_rmse_k3 = float(np.median(rmse_by["I"]))
    med_rmse_k1 = float(np.median(rmse_by["V"]))
    ok = (
        med_sad["I"] <= med_sad["II"]
        and med_sad["II"] <= med_sad["III"] + 0.005
        and med_sad["I"] <= med_sad["V"] + 0.005
        and med_rmse_k3 <= med_rmse_k1 + 0.005
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        "ablation and graph-order trends at SNR=20",
        ok,
        f"median SAD I={med_sad['I']:.6f} II={med_sad['II']:.6f} "
        f"III={med_sad['III']:.6f} V={med_sad['V']:.6f}; "
        f"median RMSE K3={med_rmse_k3:.6f} K1={med_rmse_k1:.6f}",
        elapsed,
        900.0,
    )


def test_criterion_06_vca_fcls_identifiability():
    t0 = time.perf_counter()
    lib = _library()
    worst_sad = worst_rmse = 0.0
    for seed in range(3):
        scene = build_simu2_layout(
            lib, M=4, height=24, width=24, target_snr_db=None, seed=seed
        )
        A0 = init_vca(scene.cube, 4, seed=seed)
        perm, matched = match_endmembers(scene.A_true, A0)
        worst_sad = max(worst_sad, float(np.max(matched)))
        S0 = init_fcls(scene.cube, A0)
        worst_rmse = max(worst_rmse, rmse(scene.S_true, S0[perm, :]))
    elapsed = time.perf_counter() - t0
    ok = worst_sad < 1e-6 and worst_rmse < 1e-4
    _verdict(
        6,
        "pure-pixel VCA-FCLS identifiability",
        ok,
        f"worst matched SAD {worst_sad:.2e} (<1e-6), worst RMSE {worst_rmse:.2e} (<1e-4)",
        elapsed,
        30.0,
    )


def test_criterion_07_snr_calibration():
    t0 = time.perf_counter()
    lib = _library()
    scene = build_simu1_scene(
        lib, M=4, height=48, width=48, smoothness=4.0, target_snr_db=None, seed=3
    )
    worst_pre = worst_post = 0.0
    for target in (10.0, 20.0, 30.0, 40.0):
        for seed in (0, 1):
            clean = scene.cube.data  # noiseless: the mixture itself
            noisy, noise = add_noise_at_snr(clean, target, seed=seed)
            pre = measure_snr(clean, noise)
            post = measure_snr(clean, noisy - clean)
            worst_pre = max(worst_pre, abs(pre - target))
            worst_post = max(worst_post, abs(post - target))
    elapsed = time.perf_counter() - t0
    ok = worst_pre <= 1e-6 and worst_post <= 0.1
    _verdict(
        7,
        "noise calibration accuracy",
        ok,
        f"worst pre-clamp error {worst_pre:.2e} dB (<=1e-6), "
        f"worst post-clamp error {worst_post:.3f} dB (<=0.1)",
        elapsed,
        10.0,
    )


def test_criterion_08_mur_unit_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_soft = 0.0
    for _ in range(100):
        L, N = int(rng.integers(2, 8)), int(rng.integers(2, 10))
        X = rng.uniform(0.0, 1.0, size=(L, N))
        A = rng.uniform(0.1, 1.0, size=(L, 3))
        S = rng.uniform(0.0, 1.0, size=(3, N))
        beta = float(rng.uniform(0.0, 2.0))
        T = X - A @ S
        E = T * update_noise((T * T).sum(axis=1), beta)[:, None]
        for i in range(L):
            norm = float(np.sqrt((T[i] * T[i]).sum()))
            expected = T[i] * ((norm - beta) / norm) if norm >= beta and norm > 0 else np.zeros(N)
            worst_soft = max(worst_soft, float(np.max(np.abs(E[i] - expected))))
    worst_snmf = 0.0
    for _ in range(100):
        A = rng.uniform(0.1, 1.0, size=(5, 3))
        S = rng.uniform(0.1, 1.0, size=(3, 6))
        X = rng.uniform(0.1, 1.0, size=(5, 6))
        gamma = float(rng.uniform(0.05, 0.5))
        ours = update_abundances(S, A.T @ X, A.T @ A, gamma=gamma, lam=0.0)
        oracle = S * (A.T @ X) / (A.T @ A @ S + 0.5 * gamma * S ** (-0.5))
        worst_snmf = max(worst_snmf, float(np.max(np.abs(ours - oracle))))
    elapsed = time.perf_counter() - t0
    ok = worst_soft == 0.0 and worst_snmf <= 1e-12
    _verdict(
        8,
        "soft-threshold and sparse-rule unit oracles",
        ok,
        f"soft-threshold deviation {worst_soft:.2e} (exact), "
        f"sparse-rule deviation {worst_snmf:.2e} (<=1e-12)",
        elapsed,
        5.0,
    )


def test_criterion_09_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    from mognmf.cli import cmd_simulate

    scene_dir = tmp_path / "scene"
    cmd_simulate(scene_dir, preset="simu1", m=3, snr_db=25.0, seed=2,
                 height=12, width=12, smoothness=3.0, bands=30)
    params = UnmixParams(seed=6, t1=40, neighbors=6)
    for name in ("run1", "run2"):
        cmd_unmix(scene_dir / "cube.raw", 3, tmp_path / name,
                  variant="mognmf", params=params)
    identical = all(
        (tmp_path / "run1" / n).read_bytes() == (tmp_path / "run2" / n).read_bytes()
        for n in ("A.csv", "S.csv", "E.csv", "objective.csv", "H.csv")
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        9,
        "bit-identical unmix outputs for identical config+seed",
        identical,
        "A/S/E/objective/H CSVs byte-equal across two runs",
        elapsed,
        60.0,
    )


def test_criterion_10_performance_budget():
    lib = _library()
    scene = build_simu1_scene(
        lib, M=6, height=64, width=64, smoothness=6.0, target_snr_db=20.0, seed=0
    )
    t0 = time.perf_counter()
    params = UnmixParams(seed=0)  # K=3 default
    model = run_solver(scene.cube, 6, SolverConfig(params=params, variant="mognmf"))
    elapsed = time.perf_counter() - t0
    _verdict(
        10,
        "desk-scale pipeline runtime (64x64 x 100 bands, M=6, K=3)",
        model.iterations >= 1,
        f"completed {model.iterations} iterations in {elapsed:.1f}s (<60s)",
        elapsed,
        60.0,
    )
