import csv
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner

import mognmf.cli as cli
from mognmf import simgen, workers
from mognmf.cli import (
    EVAL_COLUMNS,
    cmd_ablate,
    cmd_evaluate,
    cmd_fuse,
    cmd_simulate,
    cmd_unmix,
    main,
)
from mognmf.errors import DivergenceError, ParamError
from mognmf.graph import (
    MultiOrderGraphSet,
    WeightMatrix,
    build_multi_order_graphs,
    graph_powers,
    spatial_weights,
    spectral_weights,
)
from mognmf.hsi_core import (
    HsiCube,
    UnmixParams,
    load_cube,
    read_matrix,
    save_cube,
    write_matrix,
)
from mognmf.unmix import SolverConfig, run_solver
from oracle import consensus_tocsr, dense_knn_heat_kernel, stack_powers


@pytest.fixture()
def runner():
    return CliRunner()


def _tiny_scene_dir(tmp_path, name="scene", height=8, width=8, m=3, snr=30.0, seed=0, bands=20):
    out = tmp_path / name
    cmd_simulate(
        out, preset="simu1", m=m, snr_db=snr, seed=seed,
        height=height, width=width, smoothness=2.0, bands=bands,
    )
    return out


def _one_endmember_scene(tmp_path):
    """A noiseless 6 x 6, 12-band scene of one material, with its truth and manifest."""
    out = tmp_path / "scene1"
    out.mkdir()
    A = np.random.default_rng(0).uniform(0.2, 0.9, size=(12, 1))
    S = np.ones((1, 36))
    save_cube(HsiCube(data=A @ S, height=6, width=6), out / "cube.raw")
    write_matrix(out / "A_true.csv", A)
    write_matrix(out / "S_true.csv", S)
    (out / "manifest.json").write_text(json.dumps({"snr_db": None}))
    return out


def _read_consensus_dump(directory, n):
    """The order-1 graphs and coefficients of a --dump-wm directory, and the W_m they give."""
    views = []
    for kind in ("spatial", "spectral"):
        i, j, w = np.loadtxt(directory / f"W_{kind}.csv", delimiter=",", ndmin=2).T
        W = sp.csr_array((w, (i.astype(int), j.astype(int))), shape=(n, n))
        views.append(WeightMatrix(W=W, kind=kind))
    coef = np.loadtxt(directory / "coef.csv", delimiter=",", ndmin=2)
    Wm = np.zeros((n, n))
    for view, c in zip(views, coef, strict=True):
        for g, ck in zip(graph_powers(view, len(c), normalize=False), c):
            Wm += ck * g.toarray()
    return tuple(views), coef, Wm


class TestSimulate:
    def test_artifacts_and_manifest(self, runner, tmp_path):
        out = tmp_path / "scene"
        result = runner.invoke(
            main,
            ["simulate", "--preset", "simu1", "--m", "4", "--snr", "30",
             "--seed", "7", "--height", "8", "--width", "8", "--bands", "16",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        for name in ("cube.raw", "cube.raw.json", "A_true.csv", "S_true.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["snr_db"] == 30
        assert manifest["seed"] == 7

    @pytest.mark.parametrize("snr", ["5", "0"])
    def test_low_snr_scene_written(self, runner, tmp_path, snr):
        # the noise is exact before the clamp; the clamp is reported, not re-checked
        out = tmp_path / "scene"
        result = runner.invoke(
            main,
            ["simulate", "--m", "3", "--snr", snr, "--height", "8", "--width", "8",
             "--bands", "16", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert json.loads((out / "manifest.json").read_text())["clamp_fraction"] > 0

    def test_repeat_invocation_bit_identical(self, runner, tmp_path):
        args = ["simulate", "--m", "3", "--snr", "25", "--seed", "3",
                "--height", "6", "--width", "6", "--bands", "12"]
        r1 = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
        r2 = runner.invoke(main, args + ["--out", str(tmp_path / "b")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (tmp_path / "a/cube.raw").read_bytes() == (tmp_path / "b/cube.raw").read_bytes()
        assert (tmp_path / "a/S_true.csv").read_bytes() == (tmp_path / "b/S_true.csv").read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_64_bits_exits_2(self, runner, tmp_path, seed):
        # -1 would write the cube of seed 2^64 - 1, and 2^64 that of seed 0
        out = tmp_path / "x"
        result = runner.invoke(
            main,
            ["simulate", "--m", "3", "--height", "6", "--width", "6", "--bands", "12",
             "--seed", seed, "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "seed must be in [0, 2^64)" in result.output
        assert not out.exists()

    def test_single_endmember_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--m", "1", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("size", [["--height", "0"], ["--width", "-3"]])
    def test_non_positive_size_rejected(self, runner, tmp_path, size):
        out = tmp_path / "x"
        result = runner.invoke(main, ["simulate", *size, "--out", str(out)])
        assert result.exit_code == 2
        assert "height and width must be positive" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("source", ["synthetic", "non_numeric_csv"])
    def test_bad_input_writes_nothing(self, runner, tmp_path, source):
        # 30 endmembers against the 8-entry synthetic library, or a library CSV
        # with a non-numeric reflectance
        library = tmp_path / "lib.csv"
        library.write_text("a,0.1,0.2\nb,0.3,x\n")
        extra = ["--m", "30"] if source == "synthetic" else ["--m", "2", "--library", str(library)]
        out = tmp_path / "scene"
        result = runner.invoke(main, ["simulate", *extra, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_directory_library_exits_2(self, runner, tmp_path):
        library = tmp_path / "lib"
        library.mkdir()
        out = tmp_path / "scene"
        result = runner.invoke(
            main, ["simulate", "--m", "2", "--library", str(library), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "cannot read library file" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["inf", "-inf", "4000", "-4000"])
    def test_snr_without_finite_noise_power_exits_2(self, runner, tmp_path, snr):
        # inf would add no noise and put "Infinity" (not JSON) in the manifest;
        # the others overflow or underflow 10^(snr/10)
        out = tmp_path / "x"
        result = runner.invoke(
            main,
            ["simulate", "--m", "3", "--height", "6", "--width", "6", "--bands", "12",
             f"--snr={snr}", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "no finite positive noise power" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("smoothness", ["inf", "nan", "1e308", "1e-200"])
    def test_smoothness_without_finite_kernel_exits_2(self, runner, tmp_path, smoothness):
        # inf would put "Infinity" (not JSON) in the manifest; 1e308 overflows and
        # 1e-200 underflows the kernel's smoothness^2, and NaN was blamed on the SNR
        out = tmp_path / "x"
        result = runner.invoke(
            main,
            ["simulate", "--m", "3", "--height", "6", "--width", "6", "--bands", "12",
             "--smoothness", smoothness, "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "smoothness must be positive and finite" in result.output
        assert not out.exists()

    def test_simu2_preset_and_noiseless(self, runner, tmp_path):
        out = tmp_path / "scene2"
        result = runner.invoke(
            main,
            ["simulate", "--preset", "simu2", "--m", "4", "--noiseless",
             "--height", "16", "--width", "16", "--bands", "16", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["snr_db"] is None


class TestUnmix:
    def test_exactly_factorizable_cube_fits_to_zero(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.uniform(0.2, 1.0, size=(12, 2))
        S = np.zeros((2, 9))
        S[0, :4] = 1.0  # pure pixels for both materials
        S[1, 4:8] = 1.0
        S[:, 8] = 0.5
        cube = HsiCube(data=A @ S, height=3, width=3)
        save_cube(cube, tmp_path / "cube.raw")
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(tmp_path / "cube.raw"), "--m", "2",
             "--variant", "nmf", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["final_objective"] < 1e-6
        for name in ("A.csv", "S.csv", "E.csv", "objective.csv"):
            assert (out / name).exists()
        assert len(list((out / "maps").glob("*.pgm"))) == 2

    def test_csv_cube_gives_the_raw_run_bytes(self, tmp_path):
        # the cube's float32 values survive %.17g, so both formats load the same data
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        save_cube(load_cube(scene / "cube.raw"), tmp_path / "cube.csv", format="csv")
        params = UnmixParams(t1=5, neighbors=4)
        cmd_unmix(scene / "cube.raw", 3, tmp_path / "raw", params=params)
        cmd_unmix(tmp_path / "cube.csv", 3, tmp_path / "csv", params=params, cube_format="csv")
        for name in ("A.csv", "S.csv", "E.csv", "objective.csv", "H.csv"):
            assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "raw" / name).read_bytes()

    def test_mognmf_emits_fusion_artifacts(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path)
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3",
             "--variant", "mognmf", "--t1", "20", "--c", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert (out / "H.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        stats = manifest["wm_stats"]
        assert stats is not None
        assert set(stats) == {
            "mean", "frobenius", "degree_min", "degree_max", "fusion_iterations"
        }
        assert 0 < stats["degree_min"] <= stats["degree_max"]

    def test_wm_stats_match_dumped_consensus(self, tmp_path):
        # wm_stats are read from D_m and the fusion Gram matrix; the W_m
        # rebuilt from the dump is formed, so it is the oracle
        scene = _tiny_scene_dir(tmp_path)
        out = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 3, out, params=UnmixParams(t1=3, neighbors=4),
                  dump_wm=True)
        stats = json.loads((out / "manifest.json").read_text())["wm_stats"]
        _, _, Wm = _read_consensus_dump(out, 64)
        degree = Wm.sum(axis=1)
        assert stats["mean"] == pytest.approx(Wm.mean(), rel=1e-12)
        assert stats["frobenius"] == pytest.approx(np.linalg.norm(Wm), rel=1e-12)
        assert stats["degree_min"] == pytest.approx(degree.min(), rel=1e-12)
        assert stats["degree_max"] == pytest.approx(degree.max(), rel=1e-12)

    @pytest.mark.parametrize("variant, extra", [("nmf", []), ("mognmf", ["--lambda", "0"])],
                             ids=["nmf", "lam0"])
    def test_dump_wm_without_graph_term_exits_2(self, runner, tmp_path, variant, extra):
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3", "--variant", variant,
             "--dump-wm", *extra, "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "--dump-wm needs a graph term" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("t1, eps1, reason", [(2, 1e-12, "max_iterations"),
                                                  (500, 1e-2, "tolerance")])
    def test_stop_reason(self, tmp_path, t1, eps1, reason):
        scene = _tiny_scene_dir(tmp_path)
        manifest = cmd_unmix(scene / "cube.raw", 3, tmp_path / "run", variant="snmf",
                             params=UnmixParams(t1=t1, eps1=eps1))
        assert manifest["stop_reason"] == reason
        assert manifest["converged"] == (reason == "tolerance")

    def test_resolved_sigmas_recorded(self, tmp_path):
        scene = _tiny_scene_dir(tmp_path)
        cube = load_cube(scene / "cube.raw")
        params = UnmixParams(t1=2, neighbors=4, sigma_s=1.3)
        manifest = cmd_unmix(scene / "cube.raw", 3, tmp_path / "run", params=params)
        assert manifest["sigma_s_used"] == 1.3
        # sigma_l "auto" resolves to the median retained distance in the M = 3 subspace
        assert manifest["sigma_l_used"] == spectral_weights(cube, 3, UnmixParams(neighbors=4)).sigma
        graph_free = cmd_unmix(scene / "cube.raw", 3, tmp_path / "snmf", variant="snmf",
                               params=params)
        assert graph_free["sigma_s_used"] is None and graph_free["sigma_l_used"] is None

    def test_solver_flags_recorded_in_config(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3", "--t1", "3",
             "--c", "4", "--absolute-eps1", "--no-order-norm", "--spectral-as-written",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        config = manifest["config"]
        assert config["absolute_eps1"] is True
        assert config["order_norm"] is False
        assert config["spectral_as_written"] is True
        assert manifest["spectral_dims"] is None  # the raw bands

    def test_bad_input_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(tmp_path / "nope.raw"), "--m", "2", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_nan_parameter_exits_2_before_writing(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path)
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3",
             "--lambda", "nan", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "lam must be nonnegative and finite" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value, code",
        [("--delta", "1e155", 2), ("--mu", "1e200", 2), ("--sigma-s", "1e200", 2),
         ("--sigma-l", "1e200", 2), ("--sigma-s", "1e-200", 2), ("--sigma-l", "1e-200", 2),
         ("--alpha", "1e-300", 0)],
    )
    def test_extreme_parameter_exits_2_or_runs(self, runner, tmp_path, option, value, code):
        # delta^2, (1 + mu)^2 and sigma^2 overflow, and sigma 1e-200 squares to 0,
        # which the heat kernel divides by; alpha 1e-300 puts the fusion's weight
        # step near -1e300, where the simplex projection lost its 1 to rounding
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3", "--c", "4",
             "--t1", "5", option, value, "--out", str(out)],
        )
        assert result.exit_code == code, result.output
        if code == 2:
            bound = "underflows" if float(value) < 1 else "overflows"
            assert f"whose square {bound}" in result.output
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("command", ["unmix", "fuse"])
    def test_empty_graph_view_exits_2(self, runner, tmp_path, command):
        # every spatial neighbor is 1 or more pixels away, where the heat
        # kernel's weight exp(-d^2 / (2 sigma^2)) underflows to 0 at sigma 0.02
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        out = tmp_path / "run"
        args = [command, "--cube", str(scene / "cube.raw"), "--m", "3", "--c", "4",
                "--sigma-s", "0.02", "--dump-wm", "--out", str(out)]
        if command == "unmix":
            args += ["--t1", "5"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        errors = [ln for ln in result.output.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "spatial" in errors[0], result.output
        assert not out.exists()

    def test_missing_cube_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(tmp_path / "nope.raw"), "--m", "2",
             "--out", str(tmp_path / "run")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("fmt", ["csv", "raw-f32"])
    def test_directory_cube_exits_2(self, runner, tmp_path, fmt):
        # a directory in place of the cube file; the raw format finds its sidecar
        cube = tmp_path / "scene"
        cube.mkdir()
        (tmp_path / "scene.json").write_text(json.dumps({"bands": 12, "height": 6, "width": 6}))
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(cube), "--format", fmt, "--m", "3", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "cannot read cube file" in result.output
        assert not out.exists()

    def test_divergence_exits_3(self, runner, tmp_path, monkeypatch):
        scene = _tiny_scene_dir(tmp_path)

        def explode(*args, **kwargs):
            raise DivergenceError("objective became non-finite", iteration=4)

        monkeypatch.setattr(cli, "run_solver", explode)
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3",
             "--out", str(tmp_path / "run")],
        )
        assert result.exit_code == 3
        # the run explains itself: a manifest and no factor files
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["stop_reason"] == "diverged"
        assert manifest["iterations"] == 4
        assert manifest["converged"] is False
        assert manifest["outputs"] == []
        assert _files_under(tmp_path / "run") == ["manifest.json"]

    @pytest.mark.parametrize(
        "config",
        [{"beta": None}, {"lambda": "x"}, {"order": 2.5}, {"t1": 10.5},
         {"gamma_as_written": "no"}, {"seed": "0"}, {"t2": True},
         {"neighbors_spatial": 4.0}, {"sigma_s": True}, {"gamma": False}],
        ids=lambda config: "{}={!r}".format(*next(iter(config.items()))),
    )
    def test_wrong_typed_config_exits_2_before_writing(self, runner, tmp_path, config):
        scene = _tiny_scene_dir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3", "--variant", "nmf",
             "--t1", "3", "--config", str(path), "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        field = next(iter(config)).replace("lambda", "lam")
        assert f"error: {field} must be" in result.output
        assert not out.exists()

    def test_config_file_with_flag_override(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda": 0.2, "t1": 5, "seed": 1}))
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3",
             "--variant", "snmf", "--config", str(config), "--t1", "7",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["t1"] == 7  # flag wins
        assert manifest["config"]["lambda"] == 0.2  # file value kept

    @pytest.mark.parametrize("t1", ["10000000000000", "100000000000000000000"])
    def test_huge_iteration_cap_runs_to_tolerance(self, runner, tmp_path, t1):
        # the cap only bounds the loop: nothing is allocated by it
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3", "--t1", t1,
             "--c", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "tolerance"
        assert manifest["config"]["t1"] == int(t1)

    def test_determinism_bit_identical_outputs(self, tmp_path):
        scene = _tiny_scene_dir(tmp_path)
        params = UnmixParams(seed=4, t1=15, neighbors=4)
        for name in ("r1", "r2"):
            cmd_unmix(scene / "cube.raw", 3, tmp_path / name,
                      variant="mognmf", params=params)
        for name in ("A.csv", "S.csv", "E.csv", "objective.csv", "H.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes(), name


class TestEvaluate:
    def test_truth_scores_zero(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path)
        result_dir = tmp_path / "fake_run"
        result_dir.mkdir()
        # present the truth as an estimate, permuted
        A = np.atleast_2d(np.loadtxt(scene / "A_true.csv", delimiter=","))
        S = np.atleast_2d(np.loadtxt(scene / "S_true.csv", delimiter=","))
        perm = [2, 0, 1]
        np.savetxt(result_dir / "A.csv", A[:, perm], delimiter=",", fmt="%.17g")
        np.savetxt(result_dir / "S.csv", S[perm, :], delimiter=",", fmt="%.17g")
        (result_dir / "manifest.json").write_text(json.dumps(
            {"variant": "mognmf", "config": {"order": 3, "seed": 0},
             "iterations": 1, "wall_ms": 0.0}
        ))
        out = tmp_path / "eval"
        result = runner.invoke(
            main,
            ["evaluate", "--result", str(result_dir), "--truth", str(scene),
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["mean_sad"] <= 1e-10
        assert report["rmse"] <= 1e-12

    def test_report_csv_schema(self, tmp_path):
        scene = _tiny_scene_dir(tmp_path)
        run = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 3, run, variant="nmf",
                  params=UnmixParams(seed=0, t1=10))
        _, returned = cmd_evaluate(run, scene, tmp_path / "eval")
        with open(tmp_path / "eval" / "report.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            row = next(reader)
        assert tuple(header) == EVAL_COLUMNS
        assert len(row) == len(EVAL_COLUMNS)
        # the returned row is the one written, as ablate and sweep tabulate it
        assert set(returned) == set(EVAL_COLUMNS)
        assert [str(returned[name]) for name in EVAL_COLUMNS] == row

    def test_manifest_hashes_every_matrix_read(self, tmp_path):
        # the report reads A, S and both truths: a changed S.csv is a changed input
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        run = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 3, run, variant="nmf", params=UnmixParams(t1=3))
        first, _ = cmd_evaluate(run, scene, tmp_path / "eval1")
        names = {Path(p).name for p in first["inputs"]}
        assert names == {"A.csv", "S.csv", "A_true.csv", "S_true.csv"}
        write_matrix(run / "S.csv", np.full_like(read_matrix(run / "S.csv"), 1 / 3))
        second, _ = cmd_evaluate(run, scene, tmp_path / "eval2")
        changed = {Path(p).name for p in first["inputs"]
                   if first["inputs"][p] != second["inputs"][p]}
        assert changed == {"S.csv"}

    @pytest.mark.parametrize("variant, k", [("case_iv", "2"), ("case_v", "1"), ("snmf", "3")])
    def test_k_column_is_largest_fused_order(self, tmp_path, variant, k):
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        run = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 3, run, variant=variant,
                  params=UnmixParams(t1=3, neighbors=4))
        cmd_evaluate(run, scene, tmp_path / "eval")
        with open(tmp_path / "eval" / "report.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["K"] == k

    @pytest.mark.parametrize("variant", ["case_iv", "case_v"])
    def test_k_column_at_lambda_zero_is_configured_k(self, tmp_path, variant):
        # at lambda 0 the run fuses no graph, so K is the configured one
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        run = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 3, run, variant=variant,
                  params=UnmixParams(t1=3, neighbors=4, lam=0.0, order=3))
        assert not (run / "H.csv").exists()
        _, row = cmd_evaluate(run, scene, tmp_path / "eval")
        assert row["K"] == 3

    def test_one_endmember_run_scores(self, tmp_path):
        # A.csv is L x 1 and reads back as a column
        scene = _one_endmember_scene(tmp_path)
        run = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 1, run, params=UnmixParams(t1=5, neighbors=4))
        manifest, _ = cmd_evaluate(run, scene, tmp_path / "eval")
        assert np.isfinite(manifest["mean_sad"]) and np.isfinite(manifest["rmse"])
        assert manifest["mean_sad"] < 1e-6

    def test_m_mismatch_exits_2(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path)
        run = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 2, run, variant="nmf",
                  params=UnmixParams(seed=0, t1=5))
        result = runner.invoke(
            main,
            ["evaluate", "--result", str(run), "--truth", str(scene),
             "--out", str(tmp_path / "eval")],
        )
        assert result.exit_code == 2
        assert result.output.endswith(
            "does not fit the estimate: 3 endmembers vs 2, 3 abundance rows vs 2\n")

    def test_band_mismatch_named(self, runner, tmp_path):
        # a 12-band run against the 20-band truth: the endmember counts agree
        scene = _tiny_scene_dir(tmp_path)
        run = tmp_path / "run"
        cmd_unmix(_tiny_scene_dir(tmp_path, "other", bands=12) / "cube.raw", 3, run,
                  variant="nmf", params=UnmixParams(seed=0, t1=5))
        result = runner.invoke(
            main,
            ["evaluate", "--result", str(run), "--truth", str(scene),
             "--out", str(tmp_path / "eval")],
        )
        assert result.exit_code == 2
        assert result.output.endswith("does not fit the estimate: 20 bands vs 12\n")

    def test_bad_input_writes_nothing(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path)
        run = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 2, run, variant="nmf", params=UnmixParams(t1=5))
        out = tmp_path / "eval"
        result = runner.invoke(
            main, ["evaluate", "--result", str(run), "--truth", str(scene), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output  # 2 endmembers against 3 in the truth
        assert not out.exists()
        (run / "S.csv").unlink()
        result = runner.invoke(
            main, ["evaluate", "--result", str(run), "--truth", str(scene), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "cannot read" in result.output
        assert not out.exists()

    def test_non_finite_factor_exits_2(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path)
        run = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 3, run, variant="nmf", params=UnmixParams(t1=3))
        A = read_matrix(run / "A.csv")
        A[4, 1] = np.nan
        write_matrix(run / "A.csv", A)
        out = tmp_path / "eval"
        result = runner.invoke(
            main, ["evaluate", "--result", str(run), "--truth", str(scene), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "non-finite" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "side, content",
        [("result", "{broken"), ("result", "[]"), ("truth", "{broken"), ("truth", "[]"),
         ("result", None)],
        ids=["result-malformed", "result-not_object", "truth-malformed", "truth-not_object",
             "result-no_variant"],
    )
    def test_bad_manifest_exits_2(self, runner, tmp_path, side, content):
        scene = _tiny_scene_dir(tmp_path)
        run = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 3, run, variant="nmf", params=UnmixParams(t1=3))
        path = {"result": run, "truth": scene}[side] / "manifest.json"
        no_variant = content is None  # a run manifest without the variant K is read from
        if no_variant:
            manifest = json.loads(path.read_text())
            del manifest["variant"]
            content = json.dumps(manifest)
        path.write_text(content)
        out = tmp_path / "eval"
        result = runner.invoke(
            main, ["evaluate", "--result", str(run), "--truth", str(scene), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "manifest.json" in result.output
        if no_variant:
            assert "has no 'variant' field" in result.output
        assert not out.exists()


class TestFuse:
    def test_h_csv_and_dump(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        out = tmp_path / "fusion"
        result = runner.invoke(
            main,
            ["fuse", "--cube", str(scene / "cube.raw"), "--c", "4", "--m", "3",
             "--dump-wm", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        H = np.atleast_2d(np.loadtxt(out / "H.csv", delimiter=","))
        assert H.shape == (2, 3)
        assert H.sum() == pytest.approx(1.0, abs=1e-9)
        views, coef, Wm = _read_consensus_dump(out, 36)
        assert Wm.shape == (36, 36)
        assert coef.shape == (2, 3)
        # the dumped graphs are the ones fusion saw, written losslessly,
        # one line per stored entry
        cube = load_cube(scene / "cube.raw")
        graphs = build_multi_order_graphs(cube, 3, UnmixParams(neighbors=4))
        for view, g in zip(views, graphs.views, strict=True):
            lines = (out / f"W_{g.kind}.csv").read_text().splitlines()
            assert len(lines) == g.W.nnz
            assert np.array_equal(view.W.toarray(), g.W.toarray())
        # so the per-order graphs are the powers of the dumped ones
        dumped = MultiOrderGraphSet(views=views, orders=graphs.orders)
        for d, g in zip(stack_powers(dumped), stack_powers(graphs), strict=True):
            assert np.array_equal(d.toarray(), g.toarray())
        # fuse and unmix share one params -> graphs -> fusion path
        model = run_solver(cube, 3, SolverConfig(params=UnmixParams(neighbors=4, t1=1)))
        assert np.array_equal(H, model.fusion.H)
        assert np.array_equal(coef, model.fusion.Wm.coef)
        oracle = consensus_tocsr(model.fusion.Wm).toarray()
        assert np.allclose(Wm, oracle, rtol=1e-12, atol=0.0)
        # and the unmix dump of the same parameters is the same file set
        run = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3", "--t1", "1", "--c", "4",
             "--dump-wm", "--out", str(run)],
        )
        assert result.exit_code == 0, result.output
        for name in ("H.csv", "W_spatial.csv", "W_spectral.csv", "coef.csv"):
            assert (run / name).read_bytes() == (out / name).read_bytes(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sigma_s_used"] == spatial_weights(cube, UnmixParams(neighbors=4)).sigma
        assert manifest["sigma_l_used"] == spectral_weights(cube, 3, UnmixParams(neighbors=4)).sigma

    def test_manifest_fusion_fields_match_unmix(self, tmp_path):
        # fuse and unmix write H, the dump and the fusion's manifest fields alike
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        params = UnmixParams(neighbors=4, t1=1)
        fused = cmd_fuse(scene / "cube.raw", 3, tmp_path / "fusion", params=params)
        unmixed = cmd_unmix(scene / "cube.raw", 3, tmp_path / "run", params=params)
        names = ("sigma_s_used", "sigma_l_used", "max_degree_s", "max_degree_l",
                 "spectral_dims", "wm_stats", "graph_workers")
        assert unmixed["spectral_dims"] == 3
        assert {k: fused[k] for k in names} == {k: unmixed[k] for k in names}
        assert fused["graph_ms"] >= 0 and unmixed["graph_ms"] >= 0
        assert fused["wm_stats"]["fusion_iterations"] == fused["fusion_iterations"]

    def test_bad_input_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "fusion"
        result = runner.invoke(
            main, ["fuse", "--cube", str(tmp_path / "nope.raw"), "--m", "3", "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_endmember_count_is_required(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        out = tmp_path / "fusion"
        result = runner.invoke(
            main, ["fuse", "--cube", str(scene / "cube.raw"), "--c", "4", "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "Missing option '--m'" in result.output
        assert not out.exists()

    def test_spectral_as_written_is_unmixs_raw_band_graph(self, runner, tmp_path):
        # the paper's graph over the raw bands: fuse builds, fuses and dumps
        # what unmix does under the same flag, and its spectral graph is the
        # dense raw-band reference's
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        flags = ["--cube", str(scene / "cube.raw"), "--m", "3", "--c", "4",
                 "--spectral-as-written", "--dump-wm"]
        out, run = tmp_path / "fusion", tmp_path / "run"
        for args in (["fuse", *flags, "--out", str(out)],
                     ["unmix", *flags, "--t1", "1", "--out", str(run)]):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        for name in ("W_spectral.csv", "H.csv", "coef.csv"):
            assert (out / name).read_bytes() == (run / name).read_bytes(), name
        dense, sigma = dense_knn_heat_kernel(load_cube(scene / "cube.raw").data, "auto", 4)
        spectral = _read_consensus_dump(out, 36)[0][1]
        assert np.array_equal(spectral.W.toarray(), dense)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spectral_dims"] is None and manifest["sigma_l_used"] == sigma

    @pytest.mark.parametrize("m", ["0", "21"])
    def test_endmember_count_outside_the_bands_writes_nothing(self, runner, tmp_path, m):
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)  # 20 bands
        out = tmp_path / "fusion"
        result = runner.invoke(
            main, ["fuse", "--cube", str(scene / "cube.raw"), "--c", "4", "--m", m,
                   "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "endmember count" in result.output
        assert not out.exists()


class TestAblate:
    def test_rows_and_aggregation(self, tmp_path):
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        out = tmp_path / "ablation"
        params = UnmixParams(t1=5, neighbors=4)
        cmd_ablate(scene / "cube.raw", scene, out, seeds=[0, 1], m=3, params=params)
        with open(out / "ablation_runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 5 cases + 2 extra K-study rows, per seed
        assert len(rows) == 2 * 7
        for case in ("I", "II", "III", "IV", "V"):
            assert {r["seed"] for r in rows if r["case"] == case} == {"0", "1"}
        k_rows = {r["K"] for r in rows if r["case"] == "I"}
        assert k_rows == {"1", "2", "3"}
        assert {r["K"] for r in rows if r["case"] == "IV"} == {"2"}
        assert {r["K"] for r in rows if r["case"] == "V"} == {"1"}
        with open(out / "ablation_summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        # aggregation equals the hand-average of per-seed rows
        for srow in summary:
            grp = [r for r in rows if r["case"] == srow["case"] and r["K"] == srow["K"]]
            sads = [float(r["mean_sad"]) for r in grp]
            assert float(srow["mean_sad_mean"]) == pytest.approx(np.mean(sads), rel=1e-12)
            assert int(srow["n_seeds"]) == len(grp)

    def test_order_study_covers_every_k_once(self, tmp_path):
        # with K=2 configured, Case I is the K=2 row and the study adds K=1 and K=3
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        out = tmp_path / "ablation"
        params = UnmixParams(t1=5, neighbors=4, order=2)
        cmd_ablate(scene / "cube.raw", scene, out, seeds=[0], m=3, params=params)
        with open(out / "ablation_summary.csv", newline="") as fh:
            case_i = [r for r in csv.DictReader(fh) if r["case"] == "I"]
        assert sorted(r["K"] for r in case_i) == ["1", "2", "3"]
        assert all(r["n_seeds"] == "1" for r in case_i)

    def test_summary_sorts_by_numeric_k(self, tmp_path):
        # K=12 configured: Case I is the K=12 row, after the order study's 1, 2, 3
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        out = tmp_path / "ablation"
        params = UnmixParams(order=12, t1=5, neighbors=4)
        cmd_ablate(scene / "cube.raw", scene, out, seeds=[0], m=3, params=params)
        with open(out / "ablation_summary.csv", newline="") as fh:
            case_i = [r["K"] for r in csv.DictReader(fh) if r["case"] == "I"]
        assert case_i == ["1", "2", "3", "12"]

    def test_one_endmember_truth_accepted(self, tmp_path):
        scene = _one_endmember_scene(tmp_path)
        out = tmp_path / "ablation"
        cmd_ablate(scene / "cube.raw", scene, out, seeds=[0], m=1,
                   params=UnmixParams(t1=3, neighbors=4))
        with open(out / "ablation_runs.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 7

    def test_m_mismatch_writes_nothing(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        out = tmp_path / "ablation"
        result = runner.invoke(
            main,
            ["ablate", "--cube", str(scene / "cube.raw"), "--truth", str(scene),
             "--m", "5", "--seeds", "0", "--t1", "3", "--c", "4", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "3 endmembers" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("truth, differ", [
        (dict(bands=20), "20 bands vs 12"),
        (dict(height=8, width=9), "72 pixels vs 64"),
    ], ids=["bands", "pixels"])
    def test_truth_of_another_scene_writes_nothing(self, runner, tmp_path, truth, differ):
        # the truth is checked against the 12-band 8 x 8 cube before any run
        cube = _tiny_scene_dir(tmp_path, "cube", bands=12) / "cube.raw"
        scene = _tiny_scene_dir(tmp_path, **{"bands": 12, **truth})
        out = tmp_path / "ablation"
        result = runner.invoke(
            main,
            ["ablate", "--cube", str(cube), "--truth", str(scene),
             "--m", "3", "--seeds", "0", "--t1", "3", "--c", "4", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert result.output.count("\n") == 1
        assert result.output.endswith(f"does not fit the cube and --m 3: {differ}\n")
        assert not out.exists()

    def test_seed_flag_rejected(self, runner, tmp_path):
        # every run takes its seed from --seeds, so --seed would be recorded but unused
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        out = tmp_path / "ablation"
        result = runner.invoke(
            main,
            ["ablate", "--cube", str(scene / "cube.raw"), "--truth", str(scene),
             "--m", "3", "--seeds", "0", "--seed", "7", "--t1", "3", "--c", "4",
             "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "--seeds" in result.output
        assert not out.exists()

    def test_config_seed_rejected(self, runner, tmp_path):
        # a seed from --config would be recorded in the manifest but unused
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7}))
        out = tmp_path / "ablation"
        result = runner.invoke(
            main,
            ["ablate", "--cube", str(scene / "cube.raw"), "--truth", str(scene),
             "--m", "3", "--seeds", "0", "--config", str(config), "--t1", "3", "--c", "4",
             "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "--seeds" in result.output
        assert not out.exists()


    def test_neighbor_count_checked_before_any_run(self, tmp_path, monkeypatch):
        # C=40 leaves no graph on 36 pixels; without the pre-check, two workers
        # would run the graph-free case III and leave its run directory behind
        monkeypatch.setenv("MOGNMF_THREADS", "2")
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        out = tmp_path / "ablation"
        with pytest.raises(ParamError, match="C=40 must be < N=36"):
            cmd_ablate(scene / "cube.raw", scene, out, seeds=[0], m=3,
                       params=UnmixParams(t1=3, neighbors=40))
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["no_manifest", "nan_truth", "zero_endmember"])
    def test_unscorable_truth_writes_nothing(self, runner, tmp_path, monkeypatch, fault):
        # each run's evaluate would refuse this truth only after solving: the
        # truth's manifest is read and the truth scored against itself first
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3, bands=12)
        if fault == "no_manifest":
            (scene / "manifest.json").unlink()
        elif fault == "nan_truth":
            S_true = read_matrix(scene / "S_true.csv")
            S_true[0, 5] = np.nan
            write_matrix(scene / "S_true.csv", S_true)
        else:
            A_true = read_matrix(scene / "A_true.csv")
            A_true[:, 1] = 0.0
            write_matrix(scene / "A_true.csv", A_true)
        out = tmp_path / "ablation"
        result = runner.invoke(
            main,
            ["ablate", "--cube", str(scene / "cube.raw"), "--truth", str(scene),
             "--m", "3", "--seeds", "0", "--t1", "5", "--c", "4", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.output
        assert not out.exists()

    def test_peak_rss_covers_the_workers(self, tmp_path):
        # the study process's own peak is below its two workers', which solve the
        # runs; its manifest's peak is still at least every run's.  Linux carries a
        # process's peak RSS across fork and exec, so a small launcher in between
        # keeps this large process's peak out of the study's
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3, bands=12)
        out = tmp_path / "ablation"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, MOGNMF_THREADS="2", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
        proc = subprocess.run(
            [sys.executable, "-c", launcher,
             sys.executable, "-m", "mognmf.cli", "ablate", "--cube", str(scene / "cube.raw"),
             "--truth", str(scene), "--m", "3", "--seeds", "0", "--t1", "5", "--c", "4",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        runs = [json.loads(p.read_text())["peak_rss_mb"] for p in out.glob("runs/*/manifest.json")]
        assert len(runs) == 7
        assert peak >= max(runs), (peak, runs)

    @pytest.mark.parametrize("command", ["unmix", "ablate"])
    def test_peak_rss_is_the_commands_own(self, tmp_path, command):
        # the launcher touches 300 MB and then execs the command, whose manifest
        # must read its own peak: ru_maxrss would carry the launcher's over exec
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3, bands=12)
        out = tmp_path / command
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, MOGNMF_THREADS="2", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        launcher = ("import os, sys\n"
                    "ballast = b'x' * (300 << 20)\n"
                    "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])")
        args = ["--cube", str(scene / "cube.raw"), "--m", "3", "--t1", "5", "--c", "4"]
        if command == "ablate":
            args += ["--truth", str(scene), "--seeds", "0"]
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "-m", "mognmf.cli", command, *args,
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        peaks = [json.loads(p.read_text())["peak_rss_mb"] for p in out.rglob("manifest.json")]
        assert len(peaks) == (1 if command == "unmix" else 15)
        assert 0 < max(peaks) < 200, peaks


class TestSweep:
    def test_defaulted_scene_arguments_are_recorded(self, tmp_path, monkeypatch):
        # called from Python, a sweep records the cmd_simulate defaults its scenes used
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        out = tmp_path / "sweep"
        cli.cmd_sweep(out, "simu1", 3, [30.0], [0], ["nmf"], height=6, width=6, bands=12)
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["smoothness"], manifest["library_path"], manifest["bands"]) == (
            4.0, None, 12)
        scene = json.loads((out / "scenes" / "snr30_seed0" / "manifest.json").read_text())
        assert scene["smoothness"] == manifest["smoothness"]

    def test_scene_defaults_are_simulates(self):
        # a sweep takes the scene arguments by name: its defaults must stay cmd_simulate's
        names = ("smoothness", "library_path", "bands")
        sweep, simulate = (inspect.signature(f).parameters
                           for f in (cli.cmd_sweep, cli.cmd_simulate))
        assert [sweep[n].default for n in names] == [simulate[n].default for n in names]

    def test_sweep_table(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        out = tmp_path / "sweep"
        result = runner.invoke(
            main,
            ["sweep", "--preset", "simu1", "--m", "3", "--snrs", "30",
             "--seeds", "0..1", "--variants", "nmf,snmf", "--height", "6",
             "--width", "6", "--bands", "12", "--t1", "5", "--c", "4",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 1 snr x 2 seeds x 2 variants
        assert {r["variant"] for r in rows} == {"nmf", "snmf"}

    def test_process_pool_matches_serial(self, runner, tmp_path, monkeypatch):
        # the runs are pickled to worker processes when MOGNMF_THREADS > 1
        tables = []
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        for threads in ("1", "2"):
            monkeypatch.setenv("MOGNMF_THREADS", threads)
            out = tmp_path / f"sweep{threads}"
            result = runner.invoke(
                main,
                ["sweep", "--m", "3", "--snrs", "30", "--seeds", "0..1",
                 "--variants", "mognmf,nmf", "--lambdas", "0.01,0.1", "--height", "6",
                 "--width", "6", "--bands", "12", "--t1", "5", "--c", "4",
                 "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            with open(out / "sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            tables.append([{k: v for k, v in r.items() if k != "wall_ms"} for r in rows])
            # a worker process runs its graph stage on one thread
            run = json.loads(
                (out / "runs" / "snr30_seed0_mognmf_lam0.1_beta1.5" / "manifest.json").read_text())
            assert run["graph_workers"] == 1
        assert len(tables[0]) == 8  # 2 seeds x 2 variants x 2 lambdas
        assert tables[0] == tables[1]
        # the workers set their own thread cap; the caller's environment is left alone
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert os.environ["MOGNMF_THREADS"] == "2"

    @pytest.mark.parametrize("openblas", [None, "3"])
    def test_pooled_jobs_get_one_thread_each(self, monkeypatch, openblas):
        # each spawned worker sets MOGNMF_THREADS=1 for itself, in its pool's
        # initializer; the caller's environment is never written
        seen = []

        class Pool:
            def __init__(self, max_workers, mp_context, initializer):
                assert mp_context.get_start_method() == "spawn"
                self.initializer = initializer

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                assert dict(os.environ) == parent
                with monkeypatch.context() as worker:
                    worker.setattr(os, "environ", dict(os.environ))
                    self.initializer()
                    seen.append((os.environ["MOGNMF_THREADS"], workers.thread_cap(),
                                 os.environ.get("OPENBLAS_NUM_THREADS")))
                return [{} for _ in jobs]

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
        monkeypatch.setenv("MOGNMF_THREADS", "2")
        if openblas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas)
        parent = dict(os.environ)
        assert workers.run_jobs(cli._single_run, [None, None], 2) == [{}, {}]
        assert seen == [("1", 1, openblas)]
        assert dict(os.environ) == parent

    def test_seed_flag_rejected(self, runner, tmp_path):
        # every run takes its seed from --seeds, so --seed would be recorded but unused
        out = tmp_path / "sw"
        result = runner.invoke(
            main,
            ["sweep", "--snrs", "30", "--seeds", "0", "--seed", "7", "--variants", "nmf",
             "--height", "6", "--width", "6", "--bands", "12", "--t1", "5",
             "--c", "4", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "--seeds" in result.output
        assert not out.exists()

    def test_config_seed_rejected(self, runner, tmp_path):
        # a seed from --config would be recorded in the manifest but unused
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7}))
        out = tmp_path / "sw"
        result = runner.invoke(
            main,
            ["sweep", "--snrs", "30", "--seeds", "0", "--config", str(config),
             "--variants", "nmf", "--height", "6", "--width", "6", "--bands", "12",
             "--t1", "5", "--c", "4", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "--seeds" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "threads, extra",
        [("1", ["--lambdas", "-1"]), ("zero", []), ("1", ["--alpha", "0"]),
         ("1", ["--smoothness", "inf"])],
        ids=["negative_lambda", "bad_thread_env", "alpha_zero", "infinite_smoothness"],
    )
    def test_invalid_sweep_writes_nothing(self, runner, tmp_path, monkeypatch, threads, extra):
        monkeypatch.setenv("MOGNMF_THREADS", threads)
        out = tmp_path / "sw"
        result = runner.invoke(
            main,
            ["sweep", "--snrs", "30", "--seeds", "0", "--variants", "nmf",
             "--height", "6", "--width", "6", "--bands", "12", "--t1", "5",
             "--c", "4", "--out", str(out), *extra],
        )
        assert result.exit_code == 2, result.output
        assert not out.exists()

    @pytest.mark.parametrize("variant, code", [("mognmf", 2), ("nmf", 0)])
    def test_neighbor_count_checked_before_writing(
        self, runner, tmp_path, monkeypatch, variant, code
    ):
        # C=40 leaves no graph on 36 pixels; a graph-free variant never builds one
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        out = tmp_path / "d"
        result = runner.invoke(
            main,
            ["sweep", "--snrs", "30", "--seeds", "0", "--variants", variant,
             "--height", "6", "--width", "6", "--bands", "12", "--t1", "5",
             "--c", "40", "--out", str(out)],
        )
        assert result.exit_code == code, result.output
        assert out.exists() == (code == 0)

    def test_low_snr_scene_and_runs_written(self, runner, tmp_path, monkeypatch):
        # a 5 dB scene clamps many entries; it is written and unmixed like the 30 dB one
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        out = tmp_path / "sw"
        result = runner.invoke(
            main,
            ["sweep", "--snrs", "30,5", "--seeds", "0", "--variants", "nmf",
             "--height", "6", "--width", "6", "--bands", "12", "--t1", "5",
             "--c", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        scenes = ["snr30_seed0", "snr5_seed0"]
        assert sorted(p.name for p in (out / "scenes").iterdir()) == scenes
        assert sorted(p.name.split("_nmf_")[0] for p in (out / "runs").iterdir()) == scenes
        with open(out / "sweep.csv", newline="") as fh:
            assert [r["snr_db"] for r in csv.DictReader(fh)] == ["30.0", "5.0"]

    @pytest.mark.parametrize("snr", [np.inf, 4000.0])
    def test_every_snr_checked_before_writing(self, tmp_path, monkeypatch, snr):
        # past the CLI's list parsing, the second SNR's noise power is not a finite
        # positive number; the first scene must not be written before that is found
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        out = tmp_path / "sw"
        with pytest.raises(ParamError, match="no finite positive noise power"):
            cli.cmd_sweep(out, "simu1", 3, [20.0, snr], [0], ["nmf"],
                          params=UnmixParams(t1=5, neighbors=4), height=6, width=6, bands=12)
        assert not out.exists()

    @pytest.mark.parametrize("m", [2.5, True, 1])
    def test_endmember_count_checked_before_writing(self, tmp_path, monkeypatch, m):
        # the scene rule, before the first scene is written
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        out = tmp_path / "sw"
        with pytest.raises(ParamError, match="endmember count M must be an integer >= 2"):
            cli.cmd_sweep(out, "simu1", m, [30.0], [0], ["nmf"],
                          params=UnmixParams(t1=5, neighbors=4), height=6, width=6, bands=12)
        assert not out.exists()

    @pytest.mark.parametrize("library", [False, True])
    def test_endmember_count_above_the_bands_writes_nothing(self, tmp_path, monkeypatch, library):
        # M = 5 passes the scene rule but not a 4-band scene's count rule
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        path = None
        if library:
            path = tmp_path / "library.csv"
            lib = simgen.synthetic_library(band_count=4, entries=8, seed=0)
            path.write_text("".join(f"{name}," + ",".join(f"{v:.17g}" for v in spectrum) + "\n"
                                    for name, spectrum in zip(lib.names, lib.spectra.T)))
        out = tmp_path / "sw"
        with pytest.raises(ParamError, match=r"endmember count M must be an integer in \[1, "
                                             r"min\(L, N\)=4\], got 5"):
            cli.cmd_sweep(out, "simu1", 5, [30.0], [0], ["nmf"], bands=4, height=6, width=6,
                          library_path=path)
        assert not out.exists()

    @pytest.mark.parametrize(
        "scene, message",
        [({"height": 0}, "height and width must be positive"),
         ({"width": -2}, "height and width must be positive"),
         ({"bands": 1}, "library needs >= 1 entry and >= 2 bands")],
    )
    def test_scene_rules_come_before_the_count_rule(self, tmp_path, monkeypatch, scene, message):
        # a scene that cannot be made is named as such, not as an endmember count
        # outside [1, min(L, N)] of its empty or one-band shape
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        out = tmp_path / "sw"
        size = {"height": 6, "width": 6, "bands": 12, **scene}
        with pytest.raises(ParamError, match=re.escape(message)):
            cli.cmd_sweep(out, "simu1", 3, [30.0], [0], ["nmf"],
                          params=UnmixParams(t1=5, neighbors=4), **size)
        assert not out.exists()

    def test_unknown_init_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        out = tmp_path / "sw"
        with pytest.raises(ParamError, match="init must be one of"):
            cli.cmd_sweep(out, "simu1", 3, [30.0], [0], ["nmf"], init="bogus",
                          params=UnmixParams(t1=5, neighbors=4), height=6, width=6, bands=12)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, lists, message",
        [
            ("ablate", dict(seeds=[0, 0]), "caseI_seed0:"),
            ("ablate", dict(seeds=[]), "empty seeds"),
            ("sweep", dict(seeds=[0, 0]), "snr30_seed0_nmf_lam0.05_beta1.5:"),
            ("sweep", dict(variants=["nmf", "nmf"]), "snr30_seed0_nmf_lam0.05_beta1.5:"),
            ("sweep", dict(lambdas=[1e-7, 1.000001e-7]), "snr30_seed0_nmf_lam1e-07_beta1.5:"),
            ("sweep", dict(betas=[1.0, 1.0000001]), "snr30_seed0_nmf_lam0.05_beta1:"),
            ("sweep", dict(snrs=[30.0, 30.000001]), "snr30_seed0_nmf_lam0.05_beta1.5:"),
            ("sweep", dict(snrs=[]), "empty snrs"),
            ("sweep", dict(seeds=[]), "empty seeds"),
            ("sweep", dict(variants=[]), "empty variants"),
            ("sweep", dict(lambdas=[]), "empty lambdas"),
        ],
        ids=["ablate_repeated_seed", "ablate_no_seed", "repeated_seed", "repeated_variant",
             "lambdas_print_alike", "betas_print_alike", "snrs_print_alike", "no_snr",
             "no_seed", "no_variant", "no_lambda"],
    )
    def test_study_lists_checked_before_writing(self, tmp_path, monkeypatch, command, lists,
                                                message):
        # a Python caller's lists meet the rules the CLI's do: one run directory per
        # run, and at least one run
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        out = tmp_path / "study"
        params = UnmixParams(t1=5, neighbors=4)
        with pytest.raises(ParamError, match=re.escape(message)):
            if command == "ablate":
                scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
                cmd_ablate(scene / "cube.raw", scene, out, m=3, params=params, **lists)
            else:
                study = {"snrs": [30.0], "seeds": [0], "variants": ["nmf"], **lists}
                cli.cmd_sweep(out, "simu1", 3, params=params, height=6, width=6, bands=12,
                              **study)
        assert not out.exists()

    def test_bad_thread_env_rejected(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("MOGNMF_THREADS", "zero")
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        out = tmp_path / "ablation"
        result = runner.invoke(
            main,
            ["ablate", "--cube", str(scene / "cube.raw"), "--truth", str(scene),
             "--m", "3", "--seeds", "0", "--t1", "3", "--c", "4",
             "--out", str(out)],
        )
        assert result.exit_code == 2


class TestOutBeneathFile:
    """An --out that cannot be created exits 2 with one error line, from any command."""

    @pytest.mark.parametrize(
        "command", ["simulate", "unmix", "evaluate", "fuse", "ablate", "sweep", "sweep_runs"]
    )
    def test_exits_2_with_one_error_line(self, runner, tmp_path, monkeypatch, command):
        # two workers: ablate's runs, and sweep's when its runs/ is a file, write from the pool
        monkeypatch.setenv("MOGNMF_THREADS", "2")
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        run = tmp_path / "run"
        cmd_unmix(scene / "cube.raw", 3, run, variant="nmf", params=UnmixParams(t1=3))
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        cube = ["--cube", str(scene / "cube.raw")]
        sweep = ["sweep", "--m", "3", "--snrs", "30", "--seeds", "0..1", "--variants", "nmf",
                 "--height", "6", "--width", "6", "--bands", "12", "--t1", "3", "--c", "4"]
        if command == "sweep_runs":
            # the scenes are written in this process, the runs in the workers
            out = tmp_path / "sweep"
            out.mkdir()
            (out / "runs").write_text("")
        args = {
            "simulate": ["simulate", "--m", "3", "--height", "6", "--width", "6",
                         "--bands", "12"],
            "unmix": ["unmix", *cube, "--m", "3", "--t1", "3", "--c", "4"],
            "evaluate": ["evaluate", "--result", str(run), "--truth", str(scene)],
            "fuse": ["fuse", *cube, "--m", "3", "--c", "4"],
            "ablate": ["ablate", *cube, "--truth", str(scene), "--m", "3", "--seeds", "0",
                       "--t1", "3", "--c", "4"],
            "sweep": sweep,
            "sweep_runs": sweep,
        }[command]
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.output
        assert "Not a directory" in lines[0]

    def test_console_stderr_is_one_line(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mognmf.cli", "simulate", "--m", "3", "--height", "6",
             "--width", "6", "--bands", "12", "--out", str(blocker / "x")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr


def _files_under(directory):
    return sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*")
                  if p.is_file())


def test_manifest_outputs_are_the_files_written(runner, tmp_path):
    scene, run = tmp_path / "scene", tmp_path / "run"
    commands = {
        scene: ["simulate", "--m", "3", "--height", "6", "--width", "6", "--bands", "12"],
        run: ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3", "--t1", "3",
              "--c", "4", "--dump-wm"],
        tmp_path / "eval": ["evaluate", "--result", str(run), "--truth", str(scene)],
        tmp_path / "fusion": ["fuse", "--cube", str(scene / "cube.raw"), "--m", "3",
                              "--c", "4", "--dump-wm"],
    }
    for out, args in commands.items():
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == args[0]
        assert sorted(manifest["outputs"]) == [
            name for name in _files_under(out) if name != "manifest.json"
        ], args[0]
        assert manifest["wall_ms"] >= 0
        assert manifest["peak_rss_mb"] > 0
        if args[0] in ("unmix", "fuse"):
            assert manifest["graph_ms"] >= 0
            assert manifest["graph_workers"] >= 1


def _manifest_case(command, tmp_path):
    """(cmd_* function, its arguments but out_dir, the fields it writes beside them).

    The fields are those the command has always written; ANY where the test
    cannot know the value.  Every case runs on one 6 x 6, 12-band scene.
    """
    scene = _tiny_scene_dir(tmp_path, height=6, width=6, bands=12)
    cube, params = scene / "cube.raw", UnmixParams(t1=5, neighbors=4)
    fusion = dict.fromkeys(("sigma_s_used", "sigma_l_used", "max_degree_s", "max_degree_l",
                            "wm_stats", "graph_workers", "graph_ms"), ANY)
    fusion["spectral_dims"] = 3  # unmix's M, and fuse's --m
    if command.startswith("simulate"):
        library = simgen.synthetic_library(band_count=12, seed=0)
        path = None
        if command == "simulate":
            args = dict(preset="simu1", m=3, snr_db=30.0, seed=0, height=6, width=6,
                        smoothness=2.0, library_path=None, bands=12)
            truth = simgen.build_simu1_scene(library, M=3, height=6, width=6, smoothness=2.0,
                                             target_snr_db=30.0, seed=0)
            fields = {"library": "synthetic(bands=12)", "library_hash": None}
        else:  # simu2 from a library file: no smoothness, and the file's hash
            path = tmp_path / "library.csv"
            path.write_text("".join(f"{name}," + ",".join(f"{v:.17g}" for v in spectrum) + "\n"
                                    for name, spectrum in zip(library.names, library.spectra.T)))
            args = dict(preset="simu2", m=3, snr_db=None, seed=1, height=6, width=6,
                        smoothness=4.0, library_path=path, bands=100)
            truth = simgen.build_simu2_layout(simgen.load_library(path), M=3, height=6, width=6,
                                              target_snr_db=None, seed=1)
            fields = {"library": str(path), "smoothness": None,
                      "library_hash": hashlib.sha256(path.read_bytes()).hexdigest()}
        fields.update(endmember_names=list(truth.endmember_names),
                      clamp_fraction=truth.clamp_fraction)
        return cmd_simulate, args, fields
    inputs = {str(cube): hashlib.sha256(cube.read_bytes()).hexdigest()}
    if command == "unmix":
        args = dict(cube_path=cube, m=3, variant="mognmf", init="vca_fcls", params=params,
                    cube_format="raw-f32", dump_wm=False)
        return cmd_unmix, args, {"inputs": inputs, **fusion, **dict.fromkeys(
            ("iterations", "converged", "stop_reason", "final_objective", "gamma_used"), ANY)}
    if command == "evaluate":
        run = tmp_path / "run"
        cmd_unmix(cube, 3, run, params=params)
        return cmd_evaluate, dict(result_dir=run, truth_dir=scene), dict.fromkeys(
            ("inputs", "mean_sad", "rmse"), ANY)
    if command == "fuse":
        args = dict(cube_path=cube, params=params, cube_format="raw-f32", dump_wm=True, m=3)
        return cmd_fuse, args, {"inputs": inputs, **fusion, **dict.fromkeys(
            ("fusion_iterations", "fusion_converged", "final_objective"), ANY)}
    if command == "ablate":
        args = dict(cube_path=cube, truth_dir=scene, seeds=[0], m=3, params=params,
                    init="vca_fcls")
        return cmd_ablate, args, {"inputs": inputs}
    # with no --lambdas or --betas, sweep records the lambda and beta its runs used
    args = dict(preset="simu1", m=3, snrs=[30.0], seeds=[0], variants=["nmf"], params=params,
                init="vca_fcls", lambdas=None, betas=None, height=6, width=6, smoothness=2.0,
                library_path=None, bands=12)
    return cli.cmd_sweep, args, {"lambdas": [params.lam], "betas": [params.beta]}


@pytest.mark.parametrize(
    "command", ["simulate", "simulate_simu2", "unmix", "evaluate", "fuse", "ablate", "sweep"])
def test_manifest_records_every_argument(tmp_path, monkeypatch, command):
    # one rule for every command: each argument but out_dir, a path as a string and
    # params as config, beside the fields the command computes
    monkeypatch.setenv("MOGNMF_THREADS", "1")
    fn, args, fields = _manifest_case(command, tmp_path)
    out = tmp_path / "out"
    returned = fn(out_dir=out, **args)
    recorded = {name: str(v) if isinstance(v, Path) else v for name, v in args.items()}
    if "params" in args:
        recorded["config"] = recorded.pop("params").to_dict()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest == {**recorded, **fields, "command": command.split("_")[0],
                        "outputs": ANY, "wall_ms": ANY, "peak_rss_mb": ANY}
    assert manifest == (returned[0] if command == "evaluate" else returned)


@pytest.mark.parametrize("command", ["simulate", "unmix", "fuse"])
def test_numpy_scalar_arguments_are_recorded_as_python_values(tmp_path, monkeypatch, command):
    # a numpy integer or float argument gives the manifest and the artifacts of
    # the Python value it holds
    monkeypatch.setenv("MOGNMF_THREADS", "1")
    fn, args, _ = _manifest_case(command, tmp_path)
    numpy_args = {name: np.int64(v) if type(v) is int else np.float64(v) if type(v) is float
                  else v for name, v in args.items()}
    timings = ("wall_ms", "peak_rss_mb", "graph_ms")
    plain, scalars = (
        {k: v for k, v in fn(out_dir=tmp_path / out, **kw).items() if k not in timings}
        for out, kw in (("plain", args), ("numpy", numpy_args)))
    assert scalars == plain and plain["outputs"]
    # np.float64 is a float, but np.int64 is no int
    assert all(type(scalars[name]) is int for name, v in args.items() if type(v) is int)
    for name in plain["outputs"]:
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("platform, mb", [("linux", 2048.0), ("darwin", 2.0)])
def test_peak_rss_unit_per_platform(monkeypatch, platform, mb):
    # ru_maxrss counts kilobytes on Linux and bytes on macOS
    class Usage:
        ru_maxrss = 2**21

    monkeypatch.setattr(cli.sys, "platform", platform)
    monkeypatch.setattr(cli.resource, "getrusage", lambda who: Usage)
    monkeypatch.setattr(cli, "_vm_hwm_kb", lambda: None)  # no VmHWM: ru_maxrss is read
    assert cli._peak_rss_mb() == mb


def test_peak_rss_reads_vm_hwm_where_there_is_one(monkeypatch):
    monkeypatch.setattr(cli, "_vm_hwm_kb", lambda: 3 * 2**10)
    assert cli._peak_rss_mb() == 3.0


_FOOTPRINT_SCRIPT = """
import sys
from pathlib import Path

import mognmf.cli as cli
from mognmf.hsi_core import UnmixParams

scene, root = Path(sys.argv[1]), Path(sys.argv[2])
cli.cmd_unmix(scene / "cube.raw", 3, root / "run", params=UnmixParams(t1=5, neighbors=4))
cli.cmd_evaluate(root / "run", scene, root / "eval")
sys.exit("scipy.optimize was imported" if "scipy.optimize" in sys.modules else 0)
"""


def test_unmix_and_evaluate_never_import_scipy_optimize(tmp_path):
    # a fresh interpreter: this one has loaded scipy.optimize for the oracles
    scene = _tiny_scene_dir(tmp_path, height=6, width=6)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(scene), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "eval" / "report.json").is_file()


class TestOptions:
    # a value the option cannot parse is click's usage error
    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("ablate", "--seeds", "a..b"),
            ("sweep", "--snrs", "x"),
            ("sweep", "--seeds", "0..x"),
            ("sweep", "--lambdas", "foo"),
            ("unmix", "--sigma-s", "wide"),
        ],
    )
    def test_malformed_value_exits_2(self, runner, tmp_path, command, option, value):
        cube = tmp_path / "cube.raw"
        cube.write_bytes(b"")
        required = {
            "ablate": ["--cube", str(cube), "--truth", str(tmp_path), "--m", "3"],
            "sweep": [],
            "unmix": ["--cube", str(cube), "--m", "3"],
        }[command]
        args = [command, option, value] + required + ["--out", str(tmp_path / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.output
        assert not (tmp_path / "out").exists()

    # a parsed list a study cannot run is refused with its runs, as for a Python caller
    @pytest.mark.parametrize(
        "command, option, value, message",
        [
            ("sweep", "--variants", ",", "empty variants"),
            ("sweep", "--snrs", ",", "empty snrs"),
            ("sweep", "--lambdas", ",", "empty lambdas"),
            ("ablate", "--seeds", ",", "empty seeds"),
            ("ablate", "--seeds", "3..1", "empty seeds"),
            ("ablate", "--seeds", "0,0", "caseI_seed0:"),
            ("sweep", "--variants", "nmf,nmf", "snr30_seed0_nmf_lam0.05_beta1.5:"),
            ("sweep", "--lambdas", "0.1,0.1000001", "snr30_seed0_nmf_lam0.1_beta1.5:"),
            ("sweep", "--snrs", "30,30.000001", "snr30_seed0_nmf_lam0.05_beta1.5:"),
            ("sweep", "--lambdas", "nan", "lam must be nonnegative and finite"),
            ("sweep", "--snrs", "inf", "no finite positive noise power"),
            ("sweep", "--betas", "-inf", "beta must be nonnegative and finite"),
            ("sweep", "--variants", "bogus", "variant must be one of"),
        ],
    )
    def test_study_list_rule_exits_2(
        self, runner, tmp_path, monkeypatch, command, option, value, message
    ):
        monkeypatch.setenv("MOGNMF_THREADS", "1")
        scene = _tiny_scene_dir(tmp_path, height=6, width=6, m=3)
        required = {
            "ablate": ["--cube", str(scene / "cube.raw"), "--truth", str(scene), "--m", "3",
                       "--seeds", "0"],
            "sweep": ["--m", "3", "--snrs", "30", "--seeds", "0", "--variants", "nmf",
                      "--height", "6", "--width", "6", "--bands", "12"],
        }[command]
        out = tmp_path / "out"
        # the option given last wins over its entry in ``required``
        args = [command, *required, option, value, "--t1", "3", "--c", "4", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.output
        assert message in lines[0]
        assert not out.exists()

    def test_one_flag_per_param_field_and_help(self, runner):
        fields = sorted(UnmixParams.__dataclass_fields__)
        for name in ("unmix", "fuse", "ablate", "sweep"):
            names = [p.name for p in main.commands[name].params]
            assert sorted(n for n in names if n in fields) == fields, name
        assert sorted(main.commands) == [
            "ablate", "evaluate", "fuse", "simulate", "sweep", "unmix"
        ]
        for name in main.commands:
            result = runner.invoke(main, [name, "--help"])
            assert result.exit_code == 0, result.output
