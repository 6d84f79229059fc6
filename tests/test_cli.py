import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner

import mognmf.cli as cli
from mognmf.cli import (
    EVAL_COLUMNS,
    cmd_ablate,
    cmd_evaluate,
    cmd_fuse,
    cmd_simulate,
    cmd_unmix,
    main,
)
from mognmf.errors import DivergenceError
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
from oracle import consensus_tocsr, stack_powers


@pytest.fixture()
def runner():
    return CliRunner()


def _tiny_scene_dir(tmp_path, name="scene", height=8, width=8, m=3, snr=30.0, seed=0):
    out = tmp_path / name
    cmd_simulate(
        out, preset="simu1", m=m, snr_db=snr, seed=seed,
        height=height, width=width, smoothness=2.0, bands=20,
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

    def test_repeat_invocation_bit_identical(self, runner, tmp_path):
        args = ["simulate", "--m", "3", "--snr", "25", "--seed", "3",
                "--height", "6", "--width", "6", "--bands", "12"]
        r1 = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
        r2 = runner.invoke(main, args + ["--out", str(tmp_path / "b")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (tmp_path / "a/cube.raw").read_bytes() == (tmp_path / "b/cube.raw").read_bytes()
        assert (tmp_path / "a/S_true.csv").read_bytes() == (tmp_path / "b/S_true.csv").read_bytes()

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
        # sigma_l "auto" resolves to the median retained spectral distance
        assert manifest["sigma_l_used"] == spectral_weights(cube, UnmixParams(neighbors=4)).sigma
        graph_free = cmd_unmix(scene / "cube.raw", 3, tmp_path / "snmf", variant="snmf",
                               params=params)
        assert graph_free["sigma_s_used"] is None and graph_free["sigma_l_used"] is None

    def test_solver_flags_recorded_in_config(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(scene / "cube.raw"), "--m", "3", "--t1", "3",
             "--c", "4", "--absolute-eps1", "--no-order-norm", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["absolute_eps1"] is True
        assert config["order_norm"] is False

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
            ["fuse", "--cube", str(scene / "cube.raw"), "--c", "4",
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
        graphs = build_multi_order_graphs(cube, UnmixParams(neighbors=4))
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
        assert manifest["sigma_l_used"] == spectral_weights(cube, UnmixParams(neighbors=4)).sigma

    def test_manifest_fusion_fields_match_unmix(self, tmp_path):
        # fuse and unmix write H, the dump and the fusion's manifest fields alike
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        params = UnmixParams(neighbors=4, t1=1)
        fused = cmd_fuse(scene / "cube.raw", tmp_path / "fusion", params=params)
        unmixed = cmd_unmix(scene / "cube.raw", 3, tmp_path / "run", params=params)
        names = ("sigma_s_used", "sigma_l_used", "wm_stats", "graph_workers")
        assert {k: fused[k] for k in names} == {k: unmixed[k] for k in names}
        assert fused["graph_ms"] >= 0 and unmixed["graph_ms"] >= 0
        assert fused["wm_stats"]["fusion_iterations"] == fused["fusion_iterations"]

    def test_bad_input_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "fusion"
        result = runner.invoke(
            main, ["fuse", "--cube", str(tmp_path / "nope.raw"), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
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


class TestSweep:
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
        # the pool sets one BLAS thread for its workers, not for the caller
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert os.environ["MOGNMF_THREADS"] == "2"

    @pytest.mark.parametrize("openblas", [None, "3"])
    def test_pooled_jobs_get_one_thread_each(self, monkeypatch, openblas):
        # spawned workers inherit the environment the pool is created in
        seen = []

        class Pool:
            def __init__(self, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                seen.append({name: os.environ.get(name) for name in cli._WORKER_ENV})
                return [{} for _ in jobs]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setenv("MOGNMF_THREADS", "2")
        if openblas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas)
        assert cli._run_jobs([None, None], 2) == [{}, {}]
        assert seen == [{"OPENBLAS_NUM_THREADS": "1", "MOGNMF_THREADS": "1"}]
        assert os.environ["MOGNMF_THREADS"] == "2"
        assert os.environ.get("OPENBLAS_NUM_THREADS") == openblas

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
        [("1", ["--lambdas", "-1"]), ("zero", []), ("1", ["--alpha", "0"])],
        ids=["negative_lambda", "bad_thread_env", "alpha_zero"],
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
            "fuse": ["fuse", *cube, "--c", "4"],
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
        tmp_path / "fusion": ["fuse", "--cube", str(scene / "cube.raw"), "--c", "4",
                              "--dump-wm"],
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


@pytest.mark.parametrize("platform, mb", [("linux", 2048.0), ("darwin", 2.0)])
def test_peak_rss_unit_per_platform(monkeypatch, platform, mb):
    # ru_maxrss counts kilobytes on Linux and bytes on macOS
    class Usage:
        ru_maxrss = 2**21

    monkeypatch.setattr(cli.sys, "platform", platform)
    monkeypatch.setattr(cli.resource, "getrusage", lambda who: Usage)
    assert cli._peak_rss_mb() == mb


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
    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("ablate", "--seeds", "a..b"),
            ("sweep", "--snrs", "x"),
            ("sweep", "--seeds", "0..x"),
            ("sweep", "--lambdas", "foo"),
            ("sweep", "--variants", "bogus"),
            ("unmix", "--sigma-s", "wide"),
            ("sweep", "--variants", ","),
            ("sweep", "--snrs", ","),
            ("sweep", "--lambdas", ","),
            ("ablate", "--seeds", ","),
            ("ablate", "--seeds", "3..1"),
            ("ablate", "--seeds", "0,0"),
            ("sweep", "--variants", "nmf,nmf"),
            ("sweep", "--lambdas", "0.1,0.1000001"),
            ("sweep", "--snrs", "30,30.000001"),
            ("sweep", "--lambdas", "nan"),
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
