import csv
import json

import numpy as np
import pytest
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
from mognmf.graph import build_multi_order_graphs
from mognmf.hsi_core import HsiCube, UnmixParams, load_cube, save_cube
from mognmf.unmix import SolverConfig, run_solver


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
        assert manifest["wm_stats"] is not None
        assert manifest["wm_stats"]["max"] > 0

    def test_missing_cube_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["unmix", "--cube", str(tmp_path / "nope.raw"), "--m", "2",
             "--out", str(tmp_path / "run")],
        )
        assert result.exit_code == 2

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
        cmd_evaluate(run, scene, tmp_path / "eval")
        with open(tmp_path / "eval" / "report.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            row = next(reader)
        assert tuple(header) == EVAL_COLUMNS
        assert len(row) == len(EVAL_COLUMNS)

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


class TestFuse:
    def test_h_csv_and_dump(self, runner, tmp_path):
        scene = _tiny_scene_dir(tmp_path, height=6, width=6)
        out = tmp_path / "fusion"
        result = runner.invoke(
            main,
            ["fuse", "--cube", str(scene / "cube.raw"), "--c", "4",
             "--dump-wm", "--dump-graphs", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        H = np.atleast_2d(np.loadtxt(out / "H.csv", delimiter=","))
        assert H.shape == (2, 3)
        assert H.sum() == pytest.approx(1.0, abs=1e-9)
        Wm = np.loadtxt(out / "Wm.csv", delimiter=",")
        assert Wm.shape == (36, 36)
        # the dumped graphs are the ones fusion saw, written losslessly
        cube = load_cube(scene / "cube.raw")
        graphs = build_multi_order_graphs(cube, K=3, neighbors=4)
        for g in graphs.all_graphs():
            W = np.loadtxt(out / f"W_{g.kind}_{g.order}.csv", delimiter=",")
            assert W.shape == (36, 36)
            assert np.array_equal(W, g.W)
        # fuse and unmix share one params -> graphs -> fusion path
        model = run_solver(cube, 3, SolverConfig(params=UnmixParams(neighbors=4, t1=1)))
        assert np.array_equal(H, model.fusion.H)
        assert np.array_equal(Wm, model.fusion.Wm.W)


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
