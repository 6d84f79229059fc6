import tracemalloc

import numpy as np
import pytest

from mognmf.errors import DataError, ParamError, ParseError, ShapeError
from mognmf.metrics import measure_snr
from mognmf.rng import substream
from mognmf.simgen import (
    SpectralLibrary,
    add_noise_at_snr,
    build_simu1_scene,
    build_simu2_layout,
    generate_abundances,
    load_library,
    mix_lmm,
    synthetic_library,
)


def _lag1_autocorr(field_2d):
    a = field_2d[:, :-1].ravel()
    b = field_2d[:, 1:].ravel()
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.sum(a**2) * np.sum(b**2))
    return float(np.sum(a * b) / denom) if denom > 0 else 0.0


class TestGenerateAbundances:
    def test_columns_on_simplex(self):
        S = generate_abundances(8, 9, 4, smoothness=3.0, seed=0)
        assert S.shape == (4, 72)
        assert np.all(S >= 0.0)
        assert np.max(np.abs(S.sum(axis=0) - 1.0)) <= 1e-9

    def test_deterministic_per_seed(self):
        a = generate_abundances(6, 6, 3, smoothness=2.0, seed=5)
        b = generate_abundances(6, 6, 3, smoothness=2.0, seed=5)
        c = generate_abundances(6, 6, 3, smoothness=2.0, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_smoothness_controls_autocorrelation(self):
        rough, smooth = [], []
        for seed in range(20):
            r = generate_abundances(16, 16, 3, smoothness=0.05, seed=seed)
            s = generate_abundances(16, 16, 3, smoothness=10.0, seed=seed)
            rough.append(_lag1_autocorr(r[0].reshape(16, 16)))
            smooth.append(_lag1_autocorr(s[0].reshape(16, 16)))
        assert abs(np.mean(rough)) < 0.15
        assert np.mean(smooth) > 0.9

    def test_two_class_symmetry(self):
        means = []
        for seed in range(30):
            S = generate_abundances(12, 12, 2, smoothness=3.0, seed=seed)
            means.append(S[0].mean())
        assert np.mean(means) == pytest.approx(0.5, abs=0.05)

    def test_invalid_args_rejected(self):
        with pytest.raises(ParamError):
            generate_abundances(4, 4, 1, smoothness=1.0, seed=0)
        with pytest.raises(ParamError):
            generate_abundances(4, 4, 3, smoothness=0.0, seed=0)


class TestMixLmm:
    def test_pure_pixel_column(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(0.1, 1.0, size=(7, 3))
        S = np.zeros((3, 4))
        S[1, 2] = 1.0
        assert np.array_equal(mix_lmm(A, S)[:, 2], A[:, 1])

    def test_uniform_abundances_give_endmember_mean(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(0.1, 1.0, size=(6, 4))
        S = np.full((4, 5), 0.25)
        assert np.allclose(mix_lmm(A, S), np.tile(A.mean(axis=1)[:, None], 5))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.random((5, 3))
        S = rng.random((3, 8))
        oracle = np.zeros((5, 8))
        for l in range(5):
            for j in range(8):
                for m in range(3):
                    oracle[l, j] += A[l, m] * S[m, j]
        assert np.allclose(mix_lmm(A, S), oracle, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mix_lmm(np.ones((4, 3)), np.ones((2, 5)))


class TestAddNoiseAtSnr:
    def test_exact_preclamp_calibration(self):
        rng = np.random.default_rng(3)
        clean = rng.uniform(0.3, 0.9, size=(20, 50))
        _, noise = add_noise_at_snr(clean, 20.0, seed=4)
        assert measure_snr(clean, noise) == pytest.approx(20.0, abs=1e-6)

    def test_energy_ratio_between_targets(self):
        rng = np.random.default_rng(4)
        clean = rng.uniform(0.3, 0.9, size=(10, 40))
        _, n40 = add_noise_at_snr(clean, 40.0, seed=1)
        _, n10 = add_noise_at_snr(clean, 10.0, seed=1)
        ratio = np.sum(n10**2) / np.sum(n40**2)
        assert ratio == pytest.approx(1e3, rel=1e-9)

    @pytest.mark.parametrize("target", [np.inf, -np.inf, 4000.0, -4000.0])
    def test_target_without_finite_positive_noise_power_rejected(self, target):
        # inf would add no noise at all; the others overflow or underflow 10^(snr/10)
        clean = np.random.default_rng(5).uniform(0.3, 0.9, size=(6, 8))
        with pytest.raises(ParamError, match="no finite positive noise power"):
            add_noise_at_snr(clean, target, seed=0)

    def test_clamp_fraction_small_at_40db(self):
        fracs = []
        for seed in range(20):
            lib = synthetic_library(band_count=40, entries=5, seed=seed)
            scene = build_simu1_scene(
                lib, M=3, height=12, width=12, target_snr_db=None, seed=seed
            )
            clean = scene.cube.data  # noiseless: the mixture itself
            noisy, noise = add_noise_at_snr(clean, 40.0, seed=seed)
            fracs.append(np.mean(clean + noise < 0))
        assert np.mean(fracs) < 1e-3

    @pytest.mark.parametrize("target", [5.0, 0.0])
    def test_exact_before_clamping_at_low_snr(self, target):
        # many entries clamp at these targets; the calibration holds before the
        # clamp, and the scene's clamp fraction is that clamp's share of entries
        lib = synthetic_library(band_count=16, entries=4, seed=0)
        scene = build_simu1_scene(lib, M=3, height=8, width=8, target_snr_db=target, seed=2)
        clean = mix_lmm(scene.A_true, scene.S_true)
        noisy, noise = add_noise_at_snr(clean, target, seed=2)
        assert measure_snr(clean, noise) == pytest.approx(target, abs=1e-6)
        assert np.array_equal(noisy, np.maximum(clean + noise, 0.0))
        assert np.array_equal(scene.cube.data, noisy)
        assert scene.clamp_fraction == np.mean(clean + noise < 0) > 0


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_rejected(seed):
    # masked to 64 bits, -1 would draw the stream of 2^64 - 1 and 2^64 that of 0
    with pytest.raises(ParamError, match=r"seed must be in \[0, 2\^64\)"):
        substream(seed, "noise")
    assert substream(seed % (1 << 64), "noise").random() >= 0.0


class TestLibraries:
    def test_synthetic_library_bounds_and_names(self):
        lib = synthetic_library(band_count=50, entries=6, seed=2)
        assert lib.spectra.shape == (50, 6)
        assert lib.spectra.min() >= 0.35 - 1e-12
        assert lib.spectra.max() <= 0.95 + 1e-12
        assert len(set(lib.names)) == 6

    def test_csv_roundtrip(self, tmp_path):
        lib = synthetic_library(band_count=12, entries=3, seed=1)
        with open(tmp_path / "lib.csv", "w") as fh:
            for name, spectrum in zip(lib.names, lib.spectra.T):
                fh.write(name + "," + ",".join(f"{v:.17g}" for v in spectrum) + "\n")
        back = load_library(tmp_path / "lib.csv")
        assert back.names == lib.names
        assert np.array_equal(back.spectra, lib.spectra)

    @pytest.mark.parametrize(
        "text",
        ["a,0.1,0.2\nb,0.3,x\n", "a,0.1,0.2\nb,0.3\n", "a,0.1\nb\n", "a,0.1\nb, \n", "\n"],
        ids=["non_numeric", "ragged", "no_spectrum", "blank_spectrum", "empty"],
    )
    def test_malformed_library_is_a_parse_error(self, tmp_path, text):
        (tmp_path / "lib.csv").write_text(text)
        with pytest.raises(ParseError):
            load_library(tmp_path / "lib.csv")

    def test_single_band_library(self, tmp_path):
        (tmp_path / "lib.csv").write_text("a,0.25\nb,0.5\n")
        lib = load_library(tmp_path / "lib.csv")
        assert lib.names == ("a", "b")
        assert np.array_equal(lib.spectra, [[0.25, 0.5]])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            SpectralLibrary(names=("a", "a"), spectra=np.ones((5, 2)))


class TestScenes:
    def test_simu2_pure_patches_and_background(self):
        lib = synthetic_library(band_count=30, entries=6, seed=0)
        scene = build_simu2_layout(lib, M=4, height=20, width=20, target_snr_db=None)
        S = scene.S_true
        # every class has at least one exactly pure pixel
        for m in range(4):
            assert np.any(S[m] == 1.0)
        assert np.max(np.abs(S.sum(axis=0) - 1.0)) <= 1e-9
        # mixed background exists
        assert np.any(S.max(axis=0) < 0.99)

    def test_simu2_insufficient_library(self):
        lib = synthetic_library(band_count=30, entries=3, seed=0)
        with pytest.raises(DataError):
            build_simu2_layout(lib, M=4)

    def test_scene_invariants_over_seed_sweep(self):
        lib = synthetic_library(band_count=25, entries=6, seed=3)
        for seed in range(100):
            scene = build_simu1_scene(
                lib, M=3, height=8, width=8, smoothness=2.0,
                target_snr_db=20.0, seed=seed,
            )
            S = scene.S_true
            assert np.all(S >= 0.0)
            assert np.max(np.abs(S.sum(axis=0) - 1.0)) <= 1e-9
            clean = mix_lmm(scene.A_true, scene.S_true)
            got = measure_snr(clean, scene.cube.data - clean)
            assert abs(got - 20.0) <= 0.1

    def test_peak_memory_at_64x64(self):
        # at most three L x N arrays live at once (the mixture, the noise, and its
        # square or the noisy sum), plus the clamp mask and the abundances
        lib = synthetic_library(band_count=100, entries=6, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_simu1_scene(lib, M=4, height=64, width=64, target_snr_db=20.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (100 * 64 * 64 * 8) < 3.5

    @pytest.mark.parametrize("M", [2.5, True, 1])
    @pytest.mark.parametrize("build", ["generate_abundances", "build_simu1_scene",
                                       "build_simu2_layout"])
    def test_endmember_count_is_an_integer_from_two(self, build, M):
        # a scene mixes at least two endmembers; a float or a bool is no count
        lib = synthetic_library(band_count=20, entries=5, seed=1)
        builds = {
            "generate_abundances": lambda: generate_abundances(8, 8, M),
            "build_simu1_scene": lambda: build_simu1_scene(lib, M, height=8, width=8),
            "build_simu2_layout": lambda: build_simu2_layout(lib, M, height=8, width=8),
        }
        with pytest.raises(ParamError, match="endmember count M must be an integer >= 2"):
            builds[build]()

    def test_scene_determinism(self):
        lib = synthetic_library(band_count=20, entries=5, seed=1)
        a = build_simu1_scene(lib, M=3, height=6, width=6, target_snr_db=25, seed=9)
        b = build_simu1_scene(lib, M=3, height=6, width=6, target_snr_db=25, seed=9)
        assert np.array_equal(a.cube.data, b.cube.data)
        assert np.array_equal(a.S_true, b.S_true)
        assert a.endmember_names == b.endmember_names
