import numpy as np
import pytest

from mognmf.errors import DataError, DivergenceError, InitError, ParamError
from mognmf.hsi_core import HsiCube, UnmixParams
from mognmf.metrics import match_endmembers
from mognmf.simgen import build_simu2_layout, synthetic_library
from mognmf.unmix import (
    SolverConfig,
    estimate_gamma,
    init_fcls,
    init_vca,
    run_solver,
    update_abundances,
    update_endmembers,
    update_noise,
)


def _cube(data, height=1, width=None):
    data = np.asarray(data, dtype=float)
    width = width if width is not None else data.shape[1] // height
    return HsiCube(data=data, height=height, width=width)


class TestEstimateGamma:
    def test_one_hot_bands(self):
        L, N = 5, 9
        data = np.zeros((L, N))
        for l in range(L):
            data[l, l % N] = 2.0  # l1 == l2 per band
        assert estimate_gamma(_cube(data)) == pytest.approx(np.sqrt(L), rel=1e-12)
        assert estimate_gamma(_cube(data), as_written=True) == pytest.approx(
            np.sqrt(L), rel=1e-12
        )

    def test_constant_bands_give_zero(self):
        data = np.full((4, 16), 0.7)
        assert estimate_gamma(_cube(data)) == pytest.approx(0.0, abs=1e-12)

    def test_single_band_hand_value(self):
        data = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert estimate_gamma(_cube(data)) == pytest.approx(1.0, rel=1e-12)

    def test_all_zero_band_rejected(self):
        data = np.vstack([np.ones(4), np.zeros(4)])
        with pytest.raises(DataError):
            estimate_gamma(_cube(data))


def _pure_pixel_scene(seed=0, M=3, L=24, height=6, width=8):
    lib = synthetic_library(band_count=L, entries=M + 2, seed=seed)
    return build_simu2_layout(
        lib, M=M, height=height, width=width, target_snr_db=None, seed=seed
    )


class TestInitVca:
    def test_pure_pixel_recovery(self):
        scene = _pure_pixel_scene(seed=1, M=4, L=30, height=12, width=12)
        A0 = init_vca(scene.cube, 4, seed=3)
        _, matched = match_endmembers(scene.A_true, A0)
        assert np.max(matched) < 1e-6

    def test_single_endmember_max_projection(self):
        rng = np.random.default_rng(4)
        spectrum = rng.uniform(0.2, 1.0, size=10)
        scales = np.array([0.4, 0.9, 0.3, 1.7, 0.8])
        data = np.outer(spectrum, scales)
        A0 = init_vca(_cube(data), 1, seed=0)
        assert np.allclose(A0[:, 0], data[:, 3])

    def test_deterministic_per_seed(self):
        scene = _pure_pixel_scene(seed=2)
        a = init_vca(scene.cube, 3, seed=11)
        b = init_vca(scene.cube, 3, seed=11)
        assert np.array_equal(a, b)

    def test_rank_deficient_data_rejected(self):
        rank_two = np.outer(np.ones(6), np.linspace(0.1, 1, 8))
        rank_two += np.outer(np.arange(6), np.linspace(1, 0.1, 8))
        with pytest.raises(InitError):
            init_vca(_cube(rank_two, height=2, width=4), 4, seed=0)


class TestInitFcls:
    def test_exact_simplex_recovery(self):
        rng = np.random.default_rng(5)
        A0 = rng.uniform(0.1, 1.0, size=(20, 3))
        S_true = rng.dirichlet(np.ones(3), size=15).T
        cube = _cube(A0 @ S_true, height=3, width=5)
        S0 = init_fcls(cube, A0, delta=15.0)
        assert np.max(np.abs(S0 - S_true)) < 1e-6

    def test_pure_pixel_gives_unit_vector(self):
        rng = np.random.default_rng(6)
        A0 = rng.uniform(0.1, 1.0, size=(12, 4))
        cube = _cube(A0[:, [2]], height=1, width=1)
        S0 = init_fcls(cube, A0, delta=15.0)
        expected = np.zeros((4, 1))
        expected[2] = 1.0
        assert np.max(np.abs(S0 - expected)) < 1e-6

    def test_nonnegativity_exact(self):
        rng = np.random.default_rng(7)
        A0 = rng.uniform(0.1, 1.0, size=(10, 3))
        cube = _cube(rng.uniform(0.0, 1.0, size=(10, 9)), height=3, width=3)
        S0 = init_fcls(cube, A0)
        assert np.all(S0 >= 0.0)

    def test_rank_deficient_endmembers_rejected(self):
        A0 = np.ones((8, 3))
        cube = _cube(np.ones((8, 4)), height=2, width=2)
        with pytest.raises(InitError):
            init_fcls(cube, A0)


class TestUpdateEndmembers:
    def test_exact_factorization_is_fixed_point(self):
        rng = np.random.default_rng(8)
        A = rng.uniform(0.1, 1.0, size=(6, 3))
        S = rng.dirichlet(np.ones(3), size=10).T
        X = A @ S
        A_next = update_endmembers(A, S, X)
        assert np.allclose(A_next, A, rtol=1e-9)

    def test_zero_entries_stay_zero(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(0.1, 1.0, size=(5, 3))
        A[2, 1] = 0.0
        S = rng.uniform(0.1, 1.0, size=(3, 8))
        X = rng.uniform(0.1, 1.0, size=(5, 8))
        A_next = update_endmembers(A, S, X)
        assert A_next[2, 1] == 0.0

    def test_empirical_descent_of_fit(self):
        # one multiplicative step never increases 0.5||X-E-AS||_F^2
        for seed in range(100):
            rng = np.random.default_rng(seed)
            A = rng.uniform(0.01, 1.0, size=(4, 3))
            S = rng.uniform(0.01, 1.0, size=(3, 5))
            X = rng.uniform(0.0, 1.0, size=(4, 5))
            E = rng.uniform(0.0, 0.05, size=(4, 5))
            before = 0.5 * np.sum((X - E - A @ S) ** 2)
            after = 0.5 * np.sum((X - E - update_endmembers(A, S, X, E) @ S) ** 2)
            assert after <= before + 1e-12 * (1 + before)


def _snmf_rule_oracle(S, A, X, gamma):
    # independent transcription of the sparsity-regularized rule
    num = A.T @ X
    den = A.T @ A @ S + 0.5 * gamma * S ** (-0.5)
    return S * num / den


class TestUpdateAbundances:
    def test_plain_fixed_point(self):
        rng = np.random.default_rng(10)
        A = rng.uniform(0.1, 1.0, size=(6, 3))
        S = rng.dirichlet(np.ones(3), size=10).T
        X = A @ S
        S_next = update_abundances(S, A, X)
        assert np.allclose(S_next, S, rtol=1e-8)

    def test_matches_snmf_rule_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = rng.uniform(0.1, 1.0, size=(5, 3))
            S = rng.uniform(0.1, 1.0, size=(3, 6))
            X = rng.uniform(0.1, 1.0, size=(5, 6))
            gamma = float(rng.uniform(0.05, 0.5))
            got = update_abundances(S, A, X, gamma=gamma)
            assert np.max(np.abs(got - _snmf_rule_oracle(S, A, X, gamma))) <= 1e-12

    def test_floored_entry_stays_finite(self):
        A = np.ones((4, 2))
        S = np.array([[1e-15, 0.5], [0.2, 0.3]])
        X = np.ones((4, 2))
        out = update_abundances(S, A, X, gamma=0.3)
        assert np.all(np.isfinite(out)) and np.all(out >= 0.0)

    def test_graph_term_requires_matrices(self):
        with pytest.raises(ParamError):
            update_abundances(np.ones((2, 3)), np.ones((4, 2)), np.ones((4, 3)), lam=0.1)


class TestUpdateNoise:
    def test_row_above_threshold_scaled(self):
        X = np.zeros((1, 9))
        X[0, 0] = 3.0  # residual row norm 3
        A, S = np.zeros((1, 1)), np.zeros((1, 9))
        E = update_noise(X, A, S, beta=1.0)
        assert np.allclose(E, X * (2.0 / 3.0))

    def test_row_below_threshold_zeroed(self):
        X = np.full((1, 4), 0.25)  # norm 0.5
        E = update_noise(X, np.zeros((1, 1)), np.zeros((1, 4)), beta=1.0)
        assert np.array_equal(E, np.zeros((1, 4)))

    def test_zero_beta_returns_residual(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(5, 7))
        A = rng.uniform(size=(5, 2))
        S = rng.uniform(size=(2, 7))
        E = update_noise(X, A, S, beta=0.0)
        assert np.array_equal(E, X - A @ S)


def _plain_mur_oracle(X, M, A0, S0, eps1, t1):
    # independent plain-NMF implementation (classic two-factor rule)
    A, S = A0.copy(), S0.copy()
    prev = None
    for _ in range(t1):
        A = A * (X @ S.T) / (A @ S @ S.T + 1e-12)
        S = S * (A.T @ X) / (A.T @ A @ S + 1e-12)
        obj = np.sum((X - A @ S) ** 2)
        if prev is not None and abs(obj - prev) < eps1 * (1 + prev):
            break
        prev = obj
    return obj


class TestRunSolver:
    def test_exact_data_stops_fast_with_zero_objective(self):
        rng = np.random.default_rng(13)
        A_star = rng.uniform(0.1, 1.0, size=(8, 3))
        S_star = rng.dirichlet(np.ones(3), size=12).T
        cube = _cube(A_star @ S_star, height=3, width=4)
        params = UnmixParams(gamma=0.0, lam=0.0, beta=0.0, seed=0)
        config = SolverConfig(
            params=params,
            variant="nmf",
            init_endmembers=A_star,
            init_abundances=S_star,
        )
        model = run_solver(cube, 3, config)
        assert model.iterations <= 2
        assert model.objective_trace[-1] <= 1e-10

    def test_nmf_matches_independent_mur_oracle(self):
        rng_master = np.random.default_rng(14)
        for _ in range(10):
            seed = int(rng_master.integers(1 << 31))
            rng = np.random.default_rng(seed)
            X = rng.uniform(0.05, 1.0, size=(10, 12))
            cube = _cube(X, height=3, width=4)
            params = UnmixParams(seed=seed, t1=500)
            config = SolverConfig(params=params, variant="nmf", init="random")
            model = run_solver(cube, 3, config)
            # rebuild the identical random init for the oracle
            from mognmf.rng import substream

            A0 = np.abs(substream(seed, "init", "endmembers").standard_normal((10, 3)))
            A0 *= float(X.max())
            S0 = substream(seed, "init", "abundances").uniform(size=(3, 12))
            S0 /= S0.sum(axis=0, keepdims=True)
            oracle = _plain_mur_oracle(X, 3, A0, S0, params.eps1, params.t1)
            ours = model.objective_trace[-1]
            assert ours == pytest.approx(oracle, rel=0.05)

    def test_nonnegativity_throughout(self):
        scene = _pure_pixel_scene(seed=3, M=3)
        params = UnmixParams(seed=0, t1=50)
        model = run_solver(scene.cube, 3, SolverConfig(params=params, variant="mognmf"))
        assert model.endmembers.min() >= 0.0
        assert model.abundances.min() >= 0.0

    def test_deterministic_runs_bit_identical(self):
        scene = _pure_pixel_scene(seed=4, M=3)
        params = UnmixParams(seed=5, t1=40)
        config = SolverConfig(params=params, variant="mognmf")
        a = run_solver(scene.cube, 3, config)
        b = run_solver(scene.cube, 3, config)
        assert np.array_equal(a.endmembers, b.endmembers)
        assert np.array_equal(a.abundances, b.abundances)
        assert np.array_equal(a.noise, b.noise)
        assert np.array_equal(a.objective_trace, b.objective_trace)

    def test_case_ii_ignores_beta_and_never_touches_noise(self):
        scene = _pure_pixel_scene(seed=5, M=3)
        outs = []
        for beta in (0.01, 50.0):
            params = UnmixParams(seed=2, t1=30, beta=beta)
            model = run_solver(scene.cube, 3, SolverConfig(params=params, variant="case_ii"))
            outs.append(model)
        assert np.array_equal(outs[0].endmembers, outs[1].endmembers)
        assert np.array_equal(outs[0].abundances, outs[1].abundances)
        assert np.all(outs[0].noise == 0.0)

    def test_asc_drift_bound_on_clean_scene(self):
        scene = _pure_pixel_scene(seed=6, M=3, L=30, height=10, width=10)
        params = UnmixParams(seed=1)
        model = run_solver(scene.cube, 3, SolverConfig(params=params, variant="mognmf"))
        col_err = np.abs(model.abundances.sum(axis=0) - 1.0)
        assert np.mean(col_err <= 0.05) >= 0.95

    def test_iteration_cap_of_one(self):
        scene = _pure_pixel_scene(seed=7, M=3)
        params = UnmixParams(seed=0, t1=1)
        model = run_solver(scene.cube, 3, SolverConfig(params=params, variant="snmf"))
        assert model.iterations == 1
        assert len(model.objective_trace) == 1

    def test_divergence_reports_iteration(self):
        data = np.full((4, 6), 1e200)
        data[0, 0] = 1.0
        cube = _cube(data, height=2, width=3)
        params = UnmixParams(gamma=0.0, lam=0.0, seed=0, t1=10)
        config = SolverConfig(params=params, variant="nmf", init="random")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_solver(cube, 3, config)
        assert err.value.iteration is not None

    def test_endmember_count_validated(self):
        scene = _pure_pixel_scene(seed=8, M=3)
        params = UnmixParams(seed=0)
        with pytest.raises(InitError):
            run_solver(scene.cube, 999, SolverConfig(params=params, variant="nmf"))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ParamError):
            SolverConfig(params=UnmixParams(), variant="bogus")

    def test_case_iii_is_snmf(self):
        scene = _pure_pixel_scene(seed=10, M=3)
        params = UnmixParams(seed=1, t1=30)
        a, b = (
            run_solver(scene.cube, 3, SolverConfig(params=params, variant=variant))
            for variant in ("snmf", "case_iii")
        )
        assert np.array_equal(a.endmembers, b.endmembers)
        assert np.array_equal(a.abundances, b.abundances)
        assert np.array_equal(a.noise, b.noise)
        assert np.array_equal(a.objective_trace, b.objective_trace)

    def test_single_order_variants_use_their_order(self):
        scene = _pure_pixel_scene(seed=9, M=3, L=24, height=8, width=8)
        for variant, order in (("case_iv", 2), ("case_v", 1)):
            params = UnmixParams(seed=3, t1=15)
            model = run_solver(scene.cube, 3, SolverConfig(params=params, variant=variant))
            assert model.fusion is not None
            assert model.fusion.H.shape == (2, 1)
            assert model.fusion.Wm.W.shape == (64, 64)
