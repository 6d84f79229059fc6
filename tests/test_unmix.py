import numpy as np
import pytest

from mognmf.errors import DataError, DivergenceError, InitError, ParamError, ShapeError
from mognmf.fusion import update_weights
from mognmf.graph import build_multi_order_graphs
from mognmf.hsi_core import HsiCube, UnmixParams
from mognmf.metrics import match_endmembers
from mognmf.simgen import build_simu1_scene, build_simu2_layout, synthetic_library
from mognmf.unmix import (
    VARIANTS,
    SolverConfig,
    consensus_graph,
    estimate_gamma,
    fused_orders,
    init_fcls,
    init_vca,
    run_solver,
    update_abundances,
    update_endmembers,
    update_noise,
)
from oracle import compute_residuals, consensus_tocsr, update_consensus


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

    def test_nonpositive_delta_rejected(self):
        A0 = np.eye(3)
        cube = _cube(np.ones((3, 4)), height=2, width=2)
        for delta in (0.0, -1.0):
            with pytest.raises(ParamError):
                init_fcls(cube, A0, delta=delta)

    def test_band_mismatch_rejected(self):
        cube = _cube(np.ones((3, 4)), height=2, width=2)
        with pytest.raises(ShapeError):
            init_fcls(cube, np.eye(4))


class TestUpdateEndmembers:
    def test_exact_factorization_is_fixed_point(self):
        rng = np.random.default_rng(8)
        A = rng.uniform(0.1, 1.0, size=(6, 3))
        S = rng.dirichlet(np.ones(3), size=10).T
        X = A @ S
        A_next = update_endmembers(A, X @ S.T, S @ S.T)
        assert np.allclose(A_next, A, rtol=1e-9)

    def test_given_product_is_the_formed_one(self):
        rng = np.random.default_rng(10)
        A = rng.uniform(0.1, 1.0, size=(5, 3))
        S = rng.uniform(0.1, 1.0, size=(3, 8))
        RSt, SSt = rng.uniform(0.1, 1.0, size=(5, 8)) @ S.T, S @ S.T
        assert np.array_equal(
            update_endmembers(A, RSt, SSt, ASSt=A @ SSt), update_endmembers(A, RSt, SSt)
        )

    def test_zero_entries_stay_zero(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(0.1, 1.0, size=(5, 3))
        A[2, 1] = 0.0
        S = rng.uniform(0.1, 1.0, size=(3, 8))
        X = rng.uniform(0.1, 1.0, size=(5, 8))
        A_next = update_endmembers(A, X @ S.T, S @ S.T)
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
            R = np.maximum(X - E, 0.0)
            A_next = update_endmembers(A, R @ S.T, S @ S.T)
            after = 0.5 * np.sum((X - E - A_next @ S) ** 2)
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
        S_next = update_abundances(S, A.T @ X, A.T @ A)
        assert np.allclose(S_next, S, rtol=1e-8)

    def test_matches_snmf_rule_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = rng.uniform(0.1, 1.0, size=(5, 3))
            S = rng.uniform(0.1, 1.0, size=(3, 6))
            X = rng.uniform(0.1, 1.0, size=(5, 6))
            gamma = float(rng.uniform(0.05, 0.5))
            got = update_abundances(S, A.T @ X, A.T @ A, gamma=gamma)
            assert np.max(np.abs(got - _snmf_rule_oracle(S, A, X, gamma))) <= 1e-12

    def test_floored_entry_stays_finite(self):
        A = np.ones((4, 2))
        S = np.array([[1e-15, 0.5], [0.2, 0.3]])
        X = np.ones((4, 2))
        out = update_abundances(S, A.T @ X, A.T @ A, gamma=0.3)
        assert np.all(np.isfinite(out)) and np.all(out >= 0.0)

    def test_graph_term_requires_matrices(self):
        with pytest.raises(ParamError):
            update_abundances(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 2)), lam=0.1)


def _soft_threshold(T, beta):
    # E = diag(s) T with s the row scale update_noise returns
    return T * update_noise((T * T).sum(axis=1), beta)[:, None]


class TestUpdateNoise:
    def test_row_above_threshold_scaled(self):
        T = np.zeros((1, 9))
        T[0, 0] = 3.0  # residual row norm 3
        E = _soft_threshold(T, beta=1.0)
        assert np.allclose(E, T * (2.0 / 3.0))

    def test_row_below_threshold_zeroed(self):
        T = np.full((1, 4), 0.25)  # norm 0.5
        E = _soft_threshold(T, beta=1.0)
        assert np.array_equal(E, np.zeros((1, 4)))

    def test_zero_beta_returns_residual(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(5, 7))
        A = rng.uniform(size=(5, 2))
        S = rng.uniform(size=(2, 7))
        E = _soft_threshold(X - A @ S, beta=0.0)
        assert np.array_equal(E, X - A @ S)

    def test_infinite_beta_gives_zero_scale(self):
        # the variants without the noise term run the same loop at beta = inf
        s = update_noise(np.array([0.0, 1e-30, 4.0, 1e300]), beta=np.inf)
        assert np.array_equal(s, np.zeros(4))


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


# (sparsity, noise, asc) of each variant, transcribed from the model
_LOOP_ORACLE_TRAITS = {
    "mognmf": (True, True, True),
    "nmf": (False, False, False),
    "snmf": (True, False, True),
    "case_ii": (True, False, True),
    "case_iii": (True, False, True),
    "case_iv": (True, True, True),
    "case_v": (True, True, True),
}


def _loop_oracle(X, A, S, variant, p, gamma, Wm, Dm):
    # the solver loop with every step forming and clipping its own residual
    sparsity, noise, asc = _LOOP_ORACLE_TRAITS[variant]
    gamma = gamma if sparsity else 0.0
    lam = p.lam if Wm is not None else 0.0
    L, N = X.shape
    M = A.shape[1]
    E = np.zeros((L, N)) if noise else None
    trace, prev = [], None
    for _ in range(p.t1):
        res = np.maximum(X if E is None else X - E, 0.0)
        A = A * ((res @ S.T) / (A @ (S @ S.T) + 1e-12))
        res, A_s = (X if E is None else X - E), A
        if asc:
            res = np.vstack([res, np.full((1, N), p.delta)])
            A_s = np.vstack([A, np.full((1, M), p.delta)])
        res = np.maximum(res, 0.0)
        num, den = A_s.T @ res, (A_s.T @ A_s) @ S
        if lam != 0.0:
            num = num + lam * (S @ Wm)
            den = den + lam * (S * np.asarray(Dm)[None, :])
        if gamma != 0.0:
            den = den + 0.5 * gamma / np.sqrt(np.maximum(S, 1e-10))
        S = S * (num / (den + 1e-12))
        if noise:
            T = X - A @ S
            norms = np.sqrt((T * T).sum(axis=1))
            scale = np.zeros_like(norms)
            hit = norms > 0
            scale[hit] = np.maximum(norms[hit] - p.beta, 0.0) / norms[hit]
            E = T * scale[:, None]
        objective = float(np.sum((X - A @ S) ** 2))
        trace.append(objective)
        if prev is not None and abs(objective - prev) < p.eps1 * (1.0 + prev):
            break
        prev = objective
    return A, S, E, np.array(trace)


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

    def test_absolute_eps1_stops_at_first_small_change(self):
        lib = synthetic_library(band_count=24, entries=5, seed=0)
        cube = build_simu1_scene(lib, M=3, height=6, width=8, target_snr_db=10.0, seed=0).cube
        params = UnmixParams(t1=500, eps1=1e-3, absolute_eps1=True)
        model = run_solver(cube, 3, SolverConfig(params=params, variant="nmf"))
        trace = model.objective_trace
        change = np.abs(np.diff(trace))
        assert model.converged
        assert change[-1] < params.eps1
        assert np.all(change[:-1] >= params.eps1)
        # the relative test, eps1 * (1 + previous value), stops earlier on the same trace
        relative = run_solver(
            cube, 3, SolverConfig(params=params.replace(absolute_eps1=False), variant="nmf")
        )
        assert relative.iterations < model.iterations
        assert np.array_equal(relative.objective_trace, trace[: relative.iterations])

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
            assert model.fusion.Wm.shape == (64, 64)

    @staticmethod
    def _oracle_solve(variant, params):
        """run_solver on the 6 x 8 oracle scene from its VCA-FCLS init: (cube, A0, S0, model)."""
        lib = synthetic_library(band_count=24, entries=5, seed=0)
        cube = build_simu1_scene(lib, M=3, height=6, width=8, target_snr_db=10.0, seed=0).cube
        A0 = init_vca(cube, 3, params.seed)
        S0 = np.maximum(init_fcls(cube, A0, params.delta), 1e-8)
        config = SolverConfig(
            params=params, variant=variant, init_endmembers=A0, init_abundances=S0
        )
        return cube, A0, S0, run_solver(cube, 3, config)

    def _oracle_run(self, variant, t1):
        params = UnmixParams(neighbors=4, beta=0.01, t1=t1, eps1=1e-12)
        cube, A0, S0, model = self._oracle_solve(variant, params)
        orders = fused_orders(variant, params.order)
        state = consensus_graph(cube, params, list(orders)) if orders else None
        A, S, E, trace = _loop_oracle(
            cube.data, A0, S0, variant, params, estimate_gamma(cube),
            state.Wm if state else None, state.Wm.degree if state else None,
        )
        E = np.zeros_like(cube.data) if E is None else E
        return model, A, S, E, trace

    @staticmethod
    def _assert_near_oracle(model, A, S, E, trace):
        # the loop reads X through Gram products and folds the delta row, so
        # rounding differs from the oracle's residual form: relative bounds
        def rel(got, want):
            scale = np.abs(want).max()
            return np.abs(got - want).max() / scale if scale > 0 else np.abs(got).max()

        assert model.iterations == len(trace)
        assert rel(model.endmembers, A) <= 1e-12
        assert rel(model.abundances, S) <= 1e-12
        assert rel(model.noise, E) <= 1e-10
        assert rel(model.objective_trace, trace) <= 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loop_matches_transcribed_oracle(self, variant):
        model, A, S, E, trace = self._oracle_run(variant, t1=25)
        self._assert_near_oracle(model, A, S, E, trace)
        if variant == "nmf":
            # no noise and no delta row: the products are the oracle's BLAS calls
            assert np.array_equal(model.endmembers, A)
            assert np.array_equal(model.abundances, S)

    def test_all_zero_noise_runs_as_the_noise_free_variant(self):
        # beta = 1e300 thresholds every row, so mognmf's s stays 0 and its
        # model is case_ii's: the loop skips the s-terms for both alike
        params = UnmixParams(neighbors=4, beta=1e300, t1=40, eps1=1e-12)
        noisy = self._oracle_solve("mognmf", params)[-1]
        free = self._oracle_solve("case_ii", params)[-1]
        assert free.iterations == noisy.iterations > 1
        assert not noisy.noise.any()
        for got, want in (
            (noisy.endmembers, free.endmembers),
            (noisy.abundances, free.abundances),
            (noisy.noise, free.noise),
            (noisy.objective_trace, free.objective_trace),
        ):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_oracle_deviation_does_not_grow(self, variant):
        self._assert_near_oracle(*self._oracle_run(variant, t1=300))

    @pytest.mark.parametrize("variant", ["mognmf", "nmf"])
    def test_exact_data_trace_matches_direct_fit(self, variant):
        rng = np.random.default_rng(16)
        A_star = rng.uniform(0.1, 1.0, size=(20, 3))
        S_star = rng.dirichlet(np.ones(3), size=48).T
        cube = _cube(A_star @ S_star, height=6, width=8)
        X = cube.data
        params = UnmixParams(neighbors=4, beta=0.01, t1=12, eps1=1e-12)
        model = run_solver(cube, 3, SolverConfig(params=params, variant=variant))
        trace = model.objective_trace
        assert np.all(trace >= 0.0)
        for k in range(1, len(trace) + 1):
            # a run capped at k iterations stops at the k-th iterate of the full run
            capped = run_solver(cube, 3, SolverConfig(params=params.replace(t1=k), variant=variant))
            direct = np.sum((X - capped.endmembers @ capped.abundances) ** 2)
            assert abs(trace[k - 1] - direct) <= 1e-12 * np.sum(X**2)
        # E is a row scaling of X - A S by factors in [0, 1]
        T = X - model.endmembers @ model.abundances
        norm_sq = (T * T).sum(axis=1)
        scale = np.divide((model.noise * T).sum(axis=1), norm_sq,
                          out=np.zeros_like(norm_sq), where=norm_sq > 0)
        assert np.all((scale >= 0.0) & (scale <= 1.0 + 1e-15))
        assert np.abs(model.noise - scale[:, None] * T).max() <= 1e-15 * np.abs(X).max()


class TestConsensusGraph:
    def test_order_norm_off_fuses_raw_powers(self):
        scene = _pure_pixel_scene(seed=9, M=3, L=24, height=8, width=8)
        params = UnmixParams(neighbors=4, order_norm=False)
        state = consensus_graph(scene.cube, params)
        raw = build_multi_order_graphs(scene.cube, params)
        for W, r in zip(state.Wm.graphs, raw.views, strict=True):
            assert np.array_equal(W.toarray(), r.W.toarray())
        # the direct alternation over the formed raw powers
        H = np.full((2, 3), 1.0 / 6.0)
        for _ in range(state.iterations):
            Wm_ref = update_consensus(H, raw, params.mu, normalize=False)
            H = update_weights(compute_residuals(Wm_ref, raw, normalize=False), params.alpha)
        assert np.allclose(state.H, H, rtol=0.0, atol=1e-12)
        Wm = consensus_tocsr(state.Wm).toarray()
        assert np.abs(Wm - Wm_ref.toarray()).max() <= 1e-12 * Wm_ref.max()
        # the flag matters here: the max-normalized powers give another W_m
        normalized = consensus_graph(scene.cube, params.replace(order_norm=True))
        assert not np.array_equal(consensus_tocsr(normalized.Wm).toarray(), Wm)
