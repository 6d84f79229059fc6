import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mognmf.errors import MetricError, ShapeError
from mognmf.metrics import evaluate_model, match_endmembers, measure_snr, rmse, sad


class TestSad:
    def test_identical_spectra(self):
        a = np.array([0.3, 0.7, 0.1])
        assert sad(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_spectra(self):
        assert sad([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_45_degrees(self):
        assert sad([1.0, 0.0], [1.0, 1.0]) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(MetricError):
            sad([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_entry_rejected(self, side, value):
        spectra = [np.array([1.0, 1.0]), np.array([1.0, 1.0])]
        spectra[side][0] = value
        with pytest.raises(MetricError, match="non-finite"):
            sad(*spectra)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 1.0, size=12)
        for c in (1e-6, 0.5, 3.0, 1e6):
            assert sad(a, c * a) == pytest.approx(0.0, abs=1e-6)

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=3, max_size=8),
        st.lists(st.floats(0.01, 10.0), min_size=3, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = np.array(a[:n]), np.array(b[:n])
        assert abs(sad(a, b) - sad(b, a)) <= 1e-12

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
                continue
            assert 0.0 <= sad(a, b) <= np.pi


class TestRmse:
    def test_equal_matrices(self):
        S = np.random.default_rng(2).random((3, 5))
        assert rmse(S, S) == 0.0

    def test_constant_offset(self):
        M, N, c = 4, 7, 0.3
        S = np.zeros((M, N))
        assert rmse(S, S + c) == pytest.approx(c * np.sqrt(M), rel=1e-12)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(3)
        S, T = rng.random((3, 4)), rng.random((3, 4))
        oracle = np.sqrt(
            sum(np.sum((S[:, j] - T[:, j]) ** 2) for j in range(4)) / 4.0
        )
        assert rmse(S, T) == pytest.approx(oracle, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            rmse(np.ones((2, 3)), np.ones((3, 2)))

    @pytest.mark.parametrize("shape", [(3,), (2, 0)], ids=["one_dimensional", "zero_columns"])
    def test_not_m_by_n_rejected(self, shape):
        # a 1-D input has no column count, and zero columns leave no mean
        with pytest.raises(ShapeError):
            rmse(np.ones(shape), np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_entry_rejected(self, side, value):
        matrices = [np.ones((2, 3)), np.ones((2, 3))]
        matrices[side][1, 2] = value
        with pytest.raises(MetricError, match="non-finite"):
            rmse(*matrices)


class TestMatchEndmembers:
    def test_recovers_column_permutation(self):
        rng = np.random.default_rng(4)
        A = rng.uniform(0.1, 1.0, size=(10, 4))
        perm = np.array([2, 0, 3, 1])
        A_est = A[:, perm]
        got, matched = match_endmembers(A, A_est)
        # truth column i should map to the estimate position holding it
        assert np.array_equal(got, np.argsort(perm))
        assert np.max(matched) <= 1e-12

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(0.1, 1.0, size=(8, 4))
        B = rng.uniform(0.1, 1.0, size=(8, 4))
        perm, matched = match_endmembers(A, B)
        best_cost = min(
            sum(sad(A[:, i], B[:, p[i]]) for i in range(4))
            for p in itertools.permutations(range(4))
        )
        assert sum(matched) == pytest.approx(best_cost, abs=1e-12)

    def test_single_endmember(self):
        A = np.ones((5, 1))
        perm, matched = match_endmembers(A, A * 2.0)
        assert perm.tolist() == [0]
        assert matched[0] == pytest.approx(0.0, abs=1e-8)

    def test_beats_random_permutations(self):
        rng = np.random.default_rng(6)
        A = rng.uniform(0.1, 1.0, size=(12, 5))
        B = rng.uniform(0.1, 1.0, size=(12, 5))
        _, matched = match_endmembers(A, B)
        total = sum(matched)
        for _ in range(50):
            p = rng.permutation(5)
            cost = sum(sad(A[:, i], B[:, p[i]]) for i in range(5))
            assert total <= cost + 1e-12


    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_linear_sum_assignment(self, m):
        # continuous random spectra give a unique optimum with probability one
        rng = np.random.default_rng(100 + m)
        for _ in range(50):
            A, B = rng.random((5, m)), rng.random((5, m))
            cost = np.array([[sad(A[:, i], B[:, j]) for j in range(m)] for i in range(m)])
            rows, cols = linear_sum_assignment(cost)
            perm, matched = match_endmembers(A, B)
            assert abs(matched.sum() - cost[rows, cols].sum()) <= 1e-12
            assert np.array_equal(perm, cols)

    def test_tied_costs_take_any_optimal_permutation(self):
        # truth columns 0/1 and 2/3 coincide: four permutations reach the same total
        rng = np.random.default_rng(13)
        A = rng.random((6, 4))
        A[:, 1], A[:, 3] = A[:, 0], A[:, 2]
        B = A[:, [2, 0, 3, 1]] * 1.5
        cost = np.array([[sad(A[:, i], B[:, j]) for j in range(4)] for i in range(4)])
        rows, cols = linear_sum_assignment(cost)
        perm, matched = match_endmembers(A, B)
        assert sorted(perm.tolist()) == [0, 1, 2, 3]
        assert matched.sum() == pytest.approx(cost[rows, cols].sum(), abs=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["truth", "estimate"])
    def test_non_finite_entry_rejected(self, side, value):
        rng = np.random.default_rng(14)
        A, B = rng.random((6, 3)), rng.random((6, 3))
        (A if side == "truth" else B)[2, 1] = value
        with pytest.raises(MetricError, match="non-finite"):
            match_endmembers(A, B)


class TestMeasureSnr:
    def test_equal_signal_noise(self):
        x = np.random.default_rng(7).random((4, 6)) + 0.1
        assert measure_snr(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_tenth_amplitude_is_20db(self):
        x = np.random.default_rng(8).random((4, 6)) + 0.1
        assert measure_snr(x, x / 10.0) == pytest.approx(20.0, abs=1e-12)

    def test_doubling_noise_drops_6db(self):
        rng = np.random.default_rng(9)
        x = rng.random((3, 8)) + 0.1
        n = rng.normal(size=(3, 8))
        assert measure_snr(x, n) - measure_snr(x, 2 * n) == pytest.approx(
            20.0 * np.log10(2.0), abs=1e-9
        )

    def test_zero_noise_sentinel(self):
        assert measure_snr(np.ones((2, 2)), np.zeros((2, 2))) == np.inf

    def test_scaling_identity(self):
        rng = np.random.default_rng(10)
        x = rng.random((3, 5)) + 0.1
        n = rng.normal(size=(3, 5))
        for c in (0.5, 2.0, 7.3):
            lhs = measure_snr(x, n) + 20.0 * np.log10(c)
            assert lhs == pytest.approx(measure_snr(x, n / c), abs=1e-9)


class TestEvaluateModel:
    def test_permuted_estimate_scores_perfectly(self):
        rng = np.random.default_rng(11)
        A = rng.uniform(0.1, 1.0, size=(9, 3))
        S = rng.dirichlet(np.ones(3), size=11).T
        perm = np.array([1, 2, 0])
        report = evaluate_model(A, S, A[:, perm], S[perm, :])
        assert report.mean_sad == pytest.approx(0.0, abs=1e-10)
        assert report.rmse == pytest.approx(0.0, abs=1e-12)
        assert sorted(report.permutation.tolist()) == [0, 1, 2]

    def test_report_serialization(self):
        rng = np.random.default_rng(12)
        A = rng.uniform(0.1, 1.0, size=(6, 2))
        S = rng.dirichlet(np.ones(2), size=4).T
        report = evaluate_model(A, S, A, S)
        d = report.to_dict()
        assert set(d) == {
            "per_endmember_sad",
            "mean_sad",
            "rmse",
            "permutation",
        }
        assert report.to_json().startswith("{")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("factor", ["A_true", "S_true", "A_est", "S_est"])
    def test_non_finite_factor_rejected(self, factor, value):
        rng = np.random.default_rng(15)
        A = rng.uniform(0.1, 1.0, size=(6, 3))
        S = rng.dirichlet(np.ones(3), size=5).T
        factors = {"A_true": A, "S_true": S, "A_est": A.copy(), "S_est": S.copy()}
        factors[factor][1, 2] = value
        with pytest.raises(MetricError, match="non-finite"):
            evaluate_model(**factors)

    @pytest.mark.parametrize("factor, name", [
        ("A_true", "true endmembers"), ("S_true", "true abundances"),
        ("A_est", "estimated endmembers"), ("S_est", "estimated abundances"),
    ])
    def test_non_finite_message_names_the_factor(self, factor, name):
        # sad and rmse reject non-finite input too, but evaluate_model checks first
        rng = np.random.default_rng(16)
        A = rng.uniform(0.1, 1.0, size=(6, 3))
        S = rng.dirichlet(np.ones(3), size=5).T
        factors = {"A_true": A, "S_true": S, "A_est": A.copy(), "S_est": S.copy()}
        factors[factor][0, 1] = np.nan
        with pytest.raises(MetricError, match=f"^{name} hold a non-finite value$"):
            evaluate_model(**factors)
