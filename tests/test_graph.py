import tracemalloc

import numpy as np
import pytest

from mognmf.errors import ParamError, ShapeError
import scipy.sparse as sp

from mognmf import graph
from mognmf.fusion import FusionState, update_weights
from mognmf.graph import (
    ConsensusOperator,
    WeightMatrix,
    build_multi_order_graphs,
    graph_powers,
    laplacian_quadratic,
    spatial_weights,
    spectral_weights,
)
from mognmf.hsi_core import HsiCube, UnmixParams
from mognmf.unmix import consensus_graph, update_abundances
from oracle import (
    ORACLE_CASES,
    compute_residuals,
    consensus_tocsr,
    oracle_case,
    stack_powers,
    update_consensus,
)


def _random_cube(rng, height, width, bands=6):
    data = rng.random((bands, height * width))
    return HsiCube(data=data, height=height, width=width)


def _naive_power(W, k):
    # triple-loop matrix product chain, the independent oracle
    n = W.shape[0]
    out = np.array(W, dtype=float)
    for _ in range(k - 1):
        nxt = np.zeros_like(out)
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for t in range(n):
                    acc += out[i, t] * W[t, j]
                nxt[i, j] = acc
        out = nxt
    return out


def _knn_oracle(points, neighbors):
    """Brute-force k-NN heat kernel with sigma="auto": each row keeps its
    nearest others sorted by (distance, index), then W = max(W, W.T)."""
    n = points.shape[1]
    edges = []
    for i in range(n):
        ranked = sorted(
            (float(np.sqrt(np.sum((points[:, i] - points[:, j]) ** 2))), j)
            for j in range(n)
            if j != i
        )
        edges.extend((i, j, dist) for dist, j in ranked[:neighbors])
    retained = np.array([dist for _, _, dist in edges])
    sigma = float(np.median(retained))
    weights = np.exp(-(retained**2) / (2.0 * sigma**2))
    W = np.zeros((n, n))
    for (i, j, _), w in zip(edges, weights):
        W[i, j] = max(W[i, j], w)
        W[j, i] = max(W[j, i], w)
    return W


def _dense_knn_heat_kernel(points, sigma, neighbors):
    """Dense N x N reference for the blockwise CSR builder: whole-matrix
    distances, a stable argsort per row, then W = max(W, W.T).  Returns
    (W, sigma_used)."""
    n = points.shape[1]
    sq = np.sum(points**2, axis=0)
    d = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (points.T @ points), 0.0))
    np.fill_diagonal(d, np.inf)
    rows = np.repeat(np.arange(n), neighbors)
    cols = np.argsort(d, axis=1, kind="stable")[:, :neighbors].ravel()
    retained = d[rows, cols]
    if sigma == "auto":
        sigma = float(np.median(retained)) or 1.0
    W = np.zeros((n, n))
    W[rows, cols] = np.exp(-(retained**2) / (2.0 * sigma**2))
    return np.maximum(W, W.T), sigma


def _grid(cube):
    """Grid coordinates (row, column) of every pixel, as the columns of a 2 x N array."""
    return np.array(np.divmod(np.arange(cube.pixel_count), cube.width), dtype=np.float64)


def _dense_multi_order(cube, K, neighbors, sigma_s="auto", sigma_l="auto"):
    """Dense max-normalized powers 1..K of both views, in the row-major layout of H."""
    out = []
    for points, sigma in ((_grid(cube), sigma_s), (cube.data, sigma_l)):
        W, _ = _dense_knn_heat_kernel(points, sigma, neighbors)
        Wk = W
        out.append(W)
        for _ in range(2, K + 1):
            Wk = Wk @ W
            Wk = 0.5 * (Wk + Wk.T)
            out.append(Wk / Wk.max())
    return out


class TestDenseOracleEquivalence:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_graphs_match_dense_builder(self, case):
        cube, kw = oracle_case(case)
        graphs = stack_powers(build_multi_order_graphs(cube, UnmixParams(**kw)))
        oracle = _dense_multi_order(cube, K=3, **kw)
        assert len(graphs) == len(oracle) == 6
        for (view, k), g, dense in zip(np.ndindex(2, 3), graphs, oracle):
            W = g.toarray()
            if k == 0:
                assert np.array_equal(W, dense), (view, k + 1)
            else:
                assert np.array_equal(W != 0, dense != 0), (view, k + 1)
                assert np.max(np.abs(W - dense)) <= 1e-12, (view, k + 1)

    def test_abundance_step_matches_dense_consensus(self):
        cube, kw = oracle_case("random24")
        state = consensus_graph(cube, UnmixParams(neighbors=kw["neighbors"]))
        rng = np.random.default_rng(15)
        S = rng.random((4, cube.pixel_count))
        A = rng.random((cube.band_count, 4))
        args = (S, A.T @ cube.data, A.T @ A, 0.3, 0.05)
        sparse = update_abundances(*args, state.Wm)
        formed = update_abundances(*args, ConsensusOperator([consensus_tocsr(state.Wm)], [[1.0]]))
        assert np.max(np.abs(sparse - formed)) <= 1e-12


class TestFusedConsensus:
    """W_m is symmetric and nonnegative by construction, with D_m its row sums."""

    @pytest.mark.parametrize("alpha, one_hot", [(0.1, True), (1e6, False)])
    def test_consensus_is_symmetric_nonnegative_with_row_sum_degrees(self, alpha, one_hot):
        cube, kw = oracle_case("random24")
        state = consensus_graph(cube, UnmixParams(neighbors=kw["neighbors"], alpha=alpha))
        assert (np.count_nonzero(state.H) == 1) == one_hot
        Wm = consensus_tocsr(state.Wm)
        assert isinstance(Wm, sp.csr_array)
        assert (Wm != Wm.T).nnz == 0
        assert Wm.data.min() >= 0
        # D_m is the operator applied to ones: the row sums up to rounding
        assert np.allclose(state.Wm.degree, Wm.sum(axis=1), rtol=1e-12, atol=0.0)


def _stored_power_fusion(graphs, params, sweeps):
    """H and W_m of the direct alternation over the formed stack."""
    V, K = len(graphs.views), len(graphs.orders)
    H = np.full((V, K), 1.0 / (V * K))
    for _ in range(sweeps):
        Wm = update_consensus(H, graphs, params.mu)
        H = update_weights(compute_residuals(Wm, graphs), params.alpha)
    return H, Wm


def _csr_arrays(obj):
    """Every CSR array reachable from obj through fields, attributes and containers."""
    if isinstance(obj, sp.sparray):
        return [obj]
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return []
    return [m for child in children for m in _csr_arrays(child)]


class TestConsensusOperator:
    """The operator against the stored-power consensus on the random24 oracle cube."""

    CASES = {
        "one_hot": (0.1, None),
        "spread": (1e6, None),
        "case_iv": (0.1, [2]),
        "case_v": (0.1, [1]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_stored_power_consensus(self, case):
        alpha, orders = self.CASES[case]
        cube, kw = oracle_case("random24")
        params = UnmixParams(neighbors=kw["neighbors"], alpha=alpha)
        graphs = build_multi_order_graphs(cube, params, orders)
        state = consensus_graph(cube, params, orders)
        H_ref, Wm_ref = _stored_power_fusion(graphs, params, state.iterations)
        assert np.allclose(state.H, H_ref, rtol=0.0, atol=1e-12)
        Wm = consensus_tocsr(state.Wm)
        assert np.array_equal(Wm.toarray() != 0, Wm_ref.toarray() != 0)
        assert abs(Wm - Wm_ref).max() <= 1e-12
        S = np.random.default_rng(17).random((4, cube.pixel_count))
        SW = S @ Wm
        assert np.max(np.abs(S @ state.Wm - SW)) <= 1e-12 * np.max(SW)
        assert np.max(np.abs(state.Wm.degree - Wm.sum(axis=1))) <= 1e-12 * np.max(state.Wm.degree)

    def test_default_consensus_stores_no_power(self):
        cube, kw = oracle_case("random24")
        params = UnmixParams(neighbors=kw["neighbors"])
        state = consensus_graph(cube, params)
        assert isinstance(state, FusionState)
        assert isinstance(state.Wm, ConsensusOperator)
        graphs = build_multi_order_graphs(cube, params)
        order1 = sum(g.W.nnz for g in graphs.all_graphs())
        held = _csr_arrays(state)
        assert held and max(W.nnz for W in held) <= order1
        # the order-3 spectral power this consensus puts its weight on is far larger
        assert stack_powers(graphs)[5].nnz > 10 * order1

    def test_degree_is_computed_once(self):
        cube, kw = oracle_case("random24")
        op = consensus_graph(cube, UnmixParams(neighbors=kw["neighbors"])).Wm
        assert op.degree is op.degree
        assert np.array_equal(op.degree, (np.ones((1, cube.pixel_count)) @ op)[0])

    @pytest.mark.parametrize("case", ["one_hot", "spread"])
    def test_rmatmul_ignores_memory_order(self, case):
        cube, kw = oracle_case("random24")
        params = UnmixParams(neighbors=kw["neighbors"], alpha=self.CASES[case][0])
        op = consensus_graph(cube, params).Wm
        S = np.random.default_rng(18).random((4, cube.pixel_count))
        assert np.array_equal(S @ op, np.asfortranarray(S) @ op)

    def test_all_zero_coefficients_give_zeros(self):
        W = sp.csr_array(_random_symmetric(np.random.default_rng(19), 6))
        op = ConsensusOperator([W, W], np.zeros((2, 3)))
        out = np.ones((4, 6)) @ op
        assert out.shape == (4, 6) and not out.any()
        assert op.degree.shape == (6,) and not op.degree.any()

    def test_rmatmul_validates_shape(self):
        op = ConsensusOperator([sp.csr_array(np.eye(3))], [[1.0]])
        assert np.array_equal(np.ones((2, 3)) @ op, np.ones((2, 3)))
        with pytest.raises(ShapeError):
            np.ones((2, 4)) @ op
        with pytest.raises(ShapeError):
            ConsensusOperator([sp.csr_array(np.eye(3))], [1.0])

    def test_rejects_non_square_graph(self):
        with pytest.raises(ShapeError):
            ConsensusOperator([sp.csr_array(np.ones((4, 5)))], [[1.0]])


class TestHeatKernelGraphs:
    def test_two_adjacent_pixels_weight(self):
        cube = HsiCube(data=np.ones((3, 2)), height=1, width=2)
        w = spatial_weights(cube, UnmixParams(sigma_s=1.0, neighbors=1))
        assert w.W[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert w.W[0, 0] == 0.0 and w.W[1, 1] == 0.0

    def test_grid_weights_bounded_by_kernel_at_unit_distance(self):
        rng = np.random.default_rng(0)
        cube = _random_cube(rng, 4, 4)
        w = spatial_weights(cube, UnmixParams(sigma_s=1.0, neighbors=3)).W.toarray()
        positive = w[w > 0]
        assert positive.max() <= np.exp(-0.5) + 1e-12
        assert positive.min() > 0.0

    def test_large_sigma_limit(self):
        rng = np.random.default_rng(1)
        cube = _random_cube(rng, 3, 3)
        w = spatial_weights(cube, UnmixParams(sigma_s=1e9, neighbors=4)).W.toarray()
        assert np.allclose(w[w > 0], 1.0, atol=1e-12)

    def test_duplicate_pixels_weight_one(self):
        data = np.ones((4, 3))
        data[:, 2] = 2.0  # pixels 0 and 1 identical, pixel 2 distinct
        cube = HsiCube(data=data, height=1, width=3)
        w = spectral_weights(cube, UnmixParams(sigma_l=1.0, neighbors=1)).W
        assert w[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_spectral_kernel_value(self):
        sigma = 0.7
        data = np.zeros((2, 3))
        data[0, 1] = sigma * np.sqrt(2.0)  # distance sigma*sqrt(2) from pixel 0
        data[0, 2] = 10.0
        cube = HsiCube(data=data, height=1, width=3)
        w = spectral_weights(cube, UnmixParams(sigma_l=sigma, neighbors=1)).W
        assert w[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_weights_decrease_with_spectral_distance(self):
        data = np.array([[0.0, 1.0, 2.5, 7.0]])
        cube = HsiCube(data=data, height=1, width=4)
        w = spectral_weights(cube, UnmixParams(sigma_l=2.0, neighbors=3)).W.toarray()
        row = w[0]
        assert row[1] > row[2] > row[3] > 0.0

    def test_symmetry_range_zero_diagonal(self):
        rng = np.random.default_rng(2)
        for builder in (spatial_weights, spectral_weights):
            cube = _random_cube(rng, 5, 4)
            w = builder(cube, UnmixParams(neighbors=4)).W.toarray()
            assert np.array_equal(w, w.T)
            assert w.min() >= 0.0 and w.max() <= 1.0
            assert np.all(np.diag(w) == 0.0)

    def test_neighbor_count_validated(self):
        cube = HsiCube(data=np.ones((2, 4)), height=2, width=2)
        with pytest.raises(ParamError):
            spatial_weights(cube, UnmixParams(sigma_s=1.0, neighbors=4))


    @pytest.mark.parametrize("neighbors", [6, 10])
    def test_spatial_ties_match_oracle(self, neighbors):
        # a grid has 4-way ties (e.g. at distance 2); ties go to the lower index
        cube = HsiCube(data=np.ones((2, 30)), height=5, width=6)
        grid = np.array(np.divmod(np.arange(30), 6), dtype=np.float64)
        w = spatial_weights(cube, UnmixParams(neighbors=neighbors)).W.toarray()
        assert np.array_equal(w, _knn_oracle(grid, neighbors))

    @pytest.mark.parametrize(
        "height, width, neighbors, sigma_s",
        [(1, 40, 5, "auto"), (2, 50, 10, "auto"), (2, 50, 10, 1.7), (3, 3, 8, "auto"),
         (16, 16, 30, "auto"), (7, 3, 20, "auto"), (40, 1, 7, "auto"), (1, 12, 11, "auto")],
    )
    def test_spatial_window_growth_matches_dense_builder(
        self, height, width, neighbors, sigma_s, monkeypatch
    ):
        # thin grids and a large C put a corner's C-th distance far out; on 3x3
        # the window covers the grid.  7-row blocks also check blocks that hold
        # no corner pixel, whose window comes from the corner all the same
        cube = HsiCube(data=np.ones((2, height * width)), height=height, width=width)
        dense, sigma = _dense_knn_heat_kernel(_grid(cube), sigma_s, neighbors)
        for block in (graph._BLOCK, 7):
            monkeypatch.setattr(graph, "_BLOCK", block)
            w = spatial_weights(cube, UnmixParams(sigma_s=sigma_s, neighbors=neighbors))
            assert np.array_equal(w.W.toarray(), dense), block
            assert w.sigma == sigma, block

    @pytest.mark.parametrize(
        "height, width, neighbors",
        [(1, 40, 5), (2, 50, 10), (7, 3, 20), (40, 1, 7), (3, 3, 8), (16, 16, 30), (32, 32, 10)],
    )
    def test_spatial_window_clipped_to_grid(self, height, width, neighbors):
        # r: the smallest radius >= 1 holding a corner's C nearest; each axis
        # keeps only offsets that are on the grid from some pixel
        corner = sorted(y * y + x * x for y in range(height) for x in range(width))
        r = max(1, int(np.ceil(np.sqrt(corner[neighbors]))))
        ry, rx = min(r, height - 1), min(r, width - 1)
        for _, d, index in graph._grid_candidates(height, width, neighbors):
            assert d.shape[1] == index.shape[1] == (2 * ry + 1) * (2 * rx + 1)

    @pytest.mark.parametrize("neighbors", [4, 8])
    def test_spectral_ties_match_oracle(self, neighbors):
        # quarter-step values and duplicated pixels give many exact ties
        rng = np.random.default_rng(12)
        data = rng.integers(0, 4, size=(3, 30)) / 4.0
        data[:, 15:] = data[:, :15]
        cube = HsiCube(data=data, height=5, width=6)
        w = spectral_weights(cube, UnmixParams(neighbors=neighbors)).W.toarray()
        oracle = _knn_oracle(data, neighbors)
        assert np.array_equal(w != 0, oracle != 0)
        assert np.allclose(w, oracle, rtol=0.0, atol=1e-12)


class TestGraphPowers:
    def test_single_order_returned_unchanged(self):
        W = WeightMatrix(W=np.array([[0.0, 0.5], [0.5, 0.0]]), kind="spatial")
        (only,) = graph_powers(W, 1)
        assert only is W.W

    def test_identity_idempotent(self):
        W = WeightMatrix(W=np.eye(4), kind="spatial")
        for g in graph_powers(W, 3):
            assert np.array_equal(g.toarray(), np.eye(4))

    def test_two_node_swap_squares_to_identity(self):
        W = WeightMatrix(W=np.array([[0.0, 1.0], [1.0, 0.0]]), kind="spatial")
        powers = graph_powers(W, 2)
        assert np.array_equal(powers[1].toarray(), np.eye(2))

    def test_matches_naive_product_oracle(self):
        rng = np.random.default_rng(3)
        raw = rng.random((7, 7))
        W = WeightMatrix(W=(raw + raw.T) / 2 - np.diag(np.diag(raw)), kind="spectral")
        powers = graph_powers(W, 3, normalize=False)
        for k, g in enumerate(powers, start=1):
            assert np.allclose(g.toarray(), _naive_power(W.W.toarray(), k), atol=1e-10)

    def test_normalized_powers_match_scaled_oracle(self):
        rng = np.random.default_rng(4)
        raw = rng.random((6, 6))
        W = WeightMatrix(W=(raw + raw.T) / 2, kind="spatial")
        powers = graph_powers(W, 3, normalize=True)
        for k, g in enumerate(powers, start=1):
            expected = _naive_power(W.W.toarray(), k)
            if k > 1:
                expected = expected / expected.max()
            assert np.allclose(g.toarray(), expected, atol=1e-10)
        assert all(g.max() <= 1.0 + 1e-12 for g in powers[1:])

    def test_invalid_order_rejected(self):
        W = WeightMatrix(W=np.eye(2), kind="spatial")
        with pytest.raises(ParamError):
            graph_powers(W, 0)


def _random_symmetric(rng, n, low=0.0):
    W = rng.uniform(low, 1.0, size=(n, n))
    W = (W + W.T) / 2
    np.fill_diagonal(W, 0.0)
    return W


def _dense_quadratic(S, W):
    # test-local oracle: the explicit Laplacian diag(D) - W
    return float(np.sum((S @ (np.diag(W.sum(1)) - W)) * S))


def _single(W):
    """One graph W as the operator laplacian_quadratic takes: degree = row sums of W."""
    return ConsensusOperator([sp.csr_array(W)], [[1.0]])


class TestLaplacian:
    """Properties of L = diag(D) - W, read through laplacian_quadratic."""

    def test_zero_graph(self):
        S = np.random.default_rng(4).random((3, 4))
        assert laplacian_quadratic(S, _single(np.zeros((4, 4)))) == 0.0

    def test_two_node_hand_oracle(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        for a, b in [(1.0, 0.0), (0.3, 0.8), (2.5, 2.5)]:
            S = np.array([[a, b]])
            assert laplacian_quadratic(S, _single(W)) == pytest.approx((a - b) ** 2, abs=1e-12)

    def test_row_sums_zero_and_psd(self):
        rng = np.random.default_rng(5)
        W = _random_symmetric(rng, 12)
        op = _single(W)
        # zero row sums: constant abundance rows carry no penalty
        S = np.outer(rng.random(3), np.ones(12))
        assert abs(laplacian_quadratic(S, op)) <= 1e-12 * np.sum(S * S) * W.max()
        # positive semidefinite: the form is nonnegative for every S
        for _ in range(50):
            S = rng.standard_normal((int(rng.integers(1, 5)), 12))
            assert laplacian_quadratic(S, op) >= -1e-12 * np.sum(S * S) * W.max()

    def test_connected_graph_single_zero_eigenvalue(self):
        rng = np.random.default_rng(6)
        n = 9
        W = _single(_random_symmetric(rng, n, low=0.2))
        # the null space is the constant vector alone: constant rows give 0,
        # any row orthogonal to the constants gives a strictly positive value
        assert laplacian_quadratic(np.ones((1, n)), W) == pytest.approx(0.0, abs=1e-12)
        for _ in range(20):
            s = rng.standard_normal(n)
            s -= s.mean()
            s /= np.linalg.norm(s)
            assert laplacian_quadratic(s[None, :], W) > 1e-8


class TestLaplacianQuadratic:
    def test_constant_columns_give_zero(self):
        rng = np.random.default_rng(7)
        W = _random_symmetric(rng, 5)
        S = np.outer(rng.random(3), np.ones(5))
        assert laplacian_quadratic(S, _single(W)) == pytest.approx(0.0, abs=1e-12)

    def test_two_node_hand_value(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        S = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert laplacian_quadratic(S, _single(W)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_pairwise_sum_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(1, 5))
            W = _random_symmetric(rng, n)
            S = rng.random((m, n))
            # brute-force pairwise form: 0.5 sum_ij ||s_i - s_j||^2 W_ij
            oracle = 0.0
            for i in range(n):
                for j in range(n):
                    oracle += 0.5 * W[i, j] * np.sum((S[:, i] - S[:, j]) ** 2)
            got = laplacian_quadratic(S, _single(W))
            assert got == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("coef", [[1.0], [0.5, 0.25]], ids=["single", "operator"])
    def test_matches_dense_laplacian(self, coef):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            W = _random_symmetric(rng, n)
            W[rng.random((n, n)) < 0.5] = 0.0
            W = np.maximum(W, W.T)
            S = rng.random((int(rng.integers(1, 6)), n))
            # W, or 0.5 W + 0.25 W^2 applied without forming it
            graph = ConsensusOperator([sp.csr_array(W)], [coef])
            W = sum(c * np.linalg.matrix_power(W, k) for k, c in enumerate(coef, start=1))
            oracle = _dense_quadratic(S, W)
            assert abs(laplacian_quadratic(S, graph) - oracle) <= 1e-12 * abs(oracle)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            laplacian_quadratic(np.ones((2, 5)), _single(np.zeros((4, 4))))
        with pytest.raises(ShapeError):
            laplacian_quadratic(np.ones(4), _single(np.zeros((4, 4))))


class TestMultiOrderBuild:
    def test_views_and_orders(self):
        rng = np.random.default_rng(9)
        cube = _random_cube(rng, 4, 5)
        graphs = build_multi_order_graphs(cube, UnmixParams(order=3, neighbors=4))
        assert len(graphs.views) == 2
        assert graphs.orders == (1, 2, 3)
        # only the order-1 graphs are stored; the fused stack is their powers
        assert [g.kind for g in graphs.all_graphs()] == ["spatial", "spectral"]
        # view-major, orders 1, 2, 3 per view; order 1 is the stored graph itself
        stack = stack_powers(graphs)
        assert len(stack) == 6
        assert stack[0] is graphs.views[0].W and stack[3] is graphs.views[1].W

    def test_order_subset(self):
        rng = np.random.default_rng(10)
        cube = _random_cube(rng, 4, 4)
        graphs = build_multi_order_graphs(cube, UnmixParams(neighbors=3), orders=[2])
        assert graphs.orders == (2,)
        # the stack holds each view's max-normalized square alone
        for view, g in zip(graphs.views, stack_powers(graphs), strict=True):
            sq = _naive_power(view.W.toarray(), 2)
            assert np.allclose(g.toarray(), sq / sq.max(), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("K, orders", [(3, [0]), (3, [3, 3]), (3, [])])
    def test_invalid_orders_rejected(self, K, orders):
        cube = _random_cube(np.random.default_rng(12), 4, 4)
        with pytest.raises(ParamError):
            build_multi_order_graphs(cube, UnmixParams(order=K, neighbors=3), orders)

    def test_per_view_neighbor_override(self):
        rng = np.random.default_rng(11)
        cube = _random_cube(rng, 4, 4)
        params = UnmixParams(order=1, neighbors=3, neighbors_spatial=2, neighbors_spectral=5)
        graphs = build_multi_order_graphs(cube, params)
        w_spa, w_spe = (g.W.toarray() for g in graphs.views)
        # row degree (nonzero count) reflects the per-view neighbor budget
        assert np.count_nonzero(w_spa[0]) <= 2 * 2
        assert np.count_nonzero(w_spe[0]) >= 5


def _peak_in_n2_doubles(fn, *args, **kwargs):
    """Peak traced allocation of fn(*args, **kwargs) in units of N x N doubles."""
    n = args[0].pixel_count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - base) / (n * n * 8)
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_graph_build_and_fusion_peaks(self):
        # six per-order graphs plus W_m are the dense floor (7 N^2)
        cube = _random_cube(np.random.default_rng(13), 24, 24, bands=20)
        assert _peak_in_n2_doubles(consensus_graph, cube, UnmixParams(neighbors=4)) < 7.5
        assert _peak_in_n2_doubles(spectral_weights, cube, UnmixParams(neighbors=4)) < 4.0

    def test_spectral_build_holds_no_n2_array(self):
        # distances live in row blocks and the graph in CSR, so the peak
        # stays below one N x N array of doubles (the dense build needed ~3)
        cube = _random_cube(np.random.default_rng(16), 48, 48, bands=20)
        assert _peak_in_n2_doubles(spectral_weights, cube) < 1.0

    def test_spatial_build_holds_no_n2_array(self):
        # candidates come from a window of grid offsets around each pixel
        cube = _random_cube(np.random.default_rng(16), 48, 48, bands=20)
        assert _peak_in_n2_doubles(spatial_weights, cube) < 1.0
