import tracemalloc

import numpy as np
import pytest

from mognmf.errors import DataError, ParamError, ShapeError
import scipy.sparse as sp

from mognmf import fusion, graph, workers
from mognmf.fusion import FusionState, fuse_graphs, update_weights
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
    correlation_eigenvectors,
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
    (W, sigma_used).

    The Gram rows come from the package's 64-row BLAS products: one
    whole-matrix product (SYRK) can round some entries differently (it
    does at N = 1089), and the graph build's contract is the product over
    its work units.  Everything after it is formed whole."""
    n = points.shape[1]
    sq = np.sum(points**2, axis=0)
    gram = np.vstack([points[:, lo:hi].T @ points for lo, hi in workers.units(n)])
    d = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0))
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
    """Every CSR graph (scipy array or WeightMatrix) reachable from obj through fields,
    attributes and containers."""
    if isinstance(obj, (sp.sparray, WeightMatrix)):
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

    @pytest.mark.parametrize("given", ["dense", "scipy"])
    def test_given_arrays_are_checked_as_weight_matrices(self, given):
        # an asymmetric W would give S W^T where the penalty needs S W
        def make(W):
            return np.array(W) if given == "dense" else sp.csr_array(np.array(W))

        with pytest.raises(DataError, match="must be symmetric"):
            ConsensusOperator([make([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])],
                              [[1.0]])
        with pytest.raises(DataError, match="must be nonnegative"):
            ConsensusOperator([make([[0.0, 1.0, 0.0], [1.0, 0.0, -0.5], [0.0, -0.5, 0.0]])],
                              [[1.0]])
        op = ConsensusOperator([make([[0.0, 1.0], [1.0, 0.0]])], [[1.0]])
        assert op.graphs[0].format == "csr" and op.degree.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("given", ["weight_matrix", "dense"])
    def test_rejects_graphs_of_different_node_counts(self, given):
        # the products would index the larger graph's rows by the smaller's
        # node count (a 2-node graph beside a 3e6-node one crashes the process)
        rings = [np.eye(n, k=1) + np.eye(n, k=-1) for n in (2, 5)]
        if given == "weight_matrix":
            rings = [WeightMatrix(W=W, kind=kind) for W, kind in zip(rings, ("spatial", "spectral"))]
        with pytest.raises(ShapeError, match=r"one node count, got \[2, 5\]"):
            ConsensusOperator(rings, [[1.0], [1.0]])
        with pytest.raises(ShapeError, match=r"one node count, got \[\]"):
            ConsensusOperator([], np.zeros((0, 1)))


class TestHeatKernelGraphs:
    @pytest.mark.parametrize("build", [spatial_weights, spectral_weights])
    def test_built_graph_runs_no_transpose_kernel(self, build, monkeypatch):
        # W^T is the edge list with rows and columns swapped, and a built graph
        # is symmetric and nonnegative by construction, so nothing transposes
        # it or compares it with its transpose
        calls = []
        for name in ("csr_tocsc", "csr_ne_csr"):
            kernel = getattr(graph._sparsetools, name)

            def counted(*args, name=name, kernel=kernel):
                calls.append(name)
                return kernel(*args)

            monkeypatch.setattr(graph._sparsetools, name, counted)
        cube, kw = oracle_case("random24")
        build(cube, UnmixParams(**kw))
        assert calls == []

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
         (16, 16, 30, "auto"), (7, 3, 20, "auto"), (40, 1, 7, "auto"), (1, 12, 11, "auto"),
         (1, 2, 1, "auto"), (2, 2, 3, "auto"), (9, 1, 8, "auto")],
    )
    def test_spatial_window_growth_matches_dense_builder(
        self, height, width, neighbors, sigma_s, monkeypatch
    ):
        # thin grids and a large C put a corner's C-th distance far out; on 3x3
        # the window covers the grid, and on 1x2, 2x2 and 9x1 every pixel is a
        # corner and C = N - 1.  7-row units also check units that hold no
        # corner pixel, whose window comes from the corner all the same
        cube = HsiCube(data=np.ones((2, height * width)), height=height, width=width)
        dense, sigma = _dense_knn_heat_kernel(_grid(cube), sigma_s, neighbors)
        for unit in (workers.UNIT, 7):
            monkeypatch.setattr(workers, "UNIT", unit)
            w = spatial_weights(cube, UnmixParams(sigma_s=sigma_s, neighbors=neighbors))
            assert np.array_equal(w.W.toarray(), dense), unit
            assert w.sigma == sigma, unit

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
        dy, dx, dist = graph._grid_offsets(height, width, neighbors)
        assert len(dy) == len(dx) == len(dist) == (2 * ry + 1) * (2 * rx + 1) - 1

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


def _subspace(cube, m):
    """The pixels in the cube's m-dimensional signal subspace: U^T X, with U the
    top m eigenvectors of X X^T / N, formed from X as written."""
    with workers.blas_pinned():
        return correlation_eigenvectors(cube.data)[:, :m].T @ cube.data


class TestSignalSubspaceGraph:
    """Given M, the spectral view is the raw-band recipe run on the projected pixels."""

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_dense_builder_on_projected_pixels(self, case, m):
        # the duplicated scene keeps its duplicates, grid5x6 (2 bands, m <= 2)
        # ties every distance at 0, and seams33x33 duplicates across seams
        cube, kw = oracle_case(case)
        m = min(m, cube.band_count)
        params = UnmixParams(**kw)
        built = spectral_weights(cube, params, m)
        dense, sigma = _dense_knn_heat_kernel(_subspace(cube, m), params.sigma_l, kw["neighbors"])
        assert np.array_equal(built.W.toarray(), dense)
        assert built.sigma == sigma and built.dims == m

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_duplicate_ties_match_brute_force_oracle(self, m):
        # every pixel twice: a twin projects onto its twin, so the distances to
        # a pair tie exactly, and the lower index wins the C-th place.  Random
        # values keep all other distances apart: rotated quarter steps would
        # tie only up to rounding, which the oracle's direct differences and
        # the Gram form round differently (the dense builder shares the Gram
        # form and checks the quarter-step scene)
        rng = np.random.default_rng(12)
        data = rng.random((6, 30))
        data[:, 15:] = data[:, :15]
        cube = HsiCube(data=data, height=5, width=6)
        w = spectral_weights(cube, UnmixParams(neighbors=8), m).W.toarray()
        oracle = _knn_oracle(_subspace(cube, m), 8)
        assert np.array_equal(w != 0, oracle != 0)
        assert np.allclose(w, oracle, rtol=0.0, atol=1e-12)

    def test_subspace_is_the_top_eigenvectors(self):
        # U^T X keeps the distances along the top m left singular vectors of X,
        # whatever the signs of the eigenvectors
        cube, _ = oracle_case("random24")
        U = np.linalg.svd(cube.data, full_matrices=False)[0]

        def pairwise(points):
            return np.linalg.norm(points[:, :, None] - points[:, None, :], axis=0)

        for m in (1, 3, 6):
            got, want = pairwise(_subspace(cube, m)), pairwise(U[:, :m].T @ cube.data)
            assert np.allclose(got, want, rtol=0.0, atol=1e-10 * want.max()), m

    @pytest.mark.parametrize("m", [0, 101])
    def test_endmember_count_validated(self, m):
        cube, kw = oracle_case("random24")  # 100 bands
        with pytest.raises(ParamError, match="endmember count"):
            spectral_weights(cube, UnmixParams(**kw), m)


def _collapsing_pair():
    """Squared distances a < b one ulp apart whose square roots are equal."""
    a = 2.0
    while np.sqrt(a) != np.sqrt(np.nextafter(a, np.inf)):
        a = np.nextafter(a, np.inf)
    return a, np.nextafter(a, np.inf)


def _select(d2, neighbors, rows_per_block):
    """The k-NN heat kernel of a full squared-distance matrix fed in row blocks."""
    n = d2.shape[0]
    kept = []
    for a in range(0, n, rows_per_block):
        block = d2[a : a + rows_per_block]
        kept.append(graph._nearest(a, block, np.empty_like(block), neighbors))
    W = graph._heat_kernel(n, *(np.concatenate(x) for x in zip(*kept)), "auto", "spectral")
    return W.W, W.sigma


class TestSquaredDistanceSelection:
    """Selection runs on squared distances; ties are decided on their square roots."""

    def test_sqrt_collapse_tie_goes_to_lower_index(self):
        # d2[0, 1] is one ulp above d2[0, 2], but both are the same distance:
        # node 0's one neighbor is node 1.  Nodes 1 and 2 pick node 3, so an
        # edge 0-2 could only come from node 0
        a, b = _collapsing_pair()
        inf = np.inf
        d2 = np.array([[inf, b, a, 9.0], [b, inf, 9.0, 1.0], [a, 9.0, inf, 1.0],
                       [9.0, 1.0, 1.0, inf]])
        W, sigma = _select(d2, 1, 4)
        assert sorted(zip(*(a.tolist() for a in W.nonzero()))) == [
            (0, 1), (1, 0), (1, 3), (2, 3), (3, 1), (3, 2)]
        assert sigma == 1.0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("neighbors, rows_per_block", [(1, 5), (3, 1), (4, 3)])
    def test_matches_rooted_brute_force(self, seed, neighbors, rows_per_block):
        # entries from runs of adjacent doubles (neighbors often share a
        # root) and from values at or just below zero (which clamp to 0)
        rng = np.random.default_rng(seed)
        values = [-1e-16, -0.0, 0.0]
        for start in (0.5, 2.0, 3.0):
            for _ in range(6):
                values.append(start)
                start = np.nextafter(start, np.inf)
        n = 13
        d2 = np.triu(rng.choice(values, size=(n, n)), 1)
        d2 = d2 + d2.T
        np.fill_diagonal(d2, np.inf)
        W, sigma = _select(d2, neighbors, rows_per_block)
        edges = []
        for i in range(n):
            ranked = sorted((np.sqrt(max(d2[i, j], 0.0)), j) for j in range(n) if j != i)
            edges += [(i, j, dist) for dist, j in ranked[:neighbors]]
        want_sigma = float(np.median([dist for _, _, dist in edges])) or 1.0
        want = np.zeros((n, n))
        for i, j, dist in edges:
            want[i, j] = np.exp(-(dist**2) / (2.0 * want_sigma**2))
        assert sigma == want_sigma
        assert np.array_equal(W.toarray(), np.maximum(want, want.T))


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

    def test_invalid_orders_fail_before_any_graph(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return spatial_weights(*args)

        monkeypatch.setattr(graph, "spatial_weights", counted)
        cube = _random_cube(np.random.default_rng(12), 4, 4)
        for orders in [(2, 2), (0,), (-1, 1), (1.5,), (True, 2), ()]:
            with pytest.raises(ParamError, match="distinct integers >= 1"):
                build_multi_order_graphs(cube, UnmixParams(neighbors=3), orders)
        assert built == []
        assert build_multi_order_graphs(cube, UnmixParams(neighbors=3), [2]).orders == (2,)
        assert len(built) == 1

    def test_per_view_neighbor_override(self):
        rng = np.random.default_rng(11)
        cube = _random_cube(rng, 4, 4)
        params = UnmixParams(order=1, neighbors=3, neighbors_spatial=2, neighbors_spectral=5)
        graphs = build_multi_order_graphs(cube, params)
        w_spa, w_spe = (g.W.toarray() for g in graphs.views)
        # row degree (nonzero count) reflects the per-view neighbor budget
        assert np.count_nonzero(w_spa[0]) <= 2 * 2
        assert np.count_nonzero(w_spe[0]) >= 5


def _peak_bytes(fn, *args, **kwargs):
    """Peak traced allocation of fn(*args, **kwargs), in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _peak_in_n2_doubles(fn, *args, **kwargs):
    """Peak traced allocation of fn(*args, **kwargs) in units of N x N doubles."""
    n = args[0].pixel_count
    return _peak_bytes(fn, *args, **kwargs) / (n * n * 8)


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

    def test_spectral_working_set_at_64x64(self):
        # per thread, one unit's Gram rows and a sub-block of squared
        # distances with its partition copy and the next sub-block, and the
        # C N kept edges with their CSR forms: 9.5 MiB.  Passes over whole
        # 128-row blocks of distances need about 17 MiB here
        cube = _random_cube(np.random.default_rng(16), 64, 64, bands=20)
        n, c = cube.pixel_count, UnmixParams().neighbors
        per_thread = workers.UNIT * n + 3 * graph._SUB_BLOCK
        budget = workers.MAX_THREADS * per_thread * 8 + 64 * c * n
        assert _peak_bytes(spectral_weights, cube) < budget

    def test_fusion_working_set_at_32x32(self):
        # per thread, one unit's dense buffer, the unit's power rows as
        # (position, value) pairs (the six members at 32 x 32 hold about
        # 1.1 N^2 entries in all) and the sparse products' temporaries.  At
        # 72 x 72 (N > 4096) the units keep their 64 rows; on two threads
        # the peaks read about 6.8 and 3.7 slabs, each thread's room for the
        # unit's order-2 and order-3 products included
        for size in (32, 72):
            cube = _random_cube(np.random.default_rng(16), size, size, bands=20)
            graphs = build_multi_order_graphs(cube, UnmixParams())
            slab = workers.MAX_THREADS * workers.UNIT * cube.pixel_count * 8
            assert _peak_bytes(fuse_graphs, graphs, UnmixParams()) < 8 * slab, size


def _stage_outputs(cube, params, m=None):
    """The graph stage's outputs as bytes: each view's CSR arrays and sigma,
    the fusion Gram matrix and normalizers, H and the W_m coefficients."""
    graphs = build_multi_order_graphs(cube, params, m=m)
    gram, scale = fusion._gram_and_normalizers(graphs, params.order_norm)
    state = fuse_graphs(graphs, params)
    out = [a.tobytes() for v in graphs.views for a in (v.W.data, v.W.indices, v.W.indptr)]
    out += [np.float64(v.sigma).tobytes() for v in graphs.views]
    return out + [a.tobytes() for a in (gram, scale, state.H, state.Wm.coef)]


class TestWorkerCount:
    """The graph stage's units run on 1 or 2 threads with the same bits."""

    @pytest.mark.parametrize("case", [*ORACLE_CASES, "simu64"])
    def test_outputs_do_not_depend_on_threads(self, monkeypatch, case):
        if case == "simu64":
            cube = _random_cube(np.random.default_rng(23), 64, 64, bands=30)
            params = UnmixParams()
        else:
            cube, kw = oracle_case(case)
            params = UnmixParams(**kw)
        outputs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MOGNMF_THREADS", threads)
            outputs.append(_stage_outputs(cube, params))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("case", [*ORACLE_CASES, "simu64"])
    def test_subspace_graph_does_not_depend_on_threads(self, monkeypatch, case):
        if case == "simu64":
            cube = _random_cube(np.random.default_rng(23), 64, 64, bands=30)
            params = UnmixParams()
        else:
            cube, kw = oracle_case(case)
            params = UnmixParams(**kw)
        m = min(3, cube.band_count)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MOGNMF_THREADS", threads)
            outputs.append(_stage_outputs(cube, params, m))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_direct_products_match_matmul_past_4096_nodes(self, monkeypatch, threads):
        # N = 5184 (81 units): the stage's bits with the fusion's direct kernel
        # calls and with the power rows formed by ``@``, as they once were
        def by_matmul(rows, W, out):
            ptr, idx, val = rows
            n = len(W[0]) - 1
            stored = slice(ptr[0], ptr[-1])
            A = sp.csr_matrix((val[stored], idx[stored], ptr - ptr[0]), shape=(len(ptr) - 1, n))
            R = A @ sp.csr_matrix(W[::-1], shape=(n, n))
            return R.indptr, R.indices, R.data

        monkeypatch.setenv("MOGNMF_THREADS", threads)
        cube = _random_cube(np.random.default_rng(26), 72, 72, bands=20)
        direct = _stage_outputs(cube, UnmixParams())
        monkeypatch.setattr(fusion, "_times", by_matmul)
        assert _stage_outputs(cube, UnmixParams()) == direct

    def test_fusion_units_are_the_shared_cut_past_4096_nodes(self, monkeypatch):
        # N = 4225: the fusion's units keep the k-NN's 64 rows, the last one
        # the remainder, and its Gram bits do not depend on the threads
        cube = _random_cube(np.random.default_rng(25), 65, 65, bands=20)
        graphs = build_multi_order_graphs(cube, UnmixParams())
        seen = []

        def recording(work, units, buffers):
            seen.append(list(units))
            return workers.run_units(work, units, buffers)

        monkeypatch.setattr(fusion, "run_units", recording)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MOGNMF_THREADS", threads)
            outputs.append([a.tobytes() for a in fusion._gram_and_normalizers(graphs, True)])
        cut = [(lo, min(lo + 64, 4225)) for lo in range(0, 4225, 64)]
        assert seen == [cut, cut]
        assert outputs[0] == outputs[1]

    def test_spatial_build_stays_off_the_pool(self, monkeypatch):
        # a spatial unit is a few small numpy calls, which two threads would
        # only pass the interpreter lock between
        def pooled(*args):
            raise AssertionError("spatial_weights ran its units on the pool")

        monkeypatch.setenv("MOGNMF_THREADS", "2")
        monkeypatch.setattr(graph, "run_units", pooled)
        cube = HsiCube(data=np.ones((2, 64 * 64)), height=64, width=64)
        assert spatial_weights(cube, UnmixParams()).W.shape == (4096, 4096)

    def test_gram_does_not_depend_on_blas_threads(self, monkeypatch):
        # its entries are summed without BLAS, whose dot products split
        # long vectors across BLAS threads
        cube = _random_cube(np.random.default_rng(24), 48, 48, bands=20)
        graphs = build_multi_order_graphs(cube, UnmixParams())
        grams = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MOGNMF_THREADS", threads)
            grams.append(fusion._gram_and_normalizers(graphs, True)[0].tobytes())
            with workers.blas_pinned():
                grams.append(fusion._gram_and_normalizers(graphs, True)[0].tobytes())
        assert len(set(grams)) == 1



def _scipy_graph(n, rows, cols, w):
    """An order-1 graph as scipy builds it: ``csr_array((w, (r, c))).maximum(W.T)``."""
    W = sp.csr_array((w, (rows, cols)), shape=(n, n))
    return sp.csr_array(W.maximum(W.T), dtype=np.float64)


def _same_csr(got, want):
    """Whether two CSR forms hold the same bytes and index types."""
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
               for a, b in zip((got.indptr, got.indices, got.data),
                               (want.indptr, want.indices, want.data)))


def _scipy_horner(graphs, coef, S):
    """S @ ConsensusOperator(graphs, coef) through scipy's ``@``, in the operator's Horner form."""
    St = np.ascontiguousarray(S.T)
    out = np.zeros(St.shape)
    for W, c in zip(graphs, np.asarray(coef, dtype=np.float64)):
        nz = np.flatnonzero(c)
        if not nz.size:
            continue
        c = c[: nz[-1] + 1]
        t = c[-1] * St
        for ck in c[-2::-1]:
            t = W @ t
            if ck:
                t += ck * St
        out += W @ t
    return out.T


class TestScipyKernels:
    """The graph stage calls scipy's compiled kernels itself; its arrays must be scipy's.

    The kernels are private to scipy, so a release that changes them fails here.
    """

    @pytest.mark.parametrize("view", ["spatial", "spectral"])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_graph_arrays_are_scipys(self, case, view):
        cube, kw = oracle_case(case)
        params = UnmixParams(**kw)
        c = graph.neighbor_count(params, view, cube.pixel_count)
        if view == "spatial":
            edges = graph._grid_edges(cube.height, cube.width, c)
        else:
            edges = graph._spectral_edges(cube.data, c)
        sigma = getattr(params, "sigma_s" if view == "spatial" else "sigma_l")
        got = graph._heat_kernel(cube.pixel_count, *edges, sigma, view)
        rows, cols, dist = edges
        w = np.exp(-(dist**2) / (2.0 * got.sigma**2))
        want = _scipy_graph(cube.pixel_count, rows, cols, w)
        assert _same_csr(got, want)
        assert got.W.shape == want.shape and _same_csr(got.W, want)
        built = (spatial_weights if view == "spatial" else spectral_weights)(cube, params)
        assert _same_csr(built, want)

    @pytest.mark.parametrize("edges", ["underflow", "isolated", "mutual_and_one_sided"])
    def test_edge_lists_are_scipys(self, edges):
        # node 5 has no edge; 0-1 is kept both ways, 2->3 and 4->0 one way only,
        # and row 0's columns come out of order
        rows = np.array([0, 0, 1, 2, 4, 3])
        cols = np.array([4, 1, 0, 3, 0, 2])
        dist = np.array([0.5, 1.0, 1.0, 2.0, 0.75, 2.0])
        if edges == "underflow":  # 3->2 weighs exp(-2000) = 0: a stored zero beside 2->3
            dist[-1] = 40.0
        elif edges == "mutual_and_one_sided":
            rows, cols, dist = rows[:-1], cols[:-1], dist[:-1]
        got = graph._heat_kernel(6, rows, cols, dist, 1.0, "spectral")
        want = _scipy_graph(6, rows, cols, np.exp(-(dist**2) / 2.0))
        assert _same_csr(got, want) and _same_csr(got.W, want)

    @pytest.mark.parametrize("view", ["spatial", "spectral"])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_edge_lists_are_distinct(self, case, view):
        # _edges_to_csr sums no repeated edge, as scipy would: no producer may
        # emit one, nor a self pair, and each node keeps exactly C edges
        cube, kw = oracle_case(case)
        n = cube.pixel_count
        c = graph.neighbor_count(UnmixParams(**kw), view, n)
        if view == "spatial":
            rows, cols, _ = graph._grid_edges(cube.height, cube.width, c)
        else:
            rows, cols, _ = graph._spectral_edges(cube.data, c)
        assert np.array_equal(np.bincount(rows, minlength=n), np.full(n, c))
        assert not np.any(rows == cols)
        assert len(np.unique(rows * n + cols)) == len(rows)

    @pytest.mark.parametrize("columns", [1, 4])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_operator_products_are_scipys(self, index_dtype, columns):
        rng = np.random.default_rng(21)
        graphs = []
        for density in (0.1, 0.3):
            W = sp.csr_array(_random_symmetric(rng, 30) * (rng.random((30, 30)) < density))
            W = (W + W.T).tocsr()
            W.indptr, W.indices = W.indptr.astype(index_dtype), W.indices.astype(index_dtype)
            graphs.append(W)
        coef = [[0.3, 0.0, 1.7], [0.0, 2.5, 0.0]]
        op = ConsensusOperator(graphs, coef)
        S = rng.random((columns, 30))
        assert (S @ op).tobytes() == _scipy_horner(graphs, coef, S).tobytes()
        degree = _scipy_horner(graphs, coef, np.ones((1, 30)))[0]
        assert op.degree.tobytes() == degree.tobytes()

    def test_operator_over_built_graphs_is_scipys(self):
        cube, kw = oracle_case("random24")
        views = build_multi_order_graphs(cube, UnmixParams(**kw)).views
        coef = [[0.2, 0.5, 1.5], [0.7, 0.0, 0.4]]
        S = np.random.default_rng(22).random((4, cube.pixel_count))
        op = ConsensusOperator(views, coef)
        assert (S @ op).tobytes() == _scipy_horner([v.W for v in views], coef, S).tobytes()
        assert all(a is v.W for a, v in zip(op.graphs, views))

    @pytest.mark.parametrize("given", ["dense", "scipy"])
    def test_given_arrays_keep_their_checks(self, given):
        def make(W):
            return WeightMatrix(W=np.asarray(W) if given == "dense" else sp.csr_array(W),
                                kind="spatial")

        with pytest.raises(ShapeError, match="must be square"):
            make(np.ones((2, 3)))
        with pytest.raises(DataError, match="must be nonnegative"):
            make([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(DataError, match="must be symmetric"):
            make([[0.0, 1.0], [2.0, 0.0]])
        W = make([[0.0, 1.0], [1.0, 0.0]])
        assert _same_csr(W, sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert W.W is W.W and W.nnz == 2

    def test_a_stored_zero_is_not_an_asymmetry(self):
        # as in scipy's W != W.T, a stored 0 at (0, 1) matches the missing (1, 0)
        W = sp.csr_array((np.array([0.0, 1.0, 1.0]), np.array([1, 2, 0]), np.array([0, 2, 2, 3])),
                         shape=(3, 3))
        assert WeightMatrix(W=W, kind="spatial").nnz == 3
