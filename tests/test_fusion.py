import itertools

import numpy as np
import scipy.sparse as sp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mognmf import fusion, workers
from mognmf.errors import DataError, ParamError, ShapeError
from mognmf.fusion import fuse_graphs, project_simplex, update_weights
from mognmf.graph import MultiOrderGraphSet, WeightMatrix, build_multi_order_graphs
from mognmf.hsi_core import UnmixParams
from oracle import (
    ORACLE_CASES,
    compute_residuals,
    consensus_tocsr,
    oracle_case,
    raw_band,
    stack_powers,
    update_consensus,
)


def _simplex_project_enumeration(y):
    """Exact oracle: try every support set, keep the feasible optimum."""
    n = len(y)
    best, best_val = None, np.inf
    for pattern in itertools.product([0, 1], repeat=n):
        support = [i for i, bit in enumerate(pattern) if bit]
        if not support:
            continue
        tau = (sum(y[i] for i in support) - 1.0) / len(support)
        h = np.zeros(n)
        feasible = True
        for i in support:
            h[i] = y[i] - tau
            if h[i] < -1e-12:
                feasible = False
                break
        if not feasible:
            continue
        val = np.sum((h - y) ** 2)
        if val < best_val:
            best, best_val = h, val
    return best


def _graph_set(matrices, K):
    """Two order-1 graphs (spatial, spectral), fused at orders 1..K."""
    views = tuple(
        WeightMatrix(W=W, kind=kind) for W, kind in zip(matrices, ("spatial", "spectral"))
    )
    return MultiOrderGraphSet(views=views, orders=tuple(range(1, K + 1)))


def _random_graph_set(rng, n=5, K=3):
    mats = []
    for _ in range(2):
        raw = rng.random((n, n))
        W = (raw + raw.T) / 2
        np.fill_diagonal(W, 0.0)
        mats.append(W)
    return _graph_set(mats, K)


class TestProjectSimplex:
    def test_member_unchanged(self):
        y = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_simplex(y), y, atol=1e-12)

    def test_dominant_coordinate(self):
        assert np.allclose(project_simplex(np.array([10.0, 0.0])), [1.0, 0.0])

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            y = rng.normal(scale=3.0, size=n)
            got = project_simplex(y)
            oracle = _simplex_project_enumeration(y)
            assert np.allclose(got, oracle, atol=1e-10)
            assert abs(got.sum() - 1.0) <= 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_output_on_simplex(self, values):
        h = project_simplex(np.array(values))
        assert np.all(h >= 0.0)
        assert abs(h.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "y, expected",
        [([-1e300, -2e300], [1.0, 0.0]), ([1e300, 0.0], [1.0, 0.0]),
         ([-1e308, -1e308, 5.0], [0.0, 0.0, 1.0])],
        ids=["far_below", "far_above", "sum_overflows"],
    )
    def test_huge_entries_project_onto_simplex(self, y, expected):
        # the threshold test loses its 1 to rounding, or the running sum overflows
        with np.errstate(over="ignore"):
            assert np.array_equal(project_simplex(np.array(y)), expected)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            project_simplex(np.array([]))


class TestUpdateConsensus:
    def test_single_graph_mass_mu_zero(self):
        rng = np.random.default_rng(1)
        graphs = _random_graph_set(rng, n=4)
        H = np.zeros((2, 3))
        H[1, 2] = 1.0
        Wm = update_consensus(H, graphs, mu=0.0)
        spectral_order_3 = stack_powers(graphs)[5]
        assert np.allclose(Wm.toarray(), spectral_order_3.toarray(), atol=1e-14)

    def test_large_mu_shrinks_to_zero(self):
        rng = np.random.default_rng(2)
        graphs = _random_graph_set(rng, n=4)
        H = np.full((2, 3), 1.0 / 6.0)
        Wm = update_consensus(H, graphs, mu=1e12)
        assert Wm.max() <= 1e-11

    def test_stationarity_by_finite_differences(self):
        rng = np.random.default_rng(3)
        graphs = _random_graph_set(rng, n=4)
        H = project_simplex(rng.random(6)).reshape(2, 3)
        mu = 0.37
        Wm = update_consensus(H, graphs, mu).toarray()

        def objective(W):
            total = mu * np.sum(W**2)
            for h, g in zip(H.ravel(), stack_powers(graphs)):
                total += h * np.sum((W - g.toarray()) ** 2)
            return total

        eps = 1e-6
        grad = np.zeros_like(Wm)
        for i in range(4):
            for j in range(4):
                up, down = Wm.copy(), Wm.copy()
                up[i, j] += eps
                down[i, j] -= eps
                grad[i, j] = (objective(up) - objective(down)) / (2 * eps)
        interior = Wm > 1e-9
        assert np.max(np.abs(grad[interior])) <= 1e-8 * (1 + np.abs(grad).max())

    def test_negative_mu_rejected(self):
        rng = np.random.default_rng(4)
        graphs = _random_graph_set(rng, n=3)
        with pytest.raises(ParamError):
            update_consensus(np.full((2, 3), 1 / 6), graphs, mu=-0.1)


class TestComputeResiduals:
    def test_zero_residual_at_matching_graph(self):
        rng = np.random.default_rng(5)
        graphs = _random_graph_set(rng, n=4)
        P = compute_residuals(stack_powers(graphs)[1], graphs)  # spatial order 2
        assert P[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert np.all(P >= 0.0)

    def test_zero_consensus_gives_squared_norms(self):
        rng = np.random.default_rng(6)
        graphs = _random_graph_set(rng, n=4)
        P = compute_residuals(np.zeros((4, 4)), graphs)
        for (v, k), g in zip(np.ndindex(2, 3), stack_powers(graphs)):
            assert P[v, k] == pytest.approx(np.sum(g.toarray() ** 2), rel=1e-14)

    def test_matches_elementwise_sum_oracle(self):
        rng = np.random.default_rng(7)
        graphs = _random_graph_set(rng, n=3)
        Wm = rng.random((3, 3))
        Wm = (Wm + Wm.T) / 2
        P = compute_residuals(Wm, graphs)
        for (v, k), g in zip(np.ndindex(2, 3), stack_powers(graphs)):
            oracle = sum(
                (Wm[i, j] - g.toarray()[i, j]) ** 2 for i in range(3) for j in range(3)
            )
            assert P[v, k] == pytest.approx(oracle, rel=1e-12)


class TestUpdateWeights:
    def test_single_entry_simplex(self):
        H = update_weights(np.array([[123.4]]), alpha=1.0)
        assert np.array_equal(H, [[1.0]])

    def test_alpha_to_infinity_gives_uniform(self):
        rng = np.random.default_rng(8)
        P = rng.random((2, 3)) * 10
        H = update_weights(P, alpha=1e12)
        assert np.allclose(H, 1.0 / 6.0, atol=1e-9)

    def test_matches_threshold_grid_search_oracle(self):
        # the feasible set {max(0, y + tau) : tau} sweeps the simplex
        # face containing the optimum; scanning tau on a 1e-3 grid and
        # keeping the point whose coordinates sum closest to one gives
        # an oracle within 2e-3 per entry of the exact minimizer
        rng = np.random.default_rng(9)
        for _ in range(50):
            P = rng.random((2, 2)) * 2.0
            alpha = 1.0
            H = update_weights(P, alpha)
            y = -P.ravel() / (2 * alpha)
            taus = np.arange(-y.max(), 1.0 - y.min() + 1e-3, 1e-3)
            h_grid = np.maximum(y[None, :] + taus[:, None], 0.0)
            best = np.argmin(np.abs(h_grid.sum(axis=1) - 1.0))
            assert np.max(np.abs(H.ravel() - h_grid[best])) <= 2e-3

    def test_ordering_property(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            P = rng.random((2, 3)) * 5
            H = update_weights(P, alpha=0.7)
            flat_p, flat_h = P.ravel(), H.ravel()
            for i in range(6):
                for j in range(6):
                    if flat_p[i] < flat_p[j]:
                        assert flat_h[i] >= flat_h[j] - 1e-12

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ParamError):
            update_weights(np.ones((2, 2)), alpha=0.0)


def _naive_fuse(graphs, mu, alpha, eps2, t2, normalize=True):
    """Direct alternation through the op functions; reference for the
    Gram-space implementation."""
    V, K = len(graphs.views), len(graphs.orders)
    H = np.full((V, K), 1.0 / (V * K))
    trace = []
    prev = None
    for _ in range(t2):
        Wm = update_consensus(H, graphs, mu, normalize).toarray()
        P = compute_residuals(Wm, graphs, normalize)
        H = update_weights(P, alpha)
        obj = float(np.sum(H * P) + mu * np.sum(Wm**2) + alpha * np.sum(H**2))
        trace.append(obj)
        if prev is not None and abs(obj - prev) < eps2:
            break
        prev = obj
    return H, Wm, np.array(trace)


class TestFuseGraphs:
    def test_identical_graphs_converge_to_common(self):
        # W = u u^T / max(u)^2 has W^k = |u|^(2k-2) W / max(u)^(2k-2), so
        # every max-normalized power is W again: six identical graphs
        u = np.random.default_rng(11).uniform(0.1, 1.0, size=5)
        W = np.outer(u, u) / u.max() ** 2
        graphs = _graph_set([W, W], 3)
        assert all(np.allclose(g.toarray(), W, atol=1e-15) for g in stack_powers(graphs))
        state = fuse_graphs(graphs, UnmixParams(mu=0.0, alpha=0.1))
        assert state.iterations <= 2
        assert np.allclose(consensus_tocsr(state.Wm).toarray(), W, atol=1e-12)

    def test_matches_naive_alternation(self):
        rng = np.random.default_rng(12)
        graphs = _random_graph_set(rng, n=5)
        state = fuse_graphs(graphs, UnmixParams(mu=0.2, alpha=0.5, eps2=1e-9, t2=25))
        H_ref, Wm_ref, trace_ref = _naive_fuse(graphs, 0.2, 0.5, 1e-9, 25)
        assert np.allclose(state.H, H_ref, atol=1e-9)
        assert np.allclose(consensus_tocsr(state.Wm).toarray(), Wm_ref, atol=1e-9)
        assert len(state.objective_trace) == len(trace_ref)
        assert np.allclose(state.objective_trace, trace_ref, rtol=1e-9, atol=1e-9)

    def test_objective_trace_monotone_over_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            graphs = _random_graph_set(rng, n=4)
            state = fuse_graphs(graphs, UnmixParams(mu=0.1, alpha=0.1))
            tr = state.objective_trace
            slack = 1e-9 * (1 + abs(tr[0]))
            assert np.all(np.diff(tr) <= slack)

    @pytest.mark.parametrize("empty", ["spatial", "spectral"])
    def test_all_zero_view_is_rejected(self, empty):
        # an all-zero view regularizes nothing, yet the H step can put all its weight there
        rng = np.random.default_rng(16)
        mats = [g.W for g in _random_graph_set(rng, n=5).views]
        mats[("spatial", "spectral").index(empty)] = np.zeros((5, 5))
        with pytest.raises(DataError, match=f"the {empty} graph has no nonzero weight"):
            fuse_graphs(_graph_set(mats, 3))

    def test_views_of_different_node_counts_are_rejected(self):
        # checked when the set is made: fuse_graphs's kernels would index
        # the 5-node graph's rows by the 2-node graph's units
        rings = [np.eye(n, k=1) + np.eye(n, k=-1) for n in (2, 5)]
        with pytest.raises(ShapeError, match=r"one node count, got \[2, 5\]"):
            _graph_set(rings, 2)

    def test_single_sweep_cap(self):
        rng = np.random.default_rng(13)
        graphs = _random_graph_set(rng, n=4)
        state = fuse_graphs(graphs, UnmixParams(t2=1))
        assert state.iterations == 1
        assert len(state.objective_trace) == 1
        assert np.all(state.H >= 0.0)

    def test_weights_invariants_and_determinism(self):
        rng = np.random.default_rng(14)
        graphs = _random_graph_set(rng, n=5)
        a = fuse_graphs(graphs, UnmixParams(mu=0.1, alpha=0.1))
        b = fuse_graphs(graphs, UnmixParams(mu=0.1, alpha=0.1))
        assert np.array_equal(a.H, b.H)
        assert np.all(a.H >= 0.0)
        assert abs(a.H.sum() - 1.0) <= 1e-10
        # D_m is the operator applied to ones: the row sums of W_m up to rounding
        assert np.array_equal(a.Wm.degree, b.Wm.degree)
        assert np.allclose(a.Wm.degree, consensus_tocsr(a.Wm).sum(axis=1), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_row_blocks_do_not_change_the_result(self, monkeypatch, normalize):
        # Gram entries and normalizers accumulate over row units of the
        # powers, here 1-row units over 10 nodes
        rng = np.random.default_rng(15)
        base = _random_graph_set(rng, n=10)
        graphs = MultiOrderGraphSet(views=base.views, orders=(3, 1))
        params = UnmixParams(mu=0.2, alpha=50.0, order_norm=normalize)
        whole = fuse_graphs(graphs, params)
        monkeypatch.setattr(workers, "UNIT", 1)
        blocks = fuse_graphs(graphs, params)
        assert whole.iterations == blocks.iterations
        assert np.allclose(blocks.H, whole.H, rtol=0.0, atol=1e-12)
        assert np.allclose(blocks.objective_trace, whole.objective_trace, rtol=1e-12)
        assert np.allclose(blocks.Wm.coef, whole.Wm.coef, rtol=1e-12, atol=0.0)
        H_ref, Wm_ref, _ = _naive_fuse(graphs, 0.2, 50.0, 1e-6, 50, normalize)
        assert np.allclose(blocks.H, H_ref, atol=1e-9)
        assert np.allclose(consensus_tocsr(blocks.Wm).toarray(), Wm_ref, atol=1e-9)

    @pytest.mark.parametrize("orders", [(2, 2), (0,), (-1, 1), (1.5,), (True, 2), ()])
    def test_graph_set_checks_its_orders(self, orders):
        # (2, 2) would drop half of H's mass from W_m, True would be order 1,
        # and the others would fail inside the fusion
        views = _random_graph_set(np.random.default_rng(16)).views
        with pytest.raises(ParamError, match="distinct integers >= 1"):
            MultiOrderGraphSet(views=views, orders=orders)


class TestGramPass:
    """The Gram matrix and normalizers of the fused stack against the formed powers."""

    @pytest.mark.parametrize("orders", [(3, 1), (1, 2, 3)], ids=["3,1", "1,2,3"])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_formed_stack(self, monkeypatch, case, orders):
        cube, kw = oracle_case(case)
        graphs = build_multi_order_graphs(cube, *raw_band(UnmixParams(**kw)), orders)
        gram, scale = fusion._gram_and_normalizers(graphs, normalize=False)
        stack = stack_powers(graphs, normalize=False)
        ref = np.array([[a.multiply(b).sum() for b in stack] for a in stack])
        assert np.max(np.abs(gram - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(scale, np.ones(len(stack)))
        # the normalizers are the peaks of the unsymmetrized products W^k,
        # read here in 3-row units
        monkeypatch.setattr(workers, "UNIT", 3)
        _, scale = fusion._gram_and_normalizers(graphs, normalize=True)
        for s, (W, k) in zip(scale, [(g.W, k) for g in graphs.views for k in orders]):
            Wk = W
            for _ in range(k - 1):
                Wk = Wk @ W
            assert s == (Wk.max() if k > 1 else 1.0)


def _symmetric_graph(rng, n, density, index_dtype):
    """A random symmetric CSR graph with empty rows and a hub joined to every other node."""
    A = sp.random(n, n, density=density, format="csr", random_state=rng)
    W = (A + A.T).tolil()
    W.setdiag(0.0)
    W[n // 2, :] = 0.0
    W[:, n // 2] = 0.0  # an isolated node: an empty row amid the others
    W[3, :] = rng.random(n)
    W[:, 3] = W[3, :].T  # the hub
    W[3, 3] = 0.0
    W = W.tocsr()
    W.eliminate_zeros()
    W.indptr, W.indices = W.indptr.astype(index_dtype), W.indices.astype(index_dtype)
    return W


class TestDirectProduct:
    """The fusion calls scipy's csr_matmat itself; its rows must be those of ``@``.

    The kernel is private to scipy, so a release that changes it fails here.
    """

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_matmuls(self, seed, index_dtype):
        rng = np.random.default_rng(seed)
        n = 40
        W = _symmetric_graph(rng, n, 0.05, index_dtype)
        cut = [(0, 7), (7, 21), (21, 33), (33, 40)]
        sizes = fusion._product_bounds(W, 3, cut)
        arrays = (W.indptr, W.indices, W.data)
        for lo, hi in cut:
            out = [(np.empty(hi - lo + 1, index_dtype), np.empty(size, index_dtype),
                    np.empty(size)) for size in sizes]
            rows = (W.indptr[lo:hi + 1], W.indices, W.data)
            expected = W[lo:hi]
            for buffers in out:
                rows = fusion._times(rows, arrays, buffers)
                expected = expected @ W
                ptr, idx, val = rows
                assert ptr.tobytes() == expected.indptr.astype(index_dtype).tobytes()
                assert idx[:ptr[-1]].tobytes() == expected.indices.astype(index_dtype).tobytes()
                assert val[:ptr[-1]].tobytes() == expected.data.tobytes()

    def test_bounds_hold_every_units_rows(self):
        # through the hub every row but the isolated one is about n wide from
        # order 2 on, so the cap of n entries a row binds
        rng = np.random.default_rng(9)
        n = 50
        W = _symmetric_graph(rng, n, 0.04, np.int32)
        cut = [(lo, min(lo + 8, n)) for lo in range(0, n, 8)]
        sizes = fusion._product_bounds(W, 4, cut)
        for k, size in enumerate(sizes, start=2):
            Wk = W
            for _ in range(k - 1):
                Wk = Wk @ W
            assert max(Wk[lo:hi].nnz for lo, hi in cut) <= size <= 8 * n
