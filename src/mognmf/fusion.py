"""Adaptive consensus-graph learning.

Fuses a stack of per-view, per-order weight matrices W_k^v into one
consensus graph W_m with a learned weight matrix H (V x K) by
alternating two exact minimizers:

* W_m <- sum_vk H_vk W_k^v / (1 + mu)
* H   <- argmin alpha ||H||_F^2 + <P, H>  over the global simplex,
  where P_vk = ||W_m - W_k^v||_F^2.

The H step has Hessian 2*alpha*I, so its exact solution is the
Euclidean projection of -P/(2 alpha) onto the probability simplex; no
generic QP solver is needed.  Because each half-step minimizes a convex
subproblem exactly, the fusion objective is non-increasing.  The
consensus step needs no max(0, .) projection: the graphs are
nonnegative and H lies on the simplex, so W_m is already nonnegative.

mu, alpha, eps2, t2 and ``order_norm`` are read from an ``UnmixParams``,
which has validated them.

The loop runs in Gram space: with G_ij = <W_i, W_j>, every residual and
objective value is a quadratic form in the weights.  Each W_k^v is the
order-k power of a view's order-1 graph over its normalizer s_vk (its
maximum entry for k >= 2 under ``order_norm``, else 1), so G
and the max-entry normalizers are accumulated over row units of the
powers, rows_B(W^k) = ((W[B] W) W)..., and no whole power is held.
W_m = sum_vk c_vk W_v^k with c_vk = H_vk / (s_vk (1 + mu)) is a
polynomial in the order-1 graphs, returned as a ``ConsensusOperator``
that holds its degree vector D_m; neither W_m nor the Laplacian
L_m = diag(D_m) - W_m is formed (``graph.laplacian_quadratic``).

One rule fills a partial Gram matrix within a row unit.  Each member
in turn gives its diagonal entry as the dot product of its own entries,
is scattered into a dense rows x N buffer, and is gathered by every
earlier member at that member's own entries' positions; the buffer is
then cleared at the same positions.  The dot products are summed by
``np.einsum``, not by BLAS, whose dot product splits long vectors
across its threads.  The units run on the calling thread and a pool
made per call (``workers.run_units``), each thread with its own buffer,
allocated once per stage by the calling thread, and the partial Gram
matrices and peaks are combined in unit order: G does not depend on the
thread count.  The units are the graph stage's 64-row units
(``workers.units``) at every N, so a thread's buffer is 64 N doubles,
the size of a spectral k-NN thread's Gram rows, and a unit's power rows
stay small even where a power is dense (the order-3 spectral power of a
32 x 32 scene is over a third dense).

A unit's power rows are formed by scipy's compiled ``csr_matmat``, the
numeric kernel ``@`` runs, called directly (``_times``) from the kernel
module ``graph`` loads without ``scipy.sparse``: so they hold
the same entries in the same order, and G, the normalizers, H and the
W_m coefficients keep their bits.  ``@`` would first run a symbolic
pass that counts the product's entries, and re-validate W, on every
call.  Without the count, the kernel writes into room sized beforehand
by a bound that needs no product (``_product_bounds``): per row, the
smaller of N and the summed entry counts of the rows it combines.
Each thread allocates that room once, for a unit's rows of each view
and order, after its scatter buffer; a product only touches the part
it fills.  W's index arrays are cast to int32 wherever every offset
fits, the kernel's one index type for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from .errors import DataError, ParamError, ShapeError
from .graph import ConsensusOperator, MultiOrderGraphSet, _sparsetools
from .hsi_core import UnmixParams
from .workers import run_units, units

__all__ = [
    "FusionState",
    "project_simplex",
    "update_weights",
    "fuse_graphs",
]


@dataclass(frozen=True)
class FusionState:
    """Consensus graph W_m (with its degree vector), the weights H and the graphs fused.

    H is the weight step computed against W_m, half a sweep after it.
    ``graphs`` holds each view's order-1 graph (its kind and heat-kernel
    width sigma) and the fused orders: the rows and columns of H.
    ``graph_workers`` and ``graph_ms`` describe the graph stage that made
    it, graph build plus fusion (``unmix.consensus_graph`` sets them):
    its thread count and its wall time in milliseconds.
    """

    H: np.ndarray  # V x K, >= 0, entries sum to 1
    Wm: ConsensusOperator  # N x N consensus graph
    graphs: MultiOrderGraphSet
    objective_trace: np.ndarray
    iterations: int = 0
    converged: bool = False
    wm_norm: float = 0.0  # ||W_m||_F, read from the Gram matrix
    graph_workers: int = 1
    graph_ms: float | None = None


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {h : h >= 0, sum h = 1}.

    Sort-and-threshold algorithm; O(n log n).  Any finite y gives a
    point on the simplex.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size == 0:
        raise ShapeError("cannot project an empty vector")
    u = np.sort(y)[::-1]
    cumsum = np.cumsum(u)
    j = np.arange(1, y.size + 1)
    rho_candidates = np.nonzero(u + (1.0 - cumsum) / j > 0)[0]
    if np.isfinite(u[0]) and (rho_candidates.size == 0 or not np.isfinite(cumsum[-1])):
        # the 1 was lost in rounding against entries near 1e16 or beyond,
        # or the sum overflowed.  The projection does not change when y is
        # shifted, nor when an entry 1 or more below the largest (which
        # projects to 0) is raised to that bound: in [-1, 0], y rounds safely.
        # (u[0] is NaN when y holds one, and such a y is not retried)
        with np.errstate(over="ignore"):
            return project_simplex(np.maximum(y - u[0], -1.0))
    rho = rho_candidates[-1]
    tau = (1.0 - cumsum[rho]) / (rho + 1.0)
    return np.maximum(y + tau, 0.0)


def update_weights(P: np.ndarray, alpha: float) -> np.ndarray:
    """Exact minimizer of alpha ||H||_F^2 + <P, H> over the simplex."""
    if alpha <= 0:
        raise ParamError("alpha must be positive")
    P = np.asarray(P, dtype=np.float64)
    if not np.all(np.isfinite(P)):
        raise ParamError("residual matrix must be finite")
    h = project_simplex(-P.ravel() / (2.0 * alpha))
    return h.reshape(P.shape)


def _fusion_objective(H, P, wm_sq, mu, alpha) -> float:
    return float(np.sum(H * P) + mu * wm_sq + alpha * np.sum(H * H))


def _product_bounds(W, top: int, cut) -> list[int]:
    """For k = 2..top, the most stored entries the order-k rows of any unit in ``cut`` can hold.

    Row i of W^k is the sum of W_ij times row j of W^(k-1) over the
    entries of row i of W, so it holds at most d_k(i) = min(n, sum_j
    d_(k-1)(j)) entries, d_1 being W's row lengths.  Dropping a sum
    that cancels to 0 only removes entries.  At 64 x 64 pixels the order-3
    bound is about 6 times the spectral rows' entries and 23 times the
    spatial ones; the room past a product's entries is never touched.
    """
    n = W.shape[0]
    d = np.diff(W.indptr).astype(np.int64)
    starts, ends = np.array(cut).T
    bounds = []
    for _ in range(2, top + 1):
        running = np.concatenate(([0], np.cumsum(d[W.indices])))
        d = np.minimum(running[W.indptr[1:]] - running[W.indptr[:-1]], n)
        per_unit = np.concatenate(([0], np.cumsum(d)))
        bounds.append(int((per_unit[ends] - per_unit[starts]).max()))
    return bounds


def _times(rows, W, out):
    """CSR rows (ptr, idx, val) times W's CSR arrays, written to the buffers ``out``.

    ``ptr`` may point into the middle of ``idx`` and ``val``, as it does
    into W's own arrays.  scipy's ``csr_matmat`` is the numeric kernel
    that ``@`` runs, so the product holds the same entries in the same
    order.  Called directly, it skips ``@``'s symbolic pass, which counts
    the product's entries before the numeric pass, and ``@``'s
    re-validation of W; ``out`` has room for ``_product_bounds`` entries.
    """
    ptr, idx, val = rows
    cp, cj, cx = out
    cp = cp[:len(ptr)]
    n = len(W[0]) - 1  # W is square
    _sparsetools.csr_matmat(len(ptr) - 1, n, ptr, idx, val, *W, cp, cj, cx)
    return cp, cj, cx


def _gram_and_normalizers(
    graphs: MultiOrderGraphSet, normalize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix <W_i, W_j> of the fused stack and the normalizer s_i of each member.

    Both come from one pass over row units of the raw powers; s_i is
    the maximum entry for orders >= 2 under ``normalize``, else 1.  The
    units run on the graph stage's threads (``workers.run_units``), each
    into its own scatter buffer, and their partial Gram matrices and
    peaks are combined in unit order.
    """
    mats = graphs.views
    n = mats[0].shape[0]
    top = max(graphs.orders)
    m = len(mats) * len(graphs.orders)  # one member per (view, order), view-major
    cut = units(n)
    sizes = [_product_bounds(W, top, cut) for W in mats]
    # each view's CSR arrays with the one index type the kernel takes for
    # all of them, int32 wherever every offset fits
    index = np.int32 if max([n, *(W.nnz for W in mats), *sum(sizes, [])]) < 2**31 else np.int64
    csr = [(W.indptr.astype(index, copy=False), W.indices.astype(index, copy=False), W.data)
           for W in mats]

    def buffers():
        # per thread: the dense scatter buffer, then room for each view's
        # order-k rows of a unit, k = 2..top (the first unit is the tallest).
        # Only the part a product fills is ever touched.  Made in the other
        # order, the stage's peak RSS read 4 MB more at 64 x 64 on 2 threads
        scatter = np.zeros(cut[0][1] * n)
        return scatter, [[(np.empty(cut[0][1] + 1, index), np.empty(size, index), np.empty(size))
                          for size in view_sizes] for view_sizes in sizes]

    def unit(bounds, bufs):
        buf, products = bufs
        rows = bounds[1] - bounds[0]
        # each member's stored entries in the unit: flat (row, column)
        # positions in buf, and values
        entries = []
        for v, (indptr, indices, data) in enumerate(csr):
            # the order-1 rows are W's own: row pointers into W's arrays
            rows_k = (indptr[bounds[0]:bounds[1] + 1], indices, data)
            powers = {}
            for k in range(1, top + 1):
                if k > 1:
                    rows_k = _times(rows_k, csr[v], products[v][k - 2])
                if k in graphs.orders:
                    ptr, idx, val = rows_k
                    stored = slice(ptr[0], ptr[-1])
                    pos = np.repeat(np.arange(rows) * n, np.diff(ptr))
                    powers[k] = (pos + idx[stored], val[stored])
            entries += [powers[k] for k in graphs.orders]
        gram, peaks = np.zeros((m, m)), np.zeros(m)
        # einsum sums without BLAS, whose dot products split across its threads
        for j, (pos_j, data_j) in enumerate(entries):
            peaks[j] = data_j.max(initial=0.0)
            gram[j, j] = np.einsum("i,i->", data_j, data_j)
            # member j goes into the buffer; each earlier member reads it
            # at the positions of its own entries
            buf[pos_j] = data_j
            for i, (pos_i, data_i) in enumerate(entries[:j]):
                gram[i, j] = np.einsum("i,i->", data_i, buf[pos_i])
            buf[pos_j] = 0.0
        return gram, peaks

    gram, peaks = np.zeros((m, m)), np.zeros(m)
    # the first unit is the tallest
    for part, top_k in run_units(unit, cut, buffers):
        gram += part
        np.maximum(peaks, top_k, out=peaks)
    gram = np.triu(gram) + np.triu(gram, 1).T
    order = np.tile(graphs.orders, len(mats))
    scale = np.ones(m)
    if normalize:
        scale = np.where((order >= 2) & (peaks > 0), peaks, 1.0)
    return gram / np.outer(scale, scale), scale


def fuse_graphs(graphs: MultiOrderGraphSet, params: UnmixParams = UnmixParams()) -> FusionState:
    """Alternate consensus and weight updates until the objective settles.

    Stops when |L2(j) - L2(j-1)| < eps2 or after t2 sweeps.  The loop is
    evaluated through the Gram matrix of the stack (module docstring),
    so no power and no W_m is formed; it matches the direct alternation
    over the formed stack up to rounding.  Raises ``DataError`` naming a
    view whose graphs are all zero, as a too-small heat-kernel width
    makes them.
    """
    mu, alpha = params.mu, params.alpha
    gram, scale = _gram_and_normalizers(graphs, params.order_norm)
    norms_sq = np.diag(gram).copy()

    V, K = len(graphs.views), len(graphs.orders)
    # an all-zero view would regularize nothing, yet it can take all of H
    for view, view_norms in zip(graphs.views, norms_sq.reshape(V, K)):
        if not view_norms.any():
            why = "" if view.sigma is None else (
                f": every neighbor's heat-kernel weight underflows to 0 at sigma {view.sigma:g}")
            raise DataError(f"the {view.kind} graph has no nonzero weight{why}")
    m = V * K
    h = np.full(m, 1.0 / m)  # H_vk = 1/(V K) start
    h_cons = h
    wm_sq = 0.0
    trace = []
    prev = None
    converged = False
    iterations = 0
    for _ in range(params.t2):
        iterations += 1
        # consensus step in Gram space: Wm = (sum h_i W_i) / (1 + mu)
        h_cons = h
        gh = gram @ h
        wm_sq = float(h @ gh) / (1.0 + mu) ** 2
        cross = gh / (1.0 + mu)  # <Wm, W_j>
        P = wm_sq - 2.0 * cross + norms_sq
        h = update_weights(P, alpha)
        obj = _fusion_objective(h, P, wm_sq, mu, alpha)
        trace.append(obj)
        if prev is not None and abs(obj - prev) < params.eps2:
            converged = True
            break
        prev = obj

    # the consensus of the last consensus step (the loop ends half a
    # sweep after it, with H freshly updated against it), as coefficients
    # of the order-1 graphs' powers
    coef = np.zeros((V, max(graphs.orders)))
    coef[:, np.array(graphs.orders) - 1] = (h_cons / scale).reshape(V, K) / (1.0 + mu)
    return FusionState(
        H=h.reshape(V, K),
        Wm=ConsensusOperator(graphs.views, coef),
        graphs=graphs,
        objective_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        wm_norm=float(np.sqrt(wm_sq)),
    )
