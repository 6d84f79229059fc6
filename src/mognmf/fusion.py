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
powers, rows_B(W^k) = ((W[B] @ W) @ W)..., and no whole power is held.
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
thread count.  At most _BLOCK = 128 rows and _GRAM_BUFFER doubles (4 MB) of
buffer are in flight: a unit holds max(1, min(_BLOCK, _GRAM_BUFFER // N)
// 2) rows, 64 up to N = 4096 and fewer beyond, so a unit's power rows
stay small even where a power is dense (the order-3 spectral power of a
32 x 32 scene is over a third dense).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamError, ShapeError
from .graph import ConsensusOperator, MultiOrderGraphSet
from .hsi_core import UnmixParams
from .workers import BLOCK as _BLOCK, UNIT as _UNIT, run_units

__all__ = [
    "FusionState",
    "project_simplex",
    "update_weights",
    "fuse_graphs",
]


_GRAM_BUFFER = 1 << 19  # most doubles (4 MB) of fuse_graphs' dense scatter buffers


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

    Sort-and-threshold algorithm; O(n log n).
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size == 0:
        raise ShapeError("cannot project an empty vector")
    u = np.sort(y)[::-1]
    cumsum = np.cumsum(u)
    j = np.arange(1, y.size + 1)
    rho_candidates = np.nonzero(u + (1.0 - cumsum) / j > 0)[0]
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
    mats = [g.W for g in graphs.views]
    n = mats[0].shape[0]
    top = max(graphs.orders)
    m = len(mats) * len(graphs.orders)  # one member per (view, order), view-major
    # at most _BLOCK rows, and _GRAM_BUFFER doubles of scatter buffer, in flight
    rows = max(1, min(_BLOCK, _GRAM_BUFFER // n) * _UNIT // _BLOCK)

    def unit(lo, buf):
        # each member's stored entries in the unit: flat (row, column)
        # positions in buf, and values
        entries = []
        for W in mats:
            R = W[lo : lo + rows]
            powers = {}
            for k in range(1, top + 1):
                if k > 1:
                    R = R @ W
                if k in graphs.orders:
                    pos = np.repeat(np.arange(R.shape[0]) * n, np.diff(R.indptr))
                    powers[k] = (pos + R.indices, R.data)
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
    for part, top_k in run_units(unit, range(0, n, rows), lambda: np.zeros(rows * n)):
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
    over the formed stack up to rounding.
    """
    if not graphs.views:
        raise ShapeError("empty graph set")
    mu, alpha = params.mu, params.alpha
    gram, scale = _gram_and_normalizers(graphs, params.order_norm)
    norms_sq = np.diag(gram).copy()

    V, K = len(graphs.views), len(graphs.orders)
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
        Wm=ConsensusOperator([g.W for g in graphs.views], coef),
        graphs=graphs,
        objective_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        wm_norm=float(np.sqrt(wm_sq)),
    )
