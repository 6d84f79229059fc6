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
The result is W_m (CSR) and its degree vector D_m; the Laplacian
L_m = diag(D_m) - W_m is never formed (``graph.laplacian_quadratic``).

All graphs, W_m included, are CSR arrays: the consensus is a sparse
sum whose pattern is the union of the fused graphs, the Gram entries
<W_i, W_j> are sums over the common nonzeros, and D_m is a 1-D vector.
W_m is symmetric by construction, so it is not re-validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParamError, ShapeError
from .graph import MultiOrderGraphSet

__all__ = [
    "FusionState",
    "project_simplex",
    "update_consensus",
    "compute_residuals",
    "update_weights",
    "fuse_graphs",
]


@dataclass(frozen=True)
class FusionState:
    """Consensus graph W_m, its degree vector D_m, and the weights H.

    H is the weight step computed against W_m, half a sweep after it.
    """

    H: np.ndarray  # V x K, >= 0, entries sum to 1
    Wm: sp.csr_array  # N x N consensus graph
    Dm: np.ndarray  # degree vector of Wm
    objective_trace: np.ndarray
    iterations: int = 0
    converged: bool = False


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


def update_consensus(H: np.ndarray, graphs: MultiOrderGraphSet, mu: float) -> sp.csr_array:
    """Closed-form consensus update: sum H_vk W_k^v / (1 + mu), as CSR."""
    if mu < 0:
        raise ParamError("mu must be nonnegative")
    H = np.asarray(H, dtype=np.float64)
    stack = graphs.all_graphs()
    if H.size != len(stack):
        raise ShapeError("H shape does not match the graph set")
    Wm = sp.csr_array(stack[0].W.shape)
    for w, g in zip(H.ravel(), stack):
        if w != 0.0:
            Wm = Wm + w * g.W
    # divide the stored entries (a sparse "/ x" multiplies by 1 / x)
    Wm.data /= 1.0 + mu
    return Wm


def compute_residuals(Wm, graphs: MultiOrderGraphSet) -> np.ndarray:
    """P_vk = ||W_m - W_k^v||_F^2 as a V x K matrix (W_m sparse or dense)."""
    Wm = sp.csr_array(Wm, dtype=np.float64)
    out = np.empty((graphs.view_count, graphs.K))
    for v, view in enumerate(graphs.views):
        for k, g in enumerate(view):
            if g.W.shape != Wm.shape:
                raise ShapeError("consensus and view graphs differ in size")
            diff = (Wm - g.W).data
            out[v, k] = float(np.dot(diff, diff))
    return out


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


def fuse_graphs(
    graphs: MultiOrderGraphSet,
    mu: float = 0.1,
    alpha: float = 0.1,
    eps2: float = 1e-6,
    t2: int = 50,
) -> FusionState:
    """Alternate consensus and weight updates until the objective settles.

    Stops when |L2(j) - L2(j-1)| < eps2 or after t2 sweeps.  The loop is
    evaluated through the Gram matrix of the stacked graphs: with
    G_ij = <W_i, W_j>, every residual and objective value is a
    quadratic form in the current weights, which avoids materializing
    W_m each sweep.  The result is identical to the direct alternation.
    """
    if mu < 0:
        raise ParamError("mu must be nonnegative")
    if alpha <= 0:
        raise ParamError("alpha must be positive")
    if t2 < 1:
        raise ParamError("t2 must be >= 1")
    stack = graphs.all_graphs()
    m = len(stack)
    if m == 0:
        raise ShapeError("empty graph set")
    gram = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            gram[i, j] = gram[j, i] = float(stack[i].W.multiply(stack[j].W).sum())
    norms_sq = np.diag(gram).copy()

    V, K = graphs.view_count, graphs.K
    h = np.full(m, 1.0 / m)  # H_vk = 1/(V K) start
    h_cons = h
    trace = []
    prev = None
    converged = False
    iterations = 0
    for _ in range(t2):
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
        if prev is not None and abs(obj - prev) < eps2:
            converged = True
            break
        prev = obj

    H = h.reshape(V, K)
    # materialize the consensus from the last consensus step (the loop
    # ends half a sweep after it, with H freshly updated against it)
    Wm = update_consensus(h_cons.reshape(V, K), graphs, mu)
    return FusionState(
        H=H,
        Wm=Wm,
        Dm=Wm.sum(axis=1),
        objective_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
    )
