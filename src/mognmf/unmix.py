"""Multiplicative-update unmixing solvers.

The full model factorizes X ~ A S + E under nonnegativity, a soft
sum-to-one constraint on abundances, an l1/2 sparsity penalty on S, an
l2,1 row-sparsity penalty on E, and a consensus-graph smoothness
penalty Tr(S L_m S^T).  All three block updates have closed forms in
R = X - E and T = X - A S:

* A <- A .* (R S^T) ./ (A S S^T)
* S <- S .* (A^T R + lam S W_m)
       ./ (A^T A S + (gamma/2) S^(-1/2) + lam S D_m)
* E <- row-wise soft threshold of T at level beta

The loop runs them in Gram space, with no L x N matrix inside it.
The soft threshold makes E a row scaling of T, E = diag(s) (X - A S),
so the solver carries s (length L) in place of E, and
R = diag(1 - s) X + diag(s) A S.  X is then read only through the two
skinny products X S^T (L x M) and ((1 - s) .* A)^T X (M x N) per
iteration; each row's fit ||T_l||^2 comes from X S^T, A S S^T and the
precomputed ||x_l||^2, and E is formed once, on exit.  While s is all
zero (always, for the variants without the noise term) R = X, and the
loop computes no s-term at all.

W_m is a polynomial in the two order-1 k-NN graphs
(``graph.ConsensusOperator``), which also holds the degree vector D_m:
S W_m costs one sparse product per graph order and view, and neither
W_m nor any power is stored.  Graph and fusion settings reach the
graph build and the fusion in the one ``UnmixParams`` of the run.

Ablation variants drop individual terms; the plain-NMF baseline is the
classic two-factor multiplicative rule with no constraints beyond
nonnegativity.  The sum-to-one constraint is a delta row appended to
(R, A) ahead of the S update, never a renormalization of S, so the
multiplicative convergence behavior is kept.  The loop folds that row
into the products as + delta^2 on A^T R and on A^T A, for those
variants only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import DataError, DivergenceError, InitError, ParamError, ShapeError
from .graph import build_multi_order_graphs
from .fusion import FusionState, fuse_graphs
from .hsi_core import HsiCube, UnmixModel, UnmixParams
from .rng import substream

__all__ = [
    "SolverConfig",
    "VARIANTS",
    "INITS",
    "estimate_gamma",
    "init_vca",
    "init_fcls",
    "update_endmembers",
    "update_abundances",
    "update_noise",
    "consensus_graph",
    "fused_orders",
    "graph_orders",
    "run_solver",
]

VARIANTS = ("mognmf", "nmf", "snmf", "case_ii", "case_iii", "case_iv", "case_v")
INITS = ("vca_fcls", "random")

_DEN_GUARD = 1e-12  # added to every multiplicative denominator
_S_FLOOR = 1e-10  # floor applied before S^(-1/2)
_INIT_FLOOR = 1e-8  # lift exact zeros out of multiplicative lock at init


@dataclass(frozen=True)
class _Traits:
    sparsity: bool
    orders: object  # "all", or a tuple of fixed orders (empty: no graph term)
    noise: bool
    asc: bool


_VARIANT_TRAITS = {
    "mognmf": _Traits(True, "all", True, True),
    "nmf": _Traits(False, (), False, False),
    "snmf": _Traits(True, (), False, True),
    "case_ii": _Traits(True, "all", False, True),
    "case_iv": _Traits(True, (2,), True, True),
    "case_v": _Traits(True, (1,), True, True),
}
# ablation case III (sparsity only) is the snmf model under its case name
_VARIANT_TRAITS["case_iii"] = _VARIANT_TRAITS["snmf"]


@dataclass(frozen=True)
class SolverConfig:
    """Variant selection plus all scalar parameters.

    ``init_endmembers``/``init_abundances`` give an explicit warm start
    (used by tests); when set they take precedence over ``init``.
    """

    params: UnmixParams
    variant: str = "mognmf"
    init: str = "vca_fcls"
    init_endmembers: np.ndarray | None = None
    init_abundances: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParamError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.init not in INITS:
            raise ParamError(f"init must be one of {INITS}, got {self.init!r}")


def estimate_gamma(cube: HsiCube, as_written: bool = False) -> float:
    """Data-driven sparsity weight from band-wise l1/l2 ratios.

    The default averages the normalized sparseness (sqrt(N) - l1/l2) /
    (sqrt(N) - 1) over bands and scales by 1/sqrt(L).  With
    ``as_written=True`` the alternative form sum(l1/l2)/sqrt(L) is used
    (its sqrt(N-1) normalization factors cancel exactly, so they are not
    materialized).  Both forms agree on one-hot bands.
    """
    X = cube.data
    L, N = X.shape
    if N < 2:
        raise ParamError("gamma estimation needs at least 2 pixels")
    l1 = X.sum(axis=1)
    l2 = np.linalg.norm(X, axis=1)
    if np.any(l2 == 0):
        band = int(np.nonzero(l2 == 0)[0][0])
        raise DataError(f"band {band} is all zero; gamma is undefined")
    ratios = l1 / l2
    if as_written:
        return float(np.sum(ratios) / np.sqrt(L))
    sqrt_n = np.sqrt(N)
    return float(np.sum((sqrt_n - ratios) / (sqrt_n - 1.0)) / np.sqrt(L))


def init_vca(cube: HsiCube, M: int, seed: int = 0) -> np.ndarray:
    """Vertex hunt for endmember candidates among the pixel columns.

    Projects the data onto an M-dimensional subspace (projective scaling
    at high SNR, affine lift at low SNR) and iteratively picks the pixel
    with the largest component orthogonal to the simplex spanned so far.
    Returns the selected columns of X; deterministic for a given seed.
    """
    X = cube.data
    L, N = X.shape
    if M < 1:
        raise ParamError("endmember count must be >= 1")
    if M > min(L, N):
        raise InitError(f"M={M} exceeds min(L, N)={min(L, N)}")
    rank = int(np.linalg.matrix_rank(X))
    if M > rank:
        raise InitError(f"M={M} exceeds the data rank proxy {rank}")

    if M == 1:
        u = np.linalg.svd(X, full_matrices=False)[0][:, 0]
        j = int(np.argmax(np.abs(u @ X)))
        return X[:, [j]].copy()

    rng = substream(seed, "vca")
    mean = X.mean(axis=1, keepdims=True)
    X0 = X - mean
    cov = (X0 @ X0.T) / N
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvecs = eigvecs[:, order]
    xp = eigvecs[:, :M].T @ X0
    p_y = float(np.sum(X**2)) / N
    p_x = float(np.sum(xp**2)) / N + float(np.vdot(mean, mean))
    residual_power = p_y - p_x
    if residual_power <= 1e-12 * max(p_y, 1.0):
        snr_est = np.inf
    else:
        snr_est = 10.0 * np.log10(max(p_x - (M / L) * p_y, 1e-300) / residual_power)
    snr_threshold = 15.0 + 10.0 * np.log10(M)

    if snr_est > snr_threshold:
        # high SNR: projective projection onto the plane x^T u = 1
        cov_raw = (X @ X.T) / N
        vals, vecs = np.linalg.eigh(cov_raw)
        vecs = vecs[:, np.argsort(vals)[::-1]]
        xp2 = vecs[:, :M].T @ X
        u = xp2.mean(axis=1) * M
        denom = xp2.T @ u
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        y = xp2 / denom[None, :]
    else:
        # low SNR: drop to M-1 dims and lift with a constant row
        xp1 = eigvecs[:, : M - 1].T @ X0
        c = float(np.max(np.sqrt(np.sum(xp1**2, axis=0))))
        y = np.vstack([xp1, np.full((1, N), c if c > 0 else 1.0)])

    dim = y.shape[0]
    simplex = np.zeros((dim, M))
    simplex[-1, 0] = 1.0
    indices = np.empty(M, dtype=np.int64)
    chosen = set()
    for i in range(M):
        w = rng.random(dim)
        f = w - simplex @ (np.linalg.pinv(simplex) @ w)
        norm_f = np.linalg.norm(f)
        if norm_f > 0:
            f /= norm_f
        scores = np.abs(f @ y)
        for j in np.argsort(scores, kind="stable")[::-1]:
            if int(j) not in chosen:
                indices[i] = int(j)
                chosen.add(int(j))
                break
        simplex[:, i] = y[:, indices[i]]
    return X[:, indices].copy()


def init_fcls(cube: HsiCube, A0: np.ndarray, delta: float = 15.0) -> np.ndarray:
    """Per-pixel nonnegative least squares on the delta-augmented system.

    A constant delta row appended to X and to A0 pulls each abundance
    column toward sum one; columns are solved independently and are
    exactly nonnegative.
    """
    if delta <= 0:
        raise ParamError("delta must be positive")
    A0 = np.asarray(A0, dtype=np.float64)
    if A0.ndim != 2 or A0.shape[0] != cube.data.shape[0]:
        raise ShapeError(f"initial endmembers must be L x M with L={cube.data.shape[0]}")
    if np.any(A0 < 0):
        raise InitError("initial endmembers must be nonnegative")
    M = A0.shape[1]
    if np.linalg.matrix_rank(A0) < M:
        raise InitError("initial endmember matrix is rank deficient")
    N = cube.pixel_count
    Xb = np.vstack([cube.data, np.full((1, N), delta)])
    Ab = np.vstack([A0, np.full((1, M), delta)])
    S0 = np.empty((M, N))
    for j in range(N):
        S0[:, j] = nnls(Ab, Xb[:, j])[0]
    return S0


def update_endmembers(A, RSt, SSt, *, ASSt=None) -> np.ndarray:
    """One multiplicative step on A from R S^T and S S^T, with R = X - E.

    ``ASSt`` is A @ SSt when the caller has already formed it.
    """
    if ASSt is None:
        ASSt = A @ SSt
    return A * (RSt / (ASSt + _DEN_GUARD))


def update_abundances(S, AtR, AtA, gamma: float = 0.0, lam: float = 0.0, Wm=None) -> np.ndarray:
    """One multiplicative step on S from A^T R and A^T A, with R = X - E.

    Both products include the delta row when the variant enforces
    sum-to-one.  ``Wm`` is the consensus graph, a ConsensusOperator
    whose ``degree`` is D_m; it is required when lam != 0.  Entries of
    S below 1e-10 are floored before the S^(-1/2) term so the update
    stays finite.
    """
    num = AtR
    den = AtA @ S
    if lam != 0.0:
        if Wm is None:
            raise ParamError("graph term requires Wm")
        num = num + lam * (S @ Wm)
        den = den + lam * (S * Wm.degree[None, :])
    if gamma != 0.0:
        den = den + 0.5 * gamma / np.sqrt(np.maximum(S, _S_FLOOR))
    den += _DEN_GUARD
    return S * (num / den)


def update_noise(row_sq, beta: float) -> np.ndarray:
    """Row scale s of the soft threshold E = diag(s) T, T = X - A S.

    ``row_sq`` holds the squared row norms ||T_l||^2.  Rows with norm
    below beta get s = 0; the rest shrink by s = (norm - beta)/norm.
    beta = 0 gives s = 1 on every nonzero row, beta = inf gives s = 0.
    """
    if beta < 0:
        raise ParamError("beta must be nonnegative")
    norms = np.sqrt(row_sq)
    scale = np.zeros_like(norms)
    hit = norms > 0
    scale[hit] = np.maximum(norms[hit] - beta, 0.0) / norms[hit]
    return scale


def fused_orders(variant: str, order: int) -> tuple[int, ...]:
    """Graph orders ``variant`` fuses when the configured graph order is ``order``.

    Empty for the graph-free variants (nmf, snmf, case_iii).
    """
    if variant not in VARIANTS:
        raise ParamError(f"variant must be one of {VARIANTS}, got {variant!r}")
    orders = _VARIANT_TRAITS[variant].orders
    return tuple(range(1, order + 1)) if orders == "all" else orders


def graph_orders(variant: str, params: UnmixParams) -> tuple[int, ...]:
    """Graph orders a ``variant`` run builds and fuses: none without a graph term or at lambda 0."""
    orders = fused_orders(variant, params.order)
    return orders if params.lam > 0.0 else ()


def consensus_graph(
    cube: HsiCube, params: UnmixParams, orders: list[int] | None = None
) -> FusionState:
    """Build the multi-order graphs ``params`` describe and fuse them.

    ``orders`` keeps only those orders (single-order variants) in place
    of 1..``params.order``.
    """
    return fuse_graphs(build_multi_order_graphs(cube, params, orders), params)


def _initialize(cube: HsiCube, M: int, config: SolverConfig):
    p = config.params
    if config.init_endmembers is not None:
        A = np.asarray(config.init_endmembers, dtype=np.float64).copy()
        if config.init_abundances is not None:
            S = np.asarray(config.init_abundances, dtype=np.float64).copy()
        else:
            S = init_fcls(cube, A, p.delta)
        return A, S
    if config.init == "vca_fcls":
        A = init_vca(cube, M, p.seed)
        S = np.maximum(init_fcls(cube, A, p.delta), _INIT_FLOOR)
        return A, S
    L, N = cube.data.shape
    rng_a = substream(p.seed, "init", "endmembers")
    rng_s = substream(p.seed, "init", "abundances")
    A = np.abs(rng_a.standard_normal((L, M))) * float(cube.data.max())
    S = rng_s.uniform(size=(M, N))
    S /= S.sum(axis=0, keepdims=True)
    return A, S


def run_solver(cube: HsiCube, M: int, config: SolverConfig) -> UnmixModel:
    """Run the configured variant to convergence.

    Graphs are constructed and fused once, before the loop.  Each outer
    iteration updates A, then S (with the delta row folded in as
    + delta^2 on A^T R and A^T A when the variant enforces sum-to-one),
    then forms X S^T, S S^T and A S S^T, which give every row's fit
    ||T_l||^2 = ||x_l||^2 - 2 a_l . (X S^T)_l + a_l . (A S S^T)_l
    (clamped at 0) and carry over into the next A step.  Their sum is
    the recorded ||X - A S||_F^2, and their square roots give the noise
    row scale s, E = diag(s) (X - A S).  Variants without the noise term
    keep s = 0 and never call ``update_noise``.  While s is all zero,
    R S^T is X S^T and A^T R is A^T X: the s-terms would add exact zeros,
    so they are skipped, as is delta^2 for variants without sum-to-one.
    E is formed once, on exit.  Stops when the trace change drops below
    eps1 (relative to 1 + previous value, or absolute with the
    corresponding flag) or after t1 iterations.
    """
    traits = _VARIANT_TRAITS[config.variant]
    p = config.params
    X = cube.data
    L, N = X.shape
    if not 1 <= M <= min(L, N):
        raise InitError(f"M={M} must lie in [1, min(L, N)={min(L, N)}]")

    gamma = 0.0
    if traits.sparsity:
        gamma = (
            p.gamma
            if p.gamma is not None
            else estimate_gamma(cube, as_written=p.gamma_as_written)
        )

    lam = 0.0
    Wm = None
    fusion_state: FusionState | None = None
    orders = graph_orders(config.variant, p)
    if orders:
        # only W_m and D_m are kept: an operator over the order-1 graphs
        fusion_state = consensus_graph(cube, p, list(orders))
        Wm = fusion_state.Wm
        lam = p.lam

    delta_sq = p.delta**2 if traits.asc else 0.0

    A, S = _initialize(cube, M, config)
    x_sq = np.einsum("ln,ln->l", X, X)
    # E = diag(s) (X - A S); s stays 0 without the noise term
    s = np.zeros(L)
    noisy = False
    XSt, SSt = X @ S.T, S @ S.T
    ASSt = A @ SSt

    trace = np.empty(p.t1)
    prev = None
    converged = False
    it = 0
    # R = diag(1 - s) X + diag(s) A S is never negative: s lies in [0, 1]
    # and X, A, S are nonnegative, so no product below needs a clip.
    # A C-contiguous A^T gives A^T X its fast BLAS path; A.T @ A stays a
    # transposed view, which numpy hands to SYRK
    for it in range(1, p.t1 + 1):
        if noisy:
            keep = 1.0 - s
            A_prev = A
            RSt = keep[:, None] * XSt + s[:, None] * ASSt
            A = update_endmembers(A, RSt, SSt, ASSt=ASSt)
            AtR = (np.ascontiguousarray(A.T) * keep) @ X
            AtR += ((A.T * s) @ A_prev) @ S
        else:
            A = update_endmembers(A, XSt, SSt, ASSt=ASSt)
            AtR = np.ascontiguousarray(A.T) @ X
        AtA = A.T @ A
        if delta_sq:
            AtR += delta_sq
            AtA += delta_sq
        S = update_abundances(S, AtR, AtA, gamma, lam, Wm)
        XSt, SSt = X @ S.T, S @ S.T
        ASSt = A @ SSt
        row_sq = x_sq - 2.0 * np.einsum("lm,lm->l", A, XSt)
        row_sq += np.einsum("lm,lm->l", ASSt, A)
        np.maximum(row_sq, 0.0, out=row_sq)
        if traits.noise:
            s = update_noise(row_sq, p.beta)
            noisy = bool(s.any())
        objective = float(row_sq.sum())
        if not np.isfinite(objective):
            raise DivergenceError(
                f"objective became non-finite at iteration {it}", iteration=it
            )
        trace[it - 1] = objective
        if prev is not None:
            tol = p.eps1 if p.absolute_eps1 else p.eps1 * (1.0 + prev)
            if abs(objective - prev) < tol:
                converged = True
                break
        prev = objective

    # E = diag(s) (X - A S), formed in place; rows with s = 0 are set to
    # +0.0, where the product leaves -0.0 wherever A S exceeds X
    E = A @ S
    np.subtract(X, E, out=E)
    E *= s[:, None]
    E[s == 0] = 0.0
    return UnmixModel(
        endmembers=A,
        abundances=S,
        noise=E,
        objective_trace=trace[:it].copy(),
        fusion=fusion_state,
        gamma=gamma if traits.sparsity else None,
        iterations=it,
        converged=converged,
    )
