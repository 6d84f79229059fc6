"""Multiplicative-update unmixing solvers.

The full model factorizes X ~ A S + E under nonnegativity, a soft
sum-to-one constraint on abundances, an l1/2 sparsity penalty on S, an
l2,1 row-sparsity penalty on E, and a consensus-graph smoothness
penalty Tr(S L_m S^T).  All three block updates have closed forms:

* A <- A .* ((X-E) S^T) ./ (A S S^T)
* S <- S .* (A^T (X-E) + lam S W_m)
       ./ (A^T A S + (gamma/2) S^(-1/2) + lam S D_m)
* E <- row-wise soft threshold of X - A S at level beta

Ablation variants drop individual terms; the plain-NMF baseline is the
classic two-factor multiplicative rule with no constraints beyond
nonnegativity.  The sum-to-one constraint is realized purely through
the delta-row augmentation of (X-E, A) ahead of the S update, never by
renormalizing S, so the multiplicative convergence behavior is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import DataError, DivergenceError, InitError, ParamError
from .graph import MultiOrderGraphSet, build_multi_order_graphs
from .fusion import FusionState, fuse_graphs
from .hsi_core import HsiCube, UnmixModel, UnmixParams, augment_for_asc
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
    (used by tests and sweeps); when set they take precedence over
    ``init``.
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

    The appended delta row pulls each abundance column toward sum one;
    columns are solved independently and are exactly nonnegative.
    """
    A0 = np.asarray(A0, dtype=np.float64)
    if np.any(A0 < 0):
        raise InitError("initial endmembers must be nonnegative")
    M = A0.shape[1]
    if np.linalg.matrix_rank(A0) < M:
        raise InitError("initial endmember matrix is rank deficient")
    Xb, Ab = augment_for_asc(cube.data, A0, delta)
    S0 = np.empty((M, cube.pixel_count))
    for j in range(cube.pixel_count):
        S0[:, j] = nnls(Ab, Xb[:, j])[0]
    return S0


def update_endmembers(A, S, X, E=None) -> np.ndarray:
    """One multiplicative step on the endmember matrix."""
    A = np.asarray(A, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    residual = X if E is None else X - E
    residual = np.maximum(residual, 0.0)  # keep the numerator nonnegative
    num = residual @ S.T
    den = A @ (S @ S.T) + _DEN_GUARD
    return A * (num / den)


def update_abundances(
    S, A, X, E=None, gamma: float = 0.0, lam: float = 0.0, Wm=None, Dm=None
) -> np.ndarray:
    """One multiplicative step on the abundance matrix.

    ``Wm``/``Dm`` are the consensus weight matrix and its degree vector;
    they are required when lam != 0.  Entries of S below 1e-10 are
    floored before the S^(-1/2) term so the update stays finite.
    """
    S = np.asarray(S, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    residual = X if E is None else X - E
    residual = np.maximum(residual, 0.0)
    num = A.T @ residual
    den = (A.T @ A) @ S
    if lam != 0.0:
        if Wm is None or Dm is None:
            raise ParamError("graph term requires Wm and Dm")
        num = num + lam * (S @ Wm)
        den = den + lam * (S * np.asarray(Dm)[None, :])
    if gamma != 0.0:
        den = den + 0.5 * gamma / np.sqrt(np.maximum(S, _S_FLOOR))
    den = den + _DEN_GUARD
    return S * (num / den)


def update_noise(X, A, S, beta: float) -> np.ndarray:
    """Row-wise soft threshold of the reconstruction residual.

    Rows of X - A S with l2 norm below beta are zeroed; the rest shrink
    by (norm - beta)/norm.  beta = 0 returns the residual unchanged.
    """
    if beta < 0:
        raise ParamError("beta must be nonnegative")
    T = X - A @ S
    norms = np.sqrt((T * T).sum(axis=1))
    scale = np.zeros_like(norms)
    hit = norms > 0
    scale[hit] = np.maximum(norms[hit] - beta, 0.0) / norms[hit]
    return T * scale[:, None]


def fused_orders(variant: str, order: int) -> tuple[int, ...]:
    """Graph orders ``variant`` fuses when the configured graph order is ``order``.

    Empty for the graph-free variants (nmf, snmf, case_iii).
    """
    if variant not in VARIANTS:
        raise ParamError(f"variant must be one of {VARIANTS}, got {variant!r}")
    orders = _VARIANT_TRAITS[variant].orders
    return tuple(range(1, order + 1)) if orders == "all" else orders


def consensus_graph(
    cube: HsiCube, params: UnmixParams, orders: list[int] | None = None
) -> tuple[MultiOrderGraphSet, FusionState]:
    """Build the multi-order graphs ``params`` describe and fuse them.

    ``orders`` keeps only those orders (single-order variants); powers
    then run up to the largest of them instead of ``params.order``.
    """
    graphs = build_multi_order_graphs(
        cube,
        K=params.order if orders is None else max(orders),
        neighbors=params.neighbors,
        sigma_s=params.sigma_s,
        sigma_l=params.sigma_l,
        neighbors_spatial=params.neighbors_spatial,
        neighbors_spectral=params.neighbors_spectral,
        normalize=params.order_norm,
        orders=orders,
    )
    state = fuse_graphs(
        graphs, mu=params.mu, alpha=params.alpha, eps2=params.eps2, t2=params.t2
    )
    return graphs, state


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
    iteration updates A, then S (against the delta-augmented system when
    the variant enforces sum-to-one), then E for variants with the noise
    term, and records ||X - A S||_F^2.  Stops when the trace change
    drops below eps1 (relative to 1 + previous value, or absolute with
    the corresponding flag) or after t1 iterations.
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
    Wm = Dm = None
    fusion_state: FusionState | None = None
    orders = fused_orders(config.variant, p.order)
    if orders and p.lam > 0.0:
        # only W_m and D_m are kept; the per-order graphs are freed here
        fusion_state = consensus_graph(cube, p, list(orders))[1]
        Wm = fusion_state.Wm.W
        Dm = fusion_state.Dm
        lam = p.lam

    A, S = _initialize(cube, M, config)
    E = np.zeros((L, N)) if traits.noise else None

    trace = np.empty(p.t1)
    prev = None
    converged = False
    it = 0
    for it in range(1, p.t1 + 1):
        A = update_endmembers(A, S, X, E)
        if traits.asc:
            residual = X if E is None else X - E
            res_aug, A_aug = augment_for_asc(residual, A, p.delta)
            S = update_abundances(S, A_aug, res_aug, None, gamma, lam, Wm, Dm)
        else:
            S = update_abundances(S, A, X, E, gamma, lam, Wm, Dm)
        if traits.noise:
            E = update_noise(X, A, S, p.beta)
        objective = float(np.sum((X - A @ S) ** 2))
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

    return UnmixModel(
        endmembers=A,
        abundances=S,
        noise=E if E is not None else np.zeros((L, N)),
        objective_trace=trace[:it].copy(),
        fusion=fusion_state,
        gamma=gamma if traits.sparsity else None,
        iterations=it,
        converged=converged,
    )
