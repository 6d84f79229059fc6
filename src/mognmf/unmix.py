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
W_m nor any power is stored.  The spectral graph is built in the cube's
M-dimensional signal subspace unless ``UnmixParams.spectral_as_written``
(``graph.spectral_weights``).  Graph and fusion settings reach the
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

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, DivergenceError, InitError, ParamError, ShapeError
from .graph import build_multi_order_graphs, neighbor_count
from .fusion import FusionState, fuse_graphs
from .hsi_core import HsiCube, UnmixModel, UnmixParams, endmember_count
from .rng import substream
from .workers import blas_pinned, pool_size

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
    "graph_orders",
    "check_run",
    "run_solver",
]

VARIANTS = ("mognmf", "nmf", "snmf", "case_ii", "case_iii", "case_iv", "case_v")
INITS = ("vca_fcls", "random")

_DEN_GUARD = 1e-12  # added to every multiplicative denominator
_S_FLOOR = 1e-10  # floor applied before S^(-1/2)
_INIT_FLOOR = 1e-8  # lift exact zeros out of multiplicative lock at init
_FCLS_PASSES_PER_ENDMEMBER = 3  # FCLS pass cap; a pixel with k positive abundances needs >= k + 1


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
    (used by tests) in place of ``init``.  Endmembers alone get the VCA
    start's FCLS abundances, floored at 1e-8, so ``init_vca(cube, M, seed)``
    there gives the default run.  ``init_abundances`` needs ``init_endmembers``;
    ``run_solver`` checks that the endmembers are L x M and the abundances M x N.
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
        if self.init_abundances is not None and self.init_endmembers is None:
            raise ParamError("init_abundances needs init_endmembers")


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
    """Vertex hunt for M endmember candidates (``cube.endmember_count``) among the pixels.

    Projects the data onto an M-dimensional subspace (projective scaling
    at high SNR, affine lift at low SNR) and iteratively picks the pixel
    with the largest component orthogonal to the simplex spanned so far.
    Returns the selected columns of X; deterministic for a given seed.
    Its covariance is the cube's gram / N - m m^T (m the band means) and
    its projections U^T X - U^T m, so no L x N array is formed.  An M
    above the data's rank is an ``InitError``.
    """
    M = cube.endmember_count(M)
    X = cube.data
    L, N = X.shape
    if not _proves_rank(cube, M):
        rank = int(np.linalg.matrix_rank(X))
        if M > rank:
            raise InitError(f"M={M} exceeds the data rank proxy {rank}")

    if M == 1:
        j = int(np.argmax(np.abs(cube.signal_basis[:, 0] @ X)))
        return X[:, [j]].copy()

    rng = substream(seed, "vca")
    mean = X.mean(axis=1)
    eigvals, eigvecs = np.linalg.eigh(cube.gram / N - np.outer(mean, mean))
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    # the powers of X and of its projection onto the top M covariance eigenvectors
    p_y = float(np.trace(cube.gram)) / N
    p_x = float(np.sum(eigvals[:M])) + float(np.vdot(mean, mean))
    residual_power = p_y - p_x
    if residual_power <= 1e-12 * max(p_y, 1.0):
        snr_est = np.inf
    else:
        snr_est = 10.0 * np.log10(max(p_x - (M / L) * p_y, 1e-300) / residual_power)
    snr_threshold = 15.0 + 10.0 * np.log10(M)

    if snr_est > snr_threshold:
        # high SNR: projective projection onto the plane x^T u = 1
        xp2 = cube.signal_basis[:, :M].T @ X
        u = xp2.mean(axis=1) * M
        denom = xp2.T @ u
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        y = xp2 / denom[None, :]
    else:
        # low SNR: drop to M-1 dims and lift with a constant row
        U = eigvecs[:, : M - 1]
        xp1 = U.T @ X - (U.T @ mean)[:, None]
        c = float(np.max(np.sqrt(np.sum(xp1**2, axis=0))))
        y = np.vstack([xp1, np.full((1, N), c if c > 0 else 1.0)])

    dim = y.shape[0]
    simplex = np.zeros((dim, M))
    simplex[-1, 0] = 1.0
    indices = np.empty(M, dtype=np.int64)
    for i in range(M):
        w = rng.random(dim)
        f = w - simplex @ (np.linalg.pinv(simplex) @ w)
        norm_f = np.linalg.norm(f)
        if norm_f > 0:
            f /= norm_f
        indices[i] = _best_unchosen(np.abs(f @ y), indices[:i])
        simplex[:, i] = y[:, indices[i]]
    return X[:, indices].copy()


def _proves_rank(cube: HsiCube, M: int) -> bool:
    """True only if ``np.linalg.matrix_rank(X) >= M``, read from the cube's ``gram``.

    matrix_rank counts the computed singular values above sigma_max *
    max(L, N) * eps.  The eigenvalues of G = X X^T are the squared
    singular values (and L - N zeros when L > N) up to ``slack``: the
    product's rounding is at most N eps ||X||_F^2 in 2-norm for any
    summation order, and eigvalsh adds a backward error of a small
    multiple of L eps ||G||_2 <= ||X||_F^2.  The M-th singular value must
    clear the rank tolerance, with each computed singular value allowed
    the SVD's own error of about (L + N) eps sigma_max and both bounds
    doubled.  False means "not proved", and the caller asks matrix_rank,
    so the decision is matrix_rank's in every case.
    """
    L, N = cube.data.shape
    eps = np.finfo(np.float64).eps
    err = 4.0 * (L + N) * eps  # relative, both for G's eigenvalues and for the SVD
    G = cube.gram
    eig = np.linalg.eigvalsh(G)
    slack = err * float(np.trace(G))
    top = np.sqrt(eig[-1] + slack) * (err + (1.0 + err) * max(L, N) * eps)
    return bool(eig[-M] - slack > (2.0 * top) ** 2)


def _best_unchosen(scores: np.ndarray, chosen: np.ndarray) -> int:
    """Index of the largest score outside ``chosen``; the highest such index among ties.

    ``scores`` is overwritten at ``chosen``.
    """
    scores[chosen] = -np.inf
    return scores.size - 1 - int(np.argmax(scores[::-1]))


def init_fcls(cube: HsiCube, A0: np.ndarray, delta: float = 15.0) -> np.ndarray:
    """Per-pixel nonnegative least squares on the delta-augmented system.

    A constant delta row appended to X and to A0 pulls each abundance
    column toward sum one; each column is the exact NNLS solution of
    its own pixel, so it is exactly nonnegative.  All N columns share
    one matrix, so they are solved together by the Lawson-Hanson
    active-set method in the grouped form of Van Benthem & Keenan
    (J. Chemometrics 2004): from the Gram products Ab^T Ab and
    Ab^T Xb, formed once, each pass solves the subproblems once per
    distinct passive set rather than once per pixel.
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
    # the delta row of Ab and Xb adds delta^2 to every entry of both products
    G = A0.T @ A0 + delta * delta
    B = A0.T @ cube.data + delta * delta
    return _nnls_columns(G, B, _FCLS_PASSES_PER_ENDMEMBER * M)


def _nnls_columns(G, B, max_passes: int) -> np.ndarray:
    """Lawson-Hanson NNLS for every column of B at once, from G = Ab^T Ab and B = Ab^T Xb.

    Each pass adds, to every column not yet optimal, the index whose
    gradient entry is largest and positive, then re-solves those
    columns on their passive sets; a column whose solution leaves the
    orthant steps back to the boundary and drops the indices that
    reach zero, as in Lawson & Hanson's inner loop.  Raises InitError
    when columns remain open after ``max_passes`` passes.
    """
    M, N = B.shape
    # gradient entries below this count as zero (Van Benthem & Keenan's tolerance)
    tol = 10.0 * np.finfo(np.float64).eps * np.abs(G).sum(axis=0).max() * M
    X = np.zeros((M, N))
    P = np.zeros((M, N), dtype=bool)
    cols = np.arange(N)
    for _ in range(max_passes):
        grad = B[:, cols] - G @ X[:, cols]
        grad[P[:, cols]] = -np.inf
        add = np.argmax(grad, axis=0)
        still = grad[add, np.arange(cols.size)] > tol
        cols, add = cols[still], add[still]
        if cols.size == 0:
            return X
        P[add, cols] = True
        x, p = X[:, cols], P[:, cols]
        z = _solve_passive(G, B[:, cols], p)
        out = np.any(p & (z <= 0.0), axis=0)
        while out.any():
            xo, zo, po = x[:, out], z[:, out], p[:, out]
            neg = po & (zo <= 0.0)
            # step length to the first passive entry that reaches zero; an entry
            # already at zero (the one just added) gives a zero step
            ratio = np.where(neg, xo, np.inf)
            np.divide(xo, xo - zo, out=ratio, where=neg & (xo > 0.0))
            alpha = ratio.min(axis=0)
            xo = xo + alpha * (zo - xo)
            po &= ~(neg & (ratio == alpha)) & (xo > 0.0)
            x[:, out] = np.where(po, xo, 0.0)
            p[:, out] = po
            z[:, out] = _solve_passive(G, B[:, cols[out]], po)
            out = np.any(p & (z <= 0.0), axis=0)
        X[:, cols] = z
        P[:, cols] = p
    raise InitError(f"FCLS init did not converge in {max_passes} active-set passes")


def _solve_passive(G, B, P) -> np.ndarray:
    """Z with G[p, p] Z[p, j] = B[p, j] on each column's passive set p = P[:, j], zero off it.

    Columns are sorted by passive set, so each distinct set costs one
    factorization however many columns share it.
    """
    M, n = P.shape
    Z = np.zeros((M, n))
    order = np.lexsort(P)
    Ps = P[:, order]
    starts = np.flatnonzero(np.r_[True, np.any(Ps[:, 1:] != Ps[:, :-1], axis=0)])
    for lo, hi in zip(starts, np.r_[starts[1:], n]):
        p, idx = Ps[:, lo], order[lo:hi]
        if p.any():
            Z[np.ix_(p, idx)] = np.linalg.solve(G[np.ix_(p, p)], B[np.ix_(p, idx)])
    return Z


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


def graph_orders(variant: str, params: UnmixParams) -> tuple[int, ...]:
    """Graph orders a ``variant`` run builds and fuses: none without a graph term or at lambda 0."""
    if variant not in VARIANTS:
        raise ParamError(f"variant must be one of {VARIANTS}, got {variant!r}")
    orders = _VARIANT_TRAITS[variant].orders
    if orders == "all":
        orders = tuple(range(1, params.order + 1))
    return orders if params.lam > 0.0 else ()


def consensus_graph(
    cube: HsiCube, m: int, params: UnmixParams, orders: tuple[int, ...] | None = None
) -> FusionState:
    """Build the multi-order graphs ``params`` describe and fuse them.

    ``m`` is the endmember count (``graph.spectral_weights``), and
    ``orders`` keeps only those orders (single-order variants) in place
    of 1..``params.order``.  The state records the stage's thread count
    and wall time.
    """
    t0 = time.perf_counter()
    state = fuse_graphs(build_multi_order_graphs(cube, m, params, orders), params)
    graph_ms = round(1000 * (time.perf_counter() - t0), 3)
    return replace(state, graph_workers=pool_size(), graph_ms=graph_ms)


def check_run(shape: tuple, M, config: SolverConfig) -> int:
    """``int(M)`` if a ``config`` run on an L x N ``shape`` passes ``hsi_core.endmember_count``
    and, if it builds graphs, ``graph.neighbor_count`` (C < N) in both views; else ParamError.
    """
    M = endmember_count(M, shape)
    if graph_orders(config.variant, config.params):
        for view in ("spatial", "spectral"):
            neighbor_count(config.params, view, shape[1])
    return M


def _initialize(cube: HsiCube, M: int, config: SolverConfig):
    p = config.params
    L, N = cube.data.shape
    if config.init_endmembers is not None:
        A = np.asarray(config.init_endmembers, dtype=np.float64).copy()
        if A.shape != (L, M):
            raise ShapeError(f"init_endmembers must be L x M = {L} x {M}, got {A.shape}")
        if config.init_abundances is not None:
            S = np.asarray(config.init_abundances, dtype=np.float64).copy()
            if S.shape != (M, N):
                raise ShapeError(f"init_abundances must be M x N = {M} x {N}, got {S.shape}")
            return A, S
    elif config.init == "vca_fcls":
        A = init_vca(cube, M, p.seed)
    else:
        rng_a = substream(p.seed, "init", "endmembers")
        rng_s = substream(p.seed, "init", "abundances")
        A = np.abs(rng_a.standard_normal((L, M))) * float(cube.data.max())
        S = rng_s.uniform(size=(M, N))
        S /= S.sum(axis=0, keepdims=True)
        return A, S
    return A, np.maximum(init_fcls(cube, A, p.delta), _INIT_FLOOR)


@blas_pinned()
def run_solver(cube: HsiCube, M: int, config: SolverConfig) -> UnmixModel:
    """Run the configured variant to convergence, with OpenBLAS held at one thread.

    The pin (``workers.blas_pinned``) covers init, graph stage and loop:
    X S^T and A^T X, whose inner dimension is N, would change bits with
    BLAS's thread count.  Graphs are built and fused once, before the
    loop, the spectral one in the M-dimensional signal subspace unless
    ``spectral_as_written``.  Each outer iteration updates A, then S
    (with the delta row folded in as + delta^2 on A^T R and A^T A when
    the variant enforces sum-to-one), then forms X S^T, S S^T and A S S^T, which give every
    row's fit ||T_l||^2 = ||x_l||^2 - 2 a_l . (X S^T)_l + a_l . (A S S^T)_l
    (clamped at 0) and carry over into the next A step.  Their sum is
    the recorded ||X - A S||_F^2, and their square roots give the noise
    row scale s, E = diag(s) (X - A S).  Variants without the noise term
    keep s = 0 and never call ``update_noise``.  While s is all zero,
    R S^T is X S^T and A^T R is A^T X: the s-terms would add exact zeros,
    so they are skipped, as is delta^2 for variants without sum-to-one.
    E is formed once, on exit.  Stops when the trace change drops below
    eps1 (relative to 1 + previous value, or absolute with the
    corresponding flag) or after t1 iterations.  ``check_run`` checks M and C first.
    """
    M = check_run(cube.data.shape, M, config)
    traits = _VARIANT_TRAITS[config.variant]
    p = config.params
    X = cube.data

    gamma = 0.0
    if traits.sparsity:
        gamma = (
            p.gamma
            if p.gamma is not None
            else estimate_gamma(cube, as_written=p.gamma_as_written)
        )

    orders = graph_orders(config.variant, p)
    # only W_m and D_m are kept: an operator over the order-1 graphs
    fusion_state = consensus_graph(cube, M, p, orders) if orders else None
    Wm = fusion_state.Wm if orders else None
    lam = p.lam if orders else 0.0

    delta_sq = p.delta**2 if traits.asc else 0.0

    A, S = _initialize(cube, M, config)
    x_sq = np.einsum("ln,ln->l", X, X)
    # E = diag(s) (X - A S); s stays 0 without the noise term
    s = np.zeros(cube.band_count)
    noisy = False
    XSt, SSt = X @ S.T, S @ S.T
    ASSt = A @ SSt

    trace = []
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
        trace.append(objective)
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
        objective_trace=np.asarray(trace),
        fusion=fusion_state,
        gamma=gamma if traits.sparsity else None,
        iterations=it,
        converged=converged,
    )
