"""Reference forms of what the package keeps implicit, for oracle checks.

The pipeline never forms a graph power or the consensus graph W_m: the
fusion runs in Gram space over row blocks of the powers, and W_m is a
``ConsensusOperator`` over the two order-1 graphs.  The functions here
form those matrices whole, so tests can check the implicit forms
against them on small scenes.  ``fcls_per_pixel`` is the FCLS init as
one ``scipy.optimize.nnls`` call per pixel, the reference for the
batched active-set solve in ``init_fcls``; ``best_unchosen_loop`` is
``init_vca``'s vertex pick as a walk down the sorted scores, the
reference for its masked argmax.  ``vca_as_written`` is ``init_vca``
with its second moments formed from the data, as VCA is written: the
centered L x N data, its covariance, the power sum(X^2), an SVD for
M = 1 and ``correlation_eigenvectors``; the cube's ``gram`` and
``signal_basis`` are checked against it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import nnls

from mognmf.errors import ParamError, ShapeError
from mognmf.graph import graph_powers
from mognmf.hsi_core import HsiCube
from mognmf.rng import substream

ORACLE_CASES = ("grid5x6", "grid17x9", "duplicated", "random24", "seams33x33")


def oracle_case(name):
    """A small scene for oracle checks and the ``UnmixParams`` fields for it."""
    rng = np.random.default_rng(14)
    if name == "grid5x6":  # constant spectra: every spectral distance ties at 0
        return HsiCube(data=np.ones((2, 30)), height=5, width=6), {"neighbors": 6}
    if name == "grid17x9":
        cube = HsiCube(data=rng.random((100, 153)), height=17, width=9)
        return cube, {"neighbors": 4, "sigma_s": 1.3}
    if name == "duplicated":  # quarter-step values, every pixel twice
        data = rng.integers(0, 4, size=(3, 100)) / 4.0
        data[:, 50:] = data[:, :50]
        return HsiCube(data=data, height=10, width=10), {"neighbors": 8}
    if name == "seams33x33":
        # N = 1089: seventeen 64-row units and a 1-row remainder unit, each
        # cut into 60-row sub-blocks, with a pixel duplicated across a unit
        # seam (127 | 128) and across a sub-block seam (1019 | 1020)
        data = rng.random((20, 1089))
        data[:, [128, 1020]] = data[:, [127, 1019]]
        return HsiCube(data=data, height=33, width=33), {"neighbors": 6}
    return HsiCube(data=rng.random((100, 576)), height=24, width=24), {"neighbors": 10}


def stack_powers(graphs, normalize: bool = True) -> list[sp.csr_array]:
    """The fused stack of a MultiOrderGraphSet as CSR arrays, in the row-major layout of H.

    ``normalize`` is the ``order_norm`` the stack is fused under.
    """
    out = []
    for w in graphs.views:
        powers = graph_powers(w, max(graphs.orders), normalize=normalize)
        out += [powers[k - 1] for k in graphs.orders]
    return out


def consensus_tocsr(op) -> sp.csr_array:
    """The W of a ConsensusOperator as one CSR array, symmetrized against product rounding."""
    out = sp.csr_array(op.shape)
    for W, c in zip(op.graphs, op.coef):
        Wk = W
        for k, ck in enumerate(c):
            if k:
                Wk = Wk @ W
            if ck:
                out = out + ck * Wk
    return sp.csr_array(0.5 * (out + out.T))


def update_consensus(H, graphs, mu: float, normalize: bool = True) -> sp.csr_array:
    """Closed-form consensus update over the formed stack: sum H_vk W_k^v / (1 + mu)."""
    if mu < 0:
        raise ParamError("mu must be nonnegative")
    H = np.asarray(H, dtype=np.float64)
    stack = stack_powers(graphs, normalize)
    if H.size != len(stack):
        raise ShapeError("H shape does not match the graph set")
    Wm = sp.csr_array(stack[0].shape)
    for w, g in zip(H.ravel(), stack):
        if w != 0.0:
            Wm = Wm + w * g
    # divide the stored entries (a sparse "/ x" multiplies by 1 / x)
    Wm.data /= 1.0 + mu
    return Wm


def compute_residuals(Wm, graphs, normalize: bool = True) -> np.ndarray:
    """P_vk = ||W_m - W_k^v||_F^2 over the formed stack (W_m sparse or dense)."""
    Wm = sp.csr_array(Wm, dtype=np.float64)
    out = []
    for g in stack_powers(graphs, normalize):
        if g.shape != Wm.shape:
            raise ShapeError("consensus and view graphs differ in size")
        diff = (Wm - g).data
        out.append(float(np.dot(diff, diff)))
    return np.array(out).reshape(len(graphs.views), len(graphs.orders))


def fcls_per_pixel(cube, A0, delta: float = 15.0) -> np.ndarray:
    """FCLS abundances: NNLS of each pixel on the delta-augmented system (Ab, Xb)."""
    N, M = cube.pixel_count, A0.shape[1]
    Xb = np.vstack([cube.data, np.full((1, N), delta)])
    Ab = np.vstack([A0, np.full((1, M), delta)])
    S0 = np.empty((M, N))
    for j in range(N):
        S0[:, j] = nnls(Ab, Xb[:, j])[0]
    return S0


def best_unchosen_loop(scores, chosen) -> int:
    """The best score's index outside ``chosen`` by a descending walk: highest index on ties."""
    chosen = {int(j) for j in chosen}
    for j in np.argsort(scores, kind="stable")[::-1]:
        if int(j) not in chosen:
            return int(j)
    raise ShapeError("every index is chosen")


def correlation_eigenvectors(X: np.ndarray) -> np.ndarray:
    """The eigenvectors of X X^T / N for an L x N ``X``, as columns by descending eigenvalue."""
    vals, vecs = np.linalg.eigh((X @ X.T) / X.shape[1])
    return vecs[:, np.argsort(vals)[::-1]]


def vca_as_written(cube, M: int, seed: int = 0) -> tuple[np.ndarray, str]:
    """The pixel indices ``init_vca`` picks, and its branch ("high", "low" or "one").

    Each second moment is formed from X: the M = 1 direction by an SVD of
    X, the covariance from the centered data X0 = X - mean, the data power
    as sum(X^2) and the high-SNR projection from ``correlation_eigenvectors``.
    """
    X = cube.data
    L, N = X.shape
    if M == 1:
        u = np.linalg.svd(X, full_matrices=False)[0][:, 0]
        return np.array([int(np.argmax(np.abs(u @ X)))]), "one"
    rng = substream(seed, "vca")
    mean = X.mean(axis=1, keepdims=True)
    X0 = X - mean
    eigvals, eigvecs = np.linalg.eigh((X0 @ X0.T) / N)
    eigvecs = eigvecs[:, np.argsort(eigvals)[::-1]]
    xp = eigvecs[:, :M].T @ X0
    p_y = float(np.sum(X**2)) / N
    p_x = float(np.sum(xp**2)) / N + float(np.vdot(mean, mean))
    residual_power = p_y - p_x
    if residual_power <= 1e-12 * max(p_y, 1.0):
        snr_est = np.inf
    else:
        snr_est = 10.0 * np.log10(max(p_x - (M / L) * p_y, 1e-300) / residual_power)
    if snr_est > 15.0 + 10.0 * np.log10(M):
        branch = "high"
        xp2 = correlation_eigenvectors(X)[:, :M].T @ X
        u = xp2.mean(axis=1) * M
        denom = xp2.T @ u
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        y = xp2 / denom[None, :]
    else:
        branch = "low"
        xp1 = eigvecs[:, : M - 1].T @ X0
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
        indices[i] = best_unchosen_loop(np.abs(f @ y), indices[:i])
        simplex[:, i] = y[:, indices[i]]
    return indices, branch
