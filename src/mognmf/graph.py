"""Spatial/spectral k-NN heat-kernel graphs, their powers, and Laplacians.

Both views share one recipe: compute pairwise distances (grid Euclidean
for the spatial view, spectral Euclidean between pixel columns for the
spectral view), keep each pixel's C nearest neighbors, weight retained
edges with exp(-d^2 / (2 sigma^2)), and symmetrize by elementwise max.
Order-k graphs are plain matrix powers of the order-1 graph; powers of
order >= 2 are divided by their maximum entry so all orders live on a
comparable scale before fusion (raw powers grow without bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParamError, ShapeError
from .hsi_core import HsiCube

__all__ = [
    "WeightMatrix",
    "MultiOrderGraphSet",
    "LaplacianMatrix",
    "spatial_weights",
    "spectral_weights",
    "graph_powers",
    "laplacian",
    "laplacian_quadratic",
    "build_multi_order_graphs",
]

VIEWS = ("spatial", "spectral")


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric nonnegative affinity matrix tagged with view and order."""

    W: np.ndarray
    kind: str  # spatial | spectral | fused
    order: int = 1

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ShapeError("weight matrix must be square")
        if np.any(W < 0):
            raise DataError("weight matrix must be nonnegative")
        if not np.array_equal(W, W.T):
            raise DataError("weight matrix must be symmetric")
        object.__setattr__(self, "W", W)

    @property
    def n(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class MultiOrderGraphSet:
    """Order 1..K weight matrices for each view, in (spatial, spectral) order."""

    views: tuple  # tuple of lists of WeightMatrix
    K: int

    def all_graphs(self) -> list[WeightMatrix]:
        """Flatten in view-major order; matches the row-major layout of H."""
        return [g for view in self.views for g in view]

    @property
    def view_count(self) -> int:
        return len(self.views)

    @property
    def n(self) -> int:
        return self.views[0][0].n


@dataclass(frozen=True)
class LaplacianMatrix:
    """L = diag(D) - W with D the row sums of W."""

    L: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", np.asarray(self.L, dtype=np.float64))
        object.__setattr__(self, "D", np.asarray(self.D, dtype=np.float64))


def _knn_heat_kernel(dist: np.ndarray, sigma, neighbors: int) -> tuple[np.ndarray, float]:
    """Sparse-pattern heat kernel from a full distance matrix.

    Keeps each node's `neighbors` nearest others (stable tie order),
    resolves sigma="auto" to the median retained distance, and
    symmetrizes by elementwise max.  Returns (W, sigma_used).
    """
    n = dist.shape[0]
    if n < 2:
        raise ParamError("graph construction needs at least 2 pixels")
    if neighbors >= n:
        raise ParamError(f"neighbor count C={neighbors} must be < N={n}")
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    idx = np.argsort(d, axis=1, kind="stable")[:, :neighbors]
    rows = np.repeat(np.arange(n), neighbors)
    cols = idx.ravel()
    retained = d[rows, cols]
    if isinstance(sigma, str):
        if sigma != "auto":
            raise ParamError(f'sigma must be positive or "auto", got {sigma!r}')
        med = float(np.median(retained))
        sigma = med if med > 0 else 1.0
    elif sigma <= 0:
        raise ParamError("sigma must be positive")
    W = np.zeros((n, n))
    W[rows, cols] = np.exp(-(retained**2) / (2.0 * sigma**2))
    W = np.maximum(W, W.T)
    np.fill_diagonal(W, 0.0)
    return W, float(sigma)


def spatial_weights(cube: HsiCube, sigma_s="auto", neighbors: int = 10) -> WeightMatrix:
    """Heat-kernel affinity over Euclidean grid distance between pixels."""
    u, v = np.divmod(np.arange(cube.pixel_count), cube.width)
    u = u.astype(np.float64)
    v = v.astype(np.float64)
    d2 = (u[:, None] - u[None, :]) ** 2
    d2 += (v[:, None] - v[None, :]) ** 2
    W, _ = _knn_heat_kernel(np.sqrt(d2, out=d2), sigma_s, neighbors)
    return WeightMatrix(W=W, kind="spatial", order=1)


def spectral_weights(cube: HsiCube, sigma_l="auto", neighbors: int = 10) -> WeightMatrix:
    """Heat-kernel affinity over Euclidean distance between pixel spectra."""
    X = cube.data
    sq = np.sum(X**2, axis=0)
    gram = X.T @ X
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    dist = np.sqrt(d2)
    W, _ = _knn_heat_kernel(dist, sigma_l, neighbors)
    return WeightMatrix(W=W, kind="spectral", order=1)


def graph_powers(W: WeightMatrix, K: int, normalize: bool = True) -> list[WeightMatrix]:
    """Return [W^1, ..., W^K] as WeightMatrix objects.

    With ``normalize=True`` every power of order >= 2 is divided by its
    maximum entry; the order-1 graph is returned unchanged (its kernel
    weights are already in [0, 1]).
    """
    if K < 1:
        raise ParamError("graph order K must be >= 1")
    out = [W]
    Wk = W.W
    for k in range(2, K + 1):
        Wk = Wk @ W.W
        Wk = 0.5 * (Wk + Wk.T)  # gemm rounding can break exact symmetry
        scaled = Wk
        if normalize:
            peak = Wk.max()
            if peak > 0:
                scaled = Wk / peak
        out.append(WeightMatrix(W=scaled, kind=W.kind, order=k))
    return out


def laplacian(W) -> LaplacianMatrix:
    """Degree vector and combinatorial Laplacian of a weight matrix."""
    M = W.W if isinstance(W, WeightMatrix) else np.asarray(W, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError("laplacian expects a square matrix")
    D = M.sum(axis=1)
    L = np.diag(D) - M
    return LaplacianMatrix(L=L, D=D)


def laplacian_quadratic(S: np.ndarray, lap: LaplacianMatrix) -> float:
    """Tr(S L S^T): the graph smoothness penalty on abundance rows."""
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[1] != lap.L.shape[0]:
        raise ShapeError(
            f"abundance column count {S.shape} does not match graph size {lap.L.shape[0]}"
        )
    return float(np.sum((S @ lap.L) * S))


def build_multi_order_graphs(
    cube: HsiCube,
    K: int = 3,
    neighbors: int = 10,
    sigma_s="auto",
    sigma_l="auto",
    neighbors_spatial: int | None = None,
    neighbors_spectral: int | None = None,
    normalize: bool = True,
    orders: list[int] | None = None,
) -> MultiOrderGraphSet:
    """Construct spatial and spectral graphs of orders 1..K.

    ``orders`` restricts the returned set to a subset of orders (used by
    single-order ablation variants); K still bounds the powers computed.
    """
    c_spa = neighbors_spatial if neighbors_spatial is not None else neighbors
    c_spe = neighbors_spectral if neighbors_spectral is not None else neighbors
    w_spa = spatial_weights(cube, sigma_s=sigma_s, neighbors=c_spa)
    w_spe = spectral_weights(cube, sigma_l=sigma_l, neighbors=c_spe)
    views = []
    for w1 in (w_spa, w_spe):
        powers = graph_powers(w1, K, normalize=normalize)
        if orders is not None:
            powers = [powers[k - 1] for k in orders]
        views.append(powers)
    k_eff = len(views[0])
    return MultiOrderGraphSet(views=tuple(views), K=k_eff)
