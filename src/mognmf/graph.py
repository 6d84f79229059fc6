"""Spatial/spectral k-NN heat-kernel graphs, their powers, and their penalty.

Both views share one recipe: Euclidean distances, each pixel's C
nearest neighbors with ties going to the lower index, edges weighted by
exp(-d^2 / (2 sigma^2)), and symmetrization by elementwise max.  One
selection path keeps the neighbors from blocks of candidate distances,
and each view has its own candidate generator.  The spectral view scans
all N columns (its neighbors can be anywhere).  The spatial view scans
a (2r+1)^2 window of grid offsets around each pixel, r being a grid
corner's C-th nearest distance rounded up: no pixel has fewer pixels
within a radius than a corner, so the window holds every pixel's C
nearest.  It costs O(C N), and its distances are bit-equal to those of
a scan of all columns over grid coordinates.

Order-k graphs are plain matrix powers of the order-1 graph; under
``UnmixParams.order_norm`` powers of order >= 2 are divided by their
maximum entry so all orders live on a comparable scale before fusion
(raw powers grow without bound).  The graph settings (C per view and
sigma) are read from an ``UnmixParams``, which has validated them.

Every graph is a scipy CSR array, so memory is O(nnz).  The distances
are computed over blocks of rows and never held as one N x N array.
Only the order-1 graph of each view is stored: a k-NN graph has about
C*N nonzeros, while its powers fill in fast (the order-3 spectral power
of a 64x64 scene is 16% dense).  The consensus graph, a polynomial in
the order-1 graphs, is a ``ConsensusOperator`` applied by repeated
sparse products, and neither it nor any whole power is formed by the
pipeline.  ``graph_powers`` forms the powers of one graph as CSR
arrays, for a reader rebuilding the per-order graphs from a dump of the
order-1 graphs.  No Laplacian is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, ParamError, ShapeError
from .hsi_core import HsiCube, UnmixParams

__all__ = [
    "WeightMatrix",
    "MultiOrderGraphSet",
    "ConsensusOperator",
    "neighbor_count",
    "spatial_weights",
    "spectral_weights",
    "graph_powers",
    "laplacian_quadratic",
    "build_multi_order_graphs",
]

_BLOCK = 128  # rows of the distance matrix held at once


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric nonnegative order-1 affinity matrix tagged with its view.

    ``W`` is stored as a CSR array; dense input is converted.
    """

    W: sp.csr_array
    kind: str  # spatial | spectral
    sigma: float | None = None  # heat-kernel width of a built order-1 graph

    def __post_init__(self):
        W = sp.csr_array(self.W, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ShapeError("weight matrix must be square")
        if np.any(W.data < 0):
            raise DataError("weight matrix must be nonnegative")
        if (W != W.T).nnz:
            raise DataError("weight matrix must be symmetric")
        object.__setattr__(self, "W", W)


@dataclass(frozen=True)
class MultiOrderGraphSet:
    """The order-1 graph of each view and the graph orders fused from it.

    The fused stack is W_v^k for each view v, in (spatial, spectral)
    order, and each k in ``orders``, view-major: the row-major layout of
    H.  Only the order-1 graphs are stored; whether a power of order
    >= 2 enters divided by its maximum entry is ``UnmixParams.order_norm``,
    read by the fusion.
    """

    views: tuple  # one order-1 WeightMatrix per view
    orders: tuple = (1,)

    def all_graphs(self) -> list[WeightMatrix]:
        """The stored graphs: the order-1 graph of each view."""
        return list(self.views)


class ConsensusOperator:
    """W = sum_v sum_k coef[v, k-1] W_v^k over symmetric CSR graphs W_v, never formed.

    ``S @ op`` evaluates each view's polynomial in Horner form: one
    product of an N x M block with W_v per order, against about C*N
    stored entries.  ``degree``, computed once, is the operator applied
    to a vector of ones (W is symmetric, so it is the row sums): D in
    L = diag(D) - W.  A single graph W is ``ConsensusOperator([W], [[1.0]])``.
    """

    __array_ufunc__ = None  # ndarray @ op defers to __rmatmul__

    def __init__(self, graphs, coef):
        self.graphs = tuple(graphs)
        self.coef = np.asarray(coef, dtype=np.float64)
        if self.coef.ndim != 2 or self.coef.shape[0] != len(self.graphs):
            raise ShapeError("one coefficient row per graph is required")
        self.shape = self.graphs[0].shape
        if len(self.shape) != 2 or self.shape[0] != self.shape[1]:
            raise ShapeError(f"graph must be square, got shape {self.shape}")
        self.degree = (np.ones((1, self.shape[0])) @ self)[0]

    def _terms(self):
        """(W_v, coefficients up to the highest nonzero order) per active view."""
        for W, c in zip(self.graphs, self.coef):
            nz = np.flatnonzero(c)
            if nz.size:
                yield W, c[: nz[-1] + 1]

    def __rmatmul__(self, S) -> np.ndarray:
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2 or S.shape[1] != self.shape[0]:
            raise ShapeError(f"cannot apply a {self.shape} graph to {S.shape}")
        # S W_v^k = (W_v^k S^T)^T for symmetric W_v: each product is a CSR
        # times a dense block, with no transpose of the graph.  The CSR
        # product reads the block in C order, so S^T is made C-contiguous once
        St = np.ascontiguousarray(S.T)
        out = None
        for W, c in self._terms():
            t = c[-1] * St
            for ck in c[-2::-1]:
                t = W @ t
                if ck:
                    t += ck * St
            if out is None:
                out = W @ t
            else:
                out += W @ t
        return np.zeros(S.shape) if out is None else out.T


def _row_blocks(n: int):
    """(lo, hi) of each _BLOCK-row block over n rows; the last block takes the remainder."""
    # no short last block: a BLAS product over fewer rows can round
    # differently from the whole-matrix product
    starts = range(0, max(n - _BLOCK, 0) + 1, _BLOCK)
    return zip(starts, [*starts[1:], n])


def _column_candidates(points: np.ndarray):
    """Every column of ``points`` as a candidate for every column, over row blocks.

    Yields (lo, d, index) per block of rows lo..: the Euclidean
    distances to all N columns, +inf at each row's own column, and the
    global column index of each entry.
    """
    n = points.shape[1]
    sq = np.sum(points**2, axis=0)
    for lo, hi in _row_blocks(n):
        gram = points[:, lo:hi].T @ points
        d = sq[lo:hi, None] + sq[None, :]
        gram *= 2.0
        d -= gram
        del gram
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        yield lo, d, np.broadcast_to(np.arange(n), d.shape)


def _window(ry: int, rx: int):
    """Offsets (dy, dx) of a (2ry+1) x (2rx+1) window and their Euclidean lengths."""
    dy, dx = (a.ravel() for a in np.mgrid[-ry : ry + 1, -rx : rx + 1])
    # dy^2 + dx^2 is an exact integer, so each length has the bits of the
    # distance between integer grid coordinates
    return dy, dx, np.sqrt(dy * dy + dx * dx)


def _grid_candidates(height: int, width: int, neighbors: int):
    """The pixels in a window of grid offsets around each pixel, over row blocks.

    Yields (lo, d, index) like ``_column_candidates``, one column per
    offset of the window |dy| <= min(r, height-1), |dx| <= min(r, width-1),
    with +inf for the pixel itself and for offsets off the grid.  r is
    the smallest radius >= 1 within which a grid corner has `neighbors`
    other pixels.  No pixel has fewer pixels within any radius than a
    corner (along each axis, its sorted offsets are elementwise no
    larger than the corner's 0, 1, 2, ...), so the disk of radius r
    holds every pixel's C nearest, ties included.  The window holds the
    part of that disk on the grid: an offset of more than height-1 rows
    or width-1 columns is off the grid from every pixel.
    """
    corner = np.add.outer(np.arange(height) ** 2, np.arange(width) ** 2).ravel()
    kth = np.partition(corner, neighbors)[neighbors]  # squared C-th distance
    r = max(1, int(np.ceil(np.sqrt(kth))))
    dy, dx, length = _window(min(r, height - 1), min(r, width - 1))
    for lo, hi in _row_blocks(height * width):
        y, x = np.divmod(np.arange(lo, hi), width)
        ny = y[:, None] + dy
        nx = x[:, None] + dx
        off = (ny < 0) | (ny >= height) | (nx < 0) | (nx >= width) | (length == 0)
        yield lo, np.where(off, np.inf, length), ny * width + nx


def _knn_heat_kernel(n: int, candidates, sigma, neighbors: int) -> tuple[sp.csr_array, float]:
    """Heat-kernel k-NN graph over n nodes from row blocks of candidate distances.

    ``candidates`` yields (lo, d, index) per block of rows lo..: the
    distance d[i, t] from node lo+i to node index[i, t], where each
    row's candidates hold every node within its C-th smallest distance.
    Keeps each node's `neighbors` nearest others (ties go to the lower
    index), resolves sigma="auto" to the median retained distance, and
    symmetrizes by elementwise max.  ``sigma`` is "auto" or positive, as
    ``UnmixParams`` admits.  Returns (W, sigma_used).
    """
    if n < 2:
        raise ParamError("graph construction needs at least 2 pixels")
    rows, cols, retained = [], [], []
    for lo, d, index in candidates:
        # candidates: every entry within the row's C-th smallest distance;
        # ordered by (row, distance, global column), each row keeps its first C
        kth = np.partition(d, neighbors - 1, axis=1)[:, neighbors - 1]
        r, c = np.nonzero(d <= kth[:, None])
        dist = d[r, c]
        c = index[r, c]
        order = np.lexsort((c, dist, r))
        counts = np.bincount(r, minlength=d.shape[0])
        first = np.cumsum(counts) - counts
        keep = order[(first[:, None] + np.arange(neighbors)).ravel()]
        rows.append(r[keep] + lo)
        cols.append(c[keep])
        retained.append(dist[keep])
    rows, cols, retained = (np.concatenate(a) for a in (rows, cols, retained))
    if sigma == "auto":
        med = float(np.median(retained))
        sigma = med if med > 0 else 1.0
    w = np.exp(-(retained**2) / (2.0 * sigma**2))
    W = sp.csr_array((w, (rows, cols)), shape=(n, n))
    return W.maximum(W.T), float(sigma)


def neighbor_count(params: UnmixParams, view: str, n: int) -> int:
    """The k-NN count C of ``view`` ("spatial" or "spectral") in a graph over ``n`` nodes.

    C is the view's override, or ``params.neighbors``, and must be < ``n``.
    """
    c = getattr(params, f"neighbors_{view}") or params.neighbors  # overrides are None or >= 1
    if c >= n:
        raise ParamError(f"neighbor count C={c} must be < N={n}")
    return c


def spatial_weights(cube: HsiCube, params: UnmixParams = UnmixParams()) -> WeightMatrix:
    """Heat-kernel affinity over Euclidean grid distance between pixels.

    Reads ``params.sigma_s`` and the spatial neighbor count C.
    """
    c = neighbor_count(params, "spatial", cube.pixel_count)
    candidates = _grid_candidates(cube.height, cube.width, c)
    W, sigma = _knn_heat_kernel(cube.pixel_count, candidates, params.sigma_s, c)
    return WeightMatrix(W=W, kind="spatial", sigma=sigma)


def spectral_weights(cube: HsiCube, params: UnmixParams = UnmixParams()) -> WeightMatrix:
    """Heat-kernel affinity over Euclidean distance between pixel spectra.

    Reads ``params.sigma_l`` and the spectral neighbor count C.
    """
    c = neighbor_count(params, "spectral", cube.pixel_count)
    candidates = _column_candidates(cube.data)
    W, sigma = _knn_heat_kernel(cube.pixel_count, candidates, params.sigma_l, c)
    return WeightMatrix(W=W, kind="spectral", sigma=sigma)


def graph_powers(W: WeightMatrix, K: int, normalize: bool = True) -> list[sp.csr_array]:
    """Return [W^1, ..., W^K] as CSR arrays, W^k at index k-1.

    With ``normalize=True`` every power of order >= 2 is divided by its
    maximum entry; the order-1 graph is returned unchanged (its kernel
    weights are already in [0, 1]).
    """
    if K < 1:
        raise ParamError("graph order K must be >= 1")
    out = [W.W]
    Wk = W.W
    for k in range(2, K + 1):
        Wk = Wk @ W.W
        Wk = 0.5 * (Wk + Wk.T)  # product rounding can break exact symmetry
        scaled = Wk
        if normalize:
            peak = Wk.max()
            if peak > 0:
                # divide the stored entries (a sparse "/ peak" multiplies
                # by the reciprocal, which rounds differently)
                scaled = Wk.copy()
                scaled.data /= peak
        out.append(scaled)
    return out


def laplacian_quadratic(S: np.ndarray, Wm: ConsensusOperator) -> float:
    """Tr(S L S^T), L = diag(D) - W, for the operator's W and degree D.

    Read as sum S.*(S D) - sum S.*(S W): the products the S update forms.
    """
    S = np.asarray(S, dtype=np.float64)
    SW = S @ Wm  # ShapeError unless S has one column per node
    return float(np.sum(S * (S * Wm.degree[None, :])) - np.sum(S * SW))


def build_multi_order_graphs(
    cube: HsiCube, params: UnmixParams = UnmixParams(), orders: list[int] | None = None
) -> MultiOrderGraphSet:
    """The spatial and spectral order-1 graphs ``params`` describe, fused at ``orders``.

    ``orders`` defaults to 1..``params.order``; single-order ablation
    variants pass a subset.  Each order must be >= 1 and appear once.
    """
    orders = tuple(range(1, params.order + 1)) if orders is None else tuple(orders)
    if not orders or min(orders) < 1 or len(set(orders)) != len(orders):
        raise ParamError(f"orders must be distinct and >= 1, got {list(orders)}")
    views = (spatial_weights(cube, params), spectral_weights(cube, params))
    return MultiOrderGraphSet(views=views, orders=orders)
