"""Spatial/spectral k-NN heat-kernel graphs, their powers, and their penalty.

Both views share one recipe: Euclidean distances, each pixel's C
nearest neighbors with ties going to the lower index, edges weighted by
exp(-d^2 / (2 sigma^2)), and symmetrization by elementwise max; each
view finds its own edges and one tail weights them.  The spectral view
scans all N columns (its neighbors can be anywhere).  The spatial view
needs no search: each pixel keeps its first C on-grid offsets of one
window sorted by (distance, neighbor index), whose radius is a grid
corner's C-th nearest distance (no pixel has fewer pixels within a
radius than a corner).  It costs O(C N), and its distances are
bit-equal to those of a scan of all columns over grid coordinates.

Order-k graphs are plain matrix powers of the order-1 graph; under
``UnmixParams.order_norm`` powers of order >= 2 are divided by their
maximum entry so all orders live on a comparable scale before fusion
(raw powers grow without bound).  The graph settings (C per view and
sigma) are read from an ``UnmixParams``, which has validated them.

Every graph is a scipy CSR array, so memory is O(nnz).  Both views work
over units of _UNIT = 64 rows, never hold an N x N array, and join the
units' kept edges in unit order.  The spatial units run in turn in the
calling thread; the spectral ones on it and a pool made per call
(``workers.run_units``), at most _BLOCK = 128 rows in flight, and a
unit's edges depend only on its rows, so the graph does not depend on
the thread count.  A spectral unit's working set is its 64 rows of the
Gram product P^T P (one BLAS call; 64 N doubles) plus sub-blocks of
squared distances, at most 2^17 (1 MB) over the units in flight: each
row's C-th squared distance is found by partition within a sub-block,
and only the entries at most a few ulps above it are square-rooted and
sorted.  These buffers are allocated once per stage, by the calling
thread.  Its squared norms are summed band by band, with no L x N
temporary.
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
from .workers import BLOCK as _BLOCK, UNIT as _UNIT, run_units

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

_SUB_BLOCK = 1 << 17  # squared distances (1 MB) per selection pass of a k-NN


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


def _units(n: int) -> list[tuple[int, int]]:
    """(lo, hi) of each work unit over n rows: _UNIT rows each, the last one the remainder."""
    return [(lo, min(lo + _UNIT, n)) for lo in range(0, n, _UNIT)]


def _heat_kernel(n: int, rows, cols, dist, sigma) -> tuple[sp.csr_array, float]:
    """Heat-kernel graph over n nodes from the kept edges (rows, cols) at distances dist.

    Resolves sigma="auto" to the median kept distance (1.0 where that is
    0), weights each edge exp(-d^2 / (2 sigma^2)) and symmetrizes by
    elementwise max.  ``sigma`` is "auto" or positive, as ``UnmixParams``
    admits.  Returns (W, sigma_used).
    """
    if sigma == "auto":
        med = float(np.median(dist))
        sigma = med if med > 0 else 1.0
    w = np.exp(-(dist**2) / (2.0 * sigma**2))
    W = sp.csr_array((w, (rows, cols)), shape=(n, n))
    return W.maximum(W.T), float(sigma)


def _grid_offsets(height: int, width: int, neighbors: int):
    """(dy, dx, distance) of the grid offsets that hold every pixel's C nearest.

    The window is |dy| <= min(r, height-1), |dx| <= min(r, width-1)
    without (0, 0), r being the smallest radius >= 1 within which a grid
    corner has `neighbors` other pixels.  No pixel has fewer pixels
    within any radius than a corner (along each axis, its sorted offsets
    are elementwise no larger than the corner's 0, 1, 2, ...), so the
    window holds every pixel's C nearest, ties included.  Sorted by
    (squared length, dy, dx): with |dx| < width, the neighbor index
    i + dy*width + dx grows with (dy, dx), so from every pixel i this is
    (distance, neighbor index) order.  A squared length is an exact
    integer, so each distance has the bits of a grid-coordinate distance.
    """
    corner = np.add.outer(np.arange(height) ** 2, np.arange(width) ** 2).ravel()
    kth = np.partition(corner, neighbors)[neighbors]  # squared C-th distance
    r = max(1, int(np.ceil(np.sqrt(kth))))
    ry, rx = min(r, height - 1), min(r, width - 1)
    dy, dx = (a.ravel() for a in np.mgrid[-ry : ry + 1, -rx : rx + 1])
    length2 = dy * dy + dx * dx
    order = np.lexsort((dx, dy, length2))[1:]  # (0, 0) alone sorts first
    return dy[order], dx[order], np.sqrt(length2[order])


def _grid_edges(height: int, width: int, neighbors: int) -> list[np.ndarray]:
    """[rows, columns, distances] of each grid pixel's `neighbors` nearest pixels.

    Each pixel keeps its first C on-grid offsets in ``_grid_offsets``
    order, so ties go to the lower index.  The units run in turn in the
    calling thread: each is a few small numpy calls, which two threads
    would only pass the interpreter lock between.
    """
    dy, dx, dist = _grid_offsets(height, width, neighbors)
    edges = []
    for lo, hi in _units(height * width):
        y, x = np.divmod(np.arange(lo, hi), width)
        ny, nx = y[:, None] + dy, x[:, None] + dx
        on = (ny >= 0) & (ny < height) & (nx >= 0) & (nx < width)
        r, t = np.nonzero(on & (np.cumsum(on, axis=1) <= neighbors))
        edges.append((r + lo, ny[r, t] * width + nx[r, t], dist[t]))
    return [np.concatenate(x) for x in zip(*edges)]


# A bound this far above the C-th squared distance t keeps every squared
# distance whose distance ties sqrt(t).  Correctly rounded sqrt maps at
# most 4 ulps of squared distance (< 2^-50 relative) onto one distance,
# and t * (1 + 2^-48) rounds to more than t (1 + 2^-49).
_TIE_SLACK = 1.0 + 2.0**-48


def _nearest(a: int, d2, part, neighbors: int):
    """(row, column, distance) of each row's `neighbors` nearest in one sub-block of rows a..

    Column t of d2 is node t.  Ordered by (row, distance, column): ties
    go to the lower column.  The selection runs on squared distances, and
    only its survivors are clamped and square-rooted: sqrt(max(., 0)) is
    monotone, so the C-th distance is the root of the C-th squared
    distance, and a slightly looser bound on d2 keeps every entry whose
    distance ties it.  The few survivors beyond the C-th distance sort
    after at least C others in their row, so they are never kept.
    ``part`` receives d2's partition.
    """
    np.copyto(part, d2)
    part.partition(neighbors - 1, axis=1)
    kth2 = np.maximum(part[:, neighbors - 1], 0.0)
    r, c = np.divmod(np.flatnonzero(d2 <= (kth2 * _TIE_SLACK)[:, None]), d2.shape[1])
    dist = np.sqrt(np.maximum(d2[r, c], 0.0))
    order = np.lexsort((c, dist, r))
    counts = np.bincount(r, minlength=d2.shape[0])
    first = np.cumsum(counts) - counts
    keep = order[(first[:, None] + np.arange(neighbors)).ravel()]
    return r[keep] + a, c[keep], dist[keep]


def _spectral_edges(points: np.ndarray, neighbors: int) -> list[np.ndarray]:
    """[rows, columns, distances] of each column's `neighbors` nearest columns of ``points``.

    A unit's rows of P^T P are one BLAS call (a unit of all N rows is
    P^T P, which numpy sends to SYRK), cut into sub-blocks of squared
    distances, unclamped (so possibly a few ulps below zero) and +inf at
    each row's own column.  The units run on the graph stage's threads
    (``workers.run_units``), each in its thread's buffers, and their
    edges are joined in unit order.
    """
    n = points.shape[1]
    sq = points[0] ** 2
    for band in points[1:]:
        sq += band**2
    rows = min(n, _UNIT)
    # sub-blocks of at most _SUB_BLOCK entries over the units in flight
    step = min(rows, max(1, _SUB_BLOCK * _UNIT // (_BLOCK * n)))

    def unit(bounds, b):
        (lo, hi), (gram, d2, part) = bounds, b
        gram = np.matmul(points[:, lo:hi].T, points, out=gram[: hi - lo])
        gram *= 2.0
        kept = []
        for a in range(lo, hi, step):
            m = min(step, hi - a)
            d = np.add(sq[a : a + m, None], sq, out=d2[:m])
            d -= gram[a - lo : a - lo + m]
            d[np.arange(m), np.arange(a, a + m)] = np.inf
            kept.append(_nearest(a, d, part[:m], neighbors))
        return [np.concatenate(x) for x in zip(*kept)]

    def buffers():
        return np.empty((rows, n)), np.empty((step, n)), np.empty((step, n))

    edges = run_units(unit, _units(n), buffers)
    return [np.concatenate(x) for x in zip(*edges)]


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
    edges = _grid_edges(cube.height, cube.width, c)
    W, sigma = _heat_kernel(cube.pixel_count, *edges, params.sigma_s)
    return WeightMatrix(W=W, kind="spatial", sigma=sigma)


def spectral_weights(cube: HsiCube, params: UnmixParams = UnmixParams()) -> WeightMatrix:
    """Heat-kernel affinity over Euclidean distance between pixel spectra.

    Reads ``params.sigma_l`` and the spectral neighbor count C.
    """
    c = neighbor_count(params, "spectral", cube.pixel_count)
    W, sigma = _heat_kernel(cube.pixel_count, *_spectral_edges(cube.data, c), params.sigma_l)
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
