"""Spatial/spectral k-NN heat-kernel graphs, their powers, and their penalty.

Both views share one recipe: Euclidean distances, each pixel's C
nearest neighbors with ties going to the lower index, edges weighted by
exp(-d^2 / (2 sigma^2)), and symmetrization by elementwise max; each
view finds its own edges and one tail weights them.  The spectral view
scans all N columns (its neighbors can be anywhere).  Given the
endmember count M, as every solve gives it, the spectral view measures
its distances between the pixels projected onto the cube's
M-dimensional signal subspace, the top M eigenvectors U of X X^T / N:
the M x N points U^T X.  At low SNR the raw-band distances are mostly
noise, and their graph has hubs, which fill the powers the fusion pays
for: on three 64x64 20 dB scenes (M = 6, C = 10) the most neighbors a
pixel had was 139-222 over the raw bands and 28-30 in the subspace.
Without M, or under ``UnmixParams.spectral_as_written``, it measures
them over all L raw bands, as the paper writes the graph.  The spatial
view needs no search: each pixel keeps its first C on-grid offsets of one
window sorted by (distance, neighbor index), whose radius is a grid
corner's C-th nearest distance (no pixel has fewer pixels within a
radius than a corner).  It costs O(C N), and its distances are
bit-equal to those of a scan of all columns over grid coordinates.

Order-k graphs are plain matrix powers of the order-1 graph; under
``UnmixParams.order_norm`` powers of order >= 2 are divided by their
maximum entry so all orders live on a comparable scale before fusion
(raw powers grow without bound).  The graph settings (C per view and
sigma) are read from an ``UnmixParams``, which has validated them.

Every graph is held as CSR arrays, so memory is O(nnz).  Both views work
over the graph stage's 64-row units (``workers.units``), never hold an
N x N array, and join the units' kept edges in unit order.  The spatial
units run in turn in the calling thread; the spectral ones on it and a
pool made per call (``workers.run_units``), and a unit's edges depend
only on its rows, so the graph does not depend on the thread count.  A
spectral thread's working set is one unit's rows of the Gram product
P^T P (one BLAS call; 64 N doubles) plus sub-blocks of squared
distances of at most _SUB_BLOCK = 2^16 entries (512 KB): each row's
C-th squared distance is found by partition within a sub-block, and
only the entries at most a few ulps above it are square-rooted and
sorted.  These buffers are allocated once per thread and stage, by the
calling thread.  Its squared norms are summed band by band, with no
L x N temporary.
Only the order-1 graph of each view is stored: a k-NN graph has about
C*N nonzeros, while its powers fill in fast (the order-3 spectral power
of a 64x64 scene is 16% dense).  The consensus graph, a polynomial in
the order-1 graphs, is a ``ConsensusOperator`` applied by repeated
sparse products, and neither it nor any whole power is formed by the
pipeline.  ``graph_powers`` forms the powers of one graph as scipy CSR
arrays, for a reader rebuilding the per-order graphs from a dump of the
order-1 graphs.  No Laplacian is ever formed.

The CSR arrays are built and applied by scipy's compiled sparse kernels,
``scipy.sparse._sparsetools``, loaded without the rest of
``scipy.sparse`` (``_load_sparsetools``), whose Python layer costs about
17 MB of resident memory and 0.1 s at import.  Each step calls only
the kernels its inputs need, and every array holds scipy's bits: an
order-1 graph is ``csr_array((w, (rows, cols))).maximum(W.T)``
(``_heat_kernel``), and ``S @ op`` adds the products of ``W @ t`` in
scipy's order (``_times_block``).  The kernels read only ``WeightMatrix``
graphs: a built one is symmetric and nonnegative by construction, one
from outside is checked by ``WeightMatrix(W)``.  Only that constructor,
the ``W`` view and ``graph_powers`` import ``scipy.sparse``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParamError, ShapeError
from .hsi_core import HsiCube, UnmixParams
from .workers import blas_pinned, run_units, units

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

_SUB_BLOCK = 1 << 16  # squared distances (512 KB) per thread and selection pass of a k-NN


def _load_sparsetools():
    """scipy's compiled sparse kernels, the module ``scipy.sparse._sparsetools``.

    A module already loaded under that name, by ``scipy.sparse`` or by an
    earlier call, is reused.  Otherwise the extension file is found in
    scipy's package directory and executed under its own name, without
    importing ``scipy.sparse``; a later ``import scipy.sparse`` finds it
    there and uses the same module.  Where no file is found, the module
    is imported through ``scipy.sparse``: the same kernels, at the cost of
    its Python layer.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    for folder in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[name] = module
                return module
    from scipy.sparse import _sparsetools

    return _sparsetools


_sparsetools = _load_sparsetools()


class WeightMatrix:
    """Symmetric nonnegative order-1 affinity matrix tagged with its view.

    The one graph type the graph stage's kernels read, held as the CSR
    arrays ``indptr``, ``indices`` and ``data`` of a ``shape`` = (n, n)
    matrix.  Its constructor is where a graph from outside is checked: a
    dense or scipy array ``W``, converted by ``scipy.sparse.csr_array``,
    must be square (``ShapeError``), nonnegative and symmetric by scipy's
    ``W != W.T`` (``DataError``).  ``kind`` is the view, or None; ``W`` is
    the scipy csr_array over the held arrays.  A built spectral graph
    records ``dims``, the dimension of the signal subspace its distances
    were measured in, None over the raw bands (and for every other graph).
    """

    def __init__(self, W, kind: str | None, sigma: float | None = None):
        import scipy.sparse as sp  # only a graph given as an array needs it

        W = sp.csr_array(W, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ShapeError("weight matrix must be square")
        if np.any(W.data < 0):
            raise DataError("weight matrix must be nonnegative")
        if (W != W.T).nnz:
            raise DataError("weight matrix must be symmetric")
        self._hold((W.indptr, W.indices, W.data), kind, sigma, W)

    @classmethod
    def _from_csr(cls, csr, kind: str, sigma: float | None = None) -> WeightMatrix:
        """A graph from the arrays of a square, nonnegative, symmetric CSR matrix, unchecked."""
        self = cls.__new__(cls)
        self._hold(csr, kind, sigma)
        return self

    def _hold(self, csr, kind, sigma, W=None):
        self.indptr, self.indices, self.data = csr
        self.shape = (len(self.indptr) - 1,) * 2
        self.kind = kind  # spatial | spectral | None
        self.sigma = sigma  # heat-kernel width of a built order-1 graph
        self.dims = None  # signal-subspace dimension of a built spectral graph
        self._W = W

    @property
    def nnz(self) -> int:
        """The stored entries."""
        return int(self.indptr[-1])

    @property
    def W(self):
        """The graph as a scipy csr_array over the held arrays (imports ``scipy.sparse``)."""
        if self._W is None:
            import scipy.sparse as sp

            self._W = sp.csr_array((self.data, self.indices, self.indptr), shape=self.shape)
        return self._W


@dataclass(frozen=True)
class MultiOrderGraphSet:
    """The order-1 graph of each view and the graph orders fused from it.

    The fused stack is W_v^k for each view v, in (spatial, spectral)
    order, and each k in ``orders``, view-major: the row-major layout of
    H.  Only the order-1 graphs are stored; whether a power of order
    >= 2 enters divided by its maximum entry is ``UnmixParams.order_norm``,
    read by the fusion.  Views of different node counts raise ``ShapeError``,
    and orders ``_check_orders`` rejects ``ParamError``.
    """

    views: tuple  # one order-1 WeightMatrix per view
    orders: tuple = (1,)

    def __post_init__(self):
        _check_orders(self.orders)
        _node_count(self.views)

    def all_graphs(self) -> list[WeightMatrix]:
        """The stored graphs: the order-1 graph of each view."""
        return list(self.views)


def _check_orders(orders) -> tuple:
    """``orders`` as a tuple: one or more distinct integers >= 1, no bool; else ``ParamError``."""
    orders = tuple(orders)
    whole = all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in orders)
    if not orders or not whole or min(orders) < 1 or len(set(orders)) != len(orders):
        raise ParamError(f"orders must be distinct integers >= 1, got {list(orders)}")
    return orders


def _node_count(graphs) -> int:
    """The node count n that all the n x n graphs share; ``ShapeError`` unless one."""
    if len(set(counts := [W.shape[0] for W in graphs])) != 1:
        raise ShapeError(f"graphs must share one node count, got {counts}")
    return counts[0]


class ConsensusOperator:
    """W = sum_v sum_k coef[v, k-1] W_v^k over symmetric graphs W_v, never formed.

    Each W_v is a ``WeightMatrix``; a dense or scipy array is checked and
    held by ``WeightMatrix(W_v, None)``.  Graphs of different node counts
    raise ``ShapeError``.  ``S @ op`` evaluates each view's polynomial in
    Horner form: one product of an N x M block with W_v per order, against
    about C*N stored entries.  ``degree``, computed once, is the operator
    applied to a vector of ones (W is symmetric, so it is the row sums):
    D in L = diag(D) - W.  A single graph W is ``ConsensusOperator([W], [[1.0]])``.
    """

    __array_ufunc__ = None  # ndarray @ op defers to __rmatmul__

    def __init__(self, graphs, coef):
        self._views = tuple(W if isinstance(W, WeightMatrix) else WeightMatrix(W, None)
                            for W in graphs)
        self.coef = np.asarray(coef, dtype=np.float64)
        if self.coef.ndim != 2 or self.coef.shape[0] != len(self._views):
            raise ShapeError("one coefficient row per graph is required")
        self.shape = (_node_count(self._views),) * 2
        # (W_v's CSR arrays, coefficients up to the highest nonzero order) per active view
        self._terms = [((W.indptr, W.indices, W.data), c[: nz[-1] + 1])
                       for W, c in zip(self._views, self.coef) if (nz := np.flatnonzero(c)).size]
        self.degree = (np.ones((1, self.shape[0])) @ self)[0]

    @property
    def graphs(self) -> tuple:
        """The graphs as scipy arrays: each ``WeightMatrix``'s ``W``."""
        return tuple(W.W for W in self._views)

    def __rmatmul__(self, S) -> np.ndarray:
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2 or S.shape[1] != self.shape[0]:
            raise ShapeError(f"cannot apply a {self.shape} graph to {S.shape}")
        # S W_v^k = (W_v^k S^T)^T for symmetric W_v: each product is a CSR
        # times a dense block, with no transpose of the graph.  The CSR
        # product reads the block in C order, so S^T is made C-contiguous once
        St = np.ascontiguousarray(S.T)
        out = None
        for W, c in self._terms:
            t = c[-1] * St
            for ck in c[-2::-1]:
                t = _times_block(W, t)
                if ck:
                    t += ck * St
            if out is None:
                out = _times_block(W, t)
            else:
                out += _times_block(W, t)
        return np.zeros(S.shape) if out is None else out.T


def _times_block(csr, X) -> np.ndarray:
    """W @ X for the CSR arrays of an n x n W and a C-contiguous n x k block X.

    scipy's ``csr_matvecs``, into zeros: the kernel scipy's ``@`` runs
    for several columns.  For one column, where ``@`` runs
    ``csr_matvec``, it adds the same products in the same order, so the
    product has scipy's bits at every k.
    """
    indptr, indices, data = csr
    n, k = X.shape
    out = np.zeros((n, k))
    _sparsetools.csr_matvecs(n, n, k, indptr, indices, data, X.ravel(), out.ravel())
    return out


def _heat_kernel(n: int, rows, cols, dist, sigma, kind: str) -> WeightMatrix:
    """Heat-kernel graph of view ``kind`` over n nodes from edges (rows, cols) at distances dist.

    Resolves sigma="auto" to the median kept distance (1.0 where that is
    0), weights each edge exp(-d^2 / (2 sigma^2)) and symmetrizes by
    elementwise max, with W^T built from the edges with rows and columns
    swapped.  ``sigma`` is "auto" or positive, as ``UnmixParams`` admits;
    the graph records the value used.
    """
    if sigma == "auto":
        # np.median's value, by the partition and mean it runs: its first call
        # imports numpy.ma (16 ms, 1.3 MB), which nothing else here needs
        k, h = (len(dist) - 1) // 2, len(dist) // 2
        med = float(np.mean(np.partition(dist, [k, h])[k : h + 1]))
        sigma = med if med > 0 else 1.0
    w = np.exp(-(dist**2) / (2.0 * sigma**2))
    W, Wt = _edges_to_csr(n, rows, cols, w), _edges_to_csr(n, cols, rows, w)
    return WeightMatrix._from_csr(_maximum(n, W, Wt), kind, float(sigma))


def _edges_to_csr(n: int, rows, cols, w) -> tuple:
    """The CSR arrays of ``csr_array((w, (rows, cols)), shape=(n, n))`` for distinct edges.

    The (row, column) pairs must be distinct, as both edge producers' are.
    ``coo_tocsr`` orders the entries by row, and ``csr_sort_indices`` sorts
    the rows by column where some row is out of order: scipy's canonical
    form.  The indices are int64, the edge lists' type, which scipy keeps.
    """
    rows, cols = (np.asarray(a, dtype=np.int64) for a in (rows, cols))
    w = np.asarray(w, dtype=np.float64)
    indptr, indices, data = np.empty(n + 1, np.int64), np.empty_like(cols), np.empty_like(w)
    _sparsetools.coo_tocsr(n, n, len(w), rows, cols, w, indptr, indices, data)
    if not _sparsetools.csr_has_sorted_indices(n, indptr, indices):
        _sparsetools.csr_sort_indices(n, indptr, indices, data)
    return indptr, indices, data


def _maximum(n: int, A, B) -> tuple:
    """The CSR arrays of the elementwise maximum of canonical n x n A and B: ``csr_maximum_csr``.

    As in scipy's ``A.maximum(B)``, entries that come out 0 are dropped.
    """
    room = len(A[1]) + len(B[1])
    indptr, indices, data = np.empty_like(A[0]), np.empty(room, A[1].dtype), np.empty(room)
    _sparsetools.csr_maximum_csr(n, n, *A, *B, indptr, indices, data)
    return indptr, indices[: indptr[-1]].copy(), data[: indptr[-1]].copy()


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
    for lo, hi in units(height * width):
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
    cut = units(n)
    rows = cut[0][1]  # the first unit is the tallest
    step = min(rows, max(1, _SUB_BLOCK // n))

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

    edges = run_units(unit, cut, buffers)
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
    return _heat_kernel(cube.pixel_count, *edges, params.sigma_s, "spatial")


def spectral_weights(
    cube: HsiCube, params: UnmixParams = UnmixParams(), m: int | None = None
) -> WeightMatrix:
    """Heat-kernel affinity over Euclidean distance between pixel spectra.

    Reads ``params.sigma_l``, ``params.spectral_as_written`` and the
    spectral neighbor count C.  Given an endmember count ``m`` in [1, L]
    (else ``ParamError``), the distances are those between the pixels
    projected onto the top m eigenvectors U of X X^T / N
    (``cube.signal_basis``): the m x N points U^T X, formed under
    ``workers.blas_pinned``, so sigma="auto" is the median kept distance in
    that subspace, and the graph records ``dims`` = m.  Without ``m``, or
    with ``params.spectral_as_written``, they are those between the raw
    L-band spectra, and ``dims`` is None.  The k-NN, its tie rule and its
    units are the same either way.
    """
    c = neighbor_count(params, "spectral", cube.pixel_count)
    if m is not None and not 1 <= m <= cube.band_count:
        raise ParamError(f"endmember count m={m} must lie in [1, L={cube.band_count}]")
    dims = None if m is None or params.spectral_as_written else int(m)
    points = cube.data
    if dims is not None:
        with blas_pinned():
            points = cube.signal_basis[:, :dims].T @ points
    W = _heat_kernel(cube.pixel_count, *_spectral_edges(points, c), params.sigma_l, "spectral")
    W.dims = dims
    return W


def graph_powers(W: WeightMatrix, K: int, normalize: bool = True) -> list:
    """Return [W^1, ..., W^K] as scipy CSR arrays, W^k at index k-1.

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
    cube: HsiCube,
    params: UnmixParams = UnmixParams(),
    orders: list[int] | None = None,
    m: int | None = None,
) -> MultiOrderGraphSet:
    """The spatial and spectral order-1 graphs ``params`` describe, fused at ``orders``.

    ``orders`` defaults to 1..``params.order``; single-order ablation
    variants pass a subset, checked (``_check_orders``) before any graph is built.
    ``m``, the endmember count, puts the spectral view in the cube's
    m-dimensional signal subspace (``spectral_weights``).
    """
    orders = _check_orders(range(1, params.order + 1) if orders is None else orders)
    views = (spatial_weights(cube, params), spectral_weights(cube, params, m))
    return MultiOrderGraphSet(views=views, orders=orders)
