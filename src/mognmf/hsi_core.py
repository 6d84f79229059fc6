"""Core data model for hyperspectral cubes, factor matrices, and file I/O.

Shape conventions used throughout the package:

* ``X`` is L x N (bands x pixels), each column one pixel spectrum.
* Pixel ``j`` sits at grid coordinates ``(j // width, j % width)``;
  this row-major linearization is fixed globally so spatial graphs and
  abundance maps agree on pixel identity.
* Values are never rescaled on load; noise calibration and sparsity
  weights depend on raw magnitudes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import DataError, IoError, ParamError, ParseError, ShapeError
from .workers import blas_pinned

__all__ = [
    "CUBE_FORMATS",
    "HsiCube",
    "UnmixModel",
    "UnmixParams",
    "endmember_count",
    "load_cube",
    "save_cube",
    "save_abundance_maps",
    "read_json_object",
    "read_matrix",
    "write_matrix",
]


@dataclass(frozen=True)
class HsiCube:
    """An L x N hyperspectral image: its pixel grid, second moments and endmember-count rule.

    ``data`` is read-only and a view is copied, but an owned array is kept:
    a view of it taken before the cube was built still writes through to
    ``data`` under the kept ``gram`` and ``signal_basis``.
    """

    data: np.ndarray  # L x N, nonnegative finite reflectance
    height: int
    width: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        # a view is copied: a write through the array it views would change the data
        # under the kept gram and signal_basis
        data = data if data.base is None else data.copy()
        if data.ndim != 2:
            raise ShapeError(f"cube data must be 2-D, got ndim={data.ndim}")
        if not all(_is_integer(n) and n > 0 for n in (self.height, self.width)):
            raise ParamError("height and width must be positive integers")
        if self.height * self.width != data.shape[1]:
            raise ShapeError(f"height*width = {self.height * self.width} does not match "
                             f"pixel count N = {data.shape[1]}")
        if not np.all(np.isfinite(data)):
            l, j = np.argwhere(~np.isfinite(data))[0]
            raise DataError(f"non-finite value at band {l}, pixel {j}")
        if np.any(data < 0):
            l, j = np.argwhere(data < 0)[0]
            raise DataError(f"negative value at band {l}, pixel {j}")
        object.__setattr__(self, "data", data)
        data.setflags(write=False)

    @property
    def band_count(self) -> int:
        return self.data.shape[0]

    @property
    def pixel_count(self) -> int:
        return self.data.shape[1]

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """X X^T, read-only; pinned, as its bits would change with BLAS's thread count."""
        with blas_pinned():
            gram = self.data @ self.data.T
        gram.setflags(write=False)
        return gram

    @functools.cached_property
    def signal_basis(self) -> np.ndarray:
        """The eigenvectors of X X^T / N as columns by descending eigenvalue, read-only."""
        with blas_pinned():
            vals, vecs = np.linalg.eigh(self.gram / self.pixel_count)
        basis = vecs[:, np.argsort(vals)[::-1]]
        basis.setflags(write=False)
        return basis

    def endmember_count(self, M) -> int:
        return endmember_count(M, self.data.shape)


@dataclass(frozen=True)
class UnmixModel:
    """Factor triple (A, S, E) with the solver's objective trace.

    ``objective_trace[i]`` is ||X - A S||_F^2 after outer iteration i+1.
    The optional fields carry solver metadata used for reporting; they
    are None for variants that do not produce them.
    """

    endmembers: np.ndarray  # L x M, >= 0
    abundances: np.ndarray  # M x N, >= 0, columns approximately sum to 1
    noise: np.ndarray  # L x N
    objective_trace: np.ndarray
    fusion: object | None = None  # fusion.FusionState for graph variants
    gamma: float | None = None
    iterations: int = 0
    converged: bool = False

    def __post_init__(self):
        A = np.asarray(self.endmembers, dtype=np.float64)
        S = np.asarray(self.abundances, dtype=np.float64)
        E = np.asarray(self.noise, dtype=np.float64)
        if A.shape[1] != S.shape[0]:
            raise ShapeError("endmember and abundance inner dimensions differ")
        if E.shape != (A.shape[0], S.shape[1]):
            raise ShapeError("noise matrix shape must be L x N")
        if np.any(A < 0) or np.any(S < 0):
            raise DataError("endmembers and abundances must be nonnegative")
        object.__setattr__(self, "endmembers", A)
        object.__setattr__(self, "abundances", S)
        object.__setattr__(self, "noise", E)
        object.__setattr__(
            self, "objective_trace", np.asarray(self.objective_trace, dtype=np.float64)
        )


def _is_integer(k) -> bool:
    """Whether ``k`` is a Python or numpy integer; a bool is none."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def endmember_count(M, shape) -> int:
    """``int(M)`` for an integer M (no bool) in [1, min(L, N)] of an L x N ``shape``."""
    top = min(shape)
    if not _is_integer(M) or not 1 <= M <= top:
        raise ParamError(f"endmember count M must be an integer in [1, min(L, N)={top}], "
                         f"got {M!r}")
    return int(M)


# What each annotation in UnmixParams admits.  bool is not taken for a
# number, and numpy scalars other than float64 (a float) are refused
# because the manifest's JSON config snapshot cannot hold them.
_FIELD_KINDS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "None": lambda v: v is None,
}


def float_square(x) -> float:
    """``x ** 2`` as a float, inf where it overflows (Python's float power raises there)."""
    try:
        return float(x) ** 2
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class UnmixParams:
    """All scalar knobs of the pipeline.

    ``gamma=None`` means "estimate from the data".  ``sigma_s``/``sigma_l``
    accept a positive float or "auto" (median retained neighbor distance).
    ``neighbors_spatial``/``neighbors_spectral`` override ``neighbors``
    per view when set.  For an endmember count M the spectral graph is
    built on the pixels projected onto the top M eigenvectors of X X^T / N
    (``graph.spectral_weights``); ``spectral_as_written=True`` builds it
    over the L raw bands, as the paper writes it.  Every float is finite.
    The solver squares delta, the heat kernel sigma and the fusion 1 + mu, so each of those squares
    must be finite too: delta, a numeric sigma and mu are below about
    1.34e154 (the square root of the largest float).  The heat kernel
    divides by sigma^2, so a numeric sigma is also above about 1.6e-162,
    where its square underflows to 0.
    """

    gamma: float | None = None
    beta: float = 1.5
    lam: float = 0.05
    mu: float = 0.1
    alpha: float = 0.1
    delta: float = 15.0
    order: int = 3  # graph order K
    neighbors: int = 10  # k-NN count C
    neighbors_spatial: int | None = None
    neighbors_spectral: int | None = None
    sigma_s: float | str = "auto"
    sigma_l: float | str = "auto"
    eps1: float = 1e-4
    eps2: float = 1e-6
    t1: int = 3000
    t2: int = 50
    seed: int = 0
    gamma_as_written: bool = False
    absolute_eps1: bool = False
    order_norm: bool = True
    spectral_as_written: bool = False

    def __post_init__(self):
        # types first, from the annotation strings: a config file can hold any JSON value
        for f in fields(self):
            value = getattr(self, f.name)
            if not any(_FIELD_KINDS[kind](value) for kind in f.type.split(" | ")):
                raise ParamError(f"{f.name} must be {f.type}, got {value!r}")
        # the chained bounds also reject NaN, which fails every comparison
        if self.gamma is not None and not 0 <= self.gamma < np.inf:
            raise ParamError("gamma must be nonnegative and finite")
        for name in ("beta", "lam", "mu"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ParamError(f"{name} must be nonnegative and finite")
        for name in ("alpha", "delta", "sigma_s", "sigma_l", "eps1", "eps2"):
            value = getattr(self, name)
            if name.startswith("sigma") and isinstance(value, str):
                if value != "auto":
                    raise ParamError(f'{name} must be positive or "auto"')
            elif not 0 < value < np.inf:
                raise ParamError(f"{name} must be positive and finite")
        # the solver squares delta, the heat kernel sigma and the fusion 1 + mu
        for name, base in (("delta", self.delta), ("sigma_s", self.sigma_s),
                           ("sigma_l", self.sigma_l), ("mu", 1.0 + self.mu)):
            if base == "auto":
                continue
            square = float_square(base)
            if square == np.inf:
                raise ParamError(f"{name} must be below about 1.34e154, whose square overflows")
            # the heat kernel divides by sigma^2
            if name.startswith("sigma") and square == 0.0:
                raise ParamError(f"{name} must be above about 1.6e-162, whose square underflows")
        for name in ("order", "neighbors", "neighbors_spatial", "neighbors_spectral", "t1", "t2"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ParamError(f"{name} must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ParamError("seed must be in [0, 2^64)")

    def replace(self, **changes) -> "UnmixParams":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """All fields by name, with ``lam`` spelled ``"lambda"``."""
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "UnmixParams":
        if not isinstance(d, dict):
            raise ParamError(f"parameters must be a JSON object, got {d!r}")
        d = dict(d)
        if "lambda" in d:
            if "lam" in d:
                raise ParamError("parameters give both 'lam' and 'lambda'")
            d["lam"] = d.pop("lambda")
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ParamError(f"unknown parameter(s): {sorted(unknown)}")
        return cls(**d)


# write_matrix's encoder.  One value is six little-endian 8-byte words,
# whose NUL bytes are dropped afterwards.  Word 0 holds the sign, the
# "0.000" of a fixed-point value below 1, the first digit and a point
# slot; words 1-4 hold digits 2-17, each followed by a point slot; word 5
# holds "e", the exponent's sign and three digits, and the delimiter.
_CHUNK = 4096  # values encoded at a time
_POW_LO, _POW_HI = -186, 218  # the scales 10^p that values in [1e-200, 1e200] need
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _words(rows) -> np.ndarray:
    """uint8 rows of 8k bytes as k little-endian words each."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8")


def _pow10(p: int) -> tuple[float, float]:
    """10^p as hi + lo, each correctly rounded (Python's int division is)."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


@functools.cache
def _encoder_tables():
    """10^p as hi+lo pairs (hi split in halves), and the encoder's digit words and templates.

    Built on the first write, not at import.
    """
    hi, lo = np.array([_pow10(p) for p in range(_POW_LO, _POW_HI + 1)]).T
    # the first digit, a 4-digit group and an exponent as words that are
    # 0xFF outside their digits, so a bitwise and keeps the template there
    lead = np.full((10, 8), 0xFF, np.uint8)
    lead[:, 6] = np.arange(10) + 48
    g = np.arange(10000)
    quad = np.full((10000, 8), 0xFF, np.uint8)
    quad[:, ::2] = np.stack([g // 10**k % 10 for k in (3, 2, 1, 0)], axis=1) + 48
    trailing = np.zeros(10000, np.int64)  # a group's trailing zeros, 4 for 0
    for k in (1, 2, 3, 4):
        trailing[g % 10**k == 0] = k
    e = np.arange(400)
    expo = np.full((400, 8), 0xFF, np.uint8)
    expo[:, 2:5] = np.stack([e // 100, e // 10 % 10, e % 10], axis=1) + 48
    # one template per layout and significant digit count s.  Layouts 0-20
    # are fixed point at decimal exponents -4..16; 21-24 are the exponent
    # form, negative then positive, with two and then three exponent
    # digits.  0xFF marks the digit slots shown
    templates = np.zeros((25, 17, 48), np.uint8)
    for layout in range(25):
        for s in range(1, 18):
            t = templates[layout, s - 1]
            if layout < 21:
                x10 = layout - 4
                shown = max(s, x10 + 1)
                if x10 < 0:
                    t[1:2 - x10] = np.frombuffer(b"0." + b"0" * (-x10 - 1), np.uint8)
                elif s > x10 + 1:
                    t[7 + 2 * x10] = ord(".")
            else:
                shown = s
                if s > 1:
                    t[7] = ord(".")
                t[40:42] = np.frombuffer(b"e-" if layout < 23 else b"e+", np.uint8)
                t[42 + layout % 2:45] = 0xFF
            t[6:6 + 2 * shown:2] = 0xFF
    return (hi, _split(hi), lo, _words(lead)[:, 0], _words(quad)[:, 0], trailing,
            _words(expo)[:, 0], _words(templates.reshape(-1, 48)))


def _scaled(ax, x10):
    """ax 10^(16 - x10) as prod + tail, its nearest integer n, and the distance to n.

    prod is ax times 10^p's hi part, rounded; tail is that rounding's
    error, exact by Dekker's two-product, plus ax times 10^p's lo part.
    So prod + tail is the product to about 2^-104, relative.
    """
    hi, (hh, hl), lo, *_ = _encoder_tables()
    p = 16 - x10 - _POW_LO
    bh, bl = hh[p], hl[p]
    ah, al = _split(ax)
    prod = ax * hi[p]
    tail = (((ah * bh - prod) + ah * bl + al * bh) + al * bl) + ax * lo[p]
    whole = np.rint(tail)
    return prod, tail, prod.astype(np.int64) + whole.astype(np.int64), tail - whole


def _encode(x: np.ndarray, delims: np.ndarray) -> bytes:
    """``"%.17g" % v`` of each value in ``x``, each followed by its delimiter word.

    A value's 17 significant digits are n = round(|v| 10^(16 - x10)),
    10^16 <= n < 10^17, at its decimal exponent x10.  A value that is not
    0 and not certified (within 1e-6 of a rounding tie, or |v| outside
    [1e-200, 1e200], nan or inf) is formatted by Python.
    """
    *_, lead, quad, trailing, expo, templates = _encoder_tables()
    ax = np.abs(x)
    zero = ax == 0
    certain = (ax >= 1e-200) & (ax <= 1e200)
    ax = np.where(certain, ax, 1.0)
    x10 = np.floor(np.log10(ax)).astype(np.int64)
    prod, tail, n, frac = _scaled(ax, x10)
    # log10 can miss the decimal exponent by one, and rounding up can reach 10^17
    off = (prod < 1e16) | ((prod == 1e16) & (tail < 0)) | (n >= 10**17)
    if off.any():
        x10[off] += np.where(n[off] >= 10**17, 1, -1)
        _, _, n[off], frac[off] = _scaled(ax[off], x10[off])
    certain &= (n >= 10**16) & (n < 10**17) & (np.abs(np.abs(frac) - 0.5) > 1e-6)
    n[~certain], x10[~certain] = 0, 0  # a zero's digits; the others are overwritten
    top, low = np.divmod(n, 10**8)
    first, top = np.divmod(top, 10**8)
    groups = [*np.divmod(top, 10**4), *np.divmod(low, 10**4)]
    tz = trailing[groups[3]]
    for k in (2, 1, 0):
        tz += (tz == 4 * (3 - k)) * trailing[groups[k]]
    fixed = (x10 >= -4) & (x10 < 17)
    layout = np.where(fixed, x10 + 4, 21 + 2 * (x10 > 0) + (np.abs(x10) >= 100))
    words = np.take(templates, layout * 17 + 16 - tz, axis=0)
    words[:, 0] &= lead[first]
    words[:, 0] |= np.signbit(x) * np.uint64(ord("-"))
    for k, group in enumerate(groups):
        words[:, 1 + k] &= quad[group]
    words[:, 5] &= expo[np.abs(x10)]
    words[:, 5] |= delims
    raw = words.view(np.uint8)
    for i in np.flatnonzero(~certain & ~zero):
        text = b"%.17g" % x[i]
        raw[i, :45] = 0
        raw[i, :len(text)] = np.frombuffer(text, np.uint8)
    return raw.tobytes().translate(None, b"\0")


def write_matrix(target, matrix: np.ndarray) -> None:
    """Write ``matrix`` to a path or open text file: one comma-delimited row per line.

    The bytes are those of ``np.savetxt(target, matrix, fmt="%.17g",
    delimiter=",")``, and a 1-D matrix is a column.  ``%.17g`` round-trips
    every float64: ``read_matrix`` returns the same bits.  The values are
    encoded by numpy, about 4k at a time (``_encode``); a matrix that is
    not 1-D or 2-D raises ShapeError before anything is opened.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim not in (1, 2):
        raise ShapeError(f"a matrix to write must be 1-D or 2-D, got ndim={matrix.ndim}")
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    rows, cols = matrix.shape
    newline, comma = (np.uint64(ord(c)) << np.uint64(40) for c in "\n,")
    try:
        with contextlib.ExitStack() as stack:
            fh = target if hasattr(target, "write") else stack.enter_context(open(target, "w"))
            if cols == 0:
                fh.write("\n" * rows)
            # row-major runs of values, each copied out of the matrix
            for a in range(0, matrix.size, _CHUNK):
                part = matrix.flat[a:a + _CHUNK]
                ends = np.arange(a, a + part.size) % cols == cols - 1
                fh.write(_encode(part, np.where(ends, newline, comma)).decode("ascii"))
    except OSError as exc:
        raise IoError(f"failed to write {target}: {exc}") from exc


def read_matrix(source, name=None) -> np.ndarray:
    """The 2-D array ``write_matrix`` wrote, from a path or an iterable of lines.

    A one-column file reads as a column; ``name`` labels ``source`` in
    errors.  Raises IoError when the file cannot be opened and
    ParseError when it holds no row, or a row is not numeric or ragged.
    """
    name = name or source
    try:
        with warnings.catch_warnings():
            # loadtxt warns, and returns an empty array, on input without rows
            warnings.simplefilter("error", UserWarning)
            return np.loadtxt(source, delimiter=",", dtype=np.float64, ndmin=2)
    except OSError as exc:
        raise IoError(f"cannot read {name}: {exc}") from exc
    except (ValueError, UserWarning) as exc:
        raise ParseError(f"{name} is not a numeric CSV: {exc}") from exc


def read_json_object(path, *required: str) -> dict:
    """The JSON object in file ``path``; ParseError unless it holds every ``required`` key."""
    try:
        value = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path} as JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ParseError(f"{path} must hold a JSON object")
    missing = [key for key in required if key not in value]
    if missing:
        raise ParseError(f"{path} has no {', '.join(map(repr, missing))} field")
    return value


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def load_cube(path, format: str = "raw-f32") -> HsiCube:
    """Load a cube from disk.

    Formats (the keys of ``CUBE_FORMATS``):
      * ``raw-f32``: little-endian float32 binary, band-major, with a
        JSON sidecar ``<path>.json`` holding {"bands", "height", "width"}.
      * ``csv``: first line ``L,H,W``; then the L x N matrix as
        ``write_matrix`` writes it.

    Values are read verbatim; no rescaling is applied.  A path that
    cannot be read as a file (a directory, say) raises IoError.
    """
    path = Path(path)
    if not path.exists():
        raise IoError(f"cube file not found: {path}")
    load, _ = _codec(format)
    try:
        return load(path)
    except OSError as exc:
        raise IoError(f"cannot read cube file {path}: {exc}") from exc


def _codec(format: str):
    """The (load, save) pair of cube format ``format``."""
    if format not in CUBE_FORMATS:
        raise ParamError(f"unknown cube format: {format!r}")
    return CUBE_FORMATS[format]


def _load_raw(path: Path) -> HsiCube:
    header = read_json_object(_sidecar_path(path), "bands", "height", "width")
    bands, height, width = dims = [header[key] for key in ("bands", "height", "width")]
    if not all(_FIELD_KINDS["int"](v) and v > 0 for v in dims):  # bool and 3.0 are no dimensions
        raise ParseError(f"sidecar bands/height/width must be positive JSON integers, got {dims}")
    raw = np.fromfile(path, dtype="<f4")
    n = height * width
    if raw.size != bands * n:
        raise ParseError(f"binary holds {raw.size} floats, header implies {bands * n}")
    # cast after the reshape, so the cube gets an array of its own and copies none
    return HsiCube(data=raw.reshape(bands, n).astype(np.float64), height=height, width=width)


def _load_csv(path: Path) -> HsiCube:
    with open(path, "r") as fh:
        head = fh.readline()
        try:
            bands, height, width = (int(tok) for tok in head.split(","))
        except ValueError as exc:
            raise ParseError(f"header must be 'L,H,W' integers, got {head.strip()!r}") from exc
        if bands <= 0 or height <= 0 or width <= 0:
            raise ParseError("header dimensions must be positive")
        data = read_matrix(fh, name=path)
    if data.shape != (bands, height * width):
        raise ParseError(f"header declares {bands} x {height * width}, body is {data.shape}")
    return HsiCube(data=data, height=height, width=width)


def _save_raw(cube: HsiCube, path: Path) -> None:
    # int(): a numpy height or width would not go into JSON
    header = {"bands": cube.band_count, "height": int(cube.height), "width": int(cube.width)}
    _sidecar_path(path).write_text(json.dumps(header, sort_keys=True))
    cube.data.astype("<f4").tofile(path)


def _save_csv(cube: HsiCube, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{cube.band_count},{cube.height},{cube.width}\n")
        write_matrix(fh, cube.data)


# every cube format, by name: its loader and its writer
CUBE_FORMATS = {"raw-f32": (_load_raw, _save_raw), "csv": (_load_csv, _save_csv)}


def save_cube(cube: HsiCube, path, format: str = "raw-f32") -> None:
    """Write a cube to disk in the given format (see load_cube)."""
    path = Path(path)
    _, save = _codec(format)
    try:
        save(cube, path)
    except OSError as exc:
        raise IoError(f"failed to write {path}: {exc}") from exc


def save_abundance_maps(S: np.ndarray, height: int, width: int, out_dir) -> list[Path]:
    """Write one 8-bit grayscale PGM per abundance row.

    Pixel value is round(255 * clamp(s, 0, 1)); layout is the package's
    row-major pixel convention.  Returns the written paths.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[1] != height * width:
        raise ShapeError("abundance matrix must be M x (height*width)")
    if np.any(S < 0):
        raise DataError("abundances must be nonnegative")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    paths = []
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    for m, row in enumerate(S):
        levels = np.rint(255.0 * np.clip(row, 0.0, 1.0)).astype(np.uint8)
        path = out_dir / f"abundance_{m:02d}.pgm"
        try:
            with open(path, "wb") as fh:
                fh.write(header)
                fh.write(levels.tobytes())
        except OSError as exc:
            raise IoError(f"failed to write {path}: {exc}") from exc
        paths.append(path)
    return paths
