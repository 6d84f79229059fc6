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

import json
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import DataError, IoError, ParamError, ParseError, ShapeError

__all__ = [
    "CUBE_FORMATS",
    "HsiCube",
    "UnmixModel",
    "UnmixParams",
    "load_cube",
    "save_cube",
    "save_abundance_maps",
    "read_json_object",
    "read_matrix",
    "write_matrix",
]


@dataclass(frozen=True)
class HsiCube:
    """A hyperspectral image as an L x N matrix plus its pixel grid."""

    data: np.ndarray  # L x N, nonnegative finite reflectance
    height: int
    width: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ShapeError(f"cube data must be 2-D, got ndim={data.ndim}")
        if self.height <= 0 or self.width <= 0:
            raise ParamError("height and width must be positive")
        if self.height * self.width != data.shape[1]:
            raise ShapeError(
                f"height*width = {self.height * self.width} does not match "
                f"pixel count N = {data.shape[1]}"
            )
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


@dataclass(frozen=True)
class UnmixParams:
    """All scalar knobs of the pipeline.

    ``gamma=None`` means "estimate from the data".  ``sigma_s``/``sigma_l``
    accept a positive float or "auto" (median retained neighbor distance).
    ``neighbors_spatial``/``neighbors_spectral`` override ``neighbors``
    per view when set.
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
        if self.order < 1:
            raise ParamError("graph order must be >= 1")
        for name in ("neighbors", "neighbors_spatial", "neighbors_spectral"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ParamError(f"{name} must be >= 1")
        if self.t1 < 1 or self.t2 < 1:
            raise ParamError("iteration caps t1, t2 must be >= 1")

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


def write_matrix(target, matrix: np.ndarray) -> None:
    """Write a 2-D ``matrix`` to a path or open text file: one comma-delimited row per line.

    ``%.17g`` round-trips every float64: ``read_matrix`` returns the same bits.
    """
    try:
        np.savetxt(target, matrix, delimiter=",", fmt="%.17g")
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
    try:
        bands, height, width = (int(header[key]) for key in ("bands", "height", "width"))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"sidecar must carry integer bands/height/width: {exc}") from exc
    if bands <= 0 or height <= 0 or width <= 0:
        raise ParseError("sidecar dimensions must be positive")
    raw = np.fromfile(path, dtype="<f4")
    n = height * width
    if raw.size != bands * n:
        raise ParseError(
            f"binary holds {raw.size} floats, header implies {bands * n}"
        )
    data = raw.astype(np.float64).reshape(bands, n)
    return HsiCube(data=data, height=height, width=width)


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
    header = {"bands": cube.band_count, "height": cube.height, "width": cube.width}
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
