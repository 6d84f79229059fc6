"""Synthetic scene generation: smooth abundance fields, LMM mixing,
SNR-calibrated noise, and a deterministic pure-patch layout.

Two scene families are provided.  The random-field family draws each
endmember's abundance from a Gaussian random field with squared-
exponential covariance on the pixel grid and pushes the fields through
a per-pixel softmax, giving smooth simplex-valued maps.  The layout
family tiles pure square patches (one per material) over a smoothly
mixed background, guaranteeing at least one pure pixel per endmember.

All generator parameters end up in the scene manifest so results can be
regenerated exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, IoError, ParamError, ParseError, ShapeError
from .hsi_core import HsiCube, _is_integer, float_square, read_matrix
from .rng import substream
from .workers import blas_pinned

__all__ = [
    "SpectralLibrary",
    "SyntheticScene",
    "load_library",
    "synthetic_library",
    "generate_abundances",
    "mix_lmm",
    "power_ratio",
    "add_noise_at_snr",
    "build_simu1_scene",
    "build_simu2_layout",
    "PRESETS",
]

log = logging.getLogger(__name__)

# the scene families, by the name ``mognmf simulate --preset`` takes
PRESETS = ("simu1", "simu2")

# synthetic library: the range every entry is rescaled into, and the
# weight of the continuum all entries share
_FLOOR, _CEILING = 0.35, 0.95
_FAMILY_CORRELATION = 0.5
# the scale of the random fields before the softmax (generate_abundances)
_GAIN = 5.0


@dataclass(frozen=True)
class SpectralLibrary:
    """Named reference spectra, stored as an L x P matrix (one column each)."""

    names: tuple
    spectra: np.ndarray

    def __post_init__(self):
        spectra = np.asarray(self.spectra, dtype=np.float64)
        if spectra.ndim != 2:
            raise ShapeError("library spectra must be L x P")
        if len(self.names) != spectra.shape[1]:
            raise ShapeError("one name per library column required")
        if len(set(self.names)) != len(self.names):
            raise DataError("library names must be distinct")
        if np.any(spectra < 0):
            raise DataError("library spectra must be nonnegative")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "spectra", spectra)

    @property
    def entry_count(self) -> int:
        return self.spectra.shape[1]


@dataclass(frozen=True)
class SyntheticScene:
    """A simulated cube with its ground truth.

    The noise-free mixture is ``mix_lmm(A_true, S_true)``; ``clamp_fraction``
    is the share of the cube's entries that noise drove below zero and
    ``add_noise_at_snr`` clamped (0 for a noiseless scene).
    """

    cube: HsiCube
    A_true: np.ndarray
    S_true: np.ndarray
    endmember_names: tuple
    clamp_fraction: float

    def __post_init__(self):
        sums = self.S_true.sum(axis=0)
        if np.any(self.S_true < 0) or np.max(np.abs(sums - 1.0)) > 1e-9:
            raise DataError("true abundances must lie on the simplex")


def load_library(path) -> SpectralLibrary:
    """Read a library CSV: one row per entry, a name field and then its L values.

    The values after the name are numeric CSV, read by ``read_matrix``.
    Raises IoError when ``path`` cannot be read as a file.
    """
    path = Path(path)
    try:
        with open(path, "r") as fh:
            entries = [line.split(",", 1) for line in fh if line.strip()]
    except OSError as exc:
        raise IoError(f"cannot read library file {path}: {exc}") from exc
    if any(len(entry) < 2 or not entry[1].strip() for entry in entries):
        raise ParseError(f"{path}: every entry needs a name and spectra")
    spectra = read_matrix((values for _, values in entries), name=path)
    return SpectralLibrary(names=tuple(name.strip() for name, _ in entries), spectra=spectra.T)


def synthetic_library(
    band_count: int = 100,
    entries: int = 8,
    seed: int = 0,
) -> SpectralLibrary:
    """Procedural stand-in for a mineral library.

    Entries share one smooth continuum, weighted 0.5 against their own
    few absorption/reflection features, which reproduces the high mutual
    correlation of real mineral spectra (mutual angles of roughly
    0.1-0.4 rad).  Each entry is rescaled into the fixed range
    [0.35, 0.95]; the floor keeps mixed reflectances away from zero so
    additive noise rarely drives values negative.
    """
    if entries < 1 or band_count < 2:
        raise ParamError("library needs >= 1 entry and >= 2 bands")
    rng = substream(seed, "library")
    grid = np.linspace(0.0, 1.0, band_count)

    def bumps(count_lo, count_hi, width_lo, width_hi):
        curve = np.zeros(band_count)
        for _ in range(int(rng.integers(count_lo, count_hi + 1))):
            c = rng.uniform(0.0, 1.0)
            w = rng.uniform(width_lo, width_hi)
            h = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
            curve += h * np.exp(-((grid - c) ** 2) / (2.0 * w**2))
        return curve

    base = bumps(3, 5, 0.15, 0.4)
    base = (base - base.min()) / max(np.ptp(base), 1e-12)
    spectra = np.empty((band_count, entries))
    for p in range(entries):
        own = bumps(2, 4, 0.03, 0.12)
        span = max(np.abs(own).max(), 1e-12)
        curve = _FAMILY_CORRELATION * base + (1.0 - _FAMILY_CORRELATION) * (own / span)
        lo, hi = curve.min(), curve.max()
        spectra[:, p] = _FLOOR + (_CEILING - _FLOOR) * (curve - lo) / max(hi - lo, 1e-12)
    names = tuple(f"material_{p:02d}" for p in range(entries))
    return SpectralLibrary(names=names, spectra=spectra)


def scene_endmember_count(M) -> int:
    """A scene's endmember count: ``int(M)`` for an integer M >= 2, no bool; else ParamError."""
    if not _is_integer(M) or M < 2:
        raise ParamError(f"a scene's endmember count M must be an integer >= 2, got {M!r}")
    return int(M)


def _rbf_cholesky(n: int, smoothness: float) -> np.ndarray:
    coords = np.arange(n, dtype=np.float64)
    d2 = (coords[:, None] - coords[None, :]) ** 2
    cov = np.exp(-d2 / (2.0 * smoothness**2))
    cov[np.diag_indices(n)] += 1e-10  # jitter for positive definiteness
    return np.linalg.cholesky(cov)


@blas_pinned()
def generate_abundances(
    height: int,
    width: int,
    M: int,
    smoothness: float = 4.0,
    seed: int = 0,
) -> np.ndarray:
    """M simplex-valued abundance maps (``scene_endmember_count``) from smooth Gaussian fields.

    The squared-exponential covariance on the grid factorizes over rows
    and columns, so each field is sampled exactly as L_r Z L_c^T with Z
    i.i.d. standard normal.  Fields are scaled by a fixed gain of 5,
    exponentiated, and normalized per pixel (softmax).  The gain
    sharpens the maps so each material dominates somewhere (near-pure
    regions, as in real land cover); a gain near 1 would mix them heavily.
    ``smoothness`` (the covariance length in pixels) must be positive and
    finite, and its square finite and nonzero: a value from about
    1.34e154 up, or below about 1.5e-162, raises ParamError.
    OpenBLAS is held at one thread (``workers.blas_pinned``): from about
    100x100 pixels the Cholesky products change bits with its thread count.
    """
    if height < 1 or width < 1:
        raise ParamError("height and width must be positive")
    M = scene_endmember_count(M)
    # the kernel divides by 2 smoothness^2; the chained bound also rejects NaN
    if not (smoothness > 0 and 0 < float_square(smoothness) < np.inf):
        raise ParamError(f"smoothness must be positive and finite, got {smoothness!r}")
    chol_r = _rbf_cholesky(height, smoothness)
    chol_c = _rbf_cholesky(width, smoothness)
    fields = np.empty((M, height * width))
    for m in range(M):
        z = substream(seed, "field", m).standard_normal((height, width))
        fields[m] = (chol_r @ z @ chol_c.T).ravel()
    fields *= _GAIN
    fields -= fields.max(axis=0, keepdims=True)  # stabilize the softmax
    S = np.exp(fields)
    S /= S.sum(axis=0, keepdims=True)
    return S


@blas_pinned()
def mix_lmm(A_true: np.ndarray, S_true: np.ndarray) -> np.ndarray:
    """Noise-free linear mixture A S; OpenBLAS is held at one thread for time, not bits."""
    A_true = np.asarray(A_true, dtype=np.float64)
    S_true = np.asarray(S_true, dtype=np.float64)
    if A_true.ndim != 2 or S_true.ndim != 2 or A_true.shape[1] != S_true.shape[0]:
        raise ShapeError(
            f"cannot mix endmembers {A_true.shape} with abundances {S_true.shape}"
        )
    return A_true @ S_true


def power_ratio(target_snr_db: float) -> float:
    """The signal-to-noise power ratio 10^(snr/10) of a target SNR in dB.

    ParamError unless it is finite and positive: not for an infinite or
    NaN target, nor beyond about +-3080 dB, where it overflows or underflows.
    """
    try:
        ratio = 10.0 ** (float(target_snr_db) / 10.0)
    except OverflowError:
        ratio = np.inf
    if not 0.0 < ratio < np.inf:  # false for a NaN target too
        raise ParamError(f"target SNR {target_snr_db:g} dB gives no finite positive noise power")
    return ratio


def add_noise_at_snr(
    clean: np.ndarray,
    target_snr_db: float,
    seed: int = 0,
):
    """Add white Gaussian noise scaled exactly to the target SNR.

    The returned noise achieves the target before clamping; the noisy
    cube is clamped at zero (reflectance cannot be negative) and the
    clamped fraction is logged because it perturbs the effective SNR.
    Returns (noisy, noise).  Any target with a finite positive noise
    power is accepted; one without (``power_ratio``'s rule, or a signal
    power that the ratio takes out of range) raises ParamError.
    """
    noisy, noise, _ = _noisy_and_clamped(clean, target_snr_db, seed)
    return noisy, noise


def _noisy_and_clamped(clean, target_snr_db, seed):
    """``add_noise_at_snr``'s (noisy, noise) and the fraction of entries clamped."""
    clean = np.asarray(clean, dtype=np.float64)
    p_signal = float(np.sum(clean**2))
    if p_signal == 0.0:
        raise DataError("cannot calibrate noise against an all-zero signal")
    p_noise_target = p_signal / power_ratio(target_snr_db)
    if not 0.0 < p_noise_target < np.inf:
        raise ParamError(f"target SNR {target_snr_db:g} dB gives no finite positive noise power")
    noise = substream(seed, "noise").standard_normal(clean.shape)
    noise *= np.sqrt(p_noise_target / np.sum(noise**2))
    noisy = clean + noise
    frac = float(np.mean(noisy < 0))
    if frac > 0:
        log.info("clamped %.4f%% of entries at zero after noise injection", 100 * frac)
        np.maximum(noisy, 0.0, out=noisy)
    return noisy, noise, frac


def _pick_endmembers(library: SpectralLibrary, M: int, seed: int):
    if library.entry_count < M:
        raise DataError(
            f"library holds {library.entry_count} entries, {M} requested"
        )
    rng = substream(seed, "endmembers")
    chosen = np.sort(rng.choice(library.entry_count, size=M, replace=False))
    names = tuple(library.names[int(i)] for i in chosen)
    return library.spectra[:, chosen].copy(), names


def _assemble_scene(library, M, height, width, S_true, target_snr_db, seed):
    A_true, names = _pick_endmembers(library, M, seed)
    data, frac = mix_lmm(A_true, S_true), 0.0
    if target_snr_db is not None:
        data, _, frac = _noisy_and_clamped(data, target_snr_db, seed)
    return SyntheticScene(
        cube=HsiCube(data=data, height=height, width=width),
        A_true=A_true,
        S_true=S_true,
        endmember_names=names,
        clamp_fraction=frac,
    )


def build_simu1_scene(
    library: SpectralLibrary,
    M: int = 4,
    height: int = 64,
    width: int = 64,
    smoothness: float = 4.0,
    target_snr_db: float | None = 30.0,
    seed: int = 0,
) -> SyntheticScene:
    """Random-field scene: library endmembers mixed by smooth GRF abundances."""
    S_true = generate_abundances(height, width, M, smoothness=smoothness, seed=seed)
    return _assemble_scene(library, M, height, width, S_true, target_snr_db, seed)


def build_simu2_layout(
    library: SpectralLibrary,
    M: int = 4,
    height: int = 64,
    width: int = 64,
    target_snr_db: float | None = None,
    seed: int = 0,
) -> SyntheticScene:
    """Deterministic layout: M pure square patches (``scene_endmember_count``) over a gradient.

    Patches sit on a ceil(sqrt(M)) cell grid, one per endmember, with
    abundance exactly one inside; background pixels mix all endmembers
    with weights decaying smoothly with distance to each patch center.
    Guarantees at least one pure pixel per endmember.  Cells under 3 pixels
    on a side raise ParamError, ahead of DataError for a library under M entries.
    """
    M = scene_endmember_count(M)
    cells = int(np.ceil(np.sqrt(M)))
    cell_h, cell_w = height / cells, width / cells
    if min(cell_h, cell_w) < 3:
        raise ParamError("grid too small for the requested number of patches")
    cu, cv = np.divmod(np.arange(M), cells)
    centers = np.stack([(cu + 0.5) * cell_h, (cv + 0.5) * cell_w], axis=1)

    u, v = np.divmod(np.arange(height * width), width)
    coords = np.stack([u, v], axis=1).astype(np.float64)
    d = np.sqrt(np.sum((coords[:, None, :] - centers[None, :, :]) ** 2, axis=2))
    tau = max(height, width) / 4.0
    S_true = np.exp(-d / tau).T
    S_true /= S_true.sum(axis=0, keepdims=True)

    # a patch reaches half <= side / 4 past its center, which sits mid-cell:
    # it lies inside its own cell, so no slice starts below 0 or ends past the grid
    half = int(min(cell_h, cell_w)) // 4
    grid = S_true.T.reshape(height, width, M)  # a view: S_true.T is C-ordered
    for m, (cu, cv) in enumerate(centers.astype(int)):
        patch = grid[cu - half:cu + half + 1, cv - half:cv + half + 1]
        patch[...] = 0.0
        patch[..., m] = 1.0

    return _assemble_scene(library, M, height, width, S_true, target_snr_db, seed)
