"""Unmixing evaluation: SAD, RMSE, optimal endmember matching, SNR.

Estimated factors carry a permutation ambiguity, so all reported
numbers go through an optimal assignment between true and estimated
endmembers first; the same permutation is then applied to abundance
rows before RMSE.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ShapeError

__all__ = ["EvalReport", "sad", "rmse", "match_endmembers", "measure_snr", "evaluate_model"]


@dataclass(frozen=True)
class EvalReport:
    """Per-endmember SAD (radians), mean SAD, abundance RMSE, matching."""

    per_endmember_sad: np.ndarray
    mean_sad: float
    rmse: float
    permutation: np.ndarray  # permutation[i] = estimate index matched to truth i

    def to_dict(self) -> dict:
        return {
            "per_endmember_sad": [float(v) for v in self.per_endmember_sad],
            "mean_sad": float(self.mean_sad),
            "rmse": float(self.rmse),
            "permutation": [int(v) for v in self.permutation],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def sad(a: np.ndarray, a_hat: np.ndarray) -> float:
    """Spectral angle distance arccos(a.a_hat / (|a||a_hat|)), in [0, pi].

    Evaluated through the chord length between the normalized spectra
    (2 asin(|a/|a| - b/|b||/2)), which is exact at zero angle where the
    arccos form loses half its digits.  Raises MetricError for a zero
    spectrum or one holding a NaN or infinite entry.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    a_hat = np.asarray(a_hat, dtype=np.float64).ravel()
    if a.shape != a_hat.shape:
        raise ShapeError("spectra must have equal length")
    _require_finite(spectra=(a, a_hat))
    na, nb = np.linalg.norm(a), np.linalg.norm(a_hat)
    if na == 0 or nb == 0:
        raise MetricError("SAD is undefined for a zero spectrum")
    chord = np.linalg.norm(a / na - a_hat / nb)
    return float(2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0)))


def rmse(S: np.ndarray, S_hat: np.ndarray) -> float:
    """Root mean square abundance error sqrt(mean_j ||s_j - s_hat_j||^2).

    Raises ShapeError unless both are M x N matrices of one shape with
    N >= 1, and MetricError when either holds a NaN or infinite entry.
    """
    S = np.asarray(S, dtype=np.float64)
    S_hat = np.asarray(S_hat, dtype=np.float64)
    if S.shape != S_hat.shape:
        raise ShapeError(f"abundance shapes differ: {S.shape} vs {S_hat.shape}")
    if S.ndim != 2 or S.shape[1] == 0:
        raise ShapeError(f"abundances must be M x N with N >= 1, got shape {S.shape}")
    _require_finite(abundances=(S, S_hat))
    n = S.shape[1]
    return float(np.sqrt(np.sum((S - S_hat) ** 2) / n))


def match_endmembers(A_true: np.ndarray, A_est: np.ndarray):
    """Optimal assignment between true and estimated endmember columns.

    Minimizes total SAD over all bijections (Hungarian algorithm).
    Returns (permutation, matched_sad) where permutation[i] is the
    estimate column assigned to truth column i.  Raises MetricError
    when either matrix holds a NaN or infinite entry.
    """
    A_true = np.asarray(A_true, dtype=np.float64)
    A_est = np.asarray(A_est, dtype=np.float64)
    if A_true.shape != A_est.shape:
        raise ShapeError("endmember matrices must share shape")
    _require_finite(true_endmembers=A_true, estimated_endmembers=A_est)
    m = A_true.shape[1]
    cost = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            cost[i, j] = sad(A_true[:, i], A_est[:, j])
    perm = _assign(cost)
    matched = cost[np.arange(m), perm]
    return perm, matched


def _assign(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect matching of a square cost matrix: perm[i] is row i's column.

    The O(m^3) shortest augmenting path form of the Hungarian method
    (Kuhn-Munkres with Jonker-Volgenant potentials): row i joins
    through a Dijkstra search over reduced costs, and the potentials
    u, v keep every reduced cost nonnegative.
    """
    m = cost.shape[0]
    c = cost.tolist()
    u = [0.0] * m
    v = [0.0] * m
    owner = [-1] * (m + 1)  # row matched to each column; column m is the search root
    for i in range(m):
        owner[m] = i
        col = m
        dist = [float("inf")] * m
        prev = [m] * m
        done = [False] * m
        while True:
            row = owner[col]
            step, nxt = float("inf"), -1
            for j in range(m):
                if not done[j]:
                    reduced = c[row][j] - u[row] - v[j]
                    if reduced < dist[j]:
                        dist[j], prev[j] = reduced, col
                    if dist[j] < step:
                        step, nxt = dist[j], j
            for j in range(m):
                if done[j]:
                    u[owner[j]] += step
                    v[j] -= step
                else:
                    dist[j] -= step
            u[i] += step
            done[nxt] = True
            col = nxt
            if owner[col] < 0:
                break
        while col != m:  # flip the matching along the augmenting path
            owner[col] = owner[prev[col]]
            col = prev[col]
    perm = np.empty(m, dtype=np.int64)
    perm[owner[:m]] = np.arange(m)
    return perm


def measure_snr(signal: np.ndarray, noise: np.ndarray) -> float:
    """10 log10 of pixel-averaged signal-to-noise energy ratio, in dB.

    Returns +inf for identically zero noise.
    """
    signal = np.asarray(signal, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if signal.shape != noise.shape:
        raise ShapeError("signal and noise must share shape")
    p_noise = float(np.sum(noise**2))
    if p_noise == 0.0:
        return float("inf")
    p_signal = float(np.sum(signal**2))
    return 10.0 * np.log10(p_signal / p_noise)


def evaluate_model(
    A_true: np.ndarray,
    S_true: np.ndarray,
    A_est: np.ndarray,
    S_est: np.ndarray,
) -> EvalReport:
    """Match endmembers, then report matched SAD and permuted RMSE.

    Raises MetricError when any factor holds a NaN or infinite entry.
    """
    _require_finite(true_abundances=S_true, estimated_abundances=S_est)
    perm, matched = match_endmembers(A_true, A_est)
    return EvalReport(
        per_endmember_sad=matched,
        mean_sad=float(np.mean(matched)),
        rmse=rmse(S_true, np.asarray(S_est)[perm, :]),
        permutation=perm,
    )


def _require_finite(**arrays) -> None:
    for name, value in arrays.items():
        if not np.all(np.isfinite(value)):
            raise MetricError(f"{name.replace('_', ' ')} hold a non-finite value")
