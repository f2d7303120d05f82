"""Offline optimum, the regret factor, and the synthetic objective generator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky as sp_cholesky
from scipy.spatial.distance import cdist

from .metric import FiniteMetric


NEIGHBOURS = 9  # each predecessor is tested for domination by its 9 nearest points


def offline_optimal_matrix(cost_matrix: np.ndarray, dist: np.ndarray, x0: int):
    """Exact minimizer of total service-plus-movement cost by dynamic programming.

    ``cost_matrix`` is (H, n): the realized per-step service cost of each
    action. Transitions pay ``dist``, which must satisfy the triangle
    inequality up to rounding (every ``FiniteMetric`` does); the first step
    moves from ``x0``. Ties are broken toward the lowest action index.

    The forward pass keeps each step's values. It skips a predecessor j that
    one of its nearest points k reaches for less, v[k] + dist[k, j] < v[j] - tol,
    as by the triangle inequality k then reaches every point for less than j
    does. The backtrack takes each argmin over all predecessors.
    """
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    dist = np.asarray(dist, dtype=float)
    if cost_matrix.ndim != 2 or cost_matrix.shape[0] == 0:
        raise ValueError(f"service cost table must be (H, n) with H >= 1, got {cost_matrix.shape}")
    if not np.all(np.isfinite(cost_matrix)):
        raise ValueError("service cost table must be finite and complete")
    H, n = cost_matrix.shape
    if dist.shape != (n, n):
        raise ValueError(f"dist must be ({n}, {n}) for {n} actions, got {dist.shape}")
    if not 0 <= x0 < n:
        raise ValueError(f"unknown start {x0}")
    values = np.empty((H, n))
    values[0] = cost_matrix[0] + dist[x0]
    if H > 1:
        k = min(NEIGHBOURS, n)
        near = np.argpartition(dist, k - 1, axis=0)[:k]  # near[:, j]: the k closest into j
        near_dist = np.take_along_axis(dist, near, axis=0)  # dist[near[i, j], j]
        scale = float(np.abs(dist).max())
    for h in range(1, H):
        v = values[h - 1]
        tol = 1e-9 * (scale + float(np.abs(v).max()))
        kept = np.flatnonzero((v[near] + near_dist).min(axis=0) >= v - tol)
        block = dist[kept]
        block += v[kept, None]  # block[i, to] = dist[kept[i], to] + v[kept[i]]
        values[h] = cost_matrix[h] + block.min(axis=0)
    last = int(np.argmin(values[-1]))
    seq = [last]
    for h in range(H - 1, 0, -1):
        last = int(np.argmin(values[h - 1] + dist[:, last]))
        seq.append(last)
    seq.reverse()
    return seq, float(values[-1].min())


@dataclass(frozen=True)
class SyntheticInstance:
    """A sampled service objective over a grid of actions and scalar contexts.

    The raw sample is shifted to be non-negative and rescaled so its mean
    equals the mean pairwise movement cost; observation noise is 1% of the
    resulting range.
    """

    metric: FiniteMetric
    contexts: np.ndarray
    f_table: np.ndarray  # (n_actions, n_contexts)
    raw_sample: np.ndarray  # unshifted, unscaled draw (diagnostics)
    scale: float
    noise_sigma: float
    lengthscale: float

    @property
    def n_actions(self) -> int:
        return self.f_table.shape[0]

    @property
    def n_contexts(self) -> int:
        return self.f_table.shape[1]


def _chol_with_jitter(K: np.ndarray, jitter: float = 1e-8):
    for eps in (jitter, 1e-6):
        try:
            return sp_cholesky(K + eps * np.eye(K.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            continue
    raise ValueError("kernel factorization failed even with raised jitter")


def synth_instance(
    seed: int,
    metric: FiniteMetric,
    n_contexts: int = 40,
    lengthscale: float = 0.2,
) -> SyntheticInstance:
    """Draw one objective from a squared-exponential process on the joint grid.

    The joint kernel over (action coords, context) factorizes across the two
    blocks, so the exact joint sample is L_x @ G @ L_e^T with G standard
    normal; this equals a draw from the full joint factorization.
    """
    rng = np.random.default_rng(seed)
    contexts = np.sort(rng.uniform(0.0, 1.0, n_contexts))

    sq_x = cdist(metric.coords, metric.coords, "sqeuclidean")
    Kx = np.exp(-0.5 * sq_x / lengthscale**2)
    de = contexts[:, None] - contexts[None, :]
    Ke = np.exp(-0.5 * de**2 / lengthscale**2)
    Lx = _chol_with_jitter(Kx)
    Le = _chol_with_jitter(Ke)
    G = rng.standard_normal((metric.n, n_contexts))
    sample = Lx @ G @ Le.T

    shifted = sample - sample.min()
    mean_move = metric.mean_pairwise_distance()
    scale = mean_move / shifted.mean() if shifted.mean() > 0 else 1.0
    f_table = shifted * scale
    noise_sigma = 0.01 * float(f_table.max() - f_table.min())
    return SyntheticInstance(
        metric=metric,
        contexts=contexts,
        f_table=f_table,
        raw_sample=sample,
        scale=scale,
        noise_sigma=noise_sigma,
        lengthscale=lengthscale,
    )


def log_alpha(n: int) -> float:
    """Default competitive factor (log n)^2 used in regret reports."""
    return math.log(n) ** 2 if n > 1 else 1.0
