"""Offline optimum, the regret factor, and the synthetic objective generator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

from .gp import rbf_table
from .metric import ROWS, FiniteMetric


NEIGHBOURS = 9  # each predecessor is tested for domination by its 9 nearest points
LOWEST = 16  # past 16 left, the survivors are tested against the 16 of lowest value


def neighbour_table(dist: np.ndarray):
    """The DP's ``(near, near_dist, scale)``: ``near[:, j]`` are the ``NEIGHBOURS``
    points closest into j (partitioned ``ROWS`` columns at a time), ``near_dist[:, j]``
    their distances to j, and ``scale`` the largest absolute distance."""
    k = min(NEIGHBOURS, dist.shape[0])
    near = np.empty((k, dist.shape[0]), dtype=np.intp)
    for c in range(0, dist.shape[0], ROWS):
        near[:, c : c + ROWS] = np.argpartition(dist[:, c : c + ROWS], k - 1, axis=0)[:k]
    return near, np.take_along_axis(dist, near, axis=0), float(max(dist.max(), -dist.min()))


def offline_optimal_matrix(cost_matrix: np.ndarray, dist: np.ndarray, x0: int, neighbours=None):
    """Exact minimizer of total service-plus-movement cost by dynamic programming.

    ``cost_matrix`` is (H, n): the realized per-step service cost of each
    action. Transitions pay ``dist``, which must satisfy the triangle
    inequality up to rounding (every ``FiniteMetric`` does); the first step
    moves from ``x0``. Ties are broken toward the lowest action index.
    ``neighbours``, a callable returning ``neighbour_table(dist)``, lets a
    caller build that table once for many DPs; it is called only if H > 1.

    The forward pass keeps each step's values. It skips a predecessor j that
    one of its nearest points k reaches for less, v[k] + dist[k, j] < v[j] - tol,
    as by the triangle inequality k then reaches every point for less than j
    does. When more than ``LOWEST`` predecessors are left, it also skips a
    left j that one of the ``LOWEST`` left points of lowest value, t, reaches
    for less in the same sense. This too is exact: a skipped point's
    dominator has a lower value, so following dominators ends at a point
    that neither test skips, and by the triangle inequality that point
    reaches every target for less than j does. The minimum over the
    survivors takes the same sums v[j] + dist[j, i], so the values are
    bit-identical to the unpruned ones. The backtrack takes each argmin
    over all predecessors.
    """
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    dist = np.ascontiguousarray(dist, dtype=float)  # dist.take reads it flat
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
        near, near_dist, scale = neighbours() if neighbours else neighbour_table(dist)
    for h in range(1, H):
        v = values[h - 1]
        tol = 1e-9 * (scale + float(np.abs(v).max()))
        kept = np.flatnonzero((v[near] + near_dist).min(axis=0) >= v - tol)
        if kept.size > LOWEST:
            vk = v[kept]
            top = kept[np.argpartition(vk, LOWEST - 1)[:LOWEST]]
            reach = dist.take(top[:, None] * n + kept)  # reach[i, j] = dist[top[i], kept[j]]
            reach += v[top, None]
            kept = kept[reach.min(axis=0) >= vk - tol]
        low = values[h]
        low.fill(np.inf)
        for r in range(0, kept.size, ROWS):  # min over kept j of dist[j] + v[j], ROWS j at a time
            rows = kept[r : r + ROWS]
            np.minimum(low, (dist[rows] + v[rows, None]).min(axis=0), out=low)
        low += cost_matrix[h]
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


def _chol_with_jitter(kernel) -> np.ndarray:
    """Lower Cholesky factor of ``kernel()``, a fresh symmetric C-ordered matrix that the
    factor overwrites, plus 1e-8 on the diagonal; retried once at 1e-6."""
    for eps in (1e-8, 1e-6):
        K = kernel()
        if not np.isfinite(K).all():
            raise ValueError("kernel entries must be finite")
        K.flat[:: K.shape[0] + 1] += eps
        L, info = dpotrf(K.T, lower=1, clean=1, overwrite_a=1)
        if not info:
            return L
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
    normal; this equals a draw from the full joint factorization. Both
    blocks are ``rbf_table`` kernels, the helper that also builds the GP's
    tables, so the learner's prior is the kernel the objective was drawn from.

    The draw depends on the BLAS thread count, through LAPACK's factor of the
    action kernel: at 20x20, seed 0, the sha256 of ``raw_sample`` begins
    395092f34aaf with one OpenBLAS thread and 1ae25b81b2d1 with two.
    """
    rng = np.random.default_rng(seed)
    contexts = np.sort(rng.uniform(0.0, 1.0, n_contexts))

    Lx = _chol_with_jitter(lambda: rbf_table(metric.coords, lengthscale))
    Le = _chol_with_jitter(lambda: rbf_table(contexts, lengthscale))
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
