"""Offline optimum, regret accounting, and the synthetic objective generator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky as sp_cholesky
from scipy.spatial.distance import cdist

from .metric import FiniteMetric


@dataclass
class EpisodeLog:
    """Per-episode record of what a policy did and what it cost."""

    x0: int
    contexts: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    service: list = field(default_factory=list)
    movement: list = field(default_factory=list)

    def append(self, context, action: int, service: float, movement: float):
        self.contexts.append(context)
        self.actions.append(int(action))
        self.service.append(float(service))
        self.movement.append(float(movement))

    @property
    def service_total(self) -> float:
        return float(sum(self.service))

    @property
    def movement_total(self) -> float:
        return float(sum(self.movement))

    @property
    def cost_total(self) -> float:
        return self.service_total + self.movement_total


@dataclass
class RegretReport:
    alpha: float
    beta: float
    episode_costs: np.ndarray
    optimal_costs: np.ndarray
    per_episode: np.ndarray = field(init=False)
    cumulative: np.ndarray = field(init=False)

    def __post_init__(self):
        costs = np.asarray(self.episode_costs, dtype=float)
        opts = np.asarray(self.optimal_costs, dtype=float)
        if costs.shape != opts.shape:
            raise ValueError("episode and optimal cost lists must have equal length")
        self.episode_costs = costs
        self.optimal_costs = opts
        self.per_episode = costs - self.alpha * opts - self.beta
        self.cumulative = np.cumsum(self.per_episode)

    @property
    def total(self) -> float:
        return float(self.cumulative[-1]) if self.cumulative.size else 0.0

    def average_series(self) -> np.ndarray:
        """R/m for m = 1..N, the sublinearity diagnostic."""
        m = np.arange(1, self.cumulative.size + 1)
        return self.cumulative / m


def regret(logs, opt_costs, alpha: float, beta: float) -> RegretReport:
    costs = [log.cost_total if isinstance(log, EpisodeLog) else float(log) for log in logs]
    return RegretReport(
        alpha=alpha,
        beta=beta,
        episode_costs=np.asarray(costs),
        optimal_costs=np.asarray(opt_costs, dtype=float),
    )


def offline_optimal_matrix(cost_matrix: np.ndarray, dist: np.ndarray, x0: int):
    """Exact minimizer of total service-plus-movement cost by dynamic programming.

    ``cost_matrix`` is (H, n): the realized per-step service cost of each
    action. Transitions pay ``dist``; the first step moves from ``x0``.
    Ties are broken toward the lowest action index. O(H * n^2).
    """
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    if not np.all(np.isfinite(cost_matrix)):
        raise ValueError("service cost table must be finite and complete")
    H, n = cost_matrix.shape
    if not 0 <= x0 < n:
        raise ValueError(f"unknown start {x0}")
    value = cost_matrix[0] + dist[x0]
    back = np.zeros((H, n), dtype=np.int64)
    # Each row of reach is one target's costs over every predecessor, so the
    # minimum over predecessors runs along contiguous memory.
    dist_t = np.ascontiguousarray(np.asarray(dist, dtype=float).T)
    reach = np.empty((n, n))
    rows = np.arange(n)
    for h in range(1, H):
        np.add(dist_t, value, out=reach)  # reach[to, from] = dist[from, to] + value[from]
        back[h] = np.argmin(reach, axis=1)
        value = cost_matrix[h] + reach[rows, back[h]]
    last = int(np.argmin(value))
    seq = [last]
    for h in range(H - 1, 0, -1):
        last = int(back[h, last])
        seq.append(last)
    seq.reverse()
    return seq, float(value.min())


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
    seed: int

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
        seed=seed,
    )


def log_alpha(n: int) -> float:
    """Default competitive factor (log n)^2 used in regret reports."""
    return math.log(n) ** 2 if n > 1 else 1.0
