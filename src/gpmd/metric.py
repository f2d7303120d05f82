"""Finite metric spaces: the action space as points with scaled Euclidean distances."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FiniteMetric:
    """Points, one row of ``coords`` each, at ``scale`` times their Euclidean distance.

    A positive multiple of a Euclidean distance is a metric, so ``dist`` is
    exactly symmetric, zero on the diagonal and satisfies the triangle
    inequality by construction. ``coords`` are also the kernel inputs of
    models that featurize actions.
    """

    coords: np.ndarray
    scale: float = 1.0
    dist: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[0] < 1:
            raise ValueError(f"coords must be one row per point, at least one; got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        scale = float(self.scale)
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale!r}")
        with np.errstate(over="ignore"):  # an overflow is reported below
            dist = _coord_dist(coords)
            np.multiply(dist, scale, out=dist)
        if not math.isfinite(dist.max()):
            raise ValueError("distances overflow")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "dist", dist)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def mean_pairwise_distance(self) -> float:
        """Average distance over distinct ordered pairs (zero diagonal excluded)."""
        n = self.n
        if n < 2:
            return 0.0
        return float(self.dist.sum() / (n * (n - 1)))


def _coord_dist(coords: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``coords``, one dimension at a time.

    Accumulates per-dimension squares into one n x n array, so no n x n x dim
    difference array is built. Subtraction is exactly antisymmetric, so the
    result is exactly symmetric with a zero diagonal for finite coords.
    """
    n = coords.shape[0]
    dist = np.zeros((n, n))
    term = np.empty((n, n))
    for col in coords.T:
        np.subtract(col[:, None], col[None, :], out=term)
        np.multiply(term, term, out=term)
        np.add(dist, term, out=dist)
    return np.sqrt(dist, out=dist)


def grid_metric(side_x: int, side_y: int | None = None) -> FiniteMetric:
    """Uniform grid on the unit square with Euclidean distances."""
    if side_y is None:
        side_y = side_x
    xs = np.linspace(0.0, 1.0, side_x)
    ys = np.linspace(0.0, 1.0, side_y)
    pts = np.array([(x, y) for x in xs for y in ys])
    return FiniteMetric(pts, scale=1.0)
