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
    inequality by construction. ``coords`` are also the points of the GP's
    action kernel table.
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
            dist = sq_dists(coords)
            np.multiply(np.sqrt(dist, out=dist), scale, out=dist)
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


ROWS = 64  # rows (or columns) per block of a pass over an n x n array


def sq_dists(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``points``, summed over
    dimensions in order as ``cdist(..., "sqeuclidean")`` does, ``ROWS`` rows at a
    time: exactly symmetric with a zero diagonal for finite points."""
    out = np.zeros((points.shape[0], points.shape[0]))
    for r in range(0, points.shape[0], ROWS):
        for col in points.T:
            out[r : r + ROWS] += np.square(col[r : r + ROWS, None] - col)
    return out


def grid_metric(side_x: int, side_y: int | None = None) -> FiniteMetric:
    """Uniform grid on the unit square with Euclidean distances."""
    if side_y is None:
        side_y = side_x
    xs = np.linspace(0.0, 1.0, side_x)
    ys = np.linspace(0.0, 1.0, side_y)
    pts = np.array([(x, y) for x in xs for y in ys])
    return FiniteMetric(pts, scale=1.0)
