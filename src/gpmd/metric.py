"""Finite metric spaces: the action space together with its distance matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRIANGLE_TOL = 1e-9
# Rows per block of the triangle check: its two work buffers hold
# TRIANGLE_ROWS x n floats each, so they stay in cache as n grows.
TRIANGLE_ROWS = 64


@dataclass(frozen=True)
class FiniteMetric:
    """A finite set of points with a symmetric distance matrix.

    ``dist`` must be symmetric, zero on the diagonal and satisfy the
    triangle inequality within ``TRIANGLE_TOL``. ``coords`` is optional and
    only used by models that featurize actions (e.g. kernel inputs).
    """

    dist: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        dist = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", dist)
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        self._validate()

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def _validate(self) -> None:
        d = self.dist
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        n = d.shape[0]
        if n < 1:
            raise ValueError("a metric space needs at least one point")
        if self.coords is not None and self.coords.shape[0] != n:
            raise ValueError("coords row count must match the point count")
        if not np.all(np.isfinite(d)):
            raise ValueError("distances must be finite")
        if np.any(d < 0):
            raise ValueError("distances must be non-negative")
        if np.any(np.abs(np.diag(d)) > 0):
            raise ValueError("distance matrix must be zero on the diagonal")
        symmetric = np.array_equal(d, d.T)
        if not symmetric and np.max(np.abs(d - d.T)) > TRIANGLE_TOL:
            raise ValueError("distance matrix must be symmetric")
        _check_triangle(d, symmetric)

    @classmethod
    def from_coords(cls, coords) -> "FiniteMetric":
        """Euclidean distances between the rows of ``coords``."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        return cls(dist=_coord_dist(coords), coords=coords)

    def mean_pairwise_distance(self) -> float:
        """Average distance over distinct ordered pairs (zero diagonal excluded)."""
        n = self.n
        if n < 2:
            return 0.0
        return float(self.dist.sum() / (n * (n - 1)))


def _check_triangle(d: np.ndarray, symmetric: bool) -> None:
    """Raise unless d_ij <= d_ik + d_kj + TRIANGLE_TOL for every i, j, k.

    A min-plus product over blocks of ``TRIANGLE_ROWS`` rows: per block,
    ``best`` holds min_k fl(d_ik + d_kj) and the slack is d_ij - best.
    Rounded subtraction is monotone, so this is the largest of the per-k
    slacks fl(d_ij - fl(d_ik + d_kj)), float for float. O(n^3) arithmetic
    in O(TRIANGLE_ROWS * n) memory. An exactly symmetric matrix has
    slack(i, j, k) == slack(j, i, k), so only columns j from the block's
    first row on are checked. A violation names the worst pair of the first
    violating block, and the k that attains it.
    """
    n = d.shape[0]
    rows = min(TRIANGLE_ROWS, n)
    best_buf = np.empty(rows * n)
    via_buf = np.empty(rows * n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        c0 = r0 if symmetric else 0
        shape = (r1 - r0, n - c0)
        best = best_buf[: shape[0] * shape[1]].reshape(shape)
        via = via_buf[: best.size].reshape(shape)
        best.fill(np.inf)
        for k in range(n):
            np.add(d[r0:r1, k, None], d[k, c0:], out=via)
            np.minimum(best, via, out=best)
        slack = np.subtract(d[r0:r1, c0:], best, out=best)
        if slack.max() > TRIANGLE_TOL:
            bi, bj = np.unravel_index(np.argmax(slack), shape)
            i, j = r0 + int(bi), c0 + int(bj)
            k = int(np.argmin(d[i] + d[:, j]))
            raise ValueError(
                f"triangle inequality violated: d({i},{j}) > d({i},{k}) + d({k},{j}) "
                f"by {slack[bi, bj]:.3e}"
            )


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
    return FiniteMetric.from_coords(pts)
