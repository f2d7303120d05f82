"""Finite metric spaces: the action space together with its distance matrix."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TRIANGLE_TOL = 1e-9


@dataclass(frozen=True)
class FiniteMetric:
    """A finite set of points with a symmetric distance matrix.

    ``dist`` must be symmetric, zero on the diagonal and satisfy the
    triangle inequality within ``TRIANGLE_TOL``. ``coords`` is optional and
    only used by models that featurize actions (e.g. kernel inputs).
    """

    dist: np.ndarray
    labels: tuple[str, ...]
    coords: np.ndarray | None = field(default=None)

    def __post_init__(self):
        dist = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", dist)
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        self._validate()

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def _validate(self) -> None:
        d = self.dist
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        n = d.shape[0]
        if n < 1:
            raise ValueError("a metric space needs at least one point")
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} points")
        if self.coords is not None and self.coords.shape[0] != n:
            raise ValueError("coords row count must match the point count")
        if not np.all(np.isfinite(d)):
            raise ValueError("distances must be finite")
        if np.any(d < 0):
            raise ValueError("distances must be non-negative")
        if np.any(np.abs(np.diag(d)) > 0):
            raise ValueError("distance matrix must be zero on the diagonal")
        if not np.array_equal(d, d.T):
            if np.max(np.abs(d - d.T)) > TRIANGLE_TOL:
                raise ValueError("distance matrix must be symmetric")
        # Triangle inequality, checked one intermediate point at a time to
        # keep memory at O(n^2).
        for k in range(n):
            slack = d - (d[:, [k]] + d[[k], :])
            if slack.max() > TRIANGLE_TOL:
                i, j = np.unravel_index(np.argmax(slack), slack.shape)
                raise ValueError(
                    f"triangle inequality violated: d({i},{j}) > d({i},{k}) + d({k},{j}) "
                    f"by {slack[i, j]:.3e}"
                )

    @classmethod
    def from_matrix(cls, dist, labels=None, coords=None) -> "FiniteMetric":
        dist = np.asarray(dist, dtype=float)
        if labels is None:
            labels = tuple(str(i) for i in range(dist.shape[0]))
        return cls(dist=dist, labels=tuple(labels), coords=coords)

    @classmethod
    def from_coords(cls, coords, labels=None, norm: str = "euclidean") -> "FiniteMetric":
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        diff = coords[:, None, :] - coords[None, :, :]
        if norm == "euclidean":
            dist = np.sqrt((diff**2).sum(axis=-1))
        elif norm == "manhattan":
            dist = np.abs(diff).sum(axis=-1)
        elif norm == "chebyshev":
            dist = np.abs(diff).max(axis=-1)
        else:
            raise ValueError(f"unknown norm {norm!r}")
        np.fill_diagonal(dist, 0.0)
        dist = 0.5 * (dist + dist.T)
        if labels is None:
            labels = tuple(str(i) for i in range(coords.shape[0]))
        return cls(dist=dist, labels=tuple(labels), coords=coords)

    def mean_pairwise_distance(self) -> float:
        """Average distance over distinct ordered pairs (zero diagonal excluded)."""
        n = self.n
        if n < 2:
            return 0.0
        return float(self.dist.sum() / (n * (n - 1)))


def grid_metric(side_x: int, side_y: int | None = None) -> FiniteMetric:
    """Uniform grid on the unit square with Euclidean distances."""
    if side_y is None:
        side_y = side_x
    xs = np.linspace(0.0, 1.0, side_x)
    ys = np.linspace(0.0, 1.0, side_y)
    pts = np.array([(x, y) for x in xs for y in ys])
    return FiniteMetric.from_coords(pts)
