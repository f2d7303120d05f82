import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpmd.metric import FiniteMetric, grid_metric
from gpmd.wind import EnergyParams, altitude_metric, default_altitudes

from conftest import loop_triangle_error

# The wind workload's altitudes: 25 from 10 m to 1600 m.
BENCH_ALTITUDES = 10.0 + np.arange(25) * (1590.0 / 24)


def test_grid_metric_shape_and_diameter():
    m = grid_metric(4, 4)
    assert m.n == 16
    assert m.dist.max() == pytest.approx(np.sqrt(2.0))
    assert m.dist[0, 0] == 0.0


def test_single_point_space():
    m = FiniteMetric(np.zeros((1, 2)))
    assert m.n == 1
    assert m.dist.max() == 0.0


def test_from_coords_norms():
    # Euclidean is the only norm.
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert FiniteMetric(pts).dist[0, 1] == pytest.approx(5.0)
    assert FiniteMetric(pts, scale=2.5).dist[0, 1] == pytest.approx(12.5)


def test_mean_pairwise_distance():
    m = FiniteMetric(np.array([[0.0], [2.0]]))
    assert m.mean_pairwise_distance() == pytest.approx(2.0)


@pytest.mark.parametrize(
    "coords, scale, match",
    [
        (np.zeros((0, 2)), 1.0, "at least one"),
        (np.zeros(3), 1.0, "one row per point"),
        (np.array([[0.0], [np.nan]]), 1.0, "finite"),
        (np.array([[0.0, np.inf]]), 1.0, "finite"),
        (np.zeros((2, 1)), 0.0, "scale"),
        (np.zeros((2, 1)), -1.0, "scale"),
        (np.zeros((2, 1)), np.nan, "scale"),
        (np.zeros((2, 1)), np.inf, "scale"),
        (np.array([[0.0], [1e300]]), 1e10, "overflow"),
    ],
    ids=["no-points", "flat", "nan-coord", "inf-coord", "zero-scale", "negative-scale",
         "nan-scale", "inf-scale", "overflow"],
)
def test_rejects_bad_input(coords, scale, match):
    with pytest.raises(ValueError, match=match):
        FiniteMetric(coords, scale=scale)


@pytest.mark.parametrize(
    "d, broken",
    [
        (np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric"),
        (np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]), "triangle"),
        (np.array([[0.0, 1.0, 2.0 + 2e-9], [1.0, 0.0, 1.0], [2.0 + 2e-9, 1.0, 0.0]]), "triangle"),
        (np.array([[0.0, -1.0], [-1.0, 0.0]]), "non-negative"),
        (np.array([[1.0, 1.0], [1.0, 0.0]]), "diagonal"),
        (np.array([[0.0, np.inf], [np.inf, 0.0]]), "finite"),
        (np.zeros((2, 3)), "square"),
        (np.array([[0.0, 1.0, 2.0 + 5e-10], [1.0, 0.0, 1.0], [2.0 + 5e-10, 1.0, 0.0]]), None),
    ],
)
def test_triangle_oracle_flags_each_broken_axiom(d, broken):
    assert loop_triangle_error(d) == broken


@pytest.mark.parametrize(
    "make",
    [
        lambda: grid_metric(20, 20),
        lambda: grid_metric(24, 24),
        lambda: altitude_metric(EnergyParams(), BENCH_ALTITUDES),
        lambda: altitude_metric(EnergyParams(), default_altitudes()),
    ],
    ids=["grid20x20", "grid24x24", "bench-altitudes", "default-altitudes"],
)
def test_program_metrics_satisfy_the_metric_axioms(make):
    assert loop_triangle_error(make().dist) is None


def dense_coord_dist(coords, norm):
    """The former n x n x dim expression of a coordinate-built metric."""
    diff = coords[:, None, :] - coords[None, :, :]
    if norm == "euclidean":
        dist = np.sqrt((diff**2).sum(axis=-1))
    elif norm == "manhattan":
        dist = np.abs(diff).sum(axis=-1)
    else:
        dist = np.abs(diff).max(axis=-1)
    np.fill_diagonal(dist, 0.0)
    return 0.5 * (dist + dist.T)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 60),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    dups=st.integers(0, 20),
    scale=st.floats(1e-3, 1e3),
)
@example(n=40, dim=1, seed=0, dups=10, scale=0.15 * 12.0**2)
@example(n=30, dim=2, seed=1, dups=29, scale=1.0)
def test_coordinate_metrics_satisfy_the_metric_axioms(n, dim, seed, dups, scale):
    """Random points in 1-3 dimensions, some of them repeated, at any scale:
    the distances are ``scale`` times the dense Euclidean expression, float
    for float, and pass the per-k scan of the metric axioms."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5.0, 5.0, (n, dim))
    pts[rng.integers(0, n, dups)] = pts[rng.integers(0, n, dups)]
    m = FiniteMetric(pts, scale=scale)
    assert np.array_equal(m.dist, scale * dense_coord_dist(pts, "euclidean"))
    assert loop_triangle_error(m.dist) is None


@pytest.mark.parametrize("norm", ["euclidean"])  # the only norm of FiniteMetric
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_from_coords_bit_identical_to_dense_expression(norm, dim):
    rng = np.random.default_rng(dim)
    pts = rng.normal(0.0, 3.0, (90, dim))
    pts[10:15] = pts[:5]  # duplicate points
    dist = FiniteMetric(pts).dist
    assert np.array_equal(dist, dense_coord_dist(pts, norm))


def test_grid_metric_bit_identical_to_dense_expression():
    m = grid_metric(24, 24)
    assert np.array_equal(m.dist, dense_coord_dist(m.coords, "euclidean"))


def test_grid_metric_peak_memory():
    # Two n x n arrays while distances accumulate, scaled in place. Per-k or
    # n x n x dim temporaries would read several times that.
    n = 24 * 24
    tracemalloc.start()
    try:
        grid_metric(24, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8
