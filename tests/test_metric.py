import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpmd.metric import TRIANGLE_ROWS, TRIANGLE_TOL, FiniteMetric, grid_metric


def test_grid_metric_shape_and_diameter():
    m = grid_metric(4, 4)
    assert m.n == 16
    assert m.dist.max() == pytest.approx(np.sqrt(2.0))
    assert m.dist[0, 0] == 0.0


def test_symmetry_and_triangle_enforced():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        FiniteMetric(bad)
    tri = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetric(tri)


def test_triangle_tolerance_boundary():
    eps = 5e-10  # inside the 1e-9 allowance
    d = np.array([[0.0, 1.0, 2.0 + eps], [1.0, 0.0, 1.0], [2.0 + eps, 1.0, 0.0]])
    m = FiniteMetric(d)
    assert m.dist.max() == pytest.approx(2.0 + eps)


def test_rejects_negative_and_nonzero_diagonal():
    with pytest.raises(ValueError):
        FiniteMetric(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        FiniteMetric(np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_single_point_space():
    m = FiniteMetric(np.zeros((1, 1)))
    assert m.n == 1
    assert m.dist.max() == 0.0


def test_from_coords_norms():
    # Euclidean is the only norm.
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert FiniteMetric.from_coords(pts).dist[0, 1] == pytest.approx(5.0)


def test_mean_pairwise_distance():
    m = FiniteMetric(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert m.mean_pairwise_distance() == pytest.approx(2.0)


def loop_triangle_error(d):
    """The former per-k scan: the symmetry and triangle errors, or None."""
    if not np.array_equal(d, d.T) and np.max(np.abs(d - d.T)) > TRIANGLE_TOL:
        return "symmetric"
    for k in range(d.shape[0]):
        if (d - (d[:, [k]] + d[[k], :])).max() > TRIANGLE_TOL:
            return "triangle"
    return None


def dense_coord_dist(coords, norm):
    """The former n x n x dim expression of ``from_coords``."""
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
    n=st.integers(1, 140),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    asymmetric=st.booleans(),
    plant=st.sampled_from([None, "above", "below"]),
    ijk=st.tuples(st.integers(0, 139), st.integers(0, 139), st.integers(0, 139)),
)
@example(n=TRIANGLE_ROWS + 1, dim=2, seed=1, asymmetric=True, plant="above", ijk=(64, 0, 30))
@example(n=2 * TRIANGLE_ROWS + 12, dim=2, seed=2, asymmetric=False, plant="above", ijk=(5, 70, 139))
@example(n=2 * TRIANGLE_ROWS + 12, dim=3, seed=3, asymmetric=True, plant="below", ijk=(130, 3, 64))
@example(n=2 * TRIANGLE_ROWS + 12, dim=2, seed=4, asymmetric=False, plant="above", ijk=(100, 70, 0))
def test_triangle_check_matches_per_k_scan(n, dim, seed, asymmetric, plant, ijk):
    """Accepts and rejects exactly as the per-k scan, on exactly symmetric
    matrices, matrices asymmetric within the tolerance, and violations
    planted just above and just below it; a rejection names a real
    violating triple and its slack."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, (n, dim))
    i, j, k = (v % n for v in ijk)
    plant = plant if len({i, j, k}) == 3 else None
    if plant:  # k, on the segment from i to j, witnesses the planted pair
        pts[k] = 0.5 * (pts[i] + pts[j])
    d = dense_coord_dist(pts, "euclidean")
    if asymmetric:
        d += np.triu(rng.uniform(0.0, 0.5 * TRIANGLE_TOL, (n, n)), 1)
    if plant:
        others = np.setdiff1d(np.arange(n), [i, j])
        via = max((d[i, others] + d[others, j]).min(), (d[j, others] + d[others, i]).min())
        d[i, j] = d[j, i] = via + TRIANGLE_TOL * (1.001 if plant == "above" else 0.999)
        if asymmetric:  # only d(i,j) is near the tolerance; d(j,i) has room
            d[j, i] -= 0.9 * TRIANGLE_TOL
    expected = loop_triangle_error(d)
    if plant == "above":
        assert expected == "triangle"
    if expected is None:
        FiniteMetric(d)
        return
    with pytest.raises(ValueError, match=expected) as err:
        FiniteMetric(d)
    if expected == "triangle":
        i, j, i2, k, k2, j2, slack = re.search(
            r"d\((\d+),(\d+)\) > d\((\d+),(\d+)\) \+ d\((\d+),(\d+)\) by (\S+)$",
            str(err.value),
        ).groups()
        assert (i, k, j) == (i2, k2, j2)
        i, j, k = int(i), int(j), int(k)
        named = d[i, j] - (d[i, k] + d[k, j])
        assert named > TRIANGLE_TOL
        assert f"{named:.3e}" == slack


@pytest.mark.parametrize("norm", ["euclidean"])  # the norm of from_coords
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_from_coords_bit_identical_to_dense_expression(norm, dim):
    rng = np.random.default_rng(dim)
    pts = rng.normal(0.0, 3.0, (90, dim))
    pts[10:15] = pts[:5]  # duplicate points
    dist = FiniteMetric.from_coords(pts).dist
    assert np.array_equal(dist, dense_coord_dist(pts, norm))


def test_grid_metric_bit_identical_to_dense_expression():
    m = grid_metric(24, 24)
    assert np.array_equal(m.dist, dense_coord_dist(m.coords, "euclidean"))


def test_grid_metric_peak_memory():
    # Two n x n arrays while distances accumulate; the triangle check adds
    # O(TRIANGLE_ROWS * n). Per-k n x n temporaries would read about 6 n^2.
    n = 24 * 24
    tracemalloc.start()
    try:
        grid_metric(24, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8
