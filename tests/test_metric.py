import numpy as np
import pytest

from gpmd.metric import FiniteMetric, grid_metric


def test_grid_metric_shape_and_diameter():
    m = grid_metric(4, 4)
    assert m.n == 16
    assert m.diameter == pytest.approx(np.sqrt(2.0))
    assert m.dist[0, 0] == 0.0


def test_symmetry_and_triangle_enforced():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        FiniteMetric.from_matrix(bad)
    tri = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetric.from_matrix(tri)


def test_triangle_tolerance_boundary():
    eps = 5e-10  # inside the 1e-9 allowance
    d = np.array([[0.0, 1.0, 2.0 + eps], [1.0, 0.0, 1.0], [2.0 + eps, 1.0, 0.0]])
    m = FiniteMetric.from_matrix(d)
    assert m.diameter == pytest.approx(2.0 + eps)


def test_rejects_negative_and_nonzero_diagonal():
    with pytest.raises(ValueError):
        FiniteMetric.from_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        FiniteMetric.from_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_single_point_space():
    m = FiniteMetric.from_matrix(np.zeros((1, 1)))
    assert m.n == 1
    assert m.diameter == 0.0


def test_from_coords_norms():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert FiniteMetric.from_coords(pts).dist[0, 1] == pytest.approx(5.0)
    assert FiniteMetric.from_coords(pts, norm="manhattan").dist[0, 1] == pytest.approx(7.0)
    assert FiniteMetric.from_coords(pts, norm="chebyshev").dist[0, 1] == pytest.approx(4.0)
    with pytest.raises(ValueError, match="norm"):
        FiniteMetric.from_coords(pts, norm="hamming")


def test_mean_pairwise_distance():
    m = FiniteMetric.from_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert m.mean_pairwise_distance() == pytest.approx(2.0)
