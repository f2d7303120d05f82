"""Shared fixtures and independent oracles used across the test suite."""

import numpy as np
import pytest
from scipy.optimize import linprog

from gpmd.hst import HstTree
from gpmd.metric import FiniteMetric


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hst(
    rng,
    n_leaves: int,
    tau: float = 5.0,
    max_children: int = 4,
    chain: float = 0.0,
    dup: float = 0.0,
) -> HstTree:
    """A random laminar hierarchy with exact tau-decay, metric = its own d_T.

    ``chain`` is the chance that a vertex hands all its points to a single
    child. ``dup`` is the chance that a vertex holding 2..max_children points
    makes them duplicates: zero-weight leaves at distance 0 from each other,
    as ``frt_embed`` restores repeated points. Both default to 0, which
    draws no extra numbers.
    """
    parents = [-1]
    depths = [0]
    zero_weight = [False]
    leaf_vertex = np.full(n_leaves, -1, dtype=np.int64)

    def add(parent: int, zeroed: bool = False) -> int:
        parents.append(parent)
        depths.append(depths[parent] + 1)
        zero_weight.append(zeroed)
        return len(parents) - 1

    def split(vertex: int, members: list):
        if chain and rng.random() < chain:
            split(add(vertex), members)
            return
        if len(members) == 1:
            leaf_vertex[members[0]] = vertex
            return
        if dup and len(members) <= max_children and rng.random() < dup:
            for m in members:
                leaf_vertex[m] = add(vertex, zeroed=True)
            return
        k = min(len(members), int(rng.integers(2, max_children + 1)))
        cuts = sorted(rng.choice(np.arange(1, len(members)), size=k - 1, replace=False))
        groups = np.split(np.asarray(members), cuts)
        for g in groups:
            split(add(vertex), list(g))

    order = list(rng.permutation(n_leaves))
    if n_leaves == 1:
        leaf_vertex[0] = 0
    else:
        split(0, order)
    w0 = float(rng.uniform(0.5, 4.0))
    weights = np.array(
        [0.0 if d == 0 or z else w0 * tau ** (1 - d) for d, z in zip(depths, zero_weight)]
    )
    zero = FiniteMetric.from_matrix(np.zeros((n_leaves, n_leaves)))
    probe = HstTree(
        parent=np.asarray(parents, dtype=np.int64),
        weight=weights,
        leaf_vertex=leaf_vertex,
        tau=tau,
        metric=zero,
    )
    metric = FiniteMetric.from_matrix(probe.distance_matrix())
    return HstTree(
        parent=np.asarray(parents, dtype=np.int64),
        weight=weights,
        leaf_vertex=leaf_vertex,
        tau=tau,
        metric=metric,
    )


def validate_conditionals(tree: HstTree, q: np.ndarray, tol: float = 1e-8) -> None:
    """Raise unless q, indexed by vertex, holds a distribution over every child set."""
    if q.shape != (tree.n_vertices,):
        raise ValueError("state length must match the vertex count")
    if np.any(q < -tol):
        raise ValueError("conditional probabilities must be non-negative")
    for u in range(tree.n_vertices):
        kids = tree.children[u]
        if len(kids) and abs(q[kids].sum() - 1.0) > tol:
            raise ValueError(f"children of {u} do not form a distribution")


def lp_transport_cost(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Dense LP oracle for the optimal-transport value with ground cost ``cost``."""
    n = cost.shape[0]
    rows = []
    for i in range(n):
        row = np.zeros((n, n))
        row[i, :] = 1.0
        rows.append(row.ravel())
    for j in range(n):
        row = np.zeros((n, n))
        row[:, j] = 1.0
        rows.append(row.ravel())
    A_eq = np.asarray(rows)[:-1]  # drop one redundant marginal constraint
    b_eq = np.concatenate([a, b])[:-1]
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)
