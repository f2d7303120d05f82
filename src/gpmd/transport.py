"""Optimal transport between leaf distributions under the tree metric.

On a weighted tree the Wasserstein-1 distance has the closed form
sum_v w_v * |z_v - z'_v| over the lifted subtree masses, and an optimal
coupling is built greedily: mass that can stay put stays put, and per
subtree the remaining surplus is matched against the deficit before the
imbalance is routed through the parent edge.

The reference, ``optimal_coupling`` in ``tests/conftest.py``, builds that
whole FIFO coupling. The controller only ever needs one row of it, the row
of its current action, and ``coupling_row`` computes that row alone. With
e = the lifted imbalance a - b, the surplus queue at a vertex is the
concatenation, in child order, of the queues its children with e > 0 pass
up, and likewise the deficit queue for children with e < 0. FIFO matching
eats the first min(surplus, deficit) of both queues (the north-west-corner
rule), so in cumulative coordinates the matched part is an interval, and
what a vertex passes up is the tail of its queue. The walk follows the
previous action's single surplus piece up from its leaf as an (offset,
residual) pair in each ancestor's queue, and maps each matched interval to
deficit leaves by descending into the deficit children it overlaps,
shifting the offset at each child by the deficit that child matched
itself. Pieces come out in the reference's pair order: the stay mass
first, then bottom-up by ancestor and in queue order within each. The
masses agree with the reference up to rounding, which differs only in the
last bits and in crumbs of about 1e-17 that the reference's repeated
subtractions leave behind.
"""

from __future__ import annotations

import numpy as np

from .hst import HstTree

DIST_SUM_TOL = 1e-10
MARGINAL_TOL = 1e-9


def _as_probs(dist) -> np.ndarray:
    """``dist`` as a float array, checked to be a probability vector."""
    p = np.asarray(dist, dtype=float)
    if np.any(p < 0):
        raise ValueError("leaf probabilities must be non-negative")
    if abs(p.sum() - 1.0) > DIST_SUM_TOL:
        raise ValueError(f"leaf probabilities sum to {p.sum()!r}, not 1")
    return p


def tree_wasserstein(tree: HstTree, a, b) -> float:
    """Closed-form W1 between two leaf distributions on the same tree."""
    pa, pb = _as_probs(a), _as_probs(b)
    if pa.shape != (tree.n_leaves,) or pb.shape != (tree.n_leaves,):
        raise ValueError("distributions must cover the tree's leaves")
    return lifted_w1(tree, tree.subtree_sums(pa), tree.subtree_sums(pb))


def lifted_w1(tree: HstTree, za: np.ndarray, zb: np.ndarray) -> float:
    """W1 between two distributions given as lifted vertex masses:
    sum_v w_v * |za_v - zb_v| over the non-root vertices."""
    diff = np.abs(za - zb)
    diff[tree.root] = 0.0  # root mass is 1 on both sides; its weight is unused
    return float((tree.weight * diff).sum())


class _RowWalk:
    """Per-tree tables of the row walk, as Python lists for scalar access.

    The tree stores them, so they hold no reference back to it: a cycle
    would keep the tree alive until a full garbage collection.
    """

    def __init__(self, tree: HstTree):
        self.parent = tree.parent.tolist()
        self.children = [kids.tolist() for kids in tree.children]
        self.point_index = tree.point_index.tolist()
        self.root = tree.root

    def surplus(self, v: int, e: list) -> float:
        """Surplus queued into ``v`` from its children, before matching."""
        return sum(e[c] for c in self.children[v] if e[c] > 0.0)

    def deficit_leaves(self, v: int, lo: float, hi: float, e: list, js: list, ms: list):
        """Append the deficit pieces in [lo, hi) of ``v``'s deficit queue."""
        start = 0.0
        for c in self.children[v]:
            if e[c] >= 0.0:
                continue
            end = start - e[c]
            if end > lo:
                a, b = max(lo, start) - start, min(hi, end) - start
                j = self.point_index[c]
                if j >= 0:
                    if b > a:
                        js.append(j)
                        ms.append(b - a)
                else:
                    shift = self.surplus(c, e)
                    self.deficit_leaves(c, a + shift, b + shift, e, js, ms)
                if end >= hi:
                    return
            start = end


def _row_walk(tree: HstTree) -> _RowWalk:
    # Kept on the tree itself, as functools.cached_property would (the
    # frozen dataclass only guards __setattr__).
    walk = vars(tree).get("_row_walk")
    if walk is None:
        walk = vars(tree)["_row_walk"] = _RowWalk(tree)
    return walk


def coupling_row(tree: HstTree, a, b, prev: int) -> tuple[np.ndarray, np.ndarray]:
    """Row ``prev`` of the FIFO coupling of ``a`` and ``b``, without building it.

    Returns (next leaves, masses) in the pair order of the reference
    ``optimal_coupling`` in ``tests/conftest.py``; masses agree with it up
    to rounding.
    """
    pa, pb = _as_probs(a), _as_probs(b)
    if pa.shape != (tree.n_leaves,) or pb.shape != (tree.n_leaves,):
        raise ValueError("distributions must cover the tree's leaves")
    if not 0 <= prev < tree.n_leaves:
        raise ValueError(f"unknown point index {prev}")
    walk = _row_walk(tree)
    lifted = tree.subtree_sums(pa - pb)
    leftover = abs(float(lifted[walk.root]))
    if leftover > MARGINAL_TOL:
        raise AssertionError(f"unmatched transport mass {leftover:.3e}")
    e = lifted.tolist()
    js: list[int] = []
    ms: list[float] = []
    stay = min(pa[prev], pb[prev])
    if stay > 0.0:
        js.append(prev)
        ms.append(float(stay))
    # The surplus piece of ``prev``: [off, off + rest) in the queue of u.
    u = int(tree.leaf_vertex[prev])
    off, rest = 0.0, float(pa[prev] - pb[prev])
    while rest > 0.0 and e[u] > 0.0 and u != walk.root:
        v = walk.parent[u]
        surplus = deficit = 0.0
        for c in walk.children[v]:
            if c == u:
                off += surplus
            if e[c] > 0.0:
                surplus += e[c]
            else:
                deficit -= e[c]
        matched = min(surplus, deficit)
        if off < matched:
            hi = min(off + rest, matched)
            walk.deficit_leaves(v, off, hi, e, js, ms)
            off, rest = 0.0, off + rest - hi
        else:
            off -= matched
        u = v
    return np.array(js, dtype=np.int64), np.array(ms, dtype=float)


def sample_next(
    tree: HstTree, a, b, prev: int, rng: np.random.Generator, diag: dict | None = None
) -> int:
    """Draw the next leaf from row ``prev`` of the coupling of ``a`` and ``b``.

    A zero row (``prev`` carries no mass under ``a``, possible only through
    float underflow) falls back to sampling ``b`` directly. If ``diag`` is
    given, the row length and whether the fallback fired are recorded in
    it as ``row_pieces`` and ``coupling_fallback``.
    """
    js, ms = coupling_row(tree, a, b, prev)
    total = ms.sum()
    fallback = bool(total <= 0.0)
    if diag is not None:
        diag["row_pieces"] = int(js.size)
        diag["coupling_fallback"] = fallback
    if fallback:
        probs = _as_probs(b)
        return int(rng.choice(probs.shape[0], p=probs / probs.sum()))
    return int(rng.choice(js, p=ms / total))
