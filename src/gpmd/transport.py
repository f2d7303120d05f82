"""Optimal transport between leaf distributions under the tree metric.

On a weighted tree an optimal coupling is built greedily: mass that can
stay put stays put, and per subtree the remaining surplus is matched
against the deficit before the imbalance is routed through the parent
edge. Its cost is the closed-form Wasserstein-1 distance
sum_v w_v * |z_v - z'_v| over the lifted subtree masses. The program never
needs that number: the closed form is a test oracle in ``tests/conftest.py``.

The reference, ``optimal_coupling`` in ``tests/conftest.py``, builds that
whole FIFO coupling. The controller only ever needs one row of it, the row
of its current action, and ``coupling_row`` computes that row alone, from
the two lifted states (subtree masses per vertex) that a mirror step
holds. With e = the lifted imbalance z_prev - z_new, the surplus queue at
a vertex is the concatenation, in child order, of the queues its children
with e > 0 pass up, and likewise the deficit queue for children with
e < 0. FIFO matching eats the first min(surplus, deficit) of both queues
(the north-west-corner rule), so in cumulative coordinates the matched
part is an interval, and what a vertex passes up is the tail of its queue.
The walk follows the previous action's single surplus piece up from its
leaf as an (offset, residual) pair in each ancestor's queue, and maps each
matched interval to deficit leaves by descending into the deficit children
it overlaps, shifting the offset at each child by the deficit that child
matched itself. Pieces come out in the reference's pair order: the stay
mass first, then bottom-up by ancestor and in queue order within each. The
masses agree with the reference up to rounding, which differs only in the
last bits and in crumbs of about 1e-17 that the reference's repeated
subtractions leave behind.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .hst import HstTree

DIST_SUM_TOL = 1e-10
MARGINAL_TOL = 1e-9


def _as_probs(dist) -> np.ndarray:
    """``dist`` as a float array, checked to be a probability vector."""
    p = np.asarray(dist, dtype=float)
    if not p.min() >= 0:  # NaN fails this too
        raise ValueError("leaf probabilities must be non-negative numbers")
    if abs(p.sum() - 1.0) > DIST_SUM_TOL:
        raise ValueError(f"leaf probabilities sum to {p.sum()!r}, not 1")
    return p


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
        """Append the deficit pieces in [lo, hi) of ``v``'s deficit queue, descending
        on a stack of its own: a tree can be thousands of levels deep."""
        stack = [(v, lo, hi)]
        while stack:
            v, lo, hi = stack.pop()
            j = self.point_index[v]
            if j >= 0:
                if hi > lo:
                    js.append(j)
                    ms.append(hi - lo)
                continue
            pieces, start = [], 0.0
            for c in self.children[v]:
                if e[c] >= 0.0:
                    continue
                end = start - e[c]
                if end > lo:
                    shift = self.surplus(c, e)  # 0 at a leaf
                    pieces.append((c, max(lo, start) - start + shift, min(hi, end) - start + shift))
                    if end >= hi:
                        break
                start = end
            stack += reversed(pieces)  # so they come off in child order


def _row_walk(tree: HstTree) -> _RowWalk:
    # Kept on the tree itself, as functools.cached_property would (the
    # frozen dataclass only guards __setattr__).
    walk = vars(tree).get("_row_walk")
    if walk is None:
        walk = vars(tree)["_row_walk"] = _RowWalk(tree)
    return walk


def coupling_row(tree: HstTree, z_prev, z_new, prev: int) -> tuple[np.ndarray, np.ndarray]:
    """Row ``prev`` of the FIFO coupling between two lifted states, without building it.

    ``z_prev`` and ``z_new`` hold each vertex's subtree mass, as
    ``MdEngine.delta_map`` returns them; their leaf entries are the two
    leaf distributions. Returns (next leaves, masses) in the pair order of
    the reference ``optimal_coupling`` in ``tests/conftest.py``; masses
    agree with it up to rounding.
    """
    z_prev, z_new = np.asarray(z_prev, dtype=float), np.asarray(z_new, dtype=float)
    if z_prev.shape != (tree.n_vertices,) or z_new.shape != (tree.n_vertices,):
        raise ValueError("lifted states must cover the tree's vertices")
    pa, pb = _as_probs(z_prev[tree.leaf_vertex]), _as_probs(z_new[tree.leaf_vertex])
    if not 0 <= prev < tree.n_leaves:
        raise ValueError(f"unknown point index {prev}")
    walk = _row_walk(tree)
    e = (z_prev - z_new).tolist()
    leftover = abs(e[walk.root])
    if leftover > MARGINAL_TOL:
        raise AssertionError(f"unmatched transport mass {leftover:.3e}")
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


def _draw(js: np.ndarray, p: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(js, p=p)`` as that call draws it, on Python floats: one
    ``rng.random()`` bisected into the left-to-right cumulative sums of p,
    divided by their last. Like ``choice``, it rejects a NaN or negative p."""
    probs = p.tolist()
    if not all(x >= 0.0 for x in probs):
        raise ValueError("probabilities must be non-negative numbers")
    cdf = list(accumulate(probs))
    last = cdf[-1]
    return int(js[bisect_right([c / last for c in cdf], rng.random())])


def sample_next(tree: HstTree, z_prev, z_new, prev: int, rng: np.random.Generator) -> int:
    """Draw the next leaf from row ``prev`` of the coupling of two lifted states.

    A zero row (``prev`` carries no mass under ``z_prev``, possible only
    through float underflow) falls back to sampling ``z_new``'s leaves
    directly.
    """
    js, ms = coupling_row(tree, z_prev, z_new, prev)
    if ms.sum() <= 0.0:
        js, ms = np.arange(tree.n_leaves), np.asarray(z_new, dtype=float)[tree.leaf_vertex]
    return _draw(js, ms / ms.sum(), rng)
