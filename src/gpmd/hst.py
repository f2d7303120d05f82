"""Hierarchically separated trees over a finite metric, and their random construction.

A tree carries one non-negative weight per vertex, interpreted as the weight
of the edge to the vertex's parent (the root weight is unused). The leaf
metric d_T(a, b) is the sum of the child-side weights along the a-b path.
The randomized embedding guarantees d_T >= d surely and O(log n) distortion
in expectation over the construction seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric import FiniteMetric


@dataclass(frozen=True)
class HstTree:
    """Rooted weighted tree whose leaves are the points of a finite metric.

    ``parent[v]`` is -1 for the root. ``leaf_vertex[i]`` maps point i to its
    leaf vertex, one distinct vertex per point, and every childless vertex
    is some point's leaf; ``point_index[v]`` is the inverse (-1 on internal
    vertices). Weight decay by a factor ``tau`` is enforced on every edge
    whose parent is not the root.
    """

    parent: np.ndarray
    weight: np.ndarray
    leaf_vertex: np.ndarray
    tau: float

    # Derived structure, filled in __post_init__.
    children: tuple = field(default=None, repr=False)
    depth: np.ndarray = field(default=None, repr=False)
    depth_layers: tuple = field(default=None, repr=False)
    point_index: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        parent = _as_indices("parent", self.parent)
        weight = np.asarray(self.weight, dtype=float)
        leaf_vertex = _as_indices("leaf_vertex", self.leaf_vertex)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "leaf_vertex", leaf_vertex)

        nv = parent.shape[0]
        if weight.shape != parent.shape:
            raise ValueError(f"{weight.size} weights for {nv} vertices")
        _check_vertices("parent", parent, -1, nv)
        _check_vertices("leaf_vertex", leaf_vertex, 0, nv)
        kids: list[list[int]] = [[] for _ in range(nv)]
        roots = []
        for v in range(nv):
            p = parent[v]
            if p < 0:
                roots.append(v)
            else:
                kids[p].append(v)
        if len(roots) != 1:
            raise ValueError(f"tree must have exactly one root, found {len(roots)}")
        object.__setattr__(self, "children", tuple(np.asarray(c, dtype=np.int64) for c in kids))

        depth = np.full(nv, -1, dtype=np.int64)
        depth[roots[0]] = 0
        stack = [roots[0]]
        seen = 1
        while stack:
            u = stack.pop()
            for c in kids[u]:
                depth[c] = depth[u] + 1
                stack.append(c)
                seen += 1
        if seen != nv or np.any(depth < 0):
            raise ValueError("tree contains unreachable vertices or a cycle")
        object.__setattr__(self, "depth", depth)
        # Vertices grouped by depth, root layer first.
        layers = tuple(np.flatnonzero(depth == d) for d in range(int(depth.max()) + 1))
        object.__setattr__(self, "depth_layers", layers)

        point_index = np.full(nv, -1, dtype=np.int64)
        for i, v in enumerate(leaf_vertex):
            if point_index[v] >= 0:
                raise ValueError(
                    f"leaf_vertex[{i}] = {v} is also leaf_vertex[{point_index[v]}]: "
                    "each point needs a leaf of its own"
                )
            point_index[v] = i
        object.__setattr__(self, "point_index", point_index)
        self._validate()

    @property
    def root(self) -> int:
        return int(np.where(self.parent < 0)[0][0])

    @property
    def n_vertices(self) -> int:
        return self.parent.shape[0]

    @property
    def n_leaves(self) -> int:
        return self.leaf_vertex.shape[0]

    def _validate(self) -> None:
        if not self.tau > 1:
            raise ValueError(f"tau must exceed 1, got {self.tau}")
        if not np.all(self.weight >= 0):
            raise ValueError("vertex weights must be non-negative")
        parent = self.parent
        is_leaf = self.point_index >= 0
        has_kids = np.bincount(parent[parent >= 0], minlength=self.n_vertices) > 0
        bad = np.flatnonzero(is_leaf == has_kids)
        if bad.size:
            v = int(bad[0])
            if is_leaf[v]:
                raise ValueError(f"vertex {v} is both a leaf and internal")
            raise ValueError(f"internal vertex {v} has no children")
        # tau-decay on every edge whose parent edge exists (parent not root),
        # with a relative slack of a few ulps for rounding in the embedding.
        child = np.flatnonzero((parent >= 0) & (parent != self.root))
        heavy = self.weight[child] > self.weight[parent[child]] / self.tau * (1 + 1e-12)
        bad = child[heavy]
        if bad.size:
            v = int(bad[0])
            p = parent[v]
            raise ValueError(
                f"weight decay violated at vertex {v}: "
                f"{self.weight[v]} > {self.weight[p]}/{self.tau}"
            )

    # -- per-vertex bookkeeping used by the mirror-descent potential ----

    def subtree_sums(self, leaf_values) -> np.ndarray:
        """Per vertex, the sum of ``leaf_values`` (one per metric point) below it."""
        z = np.zeros(self.n_vertices)
        z[self.leaf_vertex] = leaf_values
        for verts in self.depth_layers[:0:-1]:
            np.add.at(z, self.parent[verts], z[verts])
        return z

    def leaf_counts(self) -> np.ndarray:
        return self.subtree_sums(np.ones(self.n_leaves)).astype(np.int64)

    def leaf_count_ratios(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-vertex (theta, eta, delta); entries at the root are NaN.

        theta_u = |L(u)| / |L(parent(u))|, eta_u = 1 + log(1/theta_u),
        delta_u = theta_u / eta_u.
        """
        counts = self.leaf_counts().astype(float)
        theta = np.full(self.n_vertices, np.nan)
        mask = self.parent >= 0
        theta[mask] = counts[mask] / counts[self.parent[mask]]
        eta = 1.0 - np.log(theta)
        delta = theta / eta
        return theta, eta, delta


def _as_indices(name: str, entries) -> np.ndarray:
    """``entries`` as int64, naming the first entry the cast would change."""
    raw = np.asarray(entries)
    with np.errstate(invalid="ignore"):  # NaN and inf are reported below
        cast = raw.astype(np.int64, copy=False)
    bad = np.flatnonzero(cast != raw)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{name}[{i}] = {raw[i]} is not an integer")
    return cast


def _check_vertices(name: str, entries: np.ndarray, low: int, nv: int) -> None:
    """Raise unless every entry lies in [low, nv), naming the first that does not."""
    bad = np.flatnonzero((entries < low) | (entries >= nv))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{name}[{i}] = {entries[i]} is not a vertex of a {nv}-vertex tree")


def frt_embed(metric: FiniteMetric, tau: float = 5.0, rng_seed: int = 0) -> HstTree:
    """Randomized low-distortion embedding of ``metric`` into a tau-HST.

    Draws a uniform permutation of the points and a radius multiplier
    beta = tau**U (U uniform, i.e. density proportional to 1/beta on
    [1, tau)), then builds laminar clusters with radii beta * tau**i from
    level ceil(log_tau diameter) downward; each point joins the first
    permuted center within the radius. A cluster created at level i gets
    vertex weight beta * tau**(i+1), which makes d_T dominate d for every
    pair on every seed. Points at zero distance are collapsed and restored
    as zero-weight children below the shared leaf.
    """
    if not tau > 1:
        raise ValueError(f"tau must exceed 1, got {tau}")
    rng = np.random.default_rng(rng_seed)
    n = metric.n
    dist = metric.dist

    # Collapse zero-distance groups: reps[g] is the representative point.
    group_of = np.full(n, -1, dtype=np.int64)
    reps: list[int] = []
    for i in range(n):
        if group_of[i] >= 0:
            continue
        g = len(reps)
        members = np.where(dist[i] == 0.0)[0]
        group_of[members] = g
        reps.append(i)
    members_of = [np.where(group_of == g)[0] for g in range(len(reps))]
    rep_idx = np.asarray(reps, dtype=np.int64)
    m = len(reps)

    parents: list[int] = []
    weights: list[float] = []
    group_leaf = np.full(m, -1, dtype=np.int64)

    def new_vertex(parent: int, weight: float) -> int:
        parents.append(parent)
        weights.append(weight)
        return len(parents) - 1

    if m == 1:
        root = new_vertex(-1, 0.0)
        group_leaf[0] = root
    else:
        sub = dist[np.ix_(rep_idx, rep_idx)]
        psi = float(sub.max())
        top = math.ceil(math.log(psi, tau))
        while tau**top < psi:  # guard against log() rounding
            top += 1
        perm = rng.permutation(m)
        beta = float(tau ** rng.uniform(0.0, 1.0))
        # Columns in permutation order: a member's centre is the first
        # column within the radius (its own column always is).
        sub_perm = sub[:, perm]

        root = new_vertex(-1, 0.0)
        # (vertex, member representative indices) clusters awaiting splitting
        active: list[tuple[int, np.ndarray]] = [(root, np.arange(m))]
        level = top - 1
        while active:
            radius = beta * tau**level
            child_w = beta * tau ** (level + 1)
            nxt: list[tuple[int, np.ndarray]] = []
            for vert, members in active:
                rank = np.argmax(sub_perm[members] <= radius, axis=1)
                # children in centre-rank order, members in cluster order
                order = np.argsort(rank, kind="stable")
                ranks = rank[order]
                cuts = np.flatnonzero(ranks[1:] != ranks[:-1]) + 1
                for chunk in np.split(members[order], cuts):
                    child = new_vertex(vert, child_w)
                    if chunk.size == 1:
                        group_leaf[chunk[0]] = child
                    else:
                        nxt.append((child, chunk))
            active = nxt
            level -= 1

    # Restore collapsed duplicates as zero-weight fanouts.
    leaf_vertex = np.full(n, -1, dtype=np.int64)
    for g in range(m):
        members = members_of[g]
        if members.size == 1:
            leaf_vertex[members[0]] = group_leaf[g]
        else:
            for p in members:
                leaf_vertex[p] = new_vertex(int(group_leaf[g]), 0.0)

    return HstTree(
        parent=np.asarray(parents, dtype=np.int64),
        weight=np.asarray(weights, dtype=float),
        leaf_vertex=leaf_vertex,
        tau=float(tau),
    )
