"""Shared fixtures and independent oracles used across the test suite.

The oracles are reference implementations that no run calls: the full FIFO
coupling (``optimal_coupling``) that ``gpmd.transport.coupling_row`` walks
one row of, the all-pairs tree metric (``distance_matrix``), the entropic
divergence (``bregman``) that mirror descent minimizes, brute-force
enumeration for the offline DP (``brute_force_optimal``), a per-vertex
bisection on the mirror-descent KKT form (``bisection_step``), state checks
(``validate_state``, ``validate_conditionals``) and a dense LP for optimal
transport (``lp_transport_cost``), a per-k scan of the metric axioms
(``loop_triangle_error``) and the scalar interval bound of the wind energy
(``energy_service_interval``) that ``gpmd.wind.cost_bounds`` computes over
arrays. ``write_wind_csv`` writes a wind table in the format
``gpmd.wind.ingest_wind_csv`` reads.
"""

import csv
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import linprog

from gpmd.hst import HstTree
from gpmd.mirror import STATE_TOL, PotentialParams
from gpmd.transport import MARGINAL_TOL, _as_probs
from gpmd.wind import WindTable


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
    """A random laminar hierarchy with exact tau-decay; ``distance_matrix``
    gives its leaf metric.

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
    return HstTree(
        parent=np.asarray(parents, dtype=np.int64),
        weight=weights,
        leaf_vertex=leaf_vertex,
        tau=tau,
    )


def distance_matrix(tree: HstTree) -> np.ndarray:
    """All-pairs d_T over metric points.

    Climbs every pair at once: the deeper leaf up to the other's depth,
    then both leaves together until they meet, adding the child-side
    weight of each edge passed, so d(i, j) and d(j, i) are the same float.
    """
    n = tree.n_leaves
    i, j = np.triu_indices(n, 1)
    a, b = tree.leaf_vertex[i], tree.leaf_vertex[j]
    total = np.zeros(a.shape[0])
    for deeper, other in ((a, b), (b, a)):
        while True:
            up = np.flatnonzero(tree.depth[deeper] > tree.depth[other])
            if not up.size:
                break
            total[up] += tree.weight[deeper[up]]
            deeper[up] = tree.parent[deeper[up]]
    while True:
        up = np.flatnonzero(a != b)
        if not up.size:
            break
        total[up] += tree.weight[a[up]] + tree.weight[b[up]]
        a[up], b[up] = tree.parent[a[up]], tree.parent[b[up]]
    out = np.zeros((n, n))
    out[i, j] = out[j, i] = total
    return out


def loop_triangle_error(d: np.ndarray, tol: float = 1e-9):
    """The first metric axiom ``d`` breaks, by a per-k scan, or None.

    Returns "square", "finite", "diagonal", "non-negative", "symmetric" or
    "triangle"; symmetry and d_ij <= d_ik + d_kj are checked within ``tol``.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        return "square"
    if not np.all(np.isfinite(d)):
        return "finite"
    if np.any(np.diag(d) != 0.0):
        return "diagonal"
    if np.any(d < 0.0):
        return "non-negative"
    if np.max(np.abs(d - d.T)) > tol:
        return "symmetric"
    for k in range(d.shape[0]):
        if (d - (d[:, [k]] + d[[k], :])).max() > tol:
            return "triangle"
    return None


def validate_state(tree: HstTree, z: np.ndarray, tol: float = STATE_TOL) -> None:
    """Raise unless z, indexed by vertex, holds subtree probabilities."""
    if z.shape != (tree.n_vertices,):
        raise ValueError("state length must match the vertex count")
    if np.any(z < -tol):
        raise ValueError("subtree probabilities must be non-negative")
    if abs(z[tree.root] - 1.0) > tol:
        raise ValueError("root probability must be 1")
    for u in range(tree.n_vertices):
        kids = tree.children[u]
        if len(kids) and abs(z[kids].sum() - z[u]) > tol:
            raise ValueError(f"children of {u} do not sum to the parent mass")


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
    # HiGHS's default 1e-7 feasibility tolerances move the optimum of a
    # sparse or skewed pair by more than the 1e-9 the tests compare at.
    res = linprog(
        cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def bregman(params: PotentialParams, u: int, p, q) -> float:
    """Divergence D(p || q) between child distributions of vertex ``u``."""
    kids = params.tree.children[u]
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (len(kids),) or q.shape != (len(kids),):
        raise ValueError(f"vertex {u} has {len(kids)} children")
    w = params.w[kids]
    eta = params.eta[kids]
    delta = params.delta[kids]
    terms = (w / eta) * ((p + delta) * np.log((p + delta) / (q + delta)) + q - p)
    return float(terms.sum() / params.kappa)


def bisection_step(params: PotentialParams, q_prev: np.ndarray, leaf_costs) -> tuple:
    """One mirror-descent sweep solved vertex by vertex: (q_new, vertex costs).

    Each internal vertex, children first, takes the KKT form
    p_v = max(0, (q_v + delta_v) * exp(a_v * (beta - c_v)) - delta_v) with
    a_v = kappa * eta_v / w_v, and beta is bisected over the bracket until
    the midpoint stops moving. Costs are shifted by the child set's minimum,
    which moves only beta. A single child takes q = 1 and a child set of
    zero-weight edges the argmin (lowest index on ties).
    """
    tree = params.tree
    cost = np.zeros(tree.n_vertices)
    cost[tree.leaf_vertex] = leaf_costs
    q = np.ones(tree.n_vertices)
    for layer in tree.depth_layers[::-1]:
        for u in layer:
            kids = tree.children[u]
            if not len(kids):
                continue
            c = cost[kids]
            w = params.w[kids]
            if len(kids) == 1 or not w.any():
                p = np.zeros(len(kids))
                p[np.argmin(c)] = 1.0
            else:
                shifted = c - c.min()
                a = params.kappa * params.eta[kids] / w
                delta = params.delta[kids]
                x = q_prev[kids] + delta

                def mass(beta):
                    return np.maximum(0.0, x * np.exp(a * (beta - shifted)) - delta)

                lo = float(np.min(shifted + np.log(delta / x) / a))
                hi = float(np.min(shifted + np.log((1.0 + delta) / x) / a))
                while mass(hi).sum() < 1.0:
                    hi += hi - lo
                while True:
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:
                        break
                    if mass(mid).sum() < 1.0:
                        lo = mid
                    else:
                        hi = mid
                p = mass(hi)
                p /= p.sum()
            q[kids] = p
            cost[u] = float(p @ c)
    return q, cost


def brute_force_optimal(cost_matrix: np.ndarray, dist: np.ndarray, x0: int):
    """Enumerates every action sequence; test oracle for the DP."""
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    H, n = cost_matrix.shape
    if n**H > 2_000_000:
        raise ValueError("instance too large to enumerate")
    seqs = np.indices((n,) * H).reshape(H, -1)
    total = cost_matrix[0][seqs[0]] + dist[x0][seqs[0]]
    for h in range(1, H):
        total = total + cost_matrix[h][seqs[h]] + dist[seqs[h - 1], seqs[h]]
    best = int(np.argmin(total))
    return [int(s) for s in seqs[:, best]], float(total[best])


@dataclass(frozen=True)
class Coupling:
    """Sparse joint distribution over (previous leaf, next leaf) pairs."""

    tree: HstTree
    pairs: tuple  # ((i, j, mass), ...)

    def row_marginal(self) -> np.ndarray:
        out = np.zeros(self.tree.n_leaves)
        for i, _, m in self.pairs:
            out[i] += m
        return out

    def col_marginal(self) -> np.ndarray:
        out = np.zeros(self.tree.n_leaves)
        for _, j, m in self.pairs:
            out[j] += m
        return out

    def expected_cost(self) -> float:
        dist = distance_matrix(self.tree)
        return float(sum(m * dist[i, j] for i, j, m in self.pairs))

    def conditional_row(self, prev: int) -> tuple[np.ndarray, np.ndarray]:
        js = np.array([j for i, j, _ in self.pairs if i == prev], dtype=np.int64)
        ms = np.array([m for i, _, m in self.pairs if i == prev], dtype=float)
        return js, ms


def optimal_coupling(tree: HstTree, a, b) -> Coupling:
    """A minimal-cost coupling between leaf distributions ``a`` and ``b``.

    Bottom-up matching: the diagonal min(a, b) stays in place; at each
    internal vertex the surplus queued below is matched FIFO against the
    deficit queued below, so the net flow across every edge equals the
    subtree imbalance and the coupling attains the closed-form W1 cost.
    """
    pa, pb = _as_probs(a), _as_probs(b)
    if pa.shape != (tree.n_leaves,) or pb.shape != (tree.n_leaves,):
        raise ValueError("distributions must cover the tree's leaves")
    pairs: list[tuple[int, int, float]] = []
    stay = np.minimum(pa, pb)
    for i in range(tree.n_leaves):
        if stay[i] > 0.0:
            pairs.append((i, i, float(stay[i])))

    # surplus[v] / deficit[v]: FIFO queues of (leaf point, mass) below v.
    surplus: dict[int, deque] = {}
    deficit: dict[int, deque] = {}
    for i in range(tree.n_leaves):
        v = int(tree.leaf_vertex[i])
        extra = float(pa[i] - pb[i])
        if extra > 0.0:
            surplus[v] = deque([(i, extra)])
        elif extra < 0.0:
            deficit[v] = deque([(i, -extra)])

    for v in np.concatenate(tree.depth_layers[::-1]):
        kids = tree.children[v]
        if len(kids) == 0:
            continue
        sq: deque = deque()
        dq: deque = deque()
        for c in kids:
            sq.extend(surplus.pop(int(c), ()))
            dq.extend(deficit.pop(int(c), ()))
        while sq and dq:
            si, sm = sq[0]
            di, dm = dq[0]
            moved = min(sm, dm)
            pairs.append((si, di, moved))
            if sm - moved <= 0.0:
                sq.popleft()
            else:
                sq[0] = (si, sm - moved)
            if dm - moved <= 0.0:
                dq.popleft()
            else:
                dq[0] = (di, dm - moved)
        if sq:
            surplus[v] = sq
        if dq:
            deficit[v] = dq

    root = tree.root
    leftover = sum(m for _, m in surplus.get(root, ())) + sum(
        m for _, m in deficit.get(root, ())
    )
    if leftover > MARGINAL_TOL:
        raise AssertionError(f"unmatched transport mass {leftover:.3e}")
    return Coupling(tree=tree, pairs=tuple(pairs))


def write_wind_csv(path, table: WindTable) -> None:
    """One ``timestamp,altitude_m,windspeed_ms`` row per hour and altitude."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "altitude_m", "windspeed_ms"])
        for k, ts in enumerate(table.timestamps):
            for i, alt in enumerate(table.altitudes):
                writer.writerow([ts.isoformat(), repr(float(alt)), repr(float(table.speeds[i, k]))])


def energy_service_interval(params, lo: float, hi: float):
    """(min, max) of E_S over a windspeed interval, one candidate point at a time."""
    if lo > hi:
        raise ValueError("empty windspeed interval")
    lo = max(0.0, float(lo))
    hi = max(lo, float(hi))
    c1, c2, v_r, dt = params.c1, params.c2, params.v_rated, params.dt_minutes
    candidates = [lo, hi]
    for crit in (params.stall_speed, v_r):
        if lo < crit < hi:
            candidates.append(crit)
    # Scalar arithmetic in energy_service's order of operations, so the
    # result matches it bit for bit (an array ``**3`` may differ in the last bit).
    vals = [(c1 * min(v, v_r) ** 3 - c2 * (v * v)) * dt for v in candidates]
    return min(vals), max(vals)
