"""Mirror descent over a weighted tree: states, potential, and the leaf-to-root update.

The randomized controller keeps a probability vector over tree vertices.
Two parameterizations are used: ``TreeState`` holds per-vertex subtree
probabilities z (root = 1, parents are sums of children); the engine
steps conditional probabilities q over siblings (each child set sums to 1).
One control step updates, for every internal vertex in children-first
order, the conditional distribution over its children by minimizing

    D(p || q_prev) + <p, child_costs>

over the simplex, where D is the Bregman divergence of the weighted
entropic potential

    Phi(p) = (1/kappa) * sum_v (w_v / eta_v) * (p_v + delta_v) * log(p_v + delta_v),

with per-vertex constants theta = leaf-count ratio, eta = 1 + log(1/theta),
delta = theta/eta. The minimizer has the closed KKT form

    p_v = max(0, (q_v + delta_v) * exp(a_v * (beta - c_v)) - delta_v),
    a_v = kappa * eta_v / w_v,

with a scalar multiplier beta chosen so the entries sum to one; the sum is
convex and increasing in beta, so beta is found by a safeguarded Newton
iteration inside an analytic bracket. Entries where the non-negativity
multiplier is active come out exactly zero, so complementary slackness
holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hst import HstTree

SIMPLEX_TOL = 1e-10
STATE_TOL = 1e-8
MAX_NEWTON_ITERS = 80


class SolverConvergenceError(RuntimeError):
    """Raised when the per-vertex update fails to reach the simplex residual."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"mirror-descent update did not converge: residual {residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass
class TreeState:
    """Subtree-probability vector z indexed by tree vertex."""

    z: np.ndarray

    def validate(self, tree: HstTree, tol: float = STATE_TOL) -> None:
        z = self.z
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

    def leaf_distribution(self, tree: HstTree) -> np.ndarray:
        return self.z[tree.leaf_vertex]


@dataclass
class PotentialParams:
    """Constants of the entropic potential for one tree: kappa and (w, eta, delta)."""

    tree: HstTree
    kappa: float = 1.0
    w: np.ndarray = field(default=None)
    eta: np.ndarray = field(default=None)
    delta: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.kappa < 1.0:
            raise ValueError(f"kappa must be at least 1, got {self.kappa}")
        if self.w is None:
            self.w = np.asarray(self.tree.weight, dtype=float)
        _, eta, delta = self.tree.leaf_count_ratios()
        if self.eta is None:
            self.eta = eta
        if self.delta is None:
            self.delta = delta


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


def _newton_rows(q, delta, a, cost, mask):
    """Batched KKT iteration: (unnormalized minimizers, their row sums, iterations)."""
    neg_inf = -np.inf
    logqd = np.log(np.where(mask, q + delta, 1.0))
    logd = np.log(np.where(mask, delta, 1.0))
    # Bracket: at beta_lo every entry is clamped to zero, at beta_hi one
    # entry alone reaches mass one.
    b0 = np.where(mask, cost + (logd - logqd) / a, np.inf)
    b1 = np.where(mask, cost + (np.log1p(delta) - logqd) / a, np.inf)
    lo = b0.min(axis=1)
    beta = b1.min(axis=1)

    it = 0
    while True:
        # exponent stays below log(1+delta) while bracketed; the cap only
        # guards a pathological fallback excursion from overflowing
        expo = np.minimum(logqd + a * (beta[:, None] - cost), 700.0)
        vals = np.where(mask, np.exp(np.where(mask, expo, neg_inf)) - delta, 0.0)
        p = np.maximum(vals, 0.0)
        s = p.sum(axis=1)
        resid = s - 1.0
        if np.all(np.abs(resid) <= 1e-13) or it >= MAX_NEWTON_ITERS:
            return p, s, it
        # s is convex and increasing in beta, so Newton from above stays
        # bracketed; fall back to bisection if rounding pushes it out.
        slope = np.where(p > 0.0, a * (p + delta), 0.0).sum(axis=1)
        step = resid / np.where(slope > 0.0, slope, 1.0)
        nxt = beta - step
        bad = (nxt <= lo) | ~np.isfinite(nxt)
        beta = np.where(bad, 0.5 * (lo + beta), nxt)
        it += 1


def _solve_rows(q, delta, a, cost, mask):
    """Batched KKT solve: one simplex problem per row.

    All inputs are (m, k) arrays; ``mask`` flags real children (padded slots
    ignored). Returns the (m, k) minimizers with padded entries zero.

    At large costs, a * (beta - cost) loses the digits that set the row sum.
    Rows that miss the residual are solved again with their costs shifted
    by the row's minimum over real children, which leaves the minimizer
    unchanged; rows that converged keep their first solution.
    """
    p, s, it = _newton_rows(q, delta, a, cost, mask)
    failed = np.abs(s - 1.0) > STATE_TOL
    if failed.any():
        c = cost[failed]
        low = np.where(mask[failed], c, np.inf).min(axis=1)
        p[failed], s[failed], it = _newton_rows(
            q[failed], delta[failed], a[failed], c - low[:, None], mask[failed]
        )
        worst = float(np.max(np.abs(s - 1.0)))
        if worst > STATE_TOL:
            raise SolverConvergenceError(worst, it)
    return p / s[:, None]


def md_update_vertex(params: PotentialParams, u: int, q_prev, cost) -> np.ndarray:
    """Exact minimizer of D(p || q_prev) + <p, cost> over the children of ``u``."""
    kids = params.tree.children[u]
    k = len(kids)
    q_prev = np.asarray(q_prev, dtype=float)
    cost = np.asarray(cost, dtype=float)
    if q_prev.shape != (k,) or cost.shape != (k,):
        raise ValueError(f"vertex {u} has {k} children")
    if not np.all(np.isfinite(cost)):
        raise ValueError("child costs must be finite")
    if k == 1:
        return np.ones(1)
    w = params.w[kids]
    if np.all(w == 0.0):
        out = np.zeros(k)
        out[int(np.argmin(cost))] = 1.0
        return out
    if np.any(w == 0.0):
        raise ValueError(f"vertex {u} mixes zero and positive child weights")
    a = params.kappa * params.eta[kids] / w
    p = _solve_rows(
        q_prev[None, :],
        params.delta[kids][None, :],
        a[None, :],
        cost[None, :],
        np.ones((1, k), dtype=bool),
    )
    return p[0]


class MdEngine:
    """Caches the per-depth layer layout of a tree for fast repeated steps."""

    def __init__(self, tree: HstTree, params: PotentialParams | None = None):
        self.tree = tree
        self.params = params if params is not None else PotentialParams(tree)
        if self.params.tree is not tree:
            raise ValueError("params were built for a different tree")
        self._build_plan()

    def _build_plan(self):
        tree = self.tree
        params = self.params
        internal = tree.topological_internal()
        layers = []
        for d in sorted({int(tree.depth[v]) for v in internal}, reverse=True):
            verts = np.array([v for v in internal if tree.depth[v] == d], dtype=np.int64)
            kmax = max(len(tree.children[v]) for v in verts)
            idx = np.zeros((len(verts), kmax), dtype=np.int64)
            msk = np.zeros((len(verts), kmax), dtype=bool)
            for r, v in enumerate(verts):
                kids = tree.children[v]
                idx[r, : len(kids)] = kids
                msk[r, : len(kids)] = True
            w = np.where(msk, params.w[idx], 1.0)
            row_zero = np.array(
                [bool(np.all(w[r][msk[r]] == 0.0)) for r in range(len(verts))]
            )
            for r in range(len(verts)):
                wr = w[r][msk[r]]
                if not row_zero[r] and np.any(wr == 0.0):
                    raise ValueError(
                        f"vertex {verts[r]} mixes zero and positive child weights"
                    )
            eta = np.where(msk, params.eta[idx], 1.0)
            delta = np.where(msk, params.delta[idx], 0.5)
            safe_w = np.where(w > 0.0, w, 1.0)
            a = params.kappa * eta / safe_w
            layers.append(
                {
                    "verts": verts,
                    "idx": idx,
                    "mask": msk,
                    "delta": delta,
                    "a": a,
                    "zero_rows": row_zero,
                }
            )
        self._layers = layers

    def step(self, q_prev: np.ndarray, leaf_costs: np.ndarray, trace=None):
        """One mirror-descent sweep; returns (q_new, per-vertex costs)."""
        tree = self.tree
        leaf_costs = np.asarray(leaf_costs, dtype=float)
        if leaf_costs.shape != (tree.n_leaves,):
            raise ValueError("one cost per metric point is required")
        if not np.all(np.isfinite(leaf_costs)):
            raise ValueError("leaf costs must be finite")
        cost = np.zeros(tree.n_vertices)
        cost[tree.leaf_vertex] = leaf_costs
        q_new = np.ones(tree.n_vertices)
        for layer in self._layers:
            idx, msk = layer["idx"], layer["mask"]
            q_rows = np.where(msk, q_prev[idx], 0.0)
            c_rows = np.where(msk, cost[idx], 0.0)
            p = _solve_rows(q_rows, layer["delta"], layer["a"], c_rows, msk)
            zr = layer["zero_rows"]
            if zr.any():
                for r in np.where(zr)[0]:
                    krow = msk[r]
                    pr = np.zeros(krow.sum())
                    pr[int(np.argmin(c_rows[r][krow]))] = 1.0
                    p[r] = 0.0
                    p[r, : pr.size] = pr
            q_new[idx[msk]] = p[msk]
            cost[layer["verts"]] = (p * c_rows).sum(axis=1)
            if trace is not None:
                for r, v in enumerate(layer["verts"]):
                    krow = msk[r]
                    trace.append(
                        {
                            "vertex": int(v),
                            "children": [int(c) for c in idx[r][krow]],
                            "q_before": [float(x) for x in q_rows[r][krow]],
                            "q_after": [float(x) for x in p[r][krow]],
                            "child_costs": [float(x) for x in c_rows[r][krow]],
                            "vertex_cost": float(cost[v]),
                        }
                    )
        return q_new, cost

    def delta_map(self, q: np.ndarray) -> np.ndarray:
        """z from conditionals: z_root = 1, z_v = z_parent * q_v top-down."""
        tree = self.tree
        z = np.empty(tree.n_vertices)
        z[tree.root] = 1.0
        for verts in tree.depth_layers[1:]:
            z[verts] = z[tree.parent[verts]] * q[verts]
        return z

    def delta_inverse(self, z: np.ndarray) -> np.ndarray:
        """Conditionals from z; children of zero-mass parents get the uniform split."""
        tree = self.tree
        q = np.ones(tree.n_vertices)
        n_sib = np.ones(tree.n_vertices)
        for u in range(tree.n_vertices):
            kids = tree.children[u]
            if len(kids):
                n_sib[kids] = float(len(kids))
        for verts in tree.depth_layers[1:]:
            zp = z[tree.parent[verts]]
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = z[verts] / zp
            q[verts] = np.where(zp > 0.0, ratio, 1.0 / n_sib[verts])
        return q


def point_mass_state(tree: HstTree, point: int) -> TreeState:
    """The deterministic state: 1 on the root-to-leaf path of ``point``, else 0."""
    if not 0 <= point < tree.n_leaves:
        raise ValueError(f"unknown point index {point}")
    z = np.zeros(tree.n_vertices)
    v = int(tree.leaf_vertex[point])
    while v >= 0:
        z[v] = 1.0
        v = int(tree.parent[v])
    return TreeState(z)
