"""Mirror descent over a weighted tree: potential and the leaf-to-root update.

The randomized controller keeps a probability vector over tree vertices.
Two parameterizations are used, both plain arrays indexed by vertex: the
subtree probabilities z (root = 1, parents are sums of children), and the
conditional probabilities q over siblings (each child set sums to 1) that
the engine steps.
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

with a scalar multiplier beta chosen so the entries sum to one. Newton
steps in y = exp(a_min * beta), a_min the smallest a of the child set: an
active entry is x_v * y^(a_v / a_min), a power of at least one, so the sum
is convex and increasing in y, and Newton from the top of an analytic
bracket descends to the root without passing it. A child set whose active
entries share one a is linear in y and takes one step. Entries where the
non-negativity multiplier is active come out exactly zero, so complementary
slackness holds by construction. Costs are first shifted by each child
set's minimum, which moves only beta, so one Newton pass serves every cost
scale.

``MdEngine`` solves one depth layer of internal vertices at a time, deepest
first. A layer keeps the real children of its vertices in flat arrays, one
contiguous segment per parent (CSR-style): the child ids, the segment
starts, each child's segment, and the constants a, 1/a, delta, log(delta),
the bracket width (log1p(delta) - log(delta)) / a, a / a_min and the
segment's 1 / a_min, all built once with array ops. A Newton iteration
touches only these entries: beta is broadcast by segment, ``np.add.reduceat``
gives the segment sums and slopes, and ``np.minimum.reduceat`` the bracket.
A segment's sum is its first entry plus numpy's pairwise sum of the rest, so
it can differ in the last bits from a sum that groups the same numbers
differently, such as ``sum(axis=1)`` over a zero-padded row. A layer whose
vertices all have one child is a direct assignment (q = 1, and the vertex
takes its child's cost). A single vertex's update is a step on a star tree.

The reference implementations that tests compare against, the divergence
``bregman``, the per-vertex bisection ``bisection_step`` and the state check
``validate_state``, live in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hst import HstTree

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


@dataclass(frozen=True)
class _Layer:
    """The children of one depth's internal vertices, flat and grouped by parent.

    Segment r holds the children of ``verts[r]`` at entries ``starts[r]``
    up to ``starts[r + 1]``; ``rid`` and ``par`` give each entry's segment
    and parent. ``zero_rows`` lists the (start, stop) entry ranges of
    parents whose children all have zero weight. ``direct`` marks a layer
    whose parents all have one child.
    """

    verts: np.ndarray
    kids: np.ndarray
    starts: np.ndarray
    rid: np.ndarray
    par: np.ndarray
    uniform: np.ndarray  # 1 / sibling count, per entry
    delta: np.ndarray
    logd: np.ndarray
    a: np.ndarray
    inva: np.ndarray  # 1 / a
    hi_off: np.ndarray  # beta_hi - beta_lo per entry: (log1p(delta) - log(delta)) / a
    k: np.ndarray  # a / a_min, per entry
    inv_amin: np.ndarray  # 1 / a_min, a_min the smallest a per segment
    zero_rows: tuple
    direct: bool


def _solve(q, c, lay: _Layer):
    """Segmented KKT solve: one simplex problem per segment of the layer.

    Returns (minimizers, Newton iterations); every segment iterates until
    all of them converge. Each segment's costs are first shifted by their
    minimum, which leaves the minimizer unchanged and keeps a * (beta - cost)
    from losing the digits that set the sum at large costs.
    """
    starts, rid, a, delta = lay.starts, lay.rid, lay.a, lay.delta
    cost = c - np.minimum.reduceat(c, starts)[rid]
    base = np.log(q + delta)
    base -= a * cost
    # Bracket: at beta_lo every entry is clamped to zero, at beta_hi one
    # entry alone reaches mass one.
    edge = lay.logd - base
    edge *= lay.inva
    lo = np.minimum.reduceat(edge, starts)
    edge += lay.hi_off
    beta = np.minimum.reduceat(edge, starts)

    it = 0
    while True:
        # p = max(0, (q + delta) * exp(a * (beta - c)) - delta) as
        # exp(a * beta + base) - delta. Newton from beta_hi only lowers
        # beta, so the exponent stays below log(1+delta); the cap is an
        # overflow guard, should rounding ever push an iterate above the
        # bracket.
        e = beta[rid]
        e *= a
        e += base
        np.minimum(e, 700.0, out=e)
        np.exp(e, out=e)
        p = e - delta
        np.maximum(p, 0.0, out=p)
        s = np.add.reduceat(p, starts)
        gap = 1.0 - s
        if -1e-13 <= gap.min() and gap.max() <= 1e-13:
            break
        if it == MAX_NEWTON_ITERS:
            worst = float(np.abs(gap).max())
            if not worst <= STATE_TOL:  # NaN fails too
                raise SolverConvergenceError(worst, it)
            break
        # Newton in y = exp(a_min * beta), where s(y) is convex: with
        # k = a / a_min, y * s'(y) sums k * (p + delta) over the active
        # entries (clamped ones add no slope), and y *= 1 + (1 - s) /
        # (y * s'(y)) is a step of log1p(...) / a_min in beta. Bisect if
        # rounding pushes an iterate out of the bracket; a log1p argument
        # <= -1 (-inf or NaN) and a NaN entry land there too.
        e *= lay.k
        e *= p > 0.0
        slope = np.add.reduceat(e, starts)
        slope[slope <= 0.0] = 1.0
        gap /= slope
        nxt = np.log1p(gap, out=gap)
        nxt *= lay.inv_amin
        nxt += beta
        ok = nxt > lo
        ok &= np.isfinite(nxt)
        if not ok.all():
            nxt = np.where(ok, nxt, 0.5 * (lo + beta))
        beta = nxt
        it += 1
    return p / s[rid], it


class MdEngine:
    """Caches the per-depth layer layout of a tree for fast repeated steps.

    After each ``step``, ``newton_iters`` holds the Newton iterations per
    layer (deepest first).
    """

    def __init__(self, tree: HstTree, params: PotentialParams | None = None):
        self.tree = tree
        self.params = params if params is not None else PotentialParams(tree)
        if self.params.tree is not tree:
            raise ValueError("params were built for a different tree")
        self._layers = self._build_plan()
        self.newton_iters: tuple = ()

    def _build_plan(self) -> list:
        tree = self.tree
        params = self.params
        layers = []
        # The children of depth d's internal vertices are exactly depth d + 1.
        for kids in tree.depth_layers[:0:-1]:
            par = tree.parent[kids]
            order = np.argsort(par, kind="stable")
            kids, par = kids[order], par[order]
            starts = np.flatnonzero(np.r_[True, par[1:] != par[:-1]])
            counts = np.diff(starts, append=kids.size)
            rid = np.repeat(np.arange(starts.size), counts)
            w = params.w[kids]
            n_zero = np.add.reduceat((w == 0.0).astype(np.int64), starts)
            mixed = np.flatnonzero((n_zero > 0) & (n_zero < counts))
            if mixed.size:
                raise ValueError(
                    f"vertex {par[starts[mixed[0]]]} mixes zero and positive child weights"
                )
            delta = params.delta[kids]
            logd = np.log(delta)
            # zero-weight rows are solved with w = 1, then replaced
            a = params.kappa * params.eta[kids] / np.where(w > 0.0, w, 1.0)
            amin = np.minimum.reduceat(a, starts)
            zero = np.flatnonzero(n_zero == counts)
            layers.append(
                _Layer(
                    verts=par[starts],
                    kids=kids,
                    starts=starts,
                    rid=rid,
                    par=par,
                    uniform=1.0 / counts[rid],
                    delta=delta,
                    logd=logd,
                    a=a,
                    inva=1.0 / a,
                    hi_off=(np.log1p(delta) - logd) / a,
                    k=a / amin[rid],
                    inv_amin=1.0 / amin,
                    zero_rows=tuple(
                        (int(starts[r]), int(starts[r] + counts[r])) for r in zero
                    ),
                    direct=bool(np.all(counts == 1)),
                )
            )
        return layers

    def step(self, q_prev: np.ndarray, leaf_costs: np.ndarray):
        """One mirror-descent sweep; returns (q_new, per-vertex costs)."""
        tree = self.tree
        leaf_costs = np.asarray(leaf_costs, dtype=float)
        if leaf_costs.shape != (tree.n_leaves,):
            raise ValueError("one cost per metric point is required")
        if not np.isfinite(leaf_costs).all():
            raise ValueError("leaf costs must be finite")
        cost = np.zeros(tree.n_vertices)
        cost[tree.leaf_vertex] = leaf_costs
        q_new = np.ones(tree.n_vertices)
        iters = []
        for lay in self._layers:
            c = cost[lay.kids]
            if lay.direct:
                # one child each: q = 1 and the parent takes the child's cost
                cost[lay.verts] = c
                iters.append(0)
            else:
                p, it = _solve(q_prev[lay.kids], c, lay)
                for lo, hi in lay.zero_rows:
                    j = lo + int(np.argmin(c[lo:hi]))
                    p[lo:hi] = 0.0
                    p[j] = 1.0
                q_new[lay.kids] = p
                cost[lay.verts] = np.add.reduceat(p * c, lay.starts)
                iters.append(it)
        self.newton_iters = tuple(iters)
        return q_new, cost

    def delta_map(self, q: np.ndarray) -> np.ndarray:
        """z from conditionals: z_root = 1, z_v = z_parent * q_v top-down."""
        tree = self.tree
        z = np.empty(tree.n_vertices)
        z[tree.root] = 1.0
        for lay in reversed(self._layers):
            z[lay.kids] = z[lay.par] * q[lay.kids]
        return z

    def delta_inverse(self, z: np.ndarray) -> np.ndarray:
        """Conditionals from z; children of zero-mass parents get the uniform split."""
        q = np.ones(self.tree.n_vertices)
        for lay in self._layers:
            zp = z[lay.par]
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = z[lay.kids] / zp
            q[lay.kids] = np.where(zp > 0.0, ratio, lay.uniform)
        return q


def point_mass_state(tree: HstTree, point: int) -> np.ndarray:
    """The deterministic z: 1 on the root-to-leaf path of ``point``, else 0."""
    if not 0 <= point < tree.n_leaves:
        raise ValueError(f"unknown point index {point}")
    z = np.zeros(tree.n_vertices)
    v = int(tree.leaf_vertex[point])
    while v >= 0:
        z[v] = 1.0
        v = int(tree.parent[v])
    return z
