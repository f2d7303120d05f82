import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpmd.harness import RunConfig, build_synthetic_env, rng_stream
from gpmd.hst import HstTree, frt_embed
from gpmd.metric import grid_metric
from gpmd.mirror import (
    MAX_NEWTON_ITERS,
    STATE_TOL,
    MdEngine,
    PotentialParams,
    SolverConvergenceError,
    point_mass_state,
)
from gpmd.policies import ExactCostModel, MirrorDescentPolicy

from conftest import (
    bisection_step,
    bregman,
    distance_matrix,
    random_hst,
    validate_conditionals,
    validate_state,
)


def two_child_params(w=(1.0, 1.0), eta=(1.0, 1.0), delta=(0.5, 0.5), kappa=1.0):
    tree = HstTree(
        parent=np.array([-1, 0, 0]),
        weight=np.array([0.0, *w]),
        leaf_vertex=np.array([1, 2]),
        tau=2.0,
    )
    return PotentialParams(
        tree,
        kappa=kappa,
        w=np.array([0.0, *w]),
        eta=np.array([np.nan, *eta]),
        delta=np.array([np.nan, *delta]),
    )


def star_update(params, q_prev, cost):
    """The update of a star tree's root: one engine step, minus the root's entry."""
    return MdEngine(params.tree, params).step(np.r_[1.0, q_prev], cost)[0][1:]


def md_objective(params, u, p, q_prev, cost):
    return bregman(params, u, p, q_prev) + float(np.dot(p, cost))


def grid_search_2(params, u, q_prev, cost, step=1e-4):
    p1 = np.arange(0.0, 1.0 + step / 2, step)
    best_val, best_p = np.inf, None
    kids = params.tree.children[u]
    w, eta, delta = params.w[kids], params.eta[kids], params.delta[kids]
    P = np.column_stack([p1, 1.0 - p1])
    vals = (
        (w / eta)
        * ((P + delta) * np.log((P + delta) / (np.asarray(q_prev) + delta)) + q_prev - P)
    ).sum(axis=1) / params.kappa + P @ np.asarray(cost)
    i = int(np.argmin(vals))
    return float(vals[i]), P[i]


class TestBregman:
    def test_zero_at_identity(self):
        params = two_child_params()
        q = np.array([0.3, 0.7])
        assert bregman(params, 0, q, q) == pytest.approx(0.0, abs=1e-14)

    def test_worked_example(self):
        params = two_child_params()
        val = bregman(params, 0, [1.0, 0.0], [0.5, 0.5])
        assert val == pytest.approx(1.5 * math.log(1.5) + 0.5 * math.log(0.5), abs=1e-12)

    def test_nonnegative_random(self, rng):
        params = two_child_params(w=(2.0, 0.7), eta=(1.3, 1.8), delta=(0.2, 0.4), kappa=2.0)
        for _ in range(200):
            p = rng.dirichlet((1.0, 1.0))
            q = rng.dirichlet((1.0, 1.0))
            assert bregman(params, 0, p, q) >= -1e-14


class TestMdUpdateVertex:
    def test_zero_cost_returns_prev(self):
        params = two_child_params()
        q = np.array([0.25, 0.75])
        out = star_update(params, q, np.zeros(2))
        assert np.allclose(out, q, atol=1e-9)

    def test_constant_cost_absorbed(self):
        params = two_child_params()
        q = np.array([0.6, 0.4])
        out = star_update(params, q, np.full(2, 17.3))
        assert np.allclose(out, q, atol=1e-9)

    def test_mass_moves_to_cheaper_child_monotonically(self):
        params = two_child_params()
        prev_first = 0.5
        for c in (0.1, 0.5, 1.0, 3.0):
            out = star_update(params, [0.5, 0.5], [0.0, c])
            assert out[0] > prev_first - 1e-12
            assert out[0] > 0.5
            prev_first = out[0]

    def test_matches_grid_oracle_value(self, rng):
        params = two_child_params(w=(1.5, 0.8), eta=(1.2, 1.7), delta=(0.3, 0.25))
        for _ in range(25):
            q = rng.dirichlet((1.0, 1.0))
            cost = rng.uniform(0.0, 3.0, 2)
            out = star_update(params, q, cost)
            val = md_objective(params, 0, out, q, cost)
            grid_val, _ = grid_search_2(params, 0, q, cost)
            assert val <= grid_val + 1e-6
            assert abs(val - grid_val) <= 1e-6

    def test_single_child(self):
        tree = HstTree(
            parent=np.array([-1, 0]),
            weight=np.array([0.0, 1.0]),
            leaf_vertex=np.array([1]),
            tau=2.0,
        )
        params = PotentialParams(tree)
        assert star_update(params, [1.0], [5.0]) == pytest.approx([1.0])

    def test_rejects_nonfinite_cost(self):
        params = two_child_params()
        with pytest.raises(ValueError, match="finite"):
            star_update(params, [0.5, 0.5], [np.inf, 0.0])

    def test_kkt_form_holds(self, rng):
        # Positive entries must satisfy the exponential stationarity form
        # with a shared multiplier; zero entries must have a non-negative
        # activity gap (complementary slackness).
        params = two_child_params(w=(1.5, 0.8), eta=(1.2, 1.7), delta=(0.3, 0.25))
        kids = params.tree.children[0]
        w, eta, delta = params.w[kids], params.eta[kids], params.delta[kids]
        for _ in range(50):
            q = rng.dirichlet((0.7, 0.7))
            cost = rng.uniform(0.0, 4.0, 2)
            p = star_update(params, q, cost)
            assert p.sum() == pytest.approx(1.0, abs=1e-8)
            # recover beta from each positive coordinate; they must agree
            betas = []
            for v in range(2):
                if p[v] > 1e-9:
                    betas.append(
                        cost[v] + (w[v] / eta[v]) * math.log((p[v] + delta[v]) / (q[v] + delta[v]))
                    )
            assert len(betas) >= 1
            assert max(betas) - min(betas) <= 1e-7
            for v in range(2):
                if p[v] <= 1e-9:  # alpha_v >= 0 <=> unconstrained value <= 0
                    unconstrained = (q[v] + delta[v]) * math.exp(
                        (eta[v] / w[v]) * (betas[0] - cost[v])
                    ) - delta[v]
                    assert unconstrained <= 1e-7


class TestDeltaMaps:
    def test_uniform_binary_depth2(self):
        tree = HstTree(
            parent=np.array([-1, 0, 0, 1, 1, 2, 2]),
            weight=np.array([0.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]),
            leaf_vertex=np.array([3, 4, 5, 6]),
            tau=2.0,
        )
        q = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        z = MdEngine(tree).delta_map(q)
        assert np.allclose(z[tree.leaf_vertex], 0.25)
        validate_state(tree, z)

    def test_point_mass_roundtrip(self, rng):
        tree = random_hst(rng, 9)
        engine = MdEngine(tree)
        for point in (0, 4, 8):
            z0 = point_mass_state(tree, point)
            q0 = engine.delta_inverse(z0)
            validate_conditionals(tree, q0)
            z1 = engine.delta_map(q0)
            assert np.abs(z1 - z0).max() <= 1e-12
            probs = z1[tree.leaf_vertex]
            assert probs[point] == pytest.approx(1.0)

    def test_deterministic_path_gives_point_mass(self, rng):
        tree = random_hst(rng, 6)
        z0 = point_mass_state(tree, 3)
        q = MdEngine(tree).delta_inverse(z0)
        # conditionals along the path are 1; off-path zero-mass parents
        # default to the uniform split
        v = int(tree.leaf_vertex[3])
        while tree.parent[v] >= 0:
            assert q[v] == pytest.approx(1.0)
            v = int(tree.parent[v])

    def test_roundtrip_on_random_interior_states(self, rng):
        tree = random_hst(rng, 8)
        engine = MdEngine(tree)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(8) * 2.0)
            z = tree.subtree_sums(probs)
            q = engine.delta_inverse(z)
            z2 = engine.delta_map(q)
            assert np.abs(z2 - z).max() <= 1e-10
            q2 = engine.delta_inverse(z2)
            pos = z > 1e-12
            assert np.abs(q2[pos] - q[pos]).max() <= 1e-10


class TestMdStep:
    def test_zero_costs_keep_state(self, rng):
        tree = random_hst(rng, 10)
        params = PotentialParams(tree)
        probs = rng.dirichlet(np.ones(10))
        engine = MdEngine(tree, params)
        q = engine.delta_inverse(tree.subtree_sums(probs))
        q_new, costs = engine.step(q, np.zeros(10))
        assert np.abs(q_new - q).max() <= 1e-9
        assert np.abs(costs).max() <= 1e-12

    def test_shift_moves_costs_not_state(self, rng):
        tree = random_hst(rng, 10)
        engine = MdEngine(tree, PotentialParams(tree))
        probs = rng.dirichlet(np.ones(10))
        q = engine.delta_inverse(tree.subtree_sums(probs))
        base = rng.uniform(0.0, 2.0, 10)
        q_a, cost_a = engine.step(q, base)
        for c in (-5.0, 1.0, 100.0):
            q_b, cost_b = engine.step(q, base + c)
            assert np.abs(q_a - q_b).max() <= 1e-8
            assert np.abs((cost_b - cost_a) - c).max() <= 1e-8

    def test_root_cost_is_expected_leaf_cost(self, rng):
        tree = random_hst(rng, 12)
        engine = MdEngine(tree, PotentialParams(tree))
        probs = rng.dirichlet(np.ones(12))
        q = engine.delta_inverse(tree.subtree_sums(probs))
        leaf_costs = rng.uniform(0.0, 3.0, 12)
        q_new, costs = engine.step(q, leaf_costs)
        z = engine.delta_map(q_new)
        expected = float(z[tree.leaf_vertex] @ leaf_costs)
        assert costs[tree.root] == pytest.approx(expected, abs=1e-10)

    def test_simplex_preserved_on_random_instances(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 14))
            tree = random_hst(rng, n)
            engine = MdEngine(tree, PotentialParams(tree))
            probs = rng.dirichlet(np.ones(n))
            q = engine.delta_inverse(tree.subtree_sums(probs))
            q_new, _ = engine.step(q, rng.uniform(0.0, 5.0, n))
            validate_conditionals(tree, q_new, tol=1e-8)
            validate_state(tree, engine.delta_map(q_new), tol=1e-8)

    def test_topological_order_children_first(self, rng):
        # The deepest-first layer order the engine's sweep and mts-demo use.
        tree = random_hst(rng, 11, chain=0.2, dup=0.2)
        order = list(np.concatenate(tree.depth_layers[::-1]))
        assert sorted(order) == list(range(tree.n_vertices))
        seen = set()
        for v in order:
            assert set(tree.children[v].tolist()) <= seen
            seen.add(int(v))

    def test_vertex_costs_average_children_depth3_binary(self):
        # The eight-leaf complete binary tree: every vertex cost must be its
        # children's q-weighted average of their final costs, which fails for
        # a parent solved before its children.
        parent = np.array([-1, 0, 0, 1, 1, 2, 2] + [3, 3, 4, 4, 5, 5, 6, 6])
        weight = np.array([0.0, 4.0, 4.0, 2.0, 2.0, 2.0, 2.0] + [1.0] * 8)
        tree = HstTree(
            parent=parent,
            weight=weight,
            leaf_vertex=np.arange(7, 15),
            tau=2.0,
        )
        engine = MdEngine(tree, PotentialParams(tree))
        q0 = engine.delta_inverse(point_mass_state(tree, 0))
        rng = np.random.default_rng(5)
        costs = rng.uniform(0.0, 2.0, 8)
        q_new, vertex_costs = engine.step(q0, costs)
        assert np.array_equal(vertex_costs[tree.leaf_vertex], costs)
        for v in np.flatnonzero(tree.point_index < 0):
            kids = tree.children[v]
            assert vertex_costs[v] == pytest.approx(
                float(q_new[kids] @ vertex_costs[kids]), abs=1e-12
            )
            assert q_new[kids].sum() == pytest.approx(1.0, abs=1e-8)


class TestZeroWeightFanout:
    def test_all_zero_weight_children_take_argmin(self):
        # Duplicate-point fanouts have zero-weight edges: the update is a
        # plain argmin there (lowest index on ties).
        tree = HstTree(
            parent=np.array([-1, 0, 0]),
            weight=np.array([0.0, 0.0, 0.0]),
            leaf_vertex=np.array([1, 2]),
            tau=2.0,
        )
        params = PotentialParams(tree)
        out = star_update(params, [0.5, 0.5], [1.0, 0.2])
        assert np.allclose(out, [0.0, 1.0])
        tie = star_update(params, [0.5, 0.5], [0.7, 0.7])
        assert np.allclose(tie, [1.0, 0.0])


def _weight_to_root(tree, v) -> float:
    total = 0.0
    while tree.parent[v] >= 0:
        total += tree.weight[v]
        v = tree.parent[v]
    return float(total)


def test_service_cost_competitive_with_offline_optimum(rng):
    # Soft competitiveness statistic on known-cost instances: the expected
    # service cost stays within one root-leaf weight of the offline optimal
    # total cost (it is usually well below it).
    from gpmd.bench import offline_optimal_matrix

    held = 0
    seeds = 100
    for _ in range(seeds):
        n = int(rng.integers(4, 17))
        H = int(rng.integers(5, 21))
        tree = random_hst(rng, n)
        engine = MdEngine(tree, PotentialParams(tree))
        costs = rng.uniform(0.0, 2.0, size=(H, n))
        x0 = int(rng.integers(0, n))
        q = engine.delta_inverse(point_mass_state(tree, x0))
        expected_service = 0.0
        for h in range(H):
            q, _ = engine.step(q, costs[h])
            z = engine.delta_map(q)
            expected_service += float(z[tree.leaf_vertex] @ costs[h])
        _, opt = offline_optimal_matrix(costs, distance_matrix(tree), x0)
        path_bound = max(_weight_to_root(tree, v) for v in tree.leaf_vertex)
        held += expected_service <= opt + path_bound
    assert held >= 0.95 * seeds


def test_solver_error_carries_residual():
    from gpmd.mirror import SolverConvergenceError

    err = SolverConvergenceError(residual=0.5, iterations=80)
    assert err.residual == 0.5
    assert err.iterations == 80
    assert "0.5" in str(err) or "5.000e-01" in str(err)


def test_nan_state_is_a_solver_error():
    # A NaN residual never meets the stop test; once the iterations run out
    # it must raise rather than hand NaN conditionals on.
    tree = random_hst(np.random.default_rng(3), 8)
    engine = MdEngine(tree)
    q = engine.delta_inverse(point_mass_state(tree, 0))
    q[tree.leaf_vertex[5]] = np.nan
    with pytest.raises(SolverConvergenceError) as info:
        engine.step(q, np.ones(8))
    assert info.value.iterations == MAX_NEWTON_ITERS
    assert math.isnan(info.value.residual)


@pytest.mark.parametrize("kappa, scale", [(1.0, 1e3), (1.0, 1e9), (50.0, 1e6)])
def test_large_costs_converge(kappa, scale):
    # Unshifted, a * (beta - cost) loses the digits that set the sum at these
    # scales and Newton runs out its iterations; with each child set's costs
    # shifted by their minimum, every layer converges in a few.
    from gpmd.hst import frt_embed
    from gpmd.metric import grid_metric

    metric = grid_metric(24, 24)
    tree = frt_embed(metric, tau=5.0, rng_seed=0)
    engine = MdEngine(tree, PotentialParams(tree, kappa=kappa))
    q = engine.delta_inverse(point_mass_state(tree, 0))
    rng = np.random.default_rng(0)
    for _ in range(3):
        leaf_costs = scale * rng.uniform(0.0, 1.0, metric.n)
        q, costs = engine.step(q, leaf_costs)
        assert all(it < 20 for it in engine.newton_iters), engine.newton_iters
        validate_conditionals(tree, q)
        z = engine.delta_map(q)
        assert costs[tree.root] == pytest.approx(float(z[tree.leaf_vertex] @ leaf_costs), rel=1e-9)


@pytest.mark.parametrize("kappa, scale", [(1.0, 1e-9), (1.0, 1e9), (1e5, 1e-9), (1e5, 1e9)])
def test_wide_tree_converges_at_extreme_scales(kappa, scale):
    # 1,600 actions, half of each step's costs exactly zero: many child sets
    # hold several cheapest children at 0, and the rest sit up to scale above.
    metric = grid_metric(40, 40)
    tree = frt_embed(metric, tau=5.0, rng_seed=0)
    engine = MdEngine(tree, PotentialParams(tree, kappa=kappa))
    q = engine.delta_inverse(point_mass_state(tree, 0))
    rng = np.random.default_rng(1)
    for _ in range(3):
        leaf_costs = scale * rng.uniform(0.0, 1.0, metric.n)
        leaf_costs[rng.permutation(metric.n)[: metric.n // 2]] = 0.0
        q, costs = engine.step(q, leaf_costs)
        assert all(it < 20 for it in engine.newton_iters), engine.newton_iters
        validate_conditionals(tree, q)
        z = engine.delta_map(q)
        assert costs[tree.root] == pytest.approx(float(z[tree.leaf_vertex] @ leaf_costs), rel=1e-9)


def test_newton_iterations_per_step():
    # The deepest layer of an FRT tree holds only leaves, which share one a
    # per child set, so Newton in exp(a_min * beta) solves it once its active
    # set is right. Newton in beta itself needs about 16 per step here.
    metric = grid_metric(24, 24)
    tree = frt_embed(metric, tau=5.0, rng_seed=0)
    engine = MdEngine(tree)
    q = engine.delta_inverse(point_mass_state(tree, 0))
    rng = np.random.default_rng(0)
    total = 0
    for _ in range(200):
        q, _ = engine.step(q, rng.uniform(0.0, 1.0, metric.n))
        # one count per depth layer of the tree's internal vertices
        assert [type(it) for it in engine.newton_iters] == [int] * int(tree.depth.max())
        total += sum(engine.newton_iters)
    assert total / 200 <= 11.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    chain=st.sampled_from([0.0, 0.3]),
    dup=st.sampled_from([0.0, 0.3]),
    log_kappa=st.floats(0.0, 5.0),
    log_scale=st.floats(-9.0, 9.0),
)
def test_step_matches_bisection_oracle(seed, n, chain, dup, log_kappa, log_scale):
    # The oracle bisects each vertex's multiplier on its own; the engine runs
    # Newton from the top of the bracket on whole layers at once.
    rng = np.random.default_rng(seed)
    tree = random_hst(rng, n, chain=chain, dup=dup)
    params = PotentialParams(tree, kappa=10.0**log_kappa)
    engine = MdEngine(tree, params)
    # start with exact zeros: emptied leaves, and the uniform split below them
    probs = rng.dirichlet(np.ones(n))
    probs[rng.permutation(n)[: int(rng.integers(0, n))]] = 0.0
    q = engine.delta_inverse(tree.subtree_sums(probs / probs.sum()))
    for _ in range(3):
        leaf_costs = 10.0**log_scale * rng.uniform(0.0, 1.0, n)
        q_new, _ = engine.step(q, leaf_costs)
        assert all(it < 20 for it in engine.newton_iters), engine.newton_iters
        ref_q, _ = bisection_step(params, q, leaf_costs)
        assert np.abs(q_new - ref_q).max() <= 1e-12
        q = q_new


# -- The padded reference: the engine before the flat per-layer layout. -----
#
# Each depth layer was an (m, kmax) block of child ids with a mask for the
# padding, built with per-row loops; the solver summed padded rows with
# ``sum(axis=1)``. The flat engine must agree with it to rounding.


def _padded_newton_rows(q, delta, a, cost, mask):
    neg_inf = -np.inf
    logqd = np.log(np.where(mask, q + delta, 1.0))
    logd = np.log(np.where(mask, delta, 1.0))
    b0 = np.where(mask, cost + (logd - logqd) / a, np.inf)
    b1 = np.where(mask, cost + (np.log1p(delta) - logqd) / a, np.inf)
    lo = b0.min(axis=1)
    beta = b1.min(axis=1)

    it = 0
    while True:
        expo = np.minimum(logqd + a * (beta[:, None] - cost), 700.0)
        vals = np.where(mask, np.exp(np.where(mask, expo, neg_inf)) - delta, 0.0)
        p = np.maximum(vals, 0.0)
        s = p.sum(axis=1)
        resid = s - 1.0
        if np.all(np.abs(resid) <= 1e-13) or it >= MAX_NEWTON_ITERS:
            return p, s, it
        slope = np.where(p > 0.0, a * (p + delta), 0.0).sum(axis=1)
        step = resid / np.where(slope > 0.0, slope, 1.0)
        nxt = beta - step
        bad = (nxt <= lo) | ~np.isfinite(nxt)
        beta = np.where(bad, 0.5 * (lo + beta), nxt)
        it += 1


def _padded_solve_rows(q, delta, a, cost, mask):
    p, s, it = _padded_newton_rows(q, delta, a, cost, mask)
    failed = np.abs(s - 1.0) > STATE_TOL
    if failed.any():
        c = cost[failed]
        low = np.where(mask[failed], c, np.inf).min(axis=1)
        p[failed], s[failed], it = _padded_newton_rows(
            q[failed], delta[failed], a[failed], c - low[:, None], mask[failed]
        )
        worst = float(np.max(np.abs(s - 1.0)))
        if worst > STATE_TOL:
            raise SolverConvergenceError(worst, it)
    return p / s[:, None]


class PaddedEngine:
    """``MdEngine`` as it was: padded layers, masks and per-vertex loops."""

    def __init__(self, tree, params):
        self.tree = tree
        internal = np.flatnonzero(tree.point_index < 0)
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
            layers.append((verts, idx, msk, delta, a, row_zero))
        self._layers = layers

    def step(self, q_prev, leaf_costs):
        tree = self.tree
        leaf_costs = np.asarray(leaf_costs, dtype=float)
        if not np.all(np.isfinite(leaf_costs)):
            raise ValueError("leaf costs must be finite")
        cost = np.zeros(tree.n_vertices)
        cost[tree.leaf_vertex] = leaf_costs
        q_new = np.ones(tree.n_vertices)
        for verts, idx, msk, delta, a, zr in self._layers:
            q_rows = np.where(msk, q_prev[idx], 0.0)
            c_rows = np.where(msk, cost[idx], 0.0)
            p = _padded_solve_rows(q_rows, delta, a, c_rows, msk)
            for r in np.where(zr)[0]:
                krow = msk[r]
                pr = np.zeros(krow.sum())
                pr[int(np.argmin(c_rows[r][krow]))] = 1.0
                p[r] = 0.0
                p[r, : pr.size] = pr
            q_new[idx[msk]] = p[msk]
            cost[verts] = (p * c_rows).sum(axis=1)
        return q_new, cost

    def delta_map(self, q):
        tree = self.tree
        z = np.empty(tree.n_vertices)
        z[tree.root] = 1.0
        for verts in tree.depth_layers[1:]:
            z[verts] = z[tree.parent[verts]] * q[verts]
        return z

    def delta_inverse(self, z):
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


def _outcome(fn, *args):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except (ValueError, SolverConvergenceError) as exc:
        return None, (type(exc), str(exc))


def _frt_24x24():
    # the tree the harness draws at program seed 0
    seed = int(rng_stream(0, "frt").integers(2**31))
    return frt_embed(grid_metric(24, 24), tau=5.0, rng_seed=seed)


def _states(rng, tree):
    """Interior states and point masses (whose off-path parents hold no mass)."""
    n = tree.n_leaves
    zs = [tree.subtree_sums(rng.dirichlet(np.ones(n))) for _ in range(3)]
    zs += [point_mass_state(tree, int(i)) for i in rng.integers(0, n, 2)]
    return zs


class TestFlatLayout:
    def test_delta_maps_equal_layer_loops(self, rng):
        trees = [random_hst(rng, int(rng.integers(2, 40)), max_children=10, chain=0.3, dup=0.3)
                 for _ in range(8)]
        trees.append(_frt_24x24())
        for tree in trees:
            engine = MdEngine(tree)
            ref = PaddedEngine(tree, engine.params)
            for z in _states(rng, tree):
                q = engine.delta_inverse(z)
                assert np.array_equal(q, ref.delta_inverse(z))
                assert np.array_equal(engine.delta_map(q), ref.delta_map(q))

    def test_policy_on_frt_tree_samples_reference_actions(self):
        # 50 steps of md-known on the 24x24 grid at program seed 0: the flat
        # engine's rounding differs from the padded one's in the last bits
        # only, so every sampled action is the same.
        cfg = RunConfig(grid=[24, 24], steps=50)
        env = build_synthetic_env(cfg, 0)
        runs = []
        for padded in (False, True):
            pol = MirrorDescentPolicy(env.tree, ExactCostModel(env.f), rng=rng_stream(0, "sampling"))
            if padded:
                pol.engine = PaddedEngine(env.tree, pol.engine.params)
            pol.begin_episode(int(env.x0[0]))
            actions, qs = [], []
            for key in env.contexts[0]:
                action = pol.act(int(key))
                actions.append(action)
                qs.append(pol.q)
            runs.append((actions, np.array(qs)))
        (actions, qs), (ref_actions, ref_qs) = runs
        assert actions == ref_actions
        assert np.abs(qs - ref_qs).max() <= 1e-12


@settings(max_examples=60, deadline=None)
# wide fanouts (rows of 8+ children, where the padded and the flat sums
# group the adds differently) with chains and duplicates, at both ends of
# the cost range
@example(seed=3, n=60, max_children=16, chain=0.3, dup=0.3, log_scale=12.0, kappa=1.0)
@example(seed=4, n=60, max_children=16, chain=0.3, dup=0.3, log_scale=-12.0, kappa=100.0)
@example(seed=5, n=60, max_children=16, chain=0.0, dup=0.0, log_scale=0.0, kappa=1.0)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    max_children=st.integers(2, 16),
    chain=st.sampled_from([0.0, 0.3]),
    dup=st.sampled_from([0.0, 0.3]),
    log_scale=st.floats(-12.0, 12.0),
    kappa=st.floats(1.0, 100.0),
)
def test_step_matches_padded_reference(seed, n, max_children, chain, dup, log_scale, kappa):
    rng = np.random.default_rng(seed)
    tree = random_hst(rng, n, max_children=max_children, chain=chain, dup=dup)
    if rng.random() < 0.2:
        # zero one leaf edge beside positive siblings: a mixed fanout,
        # which both engines reject
        kids = [c for c in tree.children if len(c) > 1 and np.all(tree.weight[c] > 0.0)]
        leaves = [int(v) for c in kids for v in c if tree.point_index[v] >= 0]
        if leaves:
            weight = tree.weight.copy()
            weight[leaves[int(rng.integers(len(leaves)))]] = 0.0
            tree = HstTree(tree.parent, weight, tree.leaf_vertex, tree.tau)
    params = PotentialParams(tree, kappa=kappa)
    engine, err = _outcome(MdEngine, tree, params)
    ref, ref_err = _outcome(PaddedEngine, tree, params)
    assert err == ref_err
    if err is not None:
        assert "mixes zero and positive child weights" in err[1]
        return
    scale = 10.0**log_scale
    for z in _states(rng, tree):
        q = engine.delta_inverse(z)
        leaf_costs = scale * rng.uniform(0.0, 1.0, n)
        out, err = _outcome(engine.step, q, leaf_costs)
        ref_out, ref_err = _outcome(ref.step, q, leaf_costs)
        assert err == ref_err
        if err is not None:
            continue
        (q_new, costs), (ref_q, ref_costs) = out, ref_out
        assert np.abs(q_new - ref_q).max() <= 1e-12
        # vertex costs average leaf costs, so their rounding scales with them
        np.testing.assert_allclose(costs, ref_costs, rtol=1e-12, atol=1e-12 * leaf_costs.max())
