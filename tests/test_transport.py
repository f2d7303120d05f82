import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmd.hst import frt_embed
from gpmd.metric import FiniteMetric, grid_metric
from gpmd.mirror import MdEngine, PotentialParams, point_mass_state
from gpmd.transport import _draw, coupling_row, sample_next

from conftest import (
    distance_matrix,
    lp_transport_cost,
    optimal_coupling,
    random_hst,
    tree_wasserstein,
)


def test_identical_distributions(rng):
    tree = random_hst(rng, 7)
    p = rng.dirichlet(np.ones(7))
    assert tree_wasserstein(tree, p, p) == 0.0
    coupling = optimal_coupling(tree, p, p)
    assert all(i == j for i, j, _ in coupling.pairs)
    z = tree.subtree_sums(p)
    for prev in range(7):
        if p[prev] > 0:
            assert sample_next(tree, z, z, prev, rng) == prev


def test_point_masses_pay_tree_distance(rng):
    tree = random_hst(rng, 6)
    a = np.zeros(6)
    b = np.zeros(6)
    a[1] = 1.0
    b[4] = 1.0
    w = tree_wasserstein(tree, a, b)
    assert w == pytest.approx(distance_matrix(tree)[1, 4])
    coupling = optimal_coupling(tree, a, b)
    assert coupling.pairs == ((1, 4, 1.0),)
    assert sample_next(tree, tree.subtree_sums(a), tree.subtree_sums(b), 1, rng) == 4


def test_symmetry_and_triangle(rng):
    tree = random_hst(rng, 8)
    for _ in range(50):
        a = rng.dirichlet(np.ones(8))
        b = rng.dirichlet(np.ones(8))
        c = rng.dirichlet(np.ones(8))
        ab = tree_wasserstein(tree, a, b)
        assert ab == pytest.approx(tree_wasserstein(tree, b, a), abs=1e-12)
        assert ab <= tree_wasserstein(tree, a, c) + tree_wasserstein(tree, c, b) + 1e-9


def test_matches_lp_oracle_random_instances(rng):
    # Small version of the acceptance criterion (full scale runs there).
    for trial in range(40):
        n = int(rng.integers(2, 7))
        tree = random_hst(rng, n)
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        closed = tree_wasserstein(tree, a, b)
        lp = lp_transport_cost(distance_matrix(tree), a, b)
        assert closed == pytest.approx(lp, abs=1e-9)
        assert optimal_coupling(tree, a, b).expected_cost() == pytest.approx(lp, abs=1e-9)


def test_coupling_marginals(rng):
    tree = random_hst(rng, 10)
    for _ in range(30):
        a = rng.dirichlet(np.ones(10) * 0.5)
        b = rng.dirichlet(np.ones(10) * 0.5)
        coupling = optimal_coupling(tree, a, b)
        assert np.abs(coupling.row_marginal() - a).max() <= 1e-9
        assert np.abs(coupling.col_marginal() - b).max() <= 1e-9
        total = sum(m for _, _, m in coupling.pairs)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_sparse_supports(rng):
    tree = random_hst(rng, 9)
    a = np.zeros(9)
    b = np.zeros(9)
    a[[0, 3]] = (0.6, 0.4)
    b[[3, 7]] = (0.1, 0.9)
    coupling = optimal_coupling(tree, a, b)
    assert np.abs(coupling.row_marginal() - a).max() <= 1e-12
    assert np.abs(coupling.col_marginal() - b).max() <= 1e-12
    assert coupling.expected_cost() == pytest.approx(tree_wasserstein(tree, a, b), abs=1e-9)


def test_sampler_conditional_frequencies(rng):
    tree = random_hst(rng, 4)
    a = np.array([0.5, 0.5, 0.0, 0.0])
    b = np.array([0.0, 0.15, 0.35, 0.5])
    coupling = optimal_coupling(tree, a, b)
    js, ms = coupling.conditional_row(0)
    probs = ms / ms.sum()
    za, zb = tree.subtree_sums(a), tree.subtree_sums(b)
    draws = 20000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[sample_next(tree, za, zb, 0, rng)] += 1
    for j, p in zip(js, probs):
        se = np.sqrt(p * (1 - p) / draws)
        assert abs(counts[j] / draws - p) <= 4 * se + 1e-12


def test_zero_marginal_fallback(rng):
    tree = random_hst(rng, 5)
    a = np.zeros(5)
    a[0] = 1.0
    b = rng.dirichlet(np.ones(5))
    za, zb = tree.subtree_sums(a), tree.subtree_sums(b)
    # leaf 3 has no mass in the previous marginal: fall back to next marginal,
    # drawn as rng.choice draws it
    sampler, twin = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(200):
        assert sample_next(tree, za, zb, 3, sampler) == twin.choice(5, p=b / b.sum())
    assert sampler.random() == twin.random()


def test_first_step_conditional_equals_target(rng):
    # With a deterministic previous state the conditional row is the whole
    # next distribution.
    tree = random_hst(rng, 6)
    a = np.zeros(6)
    a[2] = 1.0
    b = rng.dirichlet(np.ones(6))
    coupling = optimal_coupling(tree, a, b)
    js, ms = coupling.conditional_row(2)
    dense = np.zeros(6)
    dense[js] = ms
    assert np.abs(dense - b).max() <= 1e-12


def test_realized_movement_tracks_wasserstein_sum(rng):
    # Over a fixed sequence of distributions, the mean realized tree-metric
    # movement over replays approaches the sum of the step W1 distances.
    tree = random_hst(rng, 8)
    engine = MdEngine(tree, PotentialParams(tree))
    x0 = 0
    q = engine.delta_inverse(point_mass_state(tree, x0))
    states = [engine.delta_map(q)]
    for h in range(6):
        q, _ = engine.step(q, rng.uniform(0.0, 2.0, 8))
        states.append(engine.delta_map(q))
    leaves = tree.leaf_vertex
    w_total = sum(
        tree_wasserstein(tree, za[leaves], zb[leaves]) for za, zb in zip(states[:-1], states[1:])
    )
    dist = distance_matrix(tree)
    replays = 3000
    moved = np.zeros(replays)
    for r in range(replays):
        x = x0
        total = 0.0
        for z_prev, z_next in zip(states[:-1], states[1:]):
            nxt = sample_next(tree, z_prev, z_next, x, rng)
            total += dist[x, nxt]
            x = nxt
        moved[r] = total
    se = moved.std() / np.sqrt(replays)
    assert abs(moved.mean() - w_total) <= 4.0 * se + 1e-9


# -- the previous action's row, walked on the tree ------------------------


def assert_row_matches_coupling(tree, za, zb, prev):
    """``coupling_row`` of two lifted states equals the full coupling's row
    of their leaf distributions: targets and order exactly, masses within
    1e-12, once rounding crumbs are dropped."""
    js, ms = coupling_row(tree, za, zb, prev)
    leaves = tree.leaf_vertex
    ref_js, ref_ms = optimal_coupling(tree, za[leaves], zb[leaves]).conditional_row(prev)
    keep, ref_keep = ms >= 1e-15, ref_ms >= 1e-15
    assert js[keep].tolist() == ref_js[ref_keep].tolist()
    assert np.abs(ms[keep] - ref_ms[ref_keep]).max(initial=0.0) <= 1e-12


def sparse_dirichlet(rng, n):
    p = rng.dirichlet(np.ones(n) * rng.choice([0.3, 1.0, 4.0]))
    p[rng.random(n) < 0.3] = 0.0
    if p.sum() == 0.0:
        p[int(rng.integers(n))] = 1.0
    return p / p.sum()


def grid_distribution(rng, n):
    """A sparse distribution with masses on a grid of 1/total: a count of
    0-9 per leaf, about 30% of them zeroed, at least one positive. The LP
    oracle resolves these and the tiny masses of ``sparse_dirichlet`` alike
    (``test_lp_oracle_resolves_sparse_draws``)."""
    counts = rng.integers(0, 10, n) * (rng.random(n) >= 0.3)
    counts[int(rng.integers(n))] += 1
    return counts / counts.sum()


def test_lp_oracle_resolves_sparse_draws():
    # At HiGHS's default 1e-7 feasibility tolerances the LP value of draws 0
    # and 23 of this sequence is more than 1e-9 off the tree W1.
    rng = np.random.default_rng(1579)
    tree = random_hst(rng, 5, max_children=4, dup=0.3)
    dist = distance_matrix(tree)
    for _ in range(30):
        a, b = sparse_dirichlet(rng, 5), sparse_dirichlet(rng, 5)
        assert lp_transport_cost(dist, a, b) == pytest.approx(tree_wasserstein(tree, a, b), abs=1e-9)


def md_sequence(tree, rng, steps, x0=0):
    """Lifted states of ``steps`` mirror-descent steps from a point mass."""
    engine = MdEngine(tree, PotentialParams(tree))
    q = engine.delta_inverse(point_mass_state(tree, x0))
    states = [engine.delta_map(q)]
    for _ in range(steps):
        q, _ = engine.step(q, rng.uniform(0.0, 3.0, tree.n_leaves))
        states.append(engine.delta_map(q))
    return states


def test_row_matches_coupling_on_random_trees(rng):
    for _ in range(150):
        n = int(rng.integers(2, 20))
        tree = random_hst(rng, n, max_children=int(rng.integers(2, 6)))
        za, zb = (tree.subtree_sums(sparse_dirichlet(rng, n)) for _ in range(2))
        for prev in range(n):
            assert_row_matches_coupling(tree, za, zb, prev)


def test_row_matches_coupling_on_frt_tree_with_duplicates(rng):
    pts = rng.integers(0, 5, size=(40, 2)).astype(float)
    tree = frt_embed(FiniteMetric(pts), tau=5.0, rng_seed=3)
    assert (tree.weight[tree.leaf_vertex] == 0.0).any()  # zero-weight duplicate leaves
    states = md_sequence(tree, rng, 8)
    for za, zb in zip(states[:-1], states[1:]):
        for prev in range(tree.n_leaves):
            assert_row_matches_coupling(tree, za, zb, prev)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    max_children=st.integers(2, 4),
    dup=st.sampled_from([0.0, 0.3]),
)
def test_rows_assemble_an_optimal_coupling(seed, n, max_children, dup):
    # The rows of every previous leaf, put together, form a coupling of a and
    # b whose cost is the optimal transport cost on the tree metric.
    rng = np.random.default_rng(seed)
    tree = random_hst(rng, n, max_children=max_children, dup=dup)
    a, b = grid_distribution(rng, n), grid_distribution(rng, n)
    za, zb = tree.subtree_sums(a), tree.subtree_sums(b)
    plan = np.zeros((n, n))
    for prev in range(n):
        js, ms = coupling_row(tree, za, zb, prev)
        np.add.at(plan[prev], js, ms)
    assert np.abs(plan.sum(axis=1) - a).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - b).max() <= 1e-12
    dist = distance_matrix(tree)
    cost = float((plan * dist).sum())
    assert cost == pytest.approx(lp_transport_cost(dist, a, b), abs=1e-9)
    assert cost == pytest.approx(tree_wasserstein(tree, a, b), abs=1e-9)


def test_point_mass_row_is_the_next_distribution(rng):
    tree = random_hst(rng, 12)
    a = np.zeros(12)
    a[5] = 1.0
    b = sparse_dirichlet(rng, 12)
    za, zb = tree.subtree_sums(a), tree.subtree_sums(b)
    assert_row_matches_coupling(tree, za, zb, 5)
    js, ms = coupling_row(tree, za, zb, 5)
    dense = np.zeros(12)
    dense[js] = ms
    assert np.abs(dense - b).max() <= 1e-12


def test_row_on_a_tree_thousands_of_levels_deep():
    # tau just above 1 makes FRT levels that rarely split a cluster: the walk
    # descends the tree without recursion and still gives the reference's row.
    tree = frt_embed(grid_metric(8, 8), tau=1.001, rng_seed=4)
    assert tree.depth.max() > 2000
    a = np.zeros(64)
    a[0] = 1.0
    b = np.random.default_rng(5).dirichlet(np.ones(64))
    assert_row_matches_coupling(tree, tree.subtree_sums(a), tree.subtree_sums(b), 0)


def test_zero_previous_mass_falls_back_to_next_distribution(rng):
    tree = random_hst(rng, 6)
    a = np.zeros(6)
    a[0] = 1.0
    b = rng.dirichlet(np.ones(6))
    za, zb = tree.subtree_sums(a), tree.subtree_sums(b)
    js, ms = coupling_row(tree, za, zb, 3)
    assert js.size == 0 and ms.size == 0
    assert_row_matches_coupling(tree, za, zb, 3)
    draw = sample_next(tree, za, zb, 3, np.random.default_rng(9))
    assert draw == np.random.default_rng(9).choice(6, p=b / b.sum())


def test_draws_match_the_full_coupling_sampler(rng):
    # Two equally seeded generators, one drawing from the full coupling's row
    # and one from the walked row, follow the same actions step for step.
    tree = frt_embed(grid_metric(10, 10), tau=5.0, rng_seed=4)
    states = md_sequence(tree, rng, 300, x0=17)
    leaves = tree.leaf_vertex
    ref_rng, rng_b = np.random.default_rng(77), np.random.default_rng(77)
    ref_x = x = 17
    for za, zb in zip(states[:-1], states[1:]):
        js, ms = optimal_coupling(tree, za[leaves], zb[leaves]).conditional_row(ref_x)
        ref_x = int(ref_rng.choice(js, p=ms / ms.sum()))
        x = sample_next(tree, za, zb, x, rng_b)
        assert x == ref_x


def test_draw_matches_generator_choice():
    # Rows of 1-39 pieces, of which one may be a crumb of 1e-17 or zero; the
    # two equally seeded generators stay in step.
    pieces = np.random.default_rng(3)
    ref_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(2000):
        k = int(pieces.integers(1, 40))
        ms = pieces.uniform(0, 1, k)
        if k > 1:
            ms[pieces.integers(k)] *= pieces.choice([1.0, 1e-17, 0.0])
        js = pieces.permutation(100)[:k]
        p = ms / ms.sum()
        assert _draw(js, p, rng) == int(ref_rng.choice(js, p=p))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("bad", [np.nan, -0.25])
def test_draw_rejects_nan_and_negative_masses(bad):
    p = np.array([0.5, bad, 0.75])
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(3, p=p)
    with pytest.raises(ValueError, match="non-negative"):
        _draw(np.arange(3), p, np.random.default_rng(0))


def test_row_from_the_lifted_states(rng):
    # The states a policy step holds: the row of the previous action from
    # delta_map's lifted masses, whose inner vertices are not sums of their
    # leaves bit for bit, is the full coupling's row of their leaves.
    tree = frt_embed(grid_metric(6, 6), tau=5.0, rng_seed=2)
    engine = MdEngine(tree, PotentialParams(tree))
    z_prev = point_mass_state(tree, 5)
    leaves = tree.leaf_vertex
    for _ in range(20):
        q, _ = engine.step(engine.delta_inverse(z_prev), rng.uniform(0, 1, tree.n_leaves))
        z_new = engine.delta_map(q)
        assert_row_matches_coupling(tree, z_prev, z_new, int(np.argmax(z_prev[leaves])))
        z_prev = z_new


def test_sampler_validates_its_inputs(rng):
    tree = random_hst(rng, 4)
    lift = tree.subtree_sums
    ok = lift(np.full(4, 0.25))
    with pytest.raises(ValueError, match="non-negative"):
        sample_next(tree, lift([1.5, -0.5, 0.0, 0.0]), ok, 0, rng)
    with pytest.raises(ValueError, match="non-negative"):
        sample_next(tree, ok, lift([0.5, np.nan, 0.25, 0.25]), 0, rng)
    with pytest.raises(ValueError, match="sum"):
        sample_next(tree, ok, lift(np.full(4, 0.2)), 0, rng)
    with pytest.raises(ValueError, match="vertices"):
        sample_next(tree, ok, np.append(ok, 0.0), 0, rng)
    with pytest.raises(ValueError, match="vertices"):
        sample_next(tree, ok[:-1], ok, 0, rng)
    with pytest.raises(ValueError, match="point index"):
        sample_next(tree, ok, ok, 4, rng)
    unmatched = ok.copy()
    unmatched[tree.root] += 1e-6
    with pytest.raises(AssertionError, match="unmatched"):
        sample_next(tree, ok, unmatched, 0, rng)
