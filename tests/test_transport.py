import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmd.hst import frt_embed
from gpmd.metric import FiniteMetric, grid_metric
from gpmd.mirror import MdEngine, PotentialParams, point_mass_state
from gpmd.transport import coupling_row, sample_next, tree_wasserstein

from conftest import distance_matrix, lp_transport_cost, optimal_coupling, random_hst


def test_distribution_must_sum_to_one(rng):
    tree = random_hst(rng, 2)
    ok = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="sum"):
        tree_wasserstein(tree, np.array([0.5, 0.4]), ok)
    with pytest.raises(ValueError, match="non-negative"):
        tree_wasserstein(tree, ok, np.array([1.5, -0.5]))


def test_identical_distributions(rng):
    tree = random_hst(rng, 7)
    p = rng.dirichlet(np.ones(7))
    assert tree_wasserstein(tree, p, p) == 0.0
    coupling = optimal_coupling(tree, p, p)
    assert all(i == j for i, j, _ in coupling.pairs)
    for prev in range(7):
        if p[prev] > 0:
            assert sample_next(tree, p, p, prev, rng) == prev


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
    assert sample_next(tree, a, b, 1, rng) == 4


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
    draws = 20000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[sample_next(tree, a, b, 0, rng)] += 1
    for j, p in zip(js, probs):
        se = np.sqrt(p * (1 - p) / draws)
        assert abs(counts[j] / draws - p) <= 4 * se + 1e-12


def test_zero_marginal_fallback(rng):
    tree = random_hst(rng, 5)
    a = np.zeros(5)
    a[0] = 1.0
    b = rng.dirichlet(np.ones(5))
    # leaf 3 has no mass in the previous marginal: fall back to next marginal
    draws = [sample_next(tree, a, b, 3, rng) for _ in range(200)]
    assert all(0 <= d < 5 for d in draws)


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


def test_mismatched_tree_rejected(rng):
    tree = random_hst(rng, 4)
    with pytest.raises(ValueError, match="leaves"):
        tree_wasserstein(tree, np.ones(5) / 5, np.ones(5) / 5)


def test_realized_movement_tracks_wasserstein_sum(rng):
    # Over a fixed sequence of distributions, the mean realized tree-metric
    # movement over replays approaches the sum of the step W1 distances.
    tree = random_hst(rng, 8)
    engine = MdEngine(tree, PotentialParams(tree))
    x0 = 0
    q = engine.delta_inverse(point_mass_state(tree, x0))
    dists = [engine.delta_map(q)[tree.leaf_vertex]]
    for h in range(6):
        q, _ = engine.step(q, rng.uniform(0.0, 2.0, 8))
        dists.append(engine.delta_map(q)[tree.leaf_vertex])
    w_total = sum(
        tree_wasserstein(tree, dists[h], dists[h + 1]) for h in range(len(dists) - 1)
    )
    dist = distance_matrix(tree)
    replays = 3000
    moved = np.zeros(replays)
    for r in range(replays):
        x = x0
        total = 0.0
        for prev_dist, next_dist in zip(dists[:-1], dists[1:]):
            nxt = sample_next(tree, prev_dist, next_dist, x, rng)
            total += dist[x, nxt]
            x = nxt
        moved[r] = total
    se = moved.std() / np.sqrt(replays)
    assert abs(moved.mean() - w_total) <= 4.0 * se + 1e-9


# -- the previous action's row, walked on the tree ------------------------


def assert_row_matches_coupling(tree, a, b, prev):
    """``coupling_row`` equals the full coupling's row: targets and order
    exactly, masses within 1e-12, once rounding crumbs are dropped."""
    js, ms = coupling_row(tree, a, b, prev)
    ref_js, ref_ms = optimal_coupling(tree, a, b).conditional_row(prev)
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
    """Leaf distributions of ``steps`` mirror-descent steps from a point mass."""
    engine = MdEngine(tree, PotentialParams(tree))
    q = engine.delta_inverse(point_mass_state(tree, x0))
    dists = [engine.delta_map(q)[tree.leaf_vertex]]
    for _ in range(steps):
        q, _ = engine.step(q, rng.uniform(0.0, 3.0, tree.n_leaves))
        dists.append(engine.delta_map(q)[tree.leaf_vertex])
    return dists


def test_row_matches_coupling_on_random_trees(rng):
    for _ in range(150):
        n = int(rng.integers(2, 20))
        tree = random_hst(rng, n, max_children=int(rng.integers(2, 6)))
        a, b = sparse_dirichlet(rng, n), sparse_dirichlet(rng, n)
        for prev in range(n):
            assert_row_matches_coupling(tree, a, b, prev)


def test_row_matches_coupling_on_frt_tree_with_duplicates(rng):
    pts = rng.integers(0, 5, size=(40, 2)).astype(float)
    tree = frt_embed(FiniteMetric(pts), tau=5.0, rng_seed=3)
    assert (tree.weight[tree.leaf_vertex] == 0.0).any()  # zero-weight duplicate leaves
    dists = md_sequence(tree, rng, 8)
    for a, b in zip(dists[:-1], dists[1:]):
        for prev in range(tree.n_leaves):
            assert_row_matches_coupling(tree, a, b, prev)


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
    plan = np.zeros((n, n))
    for prev in range(n):
        js, ms = coupling_row(tree, a, b, prev)
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
    assert_row_matches_coupling(tree, a, b, 5)
    js, ms = coupling_row(tree, a, b, 5)
    dense = np.zeros(12)
    dense[js] = ms
    assert np.abs(dense - b).max() <= 1e-12


def test_zero_previous_mass_falls_back_to_next_distribution(rng):
    tree = random_hst(rng, 6)
    a = np.zeros(6)
    a[0] = 1.0
    b = rng.dirichlet(np.ones(6))
    js, ms = coupling_row(tree, a, b, 3)
    assert js.size == 0 and ms.size == 0
    assert_row_matches_coupling(tree, a, b, 3)
    diag = {}
    draw = sample_next(tree, a, b, 3, np.random.default_rng(9), diag=diag)
    assert draw == np.random.default_rng(9).choice(6, p=b / b.sum())
    assert diag == {"row_pieces": 0, "coupling_fallback": True}


def test_draws_match_the_full_coupling_sampler(rng):
    # Two equally seeded generators, one drawing from the full coupling's row
    # and one from the walked row, follow the same actions step for step.
    tree = frt_embed(grid_metric(10, 10), tau=5.0, rng_seed=4)
    dists = md_sequence(tree, rng, 300, x0=17)
    ref_rng, rng_b = np.random.default_rng(77), np.random.default_rng(77)
    ref_x = x = 17
    for a, b in zip(dists[:-1], dists[1:]):
        js, ms = optimal_coupling(tree, a, b).conditional_row(ref_x)
        ref_x = int(ref_rng.choice(js, p=ms / ms.sum()))
        diag = {}
        x = sample_next(tree, a, b, x, rng_b, diag=diag)
        assert x == ref_x
        assert diag["row_pieces"] >= 1 and not diag["coupling_fallback"]


def test_sampler_validates_its_inputs(rng):
    tree = random_hst(rng, 4)
    ok = np.full(4, 0.25)
    with pytest.raises(ValueError, match="non-negative"):
        sample_next(tree, np.array([1.5, -0.5, 0.0, 0.0]), ok, 0, rng)
    with pytest.raises(ValueError, match="sum"):
        sample_next(tree, ok, np.full(4, 0.2), 0, rng)
    with pytest.raises(ValueError, match="leaves"):
        sample_next(tree, ok, np.full(5, 0.2), 0, rng)
    with pytest.raises(ValueError, match="point index"):
        sample_next(tree, ok, ok, 4, rng)
