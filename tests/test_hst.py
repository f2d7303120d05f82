import math

import numpy as np
import pytest

from gpmd.hst import HstTree, frt_embed
from gpmd.metric import FiniteMetric, grid_metric
from gpmd.wind import EnergyParams, altitude_metric, synthetic_wind_table

from conftest import distance_matrix, loop_triangle_error, random_hst


def star_tree(weights=(1.0, 1.0)) -> HstTree:
    n = len(weights)
    return HstTree(
        parent=np.array([-1] + [0] * n),
        weight=np.array([0.0, *weights]),
        leaf_vertex=np.arange(1, n + 1),
        tau=2.0,
    )


def depth3_tree() -> HstTree:
    # root -> a, b ; a -> c, leaf l3 ; c -> l1, l2 ; b -> l4
    parent = np.array([-1, 0, 0, 1, 3, 3, 1, 2])
    weight = np.array([0.0, 8.0, 8.0, 4.0, 2.0, 2.0, 4.0, 4.0])
    leaf_vertex = np.array([4, 5, 6, 7])  # l1, l2, l3, l4
    return HstTree(parent=parent, weight=weight, leaf_vertex=leaf_vertex, tau=2.0)


def loop_tree_distance(tree: HstTree, a: int, b: int) -> float:
    """Path length between points a and b, one pair and one edge at a time."""
    la, lb = tree.leaf_vertex[a], tree.leaf_vertex[b]
    total = 0.0
    da, db = tree.depth[la], tree.depth[lb]
    while da > db:
        total += tree.weight[la]
        la = tree.parent[la]
        da -= 1
    while db > da:
        total += tree.weight[lb]
        lb = tree.parent[lb]
        db -= 1
    while la != lb:
        total += tree.weight[la] + tree.weight[lb]
        la = tree.parent[la]
        lb = tree.parent[lb]
    return float(total)


class TestTreeDistance:
    def test_identity(self):
        t = star_tree()
        assert distance_matrix(t)[0, 0] == 0.0

    def test_star_two_leaves(self):
        t = star_tree((1.0, 1.0))
        assert distance_matrix(t)[0, 1] == pytest.approx(2.0)

    def test_depth3_child_side_weights(self):
        # Path sums the child-side weight of every traversed edge once:
        # two leaves under sibling subtrees meet at their grandparent.
        t = depth3_tree()
        w = t.weight
        expected = w[4] + w[3] + w[6]  # l1 -> c -> a <- l3
        assert distance_matrix(t)[0, 2] == pytest.approx(expected)

    def test_symmetry_and_triangle(self, rng):
        t = random_hst(rng, 12)
        D = distance_matrix(t)
        assert np.allclose(D, D.T)
        for _ in range(200):
            i, j, k = rng.integers(0, 12, 3)
            assert D[i, j] <= D[i, k] + D[k, j] + 1e-12

    def test_distance_matrix_matches_pairwise_sums(self, rng):
        trees = [random_hst(rng, n) for n in (2, 3, 9, 17, 40)]
        trees.append(frt_embed(grid_metric(6, 5), tau=5.0, rng_seed=3))
        for t in trees:
            n = t.n_leaves
            loop = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    loop[i, j] = loop[j, i] = loop_tree_distance(t, i, j)
            assert np.array_equal(distance_matrix(t), loop)

    @pytest.mark.parametrize("chain, dup", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.4), (0.3, 0.4)])
    def test_random_trees_give_metrics(self, rng, chain, dup):
        # Symmetric, zero on the diagonal and within 1e-9 of the triangle
        # inequality, also with single-child chains and zero-distance
        # duplicates.
        for n in (1, 2, 5, 13, 32):
            D = distance_matrix(random_hst(rng, n, chain=chain, dup=dup))
            assert loop_triangle_error(D) is None


class TestLeafCountRatios:
    def test_only_child(self):
        # vertex 3 (c) has 2 leaves, its parent a has 3; l4 is an only child of b.
        t = depth3_tree()
        theta, eta, delta = (r[7] for r in t.leaf_count_ratios())
        assert (theta, eta, delta) == (1.0, 1.0, 1.0)

    def test_binary_equal_split(self):
        t = star_tree((1.0, 1.0))
        theta, eta, delta = (r[1] for r in t.leaf_count_ratios())
        assert theta == pytest.approx(0.5)
        assert eta == pytest.approx(1.0 + math.log(2.0))
        assert delta == pytest.approx(0.5 / (1.0 + math.log(2.0)))

    def test_one_of_four(self):
        t = star_tree((1.0, 1.0, 1.0, 1.0))
        theta, eta, delta = (r[2] for r in t.leaf_count_ratios())
        assert theta == pytest.approx(0.25)
        assert eta == pytest.approx(1.0 + math.log(4.0))
        assert delta == pytest.approx(0.25 / (1.0 + math.log(4.0)))

    def test_root_rejected(self):
        # The root has no parent, so it gets no ratios: every entry there is NaN.
        t = star_tree()
        assert all(np.isnan(r[t.root]) for r in t.leaf_count_ratios())


class TestTreeValidation:
    def test_weight_decay_enforced(self):
        with pytest.raises(ValueError, match="decay"):
            HstTree(
                parent=np.array([-1, 0, 1, 1]),
                weight=np.array([0.0, 4.0, 3.0, 3.0]),  # 3 > 4/2
                leaf_vertex=np.array([2, 3]),
                tau=2.0,
            )

    def test_internal_vertex_needs_children(self):
        with pytest.raises(ValueError, match="no children"):
            HstTree(
                parent=np.array([-1, 0, 0]),
                weight=np.array([0.0, 1.0, 1.0]),
                leaf_vertex=np.array([1]),  # vertex 2 is childless and not a leaf
                tau=2.0,
            )

    @pytest.mark.parametrize(
        "parent, weight, leaf_vertex, tau, message",
        [
            # two points on the one leaf of a one-edge tree
            ([-1, 0], [0, 1], [1, 1], 2.0, r"leaf_vertex\[1\] = 1 is also leaf_vertex\[0\]"),
            # a negative entry would wrap around to the last vertex
            ([-1, 0, 0, 0], [0, 1, 1, 1], [1, 2, -1], 2.0,
             r"leaf_vertex\[2\] = -1 is not a vertex of a 4-vertex"),
            ([-1, 0, 0], [0, 1, 1], [1, 3], 2.0, r"leaf_vertex\[1\] = 3 is not a vertex of a 3-"),
            ([-1, 0, 7], [0, 1, 1], [1, 2], 2.0, r"parent\[2\] = 7 is not a vertex of a 3-"),
            ([-1, -2, 0], [0, 1, 1], [1, 2], 2.0, r"parent\[1\] = -2 is not a vertex of a 3-"),
            ([-1, 0, 0], [0, 1], [1, 2], 2.0, "2 weights for 3 vertices"),
            ([-1, 0, 0], [0, 1, 1, 1], [1, 2], 2.0, "4 weights for 3 vertices"),
            ([-1, 0, 0], [0, np.nan, 1], [1, 2], 2.0, "weights must be non-negative"),
            ([-1, 0, 0], [0, 1, 1], [1, 2], np.nan, "tau must exceed 1"),
            # an int64 cast would truncate these to valid vertices
            ([-1, 0, 0], [0, 1, 1], [1.7, 2.2], 2.0, r"leaf_vertex\[0\] = 1.7 is not an integer"),
            ([-1, 0.5, 0], [0, 1, 1], [1, 2], 2.0, r"parent\[1\] = 0.5 is not an integer"),
        ],
        ids=["shared-leaf", "negative-leaf", "leaf-out-of-range", "parent-out-of-range",
             "parent-below-root-marker", "short-weight", "long-weight", "nan-weight", "nan-tau",
             "fractional-leaf", "fractional-parent"],
    )
    def test_malformed_input_named(self, parent, weight, leaf_vertex, tau, message):
        with pytest.raises(ValueError, match=message):
            HstTree(
                parent=np.array(parent),
                weight=np.array(weight, dtype=float),
                leaf_vertex=np.array(leaf_vertex),
                tau=tau,
            )

    @pytest.mark.parametrize("derived", ["children", "depth", "depth_layers", "point_index", "root"])
    def test_derived_fields_not_accepted(self, derived):
        # They are built from parent and leaf_vertex; a passed value would be replaced.
        with pytest.raises(TypeError, match=derived):
            HstTree(parent=[-1, 0, 0], weight=[0, 1, 1], leaf_vertex=[1, 2], tau=2.0, **{derived: 7})


class TestFrtEmbed:
    def test_single_point(self):
        m = FiniteMetric(np.zeros((1, 2)))
        t = frt_embed(m, tau=5.0, rng_seed=0)
        assert t.n_vertices == 1 and t.n_leaves == 1
        assert distance_matrix(t)[0, 0] == 0.0

    def test_two_points_dominance_every_seed(self):
        m = FiniteMetric(np.array([[0.0], [3.0]]))
        for seed in range(40):
            t = frt_embed(m, tau=5.0, rng_seed=seed)
            assert distance_matrix(t)[0, 1] >= 3.0

    def test_dominance_random_metrics(self, rng):
        for trial in range(10):
            pts = rng.uniform(0.0, 1.0, size=(12, 2))
            m = FiniteMetric(pts)
            t = frt_embed(m, tau=5.0, rng_seed=trial)
            assert np.all(distance_matrix(t) >= m.dist - 1e-12)

    def test_deterministic_in_seed(self):
        m = grid_metric(3, 3)
        a = frt_embed(m, tau=5.0, rng_seed=11)
        b = frt_embed(m, tau=5.0, rng_seed=11)
        assert np.array_equal(a.parent, b.parent)
        assert np.allclose(a.weight, b.weight)

    def test_invalid_tau(self):
        m = grid_metric(2, 2)
        with pytest.raises(ValueError, match="tau"):
            frt_embed(m, tau=1.0, rng_seed=0)

    def test_duplicates_collapse_to_zero_weight_fanout(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        m = FiniteMetric(pts)
        t = frt_embed(m, tau=5.0, rng_seed=2)
        assert t.n_leaves == 3
        D = distance_matrix(t)
        assert D[0, 1] == 0.0
        assert D[0, 2] >= 1.0

    def test_all_zero_metric(self):
        m = FiniteMetric(np.zeros((3, 2)))  # three copies of one point
        t = frt_embed(m, tau=5.0, rng_seed=0)
        assert t.n_leaves == 3
        assert distance_matrix(t).max() == 0.0

    def test_distortion_statistic_small(self, rng):
        # Statistical soft check at test scale; the acceptance suite runs the
        # full 200-seed version.
        m = grid_metric(4, 4)
        ratios = []
        mask = m.dist > 0
        for seed in range(30):
            t = frt_embed(m, tau=5.0, rng_seed=seed)
            DT = distance_matrix(t)
            ratios.append((DT[mask] / m.dist[mask]).mean())
        assert np.mean(ratios) <= 8.0 * math.log(16)

    def test_tau_decay_after_construction(self):
        m = grid_metric(5, 5)
        t = frt_embed(m, tau=5.0, rng_seed=9)
        root = t.root
        for v in range(t.n_vertices):
            p = t.parent[v]
            if p >= 0 and p != root:
                assert t.weight[v] <= t.weight[p] / t.tau + 1e-12


def loop_vertex_error(parent, weight, leaf_vertex, tau):
    """The former per-vertex loops of ``HstTree._validate``: the first error, or None."""
    is_leaf = np.zeros(len(parent), dtype=bool)
    is_leaf[leaf_vertex] = True
    for v in range(len(parent)):
        has_kids = bool(np.any(parent == v))
        if is_leaf[v] and has_kids:
            return f"vertex {v} is both a leaf and internal"
        if not is_leaf[v] and not has_kids:
            return f"internal vertex {v} has no children"
    root = int(np.flatnonzero(parent < 0)[0])
    for v in range(len(parent)):
        p = parent[v]
        if p >= 0 and p != root and weight[v] > weight[p] / tau * (1 + 1e-12):
            return f"weight decay violated at vertex {v}: {weight[v]} > {weight[p]}/{tau}"
    return None


class TestPlantedBadVertex:
    """Array checks name the same first bad vertex, with the same message,
    as the per-vertex loops they replaced."""

    def assert_same_error(self, tree, parent, weight, leaf_vertex):
        expected = loop_vertex_error(parent, weight, leaf_vertex, tree.tau)
        assert expected is not None
        with pytest.raises(ValueError) as err:
            HstTree(parent=parent, weight=weight, leaf_vertex=leaf_vertex, tau=tree.tau)
        assert str(err.value) == expected

    @pytest.mark.parametrize("trial", range(6))
    def test_leaf_moved_onto_internal_vertex(self, rng, trial):
        # The moved leaf's old vertex is internal with no children, and the
        # internal vertex it moved to is both a leaf and internal.
        tree = random_hst(rng, 20)
        internal = np.flatnonzero(tree.point_index < 0)
        leaf_vertex = tree.leaf_vertex.copy()
        leaf_vertex[rng.integers(20)] = rng.choice(internal)
        self.assert_same_error(tree, tree.parent, tree.weight, leaf_vertex)

    @pytest.mark.parametrize("trial", range(6))
    def test_heavy_edges(self, rng, trial):
        tree = random_hst(rng, 20)
        weight = tree.weight.copy()
        below = np.flatnonzero((tree.parent >= 0) & (tree.parent != tree.root))
        for v in rng.choice(below, 2, replace=False):
            weight[v] = weight[tree.parent[v]] / tree.tau * (1 + 1e-9)
        self.assert_same_error(tree, tree.parent, weight, tree.leaf_vertex)


class TestWeightDecayCheck:
    @staticmethod
    def chain_tree(parent_weight: float, child_weight: float) -> HstTree:
        # root -> a -> {l0, l1}, root -> l2: the edge a -> l_i decays from a.
        return HstTree(
            parent=np.array([-1, 0, 1, 1, 0]),
            weight=np.array([0.0, parent_weight, child_weight, child_weight, parent_weight]),
            leaf_vertex=np.array([2, 3, 4]),
            tau=5.0,
        )

    def test_wind_seed_twelve_runs(self, tmp_path):
        # This seed's embedding of the wind altitude metric sits one rounding
        # step above weight/tau at distances near 1e5.
        from gpmd.cli import main as cli_main

        code = cli_main(
            ["run", "--kind", "wind", "--seeds", "12", "--steps", "5",
             "--policies", "stationary", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert not list((tmp_path / "o").glob("*.failed.json"))

    def test_rounding_step_accepted_at_large_scale(self):
        w = 162730.85320361968
        self.chain_tree(w, np.nextafter(w / 5.0, np.inf))

    def test_one_percent_over_rejected_at_large_scale(self):
        w = 162730.85320361968
        with pytest.raises(ValueError, match="weight decay violated"):
            self.chain_tree(w, w / 5.0 * 1.01)


def loop_frt_structure(metric: FiniteMetric, tau: float, rng_seed: int):
    """The embedding's former per-cluster loops over the whole permutation.

    Returns (parent, weight, leaf_vertex); kept as the reference for the
    vectorized assignment in ``frt_embed``.
    """
    rng = np.random.default_rng(rng_seed)
    n, dist = metric.n, metric.dist
    group_of = np.full(n, -1, dtype=np.int64)
    reps: list[int] = []
    for i in range(n):
        if group_of[i] >= 0:
            continue
        group_of[np.where(dist[i] == 0.0)[0]] = len(reps)
        reps.append(i)
    members_of = [np.where(group_of == g)[0] for g in range(len(reps))]
    rep_idx = np.asarray(reps, dtype=np.int64)
    m = len(reps)
    parents: list[int] = []
    weights: list[float] = []
    group_leaf = np.full(m, -1, dtype=np.int64)

    def new_vertex(parent, weight):
        parents.append(parent)
        weights.append(weight)
        return len(parents) - 1

    if m == 1:
        group_leaf[0] = new_vertex(-1, 0.0)
    else:
        sub = dist[np.ix_(rep_idx, rep_idx)]
        psi = float(sub.max())
        top = math.ceil(math.log(psi, tau))
        while tau**top < psi:
            top += 1
        perm = rng.permutation(m)
        beta = float(tau ** rng.uniform(0.0, 1.0))
        active = [(new_vertex(-1, 0.0), np.arange(m))]
        level = top - 1
        while active:
            radius = beta * tau**level
            child_w = beta * tau ** (level + 1)
            nxt = []
            for vert, members in active:
                assigned = np.full(members.shape[0], -1, dtype=np.int64)
                for c in perm:
                    free = assigned < 0
                    if not free.any():
                        break
                    assigned[free & (sub[members, c] <= radius)] = c
                for c in perm:
                    chunk = members[assigned == c]
                    if chunk.size == 0:
                        continue
                    child = new_vertex(vert, child_w)
                    if chunk.size == 1:
                        group_leaf[chunk[0]] = child
                    else:
                        nxt.append((child, chunk))
            active = nxt
            level -= 1
    leaf_vertex = np.full(n, -1, dtype=np.int64)
    for g in range(m):
        if members_of[g].size == 1:
            leaf_vertex[members_of[g][0]] = group_leaf[g]
        else:
            for p in members_of[g]:
                leaf_vertex[p] = new_vertex(int(group_leaf[g]), 0.0)
    return np.asarray(parents), np.asarray(weights), leaf_vertex


def _duplicate_points_metric() -> FiniteMetric:
    rng = np.random.default_rng(7)
    pts = rng.integers(0, 4, size=(30, 2)).astype(float)  # many repeated points
    return FiniteMetric(pts)


def _wind_metric() -> FiniteMetric:
    return altitude_metric(EnergyParams(), synthetic_wind_table(3, hours=4).altitudes)


@pytest.mark.parametrize(
    "metric, seeds",
    [
        (grid_metric(12, 12), range(6)),
        (grid_metric(7, 5), range(6)),
        (grid_metric(24, 24), range(3)),
        (_duplicate_points_metric(), range(6)),
        (_wind_metric(), (0, 12, 20, 21, 24, 27)),
    ],
    ids=["grid12x12", "grid7x5", "grid24x24", "duplicates", "wind"],
)
def test_frt_matches_the_loop_construction(metric, seeds):
    for seed in seeds:
        tree = frt_embed(metric, tau=5.0, rng_seed=seed)
        parent, weight, leaf_vertex = loop_frt_structure(metric, 5.0, seed)
        assert np.array_equal(tree.parent, parent)
        assert np.array_equal(tree.weight, weight)
        assert np.array_equal(tree.leaf_vertex, leaf_vertex)
