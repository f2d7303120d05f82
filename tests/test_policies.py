import numpy as np
import pytest

from gpmd.bench import synth_instance
from gpmd.gp import GpModel, RbfKernel
from gpmd.hst import frt_embed
from gpmd.metric import grid_metric
from gpmd.mirror import MdEngine
from gpmd.policies import (
    ExactCostModel,
    GpServiceModel,
    MirrorDescentPolicy,
    lower_bound,
    make_policy,
)
from gpmd.transport import tree_wasserstein


@pytest.fixture
def small_world():
    metric = grid_metric(3, 3)
    inst = synth_instance(11, metric=metric, n_contexts=6)
    tree = frt_embed(metric, tau=5.0, rng_seed=4)
    return inst, tree


def exact_model(inst) -> ExactCostModel:
    return ExactCostModel(lambda c: inst.f_table[:, int(c)], n_actions=inst.n_actions)


def gp_model_for(inst, update_mode="per-step", beta_mode="constant") -> GpServiceModel:
    gp = GpModel(
        kernel=RbfKernel(lengthscale=inst.lengthscale, outputscale=inst.scale**2),
        lam=max(inst.noise_sigma**2, 1e-8),
        beta_mode=beta_mode,
        beta_value=2.0,
    )

    def featurize(c):
        e = inst.contexts[int(c)]
        return np.column_stack([inst.metric.coords, np.full(inst.metric.n, e)])

    return GpServiceModel(gp, featurize, n_actions=inst.metric.n, update_mode=update_mode)


def count_posteriors(gp) -> list:
    """Record each later ``gp.posterior`` call in the returned list."""
    calls, posterior = [], gp.posterior

    def counted(Xq):
        calls.append(Xq)
        return posterior(Xq)

    gp.posterior = counted
    return calls


class TestStationary:
    def test_always_x0(self, small_world):
        inst, tree = small_world
        pol = make_policy("stationary", n_actions=inst.n_actions)
        pol.begin_episode(4)
        for c in range(5):
            action, _ = pol.act(c % 3)
            assert action == 4

    def test_needs_begin(self, small_world):
        inst, _ = small_world
        pol = make_policy("stationary", n_actions=inst.n_actions)
        with pytest.raises(RuntimeError):
            pol.act(0)


class TestArgminPolicies:
    def test_minc_known_unique_minimizer(self, small_world):
        inst, _ = small_world
        pol = make_policy("minc-known", true_model=exact_model(inst))
        pol.begin_episode(0)
        for c in range(inst.n_contexts):
            action, _ = pol.act(c)
            assert action == int(np.argmin(inst.f_table[:, c]))

    def test_argmin_tie_breaks_low_index(self):
        model = ExactCostModel(lambda c: np.array([1.0, 0.3, 0.3]), n_actions=3)
        pol = make_policy("minc-known", true_model=model)
        pol.begin_episode(2)
        action, _ = pol.act(0)
        assert action == 1

    def test_cgp_lcb_permutation_equivariance(self, small_world):
        # Relabeling the actions (and features consistently) must relabel
        # the chosen actions the same way.
        inst, _ = small_world
        rng = np.random.default_rng(0)
        perm = rng.permutation(inst.n_actions)

        base = gp_model_for(inst)
        pol = make_policy("cgp-lcb", cost_model=base)
        pol.begin_episode(0)

        def featurize_perm(c):
            e = inst.contexts[int(c)]
            return np.column_stack(
                [inst.metric.coords[perm], np.full(inst.metric.n, e)]
            )

        # Each learner needs a GP model of its own: a shared one would learn
        # both learners' observations.
        permuted = GpServiceModel(
            gp_model_for(inst).gp, featurize_perm, n_actions=inst.metric.n, update_mode="per-step"
        )
        pol_p = make_policy("cgp-lcb", cost_model=permuted)
        pol_p.begin_episode(0)

        # Warm both models on the same physical observations so the lcb has
        # no exact ties (an untrained model ties everywhere and the
        # tie-break is index-dependent by design).
        inv_perm = np.argsort(perm)
        warm = [(0, 1), (4, 2), (7, 0), (3, 4)]
        for j, c in warm:
            y = float(inst.f_table[j, c])
            base.observe(j, c, y)
            permuted.observe(int(inv_perm[j]), c, y)

        contexts = [0, 3, 1, 5, 2]
        for c in contexts:
            a, _ = pol.act(c)
            ap, _ = pol_p.act(c)
            assert perm[ap] == a
            y = float(inst.f_table[a, c])
            pol.observe(a, c, y)
            pol_p.observe(int(inv_perm[a]), c, y)
        assert base.gp.n == permuted.gp.n == len(warm) + len(contexts)


class TestGpServiceModel:
    def test_to_cost_maps_the_posterior(self, small_world):
        # The map gets the posterior at the context's query rows and the
        # model's beta_t; without a map the costs are the lower bound.
        inst, _ = small_world
        base = gp_model_for(inst)
        base.observe(4, 2, float(inst.f_table[4, 2]))
        calls = []

        def to_cost(mean, std, beta):
            calls.append((mean, std, beta))
            return mean + std

        mapped = GpServiceModel(base.gp, base.featurize, n_actions=inst.metric.n, to_cost=to_cost)
        costs = mapped.lcb_costs(3)
        [(mean, std, beta)] = calls
        ref_mean, ref_std = base.gp.posterior(base.featurize(3))
        assert np.array_equal(mean, ref_mean) and np.array_equal(std, ref_std)
        assert beta == base.gp.beta_t() == 2.0
        assert np.array_equal(costs, ref_mean + ref_std)
        assert np.array_equal(base.lcb_costs(3), ref_mean - 2.0 * ref_std)

    def test_frozen_model_serves_each_context_once(self, small_world):
        inst, tree = small_world
        model = gp_model_for(inst, update_mode="per-episode")
        model.gp.update(model.featurize(1)[[4]], [float(inst.f_table[4, 1])])
        gp, calls = model.gp, count_posteriors(model.gp)
        pol = make_policy("gp-md", tree=tree, cost_model=model, rng=np.random.default_rng(2))
        pol.begin_episode(0)
        for c in (0, 1, 0, 0):
            a, _ = pol.act(c)  # mirror descent runs on the served read-only arrays
            pol.observe(a, c, float(inst.f_table[a, c]))
        assert len(calls) == 2
        served = model.lcb_costs(0)
        assert len(calls) == 2
        assert np.array_equal(served, lower_bound(*gp.posterior(model.featurize(0)), gp.beta_t()))
        assert not served.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            served[0] = 0.0

    @pytest.mark.parametrize(
        "event, beta_mode",
        [("flush", "constant"), ("gp.update", "constant"), ("flush", "theory")],
    )
    def test_learning_drops_served_bounds(self, small_world, event, beta_mode):
        # Whatever makes the GP learn, by this model's flush or by a direct
        # update, the next query sees the new posterior and beta_t.
        inst, _ = small_world
        model = gp_model_for(inst, update_mode="per-episode", beta_mode=beta_mode)
        model.gp.update(model.featurize(1)[[4]], [float(inst.f_table[4, 1])])
        gp, calls = model.gp, count_posteriors(model.gp)
        before = model.lcb_costs(2)
        beta_before = gp.beta_t()
        if event == "flush":
            model.observe(6, 2, float(inst.f_table[6, 2]))
            assert model.lcb_costs(2) is before
            model.end_episode()
        else:
            gp.update(model.featurize(3)[[6]], [float(inst.f_table[6, 3])])
        after = model.lcb_costs(2)
        assert len(calls) == 2
        assert not np.array_equal(after, before)
        assert np.array_equal(after, lower_bound(*gp.posterior(model.featurize(2)), gp.beta_t()))
        assert (gp.beta_t() != beta_before) == (beta_mode == "theory")

    def test_per_step_bounds_match_unmemoized(self, small_world):
        # A per-step model learns after every query, so even a recurring
        # context gets a fresh posterior at each step.
        class Unmemoized(GpServiceModel):
            def lcb_costs(self, context):
                return self.to_cost(*self.gp.posterior(self.featurize(context)), self.gp.beta_t())

        inst, tree = small_world
        model = gp_model_for(inst)
        ref = Unmemoized(gp_model_for(inst).gp, model.featurize, n_actions=inst.metric.n)
        calls = count_posteriors(model.gp)
        pol = make_policy("gp-md", tree=tree, cost_model=model, rng=np.random.default_rng(4))
        pol_ref = make_policy("gp-md", tree=tree, cost_model=ref, rng=np.random.default_rng(4))
        pol.begin_episode(0)
        pol_ref.begin_episode(0)
        contexts = (0, 1, 0, 0, 2, 1, 1, 3)
        for c in contexts:
            a, _ = pol.act(c)
            assert pol_ref.act(c)[0] == a
            assert np.array_equal(model.lcb_costs(c), ref.lcb_costs(c))
            y = float(inst.f_table[a, c])
            pol.observe(a, c, y)
            pol_ref.observe(a, c, y)
        assert len(calls) == len(contexts)


class TestBeginEpisode:
    def test_point_mass_state(self, small_world):
        inst, tree = small_world
        pol = make_policy("md-known", tree=tree, true_model=exact_model(inst))
        pol.begin_episode(5)
        z = pol.z_prev
        leaf = tree.leaf_vertex[5]
        assert z[leaf] == 1.0
        v = int(leaf)
        while v >= 0:
            assert z[v] == 1.0
            v = int(tree.parent[v])
        assert z[tree.leaf_vertex].sum() == pytest.approx(1.0)

    def test_q_and_z_consistent(self, small_world):
        inst, tree = small_world
        pol = make_policy("md-known", tree=tree, true_model=exact_model(inst))
        pol.begin_episode(2)
        z_round = pol.engine.delta_map(pol.q)
        assert np.abs(z_round - pol.z_prev).max() <= 1e-12

    def test_idempotent(self, small_world):
        inst, tree = small_world
        pol = make_policy("md-known", tree=tree, true_model=exact_model(inst))
        pol.begin_episode(3)
        q1, z1 = pol.q.copy(), pol.z_prev.copy()
        pol.begin_episode(3)
        assert np.array_equal(q1, pol.q)
        assert np.array_equal(z1, pol.z_prev)

    def test_unknown_leaf(self, small_world):
        inst, tree = small_world
        pol = make_policy("md-known", tree=tree, true_model=exact_model(inst))
        with pytest.raises(ValueError, match="action"):
            pol.begin_episode(99)


class TestUpdateModes:
    def test_per_episode_keeps_lcb_fixed_within_episode(self, small_world):
        inst, tree = small_world
        model = gp_model_for(inst, update_mode="per-episode")
        pol = make_policy("gp-md", tree=tree, cost_model=model, rng=np.random.default_rng(1))
        pol.begin_episode(0)
        before = model.lcb_costs(2).copy()
        for c in (0, 1, 2):
            a, _ = pol.act(c)
            pol.observe(a, c, float(inst.f_table[a, c]))
        assert np.array_equal(model.lcb_costs(2), before)
        pol.end_episode()
        assert not np.array_equal(model.lcb_costs(2), before)

    def test_per_step_updates_immediately(self, small_world):
        inst, tree = small_world
        model = gp_model_for(inst, update_mode="per-step")
        pol = make_policy("gp-md", tree=tree, cost_model=model, rng=np.random.default_rng(1))
        pol.begin_episode(0)
        before = model.lcb_costs(2).copy()
        a, _ = pol.act(0)
        pol.observe(a, 0, float(inst.f_table[a, 0]))
        assert not np.array_equal(model.lcb_costs(2), before)

    def test_known_baselines_never_learn(self, small_world):
        inst, tree = small_world
        model = exact_model(inst)
        for name in ("md-known", "minc-known"):
            pol = make_policy(name, tree=tree, true_model=model)
            pol.begin_episode(0)
            a, _ = pol.act(0)
            pol.observe(a, 0, 123.456)
            pol.end_episode()
            assert np.array_equal(model.lcb_costs(1), inst.f_table[:, 1])

    def test_rejects_nonfinite_observation(self, small_world):
        inst, tree = small_world
        pol = make_policy("gp-md", tree=tree, cost_model=gp_model_for(inst))
        pol.begin_episode(0)
        a, _ = pol.act(0)
        with pytest.raises(ValueError, match="finite"):
            pol.observe(a, 0, np.inf)


class TestMirrorDescentPolicy:
    def test_known_f_consistency_short(self, small_world):
        # GP-MD with a noiseless fully-observed model must follow MD-Known's
        # distributions; the acceptance suite runs the 20-step version.
        inst, tree = small_world
        rho = 0.5
        gp = GpModel(
            kernel=RbfKernel(lengthscale=inst.lengthscale, outputscale=inst.scale**2),
            lam=1e-10,
            beta_mode="constant",
            beta_value=2.0,
        )

        def featurize(c):
            e = inst.contexts[int(c)]
            return np.column_stack([inst.metric.coords, np.full(inst.metric.n, e)])

        X_all = np.vstack([featurize(c) for c in range(inst.n_contexts)])
        y_all = inst.f_table.T.ravel()
        gp = gp.update(X_all, y_all)
        gp_model = GpServiceModel(gp, featurize, n_actions=inst.metric.n, update_mode="per-episode")

        pol_gp = MirrorDescentPolicy(tree, gp_model, rho=rho, rng=np.random.default_rng(3))
        pol_known = MirrorDescentPolicy(tree, exact_model(inst), rho=rho, rng=np.random.default_rng(3))
        pol_gp.begin_episode(1)
        pol_known.begin_episode(1)
        for c in (0, 2, 4, 1):
            pol_gp.act(c)
            pol_known.act(c)
            gap = pol_gp.z_prev[tree.leaf_vertex] - pol_known.z_prev[tree.leaf_vertex]
            assert np.abs(gap).max() <= 1e-6

    def test_scaling_invariance_of_md_known(self, small_world):
        # Scaling all costs and all tree weights by one constant leaves the
        # chosen distributions unchanged.
        inst, tree = small_world
        from gpmd.hst import HstTree

        s = 3.7
        scaled_tree = HstTree(
            parent=tree.parent,
            weight=tree.weight * s,
            leaf_vertex=tree.leaf_vertex,
            tau=tree.tau,
        )
        scaled_model = ExactCostModel(
            lambda c: inst.f_table[:, int(c)] * s, n_actions=inst.n_actions
        )
        pol = MirrorDescentPolicy(tree, exact_model(inst), rho=1.0, rng=np.random.default_rng(5))
        pol_s = MirrorDescentPolicy(scaled_tree, scaled_model, rho=1.0, rng=np.random.default_rng(5))
        pol.begin_episode(0)
        pol_s.begin_episode(0)
        for c in (0, 1, 2, 3):
            pol.act(c)
            pol_s.act(c)
            gap = pol.z_prev[tree.leaf_vertex] - pol_s.z_prev[scaled_tree.leaf_vertex]
            assert np.abs(gap).max() <= 1e-8

    def test_step_marginal_matches_leaf_distribution(self, small_world):
        # Replays of one episode step must hit actions at the l(z) rates.
        inst, tree = small_world
        model = exact_model(inst)
        contexts = [0, 3]
        draws = 4000
        counts = np.zeros(inst.n_actions)
        target = None
        for k in range(draws):
            pol = MirrorDescentPolicy(tree, model, rho=1.0, rng=np.random.default_rng(1000 + k))
            pol.begin_episode(2)
            for c in contexts:
                a, _ = pol.act(c)
            counts[a] += 1
            if target is None:
                target = pol.z_prev[tree.leaf_vertex]
        freqs = counts / draws
        for j in range(inst.n_actions):
            se = np.sqrt(max(target[j] * (1 - target[j]), 1e-12) / draws)
            assert abs(freqs[j] - target[j]) <= 4 * se + 1e-3

    def test_diagnostics_fields(self, small_world):
        inst, tree = small_world
        pol = make_policy("md-known", tree=tree, true_model=exact_model(inst))
        pol.begin_episode(0)
        _, diag = pol.act(0)
        assert set(diag) == {
            "hallucinated_root_cost",
            "tree_wasserstein_step",
            "row_pieces",
            "coupling_fallback",
            "newton_iters",
        }
        start = np.eye(inst.n_actions)[0]
        moved = tree_wasserstein(tree, start, pol.z_prev[tree.leaf_vertex])
        assert diag["tree_wasserstein_step"] == pytest.approx(moved, rel=1e-12, abs=1e-15)
        # one iteration count per depth layer of the tree's internal vertices
        assert len(diag["newton_iters"]) == int(tree.depth.max())
        for count in diag["newton_iters"]:
            assert type(count) is int and count >= 0
        # from a point mass the row is the whole next distribution
        assert diag["row_pieces"] == int((pol.z_prev[tree.leaf_vertex] > 0.0).sum())
        assert diag["coupling_fallback"] is False


class TestFactory:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("mystery")

    def test_missing_dependencies(self, small_world):
        inst, tree = small_world
        with pytest.raises(ValueError, match="tree"):
            make_policy("gp-md", cost_model=gp_model_for(inst))
        with pytest.raises(ValueError, match="true cost"):
            make_policy("minc-known")
        for kwargs in ({}, {"tree": tree}, {"true_model": exact_model(inst)}):
            with pytest.raises(ValueError, match="stationary needs the action count"):
                make_policy("stationary", **kwargs)
