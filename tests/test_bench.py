import numpy as np
import pytest

from gpmd.bench import NEIGHBOURS, log_alpha, offline_optimal_matrix, synth_instance
from gpmd.harness import Env, RunConfig, run_cell
from gpmd.hst import frt_embed
from gpmd.metric import FiniteMetric, grid_metric

from conftest import brute_force_optimal, distance_matrix


class TestOfflineOptimal:
    def test_single_step(self, rng):
        n = 5
        metric = FiniteMetric(rng.uniform(0, 1, (n, 2)))
        f = rng.uniform(0, 2, (n, 3))
        seq, cost = offline_optimal_matrix(f[:, [1]].T, metric.dist, 2)
        direct = f[:, 1] + metric.dist[2]
        assert seq == [int(np.argmin(direct))]
        assert cost == pytest.approx(direct.min())

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 6))
            H = int(rng.integers(2, 5))
            metric = FiniteMetric(rng.uniform(0, 1, (n, 2)))
            cost_matrix = rng.uniform(0, 1, (H, n))
            x0 = int(rng.integers(0, n))
            seq_dp, cost_dp = offline_optimal_matrix(cost_matrix, metric.dist, x0)
            seq_bf, cost_bf = brute_force_optimal(cost_matrix, metric.dist, x0)
            assert cost_dp == pytest.approx(cost_bf, abs=1e-10)
            # sequences agree unless there are exact cost ties
            dp_total = cost_matrix[0, seq_dp[0]] + metric.dist[x0, seq_dp[0]]
            for h in range(1, H):
                dp_total += cost_matrix[h, seq_dp[h]] + metric.dist[seq_dp[h - 1], seq_dp[h]]
            assert dp_total == pytest.approx(cost_bf, abs=1e-10)

    def test_zero_metric_decouples_steps(self, rng):
        n, H = 6, 4
        cost_matrix = rng.uniform(0, 1, (H, n))
        seq, cost = offline_optimal_matrix(cost_matrix, np.zeros((n, n)), 0)
        assert seq == [int(np.argmin(cost_matrix[h])) for h in range(H)]
        assert cost == pytest.approx(cost_matrix.min(axis=1).sum())

    def test_ties_break_low_index(self):
        cost_matrix = np.array([[0.5, 0.5, 0.5], [0.2, 0.2, 0.2]])
        seq, _ = offline_optimal_matrix(cost_matrix, np.zeros((3, 3)), 1)
        assert seq == [0, 0]

    def test_missing_entries_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            offline_optimal_matrix(np.array([[1.0, np.nan]]), np.zeros((2, 2)), 0)

    def test_movement_matters(self):
        # cheap action far away vs slightly dearer action nearby
        dist = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 10.0], [1.0, 10.0, 0.0]])
        cost_matrix = np.array([[5.0, 0.0, 1.0]] * 3)
        seq, cost = offline_optimal_matrix(cost_matrix, dist, 0)
        assert seq == [2, 2, 2]
        assert cost == pytest.approx(1.0 + 3.0)

    def test_dist_shape_rejected(self):
        with pytest.raises(ValueError, match=r"dist must be \(3, 3\) for 3 actions, got \(3, 2\)"):
            offline_optimal_matrix(np.zeros((2, 3)), np.zeros((3, 2)), 0)

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError, match=r"must be \(H, n\) with H >= 1, got \(0, 3\)"):
            offline_optimal_matrix(np.zeros((0, 3)), np.zeros((3, 3)), 0)


def column_layout_dp(cost_matrix, dist, x0):
    """The DP as first written: a strided minimum down each column of
    reach[from, to] over every predecessor. Reference for the pruned sweep."""
    H, n = cost_matrix.shape
    value = cost_matrix[0] + dist[x0]
    back = np.zeros((H, n), dtype=np.int64)
    for h in range(1, H):
        reach = value[:, None] + dist
        back[h] = np.argmin(reach, axis=0)
        value = cost_matrix[h] + reach[back[h], np.arange(n)]
    last = int(np.argmin(value))
    seq = [last]
    for h in range(H - 1, 0, -1):
        last = int(back[h, last])
        seq.append(last)
    seq.reverse()
    return seq, float(value.min())


class TestRowLayoutDp:
    def test_bit_identical_to_column_layout(self, rng):
        for trial in range(20):
            n = int(rng.integers(2, 30))
            H = int(rng.integers(1, 40))
            # L1 distances on an integer lattice tie often; a few entries get
            # an asymmetric nudge within 1e-9 of the triangle inequality.
            pts = rng.integers(0, 4, (n, 2))
            dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
            nudge = np.triu(rng.integers(0, 2, (n, n)) * 1e-10, k=1)
            nudge[0, n - 1] = 1e-10
            dist += nudge
            cost_matrix = rng.integers(0, 5, (H, n)).astype(float)
            x0 = int(rng.integers(0, n))
            seq, cost = offline_optimal_matrix(cost_matrix, dist, x0)
            ref_seq, ref_cost = column_layout_dp(cost_matrix, dist, x0)
            assert seq == ref_seq, trial
            assert cost == ref_cost, trial


class TestPrunedDp:
    """The sweep that skips dominated predecessors gives the unpruned
    reference's sequence and value exactly."""

    @staticmethod
    def assert_exact(cost_matrix, dist, x0=0):
        seq, cost = offline_optimal_matrix(cost_matrix, dist, x0)
        ref_seq, ref_cost = column_layout_dp(cost_matrix, dist, x0)
        assert seq == ref_seq
        assert cost == ref_cost

    @pytest.mark.parametrize("cost_scale", [1e-3, 1.0, 1e9])
    def test_grids_and_lines_across_cost_scales(self, rng, cost_scale):
        # Small costs leave almost every predecessor in, large ones almost none.
        metrics = [grid_metric(6, 5), grid_metric(3, 9), FiniteMetric(rng.uniform(0, 1, (20, 1)))]
        metrics.append(FiniteMetric(np.linspace(0.0, 1.0, 15)[:, None], scale=3.0))
        for metric in metrics:
            cost_matrix = cost_scale * rng.uniform(0, 1, (25, metric.n))
            self.assert_exact(cost_matrix, metric.dist, int(rng.integers(metric.n)))

    def test_duplicate_coordinates(self, rng):
        for _ in range(10):
            metric = FiniteMetric(rng.integers(0, 3, (14, 2)).astype(float))
            cost_matrix = rng.integers(0, 3, (20, 14)).astype(float)
            self.assert_exact(cost_matrix, metric.dist, int(rng.integers(14)))

    def test_tree_metric(self, rng):
        metric = FiniteMetric(rng.uniform(0, 1, (30, 2)))
        dist = distance_matrix(frt_embed(metric, tau=5.0, rng_seed=3))
        for cost_scale in (0.01, 1.0, 100.0):
            self.assert_exact(cost_scale * rng.uniform(0, 1, (30, 30)), dist, 7)

    def test_tiny_instances(self, rng):
        self.assert_exact(np.array([[2.5]]), np.zeros((1, 1)))
        self.assert_exact(rng.uniform(0, 1, (6, 1)), np.zeros((1, 1)))
        for n in range(2, NEIGHBOURS + 2):
            metric = FiniteMetric(rng.uniform(0, 1, (n, 2)))
            self.assert_exact(rng.uniform(0, 1, (1, n)), metric.dist, n - 1)
            self.assert_exact(rng.uniform(0, 1, (12, n)), metric.dist, n - 1)

    def test_forty_by_forty_grid(self, rng):
        metric = grid_metric(40, 40)
        self.assert_exact(rng.uniform(0, 1, (30, metric.n)), metric.dist, 820)


class TestRegret:
    """The regret record ``run_cell`` builds, on hand-built envs whose
    offline optimum is known: every policy here is deterministic."""

    @staticmethod
    def _cell(points, f, contexts, x0, policy, **cfg):
        metric = FiniteMetric(np.asarray(points, dtype=float)[:, None])
        contexts = np.asarray(contexts)
        env = Env(
            tree=frt_embed(metric, tau=5.0, rng_seed=0),
            dist=metric.dist,
            f=np.asarray(f, dtype=float),
            contexts=contexts,
            x0=np.full(contexts.shape[0], x0),
            start=None,
            labels=[str(k) for k in range(len(f[0]))],
            featurize=None,
            make_gp=None,
            obs=np.asarray(f, dtype=float),
            noise=np.zeros(contexts.shape),
        )
        cfg = RunConfig(
            policies=[policy], steps=contexts.shape[1], episodes=contexts.shape[0], **cfg
        )
        return run_cell(cfg, env, policy, 1.0, 1, None)

    def test_exact_compensation_gives_zero(self):
        # staying at 0 costs 7 an episode; the optimum moves to 1 for 1
        alpha, beta = 2.0, 5.0
        _, summary = self._cell(
            [0.0, 1.0], [[3.5], [0.0]], np.zeros((3, 2), dtype=int), 0, "stationary",
            regret_alpha=alpha, regret_beta=beta,
        )
        assert summary["episode_costs"] == pytest.approx([7.0, 7.0, 7.0])
        assert summary["offline_optimal_costs"] == pytest.approx([1.0, 1.0, 1.0])
        assert summary["regret"]["total"] == pytest.approx(0.0)
        assert np.allclose(summary["regret"]["per_episode"], 0.0)

    def test_identity_costs(self):
        # staying at 0 is optimal in both episodes
        _, summary = self._cell(
            [0.0, 1.0], [[0.25, 0.375], [2.0, 2.0]], [[0, 0], [1, 1]], 0, "stationary",
            regret_alpha=1.0, regret_beta=0.0,
        )
        assert summary["episode_costs"] == pytest.approx([0.5, 0.75])
        assert np.allclose(summary["regret"]["per_episode"], 0.0)

    def test_hand_arithmetic(self):
        # 16 actions, so the default alpha is log_alpha(16); staying costs 10,
        # the optimum moves to 1 for 1
        f = np.zeros((16, 1))
        f[0] = 5.0
        _, summary = self._cell(np.arange(16.0), f, [[0, 0]], 0, "stationary")
        alpha = log_alpha(16)
        assert summary["regret"]["alpha"] == alpha
        assert summary["regret"]["per_episode"][0] == pytest.approx(10.0 - alpha)
        assert summary["regret"]["average_series"][0] == pytest.approx(10.0 - alpha)

    def test_episode_log_totals(self):
        # the argmin walks 0 -> 1 (service 2, movement 1) -> 2 (service 3,
        # movement 0.5), which is also the offline optimum
        f = [[9.0, 9.0], [2.0, 9.0], [9.0, 3.0]]
        steps, summary = self._cell(
            [0.0, 1.0, 1.5], f, [[0, 1]], 0, "minc-known", regret_alpha=1.0, regret_beta=0.0
        )
        assert steps["action"].tolist() == [[1, 2]]
        assert steps["service"].tolist() == [[2.0, 3.0]]
        assert steps["movement"] == pytest.approx(np.array([[1.0, 0.5]]))
        assert summary["service_total"] == pytest.approx(5.0)
        assert summary["movement_total"] == pytest.approx(1.5)
        assert summary["cost_total"] == pytest.approx(6.5)
        assert summary["offline_optimal_costs"] == pytest.approx([6.5])
        assert summary["regret"]["total"] == pytest.approx(0.0)


class TestSynthInstance:
    def test_normalization_contract(self):
        inst = synth_instance(3, metric=grid_metric(6, 6), n_contexts=10)
        assert inst.f_table.min() == pytest.approx(0.0, abs=1e-12)
        assert inst.f_table.mean() == pytest.approx(inst.metric.mean_pairwise_distance(), rel=1e-9)
        assert inst.noise_sigma == pytest.approx(0.01 * inst.f_table.max())

    def test_deterministic_in_seed(self):
        a = synth_instance(7, metric=grid_metric(5, 5), n_contexts=8)
        b = synth_instance(7, metric=grid_metric(5, 5), n_contexts=8)
        assert np.array_equal(a.f_table, b.f_table)
        assert np.array_equal(a.contexts, b.contexts)
        c = synth_instance(8, metric=grid_metric(5, 5), n_contexts=8)
        assert not np.array_equal(a.f_table, c.f_table)

    def test_empirical_covariance_tracks_kernel(self):
        # Across seeds, the raw (pre-normalization) sample has the generating
        # kernel's covariance. Checked on same-context action pairs, whose
        # kernel value is seed-independent.
        metric = grid_metric(5, 5)
        vals = []
        for s in range(1000):
            inst = synth_instance(s, metric=metric, n_contexts=4)
            vals.append([inst.raw_sample[0, 0], inst.raw_sample[1, 0], inst.raw_sample[2, 0]])
        vals = np.asarray(vals)
        centered = vals - vals.mean(axis=0)
        cov = centered.T @ centered / len(vals)
        # adjacent grid points (spacing 0.25, lengthscale 0.2): k = 0.458;
        # weaker pairs drown in sampling error at this trial count
        k01 = np.exp(-0.5 * metric.dist[0, 1] ** 2 / 0.2**2)
        assert cov[0, 0] == pytest.approx(1.0, rel=0.10)
        assert cov[1, 1] == pytest.approx(1.0, rel=0.10)
        assert cov[0, 1] == pytest.approx(k01, rel=0.10)
        assert cov[1, 2] == pytest.approx(k01, rel=0.10)
