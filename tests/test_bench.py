import numpy as np
import pytest

from gpmd.bench import (
    EpisodeLog,
    RegretReport,
    log_alpha,
    offline_optimal_matrix,
    regret,
    synth_instance,
)
from gpmd.metric import FiniteMetric, grid_metric

from conftest import brute_force_optimal


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


def column_layout_dp(cost_matrix, dist, x0):
    """The DP as first written: a strided minimum down each column of
    reach[from, to]. Reference for the row-layout sweep."""
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


class TestRegret:
    def test_exact_compensation_gives_zero(self):
        alpha, beta = 2.0, 5.0
        opts = np.array([1.0, 2.0, 3.0])
        costs = alpha * opts + beta
        report = regret(list(costs), opts, alpha=alpha, beta=beta)
        assert report.total == pytest.approx(0.0)
        assert np.allclose(report.per_episode, 0.0)

    def test_identity_costs(self):
        opts = np.array([1.5, 2.5])
        report = regret(list(opts), opts, alpha=1.0, beta=0.0)
        assert np.allclose(report.per_episode, 0.0)

    def test_hand_arithmetic(self):
        alpha = log_alpha(16)
        report = regret([10.0], [1.0], alpha=alpha, beta=0.0)
        assert report.per_episode[0] == pytest.approx(10.0 - alpha)
        assert report.average_series()[0] == pytest.approx(10.0 - alpha)

    def test_episode_log_totals(self):
        log = EpisodeLog(x0=0)
        log.append(0.1, 1, service=2.0, movement=1.0)
        log.append(0.2, 2, service=3.0, movement=0.5)
        assert log.service_total == pytest.approx(5.0)
        assert log.movement_total == pytest.approx(1.5)
        assert log.cost_total == pytest.approx(6.5)
        report = regret([log], [6.5], alpha=1.0, beta=0.0)
        assert report.total == pytest.approx(0.0)

    @pytest.mark.parametrize("derived", ["per_episode", "cumulative"])
    def test_derived_fields_are_not_arguments(self, derived):
        with pytest.raises(TypeError, match=derived):
            RegretReport(alpha=1.0, beta=0.0, episode_costs=[3.0], optimal_costs=[1.0],
                         **{derived: [99.0]})

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            regret([1.0], [1.0, 2.0], alpha=1.0, beta=0.0)


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
