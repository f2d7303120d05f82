"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The statistical criteria use pinned seeds.
"""

import math
import time

import numpy as np
import pytest

from gpmd.bench import offline_optimal_matrix, synth_instance
from gpmd.gp import GpModel, rbf_table
from gpmd.harness import Env, RunConfig, build_synthetic_env, build_wind_env, rng_stream, run_cell
from gpmd.hst import frt_embed
from gpmd.metric import FiniteMetric, grid_metric
from gpmd.mirror import MdEngine, PotentialParams, point_mass_state
from gpmd.policies import ExactCostModel, GpServiceModel, MirrorDescentPolicy
from gpmd.transport import sample_next
from gpmd.wind import EnergyParams, altitude_metric, energy_service

from conftest import (
    RbfKernel,
    bregman,
    brute_force_optimal,
    distance_matrix,
    lp_transport_cost,
    optimal_coupling,
    random_hst,
    table_gp,
    tree_wasserstein,
)


def _report(num: int, label: str, started: float, detail: str = ""):
    extra = f" [{detail}]" if detail else ""
    print(f"\n[ACCEPTANCE] C{num:02d} {label}: PASS ({time.time() - started:.1f}s){extra}")


# ---------------------------------------------------------------------------


def test_c01_transport_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(101)
    trials = 10_000
    worst_closed = 0.0
    worst_coupling = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 33))
        tree = random_hst(rng, n)
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        lp = lp_transport_cost(distance_matrix(tree), a, b)
        closed = tree_wasserstein(tree, a, b)
        coupling_cost = optimal_coupling(tree, a, b).expected_cost()
        worst_closed = max(worst_closed, abs(closed - lp))
        worst_coupling = max(worst_coupling, abs(coupling_cost - lp))
    assert worst_closed <= 1e-9
    assert worst_coupling <= 1e-9
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(1, "transport closed form and coupling match the LP oracle", started,
            f"{trials} instances, worst gaps {worst_closed:.1e}/{worst_coupling:.1e}")


# ---------------------------------------------------------------------------


GRID_STEP = 1e-4
GRID_N = round(1.0 / GRID_STEP)
GRID_TS = np.linspace(0.0, 1.0, GRID_N + 1)


def _phi_table(scale, q, delta, cost):
    ts = GRID_TS
    return scale * ((ts + delta) * np.log((ts + delta) / (q + delta)) + q - ts) + cost * ts


def _grid_oracle_min(scales, q, deltas, costs):
    """Exhaustive enumeration of the update objective over the step-1e-4
    simplex grid, organized through separable per-coordinate tables."""
    k = len(q)
    phis = [_phi_table(scales[v], q[v], deltas[v], costs[v]) for v in range(k)]
    if k == 1:
        return float(phis[0][-1])
    if k == 2:
        return float((phis[0] + phis[1][::-1]).min())
    m12 = np.full(GRID_N + 1, np.inf)
    for i in range(GRID_N + 1):
        np.minimum(m12[i:], phis[0][i] + phis[1][: GRID_N + 1 - i], out=m12[i:])
    return float((m12 + phis[2][::-1]).min())


def _random_vertex_params(rng, k):
    tree_parent = np.array([-1] + [0] * k)
    w = rng.uniform(0.3, 4.0, k)
    theta = rng.uniform(0.15, 1.0, k)
    eta = 1.0 - np.log(theta)
    delta = theta / eta
    kappa = float(rng.choice([1.0, 1.5, 2.0]))
    from gpmd.hst import HstTree

    tree = HstTree(
        parent=tree_parent,
        weight=np.array([0.0, *w]),
        leaf_vertex=np.arange(1, k + 1),
        tau=2.0,
    )
    params = PotentialParams(
        tree,
        kappa=kappa,
        w=np.array([0.0, *w]),
        eta=np.array([np.nan, *eta]),
        delta=np.array([np.nan, *delta]),
    )
    return params, w, eta, delta, kappa


def test_c02_md_update_matches_exhaustive_grid():
    started = time.time()
    rng = np.random.default_rng(202)
    trials = 1000
    worst = 0.0
    for _ in range(trials):
        k = int(rng.choice([1, 2, 3], p=[0.10, 0.75, 0.15]))
        params, w, eta, delta, kappa = _random_vertex_params(rng, k)
        q = rng.dirichlet(np.ones(k) * rng.uniform(0.5, 3.0))
        costs = rng.uniform(0.0, 3.0, k)
        p = MdEngine(params.tree, params).step(np.r_[1.0, q], costs)[0][1:]
        val = bregman(params, 0, p, q) + float(p @ costs)
        oracle = _grid_oracle_min(w / (kappa * eta), q, delta, costs)
        worst = max(worst, abs(val - oracle))
        assert val <= oracle + 1e-6  # solver at least as good as any grid point
    assert worst <= 1e-6
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(2, "vertex update matches exhaustive simplex grid search", started,
            f"{trials} vertices, worst objective gap {worst:.1e}")


# ---------------------------------------------------------------------------


def test_c03_shift_invariance():
    started = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        tree = random_hst(rng, n)
        engine = MdEngine(tree, PotentialParams(tree))
        probs = rng.dirichlet(np.ones(n))
        q = engine.delta_inverse(tree.subtree_sums(probs))
        base = rng.uniform(0.0, 3.0, n)
        q_ref, _ = engine.step(q, base)
        for c in (-5.0, 1.0, 100.0):
            q_shift, _ = engine.step(q, base + c)
            worst = max(worst, float(np.abs(q_ref - q_shift).max()))
    assert worst <= 1e-8
    _report(3, "mirror-descent state is invariant to constant cost shifts", started,
            f"worst deviation {worst:.1e}")


# ---------------------------------------------------------------------------


def test_c04_frt_contracts():
    started = time.time()
    metric = grid_metric(8, 4)  # 32 points on the unit square
    assert metric.n == 32
    mask = metric.dist > 0
    # dominance: hard assertion on 50 seeds
    for seed in range(50):
        tree = frt_embed(metric, tau=5.0, rng_seed=seed)
        DT = distance_matrix(tree)
        assert np.all(DT >= metric.dist - 1e-12), f"dominance failed at seed {seed}"
    # distortion: statistical soft check over 200 seeds
    ratios = []
    for seed in range(200):
        tree = frt_embed(metric, tau=5.0, rng_seed=seed)
        DT = distance_matrix(tree)
        ratios.append(float((DT[mask] / metric.dist[mask]).mean()))
    mean_distortion = float(np.mean(ratios))
    bound = 8.0 * math.log(32)
    assert mean_distortion <= bound
    _report(4, "random tree embedding dominates and has bounded distortion", started,
            f"mean distortion {mean_distortion:.2f} <= {bound:.2f}")


# ---------------------------------------------------------------------------


def test_c05_gp_numerics():
    started = time.time()
    rng = np.random.default_rng(505)
    kernel = RbfKernel(lengthscale=0.5, outputscale=0.8)
    lam = 0.05
    X = rng.uniform(0.0, 1.0, size=(200, 3))
    y = np.sin(3.0 * X[:, 0]) + rng.normal(0.0, 0.1, 200)
    Xq = rng.uniform(0.0, 1.0, size=(64, 3))
    # The training points (actions 0-199) and the query points (200-263)
    # are the actions of a one-context model.
    model = table_gp(kernel, np.concatenate([X, Xq]), lam)

    prev_var = None
    worst_mean = worst_std = worst_gain = 0.0
    for t in range(200):
        model = model.update([t], [0], y[t : t + 1])
        mean, std = (v[200:] for v in model.posterior(0))
        if prev_var is not None:
            assert np.all(std**2 <= prev_var + 1e-9), f"variance rose at t={t + 1}"
        prev_var = std**2
        if (t + 1) % 40 == 0:
            K = kernel(X[: t + 1], X[: t + 1]) + lam * np.eye(t + 1)
            dense_mean = kernel(X[: t + 1], Xq).T @ np.linalg.solve(K, y[: t + 1])
            cross = kernel(X[: t + 1], Xq)
            dense_var = kernel.diag(Xq) - np.einsum(
                "ij,ij->j", cross, np.linalg.solve(K, cross)
            )
            worst_mean = max(worst_mean, float(np.abs(mean - dense_mean).max()))
            worst_std = max(
                worst_std,
                float(np.abs(std - np.sqrt(np.maximum(dense_var, 0.0))).max()),
            )
            direct = 0.5 * np.linalg.slogdet(np.eye(t + 1) + kernel(X[: t + 1], X[: t + 1]) / lam)[1]
            worst_gain = max(worst_gain, abs(model.info_gain() - direct))
    assert worst_mean <= 1e-8
    assert worst_std <= 1e-8
    assert worst_gain <= 1e-8
    _report(5, "incremental factorization matches dense solve", started,
            f"worst mean/std/gain gaps {worst_mean:.1e}/{worst_std:.1e}/{worst_gain:.1e}")


# ---------------------------------------------------------------------------


def test_c06_offline_dp_equals_enumeration():
    started = time.time()
    rng = np.random.default_rng(606)
    for _ in range(100):
        while True:
            n = int(rng.integers(2, 11))
            H = int(rng.integers(2, 6))
            if n**H <= 100_000:
                break
        coords = rng.uniform(0.0, 1.0, size=(n, 2))
        metric = FiniteMetric(coords)
        cost_matrix = rng.uniform(0.0, 2.0, size=(H, n))
        x0 = int(rng.integers(0, n))
        seq_dp, cost_dp = offline_optimal_matrix(cost_matrix, metric.dist, x0)
        seq_bf, cost_bf = brute_force_optimal(cost_matrix, metric.dist, x0)
        assert cost_dp == pytest.approx(cost_bf, abs=1e-10)
        if seq_dp != seq_bf:  # allowed only on exact cost ties
            total = cost_matrix[0, seq_dp[0]] + metric.dist[x0, seq_dp[0]]
            for h in range(1, H):
                total += cost_matrix[h, seq_dp[h]] + metric.dist[seq_dp[h - 1], seq_dp[h]]
            assert total == pytest.approx(cost_bf, abs=1e-10)
    _report(6, "offline DP equals brute-force enumeration", started, "100 instances")


# ---------------------------------------------------------------------------


def test_c07_known_f_consistency():
    started = time.time()
    metric = grid_metric(4, 4)
    inst = synth_instance(707, metric=metric, n_contexts=8)
    tree = frt_embed(metric, tau=5.0, rng_seed=7)
    rho = 0.5

    # zero-width confidence: noiseless interpolation of the full table with
    # the exploration width switched off
    gp = GpModel(
        rbf_table(metric.coords, inst.lengthscale, inst.scale**2),
        rbf_table(inst.contexts, inst.lengthscale),
        lam=1e-12,
        beta_mode="constant",
        beta_value=0.0,
    )
    actions, contexts = np.meshgrid(np.arange(metric.n), np.arange(inst.n_contexts))
    gp = gp.update(actions.ravel(), contexts.ravel(), inst.f_table.T.ravel())
    gp_side = MirrorDescentPolicy(
        tree,
        GpServiceModel(gp, update_mode="per-episode"),
        rho=rho,
        rng=np.random.default_rng(1),
    )
    known_side = MirrorDescentPolicy(
        tree,
        ExactCostModel(inst.f_table),
        rho=rho,
        rng=np.random.default_rng(1),
    )
    gp_side.begin_episode(3)
    known_side.begin_episode(3)
    ctx_rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        c = int(ctx_rng.integers(0, inst.n_contexts))
        gp_side.act(c)
        known_side.act(c)
        gap = gp_side.z_prev[tree.leaf_vertex] - known_side.z_prev[tree.leaf_vertex]
        worst = max(worst, float(np.abs(gap).max()))
    assert worst <= 1e-6
    _report(7, "controller with exact model reproduces the known-cost baseline", started,
            f"worst per-step distribution gap {worst:.1e}")


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_sweep():
    started = time.time()
    cfg = RunConfig(
        kind="synthetic",
        policies=["gp-md", "cgp-lcb", "md-known"],
        seeds=list(range(10)),
        rhos=[0.5],
        steps=300,
        grid=[20, 20],
        n_contexts=40,
        update_mode="per-step",
        beta_value=2.0,
    )
    totals = {name: [] for name in cfg.policies}
    movements = {name: [] for name in cfg.policies}
    for seed in cfg.seeds:
        env = build_synthetic_env(cfg, seed)
        for name in cfg.policies:
            _, summary = run_cell(cfg, env, name, 0.5, seed, None)
            totals[name].append(summary["cost_total"])
            movements[name].append(summary["movement_total"])
    return totals, movements, time.time() - started


def test_c08_synthetic_cost_ordering(synthetic_sweep):
    started = time.time()
    totals, movements, sweep_elapsed = synthetic_sweep
    mean_total = {k: float(np.mean(v)) for k, v in totals.items()}
    mean_move = {k: float(np.mean(v)) for k, v in movements.items()}
    assert mean_total["gp-md"] < mean_total["cgp-lcb"]
    assert mean_move["gp-md"] < mean_move["cgp-lcb"]
    assert mean_total["md-known"] <= mean_total["gp-md"]
    assert sweep_elapsed < 900.0
    _report(8, "synthetic sweep cost ordering", started,
            f"sweep {sweep_elapsed:.0f}s; total "
            + ", ".join(f"{k}={v:.1f}" for k, v in mean_total.items())
            + "; movement " + ", ".join(f"{k}={v:.1f}" for k, v in mean_move.items()))


# ---------------------------------------------------------------------------


def _episodic_regret_series(seed: int, n_ep: int = 50, horizon: int = 10):
    """Fixed episodic protocol: every episode resets to the same start and
    replays one context sequence, so the average-regret series isolates the
    learning trend."""
    metric = grid_metric(4, 4)
    inst = synth_instance(
        int(rng_stream(seed, "instance").integers(2**31)), metric=metric, n_contexts=8
    )
    tree = frt_embed(metric, tau=5.0, rng_seed=int(rng_stream(seed, "frt").integers(2**31)))
    ctx_seq = rng_stream(seed, "contexts").integers(0, 8, size=horizon)
    noise = rng_stream(seed, "noise").normal(0.0, inst.noise_sigma, size=(n_ep, horizon))

    ka = rbf_table(metric.coords, inst.lengthscale, inst.scale**2)
    kc = rbf_table(inst.contexts, inst.lengthscale)
    env = Env(
        tree=tree,
        dist=metric.dist,
        f=inst.f_table,
        contexts=np.tile(ctx_seq, (n_ep, 1)),
        x0=np.full(n_ep, 5),
        start=None,
        labels=[repr(float(c)) for c in inst.contexts],
        context_ids=None,
        make_gp=lambda: GpModel(
            ka,
            kc,
            lam=max(inst.noise_sigma**2, 1e-8),
            beta_mode="constant",
            beta_value=2.0,
        ),
        obs=inst.f_table,
        noise=noise,
    )
    cfg = RunConfig(
        policies=["gp-md"], steps=horizon, episodes=n_ep, update_mode="per-episode", regret_beta=10.0
    )
    _, summary = run_cell(cfg, env, "gp-md", 1.0, seed, None)
    return np.asarray(summary["regret"]["average_series"])


def test_c09_regret_trend_sublinear():
    # Non-increase is asserted as a trend over the smoothed 30-episode tail:
    # net decrease, non-positive fitted slope, and any local uptick at most
    # a tenth of the window's decline (pointwise-strict monotonicity of a
    # stochastic running average would fail on sampling noise alone).
    started = time.time()
    holds = 0
    for seed in range(10):
        series = _episodic_regret_series(seed)
        smoothed = np.convolve(series, np.ones(5) / 5.0, mode="valid")
        tail = smoothed[-30:]
        net = tail[-1] - tail[0]
        slope = np.polyfit(np.arange(tail.size), tail, 1)[0]
        max_uptick = float(np.maximum(np.diff(tail), 0.0).max())
        if net <= 0.0 and slope <= 0.0 and max_uptick <= 0.1 * max(-net, 1e-12):
            holds += 1
    assert holds >= 8, f"trend held in only {holds}/10 seeds"
    _report(9, "average regret per episode trends down", started, f"{holds}/10 seeds")


# ---------------------------------------------------------------------------


def test_c10_wind_energy_ordering():
    started = time.time()
    base = dict(
        kind="wind",
        policies=["gp-md", "cgp-lcb", "stationary"],
        steps=960,
        wind_hours=960,
        update_mode="per-step",
        beta_value=2.0,
        energy={"v_rated": 12.0},
    )
    wins_vs_cgp = {1.0: 0, 2.0: 0}
    wins_vs_stat = {1.0: 0, 2.0: 0}
    start = 12
    for seed in range(10):
        cfg = RunConfig.from_dict(dict(base, seeds=[seed], rhos=[1.0]))
        env = build_wind_env(cfg, seed)
        for rho in (1.0, 2.0):
            energies = {}
            for name in ("gp-md", "cgp-lcb", "stationary"):
                _, summary = run_cell(cfg, env, name, rho, seed, start)
                energies[name] = summary["energy"]["total_energy"]
            wins_vs_cgp[rho] += energies["gp-md"] >= energies["cgp-lcb"]
            wins_vs_stat[rho] += energies["gp-md"] >= energies["stationary"]
    for rho in (1.0, 2.0):
        assert wins_vs_cgp[rho] >= 8, f"rho={rho}: beat cgp-lcb in {wins_vs_cgp[rho]}/10"
        assert wins_vs_stat[rho] >= 8, f"rho={rho}: beat stationary in {wins_vs_stat[rho]}/10"
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report(10, "wind-energy ordering", started,
            f"vs cgp-lcb {wins_vs_cgp}, vs stationary {wins_vs_stat}")


# ---------------------------------------------------------------------------


def test_c11_coupling_sampling_marginals():
    started = time.time()
    rng = np.random.default_rng(1111)
    tree = random_hst(rng, 8)
    engine = MdEngine(tree, PotentialParams(tree))
    q0 = engine.delta_inverse(point_mass_state(tree, 0))
    costs1 = rng.uniform(0.0, 2.0, 8)
    costs2 = rng.uniform(0.0, 2.0, 8)
    q1, _ = engine.step(q0, costs1)
    q2, _ = engine.step(q1, costs2)
    z_prev, z_next = engine.delta_map(q1), engine.delta_map(q2)
    p_prev, p_next = z_prev[tree.leaf_vertex], z_next[tree.leaf_vertex]

    draws = 100_000
    sampler = np.random.default_rng(1212)
    prevs = sampler.choice(8, size=draws, p=p_prev)
    counts = np.zeros(8)
    for prev in prevs:
        counts[sample_next(tree, z_prev, z_next, int(prev), sampler)] += 1
    freqs = counts / draws
    for j in range(8):
        p = p_next[j]
        band = 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / draws)
        assert abs(freqs[j] - p) <= band + 1e-12, (
            f"leaf {j}: freq {freqs[j]:.5f} vs target {p:.5f}, band {band:.5f}"
        )
    _report(11, "coupling sampler reproduces the target marginal", started,
            f"{draws} draws within 3-sigma bands")


# ---------------------------------------------------------------------------


def test_c12_energy_formula_spot_checks():
    started = time.time()
    params = EnergyParams(v_rated=10.0)
    # bitwise equality with the literal arithmetic, plus the decimal values
    assert float(energy_service(params, 5.0)) == (0.0579 * 5.0**3 - 0.09 * 5.0**2) * 60.0
    assert float(energy_service(params, 15.0)) == (0.0579 * 10.0**3 - 0.09 * 15.0**2) * 60.0
    move = altitude_metric(params, [100.0, 200.0]).dist[1, 0]
    assert move == 0.15 * 10.0**2 * 100.0
    assert float(energy_service(params, 5.0)) == pytest.approx(299.25, abs=1e-12)
    assert float(energy_service(params, 15.0)) == pytest.approx(2259.0, abs=1e-12)
    assert move == pytest.approx(1500.0, abs=1e-12)
    # the induced service objective at the slower of two altitudes
    assert (
        float(energy_service(params, 15.0)) - float(energy_service(params, 5.0))
    ) == pytest.approx(1959.75, abs=1e-12)
    _report(12, "energy formulas reproduce the worked values", started)
