"""Seeded experiment engine: cells, artifacts, and aggregation.

A run is a grid of independent cells (policy, seed, rho, start). Every cell
with the same seed consumes identical context and observation-noise
sequences, so policies are compared on the same realized environment. Each
cell emits a per-step CSV and a summary JSON; a manifest records the config
hash and seeds for exact replay.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .bench import (
    EpisodeLog,
    log_alpha,
    offline_optimal_matrix,
    regret,
    synth_instance,
)
from .gp import GpModel, RbfKernel
from .hst import frt_embed
from .metric import grid_metric
from .mirror import MdEngine, PotentialParams, point_mass_state
from .policies import (
    POLICY_NAMES,
    ExactCostModel,
    GpServiceModel,
    StepOutcome,
    WindServiceModel,
    make_policy,
)
from .wind import (
    EnergyParams,
    altitude_metric,
    ingest_wind_csv,
    make_wind_gp,
    service_matrix,
    synthetic_wind_table,
    trajectory_energy,
)

WORKERS_ENV = "GPMD_WORKERS"

_STREAMS = {
    "contexts": 0,
    "noise": 1,
    "frt": 2,
    "sampling": 3,
    "start": 4,
    "instance": 5,
    "wind": 6,
}


def rng_stream(seed: int, name: str) -> np.random.Generator:
    """A named, reproducible generator derived from the run seed."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), _STREAMS[name])))


@dataclass
class RunConfig:
    kind: str = "synthetic"
    policies: list = field(default_factory=lambda: ["gp-md", "cgp-lcb", "stationary"])
    seeds: list = field(default_factory=lambda: [0])
    rhos: list = field(default_factory=lambda: [1.0])
    steps: int = 100
    episodes: int = 1
    tau: float = 5.0
    kappa: float = 1.0
    beta_value: float = 2.0
    beta_mode: str = "constant"
    update_mode: str = "per-step"
    out_dir: str = "runs/out"
    grid: list = field(default_factory=lambda: [20, 20])
    n_contexts: int = 40
    lengthscale: float = 0.2
    regret_alpha: float | None = None
    regret_beta: float = 0.0
    dataset: str | None = None
    wind_hours: int = 960
    wind_obs_noise: float = 0.0
    starts: list | None = None
    energy: dict = field(default_factory=dict)
    wind_gp: dict = field(default_factory=dict)

    def validate(self) -> list[str]:
        errors = []
        if self.kind not in ("synthetic", "wind", "mts-demo"):
            errors.append(f"kind: unknown experiment kind {self.kind!r}")
        if not self.seeds:
            errors.append("seeds: at least one seed is required")
        if self.steps < 1:
            errors.append("steps: horizon must be at least 1")
        if self.episodes < 1:
            errors.append("episodes: must be at least 1")
        elif self.kind == "wind" and self.episodes != 1:
            errors.append("episodes: wind runs have one episode")
        if self.starts and self.kind != "wind":
            errors.append("starts: only wind runs take a start")
        if any(r <= 0 for r in self.rhos):
            errors.append("rhos: every rho must be positive")
        if self.tau <= 1:
            errors.append("tau: must exceed 1")
        if self.kappa < 1:
            errors.append("kappa: must be at least 1")
        if self.update_mode not in ("per-step", "per-episode"):
            errors.append(f"update_mode: unknown mode {self.update_mode!r}")
        if self.beta_mode not in ("constant", "theory"):
            errors.append(f"beta_mode: unknown mode {self.beta_mode!r}")
        for p in self.policies:
            if p not in POLICY_NAMES:
                errors.append(f"policies: unknown policy {p!r}")
        return errors

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply ``key=value`` overrides (dotted keys reach into dict fields)."""
    data = cfg.to_dict()
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        target = data
        for part in parts[:-1]:
            target = target.setdefault(part, {})
        target[parts[-1]] = value
    return RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Environments: everything a cell needs that is shared across policies.


@dataclass
class SyntheticEnv:
    instance: object
    tree: object
    contexts: np.ndarray  # (episodes, steps) context ids
    noise: np.ndarray  # (episodes, steps)
    x0: np.ndarray  # (episodes,)


def build_synthetic_env(cfg: RunConfig, seed: int) -> SyntheticEnv:
    metric = grid_metric(*cfg.grid)
    instance = synth_instance(
        int(rng_stream(seed, "instance").integers(2**31)),
        metric=metric,
        n_contexts=cfg.n_contexts,
        lengthscale=cfg.lengthscale,
    )
    tree = frt_embed(metric, tau=cfg.tau, rng_seed=int(rng_stream(seed, "frt").integers(2**31)))
    ctx = rng_stream(seed, "contexts").integers(0, cfg.n_contexts, size=(cfg.episodes, cfg.steps))
    noise = rng_stream(seed, "noise").normal(0.0, instance.noise_sigma, size=(cfg.episodes, cfg.steps))
    starts = rng_stream(seed, "start").integers(0, metric.n, size=cfg.episodes)
    return SyntheticEnv(instance=instance, tree=tree, contexts=ctx, noise=noise, x0=starts)


@dataclass
class WindEnv:
    table: object
    params: EnergyParams
    metric: object
    tree: object
    f_matrix: np.ndarray  # (n_altitudes, n_times)
    noise: np.ndarray  # (steps,) observation noise on windspeed


def build_wind_env(cfg: RunConfig, seed: int) -> WindEnv:
    params = EnergyParams.from_config(cfg.energy)
    if cfg.dataset:
        table = ingest_wind_csv(cfg.dataset)
    else:
        table = synthetic_wind_table(
            int(rng_stream(seed, "wind").integers(2**31)), hours=cfg.wind_hours
        )
    metric = altitude_metric(params, table.altitudes)
    tree = frt_embed(metric, tau=cfg.tau, rng_seed=int(rng_stream(seed, "frt").integers(2**31)))
    noise = rng_stream(seed, "noise").normal(0.0, cfg.wind_obs_noise, size=table.n_times)
    return WindEnv(
        table=table,
        params=params,
        metric=metric,
        tree=tree,
        f_matrix=service_matrix(params, table),
        noise=noise,
    )


# ---------------------------------------------------------------------------
# Cell execution.


def _synthetic_policy(cfg: RunConfig, env: SyntheticEnv, name: str, rho: float, seed: int):
    inst = env.instance
    metric = inst.metric

    def featurize(ctx_id):
        e = inst.contexts[int(ctx_id)]
        return np.column_stack([metric.coords, np.full(metric.n, e)])

    if name in ("gp-md", "cgp-lcb"):
        gp = GpModel(
            kernel=RbfKernel(lengthscale=inst.lengthscale, outputscale=inst.scale**2),
            lam=max(inst.noise_sigma**2, 1e-8),
            noise_sigma=inst.noise_sigma,
            beta_mode=cfg.beta_mode,
            beta_value=cfg.beta_value,
        )
        update_mode = cfg.update_mode if name == "gp-md" else "per-step"
        model = GpServiceModel(gp, featurize, n_actions=metric.n, update_mode=update_mode)
        return make_policy(
            name,
            tree=env.tree,
            cost_model=model,
            rho=rho,
            kappa=cfg.kappa,
            rng=rng_stream(seed, "sampling"),
        )
    true_model = ExactCostModel(lambda c: inst.f_table[:, int(c)], n_actions=metric.n)
    return make_policy(
        name,
        tree=env.tree,
        true_model=true_model,
        rho=rho,
        kappa=cfg.kappa,
        rng=rng_stream(seed, "sampling"),
        n_actions=metric.n,
    )


def run_synthetic_cell(cfg: RunConfig, env: SyntheticEnv, name: str, rho: float, seed: int):
    inst = env.instance
    metric = inst.metric
    f_eff = rho * inst.f_table
    policy = _synthetic_policy(cfg, env, name, rho, seed)
    logs = []
    opt_costs = []
    for m in range(cfg.episodes):
        x0 = int(env.x0[m])
        policy.begin_episode(x0)
        log = EpisodeLog(x0=x0)
        prev = x0
        for h in range(cfg.steps):
            ctx = int(env.contexts[m, h])
            action, diag = policy.act(ctx)
            outcome = StepOutcome(
                action=action,
                service_true=float(f_eff[action, ctx]),
                movement_true=float(metric.dist[prev, action]),
                y=float(inst.f_table[action, ctx] + env.noise[m, h]),
                diagnostics=diag,
            )
            policy.observe(action, ctx, outcome.y)
            log.append(
                inst.contexts[ctx], action, outcome.service_true, outcome.movement_true, outcome.y
            )
            prev = action
        policy.end_episode()
        logs.append(log)
        cost_matrix = f_eff[:, env.contexts[m]].T
        opt_costs.append(offline_optimal_matrix(cost_matrix, metric.dist, x0)[1])
    alpha = cfg.regret_alpha if cfg.regret_alpha is not None else log_alpha(metric.n)
    report = regret(logs, opt_costs, alpha=alpha, beta=cfg.regret_beta)
    return logs, report, {}


def _wind_policy(cfg: RunConfig, env: WindEnv, name: str, rho: float, seed: int):
    table = env.table
    hours = table.hours

    if name in ("gp-md", "cgp-lcb"):
        gp_kwargs = {
            k: cfg.wind_gp[k]
            for k in ("lengthscale", "outputscale", "lam")
            if k in cfg.wind_gp
        }
        model = WindServiceModel(
            gp=make_wind_gp(table.altitudes, beta_value=cfg.beta_value, **gp_kwargs),
            params=env.params,
            altitudes=table.altitudes,
            hour_of_context=lambda t: float(hours[int(t)]),
            update_mode=cfg.update_mode if name == "gp-md" else "per-step",
            beta=cfg.beta_value if cfg.beta_mode == "constant" else None,
        )
        return make_policy(
            name,
            tree=env.tree,
            cost_model=model,
            rho=rho,
            kappa=cfg.kappa,
            rng=rng_stream(seed, "sampling"),
        )
    true_model = ExactCostModel(
        lambda t: env.f_matrix[:, int(t)], n_actions=table.n_altitudes
    )
    return make_policy(
        name,
        tree=env.tree,
        true_model=true_model,
        rho=rho,
        kappa=cfg.kappa,
        rng=rng_stream(seed, "sampling"),
        n_actions=table.n_altitudes,
    )


def run_wind_cell(cfg: RunConfig, env: WindEnv, name: str, rho: float, seed: int, start: int):
    table = env.table
    steps = cfg.steps
    if steps > table.n_times:
        raise ValueError(f"wind cell asks for {steps} steps but the table has {table.n_times} rows")
    f_eff = rho * env.f_matrix
    policy = _wind_policy(cfg, env, name, rho, seed)
    policy.begin_episode(start)
    log = EpisodeLog(x0=start)
    prev = start
    for t in range(steps):
        action, diag = policy.act(t)
        outcome = StepOutcome(
            action=action,
            service_true=float(f_eff[action, t]),
            movement_true=float(env.metric.dist[prev, action]),
            # the wind learner observes measured windspeed, not the cost
            y=max(0.0, float(table.speeds[action, t] + env.noise[t])),
            diagnostics=diag,
        )
        policy.observe(action, t, outcome.y)
        log.append(
            table.timestamps[t].isoformat(),
            action,
            outcome.service_true,
            outcome.movement_true,
            outcome.y,
        )
        prev = action
    policy.end_episode()
    opt_cost = offline_optimal_matrix(f_eff[:, :steps].T, env.metric.dist, start)[1]
    alpha = cfg.regret_alpha if cfg.regret_alpha is not None else log_alpha(table.n_altitudes)
    report = regret([log], [opt_cost], alpha=alpha, beta=cfg.regret_beta)
    energy = trajectory_energy(env.params, table, log.actions, range(steps), start)
    return [log], report, energy


# ---------------------------------------------------------------------------
# Artifacts.


def cell_name(policy: str, seed: int, rho: float, start) -> str:
    start_part = "auto" if start is None else str(start)
    return f"{policy}_seed{seed}_rho{rho:g}_start{start_part}"


def write_steps_csv(path: Path, logs: list[EpisodeLog]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "episode", "context", "action", "service", "movement", "cum_total"])
        for m, log in enumerate(logs):
            cum = 0.0
            for h in range(len(log.actions)):
                cum += log.service[h] + log.movement[h]
                writer.writerow(
                    [
                        h + 1,
                        m + 1,
                        log.contexts[h] if isinstance(log.contexts[h], str) else repr(float(log.contexts[h])),
                        log.actions[h],
                        repr(log.service[h]),
                        repr(log.movement[h]),
                        repr(cum),
                    ]
                )


def summarize_cell(kind, policy, seed, rho, start, logs, report, energy) -> dict:
    summary = {
        "kind": kind,
        "policy": policy,
        "seed": seed,
        "rho": rho,
        "start": start,
        "episodes": len(logs),
        "steps_per_episode": len(logs[0].actions) if logs else 0,
        "service_total": sum(l.service_total for l in logs),
        "movement_total": sum(l.movement_total for l in logs),
        "cost_total": sum(l.cost_total for l in logs),
        "episode_costs": [l.cost_total for l in logs],
        "offline_optimal_costs": report.optimal_costs.tolist(),
        "offline_optimal_total": float(report.optimal_costs.sum()),
        "regret": {
            "alpha": report.alpha,
            "beta": report.beta,
            "per_episode": report.per_episode.tolist(),
            "total": report.total,
            "average_series": report.average_series().tolist(),
        },
    }
    if energy:
        summary["energy"] = energy
    return summary


def _execute_cell(args):
    cfg_data, seed, policy, rho, start = args
    cfg = RunConfig.from_dict(cfg_data)
    try:
        if cfg.kind == "synthetic":
            env = build_synthetic_env(cfg, seed)
            logs, report, energy = run_synthetic_cell(cfg, env, policy, rho, seed)
            start_used = None
        else:
            env = build_wind_env(cfg, seed)
            start_used = start if start is not None else env.table.n_altitudes // 2
            logs, report, energy = run_wind_cell(cfg, env, policy, rho, seed, start_used)
        name = cell_name(policy, seed, rho, start)
        out = Path(cfg.out_dir)
        write_steps_csv(out / f"{name}.steps.csv", logs)
        summary = summarize_cell(cfg.kind, policy, seed, rho, start_used, logs, report, energy)
        with open(out / f"{name}.summary.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        return name, None
    except Exception:
        name = cell_name(policy, seed, rho, start)
        err = traceback.format_exc()
        try:
            with open(Path(cfg.out_dir) / f"{name}.failed.json", "w") as fh:
                json.dump({"cell": name, "error": err}, fh, indent=1)
        except OSError:
            pass
        return name, err


def run(cfg: RunConfig) -> int:
    """Execute every cell of the config grid. Exit codes: 0 ok, 1 config
    error, 2 at least one cell failed."""
    errors = cfg.validate()
    if errors:
        for e in errors:
            print(f"config error: {e}")
        return 1
    if cfg.kind == "mts-demo":
        print(mts_demo())
        return 0
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    starts = cfg.starts if cfg.starts else [None]
    cells = [
        (cfg.to_dict(), seed, policy, rho, start)
        for seed in cfg.seeds
        for rho in cfg.rhos
        for start in starts
        for policy in cfg.policies
    ]
    workers = int(os.environ.get(WORKERS_ENV, "1"))
    results = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute_cell, cells))
    else:
        results = [_execute_cell(c) for c in cells]
    manifest = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "cells": [name for name, _ in results],
        "failed": [name for name, err in results if err],
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    failed = [name for name, err in results if err]
    for name in failed:
        print(f"cell failed: {name}")
    return 2 if failed else 0


def report(run_dir, out_path=None) -> list[dict]:
    """Aggregate summaries: mean and std per (policy, rho) across seeds/starts."""
    run_dir = Path(run_dir)
    summaries = []
    for path in sorted(run_dir.glob("*.summary.json")):
        with open(path) as fh:
            summaries.append(json.load(fh))
    failed = sorted(p.name for p in run_dir.glob("*.failed.json"))
    for name in failed:
        print(f"missing cell (failed): {name}")
    groups: dict = {}
    for s in summaries:
        groups.setdefault((s["policy"], s["rho"]), []).append(s)
    rows = []
    for (policy, rho), cells in sorted(groups.items()):
        def stats(key, sub=None):
            vals = [c[key] if sub is None else c.get(key, {}).get(sub, np.nan) for c in cells]
            vals = np.asarray(vals, dtype=float)
            return float(np.mean(vals)), float(np.std(vals))
        row = {"policy": policy, "rho": rho, "cells": len(cells)}
        for key in ("cost_total", "service_total", "movement_total"):
            mean, std = stats(key)
            row[f"{key}_mean"], row[f"{key}_std"] = mean, std
        if any("energy" in c for c in cells):
            mean, std = stats("energy", "total_energy")
            row["total_energy_mean"], row["total_energy_std"] = mean, std
        rows.append(row)
    if out_path is not None and rows:
        keys = sorted({k for r in rows for k in r}, key=lambda k: (k != "policy", k != "rho", k))
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for r in rows:
                writer.writerow(r)
    return rows


def mts_demo(costs_seed: int = 7) -> str:
    """Run the leaves-to-root recursion on a depth-3 binary tree and render
    the per-vertex trace."""
    from .metric import FiniteMetric
    from .hst import HstTree

    n = 8
    # Complete binary tree: 8 leaves, weights 1 at leaf level, 2 above, 4 on top.
    parent = np.array([-1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6])
    weight = np.array([0.0, 4.0, 4.0, 2.0, 2.0, 2.0, 2.0] + [1.0] * 8)
    leaf_vertex = np.arange(7, 15)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                dist[i, j] = 2.0 if (i // 2 == j // 2) else (6.0 if i // 4 == j // 4 else 12.0)
    metric = FiniteMetric.from_matrix(dist, labels=[f"l{i+1}" for i in range(n)])
    tree = HstTree(parent=parent, weight=weight, leaf_vertex=leaf_vertex, tau=2.0, metric=metric)

    engine = MdEngine(tree, PotentialParams(tree))
    z0 = point_mass_state(tree, 0).z
    q = engine.delta_inverse(z0)
    rng = np.random.default_rng(costs_seed)
    costs = np.round(rng.uniform(0.0, 2.0, n), 3)

    lines = [
        "depth-3 binary tree, 8 leaves; leaf costs: " + ", ".join(f"{c:g}" for c in costs),
        f"processing order (children before parents): "
        + ", ".join(str(v) for v in tree.topological_internal()),
    ]
    trace: list = []
    q_new, vertex_costs = engine.step(q, costs, trace=trace)
    for rec in trace:
        lines.append(
            f"vertex {rec['vertex']:>2} children {rec['children']}: "
            f"q {np.round(rec['q_before'], 4).tolist()} -> {np.round(rec['q_after'], 4).tolist()}, "
            f"cost {rec['vertex_cost']:.4f}"
        )
    z = engine.delta_map(q_new)
    leaf_probs = z[tree.leaf_vertex]
    lines.append("leaf distribution: " + ", ".join(f"{p:.4f}" for p in leaf_probs))
    lines.append(f"root cost (expected leaf cost): {vertex_costs[tree.root]:.6f}")
    return "\n".join(lines)
