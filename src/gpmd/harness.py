"""Seeded experiment engine: cells, artifacts, and aggregation.

A run is a grid of cells (policy, seed, rho, start). The seed is the unit of
work: its environment is built once and every cell of the seed runs on it,
so policies are compared on the same realized contexts and observation
noise, and the offline optimum is solved once per rho (and start) rather
than once per policy. Each cell emits a per-step CSV and a summary JSON; a
manifest records the config hash and seeds for exact replay.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import traceback
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
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
from .hst import HstTree, frt_embed
from .metric import grid_metric
from .mirror import MdEngine, PotentialParams, point_mass_state
from .policies import POLICY_NAMES, ExactCostModel, GpServiceModel, lower_bound, make_policy
from .wind import (
    EnergyParams,
    altitude_metric,
    cost_bounds,
    ingest_wind_csv,
    make_wind_gp,
    service_matrix,
    synthetic_wind_table,
    trajectory_energy,
)

WORKERS_ENV = "GPMD_WORKERS"
WIND_GP_KEYS = ("lengthscale", "outputscale", "lam")
ENERGY_KEYS = tuple(f.name for f in fields(EnergyParams))

_STREAMS = {
    "contexts": 0,
    "noise": 1,
    "frt": 2,
    "sampling": 3,
    "start": 4,
    "instance": 5,
    "wind": 6,
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


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
        if self.kind not in ("synthetic", "wind"):
            errors.append(f"kind: unknown experiment kind {self.kind!r}")
        if not isinstance(self.seeds, list):
            errors.append("seeds: must be a list")
        elif not self.seeds or not all(_is_int(s) for s in self.seeds):
            errors.append("seeds: at least one seed is required, each an integer")
        if not isinstance(self.policies, list):
            errors.append("policies: must be a list")
        elif not self.policies:
            errors.append("policies: at least one policy is required")
        else:
            for p in self.policies:
                if p not in POLICY_NAMES:
                    errors.append(f"policies: unknown policy {p!r}")
        if not isinstance(self.rhos, list):
            errors.append("rhos: must be a list")
        elif not self.rhos or not all(_is_real(r) and r > 0 for r in self.rhos):
            errors.append("rhos: at least one rho is required, each positive")
        for name in ("steps", "episodes", "n_contexts", "wind_hours"):
            if not (_is_int(getattr(self, name)) and getattr(self, name) >= 1):
                errors.append(f"{name}: must be an integer of at least 1")
        for name, ok, message in (
            ("tau", lambda v: v > 1, "must exceed 1"),
            ("kappa", lambda v: v >= 1, "must be at least 1"),
            ("beta_value", lambda v: v >= 0, "must be non-negative"),
            ("lengthscale", lambda v: v > 0, "must be positive"),
            ("wind_obs_noise", lambda v: v >= 0, "must be non-negative"),
            ("regret_beta", lambda v: True, "must be a finite number"),
        ):
            if not (_is_real(getattr(self, name)) and ok(getattr(self, name))):
                errors.append(f"{name}: {message}")
        alpha = self.regret_alpha
        if alpha is not None and not (_is_real(alpha) and alpha > 0):
            errors.append("regret_alpha: must be positive, or null for (log n)^2")
        if not (
            isinstance(self.grid, (list, tuple)) and len(self.grid) == 2
            and all(_is_int(g) and g >= 1 for g in self.grid)
        ):
            errors.append("grid: must be two positive integers")
        if self.kind == "wind" and self.episodes != 1:
            errors.append("episodes: wind runs have one episode")
        if self.starts and self.kind != "wind":
            errors.append("starts: only wind runs take a start")
        elif self.starts is not None and not (
            isinstance(self.starts, list) and all(_is_int(s) and s >= 0 for s in self.starts)
        ):
            errors.append("starts: must be a list of non-negative integers")
        if self.kind == "wind" and self.beta_mode != "constant":
            errors.append("beta_mode: wind runs take a constant beta")
        if self.update_mode not in ("per-step", "per-episode"):
            errors.append(f"update_mode: unknown mode {self.update_mode!r}")
        if self.beta_mode not in ("constant", "theory"):
            errors.append(f"beta_mode: unknown mode {self.beta_mode!r}")
        for name, known in (("wind_gp", WIND_GP_KEYS), ("energy", ENERGY_KEYS)):
            table = getattr(self, name)
            if not isinstance(table, dict):
                errors.append(f"{name}: must be a mapping")
                continue
            for key, value in table.items():
                if key not in known:
                    errors.append(f"{name}: unknown key {key!r}")
                elif not (_is_real(value) and value > 0):
                    errors.append(f"{name}.{key}: must be positive")
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
            if not isinstance(target, dict):
                raise ValueError(f"override {pair!r}: {part} is not a mapping")
        target[parts[-1]] = value
    return RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Environments: everything the cells of one seed share, for either experiment.


@dataclass
class Env:
    """One seed's experiment, in the shape every cell runs on.

    ``f`` is the true service table, one row per action and one column per
    context key (the context id of a synthetic run, the time index of a
    wind run). Step h of episode m sees key ``contexts[m, h]`` and starts
    from ``x0[m]``. The learner observes ``obs[action, key] + noise[m, h]``,
    floored at ``obs_floor``: the service itself on synthetic runs, the
    windspeed on wind runs, whose GP bounds reach the cost through
    ``to_cost``.
    """

    tree: HstTree
    dist: np.ndarray
    f: np.ndarray  # (n_actions, n_keys)
    contexts: np.ndarray  # (episodes, steps) context keys
    x0: np.ndarray  # (episodes,) starts
    start: int | None  # the start a cell takes when it names none; None: x0
    labels: Sequence  # context label of each key, as steps.csv writes it
    featurize: Callable  # key -> one GP query row per action
    make_gp: Callable  # () -> GP prior
    obs: np.ndarray  # (n_actions, n_keys) what the learner measures, before noise
    noise: np.ndarray  # (episodes, steps)
    obs_floor: float = -math.inf
    to_cost: Callable = lower_bound  # (mean, std, beta) -> cost bounds
    energy: Callable | None = None  # episode logs -> energy report
    optima: dict = field(default_factory=dict, repr=False)

    def offline_optimum(self, rho: float, episode: int, x0: int) -> float:
        """Offline optimal cost of one episode at service weight ``rho``, solved once."""
        key = (rho, episode, x0)
        if key not in self.optima:
            f_eff = rho * self.f[:, self.contexts[episode]]
            self.optima[key] = offline_optimal_matrix(f_eff.T, self.dist, x0)[1]
        return self.optima[key]


def build_synthetic_env(cfg: RunConfig, seed: int) -> Env:
    metric = grid_metric(*cfg.grid)
    inst = synth_instance(
        int(rng_stream(seed, "instance").integers(2**31)),
        metric=metric,
        n_contexts=cfg.n_contexts,
        lengthscale=cfg.lengthscale,
    )
    tree = frt_embed(metric, tau=cfg.tau, rng_seed=int(rng_stream(seed, "frt").integers(2**31)))
    ctx = rng_stream(seed, "contexts").integers(0, cfg.n_contexts, size=(cfg.episodes, cfg.steps))
    noise = rng_stream(seed, "noise").normal(0.0, inst.noise_sigma, size=(cfg.episodes, cfg.steps))
    starts = rng_stream(seed, "start").integers(0, metric.n, size=cfg.episodes)

    def featurize(key):
        return np.column_stack([metric.coords, np.full(metric.n, inst.contexts[int(key)])])

    return Env(
        tree=tree,
        dist=metric.dist,
        f=inst.f_table,
        contexts=ctx,
        x0=starts,
        start=None,
        labels=inst.contexts,
        featurize=featurize,
        make_gp=partial(
            GpModel,
            kernel=RbfKernel(lengthscale=inst.lengthscale, outputscale=inst.scale**2),
            lam=max(inst.noise_sigma**2, 1e-8),
            noise_sigma=inst.noise_sigma,
            beta_mode=cfg.beta_mode,
            beta_value=cfg.beta_value,
        ),
        obs=inst.f_table,
        noise=noise,
    )


def build_wind_env(cfg: RunConfig, seed: int) -> Env:
    params = EnergyParams(**cfg.energy)
    if cfg.dataset:
        table = ingest_wind_csv(cfg.dataset)
    else:
        table = synthetic_wind_table(
            int(rng_stream(seed, "wind").integers(2**31)), hours=cfg.wind_hours
        )
    for s in cfg.starts or ():
        if s >= table.n_altitudes:
            raise ValueError(f"starts: {s} is beyond the table's {table.n_altitudes} altitudes")
    metric = altitude_metric(params, table.altitudes)
    tree = frt_embed(metric, tau=cfg.tau, rng_seed=int(rng_stream(seed, "frt").integers(2**31)))
    noise = rng_stream(seed, "noise").normal(0.0, cfg.wind_obs_noise, size=table.n_times)
    alts, hours = table.altitudes, table.hours
    start = table.n_altitudes // 2

    def featurize(key):
        return np.column_stack([alts, np.full(alts.shape[0], hours[int(key)])])

    def energy(logs):
        (log,) = logs
        return trajectory_energy(params, table, log.actions, range(len(log.actions)), log.x0)

    return Env(
        tree=tree,
        dist=metric.dist,
        f=service_matrix(params, table),
        # a wind run has one episode that walks the table's rows in order
        contexts=np.arange(min(cfg.steps, table.n_times))[None, :],
        x0=np.array([start]),
        start=start,
        labels=[ts.isoformat() for ts in table.timestamps],
        featurize=featurize,
        make_gp=partial(make_wind_gp, alts, beta_value=cfg.beta_value, **cfg.wind_gp),
        obs=table.speeds,
        noise=noise[None, :],
        obs_floor=0.0,
        to_cost=lambda mean, std, beta: cost_bounds(params, mean, std, beta)[0],
        energy=energy,
    )


# ---------------------------------------------------------------------------
# Cell execution.


class CellStepError(RuntimeError):
    """A cell failed inside a step; ``episode`` and ``step`` are 1-based as in steps.csv."""

    def __init__(self, episode: int, step: int):
        super().__init__(f"cell failed at episode {episode}, step {step}")
        self.episode = episode
        self.step = step


def _cell_policy(cfg: RunConfig, env: Env, name: str, rho: float, seed: int):
    """The named policy on the env: a GP service model for the learners,
    the true table for the known-f baselines."""
    n = env.f.shape[0]
    cost_model = true_model = None
    if name in ("gp-md", "cgp-lcb"):
        update_mode = cfg.update_mode if name == "gp-md" else "per-step"
        cost_model = GpServiceModel(
            env.make_gp(), env.featurize, n_actions=n, update_mode=update_mode, to_cost=env.to_cost
        )
    else:
        true_model = ExactCostModel(lambda key: env.f[:, key], n_actions=n)
    return make_policy(
        name,
        tree=env.tree,
        cost_model=cost_model,
        true_model=true_model,
        rho=rho,
        kappa=cfg.kappa,
        rng=rng_stream(seed, "sampling"),
        n_actions=n,
    )


def run_cell(cfg: RunConfig, env: Env, name: str, rho: float, seed: int, start):
    """Run one policy through every episode of the env and score it.

    ``start`` fixes every episode's start; None takes the env's ``x0``.
    Returns (episode logs, regret report, energy report).
    """
    n_keys = env.contexts.shape[1]
    if cfg.steps > n_keys:
        raise ValueError(f"cell asks for {cfg.steps} steps but the context table has {n_keys} rows")
    f_eff = rho * env.f
    starts = env.x0 if start is None else np.full(env.x0.shape, start)
    policy = _cell_policy(cfg, env, name, rho, seed)
    logs = []
    for m, x0 in enumerate(starts.tolist()):
        policy.begin_episode(x0)
        log = EpisodeLog(x0=x0)
        prev = x0
        for h in range(cfg.steps):
            try:
                key = int(env.contexts[m, h])
                action, _ = policy.act(key)
                y = max(env.obs_floor, float(env.obs[action, key] + env.noise[m, h]))
                policy.observe(action, key, y)
            except Exception as exc:
                raise CellStepError(m + 1, h + 1) from exc
            log.append(env.labels[key], action, float(f_eff[action, key]), float(env.dist[prev, action]))
            prev = action
        policy.end_episode()
        logs.append(log)
    optima = [env.offline_optimum(rho, m, log.x0) for m, log in enumerate(logs)]
    alpha = cfg.regret_alpha if cfg.regret_alpha is not None else log_alpha(env.f.shape[0])
    report = regret(logs, optima, alpha=alpha, beta=cfg.regret_beta)
    return logs, report, env.energy(logs) if env.energy else {}


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


def _write_failure(
    cfg: RunConfig, name: str, seed: int, phase: str, err: str, episode=None, step=None
) -> None:
    record = {"cell": name, "seed": seed, "phase": phase, "episode": episode, "step": step, "error": err}
    try:
        with open(Path(cfg.out_dir) / f"{name}.failed.json", "w") as fh:
            json.dump(record, fh, indent=1)
    except OSError:
        pass


def _execute_seed(args):
    """Build one seed's environment, then run and write each of its cells.

    Returns ``(cell name, traceback or None)`` per cell, in rho, start,
    policy order. A failure is confined to its phase: an env failure fails
    every cell of the seed, a cell or write failure only that cell.
    """
    cfg_data, seed = args
    cfg = RunConfig.from_dict(cfg_data)
    starts = cfg.starts if cfg.starts else [None]
    grid = [(rho, start, policy) for rho in cfg.rhos for start in starts for policy in cfg.policies]
    try:
        env = (build_synthetic_env if cfg.kind == "synthetic" else build_wind_env)(cfg, seed)
    except Exception:
        err = traceback.format_exc()
        results = []
        for rho, start, policy in grid:
            name = cell_name(policy, seed, rho, start)
            _write_failure(cfg, name, seed, "env", err)
            results.append((name, err))
        return results

    out = Path(cfg.out_dir)
    results = []
    for rho, start, policy in grid:
        name = cell_name(policy, seed, rho, start)
        start_used = start if start is not None else env.start
        phase = "cell"
        try:
            logs, report, energy = run_cell(cfg, env, policy, rho, seed, start_used)
            phase = "write"
            write_steps_csv(out / f"{name}.steps.csv", logs)
            summary = summarize_cell(cfg.kind, policy, seed, rho, start_used, logs, report, energy)
            with open(out / f"{name}.summary.json", "w") as fh:
                json.dump(summary, fh, indent=1, sort_keys=True)
            results.append((name, None))
        except Exception as exc:
            err = traceback.format_exc()
            if isinstance(exc, CellStepError):
                _write_failure(cfg, name, seed, phase, err, exc.episode, exc.step)
            else:
                _write_failure(cfg, name, seed, phase, err)
            results.append((name, err))
    return results


def run(cfg: RunConfig) -> int:
    """Execute every cell of the config grid, one task per seed. Exit codes:
    0 ok, 1 config error, 2 at least one cell failed."""
    errors = cfg.validate()
    raw_workers = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw_workers)
    except ValueError:
        errors.append(f"{WORKERS_ENV}: must be an integer, got {raw_workers!r}")
    if errors:
        for e in errors:
            print(f"config error: {e}")
        return 1
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(cfg.to_dict(), seed) for seed in cfg.seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_execute_seed, tasks))
    else:
        per_seed = [_execute_seed(t) for t in tasks]
    results = [cell for cells in per_seed for cell in cells]
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
    each internal vertex's conditionals before and after, and its cost, in
    the order the recursion solves them."""
    n = 8
    # Complete binary tree: 8 leaves, weights 1 at leaf level, 2 above, 4 on top.
    parent = np.array([-1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6])
    weight = np.array([0.0, 4.0, 4.0, 2.0, 2.0, 2.0, 2.0] + [1.0] * 8)
    tree = HstTree(parent=parent, weight=weight, leaf_vertex=np.arange(7, 15), tau=2.0)

    engine = MdEngine(tree, PotentialParams(tree))
    q = engine.delta_inverse(point_mass_state(tree, 0))
    rng = np.random.default_rng(costs_seed)
    costs = np.round(rng.uniform(0.0, 2.0, n), 3)

    bottom_up = np.concatenate(tree.depth_layers[::-1])
    order = bottom_up[tree.point_index[bottom_up] < 0].tolist()
    lines = [
        "depth-3 binary tree, 8 leaves; leaf costs: " + ", ".join(f"{c:g}" for c in costs),
        "processing order (children before parents): " + ", ".join(map(str, order)),
    ]
    q_new, vertex_costs = engine.step(q, costs)
    for v in order:
        kids = tree.children[v]
        lines.append(
            f"vertex {v:>2} children {kids.tolist()}: "
            f"q {np.round(q[kids], 4).tolist()} -> {np.round(q_new[kids], 4).tolist()}, "
            f"cost {vertex_costs[v]:.4f}"
        )
    z = engine.delta_map(q_new)
    leaf_probs = z[tree.leaf_vertex]
    lines.append("leaf distribution: " + ", ".join(f"{p:.4f}" for p in leaf_probs))
    lines.append(f"root cost (expected leaf cost): {vertex_costs[tree.root]:.6f}")
    return "\n".join(lines)
