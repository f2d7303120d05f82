"""Seeded experiment engine: cells, artifacts, and aggregation.

A run is a grid of cells (policy, seed, rho, start). The seed is the unit of
work: its environment is built once and every cell of the seed runs on it,
so policies are compared on the same realized contexts and observation
noise, and the offline optimum is solved once per (rho, episode, start)
rather than once per policy. A cell's step loop records only the chosen
actions; its per-step service and movement, and from them its totals,
regret and (on wind runs) energy, are read off the env's tables afterwards.
Each cell emits a per-step CSV and a summary JSON from that one record; a
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
from functools import cache, partial
from pathlib import Path

import numpy as np

from .bench import log_alpha, neighbour_table, offline_optimal_matrix, synth_instance
from .gp import GpModel, rbf_table
from .hst import HstTree, frt_embed
from .metric import grid_metric
from .mirror import MdEngine, PotentialParams, point_mass_state
from .policies import (
    POLICY_NAMES,
    ArgminPolicy,
    ExactCostModel,
    GpServiceModel,
    MirrorDescentPolicy,
    StationaryPolicy,
    lower_bound,
)
from .wind import (
    EnergyParams,
    altitude_metric,
    cost_bounds,
    energy_service,
    ingest_wind_csv,
    service_matrix,
    synthetic_wind_table,
    wind_tables,
)

WORKERS_ENV = "GPMD_WORKERS"
WIND_GP = {"lengthscale": 3.67, "outputscale": 6.85, "lam": 2.73}  # the windspeed GP's defaults
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


def _as_real(v, name: str):
    """``v`` with each plain int in it, or in its list or mapping, as a float.
    A ValueError names the field (``name.key`` in a mapping) of an int too
    large for a float."""
    if isinstance(v, list):
        return [_as_real(x, name) for x in v]
    if isinstance(v, dict):
        return {k: _as_real(x, f"{name}.{k}") for k, x in v.items()}
    if not _is_int(v):
        return v
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{name}: integer too large for a float") from None


# Real scalar fields, each with validate's range check and message, in its order.
# RunConfig stores a plain int here, in regret_alpha, rhos, energy and wind_gp as a float.
REAL_FIELDS = (
    ("tau", lambda v: v > 1, "must exceed 1"),
    ("kappa", lambda v: v >= 1, "must be at least 1"),
    ("beta_value", lambda v: v >= 0, "must be non-negative"),
    ("lengthscale", lambda v: v > 0, "must be positive"),
    ("wind_obs_noise", lambda v: v >= 0, "must be non-negative"),
    ("regret_beta", lambda v: True, "must be a finite number"),
)


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

    def __post_init__(self):
        # One config, one stored form and hash: 1 and 1.0 are the same rho.
        for name in [f for f, _, _ in REAL_FIELDS] + ["regret_alpha", "rhos", "energy", "wind_gp"]:
            setattr(self, name, _as_real(getattr(self, name), name))

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
        for name, ok, message in REAL_FIELDS:
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
        for name, known in (("wind_gp", tuple(WIND_GP)), ("energy", ENERGY_KEYS)):
            table = getattr(self, name)
            if not isinstance(table, dict):
                errors.append(f"{name}: must be a mapping")
                continue
            for key, value in table.items():
                if key not in known:
                    errors.append(f"{name}: unknown key {key!r}")
                elif not (_is_real(value) and value > 0):
                    errors.append(f"{name}.{key}: must be positive")
        if not (self.dataset is None or isinstance(self.dataset, str) and self.dataset):
            errors.append("dataset: must be null or a non-empty string")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            errors.append("out_dir: must be a non-empty string")
        return errors

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply ``key=value`` overrides (dotted keys reach into dict fields)."""
    data = asdict(cfg)
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
    ``to_cost``. On wind runs ``energy`` maps the windspeed to the energy
    generated. A GP learner reads key k as context id ``context_ids[k]``
    (None: k), and ``make_gp`` builds the kernel tables on its first call.
    The offline DP's neighbour table is built on the first DP of more than
    one step, so a sweep of one step per episode never builds it.
    """

    tree: HstTree
    dist: np.ndarray
    f: np.ndarray  # (n_actions, n_keys)
    contexts: np.ndarray  # (episodes, steps) context keys
    x0: np.ndarray  # (episodes,) starts
    start: int | None  # the start a cell takes when it names none; None: x0
    labels: Sequence  # context label of each key, as steps.csv writes it
    context_ids: np.ndarray | None  # key -> GP context id; None: the key itself
    make_gp: Callable  # () -> GP prior
    obs: np.ndarray  # (n_actions, n_keys) what the learner measures, before noise
    noise: np.ndarray  # (episodes, steps)
    obs_floor: float = -math.inf
    to_cost: Callable = lower_bound  # (mean, std, beta) -> lower cost bound
    energy: Callable | None = None  # observed quantity -> energy generated
    optima: dict = field(default_factory=dict, repr=False)
    neighbours: Callable = field(init=False, repr=False)  # () -> neighbour_table(dist)

    def __post_init__(self):
        self.neighbours = cache(partial(neighbour_table, self.dist))

    def offline_optimum(self, rho: float, episode: int, x0: int) -> float:
        """Offline optimal cost of one episode at service weight ``rho``, solved once."""
        key = (rho, episode, x0)
        if key not in self.optima:
            f_eff = rho * self.f[:, self.contexts[episode]]
            self.optima[key] = offline_optimal_matrix(f_eff.T, self.dist, x0, self.neighbours)[1]
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

    ls = inst.lengthscale
    tables = cache(lambda: (rbf_table(metric.coords, ls, inst.scale**2), rbf_table(inst.contexts, ls)))

    return Env(
        tree=tree,
        dist=metric.dist,
        f=inst.f_table,
        contexts=ctx,
        x0=starts,
        start=None,
        labels=[repr(float(c)) for c in inst.contexts],
        context_ids=None,
        make_gp=lambda: GpModel(
            *tables(),
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
    start = table.n_altitudes // 2
    gp = {**WIND_GP, **cfg.wind_gp}
    tables = cache(partial(wind_tables, table.altitudes, gp["lengthscale"], gp["outputscale"]))

    return Env(
        tree=tree,
        dist=metric.dist,
        f=service_matrix(params, table),
        # a wind run has one episode that walks the table's rows in order
        contexts=np.arange(min(cfg.steps, table.n_times))[None, :],
        x0=np.array([start]),
        start=start,
        labels=[ts.isoformat() for ts in table.timestamps],
        context_ids=table.hours,
        make_gp=lambda: GpModel(*tables(), lam=gp["lam"], beta_value=cfg.beta_value),
        obs=table.speeds,
        noise=noise[None, :],
        obs_floor=0.0,
        to_cost=partial(cost_bounds, params),
        energy=partial(energy_service, params),
    )


# ---------------------------------------------------------------------------
# Cell execution.


class CellEpisodeError(RuntimeError):
    """A cell failed inside an episode; ``episode`` and ``step`` are 1-based as
    in steps.csv, and ``step`` is None at the episode's start or end."""

    def __init__(self, episode: int, step: int | None):
        at = "" if step is None else f", step {step}"
        super().__init__(f"cell failed at episode {episode}{at}")
        self.episode = episode
        self.step = step


def _cell_policy(cfg: RunConfig, env: Env, name: str, rho: float, seed: int):
    """The named policy on the env: the learners read a GP service model of
    their own (only gp-md takes ``cfg.update_mode``; cgp-lcb learns every
    step), the others the true table."""
    if name in ("gp-md", "cgp-lcb"):
        update_mode = cfg.update_mode if name == "gp-md" else "per-step"
        model = GpServiceModel(
            env.make_gp(), env.context_ids, update_mode=update_mode, to_cost=env.to_cost
        )
    else:
        model = ExactCostModel(env.f)
    if name in ("gp-md", "md-known"):
        return MirrorDescentPolicy(
            env.tree, model, rho=rho, kappa=cfg.kappa, rng=rng_stream(seed, "sampling")
        )
    if name in ("cgp-lcb", "minc-known"):
        return ArgminPolicy(model)
    return StationaryPolicy(model)


def _total(values) -> float:
    """The left-to-right sum of ``values``, the same on every Python version."""
    return float(np.cumsum(values)[-1])


def run_cell(cfg: RunConfig, env: Env, name: str, rho: float, seed: int, start):
    """Run one policy through every episode of the env and score it.

    ``start`` fixes every episode's start; None takes the env's ``x0``.
    Returns ``(steps, summary)``. ``steps`` holds each step's context
    ``key``, ``action``, ``service`` and ``movement`` cost as (episodes,
    steps) arrays, which steps.csv is written from. ``summary`` is the
    cell's record, built from those arrays: the service, movement and cost
    totals, each episode's cost, the regret against the offline optimum
    and, on wind runs, the energy generated. The service, movement, cost,
    offline optimal and energy totals are left-to-right sums.
    """
    n_keys = env.contexts.shape[1]
    if cfg.steps > n_keys:
        raise ValueError(f"cell asks for {cfg.steps} steps but the context table has {n_keys} rows")
    keys = env.contexts[:, : cfg.steps]
    starts = env.x0 if start is None else np.full(env.x0.shape, start)
    policy = _cell_policy(cfg, env, name, rho, seed)
    actions = np.empty(keys.shape, dtype=np.int64)
    for m, x0 in enumerate(starts.tolist()):
        step = None
        try:
            policy.begin_episode(x0)
            for step, key in enumerate(keys[m].tolist(), 1):
                action = policy.act(key)
                y = max(env.obs_floor, float(env.obs[action, key] + env.noise[m, step - 1]))
                policy.observe(action, key, y)
                actions[m, step - 1] = action
            step = None
            policy.end_episode()
        except Exception as exc:
            raise CellEpisodeError(m + 1, step) from exc

    prev = np.column_stack([starts, actions[:, :-1]])
    steps = {
        "key": keys,
        "action": actions,
        "service": rho * env.f[actions, keys],
        "movement": env.dist[prev, actions],
    }
    ep_service = np.cumsum(steps["service"], axis=1)[:, -1]
    ep_movement = np.cumsum(steps["movement"], axis=1)[:, -1]
    costs = ep_service + ep_movement
    optima = np.array([env.offline_optimum(rho, m, x0) for m, x0 in enumerate(starts.tolist())])
    alpha = cfg.regret_alpha if cfg.regret_alpha is not None else log_alpha(env.f.shape[0])
    regret = costs - alpha * optima - cfg.regret_beta
    cumulative = np.cumsum(regret)
    summary = {
        "kind": cfg.kind,
        "policy": name,
        "seed": seed,
        "rho": rho,
        "start": start,
        "episodes": actions.shape[0],
        "steps_per_episode": actions.shape[1],
        "service_total": _total(ep_service),
        "movement_total": _total(ep_movement),
        "cost_total": _total(costs),
        "episode_costs": costs.tolist(),
        "offline_optimal_costs": optima.tolist(),
        "offline_optimal_total": _total(optima),
        "regret": {
            "alpha": alpha,
            "beta": cfg.regret_beta,
            "per_episode": regret.tolist(),
            "total": float(cumulative[-1]),
            "average_series": (cumulative / np.arange(1, cumulative.size + 1)).tolist(),
        },
    }
    if env.energy is not None:
        generated = _total(env.energy(env.obs[actions, keys]))
        moved = summary["movement_total"]
        summary["energy"] = {
            "service_energy": generated,
            "movement_energy": moved,
            "total_energy": generated - moved,
        }
    return steps, summary


# ---------------------------------------------------------------------------
# Artifacts.


def cell_name(policy: str, seed: int, rho: float, start) -> str:
    start_part = "auto" if start is None else str(start)
    return f"{policy}_seed{seed}_rho{rho:g}_start{start_part}"


def write_steps_csv(path: Path, steps: dict, labels: Sequence) -> None:
    """One row per step of ``run_cell``'s arrays; ``labels`` names the context keys."""
    cum = np.cumsum(steps["service"] + steps["movement"], axis=1)
    columns = [steps[k].tolist() for k in ("key", "action", "service", "movement")] + [cum.tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "episode", "context", "action", "service", "movement", "cum_total"])
        for m, episode in enumerate(zip(*columns), 1):
            for h, (key, action, service, movement, total) in enumerate(zip(*episode), 1):
                writer.writerow([h, m, labels[key], action, service, movement, total])


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
    cfg, seed = args
    starts = cfg.starts if cfg.starts else [None]
    grid = [(rho, start, policy) for rho in cfg.rhos for start in starts for policy in cfg.policies]
    try:
        env = (build_synthetic_env if cfg.kind == "synthetic" else build_wind_env)(cfg, seed)
    except Exception:
        err = traceback.format_exc()
        names = [cell_name(policy, seed, rho, start) for rho, start, policy in grid]
        for name in names:
            _write_failure(cfg, name, seed, "env", err)
        return [(name, err) for name in names]

    out = Path(cfg.out_dir)
    results = []
    for rho, start, policy in grid:
        name = cell_name(policy, seed, rho, start)
        start_used = start if start is not None else env.start
        phase = "cell"
        try:
            steps, summary = run_cell(cfg, env, policy, rho, seed, start_used)
            phase = "write"
            # Strict JSON first: a non-finite value fails the cell before any file.
            text = json.dumps(summary, indent=1, sort_keys=True, allow_nan=False)
            write_steps_csv(out / f"{name}.steps.csv", steps, env.labels)
            (out / f"{name}.summary.json").write_text(text)
            results.append((name, None))
        except Exception as exc:
            err = traceback.format_exc()
            at = (exc.episode, exc.step) if isinstance(exc, CellEpisodeError) else ()
            _write_failure(cfg, name, seed, phase, err, *at)
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
    else:
        if workers < 1:
            errors.append(f"{WORKERS_ENV}: must be at least 1, got {raw_workers!r}")
    if errors:
        for e in errors:
            print(f"config error: {e}")
        return 1
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(cfg, seed) for seed in cfg.seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_execute_seed, tasks))
    else:
        per_seed = [_execute_seed(t) for t in tasks]
    results = [cell for cells in per_seed for cell in cells]
    manifest = {
        "config": asdict(cfg),
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
    if not run_dir.is_dir():
        raise NotADirectoryError(f"{run_dir}: not a run directory")
    summaries = [json.loads(path.read_text()) for path in sorted(run_dir.glob("*.summary.json"))]
    for name in sorted(p.name for p in run_dir.glob("*.failed.json")):
        print(f"missing cell (failed): {name}")
    if not summaries:
        raise FileNotFoundError(f"{run_dir}: no cell summaries")
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
            row[f"{key}_mean"], row[f"{key}_std"] = stats(key)
        if any("energy" in c for c in cells):
            row["total_energy_mean"], row["total_energy_std"] = stats("energy", "total_energy")
        rows.append(row)
    if out_path is not None:
        keys = sorted({k for r in rows for k in r}, key=lambda k: (k != "policy", k != "rho", k))
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows(rows)
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
