"""Output checks for one sweep.

Every check compares the program's artifacts against a computation made
apart from the program (grid distances, the wind energy model and DP in
``inputs.py``) or against a property the method must have. None compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import offline_optimum, timestamps, wind_movement, wind_service
from workloads import ENERGY, Workload, cell_names

STEP_HEADER = ["step", "episode", "context", "action", "service", "movement", "cum_total"]
REL_TOL = 1e-9


@dataclass
class WindInputs:
    """The table the benchmark wrote, as the benchmark knows it."""

    altitudes: np.ndarray
    speeds: np.ndarray  # (altitudes, hours)


@dataclass
class SweepCheck:
    errors: list = field(default_factory=list)
    cells: int = 0
    failed: int = 0
    lead_cost: float = 0.0
    lead_optimum: float = 0.0


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale))


def read_steps(path: Path) -> dict:
    """Columns of a steps CSV; numeric columns as float arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != STEP_HEADER:
        raise ValueError(f"{path.name}: unexpected header {rows[:1]}")
    cols = list(zip(*rows[1:])) if len(rows) > 1 else [()] * len(STEP_HEADER)
    out = {name: list(col) for name, col in zip(STEP_HEADER, cols)}
    for name in ("step", "episode", "action"):
        out[name] = np.array([int(v) for v in out[name]], dtype=np.int64)
    for name in ("service", "movement", "cum_total"):
        out[name] = np.array([float(v) for v in out[name]])
    return out


def grid_distances(grid: tuple) -> np.ndarray:
    """Euclidean distances on the unit-square grid, point i*side_y + j at (x_i, y_j)."""
    sx, sy = grid
    i, j = np.divmod(np.arange(sx * sy), sy)
    x, y = i / (sx - 1), j / (sy - 1)
    return np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])


def steps_digest(out_dir: Path) -> dict:
    """sha256 of every steps CSV in a sweep directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).glob("*.steps.csv"))
    }


def check_sweep(
    w: Workload,
    seed: int,
    out_dir,
    steps: int,
    rc: int,
    wind: WindInputs | None = None,
) -> SweepCheck:
    """Check one finished sweep of ``w``; ``steps`` is the requested horizon."""
    out_dir = Path(out_dir)
    res = SweepCheck(cells=w.cells)
    err = res.errors.append
    if rc != 0:
        err(f"gpmd run exited with {rc}")
    expected = cell_names(w, seed)
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        err(f"manifest unreadable: {exc}")
        manifest = {"cells": [], "failed": []}
    res.failed = len(manifest.get("failed", []))
    if sorted(manifest.get("cells", [])) != sorted(expected):
        err(f"manifest lists cells {manifest.get('cells')}, expected {expected}")

    tables = {}
    for policy, name in zip(w.policies, expected):
        if name in manifest.get("failed", []):
            continue
        try:
            summary = json.loads((out_dir / f"{name}.summary.json").read_text())
            table = read_steps(out_dir / f"{name}.steps.csv")
        except (OSError, ValueError) as exc:
            err(f"missing or unreadable cell {name}: {exc}")
            continue
        cell_errors = _check_cell(w, steps, summary, table, wind)
        res.errors += [f"{name}: {msg}" for msg in cell_errors]
        if len(table["step"]) == w.episodes * steps:
            tables[policy] = table
        if policy == w.lead:
            res.lead_cost += summary["cost_total"]
            res.lead_optimum += summary["offline_optimal_total"]

    if w.kind == "synthetic" and tables:
        res.errors += _check_grid_movement(w, steps, tables)
    if "md-known" in tables and "minc-known" in tables:
        res.errors += _check_minc_below_md(tables["md-known"], tables["minc-known"])
    return res


def _check_cell(w: Workload, steps: int, summary: dict, t: dict, wind) -> list[str]:
    errors = []
    n_rows = w.episodes * steps
    if summary.get("episodes") != w.episodes or summary.get("steps_per_episode") != steps:
        errors.append(
            f"summary reports {summary.get('episodes')} episodes x "
            f"{summary.get('steps_per_episode')} steps, requested {w.episodes} x {steps}"
        )
    if len(t["step"]) != n_rows:
        return errors + [f"steps.csv has {len(t['step'])} rows, expected {n_rows}"]
    if not (
        np.array_equal(t["episode"], np.repeat(np.arange(1, w.episodes + 1), steps))
        and np.array_equal(t["step"], np.tile(np.arange(1, steps + 1), w.episodes))
    ):
        errors.append("steps.csv rows are not episodes x steps in order")

    total = 0.0
    for m in range(w.episodes):
        rows = slice(m * steps, (m + 1) * steps)
        cum = np.cumsum(t["service"][rows] + t["movement"][rows])
        scale = float(np.abs(cum).max())
        bad = np.flatnonzero(np.abs(cum - t["cum_total"][rows]) > REL_TOL * max(1.0, scale))
        if bad.size:
            errors.append(f"episode {m + 1} step {bad[0] + 1}: cum_total is not the running sum")
        total += float(cum[-1])
    if not _close(summary["cost_total"], total, total):
        errors.append(f"summary cost_total {summary['cost_total']!r} != steps.csv total {total!r}")
    if summary["cost_total"] < summary["offline_optimal_total"] * (1 - REL_TOL) - REL_TOL:
        errors.append(
            f"cost_total {summary['cost_total']!r} is below the offline optimum "
            f"{summary['offline_optimal_total']!r}"
        )
    if wind is not None:
        errors += _check_wind(w, steps, summary, t, wind)
    return errors


def _check_wind(w: Workload, steps: int, summary: dict, t: dict, wind: WindInputs) -> list[str]:
    errors = []
    service = wind_service(wind.speeds[:, :steps], ENERGY)
    movement = wind_movement(wind.altitudes, ENERGY)
    actions = t["action"]
    if actions.min() < 0 or actions.max() >= wind.altitudes.size:
        return [f"action index outside the {wind.altitudes.size} altitudes"]
    if t["context"] != timestamps(steps):
        errors.append("contexts are not the table's timestamps in order")
    scale = float(np.abs(service).max())
    want = service[actions, np.arange(steps)]
    bad = np.flatnonzero(np.abs(t["service"] - want) > REL_TOL * max(1.0, scale))
    if bad.size:
        errors.append(f"step {bad[0] + 1}: service {t['service'][bad[0]]!r} != {want[bad[0]]!r}")
    prev = np.concatenate([[w.start], actions[:-1]])
    want = movement[prev, actions]
    bad = np.flatnonzero(np.abs(t["movement"] - want) > REL_TOL * max(1.0, float(movement.max())))
    if bad.size:
        errors.append(f"step {bad[0] + 1}: movement {t['movement'][bad[0]]!r} != {want[bad[0]]!r}")
    opt = offline_optimum(service, movement, w.start)
    if not _close(summary["offline_optimal_total"], opt, opt):
        errors.append(f"offline_optimal_total {summary['offline_optimal_total']!r} != {opt!r}")
    return errors


def _check_grid_movement(w: Workload, steps: int, tables: dict) -> list[str]:
    """Movement is the grid distance between consecutive actions.

    The start of an episode is not in the artifacts, so the first step of
    each episode is checked by requiring one grid point that every policy's
    first movement is consistent with (all cells of a seed share starts).
    """
    dist = grid_distances(w.grid)
    n = dist.shape[0]
    tol = REL_TOL * max(1.0, float(dist.max()))
    errors = []
    starts = [np.ones(n, dtype=bool) for _ in range(w.episodes)]
    for policy, t in tables.items():
        a = t["action"]
        if a.min() < 0 or a.max() >= n:
            errors.append(f"{policy}: action index outside the {n}-point grid")
            continue
        prev = np.concatenate([[0], a[:-1]])
        ok = np.abs(dist[prev, a] - t["movement"]) <= tol
        for m in range(w.episodes):
            first = m * steps
            ok[first] = True
            starts[m] &= np.abs(dist[:, a[first]] - t["movement"][first]) <= tol
        bad = np.flatnonzero(~ok)
        if bad.size:
            r = bad[0]
            errors.append(
                f"{policy}: row {r + 1} movement {t['movement'][r]!r} != grid distance {dist[prev[r], a[r]]!r}"
            )
    for m, cand in enumerate(starts):
        if not cand.any():
            errors.append(f"episode {m + 1}: no start point fits every policy's first movement")
    return errors


def _check_minc_below_md(md: dict, minc: dict) -> list[str]:
    """Per-step argmin of the true cost serves no worse than any policy."""
    if md["context"] != minc["context"]:
        return ["md-known and minc-known saw different context streams"]
    scale = max(1.0, float(np.abs(md["service"]).max()))
    bad = np.flatnonzero(minc["service"] > md["service"] + REL_TOL * scale)
    if bad.size:
        r = bad[0]
        return [
            f"row {r + 1}: minc-known service {minc['service'][r]!r} exceeds "
            f"md-known's {md['service'][r]!r}"
        ]
    return []


def cost_ratio(checks: list[SweepCheck]) -> float:
    """The lead policy's total cost over its summed offline optimum."""
    cost = sum(c.lead_cost for c in checks)
    opt = sum(c.lead_optimum for c in checks)
    return cost / opt if opt > 0 else math.nan
