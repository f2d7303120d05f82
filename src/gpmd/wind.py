"""Airborne wind energy: the energy model, wind-data ingestion, and bound propagation.

The turbine's service objective is the shortfall against the best altitude,
f(x, t) = max_x' E_S(x', t) - E_S(x, t), where the generated energy per
hour-long interval is

    E_S(v) = (c1 * min(v, V_r)^3 - c2 * v^2) * dt,

and moving between altitudes costs E_M(x, x') = c3 * V_r^2 * |x - x'|
(movement is charged at the rated windspeed, independent of context).
The learner models the windspeed itself; confidence bounds on windspeed are
pushed through E_S by interval analysis, which is exact because E_S is
piecewise monotone with interior critical points only at V_r and
2*c2 / (3*c1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .gp import rbf_table
from .metric import FiniteMetric


@dataclass(frozen=True)
class EnergyParams:
    c1: float = 0.0579
    c2: float = 0.09
    c3: float = 0.15
    v_rated: float = 12.0
    dt_minutes: float = 60.0

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "v_rated", "dt_minutes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def energy_service(params: EnergyParams, v) -> np.ndarray | float:
    """Energy generated over one interval at windspeed ``v`` (may be negative
    past the rated speed, where drag dominates)."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("windspeed must be non-negative")
    capped = np.minimum(v, params.v_rated)
    out = (params.c1 * capped**3 - params.c2 * v**2) * params.dt_minutes
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class WindTable:
    """Windspeed series: one row per altitude, one column per timestamp."""

    altitudes: np.ndarray
    timestamps: tuple
    speeds: np.ndarray  # (n_altitudes, n_timestamps)

    def __post_init__(self):
        alts = np.asarray(self.altitudes, dtype=float)
        speeds = np.asarray(self.speeds, dtype=float)
        object.__setattr__(self, "altitudes", alts)
        object.__setattr__(self, "speeds", speeds)
        if speeds.shape != (alts.shape[0], len(self.timestamps)):
            raise ValueError("speed matrix shape must be (altitudes, timestamps)")
        for name, values in (("altitudes", alts), ("speeds", speeds)):
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                at = tuple(bad[0])
                raise ValueError(f"{name}[{', '.join(map(str, at))}] = {values[at]} is not finite")
        if np.any(np.diff(alts) <= 0):
            raise ValueError("altitudes must be strictly increasing")
        if np.any(speeds < 0):
            raise ValueError("windspeeds must be non-negative")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if b <= a:
                raise ValueError("timestamps must be strictly increasing")

    @property
    def n_altitudes(self) -> int:
        return self.altitudes.shape[0]

    @property
    def n_times(self) -> int:
        return len(self.timestamps)

    @property
    def hours(self) -> np.ndarray:
        return np.array([t.hour for t in self.timestamps])


def ingest_wind_csv(path) -> WindTable:
    """Parse the bit-exact schema ``timestamp,altitude_m,windspeed_ms``.

    Rows are grouped by timestamp; every timestamp block must cover the full
    altitude set, which is every altitude the file names, once. Malformed
    and repeated rows are rejected with their line number.
    """
    header_expect = ["timestamp", "altitude_m", "windspeed_ms"]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != header_expect:
            raise ValueError(f"{path}: expected header {','.join(header_expect)}")
        body = list(reader)
    lines = np.arange(2, len(body) + 2)
    try:
        cols = _columns(body)
    except ValueError:
        # A blank or malformed row: find the first fault in line order.
        lines, body = _data_rows(path, body)
        if not body:
            raise ValueError(f"{path}: no data rows") from None
        cols = _columns(body)
    ts_col, parsed, alt_col, alt_of, speed = cols

    altitudes = np.array(sorted(set(alt_of.values())))
    alt_index = {a: i for i, a in enumerate(altitudes)}
    idx = _codes(alt_col, {s: alt_index[a] for s, a in alt_of.items()})
    # Rank the distinct instants: a row's block starts where its rank
    # changes, and the blocks must come in increasing rank.
    rank = {ts: r for r, ts in enumerate(sorted(set(parsed.values())))}
    code = _codes(ts_col, {s: rank[ts] for s, ts in parsed.items()})
    new_block = np.diff(code, prepend=-1) != 0
    starts, block = np.flatnonzero(new_block), np.cumsum(new_block) - 1
    speeds = np.full((altitudes.shape[0], starts.size), np.nan)
    speeds[idx, block] = speed
    empty = np.isnan(speeds)

    # The first fault as a row-by-row pass meets them: at one row, a timestamp
    # below the one before or a repeated altitude, then a block that misses
    # altitudes (met at the next block's first row, or at the end).
    faults = [(k, f"line {lines[k]}: timestamps not increasing")
              for k in starts[1:][np.diff(code[starts]) < 0][:1]]
    if len(body) > speeds.size - np.count_nonzero(empty):  # two rows filled one cell
        first = np.unique(block * altitudes.shape[0] + idx, return_index=True)[1]
        k = np.setdiff1d(np.arange(len(body)), first)[0]
        stamp, alt = parsed[ts_col[k]], alt_of[alt_col[k]]
        faults.append((k, f"line {lines[k]}: timestamp {stamp} repeats altitude {alt!r}"))
    ends = np.append(starts[1:], len(body))
    for b in np.flatnonzero(empty.any(axis=0))[:1]:
        faults.append((ends[b], f"timestamp {parsed[ts_col[starts[b]]]} misses altitudes"))
    if faults:
        raise ValueError(f"{path}: {min(faults, key=lambda f: f[0])[1]}")

    stamps = tuple(parsed[ts_col[k]] for k in starts)
    return WindTable(altitudes=altitudes, timestamps=stamps, speeds=speeds)


def _columns(body):
    """The columns of the data rows, each distinct timestamp and altitude
    string parsed once: (timestamp strings, their datetimes, altitude
    strings, their floats, windspeeds). ValueError on any blank or malformed
    row, non-finite value or negative windspeed."""
    if set(map(len, body)) != {3}:
        raise ValueError("not three columns per row")
    ts_col = [r[0] for r in body]
    alt_col = [r[1] for r in body]
    parsed = {s: datetime.fromisoformat(s.strip()) for s in set(ts_col)}
    alt_of = {s: float(s) for s in set(alt_col)}
    speed = np.fromiter(map(float, [r[2] for r in body]), float, len(body))
    if not (np.isfinite(list(alt_of.values())).all() and np.isfinite(speed).all()):
        raise ValueError("non-finite value")
    if (speed < 0).any():
        raise ValueError("negative windspeed")
    return ts_col, parsed, alt_col, alt_of, speed


def _codes(col, code_of) -> np.ndarray:
    return np.fromiter(map(code_of.__getitem__, col), int, len(col))


def _data_rows(path, body):
    """Line numbers and rows of the non-blank rows; raises on the first
    malformed, non-finite or negative entry with its line number."""
    lines, rows = [], []
    for lineno, row in enumerate(body, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 3 columns")
        try:
            datetime.fromisoformat(row[0].strip())
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad timestamp {row[0]!r}") from None
        try:
            alt, speed = float(row[1]), float(row[2])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
        if not math.isfinite(alt):
            raise ValueError(f"{path}: line {lineno}: non-finite altitude {alt}")
        if not math.isfinite(speed):
            raise ValueError(f"{path}: line {lineno}: non-finite windspeed {speed}")
        if speed < 0:
            raise ValueError(f"{path}: line {lineno}: negative windspeed {speed}")
        lines.append(lineno)
        rows.append(row)
    return lines, rows


def service_matrix(params: EnergyParams, wind: WindTable) -> np.ndarray:
    """Dense f(x, t) over the whole table, one row per altitude."""
    es = energy_service(params, wind.speeds)
    return es.max(axis=0)[None, :] - es


def cost_bounds(params: EnergyParams, mean: np.ndarray, std: np.ndarray, beta: float):
    """The lower bound on f per altitude from the windspeed posterior at one context.

    The per-timestep reference C = max over altitudes of the E_S upper bound
    is shared by every altitude, so the induced cost is non-negative and the
    shared shift is decision-neutral for the mirror-descent controller.
    """
    lo = np.maximum(0.0, mean - beta * std)
    hi = np.maximum(lo, mean + beta * std)
    # E_S falls up to the stall speed, rises to V_r and falls after it, so
    # its maximum over [lo, hi] is at an end or at V_r clipped into it.
    peak = np.clip(params.v_rated, lo, hi)
    es_hi = energy_service(params, np.stack([lo, hi, peak])).max(axis=0)
    return np.maximum(0.0, es_hi.max() - es_hi)


def default_altitudes(n: int = 25, low: float = 10.0, high: float = 1600.0) -> np.ndarray:
    return np.linspace(low, high, n)


def altitude_metric(params: EnergyParams, altitudes) -> FiniteMetric:
    """Altitudes on a line, at the movement cost E_M = c3 * V_r^2 * |x - x'|."""
    alts = np.asarray(altitudes, dtype=float)
    return FiniteMetric(alts[:, None], scale=params.c3 * params.v_rated**2)


def wind_tables(altitudes, lengthscale: float, outputscale: float):
    """The windspeed model's kernel tables over (altitude, hour of day): the
    altitude table, with the output scale, and the 24 x 24 hour table. Each
    dimension is first normalized by its mean and standard deviation over
    the altitude x hour grid."""
    alts = np.asarray(altitudes, dtype=float)
    grid = np.column_stack([np.repeat(alts, 24), np.tile(np.arange(24.0), alts.shape[0])])
    offset, scale = grid.mean(axis=0), grid.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return (
        rbf_table((alts - offset[0]) / scale[0], lengthscale, outputscale),
        rbf_table((np.arange(24.0) - offset[1]) / scale[1], lengthscale),
    )


def synthetic_wind_table(seed: int, hours: int = 960, altitudes=None) -> WindTable:
    """A seeded trace from 2016-07-01 00:00, hourly: a log wind profile
    (shear 1.2, roughness 1 m), a diurnal sinusoid of amplitude 3 m/s
    peaking at 15:00, and N(0, 0.6^2) noise, floored at zero."""
    alts = default_altitudes() if altitudes is None else np.asarray(altitudes, dtype=float)
    rng = np.random.default_rng(seed)
    start = datetime(2016, 7, 1, 0, 0)
    stamps = tuple(start + timedelta(hours=k) for k in range(hours))
    hour_of_day = np.array([t.hour for t in stamps], dtype=float)
    profile = 1.2 * np.log(alts)
    diurnal = 3.0 * np.sin(2.0 * np.pi * (hour_of_day - 15.0 + 6.0) / 24.0)
    speeds = profile[:, None] + diurnal[None, :] + rng.normal(0.0, 0.6, (alts.size, hours))
    return WindTable(altitudes=alts, timestamps=stamps, speeds=np.maximum(speeds, 0.0))

