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
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .gp import GpModel, Normalizer, RbfKernel
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

    @property
    def stall_speed(self) -> float:
        """Interior critical point of the below-rated branch, 2*c2/(3*c1)."""
        return 2.0 * self.c2 / (3.0 * self.c1)

    @classmethod
    def from_config(cls, cfg: dict) -> "EnergyParams":
        return cls(
            c1=cfg.get("c1", 0.0579),
            c2=cfg.get("c2", 0.09),
            c3=cfg.get("c3", 0.15),
            v_rated=cfg.get("v_rated", 12.0),
            dt_minutes=cfg.get("dt_minutes", 60.0),
        )


def energy_service(params: EnergyParams, v) -> np.ndarray | float:
    """Energy generated over one interval at windspeed ``v`` (may be negative
    past the rated speed, where drag dominates)."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("windspeed must be non-negative")
    capped = np.minimum(v, params.v_rated)
    out = (params.c1 * capped**3 - params.c2 * v**2) * params.dt_minutes
    return float(out) if out.ndim == 0 else out


def energy_move(params: EnergyParams, x: float, x_prev: float) -> float:
    """Energy lost changing altitude; a scalar multiple of |x - x_prev|."""
    return params.c3 * params.v_rated**2 * abs(float(x) - float(x_prev))


def energy_service_interval(params: EnergyParams, lo: float, hi: float):
    """(min, max) of E_S over a windspeed interval, via the critical points."""
    if lo > hi:
        raise ValueError("empty windspeed interval")
    lo = max(0.0, float(lo))
    hi = max(lo, float(hi))
    c1, c2, v_r, dt = params.c1, params.c2, params.v_rated, params.dt_minutes
    candidates = [lo, hi]
    for crit in (params.stall_speed, v_r):
        if lo < crit < hi:
            candidates.append(crit)
    # Scalar arithmetic in energy_service's order of operations, so the
    # result matches it bit for bit (an array ``**3`` may differ in the last bit).
    vals = [(c1 * min(v, v_r) ** 3 - c2 * (v * v)) * dt for v in candidates]
    return min(vals), max(vals)


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
        return np.array([t.hour for t in self.timestamps], dtype=float)

    def speed(self, alt_idx: int, t_idx: int) -> float:
        return float(self.speeds[alt_idx, t_idx])


def ingest_wind_csv(path, altitudes=None) -> WindTable:
    """Parse the bit-exact schema ``timestamp,altitude_m,windspeed_ms``.

    Rows are grouped by timestamp; every timestamp block must cover the full
    altitude set. Malformed rows are rejected with their line number.
    """
    header_expect = ["timestamp", "altitude_m", "windspeed_ms"]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != header_expect:
            raise ValueError(f"{path}: expected header {','.join(header_expect)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 columns")
            try:
                ts = datetime.fromisoformat(row[0].strip())
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad timestamp {row[0]!r}") from None
            try:
                alt = float(row[1])
                speed = float(row[2])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
            if speed < 0:
                raise ValueError(f"{path}: line {lineno}: negative windspeed {speed}")
            rows.append((lineno, ts, alt, speed))
    if not rows:
        raise ValueError(f"{path}: no data rows")

    if altitudes is None:
        altitudes = np.array(sorted({alt for _, _, alt, _ in rows}))
    else:
        altitudes = np.asarray(altitudes, dtype=float)
    alt_index = {a: i for i, a in enumerate(altitudes)}

    stamps: list[datetime] = []
    blocks: list[np.ndarray] = []
    current: np.ndarray | None = None
    for lineno, ts, alt, speed in rows:
        if alt not in alt_index:
            raise ValueError(f"{path}: line {lineno}: unknown altitude {alt}")
        if not stamps or ts != stamps[-1]:
            if stamps and ts < stamps[-1]:
                raise ValueError(f"{path}: line {lineno}: timestamps not increasing")
            if current is not None and np.any(np.isnan(current)):
                raise ValueError(f"{path}: timestamp {stamps[-1]} misses altitudes")
            current = np.full(altitudes.shape[0], np.nan)
            stamps.append(ts)
            blocks.append(current)
        current[alt_index[alt]] = speed
    if current is not None and np.any(np.isnan(current)):
        raise ValueError(f"{path}: timestamp {stamps[-1]} misses altitudes")

    speeds = np.stack(blocks, axis=1)
    return WindTable(altitudes=altitudes, timestamps=tuple(stamps), speeds=speeds)


def write_wind_csv(path, table: WindTable) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "altitude_m", "windspeed_ms"])
        for k, ts in enumerate(table.timestamps):
            for i, alt in enumerate(table.altitudes):
                writer.writerow([ts.isoformat(), repr(float(alt)), repr(float(table.speeds[i, k]))])


def service_objective(params: EnergyParams, wind: WindTable, x: float, t) -> float:
    """f(x, t): shortfall of generated energy against the best altitude at t."""
    alt_matches = np.where(wind.altitudes == float(x))[0]
    if alt_matches.size == 0:
        raise ValueError(f"altitude {x} not in the table")
    try:
        t_idx = wind.timestamps.index(t) if not isinstance(t, (int, np.integer)) else int(t)
    except ValueError:
        raise ValueError(f"timestamp {t} not in the table") from None
    if not 0 <= t_idx < wind.n_times:
        raise ValueError(f"timestamp index {t_idx} out of range")
    es = energy_service(params, wind.speeds[:, t_idx])
    return float(es.max() - es[alt_matches[0]])


def service_matrix(params: EnergyParams, wind: WindTable) -> np.ndarray:
    """Dense f(x, t) over the whole table, one row per altitude."""
    es = energy_service(params, wind.speeds)
    return es.max(axis=0)[None, :] - es


def propagate_bounds_all(
    gp: GpModel, params: EnergyParams, altitudes: np.ndarray, hour: float, beta: float
):
    """(lcb_f, ucb_f) per altitude from the windspeed model at one context.

    The per-timestep reference C = max over altitudes of the E_S upper bound
    is shared by every altitude, so the induced cost is non-negative and the
    shared shift is decision-neutral for the mirror-descent controller.
    """
    feats = np.column_stack([altitudes, np.full(altitudes.shape[0], hour)])
    mean, std = gp.posterior(feats)
    lo = np.maximum(0.0, mean - beta * std)
    hi = np.maximum(lo, mean + beta * std)
    bounds = [energy_service_interval(params, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    es_lo, es_hi = np.array(bounds).T
    ceiling = es_hi.max()
    lcb_f = np.maximum(0.0, ceiling - es_hi)
    ucb_f = ceiling - es_lo
    return lcb_f, ucb_f


def default_altitudes(n: int = 25, low: float = 10.0, high: float = 1600.0) -> np.ndarray:
    return np.linspace(low, high, n)


def altitude_metric(params: EnergyParams, altitudes) -> FiniteMetric:
    alts = np.asarray(altitudes, dtype=float)
    diff = np.abs(alts[:, None] - alts[None, :])
    dist = params.c3 * params.v_rated**2 * diff
    labels = tuple(f"{a:.1f}m" for a in alts)
    return FiniteMetric(dist=dist, labels=labels, coords=alts[:, None])


def make_wind_gp(
    altitudes,
    lengthscale: float = 3.67,
    outputscale: float = 6.85,
    lam: float = 2.73,
    beta_value: float = 2.0,
) -> GpModel:
    """Windspeed model over (altitude, hour) features, normalized per dimension."""
    alts = np.asarray(altitudes, dtype=float)
    grid = np.column_stack(
        [np.repeat(alts, 24), np.tile(np.arange(24.0), alts.shape[0])]
    )
    kernel = RbfKernel(
        lengthscale=lengthscale,
        outputscale=outputscale,
        normalizer=Normalizer.from_data(grid),
    )
    return GpModel(kernel=kernel, lam=lam, beta_mode="constant", beta_value=beta_value)


@dataclass(frozen=True)
class WindGeneratorConfig:
    """Log-profile mean plus a diurnal sinusoid plus seeded noise."""

    shear: float = 1.2
    roughness: float = 1.0
    diurnal_amplitude: float = 3.0
    peak_hour: float = 15.0
    noise_sigma: float = 0.6
    start: datetime = field(default_factory=lambda: datetime(2016, 7, 1, 0, 0))


def synthetic_wind_table(
    seed: int,
    hours: int = 960,
    altitudes=None,
    config: WindGeneratorConfig | None = None,
) -> WindTable:
    cfg = config if config is not None else WindGeneratorConfig()
    alts = default_altitudes() if altitudes is None else np.asarray(altitudes, dtype=float)
    rng = np.random.default_rng(seed)
    stamps = tuple(cfg.start + timedelta(hours=k) for k in range(hours))
    hour_of_day = np.array([t.hour for t in stamps], dtype=float)
    profile = cfg.shear * np.log(alts / cfg.roughness)
    diurnal = cfg.diurnal_amplitude * np.sin(2.0 * np.pi * (hour_of_day - cfg.peak_hour + 6.0) / 24.0)
    speeds = profile[:, None] + diurnal[None, :] + rng.normal(0.0, cfg.noise_sigma, (alts.size, hours))
    return WindTable(altitudes=alts, timestamps=stamps, speeds=np.maximum(speeds, 0.0))


def trajectory_energy(
    params: EnergyParams, wind: WindTable, actions, time_indices, x0_idx: int
) -> dict:
    """Total generated energy of an altitude trajectory: sum of E_S minus sum of E_M."""
    service = 0.0
    movement = 0.0
    prev = int(x0_idx)
    for a, k in zip(actions, time_indices):
        service += float(energy_service(params, wind.speeds[int(a), int(k)]))
        movement += energy_move(params, wind.altitudes[int(a)], wind.altitudes[prev])
        prev = int(a)
    return {
        "service_energy": service,
        "movement_energy": movement,
        "total_energy": service - movement,
    }
