"""The benchmark's own model of the wind workload's world.

``write_wind_csv`` generates the wind table the program reads, from the
benchmark seed alone. ``wind_service`` and ``offline_optimum`` recompute the
energy objective and the offline optimum from that table, written apart from
the program so the output checks do not trust the code they check.
"""

from __future__ import annotations

import csv
from datetime import datetime, timedelta

import numpy as np

START = datetime(2016, 7, 1)


def wind_altitudes(n: int) -> np.ndarray:
    """``n`` altitudes from 10 m to 1600 m; the spacing is exact in binary."""
    return 10.0 + np.arange(n) * (1590.0 / (n - 1))


def wind_speeds(seed: int, hours: int, altitudes: np.ndarray) -> np.ndarray:
    """Hourly windspeeds, shape (altitudes, hours), rounded to 1 mm/s.

    A log profile with a seeded shear, a diurnal swing with a seeded phase,
    and AR(1) noise per altitude.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x77696E64)))
    shear = rng.uniform(0.9, 1.5)
    amplitude = rng.uniform(2.0, 4.0)
    peak = rng.uniform(12.0, 18.0)
    hour = np.arange(hours) % 24
    profile = shear * np.log(altitudes)
    diurnal = amplitude * np.sin(2.0 * np.pi * (hour - peak + 6.0) / 24.0)
    noise = np.empty((altitudes.size, hours))
    noise[:, 0] = rng.normal(0.0, 1.0, altitudes.size)
    for k in range(1, hours):
        noise[:, k] = 0.8 * noise[:, k - 1] + 0.6 * rng.normal(0.0, 1.0, altitudes.size)
    speeds = profile[:, None] + diurnal[None, :] + noise
    return np.round(np.maximum(speeds, 0.0), 3)


def timestamps(hours: int) -> list[str]:
    return [(START + timedelta(hours=k)).isoformat() for k in range(hours)]


def write_wind_csv(path, speeds: np.ndarray, altitudes: np.ndarray) -> None:
    """The program's wind schema: ``timestamp,altitude_m,windspeed_ms``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "altitude_m", "windspeed_ms"])
        for k, ts in enumerate(timestamps(speeds.shape[1])):
            for i, alt in enumerate(altitudes):
                writer.writerow([ts, repr(float(alt)), repr(float(speeds[i, k]))])


def energy_generated(speeds: np.ndarray, energy: dict) -> np.ndarray:
    """E_S(v) = (c1 * min(v, V_r)^3 - c2 * v^2) * dt."""
    capped = np.minimum(speeds, energy["v_rated"])
    return (energy["c1"] * capped**3 - energy["c2"] * speeds**2) * energy["dt_minutes"]


def wind_service(speeds: np.ndarray, energy: dict) -> np.ndarray:
    """Service cost f(x, t): shortfall against the best altitude at t."""
    es = energy_generated(speeds, energy)
    return es.max(axis=0)[None, :] - es


def wind_movement(altitudes: np.ndarray, energy: dict) -> np.ndarray:
    """E_M between every pair of altitudes: c3 * V_r^2 * |x - x'|."""
    return energy["c3"] * energy["v_rated"] ** 2 * np.abs(altitudes[:, None] - altitudes[None, :])


def offline_optimum(service: np.ndarray, movement: np.ndarray, x0: int) -> float:
    """Least total service plus movement over all action sequences.

    ``service`` is (actions, steps); the first step moves from ``x0``.
    """
    best = service[:, 0] + movement[x0]
    for t in range(1, service.shape[1]):
        best = service[:, t] + np.min(best[:, None] + movement, axis=0)
    return float(best.min())
