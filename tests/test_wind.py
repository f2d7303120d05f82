from datetime import datetime

import numpy as np
import pytest

from gpmd.harness import RunConfig, build_wind_env, run_cell
from gpmd.wind import (
    EnergyParams,
    WindTable,
    altitude_metric,
    cost_bounds,
    default_altitudes,
    energy_service,
    ingest_wind_csv,
    service_matrix,
    synthetic_wind_table,
)

from conftest import RbfKernel, energy_service_interval, stall_speed, table_gp, write_wind_csv

P10 = EnergyParams(v_rated=10.0)


class TestEnergyFormulas:
    def test_zero_wind(self):
        assert energy_service(P10, 0.0) == 0.0

    def test_below_rated(self):
        # (0.0579 * 125 - 0.09 * 25) * 60
        assert energy_service(P10, 5.0) == pytest.approx(299.25)

    def test_above_rated_clamps_cubic(self):
        # (0.0579 * 1000 - 0.09 * 225) * 60
        assert energy_service(P10, 15.0) == pytest.approx(2259.0)

    def test_move_formula(self):
        move = altitude_metric(P10, [50.0, 100.0, 200.0]).dist
        assert move[2, 1] == pytest.approx(1500.0)
        assert move[1, 2] == pytest.approx(1500.0)
        assert move[0, 0] == 0.0

    def test_move_triangle_equality_on_line(self):
        move = altitude_metric(P10, [10.0, 400.0, 900.0]).dist
        assert move[0, 2] == pytest.approx(move[0, 1] + move[1, 2])

    def test_negative_windspeed_rejected(self):
        with pytest.raises(ValueError):
            energy_service(P10, -0.1)

    def test_params_must_be_positive(self):
        with pytest.raises(ValueError):
            EnergyParams(c1=0.0)


def toy_table(speeds, altitudes=(100.0, 200.0)) -> WindTable:
    speeds = np.asarray(speeds, dtype=float)
    stamps = tuple(datetime(2016, 7, 1, h) for h in range(speeds.shape[1]))
    return WindTable(altitudes=np.asarray(altitudes), timestamps=stamps, speeds=speeds)


class TestWindTable:
    @pytest.mark.parametrize(
        "altitudes, speeds, match",
        [
            ([1.0, 2.0], [[np.nan], [np.inf]], r"speeds\[0, 0\] = nan is not finite"),
            ([1.0, 2.0], [[5.0], [np.inf]], r"speeds\[1, 0\] = inf is not finite"),
            ([1.0, np.nan], [[5.0], [6.0]], r"altitudes\[1\] = nan is not finite"),
            ([1.0, np.inf], [[5.0], [6.0]], r"altitudes\[1\] = inf is not finite"),
        ],
        ids=["nan-speed", "inf-speed", "nan-altitude", "inf-altitude"],
    )
    def test_non_finite_entry_rejected(self, altitudes, speeds, match):
        with pytest.raises(ValueError, match=match):
            WindTable(altitudes=altitudes, timestamps=(datetime(2016, 7, 1),), speeds=speeds)


class TestServiceObjective:
    def test_zero_at_argmax(self):
        table = toy_table([[5.0], [7.0]])
        assert service_matrix(P10, table)[1, 0] == 0.0

    def test_uniform_wind_gives_zero_everywhere(self):
        table = toy_table([[6.0], [6.0]])
        assert np.all(service_matrix(P10, table) == 0.0)

    def test_two_altitude_worked_example(self):
        table = toy_table([[5.0], [15.0]])
        assert service_matrix(P10, table)[0, 0] == pytest.approx(2259.0 - 299.25)

    def test_matrix_nonnegative_with_zero_row(self):
        table = toy_table([[5.0, 9.0, 3.0], [7.0, 2.0, 11.0]])
        F = service_matrix(P10, table)
        assert np.all(F >= 0.0)
        assert np.all(F.min(axis=0) == 0.0)


class TestIntervalPropagation:
    def scan_oracle(self, lo, hi, step=0.001):
        n = max(2, int(round((hi - lo) / step)) + 1)
        vs = np.linspace(lo, hi, n)
        es = energy_service(P10, vs)
        return float(es.min()), float(es.max())

    def test_zero_width_interval(self):
        lo, hi = energy_service_interval(P10, 5.0, 5.0)
        assert lo == hi == pytest.approx(299.25)

    def test_monotone_branch_endpoints(self):
        stall = stall_speed(P10)
        lo, hi = energy_service_interval(P10, stall + 0.5, 9.5)
        slo, shi = self.scan_oracle(stall + 0.5, 9.5)
        assert lo == pytest.approx(slo, abs=1e-6)
        assert hi == pytest.approx(shi, abs=1e-3)

    def test_straddling_rated_speed_max_at_rated(self):
        lo, hi = energy_service_interval(P10, 8.0, 14.0)
        assert hi == pytest.approx(float(energy_service(P10, 10.0)))
        slo, shi = self.scan_oracle(8.0, 14.0)
        assert hi == pytest.approx(shi, abs=1e-3)
        assert lo == pytest.approx(slo, abs=1e-3)

    def test_interval_containing_stall_point(self):
        lo, hi = energy_service_interval(P10, 0.2, 3.0)
        slo, shi = self.scan_oracle(0.2, 3.0)
        assert lo == pytest.approx(slo, abs=1e-3)
        assert hi == pytest.approx(shi, abs=1e-3)

    def test_matches_energy_service_bit_for_bit(self, rng):
        # Intervals straddling the stall speed and the rated speed: the
        # bounds equal energy_service at the candidate points exactly.
        for params in (P10, EnergyParams()):
            crits = (stall_speed(params), params.v_rated)
            for _ in range(500):
                a = rng.uniform(0.0, 1.2 * crits[0])
                b = rng.uniform(0.8 * crits[1], 1.6 * crits[1])
                lo, hi = energy_service_interval(params, float(a), float(b))
                points = [float(a), float(b)] + [c for c in crits if a < c < b]
                vals = [float(energy_service(params, v)) for v in points]
                assert (lo, hi) == (min(vals), max(vals))
            for c in crits:
                assert energy_service_interval(params, c, c) == (energy_service(params, c),) * 2

    def test_random_intervals_against_scan(self, rng):
        # The scan can miss the kinked maximum at the rated speed by up to
        # slope * step, so the upper comparison carries that allowance.
        kink_slope = (3 * P10.c1 * P10.v_rated**2) * P10.dt_minutes
        for _ in range(50):
            a, b = np.sort(rng.uniform(0.0, 18.0, 2))
            lo, hi = energy_service_interval(P10, float(a), float(b))
            slo, shi = self.scan_oracle(float(a), float(b))
            assert lo <= slo + 1e-9 and lo == pytest.approx(slo, abs=2e-2)
            assert hi >= shi - 1e-9 and hi == pytest.approx(shi, abs=kink_slope * 0.001)


class TestPropagateBounds:
    def test_exact_model_collapses_to_shifted_truth(self):
        # A noiseless interpolating model makes the interval collapse: the
        # lower bound equals f up to the shared per-timestep constant.
        table = toy_table([[5.0], [7.0]])
        alts = table.altitudes
        gp = table_gp(RbfKernel(lengthscale=50.0), alts[:, None], 1e-10)
        gp = gp.update([0, 1], [0, 0], table.speeds[:, 0])
        lcb_f = cost_bounds(P10, *gp.posterior(0), beta=0.0)
        es = energy_service(P10, table.speeds[:, 0])
        f_true = es.max() - es
        assert np.abs(lcb_f - f_true).max() <= 1e-4

    def test_sandwich_with_truth_inside_interval(self):
        # A smooth shear profile the long-lengthscale model can bracket.
        alts = np.array([10.0, 50.0, 90.0, 130.0])
        speeds = (4.0 + 3.0 * alts / 130.0)[:, None]
        table = toy_table(speeds, altitudes=tuple(alts))
        gp = table_gp(RbfKernel(lengthscale=100.0, outputscale=9.0), alts[:, None], 0.5)
        gp = gp.update(np.arange(4), np.zeros(4, int), table.speeds[:, 0])
        beta = 3.0
        mean, std = gp.posterior(0)
        # only meaningful when the truth is inside the windspeed interval
        inside = np.abs(mean - table.speeds[:, 0]) <= beta * std
        assert inside.all()
        lcb_f = cost_bounds(P10, mean, std, beta=beta)
        es = energy_service(P10, table.speeds[:, 0])
        es_hi = np.array(
            [energy_service_interval(P10, max(0.0, m - beta * s), m + beta * s)[1]
             for m, s in zip(mean, std)]
        )
        shifted = es_hi.max() - es  # truth under the shared ceiling
        assert np.all(lcb_f <= shifted + 1e-9)
        assert np.all(lcb_f >= 0.0)


    def test_cost_bounds_match_the_scalar_reference(self, rng):
        # Posteriors whose intervals start below the stall speed, straddle
        # the rated speed, collapse to a point or sit on either side. The
        # scalar reference also tries the stall speed, which cost_bounds
        # leaves out: a minimum of E_S never sets the maximum.
        for params in (P10, EnergyParams()):
            for _ in range(200):
                n = int(rng.integers(1, 30))
                mean = rng.uniform(-2.0, 1.6 * params.v_rated, n)
                std = rng.uniform(0.0, 4.0, n) * (rng.uniform(size=n) < 0.9)
                beta = float(rng.uniform(0.0, 3.0))
                lcb_f = cost_bounds(params, mean, std, beta)
                lo = np.maximum(0.0, mean - beta * std)
                hi = np.maximum(lo, mean + beta * std)
                es_lo, es_hi = np.array(
                    [energy_service_interval(params, a, b) for a, b in zip(lo, hi)]
                ).T
                ceiling = es_hi.max()
                # Array and scalar cubes may differ in the last bit of E_S.
                tol = 1e-13 * np.abs(np.concatenate([es_lo, es_hi])).max()
                assert np.abs(lcb_f - np.maximum(0.0, ceiling - es_hi)).max() <= tol
                assert np.all(lcb_f >= 0.0)


class TestWindCsv:
    def test_roundtrip(self, tmp_path):
        table = synthetic_wind_table(3, hours=5, altitudes=default_altitudes(4))
        path = tmp_path / "wind.csv"
        write_wind_csv(path, table)
        loaded = ingest_wind_csv(path)
        assert np.allclose(loaded.altitudes, table.altitudes)
        assert np.allclose(loaded.speeds, table.speeds)
        assert loaded.timestamps == table.timestamps

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("timestamp,altitude_m,windspeed_ms\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest_wind_csv(path)

    def test_two_row_file_exact(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "timestamp,altitude_m,windspeed_ms\n"
            "2016-07-01T00:00:00,100.0,5.5\n"
            "2016-07-01T00:00:00,200.0,6.5\n"
        )
        table = ingest_wind_csv(path)
        assert table.n_times == 1 and table.n_altitudes == 2
        assert table.speeds[0, 0] == 5.5 and table.speeds[1, 0] == 6.5

    def test_negative_windspeed_names_row(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "timestamp,altitude_m,windspeed_ms\n"
            "2016-07-01T00:00:00,100.0,5.5\n"
            "2016-07-01T00:00:00,200.0,-1.0\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            ingest_wind_csv(path)

    def test_non_monotone_timestamps(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "timestamp,altitude_m,windspeed_ms\n"
            "2016-07-01T01:00:00,100.0,5.5\n"
            "2016-07-01T00:00:00,100.0,5.0\n"
        )
        with pytest.raises(ValueError, match="not increasing"):
            ingest_wind_csv(path)

    def test_block_missing_an_altitude(self, tmp_path):
        # The altitude set is every altitude the file names, so a block
        # that lacks one of them is incomplete.
        path = tmp_path / "w.csv"
        path.write_text(
            "timestamp,altitude_m,windspeed_ms\n"
            "2016-07-01T00:00:00,100.0,5.5\n"
            "2016-07-01T00:00:00,200.0,6.5\n"
            "2016-07-01T01:00:00,200.0,6.0\n"
        )
        with pytest.raises(ValueError, match="2016-07-01 01:00:00 misses altitudes"):
            ingest_wind_csv(path)

    @pytest.mark.parametrize(
        "rows, match",
        [
            # the repeat is rejected, not written over the first row's 5.0
            (["00,100.0,5.0", "00,200.0,6.0", "00,100.0,9.0", "01,100.0,5.5", "01,200.0,6.5"],
             r"line 4: timestamp 2016-07-01 00:00:00 repeats altitude 100.0"),
            # the repeat comes before the block ends short of 200 m
            (["00,100.0,5.0", "00,100.0,9.0", "01,100.0,5.5", "01,200.0,6.5"], "line 3: .* repeats"),
            # the first block misses 200 m before the second one repeats it
            (["00,100.0,5.0", "01,100.0,5.5", "01,200.0,6.5", "01,200.0,9.0"],
             "2016-07-01 00:00:00 misses altitudes"),
            # the timestamps fall before the repeat
            (["01,100.0,5.0", "00,100.0,5.5", "00,100.0,9.0"], "line 3: timestamps not increasing"),
        ],
        ids=["repeat", "repeat-then-missing", "missing-then-repeat", "decrease-then-repeat"],
    )
    def test_repeated_altitude_rejected(self, tmp_path, rows, match):
        path = tmp_path / "w.csv"
        body = "".join(f"2016-07-01T{row}\n" for row in rows)
        path.write_text("timestamp,altitude_m,windspeed_ms\n" + body)
        with pytest.raises(ValueError, match=match):
            ingest_wind_csv(path)

    @pytest.mark.parametrize(
        "row, match",
        [
            ("2016-07-01T00:00:00,200.0,nan", "line 3: non-finite windspeed"),
            ("2016-07-01T00:00:00,200.0,inf", "line 3: non-finite windspeed"),
            ("2016-07-01T00:00:00,inf,6.5", "line 3: non-finite altitude"),
        ],
        ids=["nan-windspeed", "inf-windspeed", "inf-altitude"],
    )
    def test_non_finite_value_names_row(self, tmp_path, row, match):
        path = tmp_path / "w.csv"
        path.write_text(
            "timestamp,altitude_m,windspeed_ms\n"
            "2016-07-01T00:00:00,100.0,5.5\n"
            f"{row}\n"
            "2016-07-01T01:00:00,100.0,5.0\n"
            "2016-07-01T01:00:00,200.0,6.0\n"
        )
        with pytest.raises(ValueError, match=match):
            ingest_wind_csv(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "timestamp,altitude_m,windspeed_ms\n"
            "2016-07-01T00:00:00,100.0\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            ingest_wind_csv(path)


class TestGeneratorAndMetric:
    def test_generator_deterministic_and_nonnegative(self):
        a = synthetic_wind_table(5, hours=48)
        b = synthetic_wind_table(5, hours=48)
        assert np.array_equal(a.speeds, b.speeds)
        assert np.all(a.speeds >= 0.0)
        assert a.n_altitudes == 25

    def test_altitude_metric_is_scaled_line(self):
        params = EnergyParams(v_rated=12.0)
        metric = altitude_metric(params, [10.0, 110.0, 210.0])
        assert metric.dist[0, 1] == pytest.approx(0.15 * 144.0 * 100.0)
        assert metric.dist[0, 2] == pytest.approx(metric.dist[0, 1] + metric.dist[1, 2])

    @pytest.mark.parametrize(
        "alts",
        [
            10.0 + np.arange(25) * (1590.0 / 24),  # the wind workload's altitudes
            default_altitudes(),
            np.sort(np.random.default_rng(5).uniform(0.0, 3000.0, 300)),
        ],
        ids=["bench", "default", "random"],
    )
    def test_altitude_metric_equals_scaled_absolute_difference(self, alts):
        # sqrt(fl(x^2)) == |x| in binary64, so the coordinate metric is the
        # movement cost c3 * V_r^2 * |x - x'| float for float.
        params = EnergyParams()
        expected = params.c3 * params.v_rated**2 * np.abs(alts[:, None] - alts[None, :])
        assert np.array_equal(altitude_metric(params, alts).dist, expected)

    def test_trajectory_energy_identity(self, tmp_path):
        # A wind cell's energy comes from the actions it chose: the argmin
        # policy climbs to the faster altitude, then comes back down.
        path = tmp_path / "wind.csv"
        write_wind_csv(path, toy_table([[5.0, 15.0], [15.0, 5.0]]))
        cfg = RunConfig(
            kind="wind", policies=["minc-known"], steps=2, dataset=str(path), starts=[0],
            energy={"v_rated": 10.0},
        )
        steps, summary = run_cell(cfg, build_wind_env(cfg, 0), "minc-known", 1.0, 0, 0)
        assert steps["action"].tolist() == [[1, 0]]
        expected_service = 2259.0 + 2259.0
        expected_move = 2 * 1500.0
        energy = summary["energy"]
        assert energy["service_energy"] == pytest.approx(expected_service)
        assert energy["movement_energy"] == pytest.approx(expected_move)
        assert energy["total_energy"] == pytest.approx(expected_service - expected_move)
