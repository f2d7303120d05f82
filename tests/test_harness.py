import csv
import json

import numpy as np
import pytest

from gpmd.cli import main as cli_main
from gpmd.harness import (
    RunConfig,
    apply_overrides,
    build_synthetic_env,
    mts_demo,
    report,
    rng_stream,
    run,
)


def small_cfg(tmp_path, **overrides) -> RunConfig:
    base = dict(
        kind="synthetic",
        policies=["stationary"],
        seeds=[1],
        rhos=[1.0],
        steps=6,
        grid=[3, 3],
        n_contexts=5,
        out_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return RunConfig.from_dict(base)


class TestConfig:
    def test_validation_messages(self, tmp_path):
        cfg = small_cfg(tmp_path, seeds=[], steps=0, policies=["nope"])
        errors = cfg.validate()
        fields = {e.split(":")[0] for e in errors}
        assert {"seeds", "steps", "policies"} <= fields

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path, rhos=[-1.0])
        assert run(cfg) == 1
        assert "rho" in capsys.readouterr().out

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"vibes": 1})

    def test_overrides_nested_and_typed(self, tmp_path):
        cfg = small_cfg(tmp_path)
        cfg = apply_overrides(cfg, ["energy.v_rated=10.5", "steps=9", "policies=[\"gp-md\"]"])
        assert cfg.energy["v_rated"] == 10.5
        assert cfg.steps == 9
        assert cfg.policies == ["gp-md"]

    def test_wind_runs_have_one_episode(self, tmp_path):
        code = cli_main(
            ["run", "--kind", "wind", "--episodes", "3", "--steps", "48",
             "--set", "wind_hours=48", "--policies", "stationary", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "episodes: wind runs have one episode" in small_cfg(
            tmp_path, kind="wind", episodes=3
        ).validate()

    def test_synthetic_runs_take_no_start(self, tmp_path, capsys):
        code = cli_main(
            ["run", "--kind", "synthetic", "--policies", "md-known", "--starts", "3,5",
             "--steps", "5", "--set", "grid=[5,5]", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "starts: only wind runs take a start" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()

    def test_hash_stable(self, tmp_path):
        assert small_cfg(tmp_path).config_hash() == small_cfg(tmp_path).config_hash()


class TestRngStreams:
    def test_named_streams_differ(self):
        a = rng_stream(3, "contexts").integers(0, 1000, 5)
        b = rng_stream(3, "noise").integers(0, 1000, 5)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        assert np.array_equal(
            rng_stream(9, "sampling").integers(0, 1000, 5),
            rng_stream(9, "sampling").integers(0, 1000, 5),
        )


class TestSyntheticRun:
    def test_stationary_accounting(self, tmp_path):
        rho = 0.7
        cfg = small_cfg(tmp_path, rhos=[rho])
        assert run(cfg) == 0
        out = tmp_path / "out"
        steps_file = next(out.glob("stationary_*.steps.csv"))
        rows = list(csv.DictReader(open(steps_file)))
        assert len(rows) == 6
        assert all(float(r["movement"]) == 0.0 for r in rows)

        env = build_synthetic_env(cfg, 1)
        x0 = int(env.x0[0])
        expected = rho * env.instance.f_table[x0, env.contexts[0]].sum()
        assert float(rows[-1]["cum_total"]) == pytest.approx(expected)
        assert all(int(r["action"]) == x0 for r in rows)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_cfg(
            tmp_path, policies=["gp-md", "stationary"], steps=5, seeds=[2]
        )
        assert run(cfg) == 0
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert run(cfg) == 0
        second = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert first == second
        assert len(first) == 2

    def test_accounting_closure(self, tmp_path):
        cfg = small_cfg(tmp_path, policies=["md-known"], steps=8)
        assert run(cfg) == 0
        out = tmp_path / "out"
        summary = json.load(open(next(out.glob("md-known*.summary.json"))))
        rows = list(csv.DictReader(open(next(out.glob("md-known*.steps.csv")))))
        service = sum(float(r["service"]) for r in rows)
        movement = sum(float(r["movement"]) for r in rows)
        assert summary["service_total"] == pytest.approx(service, abs=1e-12)
        assert summary["movement_total"] == pytest.approx(movement, abs=1e-12)
        assert summary["cost_total"] == pytest.approx(service + movement, abs=1e-12)
        assert float(rows[-1]["cum_total"]) == pytest.approx(summary["cost_total"])

    def test_fairness_same_contexts_across_policies(self, tmp_path):
        cfg = small_cfg(tmp_path, policies=["stationary", "minc-known"], steps=7)
        assert run(cfg) == 0
        out = tmp_path / "out"
        ctx = {}
        for name in ("stationary", "minc-known"):
            rows = list(csv.DictReader(open(next(out.glob(f"{name}*.steps.csv")))))
            ctx[name] = [r["context"] for r in rows]
        assert ctx["stationary"] == ctx["minc-known"]

    def test_manifest_written(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run(cfg)
        manifest = json.load(open(tmp_path / "out" / "manifest.json"))
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["failed"] == []
        assert len(manifest["cells"]) == 1

    def test_multi_episode_regret_series(self, tmp_path):
        cfg = small_cfg(tmp_path, policies=["md-known"], steps=4, episodes=3)
        assert run(cfg) == 0
        summary = json.load(
            open(next((tmp_path / "out").glob("md-known*.summary.json")))
        )
        assert len(summary["regret"]["per_episode"]) == 3
        assert len(summary["regret"]["average_series"]) == 3
        assert summary["episodes"] == 3


class TestWindRun:
    def test_wind_cell_with_energy(self, tmp_path):
        cfg = small_cfg(
            tmp_path,
            kind="wind",
            policies=["stationary", "cgp-lcb"],
            steps=30,
            wind_hours=30,
            starts=[12],
        )
        assert run(cfg) == 0
        summaries = list((tmp_path / "out").glob("*.summary.json"))
        assert len(summaries) == 2
        data = json.load(open(summaries[0]))
        assert "energy" in data
        assert data["energy"]["total_energy"] == pytest.approx(
            data["energy"]["service_energy"] - data["energy"]["movement_energy"]
        )

    def test_stationary_wind_has_no_movement_loss(self, tmp_path):
        cfg = small_cfg(
            tmp_path, kind="wind", policies=["stationary"], steps=20, wind_hours=20, starts=[5]
        )
        assert run(cfg) == 0
        data = json.load(open(next((tmp_path / "out").glob("*.summary.json"))))
        assert data["energy"]["movement_energy"] == 0.0

    def test_steps_beyond_table_fail_the_cell(self, tmp_path):
        out = tmp_path / "o"
        code = cli_main(
            ["run", "--kind", "wind", "--steps", "5000", "--set", "wind_hours=48",
             "--policies", "stationary", "--starts", "12", "--out", str(out)]
        )
        assert code == 2
        failed = list(out.glob("*.failed.json"))
        assert len(failed) == 1
        error = json.loads(failed[0].read_text())["error"]
        assert "5000 steps" in error and "48 rows" in error
        assert not list(out.glob("*.steps.csv"))

    def test_dataset_csv_replay(self, tmp_path):
        from gpmd.wind import default_altitudes, synthetic_wind_table, write_wind_csv

        table = synthetic_wind_table(4, hours=12, altitudes=default_altitudes(6))
        csv_path = tmp_path / "wind.csv"
        write_wind_csv(csv_path, table)
        cfg = small_cfg(
            tmp_path,
            kind="wind",
            policies=["minc-known"],
            steps=12,
            dataset=str(csv_path),
            starts=[0],
        )
        assert run(cfg) == 0
        rows = list(csv.DictReader(open(next((tmp_path / "out").glob("*.steps.csv")))))
        assert len(rows) == 12
        assert rows[0]["context"] == table.timestamps[0].isoformat()


class TestReport:
    def test_single_seed_zero_std(self, tmp_path):
        cfg = small_cfg(tmp_path, policies=["stationary"], seeds=[3])
        run(cfg)
        rows = report(tmp_path / "out")
        assert len(rows) == 1
        assert rows[0]["cost_total_std"] == 0.0
        assert rows[0]["cells"] == 1

    def test_mean_over_identical_cells(self, tmp_path):
        cfg = small_cfg(tmp_path, policies=["stationary"], seeds=[3, 3])
        # same seed twice: identical cells would collide on filenames, so use
        # two distinct seeds and compare against the manual mean
        cfg.seeds = [3, 4]
        run(cfg)
        rows = report(tmp_path / "out")
        summaries = [
            json.load(open(p)) for p in (tmp_path / "out").glob("*.summary.json")
        ]
        manual = np.mean([s["cost_total"] for s in summaries])
        assert rows[0]["cost_total_mean"] == pytest.approx(manual)

    def test_report_csv_output(self, tmp_path):
        cfg = small_cfg(tmp_path, policies=["stationary", "minc-known"])
        run(cfg)
        out_csv = tmp_path / "agg.csv"
        report(tmp_path / "out", out_path=out_csv)
        rows = list(csv.DictReader(open(out_csv)))
        assert {r["policy"] for r in rows} == {"stationary", "minc-known"}


class TestCli:
    def test_run_and_report_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "cli_out"
        code = cli_main(
            [
                "run",
                "--kind", "synthetic",
                "--steps", "5",
                "--seeds", "1",
                "--policies", "stationary",
                "--out", str(out),
                "--set", "grid=[3,3]",
                "--set", "n_contexts=4",
            ]
        )
        assert code == 0
        assert (out / "manifest.json").exists()
        assert cli_main(["report", "--dir", str(out)]) == 0
        assert "stationary" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "kind": "synthetic",
                    "policies": ["stationary"],
                    "seeds": [1],
                    "steps": 3,
                    "grid": [3, 3],
                    "n_contexts": 4,
                    "out_dir": str(tmp_path / "a"),
                }
            )
        )
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
        assert code == 0
        assert (tmp_path / "b" / "manifest.json").exists()
        assert not (tmp_path / "a").exists()

    def test_bad_config_exit_one(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 1

    def test_mts_demo_prints_walkthrough(self, capsys):
        assert cli_main(["mts-demo"]) == 0
        text = capsys.readouterr().out
        assert "processing order" in text
        assert "root cost" in text


class TestMtsDemoContent:
    def test_children_processed_before_parents(self):
        text = mts_demo()
        lines = [l for l in text.splitlines() if l.startswith("vertex")]
        seen = []
        for line in lines:
            v = int(line.split()[1])
            kids = json.loads(line.split("children ")[1].split(":")[0])
            for c in kids:
                if c <= 6:  # internal vertices of the demo tree
                    assert c in seen
            seen.append(v)


def test_wind_gp_config_passthrough(tmp_path):
    cfg = small_cfg(
        tmp_path,
        kind="wind",
        policies=["cgp-lcb"],
        steps=6,
        wind_hours=6,
        starts=[3],
        wind_gp={"lengthscale": 2.0, "outputscale": 4.0, "lam": 1.5},
    )
    assert run(cfg) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_parallel_workers_match_sequential(tmp_path, monkeypatch):
    cfg_a = small_cfg(tmp_path, policies=["stationary", "minc-known"], out_dir=str(tmp_path / "seq"))
    assert run(cfg_a) == 0
    monkeypatch.setenv("GPMD_WORKERS", "2")
    cfg_b = small_cfg(tmp_path, policies=["stationary", "minc-known"], out_dir=str(tmp_path / "par"))
    assert run(cfg_b) == 0
    for p in sorted((tmp_path / "seq").glob("*.steps.csv")):
        q = tmp_path / "par" / p.name
        assert p.read_bytes() == q.read_bytes()
