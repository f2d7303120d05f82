import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpmd import harness
from gpmd.cli import main as cli_main
from gpmd.harness import (
    RunConfig,
    apply_overrides,
    build_synthetic_env,
    mts_demo,
    report,
    rng_stream,
    run,
    run_cell,
)
from gpmd.policies import (
    POLICY_NAMES,
    ArgminPolicy,
    ExactCostModel,
    GpServiceModel,
    MirrorDescentPolicy,
    StationaryPolicy,
)

from conftest import optimal_coupling, write_wind_csv


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
    @pytest.mark.parametrize(
        "overrides, bad",
        [
            pytest.param(dict(seeds=[], steps=0, policies=["nope"]), {"seeds", "steps", "policies"},
                         id="combined"),
            pytest.param(dict(grid=[0, 5]), {"grid"}, id="grid"),
            pytest.param(dict(kappa=math.nan), {"kappa"}, id="kappa-nan"),
            pytest.param(dict(kappa="nan"), {"kappa"}, id="kappa-text"),
            pytest.param(dict(steps="5"), {"steps"}, id="steps-text"),
            pytest.param(dict(tau="x"), {"tau"}, id="tau-text"),
            pytest.param(dict(rhos=["a"]), {"rhos"}, id="rhos-text"),
            pytest.param(dict(rhos=[]), {"rhos"}, id="rhos-empty"),
            pytest.param(dict(policies=[]), {"policies"}, id="policies-empty"),
            pytest.param(dict(n_contexts=0), {"n_contexts"}, id="n_contexts"),
            pytest.param(dict(lengthscale=0), {"lengthscale"}, id="lengthscale"),
            pytest.param(dict(kind="wind", wind_obs_noise=-1), {"wind_obs_noise"}, id="wind_obs_noise"),
            pytest.param(dict(kind="wind", wind_hours=0), {"wind_hours"}, id="wind_hours"),
            pytest.param(dict(policies=5), {"policies"}, id="policies-int"),
            pytest.param(dict(seeds=3), {"seeds"}, id="seeds-int"),
            pytest.param(dict(rhos=2), {"rhos"}, id="rhos-int"),
            pytest.param(dict(kind="wind", starts=3), {"starts"}, id="starts-int"),
            pytest.param(dict(kind="wind", starts=[0, -1]), {"starts"}, id="starts-negative"),
            pytest.param(dict(regret_alpha=-1), {"regret_alpha"}, id="regret_alpha-negative"),
            pytest.param(dict(regret_alpha=math.inf), {"regret_alpha"}, id="regret_alpha-inf"),
            pytest.param(dict(regret_beta="x"), {"regret_beta"}, id="regret_beta-text"),
        ],
    )
    def test_validation_messages(self, tmp_path, capsys, overrides, bad):
        # Each bad value is a "field: message" config error: exit 1, no output.
        cfg = small_cfg(tmp_path, **overrides)
        assert {e.split(":")[0] for e in cfg.validate()} == bad
        assert run(cfg) == 1
        out = capsys.readouterr().out
        assert all(f"config error: {field}:" in out for field in bad)
        assert not (tmp_path / "out").exists()

    def test_regret_weights_accepted(self, tmp_path):
        assert small_cfg(tmp_path, regret_alpha=2.5, regret_beta=-1.0).validate() == []
        assert small_cfg(tmp_path, kind="wind", starts=[0, 3]).validate() == []

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

    def test_wind_runs_take_a_constant_beta(self, tmp_path, capsys):
        code = cli_main(
            ["run", "--kind", "wind", "--set", "beta_mode=theory", "--policies", "gp-md",
             "--steps", "5", "--set", "wind_hours=5", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "beta_mode: wind runs take a constant beta" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["synthetic", "wind"])
    def test_negative_beta_value_rejected(self, tmp_path, capsys, kind):
        code = cli_main(
            ["run", "--kind", kind, "--policies", "gp-md", "--steps", "20",
             "--set", "wind_hours=20", "--set", "grid=[3,3]", "--set", "beta_value=-3",
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "beta_value: must be non-negative" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()

    def test_misspelled_wind_gp_and_energy_keys_rejected(self, tmp_path, capsys):
        code = cli_main(
            ["run", "--kind", "wind", "--policies", "gp-md,cgp-lcb", "--steps", "100",
             "--set", "wind_hours=100", "--set", "wind_gp.lenghtscale=0.05",
             "--set", "energy.vrated=10", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "wind_gp: unknown key 'lenghtscale'" in out
        assert "energy: unknown key 'vrated'" in out
        assert not (tmp_path / "o").exists()
        known = small_cfg(tmp_path, kind="wind", energy={"v_rated": 10.0, "dt_minutes": 30.0},
                          wind_gp={"lengthscale": 2.0, "outputscale": 4.0, "lam": 1.5})
        assert known.validate() == []

    @pytest.mark.parametrize(
        "policy, override, message",
        [
            ("stationary", 'energy.v_rated="abc"', "energy.v_rated: must be positive"),
            ("stationary", "energy.c1=-1", "energy.c1: must be positive"),
            ("cgp-lcb", "wind_gp.lam=0", "wind_gp.lam: must be positive"),
            ("cgp-lcb", 'wind_gp.lengthscale="x"', "wind_gp.lengthscale: must be positive"),
            ("cgp-lcb", "wind_gp.lengthscale=-1", "wind_gp.lengthscale: must be positive"),
        ],
        ids=["v_rated-string", "c1-negative", "lam-zero", "lengthscale-string",
             "lengthscale-negative"],
    )
    def test_bad_wind_gp_and_energy_values_rejected(self, tmp_path, capsys, policy, override,
                                                    message):
        code = cli_main(
            ["run", "--kind", "wind", "--policies", policy, "--steps", "2",
             "--set", "wind_hours=4", "--set", override, "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert capsys.readouterr().out == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_hash_stable(self, tmp_path):
        assert small_cfg(tmp_path).config_hash() == small_cfg(tmp_path).config_hash()


class TestCellPolicy:
    # name -> (policy class, cost model class); every name must be here.
    BUILDS = {
        "gp-md": (MirrorDescentPolicy, GpServiceModel),
        "cgp-lcb": (ArgminPolicy, GpServiceModel),
        "md-known": (MirrorDescentPolicy, ExactCostModel),
        "minc-known": (ArgminPolicy, ExactCostModel),
        "stationary": (StationaryPolicy, ExactCostModel),
    }

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_each_name_builds_its_policy_on_its_cost_model(self, tmp_path, name):
        cfg = small_cfg(tmp_path, kappa=2.0)
        env = build_synthetic_env(cfg, 1)
        pol = harness._cell_policy(cfg, env, name, 0.5, 1)
        policy_cls, model_cls = self.BUILDS[name]
        assert type(pol) is policy_cls and type(pol.cost_model) is model_cls
        assert pol.n_actions == env.f.shape[0]
        if model_cls is ExactCostModel:
            assert pol.cost_model.table is env.f
        else:
            assert pol.cost_model.featurize is env.featurize
            assert pol.cost_model.to_cost is env.to_cost
        if policy_cls is MirrorDescentPolicy:
            assert pol.tree is env.tree and pol.rho == 0.5 and pol.engine.params.kappa == 2.0
            assert pol.rng.random() == rng_stream(1, "sampling").random()

    def test_only_gp_md_takes_the_update_mode(self, tmp_path):
        # cgp-lcb learns every step whatever the config says; each learner
        # gets a GP of its own.
        cfg = small_cfg(tmp_path, update_mode="per-episode")
        env = build_synthetic_env(cfg, 1)
        gp_md, cgp_lcb = (harness._cell_policy(cfg, env, n, 1.0, 1) for n in ("gp-md", "cgp-lcb"))
        assert gp_md.cost_model.update_mode == "per-episode"
        assert cgp_lcb.cost_model.update_mode == "per-step"
        assert gp_md.cost_model.gp is not cgp_lcb.cost_model.gp

    def test_unknown_policy_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli_main(["run", "--policies", "mystery", "--out", str(out)]) == 1
        assert capsys.readouterr().out == "config error: policies: unknown policy 'mystery'\n"
        assert not out.exists()


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
        expected = rho * env.f[x0, env.contexts[0]].sum()
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

    def test_regret_and_totals_from_the_steps(self, tmp_path):
        alpha, beta = 2.5, 0.75
        cfg = small_cfg(
            tmp_path, policies=["md-known"], steps=20, episodes=3, regret_alpha=alpha,
            regret_beta=beta,
        )
        assert run(cfg) == 0
        out = tmp_path / "out"
        summary = json.load(open(next(out.glob("md-known*.summary.json"))))
        rows = list(csv.DictReader(open(next(out.glob("md-known*.steps.csv")))))

        def left_to_right(values):
            total = 0.0
            for v in values:
                total += v
            return total

        service = [left_to_right(float(r["service"]) for r in rows if r["episode"] == str(m))
                   for m in (1, 2, 3)]
        movement = [left_to_right(float(r["movement"]) for r in rows if r["episode"] == str(m))
                    for m in (1, 2, 3)]
        assert summary["service_total"] == left_to_right(service)
        assert summary["movement_total"] == left_to_right(movement)
        assert summary["movement_total"] > 0.0
        costs = np.array(summary["episode_costs"])
        assert costs.tolist() == [s + m for s, m in zip(service, movement)]
        assert summary["cost_total"] == left_to_right(costs.tolist())

        regret = summary["regret"]
        optima = np.array(summary["offline_optimal_costs"])
        assert (regret["alpha"], regret["beta"]) == (alpha, beta)
        assert regret["per_episode"] == (costs - alpha * optima - beta).tolist()
        cumulative = np.cumsum(regret["per_episode"])
        assert regret["average_series"] == (cumulative / np.arange(1, 4)).tolist()
        assert regret["total"] == cumulative[-1]


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
        record = json.loads(failed[0].read_text())
        assert record["phase"] == "cell" and record["seed"] == 0
        # the cell fails before its first step
        assert record["episode"] is None and record["step"] is None
        assert "5000 steps" in record["error"] and "48 rows" in record["error"]
        assert not list(out.glob("*.steps.csv"))

    @pytest.mark.parametrize("starts", ["99", "3,99"])
    def test_start_beyond_table_fails_the_env(self, tmp_path, starts):
        # The altitude count is known only once the table is read, so a
        # start beyond it fails the seed's environment, not each cell.
        out = tmp_path / "o"
        code = cli_main(
            ["run", "--kind", "wind", "--policies", "stationary", "--steps", "5",
             "--set", "wind_hours=5", "--starts", starts, "--out", str(out)]
        )
        assert code == 2
        failed = list(out.glob("*.failed.json"))
        assert len(failed) == len(starts.split(","))
        for path in failed:
            record = json.loads(path.read_text())
            assert record["phase"] == "env"
            assert "starts: 99 is beyond the table's 25 altitudes" in record["error"]
        assert not list(out.glob("*.steps.csv"))

    def test_dataset_csv_replay(self, tmp_path):
        from gpmd.wind import default_altitudes, synthetic_wind_table

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

    @pytest.mark.parametrize("override", ["grid.x=1", "steps.x=1"])
    def test_override_below_a_non_mapping_is_a_config_error(self, tmp_path, capsys, override):
        out = tmp_path / "o"
        assert cli_main(["run", "--out", str(out), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "is not a mapping" in err
        assert not out.exists()

    def test_non_integer_worker_count_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GPMD_WORKERS", "abc")
        out = tmp_path / "o"
        code = cli_main(
            ["run", "--policies", "stationary", "--steps", "3", "--out", str(out),
             "--set", "grid=[3,3]"]
        )
        assert code == 1
        assert capsys.readouterr().out == "config error: GPMD_WORKERS: must be an integer, got 'abc'\n"
        assert not out.exists()

    def test_mts_demo_prints_walkthrough(self, capsys):
        assert cli_main(["mts-demo"]) == 0
        text = capsys.readouterr().out
        assert "processing order" in text
        assert "root cost" in text


    def test_mts_demo_is_not_a_run_kind(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["run", "--kind", "mts-demo", "--out", str(tmp_path / "o")])
        assert "kind: unknown experiment kind 'mts-demo'" in small_cfg(tmp_path, kind="mts-demo").validate()


MTS_DEMO_SEED_7 = """\
depth-3 binary tree, 8 leaves; leaf costs: 1.25, 1.794, 1.551, 0.45, 0.6, 1.747, 0.011, 1.642
processing order (children before parents): 3, 4, 5, 6, 1, 2, 0
vertex  3 children [7, 8]: q [1.0, 0.0] -> [1.0, 0.0], cost 1.2500
vertex  4 children [9, 10]: q [0.5, 0.5] -> [0.0, 1.0], cost 0.4500
vertex  5 children [11, 12]: q [0.5, 0.5] -> [1.0, 0.0], cost 0.6000
vertex  6 children [13, 14]: q [0.5, 0.5] -> [1.0, 0.0], cost 0.0110
vertex  1 children [3, 4]: q [1.0, 0.0] -> [0.8026, 0.1974], cost 1.0921
vertex  2 children [5, 6]: q [0.5, 0.5] -> [0.3057, 0.6943], cost 0.1911
vertex  0 children [1, 2]: q [1.0, 0.0] -> [0.8972, 0.1028], cost 0.9995
leaf distribution: 0.7201, 0.0000, 0.0000, 0.1771, 0.0314, 0.0000, 0.0714, 0.0000
root cost (expected leaf cost): 0.999455"""


class TestMtsDemoContent:
    def test_default_seed_text(self):
        assert mts_demo() == MTS_DEMO_SEED_7

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


def _artifacts(out):
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name == "manifest.json" or p.name.endswith((".steps.csv", ".summary.json"))
    }


def test_parallel_workers_match_sequential(tmp_path, monkeypatch):
    # Both runs write to the same directory, so the manifests' configs match.
    cfg = small_cfg(tmp_path, policies=["stationary", "minc-known"], seeds=[1, 2], rhos=[0.5, 1.0])
    out = tmp_path / "out"
    assert run(cfg) == 0
    sequential = _artifacts(out)
    for p in out.iterdir():
        p.unlink()
    monkeypatch.setenv("GPMD_WORKERS", "2")
    assert run(cfg) == 0
    parallel = _artifacts(out)
    assert len(sequential) == 1 + 2 * 2 * 2 * 2
    assert sequential.keys() == parallel.keys()
    for name in sequential:
        assert sequential[name] == parallel[name], name


def test_walked_row_sampler_matches_the_full_coupling(tmp_path, monkeypatch):
    # The same run with every step drawn from the full coupling's row writes
    # byte-identical step CSVs.
    from gpmd import policies

    def coupling_sampler(tree, a, b, prev, rng, diag=None):
        js, ms = optimal_coupling(tree, a, b).conditional_row(prev)
        assert ms.sum() > 0.0
        return int(rng.choice(js, p=ms / ms.sum()))

    cfg = small_cfg(
        tmp_path, policies=["md-known", "gp-md"], seeds=[1, 2], steps=25, episodes=2,
        grid=[6, 6],
    )
    out = tmp_path / "out"
    assert run(cfg) == 0
    walked = _artifacts(out)
    for p in out.iterdir():
        p.unlink()
    monkeypatch.setattr(policies, "sample_next", coupling_sampler)
    assert run(cfg) == 0
    full = _artifacts(out)
    steps = [name for name in walked if name.endswith(".steps.csv")]
    assert len(steps) == 2 * 2
    for name in steps:
        assert walked[name] == full[name], name


class TestSeedSharing:
    @staticmethod
    def count(monkeypatch, attr):
        calls = []
        original = getattr(harness, attr)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, attr, counted)
        return calls

    def test_synthetic_env_and_dp_once_per_seed(self, tmp_path, monkeypatch):
        builds = self.count(monkeypatch, "build_synthetic_env")
        dps = self.count(monkeypatch, "offline_optimal_matrix")
        cfg = small_cfg(
            tmp_path,
            policies=["stationary", "minc-known", "md-known"],
            seeds=[1, 2],
            rhos=[0.5, 1.0],
            episodes=2,
        )
        assert run(cfg) == 0
        assert len(builds) == 2
        assert len(dps) == 2 * 2 * 2  # seeds x rhos x episodes
        assert len(list((tmp_path / "out").glob("*.summary.json"))) == 2 * 2 * 3

    def test_wind_env_once_and_dp_once_per_rho(self, tmp_path, monkeypatch):
        builds = self.count(monkeypatch, "build_wind_env")
        dps = self.count(monkeypatch, "offline_optimal_matrix")
        cfg = small_cfg(
            tmp_path,
            kind="wind",
            policies=["stationary", "minc-known", "md-known"],
            rhos=[1.0, 2.0],
            steps=12,
            wind_hours=12,
            starts=[3],
        )
        assert run(cfg) == 0
        assert len(builds) == 1
        assert len(dps) == 2

    def test_shared_optima_equal_fresh_envs(self, tmp_path):
        cfg = small_cfg(tmp_path, episodes=2)
        shared = build_synthetic_env(cfg, 1)
        for rho, policy in ((0.5, "md-known"), (1.0, "stationary"), (0.5, "stationary")):
            _, reused = run_cell(cfg, shared, policy, rho, 1, None)
            _, fresh = run_cell(cfg, build_synthetic_env(cfg, 1), policy, rho, 1, None)
            assert reused["offline_optimal_costs"] == fresh["offline_optimal_costs"]


def test_env_failure_fails_only_its_seed(tmp_path, monkeypatch):
    build = harness.build_synthetic_env

    def faulty(cfg, seed):
        if seed == 2:
            raise RuntimeError("no environment for seed 2")
        return build(cfg, seed)

    monkeypatch.setattr(harness, "build_synthetic_env", faulty)
    cfg = small_cfg(tmp_path, policies=["stationary", "minc-known"], seeds=[1, 2], rhos=[0.5, 1.0])
    assert run(cfg) == 2
    out = tmp_path / "out"
    failed = {p.name: json.loads(p.read_text()) for p in out.glob("*.failed.json")}
    assert len(failed) == 2 * 2
    for name, record in failed.items():
        assert "_seed2_" in name and record["cell"] + ".failed.json" == name
        assert record["seed"] == 2 and record["phase"] == "env"
        assert record["episode"] is None and record["step"] is None
        assert "Traceback" in record["error"] and "no environment for seed 2" in record["error"]
    assert len(list(out.glob("*_seed1_*.steps.csv"))) == 2 * 2
    assert len(list(out.glob("*_seed1_*.summary.json"))) == 2 * 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["failed"]) == sorted(r["cell"] for r in failed.values())
    assert len(manifest["cells"]) == 2 * 2 * 2


def test_cell_failure_spares_the_other_policies(tmp_path, monkeypatch):
    from gpmd import policies

    original = policies.ArgminPolicy.act
    calls = []

    def faulty(self, context):
        calls.append(context)
        if len(calls) == 6 + 3:  # episode 2, step 3 of minc-known
            raise RuntimeError("policy broke")
        return original(self, context)

    monkeypatch.setattr(policies.ArgminPolicy, "act", faulty)
    cfg = small_cfg(tmp_path, policies=["stationary", "minc-known", "md-known"], episodes=2)
    assert run(cfg) == 2
    out = tmp_path / "out"
    (failed,) = out.glob("*.failed.json")
    record = json.loads(failed.read_text())
    assert failed.name.startswith("minc-known_seed1_")
    assert record["seed"] == 1 and record["phase"] == "cell"
    assert (record["episode"], record["step"]) == (2, 3)
    assert "Traceback" in record["error"] and "policy broke" in record["error"]
    assert {p.name.split("_")[0] for p in out.glob("*.summary.json")} == {"stationary", "md-known"}


def test_episode_end_failure_names_its_episode(tmp_path, monkeypatch):
    # A per-episode learner flushes its GP at each episode's end, outside
    # every step: the failure names the episode and no step.
    from gpmd.gp import GpModel

    original = GpModel.update
    calls = []

    def faulty(self, X, y):
        calls.append(len(y))
        if len(calls) == 2:
            raise RuntimeError("flush broke")
        return original(self, X, y)

    monkeypatch.setattr(GpModel, "update", faulty)
    cfg = small_cfg(tmp_path, policies=["gp-md"], episodes=3, update_mode="per-episode")
    assert run(cfg) == 2
    (failed,) = (tmp_path / "out").glob("*.failed.json")
    record = json.loads(failed.read_text())
    assert record["phase"] == "cell"
    assert (record["episode"], record["step"]) == (2, None)
    assert calls == [6, 6] and "flush broke" in record["error"]


def test_large_costs_converge(tmp_path):
    # rho = 1e9 scales every service cost: the solver shifts each child
    # set's costs by their minimum, so no row loses the precision it needs.
    out = tmp_path / "o"
    code = cli_main(
        ["run", "--kind", "synthetic", "--policies", "md-known", "--seeds", "0",
         "--rho", "1e9", "--steps", "5", "--out", str(out)]
    )
    assert code == 0
    assert not list(out.glob("*.failed.json"))


def test_forty_by_forty_grid_runs(tmp_path):
    # 1,600 actions: the metric, the FRT tree, the synthetic instance,
    # 1,600-row GP queries and the offline DP at n >= 1600.
    out = tmp_path / "o"
    code = cli_main(
        ["run", "--kind", "synthetic", "--policies", "md-known,gp-md", "--seeds", "0",
         "--steps", "5", "--set", "grid=[40,40]", "--out", str(out)]
    )
    assert code == 0
    assert not list(out.glob("*.failed.json"))
    summaries = sorted(p.name for p in out.glob("*.summary.json"))
    assert summaries == [
        "gp-md_seed0_rho1_startauto.summary.json",
        "md-known_seed0_rho1_startauto.summary.json",
    ]


def _check_cell_invariants(out, env, rho, start=None):
    """Every steps.csv row against the env's tables, and the summary's regret."""
    (steps_path,) = out.glob("*.steps.csv")
    rows = list(csv.DictReader(open(steps_path)))
    assert len(rows) == env.contexts.size
    for r in rows:
        m, h, action = int(r["episode"]) - 1, int(r["step"]) - 1, int(r["action"])
        if h == 0:
            prev = int(env.x0[m]) if start is None else start
            cum = 0.0
        key = int(env.contexts[m, h])
        assert float(r["movement"]) == env.dist[prev, action]
        assert float(r["service"]) == rho * env.f[action, key]
        cum += float(r["service"]) + float(r["movement"])
        assert float(r["cum_total"]) == cum
        prev = action
    (summary_path,) = out.glob("*.summary.json")
    summary = json.loads(summary_path.read_text())
    alpha = summary["regret"]["alpha"]
    assert summary["regret"]["total"] == pytest.approx(
        summary["cost_total"] - alpha * summary["offline_optimal_total"], rel=1e-12
    )


def test_synthetic_cell_invariants(tmp_path):
    cfg = small_cfg(tmp_path, policies=["gp-md"], rhos=[0.7], steps=8, episodes=2)
    assert run(cfg) == 0
    _check_cell_invariants(tmp_path / "out", build_synthetic_env(cfg, 1), 0.7)


def test_wind_cell_invariants(tmp_path):
    cfg = small_cfg(
        tmp_path, kind="wind", policies=["gp-md"], rhos=[2.0], steps=24, wind_hours=30,
        starts=[3], wind_obs_noise=0.5,
    )
    assert run(cfg) == 0
    _check_cell_invariants(tmp_path / "out", harness.build_wind_env(cfg, 1), 2.0, start=3)


@settings(max_examples=60, deadline=None)
# the largest grid at rho = 1e9, where the solver needs its cost shift
@example(rows=5, cols=5, steps=4, policy="md-known", rho=1e9, kappa=1.0, seed=0)
@example(rows=5, cols=5, steps=4, policy="gp-md", rho=1e9, kappa=50.0, seed=0)
@given(
    rows=st.integers(2, 5),
    cols=st.integers(2, 5),
    steps=st.integers(1, 4),
    policy=st.sampled_from(POLICY_NAMES),
    rho=st.sampled_from([0.5, 1.0, 1e3, 1e9]),
    kappa=st.sampled_from([1.0, 50.0]),
    seed=st.integers(0, 3),
)
def test_cell_invariants_over_random_configs(rows, cols, steps, policy, rho, kappa, seed):
    # Large rho and kappa are where the mirror-descent solver is most
    # likely to lose precision; every cell must still run and add up.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = small_cfg(
            Path(tmp), policies=[policy], seeds=[seed], rhos=[rho], kappa=kappa,
            grid=[rows, cols], steps=steps, episodes=2,
        )
        assert run(cfg) == 0
        out = Path(tmp) / "out"
        assert not list(out.glob("*.failed.json"))
        _check_cell_invariants(out, build_synthetic_env(cfg, seed), rho)
