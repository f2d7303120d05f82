"""Quick tests of the benchmark itself: its output checks, its trace and its names.

    python3 -m pytest -q perfbench/tests
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run
import spans
from gpmd import cli
from workloads import END_TO_END, PER_LAYER, Workload, cell_names, gpmd_argv

BENCH = Path(__file__).resolve().parents[1]

TINY_GRID = Workload(
    "tiny-grid", "synthetic", ("md-known", "minc-known"), lead="md-known",
    episodes=2, steps=6, grid=(4, 5),
)
TINY_WIND = Workload(
    "tiny-wind", "wind", ("gp-md", "stationary"), lead="gp-md",
    episodes=1, steps=12, altitudes=5, start=2,
)


def _sweep(w, tmp_path, seed=3):
    wind, dataset = None, None
    if w.kind == "wind":
        alts = inputs.wind_altitudes(w.altitudes)
        speeds = inputs.wind_speeds(seed, w.steps, alts)
        dataset = tmp_path / "wind.csv"
        inputs.write_wind_csv(dataset, speeds, alts)
        wind = checks.WindInputs(alts, speeds)
    out = tmp_path / "out"
    rc = cli.main(gpmd_argv(w, seed, out, w.steps, dataset))
    return out, rc, wind


def _tamper_movement(path: Path, row: int, delta: float):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("movement")
    rows[row][col] = repr(float(rows[row][col]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("w", [TINY_GRID, TINY_WIND], ids=lambda w: w.name)
def test_clean_sweep_passes(w, tmp_path):
    out, rc, wind = _sweep(w, tmp_path)
    res = checks.check_sweep(w, 3, out, w.steps, rc, wind)
    assert res.errors == []
    assert (res.cells, res.failed) == (len(w.policies), 0)
    assert res.lead_cost >= res.lead_optimum > 0


@pytest.mark.parametrize("w", [TINY_GRID, TINY_WIND], ids=lambda w: w.name)
def test_tampered_movement_is_rejected(w, tmp_path):
    out, rc, wind = _sweep(w, tmp_path)
    name = cell_names(w, 3)[0]
    _tamper_movement(out / f"{name}.steps.csv", row=3, delta=0.25)
    errors = checks.check_sweep(w, 3, out, w.steps, rc, wind).errors
    assert any("movement" in e for e in errors), errors


def test_missing_cell_is_rejected(tmp_path):
    w = TINY_GRID
    out, rc, _ = _sweep(w, tmp_path)
    name = cell_names(w, 3)[1]
    for suffix in (".steps.csv", ".summary.json"):
        (out / f"{name}{suffix}").unlink()
    errors = checks.check_sweep(w, 3, out, w.steps, rc).errors
    assert any(name in e and "missing" in e for e in errors), errors

    manifest = json.loads((out / "manifest.json").read_text())
    manifest["cells"].remove(name)
    (out / "manifest.json").write_text(json.dumps(manifest))
    errors = checks.check_sweep(w, 3, out, w.steps, rc).errors
    assert any("manifest" in e for e in errors), errors


def test_wrong_horizon_is_rejected(tmp_path):
    out, rc, wind = _sweep(TINY_WIND, tmp_path)
    errors = checks.check_sweep(TINY_WIND, 3, out, TINY_WIND.steps + 1, rc, wind).errors
    assert any("requested" in e for e in errors), errors


def test_offline_optimum_matches_brute_force():
    rng = np.random.default_rng(0)
    service = rng.uniform(0, 1, (3, 5))
    movement = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0))) * 0.4
    best = min(
        sum(service[a, t] + movement[p, a] for t, (p, a) in enumerate(zip((1,) + seq[:-1], seq)))
        for seq in np.ndindex(3, 3, 3, 3, 3)
    )
    assert inputs.offline_optimum(service, movement, 1) == pytest.approx(best, rel=1e-12)


def test_absent_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        spans, "TARGETS", spans.TARGETS + [("x.gone", "gpmd.harness", "no_such_function", None)]
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["gpmd.harness.no_such_function"]
    finally:
        tracer.uninstall()
    from gpmd import harness

    assert not hasattr(harness.frt_embed, "__wrapped__")


def test_every_span_layer_has_a_time_metric():
    assert {f"{layer}_s" for layer, *_ in spans.TARGETS} <= set(PER_LAYER)


def test_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == END_TO_END
    assert layers == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_seed_hitting_the_frt_fault_is_left_out(monkeypatch, tmp_path):
    from gpmd import harness

    build = harness.build_synthetic_env

    def faulty(cfg, seed):
        if seed == 13:
            raise ValueError("weight decay violated at vertex 3: 2.0000000000000004 > 10.0/5.0")
        return build(cfg, seed)

    monkeypatch.setattr(harness, "build_synthetic_env", faulty)
    sweeps = run.Sweeps(TINY_GRID, 4, tmp_path)
    sweeps.warm_up()
    assert sweeps.left_out == [13]
    assert sweeps.seeds == [12, 14, 12 + run.SEED_RETRY_STRIDE]
    assert sweeps.errors == [] and sweeps.failed == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, TINY_GRID.name, TINY_GRID)
    for var in run.THREAD_VARS + ("GPMD_WORKERS",):
        monkeypatch.setenv(var, "1")
    rc = run.main(["--workload", TINY_GRID.name, "--seed", "4", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: u for k, (u, _) in names.items()}
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["gp.update_calls"] == m["wind.bounds_calls"] == 0
        assert m["mirror.step_calls"] == TINY_GRID.episodes * TINY_GRID.steps
        assert m["harness.env_calls"] == len(TINY_GRID.policies)
        layer_self = sum(v for k, v in m.items() if k.endswith("_s") and k not in
                         ("harness.sweep_s", "harness.other_s", "trace.overhead_s"))
        assert layer_self + m["harness.other_s"] == pytest.approx(m["harness.sweep_s"], rel=1e-9)
