"""The benchmark's workloads and metric names.

Each workload is one ``gpmd run`` sweep per program seed. A run of the
benchmark repeats it in one process, at full size and cut to a single step
per episode (the set-up sweep). This module imports nothing outside the
standard library, so the names can be read without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

# The paper's airborne-wind constants, passed to the program explicitly so
# that the benchmark's own energy model in ``inputs.py`` uses the same ones.
ENERGY = {"c1": 0.0579, "c2": 0.09, "c3": 0.15, "v_rated": 12.0, "dt_minutes": 60.0}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "synthetic" or "wind"
    policies: tuple
    lead: str  # the policy whose cost ratio is reported
    episodes: int
    steps: int
    update_mode: str = "per-step"
    grid: tuple = (20, 20)
    n_contexts: int = 40
    altitudes: int = 25
    start: int = 12  # wind only: the starting altitude index

    @property
    def cells(self) -> int:
        """Cells per sweep: one program seed, one rho, one start."""
        return len(self.policies)

    @property
    def steps_per_sweep(self) -> int:
        return self.cells * self.episodes * self.steps


WORKLOADS = {
    w.name: w
    for w in (
        # GP-read heavy: gp-md refits only at episode ends, so most of its
        # work is 400-row posterior queries against a frozen model; cgp-lcb
        # updates every step beside its reads.
        Workload(
            "synth-gp",
            "synthetic",
            ("gp-md", "cgp-lcb"),
            lead="gp-md",
            episodes=8,
            steps=50,
            update_mode="per-episode",
        ),
        # No GP at all: tree work, metric validation, the FRT embedding and
        # the offline DP on a larger action set.
        Workload(
            "tree-wide",
            "synthetic",
            ("md-known", "minc-known"),
            lead="md-known",
            episodes=2,
            steps=600,
            grid=(24, 24),
        ),
        # GP-write heavy: two learners update every step (about 1000 updates
        # per sweep), each followed by a 25-row query and per-altitude bound
        # propagation; the input is a CSV the benchmark generates.
        Workload(
            "wind",
            "wind",
            ("gp-md", "cgp-lcb", "stationary"),
            lead="gp-md",
            episodes=1,
            steps=504,
        ),
    )
}


def gpmd_argv(w: Workload, seed: int, out_dir, steps: int, dataset=None) -> list[str]:
    """Arguments of the ``gpmd run`` command for one sweep of ``w``."""
    argv = [
        "run",
        "--kind", w.kind,
        "--policies", ",".join(w.policies),
        "--seeds", str(seed),
        "--rho", "1",
        "--episodes", str(w.episodes),
        "--steps", str(steps),
        "--out", str(out_dir),
        "--set", f"update_mode={w.update_mode}",
    ]
    if w.kind == "synthetic":
        argv += ["--set", f"grid=[{w.grid[0]},{w.grid[1]}]", "--set", f"n_contexts={w.n_contexts}"]
    else:
        argv += ["--dataset", str(dataset), "--starts", str(w.start)]
        for key, value in ENERGY.items():
            argv += ["--set", f"energy.{key}={value!r}"]
    return argv


def cell_names(w: Workload, seed: int) -> list[str]:
    """Names the program gives this workload's cells (see ``gpmd.harness.cell_name``)."""
    start = w.start if w.kind == "wind" else "auto"
    return [f"{p}_seed{seed}_rho1_start{start}" for p in w.policies]


# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "steps_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_S = ("s", "lower")
_N = ("count", "lower")
PER_LAYER = {
    "policies.act_s": _S,
    "policies.act_calls": _N,
    "policies.act_ms_p50": ("ms", "lower"),
    "policies.act_ms_p99": ("ms", "lower"),
    "policies.observe_s": _S,
    "policies.bounds_s": _S,
    "policies.bounds_calls": _N,
    "gp.posterior_s": _S,
    "gp.posterior_calls": _N,
    "gp.posterior_rows": _N,
    "gp.update_s": _S,
    "gp.update_calls": _N,
    "gp.update_rows": _N,
    "gp.snapshot_s": _S,
    "gp.train_points": _N,
    "wind.bounds_s": _S,
    "wind.bounds_calls": _N,
    "wind.ingest_s": _S,
    "mirror.step_s": _S,
    "mirror.step_calls": _N,
    "mirror.delta_map_s": _S,
    "transport.coupling_s": _S,
    "transport.coupling_calls": _N,
    "transport.coupling_pairs": _N,
    "transport.sample_s": _S,
    "bench.dp_s": _S,
    "bench.dp_calls": _N,
    "bench.instance_s": _S,
    "harness.env_s": _S,
    "harness.env_calls": _N,
    "metric.build_s": _S,
    "hst.frt_s": _S,
    "hst.vertices": _N,
    "harness.write_s": _S,
    "harness.sweep_s": _S,
    "harness.other_s": _S,
    "trace.overhead_s": ("s", "lower"),
    "decisions.cost_ratio": ("ratio", "lower"),
}
