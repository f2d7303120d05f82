"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload synth-gp --seed 0 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` and
driven through ``gpmd run`` (``gpmd.cli.main``) with one worker and one BLAS
thread. ``--seed`` picks three program seeds, so that a run measures three
random trees instead of one. An untimed set-up sweep (one step per episode)
at each program seed warms the process up. Then the run repeats cycles of a
set-up sweep and a full sweep at each program seed until ``--seconds`` have
passed. With ``--trace 1`` a cycle is a plain and a traced full sweep at each
program seed, and the run reports per-layer numbers. Every sweep's output is
checked. The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` cells, and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import END_TO_END, PER_LAYER, WORKLOADS, Workload, gpmd_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SEEDS_PER_RUN = 3
SEED_RETRY_STRIDE = 1_000_000
MAX_SEED_CANDIDATES = 30
# frt_embed can build a tree that its own weight-decay check rejects by one
# rounding step when distances are large (see CHANGES.md). Every cell of
# such a program seed fails, and only on those seeds, so the run leaves the
# seed out and takes the next candidate.
FRT_FAULT = "weight decay violated"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def seed_candidates(seed: int):
    """Program seeds for a benchmark seed: 3s, 3s+1, 3s+2, then the same plus k million."""
    for k in itertools.count():
        for j in range(SEEDS_PER_RUN):
            yield SEEDS_PER_RUN * seed + j + SEED_RETRY_STRIDE * k


class Sweeps:
    """Runs and checks the sweeps of one workload run in ``work``."""

    def __init__(self, w: Workload, seed: int, work: Path):
        import checks
        import inputs
        from gpmd import cli

        self.w, self.bench_seed, self.work = w, seed, work
        self._checks, self._cli = checks, cli
        self.wind = None
        self.dataset = None
        if w.kind == "wind":
            altitudes = inputs.wind_altitudes(w.altitudes)
            speeds = inputs.wind_speeds(seed, w.steps, altitudes)
            self.dataset = work / "wind.csv"
            inputs.write_wind_csv(self.dataset, speeds, altitudes)
            self.wind = checks.WindInputs(altitudes, speeds)
        self.seeds: list = []  # program seeds in use
        self.left_out: list = []
        self.results: list = []  # one SweepCheck per sweep
        self.errors: list = []
        self._digests: dict = {}

    def _sweep(self, seed: int, steps: int, label: str, tracer=None):
        out = self.work / label
        shutil.rmtree(out, ignore_errors=True)
        argv = gpmd_argv(self.w, seed, out, steps, self.dataset)
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            rc = self._cli.main(argv)
            elapsed = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        return elapsed, out, rc

    def _check(self, seed: int, steps: int, label: str, out: Path, rc: int) -> None:
        res = self._checks.check_sweep(self.w, seed, out, steps, rc, self.wind)
        self.results.append(res)
        self.errors += [f"{label} sweep, seed {seed}: {e}" for e in res.errors]
        # Every sweep of one program seed at one horizon writes the same bytes.
        digest = self._checks.steps_digest(out)
        first = self._digests.setdefault((seed, steps), digest)
        if digest != first:
            diff = sorted(k for k in first.keys() | digest.keys() if first.get(k) != digest.get(k))
            self.errors.append(f"{label} sweep, seed {seed}: step CSVs differ from the first: {diff}")

    def run(self, seed: int, steps: int, label: str, tracer=None) -> float:
        """One checked sweep; returns its wall time. Output goes to ``work/label``."""
        elapsed, out, rc = self._sweep(seed, steps, label, tracer)
        self._check(seed, steps, label, out, rc)
        return elapsed

    def warm_up(self) -> None:
        """Untimed set-up sweeps that pick the program seeds and warm the process up."""
        for seed in itertools.islice(seed_candidates(self.bench_seed), MAX_SEED_CANDIDATES):
            _, out, rc = self._sweep(seed, 1, "setup")
            if any(FRT_FAULT in p.read_text() for p in out.glob("*.failed.json")):
                self.left_out.append(seed)
                print(f"left out: program seed {seed}: its FRT tree fails the weight-decay check")
                continue
            self._check(seed, 1, "setup", out, rc)
            self.seeds.append(seed)
            if len(self.seeds) == SEEDS_PER_RUN:
                return
        raise RuntimeError(f"no {SEEDS_PER_RUN} usable program seeds among {MAX_SEED_CANDIDATES}")

    @property
    def attempted(self) -> int:
        return sum(r.cells for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.results)


def measure(sweeps: Sweeps, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    w = sweeps.w
    sweeps.warm_up()
    full, setup = [], []
    deadline = perf_counter() + seconds
    while not full or perf_counter() < deadline:
        for seed in sweeps.seeds:
            setup.append(sweeps.run(seed, 1, "setup"))
            full.append(sweeps.run(seed, w.steps, "full"))
    print(f"program seeds: {sweeps.seeds}")
    print(f"full sweeps (s): {' '.join(f'{t:.4f}' for t in full)}")
    print(f"set-up sweeps (s): {' '.join(f'{t:.4f}' for t in setup)}")
    return {
        # All full sweeps of the run taken together, as one sweep over the
        # program seeds.
        "steps_per_s": w.steps_per_sweep * len(full) / sum(full),
        "setup_s": statistics.median(setup),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def idle_layers(w: Workload) -> tuple:
    """Layers the workload must never call, by name prefix."""
    idle = ("wind.",) if w.kind == "synthetic" else ()
    if not {"gp-md", "cgp-lcb"} & set(w.policies):
        idle += ("gp.", "policies.bounds")
    return idle


def measure_traced(sweeps: Sweeps, seconds: float) -> dict:
    """Per-layer metrics from traced sweeps, each paired with a plain one."""
    import numpy as np

    from checks import cost_ratio
    from spans import Tracer

    w = sweeps.w
    sweeps.warm_up()
    plain, traced, tracers, lead = [], [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        for seed in sweeps.seeds:
            plain.append(sweeps.run(seed, w.steps, "plain"))
            lead.append(sweeps.results[-1])
            tracer = Tracer()
            # ``Sweeps.run`` holds the traced step CSVs to the plain ones.
            traced.append(sweeps.run(seed, w.steps, "traced", tracer=tracer))
            tracers.append(tracer)

    for name in tracers[0].absent:
        print(f"absent: {name}")
    uncounted = set().union(*(t.uncounted for t in tracers))
    for name in sorted(uncounted):
        print(f"uncounted: {name}")

    n = len(tracers)
    metrics = {name: 0.0 for name in PER_LAYER}
    for tracer, sweep_s in zip(tracers, traced):
        self_s = tracer.self_times()
        root = tracer.root_time()
        if abs(sum(self_s.values()) - root) > 1e-6:
            sweeps.errors.append(f"span self times sum to {sum(self_s.values())}, roots to {root}")
        for layer, busy in self_s.items():
            if f"{layer}_s" in metrics:
                metrics[f"{layer}_s"] += busy / n
        for layer in {span[0] for span in tracer.spans}:
            if f"{layer}_calls" in metrics:
                metrics[f"{layer}_calls"] += tracer.calls(layer) / n
        for counter, value in tracer.counts.items():
            metrics[counter] += value / n
        metrics["gp.train_points"] += tracer.train_points / n
        metrics["harness.sweep_s"] += sweep_s / n
        metrics["harness.other_s"] += (sweep_s - root) / n
    acts = np.concatenate([t.durations_ms("policies.act") for t in tracers])
    if acts.size:
        metrics["policies.act_ms_p50"] = float(np.percentile(acts, 50))
        metrics["policies.act_ms_p99"] = float(np.percentile(acts, 99))
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    metrics["decisions.cost_ratio"] = cost_ratio(lead[: len(sweeps.seeds)])

    for prefix in idle_layers(w):
        called = [k for k, v in metrics.items() if k.startswith(prefix) and k.endswith("_calls") and v]
        if called:
            sweeps.errors.append(f"layers {called} were called on {w.name}")
    print(f"policies.act samples: {acts.size}; traced sweeps: {n}")
    OUT.mkdir(exist_ok=True)
    tracers[-1].write(OUT / f"{w.name}-seed{sweeps.bench_seed}.spans.jsonl", tracers[-1].spans[0][1])
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gpmd" / "__init__.py").is_file():
        print(f"error: the program's source {src / 'gpmd'} is missing", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before numpy loads: on two cores the default
    # pool spends more CPU than it saves and makes timings wander.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["GPMD_WORKERS"] = "1"
    sys.path.insert(0, str(src))
    import gpmd

    if Path(gpmd.__file__).resolve().parent != (src / "gpmd").resolve():
        print(f"error: imported gpmd from {gpmd.__file__}, not {src}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-seed{args.seed}-", dir=OUT))
    try:
        sweeps = Sweeps(w, args.seed, work)
        if args.trace:
            values, names = measure_traced(sweeps, args.seconds), PER_LAYER
        else:
            values, names = measure(sweeps, args.seconds), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in sweeps.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not sweeps.errors,
        "attempted": sweeps.attempted,
        "failed": sweeps.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in names.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
