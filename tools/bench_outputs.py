"""Write the benchmark workloads' step CSVs and summaries at program seeds 0-5,
one long-horizon GP cell, one theory-width GP cell, one large-action cell
and one deep-tree cell: 92 files in all.

    python3 tools/bench_outputs.py OUT_DIR

Each workload of ``perfbench/workloads.py`` runs at full size through
``gpmd run``, with the arguments ``gpmd_argv`` builds and, for wind, the
benchmark's own wind CSV at bench seed 0. The long-horizon cell
(``OUT_DIR/long-gp-md``) is per-step gp-md on the 20x20 grid for 1,000
steps at program seed 0: its distinct-input count passes the 400 query
rows, so it reads the posterior both by the inverse multiply and by the
triangular solve. The theory-width cell (``OUT_DIR/theory-gp-md``) is
per-step gp-md on the 20x20 grid for 200 steps at program seed 0 with
``beta_mode=theory``, so its widths read the model's information gain (the
diagonal of its Cholesky factor). The large-action cell (``OUT_DIR/wide-md``)
is md-known on the 40x40 grid (1,600 actions) for one 200-step episode at
program seed 0, so its offline DP drops predecessors by both of its
domination tests. The deep-tree cell (``OUT_DIR/deep-md``) is md-known on
the 20x20 grid for 200 steps at program seed 0 with ``tau=1.01``, an FRT
tree 333 levels deep, so the coupling walk descends long chains. One worker and one BLAS thread; the manifests are
dropped. Run it in two checkouts and ``diff -r`` the two output trees to
check that a change leaves every cell's output unchanged.
"""

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ["GPMD_WORKERS"] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
from gpmd import cli  # noqa: E402
from workloads import WORKLOADS, Workload, gpmd_argv  # noqa: E402


def main(out_dir) -> int:
    rc = 0
    with tempfile.TemporaryDirectory() as tmp:
        for w in WORKLOADS.values():
            dataset = None
            if w.kind == "wind":
                altitudes = inputs.wind_altitudes(w.altitudes)
                dataset = Path(tmp) / "wind.csv"
                inputs.write_wind_csv(dataset, inputs.wind_speeds(0, w.steps, altitudes), altitudes)
            out = Path(out_dir) / w.name
            for seed in range(6):
                rc = max(rc, cli.main(gpmd_argv(w, seed, out, w.steps, dataset)))
                (out / "manifest.json").unlink()
    singles = (
        (Workload("long-gp-md", "synthetic", ("gp-md",), "gp-md", episodes=1, steps=1000), []),
        (Workload("theory-gp-md", "synthetic", ("gp-md",), "gp-md", episodes=1, steps=200),
         ["--set", "beta_mode=theory"]),
        (Workload("wide-md", "synthetic", ("md-known",), "md-known", episodes=1, steps=200,
                  grid=(40, 40)), []),
        (Workload("deep-md", "synthetic", ("md-known",), "md-known", episodes=1, steps=200),
         ["--set", "tau=1.01"]),
    )
    for w, extra in singles:
        out = Path(out_dir) / w.name
        rc = max(rc, cli.main(gpmd_argv(w, 0, out, w.steps) + extra))
        (out / "manifest.json").unlink()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
