"""Write the benchmark workloads' step CSVs and summaries at program seeds 0-5.

    python3 tools/bench_outputs.py OUT_DIR

Each workload of ``perfbench/workloads.py`` runs at full size through
``gpmd run``, with the arguments ``gpmd_argv`` builds and, for wind, the
benchmark's own wind CSV at bench seed 0. One worker and one BLAS thread;
the manifests are dropped. Run it in two checkouts and ``diff -r`` the two
output trees to check that a change leaves every cell's output unchanged.
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
from workloads import WORKLOADS, gpmd_argv  # noqa: E402


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
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
