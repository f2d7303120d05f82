"""Spans around the program's public functions, for the traced run.

Each target is patched where its caller looks it up: a module attribute in
the calling module (``gpmd.policies.optimal_coupling``), or a method on its
class. A target that no longer exists is recorded as absent and skipped.
Spans (name, start, end, parent) stay in memory until the run writes them.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np


def _rows(arg) -> int:
    return int(np.atleast_2d(np.asarray(arg)).shape[0])


# (layer, module, attribute path, counter).  A counter maps (args, result)
# to a number added to ``<counter name>``.
TARGETS = [
    ("policies.act", "gpmd.policies", "MirrorDescentPolicy.act", None),
    ("policies.act", "gpmd.policies", "ArgminPolicy.act", None),
    ("policies.act", "gpmd.policies", "StationaryPolicy.act", None),
    ("policies.observe", "gpmd.policies", "Policy.observe", None),
    ("policies.observe", "gpmd.policies", "ArgminPolicy.observe", None),
    ("policies.observe", "gpmd.policies", "MirrorDescentPolicy.observe", None),
    ("policies.bounds", "gpmd.policies", "GpServiceModel.lcb_costs", None),
    ("policies.bounds", "gpmd.policies", "WindServiceModel.lcb_costs", None),
    ("wind.bounds", "gpmd.policies", "propagate_bounds_all", None),
    ("transport.coupling", "gpmd.policies", "optimal_coupling",
     ("transport.coupling_pairs", lambda a, r: len(r.pairs))),
    ("transport.sample", "gpmd.policies", "sample_next", None),
    ("gp.posterior", "gpmd.gp", "GpModel.posterior",
     ("gp.posterior_rows", lambda a, r: _rows(a[1]))),
    ("gp.update", "gpmd.gp", "GpModel.update",
     ("gp.update_rows", lambda a, r: np.atleast_1d(np.asarray(a[2])).size)),
    ("gp.snapshot", "gpmd.gp", "GpModel.__init__", None),
    ("mirror.step", "gpmd.mirror", "MdEngine.step", None),
    ("mirror.delta_map", "gpmd.mirror", "MdEngine.delta_map", None),
    ("harness.env", "gpmd.harness", "build_synthetic_env", None),
    ("harness.env", "gpmd.harness", "build_wind_env", None),
    ("metric.build", "gpmd.harness", "grid_metric", None),
    ("metric.build", "gpmd.harness", "altitude_metric", None),
    ("hst.frt", "gpmd.harness", "frt_embed", ("hst.vertices", lambda a, r: r.n_vertices)),
    ("bench.instance", "gpmd.harness", "synth_instance", None),
    ("wind.ingest", "gpmd.harness", "ingest_wind_csv", None),
    ("bench.dp", "gpmd.harness", "offline_optimal_matrix", None),
    ("harness.write", "gpmd.harness", "write_steps_csv", None),
]


class Tracer:
    """Records spans while installed; ``absent`` lists targets not found."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict = defaultdict(float)
        self.train_points = 0
        self.uncounted: set = set()  # counters whose call signature no longer fits
        self.absent: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            if counter is not None:
                try:
                    counts[counter[0]] += counter[1](args, result)
                except (AttributeError, IndexError, TypeError):
                    self.uncounted.add(counter[0])
            if name == "gp.update":
                self.train_points = max(self.train_points, getattr(result, "n", 0))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.absent = absent = []
        for name, module, path, counter in TARGETS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                # Only an attribute the owner defines itself: patching an
                # inherited one would shadow the base class's.
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                absent.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, original, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Per layer: total span time minus the time of its direct children."""
        self_s: dict = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            self_s[name] += t1 - t0
            if parent >= 0:
                self_s[self.spans[parent][0]] -= t1 - t0
        return dict(self_s)

    def root_time(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def durations_ms(self, name: str) -> np.ndarray:
        return np.array([(t1 - t0) * 1e3 for n, t0, t1, _ in self.spans if n == name])

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path, origin: float) -> None:
        """Spans as JSON lines of [name, start, end, parent], times relative to ``origin``."""
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0 - origin, t1 - origin, parent]) + "\n")
