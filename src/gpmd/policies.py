"""The movement-aware controller and the baselines it is compared against.

All policies share one interface: ``begin_episode(x0)``, ``act(context)``
returning the action index, ``observe(action, context, y)``, and
``end_episode()``. A policy reads its costs from a cost model and forwards
each observation to it: the learners' ``GpServiceModel`` buffers them and
flushes them into its own GP model, which grows in place, every step or at
episode end; the ``ExactCostModel`` of the other policies never learns.

Policies, as ``harness._cell_policy`` builds them by name:

* ``gp-md``      - confidence-bound costs fed through tree mirror descent,
                   next action sampled from the minimal-movement coupling.
* ``cgp-lcb``    - movement-blind: argmin of the confidence lower bound.
* ``md-known``   - mirror descent on the true costs (idealized benchmark).
* ``minc-known`` - per-step argmin of the true costs.
* ``stationary`` - never leaves the starting action.
"""

from __future__ import annotations

import numpy as np

from .gp import GpModel
from .hst import HstTree
from .mirror import MdEngine, PotentialParams, point_mass_state
from .transport import sample_next

POLICY_NAMES = ("gp-md", "cgp-lcb", "md-known", "minc-known", "stationary")


class ExactCostModel:
    """The true service table (one row per action, one column per context
    key): the known-f baselines' costs. Never learns."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.n_actions = self.table.shape[0]

    def lcb_costs(self, key) -> np.ndarray:
        return self.table[:, key]

    def observe(self, action, context, y):
        pass

    def end_episode(self):
        pass


def lower_bound(mean, std, beta):
    """The confidence lower bound mean - beta * std."""
    return mean - beta * std


class GpServiceModel:
    """Confidence lower bounds on the service cost from a GP over (action, context) ids.

    Context key ``key`` has the GP context id ``context_ids[key]`` (None: the
    key itself, as on synthetic runs; wind runs pass each time's hour of
    day). ``lcb_costs`` reads every action's posterior at the key's id, and
    ``observe`` trains the model, which serves this learner alone, on the
    chosen (action, context id). The posterior maps to costs through
    ``to_cost(mean, std, beta)``, by default the lower bound; a model of
    another quantity (the wind runs model the windspeed) passes the map
    from its bounds to cost bounds.
    """

    def __init__(
        self,
        gp: GpModel,
        context_ids=None,
        update_mode: str = "per-step",
        to_cost=lower_bound,
    ):
        if update_mode not in ("per-step", "per-episode"):
            raise ValueError(f"unknown update_mode {update_mode!r}")
        self.gp = gp
        self.context_ids = context_ids
        self.n_actions = gp.n_actions
        self.update_mode = update_mode
        self.to_cost = to_cost
        self._buffer: list = []  # (action, context id, y) per observation

    def _context_id(self, key) -> int:
        return key if self.context_ids is None else int(self.context_ids[key])

    def lcb_costs(self, context) -> np.ndarray:
        return self.to_cost(*self.gp.posterior(self._context_id(context)), self.gp.beta_t())

    def observe(self, action, context, y):
        self._buffer.append((action, self._context_id(context), float(y)))
        if self.update_mode == "per-step":
            self.flush()

    def flush(self):
        if self._buffer:
            self.gp.update(*zip(*self._buffer))
            self._buffer = []

    def end_episode(self):
        if self.update_mode == "per-episode":
            self.flush()


class Policy:
    """An action chooser over a cost model, which it forwards each observation to."""

    def __init__(self, cost_model):
        self.cost_model = cost_model
        self.n_actions = cost_model.n_actions
        self.x0: int | None = None

    def begin_episode(self, x0: int):
        if not 0 <= x0 < self.n_actions:
            raise ValueError(f"unknown action index {x0}")
        self.x0 = int(x0)

    def act(self, context):
        raise NotImplementedError

    def observe(self, action, context, y):
        if not np.isfinite(y):
            raise ValueError("observations must be finite")
        self.cost_model.observe(action, context, y)

    def end_episode(self):
        self.cost_model.end_episode()


class StationaryPolicy(Policy):
    """Never leaves the episode's start."""

    def act(self, context):
        if self.x0 is None:
            raise RuntimeError("begin_episode must be called first")
        return self.x0


class ArgminPolicy(Policy):
    """Movement-blind argmin of the model's cost estimate (ties: lowest index)."""

    def act(self, context):
        return int(np.argmin(self.cost_model.lcb_costs(context)))


class MirrorDescentPolicy(Policy):
    """Randomized tree policy: cost bounds in, minimal-movement sampling out."""

    def __init__(
        self,
        tree: HstTree,
        cost_model,
        rho: float = 1.0,
        kappa: float = 1.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(cost_model)
        self.tree = tree
        self.rho = float(rho)
        self.engine = MdEngine(tree, PotentialParams(tree, kappa=kappa))
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.q = None
        self.z_prev = None
        self.x_prev: int | None = None

    def begin_episode(self, x0: int):
        super().begin_episode(x0)
        self.x_prev = self.x0
        self.z_prev = point_mass_state(self.tree, self.x0)
        self.q = self.engine.delta_inverse(self.z_prev)

    def act(self, context):
        if self.q is None:
            raise RuntimeError("begin_episode must be called first")
        lcb = self.cost_model.lcb_costs(context)
        costs = np.maximum(self.rho * np.asarray(lcb, dtype=float), 0.0)
        q_new, _ = self.engine.step(self.q, costs)
        z_new = self.engine.delta_map(q_new)
        self.x_prev = sample_next(self.tree, self.z_prev, z_new, self.x_prev, self.rng)
        self.q = q_new
        self.z_prev = z_new
        return self.x_prev
