"""The movement-aware controller and the baselines it is compared against.

All policies share one interface: ``begin_episode(x0)``, ``act(context)``
returning (action index, diagnostics), ``observe(action, context, y)``, and
``end_episode()``. Learning policies buffer observations and flush them into
their own GP model, which grows in place, every step or at episode end.

Policies:

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
from .transport import lifted_w1, sample_next

POLICY_NAMES = ("gp-md", "cgp-lcb", "md-known", "minc-known", "stationary")


class ExactCostModel:
    """True service costs; used by the known-f baselines. Never learns."""

    def __init__(self, cost_fn, n_actions: int):
        self.cost_fn = cost_fn
        self.n_actions = n_actions

    def lcb_costs(self, context) -> np.ndarray:
        return np.asarray(self.cost_fn(context), dtype=float)

    def observe(self, action, context, y):
        pass

    def end_episode(self):
        pass


def lower_bound(mean, std, beta):
    """The confidence lower bound mean - beta * std."""
    return mean - beta * std


class GpServiceModel:
    """Confidence lower bounds on the service cost from a GP fit on (action, context).

    ``featurize(context)`` returns one GP query row per action, and
    ``observe`` trains the model, which serves this learner alone, on the
    chosen action's row. The posterior maps to costs through
    ``to_cost(mean, std, beta)``, by default the lower bound; a model of
    another quantity (the wind runs model the windspeed) passes the map
    from its bounds to cost bounds.

    The bounds are served once per context per GP state: a context's array
    is kept, read-only, until ``gp.n`` changes (by a flush here or a direct
    ``gp.update``). Only a model frozen within an episode
    (``update_mode="per-episode"``) sees a context twice between updates; a
    per-step model learns after every query, so it always computes afresh.
    """

    def __init__(
        self,
        gp: GpModel,
        featurize,
        n_actions: int,
        update_mode: str = "per-step",
        to_cost=lower_bound,
    ):
        if update_mode not in ("per-step", "per-episode"):
            raise ValueError(f"unknown update_mode {update_mode!r}")
        self.gp = gp
        self.featurize = featurize
        self.n_actions = int(n_actions)
        self.update_mode = update_mode
        self.to_cost = to_cost
        self._buffer_X: list = []
        self._buffer_y: list = []
        self._served: dict = {}  # context key -> its cost bounds at GP state _served_n
        self._served_n = 0

    def lcb_costs(self, context) -> np.ndarray:
        if self._served_n != self.gp.n:
            # beta_t, like the posterior, changes only when the GP learns.
            self._served.clear()
            self._served_n = self.gp.n
        costs = self._served.get(context)
        if costs is None:
            costs = self.to_cost(*self.gp.posterior(self.featurize(context)), self.gp.beta_t())
            costs.flags.writeable = False
            self._served[context] = costs
        return costs

    def observe(self, action, context, y):
        self._buffer_X.append(self.featurize(context)[action])
        self._buffer_y.append(float(y))
        if self.update_mode == "per-step":
            self.flush()

    def flush(self):
        if self._buffer_y:
            self.gp.update(np.asarray(self._buffer_X), np.asarray(self._buffer_y))
            self._buffer_X, self._buffer_y = [], []

    def end_episode(self):
        if self.update_mode == "per-episode":
            self.flush()


class Policy:
    name = "base"

    def __init__(self, n_actions: int):
        self.n_actions = n_actions
        self.x0: int | None = None
        self.x_prev: int | None = None

    def begin_episode(self, x0: int):
        if not 0 <= x0 < self.n_actions:
            raise ValueError(f"unknown action index {x0}")
        self.x0 = int(x0)
        self.x_prev = int(x0)

    def act(self, context):
        raise NotImplementedError

    def observe(self, action, context, y):
        if not np.isfinite(y):
            raise ValueError("observations must be finite")

    def end_episode(self):
        pass

    def _record(self, action: int) -> int:
        self.x_prev = int(action)
        return int(action)


class StationaryPolicy(Policy):
    name = "stationary"

    def act(self, context):
        if self.x0 is None:
            raise RuntimeError("begin_episode must be called first")
        return self._record(self.x0), {}


class ArgminPolicy(Policy):
    """Movement-blind argmin of the model's cost estimate (ties: lowest index)."""

    def __init__(self, cost_model, name: str):
        super().__init__(cost_model.n_actions)
        self.cost_model = cost_model
        self.name = name

    def act(self, context):
        costs = self.cost_model.lcb_costs(context)
        action = int(np.argmin(costs))
        return self._record(action), {"estimated_cost": float(costs[action])}

    def observe(self, action, context, y):
        super().observe(action, context, y)
        self.cost_model.observe(action, context, y)

    def end_episode(self):
        self.cost_model.end_episode()


class MirrorDescentPolicy(Policy):
    """Randomized tree policy: cost bounds in, minimal-movement sampling out."""

    def __init__(
        self,
        tree: HstTree,
        cost_model,
        rho: float = 1.0,
        kappa: float = 1.0,
        rng: np.random.Generator | None = None,
        name: str = "gp-md",
    ):
        super().__init__(tree.n_leaves)
        self.tree = tree
        self.cost_model = cost_model
        self.rho = float(rho)
        self.engine = MdEngine(tree, PotentialParams(tree, kappa=kappa))
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name
        self.q = None
        self.z_prev = None

    def begin_episode(self, x0: int):
        super().begin_episode(x0)
        self.z_prev = point_mass_state(self.tree, self.x0)
        self.q = self.engine.delta_inverse(self.z_prev)

    def act(self, context):
        if self.q is None:
            raise RuntimeError("begin_episode must be called first")
        lcb = self.cost_model.lcb_costs(context)
        costs = np.maximum(self.rho * np.asarray(lcb, dtype=float), 0.0)
        q_new, vertex_costs = self.engine.step(self.q, costs)
        z_new = self.engine.delta_map(q_new)
        diag = {
            "hallucinated_root_cost": float(vertex_costs[self.tree.root]),
            "tree_wasserstein_step": lifted_w1(self.tree, z_new, self.z_prev),
            "newton_iters": list(self.engine.newton_iters),
        }
        leaves = self.tree.leaf_vertex
        action = sample_next(
            self.tree, self.z_prev[leaves], z_new[leaves], self.x_prev, self.rng, diag=diag
        )
        self.q = q_new
        self.z_prev = z_new
        return self._record(action), diag

    def observe(self, action, context, y):
        super().observe(action, context, y)
        self.cost_model.observe(action, context, y)

    def end_episode(self):
        self.cost_model.end_episode()


def make_policy(
    name: str,
    tree: HstTree | None = None,
    cost_model=None,
    true_model=None,
    rho: float = 1.0,
    kappa: float = 1.0,
    rng: np.random.Generator | None = None,
    n_actions: int | None = None,
) -> Policy:
    """Policy factory. Learning policies take ``cost_model``; the known-f
    baselines take ``true_model``; ``stationary`` takes ``n_actions``."""
    if name == "stationary":
        if n_actions is None:
            raise ValueError("stationary needs the action count")
        return StationaryPolicy(n_actions)
    if name == "cgp-lcb":
        if cost_model is None:
            raise ValueError("cgp-lcb needs a learned cost model")
        return ArgminPolicy(cost_model, name="cgp-lcb")
    if name == "minc-known":
        if true_model is None:
            raise ValueError("minc-known needs the true cost model")
        return ArgminPolicy(true_model, name="minc-known")
    if name == "gp-md":
        if tree is None or cost_model is None:
            raise ValueError("gp-md needs a tree and a learned cost model")
        return MirrorDescentPolicy(tree, cost_model, rho=rho, kappa=kappa, rng=rng, name="gp-md")
    if name == "md-known":
        if tree is None or true_model is None:
            raise ValueError("md-known needs a tree and the true cost model")
        return MirrorDescentPolicy(tree, true_model, rho=rho, kappa=kappa, rng=rng, name="md-known")
    raise ValueError(f"unknown policy {name!r}; known: {', '.join(POLICY_NAMES)}")
