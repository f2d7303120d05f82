"""Movement-penalized contextual Bayesian optimization on tree metrics."""

from .bench import (
    EpisodeLog,
    RegretReport,
    SyntheticInstance,
    brute_force_optimal,
    offline_optimal,
    offline_optimal_matrix,
    regret,
    synth_instance,
)
from .gp import GpModel, LinearKernel, Normalizer, ProductKernel, RbfKernel, SumKernel
from .harness import RunConfig, report, run, rng_stream
from .hst import HstTree, frt_embed, leaf_count_ratios, tree_distance
from .metric import FiniteMetric, grid_metric
from .mirror import (
    CondState,
    MdEngine,
    PotentialParams,
    SolverConvergenceError,
    TreeState,
    VertexCosts,
    bregman,
    delta_inverse,
    delta_map,
    md_step,
    md_update_vertex,
    point_mass_state,
)
from .policies import (
    POLICY_NAMES,
    ExactCostModel,
    GpServiceModel,
    MirrorDescentPolicy,
    StepOutcome,
    WindServiceModel,
    make_policy,
)
from .transport import Coupling, LeafDistribution, optimal_coupling, sample_next, tree_wasserstein
from .wind import (
    EnergyParams,
    WindTable,
    altitude_metric,
    energy_move,
    energy_service,
    ingest_wind_csv,
    service_objective,
    synthetic_wind_table,
)

__version__ = "0.1.0"
