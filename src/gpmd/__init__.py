"""Movement-penalized contextual Bayesian optimization on tree metrics."""

from .bench import SyntheticInstance, offline_optimal_matrix, synth_instance
from .gp import GpModel, Normalizer, RbfKernel
from .harness import RunConfig, report, run, rng_stream
from .hst import HstTree, frt_embed
from .metric import FiniteMetric, grid_metric
from .mirror import (
    MdEngine,
    PotentialParams,
    SolverConvergenceError,
    point_mass_state,
)
from .policies import (
    POLICY_NAMES,
    ExactCostModel,
    GpServiceModel,
    MirrorDescentPolicy,
)
from .transport import (
    coupling_row,
    sample_next,
    tree_wasserstein,
)
from .wind import (
    EnergyParams,
    WindTable,
    altitude_metric,
    energy_service,
    ingest_wind_csv,
    synthetic_wind_table,
)

__version__ = "0.1.0"
