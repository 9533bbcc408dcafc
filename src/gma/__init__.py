"""Group movable antenna: joint array-position and sparsity optimization.

A uniform sparse array slides as one rigid group along an axis while
antenna selection sets its element stride; this package optimizes the pair
(position, sparsity) for uplink SNR or multi-user sum rate, provides the
fixed-array / per-element-movable / grid-search baselines, and ships
a seeded experiment harness with CSV output.
"""

__version__ = "0.1.0"

from .arrays import ArrayConfig, PathSet, max_sparsity
from .baselines import (MaLayout, exhaustive_search, fpa_metric,
                        gma_element_positions, ma_optimize)
from .combining import LinkPowers, objective_metric
from .experiments import (LandscapeResult, TrialRecord, landscape,
                          run_compare, run_sweep)
from .multiuser import grid_position_search, optimize_multiuser, sparsity_search
from .optim import GmaSolution, GridSpec, OptimizerSettings
from .scenario import Scenario, ScenarioParams, sample_scenario
from .sca import (optimize_position_sca, optimize_single_user,
                  optimize_sparsity, path_matrix, phase_vector)

__all__ = [
    "ArrayConfig", "GmaSolution", "GridSpec", "LandscapeResult", "LinkPowers",
    "MaLayout", "OptimizerSettings", "PathSet", "Scenario", "ScenarioParams",
    "TrialRecord", "exhaustive_search", "fpa_metric", "gma_element_positions",
    "grid_position_search", "landscape", "ma_optimize", "max_sparsity",
    "objective_metric", "optimize_multiuser", "optimize_position_sca",
    "optimize_single_user", "optimize_sparsity", "path_matrix",
    "phase_vector", "run_compare", "run_sweep", "sample_scenario",
    "sparsity_search",
]
