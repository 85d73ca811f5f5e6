"""Numerical laboratory for memory-defined energy landscapes.

Gradient-flow retrieval over a log-sum-exp energy whose minima are labeled
memory points, a hierarchy of contractive abstraction maps that smooth the
landscape, multistart minima search, soft k-NN correspondence diagnostics,
Monte Carlo basin censuses (bias amplification, diversity, privacy
proximity), majority-rule grid coarsening, and the feature-selection odds
model for merged minima.
"""

from landscape_lab.landscape import (
    EnergyLandscape,
    MemorySet,
    gaussian_blobs,
    hessian_fd_batch,
    load_memory_csv,
    save_memory_csv,
)
from landscape_lab.abstraction import (
    AbstractionHierarchy,
    DiagonalDecoder,
    LevelEnergy,
    SmoothnessReport,
    TanhDecoder,
    diagonal_hierarchy,
    jacobian_norm_probe,
    smoothness_report,
    tanh_hierarchy,
)
from landscape_lab.dynamics import (
    FlowConfig,
    FlowResult,
    find_minima,
    flow,
    flow_batch,
)
from landscape_lab.knn import (
    SoftWeights,
    knn_predict,
    soft_knn_predict,
)
from landscape_lab.census import (
    CensusConfig,
    CensusReport,
    bias_variance_probes,
    run_census,
)
from landscape_lab.gridsim import (
    ClassGrid,
    coarsen,
    init_grid,
)
from landscape_lab.oddsmodel import (
    MergeScenario,
    initial_odds,
    simulate_merge,
    smoothed_odds,
)
from landscape_lab.errors import CensusFailureError, ConfigError, InputError, NumericalFlowError

__version__ = "0.1.0"

__all__ = [
    "AbstractionHierarchy",
    "CensusConfig",
    "CensusFailureError",
    "CensusReport",
    "ClassGrid",
    "ConfigError",
    "DiagonalDecoder",
    "EnergyLandscape",
    "FlowConfig",
    "FlowResult",
    "InputError",
    "LevelEnergy",
    "MemorySet",
    "MergeScenario",
    "NumericalFlowError",
    "SmoothnessReport",
    "SoftWeights",
    "TanhDecoder",
    "bias_variance_probes",
    "coarsen",
    "diagonal_hierarchy",
    "find_minima",
    "flow",
    "flow_batch",
    "gaussian_blobs",
    "hessian_fd_batch",
    "init_grid",
    "initial_odds",
    "jacobian_norm_probe",
    "knn_predict",
    "load_memory_csv",
    "run_census",
    "save_memory_csv",
    "simulate_merge",
    "smoothed_odds",
    "smoothness_report",
    "soft_knn_predict",
    "tanh_hierarchy",
]
