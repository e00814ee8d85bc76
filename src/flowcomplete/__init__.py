"""Entry-specific matrix estimation from arbitrary observation patterns.

The observed entries of a matrix define a bipartite graph between rows and
columns.  For additive matrices, weighing observations by the unit
electrical current between a row and a column gives the minimum-variance
unbiased estimate of that entry, with the effective resistance as its exact
variance certificate; the same values come out of the closed-form masked
least squares.  For rank-1 matrices, products along edge-disjoint paths are
combined by a stabilized ratio whose accuracy is governed by the minimum
cut.  The panel module applies the additive machinery to heterogeneous
two-way fixed-effects causal estimation.
"""

__version__ = "0.1.0"

from .additive import (
    AdditiveModel,
    EstimateReport,
    efe_entry,
    efe_full,
    estimate_noise_variance,
    hard_instance_additive,
    lse_factors,
    observation_factors,
    path_estimate_additive,
    unit_flow_estimate,
    verify_equivalence,
)
from .electrical import (
    UnitFlow,
    VoltageVector,
    electrical_flow,
    flow_energy,
    perturbed_unit_flow,
    verify_unit_flow,
    voltage_vector,
)
from .errors import (
    DegenerateDenominatorError,
    DisconnectedPairError,
    FlowCompleteError,
    InvalidFlowError,
    InvalidPathError,
    NoPathError,
    TargetNotObservedError,
)
from .graph import (
    ComponentLabeling,
    ObservationMask,
    connected_components,
    incidence_matrix,
    laplacian,
    validate_path,
    vec_omega,
)
from .maxflow import CutCertificate, PathSet, max_disjoint_paths, min_cut
from .panel import (
    NO_LENGTH_THREE_PATH,
    CausalReport,
    PanelData,
    StaggeredExposureCertificate,
    did_estimate,
    did_grid,
    estimate_effects,
    split_masks,
    staggered_exposure_certificate,
)
from .rank1 import (
    PathStatistics,
    Rank1Report,
    RankOneModel,
    hard_instance_rank1,
    path_alpha_beta,
    rank1_entry,
    rank1_error_bound,
    rank1_full,
)
from .sim import (
    GeneratedPattern,
    SimConfig,
    SimResult,
    export_result,
    generate_pattern,
    run_experiment,
)
from .spectral import SpectralCore, build_core
