"""syncflow: simulation and verification of synchronization for diffusively
coupled networks whose node self-dynamics are negative gradients of convex
potentials, under fixed or switching directed communication graphs."""

from .analysis import (
    DiagnosticsSeries,
    aggregate_potential,
    check_common_limit,
    check_feasibility,
    check_monotone,
    check_node_optimum,
    check_spectral_bound,
    check_sync,
    check_sync_iff,
    diagnostics,
    minimize_aggregate,
    sweep_K,
)
from .convex_geometry import (
    Box,
    ConvexBody,
    Hull,
    check_drift_alignment,
    check_distance_comparison,
    intersect,
    zero_set_hull,
)
from .errors import (
    ConfigurationError,
    FiniteEscapeError,
    InputError,
    NumericalError,
    PreconditionError,
    SyncflowError,
    RepresentationError,
)
from .graphs import (
    SwitchingSignal,
    WeightedDigraph,
    certify_ujsc,
    is_strongly_connected,
    joint_graph,
    lambda2,
)
from .potentials import (
    FlatBottom1D,
    Potential,
    Quadratic,
    QuarticWell,
    SumPotential,
    common_zero_set,
)
from .report import CheckReport
from .simulator import (
    Trajectory,
    fixed_signal,
    integrate,
)

__version__ = "0.1.0"
