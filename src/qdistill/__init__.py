"""qdistill: threshold distillation of multipartite GHZ/W entanglement and
steering assemblages, with closed-form performance checked against dense
numerics and Monte Carlo simulation."""

from .errors import (
    BadPartitionError,
    DenseCapExceededError,
    DimensionMismatchError,
    InvalidSpecError,
    InvalidSteeringScenarioError,
    NotHermitianError,
    NotPositiveError,
    PivotNotMaximalError,
    PivotNotMinimalError,
    QdistillError,
    WorkCapExceededError,
)
from .states import (
    Family,
    GhzSpec,
    WSpec,
    make_compact,
    make_dense,
    perfect_ghz,
    perfect_w,
)
from .filters import (
    FilterAssignment,
    IndexPartition,
    ghz_partition_assignment,
    w_assignment,
)
from .ted import (
    DistillationReport,
    ProtocolConfig,
    apply_filter_layer,
    overall_success,
    run_ted,
    success_prob_per_copy,
)
from .tsd import (
    Assemblage,
    SteeringConfig,
    SteeringReport,
    build_assemblage,
    filter_assemblage,
    run_tsd,
)
from .montecarlo import EmpiricalStats, TrialRecord, run_stats, simulate_trial

__version__ = "0.1.0"

__all__ = [
    "Assemblage",
    "BadPartitionError",
    "DenseCapExceededError",
    "DimensionMismatchError",
    "DistillationReport",
    "EmpiricalStats",
    "Family",
    "FilterAssignment",
    "GhzSpec",
    "IndexPartition",
    "InvalidSpecError",
    "InvalidSteeringScenarioError",
    "NotHermitianError",
    "NotPositiveError",
    "PivotNotMaximalError",
    "PivotNotMinimalError",
    "ProtocolConfig",
    "QdistillError",
    "SteeringConfig",
    "SteeringReport",
    "TrialRecord",
    "WSpec",
    "WorkCapExceededError",
    "apply_filter_layer",
    "build_assemblage",
    "filter_assemblage",
    "ghz_partition_assignment",
    "make_compact",
    "make_dense",
    "overall_success",
    "perfect_ghz",
    "perfect_w",
    "run_stats",
    "run_ted",
    "run_tsd",
    "simulate_trial",
    "success_prob_per_copy",
    "w_assignment",
]
