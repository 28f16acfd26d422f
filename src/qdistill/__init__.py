"""qdistill: threshold distillation of multipartite GHZ/W entanglement and
steering assemblages, with closed-form performance checked against dense
numerics and Monte Carlo simulation.

The top level exports the run path: specs, configs, the three runners and
their reports, the per-copy and overall success, and the error classes.
The reference layer (filter tables, dense vectors, assemblages, single
trials) stays in its own modules: ``filters``, ``states``, ``ted``,
``tsd``, ``montecarlo`` and ``errors``."""

from .errors import (
    BadPartitionError,
    InvalidSpecError,
    InvalidSteeringScenarioError,
    NotPositiveError,
    PivotNotMaximalError,
    PivotNotMinimalError,
    QdistillError,
    WorkCapExceededError,
)
from .states import Family, GhzSpec, WSpec, make_compact
from .filters import IndexPartition
from .ted import (
    DistillationReport,
    ProtocolConfig,
    overall_success,
    run_ted,
    success_prob_per_copy,
)
from .tsd import SteeringConfig, SteeringReport, run_tsd
from .montecarlo import EmpiricalStats, run_stats

__version__ = "0.1.0"

__all__ = [
    "BadPartitionError",
    "DistillationReport",
    "EmpiricalStats",
    "Family",
    "GhzSpec",
    "IndexPartition",
    "InvalidSpecError",
    "InvalidSteeringScenarioError",
    "NotPositiveError",
    "PivotNotMaximalError",
    "PivotNotMinimalError",
    "ProtocolConfig",
    "QdistillError",
    "SteeringConfig",
    "SteeringReport",
    "WSpec",
    "WorkCapExceededError",
    "make_compact",
    "overall_success",
    "run_stats",
    "run_ted",
    "run_tsd",
    "success_prob_per_copy",
]
