"""Multi-resource allocation by AIMD with one-bit capacity feedback.

A library of three parts: device-side update rules and a synchronous-round
simulator (deterministic and stochastic back-off variants), the control unit
that turns aggregate demand into one-bit capacity events, and centralized
convex solvers that certify where the long-term average allocations should
converge.
"""

from .aimd import (
    AVERAGE_FLOOR,
    LAMBDA_MARGIN,
    ClampStats,
    DegenerateAverageError,
    ResourceParams,
    additive_increase,
    md_deterministic,
    md_stochastic,
    scaling_factor,
    update_average,
)
from .config import Config, ConfigError, config_hash, parse_config, serialize_config
from .costs import (
    AssumptionReport,
    CostFunction,
    estimate_gamma,
    evaluate_cost,
    partial_derivative,
    sample_cost_functions,
    verify_assumption1,
)
from .engine import (
    SimulationError,
    Trace,
    WorldState,
    build_world,
    resolve_functions,
    run,
    snapshot_steps,
    step_world,
)
from .metrics import MetricsReport, MetricsSummary, collect_metrics
from .oracle import (
    BracketError,
    OptimalAllocation,
    UnsupportedFunctionError,
    kkt_residual,
    project_capacity_simplex,
    solve_projected_gradient,
    solve_separable,
)
from .report import (
    ComparisonReport,
    ExportManifest,
    compare_modes,
    convergence_step,
    export_comparison,
    export_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AVERAGE_FLOOR",
    "LAMBDA_MARGIN",
    "AssumptionReport",
    "BracketError",
    "ClampStats",
    "ComparisonReport",
    "Config",
    "ConfigError",
    "CostFunction",
    "DegenerateAverageError",
    "ExportManifest",
    "MetricsReport",
    "MetricsSummary",
    "OptimalAllocation",
    "ResourceParams",
    "SimulationError",
    "Trace",
    "UnsupportedFunctionError",
    "WorldState",
    "additive_increase",
    "build_world",
    "collect_metrics",
    "compare_modes",
    "config_hash",
    "convergence_step",
    "estimate_gamma",
    "evaluate_cost",
    "export_comparison",
    "export_trace",
    "kkt_residual",
    "md_deterministic",
    "md_stochastic",
    "parse_config",
    "partial_derivative",
    "project_capacity_simplex",
    "resolve_functions",
    "run",
    "sample_cost_functions",
    "scaling_factor",
    "serialize_config",
    "snapshot_steps",
    "solve_projected_gradient",
    "solve_separable",
    "step_world",
    "update_average",
    "verify_assumption1",
]
