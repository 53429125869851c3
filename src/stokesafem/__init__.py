"""Adaptive Taylor-Hood finite elements for the stationary Stokes problem.

The package provides newest-vertex-bisection meshes with conforming closure
and overlays, P2/P1 mixed spaces, saddle-point assembly with pressure
Schur-complement CG solves, residual error indicators, an adaptive
solve-estimate-mark-refine driver with convergence monitors, and greedy
threshold refinement for approximation rate studies.  The ``stokesafem``
console script exposes the drivers.
"""

__version__ = "0.1.0"

from .adaptloop import (
    AdaptiveConfig,
    AdaptiveTrace,
    MonitorReport,
    adaptive_run,
    dorfler_mark,
    fit_decay,
    fit_rate,
    monitor_report,
    qo_monitor,
    uniform_run,
    write_trace_csv,
)
from .assembly import (
    SolverFailure,
    StokesSystem,
    assemble,
    error_norms,
    inf_sup_constant,
    solve,
)
from .estimators import (
    ESTIMATOR_KINDS,
    ElementIndicators,
    compute_indicators,
    eta,
    marking_shares,
    oscillation,
)
from .femspace import (
    DofMap,
    SolutionPair,
    build_dofmap,
    interpolate,
    prolong,
)
from .mesh import (
    Forest,
    MeshStats,
    Partition,
    RefinementError,
    bisect,
    l_shape_partition,
    load_mesh,
    overlay,
    partition_from_arrays,
    refine,
    save_mesh,
    two_triangle_square,
    unit_square_partition,
)
from .problems import ExactSolution, ProblemDef, builtin_problems, get_problem
from .threshold import (
    BudgetExceeded,
    IndicatorFailure,
    LocalIndicator,
    ThresholdReport,
    class_seminorm,
    eps_sweep,
    indicator_from_spec,
    osc_indicator,
    predicted_rate,
    synthetic_area_indicator,
)

__all__ = [
    "__version__",
    "AdaptiveConfig", "AdaptiveTrace", "MonitorReport", "adaptive_run",
    "dorfler_mark", "fit_decay", "fit_rate", "monitor_report", "qo_monitor",
    "uniform_run", "write_trace_csv",
    "SolverFailure", "StokesSystem", "assemble", "error_norms",
    "inf_sup_constant", "solve",
    "ESTIMATOR_KINDS", "ElementIndicators", "compute_indicators", "eta",
    "marking_shares", "oscillation",
    "DofMap", "SolutionPair", "build_dofmap", "interpolate", "prolong",
    "Forest", "MeshStats", "Partition", "RefinementError", "bisect",
    "l_shape_partition", "load_mesh", "overlay", "partition_from_arrays",
    "refine", "save_mesh",
    "two_triangle_square", "unit_square_partition",
    "ExactSolution", "ProblemDef", "builtin_problems", "get_problem",
    "BudgetExceeded", "IndicatorFailure", "LocalIndicator", "ThresholdReport",
    "class_seminorm", "eps_sweep", "indicator_from_spec", "osc_indicator",
    "predicted_rate", "synthetic_area_indicator",
]
