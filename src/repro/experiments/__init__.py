"""Experiment harness: one module per paper table/figure plus the runner.

Every evaluation artifact of the paper has a ``run()`` entry point here
(see the DESIGN.md experiment index) and a matching pytest-benchmark target
under ``benchmarks/``.
"""

from . import (
    ablation,
    engine,
    exhaustion,
    fig9,
    fig10,
    fig12,
    fig14,
    fig15,
    fig16,
    fig17,
    hwcost,
    resilience,
    scheduling,
    tables,
    three_layer,
)
from .bank_runner import bankable_scheme, run_cells_banked
from .engine import parallel_map, resolve_jobs, run_matrix, run_scheme_matrix
from .metrics import RunMetrics, normalize_to, oscillation_stats
from .report import render_bars, render_series, render_table
from .runner import drive, instantiate_workload, run_workload, workload_name
from .schemes import (
    COORDINATED_HEURISTIC,
    DECOUPLED_HEURISTIC,
    DECOUPLED_LQG,
    MONOLITHIC_LQG,
    SCHEMES,
    YUKTA_HW_SSV_OS_HEUR,
    YUKTA_HW_SSV_OS_SSV,
    DesignContext,
    SchemeSession,
    build_session,
    prime_designs,
    scheme_descriptions,
)

__all__ = [
    "ablation",
    "exhaustion",
    "resilience",
    "scheduling",
    "three_layer",
    "fig9",
    "fig10",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "hwcost",
    "tables",
    "RunMetrics",
    "normalize_to",
    "oscillation_stats",
    "render_table",
    "render_bars",
    "render_series",
    "drive",
    "run_workload",
    "run_scheme_matrix",
    "bankable_scheme",
    "run_cells_banked",
    "instantiate_workload",
    "workload_name",
    "engine",
    "parallel_map",
    "run_matrix",
    "resolve_jobs",
    "prime_designs",
    "SCHEMES",
    "COORDINATED_HEURISTIC",
    "DECOUPLED_HEURISTIC",
    "YUKTA_HW_SSV_OS_HEUR",
    "YUKTA_HW_SSV_OS_SSV",
    "DECOUPLED_LQG",
    "MONOLITHIC_LQG",
    "DesignContext",
    "SchemeSession",
    "build_session",
    "scheme_descriptions",
]
