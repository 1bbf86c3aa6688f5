"""Gain-scheduling ablation: Table I's road not taken, measured.

The paper picks Robust control over Gain Scheduling, arguing the latter
"requires additional modeling efforts and expensive selection logic at
runtime".  This experiment quantifies that choice on the simulator: the
single pooled-model Yukta (robust) versus a two-class gain-scheduled
variant (separate compute-/memory-class characterizations and controller
pairs with a hysteretic utilization-based selector), both normalized to the
coordinated-heuristic baseline.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..board import Board
from ..core import MultilayerCoordinator
from .report import render_table
from .runner import drive, instantiate_workload, run_workload
from .schemes import (
    COORDINATED_HEURISTIC,
    YUKTA_HW_SSV_OS_SSV,
    DesignContext,
)

__all__ = ["SchedulingResult", "run"]


@dataclass
class SchedulingResult:
    workloads: list
    single: dict = field(default_factory=dict)  # normalized ExD
    scheduled: dict = field(default_factory=dict)
    switches: dict = field(default_factory=dict)

    def rows(self):
        rows = [
            [w, self.single[w], self.scheduled[w], self.switches[w]]
            for w in self.workloads
        ]
        rows.append([
            "mean",
            float(np.mean(list(self.single.values()))),
            float(np.mean(list(self.scheduled.values()))),
            float(np.mean(list(self.switches.values()))),
        ])
        return rows

    def render(self):
        return render_table(
            ["workload", "robust (single model)", "gain-scheduled",
             "selector switches"],
            self.rows(),
            "Table I ablation: Robust vs Gain Scheduling "
            "(normalized ExD, lower is better)",
        )


def _run_scheduled(context, gs_design, workload, seed=7, max_time=600.0):
    hw = copy.deepcopy(gs_design.hw_controller)
    sw = copy.deepcopy(gs_design.sw_controller)
    hw.reset()
    sw.reset()
    coordinator = MultilayerCoordinator(
        hw, sw, context.hw_optimizer(), context.sw_optimizer()
    )
    board = Board(instantiate_workload(workload), spec=context.spec, seed=seed,
                  record=False)
    drive(board, coordinator.control_step, max_time)
    return board.energy * board.time, hw.switches


def run(context: DesignContext = None,
        workloads=("mcf", "streamcluster", "gamess", "blackscholes"),
        seed=7, samples_per_program=160) -> SchedulingResult:
    """Regenerate the scheduling ablation."""
    from ..extensions import design_gain_scheduled_layers

    context = context or DesignContext.create()
    gs_design = design_gain_scheduled_layers(
        context.spec, samples_per_program=samples_per_program
    )
    result = SchedulingResult(list(workloads))
    for workload in workloads:
        base = run_workload(COORDINATED_HEURISTIC, workload, context,
                            seed=seed, record=False)
        single = run_workload(YUKTA_HW_SSV_OS_SSV, workload, context,
                              seed=seed, record=False)
        scheduled_exd, switches = _run_scheduled(context, gs_design, workload,
                                                 seed=seed)
        result.single[workload] = single.exd / base.exd
        result.scheduled[workload] = scheduled_exd / base.exd
        result.switches[workload] = float(switches)
    return result
