"""Figure 15: sensitivity to the output deviation bounds.

(a) Fixed-target tracking: performance of the system versus time for
    hardware-performance bounds of +-20/30/50%, with the fixed targets of
    Sec. VI-E1 (5.5 BIPS, 2.5 W, 0.2 W, 70 degC hardware; 1 / 4.5 BIPS and
    dSC = 1 software).  Tighter bounds should track closer to the target.
(b) ExD minimization (the Fig. 9 experiment) at each bound setting,
    normalized to Coordinated heuristic: wider bounds -> less optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..board import Board
from ..core import MultilayerCoordinator
from ..workloads import make_application
from .metrics import normalize_to
from .report import render_series, render_table
from .runner import drive, run_workload
from .schemes import (
    COORDINATED_HEURISTIC,
    YUKTA_HW_SSV_OS_SSV,
    DesignContext,
    build_session,
)

__all__ = ["Fig15Result", "run", "run_fixed_targets", "BOUND_SETTINGS"]

# The paper's three settings: performance bound 20/30/50%, critical outputs
# scaled proportionally for the software controller.
BOUND_SETTINGS = {
    "+-20%": [0.20, 0.10, 0.10, 0.10],
    "+-30%": [0.30, 0.15, 0.15, 0.15],
    "+-50%": [0.50, 0.25, 0.25, 0.25],
}

# The paper's Sec. VI-E1 targets (5.5 BIPS / 2.5 W / 0.2 W / 70 degC),
# rescaled to this simulator's feasible envelope: at 2.7 W big-cluster
# power the board sustains ~4 BIPS, so 4.0 plays the role of the paper's
# 5.5.  An infeasible fixed target would turn the tracking experiment into
# a saturation experiment and hide the bounds ordering.
HW_FIXED_TARGETS = [4.0, 2.7, 0.25, 77.0]
SW_FIXED_TARGETS = [0.8, 3.2, 1.0]
FIXED_PERF_TARGET = HW_FIXED_TARGETS[0]


def run_fixed_targets(context, workload="blackscholes", max_time=150.0, seed=7):
    """One fixed-target tracking run; returns (times, perf, all-records)."""
    session = build_session(YUKTA_HW_SSV_OS_SSV, context)
    session.hw_controller.set_targets(HW_FIXED_TARGETS)
    session.sw_controller.set_targets(SW_FIXED_TARGETS)
    coordinator = MultilayerCoordinator(session.hw_controller, session.sw_controller)
    board = Board(make_application(workload), spec=context.spec, seed=seed)
    drive(board, coordinator.control_step, max_time)
    times = np.array([r.time for r in coordinator.records])
    perf = np.array([r.outputs_hw[0] for r in coordinator.records])
    return times, perf, coordinator.records


@dataclass
class Fig15Result:
    settings: list
    tracking: dict = field(default_factory=dict)  # setting -> (times, perf)
    tracking_stats: dict = field(default_factory=dict)
    exd: dict = field(default_factory=dict)  # setting -> normalized ExD

    def rows_a(self):
        rows = []
        for setting in self.settings:
            stats = self.tracking_stats[setting]
            rows.append([setting, stats["mean"], stats["rms_dev"],
                         stats["within_bound_frac"]])
        return rows

    def rms_by_setting(self):
        return {s: self.tracking_stats[s]["rms_dev"] for s in self.settings}

    def rows_b(self):
        return [[s, self.exd[s]] for s in self.settings if s in self.exd]

    def render(self):
        parts = [
            render_table(
                ["bounds", "steady perf (BIPS)",
                 f"rms dev from {FIXED_PERF_TARGET}", "fraction within bound"],
                self.rows_a(),
                "Figure 15(a): fixed-target tracking vs deviation bounds",
            )
        ]
        for setting in self.settings:
            times, perf = self.tracking[setting]
            parts.append(render_series(times, perf,
                                       f"Figure 15(a): perf(t) at {setting}"))
        if self.exd:
            parts.append(
                render_table(["bounds", "normalized ExD"], self.rows_b(),
                             "Figure 15(b): ExD vs deviation bounds "
                             "(normalized to Coordinated heuristic)")
            )
        return "\n\n".join(parts)


def _exd_cell(context, bounds, scheme, workload, seed):
    """Engine task: one ExD run on a bounds-override variant.

    Module-level so it pickles; the variant is rebuilt from the shared
    worker context (the persistent cache makes re-synthesis a hit when the
    parent already designed this variant).
    """
    variant = context.variant(bounds_override=bounds)
    return run_workload(scheme, workload, variant, seed=seed)


def run(context: DesignContext = None, workloads=("blackscholes", "gamess"),
        include_exd=True, seed=7, jobs=None) -> Fig15Result:
    """Regenerate Figure 15 (both halves)."""
    from .engine import parallel_map

    context = context or DesignContext.create()
    result = Fig15Result(list(BOUND_SETTINGS))
    perf_range = context.characterization.range_of("bips_total")
    for setting, fractions in BOUND_SETTINGS.items():
        variant = context.variant(bounds_override=fractions)
        times, perf, _ = run_fixed_targets(variant, seed=seed)
        result.tracking[setting] = (times, perf)
        # Skip the initialization stage when scoring steady tracking.
        skip = max(len(perf) // 5, 4)
        steady = perf[skip:]
        target = HW_FIXED_TARGETS[0]
        bound_abs = fractions[0] * perf_range
        result.tracking_stats[setting] = {
            "mean": float(steady.mean()) if steady.size else float("nan"),
            "rms_dev": float(np.sqrt(np.mean((steady - target) ** 2)))
            if steady.size else float("nan"),
            "within_bound_frac": float(np.mean(np.abs(steady - target) <= bound_abs))
            if steady.size else float("nan"),
        }
    if include_exd:
        tasks = [
            ("call", (_exd_cell, (fractions, scheme, workload, seed), {}))
            for setting, fractions in BOUND_SETTINGS.items()
            for workload in workloads
            for scheme in (YUKTA_HW_SSV_OS_SSV, COORDINATED_HEURISTIC)
        ]
        flat = parallel_map(tasks, context, jobs=jobs)
        it = iter(flat)
        for setting in BOUND_SETTINGS:
            ratios = []
            for _ in workloads:
                yukta, base = next(it), next(it)
                ratios.append(yukta.exd / base.exd)
            result.exd[setting] = float(np.mean(ratios))
    return result
