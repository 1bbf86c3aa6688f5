"""Figure 17: sensitivity to the input weights.

Synthesizes hardware controllers with all input weights at 0.5 / 1 / 2,
fixes the big-cluster power target at 2.5 W, and plots the power response
while blackscholes ramps its threads: low weights give a fast, rippling
response; high weights a sluggish one; weight 1 is the balanced default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..board import Board
from ..core import MultilayerCoordinator
from ..workloads import make_application
from .fig15 import HW_FIXED_TARGETS, SW_FIXED_TARGETS
from .report import render_series, render_table
from .runner import drive
from .schemes import YUKTA_HW_SSV_OS_SSV, DesignContext, build_session

__all__ = ["Fig17Result", "run", "INPUT_WEIGHTS"]

INPUT_WEIGHTS = [0.5, 1.0, 2.0]
POWER_TARGET = 2.5  # W, the Sec. VI-E3 experiment
SETTLE_BAND = 0.25  # W: within-band threshold for the settle-time metric


@dataclass
class Fig17Result:
    weights: list
    series: dict = field(default_factory=dict)  # weight -> (times, power)
    stats: dict = field(default_factory=dict)

    def rows(self):
        return [
            [w, self.stats[w]["actuation_activity"], self.stats[w]["ripple"],
             self.stats[w]["settle_mean"], self.stats[w]["rms_dev"]]
            for w in self.weights
        ]

    def render(self):
        parts = [
            render_table(
                ["input weight", "knob moves/period", "power ripple (W)",
                 "steady P_big (W)", "rms dev from 2.5 W"],
                self.rows(),
                "Figure 17: big-cluster power response vs input weights",
            )
        ]
        for w in self.weights:
            times, power = self.series[w]
            parts.append(
                render_series(times, power, f"Figure 17: P_big(t), weights={w}")
            )
        return "\n\n".join(parts)


def _weight_cell(context, weight, workload, max_time, seed):
    """Engine task: one fixed-power tracking run at one input weight.

    Returns the (times, power, actuation) arrays rather than the live
    coordinator so the payload pickles cheaply back to the parent.
    """
    targets = list(HW_FIXED_TARGETS)
    targets[1] = POWER_TARGET
    variant = context.variant(input_weight_override=weight)
    session = build_session(YUKTA_HW_SSV_OS_SSV, variant)
    session.hw_controller.set_targets(targets)
    session.sw_controller.set_targets(SW_FIXED_TARGETS)
    coordinator = MultilayerCoordinator(
        session.hw_controller, session.sw_controller
    )
    board = Board(make_application(workload), spec=variant.spec, seed=seed)
    drive(board, coordinator.control_step, max_time)
    times = np.array([r.time for r in coordinator.records])
    power = np.array([r.outputs_hw[1] for r in coordinator.records])
    actuation = np.array(
        [[r.actuation_hw[0], r.actuation_hw[2]] for r in coordinator.records]
    )
    return times, power, actuation


def run(context: DesignContext = None, workload="blackscholes", max_time=120.0,
        seed=7, jobs=None) -> Fig17Result:
    """Regenerate Figure 17 (``jobs`` fans the weight settings out)."""
    from .engine import parallel_map

    context = context or DesignContext.create()
    result = Fig17Result(list(INPUT_WEIGHTS))
    tasks = [
        ("call", (_weight_cell, (weight, workload, max_time, seed), {}))
        for weight in INPUT_WEIGHTS
    ]
    flat = parallel_map(tasks, context, jobs=jobs)
    for weight, (times, power, actuation) in zip(INPUT_WEIGHTS, flat):
        result.series[weight] = (times, power)
        skip = max(len(power) // 4, 4)
        steady = power[skip:]
        diffs = np.diff(steady) if steady.size > 1 else np.zeros(1)
        # Actuation activity: how many quantization notches the controller
        # moves its knobs per period (the paper's eager-vs-sluggish axis).
        if actuation.shape[0] > 1:
            moves = (
                np.abs(np.diff(actuation[:, 0])) / 1.0  # core notches
                + np.abs(np.diff(actuation[:, 1])) / 0.1  # frequency notches
            )
            activity = float(moves.mean())
        else:
            activity = 0.0
        result.stats[weight] = {
            "ripple": float(np.std(diffs)),
            "actuation_activity": activity,
            "settle_mean": float(steady.mean()) if steady.size else float("nan"),
            "rms_dev": float(np.sqrt(np.mean((steady - POWER_TARGET) ** 2)))
            if steady.size else float("nan"),
        }
    return result
