"""Three-layer scalability demonstration (Sec. III-D).

The paper envisions stacking more layers with neighbour-only communication.
This experiment adds the application (QoS) layer of :mod:`repro.extensions`
on top of the two-layer Yukta stack and compares, on a QoS work-item
stream:

* **two layers** (application runs at fixed full quality) versus
* **three layers** (the application controller trades approximation
  quality for heartbeat rate, reading only the OS layer's signals),

at a feasible and an infeasible heartbeat target.  The three-layer stack
should meet the feasible target exactly and degrade gracefully (quality
shed, heartbeat maximized) at the infeasible one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..board import Board
from .report import render_table
from .runner import drive
from .schemes import YUKTA_HW_SSV_OS_SSV, DesignContext, build_session

__all__ = ["ThreeLayerResult", "run"]


@dataclass
class ThreeLayerResult:
    rows_data: list = field(default_factory=list)

    def rows(self):
        return list(self.rows_data)

    def render(self):
        return render_table(
            ["configuration", "hb target", "avg heartbeat", "final quality",
             "energy (J)", "time (s)"],
            self.rows(),
            "Sec. III-D extension: two layers vs three layers on a QoS stream",
        )

    def by_label(self, label):
        for row in self.rows_data:
            if row[0] == label:
                return row
        raise KeyError(label)


def _run_stack(context, app_design, heartbeat_target, total_items=600,
               max_time=300.0, seed=21):
    from ..extensions import AppLayerRuntime, ThreeLayerCoordinator
    from ..extensions.app_layer import make_qos_application

    app = make_qos_application(total_items=total_items)
    board = Board(app, spec=context.spec, seed=seed)
    session = build_session(YUKTA_HW_SSV_OS_SSV, context)
    two = session.coordinator()
    if app_design is None:
        coordinator = two
    else:
        runtime = AppLayerRuntime(
            copy.deepcopy(app_design.controller), app,
            heartbeat_target=heartbeat_target,
        )
        coordinator = ThreeLayerCoordinator(two, runtime)
    drive(board, coordinator.control_step, max_time)
    avg_heartbeat = app.items_completed / max(board.time, 1e-9)
    return avg_heartbeat, app.quality, board.energy, board.time


def run(context: DesignContext = None, targets=(3.5, 6.0), seed=21,
        app_samples=150):
    """Regenerate the three-layer demonstration."""
    from ..extensions import design_app_layer

    context = context or DesignContext.create()
    app_design = design_app_layer(context, samples=app_samples, seed=seed + 50)
    result = ThreeLayerResult()
    hb, quality, energy, time_ = _run_stack(context, None, None, seed=seed)
    result.rows_data.append(
        ["two-layer (fixed quality)", "-", hb, quality, energy, time_]
    )
    for target in targets:
        hb, quality, energy, time_ = _run_stack(
            context, app_design, target, seed=seed
        )
        result.rows_data.append(
            [f"three-layer @ {target}", target, hb, quality, energy, time_]
        )
    return result
