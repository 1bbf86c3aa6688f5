"""Guardband-exhaustion detection (Sec. II-B's runtime promise).

"If the guardband is not large enough and is exhausted at runtime, the
controller detects it dynamically, and may no longer provide all the
guarantees expected."  This experiment makes that concrete with two faults:

* a **heatsink fault** (thermal resistance and switched capacitance jump,
  far outside the +-40% guardband) — the exhaustion flag must raise, and
  the loop must nonetheless settle at a safe degraded operating point
  ("may no longer provide all the guarantees expected" — but detected);
* a **temperature-sensor miscalibration** (the TMU channel under-reads by
  15 degC) — the controller unknowingly regulates the die 15 degC hotter
  than it believes; the stock firmware (reading the true thermal state)
  intervenes, and that sustained firmware override (an OS-visible signal
  on real boards) raises the flag.

Detection combines two runtime monitors: persistent bound-breaking
deviations on critical outputs (in the controller) and sustained emergency-
firmware override (in the coordinator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..board import Board

# The one-shot injection helpers now live in the fault subsystem
# (repro.faults.library), reimplemented as immediate permanent campaigns
# with identical board effects; re-exported here for compatibility.
from ..faults import inject_heatsink_fault, inject_sensor_fault
from ..workloads import make_application
from .report import render_table
from .runner import drive
from .schemes import YUKTA_HW_SSV_OS_SSV, DesignContext, build_session

__all__ = [
    "ExhaustionResult",
    "run",
    "inject_heatsink_fault",
    "inject_sensor_fault",
]


@dataclass
class ExhaustionResult:
    healthy_flagged: bool
    heatsink_flagged: bool
    heatsink_stable: bool  # outputs stayed bounded after the absorbable fault
    sensor_flagged: bool
    fault_time: float
    sensor_detection_delay: float  # periods from fault to flag (-1 if never)

    def rows(self):
        return [
            ["healthy run flagged exhaustion", str(self.healthy_flagged), "False"],
            ["heatsink fault flagged", str(self.heatsink_flagged), "True"],
            ["heatsink fault settled safely", str(self.heatsink_stable), "True"],
            ["sensor fault flagged", str(self.sensor_flagged), "True"],
            ["fault injected at (s)", self.fault_time, "-"],
            ["sensor-fault detection delay (periods)",
             self.sensor_detection_delay, "within the run"],
        ]

    def render(self):
        return render_table(
            ["check", "measured", "expected"], self.rows(),
            "Guardband exhaustion detection (Sec. II-B)",
        )


def _run_once(context, fault_fn, workload="gamess", max_time=200.0, seed=11):
    session = build_session(YUKTA_HW_SSV_OS_SSV, context)
    coordinator = session.coordinator()
    board = Board(make_application(workload), spec=context.spec, seed=seed,
                  record=False)
    fault_time = max_time / 3.0 if fault_fn else None
    fault_period = -1
    flag_period = -1
    temps = []  # true die temperature after each control period

    def control(board, period_steps):
        nonlocal fault_period, flag_period
        if fault_fn and fault_period < 0 and board.time >= fault_time:
            fault_fn(board)
            fault_period = len(temps)
        coordinator.control_step(board, period_steps)
        temps.append(board.thermal.temperature)
        if session.hw_controller.guardband_exhausted and flag_period < 0:
            flag_period = len(temps)

    drive(board, control, max_time)
    flagged = session.hw_controller.guardband_exhausted
    delay = (
        flag_period - fault_period
        if (fault_fn and flagged and flag_period >= 0)
        else -1
    )
    # "Bounded" after a fault: true temperature never ran away past the
    # emergency trip point.
    stable = bool(max(temps[-10:], default=0.0) < context.spec.emergency_temp_trip)
    return flagged, (fault_time or 0.0), delay, stable


def run(context: DesignContext = None, workload="gamess", seed=11):
    """Run the healthy / heatsink-fault / sensor-fault triple."""
    context = context or DesignContext.create()
    healthy_flagged, _, _, _ = _run_once(context, None, workload=workload,
                                         seed=seed)
    heatsink_flagged, fault_time, _, heatsink_stable = _run_once(
        context, inject_heatsink_fault, workload=workload, seed=seed
    )
    sensor_flagged, _, delay, _ = _run_once(
        context, inject_sensor_fault, workload=workload, seed=seed
    )
    return ExhaustionResult(
        healthy_flagged, heatsink_flagged, heatsink_stable,
        sensor_flagged, fault_time, delay,
    )
