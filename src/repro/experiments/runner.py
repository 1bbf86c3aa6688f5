"""The experiment runner: one workload under one scheme on the board.

:func:`drive` is the closed loop every experiment shares: advance the
board one 500 ms control period, then hand it to a per-period control
function (a coordinator's ``control_step``, the monolithic LQG step, or
an experiment's own wrapper around one).  :func:`run_workload`
instantiates the workload, wires a scheme session to a fresh board,
drives it until completion and packages the result through
:func:`cell_metrics`, which the bank runner shares.  Whole matrices run
through :func:`repro.experiments.engine.run_matrix`.
"""

from __future__ import annotations

import time
import types

import numpy as np

from ..board import BIG, LITTLE, Board
from ..core import exd_metric
from ..core.characterize import sample_signals
from ..core.layer import HW_OUTPUTS, SW_OUTPUTS
from ..telemetry import active_session
from ..workloads import make_application, make_mix
from .metrics import RunMetrics
from .schemes import DesignContext, build_session

__all__ = [
    "cell_metrics",
    "drive",
    "run_workload",
    "instantiate_workload",
    "workload_name",
]


def instantiate_workload(workload):
    """Turn a workload name (program or mix) into application instances."""
    if isinstance(workload, (list, tuple)):
        return list(workload)
    try:
        return [make_application(workload)]
    except KeyError:
        return make_mix(workload)


def workload_name(workload):
    """The canonical result-dict key for a workload argument."""
    if isinstance(workload, str):
        return workload
    return "+".join(a.name for a in instantiate_workload(workload))


def drive(board, control, max_time, telemetry=None):
    """Run the 500 ms closed loop until the board finishes or ``max_time``.

    Each period opens on ``telemetry`` (if given), advances the board with
    :meth:`~repro.board.Board.run_period` and, unless that finished the
    workload, calls ``control(board, period_steps)``.
    """
    period_steps = board.spec.period_steps()
    while not board.done and board.time < max_time:
        if telemetry is None:
            board.run_period(period_steps)
        else:
            telemetry.begin_period(board.time)
            t0 = time.perf_counter()
            with telemetry.span("sim", cat="period", board_time=board.time):
                board.run_period(period_steps)
            telemetry.sim_period_hist.observe(time.perf_counter() - t0)
        if board.done:
            break
        control(board, period_steps)


def _monolithic_control(session, telemetry=None, monitor=None):
    """The per-period step of the single-controller (monolithic LQG) scheme."""
    mono = session.monolithic
    hw_opt, sw_opt = session.hw_optimizer, session.sw_optimizer
    tel = telemetry
    # The invariant monitor inspects optimizers through coordinator-shaped
    # attribute access; the monolithic scheme has no coordinator, so hand
    # it a shim carrying the same two attributes.
    opt_shim = types.SimpleNamespace(hw_optimizer=hw_opt, sw_optimizer=sw_opt)

    def control(board, period_steps):
        if tel is not None:
            with tel.span("sample", board_time=board.time):
                signals = sample_signals(board, period_steps)
        else:
            signals = sample_signals(board, period_steps)
        outputs_hw = np.array([signals[name] for name in HW_OUTPUTS])
        outputs_sw = np.array([signals[name] for name in SW_OUTPUTS])
        total_power = (
            signals["power_big"]
            + signals["power_little"]
            + board.spec.board_static_power
        )
        exd = exd_metric(total_power, signals["bips_total"])
        if hw_opt is not None:
            mono.set_targets(hw_opt.update(exd, outputs_hw))
        if sw_opt is not None:
            mono.set_sw_targets(sw_opt.update(exd, outputs_sw))
        hw_u = mono.step_joint(outputs_hw, outputs_sw)
        n_big, n_little, f_big, f_little = hw_u
        board.set_active_cores(BIG, n_big)
        board.set_active_cores(LITTLE, n_little)
        board.set_cluster_frequency(BIG, f_big)
        board.set_cluster_frequency(LITTLE, f_little)
        sw_u = mono.pending_sw_actuation()
        if sw_u is not None:
            board.set_placement_knobs(*sw_u)
        if tel is not None:
            tel.periods.inc()
            tel.exd_gauge.set(exd)
        if monitor is not None:
            monitor.check_period(board, coordinator=opt_shim,
                                 signals=signals)

    return control


def cell_metrics(scheme, workload, board, coordinator, record, bank=None):
    """One finished cell's :class:`RunMetrics`, as every runner reports it.

    ``coordinator`` is ``None`` for the monolithic scheme.  ``bank`` (the
    bank runner's lockstep counters) lands in ``notes["bank"]``.
    """
    notes = {
        "emergency_trips": board.emergency.state.trip_count,
        "coordinator_records": (len(coordinator.records)
                                if coordinator is not None else 0),
    }
    if bank is not None:
        notes["bank"] = bank
    hw = getattr(coordinator, "hw_controller", None)
    if hasattr(hw, "guardband_exhausted"):
        notes["guardband_exhausted"] = hw.guardband_exhausted
    return RunMetrics(
        scheme=scheme,
        workload=workload if isinstance(workload, str) else "+".join(
            a.name for a in board.applications),
        execution_time=board.time,
        energy=board.energy,
        completed=board.done,
        trace=board.trace.as_arrays() if record and board.trace else {},
        notes=notes,
    )


def run_workload(
    scheme_name,
    workload,
    context: DesignContext,
    seed=7,
    max_time=600.0,
    record=True,
    telemetry=None,
    monitor=None,
) -> RunMetrics:
    """Run one workload to completion under one scheme.

    ``telemetry`` is an optional
    :class:`~repro.telemetry.TelemetrySession`; omitted, the run inherits
    the process-wide session (``None`` = disabled, the near-zero-overhead
    fast path).  ``monitor`` is an optional
    :class:`~repro.verify.InvariantMonitor` with the same inheritance
    rule (``repro verify`` installs one process-wide).
    """
    from ..verify.invariants import active_monitor

    tel = telemetry if telemetry is not None else active_session()
    mon = monitor if monitor is not None else active_monitor()
    session = build_session(scheme_name, context)
    board = Board(instantiate_workload(workload), spec=context.spec,
                  seed=seed, record=record, telemetry=tel)
    if session.monolithic is not None:
        coordinator = None
        control = _monolithic_control(session, telemetry=tel, monitor=mon)
    else:
        coordinator = session.coordinator(telemetry=tel, monitor=mon)
        control = coordinator.control_step
    drive(board, control, max_time, telemetry=tel)
    return cell_metrics(scheme_name, workload, board, coordinator, record)
