"""Multilayer runtime coordination (Fig. 4 / Fig. 5).

The :class:`MultilayerCoordinator` owns the per-layer controllers and their
optimizers, invokes them every control period, and wires the external
signals: each controller reads, as external signals, the knob values the
*other* layer actuated last period.  The hardware layer actuates cluster
frequency and core counts; the software layer actuates the three placement
knobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..board import BIG, LITTLE, Board
from ..telemetry.tracing import NULL_SPAN
from .characterize import sample_signals
from .layer import HW_OUTPUTS, SW_OUTPUTS
from .optimizer import ExDOptimizer, exd_metric


def _null_span(*args, **kwargs):
    return NULL_SPAN


def _actuate_hw(board, hw_u):
    n_big, n_little, f_big, f_little = hw_u
    board.set_active_cores(BIG, n_big)
    board.set_active_cores(LITTLE, n_little)
    board.set_cluster_frequency(BIG, f_big)
    board.set_cluster_frequency(LITTLE, f_little)


__all__ = ["MultilayerCoordinator", "ControlStepRecord", "SensedPeriod"]


@dataclass(slots=True)
class SensedPeriod:
    """What :meth:`MultilayerCoordinator.sense` hands the later phases."""

    signals: dict
    outputs_hw: np.ndarray
    outputs_sw: np.ndarray
    ext_for_hw: list
    ext_for_sw: list
    exd: float
    override_active: bool
    t_start: float


@dataclass
class ControlStepRecord:
    """One control period's worth of observable state (for analysis)."""

    time: float
    outputs_hw: np.ndarray
    outputs_sw: np.ndarray
    targets_hw: np.ndarray
    targets_sw: np.ndarray
    actuation_hw: list
    actuation_sw: list
    exd_proxy: float


class MultilayerCoordinator:
    """Runs the two Yukta layers against a board.

    Either layer may be a :class:`~repro.core.controller.RuntimeController`
    (SSV) or any object with the same ``step(outputs, externals)`` /
    ``set_targets`` interface (e.g. heuristic or LQG stand-ins), which is
    how the mixed schemes of Table IV are assembled.
    """

    # Sustained firmware override (the TMU throttling *under* the
    # controller) means the declared guarantees are no longer being met by
    # the controller itself — the OS-visible form of guardband exhaustion.
    FIRMWARE_OVERRIDE_PERIODS = 4

    def __init__(
        self,
        hw_controller,
        sw_controller=None,
        hw_optimizer: ExDOptimizer = None,
        sw_optimizer: ExDOptimizer = None,
        telemetry=None,
        monitor=None,
    ):
        self.hw_controller = hw_controller
        self.sw_controller = sw_controller
        self.hw_optimizer = hw_optimizer
        self.sw_optimizer = sw_optimizer
        if telemetry is None:
            from ..telemetry import active_session

            telemetry = active_session()
        self.telemetry = telemetry
        if monitor is None:
            from ..verify.invariants import active_monitor

            monitor = active_monitor()
        # Runtime invariant monitor (repro.verify); same is-None fast path
        # as telemetry, so un-verified runs pay one attribute check.
        self.monitor = monitor
        self.records = []
        self._last_hw_actuation = None
        self._last_sw_actuation = None
        self._override_streak = 0
        self._opt_published = {"hw": (0, 0), "sw": (0, 0)}

    def reset(self):
        for ctrl in (self.hw_controller, self.sw_controller):
            if ctrl is not None and hasattr(ctrl, "reset"):
                ctrl.reset()
        for opt in (self.hw_optimizer, self.sw_optimizer):
            if opt is not None:
                opt.reset()
        self.records.clear()
        self._last_hw_actuation = None
        self._last_sw_actuation = None
        self._override_streak = 0
        self._opt_published = {"hw": (0, 0), "sw": (0, 0)}

    def control_step(self, board: Board, period_steps, signals=None):
        """One control period: sense, optimize targets, actuate both layers.

        ``signals`` may carry a pre-sampled (and possibly sanitized) signal
        dict from :func:`~repro.core.characterize.sample_signals`; the
        supervisor uses this to sample once per period (the instruction
        counters are delta reads, so sampling twice would corrupt them)
        and to scrub non-finite sensor readings before they reach the
        controller state machines.

        The period runs as three phases, :meth:`sense`,
        :meth:`step_layers` and :meth:`finish`.  The banked runner calls
        the same phases for many boards at once, with the layer steps of
        same-design SSV controllers stacked in between.
        """
        period = self.sense(board, period_steps, signals)
        hw_u, sw_u = self.step_layers(board, period)
        return self.finish(board, period, hw_u, sw_u)

    def sense(self, board: Board, period_steps, signals=None):
        """Phase 1: sense, optimize targets, wire the external signals."""
        tel = self.telemetry
        t_start = time.perf_counter() if tel is not None else 0.0
        # Firmware-override detection: the emergency TMU intervening under
        # the controller is visible to the OS (throttle status in sysfs on
        # real boards) and means the plant has left the designed-for
        # envelope — the runtime equivalent of guardband exhaustion.
        override_active = board.emergency.state.any_active
        if override_active:
            self._override_streak += 1
        else:
            self._override_streak = 0
        if (
            self._override_streak >= self.FIRMWARE_OVERRIDE_PERIODS
            and hasattr(self.hw_controller, "guardband_exhausted")
        ):
            self.hw_controller.guardband_exhausted = True
        if signals is None:
            if tel is None:
                signals = sample_signals(board, period_steps)
            else:
                with tel.span("sample", board_time=board.time):
                    signals = sample_signals(board, period_steps)
        outputs_hw = np.array([signals[name] for name in HW_OUTPUTS])
        outputs_sw = np.array([signals[name] for name in SW_OUTPUTS])
        # The optimizer's ExD proxy must price the whole platform: leaving
        # out the constant board power biases it against performance.
        total_power = (
            signals["power_big"]
            + signals["power_little"]
            + board.spec.board_static_power
        )
        exd = exd_metric(total_power, signals["bips_total"])

        # --- target optimization (Fig. 5) -----------------------------
        if tel is None:
            self._optimize(exd, outputs_hw, outputs_sw)
        else:
            with tel.span("optimize"):
                self._optimize(exd, outputs_hw, outputs_sw)

        # --- external signal wiring ------------------------------------
        # Each layer reads the other layer's most recent actuation; before
        # the first actuation it reads the current board state instead.
        ext_for_hw = (
            list(self._last_sw_actuation)
            if self._last_sw_actuation is not None
            else [signals["n_threads_big"], signals["tpc_big"], signals["tpc_little"]]
        )
        ext_for_sw = (
            list(self._last_hw_actuation)
            if self._last_hw_actuation is not None
            else [
                signals["n_big_cores"],
                signals["n_little_cores"],
                signals["freq_big"],
                signals["freq_little"],
            ]
        )
        return SensedPeriod(signals, outputs_hw, outputs_sw, ext_for_hw,
                            ext_for_sw, exd, override_active, t_start)

    def _optimize(self, exd, outputs_hw, outputs_sw):
        if self.hw_optimizer is not None:
            self.hw_controller.set_targets(
                self.hw_optimizer.update(exd, outputs_hw)
            )
        if self.sw_optimizer is not None and self.sw_controller is not None:
            self.sw_controller.set_targets(
                self.sw_optimizer.update(exd, outputs_sw)
            )

    def step_layers(self, board: Board, period: SensedPeriod):
        """Phase 2: step the hw layer, actuate it, then step the sw layer."""
        tel = self.telemetry
        span = tel.span if tel is not None else _null_span
        with span("hw.step"):
            hw_u = self.hw_controller.step(period.outputs_hw, period.ext_for_hw)
        self.actuate_hw(board, hw_u)
        sw_u = None
        if self.sw_controller is not None:
            with span("sw.step"):
                self.observe_threads(board)
                sw_u = self.sw_controller.step(period.outputs_sw,
                                               period.ext_for_sw)
        return hw_u, sw_u

    def actuate_hw(self, board: Board, hw_u):
        """Apply the hw layer's knobs (before the sw layer steps)."""
        tel = self.telemetry
        if tel is None:
            _actuate_hw(board, hw_u)
        else:
            with tel.span("actuate.hw"):
                _actuate_hw(board, hw_u)
        self._last_hw_actuation = hw_u

    def observe_threads(self, board: Board):
        """Hand a thread-counting sw layer the post-hw-actuation count."""
        if hasattr(self.sw_controller, "observe_thread_count"):
            self.sw_controller.observe_thread_count(board.runnable_thread_count())

    def finish(self, board: Board, period: SensedPeriod, hw_u, sw_u):
        """Phase 3: actuate the sw layer, record, publish, check."""
        tel = self.telemetry
        if sw_u is not None:
            n_threads_big, tpc_big, tpc_little = sw_u
            if tel is None:
                board.set_placement_knobs(n_threads_big, tpc_big, tpc_little)
            else:
                with tel.span("actuate.sw"):
                    board.set_placement_knobs(n_threads_big, tpc_big,
                                              tpc_little)
            self._last_sw_actuation = sw_u

        signals, exd = period.signals, period.exd
        self.records.append(
            ControlStepRecord(
                time=board.time,
                outputs_hw=period.outputs_hw,
                outputs_sw=period.outputs_sw,
                targets_hw=np.asarray(getattr(self.hw_controller, "targets", [])),
                targets_sw=np.asarray(
                    getattr(self.sw_controller, "targets", [])
                    if self.sw_controller is not None
                    else []
                ),
                actuation_hw=hw_u,
                actuation_sw=sw_u,
                exd_proxy=exd,
            )
        )
        if tel is not None:
            # Spanned only when profiling, so the phase profiler prices
            # the telemetry publish itself (the one loop phase the other
            # spans cannot see) while plain sessions keep the extra span
            # off their per-period cost.
            if tel.tracer.profiler is not None:
                with tel.span("telemetry"):
                    self._publish_telemetry(
                        tel, board, signals, hw_u, sw_u, exd,
                        period.override_active, period.t_start,
                    )
            else:
                self._publish_telemetry(
                    tel, board, signals, hw_u, sw_u, exd,
                    period.override_active, period.t_start,
                )
        if self.monitor is not None:
            self.monitor.check_period(board, coordinator=self,
                                      signals=signals)
        return hw_u, sw_u

    # ------------------------------------------------------------------
    # Telemetry (no-op unless a session is attached)
    # ------------------------------------------------------------------
    def _publish_telemetry(self, tel, board, signals, hw_u, sw_u, exd,
                           override_active, t_start):
        tel.periods.inc()
        tel.exd_gauge.set(exd)
        if override_active:
            tel.tmu_throttle.inc()
        for layer, opt in (("hw", self.hw_optimizer), ("sw", self.sw_optimizer)):
            if opt is None:
                continue
            seen_moves, seen_reverts = self._opt_published[layer]
            if opt.moves > seen_moves:
                tel.opt_moves.labels(layer=layer).inc(opt.moves - seen_moves)
            reverts = getattr(opt, "reverts", 0)
            if reverts > seen_reverts:
                tel.opt_reverts.labels(layer=layer).inc(reverts - seen_reverts)
            self._opt_published[layer] = (opt.moves, reverts)
        tel.control_step_hist.observe(time.perf_counter() - t_start)
        tel.record_period({
            "period": tel.period,
            "time": board.time,
            "signals": {k: float(v) for k, v in signals.items()},
            "actuation_hw": hw_u,
            "actuation_sw": sw_u,
            "targets_hw": getattr(self.hw_controller, "targets", None),
            "targets_sw": getattr(self.sw_controller, "targets", None),
            "exd_proxy": exd,
            "emergency_active": override_active,
            "counters": board.counters(),
        })
