"""The rack runtime: a third control layer over a bank of boards.

:class:`Rack` composes the facility plant declared by a
:class:`~repro.rack.spec.RackSpec` — N boards, one power cap, a cooling
envelope, a job arrival queue — with a rack-layer controller
(:class:`~repro.rack.controllers.SSVRackController` or the heuristic
baseline) and the per-board budget governors underneath.

Control-loop shape (one rack period)
------------------------------------
1. fault schedule edges (boards drop offline / sensors drop out);
2. job admission (arrivals enter the queue) and dispatch (idle online
   boards take the queue head);
3. declared sensing: per-board power / headroom / queue depth;
4. cooling state update and cap derate (the envelope);
5. rack controller: budgets from declared sensors, floors and cap
   enforced;
6. budget governors: each board turns its budget into one DVFS pair;
7. plant stepping: every busy board advances ``rack_period`` worth of
   board control periods at its held command — in one
   :class:`~repro.board.bank.BoardBank` call per tick count (each lane
   actuated once), or board period by board period on the scalar
   reference path (``use_bank=False``);
8. job completion + SLA accounting, trace row, invariant checks.

Exactness contract
------------------
``use_bank=True`` and ``use_bank=False`` produce bit-identical rack
traces and board states: re-commanding a held, already-snapped DVFS
pair is a no-op, the bank's per-lane float sequence does not depend on
window boundaries or lane grouping, every rack-layer computation is
plain float arithmetic over identical readings, and dispatch order is
deterministic.  Lanes with an actuator fault hook keep the per-period
actuation.  The ``rack-bank-vs-scalar`` oracle in ``repro verify``
holds this at 0 ULP.
"""

from __future__ import annotations

import functools
import math
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from ..board import Board, BoardBank
from ..board.specs import BIG, LITTLE
from ..faults.hooks import SensorFault
from ..workloads import Application
from .controllers import BoardReading, BudgetGovernor, SSVRackController
from .spec import RackSpec

__all__ = [
    "Rack",
    "RackJob",
    "RackRunResult",
    "RackTrace",
    "instantiate_job_workload",
]


def instantiate_job_workload(workload):
    """Resolve a job workload name into fresh Application instances.

    Accepts every program/mix name the workload library knows, plus an
    optional ``@<scale>`` suffix (e.g. ``"blackscholes@0.1"``) that
    scales each phase's instruction budget — rack job streams want runs
    of tens of seconds, not the paper's full 120-250 s programs.
    """
    return [Application(name, phases)
            for name, phases in _job_phases(workload)]


@functools.lru_cache(maxsize=256)
def _job_phases(workload):
    """``((app name, phases), ...)`` of one job workload, memoized.

    Phases are frozen, so every job of a workload shares them.
    """
    name, _, scale_text = workload.partition("@")
    scale = float(scale_text) if scale_text else 1.0
    if not (scale > 0):
        raise ValueError(f"workload scale must be positive: {workload!r}")
    from ..experiments.runner import instantiate_workload

    return tuple(
        (app.name, tuple(replace(ph, instructions=ph.instructions * scale)
                         for ph in app.phases))
        for app in instantiate_workload(name)
    )


@dataclass
class RackJob:
    """Runtime state of one queued/running/completed job."""

    spec: object  # JobSpec
    state: str = "queued"  # queued | running | completed
    board: int = None
    apps: list = None
    dispatched_at: float = None
    completed_at: float = None
    requeues: int = 0

    @property
    def missed_sla(self):
        if self.completed_at is None:
            return False
        return self.completed_at > self.spec.deadline + 1e-9


@dataclass
class RackTrace:
    """Per-rack-period history of the facility loop."""

    times: list = field(default_factory=list)
    cap: list = field(default_factory=list)
    cap_eff: list = field(default_factory=list)
    inlet: list = field(default_factory=list)
    power_declared: list = field(default_factory=list)  # controller's view
    power_true: list = field(default_factory=list)  # energy-derived mean
    budget_total: list = field(default_factory=list)
    budgets: list = field(default_factory=list)  # per-board rows
    board_power: list = field(default_factory=list)  # per-board true rows
    queue_depth: list = field(default_factory=list)
    running: list = field(default_factory=list)
    completed: list = field(default_factory=list)
    sla_misses: list = field(default_factory=list)
    churn: list = field(default_factory=list)  # sum |delta budget| this edge
    online: list = field(default_factory=list)  # online board count

    def as_arrays(self):
        out = {}
        for name in ("times", "cap", "cap_eff", "inlet", "power_declared",
                     "power_true", "budget_total", "queue_depth", "running",
                     "completed", "sla_misses", "churn", "online"):
            out[name] = np.asarray(getattr(self, name), dtype=float)
        out["budgets"] = np.asarray(self.budgets, dtype=float)
        out["board_power"] = np.asarray(self.board_power, dtype=float)
        return out


@dataclass
class RackRunResult:
    """Outcome of one rack campaign."""

    controller: str
    periods: int
    elapsed: float  # simulated seconds the loop covered
    energy: float
    makespan: float  # completion time of the last finished job (0 if none)
    jobs_admitted: int
    jobs_completed: int
    jobs_unfinished: int
    sla_misses: int
    requeues: int
    rejected_budgets: int
    trace: RackTrace
    jobs: list
    bank_counters: dict = None
    controller_info: dict = field(default_factory=dict)
    board_energy: tuple = ()
    board_time: tuple = ()
    step_wall: float = 0.0  # wall seconds inside plant stepping
    loop_wall: float = 0.0  # wall seconds for the whole rack loop

    @property
    def exd(self):
        """The rack-level energy x delay product (J x s)."""
        horizon = self.makespan if self.makespan > 0 else self.elapsed
        return self.energy * horizon

    def summary(self):
        return (
            f"{self.controller}: {self.jobs_completed}/{self.jobs_admitted} "
            f"jobs, {self.sla_misses} SLA miss(es), "
            f"E={self.energy:.1f} J, makespan={self.makespan:.1f} s, "
            f"ExD={self.exd:.0f}"
        )


class Rack:
    """N boards, one cap, one queue — and a third-layer controller."""

    def __init__(self, spec: RackSpec, controller=None, use_bank=True,
                 record=False, record_boards=False, seed=0, telemetry=None):
        self.spec = spec
        self.seed = int(seed)
        self.controller = (controller if controller is not None
                           else SSVRackController(spec))
        self.use_bank = bool(use_bank)
        self.record = bool(record)
        if telemetry is None:
            from ..telemetry import active_session

            telemetry = active_session()
        self.telemetry = telemetry
        self.boards = [
            Board([], spec=bs, seed=self.seed + i, record=record_boards,
                  telemetry=telemetry)
            for i, bs in enumerate(spec.boards)
        ]
        self.bank = (BoardBank(self.boards, telemetry=telemetry)
                     if self.use_bank else None)
        self.governors = [BudgetGovernor(bs) for bs in spec.boards]
        self.jobs = [RackJob(spec=j) for j in sorted(
            spec.jobs, key=lambda j: (j.arrival, j.name)
        )]
        self.queue = []  # admitted, undispatched RackJobs (FIFO)
        self._admitted = 0  # also the cursor of the next arrival to admit
        self._job_on_board = [None] * spec.n_boards
        self._online = [True] * spec.n_boards
        self._sensor_reverters = {}
        self._last_energy = [0.0] * spec.n_boards
        self.inlet_temp = spec.cooling.supply_temp
        self._inlet_alpha = min(spec.rack_period / spec.cooling.tau, 1.0)
        self.time = 0.0
        self.trace = RackTrace() if record else None
        self._last_budgets = list(self.controller.budgets)
        # Wall-clock split, filled by run(): plant stepping vs everything
        # else (sensing, control, dispatch, bookkeeping).  The rack
        # benchmark holds the ratio down.
        self.step_wall = 0.0
        self.loop_wall = 0.0

    # ------------------------------------------------------------------
    # Fault schedule
    # ------------------------------------------------------------------
    def _update_faults(self, now):
        for fault in self.spec.faults:
            active = fault.active_at(now)
            i = fault.board
            if fault.kind == "offline":
                if active and self._online[i]:
                    self._take_offline(i)
                elif not active and not self._online[i]:
                    self._online[i] = True
            else:  # power-sensor dropout
                installed = fault in self._sensor_reverters
                if active and not installed:
                    sensor = self.boards[i].power_sensors[BIG]
                    previous = sensor.fault_hook
                    sensor.fault_hook = SensorFault("dropout")
                    self._sensor_reverters[fault] = (sensor, previous)
                elif not active and installed:
                    sensor, previous = self._sensor_reverters.pop(fault)
                    sensor.fault_hook = previous

    def _take_offline(self, i):
        """Drop a board: requeue its job, reclaim its budget."""
        self._online[i] = False
        job = self._job_on_board[i]
        if job is not None:
            board = self.boards[i]
            # Abandon the half-run applications (restart-from-scratch
            # semantics) and retire the lane's cached plans.
            for app in job.apps:
                if app in board.applications:
                    board.applications.remove(app)
            if self.bank is not None:
                self.bank.invalidate_board(i)
            job.state = "queued"
            job.board = None
            job.apps = None
            job.requeues += 1
            self._job_on_board[i] = None
            self.queue.insert(0, job)

    # ------------------------------------------------------------------
    # Queue admission and dispatch
    # ------------------------------------------------------------------
    def _admit(self, now):
        # Jobs are sorted by arrival and each is admitted exactly once, so
        # the admitted jobs are always a prefix of ``self.jobs``.
        jobs = self.jobs
        while (self._admitted < len(jobs)
               and jobs[self._admitted].spec.arrival <= now + 1e-9):
            self.queue.append(jobs[self._admitted])
            self._admitted += 1

    def _dispatch(self, now):
        if not self.queue or None not in self._job_on_board:
            return  # nothing waiting, or no board without a job
        for i, board in enumerate(self.boards):
            if not self.queue:
                break
            if not self._online[i] or self._job_on_board[i] is not None:
                continue
            if not board.done:
                continue  # residual foreign work; never co-schedule
            job = self.queue.pop(0)
            apps = instantiate_job_workload(job.spec.workload)
            board.applications.extend(apps)
            if self.bank is not None:
                self.bank.invalidate_board(i)
            job.apps = apps
            job.board = i
            job.state = "running"
            job.dispatched_at = now
            self._job_on_board[i] = job

    def _complete(self, now_end):
        for i, job in enumerate(self._job_on_board):
            if job is None:
                continue
            for app in job.apps:
                if not app.done:
                    break
            else:
                job.state = "completed"
                job.completed_at = now_end
                self._job_on_board[i] = None

    # ------------------------------------------------------------------
    # Declared sensing and the cooling envelope
    # ------------------------------------------------------------------
    def _read(self):
        """Declared readings per board, and their trusted power total."""
        readings = []
        total = 0
        depth = len(self.queue)
        budgets = self.controller.budgets
        for board, online, job, budget in zip(
                self.boards, self._online, self._job_on_board, budgets):
            if not online:
                readings.append(BoardReading(0.0, 0.0, 0, False))
                continue
            sensors = board.power_sensors
            power = (sensors[BIG].read() + sensors[LITTLE].read()
                     + board.spec.board_static_power)
            if math.isfinite(power):
                total += power
                headroom = budget - power
            else:
                headroom = math.nan
            readings.append(BoardReading(power, headroom, depth, True,
                                         job is not None))
        return readings, total

    def _update_cooling(self, total):
        target = self.spec.cooling.steady_inlet(total)
        self.inlet_temp += self._inlet_alpha * (target - self.inlet_temp)

    def _effective_cap(self, cap):
        derated = cap * self.spec.cooling.derate_fraction(self.inlet_temp)
        return max(derated, self.spec.min_cap())

    # ------------------------------------------------------------------
    # Plant stepping
    # ------------------------------------------------------------------
    def _advance(self, commands):
        """Advance every busy online board one rack period.

        ``commands`` maps board index -> (freq_big, freq_little), held
        constant for the whole rack period.  Banked stepping actuates each
        lane once and advances every lane with the same tick count in one
        bank call; the scalar path replays the per-board-period
        actuate-then-step sequence board by board.
        """
        # Only online boards running a job get commands, and _complete
        # retires a job the period it finishes: every lane has work left.
        lanes = list(commands)
        if not lanes:
            return
        t0 = _time.perf_counter()
        try:
            self._advance_lanes(lanes, commands)
        finally:
            self.step_wall += _time.perf_counter() - t0

    def _advance_lanes(self, lanes, commands):
        if self.bank is None:
            self._step_each_period(lanes, commands)
            return
        # Governor commands are snapped DVFS table values, so re-commanding
        # one at every board period is a no-op: actuating once and stepping
        # the whole rack period is exact.  An actuator fault hook can start
        # or stop dropping writes mid-period, so a hooked lane keeps the
        # per-board-period sequence.
        groups = {}
        for i in lanes:
            board = self.boards[i]
            if board.fault_hooks is not None:
                self._step_each_period([i], commands)
                continue
            fb, fl = commands[i]
            board.set_cluster_frequency(BIG, fb)
            board.set_cluster_frequency(LITTLE, fl)
            ticks = self.spec.board_periods(i) * board.spec.period_steps()
            groups.setdefault(ticks, []).append(i)
        for ticks, members in groups.items():
            self.bank.run_period_bank(ticks, only=members)

    def _step_each_period(self, lanes, commands):
        """The reference: actuate, then step, once per board period."""
        for i in lanes:
            fb, fl = commands[i]
            board = self.boards[i]
            steps = board.spec.period_steps()
            for _ in range(self.spec.board_periods(i)):
                board.set_cluster_frequency(BIG, fb)
                board.set_cluster_frequency(LITTLE, fl)
                if self.bank is None:
                    board.run_period(steps)
                else:
                    self.bank.run_period_bank(steps, only=(i,))
                if board.done:
                    break

    # ------------------------------------------------------------------
    # The campaign loop
    # ------------------------------------------------------------------
    def run(self, max_time=120.0, cap_schedule=None):
        """Run the rack loop for ``max_time`` simulated seconds.

        ``cap_schedule`` is an optional sorted list of ``(time, cap)``
        pairs overriding the spec cap from each time onward — the cap
        step-response experiment's knob.  Stops early once every admitted
        job has completed and no arrivals remain.
        """
        from ..verify.invariants import active_monitor

        spec = self.spec
        rp = spec.rack_period
        periods = max(int(round(max_time / rp)), 1)
        monitor = active_monitor()
        last_arrival = max((j.spec.arrival for j in self.jobs), default=0.0)
        t_loop = _time.perf_counter()
        for p in range(periods):
            now = p * rp
            cap = spec.power_cap
            if cap_schedule:
                for t, value in cap_schedule:
                    if t <= now + 1e-9:
                        cap = value
            self._update_faults(now)
            self._admit(now)
            self._dispatch(now)
            readings, power_total = self._read()
            self._update_cooling(power_total)
            cap_eff = self._effective_cap(cap)
            budgets = self.controller.step(readings, cap_eff)
            # Busy readings are exactly the online boards running a job.
            commands = {
                i: governor.command(budgets[i], reading.power)
                for i, (governor, reading) in enumerate(
                    zip(self.governors, readings))
                if reading.busy
            }
            if monitor is not None:
                running = sum(1 for j in self._job_on_board if j is not None)
                done_jobs = sum(1 for j in self.jobs
                                if j.state == "completed")
                monitor.check_rack(
                    time=now,
                    budgets=budgets,
                    floors=spec.floors(),
                    cap=cap_eff,
                    online=list(self._online),
                    admitted=self._admitted,
                    queued=len(self.queue),
                    running=running,
                    completed=done_jobs,
                )
            if self.trace is not None:
                energy_before = [b.energy for b in self.boards]
            self._advance(commands)
            now_end = now + rp
            self.time = now_end
            self._complete(now_end)
            if self.trace is not None:
                completed_cum = sum(1 for j in self.jobs
                                    if j.state == "completed")
                sla_cum = sum(1 for j in self.jobs if j.missed_sla)
                board_power = [
                    (b.energy - e0) / rp
                    for b, e0 in zip(self.boards, energy_before)
                ]
                churn = sum(abs(b - lb) for b, lb in
                            zip(budgets, self._last_budgets))
                self._last_budgets = list(budgets)
                self.trace.times.append(now)
                self.trace.cap.append(cap)
                self.trace.cap_eff.append(cap_eff)
                self.trace.inlet.append(self.inlet_temp)
                self.trace.power_declared.append(power_total)
                self.trace.power_true.append(sum(board_power))
                self.trace.budget_total.append(sum(budgets))
                self.trace.budgets.append(list(budgets))
                self.trace.board_power.append(board_power)
                self.trace.queue_depth.append(len(self.queue))
                self.trace.running.append(sum(
                    1 for j in self._job_on_board if j is not None
                ))
                self.trace.completed.append(completed_cum)
                self.trace.sla_misses.append(sla_cum)
                self.trace.churn.append(churn)
                self.trace.online.append(sum(self._online))
            if (
                self.jobs
                and now_end >= last_arrival
                and not self.queue
                and all(j is None for j in self._job_on_board)
                and all(job.state != "queued" for job in self.jobs)
            ):
                periods = p + 1
                break
        self.loop_wall += _time.perf_counter() - t_loop
        return self._result(periods)

    def _result(self, periods):
        completed = [j for j in self.jobs if j.state == "completed"]
        makespan = max((j.completed_at for j in completed), default=0.0)
        info = {}
        controller = self.controller
        if hasattr(controller, "gain"):
            info["gain"] = controller.gain
        if hasattr(controller, "mu_peak"):
            info["mu_peak"] = controller.mu_peak
        return RackRunResult(
            controller=getattr(controller, "name", type(controller).__name__),
            periods=periods,
            elapsed=periods * self.spec.rack_period,
            energy=sum(b.energy for b in self.boards),
            makespan=makespan,
            jobs_admitted=self._admitted,
            jobs_completed=len(completed),
            jobs_unfinished=self._admitted - len(completed),
            sla_misses=sum(1 for j in self.jobs if j.missed_sla),
            requeues=sum(j.requeues for j in self.jobs),
            rejected_budgets=controller.rejected_budgets,
            trace=self.trace,
            jobs=list(self.jobs),
            bank_counters=(self.bank.counters()
                           if self.bank is not None else None),
            controller_info=info,
            board_energy=tuple(b.energy for b in self.boards),
            board_time=tuple(b.time for b in self.boards),
            step_wall=self.step_wall,
            loop_wall=self.loop_wall,
        )
