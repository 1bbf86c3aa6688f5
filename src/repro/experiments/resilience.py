"""Resilience sweep: fault matrix × schemes under the safe-mode supervisor.

For each controller scheme the experiment first runs fault-free under the
:class:`~repro.core.supervisor.Supervisor` (a false-positive guard and the
ExD reference), then replays every campaign of the fault matrix
(:func:`repro.faults.default_fault_matrix`) and reports, per (fault,
scheme) cell:

* whether the supervisor detected the fault and the detection latency in
  control periods from fault onset;
* time spent in DEGRADED mode and whether the primary controllers were
  re-promoted to NOMINAL (expected for transient faults);
* safety-violation time — seconds with the *true* die temperature above
  the 79 degC limit or big-cluster power above 3.3 W;
* the ExD penalty relative to the scheme's fault-free supervised run.

The monolithic LQG scheme is excluded: the supervisor swaps whole layer
pairs and has nothing to degrade a single fused controller *to*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..board import BIG, Board
from ..core import MultilayerCoordinator, Supervisor, SupervisorConfig
from ..faults import FaultInjector, default_fault_matrix
from ..telemetry.tracing import NULL_SPAN
from .report import render_table
from .runner import instantiate_workload
from .schemes import (
    COORDINATED_HEURISTIC,
    YUKTA_HW_SSV_OS_SSV,
    DesignContext,
    build_session,
)

__all__ = ["ResilienceRow", "ResilienceResult", "run", "supervised_run",
           "supervised_runs_banked"]

DEFAULT_SCHEMES = (YUKTA_HW_SSV_OS_SSV, COORDINATED_HEURISTIC)


@dataclass
class ResilienceRow:
    """One (fault, scheme) cell of the sweep."""

    fault: str
    scheme: str
    detected: bool
    detect_latency: int  # control periods from fault onset (-1 if undetected)
    degraded_time: float  # s in DEGRADED mode
    recovered: bool  # re-promoted to NOMINAL after the trip
    temp_violation_time: float  # s with true temperature > temp_limit
    power_violation_time: float  # s with big power > power_limit_big
    exd_penalty_pct: float  # vs the scheme's fault-free supervised run

    def cells(self):
        return [
            self.fault,
            self.scheme,
            "yes" if self.detected else "no",
            self.detect_latency if self.detected else "-",
            f"{self.degraded_time:.1f}",
            "yes" if self.recovered else "no",
            f"{self.temp_violation_time:.1f}",
            f"{self.power_violation_time:.1f}",
            f"{self.exd_penalty_pct:+.1f}",
        ]


@dataclass
class ResilienceResult:
    rows: list
    baselines: dict  # scheme -> {"exd": float, "false_trip": bool}
    failures: list = field(default_factory=list)  # CellFailure salvage

    HEADERS = [
        "fault",
        "scheme",
        "det",
        "lat (per)",
        "degr (s)",
        "rec",
        ">79C (s)",
        ">3.3W (s)",
        "dExD (%)",
    ]

    def render(self):
        lines = [
            render_table(
                self.HEADERS,
                [row.cells() for row in self.rows],
                "Fault resilience under the safe-mode supervisor",
            )
        ]
        for scheme, base in self.baselines.items():
            guard = "TRIPPED (false positive!)" if base["false_trip"] else "no trip"
            lines.append(
                f"fault-free {scheme}: ExD={base['exd']:.0f} J*s, supervisor {guard}"
            )
        for failure in self.failures:
            lines.append(f"FAILED {failure.describe()}")
        return "\n".join(lines)

    def row(self, fault, scheme):
        for r in self.rows:
            if r.fault == fault and r.scheme == scheme:
                return r
        raise KeyError((fault, scheme))


@dataclass
class SupervisedRun:
    """Raw outcome of one supervised run (used by tests and the sweep)."""

    supervisor: Supervisor
    exd: float
    completed: bool
    temp_violation_time: float
    power_violation_time: float
    fault_onset: float


def supervised_run(context, scheme, campaign=None, workload="gamess",
                   max_time=200.0, seed=11, config: SupervisorConfig = None,
                   telemetry=None):
    """Run one workload under one scheme, supervised, with optional faults.

    ``telemetry`` defaults to the process-wide session; when enabled,
    supervisor transitions and fault edges trigger flight-recorder dumps.
    """
    from ..telemetry import active_session

    tel = telemetry if telemetry is not None else active_session()
    spec = context.spec
    session = build_session(scheme, context)
    if session.monolithic is not None:
        raise ValueError(
            "the supervisor requires a layered scheme; "
            "monolithic-lqg has no layer pair to degrade to"
        )
    primary = MultilayerCoordinator(
        session.hw_controller,
        session.sw_controller,
        session.hw_optimizer,
        session.sw_optimizer,
        telemetry=tel,
    )
    supervisor = Supervisor(primary, spec, config=config, telemetry=tel)
    board = Board(instantiate_workload(workload), spec=spec, seed=seed,
                  record=False, telemetry=tel)
    injector = (FaultInjector(board, campaign, seed=seed, telemetry=tel)
                if campaign else None)
    period_steps = spec.period_steps()
    temp_violation = 0.0
    power_violation = 0.0
    while not board.done and board.time < max_time:
        if tel is not None:
            tel.begin_period(board.time)
            sim_span = tel.span("sim", cat="period", board_time=board.time)
        else:
            sim_span = NULL_SPAN
        with sim_span:
            # Per-tick supervision bookkeeping (injector phases, violation
            # clocks) needs the scalar loop; run_period would skip it.
            for _ in range(period_steps):
                board.step()
                if injector is not None:
                    injector.advance()
                if board.thermal.temperature > spec.temp_limit:
                    temp_violation += spec.sim_dt
                if board._instant_power[BIG] > spec.power_limit_big:
                    power_violation += spec.sim_dt
                if board.done:
                    break
        if board.done:
            break
        supervisor.control_step(board, period_steps)
    onset = campaign.first_onset() if campaign is not None else None
    return SupervisedRun(
        supervisor=supervisor,
        exd=board.energy * board.time,
        completed=board.done,
        temp_violation_time=temp_violation,
        power_violation_time=power_violation,
        fault_onset=onset if onset is not None else -1.0,
    )


def supervised_runs_banked(context, scheme, campaigns, workload="gamess",
                           max_time=200.0, seed=11,
                           config: SupervisorConfig = None, telemetry=None):
    """Run one scheme's campaign replicas as a lockstep board bank.

    ``campaigns`` is a list whose entries are fault campaigns or ``None``
    (the fault-free baseline); every entry becomes one board of a
    :class:`~repro.board.bank.BoardBank`.  Faulted replicas register
    their injector as a per-tick hook, which pins them to the bank's
    scalar path (the same per-tick loop :func:`supervised_run` drives);
    fault-free replicas ride the vectorized lockstep kernel with the
    bank's violation clocks.  Either way each replica sees the exact
    per-tick and per-period sequence of its solo run, so the returned
    :class:`SupervisedRun` list is bit-identical to calling
    :func:`supervised_run` once per campaign.
    """
    from ..board.bank import BoardBank
    from ..telemetry import active_session

    tel = telemetry if telemetry is not None else active_session()
    boards = []
    supervisors = []
    onsets = []
    spec = context.spec
    period_steps = spec.period_steps()
    bank_entries = []
    for campaign in campaigns:
        session = build_session(scheme, context)
        if session.monolithic is not None:
            raise ValueError(
                "the supervisor requires a layered scheme; "
                "monolithic-lqg has no layer pair to degrade to"
            )
        primary = MultilayerCoordinator(
            session.hw_controller,
            session.sw_controller,
            session.hw_optimizer,
            session.sw_optimizer,
            telemetry=tel,
        )
        supervisor = Supervisor(primary, spec, config=config, telemetry=tel)
        board = Board(instantiate_workload(workload), spec=spec, seed=seed,
                      record=False, telemetry=tel)
        injector = (FaultInjector(board, campaign, seed=seed, telemetry=tel)
                    if campaign else None)
        boards.append(board)
        supervisors.append(supervisor)
        onsets.append(campaign.first_onset() if campaign is not None else None)
        bank_entries.append(injector)
    bank = BoardBank(boards, telemetry=tel, track_violations=True)
    for i, injector in enumerate(bank_entries):
        if injector is not None:
            bank.set_tick_hook(i, lambda board, inj=injector: inj.advance())
    active = [i for i, b in enumerate(boards)
              if not b.done and b.time < max_time]
    while active:
        if tel is not None:
            tel.begin_period(boards[active[0]].time)
        bank.run_period_bank(period_steps, only=active)
        survivors = []
        for i in active:
            board = boards[i]
            if board.done:
                continue
            supervisors[i].control_step(board, period_steps)
            if not board.done and board.time < max_time:
                survivors.append(i)
        active = survivors
    return [
        SupervisedRun(
            supervisor=supervisors[i],
            exd=boards[i].energy * boards[i].time,
            completed=boards[i].done,
            temp_violation_time=float(bank.temp_violation_time[i]),
            power_violation_time=float(bank.power_violation_time[i]),
            fault_onset=onsets[i] if onsets[i] is not None else -1.0,
        )
        for i in range(len(campaigns))
    ]


def _latency_periods(detection_time, fault_onset, spec):
    if detection_time is None or fault_onset < 0:
        return -1
    return max(
        0, int(round((detection_time - fault_onset) / spec.control_period))
    )


def _fault_cell(context, scheme, fault_index, fault_time, quick, workload,
                max_time, seed, config):
    """Engine task: one supervised run, summarized as a plain dict.

    ``fault_index`` < 0 is the fault-free baseline.  The fault matrix is
    rebuilt in the worker from its parameters (campaign objects carry
    mutable per-run state, so shipping indices keeps cells independent),
    and only picklable scalars travel back.
    """
    campaign = None
    if fault_index >= 0:
        campaign = default_fault_matrix(fault_time=fault_time,
                                        quick=quick)[fault_index][1]
    result = supervised_run(context, scheme, campaign=campaign,
                            workload=workload, max_time=max_time, seed=seed,
                            config=config)
    return {
        "exd": result.exd,
        "completed": result.completed,
        "tripped": result.supervisor.tripped,
        "detection_time": result.supervisor.detection_time,
        "time_degraded": result.supervisor.time_degraded,
        "recovered": result.supervisor.recovered,
        "temp_violation_time": result.temp_violation_time,
        "power_violation_time": result.power_violation_time,
        "fault_onset": result.fault_onset,
    }


def _scheme_bank_cell(context, scheme, fault_time, quick, workload, max_time,
                      seed, config):
    """Engine task: one scheme's baseline + full fault matrix as one bank."""
    matrix = default_fault_matrix(fault_time=fault_time, quick=quick)
    campaigns = [None] + [campaign for _, campaign in matrix]
    results = supervised_runs_banked(context, scheme, campaigns,
                                     workload=workload, max_time=max_time,
                                     seed=seed, config=config)
    return [
        {
            "exd": result.exd,
            "completed": result.completed,
            "tripped": result.supervisor.tripped,
            "detection_time": result.supervisor.detection_time,
            "time_degraded": result.supervisor.time_degraded,
            "recovered": result.supervisor.recovered,
            "temp_violation_time": result.temp_violation_time,
            "power_violation_time": result.power_violation_time,
            "fault_onset": result.fault_onset,
        }
        for result in results
    ]


def run(context: DesignContext = None, schemes=DEFAULT_SCHEMES,
        workload="gamess", fault_time=60.0, max_time=200.0, seed=11,
        quick=False, config: SupervisorConfig = None, progress=None,
        jobs=None, batch=False):
    """The full fault-matrix × scheme sweep (``jobs`` fans the cells out).

    ``batch`` packs each scheme's replicas — the fault-free baseline plus
    every fault campaign — into one lockstep
    :class:`~repro.board.bank.BoardBank` per engine task instead of one
    task per (fault, scheme) cell; rows are bit-identical either way
    (:func:`supervised_runs_banked`).
    """
    from .engine import parallel_map

    context = context or DesignContext.create()
    matrix = default_fault_matrix(fault_time=fault_time, quick=quick)
    fault_names = [name for name, _ in matrix]
    if batch:
        tasks = [
            ("call", (_scheme_bank_cell, (scheme, fault_time, quick,
                                          workload, max_time, seed, config),
                      {}))
            for scheme in schemes
        ]
        from ..runtime import CellFailure

        flat = []
        for group in parallel_map(tasks, context, jobs=jobs):
            if isinstance(group, CellFailure):
                # The whole bank task failed; every replica it carried
                # (baseline + one per fault) surfaces as that failure.
                flat.extend([group] * (len(matrix) + 1))
            else:
                flat.extend(group)
    else:
        tasks = [
            ("call", (_fault_cell, (scheme, index, fault_time, quick,
                                    workload, max_time, seed, config), {}))
            for scheme in schemes
            for index in range(-1, len(matrix))
        ]
        flat = parallel_map(tasks, context, jobs=jobs)
    from ..runtime import CellFailure

    it = iter(flat)
    baselines = {}
    rows = []
    failures = []
    for scheme in schemes:
        base = next(it)
        if isinstance(base, CellFailure):
            # No baseline means no penalty reference: salvage what the
            # sweep produced and record every cell of this scheme that
            # also failed.
            failures.append(base)
            for _ in fault_names:
                cell = next(it)
                if isinstance(cell, CellFailure):
                    failures.append(cell)
            if progress is not None:
                progress(f"{scheme} fault-free: FAILED ({base.reason})")
            continue
        baselines[scheme] = {
            "exd": base["exd"],
            "false_trip": base["tripped"],
        }
        if progress is not None:
            progress(f"{scheme} fault-free: ExD={base['exd']:.0f}")
        for fault_name in fault_names:
            cell = next(it)
            if isinstance(cell, CellFailure):
                failures.append(cell)
                if progress is not None:
                    progress(f"{scheme} / {fault_name}: FAILED "
                             f"({cell.reason})")
                continue
            penalty = 100.0 * (cell["exd"] - base["exd"]) / base["exd"]
            row = ResilienceRow(
                fault=fault_name,
                scheme=scheme,
                detected=cell["tripped"],
                detect_latency=_latency_periods(
                    cell["detection_time"], cell["fault_onset"], context.spec
                ),
                degraded_time=cell["time_degraded"],
                recovered=cell["recovered"],
                temp_violation_time=cell["temp_violation_time"],
                power_violation_time=cell["power_violation_time"],
                exd_penalty_pct=penalty,
            )
            rows.append(row)
            if progress is not None:
                progress(f"{scheme} / {fault_name}: " + " ".join(map(str, row.cells()[2:])))
    return ResilienceResult(rows=rows, baselines=baselines,
                            failures=failures)
