"""Rack-scale campaigns: the third layer's evaluation figures.

Three sweeps, in the shape of the paper's board-level figures but one
layer up:

* **cap step response** — a busy rack whose facility cap steps down 30 %
  mid-run; scores each rack controller's settling time, overshoot, and
  cap exposure (the rack analogue of Fig. 10's setpoint tracking);
* **job stream** — a queued job stream with SLA deadlines under each cap
  distributor (SSV, greedy, uniform); rack E×D, makespan, SLA misses,
  and budget churn per controller;
* **fault reallocation** — the same stream with one board dropping
  offline mid-campaign; measures how each controller's reallocation
  absorbs the fault (requeues, misses, completion).

Every cell is a module-level function invoked through the engine's
``("call", ...)`` tasks, so ``--jobs`` fans cells across processes and
``--checkpoint-dir``/``--resume`` journal them exactly like the board
figures.  ``use_bank=False`` (the CLI's ``--batch 0``) swaps every cell
onto the scalar per-board stepping path — bit-identical results, held by
the rack differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..rack import (
    HeuristicRackController,
    JobSpec,
    Rack,
    RackBoardFault,
    SSVRackController,
    default_rack_spec,
    heterogeneous_rack_spec,
)
from .report import render_table
from .schemes import DesignContext

__all__ = ["RackResult", "default_job_stream", "make_rack_controller", "run"]

# Deterministic workload rotation for rack job streams.  The @scale
# suffixes shrink the paper's full programs to rack-job length (tens of
# seconds) while keeping their phase structure and relative weight.
STREAM_WORKLOADS = (
    "blackscholes@0.08",
    "mcf@0.1",
    "streamcluster@0.08",
    "x264@0.08",
    "canneal@0.08",
    "bodytrack@0.1",
    "gamess@0.08",
    "gromacs@0.08",
)

CONTROLLERS = ("rack-ssv", "rack-greedy", "rack-uniform")


def default_job_stream(n_jobs=8, spacing=3.0, sla=70.0):
    """A deterministic arrival stream cycling the workload rotation."""
    return tuple(
        JobSpec(
            name=f"job{i}",
            workload=STREAM_WORKLOADS[i % len(STREAM_WORKLOADS)],
            arrival=spacing * i,
            sla=sla,
        )
        for i in range(n_jobs)
    )


def make_rack_controller(name, spec):
    """Instantiate a rack controller by its campaign name."""
    if name == "rack-ssv":
        return SSVRackController(spec)
    if name.startswith("rack-"):
        return HeuristicRackController(spec, mode=name[len("rack-"):])
    raise ValueError(f"unknown rack controller {name!r}")


def _stream_cell(context, controller, n_boards, n_jobs, hetero, use_bank,
                 seed, max_time, fault_board=None, fault_time=None,
                 fault_duration=None):
    """Engine task: one job-stream campaign, summarized as a plain dict."""
    from ..obs import analyze_rack

    jobs = default_job_stream(n_jobs=n_jobs)
    faults = ()
    if fault_board is not None:
        faults = (RackBoardFault(board=fault_board, start=fault_time,
                                 duration=fault_duration, kind="offline"),)
    factory = heterogeneous_rack_spec if hetero else default_rack_spec
    spec = factory(n_boards=n_boards, jobs=jobs, faults=faults)
    rack = Rack(spec, controller=make_rack_controller(controller, spec),
                use_bank=use_bank, record=True, seed=seed)
    result = rack.run(max_time=max_time)
    quality = analyze_rack(result, spec=spec)
    return {
        "controller": result.controller,
        "completed": result.jobs_completed,
        "admitted": result.jobs_admitted,
        "sla_misses": result.sla_misses,
        "requeues": result.requeues,
        "energy": result.energy,
        "makespan": result.makespan,
        "exd": result.exd,
        "churn": quality.budget_churn_per_period,
        "cap_violation_ws": quality.cap_exposure.integral,
        "cap_time_above": quality.cap_exposure.time_above,
        "inlet_peak": quality.inlet_peak,
    }


def _step_cell(context, controller, n_boards, use_bank, seed, step_time,
               step_fraction, max_time):
    """Engine task: cap step response of one rack controller."""
    from ..obs import analyze_rack

    # Saturate the rack: one long job per board from t=0 plus backlog, so
    # the cap binds before and after the step.
    jobs = tuple(
        JobSpec(name=f"load{i}", workload="blackscholes@0.5",
                arrival=0.0, sla=10 * max_time)
        for i in range(n_boards + 2)
    )
    spec = default_rack_spec(n_boards=n_boards, jobs=jobs)
    schedule = [(0.0, spec.power_cap),
                (step_time, step_fraction * spec.power_cap)]
    rack = Rack(spec, controller=make_rack_controller(controller, spec),
                use_bank=use_bank, record=True, seed=seed)
    result = rack.run(max_time=max_time, cap_schedule=schedule)
    quality = analyze_rack(result, spec=spec, step_time=step_time)
    resp = next(r for r in quality.responses if r.signal == "budget_total")
    return {
        "controller": result.controller,
        "settling": resp.settling_time,
        "settled": resp.settled,
        "overshoot": resp.overshoot_pct,
        "final_power": resp.final,
        "stepped_cap": step_fraction * spec.power_cap,
        "cap_violation_ws": quality.cap_exposure.integral,
        "cap_time_above": quality.cap_exposure.time_above,
        "churn": quality.budget_churn_per_period,
        "energy": result.energy,
    }


@dataclass
class RackResult:
    """Rendered outcome of the rack campaign triple."""

    step_rows: list = field(default_factory=list)
    stream_rows: list = field(default_factory=list)
    fault_rows: list = field(default_factory=list)
    n_boards: int = 4

    def rows(self):
        return list(self.stream_rows)

    def by_controller(self, rows, name):
        for row in rows:
            if row["controller"] == name:
                return row
        raise KeyError(name)

    def render(self):
        sections = []
        if self.step_rows:
            sections.append(render_table(
                ["controller", "settling (s)", "overshoot %",
                 "cap exposure (W·s)", "time above (s)",
                 "churn (W/period)"],
                [
                    [r["controller"],
                     r["settling"] if r["settled"] else float("inf"),
                     r["overshoot"], r["cap_violation_ws"],
                     r["cap_time_above"], r["churn"]]
                    for r in self.step_rows
                ],
                f"Rack cap step response ({self.n_boards} boards, "
                "cap -30% mid-run)",
            ))
        if self.stream_rows:
            sections.append(render_table(
                ["controller", "jobs", "SLA misses", "energy (J)",
                 "makespan (s)", "ExD (J·s)", "churn (W/period)"],
                [
                    [r["controller"], f'{r["completed"]}/{r["admitted"]}',
                     r["sla_misses"], r["energy"], r["makespan"], r["exd"],
                     r["churn"]]
                    for r in self.stream_rows
                ],
                "Rack job stream: SSV distribution vs heuristics "
                f"({self.n_boards} heterogeneous boards)",
            ))
        if self.fault_rows:
            sections.append(render_table(
                ["controller", "jobs", "SLA misses", "requeues",
                 "makespan (s)", "ExD (J·s)"],
                [
                    [r["controller"], f'{r["completed"]}/{r["admitted"]}',
                     r["sla_misses"], r["requeues"], r["makespan"], r["exd"]]
                    for r in self.fault_rows
                ],
                "Rack fault reallocation: board 1 offline mid-stream",
            ))
        return "\n\n".join(sections)


def run(context: DesignContext = None, quick=True, seed=7, jobs=None,
        batch=None, n_boards=4, progress=None):
    """The rack campaign triple (``jobs`` fans cells across processes).

    ``batch=0`` swaps every campaign onto the scalar per-board stepping
    path (no :class:`~repro.board.bank.BoardBank`); any other value keeps
    the bank's per-period vector kernel underneath.  Results are
    bit-identical either way — that equivalence is exactly what
    ``repro verify``'s rack oracle enforces.
    """
    from .engine import parallel_map

    use_bank = not (batch is not None and int(batch) == 0)
    n_jobs = 6 if quick else 12
    max_time = 300.0 if quick else 600.0
    step_time = 20.0
    step_max_time = 80.0 if quick else 160.0

    tasks = []
    for controller in ("rack-ssv", "rack-greedy"):
        tasks.append(("call", (_step_cell, (controller, n_boards, use_bank,
                                            seed, step_time, 0.7,
                                            step_max_time), {})))
    for controller in CONTROLLERS:
        tasks.append(("call", (_stream_cell, (controller, n_boards, n_jobs,
                                              True, use_bank, seed,
                                              max_time), {})))
    for controller in ("rack-ssv", "rack-greedy"):
        tasks.append(("call", (_stream_cell, (controller, n_boards, n_jobs,
                                              True, use_bank, seed,
                                              max_time),
                      dict(fault_board=1, fault_time=10.0,
                           fault_duration=12.0))))

    results = parallel_map(tasks, context, jobs=jobs, prime=())
    it = iter(results)
    result = RackResult(n_boards=n_boards)
    for _ in range(2):
        result.step_rows.append(next(it))
    for _ in CONTROLLERS:
        result.stream_rows.append(next(it))
    for _ in range(2):
        result.fault_rows.append(next(it))
    if progress is not None:
        for row in result.step_rows:
            progress(f"step {row['controller']}: settled "
                     f"{row['settling']:.1f}s")
    return result
