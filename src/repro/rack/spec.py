"""Rack-level specifications: the third layer's plant declaration.

A :class:`RackSpec` describes everything above a single board: the set of
(possibly heterogeneous) :class:`~repro.board.specs.BoardSpec`\\ s populating
the rack, the shared facility power cap, the cooling envelope that couples
total rack power back into the inlet temperature, the workload arrival
queue with per-job SLA deadlines, and any scheduled board-level faults.

The composition shape follows ControlPULP's hierarchical power-control
architecture and RackMind-style facility orchestration (see PAPERS.md /
SNIPPETS.md): the rack layer owns *budgets*, never board internals — each
board stays governed by its own stack and merely receives a power budget
as an external signal each rack control period.

Modeling notes
--------------
* **Cooling coupling.** The inlet temperature follows a first-order lag
  toward ``supply_temp + thermal_resistance * P_total``.  Inlet heat does
  not rewrite each board's die-level ambient (the bank snapshots thermal
  constants at construction, and the paper's board thermal model is
  calibrated against its own ambient); instead the *usable* rack cap
  derates linearly once the inlet exceeds ``max_inlet`` — the facility's
  cooling envelope acting on the one knob the rack layer owns.
* **Idle boards are power-gated.** A board with no dispatched job does
  not advance and draws no energy; its budget contribution is its floor
  (kept warm for dispatch latency) while online.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..board.specs import BoardSpec, default_xu3_spec

__all__ = [
    "CoolingSpec",
    "JobSpec",
    "RackBoardFault",
    "RackSpec",
    "default_rack_spec",
    "heterogeneous_rack_spec",
]


@dataclass(frozen=True)
class CoolingSpec:
    """The rack's cooling envelope and inlet-temperature coupling.

    ``thermal_resistance`` (degC/W) maps sustained total rack power into
    steady-state inlet temperature rise over ``supply_temp``; ``tau`` (s)
    is the air-volume time constant of that rise.  Above ``max_inlet``
    the usable rack cap derates by ``derate_per_degree`` (fraction/degC),
    floored so the cap never drops below the sum of board budget floors.
    """

    supply_temp: float = 22.0
    thermal_resistance: float = 0.15
    tau: float = 8.0
    max_inlet: float = 32.0
    derate_per_degree: float = 0.05

    def __post_init__(self):
        if self.thermal_resistance < 0:
            raise ValueError("cooling thermal_resistance must be >= 0")
        if self.tau <= 0:
            raise ValueError("cooling tau must be positive")
        if self.derate_per_degree < 0:
            raise ValueError("derate_per_degree must be >= 0")

    def steady_inlet(self, total_power):
        return self.supply_temp + self.thermal_resistance * total_power

    def derate_fraction(self, inlet_temp):
        """Usable fraction of the rack cap at one inlet temperature."""
        excess = max(inlet_temp - self.max_inlet, 0.0)
        return max(1.0 - self.derate_per_degree * excess, 0.0)


@dataclass(frozen=True)
class JobSpec:
    """One queued job: a workload with an arrival time and an SLA deadline.

    ``workload`` is a program or mix name (resolved through the workload
    library at dispatch); ``sla`` is the relative completion deadline in
    simulated seconds from ``arrival``.
    """

    name: str
    workload: str
    arrival: float = 0.0
    sla: float = 120.0

    def __post_init__(self):
        if self.arrival < 0:
            raise ValueError("job arrival must be >= 0")
        if self.sla <= 0:
            raise ValueError("job SLA deadline must be positive")

    @property
    def deadline(self):
        return self.arrival + self.sla


@dataclass(frozen=True)
class RackBoardFault:
    """A scheduled board-level fault visible at rack scale.

    Kinds
    -----
    ``"offline"``
        The board drops from the rack at ``start``: its running job is
        re-queued (restarted elsewhere from scratch), its budget is
        reclaimed, and no work is dispatched to it until ``start +
        duration``.
    ``"power-sensor"``
        The board's big-cluster power sensor drops out (reads NaN).  The
        board keeps running, but its declared power reading goes
        non-finite, so a sane rack controller must stop trusting it and
        pin its budget to the floor until readings return.
    """

    board: int
    start: float
    duration: float = math.inf
    kind: str = "offline"

    KINDS = ("offline", "power-sensor")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(
                f"unknown rack fault kind {self.kind!r}; known: {self.KINDS}"
            )
        if self.board < 0:
            raise ValueError("fault board index must be >= 0")
        if self.start < 0 or self.duration <= 0:
            raise ValueError("fault start must be >= 0 and duration > 0")

    def active_at(self, now):
        return self.start <= now < self.start + self.duration


@dataclass(frozen=True)
class RackSpec:
    """N boards under one facility power cap and cooling envelope.

    ``boards`` may mix different :class:`BoardSpec`\\ s (heterogeneous
    rack) as long as every spec shares one ``sim_dt`` (the bank's
    lockstep requirement) and every board control period divides the
    rack control period — the rack layer actuates budgets strictly on
    board-period boundaries.
    """

    boards: tuple
    power_cap: float = 12.0
    rack_period: float = 2.0
    budget_floor: float = 0.6
    cooling: CoolingSpec = field(default_factory=CoolingSpec)
    jobs: tuple = ()
    faults: tuple = ()

    def __post_init__(self):
        boards = tuple(self.boards)
        object.__setattr__(self, "boards", boards)
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "faults", tuple(self.faults))
        if not boards:
            raise ValueError("a RackSpec needs at least one board")
        for b in boards:
            if not isinstance(b, BoardSpec):
                raise TypeError(f"boards must be BoardSpec instances, got {b!r}")
        dts = {b.sim_dt for b in boards}
        if len(dts) != 1:
            raise ValueError(
                f"rack lockstep requires one shared sim_dt, got {sorted(dts)}"
            )
        if self.rack_period <= 0:
            raise ValueError("rack_period must be positive")
        for i, b in enumerate(boards):
            ratio = self.rack_period / b.control_period
            if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
                raise ValueError(
                    f"board {i}: control period {b.control_period} s must "
                    f"divide the rack period {self.rack_period} s"
                )
        if self.budget_floor < 0:
            raise ValueError("budget_floor must be >= 0")
        if self.power_cap < self.budget_floor * len(boards):
            raise ValueError(
                f"power cap {self.power_cap} W cannot cover "
                f"{len(boards)} x {self.budget_floor} W budget floors"
            )
        for fault in self.faults:
            if fault.board >= len(boards):
                raise ValueError(
                    f"fault targets board {fault.board} but the rack has "
                    f"only {len(boards)} boards"
                )

    @property
    def n_boards(self):
        return len(self.boards)

    def floors(self):
        """Per-board declared budget floors (W)."""
        return tuple(self.budget_floor for _ in self.boards)

    def board_periods(self, index):
        """Board control periods per rack control period for one board."""
        return int(round(self.rack_period / self.boards[index].control_period))

    def min_cap(self):
        """The lowest usable cap the cooling derate may produce."""
        return self.budget_floor * len(self.boards)

    def describe(self):
        kinds = {}
        for b in self.boards:
            key = (b.big.name, b.big.n_cores, b.control_period)
            kinds[key] = kinds.get(key, 0) + 1
        lines = [
            f"Rack: {self.n_boards} board(s), cap {self.power_cap:.2f} W, "
            f"rack period {self.rack_period:.2f} s, "
            f"floor {self.budget_floor:.2f} W/board",
            f"  cooling: supply {self.cooling.supply_temp:.1f} degC, "
            f"{self.cooling.thermal_resistance:.3f} degC/W, "
            f"envelope {self.cooling.max_inlet:.1f} degC",
            f"  jobs queued: {len(self.jobs)}, faults scheduled: "
            f"{len(self.faults)}",
        ]
        return "\n".join(lines)


def _scaled_spec(sim_dt=0.05, control_period=0.5, ambient=35.0,
                 resistance=11.0):
    """A BoardSpec variant for heterogeneous racks (same sim_dt)."""
    from dataclasses import replace

    return replace(
        default_xu3_spec(sim_dt=sim_dt),
        control_period=control_period,
        ambient_temp=ambient,
        thermal_resistance=resistance,
    )


def default_rack_spec(n_boards=4, power_cap=None, sim_dt=0.05,
                      rack_period=2.0, budget_floor=0.6, jobs=(),
                      faults=(), cooling=None):
    """A homogeneous rack of XU3 boards under one cap."""
    boards = tuple(default_xu3_spec(sim_dt=sim_dt) for _ in range(n_boards))
    if power_cap is None:
        # Tight enough that distribution matters: ~60% of the unconstrained
        # per-board envelope (power_limit_big + power_limit_little + static).
        per_board = (boards[0].power_limit_big + boards[0].power_limit_little
                     + boards[0].board_static_power)
        power_cap = 0.6 * per_board * n_boards
    return RackSpec(
        boards=boards,
        power_cap=float(power_cap),
        rack_period=rack_period,
        budget_floor=budget_floor,
        cooling=cooling if cooling is not None else CoolingSpec(),
        jobs=tuple(jobs),
        faults=tuple(faults),
    )


def heterogeneous_rack_spec(n_boards=4, power_cap=None, sim_dt=0.05,
                            rack_period=2.0, budget_floor=0.6, jobs=(),
                            faults=()):
    """A mixed rack: alternating board variants sharing one ``sim_dt``.

    Even lanes are stock XU3 boards; odd lanes run a hotter, slower-
    control-period variant — enough spec diversity to exercise every
    heterogeneity path in the bank (per-spec plan memos, one bank call
    per tick count, per-lane thermal constants).
    """
    variants = [
        default_xu3_spec(sim_dt=sim_dt),
        _scaled_spec(sim_dt=sim_dt, control_period=1.0, ambient=38.0,
                     resistance=12.5),
    ]
    boards = tuple(variants[i % 2] if i % 2 else default_xu3_spec(sim_dt=sim_dt)
                   for i in range(n_boards))
    if power_cap is None:
        per_board = (boards[0].power_limit_big + boards[0].power_limit_little
                     + boards[0].board_static_power)
        power_cap = 0.6 * per_board * n_boards
    return RackSpec(
        boards=boards,
        power_cap=float(power_cap),
        rack_period=rack_period,
        budget_floor=budget_floor,
        jobs=tuple(jobs),
        faults=tuple(faults),
    )
