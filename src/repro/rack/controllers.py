"""Rack-layer controllers: SSV-verified cap distribution vs heuristics.

Two third-layer controllers share one declared interface (see
:func:`~repro.rack.layer.rack_layer_spec`): each rack control period they
read the per-board *declared* sensors — power, headroom, queue depth —
and return one power budget per board, subject to the facility cap.

:class:`SSVRackController`
    The Yukta-style design.  An adjustable-gain integral regulator (after
    Chen/Wardi/Yalamanchili's power regulation) tracks total rack power to
    the effective cap and distributes the correction by demand weight;
    the integral gain is *selected by structured-singular-value analysis*:
    each board's budget-to-power response is modelled as an uncertain gain
    within the declared guardband (plus one rack period of actuation
    delay), and the largest grid gain whose closed loop keeps the mu
    upper bound below one over the frequency grid wins.

:class:`HeuristicRackController`
    The baseline pair: ``"uniform"`` splits the cap evenly; ``"greedy"``
    gives each board its measured draw plus a share of the leftover
    proportional to demand — reactive water-filling with no stability
    story, the per-board-greedy strawman of the rack experiments.

Both controllers are deterministic and side-effect free: given the same
reading sequence they emit the same budget sequence, which is what the
rack differential oracle (bank vs scalar boards) relies on.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..robust import BlockStructure, UncertaintyBlock, mu_upper_bounds
from .spec import RackSpec

__all__ = [
    "BoardReading",
    "BudgetGovernor",
    "HeuristicRackController",
    "SSVRackController",
    "select_integral_gain",
]


class BoardReading(NamedTuple):
    """One board's declared sensor tuple, as read at a rack period edge."""

    power: float  # W; NaN when the board's power sensing dropped out
    headroom: float  # W; budget minus measured power
    queue_depth: int  # jobs waiting that this board could serve
    online: bool = True
    busy: bool = False  # a job is dispatched on the board

    @property
    def trusted(self):
        return self.online and math.isfinite(self.power)


def _project_to_cap(budgets, floors, cap):
    """Scale budgets above their floors down until the total fits the cap.

    Floors are preserved exactly (offline boards carry floor 0); only the
    excess above each floor is scaled by the common feasibility factor.
    """
    total = sum(budgets)
    if total <= cap:
        return budgets
    floor_sum = sum(floors)
    excess = [b - f for b, f in zip(budgets, floors)]
    excess_sum = sum(excess)
    if excess_sum <= 1e-12:
        return list(floors)
    scale = max(cap - floor_sum, 0.0) / excess_sum
    return [f + e * scale for f, e in zip(floors, excess)]


class _RackControllerBase:
    """Shared budget bookkeeping: floors, ceilings, cap projection."""

    def __init__(self, rack: RackSpec):
        self.rack = rack
        self.ceilings = tuple(
            b.power_limit_big + b.power_limit_little + b.board_static_power
            for b in rack.boards
        )
        self.rejected_budgets = 0
        self.reset()

    def reset(self):
        n = self.rack.n_boards
        self.budgets = [self.rack.power_cap / n] * n

    def _demand_weights(self, readings):
        """Demand share per board (see :meth:`_demand`)."""
        return self._demand(readings)[0]

    def _demand(self, readings):
        """Demand share per board and total trusted power, in one pass.

        Only the declared sensors count.  Untrusted boards (offline, or
        power reading gone non-finite) get zero weight — the fault
        surfaces as reallocation toward the healthy boards.  With no
        signal at all, share evenly across the trusted set.
        """
        weights = []
        power_total = 0
        for r in readings:
            if not r.trusted:
                weights.append(0.0)
                continue
            power = max(r.power, 0.0)
            power_total += power
            w = power + 0.25 * r.queue_depth
            if r.busy:
                w += 0.25
            weights.append(w)
        total = sum(weights)
        if total <= 1e-9:
            trusted = [1.0 if r.trusted else 0.0 for r in readings]
            total = sum(trusted)
            if total <= 0:
                return [0.0] * len(readings), power_total
            return [t / total for t in trusted], power_total
        return [w / total for w in weights], power_total

    def _finish(self, budgets, readings, cap_eff):
        """Clamp to [floor, ceiling], project to the cap, count rejects."""
        floor = self.rack.budget_floor
        floors = []
        out = []
        for b, ceil, r in zip(budgets, self.ceilings, readings):
            if not r.online:
                floors.append(0.0)
                out.append(0.0)
                continue
            floors.append(floor)
            if not r.trusted:
                # Untrusted sensing: pin to the declared floor (the safe
                # budget) until readings return finite.
                out.append(floor)
                continue
            clamped = min(max(b, floor), ceil)
            if abs(clamped - b) > 1e-9:
                self.rejected_budgets += 1
            out.append(clamped)
        self.budgets = _project_to_cap(out, floors, cap_eff)
        return list(self.budgets)


class HeuristicRackController(_RackControllerBase):
    """Uniform or greedy cap distribution — the baseline pair."""

    def __init__(self, rack: RackSpec, mode="greedy"):
        if mode not in ("uniform", "greedy"):
            raise ValueError(f"unknown heuristic mode {mode!r}")
        self.mode = mode
        self.name = f"rack-{mode}"
        super().__init__(rack)

    def step(self, readings, cap_eff):
        n = self.rack.n_boards
        if self.mode == "uniform":
            budgets = [cap_eff / n] * n
            return self._finish(budgets, readings, cap_eff)
        # Greedy water-filling: everyone keeps what they drew, the slack
        # goes to whoever declares demand, most-loaded first.
        weights = self._demand_weights(readings)
        base = [max(r.power, 0.0) if r.trusted else 0.0 for r in readings]
        slack = max(cap_eff - sum(base), 0.0)
        budgets = [b + w * slack for b, w in zip(base, weights)]
        return self._finish(budgets, readings, cap_eff)


def _closed_loop_channel(n_boards, gain, weights, z):
    """M(z) of the budget loop's uncertainty channel at one z.

    Plant model per board: measured power responds to the budget through
    an uncertain gain ``g_i = 1 + delta_i`` (|delta_i| <= guardband) with
    one rack period of delay (budgets actuate at the period edge, power
    is measured the next edge).  The integral distributor
    ``b <- b + k * w * (c - 1^T p)`` then closes the loop.  States are
    ``[budgets, delayed budgets]``; the uncertainty input d enters the
    measured total, the uncertainty output f is the delayed budget vector
    (scaled by the guardband outside this function).
    """
    n = n_boards
    w = np.asarray(weights, dtype=float).reshape(n, 1)
    ones = np.ones((1, n))
    # States [b(t), b(t-1)]; the measured total is 1^T (b(t-1) + d).
    A = np.block([
        [np.eye(n), -gain * (w @ ones)],
        [np.eye(n), np.zeros((n, n))],
    ])
    B = np.vstack([-gain * (w @ ones), np.zeros((n, n))])
    C = np.hstack([np.zeros((n, n)), np.eye(n)])
    return C @ np.linalg.solve(z * np.eye(2 * n) - A, B)


def select_integral_gain(n_boards, guardband=0.4,
                         gain_grid=(1.0, 0.8, 0.65, 0.5, 0.4, 0.3, 0.2),
                         points=24):
    """Largest grid gain whose closed loop is robustly stable (mu <= 1).

    Sweeps the mu upper bound of the uncertainty channel over the unit
    circle for each candidate gain; the structure is one repeated scalar
    per board (each board's budget-to-power gain perturbs independently
    within ``1 +- guardband``).  Returns ``(gain, history)`` where
    ``history`` is the list of ``(gain, peak_mu)`` pairs examined.
    """
    n = n_boards
    weights = [1.0 / n] * n
    structure = BlockStructure([
        UncertaintyBlock("repeated", 1, 1, name=f"g_{i}") for i in range(n)
    ])
    omegas = np.linspace(0.02, math.pi, points)
    history = []
    chosen = None
    for gain in sorted(gain_grid, reverse=True):
        Ms = np.stack([
            guardband * _closed_loop_channel(
                n, gain, weights, complex(math.cos(omega), math.sin(omega)))
            for omega in omegas
        ])
        bounds, _ = mu_upper_bounds(Ms, structure)
        # The recorded peak is the running max up to the first crossing.
        peak = 0.0
        for bound in bounds:
            peak = max(peak, float(bound))
            if peak > 1.0:
                break
        history.append((gain, peak))
        if peak <= 1.0 and chosen is None:
            chosen = gain
            break
    if chosen is None:
        chosen = min(gain_grid)
    return chosen, history


class SSVRackController(_RackControllerBase):
    """Declared-interface integral cap distributor, gain picked by mu.

    ``shape_rate`` additionally drifts the budget *shape* toward the
    demand weights at constant total (redistribution without disturbing
    the cap tracking loop the SSV analysis certified).
    """

    name = "rack-ssv"

    def __init__(self, rack: RackSpec, guardband=0.4, gain_grid=None,
                 shape_rate=0.3, mu_points=24):
        self.guardband = float(guardband)
        kwargs = {} if gain_grid is None else {"gain_grid": tuple(gain_grid)}
        self.gain, self.mu_history = select_integral_gain(
            rack.n_boards, guardband=self.guardband, points=mu_points,
            **kwargs,
        )
        self.mu_peak = next(
            (mu for g, mu in self.mu_history if g == self.gain), math.nan
        )
        self.shape_rate = float(shape_rate)
        super().__init__(rack)

    def step(self, readings, cap_eff):
        # One pass: the integral correction plus constant-total reshape,
        # then _finish's clamp, fused because this runs every rack period.
        weights, total_power = self._demand(readings)
        error = cap_eff - total_power
        total_budget = sum(self.budgets)
        floor = self.rack.budget_floor
        floors = []
        out = []
        for b, w, ceil, r in zip(self.budgets, weights, self.ceilings,
                                 readings):
            if not r.online:
                floors.append(0.0)
                out.append(0.0)
                continue
            floors.append(floor)
            if w == 0.0 and not r.trusted:  # untrusted weight is 0.0
                out.append(floor)
                continue
            b = b + self.gain * w * error + self.shape_rate * (
                w * total_budget - b)
            clamped = min(max(b, floor), ceil)
            if abs(clamped - b) > 1e-9:
                self.rejected_budgets += 1
            out.append(clamped)
        self.budgets = _project_to_cap(out, floors, cap_eff)
        return list(self.budgets)


class BudgetGovernor:
    """The board-side budget tracker: one power budget in, DVFS out.

    This is the condensed board layer under the rack: an integral
    governor that holds a normalized performance level, raises it while
    measured power sits below the budget, lowers it when the budget is
    exceeded, and maps the level onto the board's quantized DVFS grids.
    Evaluated once per rack period, its output is a *constant*, already
    snapped frequency pair for the whole period — which is what lets the
    rack actuate each board once and step every busy board through the
    whole period in one bank call.
    """

    def __init__(self, spec, gain=0.6, margin=0.97):
        self.spec = spec
        self.gain = float(gain)
        # Track a little below the budget: the DVFS grid is coarse, so
        # aiming exactly at the budget parks half the boards a quantum
        # above it.  3% under keeps the steady state on the safe side.
        self.margin = float(margin)
        self.level = 1.0
        # Each cluster's DVFS grid and span, looked up once.
        self._grids = tuple((c.freq_range, c.freq_range.high - c.freq_range.low)
                            for c in (spec.big, spec.little))

    def reset(self):
        self.level = 1.0

    def command(self, budget, power):
        """Next (freq_big, freq_little) command for one rack period."""
        # Saturations as comparisons, equal to min(max(...)) for every
        # float: this runs for every busy board every rack period, and
        # bench_rack.py's overhead gate holds the rack layer to 5 % of
        # stepping.
        level = self.level
        if budget > 0 and math.isfinite(power) and power > 0:
            error = (self.margin * budget - power) / max(budget, 1e-9)
            if error > 0.6:
                error = 0.6
            elif error < -0.6:
                error = -0.6
            level += self.gain * error
        elif budget > 0 and power == 0.0:
            # No measurement yet (sensors not latched): probe upward.
            level += 0.25
        if level > 1.0:
            level = 1.0
        elif level < 0.0:
            level = 0.0
        self.level = level
        (big, big_span), (little, little_span) = self._grids
        return (big.snap(big.low + level * big_span),
                little.snap(little.low + level * little_span))
