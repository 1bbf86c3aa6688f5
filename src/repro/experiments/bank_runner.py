"""Banked matrix execution: many experiment cells on one :class:`BoardBank`.

The experiment engine's unit of work is one (scheme, workload, seed) cell —
an independent closed-loop simulation.  Every scheme shares the same
control-loop shape (``run_period`` then one control step, every 500 ms),
so ``B`` cells of any schemes can advance through one
:class:`~repro.board.bank.BoardBank` in vectorized lockstep: one bank
window replaces ``B`` separate fast-path windows, amortizing the per-tick
Python overhead across boards.

Exactness contract
------------------
:func:`run_cells_banked` produces, per cell, *the same*
:class:`~repro.experiments.metrics.RunMetrics` — bit-identical execution
time, energy, traces, and notes — as :func:`~repro.experiments.runner.
run_workload` would.  That follows from composing two guarantees: the bank
steps each board bit-identically to ``Board.run_period`` (the bank's own
contract), and each board's controller session only ever reads and
actuates its own board, in the same per-period order the serial runner
uses.  ``tests/test_board_bank.py`` and the ``bank-matrix-vs-serial``
oracle assert the composition.

The controllers are banked too.  Each period runs the coordinator's
phases (:meth:`~repro.core.MultilayerCoordinator.sense`, the layer
steps, :meth:`~repro.core.MultilayerCoordinator.finish`) for every live
layered board, and each layer steps once per *design group*: lanes whose
SSV controllers share a design (:meth:`~repro.core.RuntimeController.
fresh_copy`) step in one :func:`~repro.core.controller.step_stacked`
pass when there are ``STACK_MIN_LANES`` or more of them, bit-identical
to stepping each alone; heuristic and LQG controllers step per lane.  A
monolithic-LQG lane has no coordinator: its single fused controller
runs the same per-period ``control`` step :func:`run_workload` drives.

Each cell's ``notes["bank"]`` carries the bank's full lockstep
accounting (``vector_ticks`` / ``scalar_ticks`` plus re-plan,
stall-tick and refusal events), so sweep summaries can report how much
of a campaign actually rode the vector kernel.
"""

from __future__ import annotations

from ..board import Board, BoardBank
from ..core.controller import STACK_MIN_LANES, RuntimeController, step_stacked
from ..telemetry import NULL_SPAN, active_session
from .runner import (
    _monolithic_control,
    cell_metrics,
    instantiate_workload,
    workload_name,
)
from .schemes import build_session

__all__ = ["run_cells_banked"]


def _design_groups(lanes, controllers):
    """``(lane, controller)`` groups that can step as one stacked pass.

    SSV controllers minted from one design share its state machine
    (:meth:`~repro.core.RuntimeController.fresh_copy`) and group by it;
    every other controller is a group of its own.
    """
    groups = {}
    for i, ctrl in zip(lanes, controllers):
        key = (id(ctrl.state_machine) if isinstance(ctrl, RuntimeController)
               else ("lane", i))
        groups.setdefault(key, []).append((i, ctrl))
    return list(groups.values())


def run_cells_banked(cells, context, max_time=600.0, record=False,
                     telemetry=None, on_error="raise"):
    """Run cells as one bank; ordered ``RunMetrics`` list.

    ``cells`` is an iterable of ``(scheme, workload, seed)`` tuples of
    any schemes.  All boards share the context's spec, so they bank
    together regardless of workload.

    With ``on_error="collect"`` a board whose controller raises is dropped
    from the bank and its result slot becomes a
    :class:`~repro.runtime.CellFailure` — the sibling boards keep running
    (one bad cell must not sink the whole bank).
    """
    cells = list(cells)
    tel = telemetry if telemetry is not None else active_session()
    from ..verify.invariants import active_monitor

    mon = active_monitor()
    boards = []
    coordinators = []  # None for a monolithic lane
    controls = []  # a monolithic lane's per-period step, else None
    for scheme, workload, seed in cells:
        session = build_session(scheme, context)
        boards.append(Board(instantiate_workload(workload),
                            spec=context.spec, seed=seed, record=record,
                            telemetry=tel))
        mono = session.monolithic is not None
        coordinators.append(None if mono else
                            session.coordinator(telemetry=tel, monitor=mon))
        controls.append(_monolithic_control(session, telemetry=tel,
                                            monitor=mon) if mono else None)
    bank = BoardBank(boards, telemetry=tel)
    period_steps = context.spec.period_steps()
    failed = {}

    def attempt(i, phase, *args):
        """Run one lane's phase; in collect mode a raise fails the lane."""
        try:
            return phase(*args)
        except Exception as exc:
            if on_error != "collect":
                raise
            from ..runtime import CellFailure

            scheme, workload, seed = cells[i]
            failed[i] = CellFailure(
                index=i, label=f"{scheme}:{workload_name(workload)}:s{seed}",
                reason="exception", attempts=1,
                error=f"{type(exc).__name__}: {exc}",
                elapsed=boards[i].time)
            return None

    def ok(lanes):
        return [i for i in lanes if i not in failed]

    def step_layer(layer, lanes, periods):
        """Step one layer of every lane, same-design SSV lanes stacked."""
        out = {}
        ctrls = [getattr(coordinators[i], f"{layer}_controller")
                 for i in lanes]
        for group in _design_groups(lanes, ctrls):
            idx = [i for i, _ctrl in group]
            args = [(ctrl, getattr(periods[i], f"outputs_{layer}"),
                     getattr(periods[i], f"ext_for_{layer}"))
                    for i, ctrl in group]
            results = None
            with (tel.span(f"{layer}.step", lanes=len(group))
                  if tel is not None else NULL_SPAN):
                if len(group) >= STACK_MIN_LANES:
                    try:
                        results = step_stacked(*zip(*args))
                    except Exception:
                        # No lane was written: step them one by one so
                        # that only the bad lane fails.
                        if on_error != "collect":
                            raise
                if results is None:
                    results = [attempt(i, ctrl.step, y, e)
                               for i, (ctrl, y, e) in zip(idx, args)]
            out.update(zip(idx, results))
        return out

    # Mirror runner.drive's loop per board: the while-condition check,
    # run_period, the post-period done check, then the control step --
    # a monolithic lane's ``control``, or control_step's three phases.
    # The bank advances every live board's period at once, and each layer
    # steps once per design group instead of once per lane; every lane
    # still sees its own phases in control_step's order.
    active = [i for i, b in enumerate(boards)
              if not b.done and b.time < max_time]
    while active:
        if tel is not None:
            tel.begin_period(boards[active[0]].time)
        bank.run_period_bank(period_steps, only=active)
        live = [i for i in active if not boards[i].done]
        layered = []
        for i in live:
            if controls[i] is None:
                layered.append(i)
            else:
                attempt(i, controls[i], boards[i], period_steps)
        periods = {i: attempt(i, coordinators[i].sense, boards[i],
                              period_steps) for i in layered}
        hw_u = step_layer("hw", ok(layered), periods)
        for i in ok(layered):
            attempt(i, coordinators[i].actuate_hw, boards[i], hw_u[i])
        for i in ok(layered):
            attempt(i, coordinators[i].observe_threads, boards[i])
        sw_u = step_layer("sw", [i for i in ok(layered) if
                                 coordinators[i].sw_controller is not None],
                          periods)
        for i in ok(layered):
            attempt(i, coordinators[i].finish, boards[i], periods[i],
                    hw_u[i], sw_u.get(i))
        active = [i for i in ok(live)
                  if not boards[i].done and boards[i].time < max_time]
    return [failed[i] if i in failed else
            cell_metrics(scheme, workload, boards[i], coordinators[i], record,
                         bank=bank.counters())
            for i, (scheme, workload, _seed) in enumerate(cells)]
