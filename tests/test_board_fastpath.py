"""Bit-identity of the vectorized period stepping (board fast path).

``Board.run_period`` must produce exactly the state scalar ``step()``-ing
produces — same floats, same RNG stream, same traces — across actuation
changes, hotplug stalls, emergency-firmware trips, and fault injection
(where the planner must refuse and fall back to scalar stepping).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.board import BIG, LITTLE, Board, default_xu3_spec
from repro.board.credit import _POOL, _THREAD, RESERVE, _LaneCells
from repro.board.fastpath import plan_window
from repro.workloads import make_application, make_mix
from repro.workloads.app import Application, Phase


def _drive(board, use_period, sim_time, actuate=None):
    """Run a deterministic control schedule to ``sim_time`` seconds."""
    period_steps = board.spec.period_steps()
    i = 0
    while not board.done and board.time < sim_time:
        if actuate is not None:
            actuate(board, i)
        if use_period:
            board.run_period(period_steps)
        else:
            for _ in range(period_steps):
                if board.done:
                    break
                board.step()
        i += 1
    return board


def _assert_identical(a, b):
    assert a.time == b.time
    assert a.energy == b.energy
    assert a.thermal.temperature == b.thermal.temperature
    assert a.counters() == b.counters()
    assert [app.done for app in a.applications] == [
        app.done for app in b.applications
    ]
    if a.trace is not None and b.trace is not None:
        ta, tb = a.trace.as_arrays(), b.trace.as_arrays()
        assert set(ta) == set(tb)
        for key in ta:
            assert np.array_equal(np.asarray(ta[key]), np.asarray(tb[key])), (
                f"trace {key} diverged"
            )


def _assert_progress(a, b):
    """Every application's progress, phase and budgets are bit-identical."""
    for app_a, app_b in zip(a.applications, b.applications):
        assert app_a.phase_index == app_b.phase_index
        assert app_a.completed_instructions == app_b.completed_instructions
        assert app_a.pool_remaining == app_b.pool_remaining
        assert app_a.finish_time == app_b.finish_time
        assert [(t.remaining, t.migration_stall) for t in app_a.threads] == [
            (t.remaining, t.migration_stall) for t in app_b.threads]


def _pair(workload="blmc", spec=None, seed=13, record=True):
    spec = spec or default_xu3_spec()
    mk = (lambda: make_mix(workload)) if workload in (
        "blmc", "stga", "blst", "mcga"
    ) else (lambda: make_application(workload))
    scalar = Board(mk(), spec, seed=seed, record=record)
    scalar.enable_fast_path = False
    fast = Board(mk(), spec, seed=seed, record=record)
    fast.enable_fast_path = True
    return scalar, fast


class TestRunPeriodEquivalence:
    def test_steady_actuation(self):
        def actuate(board, i):
            freqs = [1.6, 2.0, 1.2, 0.8, 1.8]
            board.set_cluster_frequency(BIG, freqs[i % len(freqs)])
            board.set_cluster_frequency(LITTLE, round(1.0 + 0.2 * (i % 3), 1))

        scalar, fast = _pair()
        _drive(scalar, False, 90.0, actuate)
        _drive(fast, True, 90.0, actuate)
        _assert_identical(scalar, fast)

    def test_hotplug_and_placement_changes(self):
        def actuate(board, i):
            if i % 3 == 0:
                board.set_active_cores(BIG, 2 + (i // 3) % 3)
            if i % 5 == 0:
                board.set_active_cores(LITTLE, 1 + (i // 5) % 4)
            if i % 4 == 2:
                board.set_placement_knobs(4 + i % 4, 1.0 + 0.5 * (i % 2), 2.0)

        scalar, fast = _pair()
        _drive(scalar, False, 90.0, actuate)
        scalar_steps = []

        def step():
            scalar_steps.append(fast.time)
            Board.step(fast)

        fast.step = step
        _drive(fast, True, 90.0, actuate)
        _assert_identical(scalar, fast)
        # Stall ticks run on one-tick plans: the fast board never steps.
        assert scalar_steps == []

    def test_multi_tick_migration_stall(self, monkeypatch):
        """A migration stall longer than a thread's share of a tick drains
        over several ticks: each gets its own one-tick plan."""
        import repro.board.board as board_module

        spec = dataclasses.replace(default_xu3_spec(), migration_cost_s=0.07)
        kinds = []

        def plan(board):
            result = plan_window(board)
            kinds.append(result is not None and result.stall_tick)
            return result

        monkeypatch.setattr(board_module, "plan_window", plan)

        def actuate(board, i):
            board.set_active_cores(BIG, 2 + i % 3)
            board.set_placement_knobs(4 + i % 4, 1.0 + 0.5 * (i % 2), 2.0)

        scalar, fast = _pair(spec=spec)
        _drive(scalar, False, 30.0, actuate)
        _drive(fast, True, 30.0, actuate)
        _assert_identical(scalar, fast)
        assert any(a and b for a, b in zip(kinds, kinds[1:]))

    def test_emergency_trips(self):
        # Force both thermal and power trips mid-window: the fast path has
        # to end windows on emergency state changes and stay exact.
        spec = dataclasses.replace(
            default_xu3_spec(), emergency_temp_trip=70.0,
            emergency_temp_clear=64.0, emergency_power_factor=1.1,
        )

        def actuate(board, i):
            board.set_cluster_frequency(BIG, 2.0)
            board.set_cluster_frequency(LITTLE, 1.4)

        scalar, fast = _pair(spec=spec, seed=5)
        _drive(scalar, False, 120.0, actuate)
        _drive(fast, True, 120.0, actuate)
        assert scalar.emergency.state.trip_count > 0  # the trips happened
        _assert_identical(scalar, fast)

    def test_single_program_completion(self):
        scalar, fast = _pair(workload="blackscholes", seed=3)
        _drive(scalar, False, 600.0)
        _drive(fast, True, 600.0)
        assert scalar.done and fast.done
        _assert_identical(scalar, fast)

    def test_run_period_returns_steps_executed(self):
        _, fast = _pair()
        period_steps = fast.spec.period_steps()
        assert fast.run_period(period_steps) == period_steps

    def test_faults_force_scalar_fallback(self):
        # A FaultInjector installs board.fault_hooks; the planner must
        # refuse and run_period must still match scalar stepping exactly.
        from repro.faults import FaultInjector, default_fault_matrix

        campaign = default_fault_matrix(fault_time=5.0, quick=True)[0][1]

        def faulted(use_period):
            board = Board(make_mix("blmc"), default_xu3_spec(), seed=11,
                          record=True)
            board.enable_fast_path = use_period
            injector = FaultInjector(board, campaign, seed=11)
            assert plan_window(board) is None  # hooks installed -> refuse
            period_steps = board.spec.period_steps()
            while not board.done and board.time < 60.0:
                board.set_cluster_frequency(BIG, 1.8)
                if use_period:
                    executed = board.run_period(period_steps)
                else:
                    executed = 0
                    for _ in range(period_steps):
                        if board.done:
                            break
                        board.step()
                        executed += 1
                for _ in range(executed):
                    injector.advance()
            return board

        scalar = faulted(False)
        fast = faulted(True)
        _assert_identical(scalar, fast)

    def test_overridden_execute_credits_through_execute(self):
        """An app whose ``execute`` does more than the credit cells replay
        (a QoS app counts the items it completes) credits through its own
        ``execute`` on every tick."""
        from repro.extensions import QosApplication

        def make():
            apps = [QosApplication("qos", total_items=20000,
                                   base_giga_per_item=0.02, max_threads=3),
                    make_application("mcf")]
            return Board(apps, default_xu3_spec(), seed=4, record=True)

        scalar, fast = make(), make()
        scalar.enable_fast_path = False
        _drive(scalar, False, 30.0)
        _drive(fast, True, 30.0)
        _assert_identical(scalar, fast)
        _assert_progress(scalar, fast)
        qos, ref = fast.applications[0], scalar.applications[0]
        assert not qos.done
        assert qos.items_completed == ref.items_completed > 0

    def test_disable_flag_stays_scalar(self):
        board = Board(make_mix("blmc"), default_xu3_spec(), seed=1,
                      record=False)
        board.enable_fast_path = False
        period_steps = board.spec.period_steps()
        assert board.run_period(period_steps) == period_steps


EDGE_PERIOD = 10  # ticks per control period of the default spec


def _edge_apps(barrier, n_threads):
    """An app whose first phase the test brings to the edge of its credit
    horizon, followed by short phases of the other kind, beside a steady
    background program."""
    return [
        Application("edge", [
            Phase("a", n_threads, 40.0, cpi_scale=1.1, mpki=2.0,
                  activity=0.9, barrier=barrier),
            Phase("b", 2, 0.6, mpki=6.0, barrier=not barrier),
            Phase("c", 3, 20.0, activity=0.7),
        ]),
        make_application("mcf"),
    ]


def _edge_boards(barrier, n_threads, slack, frac, trip_at, stall, record):
    """A scalar and a fast board whose first window's credit horizon ends
    ``slack`` ticks after the window's last tick (the edge app's budget
    cells then run out ``RESERVE`` ticks later), optionally starting on a
    stall tick and tripping the thermal emergency at tick ``trip_at``."""
    spec = default_xu3_spec()

    def make(spec):
        board = Board(_edge_apps(barrier, n_threads), spec, seed=3,
                      record=record)
        board.set_cluster_frequency(BIG, 1.6)  # below the power trip
        board.set_cluster_frequency(LITTLE, 1.4)
        if stall:
            board.set_active_cores(BIG, 3)  # hotplug and migration stalls
        return board

    if trip_at is not None:
        probe = make(spec)
        temps = [probe.thermal.temperature]
        for _ in range(trip_at):
            probe.step()
            temps.append(probe.thermal.temperature)
        assume(temps[-1] > temps[-2])
        trip = 0.5 * (temps[-2] + temps[-1])
        spec = dataclasses.replace(spec, emergency_temp_trip=trip,
                                   emergency_temp_clear=trip - 0.5)
    scalar, fast, probe = (make(spec) for _ in range(3))
    scalar.enable_fast_path = False
    plan = plan_window(probe)  # planning's side effects stay on the probe
    if plan.stall_tick:
        plan = plan.then
    cells = _LaneCells(plan.credits)
    ratio = EDGE_PERIOD - stall + RESERVE + slack + frac
    for (kind, obj), dec in zip(cells.cells, cells.decs[1:]):
        if dec <= 0.0:
            continue
        if kind == _POOL and obj.name == "edge":
            for board in (scalar, fast):
                board.applications[0].pool_remaining = dec * ratio
        elif kind == _THREAD and obj.app_name == "edge":
            for board in (scalar, fast):
                board.applications[0].threads[obj.thread_id].remaining = (
                    dec * ratio)
    return scalar, fast


class TestHorizonEdges:
    """``run_period`` credits the ticks inside a plan's credit horizon in
    bulk; at the horizon's edges it must stay bit-identical to
    ``Board.step``."""

    @settings(max_examples=40, deadline=None)
    @given(barrier=st.booleans(), n_threads=st.integers(1, 4),
           slack=st.integers(-5, 5), frac=st.floats(0.05, 0.95),
           trip_at=st.none() | st.integers(1, EDGE_PERIOD - 1),
           stall=st.booleans(), record=st.booleans())
    @example(barrier=False, n_threads=2, slack=0, frac=0.5, trip_at=None,
             stall=False, record=True)  # the horizon ends at max_steps
    @example(barrier=True, n_threads=3, slack=2, frac=0.5, trip_at=4,
             stall=False, record=True)  # an emergency inside the horizon
    @example(barrier=False, n_threads=4, slack=-5, frac=0.9, trip_at=None,
             stall=True, record=False)  # stall tick, then exhaustion
    def test_run_period_matches_step(self, barrier, n_threads, slack, frac,
                                     trip_at, stall, record):
        scalar, fast = _edge_boards(barrier, n_threads, slack, frac, trip_at,
                                    stall, record)
        for _ in range(6):
            for _ in range(EDGE_PERIOD):
                scalar.step()
            assert fast.run_period(EDGE_PERIOD) == EDGE_PERIOD
            _assert_identical(scalar, fast)
            _assert_progress(scalar, fast)
            assert scalar.temp_sensor._last == fast.temp_sensor._last
        if trip_at is not None:
            assert scalar.emergency.state.trip_count > 0
        else:  # the edge was crossed (a cap may park its threads instead)
            assert scalar.applications[0].phase_index > 0


class TestPeriodStepsValidation:
    def test_default_spec_divides(self):
        assert default_xu3_spec().period_steps() == 10

    def test_non_divisible_grid_rejected(self):
        with pytest.raises(ValueError, match="evenly divide"):
            default_xu3_spec(sim_dt=0.07)

    def test_non_positive_dt_rejected(self):
        with pytest.raises(ValueError):
            default_xu3_spec(sim_dt=0.0)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="evenly divide"):
            dataclasses.replace(default_xu3_spec(), control_period=0.333)
