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
from repro.board.fastpath import plan_window, reuse
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
    # Plan counts are the fast path's own work; the rest is board state.
    health_a, health_b = a.counters(), b.counters()
    del health_a["plans"], health_b["plans"]
    assert health_a == health_b
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


TRIP_SPEC = dict(emergency_temp_trip=70.0, emergency_temp_clear=64.0,
                 emergency_power_factor=1.1)


def _job(k):
    """A short three-phase program: its phases change within seconds."""
    barrier = bool(k % 2)
    return Application(f"job{k}", [
        Phase("a", 2 + k % 3, 1.5 + 0.5 * (k % 4), cpi_scale=1.1, mpki=3.0,
              activity=0.8, barrier=barrier),
        Phase("b", 3, 2.0, mpki=8.0, barrier=not barrier),
        Phase("c", 1 + k % 4, 1.0, activity=0.6),
    ])


def _reuse_apps():
    from repro.extensions import QosApplication

    return [QosApplication("qos", total_items=4000, base_giga_per_item=0.02,
                           max_threads=3), _job(0), *make_mix("blmc")]


def _dvfs_dropped():
    """An actuator-fault hook layer that drops DVFS writes."""
    from repro.faults.hooks import ActuatorFaultState

    hooks = ActuatorFaultState()
    for name in (BIG, LITTLE):
        hooks.set_dvfs_ignored(name, True)
    return hooks


def _board_state(board):
    """Every piece of board state scalar stepping and the fast path write."""
    sensors = [(s._accumulated, s._elapsed, s._latched)
               for s in board.power_sensors.values()]
    counters = [(c.total_giga, c._last_read)
                for c in board.perf_counters.values()]
    state = board.emergency.state
    apps = [(app.name, app.phase_index, app.completed_instructions,
             app.pool_remaining, app.finish_time,
             [(t.remaining, t.migration_stall) for t in app.threads],
             [t.thread_id for t in app.runnable_threads()])
            for app in board.applications]
    return (board.time, board.energy, board.thermal.temperature,
            board.temp_sensor._last, sensors, counters,
            board._rng.bit_generator.state,
            (state.thermal_throttled, dict(state.power_throttled),
             state.trip_count, state.throttle_time),
            [(c.frequency, c.cores_on, c.pending_hotplug_stall)
             for c in board.clusters.values()],
            dict(board._instant_power), dict(board._instant_bips), apps)


_OPS = ("hold", "hold", "repeat", "freq", "cores", "knobs", "qos", "append",
        "remove", "hook", "step")


def _apply(board, op, arg, knobs, jobs):
    """One between-periods event, applied to either board the same way;
    ``knobs`` are the last placement knobs commanded."""
    period = board.spec.period_steps()
    if op == "repeat":  # re-issue the current commands: all no-ops
        for name in (BIG, LITTLE):
            board.set_cluster_frequency(name, board.clusters[name].frequency)
            board.set_active_cores(name, board.clusters[name].cores_on)
        board.set_placement_knobs(*knobs)
    elif op == "freq":
        levels = board.spec.big.freq_range.levels
        board.set_cluster_frequency(BIG, levels[arg % len(levels)])
    elif op == "cores":
        board.set_active_cores(BIG, 1 + arg % 4)
    elif op == "knobs":
        board.set_placement_knobs(*knobs)
    elif op == "qos":
        board.applications[0].set_max_threads(1 + arg % 3)
    elif op == "append":
        board.applications.append(_job(jobs))
    elif op == "remove" and len(board.applications) > 2:
        del board.applications[1 + arg % (len(board.applications) - 1)]
    elif op == "hook":
        board.fault_hooks = None if board.fault_hooks else _dvfs_dropped()
    elif op == "step":
        for _ in range(1 + arg % (period - 1)):
            if not board.done:
                board.step()


class TestPlanReuse:
    """``run_period`` reuses the last window's plan while nothing it was
    derived from moved; it stays bit-identical to ``Board.step``."""

    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(_OPS),
                                  st.integers(0, 23)),
                        min_size=4, max_size=30),
           trips=st.booleans(), seed=st.integers(0, 50))
    @example(ops=[("hold", 0)] * 6 + [("qos", 1), ("hold", 0),
                                      ("repeat", 0), ("hold", 0)],
             trips=False, seed=1)
    def test_run_period_matches_step(self, ops, trips, seed):
        spec = dataclasses.replace(default_xu3_spec(),
                                   **(TRIP_SPEC if trips else {}))
        boards = []
        for fast_path in (False, True):
            board = Board(_reuse_apps(), spec, seed=seed, record=True)
            board.enable_fast_path = fast_path
            boards.append(board)
        scalar, fast = boards
        period = spec.period_steps()
        knobs = (4.0, 1.0, 2.0)
        for jobs, (op, arg) in enumerate(ops, start=1):
            if op == "knobs":
                knobs = (float(2 + arg % 6), 1.0 + 0.5 * (arg % 3), 2.0)
            for board in boards:
                _apply(board, op, arg, knobs, jobs)
            if fast.done:
                break
            for _ in range(period):
                if not scalar.done:
                    scalar.step()
            fast.run_period(period)
            assert _board_state(scalar) == _board_state(fast)
        _assert_identical(scalar, fast)
        _assert_progress(scalar, fast)

    @staticmethod
    def _kept_board(**spec_overrides):
        """A board whose last period ran its window to the end, so its
        next period would reuse that window's plan."""
        spec = dataclasses.replace(default_xu3_spec(), **spec_overrides)
        board = Board(_reuse_apps(), spec, seed=2, record=False)
        board.set_cluster_frequency(BIG, 1.2)
        for _ in range(3):
            board.run_period(spec.period_steps())
        assert board._kept is not None
        plan = board._kept[0]
        assert reuse(board, board._kept) is plan
        return board, plan

    def test_unchanged_inputs_reuse(self):
        board, plan = self._kept_board()
        before = board.counters()["plans"]
        board.set_cluster_frequency(BIG, 1.2)  # no-op commands
        board.set_active_cores(LITTLE, board.clusters[LITTLE].cores_on)
        board.run_period(board.spec.period_steps())
        plans = board.counters()["plans"]
        assert plans["reused"] == before["reused"] + 1
        assert plans["built"] == before["built"]
        assert board._kept[0] is plan

    def test_fast_path_off_drops_the_plan(self):
        board, _ = self._kept_board()
        board.enable_fast_path = False
        board.run_period(board.spec.period_steps())
        assert board._kept is None

    def test_fault_hook_refuses(self):
        board, _ = self._kept_board()
        board.fault_hooks = _dvfs_dropped()
        assert reuse(board, board._kept) is None

    def test_new_spec_object(self):
        board, _ = self._kept_board()
        board.spec = dataclasses.replace(board.spec)  # equal, not the same
        assert reuse(board, board._kept) is None

    def test_actuation_epoch(self):
        board, _ = self._kept_board()
        board.set_cluster_frequency(LITTLE, 1.0)
        assert reuse(board, board._kept) is None

    def test_placement_epoch(self):
        # What every placement move and stall charge does beside its
        # own change.
        board, _ = self._kept_board()
        board._placement_epoch += 1
        assert reuse(board, board._kept) is None

    def test_emergency_snapshot(self):
        board, _ = self._kept_board()
        board.emergency.state.thermal_throttled = True
        assert reuse(board, board._kept) is None

    def test_application_list(self):
        board, _ = self._kept_board()
        board.applications.append(_job(5))
        assert reuse(board, board._kept) is None
        board.applications.pop()
        assert reuse(board, board._kept) is not None
        board.applications[1] = _job(0)  # the same value, another object
        assert reuse(board, board._kept) is None

    def test_phase_index(self):
        board, plan = self._kept_board()
        twin = Application("twin", [Phase("p", 2, 9.0),
                                    Phase("q", 2, 9.0, mpki=9.0)])
        board.applications.append(twin)
        board.run_period(board.spec.period_steps())
        assert board._kept[0].apps[-1][0] is twin
        # Two shared-pool phases: the runnable threads stay the same
        # objects, the phase characteristics do not.
        twin.phase_index += 1
        assert reuse(board, board._kept) is None

    def test_finished_app(self):
        board, plan = self._kept_board()
        plan.apps[1][0].finish_time = board.time
        assert reuse(board, board._kept) is None

    def test_runnable_threads(self):
        board, _ = self._kept_board()
        board.applications[0].set_max_threads(1)  # the phase stays
        assert reuse(board, board._kept) is None

    def test_broken_window_keeps_nothing(self):
        """A trip breaks the window; the plan kept after the period is the
        re-plan under the new throttles, never the broken one."""
        board = Board(_reuse_apps(), dataclasses.replace(
            default_xu3_spec(), **TRIP_SPEC), seed=2, record=False)
        period = board.spec.period_steps()
        while board.emergency.state.trip_count == 0:
            assert board.time < 60.0
            kept = board._kept
            built = board.counters()["plans"]["built"]
            board.run_period(period)
        assert board.counters()["plans"]["built"] >= built + 1
        assert board._kept is None or (
            board._kept[0] is not (kept and kept[0])
            and reuse(board, board._kept) is board._kept[0])

    def test_finishing_window_keeps_nothing(self):
        """The window the last program finishes in breaks on membership
        before the period's end, and keeps nothing."""
        board = Board([Application("tiny", [Phase("p", 2, 1.3)])],
                      default_xu3_spec(), seed=2, record=False)
        period = board.spec.period_steps()
        while board.run_period(period) == period:
            assert board._kept is not None
        assert board.done and board._kept is None

    def test_scalar_step_drops_the_plan(self):
        board, _ = self._kept_board()
        board.step()
        assert board._kept is None
