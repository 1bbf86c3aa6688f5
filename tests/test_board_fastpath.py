"""Bit-identity of the vectorized period stepping (board fast path).

``Board.run_period`` must produce exactly the state scalar ``step()``-ing
produces — same floats, same RNG stream, same traces — across actuation
changes, hotplug stalls, emergency-firmware trips, and fault injection
(where the planner must refuse and fall back to scalar stepping).
"""

import dataclasses

import numpy as np
import pytest

from repro.board import BIG, LITTLE, Board, default_xu3_spec
from repro.board.fastpath import plan_window
from repro.workloads import make_application, make_mix


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

    def test_disable_flag_stays_scalar(self):
        board = Board(make_mix("blmc"), default_xu3_spec(), seed=1,
                      record=False)
        board.enable_fast_path = False
        period_steps = board.spec.period_steps()
        assert board.run_period(period_steps) == period_steps


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
