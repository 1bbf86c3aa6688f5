"""The lockstep board bank: bit-exactness, fallback, and integration.

Every test here enforces the same contract: a :class:`BoardBank` advances
each of its boards *bit-identically* to stepping that board alone —
including traces, sensor windows, emergency-firmware timers, application
progress, and the temperature-sensor RNG stream — whatever mix of
vectorized lockstep, mid-window fallback, and scalar (hooked) boards the
run goes through.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.board import BIG, LITTLE, Board, BoardBank
from repro.board.bank import _term_matrix
from repro.board.cores import _sum_small
from repro.board.specs import default_xu3_spec
from repro.rack.rack import instantiate_job_workload
from repro.verify.oracles import _actuation_schedule
from repro.workloads import make_application, make_mix

from .test_properties import board_specs


# ---------------------------------------------------------------------------
# The n<8 reduction rule (pinned here as promised by _sum_small's docstring)
# ---------------------------------------------------------------------------
class TestSumSmall:
    def test_matches_np_sum_bit_exactly(self):
        """_sum_small must reproduce np.sum bit-for-bit at every length.

        Below numpy's 8-element pairwise/unrolled threshold np.sum
        accumulates left to right, so the helper may (cheaply) use a plain
        Python loop there; at >= 8 it must defer to np.sum itself to keep
        the historical bit pattern.
        """
        rng = np.random.default_rng(42)
        for n in range(0, 16):
            for _ in range(20):
                values = list(
                    rng.uniform(0.01, 3.0, size=n)
                    * 10.0 ** rng.integers(-8, 8)
                )
                assert _sum_small(values) == float(np.sum(values))

    def test_sequential_below_eight(self):
        """For n < 8 the helper is exactly scalar left-to-right addition —
        the association the bank's fast paths rely on."""
        rng = np.random.default_rng(7)
        for n in range(0, 8):
            for _ in range(50):
                values = list(
                    rng.uniform(0.01, 3.0, size=n)
                    * 10.0 ** rng.integers(-12, 12)
                )
                acc = 0.0
                for v in values:
                    acc += v
                assert _sum_small(values) == acc


# ---------------------------------------------------------------------------
# Bit-identity helpers
# ---------------------------------------------------------------------------
def _assert_boards_identical(a, b, label=""):
    assert a.time == b.time, f"{label} time"
    assert a.energy == b.energy, f"{label} energy"
    assert a.thermal.temperature == b.thermal.temperature, f"{label} temp"
    assert a.temp_sensor._last == b.temp_sensor._last, f"{label} temp sensor"
    assert (
        a.temp_sensor._rng.bit_generator.state
        == b.temp_sensor._rng.bit_generator.state
    ), f"{label} rng stream"
    for name in (BIG, LITTLE):
        sa, sb = a.power_sensors[name], b.power_sensors[name]
        assert sa._accumulated == sb._accumulated, f"{label} {name} acc"
        assert sa._elapsed == sb._elapsed, f"{label} {name} elapsed"
        assert sa._latched == sb._latched, f"{label} {name} latched"
        assert (
            a.perf_counters[name].total_giga == b.perf_counters[name].total_giga
        ), f"{label} {name} instructions"
        assert (
            a.emergency._under_power_time[name]
            == b.emergency._under_power_time[name]
        ), f"{label} {name} under clock"
        assert (
            a.emergency._over_power_time[name]
            == b.emergency._over_power_time[name]
        ), f"{label} {name} over clock"
    ea, eb = a.emergency.state, b.emergency.state
    assert ea.trip_count == eb.trip_count, f"{label} trips"
    assert ea.thermal_throttled == eb.thermal_throttled, f"{label} th"
    assert ea.power_throttled == eb.power_throttled, f"{label} pth"
    assert ea.throttle_time == eb.throttle_time, f"{label} throttle time"
    for app_a, app_b in zip(a.applications, b.applications):
        assert app_a.done == app_b.done, f"{label} app done"
        assert (
            app_a.completed_instructions == app_b.completed_instructions
        ), f"{label} app progress"
        assert app_a.phase_index == app_b.phase_index, f"{label} app phase"
        assert app_a.finish_time == app_b.finish_time, f"{label} finish"
    if a.trace is not None:
        ta, tb = a.trace.as_arrays(), b.trace.as_arrays()
        assert sorted(ta) == sorted(tb), f"{label} trace signals"
        for signal in ta:
            assert np.array_equal(
                np.asarray(ta[signal]), np.asarray(tb[signal])
            ), f"{label} trace {signal}"


def _actuate(board, command):
    board.set_cluster_frequency(BIG, command["freq_big"])
    board.set_cluster_frequency(LITTLE, command["freq_little"])
    board.set_active_cores(BIG, command["cores_big"])
    board.set_active_cores(LITTLE, command["cores_little"])
    board.set_placement_knobs(*command["placement"])


def _run_pair(spec, workloads, schedules, periods, record=True,
              reference_fast_path=True, seed0=11):
    """Drive a bank and per-board references through identical schedules.

    Workloads are job workload names (``"x264@0.005"``, ``"mix:blmc"``).
    """
    def make(k):
        apps = instantiate_job_workload(workloads[k].removeprefix("mix:"))
        return Board(apps, spec=spec, seed=seed0 + k, record=record,
                     telemetry=None)

    banked = [make(k) for k in range(len(workloads))]
    bank = BoardBank(banked, telemetry=None)
    for p in range(periods):
        live = [k for k in range(len(banked)) if not banked[k].done]
        if not live:
            break
        for k in live:
            _actuate(banked[k], schedules[k][p])
        bank.run_period_bank(spec.period_steps(), only=live)

    reference = [make(k) for k in range(len(workloads))]
    for k, board in enumerate(reference):
        board.enable_fast_path = reference_fast_path
        for p in range(periods):
            if board.done:
                break
            _actuate(board, schedules[k][p])
            if reference_fast_path:
                board.run_period(spec.period_steps())
            else:
                for _ in range(spec.period_steps()):
                    if board.done:
                        break
                    board.step()
    return bank, banked, reference


# ---------------------------------------------------------------------------
# Lockstep bit-identity scenarios
# ---------------------------------------------------------------------------
class TestBankBitIdentity:
    def test_cool_dvfs_only_rides_vector_kernel(self):
        """Frequency-only actuation (no hotplug, no migration) must engage
        the vectorized lockstep kernel and still match per-board stepping."""
        spec = default_xu3_spec()
        workloads = ["blackscholes", "mcf", "mix:blmc", "gamess"]
        schedules = []
        for k in range(len(workloads)):
            base = _actuation_schedule(spec, 25, 100 + k)
            schedules.append([
                dict(cmd, cores_big=4, cores_little=4,
                     placement=(4.0, 2.0, 2.0))
                for cmd in base
            ])
        bank, banked, reference = _run_pair(spec, workloads, schedules, 25)
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")
        counters = bank.counters()
        assert counters["vector_ticks"] > 0, "vector path never engaged"

    def test_hotplug_churn_stays_vectorized_bit_identically(self):
        """Per-period core/placement churn charges hotplug and migration
        stalls every period; each stall tick runs on a one-tick plan in
        the vector window, so no tick falls back to scalar stepping, and
        every board must still be bit-identical."""
        spec = default_xu3_spec()
        workloads = ["blackscholes", "mcf", "mix:blmc", "gamess"]
        schedules = [_actuation_schedule(spec, 25, 100 + k)
                     for k in range(len(workloads))]
        bank, banked, reference = _run_pair(spec, workloads, schedules, 25)
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")
        counters = bank.counters()
        assert counters["events"]["stall_tick"] > 0
        assert counters["scalar_ticks"] == 0

    def test_multi_tick_stalls_stay_vectorized(self):
        """Migration stalls longer than a thread's share of a tick take
        several one-tick plans in a row; the lane re-plans after each."""
        spec = dataclasses.replace(default_xu3_spec(), migration_cost_s=0.07)
        workloads = ["blackscholes", "mcf", "mix:blmc"]
        schedules = [_actuation_schedule(spec, 12, 60 + k)
                     for k in range(len(workloads))]
        bank, banked, reference = _run_pair(spec, workloads, schedules, 12)
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")
        counters = bank.counters()
        assert counters["scalar_ticks"] == 0
        # More stall ticks than (lane, period) pairs: some stalls drained
        # over consecutive ticks.
        assert counters["events"]["stall_tick"] > 12 * len(workloads)

    def test_overridden_execute_credits_through_execute(self):
        """A QoS app's ``execute`` also counts completed items, which the
        credit cells do not replay: its lane credits through ``execute``
        on every tick and stays bit-identical, items included."""
        from repro.extensions import QosApplication

        spec = default_xu3_spec()

        def make():
            apps = [QosApplication("qos", total_items=20000,
                                   base_giga_per_item=0.02, max_threads=3),
                    make_application("mcf")]
            return Board(apps, spec=spec, seed=4, record=True, telemetry=None)

        banked, reference = make(), make()
        reference.enable_fast_path = False
        bank = BoardBank([banked], telemetry=None)
        for _ in range(40):
            bank.run_period_bank(spec.period_steps())
            reference.run_period(spec.period_steps())
        _assert_boards_identical(banked, reference)
        qos, ref = banked.applications[0], reference.applications[0]
        assert not qos.done
        assert qos.items_completed == ref.items_completed > 0

    def test_saturated_bandwidth_at_different_frequencies(self):
        """Two lanes with the same placed phases at different frequencies
        under a saturated DRAM bandwidth: their contention factors differ,
        so the memoized factor must key on frequency."""
        spec = dataclasses.replace(default_xu3_spec(), mem_bandwidth_gbs=0.8)
        schedules = [
            [{"freq_big": (2.0, 1.0)[(p + k) % 2], "freq_little": 1.4,
              "cores_big": 4, "cores_little": 4,
              "placement": (4.0, 2.0, 2.0)} for p in range(6)]
            for k in range(2)
        ]
        bank, banked, reference = _run_pair(spec, ["mcf", "mcf"], schedules,
                                            6, seed0=1)
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")

    def test_hot_emergency_windows(self):
        """Pin max-frequency boards so the emergency firmware trips."""
        spec = default_xu3_spec()
        workloads = ["mix:blmc", "mix:stga", "mix:blst", "mix:mcga"]
        schedules = []
        for k in range(len(workloads)):
            schedules.append([
                {"freq_big": 2.0, "freq_little": 1.4,
                 "cores_big": 4, "cores_little": 4,
                 "placement": (4.0 + k, 2.0, 2.0)}
            ] * 120)
        bank, banked, reference = _run_pair(spec, workloads, schedules, 120)
        assert any(
            b.emergency.state.trip_count > 0 for b in banked
        ), "scenario no longer trips the emergency firmware"
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")

    def test_run_to_completion_membership_churn(self):
        spec = default_xu3_spec()
        workloads = ["vips", "swaptions", "vips"]
        schedules = []
        for k in range(len(workloads)):
            base = _actuation_schedule(spec, 800, 7 * k + 1)
            # Keep frequencies high enough that every board finishes well
            # inside the horizon; core/placement churn stays random.
            schedules.append([
                dict(cmd,
                     freq_big=max(cmd["freq_big"], 1.2),
                     freq_little=max(cmd["freq_little"], 0.8))
                for cmd in base
            ])
        bank, banked, reference = _run_pair(spec, workloads, schedules, 800,
                                            record=False)
        for k, (a, b) in enumerate(zip(banked, reference)):
            assert a.done and b.done, f"board {k} did not complete"
            _assert_boards_identical(a, b, label=f"board {k}")

    def test_executed_tick_counts_match_run_period(self):
        spec = default_xu3_spec()
        boards = [Board(make_application("blackscholes"), spec=spec, seed=3,
                        record=False)]
        bank = BoardBank(boards, telemetry=None)
        solo = Board(make_application("blackscholes"), spec=spec, seed=3,
                     record=False)
        for _ in range(10):
            executed = bank.run_period_bank(spec.period_steps())
            assert executed[0] == solo.run_period(spec.period_steps())

    def test_zero_steps_leave_a_stalled_board_alone(self):
        """Planning a stall tick drains the stall, so a zero-tick call
        must not plan: the board stays exactly as a reference that was
        not stepped."""
        spec = default_xu3_spec()

        def make():
            board = Board(make_mix("blmc"), spec=spec, seed=2, record=True,
                          telemetry=None)
            board.set_active_cores(BIG, 2)
            board.set_placement_knobs(6.0, 2.0, 2.0)
            return board

        board, reference = make(), make()
        bank = BoardBank([board], telemetry=None)
        assert bank.run_period_bank(0) == [0]
        bank.run_period_bank(spec.period_steps())
        reference.run_period(spec.period_steps())
        _assert_boards_identical(board, reference)

    def test_only_restricts_stepping(self):
        spec = default_xu3_spec()
        boards = [Board(make_application("mcf"), spec=spec, seed=k,
                        record=False) for k in range(3)]
        bank = BoardBank(boards, telemetry=None)
        executed = bank.run_period_bank(spec.period_steps(), only=[1])
        assert executed[0] == 0 and executed[2] == 0
        assert executed[1] == spec.period_steps()
        assert boards[0].time == 0.0 and boards[2].time == 0.0


# ---------------------------------------------------------------------------
# Scalar fallback: tick hooks and disabled vector path
# ---------------------------------------------------------------------------
class TestBankFallback:
    def test_tick_hook_forces_scalar_and_stays_identical(self):
        spec = default_xu3_spec()
        workloads = ["blackscholes", "mcf"]
        schedules = [_actuation_schedule(spec, 12, 5 + k)
                     for k in range(len(workloads))]

        seen = []
        banked = [
            Board(make_application(w), spec=spec, seed=30 + k, record=True,
                  telemetry=None)
            for k, w in enumerate(workloads)
        ]
        bank = BoardBank(banked, telemetry=None)
        bank.set_tick_hook(0, lambda board: seen.append(board.time))
        for p in range(12):
            for k in range(2):
                _actuate(banked[k], schedules[k][p])
            bank.run_period_bank(spec.period_steps())

        reference = [
            Board(make_application(w), spec=spec, seed=30 + k, record=True,
                  telemetry=None)
            for k, w in enumerate(workloads)
        ]
        for k, board in enumerate(reference):
            for p in range(12):
                _actuate(board, schedules[k][p])
                board.run_period(spec.period_steps())
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")
        assert len(seen) == 12 * spec.period_steps(), "hook missed ticks"
        assert bank.counters()["scalar_ticks"] >= len(seen)

    def test_hook_removal_restores_vector_path(self):
        spec = default_xu3_spec()
        board = Board(make_application("mcf"), spec=spec, seed=1, record=False)
        bank = BoardBank([board], telemetry=None)
        bank.set_tick_hook(0, lambda b: None)
        bank.run_period_bank(spec.period_steps())
        before = bank.counters()["vector_ticks"]
        bank.set_tick_hook(0, None)
        bank.run_period_bank(spec.period_steps())
        assert bank.counters()["vector_ticks"] > before

    def test_fast_path_off_board_takes_scalar_path(self):
        """A board with ``enable_fast_path = False`` never enters the
        vector kernel, per period or through a schedule, and ends
        bit-identical to a reference board stepped alone."""
        spec = default_xu3_spec()

        def make():
            return Board(make_application("mcf"), spec=spec, seed=1,
                         record=True, telemetry=None)

        board = make()
        board.enable_fast_path = False
        bank = BoardBank([board], telemetry=None)
        schedule = _actuation_schedule(spec, 6, 5)
        for command in schedule[:3]:
            _actuate(board, command)
            bank.run_period_bank(spec.period_steps())
        fb, fl = _cyclic_schedule(3)
        bank.run_schedule_bank(fb, fl)
        assert bank.counters()["vector_ticks"] == 0
        assert bank.counters()["scalar_ticks"] == 6 * spec.period_steps()

        reference = make()
        for command in schedule[:3]:
            _actuate(reference, command)
            reference.run_period(spec.period_steps())
        for p in range(3):
            reference.set_cluster_frequency(BIG, fb[p])
            reference.set_cluster_frequency(LITTLE, fl[p])
            reference.run_period(spec.period_steps())
        _assert_boards_identical(board, reference)


# ---------------------------------------------------------------------------
# Shared DVFS schedules (run_schedule_bank)
# ---------------------------------------------------------------------------
def _schedule_pair(spec, workloads, fb, fl, seed0=11, record=True,
                   reference_fast_path=True):
    """``run_schedule_bank`` vs the per-board per-period reference loop."""
    def make(k):
        w = workloads[k]
        apps = make_mix(w[4:]) if w.startswith("mix:") else make_application(w)
        return Board(apps, spec=spec, seed=seed0 + k, record=record,
                     telemetry=None)

    banked = [make(k) for k in range(len(workloads))]
    bank = BoardBank(banked, telemetry=None)
    executed = bank.run_schedule_bank(fb, fl)

    reference = [make(k) for k in range(len(workloads))]
    ref_ticks = [0] * len(reference)
    for k, board in enumerate(reference):
        board.enable_fast_path = reference_fast_path
        for p in range(len(fb)):
            if board.done:
                break
            board.set_cluster_frequency(BIG, fb[p])
            board.set_cluster_frequency(LITTLE, fl[p])
            if reference_fast_path:
                ref_ticks[k] += board.run_period(spec.period_steps())
            else:
                for _ in range(spec.period_steps()):
                    if board.done:
                        break
                    board.step()
                    ref_ticks[k] += 1
    return bank, banked, reference, executed, ref_ticks


def _cyclic_schedule(periods):
    """A DVFS cycle of operating points cool enough that the no-trip
    bound holds for every workload used here."""
    fb = [0.8 + 0.1 * (p % 4) for p in range(periods)]
    fl = [0.5 + 0.05 * (p % 4) for p in range(periods)]
    return fb, fl


class TestFusedSchedule:
    """``run_schedule_bank`` against the per-board per-period loop."""

    def test_matches_per_period_loop_and_fuses(self):
        """Bit-identical, including clamp-and-count of out-of-range
        commands."""
        spec = default_xu3_spec()
        workloads = ["blackscholes", "mcf", "mix:blmc", "gamess"]
        fb, fl = _cyclic_schedule(40)
        fb[5] = -3.0  # below range: clamped and counted
        fl[23] = 99.0  # above range likewise
        bank, banked, reference, executed, ref_ticks = _schedule_pair(
            spec, workloads, fb, fl
        )
        assert bank.vector_ticks > 0, "vector kernel never engaged"
        assert executed == ref_ticks
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")
            assert a.rejected_actuations == b.rejected_actuations, \
                f"board {k} rejected counters"

    def test_nonfinite_entries_carry_forward(self):
        """NaN/inf commands must be dropped-and-counted with the previous
        frequency surviving."""
        spec = default_xu3_spec()
        workloads = ["blackscholes", "gamess"]
        fb, fl = _cyclic_schedule(30)
        fb[10] = float("nan")
        fl[17] = float("inf")
        bank, banked, reference, executed, ref_ticks = _schedule_pair(
            spec, workloads, fb, fl
        )
        assert executed == ref_ticks
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")
            assert a.nonfinite_commands == b.nonfinite_commands, \
                f"board {k} nonfinite counters"

    def test_lane_completes_mid_schedule(self):
        """A lane finishing its program must drop out exactly where the
        reference does."""
        spec = default_xu3_spec()
        workloads = ["vips", "swaptions", "vips"]
        periods = 800
        fb = [1.2 + 0.1 * (p % 2) for p in range(periods)]
        fl = [0.8 + 0.05 * (p % 3) for p in range(periods)]
        bank, banked, reference, executed, ref_ticks = _schedule_pair(
            spec, workloads, fb, fl, record=False
        )
        assert executed == ref_ticks
        for k, (a, b) in enumerate(zip(banked, reference)):
            assert a.done and b.done, f"board {k} did not complete"
            _assert_boards_identical(a, b, label=f"board {k}")

    def test_emergency_churn_keeps_vector_path(self):
        """A schedule hot enough to trip the emergency firmware keeps
        every lane on the vector kernel: the tripping lane re-plans
        inside its window."""
        spec = default_xu3_spec()
        workloads = ["mix:blmc", "mix:stga", "mix:blst", "mix:mcga"]
        periods = 120
        fb = [2.0] * periods
        fl = [1.4] * periods
        bank, banked, reference, executed, ref_ticks = _schedule_pair(
            spec, workloads, fb, fl
        )
        assert any(
            b.emergency.state.trip_count > 0 for b in banked
        ), "scenario no longer trips the emergency firmware"
        counters = bank.counters()
        assert counters["vector_ticks"] > counters["scalar_ticks"], \
            "emergency churn pushed the bank off the vector path"
        assert executed == ref_ticks
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")

    def test_schedule_length_mismatch_raises(self):
        spec = default_xu3_spec()
        board = Board(make_application("mcf"), spec=spec, seed=1,
                      record=False)
        bank = BoardBank([board], telemetry=None)
        with pytest.raises(ValueError, match="length mismatch"):
            bank.run_schedule_bank([1.0, 1.2], [0.8])

    def test_only_restricts_schedule(self):
        spec = default_xu3_spec()
        boards = [Board(make_application("mcf"), spec=spec, seed=k,
                        record=False) for k in range(3)]
        bank = BoardBank(boards, telemetry=None)
        fb, fl = _cyclic_schedule(5)
        executed = bank.run_schedule_bank(fb, fl, only=[1])
        assert executed[0] == 0 and executed[2] == 0
        assert executed[1] == 5 * spec.period_steps()
        assert boards[0].time == 0.0 and boards[2].time == 0.0


# ---------------------------------------------------------------------------
# Pinned counters: the per-layer benchmark shares read these
# ---------------------------------------------------------------------------
class TestBankCounters:
    """Exact ``counters()`` for one fixed run.

    The values pin how the bank splits the work between vector and
    scalar stepping; the end-to-end benchmark's per-layer
    ``scalar_tick_frac`` share reads these counters.
    """

    def _boards(self, spec, workloads, seed0):
        from repro.rack.rack import instantiate_job_workload

        return [Board(instantiate_job_workload(w), spec=spec, seed=seed0 + k,
                      record=True, telemetry=None)
                for k, w in enumerate(workloads)]

    def test_per_period_counters(self):
        """Core/placement churn, a lane that starts above the thermal
        trip, and a lane whose short program finishes mid-run."""
        spec = default_xu3_spec()
        boards = self._boards(
            spec, ["blackscholes", "mcf", "blmc", "blackscholes@0.005"], 21
        )
        boards[2].thermal.temperature = spec.emergency_temp_trip + 5.0
        bank = BoardBank(boards, telemetry=None)
        schedules = [_actuation_schedule(spec, 20, 40 + k) for k in range(4)]
        schedules[2] = [{"freq_big": 2.0, "freq_little": 1.4,
                         "cores_big": 4, "cores_little": 4,
                         "placement": (4.0, 2.0, 2.0)}] * 20
        for p in range(20):
            live = [k for k in range(4) if not boards[k].done]
            for k in live:
                _actuate(boards[k], schedules[k][p])
            bank.run_period_bank(spec.period_steps(), only=live)
        # Every stall tick runs on a one-tick plan inside the window, so
        # no tick is left to the scalar path.
        assert bank.counters() == {
            "boards": 4, "vector_ticks": 634, "scalar_ticks": 0,
            "windows": 20, "fused_ticks": 0,
            "events": {"emergency": 2, "membership": 2, "plan_refused": 0,
                       "stall_tick": 45, "lane_exit": 1},
            "plans": {"tier1": 19, "tier2": 1, "layout": 42, "full": 5,
                      "revisit": 18, "stall": 41},
        }


# ---------------------------------------------------------------------------
# Plan reuse: a lane re-plans only what changed
# ---------------------------------------------------------------------------
class TestPlanReuse:
    def test_alternating_deals_and_core_toggles(self):
        """Lanes alternate between two placement deals and toggle core
        counts for 40 periods: placements recur and every period stalls,
        yet the lanes stay bit-identical to per-board ``run_period``,
        revisited placements are found again by identity (their layouts
        reused), and stall ticks are served without a full re-plan."""
        spec = default_xu3_spec()
        workloads = ["mix:blmc", "mcf", "mix:stga", "gamess"]
        periods = 40
        deals = [(4.0, 2.0, 2.0), (2.0, 1.0, 2.0)]
        schedules = [
            [{"freq_big": 1.2 + 0.1 * ((p + k) % 3),
              "freq_little": 1.0,
              "cores_big": 3 + (p // 2 + k) % 2,
              "cores_little": 4,
              "placement": deals[(p + k) % 2]} for p in range(periods)]
            for k in range(len(workloads))
        ]
        bank, banked, reference = _run_pair(spec, workloads, schedules,
                                            periods)
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")
        plans = bank.counters()["plans"]
        assert plans["revisit"] > 0 and plans["stall"] > 0
        assert plans["full"] == len(workloads)  # one generation per lane

    def test_layout_served_stall_ticks_drain_exactly(self):
        """Stall ticks built from a lane's known layout drain exactly what
        scalar stepping drains: after every tick, each thread's migration
        stall and each cluster's hotplug stall equal scalar stepping's,
        including migration stalls that outlast their tick."""
        spec = dataclasses.replace(default_xu3_spec(), migration_cost_s=0.07,
                                   hotplug_cost_s=0.03)

        def make():
            return Board(make_mix("blmc"), spec=spec, seed=5, record=False,
                         telemetry=None)

        banked = make()
        bank = BoardBank([banked], telemetry=None)
        reference = make()
        schedule = _actuation_schedule(spec, 12, 3)
        for p in range(12):
            for board in (banked, reference):
                _actuate(board, schedule[p])
            for _ in range(spec.period_steps()):
                bank.run_period_bank(1)
                reference.step()
                for name in (BIG, LITTLE):
                    assert (banked.clusters[name].pending_hotplug_stall
                            == reference.clusters[name].pending_hotplug_stall)
                for app, ref_app in zip(banked.applications,
                                        reference.applications):
                    assert ([t.migration_stall for t in app.threads]
                            == [t.migration_stall for t in ref_app.threads])
        _assert_boards_identical(banked, reference)
        plans = bank.counters()["plans"]
        assert plans["stall"] > 12 and plans["full"] < plans["stall"]

    @staticmethod
    def _logged_pair(spec, monkeypatch):
        """A one-lane bank, its board, a scalar reference board, and a log
        of every stall check the bank makes: ``(placement epoch, big cores
        computed, stall found)``."""
        import repro.board.bank as bank_module

        def make():
            return Board(make_mix("blmc"), spec=spec, seed=5, record=True,
                         telemetry=None)

        banked, reference = make(), make()
        reference.enable_fast_path = False
        log = []
        check = bank_module._stall_pending

        def logged(board, layout):
            found = check(board, layout)
            log.append((board._placement_epoch, layout[BIG][0], found))
            return found

        monkeypatch.setattr(bank_module, "_stall_pending", logged)
        return BoardBank([banked], telemetry=None), banked, reference, log

    @staticmethod
    def _step_pair(bank, banked, reference, n_steps):
        bank.run_period_bank(n_steps)
        for _ in range(n_steps):
            reference.step()
        for app, ref_app in zip(banked.applications, reference.applications):
            assert ([t.migration_stall for t in app.threads]
                    == [t.migration_stall for t in ref_app.threads])

    def test_cap_lift_exposes_a_leftover_migration_stall(self, monkeypatch):
        """The thermal emergency parks big cores 2-3 while placement deals
        charge migration stalls to the threads on them, so the capped
        layout drains stall-free while those stalls stay put.  When the
        cap lifts at the same placement epoch, the full layout must still
        find them: a layout found stall-free says nothing about another
        layout of the same placement."""
        spec = dataclasses.replace(default_xu3_spec(), migration_cost_s=0.3,
                                   emergency_temp_trip=60.0,
                                   emergency_temp_clear=59.8)
        bank, banked, reference, log = self._logged_pair(spec, monkeypatch)
        deals = [(4.0, 1.0, 2.0), (4.0, 2.0, 1.0)]
        for p in range(30):
            for board in (banked, reference):
                board.set_cluster_frequency(BIG, (2.0, 1.2)[p % 2])
                if p % 3 == 0:
                    board.set_placement_knobs(*deals[(p // 3) % 2])
            self._step_pair(bank, banked, reference, spec.period_steps())
        _assert_boards_identical(banked, reference)
        # A capped layout was found stall-free, and later at the same
        # epoch the full layout found a stall.
        assert any(
            epoch == later[0] and cores < later[1] and not found and later[2]
            for i, (epoch, cores, found) in enumerate(log)
            for later in log[i + 1:]
        )

    def test_multi_period_migration_stall_on_one_layout(self, monkeypatch):
        """A migration stall several periods long drains on one layout
        while DVFS moves every period: each period re-checks the layout,
        which stays stalled until the last stall tick, and the lane stays
        bit-identical to scalar stepping throughout."""
        spec = dataclasses.replace(default_xu3_spec(), migration_cost_s=0.8)
        bank, banked, reference, log = self._logged_pair(spec, monkeypatch)
        stalled = []
        for p in range(8):
            for board in (banked, reference):
                board.set_cluster_frequency(BIG, (1.6, 1.2)[p % 2])
                if p == 0:
                    board.set_placement_knobs(4.0, 2.0, 1.0)
            self._step_pair(bank, banked, reference, spec.period_steps())
            stalled.append(any(t.migration_stall > 0
                               for app in banked.applications
                               for t in app.threads))
        _assert_boards_identical(banked, reference)
        assert stalled[:2] == [True, True] and not stalled[-1]
        assert len({epoch for epoch, _, _ in log}) == 1  # one placement
        assert bank.counters()["events"]["stall_tick"] > spec.period_steps()

    def test_hotplug_draining_a_whole_tick(self):
        """With ``sim_dt`` equal to the hotplug cost, a hotplug drains the
        whole next tick, leaving it no time to execute.  ``Board.step``,
        ``run_period`` and a two-lane bank all run that tick with no work
        and stay bit-identical."""
        spec = default_xu3_spec(sim_dt=0.01)
        assert spec.hotplug_cost_s == spec.sim_dt
        workloads = ["mix:blmc", "mcf"]
        schedules = [[{"freq_big": 1.6, "freq_little": 1.2,
                       "cores_big": (4, 2, 3, 1)[(p + k) % 4],
                       "cores_little": (4, 3)[p % 2],
                       "placement": (4.0, 2.0, 2.0)} for p in range(8)]
                     for k in range(len(workloads))]
        bank, banked, fast = _run_pair(spec, workloads, schedules, 8)
        _, _, scalar = _run_pair(spec, workloads, schedules, 8,
                                 reference_fast_path=False)
        for k, board in enumerate(banked):
            _assert_boards_identical(board, fast[k], label=f"fast {k}")
            _assert_boards_identical(board, scalar[k], label=f"scalar {k}")
        counters = bank.counters()
        assert counters["events"]["stall_tick"] > 0
        assert counters["scalar_ticks"] == 0

    def test_phase_entry_never_matches_a_cached_placement(self):
        """A pool phase followed by one with the same thread count but
        other characteristics: the new phase's threads equal the old ones
        by value, so the placement keeps the old objects.  The phase entry
        starts a new plan generation — no plan cached for the old phase
        is found again — and the run stays bit-identical."""
        from repro.workloads.app import Application, Phase

        spec = default_xu3_spec()
        first = Phase("a", n_threads=4, instructions=12.0, cpi_scale=1.1,
                      mpki=2.0, activity=0.8)
        second = Phase("b", n_threads=4, instructions=12.0, cpi_scale=0.6,
                       mpki=9.0, activity=1.0)

        def make():
            return Board([Application("twin", [first, second])], spec=spec,
                         seed=2, record=True, telemetry=None)

        banked = make()
        bank = BoardBank([banked], telemetry=None)
        reference = make()
        old = list(banked.applications[0].threads)
        lanes = []
        entered = False
        for p in range(30):
            if banked.done:
                break
            for board in (banked, reference):
                board.set_placement_knobs(2.0 + p % 2, 1.0, 1.0)
            bank.run_period_bank(spec.period_steps())
            reference.run_period(spec.period_steps())
            app = banked.applications[0]
            if app.phase_index == 1 and not app.done:
                if not entered:
                    assert app.threads == old  # equal by value only
                    assert not any(a is b for a, b in zip(app.threads, old))
                    entered = True
                bank._plan_for(0)
                lane = bank._replan_cache[0]
                assert {phase for _, phase in lane.phase_of.values()} == {
                    second}
            lane = bank._replan_cache.get(0)
            if lane is not None and not any(lane is k for k in lanes):
                lanes.append(lane)
        assert entered and len(lanes) >= 2
        _assert_boards_identical(banked, reference)


# ---------------------------------------------------------------------------
# Property: the no-trip bound really bounds scalar stepping
# ---------------------------------------------------------------------------
class TestNoTripBound:
    @given(spec=board_specs(), seed=st.integers(min_value=0, max_value=9999),
           heat=st.floats(min_value=0.0, max_value=45.0),
           start=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_bound_holds_for_any_op_sequence(self, spec, seed, heat, start):
        """Scalar ``Board.step`` through a random sequence of operating
        points, set through ``set_cluster_frequency``, with the bound
        re-derived at each switch as the kernel does on a re-plan.
        Whenever ``_no_trip_bound`` returns ``X`` for the current op:
        the op's RC target at ``X`` is at most ``X``, and the period at
        that op, starting at or below ``X`` (a cached bound may come from
        a lower start), neither exceeds ``X`` nor changes emergency
        state."""
        from repro.board.power import _REFERENCE_TEMP

        rng = np.random.default_rng(seed)
        rb = spec.cluster(BIG).freq_range
        rl = spec.cluster(LITTLE).freq_range
        board = Board(make_mix("blmc"), spec=spec, seed=seed, record=False,
                      telemetry=None)
        board.thermal.temperature = spec.ambient_temp + heat
        board.enable_fast_path = False
        bank = BoardBank([board], telemetry=None)
        key = (0,)
        S = bank._slices(key, [board])
        thermal = board.thermal
        phases = [app.phase_index for app in board.applications]
        for period in range(4):
            board.set_cluster_frequency(BIG, float(rng.uniform(rb.low,
                                                               rb.high)))
            board.set_cluster_frequency(LITTLE, float(rng.uniform(rl.low,
                                                                  rl.high)))
            plan = bank._plan_for(0)
            assert plan is not None
            P = _term_matrix([plan])
            T0 = thermal.temperature
            ub = bank._no_trip_bound(S, P, np.array([T0]))
            if ub is None:
                return
            X = float(ub[0])
            assert X >= T0
            dyn, leak, ltc, idle = P[0:2], P[2:4], P[4:6], P[6:8]
            factor = np.maximum(1.0 + ltc[:, 0] * (X - _REFERENCE_TEMP), 0.2)
            p = dyn[:, 0] + leak[:, 0] * factor + idle[:, 0]
            target = thermal.ambient + thermal.resistance * (
                p[0] + thermal.little_weight * p[1]
            )
            assert target <= X
            if period == 0:
                thermal.temperature = T0 + start * (X - T0)
            for _ in range(spec.period_steps()):
                board.step()
                if [app.phase_index for app in board.applications] != phases:
                    return  # new phase, new plans: the bound no longer applies
                assert thermal.temperature <= X
                state = board.emergency.state
                assert state.trip_count == 0
                assert not state.thermal_throttled
                assert not any(state.power_throttled.values())


# ---------------------------------------------------------------------------
# Property: random specs, random schedules, scalar reference
# ---------------------------------------------------------------------------
class TestBankProperties:
    @given(spec=board_specs(), seed=st.integers(min_value=0, max_value=9999))
    @settings(max_examples=10, deadline=None)
    def test_bank_matches_pure_scalar_boards(self, spec, seed):
        """Random specs + schedules (DVFS, hotplug, placement) across
        phase entries: the bank must replay B pure-scalar boards
        bit-exactly, RNG streams and mid-window fallbacks included.

        x264 and bodytrack are where banked runs once diverged from
        scalar ones, on entering a new phase.  At scale 0.005 a lane
        enters at least one new phase within 6 periods on every spec
        ``board_specs`` draws, down to 2 cores per cluster and 0.2 s
        periods.
        """
        workloads = ["x264@0.005", "bodytrack@0.005", "mcf"]
        schedules = [_actuation_schedule(spec, 6, seed + 17 * k)
                     for k in range(len(workloads))]
        bank, banked, reference = _run_pair(
            spec, workloads, schedules, 6, record=True,
            reference_fast_path=False, seed0=seed,
        )
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")
        entered = sum(app.phase_index + app.done
                      for board in banked for app in board.applications)
        assert entered > 0, "no lane entered a new phase"

    @given(spec=board_specs(), seed=st.integers(min_value=0, max_value=9999),
           data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_resident_windows_match_scalar_across_calls(self, spec, seed,
                                                        data):
        """Consecutive bank calls keep each lane set's window inputs and
        re-derive only what changed.  Between calls a lane may be
        actuated or left alone (its plan is then reused unchanged), sit a
        call out (the lane set changes), or have its caches invalidated;
        calls run one tick or a whole period.  Every lane stays
        bit-identical to ``Board.step``."""
        workloads = ["x264@0.02", "bodytrack@0.02", "mcf"]
        lanes = range(len(workloads))
        periods = 12
        steps = spec.period_steps()
        schedules = [_actuation_schedule(spec, periods, seed + 17 * k)
                     for k in lanes]

        def make(k):
            return Board(instantiate_job_workload(workloads[k]), spec=spec,
                         seed=seed + k, record=True, telemetry=None)

        banked = [make(k) for k in lanes]
        reference = [make(k) for k in lanes]
        bank = BoardBank(banked, telemetry=None)
        for p in range(periods):
            actuated = data.draw(st.lists(st.booleans(), min_size=3,
                                          max_size=3), label="actuated")
            # Mostly the same lane set, so most windows find the last
            # one's inputs.
            sitting = data.draw(st.sampled_from([None, None, None, 0, 1, 2]),
                                label="sits out")
            invalidated = data.draw(st.sampled_from([None, 0, 1, 2]),
                                    label="invalidated")
            n = data.draw(st.sampled_from([1, steps]), label="ticks")
            for k in lanes:
                if actuated[k]:
                    _actuate(banked[k], schedules[k][p])
                    _actuate(reference[k], schedules[k][p])
            if invalidated is not None:
                bank.invalidate_board(invalidated)
            live = [k for k in lanes if k != sitting and not banked[k].done]
            bank.run_period_bank(n, only=live)
            for k in live:
                for _ in range(n):
                    if reference[k].done:
                        break
                    reference[k].step()
            for k in lanes:
                _assert_boards_identical(banked[k], reference[k],
                                         label=f"period {p} board {k}")


# ---------------------------------------------------------------------------
# Integration: characterization, matrix, resilience, verify
# ---------------------------------------------------------------------------
class TestBankIntegration:
    def test_banked_characterization_matches_scalar(self):
        from repro.core.characterize import characterize_board

        spec = default_xu3_spec()
        a = characterize_board(spec, samples_per_program=24, seed=7,
                               banked=False)
        b = characterize_board(spec, samples_per_program=24, seed=7,
                               banked=True)
        assert np.array_equal(a.hw_data.inputs, b.hw_data.inputs)
        assert np.array_equal(a.hw_data.outputs, b.hw_data.outputs)
        assert np.array_equal(a.sw_data.inputs, b.sw_data.inputs)
        assert np.array_equal(a.sw_data.outputs, b.sw_data.outputs)
        assert np.array_equal(a.joint_data.inputs, b.joint_data.inputs)
        assert np.array_equal(a.joint_data.outputs, b.joint_data.outputs)
        assert a.output_ranges == b.output_ranges
        assert a.output_mids == b.output_mids

    def test_batched_matrix_matches_serial(self, design_context):
        from repro.experiments import run_scheme_matrix

        schemes = ["coordinated-heuristic", "decoupled-heuristic",
                   "yukta-hwssv-osheur", "yukta-hwssv-osssv"]
        workloads = ["blackscholes", "mcf"]
        serial = run_scheme_matrix(schemes, workloads, design_context,
                                   seed=7, max_time=10.0, record=True)
        batched = run_scheme_matrix(schemes, workloads, design_context,
                                    seed=7, max_time=10.0, record=True,
                                    batch=3)
        for w in serial:
            for s in serial[w]:
                a, b = serial[w][s], batched[w][s]
                assert a.execution_time == b.execution_time, (w, s)
                assert a.energy == b.energy, (w, s)
                assert a.completed == b.completed, (w, s)
                assert (a.notes["emergency_trips"]
                        == b.notes["emergency_trips"]), (w, s)
                assert (a.notes["coordinator_records"]
                        == b.notes["coordinator_records"]), (w, s)
                for signal in a.trace:
                    assert np.array_equal(a.trace[signal],
                                          b.trace[signal]), (w, s, signal)

    def test_batched_matrix_matches_serial_to_completion(self,
                                                         design_context):
        """bodytrack and x264 run to completion diverged banked from
        ~95 s on while a plan cached for an earlier phase's threads was
        still being reused; every field must agree over the whole run."""
        from repro.experiments import run_scheme_matrix
        from repro.verify.oracles import _Comparator, compare_runs

        schemes = ["coordinated-heuristic", "decoupled-heuristic",
                   "decoupled-lqg"]
        workloads = ["bodytrack", "x264"]
        serial = run_scheme_matrix(schemes, workloads, design_context,
                                   seed=11, record=True)
        banked = run_scheme_matrix(schemes, workloads, design_context,
                                   seed=11, record=True, batch=6)
        cells = [(w, s) for w in workloads for s in schemes]
        assert all(serial[w][s].completed for w, s in cells)
        cmp = compare_runs(_Comparator(), cells,
                           [serial[w][s] for w, s in cells],
                           [banked[w][s] for w, s in cells])
        result = cmp.result("bank-matrix-vs-serial")
        assert result.agree, result.render()

    def test_collect_mode_fails_only_the_raising_lane(self, design_context,
                                                      monkeypatch):
        """The gamess lanes' actuation raises mid-run under
        ``on_error="collect"``: those lanes alone -- one coordinated, one
        monolithic-LQG -- become CellFailures, and their siblings --
        stacked SSV lanes whose groups shrink around them, and a
        monolithic-LQG lane -- stay bit-identical to their solo runs."""
        from repro.experiments import run_workload
        from repro.experiments.bank_runner import run_cells_banked
        from repro.experiments.schemes import MONOLITHIC_LQG
        from repro.runtime import CellFailure

        cells = [("yukta-hwssv-osssv", w, 5)
                 for w in ("blackscholes", "gamess", "x264")]
        cells += [("yukta-hwssv-osheur", "mcf", 5),
                  ("coordinated-heuristic", "bodytrack", 5),
                  (MONOLITHIC_LQG, "blackscholes", 5),
                  (MONOLITHIC_LQG, "gamess", 5)]
        victims = (1, 6)  # gamess: leaves a 3-lane hw and a 2-lane sw group
        solo = {i: run_workload(*cell[:2], design_context, seed=5,
                                max_time=12.0, record=True)
                for i, cell in enumerate(cells) if i not in victims}

        actuate = Board.set_active_cores

        def flaky(board, cluster, n):
            if board.applications[0].name == "gamess" and board.time >= 4.0:
                raise RuntimeError("injected actuation fault")
            return actuate(board, cluster, n)

        monkeypatch.setattr(Board, "set_active_cores", flaky)
        banked = run_cells_banked(cells, design_context, max_time=12.0,
                                  record=True, on_error="collect")
        for victim in victims:
            failure = banked[victim]
            assert isinstance(failure, CellFailure), cells[victim]
            assert "injected actuation fault" in failure.error
            assert 4.0 <= failure.elapsed < 12.0
        for i, ref in solo.items():
            got = banked[i]
            assert got.execution_time == ref.execution_time, cells[i]
            assert got.energy == ref.energy, cells[i]
            assert got.completed == ref.completed, cells[i]
            for signal in ref.trace:
                assert np.array_equal(ref.trace[signal], got.trace[signal]), (
                    cells[i], signal)

    def test_bank_of_only_monolithic_lanes_matches_solo_runs(
            self, design_context):
        """A bank with no coordinator lane at all: every lane runs the
        monolithic-LQG step, bit-identical to its solo run, and reports
        the bank's counters."""
        from repro.experiments import run_cells_banked, run_workload
        from repro.experiments.schemes import MONOLITHIC_LQG
        from repro.verify.oracles import _Comparator, compare_runs

        cells = [(MONOLITHIC_LQG, w, 3) for w in ("mcf", "blmc")]
        banked = run_cells_banked(cells, design_context, max_time=10.0,
                                  record=True)
        solo = [run_workload(s, w, design_context, seed=3, max_time=10.0,
                             record=True) for s, w, _seed in cells]
        assert all("bank" in m.notes for m in banked)
        result = compare_runs(_Comparator(), [c[:2] for c in cells], solo,
                              banked).result("monolithic-bank")
        assert result.agree, result.render()

    def test_banked_resilience_matches_solo_runs(self, design_context):
        from repro.experiments.resilience import (
            supervised_run,
            supervised_runs_banked,
        )
        from repro.faults import default_fault_matrix

        matrix = default_fault_matrix(fault_time=8.0, quick=True)
        campaigns = [None, matrix[0][1]]
        banked = supervised_runs_banked(
            design_context, "coordinated-heuristic", campaigns,
            max_time=30.0, seed=11,
        )
        solo = [
            supervised_run(
                design_context, "coordinated-heuristic",
                campaign=default_fault_matrix(fault_time=8.0,
                                              quick=True)[0][1]
                if i else None,
                max_time=30.0, seed=11,
            )
            for i in range(2)
        ]
        for i, (a, b) in enumerate(zip(banked, solo)):
            assert a.exd == b.exd, i
            assert a.completed == b.completed, i
            assert a.temp_violation_time == b.temp_violation_time, i
            assert a.power_violation_time == b.power_violation_time, i
            assert a.supervisor.tripped == b.supervisor.tripped, i
            assert (a.supervisor.detection_time
                    == b.supervisor.detection_time), i
            assert (a.supervisor.time_degraded
                    == b.supervisor.time_degraded), i

    def test_oracle_bank_agrees(self):
        from repro.verify.oracles import oracle_bank

        result = oracle_bank(periods=10)
        assert result.agree, result.render()
        assert result.max_ulp == 0.0
        assert result.tolerance_ulp == 0.0

    def test_oracle_bank_matrix_agrees(self, design_context):
        from repro.verify.oracles import oracle_bank_matrix

        result = oracle_bank_matrix(design_context, max_time=6.0)
        assert result.agree, result.render()

    def test_shared_sim_dt_required(self):
        spec_a = default_xu3_spec()
        spec_b = dataclasses.replace(spec_a, sim_dt=spec_a.sim_dt * 2)
        boards = [
            Board(make_application("mcf"), spec=spec_a, seed=1, record=False),
            Board(make_application("mcf"), spec=spec_b, seed=2, record=False),
        ]
        with pytest.raises(ValueError, match="sim_dt"):
            BoardBank(boards, telemetry=None)


# ---------------------------------------------------------------------------
# Heterogeneous banks: two different BoardSpecs sharing one lockstep bank
# ---------------------------------------------------------------------------
def _hetero_specs(sim_dt=0.05):
    spec_a = default_xu3_spec(sim_dt=sim_dt)
    spec_b = dataclasses.replace(
        default_xu3_spec(sim_dt=sim_dt),
        control_period=1.0,
        ambient_temp=38.0,
        thermal_resistance=12.5,
    )
    return spec_a, spec_b


class TestHeterogeneousBank:
    """Regression: no bank consumer may assume one shared BoardSpec.

    The bank's constants and plan memos are all per-lane / per-spec; these tests pin that with two genuinely different specs
    (different control periods and thermal constants) in one bank.
    """

    def test_mixed_specs_period_path_bit_identical(self):
        spec_a, spec_b = _hetero_specs()
        steps = spec_a.period_steps()
        workloads = ["mcf", "gamess", "blackscholes", "fluidanimate"]

        def make(k):
            spec = spec_a if k % 2 == 0 else spec_b
            return Board(make_application(workloads[k]), spec=spec,
                         seed=11 + k, record=True, telemetry=None)

        banked = [make(k) for k in range(4)]
        bank = BoardBank(banked, telemetry=None)
        rng = np.random.default_rng(5)
        freqs = [(float(f), float(g)) for f, g in zip(
            rng.uniform(0.4, 1.2, 20), rng.uniform(0.4, 1.0, 20))]
        for fb, fl in freqs:
            for board in banked:
                board.set_cluster_frequency(BIG, fb)
                board.set_cluster_frequency(LITTLE, fl)
            bank.run_period_bank(steps)

        reference = [make(k) for k in range(4)]
        for board in reference:
            for fb, fl in freqs:
                board.set_cluster_frequency(BIG, fb)
                board.set_cluster_frequency(LITTLE, fl)
                board.run_period(steps)
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"hetero board {k}")
        assert bank.vector_ticks > 0

    def test_mixed_specs_schedule_groups_bit_identical(self):
        """Same-spec selections ride run_schedule_bank; mixed ones raise."""
        spec_a, spec_b = _hetero_specs()
        workloads = ["mcf", "gamess", "blackscholes", "fluidanimate"]

        def make(k):
            spec = spec_a if k % 2 == 0 else spec_b
            return Board(make_application(workloads[k]), spec=spec,
                         seed=3 + k, record=True, telemetry=None)

        banked = [make(k) for k in range(4)]
        bank = BoardBank(banked, telemetry=None)
        # Mixed period_steps across the selection must refuse loudly.
        with pytest.raises(ValueError):
            bank.run_schedule_bank([0.6] * 4, [0.5] * 4)
        # Grouped by spec, both groups match scalar stepping.
        fb, fl = [0.6, 0.7, 0.6, 0.8], [0.5, 0.5, 0.6, 0.5]
        for _ in range(3):
            bank.run_schedule_bank(fb, fl, only=[0, 2])
            bank.run_schedule_bank(fb, fl, only=[1, 3])

        reference = [make(k) for k in range(4)]
        for k, board in enumerate(reference):
            steps = (spec_a if k % 2 == 0 else spec_b).period_steps()
            for _ in range(3):
                for p in range(4):
                    board.set_cluster_frequency(BIG, fb[p])
                    board.set_cluster_frequency(LITTLE, fl[p])
                    board.run_period(steps)
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"hetero schedule board {k}")
        assert bank.vector_ticks > 0

    def test_invalidate_board_after_out_of_band_app_append(self):
        """Out-of-band workload mutation needs invalidate_board.

        Appending an application between windows is invisible to every
        plan-reuse tier (no actuation or placement epoch ticks), so the
        bank would keep crediting the stale thread set.  ``invalidate_
        board`` retires the lane's caches; with it, the bank matches
        scalar stepping bit-for-bit.
        """
        spec = default_xu3_spec(sim_dt=0.05)
        steps = spec.period_steps()

        def run_banked(invalidate):
            boards = [
                Board(make_application("mcf"), spec=spec, seed=1,
                      record=True, telemetry=None),
                Board(make_application("gamess"), spec=spec, seed=2,
                      record=True, telemetry=None),
            ]
            bank = BoardBank(boards, telemetry=None)
            for board in boards:
                board.set_cluster_frequency(BIG, 1.0)
                board.set_cluster_frequency(LITTLE, 0.8)
            for _ in range(10):
                bank.run_period_bank(steps)
            boards[0].applications.append(make_application("blackscholes"))
            if invalidate:
                bank.invalidate_board(0)
            for _ in range(10):
                bank.run_period_bank(steps)
            return boards[0]

        reference = Board(make_application("mcf"), spec=spec, seed=1,
                          record=True, telemetry=None)
        reference.set_cluster_frequency(BIG, 1.0)
        reference.set_cluster_frequency(LITTLE, 0.8)
        for _ in range(10):
            reference.run_period(steps)
        reference.applications.append(make_application("blackscholes"))
        for _ in range(10):
            reference.run_period(steps)

        good = run_banked(invalidate=True)
        _assert_boards_identical(good, reference, label="invalidated lane")

        # Non-vacuity: without the invalidation the stale plan really does
        # starve the appended application (this is the bug being pinned).
        stale = run_banked(invalidate=False)
        assert stale.applications[1].completed_instructions == 0.0
        assert reference.applications[1].completed_instructions > 0.0


# ---------------------------------------------------------------------------
# Lane-local re-plans: an event costs one lane, not the whole window
# ---------------------------------------------------------------------------
class TestLaneLocalReplans:
    @staticmethod
    def _count_replans(bank):
        """Record every plan the bank makes from inside a vector window."""
        inside = []
        replans = []
        kernel = bank._run_vector_window
        planner = bank._plan_for

        def run(*args, **kwargs):
            inside.append(True)
            try:
                return kernel(*args, **kwargs)
            finally:
                inside.pop()

        def plan(index):
            if inside:
                replans.append(index)
            return planner(index)

        bank._run_vector_window = run
        bank._plan_for = plan
        return replans

    def test_rack_stream_matches_scalar_rack(self):
        """An 8-board heterogeneous rack stream with emergency and
        membership events: the banked rack re-plans lanes inside their
        windows and still matches ``use_bank=False`` bit for bit."""
        from repro.rack import JobSpec, Rack, heterogeneous_rack_spec
        from repro.workloads.library import program_names

        names = list(program_names("evaluation"))[:12]
        jobs = tuple(
            JobSpec(name=f"j{k}", workload=f"{name}@0.03",
                    arrival=0.0 if k < 8 else 2.0 * (k - 7), sla=20.0)
            for k, name in enumerate(names)
        )
        spec = heterogeneous_rack_spec(n_boards=8, jobs=jobs)

        def run(use_bank):
            rack = Rack(spec, seed=1, use_bank=use_bank, record=True,
                        record_boards=True, telemetry=None)
            calls = []
            if use_bank:
                call = rack.bank.run_period_bank

                def counted(*args, **kwargs):
                    calls.append(1)
                    return call(*args, **kwargs)

                rack.bank.run_period_bank = counted
            return rack, rack.run(max_time=16.0), len(calls)

        rack_b, banked, calls = run(True)
        rack_s, scalar, _ = run(False)
        assert banked.energy == scalar.energy
        assert banked.board_time == scalar.board_time
        ta, tb = banked.trace.as_arrays(), scalar.trace.as_arrays()
        assert sorted(ta) == sorted(tb)
        for signal in ta:
            assert np.array_equal(np.asarray(ta[signal]),
                                  np.asarray(tb[signal])), signal
        for k, (a, b) in enumerate(zip(rack_b.boards, rack_s.boards)):
            _assert_boards_identical(a, b, label=f"rack board {k}")

        counters = banked.bank_counters
        events = counters["events"]
        assert events["emergency"] > 0 and events["membership"] > 0
        assert events["lane_exit"] > 0
        assert counters["windows"] <= calls + events["lane_exit"]

    def test_recording_lanes_match_run_period_through_replans(self):
        """Four recording lanes — one starting above the thermal trip, one
        whose short program finishes mid-window — match ``Board.run_period``
        tick for tick while lanes re-plan inside the window."""
        from repro.rack.rack import instantiate_job_workload

        spec = default_xu3_spec()
        workloads = ["blackscholes", "mcf", "blmc", "blackscholes@0.005"]

        def make():
            boards = [Board(instantiate_job_workload(w), spec=spec,
                            seed=21 + k, record=True, telemetry=None)
                      for k, w in enumerate(workloads)]
            boards[2].thermal.temperature = spec.emergency_temp_trip + 5.0
            for board in boards:
                _actuate(board, {"freq_big": 1.8, "freq_little": 1.2,
                                 "cores_big": 4, "cores_little": 4,
                                 "placement": (4.0, 2.0, 2.0)})
            return boards

        banked = make()
        bank = BoardBank(banked, telemetry=None)
        replans = self._count_replans(bank)
        periods = 12
        for _ in range(periods):
            bank.run_period_bank(spec.period_steps())
        reference = make()
        for board in reference:
            for _ in range(periods):
                board.run_period(spec.period_steps())
        for k, (a, b) in enumerate(zip(banked, reference)):
            _assert_boards_identical(a, b, label=f"board {k}")

        counters = bank.counters()
        assert counters["windows"] == periods
        assert counters["events"]["emergency"] > 0
        assert counters["events"]["lane_exit"] == 1
        assert banked[3].done and not banked[0].done
        assert 2 in replans, "the hot lane never re-planned mid-window"
