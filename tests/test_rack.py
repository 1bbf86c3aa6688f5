"""Unit tests for the rack layer: specs, controllers, runtime, goldens."""

import dataclasses
import math

import pytest

from repro.board.specs import default_xu3_spec
from repro.obs import analyze_rack
from repro.rack import (
    BoardReading,
    BudgetGovernor,
    CoolingSpec,
    HeuristicRackController,
    JobSpec,
    Rack,
    RackBoardFault,
    RackSpec,
    SSVRackController,
    default_rack_spec,
    heterogeneous_rack_spec,
    instantiate_job_workload,
    rack_layer_spec,
)
from repro.verify.golden import (
    TraceMismatch,
    capture_rack_trace,
    compare_traces,
    load_golden,
    write_golden,
)


def _stream(n=3, workload="mcf@0.05", spacing=2.0, sla=60.0):
    return tuple(
        JobSpec(name=f"j{i}", workload=workload, arrival=spacing * i, sla=sla)
        for i in range(n)
    )


class TestRackSpec:
    def test_default_spec_shape(self):
        spec = default_rack_spec(n_boards=4)
        assert spec.n_boards == 4
        assert spec.min_cap() == pytest.approx(4 * spec.budget_floor)
        assert spec.power_cap > spec.min_cap()
        assert spec.board_periods(0) == int(
            round(spec.rack_period / spec.boards[0].control_period))
        assert "4 board(s)" in spec.describe()

    def test_heterogeneous_spec_mixes_variants(self):
        spec = heterogeneous_rack_spec(n_boards=4)
        periods = {spec.board_periods(i) for i in range(4)}
        assert len(periods) == 2  # two distinct control cadences

    def test_rejects_empty_rack(self):
        with pytest.raises(ValueError, match="at least one board"):
            RackSpec(boards=())

    def test_rejects_mixed_sim_dt(self):
        with pytest.raises(ValueError, match="sim_dt"):
            RackSpec(boards=(default_xu3_spec(sim_dt=0.05),
                             default_xu3_spec(sim_dt=0.1)))

    def test_rejects_nondividing_control_period(self):
        odd = dataclasses.replace(default_xu3_spec(), control_period=0.75)
        with pytest.raises(ValueError, match="divide the rack period"):
            RackSpec(boards=(odd,), rack_period=2.0)

    def test_rejects_cap_below_floors(self):
        with pytest.raises(ValueError, match="budget floors"):
            default_rack_spec(n_boards=4, power_cap=1.0)

    def test_rejects_fault_beyond_rack(self):
        with pytest.raises(ValueError, match="only 2 boards"):
            default_rack_spec(
                n_boards=2,
                faults=(RackBoardFault(board=5, start=1.0),))

    def test_rejects_bad_fault_kind(self):
        with pytest.raises(ValueError, match="unknown rack fault kind"):
            RackBoardFault(board=0, start=1.0, kind="meteor")

    def test_job_deadline(self):
        job = JobSpec(name="j", workload="mcf", arrival=5.0, sla=30.0)
        assert job.deadline == 35.0

    def test_cooling_derate(self):
        cooling = CoolingSpec(max_inlet=32.0, derate_per_degree=0.05)
        assert cooling.derate_fraction(30.0) == 1.0
        assert cooling.derate_fraction(34.0) == pytest.approx(0.9)
        assert cooling.steady_inlet(10.0) == pytest.approx(
            cooling.supply_temp + 10.0 * cooling.thermal_resistance)


class TestWorkloadScaling:
    @staticmethod
    def _work(app):
        return sum(ph.instructions for ph in app.phases)

    def test_plain_name_round_trips(self):
        apps = instantiate_job_workload("blackscholes")
        assert apps and all(self._work(a) > 0 for a in apps)

    def test_scale_suffix_shrinks_instructions(self):
        full = instantiate_job_workload("mcf")
        small = instantiate_job_workload("mcf@0.1")
        assert len(small) == len(full)
        for a_small, a_full in zip(small, full):
            assert self._work(a_small) == pytest.approx(
                0.1 * self._work(a_full))
            assert len(a_small.phases) == len(a_full.phases)

    def test_bad_scale_is_loud(self):
        with pytest.raises(ValueError):
            instantiate_job_workload("mcf@zero")
        with pytest.raises(ValueError):
            instantiate_job_workload("mcf@-1")

    def test_unknown_name_is_loud(self):
        with pytest.raises(KeyError):
            instantiate_job_workload("not-a-workload@0.5")


class TestRackControllers:
    def _readings(self, powers, **kw):
        return [BoardReading(power=p, headroom=1.0, queue_depth=1, busy=True,
                             **kw)
                for p in powers]

    def test_uniform_splits_cap_evenly(self):
        spec = default_rack_spec(n_boards=4)
        ctl = HeuristicRackController(spec, mode="uniform")
        budgets = ctl.step(self._readings([1.0] * 4), 8.0)
        assert budgets == pytest.approx([2.0] * 4)

    def test_greedy_feeds_declared_demand(self):
        spec = default_rack_spec(n_boards=2)
        ctl = HeuristicRackController(spec, mode="greedy")
        budgets = ctl.step(self._readings([3.0, 1.0]), spec.power_cap)
        assert budgets[0] > budgets[1]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown heuristic"):
            HeuristicRackController(default_rack_spec(2), mode="chaotic")

    def test_untrusted_board_pinned_to_floor(self):
        spec = default_rack_spec(n_boards=2)
        ctl = SSVRackController(spec)
        readings = self._readings([float("nan"), 2.0])
        budgets = ctl.step(readings, spec.power_cap)
        assert budgets[0] == pytest.approx(spec.budget_floor)
        assert budgets[1] > budgets[0]

    def test_offline_board_releases_budget(self):
        spec = default_rack_spec(n_boards=2)
        ctl = SSVRackController(spec)
        readings = [BoardReading(power=0.0, headroom=0.0, queue_depth=0,
                                 online=False),
                    BoardReading(power=2.0, headroom=1.0, queue_depth=2,
                                 busy=True)]
        budgets = ctl.step(readings, spec.power_cap)
        assert budgets[0] == 0.0
        assert budgets[1] > 0.0

    def test_ssv_gain_is_certified(self):
        spec = default_rack_spec(n_boards=4)
        ctl = SSVRackController(spec)
        assert ctl.gain == pytest.approx(0.65)
        assert ctl.mu_peak <= 1.0
        assert any(peak > 1.0 for g, peak in ctl.mu_history if g > ctl.gain)

    def test_governor_probes_out_of_idle(self):
        governor = BudgetGovernor(default_xu3_spec())
        governor.level = 0.2  # parked low by a past tight budget
        governor.command(2.0, 0.0)  # budget but no draw: probe upward
        assert governor.level > 0.2

    def test_governor_untrusted_power_holds_level(self):
        governor = BudgetGovernor(default_xu3_spec())
        governor.command(2.0, 1.0)
        level = governor.level
        governor.command(2.0, float("nan"))
        assert governor.level == level

    def test_layer_spec_declares_rack_interface(self):
        spec = default_rack_spec(n_boards=3)
        layer = rack_layer_spec(spec)
        inputs = {s.name for s in layer.inputs}
        outputs = {s.name for s in layer.outputs}
        assert {"budget_0", "budget_1", "budget_2"} <= inputs
        assert {"power_0", "headroom_1", "queue_depth_2",
                "power_total"} <= outputs


class TestRackRuntime:
    def test_stream_completes_and_accounts(self):
        spec = default_rack_spec(n_boards=2, jobs=_stream(3))
        result = Rack(spec, record=True, seed=3).run(max_time=120.0)
        assert result.jobs_admitted == 3
        assert result.jobs_completed == 3
        assert result.jobs_unfinished == 0
        assert result.sla_misses == 0
        assert result.energy > 0
        assert result.makespan > 0
        assert result.exd == pytest.approx(result.energy * result.makespan)
        assert len(result.trace.times) == result.periods
        summary = result.summary()
        assert "3/3" in summary

    def test_bank_and_scalar_paths_identical(self):
        spec = heterogeneous_rack_spec(n_boards=3, jobs=_stream(3))
        rb = Rack(spec, use_bank=True, record=True, seed=5).run(max_time=60.0)
        rs = Rack(spec, use_bank=False, record=True, seed=5).run(max_time=60.0)
        assert rb.energy == rs.energy
        assert rb.trace.power_true == rs.trace.power_true
        assert rb.trace.budget_total == rs.trace.budget_total
        assert rb.bank_counters and not rs.bank_counters

    def test_bank_matches_scalar_across_resident_windows(self):
        # A window over the lane set of the one before keeps its inputs
        # and splices re-planned lanes in; each plan keeps the no-trip
        # bound proven for it.  The two-board rack on a 1 s period reuses
        # one lane set with a new operating point nearly every window,
        # which is where a stale term column or bound would let a trip go
        # unseen.
        from repro.workloads.library import program_names

        jobs = tuple(
            JobSpec(name=f"j{i}", workload=f"{name}@0.06",
                    arrival=0.0 if i < 7 else 2.0 * i, sla=20.0)
            for i, name in enumerate(program_names("evaluation"))
        )
        for n_boards, rack_period in ((8, 2.0), (2, 1.0)):
            spec = heterogeneous_rack_spec(n_boards=n_boards, jobs=jobs,
                                           rack_period=rack_period)
            rb = Rack(spec, use_bank=True, seed=11).run(max_time=40.0)
            rs = Rack(spec, use_bank=False, seed=11).run(max_time=40.0)
            assert rb.bank_counters["vector_ticks"] > 0
            assert len({id(b) for b in spec.boards}) >= 2
            assert rb.energy == rs.energy
            assert rb.board_time == rs.board_time
            assert (rb.jobs_completed, rb.sla_misses) == (
                rs.jobs_completed, rs.sla_misses)

    @pytest.mark.parametrize("cap", [2.5, 4.0, 6.0])
    @pytest.mark.parametrize("lift", [2.7, 4.6, 6.3, 9.1])
    def test_bank_matches_scalar_when_dvfs_block_lifts_mid_period(self, cap,
                                                                  lift):
        # An actuator fault hook can start accepting DVFS writes in the
        # middle of a rack period; the banked rack must re-command at every
        # board period there, exactly as the scalar path does.
        class DvfsBlockedUntil:
            def __init__(self, board):
                self.board = board

            def blocks_dvfs(self, cluster_name):
                return self.board.time < lift

            def blocks_hotplug(self, cluster_name):
                return False

            def blocks_placement(self):
                return False

        spec = default_rack_spec(n_boards=2, power_cap=cap,
                                 jobs=_stream(3, spacing=1.0))
        results = []
        for use_bank in (True, False):
            rack = Rack(spec, use_bank=use_bank, record=True, seed=7)
            for board in rack.boards:
                board.fault_hooks = DvfsBlockedUntil(board)
            results.append(rack.run(max_time=16.0))
        rb, rs = results
        assert rb.board_energy == rs.board_energy
        assert rb.board_time == rs.board_time
        assert rb.trace.power_true == rs.trace.power_true
        assert rb.trace.budgets == rs.trace.budgets

    def test_offline_fault_requeues_and_recovers(self):
        jobs = _stream(2, workload="mcf@0.1", spacing=1.0, sla=200.0)
        faults = (RackBoardFault(board=1, start=6.0, duration=10.0,
                                 kind="offline"),)
        spec = default_rack_spec(n_boards=2, jobs=jobs, faults=faults)
        result = Rack(spec, record=True, seed=3).run(max_time=200.0)
        assert result.requeues >= 1
        assert result.jobs_completed == 2
        # While offline, the faulted board's budget is zero.
        hit = [k for k, t in enumerate(result.trace.times) if 6.0 <= t < 16.0]
        assert hit and all(result.trace.budgets[k][1] == 0.0 for k in hit)

    def test_sensor_fault_pins_board_to_floor(self):
        jobs = _stream(2, workload="mcf@0.1", spacing=0.0, sla=200.0)
        faults = (RackBoardFault(board=0, start=4.0, duration=8.0,
                                 kind="power-sensor"),)
        spec = default_rack_spec(n_boards=2, jobs=jobs, faults=faults)
        result = Rack(spec, record=True, seed=3).run(max_time=40.0)
        hit = [k for k, t in enumerate(result.trace.times) if 6.0 <= t < 12.0]
        assert hit
        for k in hit:
            assert result.trace.budgets[k][0] == pytest.approx(
                spec.budget_floor)

    def test_cap_schedule_steps_down(self):
        jobs = _stream(3, workload="blackscholes@0.3", spacing=0.0, sla=500.0)
        spec = default_rack_spec(n_boards=2, jobs=jobs)
        schedule = [(0.0, spec.power_cap), (10.0, 0.7 * spec.power_cap)]
        result = Rack(spec, record=True, seed=3).run(max_time=30.0,
                                                     cap_schedule=schedule)
        before = [c for t, c in zip(result.trace.times, result.trace.cap)
                  if t < 10.0]
        after = [c for t, c in zip(result.trace.times, result.trace.cap)
                 if t >= 10.0]
        assert before and after
        assert max(after) < min(before)

    def test_sla_misses_counted(self):
        jobs = _stream(2, workload="mcf@0.1", spacing=0.0, sla=1.0)
        spec = default_rack_spec(n_boards=2, jobs=jobs)
        result = Rack(spec, record=True, seed=3).run(max_time=120.0)
        assert result.jobs_completed == 2
        assert result.sla_misses == 2


class TestRackObservability:
    def test_analyze_rack_kpis(self):
        spec = default_rack_spec(n_boards=2, jobs=_stream(3))
        result = Rack(spec, record=True, seed=3).run(max_time=120.0)
        quality = analyze_rack(result, spec=spec)
        assert quality.periods == result.periods
        assert quality.jobs_completed == 3
        assert quality.cap_exposure.integral >= 0.0
        assert quality.inlet_peak >= spec.cooling.supply_temp
        assert quality.queue_depth_peak >= 0
        rendered = quality.render()
        assert "rack quality" in rendered and "cooling" in rendered
        as_dict = quality.to_dict()
        assert as_dict["controller"] == result.controller

    def test_analyze_rack_step_response(self):
        jobs = _stream(4, workload="blackscholes@0.4", spacing=0.0,
                       sla=1000.0)
        spec = default_rack_spec(n_boards=2, jobs=jobs)
        schedule = [(0.0, spec.power_cap), (16.0, 0.7 * spec.power_cap)]
        result = Rack(spec, record=True, seed=3).run(max_time=60.0,
                                                     cap_schedule=schedule)
        quality = analyze_rack(result, spec=spec, step_time=16.0)
        signals = [r.signal for r in quality.responses]
        assert "budget_total" in signals
        resp = next(r for r in quality.responses if r.signal == "budget_total")
        assert resp.settled
        assert resp.settling_time < 40.0


class TestRackGoldens:
    def test_capture_round_trips_through_golden_machinery(self, tmp_path):
        trace = capture_rack_trace("rack-ssv", "stream", max_time=60.0)
        path = write_golden(trace, "rack-ssv", "stream", golden_dir=tmp_path)
        assert path.exists()
        loaded = load_golden("rack-ssv", "stream", golden_dir=tmp_path)
        fresh = capture_rack_trace("rack-ssv", "stream", max_time=60.0)
        assert compare_traces(loaded, fresh) == []

    def test_drifted_trace_is_detected(self, tmp_path):
        trace = capture_rack_trace("rack-ssv", "stream", max_time=60.0)
        write_golden(trace, "rack-ssv", "stream", golden_dir=tmp_path)
        loaded = load_golden("rack-ssv", "stream", golden_dir=tmp_path)
        drifted = capture_rack_trace("rack-ssv", "stream", max_time=60.0)
        drifted["signals"]["budget_total"][3] *= 1.5
        mismatches = compare_traces(loaded, drifted)
        assert mismatches
        assert any("budget_total" in str(m) for m in mismatches)

    def test_missing_golden_is_loud(self, tmp_path):
        from repro.verify.golden import verify_rack_goldens

        report = verify_rack_goldens(golden_dir=tmp_path,
                                     matrix=(("rack-ssv", "stream"),))
        mismatches = report["rack-ssv/stream"]
        assert mismatches
        assert any(isinstance(m, TraceMismatch)
                   and "golden-file-missing" in m.location
                   for m in mismatches)
