"""Property-based tests (hypothesis) on the rack layer's invariants.

Two tiers:

* cheap pure-function properties (cap projection, demand weighting, the
  budget governor's actuation grid) at full hypothesis example counts;
* randomized :class:`RackSpec` campaigns — N in [1, 8] boards with mixed
  specs, random tiny job streams, optional mid-run faults — run under an
  active :class:`InvariantMonitor`, asserting the rack-level conservation
  invariants hold on every period of every drawn rack.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.board.specs import default_xu3_spec
from repro.rack import (
    BoardReading,
    BudgetGovernor,
    HeuristicRackController,
    JobSpec,
    Rack,
    RackBoardFault,
    RackSpec,
    SSVRackController,
    select_integral_gain,
)
from repro.rack.controllers import _closed_loop_channel, _project_to_cap
from repro.robust import BlockStructure, UncertaintyBlock
from repro.verify.invariants import (
    InvariantMonitor,
    activate_monitor,
    deactivate_monitor,
)

from .test_properties import _ref_mu_upper_bound

TINY_WORKLOADS = ("mcf@0.02", "blackscholes@0.02", "gamess@0.02",
                  "streamcluster@0.02")


# ----------------------------------------------------------------------
# Pure-function properties: cheap, run at full example counts
# ----------------------------------------------------------------------
@st.composite
def budget_partitions(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    floors = [draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
              for _ in range(n)]
    budgets = [f + draw(st.floats(min_value=0.0, max_value=5.0,
                                  allow_nan=False))
               for f in floors]
    cap = draw(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
    return budgets, floors, max(cap, sum(floors))


class TestCapProjectionProperties:
    @given(parts=budget_partitions())
    @settings(max_examples=200, deadline=None)
    def test_projection_fits_cap_and_preserves_floors(self, parts):
        budgets, floors, cap = parts
        out = _project_to_cap(list(budgets), list(floors), cap)
        assert sum(out) <= cap + 1e-9
        for b_out, floor in zip(out, floors):
            assert b_out >= floor - 1e-9

    @given(parts=budget_partitions())
    @settings(max_examples=200, deadline=None)
    def test_projection_is_identity_when_feasible(self, parts):
        budgets, floors, cap = parts
        if sum(budgets) <= cap:
            assert _project_to_cap(list(budgets), list(floors), cap) == budgets

    @given(parts=budget_partitions())
    @settings(max_examples=200, deadline=None)
    def test_projection_preserves_ordering(self, parts):
        """Scaling excess by a common factor never reorders demands."""
        budgets, floors, cap = parts
        out = _project_to_cap(list(budgets), list(floors), cap)
        for i in range(len(out)):
            for j in range(len(out)):
                if floors[i] == floors[j] and budgets[i] <= budgets[j]:
                    assert out[i] <= out[j] + 1e-9


class TestDemandWeightProperties:
    @given(
        powers=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
                st.just(float("nan")),
            ),
            min_size=1, max_size=8,
        ),
        depths=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_weights_are_a_distribution_over_trusted_boards(self, powers,
                                                            depths):
        spec = RackSpec(
            boards=tuple(default_xu3_spec() for _ in powers),
            power_cap=6.0 * len(powers),
        )
        ctl = HeuristicRackController(spec, mode="greedy")
        readings = [BoardReading(power=p, headroom=0.0, queue_depth=depths,
                                 busy=True)
                    for p in powers]
        weights = ctl._demand_weights(readings)
        assert len(weights) == len(powers)
        assert all(w >= 0.0 for w in weights)
        for w, r in zip(weights, readings):
            if not r.trusted:
                assert w == 0.0
        if any(r.trusted for r in readings):
            assert sum(weights) == pytest.approx(1.0)
        else:
            assert sum(weights) == 0.0

    @given(
        powers=st.lists(st.floats(min_value=0.0, max_value=6.0,
                                  allow_nan=False),
                        min_size=2, max_size=8),
        cap=st.floats(min_value=2.0, max_value=30.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_controller_budgets_respect_cap_floors_ceilings(self, powers,
                                                            cap):
        n = len(powers)
        floor = 0.3
        spec = RackSpec(boards=tuple(default_xu3_spec() for _ in powers),
                        power_cap=max(cap, n * floor), budget_floor=floor)
        for ctl in (HeuristicRackController(spec, mode="greedy"),
                    HeuristicRackController(spec, mode="uniform")):
            readings = [BoardReading(power=p, headroom=0.0, queue_depth=1,
                                     busy=True)
                        for p in powers]
            budgets = ctl.step(readings, spec.power_cap)
            assert sum(budgets) <= spec.power_cap + 1e-9
            for b, ceil in zip(budgets, ctl.ceilings):
                assert floor - 1e-9 <= b <= ceil + 1e-9


class TestGovernorProperties:
    @given(
        budget=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        power=st.one_of(
            st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
            st.just(float("nan")),
        ),
        steps=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_commands_stay_on_the_dvfs_grids(self, budget, power, steps):
        spec = default_xu3_spec()
        governor = BudgetGovernor(spec)
        for _ in range(steps):
            fb, fl = governor.command(budget, power)
            assert spec.big.freq_range.contains(fb)
            assert spec.little.freq_range.contains(fl)
            assert 0.0 <= governor.level <= 1.0


class TestGainSelectionProperties:
    @given(n_boards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_selected_gain_is_mu_certified(self, n_boards):
        gain, history = select_integral_gain(n_boards)
        assert 0.0 < gain <= 1.0
        certified = dict(history)
        assert certified[gain] <= 1.0 + 1e-9
        # Every larger grid gain examined before the pick failed its
        # certificate — the selection is maximal, not arbitrary.
        for g, peak in history:
            if g > gain:
                assert peak > 1.0

    @given(n_boards=st.integers(min_value=1, max_value=6),
           guardband=st.sampled_from([0.2, 0.4, 0.8]))
    @settings(max_examples=8, deadline=None)
    def test_matches_point_by_point_sweep(self, n_boards, guardband):
        """Stacked bounds give the gain and history of a per-point sweep."""
        gain_grid = (1.0, 0.8, 0.65, 0.5, 0.4, 0.3, 0.2)
        structure = BlockStructure([UncertaintyBlock("repeated", 1, 1)
                                    for _ in range(n_boards)])
        weights = [1.0 / n_boards] * n_boards
        history = []
        for gain in gain_grid:
            peak = 0.0
            for omega in np.linspace(0.02, math.pi, 24):
                z = complex(math.cos(omega), math.sin(omega))
                M = guardband * _closed_loop_channel(n_boards, gain, weights, z)
                peak = max(peak, _ref_mu_upper_bound(M, structure)[0])
                if peak > 1.0:
                    break
            history.append((gain, peak))
            if peak <= 1.0:
                break
        expected = (history[-1][0] if history[-1][1] <= 1.0 else min(gain_grid),
                    history)
        assert select_integral_gain(n_boards, guardband=guardband) == expected


# ----------------------------------------------------------------------
# Randomized rack campaigns driven through the invariant monitor
# ----------------------------------------------------------------------
@st.composite
def rack_specs(draw):
    """Randomized (but valid) racks: N in [1, 8], mixed board variants."""
    sim_dt = 0.05
    n = draw(st.integers(min_value=1, max_value=8))
    boards = []
    for _ in range(n):
        boards.append(dataclasses.replace(
            default_xu3_spec(sim_dt=sim_dt),
            control_period=draw(st.sampled_from([0.5, 1.0, 2.0])),
            ambient_temp=draw(st.sampled_from([35.0, 38.0])),
        ))
    floor = 0.6
    envelope = (boards[0].power_limit_big + boards[0].power_limit_little
                + boards[0].board_static_power)
    cap = draw(st.floats(min_value=n * floor + 0.5,
                         max_value=0.8 * envelope * n,
                         allow_nan=False))
    n_jobs = draw(st.integers(min_value=1, max_value=4))
    jobs = tuple(
        JobSpec(
            name=f"j{i}",
            workload=draw(st.sampled_from(TINY_WORKLOADS)),
            arrival=draw(st.floats(min_value=0.0, max_value=8.0,
                                   allow_nan=False)),
            sla=draw(st.floats(min_value=20.0, max_value=60.0,
                               allow_nan=False)),
        )
        for i in range(n_jobs)
    )
    faults = ()
    if n > 1 and draw(st.booleans()):
        faults = (RackBoardFault(
            board=draw(st.integers(min_value=0, max_value=n - 1)),
            start=draw(st.sampled_from([4.0, 8.0])),
            duration=draw(st.sampled_from([6.0, 10.0])),
            kind=draw(st.sampled_from(RackBoardFault.KINDS)),
        ),)
    return RackSpec(boards=tuple(boards), power_cap=cap, rack_period=2.0,
                    budget_floor=floor, jobs=jobs, faults=faults)


class TestRackCampaignProperties:
    @given(spec=rack_specs(), controller=st.sampled_from(["ssv", "greedy"]),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_conservation_invariants_hold_on_random_racks(self, spec,
                                                          controller, seed):
        if controller == "ssv":
            ctl = SSVRackController(spec)
        else:
            ctl = HeuristicRackController(spec, mode="greedy")
        monitor = InvariantMonitor(telemetry=None)
        rack = Rack(spec, controller=ctl, record=True, seed=seed)
        activate_monitor(monitor)
        try:
            result = rack.run(max_time=24.0)
        finally:
            deactivate_monitor()
        assert monitor.ok, monitor.summary()
        assert monitor.periods_checked > 0

        # Cap conservation: budgets held by online boards never exceed the
        # effective cap, on any recorded period.
        trace = result.trace
        for k, total in enumerate(trace.budget_total):
            assert total <= trace.cap_eff[k] + 1e-6
            assert all(b >= -1e-9 for b in trace.budgets[k])

        # Job accounting: every admitted job is in exactly one state and
        # the result counters tile the admitted set.
        states = [job.state for job in result.jobs]
        assert all(s in ("queued", "running", "completed") for s in states)
        assert (result.jobs_completed + result.jobs_unfinished
                == result.jobs_admitted)
        assert result.jobs_admitted <= len(spec.jobs)

        # Energy conservation: rack energy is the sum of board energies.
        assert result.energy == pytest.approx(sum(result.board_energy))
        assert result.energy >= 0.0

    @given(spec=rack_specs(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_bank_and_scalar_paths_agree_on_random_racks(self, spec, seed):
        """use_bank is an implementation detail on any drawn rack."""
        banked = Rack(spec, use_bank=True, record=True, seed=seed)
        rb = banked.run(max_time=16.0)
        scalar = Rack(spec, use_bank=False, record=True, seed=seed)
        rs = scalar.run(max_time=16.0)
        assert rb.energy == rs.energy
        assert rb.jobs_completed == rs.jobs_completed
        assert rb.trace.budget_total == rs.trace.budget_total
        assert rb.trace.power_true == rs.trace.power_true

    def test_monitor_flags_budget_over_cap(self):
        """Non-vacuity: the rack checks really do fire on bad budgets."""
        monitor = InvariantMonitor(telemetry=None)
        violations = monitor.check_rack(
            time=4.0, budgets=(3.0, 3.0), floors=(0.6, 0.6), cap=5.0,
            online=(True, True), admitted=2, queued=0, running=2,
            completed=0)
        assert any(v.check == "rack.cap" for v in violations)
        assert not monitor.ok

    def test_monitor_flags_lost_job(self):
        monitor = InvariantMonitor(telemetry=None)
        violations = monitor.check_rack(
            time=4.0, budgets=(1.0,), floors=(0.6,), cap=5.0,
            online=(True,), admitted=3, queued=1, running=1, completed=0)
        assert any(v.check == "rack.job-accounting" for v in violations)

    def test_monitor_flags_offline_board_holding_budget(self):
        monitor = InvariantMonitor(telemetry=None)
        violations = monitor.check_rack(
            time=4.0, budgets=(1.0, 1.0), floors=(0.6, 0.6), cap=5.0,
            online=(True, False), admitted=1, queued=0, running=1,
            completed=0)
        assert any(v.check == "rack.offline-budget" for v in violations)
