"""Integration tests for the full board simulator."""

import numpy as np
import pytest

from repro.board import BIG, LITTLE, Board, default_xu3_spec, plan_placement, spare_capacity
from repro.workloads import Application, Phase, Thread, make_application


@pytest.fixture
def small_app():
    return Application("tiny", [Phase("p", 4, 8.0, mpki=0.5)])


@pytest.fixture
def board(small_app):
    return Board(small_app, seed=1)


class TestPlacement:
    def test_plan_respects_thread_split(self):
        threads = [Thread(i, "a") for i in range(8)]
        assignment = plan_placement(threads, 5, 2, 1, 4, 4)
        n_big = sum(len(c) for c in assignment[BIG])
        assert n_big == 5
        assert sum(len(c) for c in assignment[LITTLE]) == 3

    def test_plan_packs_by_tpc(self):
        threads = [Thread(i, "a") for i in range(4)]
        assignment = plan_placement(threads, 4, 2, 1, 4, 4)
        busy = [c for c in assignment[BIG] if c]
        assert len(busy) == 2  # 4 threads at 2 per core

    def test_plan_caps_by_powered_cores(self):
        threads = [Thread(i, "a") for i in range(6)]
        assignment = plan_placement(threads, 6, 1, 1, 2, 4)
        busy = [c for c in assignment[BIG] if c]
        assert len(busy) == 2  # only two cores powered

    def test_spare_capacity_formula(self):
        # 2 busy of 4 on, 3 threads: SC = 2 - (3 - 4) = 3.
        assert spare_capacity(3, 2, 4) == 3
        # Overloaded: 8 threads, 4 on, all busy: SC = 0 - 4 = -4.
        assert spare_capacity(8, 4, 4) == -4


class TestBoardActuation:
    def test_frequency_snapping(self, board):
        board.set_cluster_frequency(BIG, 1.44)
        assert board.clusters[BIG].frequency == pytest.approx(1.4)
        board.set_cluster_frequency(BIG, 99.0)
        assert board.clusters[BIG].frequency == pytest.approx(2.0)

    def test_hotplug_clamps_and_stalls(self, board):
        board.set_active_cores(BIG, 9)
        assert board.clusters[BIG].cores_on == 4
        board.set_active_cores(BIG, 2)
        assert board.clusters[BIG].cores_on == 2
        assert board.clusters[BIG].pending_hotplug_stall > 0

    def test_hotplug_repacks_threads(self, board):
        board.set_placement_knobs(4, 1, 1)
        board.set_active_cores(BIG, 1)
        threads_on_live = board.placement.assignment[BIG][0]
        assert len(threads_on_live) == 4

    def test_placement_knobs(self, board):
        board.set_placement_knobs(3, 1.0, 1.0)
        obs = board.observe_placement()
        assert obs[BIG]["n_threads"] == 3
        assert obs[LITTLE]["n_threads"] == 1


class TestBoardExecution:
    def test_app_completes_and_energy_accumulates(self, board):
        board.run(max_time=300.0)
        assert board.done
        assert board.energy > 0
        assert board.time < 300.0

    def test_energy_equals_power_integral(self, small_app):
        board = Board(small_app, seed=1)
        for _ in range(100):
            board.step()
        trace = board.trace.as_arrays()
        total = (trace["power_big"] + trace["power_little"]
                 + board.spec.board_static_power)
        assert board.energy == pytest.approx(
            float(np.sum(total)) * board.spec.sim_dt, rel=1e-6
        )

    def test_more_frequency_is_faster(self):
        """Below the emergency envelope, higher frequency finishes sooner."""
        def run_at(freq):
            app = Application("t", [Phase("p", 2, 4.0, mpki=0.5)])
            board = Board(app, seed=1, record=False)
            board.set_cluster_frequency(BIG, freq)
            board.set_cluster_frequency(LITTLE, 0.2)
            board.set_placement_knobs(2, 1, 1)
            board.run(max_time=600.0)
            assert board.emergency.state.trip_count == 0
            return board.time

        assert run_at(1.6) < run_at(0.8)

    def test_deterministic_given_seed(self, small_app):
        def run():
            app = Application("t", [Phase("p", 4, 8.0, mpki=0.5)])
            board = Board(app, seed=42)
            board.run(max_time=300.0)
            return board.time, board.energy

        assert run() == run()

    def test_phase_transition_changes_thread_count(self):
        app = Application("t", [
            Phase("serial", 1, 1.0, mpki=0.5),
            Phase("parallel", 6, 3.0, mpki=0.5),
        ])
        board = Board(app, seed=1, record=False)
        counts = set()
        while not board.done and board.time < 300:
            board.step()
            counts.add(board.runnable_thread_count())
        assert 1 in counts
        assert 6 in counts

    def test_emergency_engages_flat_out(self):
        """Running everything at max must trip the stock firmware."""
        app = Application("hot", [Phase("p", 8, 60.0, mpki=0.3)])
        board = Board(app, seed=1, record=False)
        board.set_placement_knobs(8, 2, 1)
        board.run(duration=30.0)
        assert board.emergency.state.trip_count > 0

    def test_mix_runs_concurrently(self):
        apps = [
            Application("a", [Phase("p", 2, 3.0)]),
            Application("b", [Phase("p", 2, 3.0)]),
        ]
        board = Board(apps, seed=1, record=False)
        board.run(max_time=300.0)
        assert board.done
        assert all(a.done for a in apps)


class TestWorkloadLibrary:
    def test_all_programs_instantiable(self):
        from repro.workloads import program_names
        for name in program_names("evaluation") + program_names("training"):
            app = make_application(name)
            assert not app.done
            assert app.total_remaining() > 0

    def test_unknown_program_raises(self):
        with pytest.raises(KeyError):
            make_application("doom")

    def test_blackscholes_has_serial_ramp(self):
        app = make_application("blackscholes")
        assert app.phases[0].n_threads == 1
        assert app.phases[1].n_threads == 8

    def test_mcf_is_memory_bound(self):
        app = make_application("mcf")
        assert app.current_phase.mpki > 10

    def test_mixes(self):
        from repro.workloads import make_mix, mix_names
        assert set(mix_names()) == {"blmc", "stga", "blst", "mcga"}
        members = make_mix("blmc")
        assert len(members) == 2
        for app in members:
            assert app.current_phase.n_threads <= 4

    def test_shared_pool_vs_barrier(self):
        pool = Application("p", [Phase("x", 2, 1.0, barrier=False)])
        barrier = Application("b", [Phase("x", 2, 1.0, barrier=True)])
        t_pool = pool.runnable_threads()[0]
        pool.execute(t_pool, 0.9, now=1.0)
        assert pool.pool_remaining == pytest.approx(0.1)
        t_bar = barrier.runnable_threads()[0]
        barrier.execute(t_bar, 0.5, now=1.0)  # own share exhausted
        assert t_bar.remaining == pytest.approx(0.0)
        assert not barrier.done
        assert len(barrier.runnable_threads()) == 1  # the other thread


class TestActuationValidation:
    """Out-of-range / non-finite commands clamp or drop, and are counted."""

    def test_out_of_range_frequency_clamps_and_counts(self, board):
        board.set_cluster_frequency(BIG, 99.0)
        assert board.clusters[BIG].frequency == pytest.approx(2.0)
        assert board.rejected_actuations["frequency"] == 1
        board.set_cluster_frequency(BIG, -1.0)
        assert board.clusters[BIG].frequency == pytest.approx(0.2)
        assert board.rejected_actuations["frequency"] == 2

    def test_non_finite_frequency_keeps_previous_setting(self, board):
        board.set_cluster_frequency(BIG, 1.2)
        for bad in (float("nan"), float("inf"), "fast"):
            board.set_cluster_frequency(BIG, bad)
            assert board.clusters[BIG].frequency == pytest.approx(1.2)
        assert board.rejected_actuations["frequency"] == 3

    def test_out_of_range_cores_clamp_and_count(self, board):
        board.set_active_cores(BIG, 9)
        assert board.clusters[BIG].cores_on == 4
        board.set_active_cores(BIG, 0)
        assert board.clusters[BIG].cores_on == 1
        assert board.rejected_actuations["cores"] == 2

    def test_non_finite_cores_keep_previous_setting(self, board):
        board.set_active_cores(BIG, 3)
        board.set_active_cores(BIG, float("nan"))
        assert board.clusters[BIG].cores_on == 3
        assert board.rejected_actuations["cores"] == 1

    def test_placement_knob_validation(self, board):
        before = board.observe_placement()[BIG]["n_threads"]
        # Non-finite: the whole call is dropped.
        board.set_placement_knobs(float("nan"), 1.0, 1.0)
        assert board.observe_placement()[BIG]["n_threads"] == before
        assert board.rejected_actuations["placement"] == 1
        # Out-of-range knobs clamp but the (clamped) call still applies.
        board.set_placement_knobs(999, 1.0, 1.0)
        assert board.observe_placement()[BIG]["n_threads"] == 4
        assert board.rejected_actuations["placement"] == 2

    def test_legal_commands_are_not_counted(self, board):
        board.set_cluster_frequency(BIG, 1.0)
        board.set_active_cores(BIG, 2)
        board.set_placement_knobs(2, 1.0, 1.0)
        assert board.rejected_actuations == {
            "frequency": 0, "cores": 0, "placement": 0,
        }


class TestPlacementEpochCaches:
    """``observe_placement`` and ``set_placement_knobs`` skip derivations
    that repeat unchanged, keyed on the placement epoch, the powered-core
    counts and (for the knobs) the very runnable threads; every move of
    the placement must miss both."""

    @pytest.fixture
    def spied(self, monkeypatch):
        """A board on a pool phase, then a value-equal twin phase, with
        counters on the placement deal and the observation's arithmetic."""
        import repro.board.board as board_module

        calls = {"deal": 0, "observe": 0}
        deal, capacity = board_module.plan_placement, board_module.spare_capacity

        def counted_deal(*args, **kwargs):
            calls["deal"] += 1
            return deal(*args, **kwargs)

        def counted_capacity(*args):
            calls["observe"] += 1
            return capacity(*args)

        monkeypatch.setattr(board_module, "plan_placement", counted_deal)
        monkeypatch.setattr(board_module, "spare_capacity", counted_capacity)
        first = Phase("a", n_threads=4, instructions=12.0, cpi_scale=1.1,
                      mpki=2.0, activity=0.8)
        second = Phase("b", n_threads=4, instructions=12.0, cpi_scale=0.6,
                       mpki=9.0, activity=1.0)
        board = Board([Application("twin", [first, second])], seed=2)
        return board, calls

    @staticmethod
    def _fresh_observation(board):
        cached = board._observed
        board._observed = (None, None)
        try:
            return board.observe_placement()
        finally:
            board._observed = cached

    def test_repeat_knobs_and_observation_hit(self, spied):
        board, calls = spied
        deals = calls["deal"]
        board.set_placement_knobs(4, 1.0, 1.0)
        assert calls["deal"] == deals + 1
        epoch = board._placement_epoch
        board.set_placement_knobs(4, 1.0, 1.0)
        assert calls["deal"] == deals + 1
        assert board._placement_epoch == epoch
        seen = board.observe_placement()
        observed = calls["observe"]
        assert board.observe_placement() is seen
        assert calls["observe"] == observed

    def test_value_equal_threads_still_reach_the_value_comparison(
            self, spied):
        board, calls = spied
        board.set_placement_knobs(2, 1.0, 1.0)
        app = board.applications[0]
        old = list(app.threads)
        while app.phase_index == 0:
            board.step()
        # The pool phase's threads were re-created equal by value; the
        # membership refresh kept the placed (old) objects.
        assert app.threads == old
        assert not any(a is b for a, b in zip(app.threads, old))
        placed = board.placement.all_threads()
        assert all(any(t is o for o in old) for t in placed)
        epoch, deals = board._placement_epoch, calls["deal"]
        for repeat in range(1, 3):
            board.set_placement_knobs(2, 1.0, 1.0)
            # Other objects: no identity hit, so the deal is made and
            # compared by value, which finds it equal -- a no-op that
            # keeps the old objects placed.
            assert calls["deal"] == deals + repeat
            assert board._placement_epoch == epoch
            assert all(a is b for a, b in zip(board.placement.all_threads(),
                                              placed))

    @pytest.mark.parametrize("move", ["hotplug", "membership", "raw",
                                      "fault"])
    def test_every_placement_move_misses_both(self, spied, move):
        board, calls = spied
        board.set_placement_knobs(4, 1.0, 1.0)
        board.set_placement_knobs(4, 1.0, 1.0)
        seen = board.observe_placement()
        knobs = (4, 1.0, 1.0)
        if move == "hotplug":
            board.set_active_cores(BIG, 1)  # repacks four threads onto one
        elif move == "membership":
            board.applications.append(make_application("mcf"))
            board._refresh_placement_membership()
        elif move == "raw":
            threads = board.placement.all_threads()
            board.set_raw_placement({BIG: [threads, [], [], []],
                                     LITTLE: [[], [], [], []]})
        else:
            from repro.faults import FaultEvent, FaultInjector

            injector = FaultInjector(
                board, FaultEvent("placement-stuck", start=0.0)).advance()
            before = repr(board.placement.assignment)
            knobs = (1, 1.0, 1.0)
            board.set_placement_knobs(*knobs)  # blocked: nothing moves
            assert repr(board.placement.assignment) == before
            assert board.observe_placement() == self._fresh_observation(board)
            injector.detach()
        deals, epoch = calls["deal"], board._placement_epoch
        board.set_placement_knobs(*knobs)
        assert calls["deal"] == deals + 1
        observed = calls["observe"]
        now = board.observe_placement()
        assert calls["observe"] > observed and now is not seen
        assert now == self._fresh_observation(board)
        if move == "fault":
            assert board._placement_epoch > epoch  # the unblocked deal moved
