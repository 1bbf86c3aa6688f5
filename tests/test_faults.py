"""Tests for the fault-injection subsystem (repro.faults)."""

import numpy as np
import pytest

from repro.board import BIG, LITTLE, Board, default_xu3_spec
from repro.faults import (
    CLUSTER_KINDS,
    DROPOUT_SENTINEL,
    FAULT_KINDS,
    FaultCampaign,
    FaultEvent,
    FaultInjector,
    SensorFault,
    default_fault_matrix,
    heatsink_detachment,
    inject_heatsink_fault,
    inject_sensor_fault,
    sensor_miscalibration,
)
from repro.workloads import Application, Phase


def _board(seed=1):
    app = Application("tiny", [Phase("p", 4, 60.0, mpki=0.5)])
    return Board(app, spec=default_xu3_spec(), seed=seed, record=False)


class TestFaultEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor-strike")

    def test_cluster_kinds_require_cluster(self):
        for kind in sorted(CLUSTER_KINDS):
            with pytest.raises(ValueError):
                FaultEvent(kind, magnitude=1.0)
            FaultEvent(kind, cluster=BIG, magnitude=1.0)  # fine with a cluster
        with pytest.raises(ValueError):
            FaultEvent("temp-bias", cluster=BIG, magnitude=1.0)  # board-wide

    def test_bias_kinds_require_magnitude(self):
        with pytest.raises(ValueError):
            FaultEvent("temp-bias")
        # Plant faults carry sensible defaults instead.
        assert FaultEvent("heatsink-detach").magnitude == pytest.approx(2.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("temp-bias", duration=-1.0)

    def test_permanent_vs_transient_window(self):
        permanent = FaultEvent("temp-bias", start=5.0, magnitude=-10.0)
        assert permanent.permanent
        assert permanent.active_at(5.0)
        assert permanent.active_at(1e9)
        assert not permanent.active_at(4.9)
        transient = FaultEvent("temp-bias", start=5.0, duration=2.0,
                               magnitude=-10.0)
        assert not transient.permanent
        assert transient.active_at(6.9)
        assert not transient.active_at(7.0)

    def test_campaign_sorts_and_reports_onset(self):
        campaign = FaultCampaign([
            FaultEvent("temp-bias", start=9.0, magnitude=-1.0),
            FaultEvent("heatsink-detach", start=3.0),
        ])
        assert campaign.first_onset() == 3.0
        assert [e.start for e in campaign] == [3.0, 9.0]

    def test_default_matrix_covers_every_kind_class(self):
        matrix = dict(default_fault_matrix())
        quick = dict(default_fault_matrix(quick=True))
        assert set(quick) <= set(matrix)
        kinds = {e.kind for campaign in matrix.values() for e in campaign}
        assert "heatsink-detach" in kinds
        assert "dvfs-ignored" in kinds
        assert any(k.startswith("temp-") for k in kinds)
        assert any(k.startswith("power-") for k in kinds)
        assert kinds <= FAULT_KINDS


class TestSensorFault:
    def test_bias(self):
        fault = SensorFault("bias", magnitude=-15.0)
        assert fault(80.0) == pytest.approx(65.0)

    def test_stuck_holds_first_latched_value(self):
        fault = SensorFault("stuck")
        assert fault(73.5) == 73.5
        assert fault(90.0) == 73.5  # still the latched value
        assert fault(10.0) == 73.5

    def test_dropout_returns_nan_sentinel(self):
        fault = SensorFault("dropout")
        assert np.isnan(fault(55.0))
        assert np.isnan(DROPOUT_SENTINEL)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SensorFault("jitter")

    def test_noise_is_reproducible_with_seeded_rngs(self):
        a = SensorFault("noise", magnitude=2.0, rng=np.random.default_rng(7))
        b = SensorFault("noise", magnitude=2.0, rng=np.random.default_rng(7))
        assert [a(50.0) for _ in range(5)] == [b(50.0) for _ in range(5)]


class TestFaultInjector:
    def test_temp_bias_applies_and_reverts(self):
        board = _board()
        for _ in range(10):
            board.step()
        healthy = board.read_temperature()
        event = FaultEvent("temp-bias", start=board.time, duration=0.5,
                           magnitude=-15.0)
        injector = FaultInjector(board, event)
        injector.advance()
        assert board.read_temperature() == pytest.approx(healthy - 15.0)
        for _ in range(11):
            board.step()
        injector.advance()
        assert board.temp_sensor.fault_hook is None  # reverted
        assert abs(board.read_temperature() - healthy) < 10.0

    def test_power_dropout_reads_sentinel(self):
        board = _board()
        event = FaultEvent("power-dropout", start=0.0, cluster=BIG)
        FaultInjector(board, event).advance()
        for _ in range(10):
            board.step()
        assert np.isnan(board.read_power(BIG))
        assert np.isfinite(board.read_power(LITTLE))

    def test_transient_heatsink_restores_plant(self):
        board = _board()
        spec0 = board.spec
        r0 = board.thermal.resistance
        ceff0 = board.spec.big.ceff_dynamic
        campaign = heatsink_detachment(start=0.0, duration=1.0)
        injector = FaultInjector(board, campaign)
        injector.advance()
        assert board.thermal.resistance == pytest.approx(2.0 * r0)
        assert board.spec.big.ceff_dynamic == pytest.approx(1.6 * ceff0)
        # The aging lands on a board-local spec, never the shared one.
        assert board.spec is not spec0 and spec0.big.ceff_dynamic == ceff0
        for _ in range(25):
            board.step()
        injector.advance()
        assert board.thermal.resistance == pytest.approx(r0)
        assert board.spec.big.ceff_dynamic == pytest.approx(ceff0)
        assert board.spec is spec0

    def test_dvfs_ignored_blocks_frequency_writes(self):
        board = _board()
        f0 = board.clusters[BIG].frequency
        injector = FaultInjector(
            board, FaultEvent("dvfs-ignored", start=0.0, duration=1.0,
                              cluster=BIG)
        ).advance()
        board.set_cluster_frequency(BIG, 1.0)
        assert board.clusters[BIG].frequency == pytest.approx(f0)
        board.set_cluster_frequency(LITTLE, 0.9)  # other cluster unaffected
        assert board.clusters[LITTLE].frequency == pytest.approx(0.9)
        for _ in range(25):
            board.step()
        injector.advance()
        board.set_cluster_frequency(BIG, 1.0)
        assert board.clusters[BIG].frequency == pytest.approx(1.0)

    def test_hotplug_and_placement_stuck(self):
        board = _board()
        injector = FaultInjector(board, FaultCampaign([
            FaultEvent("hotplug-stuck", start=0.0, cluster=BIG),
            FaultEvent("placement-stuck", start=0.0),
        ])).advance()
        n0 = board.clusters[BIG].cores_on
        board.set_active_cores(BIG, max(1, n0 - 1))
        assert board.clusters[BIG].cores_on == n0
        assignment0 = repr(board.placement.assignment)
        board.set_placement_knobs(1, 1.0, 1.0)
        assert repr(board.placement.assignment) == assignment0
        injector.detach()
        assert board.fault_hooks is None

    def test_identically_seeded_boards_match_under_noise_fault(self):
        readings = []
        for _ in range(2):
            board = _board(seed=42)
            FaultInjector(
                board, FaultEvent("temp-noise", start=0.0, magnitude=3.0),
                seed=5,
            ).advance()
            trace = []
            for _ in range(30):
                board.step()
                trace.append(board.read_temperature())
            readings.append(trace)
        assert readings[0] == readings[1]


class TestLegacyHelpers:
    def test_reexported_from_exhaustion(self):
        from repro.experiments import exhaustion

        assert exhaustion.inject_heatsink_fault is inject_heatsink_fault
        assert exhaustion.inject_sensor_fault is inject_sensor_fault

    def test_heatsink_helper_matches_old_mutations(self):
        board = _board()
        r0 = board.thermal.resistance
        ceff0 = board.spec.big.ceff_dynamic
        inject_heatsink_fault(board)
        assert board.thermal.resistance == pytest.approx(2.0 * r0)
        assert board.spec.big.ceff_dynamic == pytest.approx(1.6 * ceff0)

    def test_sensor_helper_biases_reads_only(self):
        board = _board()
        for _ in range(10):
            board.step()
        true_temp = board.thermal.temperature
        inject_sensor_fault(board, bias=-15.0)
        # The read is biased; the true thermal state (what the emergency
        # firmware sees) is not.
        assert board.read_temperature() < true_temp - 5.0
        assert board.thermal.temperature == pytest.approx(true_temp)

    def test_sensor_miscalibration_campaign_names_kind(self):
        campaign = sensor_miscalibration(start=1.0)
        assert [e.kind for e in campaign] == ["temp-bias"]
