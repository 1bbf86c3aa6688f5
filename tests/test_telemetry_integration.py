"""Integration tests: telemetry wired through the board / loop / supervisor.

These use a spec-only :class:`DesignContext` with the heuristic scheme so no
controller synthesis is needed — each run is a few hundred milliseconds.
"""

import json

import numpy as np
import pytest

from repro.board import BIG, Board, default_xu3_spec
from repro.experiments.runner import run_workload
from repro.experiments.schemes import DesignContext
from repro.faults import FaultCampaign, FaultEvent
from repro.telemetry import TelemetrySession, activate, deactivate
from repro.workloads import make_application

SPAN_NAMES = {"sample", "optimize", "hw.step", "sw.step",
              "actuate.hw", "actuate.sw", "sim"}


@pytest.fixture(autouse=True)
def _no_global_session():
    deactivate()
    yield
    deactivate()


@pytest.fixture(scope="module")
def context():
    return DesignContext(spec=default_xu3_spec(), characterization=None)


# ----------------------------------------------------------------------
# The instrumented control loop
# ----------------------------------------------------------------------
class TestInstrumentedRun:
    def test_disabled_by_default(self, context):
        board = Board(make_application("gamess"), spec=default_xu3_spec(),
                      record=False)
        assert board.telemetry is None
        assert board.emergency.on_trip is None
        metrics = run_workload("coordinated-heuristic", "gamess", context,
                               max_time=5.0, record=False)
        assert metrics.execution_time > 0

    def test_run_workload_records_artifacts(self, context, tmp_path):
        out = tmp_path / "tel"
        session = TelemetrySession(out)
        run_workload("coordinated-heuristic", "gamess", context,
                     max_time=10.0, record=False, telemetry=session)
        periods = session.registry.value("control_periods_total")
        # 10 s / 0.5 s control period (+1 tolerance: sim-time accumulation)
        assert periods in (20, 21)
        assert session.period == periods
        exd = session.registry.get("exd_proxy").value
        assert np.isfinite(exd) and exd > 0
        assert session.registry.value("control_step_seconds") == periods
        assert session.registry.value("sim_period_seconds") == periods
        names = {r["name"] for r in session.tracer.spans}
        assert SPAN_NAMES <= names
        session.close()
        spans = [json.loads(line)
                 for line in (out / "spans.jsonl").read_text().splitlines()]
        assert len(spans) == session.tracer.span_count
        events = json.loads((out / "trace.json").read_text())
        assert len(events) == len(spans)
        assert "control_periods_total 20" in (out / "metrics.prom").read_text()

    def test_flight_ring_holds_recent_periods(self, context):
        session = TelemetrySession(flight_capacity=8)
        run_workload("coordinated-heuristic", "gamess", context,
                     max_time=10.0, record=False, telemetry=session)
        assert len(session.flight) == 8
        last = session.flight.last
        assert last["period"] == session.period
        assert set(last) >= {"period", "time", "signals", "actuation_hw",
                             "actuation_sw", "exd_proxy", "counters"}
        assert last["counters"]["rejected"]["frequency"] == 0
        session.close()

    def test_process_wide_session_reaches_run(self, context):
        session = activate(TelemetrySession())
        run_workload("coordinated-heuristic", "gamess", context,
                     max_time=5.0, record=False)
        assert session.registry.value("control_periods_total") >= 10
        session.close()


    def test_banked_run_spans_one_step_per_design_group(self, design_context):
        """Same-design SSV lanes share one hw.step/sw.step span per bank
        period; a heuristic lane is a group of one; the other phases and
        the per-lane period records stay per board."""
        from repro.experiments.bank_runner import run_cells_banked

        session = TelemetrySession()
        cells = [("yukta-hwssv-osssv", w, 3)
                 for w in ("gamess", "mcf", "x264")]
        cells.append(("coordinated-heuristic", "gamess", 3))
        run_cells_banked(cells, design_context, max_time=3.0,
                         telemetry=session)
        spans = list(session.tracer.spans)
        periods = session.period
        for layer in ("hw.step", "sw.step"):
            lanes = sorted(r["lanes"] for r in spans if r["name"] == layer)
            assert lanes == [1] * periods + [3] * periods, layer
        assert sum(r["name"] == "sample" for r in spans) == 4 * periods
        assert session.registry.value("control_periods_total") == 4 * periods

    def test_bank_plans_mirror_to_metrics(self):
        """``BoardBank.counters()["plans"]`` mirrors to
        ``bank_plans_total``, ``counters()["firmware"]`` to
        ``bank_firmware_ticks_total``, and each planning pass is one
        ``board.plan`` span."""
        from repro.board import BoardBank

        session = TelemetrySession()
        boards = [Board(make_application(w), spec=default_xu3_spec(),
                        seed=k, record=False, telemetry=session)
                  for k, w in enumerate(("gamess", "mcf"))]
        bank = BoardBank(boards, telemetry=session)
        for p in range(6):
            for board in boards:
                board.set_cluster_frequency(BIG, 1.0 + 0.1 * (p % 3))
                board.set_placement_knobs(2.0 + p % 2, 1.0, 1.0)
            bank.run_period_bank(10)
        plans = bank.counters()["plans"]
        assert plans["revisit"] > 0 and plans["stall"] > 0
        for tier, count in plans.items():
            assert session.registry.value("bank_plans_total",
                                          tier=tier) == count, tier
        firmware = bank.counters()["firmware"]
        assert firmware["proven"] + firmware["stepped"] == 60
        for mode, count in firmware.items():
            assert session.registry.value("bank_firmware_ticks_total",
                                          mode=mode) == count, mode
        spans = [r for r in session.tracer.spans if r["name"] == "board.plan"]
        assert len(spans) == 6
        session.close()

    def test_board_plans_mirror_to_metrics(self):
        """``Board.counters()["plans"]`` mirrors to ``board_plans_total``."""
        session = TelemetrySession()
        board = Board(make_application("gamess"), spec=default_xu3_spec(),
                      seed=1, record=False, telemetry=session)
        for p in range(6):
            board.set_cluster_frequency(BIG, 1.0 + 0.1 * (p // 2))
            board.run_period(10)
        plans = board.counters()["plans"]
        assert plans["reused"] > 0 and plans["built"] > 0
        for kind, count in plans.items():
            assert session.registry.value("board_plans_total",
                                          kind=kind) == count, kind
        session.close()


# ----------------------------------------------------------------------
# Board actuation-health counters (public accessor + metrics surface)
# ----------------------------------------------------------------------
class TestBoardCounters:
    def test_counters_accessor(self):
        board = Board(make_application("gamess"), spec=default_xu3_spec(),
                      record=False)
        counters = board.counters()
        assert counters["rejected"] == {"frequency": 0, "cores": 0,
                                        "placement": 0}
        assert counters["nonfinite"] == {"frequency": 0, "cores": 0,
                                         "placement": 0}
        board.set_cluster_frequency(BIG, 99.0)  # clamped
        board.set_cluster_frequency(BIG, float("nan"))  # dropped
        board.set_active_cores(BIG, -3)  # clamped
        counters = board.counters()
        assert counters["rejected"]["frequency"] == 2
        assert counters["nonfinite"]["frequency"] == 1
        assert counters["rejected"]["cores"] == 1
        assert counters["nonfinite"]["cores"] == 0
        # the snapshot is a copy, not a live view
        counters["rejected"]["frequency"] = 99
        assert board.counters()["rejected"]["frequency"] == 2
        board.reset_counters()
        assert board.counters()["rejected"] == {"frequency": 0, "cores": 0,
                                                "placement": 0}

    def test_counters_surface_in_metrics(self):
        session = TelemetrySession()
        board = Board(make_application("gamess"), spec=default_xu3_spec(),
                      record=False, telemetry=session)
        board.set_cluster_frequency(BIG, float("inf"))
        board.set_placement_knobs(float("nan"), 2.0, 2.0)
        reg = session.registry
        assert reg.value("actuations_rejected_total", kind="frequency") == 1
        assert reg.value("actuations_nonfinite_total", kind="frequency") == 1
        assert reg.value("actuations_rejected_total", kind="placement") == 1
        session.close()

    def test_nan_command_leaves_setting_untouched(self):
        board = Board(make_application("gamess"), spec=default_xu3_spec(),
                      record=False)
        before = board.clusters[BIG].frequency
        board.set_cluster_frequency(BIG, float("nan"))
        assert board.clusters[BIG].frequency == before


# ----------------------------------------------------------------------
# Supervisor + fault injection -> flight dumps
# ----------------------------------------------------------------------
class TestSupervisedTelemetry:
    def test_trip_dumps_flight_and_counts(self, context, tmp_path):
        from repro.experiments.resilience import supervised_run

        out = tmp_path / "tel"
        session = TelemetrySession(out)
        campaign = FaultCampaign(
            [FaultEvent("temp-dropout", start=5.0, duration=10.0)])
        supervised_run(context, "coordinated-heuristic", campaign=campaign,
                       max_time=30.0, telemetry=session)
        reg = session.registry
        assert reg.value("supervisor_trips_total", cause="sensor-dropout") >= 1
        assert reg.value("fault_events_total", kind="temp-dropout",
                         phase="applied") == 1
        assert reg.value("fault_events_total", kind="temp-dropout",
                         phase="reverted") == 1
        assert reg.value(
            "flight_dumps_total", reason="fault-applied-temp-dropout") == 1
        session.close()
        dumps = sorted(out.glob("flight-*.json"))
        assert dumps, "supervisor trip must dump the flight recorder"
        trip = [p for p in dumps if "NOMINAL-DEGRADED" in p.name]
        assert trip, [p.name for p in dumps]
        payload = json.loads(trip[0].read_text())
        assert payload["reason"].startswith("NOMINAL->DEGRADED")
        assert payload["snapshots"], "dump must preserve the lead-up periods"
        assert payload["snapshots"][-1]["supervisor_state"] == "NOMINAL"
        # spans were persisted at the dump even though the run kept going
        prom = (out / "metrics.prom").read_text()
        assert "supervisor_state" in prom
        assert reg.value("control_periods_total") > 0

    def test_supervised_run_without_telemetry_unchanged(self, context):
        from repro.experiments.resilience import supervised_run

        result = supervised_run(context, "coordinated-heuristic",
                                max_time=10.0)
        assert result.exd > 0
        assert result.supervisor._primary.telemetry is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCLI:
    def test_trace_subcommand(self, context, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "tel"
        session = TelemetrySession(out)
        run_workload("coordinated-heuristic", "gamess", context,
                     max_time=5.0, record=False, telemetry=session)
        session.instant("fault.injected", cat="fault", kind="unit")
        session.dump_flight("unit-test")
        session.close()
        assert main(["trace", str(out)]) == 0
        text = capsys.readouterr().out
        assert "periods" in text
        assert "sample" in text  # the span table
        assert "unit-test" in text  # the flight-dump listing
        dump = next(out.glob("flight-*.json")).name
        assert "- #00 unit-test: " in text and f"[{dump}]" in text
        assert "fault.injected kind=unit" in text
        assert "| control_periods_total |" in text  # the full metrics
        assert "perfetto.dev" in text
        # ``trace`` is an alias of ``report``: one handler, same bytes.
        assert main(["report", str(out)]) == 0
        assert capsys.readouterr().out == text

    def test_run_parser_accepts_telemetry_flag(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--telemetry" in capsys.readouterr().out

    @pytest.mark.slow
    def test_cli_run_with_telemetry(self, design_context, tmp_path, capsys,
                                    monkeypatch):
        """End to end: run --telemetry DIR, then read it back with trace."""
        import repro.__main__ as cli

        monkeypatch.setattr(cli, "_make_context", lambda args: design_context)
        out = tmp_path / "tel"
        code = cli.main(["run", "coordinated-heuristic", "h264ref",
                         "--telemetry", str(out)])
        assert code == 0
        assert "ExD" in capsys.readouterr().out
        for name in ("metrics.prom", "metrics.json", "spans.jsonl",
                     "trace.json"):
            assert (out / name).exists(), name
        assert "control_periods_total" in (out / "metrics.prom").read_text()
        json.loads((out / "trace.json").read_text())
        assert cli.main(["trace", str(out)]) == 0
        assert "perfetto.dev" in capsys.readouterr().out
