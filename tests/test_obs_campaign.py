"""Campaign event stream, health analysis, and the status/report commands.

The acceptance scenario lives in ``TestCampaignLifecycle``: a
checkpointed campaign is chaos-killed mid-cell, resumed, and ``repro
status`` / ``repro report`` must tell that story correctly from the
append-only ``events.jsonl``.
"""

import json
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.experiments.engine import parallel_map
from repro.obs import (
    CampaignEvents,
    analyze_events,
    build_report,
    events_path,
    load_health,
    read_events,
    render_status,
    to_html,
)
from repro.runtime import ChaosPolicy, RetryPolicy

CONTEXT = SimpleNamespace(char_fingerprint="obs-test", overrides={})

# Fast backoff so retry-path tests stay sub-second.
FAST = dict(backoff_base=0.01, backoff_max=0.05, jitter=0.0)


def _double(context, x):
    return x * 2


def _tasks(n=4):
    return [("call", (_double, (i,), {})) for i in range(n)]


# ---------------------------------------------------------------------------
# Event stream primitives
# ---------------------------------------------------------------------------
class TestEventStream:
    def test_emit_read_round_trip(self, tmp_path):
        with CampaignEvents(events_path(tmp_path)) as events:
            events.emit("campaign.begin", cells=3)
            events.emit("cell.completed", index=0, label="a")
        records, skipped = read_events(tmp_path)
        assert skipped == 0
        assert [r["event"] for r in records] == ["campaign.begin",
                                                 "cell.completed"]
        assert records[0]["cells"] == 3
        assert records[1]["t"] > 0  # wall-clock stamped

    # A torn tail in every JSONL artifact, this stream included:
    # test_trace_schema.py::test_jsonl_artifact_tolerates_torn_lines.
    def test_non_event_json_lines_skipped(self, tmp_path):
        path = events_path(tmp_path)
        path.write_text('{"event": "campaign.begin"}\n[1, 2]\n{"x": 1}\n')
        records, skipped = read_events(path)
        assert len(records) == 1
        assert skipped == 2

    def test_missing_stream_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no campaign event"):
            read_events(tmp_path)

    def test_emit_failure_never_raises(self, tmp_path):
        events = CampaignEvents(events_path(tmp_path))
        events.emit("campaign.begin", bad=object())  # unserializable
        assert events.failed
        events.emit("cell.completed", index=0)  # silently dropped
        assert events.emitted == 0


# ---------------------------------------------------------------------------
# Health folding
# ---------------------------------------------------------------------------
class TestHealthAnalysis:
    def test_in_flight_progress_and_eta(self):
        records = [
            {"event": "campaign.begin", "t": 100.0, "cells": 10,
             "resumed": 2},
            {"event": "cell.completed", "t": 104.0, "index": 2},
            {"event": "cell.completed", "t": 108.0, "index": 3},
        ]
        health = analyze_events(records)
        assert health.total == 10
        assert health.completed == 2 and health.resumed == 2
        assert health.done == 4 and health.remaining == 6
        assert health.in_flight
        assert health.rate == pytest.approx(0.25)
        assert health.eta == pytest.approx(24.0)

    def test_retries_and_timeouts_span_all_runs(self):
        records = [
            {"event": "campaign.begin", "t": 0.0, "cells": 2, "resumed": 0},
            {"event": "cell.retried", "t": 1.0, "reason": "worker-died",
             "attempt": 0},
            {"event": "cell.timeout", "t": 2.0, "index": 1},
            {"event": "campaign.begin", "t": 10.0, "cells": 2, "resumed": 1},
            {"event": "cell.retried", "t": 11.0, "reason": "exception",
             "attempt": 0},
            {"event": "cell.completed", "t": 12.0, "index": 1},
            {"event": "campaign.end", "t": 13.0, "cells": 2},
        ]
        health = analyze_events(records)
        assert health.runs == 2
        assert health.retries == 2  # both runs count
        assert health.retry_reasons == {"worker-died": 1, "exception": 1}
        assert health.timeouts == 1
        assert health.finished
        # Progress reflects only the current (second) run.
        assert health.completed == 1 and health.resumed == 1

    def test_failures_carry_context(self):
        records = [
            {"event": "campaign.begin", "t": 0.0, "cells": 1, "resumed": 0},
            {"event": "cell.failed", "t": 1.0, "index": 0, "label": "c",
             "reason": "timeout", "attempts": 3},
        ]
        health = analyze_events(records)
        assert health.failed == 1
        assert health.failures[0]["label"] == "c"
        assert health.failures[0]["reason"] == "timeout"
        assert health.to_dict()["done"] == 1


# ---------------------------------------------------------------------------
# Engine emission + lifecycle (the acceptance scenario)
# ---------------------------------------------------------------------------
class TestCampaignLifecycle:
    def test_checkpointed_run_emits_full_stream(self, tmp_path):
        results = parallel_map(_tasks(), CONTEXT, checkpoint=tmp_path,
                               resume=True)
        assert results == [0, 2, 4, 6]
        records, skipped = read_events(tmp_path)
        assert skipped == 0
        kinds = [r["event"] for r in records]
        assert kinds[0] == "campaign.begin"
        assert kinds[-1] == "campaign.end"
        assert kinds.count("cell.completed") == 4
        assert kinds.count("cell.checkpointed") == 4
        assert records[-1]["failed"] == 0

    def test_resume_appends_second_run(self, tmp_path):
        parallel_map(_tasks(), CONTEXT, checkpoint=tmp_path, resume=True)
        parallel_map(_tasks(), CONTEXT, checkpoint=tmp_path, resume=True)
        health = load_health(tmp_path)
        assert health.runs == 2
        assert health.resumed == 4 and health.completed == 0
        assert health.finished

    def test_no_journal_no_telemetry_no_stream(self, tmp_path):
        parallel_map(_tasks(), CONTEXT)
        assert not events_path(tmp_path).exists()

    def test_killed_then_resumed_campaign(self, tmp_path):
        """Chaos kill mid-campaign, salvage, resume: status tells the story."""
        chaos = ChaosPolicy(kill_cells=(1,), first_attempt_only=False)
        results = parallel_map(
            _tasks(), CONTEXT, jobs=2, checkpoint=tmp_path, resume=True,
            chaos=chaos, on_error="collect", prime=[],
            backoff=RetryPolicy(max_retries=1, **FAST))
        # Cell 1 is killed on every attempt and salvaged as a failure.
        assert [r for i, r in enumerate(results) if i != 1] == [0, 4, 6]
        health = load_health(tmp_path)
        assert health.failed == 1
        assert health.retries >= 1
        assert health.retry_reasons.get("worker-died", 0) >= 1
        assert health.failures[0]["reason"] == "worker-died"

        # Resume without chaos: only the dead cell re-runs, and the
        # healed campaign reports two runs with three resumed cells.
        results = parallel_map(_tasks(), CONTEXT, jobs=2, prime=[],
                               checkpoint=tmp_path, resume=True)
        assert results == [0, 2, 4, 6]
        health = load_health(tmp_path)
        assert health.runs == 2
        assert health.resumed == 3 and health.completed == 1
        assert health.finished and health.remaining == 0
        # History still remembers the first run's casualties.
        assert health.retry_reasons.get("worker-died", 0) >= 1

        status = render_status(tmp_path)
        assert "finished" in status
        assert "resumed 1 time(s)" in status
        assert "4/4" in status

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resumed_run_reports_campaign_indices(self, tmp_path, jobs):
        """A run that resumes 2 of 4 cells numbers the other two 2 and 3
        in its events and failures, not by their pool submission order
        (which chaos targeting still uses)."""
        parallel_map(_tasks()[:2], CONTEXT, checkpoint=tmp_path)
        results = parallel_map(
            _tasks(), CONTEXT, jobs=jobs, checkpoint=tmp_path, resume=True,
            chaos=ChaosPolicy(error_cells=(0,)), on_error="collect",
            backoff=RetryPolicy(max_retries=0, **FAST), prime=[])
        assert results[:2] == [0, 2] and results[3] == 6
        assert results[2].index == 2  # the first submitted cell failed
        records = read_events(tmp_path)[0]
        begins = [i for i, r in enumerate(records)
                  if r["event"] == "campaign.begin"]
        second_run = records[begins[-1]:]
        cell_events = [r for r in second_run
                       if r["event"] in ("cell.started", "cell.completed",
                                         "cell.failed")]
        assert {r["event"] for r in cell_events} == {
            "cell.started", "cell.completed", "cell.failed"}
        assert {r["index"] for r in cell_events} == {2, 3}

    def test_supervised_stream_has_started_and_retried(self, tmp_path):
        chaos = ChaosPolicy(error_cells=(2,))
        parallel_map(_tasks(), CONTEXT, jobs=2, checkpoint=tmp_path,
                     chaos=chaos, backoff=RetryPolicy(max_retries=2, **FAST),
                     on_error="collect", prime=[])
        kinds = [r["event"] for r in read_events(tmp_path)[0]]
        assert "cell.started" in kinds
        assert "cell.retried" in kinds
        assert kinds.count("cell.completed") == 4  # retry succeeded


# ---------------------------------------------------------------------------
# CLI: repro status / repro report / repro trace failure modes
# ---------------------------------------------------------------------------
class TestStatusReportCli:
    @pytest.fixture()
    def campaign_dir(self, tmp_path):
        parallel_map(_tasks(), CONTEXT, checkpoint=tmp_path, resume=True)
        return tmp_path

    def test_status_renders_progress(self, campaign_dir, capsys):
        assert main(["status", str(campaign_dir)]) == 0
        out = capsys.readouterr().out
        assert "[finished]" in out
        assert "4/4 (100%)" in out
        assert "journal: 4 cell(s) on disk" in out

    def test_status_missing_stream_exits_2(self, tmp_path, capsys):
        assert main(["status", str(tmp_path)]) == 2
        assert "no campaign event stream" in capsys.readouterr().err

    def test_report_stdout_markdown(self, campaign_dir, capsys):
        assert main(["report", str(campaign_dir)]) == 0
        out = capsys.readouterr().out
        assert "# Campaign report" in out
        assert "## Health" in out
        assert "## Control quality" in out

    def test_report_files_and_html(self, campaign_dir, tmp_path, capsys):
        md = tmp_path / "r.md"
        html = tmp_path / "r.html"
        assert main(["report", str(campaign_dir), "--out", str(md),
                     "--html", str(html), "--title", "t7"]) == 0
        assert "# Campaign report: t7" in md.read_text()
        page = html.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "<table>" in page and "</html>" in page

    def test_report_empty_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "no campaign artifacts" in capsys.readouterr().err

    def test_trace_empty_dir_exits_2(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 2
        assert "no campaign artifacts" in capsys.readouterr().err

    def test_trace_missing_dir_exits_2(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope")]) == 2
        assert "not a campaign directory" in capsys.readouterr().err

    def test_torn_metrics_snapshot_skipped_not_hidden(self, tmp_path, capsys):
        from repro.telemetry import TelemetrySession

        torn = '{"control_periods_total": {"type": "coun'
        # Beside other artifacts: they render, the report says it skipped
        # the snapshot, and the command succeeds.
        session = TelemetrySession(tmp_path / "tel")
        with session.span("sample"):
            pass
        session.close()
        (tmp_path / "tel" / "metrics.json").write_text(torn)
        with pytest.warns(RuntimeWarning, match="metrics snapshot"):
            assert main(["report", str(tmp_path / "tel")]) == 0
        out = capsys.readouterr().out
        assert "## Control-loop time by span" in out
        assert "`metrics.json` is torn or corrupt; skipped." in out
        # Alone: nothing is readable, so exit 2 naming the torn file.
        (tmp_path / "only").mkdir()
        (tmp_path / "only" / "metrics.json").write_text(torn)
        with pytest.warns(RuntimeWarning, match="metrics snapshot"):
            assert main(["report", str(tmp_path / "only")]) == 2
        assert "metrics.json is torn or corrupt" in capsys.readouterr().err

    def test_report_on_telemetry_only_dir(self, tmp_path, capsys):
        from repro.telemetry import TelemetrySession

        session = TelemetrySession(tmp_path, profile=True)
        with session.span("sample"):
            pass
        session.close()
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "## Control-loop phase profile" in out
        assert "sensing" in out

    def test_html_escapes_markup(self):
        page = to_html("# a <b> & c\n\nplain <script>")
        assert "&lt;b&gt;" in page and "&lt;script&gt;" in page
