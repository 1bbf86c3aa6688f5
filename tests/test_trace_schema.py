"""Chrome/Perfetto trace export schema + span-nesting round trips.

Validates the contract ``trace.json`` promises to external viewers
(chrome://tracing, ui.perfetto.dev): required keys, monotonic
timestamps, complete ``X`` events with durations.  Also round-trips span
nesting through tracing → ``load_spans``, including a merged
multi-worker directory, and exercises the torn-artifact tolerance of
every JSONL reader and of the ``repro report`` renderer.
"""

import json
import re
import warnings

import pytest

from repro.obs import read_events
from repro.obs.report import build_report, load_flight_dumps, load_spans
from repro.runtime import CheckpointJournal
from repro.telemetry import TelemetrySession, Tracer, deactivate
from repro.telemetry.merge import merge_worker_dirs


@pytest.fixture(autouse=True)
def _no_global_session():
    deactivate()
    yield
    deactivate()


def _record_session(out_dir, periods=5):
    """A session with nested spans per period, closed (trace.json written)."""
    session = TelemetrySession(out_dir)
    for _ in range(periods):
        session.tracer.begin_period(board_time=1.0)
        with session.span("sim"):
            with session.span("sample"):
                pass
            with session.span("hw.step"):
                pass
        session.instant("fault.injected", cat="fault", kind="test")
    session.close()
    return out_dir


REQUIRED_KEYS = {"name", "cat", "ph", "pid", "tid", "ts"}


class TestChromeTraceSchema:
    @pytest.fixture()
    def events(self, tmp_path):
        _record_session(tmp_path)
        return json.loads((tmp_path / "trace.json").read_text())

    def test_loads_as_event_array(self, events):
        assert isinstance(events, list) and events

    def test_required_keys_present(self, events):
        for event in events:
            assert REQUIRED_KEYS <= set(event), event

    def test_phases_are_complete_or_instant(self, events):
        phases = {event["ph"] for event in events}
        assert phases <= {"X", "i"}
        assert "X" in phases and "i" in phases

    def test_complete_events_carry_duration(self, events):
        for event in events:
            if event["ph"] == "X":
                assert "dur" in event and event["dur"] >= 0
            else:
                assert event.get("s") == "p"  # scoped instant

    def test_timestamps_monotonic(self, events):
        ts = [event["ts"] for event in events]
        assert ts == sorted(ts)

    def test_args_carry_trace_id(self, events):
        spans = [e for e in events if e["ph"] == "X"]
        assert all("trace_id" in e["args"] for e in spans)


class TestSpanNestingRoundTrip:
    def test_children_contained_in_parents(self, tmp_path):
        _record_session(tmp_path)
        spans = [r for r in load_spans(tmp_path) if r.get("phase") == "span"]
        by_period = {}
        for record in spans:
            by_period.setdefault(record["trace_id"], []).append(record)
        assert len(by_period) == 5
        for period_spans, records in by_period.items():
            names = {r["name"] for r in records}
            assert names == {"sim", "sample", "hw.step"}
            parent = next(r for r in records if r["name"] == "sim")
            p0 = parent["ts_us"]
            p1 = p0 + parent["dur_us"]
            for child in records:
                if child is parent:
                    continue
                assert child["ts_us"] >= p0 - 0.1
                assert child["ts_us"] + child["dur_us"] <= p1 + 0.1

    def test_merged_worker_dirs_preserve_nesting(self, tmp_path):
        # Two "workers" record independently; the merged parent stream
        # must keep each worker's spans attributed and nested.
        for name in ("worker-1001", "worker-1002"):
            _record_session(tmp_path / name, periods=2)
        merge_worker_dirs(tmp_path)
        spans = [r for r in load_spans(tmp_path) if r.get("phase") == "span"]
        workers = {r["worker"] for r in spans}
        assert workers == {"worker-1001", "worker-1002"}
        for worker in workers:
            per_worker = [r for r in spans if r["worker"] == worker]
            for trace_id in {r["trace_id"] for r in per_worker}:
                records = [r for r in per_worker
                           if r["trace_id"] == trace_id]
                parent = next(r for r in records if r["name"] == "sim")
                for child in records:
                    assert child["ts_us"] >= parent["ts_us"] - 0.1
        # The merged metrics snapshot also survives the report.
        report = build_report(tmp_path)
        assert "## Control-loop time by span" in report
        assert "## Metrics" in report

    def test_merged_dir_trace_counts_add_up(self, tmp_path):
        for name in ("worker-1", "worker-2"):
            _record_session(tmp_path / name, periods=3)
        merge_worker_dirs(tmp_path)
        spans = [r for r in load_spans(tmp_path) if r.get("phase") == "span"]
        assert len(spans) == 2 * 3 * 3  # 2 workers x 3 periods x 3 spans


def _spans(directory):
    """``load_spans``: skipped lines are counted into a RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = load_spans(directory)
    skipped = 0
    for warning in caught:
        assert issubclass(warning.category, RuntimeWarning)
        skipped += int(re.search(r"skipped (\d+) torn/corrupt line",
                                 str(warning.message)).group(1))
    return records, skipped


def _events(directory):
    """``read_events``: the skipped count is returned."""
    return read_events(directory)


def _journal(directory):
    """``CheckpointJournal.index``: skipped lines are dropped silently."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return list(CheckpointJournal(directory).index().values()), None


def _merged(directory):
    """``merge_worker_dirs``: a worker's bad lines never reach the merge."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        merge_worker_dirs(directory)
        return load_spans(directory), None


# (artifact path inside the run directory, reader, missing file raises)
JSONL_ARTIFACTS = [
    ("spans.jsonl", _spans, False),
    ("events.jsonl", _events, True),
    ("journal.jsonl", _journal, False),
    ("worker-1/spans.jsonl", _merged, False),
]


@pytest.mark.parametrize(
    "relpath, read, missing_raises", JSONL_ARTIFACTS,
    ids=["spans", "events", "journal", "merged-spans"])
def test_jsonl_artifact_tolerates_torn_lines(tmp_path, relpath, read,
                                             missing_raises):
    """One shared reader under all four JSONL artifacts: a torn tail and
    a non-object line are skipped (each caller keeps its own policy for
    the count), and a missing file reads as empty or raises."""
    good = [json.dumps({"event": "cell.completed", "key": f"k{i}",
                        "name": "sim", "phase": "span", "dur_us": 1.0})
            for i in range(2)]
    cases = {
        "torn-tail": good + ['{"event": "cell.comp'],  # SIGKILL mid-write
        "non-object": [good[0], "[1, 2, 3]", good[1]],
    }
    for case, lines in cases.items():
        directory = tmp_path / case
        path = directory / relpath
        path.parent.mkdir(parents=True)
        path.write_text("\n".join(lines) + "\n")
        records, skipped = read(directory)
        assert [r["key"] for r in records] == ["k0", "k1"], case
        assert skipped in (1, None), case  # None: the caller is silent
    missing = tmp_path / "missing"
    (missing / relpath).parent.mkdir(parents=True)
    if missing_raises:
        with pytest.raises(FileNotFoundError):
            read(missing)
    else:
        assert read(missing)[0] == []


class TestTornArtifactTolerance:
    def test_torn_spans_line_skipped_with_warning(self, tmp_path):
        _record_session(tmp_path)
        intact = len(load_spans(tmp_path))
        with open(tmp_path / "spans.jsonl", "a") as fh:
            fh.write('{"name": "sim", "ts_us"')  # torn tail
        with pytest.warns(RuntimeWarning, match="1 torn/corrupt line"):
            records = load_spans(tmp_path)
        assert len(records) == intact

    def test_non_object_span_lines_skipped(self, tmp_path):
        (tmp_path / "spans.jsonl").write_text(
            '{"name": "a", "phase": "span", "dur_us": 1.0}\n[1,2,3]\n')
        with pytest.warns(RuntimeWarning):
            records = load_spans(tmp_path)
        assert len(records) == 1

    def test_corrupt_flight_dump_skipped_with_warning(self, tmp_path):
        (tmp_path / "flight-000.json").write_text(
            json.dumps({"sequence": 0, "reason": "test", "snapshots": []}))
        (tmp_path / "flight-001.json").write_text('{"sequence": 1, "rea')
        with pytest.warns(RuntimeWarning, match="flight dump"):
            dumps = load_flight_dumps(tmp_path)
        assert [d["sequence"] for d in dumps] == [0]

    def test_summarize_survives_torn_artifacts(self, tmp_path):
        _record_session(tmp_path)
        with open(tmp_path / "spans.jsonl", "a") as fh:
            fh.write("{torn")
        (tmp_path / "flight-000.json").write_text("{torn")
        with pytest.warns(RuntimeWarning):
            report = build_report(tmp_path)
        assert "## Control-loop time by span" in report

    def test_empty_dir_raises_with_clear_message(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no campaign artifacts"):
            build_report(tmp_path)

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a campaign"):
            build_report(tmp_path / "absent")
