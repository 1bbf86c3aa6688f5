"""Unit tests for repro.telemetry: registry, tracer, flight recorder, session."""

import json

import numpy as np
import pytest

from repro.telemetry import (
    NULL_SPAN,
    FlightRecorder,
    MetricsRegistry,
    TelemetrySession,
    Tracer,
    activate,
    active_session,
    deactivate,
)
from repro.telemetry.flight import jsonable
from repro.telemetry.tracing import chrome_event


@pytest.fixture(autouse=True)
def _no_global_session():
    """Telemetry tests must not leak a process-wide session."""
    deactivate()
    yield
    deactivate()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "ops")
        c.inc()
        c.inc(2.5)
        assert reg.value("ops_total") == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("level")
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == pytest.approx(3.0)

    def test_histogram_buckets_sum_count(self):
        reg = MetricsRegistry()
        fam = reg.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 5.0):
            fam.observe(v)
        h = fam._default  # the unlabeled child holds the distribution
        cum = dict(h.cumulative())
        assert cum[0.01] == 1
        assert cum[0.1] == 3
        assert cum[1.0] == 3
        assert cum[float("inf")] == 4
        assert h.count == 4
        assert h.sum == pytest.approx(5.105)
        assert reg.value("lat_seconds") == 4  # histogram value() -> count

    def test_labels_create_independent_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("trips_total", labels=("cause",))
        fam.labels(cause="thermal").inc()
        fam.labels(cause="thermal").inc()
        fam.labels(cause="power").inc()
        assert reg.value("trips_total", cause="thermal") == 2
        assert reg.value("trips_total", cause="power") == 1

    def test_wrong_label_names_raise(self):
        fam = MetricsRegistry().counter("t_total", labels=("cause",))
        with pytest.raises(ValueError):
            fam.labels(kind="x")
        with pytest.raises(ValueError):
            fam.inc()  # labeled family has no unlabeled default

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("n_total", "help", labels=("k",))
        b = reg.counter("n_total", "other help", labels=("k",))
        assert a is b

    def test_reregistration_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("n_total")
        with pytest.raises(ValueError):
            reg.gauge("n_total")
        with pytest.raises(ValueError):
            reg.counter("n_total", labels=("k",))

    def test_invalid_names_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("1starts_with_digit")

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("trips_total", "trips by cause",
                    labels=("cause",)).labels(cause='weird"cause').inc()
        reg.gauge("exd_proxy").set(1.5)
        h = reg.histogram("step_seconds", buckets=(0.1,))
        h.observe(0.05)
        text = reg.render_prometheus()
        assert "# HELP trips_total trips by cause" in text
        assert "# TYPE trips_total counter" in text
        assert 'trips_total{cause="weird\\"cause"} 1' in text
        assert "exd_proxy 1.5" in text
        assert 'step_seconds_bucket{le="0.1"} 1' in text
        assert 'step_seconds_bucket{le="+Inf"} 1' in text
        assert "step_seconds_sum 0.05" in text
        assert "step_seconds_count 1" in text

    def test_prometheus_text_is_pinned(self):
        """The live exposition text, byte for byte, as it was before it
        was rendered from the ``to_dict`` snapshot: escaped help and label
        values, integral floats printed as integers, a ``+Inf`` bucket."""
        reg = MetricsRegistry()
        requests = reg.counter("requests_total",
                               help="Requests seen.\nSecond line",
                               labels=("who",))
        requests.labels(who='x"y').inc(3)
        requests.labels(who="back\\slash").inc()
        reg.gauge("temp_celsius").set(61.25)
        hist = reg.histogram("step_seconds", help="Step latency",
                             labels=("who",), buckets=(0.001, 0.01, 1.0))
        for value in (0.0005, 0.02, 3.0):
            hist.labels(who='x"y').observe(value)
        assert reg.render_prometheus() == (
            '# HELP requests_total Requests seen.\\nSecond line\n'
            '# TYPE requests_total counter\n'
            'requests_total{who="x\\"y"} 3\n'
            'requests_total{who="back\\\\slash"} 1\n'
            '# HELP step_seconds Step latency\n'
            '# TYPE step_seconds histogram\n'
            'step_seconds_bucket{who="x\\"y",le="0.001"} 1\n'
            'step_seconds_bucket{who="x\\"y",le="0.01"} 1\n'
            'step_seconds_bucket{who="x\\"y",le="1"} 2\n'
            'step_seconds_bucket{who="x\\"y",le="+Inf"} 3\n'
            'step_seconds_sum{who="x\\"y"} 3.0205\n'
            'step_seconds_count{who="x\\"y"} 3\n'
            'step_seconds_p50{who="x\\"y"} 0.505\n'
            'step_seconds_p90{who="x\\"y"} 1\n'
            'step_seconds_p99{who="x\\"y"} 1\n'
            '# TYPE temp_celsius gauge\n'
            'temp_celsius 61.25\n')

    def test_to_dict_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("a_total", labels=("k",)).labels(k="v").inc()
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        blob = json.dumps(reg.to_dict())
        parsed = json.loads(blob)
        assert parsed["a_total"]["values"][0] == {
            "labels": {"k": "v"}, "value": 1.0,
        }
        assert parsed["h_seconds"]["values"][0]["count"] == 1


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_null_span_is_inert(self):
        with NULL_SPAN as s:
            s.set(anything=1)  # must not raise

    def test_in_memory_spans(self):
        tr = Tracer()
        tr.begin_period(board_time=0.5)
        with tr.span("sample", layer="hw") as s:
            s.set(extra=3)
        assert tr.trace_id == 1
        assert tr.span_count == 2  # period.begin instant + the span
        names = [r["name"] for r in tr.spans]
        assert names == ["period.begin", "sample"]
        span = tr.spans[-1]
        assert span["phase"] == "span"
        assert span["trace_id"] == 1
        assert span["dur_us"] >= 0.0
        assert span["layer"] == "hw"
        assert span["extra"] == 3

    def test_trace_ids_advance_per_period(self):
        tr = Tracer()
        for _ in range(3):
            tr.begin_period()
            with tr.span("work"):
                pass
        assert [r["trace_id"] for r in tr.spans] == [1, 2, 3]

    def test_jsonl_and_chrome_files(self, tmp_path):
        jsonl = tmp_path / "spans.jsonl"
        chrome = tmp_path / "trace.json"
        tr = Tracer(jsonl_path=jsonl, chrome_path=chrome)
        tr.begin_period(board_time=0.0)
        with tr.span("optimize"):
            pass
        tr.instant("fault.applied", cat="fault", kind="temp-bias")
        tr.close()
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [r["name"] for r in records] == [
            "period.begin", "optimize", "fault.applied",
        ]
        events = json.loads(chrome.read_text())  # must be one valid array
        assert isinstance(events, list) and len(events) == 3
        by_name = {e["name"]: e for e in events}
        assert by_name["optimize"]["ph"] == "X"
        assert "dur" in by_name["optimize"]
        assert by_name["fault.applied"]["ph"] == "i"
        assert by_name["fault.applied"]["args"]["kind"] == "temp-bias"

    def test_serialization_is_deferred_until_flush(self, tmp_path):
        jsonl = tmp_path / "spans.jsonl"
        tr = Tracer(jsonl_path=jsonl, flush_every=1000)
        with tr.span("hot"):
            pass
        assert not jsonl.exists()  # hot path only buffers
        tr.flush()
        assert len(jsonl.read_text().splitlines()) == 1
        tr.close()

    def test_flush_every_batches_mid_run(self, tmp_path):
        jsonl = tmp_path / "spans.jsonl"
        tr = Tracer(jsonl_path=jsonl, flush_every=2)
        for _ in range(5):
            tr.instant("tick")
        tr.flush()
        assert len(jsonl.read_text().splitlines()) == 5
        tr.close()

    def test_memory_ring_is_bounded_but_file_is_complete(self, tmp_path):
        jsonl = tmp_path / "spans.jsonl"
        tr = Tracer(jsonl_path=jsonl, keep=4)
        for i in range(10):
            tr.instant(f"e{i}")
        assert len(tr.spans) == 4
        assert tr.span_count == 10
        tr.close()
        assert len(jsonl.read_text().splitlines()) == 10

    def test_chrome_event_conversion(self):
        record = {"name": "n", "cat": "c", "trace_id": 7,
                  "ts_us": 12.0, "dur_us": 3.0, "phase": "span", "k": "v"}
        event = chrome_event(record)
        assert event == {"name": "n", "cat": "c", "ph": "X", "pid": 1,
                         "tid": 1, "ts": 12.0, "dur": 3.0,
                         "args": {"trace_id": 7, "k": "v"}}


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_capacity(self):
        fr = FlightRecorder(capacity=3)
        for i in range(5):
            fr.record({"period": i})
        assert len(fr) == 3
        assert fr.last == {"period": 4}
        payload = fr.dump("test")
        assert [s["period"] for s in payload["snapshots"]] == [2, 3, 4]

    def test_last_is_late_annotatable(self):
        fr = FlightRecorder(capacity=2)
        fr.record({"period": 1})
        fr.last["supervisor_state"] = "DEGRADED"
        assert fr.dump("x")["snapshots"][0]["supervisor_state"] == "DEGRADED"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_files_and_sequence(self, tmp_path):
        fr = FlightRecorder(capacity=2, out_dir=tmp_path)
        fr.record({"period": 1})
        fr.dump("NOMINAL->DEGRADED:thermal", extra={"t": 1.5})
        fr.dump("fault applied")
        assert [p.name for p in fr.dump_paths] == [
            "flight-0000-NOMINAL-DEGRADED-thermal.json",
            "flight-0001-fault-applied.json",
        ]
        payload = json.loads(fr.dump_paths[0].read_text())
        assert payload["reason"] == "NOMINAL->DEGRADED:thermal"
        assert payload["extra"] == {"t": 1.5}
        assert json.loads(fr.dump_paths[1].read_text())["sequence"] == 1

    def test_jsonable_numpy_conversion(self):
        out = jsonable({
            "arr": np.array([1.0, 2.0]),
            "f": np.float64(1.5),
            "nan": float("nan"),
            "i": np.int64(3),
            "b": np.bool_(True),
            "plain_bool": True,
            "none": None,
            "obj": object(),
        })
        assert out["arr"] == [1.0, 2.0]
        assert out["f"] == 1.5
        assert out["nan"] == "nan"  # non-finite floats become strings
        assert out["i"] == 3
        assert out["b"] is True
        assert out["plain_bool"] is True
        assert out["none"] is None
        assert isinstance(out["obj"], str)
        json.dumps(out)  # the whole payload must be serializable


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class TestSession:
    def test_activate_deactivate(self):
        assert active_session() is None
        session = TelemetrySession()
        assert activate(session) is session
        assert active_session() is session
        deactivate()
        assert active_session() is None

    def test_close_auto_deactivates(self):
        session = activate(TelemetrySession())
        session.close()
        assert active_session() is None
        assert session.closed

    def test_close_is_idempotent(self, tmp_path):
        session = TelemetrySession(tmp_path / "t")
        session.close()
        session.close()

    def test_after_close_recording_is_inert(self):
        session = TelemetrySession()
        session.close()
        assert session.span("x") is NULL_SPAN
        session.instant("y")  # no-op, must not raise
        assert session.tracer.span_count == 0

    def test_out_dir_artifacts(self, tmp_path):
        out = tmp_path / "telemetry"
        with TelemetrySession(out) as session:
            session.begin_period(board_time=0.0)
            with session.span("sample"):
                pass
            session.periods.inc()
            session.record_period({"period": 1, "exd": 0.5})
            session.dump_flight("unit-test", extra={"why": "test"})
        for name in ("metrics.prom", "metrics.json", "spans.jsonl",
                     "trace.json"):
            assert (out / name).exists(), name
        assert list(out.glob("flight-*-unit-test.json"))
        prom = (out / "metrics.prom").read_text()
        assert "control_periods_total 1" in prom
        assert 'flight_dumps_total{reason="unit-test"} 1' in prom
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["control_periods_total"]["values"][0]["value"] == 1.0
        json.loads((out / "trace.json").read_text())

    def test_dump_flight_counts_and_marks_trace(self):
        session = TelemetrySession()
        session.record_period({"period": 1})
        payload = session.dump_flight("reason-x")
        assert payload["snapshots"] == [{"period": 1}]
        assert session.registry.value("flight_dumps_total",
                                      reason="reason-x") == 1
        assert session.tracer.spans[-1]["name"] == "flight.dump"

    def test_session_period_passthrough(self):
        session = TelemetrySession()
        assert session.period == 0
        session.begin_period()
        assert session.period == 1
