"""Edge cases of telemetry/merge.py: the worker-directory fold must stay
robust to empty, partial, duplicated, and corrupted worker output."""

import json
from types import SimpleNamespace

from repro.telemetry import TelemetrySession, activate, active_session
from repro.telemetry.merge import merge_metrics_dicts, merge_worker_dirs


def _worker_session(parent, name):
    return TelemetrySession(parent / name)


def _record_in_worker(context, periods):
    """Engine task: record a counter and a span in the worker's session."""
    session = active_session()
    session.periods.inc(periods)
    with session.span("sim"):
        pass
    return periods


def _counter_snapshot(name="jobs_total", value=1.0, labels=None):
    return {
        name: {
            "type": "counter",
            "help": "test counter",
            "values": [{"labels": labels or {}, "value": value}],
        }
    }


class TestMergeWorkerDirs:
    def test_no_worker_dirs(self, tmp_path):
        """A parent with no workers merges to an empty-but-valid snapshot."""
        merged = merge_worker_dirs(tmp_path)
        assert merged == {}
        assert (tmp_path / "metrics.json").is_file()
        assert json.loads((tmp_path / "metrics.json").read_text()) == {}
        assert not (tmp_path / "spans.jsonl").exists()

    def test_empty_worker_dirs(self, tmp_path):
        """Workers that crashed before writing anything are skipped."""
        (tmp_path / "worker-1").mkdir()
        (tmp_path / "worker-2").mkdir()
        merged = merge_worker_dirs(tmp_path)
        assert merged == {}

    def test_worker_with_unseen_counter_family(self, tmp_path):
        """A family only one worker ever saw survives the merge intact."""
        s1 = _worker_session(tmp_path, "worker-1")
        s1.periods.inc(3)
        s1.close()
        s2 = _worker_session(tmp_path, "worker-2")
        s2.periods.inc(2)
        # Only worker-2 ever trips the TMU family with this label.
        s2.tmu_trips.labels(type="thermal").inc(5)
        s2.close()
        merged = merge_worker_dirs(tmp_path)
        assert merged["control_periods_total"]["values"][0]["value"] == 5
        (trip_value,) = [
            v for v in merged["tmu_trips_total"]["values"]
            if v["labels"] == {"type": "thermal"}
        ]
        assert trip_value["value"] == 5

    def test_duplicate_span_files_both_kept_and_attributed(self, tmp_path):
        """The same spans in two worker dirs are both kept, each annotated
        with its own worker name — the merge never dedups silently."""
        span = {"name": "sim", "ts": 1.0, "dur": 0.5}
        for worker in ("worker-1", "worker-2"):
            wdir = tmp_path / worker
            wdir.mkdir()
            (wdir / "spans.jsonl").write_text(json.dumps(span) + "\n")
        merge_worker_dirs(tmp_path)
        lines = [
            json.loads(line)
            for line in (tmp_path / "spans.jsonl").read_text().splitlines()
        ]
        assert len(lines) == 2
        assert {line["worker"] for line in lines} == {"worker-1", "worker-2"}
        assert all(line["name"] == "sim" for line in lines)

    def test_unparsable_metrics_skipped(self, tmp_path):
        """A truncated metrics.json from a dying worker must not take the
        merged report down — its metrics are dropped, the rest merge."""
        bad = tmp_path / "worker-1"
        bad.mkdir()
        (bad / "metrics.json").write_text("{ truncated")
        good = _worker_session(tmp_path, "worker-2")
        good.periods.inc(4)
        good.close()
        merged = merge_worker_dirs(tmp_path)
        assert merged["control_periods_total"]["values"][0]["value"] == 4

    def test_unparsable_span_lines_skipped(self, tmp_path):
        wdir = tmp_path / "worker-1"
        wdir.mkdir()
        (wdir / "spans.jsonl").write_text(
            json.dumps({"name": "ok"}) + "\nnot json\n\n"
        )
        merge_worker_dirs(tmp_path)
        lines = (tmp_path / "spans.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "ok"

    def test_explicit_worker_dirs_argument(self, tmp_path):
        s1 = _worker_session(tmp_path, "other-name")
        s1.periods.inc(1)
        s1.close()
        merged = merge_worker_dirs(tmp_path,
                                   worker_dirs=[tmp_path / "other-name"])
        assert merged["control_periods_total"]["values"][0]["value"] == 1

    def test_prometheus_rerendered(self, tmp_path):
        s1 = _worker_session(tmp_path, "worker-1")
        s1.periods.inc(2)
        s1.close()
        merge_worker_dirs(tmp_path)
        prom = (tmp_path / "metrics.prom").read_text()
        assert "control_periods_total 2" in prom
        assert "# TYPE control_periods_total counter" in prom

    def test_merged_prometheus_matches_live_renderer(self, tmp_path):
        """Two workers' histograms merge into text with one ``+Inf``
        bucket per child, escaped label values and the live ``le``
        formatting — the same renderer a single registry uses."""
        for name in ("worker-1", "worker-2"):
            session = _worker_session(tmp_path, name)
            hist = session.registry.histogram(
                "step_seconds", labels=("who",), buckets=(0.001, 1.0))
            hist.labels(who='x"y').observe(0.5)
            hist.labels(who="plain").observe(2.0)
            session.close()
        merge_worker_dirs(tmp_path)
        prom = (tmp_path / "metrics.prom").read_text()
        inf_lines = [line for line in prom.splitlines()
                     if line.startswith("step_seconds_bucket")
                     and 'le="+Inf"' in line]
        assert inf_lines == ['step_seconds_bucket{who="x\\"y",le="+Inf"} 2',
                             'step_seconds_bucket{who="plain",le="+Inf"} 2']
        assert 'step_seconds_bucket{who="x\\"y",le="1"} 2' in prom
        assert 'le="1.0"' not in prom
        assert 'who="x"y"' not in prom
        # Every histogram child of the merged snapshot gets its +Inf line.
        snapshot = json.loads((tmp_path / "metrics.json").read_text())
        children = sum(len(family["values"]) for family in snapshot.values()
                       if family["type"] == "histogram")
        assert prom.count('le="+Inf"') == children


class TestSessionFoldsWorkers:
    def test_parallel_campaign_under_a_live_session(self, tmp_path):
        """``--jobs N --telemetry DIR``: the session recording into the
        pool's directory ends with its workers' metrics and spans beside
        its own, instead of overwriting the merge with its own snapshot."""
        from repro.experiments.engine import parallel_map

        session = activate(TelemetrySession(tmp_path))
        try:
            with session.span("setup"):
                pass
            session.periods.inc(1)
            results = parallel_map(
                [("call", (_record_in_worker, (n,), {})) for n in (2, 3)],
                SimpleNamespace(char_fingerprint="merge-test", overrides={}),
                jobs=2, telemetry_dir=str(tmp_path), prime=[])
            session.instant("after.pool")
        finally:
            session.close()
        assert results == [2, 3]
        merged = json.loads((tmp_path / "metrics.json").read_text())
        assert merged["control_periods_total"]["values"][0]["value"] == 6
        assert "control_periods_total 6" in (
            tmp_path / "metrics.prom").read_text()
        spans = [json.loads(line) for line in
                 (tmp_path / "spans.jsonl").read_text().splitlines()]
        own = [r["name"] for r in spans if "worker" not in r]
        assert own == ["setup", "after.pool"]
        assert [r["name"] for r in spans if "worker" in r] == ["sim", "sim"]


class TestMergeMetricsDicts:
    def test_counters_sum_gauges_last_write_wins(self):
        a = _counter_snapshot(value=2.0)
        a["temp"] = {"type": "gauge", "help": "",
                     "values": [{"labels": {}, "value": 10.0}]}
        b = _counter_snapshot(value=3.0)
        b["temp"] = {"type": "gauge", "help": "",
                     "values": [{"labels": {}, "value": 20.0}]}
        merged = merge_metrics_dicts([a, b])
        assert merged["jobs_total"]["values"][0]["value"] == 5.0
        assert merged["temp"]["values"][0]["value"] == 20.0

    def test_disjoint_label_sets_kept_apart(self):
        a = _counter_snapshot(labels={"kind": "x"})
        b = _counter_snapshot(labels={"kind": "y"}, value=7.0)
        merged = merge_metrics_dicts([a, b])
        values = {
            json.dumps(v["labels"], sort_keys=True): v["value"]
            for v in merged["jobs_total"]["values"]
        }
        assert values == {'{"kind": "x"}': 1.0, '{"kind": "y"}': 7.0}

    def test_empty_input(self):
        assert merge_metrics_dicts([]) == {}
