"""The parallel experiment engine: determinism, ordering, telemetry merge."""

import json

import pytest

from repro.experiments import (
    COORDINATED_HEURISTIC,
    MONOLITHIC_LQG,
    YUKTA_HW_SSV_OS_SSV,
    run_scheme_matrix,
)
from repro.experiments.engine import parallel_map, resolve_jobs

SCHEMES = [COORDINATED_HEURISTIC, YUKTA_HW_SSV_OS_SSV]
WORKLOADS = ["blackscholes", "gamess"]
MAX_TIME = 120.0


class TestResolveJobs:
    def test_defaults_to_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1

    def test_minus_one_is_cpu_count(self):
        import os

        assert resolve_jobs(-1) == max(os.cpu_count() or 1, 1)

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3


class TestMatrixDeterminism:
    @pytest.fixture(scope="class")
    def serial(self, design_context):
        return run_scheme_matrix(SCHEMES, WORKLOADS, design_context,
                                 max_time=MAX_TIME)

    def test_serial_vs_parallel_bit_identical(self, design_context, serial):
        parallel = run_scheme_matrix(SCHEMES, WORKLOADS, design_context,
                                     max_time=MAX_TIME, jobs=2)
        assert list(parallel) == list(serial)
        for workload in serial:
            assert list(parallel[workload]) == list(serial[workload])
            for scheme in serial[workload]:
                a = serial[workload][scheme]
                b = parallel[workload][scheme]
                assert a.execution_time == b.execution_time
                assert a.energy == b.energy
                assert a.completed == b.completed
                assert a.notes == b.notes

    def test_jobs_one_matches_serial_path(self, design_context, serial):
        explicit = run_scheme_matrix(SCHEMES, WORKLOADS, design_context,
                                     max_time=MAX_TIME, jobs=1)
        for workload in serial:
            for scheme in serial[workload]:
                assert (
                    explicit[workload][scheme].energy
                    == serial[workload][scheme].energy
                )

    def test_progress_called_in_task_order(self, design_context):
        seen = []
        run_scheme_matrix(SCHEMES, WORKLOADS, design_context,
                          max_time=MAX_TIME, jobs=2,
                          progress=lambda m: seen.append((m.workload, m.scheme)))
        expected = [(w, s) for w in WORKLOADS for s in SCHEMES]
        assert seen == expected

    def test_matrix_keys_resolved_without_runs(self, design_context):
        # The satellite fix: name resolution must not depend on the scheme
        # loop having executed (the old code read a loop variable after).
        result = run_scheme_matrix([], WORKLOADS, design_context)
        assert list(result) == WORKLOADS
        assert all(result[w] == {} for w in WORKLOADS)


class TestOneMatrixPath:
    def test_serial_matrix_collects_a_raising_cell(self, design_context,
                                                    monkeypatch):
        from repro.experiments import runner
        from repro.runtime import CellFailure

        real = runner.instantiate_workload

        def sabotaged(workload):
            if workload == "gamess":
                raise RuntimeError("sabotaged workload")
            return real(workload)

        monkeypatch.setattr(runner, "instantiate_workload", sabotaged)
        matrix = run_scheme_matrix(SCHEMES, WORKLOADS, design_context,
                                   max_time=MAX_TIME)
        for scheme in SCHEMES:
            good = matrix["blackscholes"][scheme]
            assert not isinstance(good, CellFailure)
            assert good.execution_time > 0
            bad = matrix["gamess"][scheme]
            assert isinstance(bad, CellFailure)
            assert "sabotaged workload" in bad.error

    def test_banked_progress_streams_in_cell_order(self, design_context,
                                                   monkeypatch):
        from repro.experiments import engine

        events = []
        real = engine._bank_group

        def logged(*args, **kwargs):
            out = real(*args, **kwargs)
            events.append("bank")
            return out

        monkeypatch.setattr(engine, "_bank_group", logged)
        schemes = [COORDINATED_HEURISTIC, MONOLITHIC_LQG]
        workloads = ["blackscholes", "gamess", "mcf"]
        run_scheme_matrix(schemes, workloads, design_context, max_time=20.0,
                          batch=2, progress=lambda m: events.append(
                              (m.workload, m.scheme)))
        cells = [e for e in events if e != "bank"]
        assert cells == [(w, s) for w in workloads for s in schemes]
        # Six cells in chunks of two: the monolithic-LQG cells bank too.
        assert events.count("bank") == 3
        last_bank = len(events) - 1 - events[::-1].index("bank")
        assert events.index(cells[0]) < last_bank


def _double(context, value):
    return value * 2


class TestParallelMap:
    def test_call_tasks_ordered(self, design_context):
        tasks = [("call", (_double, (i,), {})) for i in range(5)]
        assert parallel_map(tasks, design_context, jobs=1) == [
            0, 2, 4, 6, 8
        ]

    def test_unknown_kind_raises(self, design_context):
        with pytest.raises(ValueError, match="unknown task kind"):
            parallel_map([("bogus", ())], design_context, jobs=1)


class TestTelemetryMerge:
    def test_worker_dirs_merge(self, design_context, tmp_path):
        from repro.experiments.engine import run_matrix

        tel_dir = tmp_path / "tel"

        run_matrix(SCHEMES, WORKLOADS, design_context, max_time=MAX_TIME,
                   jobs=2, telemetry_dir=str(tel_dir))
        workers = list(tel_dir.glob("worker-*"))
        assert workers, "workers should write telemetry subdirectories"
        merged = json.loads((tel_dir / "metrics.json").read_text())
        assert "control_periods_total" in merged
        total = merged["control_periods_total"]["values"][0]["value"]
        per_worker = 0.0
        for worker in workers:
            snap = json.loads((worker / "metrics.json").read_text())
            per_worker += snap["control_periods_total"]["values"][0]["value"]
        assert total == per_worker
        assert total > 0
        assert (tel_dir / "metrics.prom").is_file()

    def test_merge_metrics_dicts_sums_histograms(self):
        from repro.telemetry.merge import merge_metrics_dicts

        snap = {
            "lat": {
                "type": "histogram",
                "help": "",
                "values": [{
                    "labels": {},
                    "sum": 1.5,
                    "count": 3,
                    "buckets": [{"le": 1.0, "cumulative": 2}],
                }],
            },
            "runs": {
                "type": "counter",
                "help": "",
                "values": [{"labels": {}, "value": 2.0}],
            },
            "mode": {
                "type": "gauge",
                "help": "",
                "values": [{"labels": {}, "value": 1.0}],
            },
        }
        other = json.loads(json.dumps(snap))
        other["mode"]["values"][0]["value"] = 2.0
        merged = merge_metrics_dicts([snap, other])
        assert merged["lat"]["values"][0]["sum"] == 3.0
        assert merged["lat"]["values"][0]["count"] == 6
        assert merged["lat"]["values"][0]["buckets"][0]["cumulative"] == 4
        assert merged["runs"]["values"][0]["value"] == 4.0
        assert merged["mode"]["values"][0]["value"] == 2.0  # last write wins
