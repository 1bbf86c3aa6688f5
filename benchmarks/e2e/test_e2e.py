"""Tests of the end-to-end benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

The smoke tests run every workload at tiny sizes in subprocesses; the
whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(sid, name, start, end, parent=-1, tid=1):
    return (sid, name, start, end, parent, tid)


def self_times(span_list, windows):
    layers, unattributed, wall = spans.attribute(span_list, windows)
    return {k: v["self_s"] for k, v in layers.items()}, unattributed, wall


class TestSelfTime:
    def test_nested_spans_subtract_their_children(self):
        times, unattributed, wall = self_times(
            [span(1, "child", 2, 5, 0), span(2, "child", 6, 8, 0),
             span(0, "parent", 0, 10)], [(0, 12)])
        assert times == {"parent": 5, "child": 5}
        assert unattributed == 2 and wall == 12

    def test_overlap_across_threads_counts_each_instant_once(self):
        times, unattributed, wall = self_times(
            [span(0, "a", 0, 10, tid=1), span(1, "b", 4, 14, tid=2)],
            [(0, 15)])
        assert times == {"a": 4, "b": 10}
        assert sum(times.values()) + unattributed == wall

    def test_io_wait_yields_to_any_other_span(self):
        times, unattributed, _ = self_times(
            [span(0, spans.IO_WAIT[0], 0, 10, tid=1),
             span(1, "execute", 2, 6, tid=2)], [(0, 10)])
        assert times == {spans.IO_WAIT[0]: 6, "execute": 4}
        assert unattributed == 0

    def test_spans_are_clipped_to_every_window_they_cross(self):
        layers, unattributed, wall = spans.attribute(
            [span(0, "long", 1, 10), span(1, "outside", 3.5, 4.5)],
            [(0, 3), (5, 6)])
        assert layers["long"]["self_s"] == 3
        assert layers["long"]["calls"] == 1
        assert layers["outside"] == {"calls": 0, "self_s": 0.0}
        assert unattributed == 1 and wall == 4

    def test_tracer_records_nesting_and_restores_originals(self):
        import repro.experiments
        from repro.experiments import schemes

        prime = schemes.prime_designs
        getter = schemes.DesignContext.__dict__["get_hw_design"]
        tracer = spans.Tracer().install(
            [("outer", "repro.experiments.schemes", "prime_designs"),
             ("inner", "repro.experiments.schemes",
              "DesignContext.get_hw_design")])
        try:
            # A re-exported function is replaced under every name.
            assert repro.experiments.prime_designs is not prime
            ctx = schemes.DesignContext(spec=None, characterization=None,
                                        hw_design="designed")
            tracer.start()
            repro.experiments.prime_designs(
                ctx, [schemes.YUKTA_HW_SSV_OS_HEUR])
            tracer.stop()
        finally:
            tracer.uninstall()
        by_name = {s[1]: s for s in tracer.spans}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["inner"][4] == by_name["outer"][0]
        assert repro.experiments.prime_designs is prime
        assert schemes.DesignContext.__dict__["get_hw_design"] is getter


class TestPercentile:
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        assert spans.percentile(values, 0.9) == 90
        assert spans.percentile(values, 0.5) == 50
        with pytest.raises(ValueError):
            spans.percentile(values[:99], 0.9)
        with pytest.raises(ValueError):
            spans.percentile(list(range(999)), 0.99)
        assert spans.percentile(list(range(1, 1001)), 0.99) == 990

    def test_min_beyond_zero_allows_small_samples(self):
        assert spans.percentile([3.0, 1.0, 2.0], 0.9, 0) == 3.0


class FakeSpeed:
    def __init__(self, readings):
        self.readings = list(readings)

    def read(self):
        return self.readings.pop(0)


class TestClock:
    def test_work_and_latencies_divide_by_the_readings_around_them(
            self, monkeypatch):
        ticks = iter([0.0, 0.06, 0.12, 0.20, 0.25])
        monkeypatch.setattr(hostspeed.time, "perf_counter",
                            lambda: next(ticks))
        clock = hostspeed.Clock(FakeSpeed([1.0, 3.0, 2.0]), every=0.1)
        clock.start()                    # 0.00
        clock.op(0.05)
        clock.tick()                     # 0.06: too soon for a reading
        clock.op(0.05)
        clock.tick()                     # 0.12: reads 3.0, resumes at 0.20
        clock.stop()                     # 0.25
        clock.flush()                    # reads 2.0
        # 0.12 s at slowness (1+3)/2, then 0.05 s at (3+2)/2; the pause
        # for the reading (0.12-0.20) is not work.
        assert clock.raw == pytest.approx(0.17)
        assert clock.norm == pytest.approx(0.12 / 2.0 + 0.05 / 2.5)
        assert clock.latencies == pytest.approx([0.025, 0.025])
        assert clock.raw_latencies == [0.05, 0.05]

    def test_reading_is_kernel_time_over_the_reference(self, monkeypatch):
        times = iter([0.0, 0.002, 1.0, 1.003, 2.0, 2.004])
        monkeypatch.setattr(hostspeed.time, "perf_counter",
                            lambda: next(times))
        speed = hostspeed.HostSpeed()
        slowness = speed.read()  # the median of 2, 3 and 4 ms
        assert slowness == pytest.approx(0.003 / hostspeed.REFERENCE_S)
        assert speed.readings == [slowness]


def test_set_up_at_least_n_times_and_for_at_least_the_minimum():
    n, floor = workloads.N_SETUPS, workloads.SETUP_MIN_S
    assert workloads.more_setups([1.0] * (n - 1), 2 * floor, False)
    assert workloads.more_setups([1.0] * n, floor / 2, False)
    assert not workloads.more_setups([1.0] * n, floor, False)
    assert workloads.more_setups([], 0.0, True)
    assert not workloads.more_setups([1.0], 0.0, True)


class TestInputsFromSeed:
    def test_serve_stream_and_arrivals_repeat_for_equal_seed(self):
        a = workloads.ServeWorkload(7, False, "unused")
        b = workloads.ServeWorkload(7, False, "unused")
        c = workloads.ServeWorkload(8, False, "unused")
        assert (a.stream_a, a.stream_b, a.arrivals) == \
            (b.stream_a, b.stream_b, b.arrivals)
        assert (a.stream_a, a.arrivals) != (c.stream_a, c.arrivals)
        assert workloads.arrival_offsets(50, 100.0, a.arrivals) == \
            workloads.arrival_offsets(50, 100.0, b.arrivals)
        assert workloads.arrival_offsets(50, 100.0, a.arrivals) != \
            workloads.arrival_offsets(50, 100.0, c.arrivals)
        assert workloads.request_stream(50, a.stream_a, 0) == \
            workloads.request_stream(50, b.stream_a, 0)
        assert workloads.request_stream(50, a.stream_a, 0) != \
            workloads.request_stream(50, c.stream_a, 0)

    def test_serve_stream_holds_exact_shares_in_every_block(self):
        from repro.serve.loadgen import default_mix

        block = workloads.SERVE_BLOCK
        stream = workloads.request_stream(10 * block, 3, 100)
        seen, fresh = set(), []
        for k in range(0, len(stream), block):
            new = []
            for request in stream[k:k + block]:
                if request["seed"] not in seen:
                    seen.add(request["seed"])
                    new.append(request)
            assert len(new) == round(block * (1 - workloads.SERVE_DUPLICATES))
            fresh += new
        cells = [(r["scheme"], r["workload"]) for r in fresh]
        assert stream[0] in fresh
        assert {cells.count(c) for c in default_mix()} == \
            {len(fresh) // len(default_mix())}

    def test_campaign_units_repeat_for_equal_seed(self):
        for cls in (workloads.Matrix, workloads.Sweep,
                    workloads.RackWorkload):
            assert cls(3, False).units == cls(3, False).units
            assert cls(3, False).units != cls(4, False).units
        assert workloads.job_stream(11, 600.0) == \
            workloads.job_stream(11, 600.0)

    def test_rack_stream_is_preloaded_and_carries_every_program_twice(self):
        from repro.workloads.library import program_names

        horizon = workloads.RACK_HORIZON_S
        jobs = workloads.job_stream(5, horizon)
        programs = sorted(program_names("evaluation")) * workloads.RACK_PASSES
        assert sorted(j.workload.split("@")[0] for j in jobs) == \
            sorted(programs)
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals.count(0.0) == workloads.RACK_PRELOAD
        assert max(arrivals) < horizon
        # The arrivals after the preload offer RACK_LOAD of the rack.
        offered = ((len(jobs) - workloads.RACK_PRELOAD) * workloads.RACK_JOB_S
                   / (workloads.RACK_BOARDS * horizon))
        assert abs(offered - workloads.RACK_LOAD) < 0.05


def test_rack_load_sums_campaigns():
    one = {"elapsed": 10.0, "board_s": 60.0, "wait_s": 5.0,
           "queue_peak": 3, "admitted": 9, "completed": 6, "sla_misses": 1}
    two = dict(one, board_s=20.0, queue_peak=1)
    load = workloads.rack_load([one, two])
    assert load["busy_board_share"] == 80.0 / (workloads.RACK_BOARDS * 20.0)
    assert load["queue_depth_mean"] == 0.5
    assert load["queue_depth_peak"] == 3
    assert (load["jobs_admitted"], load["jobs_completed"],
            load["sla_misses"]) == (18, 12, 2)


def record(workload, seed, value, correct=True, failed=0, digest="d",
           serve=None):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    return {"workload": workload, "seed": seed, "trace": 0, "smoke": False,
            "correct": correct, "attempted": 100, "failed": failed,
            "metrics": metrics, "digests": {"unit": digest},
            "serve": serve}


def verdicts(parent, change, claims=()):
    rows, problems = compare.compare(parent, change, SPEC, claims)
    return {(w, n): v for w, n, _p, _c, v in rows}, problems


class TestCompare:
    def test_same_distribution_is_ok(self):
        parent = [record("matrix", s, 100 + s % 3) for s in range(10)]
        change = [record("matrix", s, 100 + (s + 1) % 3) for s in range(10)]
        result, problems = verdicts(parent, change)
        assert set(result.values()) == {"ok"} and not problems

    def test_worse_by_more_than_the_bound_is_a_regression(self):
        parent = [record("matrix", s, 100.0 + s * 0.01) for s in range(10)]
        change = [record("matrix", s, 200.0 + s * 0.01) for s in range(10)]
        result, problems = verdicts(parent, change)
        assert result[("matrix", "p50_ms")] == "REGRESSION"
        assert result[("matrix", "ops_per_s")] == "ok"  # higher is better
        assert problems

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [record("matrix", s, [50.0, 150.0][s % 2])
                  for s in range(10)]
        change = [record("matrix", s, 100.0) for s in range(10)]
        result, _ = verdicts(parent, change)
        assert result[("matrix", "p50_ms")] == "unresolved"

    def test_unresolved_spread_still_passes_when_change_always_better(self):
        parent = [record("matrix", s, [150.0, 250.0][s % 2])
                  for s in range(10)]
        change = [record("matrix", s, 100.0) for s in range(10)]
        result, _ = verdicts(parent, change)
        assert result[("matrix", "p50_ms")] == "ok"

    def test_claimed_gain_needs_nine_of_ten_pairs_and_a_clear_gap(self):
        parent = [record("matrix", s, 100.0 + s * 0.1) for s in range(10)]
        change = [record("matrix", s, 80.0 + s * 0.1) for s in range(10)]
        claim = [("p50_ms", "matrix")]
        result, problems = verdicts(parent, change, claim)
        assert result[("matrix", "p50_ms")] == "gain"
        assert not any("p50_ms" in p for p in problems)
        change[0] = record("matrix", 0, 120.0)
        change[1] = record("matrix", 1, 120.0)
        result, problems = verdicts(parent, change, claim)
        assert result[("matrix", "p50_ms")].startswith("claim not met")
        result, problems = verdicts(parent[:9], change[:9], claim)
        assert result[("matrix", "p50_ms")].startswith("claim not met")

    def test_rising_errors_and_changed_outputs_are_problems(self):
        parent = [record("rack", s, 100.0) for s in range(3)]
        change = [record("rack", s, 100.0, failed=1, digest="e")
                  for s in range(3)]
        _, problems = verdicts(parent, change)
        assert any("error_frac rose" in p for p in problems)
        assert any("simulated output changed" in p for p in problems)

    def test_late_generator_and_failed_checks_reject_runs(self, tmp_path):
        late = {"lateness_p99_ms": 9.0, "lateness_bound_ms": 5.0}
        runs = [record("serve", 1, 1.0, serve=late),
                record("serve", 2, 1.0, correct=False),
                record("serve", 3, 1.0)]
        for i, run in enumerate(runs):
            (tmp_path / f"serve-{i}.json").write_text(json.dumps(run))
        kept, rejected = compare.load(tmp_path)
        assert [r["seed"] for r in kept] == [3]
        assert len(rejected) == 2


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_benchmark_json_lists_every_layer_metric():
    names = [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for layer in spans.layer_names():
        assert f"{layer}.share" in names and f"{layer}.calls" in names


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_every_workload_has_the_result_schema(tmp_path, trace):
    code, lines = run_bench("--smoke", "--seconds", "1", "--trace", trace,
                            "--out", str(tmp_path))
    assert code == 0, lines[-20:]
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {f"{w}.{m['name']}": m["unit"]
                for w in workloads.WORKLOADS for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    for path in tmp_path.glob("*-t1-*[0-9].json"):
        result = json.loads(path.read_text())
        covered = (sum(v["self_s"] for v in result["layers"].values())
                   + result["metrics"]["unattributed_s"]["value"])
        wall = result["metrics"]["traced_wall_s"]["value"]
        assert abs(covered - wall) <= 0.02 * wall


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run_bench("--workload", "rack", "--seed", "1",
                            cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
