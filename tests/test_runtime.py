"""Fault-tolerant campaign execution: checkpoint/resume, supervision, chaos.

The chaos-smoke CI job runs this file with
``REPRO_CHAOS_ARTIFACT_DIR=chaos-artifacts``; the acceptance tests copy
their checkpoint directories there so a failing run uploads the journal
it was resuming from.
"""

import json
import os
import shutil
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache import MISS
from repro.runtime import (
    CellExecutionError,
    CellFailure,
    ChaosError,
    ChaosPolicy,
    CheckpointJournal,
    ExecutionPolicy,
    RetryPolicy,
    SupervisedPool,
    activate_policy,
    active_policy,
    corrupt_checkpoint_entry,
    deactivate_policy,
    supervised_map,
    task_key,
)

SCHEMES = ["coordinated-heuristic", "decoupled-heuristic"]
WORKLOADS = ["blackscholes", "gamess"]
MAX_TIME = 60.0

# Fast backoff so retry-path tests stay sub-second.
FAST = dict(backoff_base=0.01, backoff_max=0.05, jitter=0.0)


def _export_artifacts(src, name):
    """Copy a checkpoint directory into $REPRO_CHAOS_ARTIFACT_DIR (CI)."""
    root = os.environ.get("REPRO_CHAOS_ARTIFACT_DIR")
    if not root:
        return
    dest = os.path.join(root, name)
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(src, dest, dirs_exist_ok=True)


# ---------------------------------------------------------------------------
# Task fingerprints
# ---------------------------------------------------------------------------


def _fn_a(context, x):
    return x + 1


def _fn_b(context, x):
    return x + 2


class TestTaskKeys:
    CONTEXT = SimpleNamespace(char_fingerprint="abc123", overrides={})

    def test_same_cell_same_key(self):
        task = ("cell", ("coordinated-heuristic", "mcf", 7, 60.0, False))
        assert task_key(self.CONTEXT, task) == task_key(self.CONTEXT, task)

    def test_cell_parameters_differentiate(self):
        base = ("coordinated-heuristic", "mcf", 7, 60.0, False)
        keys = {
            task_key(self.CONTEXT, ("cell", base)),
            task_key(self.CONTEXT, ("cell", base[:2] + (8, 60.0, False))),
            task_key(self.CONTEXT, ("cell", base[:3] + (90.0, False))),
            task_key(self.CONTEXT, ("cell", base[:4] + (True,))),
        }
        assert len(keys) == 4

    def test_context_identity_differentiates(self):
        other = SimpleNamespace(char_fingerprint="def456", overrides={})
        task = ("cell", ("coordinated-heuristic", "mcf", 7, 60.0, False))
        assert task_key(self.CONTEXT, task) != task_key(other, task)

    def test_call_tasks_keyed_by_function_and_args(self):
        key_a1 = task_key(self.CONTEXT, ("call", (_fn_a, (1,), {})))
        key_a2 = task_key(self.CONTEXT, ("call", (_fn_a, (2,), {})))
        key_b1 = task_key(self.CONTEXT, ("call", (_fn_b, (1,), {})))
        assert len({key_a1, key_a2, key_b1}) == 3
        assert key_a1 == task_key(self.CONTEXT, ("call", (_fn_a, (1,), {})))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            task_key(self.CONTEXT, ("bogus", ()))


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------


class TestCheckpointJournal:
    KEY = "k" * 64

    def test_roundtrip_bit_exact(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        trace = np.random.default_rng(3).normal(size=257)
        journal.record(self.KEY, {"trace": trace, "energy": 1.0 / 3.0})
        reader = CheckpointJournal(tmp_path)
        value = reader.get(self.KEY)
        assert value["energy"] == 1.0 / 3.0
        assert value["trace"].dtype == trace.dtype
        assert np.array_equal(value["trace"], trace)
        assert reader.stats()["resumed"] == 1

    def test_missing_key_is_miss(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        assert journal.get("0" * 64) is MISS
        assert journal.index() == {}

    def test_last_record_wins(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record(self.KEY, "first")
        journal.record(self.KEY, "second")
        entries = journal.index()
        assert set(entries) == {self.KEY}
        assert journal.get(self.KEY, entries[self.KEY]["sha256"]) == "second"

    def test_torn_journal_tail_skipped(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record(self.KEY, "value", meta={"label": "cell-0"})
        with open(journal.journal_path, "a") as fh:
            fh.write('{"key": "torn-write-no-clos')  # killed mid-append
        entries = journal.index()
        assert set(entries) == {self.KEY}
        assert journal.get(self.KEY, entries[self.KEY]["sha256"]) == "value"

    def test_digest_mismatch_is_miss(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record(self.KEY, "value")
        sha = journal.index()[self.KEY]["sha256"]
        assert journal.get(self.KEY, "0" * 64) is MISS
        assert journal.get(self.KEY, sha) == "value"

    @pytest.mark.parametrize("mode", ["truncate", "garbage", "unlink"])
    def test_corruption_detected_as_miss(self, tmp_path, mode):
        journal = CheckpointJournal(tmp_path)
        journal.record(self.KEY, {"trace": np.arange(64.0)})
        sha = journal.index()[self.KEY]["sha256"]
        corrupt_checkpoint_entry(journal, self.KEY, mode=mode)
        reader = CheckpointJournal(tmp_path)
        assert reader.get(self.KEY, sha) is MISS
        assert reader.stats()["corrupt"] == 1

    def test_payload_written_before_journal_line(self, tmp_path):
        # Durability ordering: a key in the journal implies its payload
        # file exists (the converse — orphan payloads — is allowed).
        journal = CheckpointJournal(tmp_path)
        journal.record(self.KEY, "value")
        for key in journal.index():
            assert journal._cell_path(key).is_file()

    def test_atomic_payloads_leave_no_temp_files(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        for i in range(5):
            journal.record(f"{i:064d}", {"i": i})
        assert list(journal.cells_dir.glob("*.tmp")) == []

    def test_clear(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record(self.KEY, "value")
        assert journal.clear() == 1
        assert journal.index() == {}
        assert not journal.journal_path.exists()

    def test_resolve(self, tmp_path):
        assert CheckpointJournal.resolve(None) is None
        assert CheckpointJournal.resolve(False) is None
        journal = CheckpointJournal(tmp_path)
        assert CheckpointJournal.resolve(journal) is journal
        opened = CheckpointJournal.resolve(str(tmp_path))
        assert isinstance(opened, CheckpointJournal)
        assert opened.root == journal.root


# ---------------------------------------------------------------------------
# Chaos policy
# ---------------------------------------------------------------------------


class TestChaosPolicy:
    def test_scripted_error_fires_on_first_attempt_only(self):
        chaos = ChaosPolicy(error_cells=(2,))
        chaos.apply(1, 0, in_process=True)  # other cells untouched
        with pytest.raises(ChaosError):
            chaos.apply(2, 0, in_process=True)
        chaos.apply(2, 1, in_process=True)  # retry is clean
        assert chaos.injected == {"error": 1}

    def test_scripted_error_every_attempt_when_unrestricted(self):
        chaos = ChaosPolicy(error_cells=(0,), first_attempt_only=False)
        for attempt in range(3):
            with pytest.raises(ChaosError):
                chaos.apply(0, attempt, in_process=True)

    def test_in_process_kill_becomes_error(self):
        chaos = ChaosPolicy(kill_cells=(0,))
        with pytest.raises(ChaosError, match="simulated kill"):
            chaos.apply(0, 0, in_process=True)

    def test_probabilistic_draws_deterministic(self):
        a = ChaosPolicy(seed=5, error_prob=0.5)
        b = ChaosPolicy(seed=5, error_prob=0.5)
        verdicts = []
        for policy in (a, b):
            fired = []
            for index in range(32):
                try:
                    policy.apply(index, 0, in_process=True)
                except ChaosError:
                    fired.append(index)
            verdicts.append(fired)
        assert verdicts[0] == verdicts[1]
        assert 0 < len(verdicts[0]) < 32  # actually probabilistic

    def test_delay_is_benign(self):
        chaos = ChaosPolicy(delay_prob=1.0, delay_s=0.0)
        chaos.apply(0, 0, in_process=True)
        chaos.apply(0, 1, in_process=True)  # exempt from first_attempt_only
        assert chaos.injected["delay"] == 2


class TestRetryPolicy:
    def test_exponential_growth_saturates(self):
        policy = RetryPolicy(backoff_base=0.25, backoff_max=1.0, jitter=0.0)
        delays = [policy.delay(0, attempt) for attempt in range(6)]
        assert delays[:3] == [0.25, 0.5, 1.0]
        assert delays[3:] == [1.0, 1.0, 1.0]  # saturated at backoff_max

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.25)
        again = RetryPolicy(backoff_base=1.0, jitter=0.25)
        for attempt in range(4):
            delay = policy.delay(3, attempt)
            base = min(2.0 ** attempt, policy.backoff_max)
            assert base * 0.75 <= delay <= base * 1.25
            assert delay == again.delay(3, attempt)


# ---------------------------------------------------------------------------
# Supervised executor (call tasks: cheap, picklable)
# ---------------------------------------------------------------------------


def _square(context, x):
    return x * x


def _boom(context, x):
    raise RuntimeError(f"boom {x}")


def _nap(context, started, seconds):
    started.set()
    time.sleep(seconds)
    return seconds


def _touch_and_square(context, marker_dir, x):
    with open(os.path.join(marker_dir, "runs.log"), "a") as fh:
        fh.write(f"{x}\n")
    return x * x


class TestSupervisedMap:
    N = 6

    def _tasks(self):
        return [("call", (_square, (i,), {})) for i in range(self.N)]

    def test_chaos_error_retried_to_success(self, design_context):
        chaos = ChaosPolicy(error_cells=(1, 3))
        results = supervised_map(self._tasks(), design_context, jobs=2,
                                 retry=RetryPolicy(max_retries=2, **FAST),
                                 chaos=chaos)
        assert results == [i * i for i in range(self.N)]

    def test_survives_scripted_sigkills(self, design_context):
        chaos = ChaosPolicy(kill_cells=(0, 2, 4))
        results = supervised_map(self._tasks(), design_context, jobs=2,
                                 retry=RetryPolicy(max_retries=2, **FAST),
                                 chaos=chaos)
        assert results == [i * i for i in range(self.N)]

    def test_hang_detected_and_collected(self, design_context):
        chaos = ChaosPolicy(hang_cells=(1,), hang_s=20.0)
        t0 = time.monotonic()
        results = supervised_map(self._tasks(), design_context, jobs=2,
                                 cell_timeout=1.0,
                                 retry=RetryPolicy(max_retries=0),
                                 chaos=chaos, on_error="collect")
        assert time.monotonic() - t0 < 15.0  # killed, not waited out
        failure = results[1]
        assert isinstance(failure, CellFailure)
        assert failure.reason == "timeout"
        assert not failure.completed
        others = [results[i] for i in range(self.N) if i != 1]
        assert others == [i * i for i in range(self.N) if i != 1]

    def test_retry_exhaustion_collects_structured_failure(self,
                                                          design_context):
        chaos = ChaosPolicy(error_cells=(2,), first_attempt_only=False)
        results = supervised_map(self._tasks(), design_context, jobs=2,
                                 retry=RetryPolicy(max_retries=1, **FAST),
                                 chaos=chaos, on_error="collect")
        failure = results[2]
        assert isinstance(failure, CellFailure)
        assert failure.reason == "exception"
        assert failure.attempts == 2  # initial + 1 retry
        assert "ChaosError" in failure.error
        assert "failed after 2 attempt(s)" in failure.describe()

    def test_on_error_raise_propagates(self, design_context):
        chaos = ChaosPolicy(error_cells=(0,), first_attempt_only=False)
        with pytest.raises(CellExecutionError, match="ChaosError"):
            supervised_map(self._tasks(), design_context, jobs=2,
                           retry=RetryPolicy(max_retries=0),
                           chaos=chaos, on_error="raise")

    def test_progress_stays_task_ordered_under_chaos(self, design_context):
        chaos = ChaosPolicy(kill_cells=(3,), error_cells=(1,))
        seen = []
        supervised_map(self._tasks(), design_context, jobs=2,
                       retry=RetryPolicy(max_retries=2, **FAST),
                       chaos=chaos, progress=seen.append)
        assert seen == [i * i for i in range(self.N)]

    def test_serial_path_retries_in_process(self, design_context):
        chaos = ChaosPolicy(error_cells=(0, 5))
        results = supervised_map(self._tasks(), design_context, jobs=1,
                                 retry=RetryPolicy(max_retries=1, **FAST),
                                 chaos=chaos)
        assert results == [i * i for i in range(self.N)]

    def test_serial_path_collects_exhaustion(self, design_context):
        tasks = [("call", (_square, (0,), {})),
                 ("call", (_boom, (1,), {}))]
        results = supervised_map(tasks, design_context, jobs=1,
                                 retry=RetryPolicy(max_retries=1, **FAST),
                                 on_error="collect")
        assert results[0] == 0
        assert isinstance(results[1], CellFailure)
        assert results[1].attempts == 2

    def test_serial_path_raise_reraises_original(self, design_context):
        tasks = [("call", (_boom, (1,), {}))]
        with pytest.raises(RuntimeError, match="boom 1"):
            supervised_map(tasks, design_context, jobs=1,
                           retry=RetryPolicy(max_retries=0),
                           on_error="raise")


class TestSupervisedPool:
    @pytest.mark.parametrize("jobs", [0, 3])
    def test_racing_submitters_each_get_their_own_result(self,
                                                         design_context,
                                                         jobs):
        """Threads race to submit (3 workers > 2 cores, tiny switch
        interval): a lost update to the submission index would strand
        a cell, so every future must resolve to its own task's result."""
        import sys
        import threading

        futures = {}
        lock = threading.Lock()

        def _submit(pool, k):
            for i in range(20):
                x = 100 * k + i
                future = pool.submit(("call", (_square, (x,), {})))
                with lock:
                    futures[x] = future

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SupervisedPool(design_context, jobs=jobs) as pool:
                threads = [threading.Thread(target=_submit, args=(pool, k))
                           for k in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
                results = {x: f.result(timeout=60.0)
                           for x, f in futures.items()}
        finally:
            sys.setswitchinterval(interval)
        assert results == {x: x * x for x in futures}
        assert len(results) == 120

    def test_close_cancels_queued_work_and_rejects_more(self,
                                                        design_context):
        import threading

        started = threading.Event()
        pool = SupervisedPool(design_context, jobs=0)
        running = pool.submit(("call", (_nap, (started, 0.5), {})))
        queued = pool.submit(("call", (_square, (3,), {})))
        assert started.wait(5.0)
        pool.close()
        assert running.result(timeout=5.0) == 0.5
        assert queued.cancelled()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(("call", (_square, (4,), {})))


# ---------------------------------------------------------------------------
# Engine integration: checkpoint/resume + salvage through parallel_map
# ---------------------------------------------------------------------------


class TestEngineCheckpointing:
    def test_resume_skips_journaled_cells(self, design_context, tmp_path):
        from repro.experiments.engine import parallel_map

        marker = tmp_path / "markers"
        marker.mkdir()
        ckpt = tmp_path / "ckpt"
        tasks = [("call", (_touch_and_square, (str(marker), i), {}))
                 for i in range(4)]
        first = parallel_map(tasks, design_context, jobs=1, checkpoint=ckpt)
        assert first == [0, 1, 4, 9]
        log = (marker / "runs.log").read_text().splitlines()
        assert sorted(log) == ["0", "1", "2", "3"]

        resumed = parallel_map(tasks, design_context, jobs=1,
                               checkpoint=ckpt, resume=True)
        assert resumed == first
        # No cell re-executed: the marker log did not grow.
        assert (marker / "runs.log").read_text().splitlines() == log

    def test_resume_reruns_only_missing_cells(self, design_context,
                                              tmp_path):
        from repro.experiments.engine import parallel_map

        marker = tmp_path / "markers"
        marker.mkdir()
        ckpt = tmp_path / "ckpt"
        tasks = [("call", (_touch_and_square, (str(marker), i), {}))
                 for i in range(4)]
        parallel_map(tasks, design_context, jobs=1, checkpoint=ckpt)

        journal = CheckpointJournal(ckpt)
        victim = task_key(design_context, tasks[2])
        corrupt_checkpoint_entry(journal, victim, mode="garbage")

        resumed = parallel_map(tasks, design_context, jobs=1,
                               checkpoint=ckpt, resume=True)
        assert resumed == [0, 1, 4, 9]
        log = (marker / "runs.log").read_text().splitlines()
        assert log.count("2") == 2  # corrupted cell re-ran...
        assert len(log) == 5  # ...and nothing else did

    def test_resumed_cells_stream_in_task_order(self, design_context,
                                                tmp_path):
        from repro.experiments.engine import parallel_map

        tasks = [("call", (_square, (i,), {})) for i in range(4)]
        parallel_map(tasks, design_context, jobs=1,
                     checkpoint=tmp_path / "ckpt")
        seen = []
        parallel_map(tasks, design_context, jobs=1,
                     checkpoint=tmp_path / "ckpt", resume=True,
                     progress=seen.append)
        assert seen == [0, 1, 4, 9]


class TestPlainPoolSalvage:
    """Satellite fix: one raising cell must not discard completed siblings."""

    def test_collect_keeps_siblings(self, design_context):
        from repro.experiments.engine import parallel_map

        tasks = [("call", (_square, (0,), {})),
                 ("call", (_boom, (1,), {})),
                 ("call", (_square, (2,), {}))]
        results = parallel_map(tasks, design_context, jobs=2,
                               on_error="collect")
        assert results[0] == 0
        assert results[2] == 4
        failure = results[1]
        assert isinstance(failure, CellFailure)
        assert failure.reason == "exception"
        assert "boom 1" in failure.error

    def test_default_still_raises(self, design_context):
        from repro.experiments.engine import parallel_map

        tasks = [("call", (_boom, (1,), {}))]
        with pytest.raises(RuntimeError, match="boom 1"):
            parallel_map(tasks, design_context, jobs=1)

    def test_matrix_collects_failures(self, design_context, monkeypatch):
        from repro.experiments import engine
        from repro.experiments.engine import run_matrix

        real = engine.run_workload

        def sabotaged(scheme, workload, context, **kwargs):
            if workload == "gamess":
                raise RuntimeError("sabotaged cell")
            return real(scheme, workload, context, **kwargs)

        monkeypatch.setattr(engine, "run_workload", sabotaged)
        matrix = run_matrix(["coordinated-heuristic"], WORKLOADS,
                            design_context, max_time=MAX_TIME, jobs=1)
        good = matrix["blackscholes"]["coordinated-heuristic"]
        assert not isinstance(good, CellFailure)
        assert good.execution_time > 0
        bad = matrix["gamess"]["coordinated-heuristic"]
        assert isinstance(bad, CellFailure)
        assert "sabotaged cell" in bad.error


class TestExecutionPolicy:
    def test_activation_scoping(self):
        assert active_policy() is None
        policy = ExecutionPolicy(max_retries=1)
        try:
            assert activate_policy(policy) is policy
            assert active_policy() is policy
            assert policy.supervised
        finally:
            deactivate_policy()
        assert active_policy() is None

    def test_supervised_detection(self):
        assert not ExecutionPolicy().supervised
        assert not ExecutionPolicy(checkpoint_dir="x").supervised
        assert ExecutionPolicy(cell_timeout=1.0).supervised
        assert ExecutionPolicy(max_retries=3).supervised
        assert ExecutionPolicy(chaos=ChaosPolicy()).supervised

    def test_policy_checkpoint_flows_into_engine(self, design_context,
                                                 tmp_path):
        from repro.experiments.engine import parallel_map

        tasks = [("call", (_square, (i,), {})) for i in range(3)]
        activate_policy(ExecutionPolicy(checkpoint_dir=str(tmp_path)))
        try:
            parallel_map(tasks, design_context, jobs=1)
        finally:
            deactivate_policy()
        assert len(CheckpointJournal(tmp_path).index()) == 3

    def test_cli_resume_requires_checkpoint_dir(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["design", "--resume"])


# ---------------------------------------------------------------------------
# Acceptance: the chaos matrix
# ---------------------------------------------------------------------------


class TestChaosMatrix:
    """ISSUE 6 acceptance: a matrix surviving >= 3 worker SIGKILLs plus one
    corrupted checkpoint entry completes with every cell either a result
    or a structured CellFailure, and resumes bit-identically."""

    def test_matrix_survives_kills_and_corruption(self, design_context,
                                                  tmp_path):
        from repro.experiments.engine import run_matrix
        from repro.experiments.runner import run_scheme_matrix

        ckpt = tmp_path / "ckpt"
        try:
            reference = run_scheme_matrix(SCHEMES, WORKLOADS, design_context,
                                          max_time=MAX_TIME)

            chaos = ChaosPolicy(kill_cells=(0, 1, 2))  # 3 scripted SIGKILLs
            stormy = run_matrix(SCHEMES, WORKLOADS, design_context,
                                max_time=MAX_TIME, jobs=2,
                                checkpoint=ckpt, chaos=chaos,
                                backoff=RetryPolicy(max_retries=2, **FAST),
                                on_error="collect")
            for workload in WORKLOADS:
                for scheme in SCHEMES:
                    cell = stormy[workload][scheme]
                    assert (isinstance(cell, CellFailure)
                            or cell.execution_time > 0)

            # Retries absorbed every kill: bit-identical to the serial run.
            for workload in WORKLOADS:
                for scheme in SCHEMES:
                    a = reference[workload][scheme]
                    b = stormy[workload][scheme]
                    assert not isinstance(b, CellFailure)
                    assert a.execution_time == b.execution_time
                    assert a.energy == b.energy

            # Corrupt one journaled cell, then resume with no chaos: only
            # the corrupted cell re-runs, and the stitched matrix is still
            # bit-identical.
            journal = CheckpointJournal(ckpt)
            victim = sorted(journal.completed_keys())[0]
            corrupt_checkpoint_entry(journal, victim, mode="truncate")

            fresh = CheckpointJournal(ckpt)
            resumed = run_matrix(SCHEMES, WORKLOADS, design_context,
                                 max_time=MAX_TIME, jobs=1,
                                 checkpoint=fresh, resume=True)
            assert fresh.resumed == len(SCHEMES) * len(WORKLOADS) - 1
            assert fresh.corrupt >= 1
            for workload in WORKLOADS:
                for scheme in SCHEMES:
                    a = reference[workload][scheme]
                    b = resumed[workload][scheme]
                    assert a.execution_time == b.execution_time
                    assert a.energy == b.energy
                    assert np.array_equal(a.trace.get("times", []),
                                          b.trace.get("times", []))
        finally:
            _export_artifacts(ckpt, "chaos-matrix")

    def test_exhausted_matrix_cell_salvaged(self, design_context, tmp_path):
        from repro.experiments.engine import run_matrix

        ckpt = tmp_path / "ckpt"
        try:
            chaos = ChaosPolicy(error_cells=(1,), first_attempt_only=False)
            matrix = run_matrix(SCHEMES, ["blackscholes"], design_context,
                                max_time=MAX_TIME, jobs=2,
                                checkpoint=ckpt, chaos=chaos,
                                backoff=RetryPolicy(max_retries=1, **FAST),
                                on_error="collect")
            cells = [matrix["blackscholes"][s] for s in SCHEMES]
            good = [c for c in cells if not isinstance(c, CellFailure)]
            bad = [c for c in cells if isinstance(c, CellFailure)]
            assert len(good) == 1 and len(bad) == 1
            assert bad[0].attempts == 2
            # Failures are never journaled, so a later resume retries them.
            journal = CheckpointJournal(ckpt)
            assert len(journal.completed_keys()) == 1
        finally:
            _export_artifacts(ckpt, "chaos-exhaustion")


class TestTelemetryCounters:
    def test_retry_and_checkpoint_counters(self, design_context, tmp_path):
        from repro.experiments.engine import parallel_map
        from repro.telemetry import TelemetrySession, activate, deactivate

        session = activate(TelemetrySession(tmp_path / "tel"))
        try:
            tasks = [("call", (_square, (i,), {})) for i in range(3)]
            chaos = ChaosPolicy(error_cells=(0,))
            parallel_map(tasks, design_context, jobs=1,
                         checkpoint=tmp_path / "ckpt",
                         backoff=RetryPolicy(max_retries=1, **FAST),
                         chaos=chaos, on_error="collect")
            parallel_map(tasks, design_context, jobs=1,
                         checkpoint=tmp_path / "ckpt", resume=True)
            snap = session.registry.to_dict()
        finally:
            deactivate()
        retries = {
            v["labels"]["reason"]: v["value"]
            for v in snap["cell_retries_total"]["values"]
        }
        assert retries["exception"] == 1.0
        events = {
            v["labels"]["event"]: v["value"]
            for v in snap["checkpoint_cells_total"]["values"]
        }
        assert events["recorded"] == 3.0
        assert events["resumed"] == 3.0


class TestResumeOracle:
    def test_oracle_resume_passes(self, design_context, tmp_path):
        from repro.verify.oracles import oracle_resume

        result = oracle_resume(design_context, max_time=8.0, jobs=2,
                               checkpoint_dir=str(tmp_path))
        assert result.agree, result.render()
        assert result.max_ulp == 0
        assert result.details["interrupted_cells"] >= 1
        assert result.details["resumed_cells"] >= 1
