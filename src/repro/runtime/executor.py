"""Supervised worker pool: timeouts, retry with backoff, crash survival.

Every campaign task (:func:`repro.experiments.engine.parallel_map`) and
every ``repro serve`` request runs on :class:`SupervisedPool`.  A bare
process-pool executor breaks for good when one worker is SIGKILLed and
stalls forever on a hung cell; this pool instead runs the engine tasks
under a parent supervisor that treats worker failure as a first-class
input, mirroring the simulation-level NOMINAL→DEGRADED supervisor one
layer up:

* each worker is a dedicated process on its own duplex
  :func:`multiprocessing.Pipe` — no shared queue, so a worker killed
  mid-message can never poison a lock other workers need;
* the supervisor thread waits on pipes *and* process sentinels, so crashes
  and kills are detected immediately (busy or idle), the victim's cell is
  retried elsewhere, and a replacement worker is spawned on demand;
* per-cell wall-clock deadlines (``cell_timeout``) catch hangs: the wedged
  worker is killed outright and the cell counts as a timed-out attempt;
* failed attempts are re-queued with exponential backoff + deterministic
  jitter (:class:`RetryPolicy`); a cell that exhausts its budget becomes a
  structured :class:`CellFailure` — partial-result salvage — instead of an
  exception that discards every completed sibling.

The pool is long-lived: :meth:`SupervisedPool.submit` returns a
:class:`concurrent.futures.Future` per task, so the campaign engine
(:func:`supervised_map`, ordered delivery) and the control-plane service
(:mod:`repro.serve`, ``asyncio.wrap_future``) share one supervisor.
Per-worker telemetry directories are merged on :meth:`~SupervisedPool.close`.

With ``jobs=0`` the pool runs tasks on one in-process thread against the
live context (:func:`supervised_map` runs them on its calling thread),
with the same retry accounting; wall-clock deadlines need a killable
worker process, so ``cell_timeout`` is only enforced with worker
processes.
"""

from __future__ import annotations

import heapq
import os
import pickle
import queue
import random
import threading
import time
import traceback
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path

__all__ = [
    "CellFailure",
    "CellExecutionError",
    "RetryPolicy",
    "SupervisedPool",
    "supervised_map",
]

# Seconds a worker (or the in-process thread) gets to finish on close()
# before it is killed (or abandoned: a thread cannot be killed).
_JOIN_GRACE = 2.0


@dataclass
class CellFailure:
    """A cell that exhausted its retry budget, kept in the result set.

    Duck-types the failure-relevant corner of ``RunMetrics``
    (``completed`` is always ``False``) so matrix consumers can filter
    failures with one ``isinstance`` check while every sibling result
    survives.
    """

    index: int
    label: str
    reason: str  # "exception" | "timeout" | "worker-died"
    attempts: int
    error: str
    key: str = ""  # checkpoint task key, when checkpointing is active
    elapsed: float = 0.0

    completed = False  # class attribute: never a successful run

    def describe(self):
        return (f"cell {self.index} [{self.label}] failed after "
                f"{self.attempts} attempt(s): {self.reason}: {self.error}")


class CellExecutionError(RuntimeError):
    """Raised (``on_error="raise"``) when a cell exhausts its retries."""

    def __init__(self, failure):
        super().__init__(failure.describe())
        self.failure = failure


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Attempt ``k`` (0-based) that fails is re-queued after
    ``min(backoff_base * 2**k, backoff_max)`` seconds, scaled by a jitter
    factor drawn from ``random.Random(f"{seed}:{index}:{attempt}")`` — so
    two campaigns with the same seed back off identically, and concurrent
    retries of different cells de-synchronize.
    """

    max_retries: int = 2
    backoff_base: float = 0.25
    backoff_max: float = 8.0
    jitter: float = 0.25
    seed: int = 0

    def delay(self, index, attempt):
        base = min(self.backoff_base * (2.0 ** attempt), self.backoff_max)
        rng = random.Random(f"{self.seed}:{index}:{attempt}")
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as an error's cause."""


def _worker_main(worker_id, conn, context_blob, telemetry_dir, chaos_blob):
    """Supervised worker loop: recv (index, attempt, task), send verdicts.

    The worker holds the shared context and, with ``telemetry_dir``, its
    own telemetry session under ``worker-<pid>/``, flushed after every
    task: a killed worker runs no cleanup, so waiting for its shutdown
    would lose the telemetry.
    """
    from ..experiments import engine as _engine
    from ..telemetry import TelemetrySession, activate

    context = pickle.loads(context_blob)
    session = None
    if telemetry_dir is not None:
        out = os.path.join(telemetry_dir, f"worker-{os.getpid()}")
        session = activate(TelemetrySession(out))
    chaos = pickle.loads(chaos_blob) if chaos_blob is not None else None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            index, attempt, task = msg
            try:
                if chaos is not None:
                    chaos.apply(index, attempt)
                result = _engine.execute_task(context, task)
            except BaseException as exc:
                verdict = ("err", index, attempt,
                           f"{type(exc).__name__}: {exc}",
                           traceback.format_exc())
            else:
                verdict = ("ok", index, attempt, result, None)
            if session is not None:
                session.flush()
            try:
                conn.send(verdict)
            except Exception as exc:
                if verdict[0] == "err":
                    break
                # A result the pipe cannot carry is still a cell failure,
                # not a dead worker.
                try:
                    conn.send(("err", index, attempt,
                               f"unsendable result: "
                               f"{type(exc).__name__}: {exc}", None))
                except Exception:
                    break
    finally:
        if session is not None:
            session.close()


class _Cell:
    """One submitted task and the future its final verdict settles.

    ``seq`` is the submission number: the pool's own bookkeeping, chaos
    targeting and retry jitter key on it.  ``index`` is the number
    events and failures report — the campaign's cell index when the
    caller passes one (a resumed run submits only its missing cells),
    else ``seq``.
    """

    __slots__ = ("seq", "index", "task", "label", "key", "future", "started")

    def __init__(self, seq, task, label, key, index=None):
        self.seq = seq
        self.index = seq if index is None else index
        self.task = task
        self.label = label or f"task-{self.index}"
        self.key = key
        self.future = Future()
        self.started = None  # monotonic time of the first attempt


def _settle(future, value=None, exc=None):
    """Resolve ``future`` unless its owner already cancelled it."""
    try:
        if exc is None:
            future.set_result(value)
        else:
            future.set_exception(exc)
    except InvalidStateError:
        pass


class SupervisedPool:
    """A long-lived supervised pool; one future per submitted engine task.

    ``jobs`` > 0 runs tasks in up to that many worker processes, spawned
    on demand and replaced when one dies or is killed; ``jobs=0`` runs
    them one at a time on an in-process thread against the live
    ``context`` (no pickling, nothing to kill, so no ``cell_timeout``).

    Failed attempts are retried under ``retry`` (a :class:`RetryPolicy`,
    default 2 retries), with optional ``chaos`` injection
    (:class:`~repro.runtime.chaos.ChaosPolicy`, indexed by submission
    order).  A task that exhausts its budget resolves to a
    :class:`CellFailure` (``on_error="collect"``, the default); with
    ``on_error="raise"`` its future raises :class:`CellExecutionError`,
    whose cause is the worker's formatted traceback (the original
    exception, in process), and every other unfinished task is
    cancelled.  ``events`` (anything with ``emit(event, **fields)``)
    receives ``cell.started`` / ``cell.retried`` / ``cell.timeout`` from
    the supervisor thread.
    """

    def __init__(self, context, jobs=0, telemetry_dir=None, prime=None,
                 cell_timeout=None, retry=None, chaos=None,
                 on_error="collect", events=None):
        from ..telemetry import active_session

        self.context = context
        self.jobs = max(int(jobs), 0)
        self.cell_timeout = cell_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        self.on_error = on_error
        self.events = events
        self._session = active_session()
        self._tel_dir = (str(telemetry_dir) if telemetry_dir is not None
                         else None)
        self._inbox = queue.SimpleQueue()  # _Cell, or None once closed
        self._lock = threading.Lock()
        self._submitted = 0
        self._closed = False
        self._failed = False  # on_error="raise" and a task exhausted
        self._thread = None  # started by the first submit()
        if self.jobs:
            self._prepare_workers(prime)

    def _prepare_workers(self, prime):
        import multiprocessing as mp

        from ..experiments.schemes import prime_designs

        # Prime every lazy design before pickling so workers never
        # synthesize: bit-identical to the parent, and no per-process cost.
        prime_designs(self.context, prime)
        self._blob = pickle.dumps(self.context,
                                  protocol=pickle.HIGHEST_PROTOCOL)
        self._chaos_blob = (
            pickle.dumps(self.chaos, protocol=pickle.HIGHEST_PROTOCOL)
            if self.chaos is not None else None)
        self._mp = mp.get_context()
        # submit()/close() write a byte here to wake the supervisor's wait.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._cells = {}  # seq -> unsettled _Cell
        self._ready = []  # heap of (due time, seq, attempt)
        self._workers = {}  # wid -> (process, parent_conn)
        self._busy = {}  # wid -> (_Cell, attempt, deadline)
        self._idle = []
        self._next_wid = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def submit(self, task, label=None, key="", index=None):
        """Queue one engine task; returns its :class:`Future`.

        ``index`` is the number events and failures report for it
        (default: its submission number).
        """
        with self._lock:
            if self._thread is None and not self._closed:
                self._thread = threading.Thread(
                    target=self._supervise if self.jobs
                    else self._run_in_process,
                    daemon=True, name="repro-supervisor")
                self._thread.start()
            if self._closed or not self._thread.is_alive():
                raise RuntimeError("cannot submit to a closed SupervisedPool")
            cell = _Cell(self._submitted, task, label, key, index)
            self._submitted += 1
            self._inbox.put(cell)
        self._wake()
        return cell.future

    def close(self):
        """Cancel unfinished tasks, stop the workers, merge telemetry.

        Idempotent.  A worker still busy after ``_JOIN_GRACE`` seconds is
        killed; a running in-process task cannot be, so it is left to
        finish on its daemon thread.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._inbox.put(None)
        self._wake()
        if self._thread is not None:
            self._thread.join(None if self.jobs else _JOIN_GRACE)
        if self.jobs:
            os.close(self._wake_r)
            os.close(self._wake_w)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _wake(self):
        if self.jobs:
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # the pipe is full: a wake-up is already pending

    # ------------------------------------------------------------------
    # Bookkeeping shared by both modes
    # ------------------------------------------------------------------
    def _started(self, cell):
        if cell.started is None:
            cell.started = time.monotonic()
            if self.events is not None:
                self.events.emit("cell.started", index=cell.index,
                                 label=cell.label)

    def _retried(self, cell, attempt, reason):
        """Account one failed attempt that will retry; returns its delay."""
        if self._session is not None:
            self._session.cell_retries.labels(reason=reason).inc()
        if self.events is not None:
            self.events.emit("cell.retried", index=cell.index,
                             label=cell.label, reason=reason,
                             attempt=attempt)
        return self.retry.delay(cell.seq, attempt)

    def _exhausted(self, cell, attempt, reason, error):
        """Account a cell whose final attempt failed; its failure record."""
        if self._session is not None:
            self._session.cell_failures.labels(reason=reason).inc()
            if reason == "worker-died":
                self._session.dump_flight(
                    "worker-died",
                    extra={"cell": cell.index, "label": cell.label,
                           "error": error})
        return CellFailure(
            index=cell.index, label=cell.label, reason=reason,
            attempts=attempt + 1, error=error, key=cell.key,
            elapsed=time.monotonic() - cell.started)

    def _fail(self, cell, exc):
        """``on_error="raise"``: fail ``cell``, cancel every other task."""
        self._failed = True
        _settle(cell.future, exc=exc)
        if self.jobs:
            for other in self._cells.values():
                other.future.cancel()
            self._cells.clear()

    # ------------------------------------------------------------------
    # In-process mode (jobs=0)
    # ------------------------------------------------------------------
    def _run_in_process(self):
        while True:
            cell = self._inbox.get()
            if cell is None:
                return
            if self._closed or self._failed:
                cell.future.cancel()
                continue
            try:
                value = self._attempts_in_process(cell)
            except BaseException as exc:  # handed to the future's reader
                self._fail(cell, exc)
            else:
                _settle(cell.future, value)

    def _attempts_in_process(self, cell):
        """Run one cell here until it succeeds or exhausts its retries."""
        from ..experiments import engine as _engine

        self._started(cell)
        attempt = 0
        while True:
            try:
                if self.chaos is not None:
                    self.chaos.apply(cell.seq, attempt, in_process=True)
                return _engine.execute_task(self.context, cell.task)
            except Exception as exc:
                if attempt < self.retry.max_retries:
                    time.sleep(self._retried(cell, attempt, "exception"))
                    attempt += 1
                    continue
                if self.on_error == "raise":
                    raise
                return self._exhausted(cell, attempt, "exception",
                                       f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Worker-process mode (jobs > 0): the supervisor thread
    # ------------------------------------------------------------------
    def _supervise(self):
        try:
            while self._take_inbox():
                self._dispatch_due()
                self._wait()
                self._collect()
        except BaseException as exc:
            # E.g. a task that cannot be pickled: every caller sees the
            # error on its future instead of waiting forever.
            for cell in self._cells.values():
                _settle(cell.future, exc=exc)
            self._cells.clear()
            raise
        finally:
            self._shutdown_workers()

    def _take_inbox(self):
        """Move submitted cells onto the ready heap; False once closed."""
        while True:
            try:
                cell = self._inbox.get_nowait()
            except queue.Empty:
                return True
            if cell is None:
                return False
            if self._failed:
                cell.future.cancel()
                continue
            self._cells[cell.seq] = cell
            heapq.heappush(self._ready, (time.monotonic(), cell.seq, 0))

    def _spawn(self):
        parent_conn, child_conn = self._mp.Pipe()
        proc = self._mp.Process(
            target=_worker_main,
            args=(self._next_wid, child_conn, self._blob, self._tel_dir,
                  self._chaos_blob),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers[self._next_wid] = (proc, parent_conn)
        self._idle.append(self._next_wid)
        self._next_wid += 1

    def _retire(self, wid, reason):
        """Kill and reap one worker; a replacement spawns on demand."""
        proc, conn = self._workers.pop(wid)
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        try:
            conn.close()
        except OSError:
            pass
        if wid in self._idle:
            self._idle.remove(wid)
        if self._session is not None:
            self._session.worker_restarts.labels(reason=reason).inc()

    def _dispatch_due(self):
        """Send due cells to idle workers, spawning up to ``jobs``."""
        now = time.monotonic()
        while self._ready and self._ready[0][0] <= now:
            if not self._idle and len(self._workers) >= self.jobs:
                return
            _, seq, attempt = heapq.heappop(self._ready)
            cell = self._cells.get(seq)
            if cell is None:
                continue
            if cell.future.cancelled():  # its owner gave up on it
                del self._cells[seq]
                continue
            if not self._idle:
                self._spawn()
            wid = self._idle.pop()
            proc, conn = self._workers[wid]
            try:
                conn.send((seq, attempt, cell.task))
            except (BrokenPipeError, OSError):
                # Worker died while idle: replace it, requeue the cell
                # without burning an attempt.
                heapq.heappush(self._ready, (now, seq, attempt))
                self._retire(wid, "worker-died")
                continue
            self._busy[wid] = (cell, attempt,
                               now + self.cell_timeout
                               if self.cell_timeout else None)
            self._started(cell)

    def _wait(self):
        """Block until a verdict, a death, a deadline or a wake-up."""
        deadlines = [d for (_, _, d) in self._busy.values() if d is not None]
        if self._ready and (self._idle or len(self._workers) < self.jobs):
            deadlines.append(self._ready[0][0])  # next backed-off retry
        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic())
        wait_on = [self._wake_r]
        for wid, (proc, conn) in self._workers.items():
            wait_on.append(proc.sentinel)
            if wid in self._busy:
                wait_on.append(conn)
        if self._wake_r in _conn_wait(wait_on, timeout):
            try:
                os.read(self._wake_r, 4096)
            except BlockingIOError:
                pass

    def _collect(self):
        """Collect verdicts, detect deaths, enforce deadlines."""
        now = time.monotonic()
        for wid in list(self._workers):
            proc, conn = self._workers[wid]
            job = self._busy.get(wid)
            if job is None:
                if not proc.is_alive():
                    self._retire(wid, "worker-died")
                continue
            cell, attempt, deadline = job
            msg = None
            try:
                if conn.poll():
                    msg = conn.recv()
            except (EOFError, OSError):
                del self._busy[wid]
                self._worker_died(wid, cell.seq, attempt)
                continue
            if msg is not None:
                kind, m_index, m_attempt, payload, tb = msg
                del self._busy[wid]
                self._idle.append(wid)
                if kind == "ok":
                    cell = self._cells.pop(m_index, None)
                    if cell is not None:
                        _settle(cell.future, payload)
                else:
                    self._attempt_failed(m_index, m_attempt, "exception",
                                         payload, tb)
            elif not proc.is_alive():
                del self._busy[wid]
                self._worker_died(wid, cell.seq, attempt)
            elif deadline is not None and now >= deadline:
                del self._busy[wid]
                if self._session is not None:
                    self._session.cell_timeouts.inc()
                if self.events is not None:
                    self.events.emit("cell.timeout", index=cell.index,
                                     attempt=attempt)
                self._retire(wid, "timeout")
                self._attempt_failed(
                    cell.seq, attempt, "timeout",
                    f"cell exceeded cell_timeout={self.cell_timeout}s")

    def _worker_died(self, wid, seq, attempt):
        self._retire(wid, "worker-died")
        self._attempt_failed(seq, attempt, "worker-died",
                             "worker process died (crashed or killed)")

    def _attempt_failed(self, seq, attempt, reason, error, tb=None):
        cell = self._cells.get(seq)
        if cell is None:
            return  # settled or cancelled meanwhile
        if attempt < self.retry.max_retries:
            delay = self._retried(cell, attempt, reason)
            heapq.heappush(self._ready,
                           (time.monotonic() + delay, seq, attempt + 1))
            return
        del self._cells[seq]
        failure = self._exhausted(cell, attempt, reason, error)
        if self.on_error == "raise":
            exc = CellExecutionError(failure)
            if tb:
                # As concurrent.futures does: the worker's frames print
                # above the error as its cause.
                exc.__cause__ = _RemoteTraceback(tb)
            self._fail(cell, exc)
        else:
            _settle(cell.future, failure)

    def _shutdown_workers(self):
        for cell in self._cells.values():
            cell.future.cancel()
        self._cells.clear()
        for proc, conn in self._workers.values():
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        grace_ends = time.monotonic() + _JOIN_GRACE
        for proc, conn in self._workers.values():
            proc.join(timeout=max(grace_ends - time.monotonic(), 0.0))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
            try:
                conn.close()
            except OSError:
                pass
        self._workers.clear()
        owner = self._session
        if self._tel_dir is not None and (
                owner is None or owner.closed or owner.out_dir is None
                or owner.out_dir.resolve() != Path(self._tel_dir).resolve()):
            # A live session recording into the directory folds the
            # workers in when it closes; merging now would replace the
            # files it is still writing.
            from ..telemetry.merge import merge_worker_dirs

            merge_worker_dirs(self._tel_dir)


def supervised_map(tasks, context, jobs=None, telemetry_dir=None,
                   progress=None, prime=None, cell_timeout=None,
                   retry=None, chaos=None, on_error="collect",
                   labels=None, keys=None, indices=None, on_result=None,
                   events=None):
    """Run engine tasks on a :class:`SupervisedPool`; ordered result list.

    The pool under :func:`repro.experiments.engine.parallel_map`, which
    adds the checkpoint journal and the campaign event stream.  Fault
    tolerance: per-cell ``cell_timeout`` (seconds of wall-clock,
    enforced with ``jobs`` > 1), bounded ``retry`` (a :class:`RetryPolicy`,
    default 2 retries), optional ``chaos`` injection
    (:class:`~repro.runtime.chaos.ChaosPolicy`), and ``on_error`` handling:
    ``"collect"`` (default) places a :class:`CellFailure` in the result
    slot of a cell that exhausts retries, ``"raise"`` raises
    :class:`CellExecutionError` (or the original exception, serially).
    With ``jobs`` ≤ 1 or one task the cells run one at a time on the
    calling thread, with the same retry accounting.

    ``progress`` receives results in task order.  ``labels``/``keys``
    annotate failures, and ``indices`` numbers the tasks in events and
    failures (default: their position; chaos still targets positions);
    ``on_result(position, value)`` fires on each
    *successful* fresh result as it completes (the checkpoint hook).
    ``events`` (a :class:`~repro.obs.events.CampaignEvents`) receives
    ``cell.started`` / ``cell.retried`` / ``cell.timeout`` records as the
    supervisor makes those decisions.  Every callback runs on the calling
    thread; ``events`` may also be called from the supervisor thread.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    from ..experiments.engine import resolve_jobs

    tasks = list(tasks)
    workers = min(resolve_jobs(jobs), len(tasks))
    with SupervisedPool(context, jobs=workers if workers > 1 else 0,
                        telemetry_dir=telemetry_dir, prime=prime,
                        cell_timeout=cell_timeout, retry=retry, chaos=chaos,
                        on_error=on_error, events=events) as pool:
        if not pool.jobs:
            # The calling thread runs the cells: a fresh pool thread per
            # call would allocate them from a malloc arena of its own,
            # beside the caller's, and raise peak RSS.
            results = []
            for i, task in enumerate(tasks):
                value = pool._attempts_in_process(_Cell(
                    i, task, labels[i] if labels else None,
                    keys[i] if keys else "",
                    indices[i] if indices else None))  # raises under "raise"
                if on_result is not None and \
                        not isinstance(value, CellFailure):
                    on_result(i, value)
                if progress is not None:
                    progress(value)
                results.append(value)
            return results
        futures = [
            pool.submit(task, label=labels[i] if labels else None,
                        key=keys[i] if keys else "",
                        index=indices[i] if indices else None)
            for i, task in enumerate(tasks)
        ]
        index_of = {future: i for i, future in enumerate(futures)}
        finished = [False] * len(futures)
        pending = set(futures)
        delivered = 0
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for i in sorted(index_of[future] for future in done):
                if futures[i].cancelled():  # a sibling failed under "raise"
                    continue
                value = futures[i].result()  # raises under on_error="raise"
                if on_result is not None and \
                        not isinstance(value, CellFailure):
                    on_result(i, value)
                finished[i] = True
            while delivered < len(futures) and finished[delivered]:
                if progress is not None:
                    progress(futures[delivered].result())
                delivered += 1
        return [future.result() for future in futures]
