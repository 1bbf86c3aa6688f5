"""The experiment engine: every campaign's cells on one supervised pool.

The paper's evaluation is embarrassingly parallel — every (scheme ×
workload × seed) cell is an independent closed-loop simulation — but each
cell takes seconds, and the full matrix is hundreds of cells.  This module
runs every cell on the supervised worker pool
(:func:`repro.runtime.executor.supervised_map`), serial campaigns
included, with three properties:

* **Determinism** — the fully-primed :class:`DesignContext` is pickled once
  and shipped to every worker (workers never re-synthesize), and each cell
  carries its own explicit seed, so a parallel or banked run is
  *bit-identical* to the serial run of the same cells.
* **Ordered collection** — results are reassembled in task-submission
  order regardless of completion order.
* **Telemetry** — each worker process activates its own
  :class:`~repro.telemetry.TelemetrySession` under
  ``<telemetry_dir>/worker-<pid>/``; the per-worker directories are
  merged into one coherent parent directory
  (:func:`repro.telemetry.merge_worker_dirs`) when the pool closes, or,
  when a live session records into that directory, when it closes.

``jobs=None``, ``jobs=1`` or a single cell runs on the calling thread
against the live context (no pickling, no worker process), so every
caller can expose a ``--jobs`` knob without special-casing.
:func:`run_matrix` (also named ``run_scheme_matrix``) is the one matrix
path every figure, oracle and benchmark takes.

Fault tolerance (``repro.runtime``) rides on the same pool:
``checkpoint``/``resume`` journal completed cells and replay them on
restart; ``cell_timeout``/``max_retries``/``backoff``/``chaos`` arm the
supervisor's deadlines, retries and fault injection; a worker that dies
costs only the cell it was running; ``on_error="collect"`` (the matrix
default) turns a cell that ultimately fails into a structured
:class:`~repro.runtime.executor.CellFailure` in its result slot instead of
an exception that discards every completed sibling.  Unset knobs fall back
to the process-wide :class:`~repro.runtime.policy.ExecutionPolicy`
installed by the CLI (``--resume``, ``--cell-timeout``, ...).
"""

from __future__ import annotations

import os

from ..telemetry import active_session
from .runner import run_workload, workload_name

__all__ = [
    "parallel_map",
    "run_matrix",
    "run_scheme_matrix",
    "resolve_jobs",
    "execute_task",
]


def resolve_jobs(jobs):
    """Normalize a ``--jobs`` value: None/0 → serial, -1 → cpu count."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= -1:
        return max(os.cpu_count() or 1, 1)
    return max(jobs, 1)


def execute_task(context, task):
    """Execute one generic engine task against ``context``, in-process.

    ``task`` is ``(kind, payload)``: ``("cell", ...)`` runs one
    (scheme, workload) pair via :func:`run_workload`; ``("call", ...)``
    invokes an arbitrary module-level function with ``context`` prepended
    (used by the figure sweeps and the bank packer, whose cells are not
    plain run_workload calls).  This is the single execution semantics
    every runner shares — the supervised pool, in process and in its
    worker processes, under both the campaigns and the control-plane
    service (:mod:`repro.serve`), routes through it, which is what makes
    their results bit-identical.
    """
    kind, payload = task
    if kind == "cell":
        scheme, workload, seed, max_time, record = payload
        return run_workload(scheme, workload, context, seed=seed,
                            max_time=max_time, record=record)
    if kind == "call":
        fn, args, kwargs = payload
        return fn(context, *args, **kwargs)
    raise ValueError(f"unknown task kind {kind!r}")


def _task_label(task):
    """Human-readable cell identity for failure records and journal meta."""
    kind, payload = task
    if kind == "cell":
        scheme, workload, seed = payload[0], payload[1], payload[2]
        return f"{scheme}:{workload_name(workload)}:s{seed}"
    fn = payload[0]
    return f"call:{getattr(fn, '__qualname__', fn)}"


def parallel_map(tasks, context, jobs=None, telemetry_dir=None,
                 progress=None, prime=None, on_error=None, checkpoint=None,
                 resume=None, cell_timeout=None, max_retries=None,
                 backoff=None, chaos=None):
    """Run engine tasks on the supervised worker pool; ordered result list.

    ``tasks`` is a list of ``("cell", payload)`` / ``("call", payload)``
    tuples (see :func:`execute_task`).  Every cell not resumed from the
    journal runs through :func:`repro.runtime.supervised_map` on up to
    ``jobs`` worker processes; with ``jobs`` ≤ 1 (or one cell to run) it
    runs on the calling thread against ``context`` directly — same code
    path the workers execute, minus the pickling.  ``progress`` (if given)
    is called with each result *in task order*.  ``prime`` restricts
    pre-pool design priming to the named schemes (``None`` primes
    everything — safe for arbitrary ``("call", ...)`` tasks).
    ``telemetry_dir`` (default: the active telemetry session's directory)
    receives each worker's ``worker-<pid>/`` records.

    Fault-tolerance knobs (``None`` defers to the active
    :class:`~repro.runtime.policy.ExecutionPolicy`, if any):

    * ``checkpoint`` — a :class:`~repro.runtime.CheckpointJournal` or
      directory; completed cells are journaled as they finish.
    * ``resume`` — serve cells already in the journal from disk and run
      only the missing ones (bit-identical to an uninterrupted run).
    * ``on_error`` — ``"raise"`` (default: the first failure propagates,
      as the task's own exception in process or as a
      :class:`~repro.runtime.CellExecutionError` chained to the worker's
      traceback) or ``"collect"`` (a failed cell becomes a
      :class:`~repro.runtime.CellFailure` in its result slot and every
      sibling survives).
    * ``cell_timeout`` / ``max_retries`` / ``backoff`` / ``chaos`` — arm
      the pool's per-cell deadline (enforced on worker processes), retry
      budget (no retries when unset) and fault injection.
    """
    from ..cache import MISS
    from ..runtime import CellFailure, CheckpointJournal, task_key
    from ..runtime.executor import supervised_map
    from ..runtime.policy import ExecutionPolicy, active_policy

    tasks = list(tasks)
    for task in tasks:
        if task[0] not in ("cell", "call"):
            raise ValueError(f"unknown task kind {task[0]!r}")

    policy = active_policy()
    if policy is not None:
        if on_error is None:
            on_error = policy.on_error
        if checkpoint is None:
            checkpoint = policy.checkpoint_dir
        if resume is None:
            resume = policy.resume
        if cell_timeout is None:
            cell_timeout = policy.cell_timeout
        if max_retries is None:
            max_retries = policy.max_retries
        if backoff is None:
            backoff = policy.backoff
        if chaos is None:
            chaos = policy.chaos
    if on_error is None:
        on_error = "raise"

    jobs = resolve_jobs(jobs)
    n = len(tasks)
    session = active_session()
    if telemetry_dir is None and session is not None:
        telemetry_dir = session.out_dir

    # --- checkpoint/resume pre-pass --------------------------------------
    journal = CheckpointJournal.resolve(checkpoint)
    keys = None
    resumed = {}
    if journal is not None:
        keys = [task_key(context, task) for task in tasks]
        if resume:
            entries = journal.index()
            for i, key in enumerate(keys):
                entry = entries.get(key)
                if entry is None:
                    continue
                value = journal.get(key, entry.get("sha256"))
                if value is not MISS:
                    resumed[i] = value
            if session is not None:
                if resumed:
                    session.checkpoint_cells.labels(event="resumed").inc(
                        len(resumed))
                if journal.corrupt:
                    session.checkpoint_cells.labels(event="corrupt").inc(
                        journal.corrupt)

    # --- campaign event stream (repro.obs) -------------------------------
    # Written next to the checkpoint journal (or into the telemetry dir
    # when no journal is active); ``repro status`` / ``repro report`` read
    # it back.  No journal and no telemetry → no stream, no overhead.
    events = None
    events_root = None
    if journal is not None:
        events_root = journal.root
    elif session is not None and session.out_dir is not None:
        events_root = session.out_dir
    if events_root is not None:
        from ..obs.events import CampaignEvents, events_path

        events = CampaignEvents(events_path(events_root))
        events.emit("campaign.begin", cells=n, resumed=len(resumed),
                    jobs=jobs)
        for i in sorted(resumed):
            events.emit("cell.resumed", index=i, label=_task_label(tasks[i]))

    results = [None] * n
    done = [False] * n
    for i, value in resumed.items():
        results[i] = value
        done[i] = True
    todo = [i for i in range(n) if i not in resumed]

    delivered = [0]

    def _deliver():
        # Stream results to ``progress`` in task order, interleaving
        # journal-resumed cells with fresh completions.
        nonlocal events
        while delivered[0] < n and done[delivered[0]]:
            i = delivered[0]
            value = results[i]
            if progress is not None:
                progress(value)
            if events is not None and i not in resumed:
                if isinstance(value, CellFailure):
                    events.emit("cell.failed", index=i, label=value.label,
                                reason=value.reason, attempts=value.attempts,
                                error=value.error[:500])
                else:
                    events.emit("cell.completed", index=i,
                                label=_task_label(tasks[i]))
            delivered[0] += 1
        if delivered[0] == n and events is not None:
            # Every cell delivered: the run finished (a crashed/killed run
            # never reaches this, so the stream reads as in-flight).
            events.emit("campaign.end", cells=n, failed=sum(
                1 for r in results if isinstance(r, CellFailure)))
            events.close()
            # emit() after close() would reopen and duplicate the record;
            # drop the handle so trailing _deliver() calls are no-ops.
            events = None

    def _record(i, value):
        # Journal a fresh success (best-effort: checkpointing accelerates
        # recovery, it must never break a run).
        if journal is None:
            return
        try:
            journal.record(keys[i], value,
                           meta={"label": _task_label(tasks[i])})
        except Exception:
            return
        if session is not None:
            session.checkpoint_cells.labels(event="recorded").inc()
        if events is not None:
            events.emit("cell.checkpointed", index=i,
                        label=_task_label(tasks[i]))

    # --- execution: every fresh cell runs on the supervised pool ----------
    if todo:
        order = iter(todo)

        def _sub_progress(value):
            i = next(order)
            results[i] = value
            done[i] = True
            _deliver()

        retry = ExecutionPolicy(max_retries=max_retries,
                                backoff=backoff).retry_policy()
        supervised_map(
            [tasks[i] for i in todo], context, jobs=jobs,
            telemetry_dir=telemetry_dir, progress=_sub_progress,
            prime=prime, cell_timeout=cell_timeout, retry=retry,
            chaos=chaos, on_error=on_error,
            labels=[_task_label(tasks[i]) for i in todo],
            keys=[keys[i] for i in todo] if keys else None,
            indices=todo,
            on_result=lambda j, value: _record(todo[j], value),
            events=events,
        )
    _deliver()
    return results


def _bank_group(context, cells, max_time, record, on_error="raise"):
    """Engine task: run several cells as one board bank."""
    from .bank_runner import run_cells_banked

    return run_cells_banked(cells, context, max_time=max_time, record=record,
                            on_error=on_error)


def run_matrix(schemes, workloads, context, seed=7, max_time=600.0,
               record=False, progress=None, jobs=None, telemetry_dir=None,
               batch=None, on_error="collect", checkpoint=None, resume=None,
               cell_timeout=None, max_retries=None, backoff=None,
               chaos=None):
    """Run every (scheme, workload) cell; ``{workload: {scheme: metrics}}``.

    The one matrix path (also exported as ``run_scheme_matrix``): every
    cell runs through :func:`parallel_map`, on the calling thread with
    ``jobs`` ≤ 1 and on the supervised pool otherwise, with its own
    explicit seed.  The result dict is keyed by workload name (resolved
    up front, so empty scheme lists are safe) in (workload, scheme)
    order, and ``progress`` receives each cell's result once, in that
    order, as soon as the cell and every earlier one have finished.

    ``batch`` > 1 packs each run of up to that many consecutive cells,
    of any schemes, into one :class:`~repro.board.bank.BoardBank` per
    engine task, so the simulators advance in vectorized lockstep;
    otherwise each cell is one task.  Banking composes with ``jobs``:
    each bank is one task, fanned across the pool like any other.  Every
    route is bit-identical: same context, same per-cell seeds, and the
    bank's per-board exactness contract composes with per-cell
    independence (asserted by the ``bank-matrix-vs-serial`` and
    ``parallel-vs-serial`` oracles).

    Campaign cells default to ``on_error="collect"``: a raising cell lands
    in the result dict as a :class:`~repro.runtime.CellFailure` and its
    siblings complete.  The checkpoint/supervision knobs pass straight
    through to :func:`parallel_map`.
    """
    schemes = list(schemes)
    workloads = list(workloads)
    order = [
        (scheme, workload)
        for workload in workloads
        for scheme in schemes
    ]
    size = max(int(batch or 1), 1)
    # One engine task per chunk of consecutive cells, so that results
    # stream in cell order.
    chunks = [order[i:i + size] for i in range(0, len(order), size)]
    if size > 1:
        tasks = [("call", (_bank_group, (
            [(scheme, workload, seed) for scheme, workload in chunk],
            max_time, record,
        ), {"on_error": on_error})) for chunk in chunks]
    else:
        tasks = [("cell", (scheme, workload, seed, max_time, record))
                 for scheme, workload in order]
    sizes = iter(map(len, chunks))
    results = []

    def _collect(result):
        # A bank returns one result per cell; a failed task (bank or
        # plain) fills every cell it carried with its CellFailure.
        n = next(sizes)
        for value in result if isinstance(result, list) else [result] * n:
            results.append(value)
            if progress is not None:
                progress(value)

    parallel_map(tasks, context, jobs=jobs, telemetry_dir=telemetry_dir,
                 progress=_collect, prime=schemes, on_error=on_error,
                 checkpoint=checkpoint, resume=resume,
                 cell_timeout=cell_timeout, max_retries=max_retries,
                 backoff=backoff, chaos=chaos)
    it = iter(results)
    return {
        workload_name(workload): {scheme: next(it) for scheme in schemes}
        for workload in workloads
    }


run_scheme_matrix = run_matrix
