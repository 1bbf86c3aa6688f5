"""Differential oracles: implementation pairs that must agree.

Each oracle replays identical inputs through two implementations of the
same computation and reports the first divergence — step index, signal
name, both values, and the ULP distance between them:

* :func:`oracle_fastpath` — vectorized window stepping
  (:mod:`repro.board.fastpath`) vs scalar :meth:`Board.step`, under a
  randomized-but-legal actuation schedule.  Must be **bit-exact**.
* :func:`oracle_parallel_matrix` — the process-pool experiment engine vs
  the serial matrix loop.  Must be **bit-exact**.
* :func:`oracle_resume` — a matrix campaign interrupted mid-run (chaos
  harness) and then resumed from its checkpoint journal vs an
  uninterrupted serial run.  Must be **bit-exact**.
* :func:`oracle_cache` — a design context rebuilt from the persistent
  cache vs the same artifacts computed fresh.  Must be **bit-exact**
  (pickle round-trips preserve float bits).
* :func:`oracle_serve` — the control-plane service answering concurrent
  requests (coalescing, bank batching, JSON wire round-trip, warm result
  store) vs direct in-process :func:`run_workload` calls.  Must be
  **bit-exact** — JSON's shortest-round-trip float repr preserves every
  bit.
* :func:`oracle_serve_chaos` — the same burst on supervised worker
  processes with one worker SIGKILLed mid-bank-batch and retried.  Must
  be **bit-exact**.
* :func:`oracle_lqg_reference` — the production LQG synthesis
  (:mod:`repro.lqg.synthesis`, scipy Riccati solvers) vs an independent
  textbook fixed-point Riccati recursion.  Agrees within a documented
  tolerance (iterative vs direct solvers).

The oracles that run the same cells two ways — ``bank-matrix``,
``parallel``, ``resume`` and both serve bursts — compare them through one
:func:`compare_runs`, so they all check the same fields.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OracleResult",
    "ulp_distance",
    "compare_runs",
    "oracle_fastpath",
    "oracle_bank",
    "oracle_bank_matrix",
    "oracle_parallel_matrix",
    "oracle_resume",
    "oracle_cache",
    "oracle_serve",
    "oracle_serve_chaos",
    "oracle_lqg_reference",
]


def _ordered_bits(x):
    """Map a float64 onto the integers so ULP distance is subtraction."""
    (bits,) = struct.unpack("<q", struct.pack("<d", float(x)))
    return bits if bits >= 0 else (-0x8000000000000000) - bits


def ulp_distance(a, b):
    """Units-in-the-last-place distance between two float64 values.

    Identical values (including ``-0.0`` vs ``+0.0``) are 0 ULP apart;
    adjacent representable doubles are 1 apart.  A single NaN is
    infinitely far from everything; two NaNs count as equal.
    """
    a, b = float(a), float(b)
    if np.isnan(a) or np.isnan(b):
        return 0 if (np.isnan(a) and np.isnan(b)) else float("inf")
    return abs(_ordered_bits(a) - _ordered_bits(b))


@dataclass
class Divergence:
    """Where two implementations first disagreed."""

    step: object  # step index, or a (workload, scheme, field) locator
    signal: str
    value_a: float
    value_b: float
    ulp: float

    def __str__(self):
        return (
            f"first divergence at {self.step} signal {self.signal!r}: "
            f"{self.value_a!r} vs {self.value_b!r} ({self.ulp} ULP)"
        )


@dataclass
class OracleResult:
    """Outcome of one differential-oracle run."""

    name: str
    agree: bool
    compared: int  # scalar comparisons performed
    max_ulp: float = 0.0
    tolerance_ulp: float = 0.0  # 0 = bit-exactness required
    divergence: Divergence = None
    details: dict = field(default_factory=dict)

    def render(self):
        status = "OK" if self.agree else "FAIL"
        if self.tolerance_ulp != self.tolerance_ulp:  # NaN: relative tol
            tol = f"tol rtol={self.details.get('rtol', '?')}"
        elif self.tolerance_ulp == 0:
            tol = "bit-exact"
        else:
            tol = f"tol {self.tolerance_ulp:g} ULP"
        line = (
            f"oracle {self.name:18s} {status}  "
            f"({self.compared} comparisons, max {self.max_ulp:g} ULP, {tol})"
        )
        if self.divergence is not None:
            line += f"\n  {self.divergence}"
        return line


class _Comparator:
    """Accumulates comparisons, tracking the first and worst divergence."""

    def __init__(self, tolerance_ulp=0.0):
        self.tolerance_ulp = tolerance_ulp
        self.compared = 0
        self.max_ulp = 0.0
        self.first = None

    def check(self, step, signal, a, b):
        self.compared += 1
        ulp = ulp_distance(a, b)
        if ulp > self.max_ulp:
            self.max_ulp = ulp
        if ulp > self.tolerance_ulp and self.first is None:
            self.first = Divergence(step, signal, float(a), float(b), ulp)

    def mismatch(self, step, signal, a, b):
        """Record a disagreement that has no ULP distance (size, presence)."""
        self.compared += 1
        if self.first is None:
            self.first = Divergence(step, signal, float(a), float(b),
                                    float("inf"))

    def check_array(self, signal, a, b, step_offset=0):
        a = np.asarray(a, dtype=float).ravel()
        b = np.asarray(b, dtype=float).ravel()
        if a.size != b.size:
            self.mismatch(step_offset, signal, a.size, b.size)
            return
        if np.array_equal(a, b, equal_nan=True):
            # Equal arrays are 0 ULP apart element by element (-0.0 ==
            # +0.0 and NaN == NaN under ulp_distance too).
            self.compared += a.size
            return
        for i in range(a.size):
            self.check(step_offset + i, signal, a[i], b[i])

    def result(self, name, details=None):
        return OracleResult(
            name=name,
            agree=self.first is None,
            compared=self.compared,
            max_ulp=self.max_ulp,
            tolerance_ulp=self.tolerance_ulp,
            divergence=self.first,
            details=details or {},
        )


def compare_runs(cmp, cells, a, b):
    """Compare two runs of the same cells, field by field, into ``cmp``.

    ``cells`` are ``(workload, scheme)`` locators and ``a``/``b`` each
    cell's :class:`~repro.experiments.metrics.RunMetrics`, in the same
    order.  Checked: ``execution_time``, ``energy``, ``completed``, every
    trace signal, and every ``notes`` entry except ``"bank"`` (the bank
    runner's own lockstep counters, which the wire form drops too).  A
    ``b`` entry that is not a RunMetrics (a ``CellFailure``, a failed
    response) is a divergence at signal ``"cell"``.  Returns ``cmp``.
    """
    from ..experiments.metrics import RunMetrics

    for loc, ra, rb in zip(cells, a, b):
        if not isinstance(rb, RunMetrics):
            cmp.mismatch(loc, "cell", 1.0, 0.0)
            continue
        cmp.check(loc, "execution_time", ra.execution_time, rb.execution_time)
        cmp.check(loc, "energy", ra.energy, rb.energy)
        cmp.check(loc, "completed", float(ra.completed), float(rb.completed))
        for key in sorted((set(ra.notes) | set(rb.notes)) - {"bank"}):
            if key in ra.notes and key in rb.notes:
                cmp.check(loc, f"notes.{key}", float(ra.notes[key]),
                          float(rb.notes[key]))
            else:
                cmp.mismatch(loc, f"notes.{key}", key in ra.notes,
                             key in rb.notes)
        for signal in sorted(set(ra.trace) | set(rb.trace)):
            cmp.check_array(f"{loc[0]}/{loc[1]}/{signal}",
                            ra.trace.get(signal, ()), rb.trace.get(signal, ()))
    return cmp


def _compare_matrices(reference, other):
    """:func:`compare_runs` over two ``run_scheme_matrix`` results."""
    cells = [(w, s) for w, per_scheme in reference.items() for s in per_scheme]
    return compare_runs(_Comparator(), cells,
                        [reference[w][s] for w, s in cells],
                        [other[w][s] for w, s in cells])


# ---------------------------------------------------------------------------
# Oracle 1: fastpath vs scalar stepping
# ---------------------------------------------------------------------------
def _actuation_schedule(spec, periods, seed):
    """A deterministic, grid-legal actuation schedule for both boards."""
    rng = np.random.default_rng(seed)
    schedule = []
    for _ in range(periods):
        schedule.append({
            "freq_big": float(rng.choice(spec.big.freq_range.levels)),
            "freq_little": float(rng.choice(spec.little.freq_range.levels)),
            "cores_big": int(rng.integers(1, spec.big.n_cores + 1)),
            "cores_little": int(rng.integers(1, spec.little.n_cores + 1)),
            "placement": (
                float(rng.integers(0, 9)),
                float(rng.choice([1.0, 1.5, 2.0, 3.0])),
                float(rng.choice([1.0, 1.5, 2.0, 3.0])),
            ),
        })
    return schedule


def oracle_fastpath(spec=None, workload="blackscholes", seed=3, periods=40,
                    schedule_seed=11):
    """Replay one run through fastpath and scalar stepping; must be 0 ULP."""
    from ..board import BIG, LITTLE, Board, default_xu3_spec
    from ..workloads import make_application

    spec = spec or default_xu3_spec()
    period_steps = spec.period_steps()
    schedule = _actuation_schedule(spec, periods, schedule_seed)

    def _run(enable_fast_path):
        board = Board(make_application(workload), spec=spec, seed=seed,
                      record=True, telemetry=None)
        board.enable_fast_path = enable_fast_path
        for command in schedule:
            if board.done:
                break
            board.set_cluster_frequency(BIG, command["freq_big"])
            board.set_cluster_frequency(LITTLE, command["freq_little"])
            board.set_active_cores(BIG, command["cores_big"])
            board.set_active_cores(LITTLE, command["cores_little"])
            board.set_placement_knobs(*command["placement"])
            board.run_period(period_steps)
        return board

    fast = _run(True)
    scalar = _run(False)
    cmp = _Comparator(tolerance_ulp=0.0)
    cmp.check("final", "time", fast.time, scalar.time)
    cmp.check("final", "energy", fast.energy, scalar.energy)
    cmp.check("final", "temperature", fast.thermal.temperature,
              scalar.thermal.temperature)
    for name in (BIG, LITTLE):
        cmp.check("final", f"instructions_{name}",
                  fast.perf_counters[name].read_cumulative(),
                  scalar.perf_counters[name].read_cumulative())
        cmp.check("final", f"power_sensor_{name}",
                  fast.power_sensors[name].read(),
                  scalar.power_sensors[name].read())
    cmp.check("final", "temp_sensor", fast.temp_sensor.read(),
              scalar.temp_sensor.read())
    fast_trace = fast.trace.as_arrays()
    scalar_trace = scalar.trace.as_arrays()
    for signal in sorted(fast_trace):
        cmp.check_array(signal, fast_trace[signal], scalar_trace[signal])
    return cmp.result("fastpath-vs-scalar", details={
        "workload": workload, "periods": periods,
        "steps": len(fast_trace["times"]),
    })


# ---------------------------------------------------------------------------
# Oracle 1b: the lockstep board bank vs per-board stepping
# ---------------------------------------------------------------------------
def oracle_bank(spec=None, workloads=("blackscholes", "mcf", "fluidanimate",
                                      "gamess", "blackscholes@0.005"),
                seed0=3, periods=30, schedule_seed=11):
    """Replay one bank run against per-board ``run_period``; must be 0 ULP.

    Every board gets its own workload, seed, and actuation schedule.  The
    first divergence is located by (board, step, signal) with its ULP
    distance.  Workload names take an optional ``@<scale>`` suffix.

    Two lanes exist for coverage.  The short default ``@0.005`` program
    finishes within a few periods, which drives the window's Python
    crediting past the credit horizon and its membership guards.  An
    extra ``blmc`` mix lane starts above the thermal trip under a pinned
    maximum-frequency command, which drives the emergency state
    machine.  The oracle fails unless both kinds of in-window lane
    re-plan actually fired, unless a hotplug or migration stall tick ran
    in the vector window (the schedules re-actuate cores and placement
    every period), and unless the planner both found a placement again
    by identity and served a stall tick without a full re-plan.
    """
    from ..board import BIG, LITTLE, Board, BoardBank, default_xu3_spec
    from ..rack.rack import instantiate_job_workload

    spec = spec or default_xu3_spec()
    period_steps = spec.period_steps()
    workloads = list(workloads) + ["blmc"]
    n = len(workloads)
    schedules = [
        _actuation_schedule(spec, periods, schedule_seed + 13 * k)
        for k in range(n - 1)
    ]
    schedules.append([{
        "freq_big": spec.big.freq_range.high,
        "freq_little": spec.little.freq_range.high,
        "cores_big": spec.big.n_cores,
        "cores_little": spec.little.n_cores,
        "placement": (4.0, 2.0, 2.0),
    }] * periods)

    def _make_boards():
        boards = [
            Board(instantiate_job_workload(w), spec=spec, seed=seed0 + k,
                  record=True, telemetry=None)
            for k, w in enumerate(workloads)
        ]
        boards[-1].thermal.temperature = spec.emergency_temp_trip + 5.0
        return boards

    def _actuate(board, command):
        board.set_cluster_frequency(BIG, command["freq_big"])
        board.set_cluster_frequency(LITTLE, command["freq_little"])
        board.set_active_cores(BIG, command["cores_big"])
        board.set_active_cores(LITTLE, command["cores_little"])
        board.set_placement_knobs(*command["placement"])

    banked = _make_boards()
    bank = BoardBank(banked, telemetry=None)
    for p in range(periods):
        live = [k for k in range(n) if not banked[k].done]
        if not live:
            break
        for k in live:
            _actuate(banked[k], schedules[k][p])
        bank.run_period_bank(period_steps, only=live)

    reference = _make_boards()
    for k, board in enumerate(reference):
        for p in range(periods):
            if board.done:
                break
            _actuate(board, schedules[k][p])
            board.run_period(period_steps)

    cmp = _Comparator(tolerance_ulp=0.0)
    for k, (a, b) in enumerate(zip(banked, reference)):
        loc = f"board {k}"
        cmp.check(loc, "time", a.time, b.time)
        cmp.check(loc, "energy", a.energy, b.energy)
        cmp.check(loc, "temperature", a.thermal.temperature,
                  b.thermal.temperature)
        cmp.check(loc, "temp_sensor", a.temp_sensor.read(),
                  b.temp_sensor.read())
        for name in (BIG, LITTLE):
            cmp.check(loc, f"instructions_{name}",
                      a.perf_counters[name].read_cumulative(),
                      b.perf_counters[name].read_cumulative())
            cmp.check(loc, f"power_sensor_{name}",
                      a.power_sensors[name].read(),
                      b.power_sensors[name].read())
        cmp.check(loc, "emergency_trips", a.emergency.state.trip_count,
                  b.emergency.state.trip_count)
        trace_a = a.trace.as_arrays()
        trace_b = b.trace.as_arrays()
        for signal in sorted(trace_a):
            cmp.check_array(f"{loc}/{signal}", trace_a[signal],
                            trace_b[signal])
    # Agreement without coverage proves nothing: a run that never
    # re-plans a lane never exercises the emergency machine or the guards.
    events = bank.events
    cmp.check("coverage", "emergency_events_fired",
              float(events["emergency"] > 0), 1.0)
    cmp.check("coverage", "membership_events_fired",
              float(events["membership"] > 0), 1.0)
    cmp.check("coverage", "stall_ticks_in_window",
              float(events["stall_tick"] > 0), 1.0)
    # Plan reuse: a placement found again by identity after a placement
    # change, and a stall tick built from a known layout without a full
    # re-plan.
    plans = bank.plans
    cmp.check("coverage", "revisited_placement_reused",
              float(plans["revisit"] > 0), 1.0)
    cmp.check("coverage", "stall_ticks_without_full_replan",
              float(plans["stall"] > 0), 1.0)
    return cmp.result("bank-vs-scalar", details={
        "boards": n, "periods": periods,
        "counters": bank.counters(),
    })


def oracle_bank_matrix(context, schemes=None, workloads=None, seed=7,
                       max_time=10.0, batch=18):
    """Run the same matrix serially and banked (``--batch``); must be 0 ULP.

    The defaults put every scheme on three programs into one bank, so
    monolithic-LQG lanes ride it beside the layered ones, and three or
    more lanes share each SSV design and step as one stacked group
    (``core.controller.step_stacked``).  The oracle refuses to pass
    vacuously: it fails unless every banked cell carries the bank's
    ``notes["bank"]``, i.e. rode a bank rather than a one-cell task.
    """
    from ..experiments.engine import run_scheme_matrix
    from ..experiments.schemes import SCHEMES

    schemes = list(schemes or SCHEMES)
    workloads = list(workloads or ["blackscholes", "mcf", "gamess"])
    serial = run_scheme_matrix(schemes, workloads, context, seed=seed,
                               max_time=max_time, record=True, jobs=None)
    banked = run_scheme_matrix(schemes, workloads, context, seed=seed,
                               max_time=max_time, record=True, jobs=None,
                               batch=batch)
    cmp = _compare_matrices(serial, banked)
    unbanked = sum("bank" not in getattr(m, "notes", ())
                   for per_scheme in banked.values()
                   for m in per_scheme.values())
    cmp.check("coverage", "cells_outside_a_bank", float(unbanked), 0.0)
    return cmp.result("bank-matrix-vs-serial", details={
        "schemes": schemes, "workloads": workloads, "batch": batch,
        "unbanked": unbanked,
        "incomplete": sum(not m.completed for per_scheme in serial.values()
                          for m in per_scheme.values()),
    })


# ---------------------------------------------------------------------------
# Oracle 2: parallel engine vs serial matrix
# ---------------------------------------------------------------------------
def oracle_parallel_matrix(context, schemes=None, workloads=None, seed=7,
                           max_time=10.0, jobs=2):
    """Run the same matrix serially and through the pool; must be 0 ULP."""
    from ..experiments.engine import run_scheme_matrix

    schemes = list(schemes or ["coordinated-heuristic", "decoupled-heuristic"])
    workloads = list(workloads or ["blackscholes"])
    serial = run_scheme_matrix(schemes, workloads, context, seed=seed,
                               max_time=max_time, record=True, jobs=None)
    parallel = run_scheme_matrix(schemes, workloads, context, seed=seed,
                                 max_time=max_time, record=True, jobs=jobs)
    cmp = _compare_matrices(serial, parallel)
    return cmp.result("parallel-vs-serial", details={
        "schemes": schemes, "workloads": workloads, "jobs": jobs,
    })


# ---------------------------------------------------------------------------
# Oracle 2b: interrupted + resumed campaign vs uninterrupted serial
# ---------------------------------------------------------------------------
def oracle_resume(context, schemes=None, workloads=None, seed=7,
                  max_time=10.0, jobs=2, checkpoint_dir=None):
    """Interrupt a matrix mid-campaign, resume it, compare; must be 0 ULP.

    Pass 1 runs the matrix under a chaos policy that fails every other
    cell with no retry budget (``on_error="collect"``), leaving the
    checkpoint journal genuinely partial — the "interrupted" campaign.
    Pass 2 resumes against the same journal: completed cells come back
    from disk, missing cells run fresh.  The stitched result must match
    an uninterrupted serial run bit-exactly, and the oracle refuses to
    pass vacuously — it fails unless the interruption dropped at least
    one cell *and* the resume actually replayed journaled cells.
    """
    import tempfile

    from ..experiments.engine import run_matrix, run_scheme_matrix
    from ..runtime import (
        CellFailure,
        ChaosPolicy,
        CheckpointJournal,
        RetryPolicy,
    )

    schemes = list(schemes or ["coordinated-heuristic", "decoupled-heuristic"])
    workloads = list(workloads or ["blackscholes"])
    tmp = None
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-resume-oracle-")
        checkpoint_dir = tmp.name
    try:
        serial = run_scheme_matrix(schemes, workloads, context, seed=seed,
                                   max_time=max_time, record=True, jobs=None)
        n_cells = len(schemes) * len(workloads)
        journal = CheckpointJournal(checkpoint_dir)
        chaos = ChaosPolicy(error_cells=tuple(range(1, n_cells, 2)))
        interrupted = run_matrix(
            schemes, workloads, context, seed=seed, max_time=max_time,
            record=True, jobs=jobs, checkpoint=journal, chaos=chaos,
            backoff=RetryPolicy(max_retries=0), on_error="collect")
        dropped = sum(
            1 for per_scheme in interrupted.values()
            for cell in per_scheme.values() if isinstance(cell, CellFailure)
        )
        resumption = CheckpointJournal(checkpoint_dir)
        resumed = run_matrix(
            schemes, workloads, context, seed=seed, max_time=max_time,
            record=True, jobs=jobs, checkpoint=resumption, resume=True)
        cmp = _compare_matrices(serial, resumed)
        result = cmp.result("resume-vs-fresh", details={
            "schemes": schemes, "workloads": workloads, "jobs": jobs,
            "interrupted_cells": dropped,
            "resumed_cells": resumption.resumed,
        })
        if dropped == 0 or resumption.resumed == 0:
            result.agree = False  # the interruption/resume never happened
        return result
    finally:
        if tmp is not None:
            tmp.cleanup()


# ---------------------------------------------------------------------------
# Oracle 3: cached vs fresh synthesis
# ---------------------------------------------------------------------------
def _controller_matrices(controller):
    sm = getattr(controller, "state_machine", controller)
    return [np.asarray(sm.A), np.asarray(sm.B), np.asarray(sm.C),
            np.asarray(sm.D)]


def oracle_cache(cache_dir, samples=24, seed=321):
    """Build a context fresh, then again through the cache; must be 0 ULP."""
    from ..experiments.schemes import DesignContext

    fresh = DesignContext.create(samples_per_program=samples, seed=seed,
                                 cache=None)
    primed = DesignContext.create(samples_per_program=samples, seed=seed,
                                  cache=cache_dir)
    primed.get_lqg_hw()  # compute once, populating the cache
    cached = DesignContext.create(samples_per_program=samples, seed=seed,
                                  cache=cache_dir)
    cached.get_lqg_hw()  # must come back from disk
    cmp = _Comparator(tolerance_ulp=0.0)
    for label, attr in (("hw", "hw_data"), ("sw", "sw_data")):
        a = getattr(fresh.characterization, attr)
        b = getattr(cached.characterization, attr)
        cmp.check_array(f"characterization.{label}.inputs", a.inputs, b.inputs)
        cmp.check_array(f"characterization.{label}.outputs", a.outputs,
                        b.outputs)
    for i, (ma, mb) in enumerate(zip(
        _controller_matrices(fresh.get_lqg_hw()[0]),
        _controller_matrices(cached.lqg_hw[0]),
    )):
        cmp.check_array(f"lqg_hw.controller.{'ABCD'[i]}", ma, mb)
    return cmp.result("cache-vs-fresh", details={
        "samples": samples,
        "cache_hits": cached.cache.hits if cached.cache else 0,
        "cache_misses": cached.cache.misses if cached.cache else 0,
    })


# ---------------------------------------------------------------------------
# Oracle 3b: the control-plane service vs direct in-process execution
# ---------------------------------------------------------------------------
def oracle_serve(context, schemes=None, workloads=None, seed=7,
                 max_time=10.0, batch=3, cache_dir=None):
    """Answer a concurrent request burst through ``repro serve`` and
    compare every response against a direct :func:`run_workload` call;
    must be **0 ULP** across the JSON wire.

    The burst is fired from parallel client threads so the service's
    concurrent machinery genuinely engages: cells queue together, the
    batcher packs run cells from *different* requests into shared
    BoardBank lanes, and a duplicated request exercises the coalescing /
    result-store path.  Afterwards one cell is re-requested warm and must
    come back from the store bit-identical.  The oracle refuses to pass
    vacuously: it fails unless at least one response was answered without
    a fresh execution and at least one bank batch actually formed.
    """
    result, stats, _events = _serve_burst(
        "serve-vs-direct", context, schemes, workloads, seed, max_time,
        batch, cache_dir, jobs=0)
    sources = result.details["sources"]
    non_fresh = sources.get("coalesced", 0) + sources.get("cache", 0)
    if non_fresh == 0 or stats.get("bank_batches", 0) == 0:
        result.agree = False  # coalescing / batching never engaged
    return result


def oracle_serve_chaos(context, schemes=None, workloads=None, seed=7,
                       max_time=10.0, batch=3, cache_dir=None):
    """:func:`oracle_serve`'s burst on two supervised worker processes,
    with the first bank batch's worker SIGKILLed once (chaos) and
    ``max_retries=1``; must still be **0 ULP**.

    Fails unless the kill fired on a bank batch and that batch was
    retried: a killed worker must cost one retry, never a wrong or
    missing answer.
    """
    from ..runtime import (
        ChaosPolicy,
        ExecutionPolicy,
        activate_policy,
        active_policy,
    )

    saved = active_policy()
    activate_policy(ExecutionPolicy(
        max_retries=1, chaos=ChaosPolicy(kill_cells=(0,))))
    try:
        result, stats, events = _serve_burst(
            "serve-chaos-vs-direct", context, schemes, workloads, seed,
            max_time, batch, cache_dir, jobs=2)
    finally:
        activate_policy(saved)
    kills = [e for e in events
             if e["event"] == "cell.retried"
             and e.get("reason") == "worker-died"
             and str(e.get("label", "")).startswith("bank")]
    result.details["bank_kills_retried"] = len(kills)
    result.details["retries"] = stats.get("retries", 0)
    if not kills or stats.get("retries", 0) < 1:
        result.agree = False  # the scripted kill never hit a bank batch
    return result


def _serve_burst(name, context, schemes, workloads, seed, max_time, batch,
                 cache_dir, jobs):
    """Fire the serve oracles' burst; ``(result, /stats, events)``."""
    import tempfile
    import threading

    from ..experiments.runner import run_workload
    from ..obs.events import read_events
    from ..serve import ServeClient, serve_background
    from ..serve.protocol import metrics_from_wire

    schemes = list(schemes or ["coordinated-heuristic",
                               "decoupled-heuristic",
                               "yukta-hwssv-osheur"])
    workloads = list(workloads or ["blackscholes", "mcf"])
    cells = [(s, w) for s in schemes for w in workloads]

    direct = {
        (s, w): run_workload(s, w, context, seed=seed, max_time=max_time,
                             record=True)
        for s, w in cells
    }

    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-oracle-")
        cache_dir = tmp.name
    try:
        with serve_background(context, jobs=jobs, batch=batch,
                              batch_wait=0.25, cache=cache_dir) as handle:
            # The burst: every cell once, plus the first cell duplicated —
            # its twin must coalesce onto the in-flight execution (or hit
            # the store if it raced past completion; both are non-fresh).
            burst = cells + [cells[0]]
            responses = [None] * len(burst)

            def _fire(i, scheme, workload):
                request = {"kind": "run", "scheme": scheme,
                           "workload": workload, "seed": seed,
                           "max_time": max_time, "record": True}
                with ServeClient(handle.url, timeout=600.0) as client:
                    responses[i] = client.run(request, timeout=600.0)

            threads = [
                threading.Thread(target=_fire, args=(i, s, w), daemon=True)
                for i, (s, w) in enumerate(burst)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(600.0)

            with ServeClient(handle.url) as client:
                warm = client.run({"kind": "run", "scheme": cells[0][0],
                                   "workload": cells[0][1], "seed": seed,
                                   "max_time": max_time, "record": True})
                stats = client.stats()
            events, _skipped = read_events(handle.server.serve_dir)

        sources, served = {}, []
        checked = list(zip(burst, responses)) + [(cells[0], warm)]
        for _, response in checked:
            status = response.get("status", -1) \
                if isinstance(response, dict) else -1
            ok = status == 200
            source = response.get("source", "?") if ok else f"http {status}"
            sources[source] = sources.get(source, 0) + 1
            served.append(metrics_from_wire(response["result"]) if ok
                          else None)
        cmp = compare_runs(_Comparator(), [(w, s) for (s, w), _ in checked],
                           [direct[cell] for cell, _ in checked], served)
        serve_stats = stats if isinstance(stats, dict) else {}
        result = cmp.result(name, details={
            "schemes": schemes, "workloads": workloads, "batch": batch,
            "jobs": jobs, "sources": sources,
            "bank_batches": serve_stats.get("bank_batches", 0),
            "banked_cells": serve_stats.get("banked_cells", 0),
        })
        return result, serve_stats, events
    finally:
        if tmp is not None:
            tmp.cleanup()


# ---------------------------------------------------------------------------
# Oracle 4: LQG synthesis vs the textbook Riccati recursion
# ---------------------------------------------------------------------------
def _riccati_recursion(A, B, Q, R, iterations=20000, tol=1e-13):
    """Textbook DARE fixed point: P = Q + A'PA - A'PB (R+B'PB)^-1 B'PA."""
    P = Q.copy()
    for _ in range(iterations):
        BtP = B.T @ P
        gain = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ (A - B @ gain)
        P_next = 0.5 * (P_next + P_next.T)
        if np.max(np.abs(P_next - P)) <= tol * max(np.max(np.abs(P)), 1.0):
            return P_next
        P = P_next
    return P


def _reference_lqg_gains(model, n_u, output_weights, input_weights,
                         integral_weight=0.05, process_noise=1e-2,
                         measurement_noise=1e-2):
    """Independent re-derivation of the LQG gains by value iteration.

    Replicates the documented augmentation of
    :func:`repro.lqg.synthesis.lqg_synthesize` (leaky output-error
    integrators, weight construction) but solves both Riccati equations by
    the textbook recursion instead of scipy's direct solver.
    """
    A = np.asarray(model.A)
    B = np.asarray(model.B)[:, :n_u]
    C = np.asarray(model.C)
    n, n_y = A.shape[0], C.shape[0]
    output_weights = np.asarray(output_weights, dtype=float)
    input_weights = np.asarray(input_weights, dtype=float)
    rho = 0.985
    A_aug = np.block([[A, np.zeros((n, n_y))], [C, rho * np.eye(n_y)]])
    B_aug = np.vstack([B, np.asarray(model.D)[:, :n_u]])
    Q = np.block([
        [C.T @ np.diag(output_weights) @ C, np.zeros((n, n_y))],
        [np.zeros((n_y, n)), integral_weight * np.eye(n_y)],
    ]) + 1e-9 * np.eye(n + n_y)
    R = np.diag(input_weights**2) + 1e-9 * np.eye(n_u)
    P = _riccati_recursion(A_aug, B_aug, Q, R)
    K_full = np.linalg.solve(R + B_aug.T @ P @ B_aug, B_aug.T @ P @ A_aug)
    W = process_noise * np.eye(n)
    V = measurement_noise * np.eye(n_y)
    S = _riccati_recursion(A.T, C.T, W, V)
    L = S @ C.T @ np.linalg.inv(C @ S @ C.T + V)
    return K_full[:, :n], K_full[:, n:], L


def _default_lqg_model(seed=5, n=4, n_u=2, n_y=2, dt=0.5):
    from ..lti import StateSpace

    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.7 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
    return StateSpace(A, rng.normal(size=(n, n_u)),
                      rng.normal(size=(n_y, n)),
                      np.zeros((n_y, n_u)), dt=dt)


def oracle_lqg_reference(model=None, n_u=None, output_weights=None,
                         input_weights=None, rtol=1e-6):
    """Compare :func:`lqg_synthesize` gains against the textbook recursion.

    The production path uses scipy's direct DARE solver; the reference is
    a fixed-point value iteration, so agreement is within ``rtol``
    relative (documented tolerance), not bit-exact.
    """
    from ..lqg import lqg_synthesize

    if model is None:
        model = _default_lqg_model()
    n_u = n_u if n_u is not None else model.n_inputs
    output_weights = (
        output_weights if output_weights is not None
        else [1.0] * model.n_outputs
    )
    input_weights = (
        input_weights if input_weights is not None else [1.0] * n_u
    )
    result = lqg_synthesize(model, n_u=n_u, output_weights=output_weights,
                            input_weights=input_weights)
    K_x_ref, K_i_ref, L_ref = _reference_lqg_gains(
        model, n_u, output_weights, input_weights
    )
    # Express the tolerance in ULP relative to each matrix's scale so the
    # shared comparator machinery applies: |a-b| <= rtol*max(|a|,|b|,1).
    cmp = _Comparator(tolerance_ulp=0.0)
    worst_rel = 0.0
    first = None
    compared = 0
    for name, got, ref in (
        ("lqr_gain", result.lqr_gain, K_x_ref),
        ("integral_gain", result.integral_gain, K_i_ref),
        ("kalman_gain", result.kalman_gain, L_ref),
    ):
        got = np.asarray(got, dtype=float)
        ref = np.asarray(ref, dtype=float)
        for idx in np.ndindex(got.shape):
            compared += 1
            a, b = got[idx], ref[idx]
            rel = abs(a - b) / max(abs(a), abs(b), 1.0)
            cmp.check((name, idx), name, a, b)
            if rel > worst_rel:
                worst_rel = rel
            if rel > rtol and first is None:
                first = Divergence((name, idx), name, float(a), float(b),
                                   ulp_distance(a, b))
    return OracleResult(
        name="lqg-vs-textbook",
        agree=first is None and bool(result.closed_loop_stable),
        compared=compared,
        max_ulp=cmp.max_ulp,
        tolerance_ulp=float("nan"),  # tolerance is relative, not ULP
        divergence=first,
        details={"rtol": rtol, "worst_rel_error": worst_rel,
                 "closed_loop_stable": result.closed_loop_stable},
    )


# ---------------------------------------------------------------------------
# Rack oracles: the third layer on the bank vs on scalar boards
# ---------------------------------------------------------------------------
def oracle_rack(seed=3, max_time=120.0, n_boards=4):
    """Rack-on-BoardBank vs rack-on-scalar-boards; must be 0 ULP.

    One heterogeneous rack (mixed board specs), a job stream, and both
    fault kinds (a board dropping offline, a power sensor dropping out)
    run twice: once with the per-period bank underneath, once
    stepping each board through scalar ``run_period``.  Every rack trace
    signal, every per-board budget row, and every board's physical end
    state must agree to the bit.  Non-vacuity: the banked run must have
    stepped through the bank's vector kernel (vector_ticks > 0) in at most
    one bank call per rack period per tick group, the rack must actually
    be heterogeneous (≥ 2 distinct specs), and both faults must have
    fired.
    """
    from ..board.specs import BIG, LITTLE
    from ..rack import (
        JobSpec,
        Rack,
        RackBoardFault,
        SSVRackController,
        heterogeneous_rack_spec,
    )

    workloads = ("blackscholes@0.08", "mcf@0.1", "streamcluster@0.08",
                 "x264@0.08", "canneal@0.08", "bodytrack@0.1")
    jobs = tuple(
        JobSpec(name=f"j{i}", workload=workloads[i % len(workloads)],
                arrival=3.0 * i, sla=70.0)
        for i in range(6)
    )
    faults = (
        RackBoardFault(board=1, start=10.0, duration=14.0, kind="offline"),
        RackBoardFault(board=2, start=8.0, duration=10.0,
                       kind="power-sensor"),
    )
    spec = heterogeneous_rack_spec(n_boards=n_boards, jobs=jobs,
                                   faults=faults)

    bank_calls = []

    def _run(use_bank):
        rack = Rack(spec, controller=SSVRackController(spec),
                    use_bank=use_bank, record=True, record_boards=True,
                    seed=seed, telemetry=None)
        if rack.bank is not None:
            call = rack.bank.run_period_bank

            def counted(*args, **kw):
                bank_calls.append(1)
                return call(*args, **kw)
            rack.bank.run_period_bank = counted
        return rack, rack.run(max_time=max_time)

    rack_banked, banked = _run(True)
    rack_scalar, scalar = _run(False)

    cmp = _Comparator(tolerance_ulp=0.0)
    a_arrays = banked.trace.as_arrays()
    b_arrays = scalar.trace.as_arrays()
    for signal in sorted(a_arrays):
        cmp.check_array(f"rack/{signal}", a_arrays[signal],
                        b_arrays[signal])
    for k, (a, b) in enumerate(zip(rack_banked.boards, rack_scalar.boards)):
        loc = f"board {k}"
        cmp.check(loc, "time", a.time, b.time)
        cmp.check(loc, "energy", a.energy, b.energy)
        cmp.check(loc, "temperature", a.thermal.temperature,
                  b.thermal.temperature)
        for name in (BIG, LITTLE):
            cmp.check(loc, f"power_sensor_{name}",
                      a.power_sensors[name].read(),
                      b.power_sensors[name].read())
            cmp.check(loc, f"frequency_{name}",
                      a.clusters[name].frequency, b.clusters[name].frequency)
        trace_a = a.trace.as_arrays()
        trace_b = b.trace.as_arrays()
        for signal in sorted(trace_a):
            cmp.check_array(f"{loc}/{signal}", trace_a[signal],
                            trace_b[signal])
    cmp.check("rack", "jobs_completed", float(banked.jobs_completed),
              float(scalar.jobs_completed))
    cmp.check("rack", "sla_misses", float(banked.sla_misses),
              float(scalar.sla_misses))
    cmp.check("rack", "requeues", float(banked.requeues),
              float(scalar.requeues))

    # Agreement without coverage proves nothing.
    counters = banked.bank_counters or {}
    cmp.check("coverage", "vector_kernel_engaged",
              float(counters.get("vector_ticks", 0) > 0), 1.0)
    tick_groups = len({spec.board_periods(i) * b.period_steps()
                       for i, b in enumerate(spec.boards)})
    cmp.check("coverage", "one_bank_call_per_tick_group",
              float(len(bank_calls) <= banked.periods * tick_groups), 1.0)
    distinct_specs = len({id(b) for b in spec.boards})
    cmp.check("coverage", "heterogeneous_rack",
              float(distinct_specs >= 2), 1.0)
    cmp.check("coverage", "offline_fault_fired",
              float(banked.requeues > 0), 1.0)
    sensor_scalars = counters.get("events", {}).get("plan_refused", 0)
    cmp.check("coverage", "sensor_fault_forced_scalar",
              float(sensor_scalars > 0), 1.0)
    return cmp.result("rack-bank-vs-scalar", details={
        "boards": n_boards, "jobs": len(jobs),
        "distinct_specs": distinct_specs,
        "bank_calls": len(bank_calls),
        "counters": counters,
        "requeues": banked.requeues,
    })


def oracle_rack_resume(seed=5, max_time=200.0, jobs=2, checkpoint_dir=None):
    """Interrupt a rack campaign, resume it, compare; must be 0 ULP.

    The rack job-stream cells run as engine ``("call", ...)`` tasks under
    a chaos policy that fails every other cell with no retry budget,
    journaling the survivors (the PR 6 checkpoint machinery).  The resume
    pass must stitch journaled + fresh cells into results bit-identical
    to an uninterrupted serial run.  Non-vacuous: fails unless the chaos
    actually dropped at least one cell and the resume actually replayed
    journaled cells from disk.
    """
    import tempfile

    from ..experiments.engine import parallel_map
    from ..experiments.rack import CONTROLLERS, _stream_cell
    from ..runtime import (
        CellFailure,
        ChaosPolicy,
        CheckpointJournal,
        RetryPolicy,
    )

    tmp = None
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-rack-resume-")
        checkpoint_dir = tmp.name
    try:
        tasks = [
            ("call", (_stream_cell, (controller, 4, 6, True, True, seed,
                                     max_time), {}))
            for controller in CONTROLLERS
        ]
        fresh = parallel_map(tasks, None, jobs=None, prime=())
        journal = CheckpointJournal(checkpoint_dir)
        chaos = ChaosPolicy(error_cells=tuple(range(1, len(tasks), 2)))
        interrupted = parallel_map(
            tasks, None, jobs=jobs, prime=(), checkpoint=journal,
            chaos=chaos, backoff=RetryPolicy(max_retries=0),
            on_error="collect")
        dropped = sum(1 for cell in interrupted
                      if isinstance(cell, CellFailure))
        resumption = CheckpointJournal(checkpoint_dir)
        resumed = parallel_map(tasks, None, jobs=jobs, prime=(),
                               checkpoint=resumption, resume=True)
        cmp = _Comparator(tolerance_ulp=0.0)
        for controller, a, b in zip(CONTROLLERS, fresh, resumed):
            if isinstance(b, CellFailure):
                cmp.mismatch(controller, "cell", 1.0, 0.0)
                continue
            for key in sorted(a):
                if isinstance(a[key], str):
                    cmp.check(controller, key, float(a[key] == b[key]), 1.0)
                else:
                    cmp.check(controller, key, float(a[key]), float(b[key]))
        result = cmp.result("rack-resume-vs-fresh", details={
            "controllers": list(CONTROLLERS), "jobs": jobs,
            "interrupted_cells": dropped,
            "resumed_cells": resumption.resumed,
        })
        if dropped == 0 or resumption.resumed == 0:
            result.agree = False  # the interruption/resume never happened
        return result
    finally:
        if tmp is not None:
            tmp.cleanup()
