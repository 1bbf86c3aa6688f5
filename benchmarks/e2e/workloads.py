"""One benchmark workload in a fresh process: set up, warm up, time, check.

    PYTHONPATH=src python benchmarks/e2e/workloads.py --workload matrix \\
        --seed 1 --seconds 10 --trace 0 --work DIR [--smoke]

``run.py`` starts this once per workload, in a fresh interpreter with a
fresh ``REPRO_CACHE_DIR``, and reads the JSON object this prints as its
last line of standard output.  Every input -- cell seeds, rack job
streams, serve request and arrival streams -- derives from ``--seed``.

Untraced (``--trace 0``) the result carries the end-to-end metrics, every
timing host-normalized by readings of ``hostspeed.py`` taken between
units of work (campaigns: every CAL_EVERY_S of timed calls, on the one
CPU the run is pinned to; serve: between blocks of requests, on both
CPUs in the open loop and on the server's around set-up and in the closed
loop).  Traced (``--trace 1``) it carries the per-layer figures of one traced
set-up plus the timed units, each of which also runs once untraced as the
reference for the tracing overhead (serve, whose server has no untraced
twin, reports the direct cost of its wrapped calls instead).  Either way
the simulated outputs of every unit are digested and cross-checked
against a reference path after timing.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402

# An untraced run sets up N_SETUPS times, and more until SETUP_MIN_S raw
# seconds of set-up have passed; setup_s is the median of the set-ups.
N_SETUPS = 3
SETUP_MIN_S = 3.0
CAL_EVERY_S = 0.1  # timed seconds between two host-speed readings
# A run stops after RAW_CAP * --seconds of raw timed calls even when the
# host ran so slowly that fewer normalized seconds have passed.
RAW_CAP = 2.0
MIN_SAMPLES = 100  # latency samples, so that p90 has >= 10 beyond it
CHARACTERIZATION = dict(samples_per_program=120, seed=99)
MATRIX_SEEDS = 2
SWEEP_SEEDS = 4
SWEEP_BATCH = 28
RACK_BOARDS = 8
RACK_STREAMS = 8
RACK_LOAD = 0.9
RACK_SCALE = 0.06  # jobs are "<program>@0.06"
RACK_PASSES = 2  # every stream holds each evaluation program this often
# Mean simulated service time of one such job with all 8 boards busy,
# measured over the 14 evaluation programs, each equally often.
RACK_JOB_S = 13.2
# Jobs already queued at t=0: about RACK_LOAD * RACK_BOARDS, the boards a
# stream at that load keeps busy, so the rack starts near steady state.
RACK_PRELOAD = 7
# The other 2 * 14 - 7 = 21 jobs arrive at RACK_LOAD * 8 / RACK_JOB_S =
# 0.545 jobs/s, which spans 38.5 s; rounded to the 2 s rack period.
# A Rack must also stay short: its bank's lane cache gains about 4 entries
# per simulated second with every board busy and is cleared past 256, and
# BoardBank._fused_ub, keyed on id() of the dropped lane terms, can then
# hand a recycled id a stale no-trip bound -- banked results stop matching
# scalar stepping.  At 38 s the cache peaked at 176 entries.
RACK_HORIZON_S = 38.0
RACK_SLA_S = 20.0  # about 1.5 mean service times, so queued jobs can miss
SERVE_RATE = 100.0  # offered req/s in the open-loop phase
SERVE_DUPLICATES = 0.7
SERVE_MAX_TIME = 6.0
SERVE_CONNECTIONS = 2
SERVE_OPEN_SHARE = 0.7  # share of --seconds spent in the open loop
# Requests per open-loop block, between two host-speed readings; the
# request stream holds its exact share of repeats in every block.
SERVE_BLOCK = round(SERVE_RATE * CAL_EVERY_S)
SPIN_S = 0.002  # the load generator yields, not sleeps, this close to due
SERVE_CHECKS = 20  # served fingerprints re-run directly
# Generator lateness (enqueue minus due time) p99 above this makes a serve
# run invalid: the load generator, not the server, set the latency.
LATENESS_BOUND_MS = 5.0


def digest(obj):
    """Short SHA-256 of a JSON rendering (floats by exact repr)."""
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Window:
    """What one timed window measured and produced."""

    def __init__(self):
        self.wall = 0.0  # host seconds inside timed calls
        self.norm_wall = 0.0  # the same, host-normalized (hostspeed.py)
        self.sim_s = 0.0  # simulated board-seconds completed
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.latencies = []  # seconds per operation, host-normalized
        self.raw_latencies = []  # the same as timed
        self.clock = None  # hostspeed.Clock of an untraced window
        self.digests = {}  # unit id -> digest of its simulated output
        self.outputs = {}  # unit id -> the output itself
        self.requests = {}  # serve: fingerprint -> a request that had it
        self.conflicts = []  # unit ids whose output changed on a re-run
        self.banks = []  # BoardBank.counters() snapshots
        self.racks = []  # rack_campaign() of each rack campaign

    def record(self, unit_id, output):
        d = digest(output)
        if self.digests.get(unit_id, d) != d:
            self.conflicts.append(unit_id)
        self.digests[unit_id] = d
        self.outputs[unit_id] = output


def check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def common_digests_match(a, b):
    shared = sorted(set(a) & set(b))
    bad = [k for k in shared if a[k] != b[k]]
    return check("traced digests equal untraced", shared and not bad,
                 f"{len(shared)} shared units, {len(bad)} differ")


# ---------------------------------------------------------------------------
# Campaign workloads: matrix, sweep, rack (run inside this process)
# ---------------------------------------------------------------------------
class Matrix:
    """6 schemes x 14 programs x 2 seeds on the default serial path."""

    probe = None

    def __init__(self, seed, smoke):
        from repro.experiments import SCHEMES
        from repro.workloads.library import program_names

        rng = random.Random(f"matrix:{seed}")
        self.schemes = list(SCHEMES)
        self.programs = program_names("evaluation")[:1 if smoke else None]
        self.seeds = [rng.randrange(1, 2**31) for _ in range(MATRIX_SEEDS)]
        self.warm_seed = rng.randrange(1, 2**31)
        self.units = [(s, p) for s in self.seeds for p in self.programs]

    def setup(self):
        from repro.experiments import DesignContext, prime_designs

        ctx = DesignContext.create(**CHARACTERIZATION)
        prime_designs(ctx, self.schemes)
        return ctx

    def warmup(self, ctx):
        from repro.experiments import run_scheme_matrix

        run_scheme_matrix(self.schemes, self.programs[:1], ctx,
                          seed=self.warm_seed)

    def prepare(self, ctx, unit):
        return unit

    def run_unit(self, ctx, unit, win):
        from repro.experiments import run_scheme_matrix

        seed, program = unit
        last = time.perf_counter()

        def progress(_metrics):
            nonlocal last
            if win.clock is not None:
                win.clock.op(time.perf_counter() - last)
                win.clock.tick()
            last = time.perf_counter()

        return run_scheme_matrix(self.schemes, [program], ctx, seed=seed,
                                 progress=progress)

    def account(self, unit, out, win):
        seed, program = unit
        for scheme, m in out[program].items():
            account_cell(win, f"{scheme}:{program}:s{seed}", m)

    def checks(self, ctx, win):
        """Two matrix cells re-run with scalar stepping."""
        from repro.board import Board
        from repro.experiments import (MONOLITHIC_LQG, YUKTA_HW_SSV_OS_SSV,
                                       run_workload)

        seed, program = self.units[0]
        out = []
        for scheme in (YUKTA_HW_SSV_OS_SSV, MONOLITHIC_LQG):
            Board.enable_fast_path = False
            try:
                ref = run_workload(scheme, program, ctx, seed=seed,
                                   record=False)
            finally:
                Board.enable_fast_path = True
            unit_id = f"{scheme}:{program}:s{seed}"
            out.append(check(f"{unit_id} == scalar stepping",
                             win.outputs.get(unit_id) == cell_output(ref)))
        return out


def cell_output(m):
    return [m.execution_time, m.energy, m.completed]


def account_cell(win, unit_id, m):
    from repro.experiments import RunMetrics

    win.attempted += 1
    win.ops += 1
    if not isinstance(m, RunMetrics):
        win.failed += 1
        return
    win.sim_s += m.execution_time
    win.record(unit_id, cell_output(m))


class Sweep(Matrix):
    """The 4 layered schemes x 14 programs x 4 seeds, banked 28 at a time.

    Each unit is one ``run_scheme_matrix(batch=28)`` call over every other
    program (4 schemes x 7 programs = one full bank) for one seed.
    """

    probe = (("repro.experiments.bank_runner", "run_cells_banked"),
             ("repro.board.bank", "BoardBank.run_period_bank"))

    def __init__(self, seed, smoke):
        from repro.experiments.schemes import (COORDINATED_HEURISTIC,
                                               DECOUPLED_HEURISTIC,
                                               YUKTA_HW_SSV_OS_HEUR,
                                               YUKTA_HW_SSV_OS_SSV)
        from repro.workloads.library import program_names

        rng = random.Random(f"sweep:{seed}")
        self.schemes = [COORDINATED_HEURISTIC, DECOUPLED_HEURISTIC,
                        YUKTA_HW_SSV_OS_HEUR, YUKTA_HW_SSV_OS_SSV]
        programs = program_names("evaluation")
        # One bank per unit; the halves interleave the SPEC and PARSEC
        # programs so that both cost about the same.
        banks = len(self.schemes) * len(programs) // SWEEP_BATCH
        self.halves = [programs[:2]] if smoke else [
            programs[i::banks] for i in range(banks)]
        self.seeds = [rng.randrange(1, 2**31) for _ in range(SWEEP_SEEDS)]
        self.warm_seed = rng.randrange(1, 2**31)
        self.units = [(s, h) for s in self.seeds
                      for h in range(len(self.halves))]

    def warmup(self, ctx):
        from repro.experiments import run_scheme_matrix

        run_scheme_matrix(self.schemes, self.halves[0][:2], ctx,
                          seed=self.warm_seed, batch=SWEEP_BATCH)

    def run_unit(self, ctx, unit, win):
        from repro.experiments import run_scheme_matrix

        seed, half = unit
        return run_scheme_matrix(self.schemes, self.halves[half], ctx,
                                 seed=seed, batch=SWEEP_BATCH)

    def account(self, unit, out, win):
        seed, _half = unit
        first = True
        for program, per_scheme in out.items():
            for scheme, m in per_scheme.items():
                account_cell(win, f"{scheme}:{program}:s{seed}", m)
                if first and hasattr(m, "notes"):
                    win.banks.append(m.notes["bank"])
                    first = False

    def checks(self, ctx, win):
        """Four banked cells, one per scheme, re-run by run_workload."""
        from repro.experiments import run_workload

        seed, half = self.units[0]
        programs = self.halves[half]
        out = []
        for i, scheme in enumerate(self.schemes):
            program = programs[i % len(programs)]
            ref = run_workload(scheme, program, ctx, seed=seed, record=False)
            unit_id = f"{scheme}:{program}:s{seed}"
            out.append(check(f"{unit_id} banked == run_workload",
                             win.outputs.get(unit_id) == cell_output(ref)))
        return out


def job_stream(seed, horizon):
    """``<program>@0.06`` jobs at RACK_LOAD of the rack's capacity.

    Every stream holds each evaluation program RACK_PASSES times, so all
    streams carry the same work.  The seed shuffles the jobs; the first
    RACK_PRELOAD are queued at t=0 and the rest arrive at Poisson times
    over ``horizon`` (uniform order statistics: a Poisson process
    conditioned on its count).
    """
    from repro.rack import JobSpec
    from repro.workloads.library import program_names

    rng = random.Random(seed)
    names = list(program_names("evaluation")) * RACK_PASSES
    rng.shuffle(names)
    arrivals = [0.0] * RACK_PRELOAD + sorted(
        rng.uniform(0.0, horizon) for _ in names[RACK_PRELOAD:])
    return tuple(JobSpec(name=f"job{i}", workload=f"{name}@{RACK_SCALE}",
                         arrival=t, sla=RACK_SLA_S)
                 for i, (name, t) in enumerate(zip(names, arrivals)))


def rack_campaign(result):
    """The figures of one rack campaign that :func:`rack_load` sums."""
    wait_s, peak, edges = 0.0, 0, []
    for job in result.jobs:
        if job.spec.arrival < result.elapsed:
            left = (result.elapsed if job.dispatched_at is None
                    else job.dispatched_at)
            wait_s += left - job.spec.arrival
            edges += [(job.spec.arrival, 1), (left, -1)]
    depth = 0
    for _t, step in sorted(edges):
        depth += step
        peak = max(peak, depth)
    return {"step_wall": result.step_wall, "loop_wall": result.loop_wall,
            "elapsed": result.elapsed, "board_s": sum(result.board_time),
            "wait_s": wait_s, "queue_peak": peak,
            "admitted": result.jobs_admitted,
            "completed": result.jobs_completed,
            "sla_misses": result.sla_misses}


def rack_load(campaigns):
    """What the streams actually offered: busy-board share, queue depth
    (mean by Little's law, and peak) and job counts."""
    elapsed = sum(c["elapsed"] for c in campaigns)
    return {
        "busy_board_share": (sum(c["board_s"] for c in campaigns)
                             / (RACK_BOARDS * elapsed)),
        "queue_depth_mean": sum(c["wait_s"] for c in campaigns) / elapsed,
        "queue_depth_peak": max(c["queue_peak"] for c in campaigns),
        "jobs_admitted": sum(c["admitted"] for c in campaigns),
        "jobs_completed": sum(c["completed"] for c in campaigns),
        "sla_misses": sum(c["sla_misses"] for c in campaigns),
    }


class RackWorkload:
    """An 8-board heterogeneous rack serving 8 seeded job streams."""

    probe = (("repro.rack.rack", "Rack.run"),
             ("repro.rack.controllers", "SSVRackController.step"))

    def __init__(self, seed, smoke):
        import repro.rack  # noqa: F401  (so set-up times no imports)

        rng = random.Random(f"rack:{seed}")
        self.horizon = 10.0 if smoke else RACK_HORIZON_S
        self.units = [rng.randrange(1, 2**31) for _ in range(RACK_STREAMS)]
        self.warm_seed = rng.randrange(1, 2**31)
        self._first = None

    def _rack(self, stream_seed, horizon, use_bank=True):
        from repro.rack import Rack, heterogeneous_rack_spec

        spec = heterogeneous_rack_spec(
            n_boards=RACK_BOARDS, jobs=job_stream(stream_seed, horizon))
        return Rack(spec, seed=stream_seed, use_bank=use_bank)

    def setup(self):
        # Set-up is constructing a Rack; the first timed unit runs it.
        self._first = self._rack(self.units[0], self.horizon)
        return None

    def warmup(self, _state):
        self._rack(self.warm_seed, self.horizon).run(max_time=self.horizon)

    def prepare(self, _state, unit):
        if self._first is not None and unit == self.units[0]:
            rack, self._first = self._first, None
            return rack
        return self._rack(unit, self.horizon)

    def run_unit(self, _state, rack, win):
        return rack.run(max_time=self.horizon)

    def account(self, unit, result, win):
        win.attempted += result.jobs_admitted
        win.ops += result.periods
        win.sim_s += sum(result.board_time)
        win.banks.append(result.bank_counters)
        win.racks.append(rack_campaign(result))
        win.record(f"stream:s{unit}", rack_output(result))

    def checks(self, _state, win):
        """The first stream re-run on the scalar (unbanked) rack path."""
        ref = self._rack(self.units[0], self.horizon, use_bank=False)
        result = ref.run(max_time=self.horizon)
        unit_id = f"stream:s{self.units[0]}"
        return [check(f"{unit_id} banked == use_bank=False",
                      win.outputs.get(unit_id) == rack_output(result))]


def rack_output(result):
    return [result.energy, list(result.board_time), result.sla_misses,
            result.jobs_completed, result.jobs_admitted]


def run_timed(wl, state, unit, win, tracer=None):
    """One unit; only the program call itself counts toward ``win.wall``."""
    arg = wl.prepare(state, unit)
    if tracer is not None:
        tracer.start()
    t0 = time.perf_counter()
    out = wl.run_unit(state, arg, win)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.stop()
    win.wall += t1 - t0
    wl.account(unit, out, win)


def more_setups(samples, raw_s, smoke):
    """Whether a run with these set-ups so far should set up again."""
    if smoke:
        return not samples
    return len(samples) < N_SETUPS or raw_s < SETUP_MIN_S


def timed_setups(setup, speed, smoke):
    """Set-ups, each host-normalized by the readings around it; returns
    the last set-up's state and every normalized time."""
    samples, raw_s = [], 0.0
    before = speed.read()
    while more_setups(samples, raw_s, smoke):
        t0 = time.perf_counter()
        state = setup()
        raw = time.perf_counter() - t0
        after = speed.read()
        raw_s += raw
        samples.append(raw / ((before + after) / 2))
        before = after
    return state, samples


def timed_window(wl, state, seconds, min_samples, speed):
    """Run units in order, round-robin, until ``seconds`` of host-normalized
    timed calls and ``min_samples`` latencies.

    A :class:`hostspeed.Clock` reads the host speed every CAL_EVERY_S of
    work, between two operations.  Stopping on normalized time makes
    every run cover the same units however fast the host runs, so the mix
    behind a percentile does not change with it.
    """
    win = Window()
    clock = win.clock = hostspeed.Clock(speed, CAL_EVERY_S)
    probe = None
    if wl.probe is not None:
        probe = spans.PeriodProbe(*wl.probe).install(clock)
    try:
        i = 0
        while ((clock.norm < seconds and clock.raw < RAW_CAP * seconds)
               or len(clock.latencies) < min_samples):
            unit = wl.units[i % len(wl.units)]
            i += 1
            arg = wl.prepare(state, unit)
            clock.start()
            out = wl.run_unit(state, arg, win)
            clock.stop()
            wl.account(unit, out, win)
            clock.tick()
        clock.flush()
    finally:
        if probe is not None:
            probe.uninstall()
    if probe is not None:
        win.ops = probe.ticks  # control periods, not cells
    win.wall, win.norm_wall = clock.raw, clock.norm
    win.latencies, win.raw_latencies = clock.latencies, clock.raw_latencies
    return win


def traced_window(wl, state, seconds, tracer):
    """Run units in order, round-robin, each twice: untraced into a
    reference window, then traced.  The twins do identical work, so the
    ratio of their walls is the tracing overhead; they share the
    ``seconds`` of raw timed calls.  Returns ``(traced, reference)``."""
    win, ref = Window(), Window()
    i = 0
    while win.wall + ref.wall < seconds:
        unit = wl.units[i % len(wl.units)]
        i += 1
        run_timed(wl, state, unit, ref)
        tracer.install()
        try:
            run_timed(wl, state, unit, win, tracer)
        finally:
            tracer.uninstall()
    return win, ref


def run_campaign(wl, args):
    smoke = args.smoke
    result = {"checks": []}
    if not args.trace:
        # One CPU, so that the host-speed readings time the CPU the work
        # runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        speed = hostspeed.HostSpeed()
        state, samples = timed_setups(wl.setup, speed, smoke)
        wl.warmup(state)
        win = timed_window(wl, state, args.seconds,
                           0 if smoke else MIN_SAMPLES, speed)
        rss = peak_rss_mb()
        result["setup_samples"] = samples
        result["host_slowness"] = speed.readings
        result["metrics"] = end_to_end(win, statistics.median(samples), rss,
                                       0 if smoke else 10, result)
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.start()
            state = wl.setup()
            tracer.stop()
        finally:
            tracer.uninstall()
        wl.warmup(state)
        win, ref = traced_window(wl, state, args.seconds, tracer)
        result["checks"].append(common_digests_match(ref.digests,
                                                     win.digests))
        result.update(per_layer(tracer.spans, tracer.windows, win,
                                win.wall / ref.wall - 1.0))
        spans.dump(args.spans_out, tracer.spans, tracer.windows)
    result["checks"] += wl.checks(state, win)
    finish(result, win)
    return result


def end_to_end(win, setup_s, rss, min_beyond, result):
    try:
        p50 = spans.percentile(win.latencies, 0.5, min_beyond)
        p90 = spans.percentile(win.latencies, 0.9, min_beyond)
    except ValueError as exc:
        result["checks"].append(check("latency tail has 10 samples beyond",
                                      False, str(exc)))
        p50 = p90 = float("nan")
    result["latency_samples"] = len(win.latencies)
    result["timed_wall_s"] = win.wall
    result["normalized_wall_s"] = win.norm_wall
    if win.raw_latencies:
        # The same figures before host normalization, for the record.
        result["unnormalized"] = {
            "board_sim_s_per_s": win.sim_s / win.wall,
            "p50_ms": spans.percentile(win.raw_latencies, 0.5, 0) * 1e3,
            "p90_ms": spans.percentile(win.raw_latencies, 0.9, 0) * 1e3,
            "ops_per_s": win.ops / win.wall,
        }
    return {
        "setup_s": setup_s,
        "board_sim_s_per_s": win.sim_s / win.norm_wall,
        "p50_ms": p50 * 1e3,
        "p90_ms": p90 * 1e3,
        "ops_per_s": win.ops / win.norm_wall,
        "peak_rss_mb": rss,
    }


def per_layer(span_list, windows, win, overhead, hit_rate=0.0):
    layers, unattributed, wall = spans.attribute(span_list, windows)
    metrics = {}
    for name in spans.layer_names():
        entry = layers.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.share"] = entry["self_s"] / wall
    ticks = {"vector_ticks": 0, "scalar_ticks": 0, "fused_ticks": 0}
    events = 0
    for counters in win.banks:
        for key in ticks:
            ticks[key] += counters[key]
        events += sum(counters["events"].values())
    total = ticks["vector_ticks"] + ticks["scalar_ticks"]
    metrics["board.fused_tick_frac"] = (ticks["fused_ticks"] / total
                                        if total else 0.0)
    metrics["board.scalar_tick_frac"] = (ticks["scalar_ticks"] / total
                                         if total else 0.0)
    metrics["board.bank_events"] = events
    loop_wall = sum(c["loop_wall"] for c in win.racks)
    metrics["rack.step_share"] = (sum(c["step_wall"] for c in win.racks)
                                  / loop_wall if loop_wall else 0.0)
    metrics["serve.hit_rate"] = hit_rate
    metrics["unattributed_s"] = unattributed
    metrics["traced_wall_s"] = wall
    return {
        "metrics": metrics,
        "layers": {name: dict(layers[name], share=layers[name]["self_s"]
                              / wall) for name in sorted(layers)},
        "unattributed_share": unattributed / wall,
        "trace_overhead": overhead,
        "trace_overhead_method": "traced / untraced wall of twin units - 1",
    }


def finish(result, win):
    result["checks"].append(check(
        "every re-run unit reproduced its output", not win.conflicts,
        ", ".join(win.conflicts[:5])))
    result["attempted"] = win.attempted
    result["failed"] = win.failed
    result["digests"] = win.digests
    if win.racks:
        result["rack"] = rack_load(win.racks)


# ---------------------------------------------------------------------------
# serve: a `python -m repro serve` subprocess under a seeded request stream
# ---------------------------------------------------------------------------
def split_cpus():
    """``(client, server)`` CPU sets: with two or more CPUs the load
    generator gets one of its own and the server the rest, so that the two
    never compete for a core (sharing both cores nearly tripled the spread
    of closed-loop capacity).  ``(None, None)`` on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


class Server:
    """One spawned server; ``setup_s`` runs from spawn to warmed up."""

    LISTENING = re.compile(r"listening on (http://[\w.]+:(\d+))")

    def __init__(self, work, tag, spans_path=None, cpus=None):
        cache = Path(work) / f"{tag}-cache"
        serve_dir = Path(work) / f"{tag}-serve"
        cli = ["serve", "--port", "0", "--cache-dir", str(cache),
               "--serve-dir", str(serve_dir)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro"] + cli
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(spans_path)] + cli
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True,
                                     preexec_fn=pin)
        self.url = self.port = None
        for line in self.proc.stderr:
            match = self.LISTENING.search(line)
            if match:
                self.url, self.port = match.group(1), int(match.group(2))
                break
        if self.url is None:
            self.proc.wait(30)
            raise RuntimeError("server exited before listening")

    def warm(self, requests):
        """One request per scheme in the mix: pays lazy synthesis."""
        from repro.serve import ServeClient

        with ServeClient(self.url) as client:
            for request in requests:
                if client.run(request).get("status") != 200:
                    raise RuntimeError(f"warm-up request failed: {request}")
        self.warmed = time.perf_counter()
        return self.warmed - self.spawned

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stats(self):
        from repro.serve import ServeClient

        with ServeClient(self.url) as client:
            return client.stats()

    def stop(self):
        from repro.serve import ServeClient

        try:
            if self.proc.poll() is None:
                with ServeClient(self.url, timeout=10.0) as client:
                    client.shutdown()
            self.proc.communicate(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.communicate()


class Conn:
    """One keep-alive HTTP/1.1 connection driven from the event loop."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port):
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def post(self, body):
        """POST /run; returns ``(status, raw body, time fully received)``."""
        self.writer.write(b"POST /run HTTP/1.1\r\nHost: bench\r\n"
                          b"Content-Type: application/json\r\n"
                          b"Content-Length: %d\r\n\r\n" % len(body) + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        raw = await self.reader.readexactly(length)
        return status, raw, time.perf_counter()

    def close(self):
        self.writer.close()


def request_stream(n, seed, seed_base):
    """``n`` run requests, SERVE_DUPLICATES of them verbatim repeats.

    The shares are exact, not drawn: every SERVE_BLOCK consecutive
    requests hold the same number of fresh cells, at seeded positions,
    and fresh cells go through the loadgen's default 5-cell mix in
    seeded-shuffled rounds.  How many requests execute, and which cells,
    therefore does not vary with the seed.  A repeat copies a uniformly
    drawn earlier request, as ``repro.serve.generate_requests`` does.
    """
    from repro.serve.loadgen import default_mix

    rng = random.Random(f"stream:{seed}")
    fresh_per_block = round(SERVE_BLOCK * (1 - SERVE_DUPLICATES))
    stream, cells = [], []
    for k in range(0, n, SERVE_BLOCK):
        size = min(SERVE_BLOCK, n - k)
        fresh = sorted(rng.sample(range(size), min(fresh_per_block, size)))
        if k == 0:
            fresh[0] = 0  # nothing to repeat yet
        for i in range(size):
            if i not in fresh:
                stream.append(dict(stream[rng.randrange(len(stream))]))
                continue
            if not cells:
                cells = rng.sample(default_mix(), len(default_mix()))
            scheme, workload = cells.pop()
            stream.append({"kind": "run", "scheme": scheme,
                           "workload": workload,
                           "seed": seed_base + len(stream),
                           "max_time": SERVE_MAX_TIME, "record": False})
    return stream


def arrival_offsets(n, rate, seed):
    """Seeded exponential inter-arrival offsets (s) for ``n`` requests."""
    rng = random.Random(f"arrivals:{seed}")
    offsets, t = [], 0.0
    for _ in range(n):
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


class Sent:
    __slots__ = ("request", "due", "enqueued", "sent", "done", "status",
                 "body")


async def _post(conn, item, body):
    """Send one request; the response body stays raw until timing ends."""
    try:
        item.status, item.body, item.done = await conn.post(body)
    except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
        item.status, item.body, item.done = None, None, time.perf_counter()


async def open_block(conns, bodies, first, offsets):
    """Send ``bodies[first:]`` on schedule over ``conns``.

    Request ``first + i`` is due at ``offsets[i]``; it waits in the queue
    until a connection frees up.  Latency counts from the due time.
    """
    queue = asyncio.Queue()
    items = []
    start = time.perf_counter()

    async def generate():
        for i, offset in enumerate(offsets):
            item = Sent()
            item.request, item.due = first + i, start + offset
            # The event loop wakes up to a millisecond late, about half
            # the median latency: sleep until shortly before the due time,
            # then yield to the loop until it comes.
            delay = item.due - time.perf_counter() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while time.perf_counter() < item.due:
                await asyncio.sleep(0)
            item.enqueued = time.perf_counter()
            items.append(item)
            queue.put_nowait(item)
        for _ in conns:
            queue.put_nowait(None)

    async def send(conn):
        while (item := await queue.get()) is not None:
            item.sent = time.perf_counter()
            await _post(conn, item, bodies[item.request])

    await asyncio.gather(generate(), *(send(c) for c in conns))
    return items, start


async def closed_block(conns, bodies, first, seconds):
    """Each connection sends its next request, from ``bodies[first:]``,
    as soon as one returns, for ``seconds``."""
    items = []
    t0 = time.perf_counter()
    end = t0 + seconds

    async def send(conn):
        while time.perf_counter() < end and first + len(items) < len(bodies):
            item = Sent()
            item.request = first + len(items)
            item.due = item.enqueued = item.sent = time.perf_counter()
            items.append(item)
            await _post(conn, item, bodies[item.request])

    await asyncio.gather(*(send(c) for c in conns))
    return items, t0, time.perf_counter()


async def drive(port, open_reqs, offsets, closed_reqs, closed_s, speeds):
    """The open loop, then the closed loop until ``closed_s``
    host-normalized seconds, both in blocks of about CAL_EVERY_S.  Between
    two blocks, with nothing in flight, a :class:`hostspeed.Clock` may
    read the host speed: one clock per phase, reading ``speeds[0]`` in the
    open loop and ``speeds[1]`` in the closed loop."""
    open_bodies = [json.dumps(r).encode("utf-8") for r in open_reqs]
    closed_bodies = [json.dumps(r).encode("utf-8") for r in closed_reqs]
    conns = [await Conn.open(port) for _ in range(SERVE_CONNECTIONS)]
    out = {"open": [], "closed": [], "windows": [],
           "open_clock": hostspeed.Clock(speeds[0], CAL_EVERY_S),
           "closed_clock": hostspeed.Clock(speeds[1], CAL_EVERY_S)}
    try:
        clock = out["open_clock"]
        for k in range(0, len(open_bodies), SERVE_BLOCK):
            due = offsets[k:k + SERVE_BLOCK]
            clock.start()
            items, t0 = await open_block(conns, open_bodies, k,
                                         [t - due[0] for t in due])
            clock.stop()
            for item in items:
                clock.op(item.done - item.due)
            clock.tick()
            out["windows"].append((t0, max(item.done for item in items)))
            out["open"] += items
        clock.flush()
        clock = out["closed_clock"]
        while (clock.norm < closed_s and clock.raw < RAW_CAP * closed_s
               and len(out["closed"]) < len(closed_bodies)):
            clock.start()
            items, t0, t1 = await closed_block(
                conns, closed_bodies, len(out["closed"]),
                min(CAL_EVERY_S, closed_s))
            clock.stop()
            clock.tick()
            out["windows"].append((t0, t1))
            out["closed"] += items
        clock.flush()
    finally:
        for conn in conns:
            conn.close()
    return out


class ServeWorkload:
    def __init__(self, seed, smoke, work):
        from repro.serve.loadgen import default_mix

        rng = random.Random(f"serve:{seed}")
        self.work = work
        self.smoke = smoke
        self.spawns = 0
        per_scheme = {}
        for scheme, workload in default_mix():
            per_scheme.setdefault(scheme, workload)
        self.warm_requests = [
            {"kind": "run", "scheme": scheme, "workload": workload,
             "seed": i + 1, "max_time": SERVE_MAX_TIME}
            for i, (scheme, workload) in enumerate(per_scheme.items())]
        self.client_cpus, self.server_cpus = split_cpus()
        # Open-loop latency counts time on both CPUs, so it is normalized
        # by both; set-up and closed-loop capacity are the server's work,
        # normalized by its CPU alone.  Over 30 runs the quartile spread,
        # as a share of the median, was 0.05 for capacity (0.085 by both
        # CPUs, 0.20 unnormalized), 0.08 for p50 (0.10 by the server's CPU
        # or unnormalized) and 0.07 for p90 (0.04 unnormalized).
        if self.server_cpus is None:
            self.speed = self.server_speed = hostspeed.HostSpeed()
        else:
            self.speed = hostspeed.HostSpeed([self.client_cpus,
                                              self.server_cpus])
            self.server_speed = hostspeed.HostSpeed([self.server_cpus])
        self.stream_a = rng.randrange(2**31)
        self.stream_b = rng.randrange(2**31)
        self.arrivals = rng.randrange(2**31)

    def spawn(self, spans_path=None):
        """A warmed-up server and its host-normalized set-up time."""
        self.spawns += 1
        before = self.server_speed.read()
        server = Server(self.work, f"server{self.spawns}", spans_path,
                        self.server_cpus)
        try:
            raw = server.warm(self.warm_requests)
        except BaseException:
            server.stop()
            raise
        return server, raw / ((before + self.server_speed.read()) / 2)

    def phases(self, server, seconds):
        """Open loop at SERVE_RATE, then a closed loop; both timed."""
        n_open = 20 if self.smoke else max(
            round(SERVE_RATE * SERVE_OPEN_SHARE * seconds), MIN_SAMPLES)
        closed_s = 0.5 if self.smoke else (1 - SERVE_OPEN_SHARE) * seconds
        open_reqs = request_stream(n_open, self.stream_a, 10_000)
        closed_reqs = request_stream(int(3000 * closed_s) + 100,
                                     self.stream_b, 10_000_000)
        offsets = arrival_offsets(n_open, SERVE_RATE, self.arrivals)
        out = asyncio.run(drive(server.port, open_reqs, offsets,
                                closed_reqs, closed_s,
                                (self.speed, self.server_speed)))
        out["requests"] = {"open": open_reqs, "closed": closed_reqs}
        return out

    def measure(self, phases, win):
        """Fold both phases' responses into ``win``."""
        for name in ("open", "closed"):
            requests = phases["requests"][name]
            for item in phases[name]:
                win.attempted += 1
                if item.status != 200:
                    win.failed += 1
                    continue
                body = item.body = json.loads(item.body)
                win.record(body["fingerprint"], body["result"])
                win.requests[body["fingerprint"]] = requests[item.request]
        win.latencies = phases["open_clock"].latencies
        win.raw_latencies = phases["open_clock"].raw_latencies
        b_items = phases["closed"]
        win.wall = phases["closed_clock"].raw
        win.norm_wall = phases["closed_clock"].norm
        win.ops = sum(1 for item in b_items if item.status == 200)
        win.sim_s = sum(item.body["result"]["execution_time"]
                        for item in b_items
                        if item.status == 200
                        and item.body["source"] == "executed")

    def validity(self, phases):
        items = phases["open"]
        lateness = [(i.enqueued - i.due) * 1e3 for i in items]
        conn_wait = [(i.sent - i.enqueued) * 1e3 for i in items]
        return {
            "lateness_p99_ms": spans.percentile(lateness, 0.99, 0),
            "lateness_bound_ms": LATENESS_BOUND_MS,
            "conn_wait_p99_ms": spans.percentile(conn_wait, 0.99, 0),
            "offered_rps": SERVE_RATE,
            "open_requests": len(items),
            "client_cpus": sorted(self.client_cpus or ()),
            "server_cpus": sorted(self.server_cpus or ()),
        }

    def checks(self, win):
        """Served results against direct run_workload under the CLI's
        default context (``--samples 160 --seed 1234``)."""
        from repro.experiments import DesignContext, run_workload
        from repro.serve import metrics_to_wire, parse_request

        ctx = DesignContext.create(samples_per_program=160, seed=1234)
        out = []
        for fp in list(win.outputs)[:SERVE_CHECKS]:
            parsed = parse_request(win.requests[fp])
            direct = run_workload(parsed.scheme, parsed.workload, ctx,
                                  seed=parsed.seed,
                                  max_time=parsed.max_time,
                                  record=parsed.record)
            ok = (parsed.fingerprint(ctx) == fp
                  and metrics_to_wire(direct) == win.outputs[fp])
            out.append(check(f"served {fp[:12]} == run_workload", ok))
        if len(out) < (1 if self.smoke else SERVE_CHECKS):
            out.append(check("enough served cells to cross-check", False,
                             f"{len(out)} checked"))
        return out


def run_serve(wl, args):
    result = {"checks": []}
    if wl.client_cpus is not None:
        os.sched_setaffinity(0, wl.client_cpus)
    if not args.trace:
        samples, raw_s = [], 0.0
        server = None
        try:
            while more_setups(samples, raw_s, args.smoke):
                if server is not None:
                    server.stop()
                server, setup_s = wl.spawn()
                samples.append(setup_s)
                raw_s += server.warmed - server.spawned
            phases = wl.phases(server, args.seconds)
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        win = Window()
        wl.measure(phases, win)
        result["setup_samples"] = samples
        result["host_slowness"] = wl.speed.readings
        result["server_slowness"] = wl.server_speed.readings
        result["serve"] = wl.validity(phases)
        result["metrics"] = end_to_end(win, statistics.median(samples), rss,
                                       0 if args.smoke else 10, result)
    else:
        # Served results come from the traced server here, so the
        # run_workload cross-check below compares traced to untraced.
        spans_path = Path(args.work) / "server-spans.json"
        server, _ = wl.spawn(spans_path)
        try:
            phases = wl.phases(server, args.seconds)
            hit_rate = server.stats()["coalesce_hit_rate"]
        finally:
            server.stop()
        win = Window()
        wl.measure(phases, win)
        recorded = json.loads(spans_path.read_text())
        windows = [(server.spawned, server.warmed)] + phases["windows"]
        layers = per_layer(recorded["spans"], windows, win, None, hit_rate)
        # The server has no untraced twin to compare with, so this is the
        # direct cost only: wrapped calls times the cost of one, over the
        # time the server was not idle in select().
        wall = layers["metrics"]["traced_wall_s"]
        idle = layers["layers"].get(spans.IO_WAIT[0], {}).get("self_s", 0.0)
        calls = sum(entry["calls"] for entry in layers["layers"].values())
        layers["trace_overhead"] = calls * spans.call_cost() / (wall - idle)
        layers["trace_overhead_method"] = "direct cost estimate"
        result.update(layers)
        spans.dump(args.spans_out, recorded["spans"], windows)
        result["serve"] = wl.validity(phases)
    result["checks"] += wl.checks(win)
    finish(result, win)
    return result


CAMPAIGNS = {"matrix": Matrix, "sweep": Sweep, "rack": RackWorkload}
WORKLOADS = ("matrix", "sweep", "rack", "serve")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True,
                        help="scratch directory for caches and servers")
    parser.add_argument("--spans-out", default=None,
                        help="where a traced run writes its spans (JSON)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the plumbing, not speed")
    args = parser.parse_args(argv)
    import numpy

    if args.workload == "serve":
        result = run_serve(ServeWorkload(args.seed, args.smoke, args.work),
                           args)
    else:
        wl = CAMPAIGNS[args.workload](args.seed, args.smoke)
        result = run_campaign(wl, args)
    result["numpy"] = numpy.__version__
    result["python"] = sys.version.split()[0]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
