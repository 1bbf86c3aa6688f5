"""Benchmark: the perf tentpole — fast stepping, banking, cache, matrix.

Measures the optimizations this repo's experiment harness stacks and
records them in ``BENCH_perf.json``:

1. **Vectorized period stepping** — ``Board.run_period`` vs scalar
   ``Board.step`` on the same deterministic workload, in steps/sec.  The
   fast path must be >= 2x scalar (it hoists the per-tick placement,
   execution-rate, and power-constant computation out of the loop) while
   remaining bit-identical — equality of final time/energy/temperature is
   asserted here too.
2. **Board bank** — B=16 lockstep aggregate steps/s vs one fast-path
   board (floor: >= 4x).
3. **Banked characterization** — the full excitation campaign (24
   campaigns, heavy per-period hotplug/placement churn) banked vs
   scalar, bit-identical and >= 1.5x.
4. **Persistent design cache** — cold vs warm ``DesignContext.create`` +
   ``prime_designs`` wall-clock.  Warm must hit the cache for every
   artifact (characterization + all synthesized controllers).
5. **Matrix speedup** — a (schemes x workloads) sweep: the *baseline* is
   what the seed harness did (cold context, scalar stepping, serial); the
   *optimized* path is a warm cache + ``run_period`` + ``--jobs N``.  The
   quick CI mode shrinks the matrix but still asserts the stack wins.
6. **Controller bank** — µs per lane-step of the hardware SSV design,
   per-lane ``RuntimeController.step`` vs one ``step_stacked`` pass over
   L = 1, 7 and 14 lanes, bit-identical.  Recorded, no floor.
7. **SSV synthesis** — cold ``get_hw_design``/``get_sw_design`` seconds
   and ms per ``linf_norm_grid``/``mu_bounds_over_frequency`` call, the
   frequency sweeps inside the D-K iterations.  Recorded, no floor.
8. **Banked-period ledger** — µs per lane-period of one ``sweep``-shaped
   28-lane ``run_cells_banked`` bank, split layer by layer: bank
   planning, window set-up, tick loop, write-back, each control phase
   and the runner around them.  The parts add back to the
   uninstrumented total within 5 % (``adds_up``; a warning otherwise).
   Recorded, no floor.

Runs standalone (the CI perf-smoke job) as well as manually:

    PYTHONPATH=src python benchmarks/bench_perf.py [--quick] [--jobs N]
"""

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from pathlib import Path

MAX_SIM_TIME = 60.0  # fixed-work stepping run (workload never finishes)
CELL_MAX_TIME = 120.0  # per-cell cap for the matrix sweep


def _stepping_run(fast, sim_time=MAX_SIM_TIME):
    """One deterministic fixed-work run; returns (steps, seconds, board)."""
    from repro.board import Board, default_xu3_spec
    from repro.workloads import make_mix

    spec = default_xu3_spec()
    board = Board(make_mix("blmc"), spec, seed=13, record=False)
    board.enable_fast_path = fast
    period_steps = spec.period_steps()
    freqs = [1.6, 2.0, 1.2, 0.8, 1.8]
    steps = 0
    i = 0
    gc.disable()
    t0 = time.perf_counter()
    try:
        while not board.done and board.time < sim_time:
            board.set_cluster_frequency("big", freqs[i % len(freqs)])
            board.set_cluster_frequency(
                "little", round(1.0 + 0.2 * (i % 3), 1)
            )
            if fast:
                steps += board.run_period(period_steps)
            else:
                for _ in range(period_steps):
                    if board.done:
                        break
                    board.step()
                    steps += 1
            i += 1
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return steps, elapsed, board


STEPPING_FLOOR = 2.0  # run_period vs scalar Board.step


def _assert_same_progress(a, b, what):
    """Every application's progress and phase agree between two boards."""
    progress = [(app.completed_instructions, app.phase_index)
                for app in a.applications]
    assert progress == [(app.completed_instructions, app.phase_index)
                        for app in b.applications], f"{what} diverged"


def bench_stepping(reps=3):
    """Scalar vs fast-path steps/sec, with a bit-identity check.

    Both sides repeat ``reps`` times and keep their best time, as
    :func:`bench_bank` does, so the speedup floor measures the code
    rather than scheduler noise.
    """
    scalar_s = fast_s = float("inf")
    for _ in range(reps):
        scalar_steps, elapsed, scalar_board = _stepping_run(False)
        scalar_s = min(scalar_s, elapsed)
    for _ in range(reps):
        fast_steps, elapsed, fast_board = _stepping_run(True)
        fast_s = min(fast_s, elapsed)
    assert scalar_steps == fast_steps, "step counts diverged"
    assert scalar_board.time == fast_board.time, "board time diverged"
    assert scalar_board.energy == fast_board.energy, "energy diverged"
    assert (
        scalar_board.thermal.temperature == fast_board.thermal.temperature
    ), "temperature diverged"
    _assert_same_progress(scalar_board, fast_board, "application progress")
    return {
        "steps": scalar_steps,
        "scalar_steps_per_sec": scalar_steps / scalar_s,
        "fast_steps_per_sec": fast_steps / fast_s,
        "speedup": scalar_s / fast_s,
        "floor": STEPPING_FLOOR,
    }


BANK_BOARDS = 16  # the bank width the speedup floor is pinned at
BANK_FLOOR = 4.0  # bank aggregate vs one single-board fast path


def _bank_actuate(board, p):
    """The shared per-period DVFS schedule (snapped to the platform grid)."""
    board.set_cluster_frequency("big", 0.8 + 0.1 * (p % 5))
    board.set_cluster_frequency("little", 0.5 + 0.05 * (p % 4))


def _bank_run(n_boards, periods):
    """Drive ``n_boards`` through the bank; returns (board-ticks, sec, boards)."""
    from repro.board import Board, BoardBank, default_xu3_spec
    from repro.workloads import make_mix

    spec = default_xu3_spec()
    boards = [Board(make_mix("blmc"), spec, seed=7 + i, record=False)
              for i in range(n_boards)]
    bank = BoardBank(boards, telemetry=None)
    period_steps = spec.period_steps()
    ticks = 0
    gc.disable()
    t0 = time.perf_counter()
    try:
        for p in range(periods):
            if bank.done:
                break
            for board in boards:
                _bank_actuate(board, p)
            ticks += sum(bank.run_period_bank(period_steps))
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return ticks, elapsed, boards


def _single_run(periods):
    """The same schedule on one board via the fast path (the reference)."""
    from repro.board import Board, default_xu3_spec
    from repro.workloads import make_mix

    spec = default_xu3_spec()
    board = Board(make_mix("blmc"), spec, seed=7, record=False)
    period_steps = spec.period_steps()
    steps = 0
    gc.disable()
    t0 = time.perf_counter()
    try:
        for p in range(periods):
            if board.done:
                break
            _bank_actuate(board, p)
            steps += board.run_period(period_steps)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return steps, elapsed, board


def bench_bank(reps=3, periods=300):
    """Bank aggregate steps/s at B=16 vs single-board fast path.

    Both sides repeat ``reps`` times and keep their best rate (the floors
    measure the code, not scheduler noise).  Board 0 of the bank shares
    the single board's seed and schedule, so bit-identity of the final
    state rides along for free.  The horizon is the same in quick mode:
    the bank's plan/schedule caches warm over the first operating-point
    cycle, so short runs understate the steady-state rate the floor pins,
    and 300 periods still costs only ~2 s of wall clock.
    """
    single_rate = 0.0
    single_board = None
    for _ in range(reps):
        steps, elapsed, board = _single_run(periods)
        single_rate = max(single_rate, steps / elapsed)
        single_board = board
    bank_rate = 0.0
    bank_boards = None
    for _ in range(reps):
        ticks, elapsed, boards = _bank_run(BANK_BOARDS, periods)
        bank_rate = max(bank_rate, ticks / elapsed)
        bank_boards = boards
    lane0 = bank_boards[0]
    assert lane0.time == single_board.time, "bank lane 0 time diverged"
    assert lane0.energy == single_board.energy, "bank lane 0 energy diverged"
    assert (
        lane0.thermal.temperature == single_board.thermal.temperature
    ), "bank lane 0 temperature diverged"
    _assert_same_progress(lane0, single_board, "bank lane 0 progress")
    return {
        "boards": BANK_BOARDS,
        "periods": periods,
        "single_steps_per_sec": single_rate,
        "bank_steps_per_sec": bank_rate,
        "speedup": bank_rate / single_rate,
        "floor": BANK_FLOOR,
    }


CHAR_FLOOR = 1.5  # banked characterization vs the scalar campaign loop


def bench_characterize(samples=96, reps=2):
    """Banked vs scalar excitation campaigns, bit-identity asserted.

    Doubling the program list gives 24 concurrent campaigns (B=24) with
    distinct seeds per duplicate — the bank's design regime — while
    ``samples=96`` keeps both sides around a second and amortizes the
    bank's plan-cache warmup (shorter campaigns understate the
    steady-state rate the floor pins).  The excitation
    actuates cores *and* placement every period, so this measures the
    churn-tolerant per-lane re-plan path.
    """
    import numpy as np
    from repro.board import default_xu3_spec
    from repro.core.characterize import characterize_board

    programs = ("swaptions", "vips", "astar", "perlbench", "milc",
                "namd") * 2
    spec = default_xu3_spec()
    scalar_s = float("inf")
    banked_s = float("inf")
    scalar_res = banked_res = None
    for _ in range(reps):
        gc.disable()
        t0 = time.perf_counter()
        try:
            scalar_res = characterize_board(
                spec, programs, samples_per_program=samples, banked=False
            )
            scalar_s = min(scalar_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            banked_res = characterize_board(
                spec, programs, samples_per_program=samples, banked=True
            )
            banked_s = min(banked_s, time.perf_counter() - t0)
        finally:
            gc.enable()
    identical = all(
        np.array_equal(getattr(scalar_res, f).inputs,
                       getattr(banked_res, f).inputs)
        and np.array_equal(getattr(scalar_res, f).outputs,
                           getattr(banked_res, f).outputs)
        for f in ("hw_data", "sw_data", "joint_data")
    )
    return {
        "campaigns": 2 * len(programs),
        "samples": samples,
        "scalar_sec": scalar_s,
        "banked_sec": banked_s,
        "speedup": scalar_s / banked_s,
        "bit_identical": identical,
        "floor": CHAR_FLOOR,
    }


def bench_cache(samples, seed, cache_dir):
    """Cold vs warm context construction through the persistent cache."""
    from repro.experiments import DesignContext, prime_designs

    t0 = time.perf_counter()
    cold = DesignContext.create(samples_per_program=samples, seed=seed,
                                cache=cache_dir)
    prime_designs(cold)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = DesignContext.create(samples_per_program=samples, seed=seed,
                                cache=cache_dir)
    prime_designs(warm)
    warm_s = time.perf_counter() - t0
    return {
        "cold_context_sec": cold_s,
        "warm_context_sec": warm_s,
        "speedup": cold_s / max(warm_s, 1e-9),
        "warm_hits": warm.cache.hits,
        "warm_misses": warm.cache.misses,
    }, warm


def bench_synthesis(context, reps=3):
    """Cold SSV designs from a built characterization, sweeps timed apart.

    Each rep designs both layers in a fresh cache-less context sharing
    ``context``'s characterization, with timing wrappers around the two
    frequency sweeps the D-K iterations spend their time in.  Every
    figure is the best of ``reps``.
    """
    from unittest import mock

    import repro.lti.norms as norms
    import repro.robust.dk as dk
    from repro.experiments import DesignContext

    def timed(fn, acc):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += 1
                acc[1] += time.perf_counter() - t0
        return wrapper

    best = {}
    for _ in range(reps):
        linf, mu = [0, 0.0], [0, 0.0]
        fresh = DesignContext(spec=context.spec,
                              characterization=context.characterization)
        with mock.patch.object(norms, "linf_norm_grid",
                               timed(norms.linf_norm_grid, linf)), \
                mock.patch.object(dk, "mu_bounds_over_frequency",
                                  timed(dk.mu_bounds_over_frequency, mu)):
            t0 = time.perf_counter()
            fresh.get_hw_design()
            hw_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            fresh.get_sw_design()
            sw_s = time.perf_counter() - t0
        rep = {
            "hw_design_sec": hw_s,
            "sw_design_sec": sw_s,
            "linf_norm_grid_ms_per_call": 1e3 * linf[1] / max(linf[0], 1),
            "mu_sweep_ms_per_call": 1e3 * mu[1] / max(mu[0], 1),
        }
        best = {k: min(v, best.get(k, v)) for k, v in rep.items()}
    return {
        **best,
        "linf_norm_grid_calls": linf[0],
        "mu_sweep_calls": mu[0],
        "reps": reps,
        "cpu_count": os.cpu_count(),
    }


LEDGER_SCHEMES = ("coordinated-heuristic", "decoupled-heuristic",
                  "yukta-hwssv-osheur", "yukta-hwssv-osssv")
LEDGER_MAX_TIME = 30.0  # simulated seconds per lane: 60 control periods
LEDGER_TOLERANCE = 0.05  # parts vs uninstrumented total


class _Ledger:
    """Exclusive wall time per part, from timed calls.

    :meth:`time` replaces ``owner.name`` with a timed twin that charges
    its part with its own time minus that of timed calls nested inside
    it, so every second lands in exactly one part; :meth:`restore` puts
    the originals back.
    """

    def __init__(self):
        self.parts = {}
        self.calls = {}
        self._stack = []
        self._undo = []

    def time(self, owner, name, part):
        original = vars(owner)[name]
        static = isinstance(original, staticmethod)
        func = original.__func__ if static else original
        parts, calls, stack = self.parts, self.calls, self._stack
        clock = time.perf_counter
        parts.setdefault(part, 0.0)
        calls.setdefault(name, 0)

        def timed(*args, **kwargs):
            # A raise ends the benchmark, so no try/finally: the timers'
            # own cost is part of what the ledger must keep small.
            stack.append(0.0)
            t0 = clock()
            result = func(*args, **kwargs)
            elapsed = clock() - t0
            parts[part] += elapsed - stack.pop()
            calls[name] += 1
            if stack:
                stack[-1] += elapsed
            return result

        setattr(owner, name, staticmethod(timed) if static else timed)
        self._undo.append((owner, name, original))

    def overhead(self, n=20000, reps=5):
        """Seconds a timed call adds around its callee: a nested call of
        a two-argument method, as most timed calls are (best of ``reps``).
        """
        class Probe:
            def noop(self, a, b):
                return None

        def loop():
            probe = Probe()
            t0 = time.perf_counter()
            for _ in range(n):
                probe.noop(1, 2)
            return time.perf_counter() - t0

        plain = min(loop() for _ in range(reps))
        ledger = _Ledger()
        ledger.time(Probe, "noop", "probe")
        ledger._stack.append(0.0)  # inside a timed call, as in a run
        timed = min(loop() for _ in range(reps))
        return max(timed - plain, 0.0) / n

    def restore(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _ledger_timers(ledger):
    """Time every layer of a banked period (see :func:`bench_ledger`)."""
    from repro.baselines import heuristics
    from repro.board import bank
    from repro.core import controller
    from repro.core.coordinator import MultilayerCoordinator
    from repro.experiments import bank_runner

    B, C = bank.BoardBank, bank._CreditSchedule
    for owner, name, part in (
        (bank_runner, "run_cells_banked", "runner"),
        (bank_runner, "build_session", "cell_setup"),
        (bank_runner, "Board", "cell_setup"),
        (bank_runner, "BoardBank", "cell_setup"),
        (B, "run_period_bank", "bank_dispatch"),
        (B, "_plan_pass", "planning"),
        (B, "_slices", "window_setup"),
        (B, "_gather", "window_setup"),
        (B, "_window_inputs", "window_setup"),
        (B, "_quiet", "window_setup"),
        (C, "horizons", "window_setup"),
        (C, "splice", "window_setup"),
        (B, "_run_vector_window", "tick_loop"),
        (B, "_write_back", "write_back"),
        (B, "_extend_trace", "write_back"),
        (MultilayerCoordinator, "sense", "control.sense"),
        (bank_runner, "step_stacked", "control.layer_steps"),
        (controller.RuntimeController, "step", "control.layer_steps"),
        (MultilayerCoordinator, "actuate_hw", "control.actuate"),
        (MultilayerCoordinator, "finish", "control.finish"),
    ):
        ledger.time(owner, name, part)
    for cls in vars(heuristics).values():
        if isinstance(cls, type) and "step" in vars(cls):
            ledger.time(cls, "step", "control.layer_steps")


def bench_ledger(context, seed=7, reps=3):
    """Where one banked control period's time goes, per lane.

    One ``sweep``-shaped bank: the 4 layered schemes x every other
    evaluation program (28 lanes) through ``run_cells_banked`` for
    ``LEDGER_MAX_TIME`` simulated seconds.  The best of ``reps`` plain
    runs gives the total; the best of ``reps`` runs under
    :class:`_Ledger` gives the parts, each the exclusive time of the
    calls timed for it (``tick_loop`` is what ``_run_vector_window``
    spends outside its timed calls, ``runner`` the same for
    ``run_cells_banked``: the per-period glue and the result metrics).
    The parts also carry the timers' own cost, calibrated on a no-op
    (:meth:`_Ledger.overhead`) and recorded as ``timers``; ``adds_up``
    records whether the parts less that cost come within
    ``LEDGER_TOLERANCE`` of the total.  A timed call costs more in a
    run than on the no-op, so they land a few per cent above it.
    Re-plans inside a window count in ``tick_loop``, and
    ``observe_threads`` (one thread count per lane) in ``runner``: timing
    them would cost more than they do.
    """
    from repro.experiments import prime_designs
    from repro.experiments import bank_runner
    from repro.workloads.library import program_names

    prime_designs(context, LEDGER_SCHEMES)
    programs = program_names("evaluation")[0::2]
    cells = [(scheme, program, seed) for program in programs
             for scheme in LEDGER_SCHEMES]

    def run():
        gc.collect()
        t0 = time.perf_counter()
        results = bank_runner.run_cells_banked(cells, context,
                                               max_time=LEDGER_MAX_TIME)
        return time.perf_counter() - t0, results

    total, reference = min((run() for _ in range(reps)),
                           key=lambda r: r[0])
    best = None
    for _ in range(reps):
        ledger = _Ledger()
        _ledger_timers(ledger)
        try:
            elapsed, results = run()
        finally:
            ledger.restore()
        assert [(r.execution_time, r.energy) for r in results] == [
            (r.execution_time, r.energy) for r in reference
        ], "the timed run diverged"
        if best is None or elapsed < best[0]:
            best = (elapsed, ledger)
    ledger = best[1]
    lane_periods = ledger.calls["sense"]
    per = 1e6 / lane_periods
    parts = {part: seconds * per for part, seconds in ledger.parts.items()}
    timers_us = ledger.overhead() * sum(ledger.calls.values()) * per
    total_us = total * per
    gap = (sum(parts.values()) - timers_us) / total_us - 1.0
    return {
        "lanes": len(cells),
        "schemes": list(LEDGER_SCHEMES),
        "max_time": LEDGER_MAX_TIME,
        "lane_periods": lane_periods,
        "windows": ledger.calls["_run_vector_window"],
        "total_us_per_lane_period": total_us,
        "parts_us_per_lane_period": parts,
        "timers_us_per_lane_period": timers_us,
        "parts_gap_frac": gap,
        "adds_up": abs(gap) <= LEDGER_TOLERANCE,
        "cpu_count": os.cpu_count(),
    }


CONTROLLER_LANES = (1, 7, 14)


def bench_controller_bank(context, lanes=CONTROLLER_LANES, periods=1000,
                          reps=3):
    """Per-lane ``RuntimeController.step`` vs one stacked pass per period.

    ``L`` fresh copies of the hardware SSV design step ``periods`` times
    on one seeded measurement stream, lane by lane and then through
    ``step_stacked``; each keeps its best of ``reps`` timed runs (after
    one untimed) and the two must agree bit for bit.  The bank stacks groups of ``STACK_MIN_LANES`` or
    more, about where these two rates cross.
    """
    import numpy as np

    from repro.core.controller import STACK_MIN_LANES, step_stacked

    template = context.get_hw_design().controller
    n_y, n_e = template.n_outputs, template.external_offsets.size
    rng = np.random.default_rng(11)

    def per_lane(ctrls, ys, es):
        return [c.step(y, e) for c, y, e in zip(ctrls, ys, es)]

    points = []
    for n in lanes:
        z = rng.normal(0.0, 0.3, (periods, n, n_y + n_e))
        ys = template.output_offsets + template.output_scales * z[..., :n_y]
        es = template.external_offsets + template.external_scales * z[..., n_y:]
        best, outs = {}, {}
        for mode, kernel in (("step", per_lane), ("stacked", step_stacked)):
            # Rep 0 is untimed: the first tens of ms of this section ran
            # up to 2x slow on a shared 2-core host.
            for rep in range(reps + 1):
                ctrls = [template.fresh_copy() for _ in range(n)]
                gc.disable()
                t0 = time.perf_counter()
                try:
                    out = [kernel(ctrls, list(ys[p]), list(es[p]))
                           for p in range(periods)]
                    elapsed = time.perf_counter() - t0
                finally:
                    gc.enable()
                if rep:
                    best[mode] = min(best.get(mode, elapsed), elapsed)
                outs[mode] = out
        assert outs["step"] == outs["stacked"], f"L={n}: stacked pass diverged"
        step_us = 1e6 * best["step"] / (n * periods)
        stacked_us = 1e6 * best["stacked"] / (n * periods)
        points.append({
            "lanes": n,
            "step_us_per_lane_step": step_us,
            "stacked_us_per_lane_step": stacked_us,
            "speedup": step_us / stacked_us,
        })
    return {
        "design": "hw",
        "periods": periods,
        "stack_min_lanes": STACK_MIN_LANES,
        "cpu_count": os.cpu_count(),
        "points": points,
    }


def bench_matrix(schemes, workloads, samples, seed, cache_dir, jobs):
    """Seed-style baseline vs the optimized stack on one matrix."""
    from repro.board import Board
    from repro.experiments import DesignContext, prime_designs, run_scheme_matrix

    # Baseline: what the harness did before this PR — build the context
    # from scratch (no cache), scalar stepping, serial cells.
    t0 = time.perf_counter()
    base_ctx = DesignContext.create(samples_per_program=samples, seed=seed,
                                    cache=None)
    prime_designs(base_ctx, schemes)
    Board.enable_fast_path = False
    try:
        baseline = run_scheme_matrix(schemes, workloads, base_ctx,
                                     max_time=CELL_MAX_TIME)
    finally:
        Board.enable_fast_path = True
    baseline_s = time.perf_counter() - t0

    # Optimized: warm persistent cache + run_period + worker pool.
    t0 = time.perf_counter()
    opt_ctx = DesignContext.create(samples_per_program=samples, seed=seed,
                                   cache=cache_dir)
    prime_designs(opt_ctx, schemes)
    optimized = run_scheme_matrix(schemes, workloads, opt_ctx,
                                  max_time=CELL_MAX_TIME, jobs=jobs)
    optimized_s = time.perf_counter() - t0

    identical = all(
        baseline[w][s].execution_time == optimized[w][s].execution_time
        and baseline[w][s].energy == optimized[w][s].energy
        for w in baseline
        for s in baseline[w]
    )
    cells = len(schemes) * len(workloads)
    return {
        "schemes": list(schemes),
        "workloads": list(workloads),
        "jobs": jobs,
        "cells": cells,
        "baseline_sec": baseline_s,
        "baseline_sec_per_cell": baseline_s / cells,
        "optimized_sec": optimized_s,
        "optimized_sec_per_cell": optimized_s / cells,
        "speedup": baseline_s / optimized_s,
        "bit_identical": identical,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small matrix, relaxed floors")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the optimized matrix "
                             "(default: min(4, cpu count))")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_perf.json "
                             "next to this script's repo root)")
    args = parser.parse_args(argv)

    jobs = args.jobs or min(4, os.cpu_count() or 1)
    if args.quick:
        samples, seed = 40, 3
        schemes = ["coordinated-heuristic", "yukta-hwssv-osssv"]
        workloads = ["blackscholes", "gamess"]
    else:
        samples, seed = 120, 99
        schemes = ["coordinated-heuristic", "decoupled-heuristic",
                   "yukta-hwssv-osheur", "yukta-hwssv-osssv"]
        workloads = ["mcf", "gamess", "blackscholes", "x264"]

    results = {"quick": args.quick, "jobs": jobs, "cpu_count": os.cpu_count()}

    print("== stepping: scalar vs run_period ==")
    results["stepping"] = bench_stepping()
    print(f"  scalar {results['stepping']['scalar_steps_per_sec']:,.0f} "
          f"steps/s, fast {results['stepping']['fast_steps_per_sec']:,.0f} "
          f"steps/s -> {results['stepping']['speedup']:.2f}x")

    print(f"== bank: B={BANK_BOARDS} lockstep vs single-board fast path ==")
    results["bank"] = bench_bank()
    print(f"  single {results['bank']['single_steps_per_sec']:,.0f} steps/s, "
          f"bank {results['bank']['bank_steps_per_sec']:,.0f} aggregate "
          f"steps/s -> {results['bank']['speedup']:.2f}x")

    print("== characterize: banked vs scalar campaigns ==")
    results["characterize"] = bench_characterize()
    print(f"  scalar {results['characterize']['scalar_sec']:.2f}s, banked "
          f"{results['characterize']['banked_sec']:.2f}s -> "
          f"{results['characterize']['speedup']:.2f}x, bit-identical: "
          f"{results['characterize']['bit_identical']}")

    with tempfile.TemporaryDirectory(prefix="bench-perf-cache-") as cache_dir:
        print("== design cache: cold vs warm context ==")
        results["cache"], warm_ctx = bench_cache(samples, seed, cache_dir)
        print(f"  cold {results['cache']['cold_context_sec']:.2f}s, warm "
              f"{results['cache']['warm_context_sec']:.3f}s -> "
              f"{results['cache']['speedup']:.0f}x "
              f"({results['cache']['warm_hits']} cache hits)")

        print("== SSV synthesis: cold designs and their frequency sweeps ==")
        results["synthesis"] = bench_synthesis(warm_ctx)
        syn = results["synthesis"]
        print(f"  hw {syn['hw_design_sec']:.2f}s, sw {syn['sw_design_sec']:.2f}s;"
              f" linf_norm_grid {syn['linf_norm_grid_ms_per_call']:.1f} ms x"
              f" {syn['linf_norm_grid_calls']}, mu sweep "
              f"{syn['mu_sweep_ms_per_call']:.1f} ms x {syn['mu_sweep_calls']}")

        print("== controller bank: per-lane step vs stacked pass (hw SSV) ==")
        results["controller_bank"] = bench_controller_bank(warm_ctx)
        for pt in results["controller_bank"]["points"]:
            print(f"  L={pt['lanes']:>2}: step "
                  f"{pt['step_us_per_lane_step']:.1f} us/lane-step, stacked "
                  f"{pt['stacked_us_per_lane_step']:.1f} us/lane-step -> "
                  f"{pt['speedup']:.2f}x")

        print("== ledger: one banked period, layer by layer (28 lanes) ==")
        results["ledger"] = bench_ledger(warm_ctx)
        led = results["ledger"]
        print(f"  total {led['total_us_per_lane_period']:.1f} us/lane-period"
              f" over {led['lane_periods']} lane-periods; parts less "
              f"{led['timers_us_per_lane_period']:.1f} us of timers "
              f"{led['parts_gap_frac']:+.1%} off the total")
        for part, us in sorted(led["parts_us_per_lane_period"].items(),
                               key=lambda kv: -kv[1]):
            print(f"    {part:<22} {us:7.1f} us")
        if not led["adds_up"]:
            # Recorded, not a failure: the ledger has no floor, and its
            # timers' share grows as the period they time shrinks.
            print(f"  WARNING: ledger parts off the total by more than "
                  f"{LEDGER_TOLERANCE:.0%}")

        print(f"== matrix: serial cold scalar vs jobs={jobs} warm fast ==")
        results["matrix"] = bench_matrix(schemes, workloads, samples, seed,
                                         cache_dir, jobs)
        print(f"  baseline {results['matrix']['baseline_sec']:.1f}s, "
              f"optimized {results['matrix']['optimized_sec']:.1f}s -> "
              f"{results['matrix']['speedup']:.2f}x, bit-identical: "
              f"{results['matrix']['bit_identical']}")

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_perf.json"
    )
    # Atomic write: an interrupted benchmark must never leave a truncated
    # BENCH_perf.json for CI artifact collection to trip over.
    from repro.cache import atomic_write_text

    atomic_write_text(out, json.dumps(results, indent=1))
    print(f"wrote {out}")

    failures = []
    if results["stepping"]["speedup"] < STEPPING_FLOOR:
        failures.append(
            f"run_period speedup {results['stepping']['speedup']:.2f}x < "
            f"{STEPPING_FLOOR}x"
        )
    if results["bank"]["speedup"] < BANK_FLOOR:
        failures.append(
            f"bank speedup {results['bank']['speedup']:.2f}x < {BANK_FLOOR}x"
            f" at B={results['bank']['boards']}"
        )
    if not results["characterize"]["bit_identical"]:
        failures.append("banked characterization diverged from scalar")
    if results["characterize"]["speedup"] < CHAR_FLOOR:
        failures.append(
            f"banked characterization {results['characterize']['speedup']:.2f}x"
            f" < {CHAR_FLOOR}x"
        )
    if results["cache"]["warm_misses"] != 0:
        failures.append(
            f"warm context missed the cache "
            f"{results['cache']['warm_misses']} time(s)"
        )
    if not results["matrix"]["bit_identical"]:
        failures.append("optimized matrix diverged from the baseline")
    # The matrix floor measures pool parallelism: a box with fewer cores
    # than requested workers cannot exhibit it, so the check is *skipped*
    # (recorded as such) rather than silently passed against a lower bar.
    cpu_count = os.cpu_count() or 1
    if cpu_count < jobs:
        results["matrix"]["floor"] = None
        results["matrix"]["floor_skipped"] = (
            f"cpu_count {cpu_count} < jobs {jobs}: no parallelism to measure"
        )
        print(f"  matrix floor SKIPPED: {results['matrix']['floor_skipped']}")
    else:
        matrix_floor = 1.5 if (args.quick or cpu_count < 4) else 3.0
        results["matrix"]["floor"] = matrix_floor
        results["matrix"]["floor_skipped"] = None
        if results["matrix"]["speedup"] < matrix_floor:
            failures.append(
                f"matrix speedup {results['matrix']['speedup']:.2f}x < "
                f"{matrix_floor}x"
            )
    atomic_write_text(out, json.dumps(results, indent=1))
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print("PASSED")
    return 0


# Keep pytest collection from double-running the sweep; this file is a
# standalone script like bench_telemetry.py's CI mode.
def test_perf_smoke():
    assert main(["--quick"]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
