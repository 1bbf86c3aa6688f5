"""Benchmark: rack-scale throughput and control overhead.

Two gates on the third layer:

* **aggregate throughput** — board-steps per wall-second through a full
  rack campaign (sensing + control + governors + bank stepping) at
  N in {1, 4, 8} boards, banked and scalar; both paths must clear an
  absolute floor and agree bit-exactly (the exactness contract,
  re-checked here because a perf regression that breaks it would
  otherwise hide in the oracle's smaller scenario).  The banked rack
  advances every busy board through one bank call per rack period, so
  from N=4 up the banked/scalar ratio must stay at or above
  ``BANK_SPEEDUP_FLOOR`` (``trajectory.py`` holds it).  N=1 is reported
  only: a one-lane bank cannot amortize the vector window's fixed
  gather/scatter cost;
* **control overhead** — the rack layer's own work (declared sensing,
  cap distribution, budget governors, dispatch, trace bookkeeping) must
  cost < 5 % of plant stepping.  :class:`~repro.rack.rack.Rack` splits
  its wall clock into ``step_wall`` (inside the bank / scalar stepping)
  and ``loop_wall`` (the whole period loop); the gate holds their ratio.

Methodology matches the other benches: a warm-up run swallows import and
plan-cache cold costs, GC is disabled inside timed regions, each gate
takes the best of several attempts (noise only inflates a sample), and
the verdict numbers land in ``BENCH_rack.json`` for the trajectory
ledger.

    PYTHONPATH=src python benchmarks/bench_rack.py [--quick] [--out FILE]
"""

import gc
import json
import os
import sys
import time
from pathlib import Path

OVERHEAD_LIMIT = 0.05  # rack-layer wall time as a fraction of stepping
STEPS_PER_SEC_FLOOR = 2000.0  # very conservative absolute throughput floor
BANK_SPEEDUP_FLOOR = 1.0  # banked/scalar steps/s, at N >= 4 boards
BOARD_COUNTS = (1, 4, 8)
ATTEMPTS = 3
MAX_SIM_TIME = 24.0  # simulated seconds per measured campaign


def _saturated_rack(n_boards):
    """A rack where every board stays busy for the whole horizon."""
    from repro.rack import JobSpec, default_rack_spec

    jobs = tuple(
        JobSpec(name=f"load{i}", workload="blackscholes@0.5", arrival=0.0,
                sla=1e4)
        for i in range(n_boards + 2)
    )
    return default_rack_spec(n_boards=n_boards, jobs=jobs)


def _timed_campaign(n_boards, use_bank, max_time, seed=3):
    """One campaign: its result, board-steps, and bank calls (banked)."""
    from repro.rack import Rack

    rack = Rack(_saturated_rack(n_boards), use_bank=use_bank, seed=seed)
    calls = []
    if use_bank:
        bank_call = rack.bank.run_period_bank

        def counted(*args, **kwargs):
            calls.append(1)
            return bank_call(*args, **kwargs)

        rack.bank.run_period_bank = counted
    gc.collect()
    gc.disable()
    try:
        result = rack.run(max_time=max_time)
    finally:
        gc.enable()
    sim_dt = rack.spec.boards[0].sim_dt
    steps = sum(result.board_time) / sim_dt
    return result, steps, len(calls)


def measure_throughput(attempts=ATTEMPTS, max_time=MAX_SIM_TIME,
                       verbose=True):
    """Steps/s banked vs scalar per board count, plus the exactness bit."""
    _timed_campaign(2, True, 4.0)  # warm-up: imports, plan caches
    cells = []
    for n in BOARD_COUNTS:
        best = {}
        identical = True
        for _ in range(attempts):
            banked, steps_b, calls = _timed_campaign(n, True, max_time)
            scalar, steps_s, _ = _timed_campaign(n, False, max_time)
            identical = identical and (
                banked.energy == scalar.energy
                and banked.board_time == scalar.board_time
            )
            rate_b = steps_b / banked.loop_wall
            rate_s = steps_s / scalar.loop_wall
            if not best or rate_b > best["banked_steps_per_sec"]:
                best = {
                    "n_boards": n,
                    "banked_steps_per_sec": rate_b,
                    "scalar_steps_per_sec": rate_s,
                    "bank_speedup": rate_b / rate_s,
                    "periods": banked.periods,
                    # Vector windows per run_period_bank call: 1.0 when
                    # every lane event re-plans inside its window.
                    "windows_per_bank_call": (
                        banked.bank_counters["windows"] / calls),
                }
        best["bit_identical"] = identical
        cells.append(best)
        if verbose:
            print(f"n={n}: banked {best['banked_steps_per_sec']:9,.0f} "
                  f"steps/s, scalar {best['scalar_steps_per_sec']:9,.0f}, "
                  f"speedup {best['bank_speedup']:.2f}x, "
                  f"windows/call {best['windows_per_bank_call']:.2f}, "
                  f"identical={identical}")
    return cells


def measure_control_overhead(attempts=ATTEMPTS, max_time=MAX_SIM_TIME,
                             n_boards=4, verbose=True):
    """Rack-layer wall time over stepping wall time, best attempt."""
    _timed_campaign(n_boards, True, 4.0)  # warm-up
    best = None
    for attempt in range(attempts):
        result, _, _ = _timed_campaign(n_boards, True, max_time)
        frac = (result.loop_wall - result.step_wall) / result.step_wall
        cand = {
            "n_boards": n_boards,
            "loop_wall_ms": result.loop_wall * 1000,
            "step_wall_ms": result.step_wall * 1000,
            "overhead_frac": frac,
            "limit_frac": OVERHEAD_LIMIT,
        }
        if best is None or frac < best["overhead_frac"]:
            best = cand
        if verbose:
            print(f"attempt {attempt + 1}/{attempts}: loop "
                  f"{cand['loop_wall_ms']:.1f} ms, stepping "
                  f"{cand['step_wall_ms']:.1f} ms, rack-layer overhead "
                  f"{frac * 100:.2f}% (limit {OVERHEAD_LIMIT * 100:.0f}%)")
        if frac < OVERHEAD_LIMIT:
            break  # noise only inflates; a clean attempt is conclusive
    best["ok"] = best["overhead_frac"] < OVERHEAD_LIMIT
    return best


def run_benchmarks(quick=False, verbose=True):
    attempts = 2 if quick else ATTEMPTS
    max_time = 12.0 if quick else MAX_SIM_TIME
    t0 = time.perf_counter()
    cells = measure_throughput(attempts=attempts, max_time=max_time,
                               verbose=verbose)
    overhead = measure_control_overhead(attempts=attempts,
                                        max_time=max_time, verbose=verbose)
    return {
        "bench": "rack",
        "quick": bool(quick),
        "cpu_count": os.cpu_count(),
        "elapsed_s": time.perf_counter() - t0,
        "throughput": {
            "cells": cells,
            "floor_steps_per_sec": STEPS_PER_SEC_FLOOR,
            "bank_speedup_floor": BANK_SPEEDUP_FLOOR,
            "bit_identical": all(c["bit_identical"] for c in cells),
        },
        "overhead": overhead,
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------
def test_rack_control_overhead():
    """The rack layer costs < 5% of plant stepping."""
    print()
    best = measure_control_overhead()
    assert best["ok"], (
        f"rack-layer overhead {best['overhead_frac'] * 100:.2f}% exceeds "
        f"{OVERHEAD_LIMIT * 100:.0f}% of stepping"
    )


def test_rack_throughput_and_exactness():
    """Both stepping paths clear the floor and stay bit-identical.

    The banked/scalar ratio is gated from N=4 up by ``trajectory.py``
    on the full-size ``BENCH_rack.json``, not here: this reduced run is
    too short to time it reliably on a shared host.
    """
    print()
    cells = measure_throughput(attempts=2, max_time=12.0)
    for cell in cells:
        assert cell["bit_identical"]
        assert cell["banked_steps_per_sec"] > STEPS_PER_SEC_FLOOR
        assert cell["scalar_steps_per_sec"] > STEPS_PER_SEC_FLOOR


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke configuration (smaller budgets)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write results JSON here "
                             "(default BENCH_rack.json at the repo root)")
    args = parser.parse_args(argv)

    results = run_benchmarks(quick=args.quick)
    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parents[1] / "BENCH_rack.json")
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {out}")
    failures = []
    if not results["overhead"]["ok"]:
        failures.append(
            f"rack-layer overhead "
            f"{results['overhead']['overhead_frac'] * 100:.2f}% >= "
            f"{OVERHEAD_LIMIT * 100:.0f}%")
    if not results["throughput"]["bit_identical"]:
        failures.append("banked rack diverged from scalar stepping")
    for cell in results["throughput"]["cells"]:
        if cell["banked_steps_per_sec"] < STEPS_PER_SEC_FLOOR:
            failures.append(
                f"throughput at n={cell['n_boards']} "
                f"{cell['banked_steps_per_sec']:.0f} steps/s < "
                f"{STEPS_PER_SEC_FLOOR:.0f}")
    if failures:
        print("FAIL:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
