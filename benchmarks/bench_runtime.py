"""Benchmark: fault-tolerance overhead — checkpoint journal + supervision.

The fault-tolerant campaign executor must be cheap enough to leave on.
This benchmark measures what the robustness layer costs and records it in
``BENCH_runtime.json``:

1. **Checkpoint journal throughput** — ``record`` + ``get`` rates for
   RunMetrics-sized payloads (pickle + sha256 + fsynced journal append),
   and the cost of an ``index()`` scan over the full journal.  The floor
   is deliberately loose (>= 50 cells/s): one journal append per
   multi-second simulation cell is noise, but a regression to seconds per
   record would not be.
2. **Supervision overhead** — the same task list through the engine's
   worker pool unarmed (no knobs) and armed (``cell_timeout`` + 2
   retries, no faults injected).  The armed run must cost <= 25x the
   unarmed one on a trivially-small workload, a regression tripwire (on
   real multi-second cells the per-task overhead vanishes); both must
   return results identical to the in-process run (``jobs=None``).

Runs standalone (the CI chaos-smoke job) as well as manually:

    PYTHONPATH=src python benchmarks/bench_runtime.py [--quick]
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path


def _bench_journal(cells, payload_floats):
    import numpy as np

    from repro.cache import MISS
    from repro.runtime import CheckpointJournal

    rng = np.random.default_rng(7)
    payload = {
        "trace": rng.normal(size=payload_floats),
        "notes": {"emergency_trips": 0, "coordinator_records": 123},
        "energy": 512.25,
    }
    with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as tmp:
        journal = CheckpointJournal(tmp)
        keys = [f"{i:08d}" + "k" * 56 for i in range(cells)]
        t0 = time.perf_counter()
        for key in keys:
            journal.record(key, payload, meta={"label": key[:8]})
        record_sec = time.perf_counter() - t0

        t0 = time.perf_counter()
        index = journal.index()
        index_sec = time.perf_counter() - t0

        reader = CheckpointJournal(tmp)
        t0 = time.perf_counter()
        for key in keys:
            value = reader.get(key, index[key]["sha256"])
            assert value is not MISS
        get_sec = time.perf_counter() - t0
    return {
        "cells": cells,
        "payload_floats": payload_floats,
        "record_per_sec": cells / max(record_sec, 1e-9),
        "get_per_sec": cells / max(get_sec, 1e-9),
        "index_sec": index_sec,
    }


def _sq(context, x):
    return x * x


def _bench_supervision(tasks_n, jobs):
    from repro.experiments import DesignContext
    from repro.experiments.engine import parallel_map
    from repro.runtime import RetryPolicy

    context = DesignContext.create(samples_per_program=24, seed=3)
    tasks = [("call", (_sq, (i,), {})) for i in range(tasks_n)]

    # Warm the pool once (process spawn dominates the first run).
    parallel_map(tasks[:jobs], context, jobs=jobs)
    in_process = parallel_map(tasks, context, jobs=None)

    t0 = time.perf_counter()
    unarmed = parallel_map(tasks, context, jobs=jobs)
    unarmed_sec = time.perf_counter() - t0

    t0 = time.perf_counter()
    armed = parallel_map(
        tasks, context, jobs=jobs, cell_timeout=60.0,
        backoff=RetryPolicy(max_retries=2), on_error="collect")
    armed_sec = time.perf_counter() - t0

    return {
        "tasks": tasks_n,
        "jobs": jobs,
        "unarmed_sec": unarmed_sec,
        "supervised_sec": armed_sec,
        "overhead_x": armed_sec / max(unarmed_sec, 1e-9),
        "identical": unarmed == in_process and armed == in_process,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller budgets")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the supervision bench")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_runtime.json "
                             "next to this script's repo root)")
    args = parser.parse_args(argv)

    cells = 200 if args.quick else 1000
    floats = 2000 if args.quick else 20000
    tasks_n = 16 if args.quick else 48

    results = {"quick": args.quick, "cpu_count": os.cpu_count()}

    print(f"[1/2] checkpoint journal ({cells} cells, "
          f"{floats}-float payloads)...")
    results["journal"] = _bench_journal(cells, floats)
    print(f"  record {results['journal']['record_per_sec']:.0f}/s, "
          f"get {results['journal']['get_per_sec']:.0f}/s, "
          f"index {results['journal']['index_sec'] * 1e3:.1f} ms")

    print(f"[2/2] armed vs unarmed pool ({tasks_n} tasks, "
          f"jobs={args.jobs})...")
    results["supervision"] = _bench_supervision(tasks_n, args.jobs)
    print(f"  unarmed {results['supervision']['unarmed_sec']:.2f}s, "
          f"armed {results['supervision']['supervised_sec']:.2f}s "
          f"({results['supervision']['overhead_x']:.2f}x), identical: "
          f"{results['supervision']['identical']}")

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
    )
    from repro.cache import atomic_write_text

    atomic_write_text(out, json.dumps(results, indent=1))
    print(f"wrote {out}")

    failures = []
    if results["journal"]["record_per_sec"] < 50.0:
        failures.append(
            f"journal record rate "
            f"{results['journal']['record_per_sec']:.0f}/s < 50/s")
    if results["journal"]["get_per_sec"] < 100.0:
        failures.append(
            f"journal get rate "
            f"{results['journal']['get_per_sec']:.0f}/s < 100/s")
    if not results["supervision"]["identical"]:
        failures.append("pool results differ from the in-process run")
    # Trivial tasks magnify per-task supervision cost; the floor is a
    # regression tripwire, not a performance claim.
    if results["supervision"]["overhead_x"] > 25.0:
        failures.append(
            f"supervision overhead "
            f"{results['supervision']['overhead_x']:.1f}x > 25x on "
            "trivial tasks")
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print("PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
