"""Benchmark: the control-plane service — coalescing, batching, capacity.

Measures the three serving-path optimizations ``repro serve`` stacks and
records them in ``BENCH_serve.json``:

1. **Result-store coalescing** — a burst of distinct cold cells, then the
   identical burst warm.  A warm request is a fingerprint lookup plus a
   JSON reply, so its p50 must be >= 10x faster than the cold p50 (the
   floor ``trajectory.py`` re-checks).
2. **Cross-request bank batching** — the same set of unique bankable
   cells fired concurrently at two servers with the *same worker count*:
   one dispatching solo cells (``batch=1``), one packing co-arriving
   cells into shared BoardBank lanes (``batch=B``).  Batched throughput
   must be >= 1.5x solo, and every response must be bit-identical across
   the two servers (the lockstep kernel guarantees it).
3. **Capacity under duplicate-heavy load** — the deterministic open-loop
   generator (``repro loadgen``) at a fixed arrival rate and duplicate
   ratio; records requests/s, p50/p99 latency, and the coalesce
   hit-rate.  Every request must succeed and the hit-rate must match the
   duplicate-heavy mix (>= 0.2).

Runs standalone (the CI serve-smoke job) as well as manually:

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--out FILE]
"""

import argparse
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COALESCE_FLOOR = 10.0  # warm store hit vs cold execution, p50 ratio
BATCH_FLOOR = 1.5  # banked vs solo throughput at equal workers
HITRATE_FLOOR = 0.2  # duplicate-heavy loadgen coalesce hit-rate


def _build_context(samples, seed):
    from repro.experiments import DesignContext

    return DesignContext.create(samples_per_program=samples, seed=seed)


def _percentile(values, q):
    values = sorted(values)
    index = min(int(round(q / 100.0 * (len(values) - 1))), len(values) - 1)
    return values[index]


def bench_coalesce(context, cells, max_time, store_dir):
    """Cold p50 vs warm (result-store) p50 over the same request set."""
    from repro.serve import ServeClient, serve_background

    requests = [
        {"kind": "run", "scheme": scheme, "workload": workload,
         "seed": seed, "max_time": max_time}
        for scheme, workload, seed in cells
    ]

    def _latencies(client):
        out = []
        sources = []
        for request in requests:
            t0 = time.perf_counter()
            response = client.run(request, timeout=600.0)
            out.append((time.perf_counter() - t0) * 1e3)
            assert response["status"] == 200, response
            sources.append(response["source"])
        return out, sources

    with serve_background(context, jobs=0, batch=1,
                          cache=store_dir) as handle:
        with ServeClient(handle.url, timeout=600.0) as client:
            cold_ms, cold_sources = _latencies(client)
            warm_ms, warm_sources = _latencies(client)
    assert all(s == "executed" for s in cold_sources), cold_sources
    assert all(s == "cache" for s in warm_sources), warm_sources
    cold_p50 = _percentile(cold_ms, 50)
    warm_p50 = _percentile(warm_ms, 50)
    return {
        "cells": len(requests),
        "max_time": max_time,
        "cold_p50_ms": round(cold_p50, 3),
        "cold_p99_ms": round(_percentile(cold_ms, 99), 3),
        "warm_p50_ms": round(warm_p50, 3),
        "warm_p99_ms": round(_percentile(warm_ms, 99), 3),
        "speedup": round(cold_p50 / warm_p50, 2) if warm_p50 else 0.0,
        "floor": COALESCE_FLOOR,
    }


def bench_batching(context, cells, max_time, batch):
    """Concurrent unique bankable cells: batch=1 vs batch=B wall-clock.

    Both servers run jobs=0 (one in-process worker), so the ratio
    isolates what bank packing alone buys at equal compute.
    """
    from repro.serve import ServeClient, serve_background

    requests = [
        {"kind": "run", "scheme": scheme, "workload": workload,
         "seed": seed, "max_time": max_time}
        for scheme, workload, seed in cells
    ]

    def _storm(width, wait):
        with serve_background(context, jobs=0, batch=width,
                              batch_wait=wait, cache=None,
                              queue_limit=len(requests) + 8) as handle:

            def _fire(request):
                with ServeClient(handle.url, timeout=600.0) as client:
                    return client.run(request, timeout=600.0)

            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=len(requests)) as pool:
                responses = list(pool.map(_fire, requests))
            elapsed = time.perf_counter() - t0
            with ServeClient(handle.url) as client:
                stats = client.stats()
        assert all(r["status"] == 200 for r in responses), \
            [r.get("status") for r in responses]
        return elapsed, responses, stats

    solo_s, solo_responses, _ = _storm(1, 0.0)
    banked_s, banked_responses, stats = _storm(batch, 0.25)

    bit_identical = all(
        json.dumps(a["result"], sort_keys=True)
        == json.dumps(b["result"], sort_keys=True)
        for a, b in zip(solo_responses, banked_responses)
    )
    return {
        "cells": len(requests),
        "max_time": max_time,
        "batch": batch,
        "solo_sec": round(solo_s, 3),
        "banked_sec": round(banked_s, 3),
        "solo_rps": round(len(requests) / solo_s, 2),
        "banked_rps": round(len(requests) / banked_s, 2),
        "throughput_ratio": round(solo_s / banked_s, 2),
        "bank_batches": stats["bank_batches"],
        "banked_cells": stats["banked_cells"],
        "bank_packing_efficiency": stats["bank_packing_efficiency"],
        "bit_identical": bit_identical,
        "floor": BATCH_FLOOR,
    }


def bench_capacity(context, requests, rate, duplicates, max_time, batch):
    """The deterministic open-loop load: rps, latency tail, hit-rate."""
    from repro.serve import ServeClient, run_loadgen, serve_background

    with serve_background(context, jobs=0, batch=batch, batch_wait=0.02,
                          cache=None,
                          queue_limit=requests + 8) as handle:
        report = run_loadgen(handle.url, requests=requests, rate=rate,
                             duplicates=duplicates, seed=0,
                             max_time=max_time, timeout=600.0)
        with ServeClient(handle.url) as client:
            stats = client.stats()
    body = report.to_dict()
    body.update({
        "max_time": max_time,
        "batch": batch,
        "all_ok": report.all_ok,
        "server_coalesce_hit_rate": stats["coalesce_hit_rate"],
        "server_bank_batches": stats["bank_batches"],
        "hit_rate_floor": HITRATE_FLOOR,
    })
    return body


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (fewer cells, shorter "
                             "horizons)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write results JSON here "
                             "(default BENCH_serve.json at the repo root)")
    args = parser.parse_args(argv)

    samples = 48 if args.quick else 120
    seed = 99
    workloads = ["blackscholes", "mcf", "fluidanimate"]

    # Section 1 cells: heavier horizons so a cold execution is honest
    # work against the ~millisecond warm path.
    coalesce_horizon = 60.0 if args.quick else 120.0
    coalesce_cells = [
        ("coordinated-heuristic", workloads[i % len(workloads)], 500 + i)
        for i in range(8 if args.quick else 16)
    ]

    # Section 2 cells: unique bankable cells across two heuristic schemes.
    # The batch width matches the burst so co-arriving cells pack into one
    # full-width bank (wider banks amortize the per-window planning cost).
    batch = 24 if args.quick else 48
    batch_cells = [
        (["coordinated-heuristic", "decoupled-heuristic"][i % 2],
         workloads[i % len(workloads)], 700 + i)
        for i in range(24 if args.quick else 48)
    ]
    batch_horizon = 120.0 if args.quick else 240.0

    t_start = time.perf_counter()
    print(f"== context: samples={samples}, seed={seed} ==")
    t0 = time.perf_counter()
    context = _build_context(samples, seed)
    print(f"  built in {time.perf_counter() - t0:.2f}s")

    results = {
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "samples": samples,
        "seed": seed,
    }

    print(f"== coalesce: {len(coalesce_cells)} cells cold vs warm "
          f"(max_time={coalesce_horizon:g}) ==")
    with tempfile.TemporaryDirectory(prefix="bench-serve-store-") as store:
        results["coalesce"] = bench_coalesce(
            context, coalesce_cells, coalesce_horizon, store)
    print(f"  cold p50 {results['coalesce']['cold_p50_ms']:.1f} ms, warm "
          f"p50 {results['coalesce']['warm_p50_ms']:.2f} ms -> "
          f"{results['coalesce']['speedup']:.1f}x")

    print(f"== batching: {len(batch_cells)} unique cells, batch=1 vs "
          f"batch={batch} (max_time={batch_horizon:g}) ==")
    results["batching"] = bench_batching(
        context, batch_cells, batch_horizon, batch)
    print(f"  solo {results['batching']['solo_sec']:.2f}s "
          f"({results['batching']['solo_rps']:.1f} rps), banked "
          f"{results['batching']['banked_sec']:.2f}s "
          f"({results['batching']['banked_rps']:.1f} rps) -> "
          f"{results['batching']['throughput_ratio']:.2f}x, "
          f"{results['batching']['bank_batches']} banks, packing "
          f"{results['batching']['bank_packing_efficiency']}, "
          f"bit-identical: {results['batching']['bit_identical']}")

    n_load = 60 if args.quick else 200
    rate = 50.0 if args.quick else 100.0
    print(f"== capacity: loadgen {n_load} requests @ {rate:g}/s, "
          f"50% duplicates ==")
    results["loadgen"] = bench_capacity(
        context, n_load, rate, 0.5, 6.0, batch)
    print(f"  {results['loadgen']['ok']}/{results['loadgen']['sent']} ok, "
          f"{results['loadgen']['achieved_rps']:.1f} req/s achieved, p50 "
          f"{results['loadgen']['p50_ms']:.1f} ms, p99 "
          f"{results['loadgen']['p99_ms']:.1f} ms, hit-rate "
          f"{results['loadgen']['coalesce_hit_rate']:.0%}")

    results["elapsed_sec"] = round(time.perf_counter() - t_start, 2)

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_serve.json"
    )
    from repro.cache import atomic_write_text

    atomic_write_text(out, json.dumps(results, indent=1))
    print(f"wrote {out}")

    failures = []
    if results["coalesce"]["speedup"] < COALESCE_FLOOR:
        failures.append(
            f"warm coalesced p50 only {results['coalesce']['speedup']:.1f}x"
            f" faster than cold (< {COALESCE_FLOOR:g}x)"
        )
    if results["batching"]["throughput_ratio"] < BATCH_FLOOR:
        failures.append(
            f"batched throughput {results['batching']['throughput_ratio']:.2f}x"
            f" < {BATCH_FLOOR:g}x solo at equal workers"
        )
    if not results["batching"]["bit_identical"]:
        failures.append("banked serving diverged from solo serving")
    if results["batching"]["bank_batches"] < 1:
        failures.append("no bank batch ever formed")
    if not results["loadgen"]["all_ok"]:
        failures.append(
            f"loadgen: {results['loadgen']['ok']}/"
            f"{results['loadgen']['sent']} ok "
            f"({results['loadgen']['errors']} errors, "
            f"{results['loadgen']['rejected']} rejected)"
        )
    if results["loadgen"]["coalesce_hit_rate"] < HITRATE_FLOOR:
        failures.append(
            f"loadgen coalesce hit-rate "
            f"{results['loadgen']['coalesce_hit_rate']:.2f} < "
            f"{HITRATE_FLOOR:g}"
        )
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print("PASSED")
    return 0


# Invoked explicitly by the CI serve-smoke job (testpaths excludes
# benchmarks/ from the tier-1 run), mirroring bench_perf.py.
def test_serve_smoke():
    assert main(["--quick"]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
