"""Bench trajectory: append BENCH_*.json to a history log, hold the floors.

Each benchmark (``bench_perf.py``, ``bench_runtime.py``, ``bench_obs.py``)
writes a ``BENCH_*.json`` artifact and enforces its own floors when it
runs.  This tool is the cross-run ledger: it folds whatever artifacts are
present into one timestamped line of ``BENCH_history.jsonl`` (the CI
bench-trajectory job caches that file across runs, so the log accumulates
a performance trajectory), then re-checks every documented floor against
the collected numbers — a second tripwire that also catches a stale or
hand-edited artifact sneaking past its generator.

    PYTHONPATH=src python benchmarks/trajectory.py [--root DIR]
        [--history FILE] [--no-append]
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ARTIFACTS = ("BENCH_perf.json", "BENCH_runtime.json", "BENCH_obs.json",
             "BENCH_rack.json", "BENCH_serve.json")
HISTORY = "BENCH_history.jsonl"


def _floors_perf(perf):
    if perf["stepping"]["speedup"] < 2.0:
        yield (f"perf: run_period speedup "
               f"{perf['stepping']['speedup']:.2f}x < 2x")
    if perf["bank"]["speedup"] < 4.0:
        yield f"perf: bank speedup {perf['bank']['speedup']:.2f}x < 4x"
    char = perf.get("characterize", {})
    if char:
        if not char.get("bit_identical", True):
            yield "perf: banked characterization diverged from scalar"
        floor = char.get("floor", 1.5)
        if char["speedup"] < floor:
            yield (f"perf: banked characterization "
                   f"{char['speedup']:.2f}x < {floor}x")
    if perf["cache"].get("warm_misses", 0) != 0:
        yield (f"perf: warm context missed the cache "
               f"{perf['cache']['warm_misses']} time(s)")
    matrix = perf.get("matrix", {})
    if matrix and not matrix.get("bit_identical", True):
        yield "perf: optimized matrix diverged from the baseline"
    floor = matrix.get("floor")
    if floor and matrix["speedup"] < floor:
        yield f"perf: matrix speedup {matrix['speedup']:.2f}x < {floor}x"


def _floors_runtime(runtime):
    if runtime["journal"]["record_per_sec"] < 50.0:
        yield (f"runtime: journal record rate "
               f"{runtime['journal']['record_per_sec']:.0f}/s < 50/s")
    if runtime["journal"]["get_per_sec"] < 100.0:
        yield (f"runtime: journal get rate "
               f"{runtime['journal']['get_per_sec']:.0f}/s < 100/s")
    if not runtime["supervision"]["identical"]:
        yield "runtime: pool results differ from the in-process run"
    if runtime["supervision"]["overhead_x"] > 25.0:
        yield (f"runtime: supervision overhead "
               f"{runtime['supervision']['overhead_x']:.1f}x > 25x")


def _floors_obs(obs):
    profiler = obs["profiler"]
    limit = profiler.get("limit_frac", 0.05)
    if profiler["overhead_frac"] >= limit:
        yield (f"obs: profiler overhead "
               f"{profiler['overhead_frac'] * 100:.2f}% >= "
               f"{limit * 100:.0f}%")


def _floors_rack(rack):
    overhead = rack["overhead"]
    limit = overhead.get("limit_frac", 0.05)
    if overhead["overhead_frac"] >= limit:
        yield (f"rack: control overhead "
               f"{overhead['overhead_frac'] * 100:.2f}% >= "
               f"{limit * 100:.0f}% of stepping")
    throughput = rack["throughput"]
    if not throughput.get("bit_identical", True):
        yield "rack: banked campaign diverged from scalar stepping"
    floor = throughput.get("floor_steps_per_sec", 2000.0)
    for cell in throughput["cells"]:
        if cell["banked_steps_per_sec"] < floor:
            yield (f"rack: banked throughput at n={cell['n_boards']} "
                   f"{cell['banked_steps_per_sec']:.0f} steps/s < "
                   f"{floor:.0f}")
        if cell["scalar_steps_per_sec"] < floor:
            yield (f"rack: scalar throughput at n={cell['n_boards']} "
                   f"{cell['scalar_steps_per_sec']:.0f} steps/s < "
                   f"{floor:.0f}")
    # One bank call per rack period must beat per-board scalar stepping
    # once there are lanes to batch; N=1 is reported only.
    speedup_floor = throughput.get("bank_speedup_floor", 1.0)
    for cell in throughput["cells"]:
        if cell["n_boards"] >= 4 and cell["bank_speedup"] < speedup_floor:
            yield (f"rack: banked/scalar at n={cell['n_boards']} "
                   f"{cell['bank_speedup']:.2f}x < {speedup_floor:g}x")


def _floors_serve(serve):
    coalesce = serve["coalesce"]
    floor = coalesce.get("floor", 10.0)
    if coalesce["speedup"] < floor:
        yield (f"serve: warm coalesced p50 only {coalesce['speedup']:.1f}x "
               f"faster than cold (< {floor:g}x)")
    batching = serve["batching"]
    floor = batching.get("floor", 1.5)
    if batching["throughput_ratio"] < floor:
        yield (f"serve: batched throughput "
               f"{batching['throughput_ratio']:.2f}x < {floor:g}x solo "
               f"at equal workers")
    if not batching.get("bit_identical", True):
        yield "serve: banked serving diverged from solo serving"
    if batching.get("bank_batches", 0) < 1:
        yield "serve: no bank batch ever formed"
    loadgen = serve["loadgen"]
    if not loadgen.get("all_ok", False):
        yield (f"serve: loadgen {loadgen['ok']}/{loadgen['sent']} ok "
               f"({loadgen.get('errors', '?')} errors, "
               f"{loadgen.get('rejected', '?')} rejected)")
    floor = loadgen.get("hit_rate_floor", 0.2)
    if loadgen["coalesce_hit_rate"] < floor:
        yield (f"serve: loadgen coalesce hit-rate "
               f"{loadgen['coalesce_hit_rate']:.2f} < {floor:g}")


FLOORS = {
    "BENCH_perf.json": _floors_perf,
    "BENCH_runtime.json": _floors_runtime,
    "BENCH_obs.json": _floors_obs,
    "BENCH_rack.json": _floors_rack,
    "BENCH_serve.json": _floors_serve,
}


def _git_sha(root):
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        return None


def collect(root):
    """Load every present BENCH artifact; returns ``{name: dict}``."""
    root = Path(root)
    found = {}
    for name in ARTIFACTS:
        path = root / name
        if not path.is_file():
            continue
        try:
            found[name] = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise SystemExit(f"unreadable benchmark artifact {path}: {exc}")
    return found


def check_floors(artifacts):
    """Every floor violation across the collected artifacts."""
    failures = []
    for name, payload in artifacts.items():
        try:
            failures.extend(FLOORS[name](payload))
        except KeyError as exc:
            failures.append(f"{name}: missing expected field {exc}")
    return failures


def append_history(artifacts, history_path, root):
    entry = {
        "t": round(time.time(), 1),
        "sha": _git_sha(root),
        "benches": {name.removeprefix("BENCH_").removesuffix(".json"): data
                    for name, data in artifacts.items()},
    }
    history_path = Path(history_path)
    with open(history_path, "a") as fh:
        fh.write(json.dumps(entry) + "\n")
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="directory holding BENCH_*.json "
                             "(default: repo root)")
    parser.add_argument("--history", default=None,
                        help=f"history file (default <root>/{HISTORY})")
    parser.add_argument("--no-append", action="store_true",
                        help="check floors only; do not extend the history")
    args = parser.parse_args(argv)

    root = Path(args.root) if args.root else \
        Path(__file__).resolve().parents[1]
    artifacts = collect(root)
    if not artifacts:
        print(f"no BENCH_*.json artifacts under {root}; run the benchmarks "
              "first", file=sys.stderr)
        return 2

    for name in artifacts:
        print(f"collected {name}")
    if not args.no_append:
        history = args.history or (root / HISTORY)
        entry = append_history(artifacts, history, root)
        count = sum(1 for _ in open(history))
        print(f"appended to {history} (sha={entry['sha']}, "
              f"{count} entries)")

    failures = check_floors(artifacts)
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print(f"PASSED: all floors hold across {len(artifacts)} artifact(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
