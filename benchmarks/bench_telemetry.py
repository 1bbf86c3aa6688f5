"""Benchmark: telemetry overhead on the fig9-style control loop.

The telemetry subsystem must be free when it is off: the instrumented
loop (board steps + coordinator control steps) differs from the
uninstrumented seed loop only by ``is None`` guards, so its cost is
bounded above by the *enabled* overhead, which this bench measures
directly.  Two identical runs of the same deterministic workload — one
with telemetry disabled (the default fast path), one with a full
:class:`~repro.telemetry.TelemetrySession` recording spans, metrics, and
flight snapshots — must stay within 5 % of each other.

Methodology (the runs are ~25 ms, so noise hygiene matters): GC is
disabled inside each timed region, disabled/enabled runs alternate so
machine-load drift hits both modes, and each attempt scores
``min(enabled) / min(disabled)`` — the cleanest sample of each mode.
Because timing noise only ever *inflates* a sample (scheduler steal,
writeback stalls), an attempt can overestimate but not underestimate
the overhead, so a noisy attempt is retried (up to ``ATTEMPTS``) and
the best attempt is the verdict.

Runs standalone (the CI smoke job) as well as under pytest:

    PYTHONPATH=src python benchmarks/bench_telemetry.py
"""

import gc
import sys
import tempfile
import time

OVERHEAD_LIMIT = 0.05  # enabled-vs-disabled wall-clock ratio bound
REPEATS = 7  # interleaved pairs per attempt
ATTEMPTS = 3  # re-measure a noise-corrupted attempt; best attempt wins
MAX_SIM_TIME = 60.0  # deterministic fixed-work run (workload never finishes)


def _make_context():
    """A spec-only context: the heuristic scheme needs no synthesis."""
    from repro.board import default_xu3_spec
    from repro.experiments.schemes import DesignContext

    return DesignContext(spec=default_xu3_spec(), characterization=None)


def _timed_run(context, telemetry):
    from repro.experiments.runner import run_workload

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        metrics = run_workload(
            "coordinated-heuristic", "gamess", context,
            max_time=MAX_SIM_TIME, record=False, telemetry=telemetry,
        )
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    assert metrics.execution_time >= MAX_SIM_TIME - 1.0  # same work both modes
    return elapsed


def _measure_once(context, repeats):
    """One attempt: interleaved pairs, min-of-N per mode."""
    from repro.telemetry import TelemetrySession

    disabled, enabled = [], []
    with tempfile.TemporaryDirectory(prefix="bench-telemetry-") as tmp:
        for i in range(repeats):
            disabled.append(_timed_run(context, None))
            session = TelemetrySession(f"{tmp}/run{i}")
            enabled.append(_timed_run(context, session))
            session.close()
    t_off = min(disabled)
    t_on = min(enabled)
    return t_off, t_on, t_on / t_off - 1.0


def measure_overhead(repeats=REPEATS, attempts=ATTEMPTS, verbose=True):
    """Returns (disabled_s, enabled_s, overhead_fraction) of the best attempt."""
    context = _make_context()
    _timed_run(context, None)  # warm-up: imports, allocator, caches
    best = None
    for attempt in range(attempts):
        result = _measure_once(context, repeats)
        if best is None or result[2] < best[2]:
            best = result
        if verbose:
            t_off, t_on, overhead = result
            print(f"attempt {attempt + 1}/{attempts}: fig9-style loop, "
                  f"{MAX_SIM_TIME:.0f}s simulated, best of {repeats} pairs:")
            print(f"  telemetry disabled: {t_off * 1000:8.1f} ms")
            print(f"  telemetry enabled:  {t_on * 1000:8.1f} ms "
                  f"(spans+metrics+flight recorded to disk)")
            print(f"  enabled overhead:   {overhead * 100:+8.2f} % "
                  f"(limit {OVERHEAD_LIMIT * 100:.0f} %)")
        if best[2] < OVERHEAD_LIMIT:
            break  # a clean attempt is conclusive; noise only inflates
    return best


def test_telemetry_overhead():
    """The full-on session stays within 5% of the disabled fast path."""
    print()
    _, _, overhead = measure_overhead()
    assert overhead < OVERHEAD_LIMIT, (
        f"telemetry overhead {overhead * 100:.2f}% exceeds "
        f"{OVERHEAD_LIMIT * 100:.0f}%"
    )


def test_disabled_loop_is_nullpath():
    """With no session, no instrumented object holds a telemetry handle."""
    from repro.board import Board
    from repro.core import MultilayerCoordinator
    from repro.baselines import CoordinatedHeuristicHW, CoordinatedHeuristicOS
    from repro.board import default_xu3_spec
    from repro.workloads import make_application

    spec = default_xu3_spec()
    board = Board(make_application("gamess"), spec=spec, record=False)
    coord = MultilayerCoordinator(
        CoordinatedHeuristicHW(spec), CoordinatedHeuristicOS(spec)
    )
    assert board.telemetry is None
    assert coord.telemetry is None
    assert board.emergency.on_trip is None


def main():
    _, _, overhead = measure_overhead()
    if overhead >= OVERHEAD_LIMIT:
        print(f"FAIL: overhead {overhead * 100:.2f}% >= "
              f"{OVERHEAD_LIMIT * 100:.0f}%", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
