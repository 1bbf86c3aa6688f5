"""Telemetry: control-loop tracing, metrics, and the flight recorder.

The observability substrate for the whole runtime stack (board, TMU
firmware, coordinator, supervisor, optimizer, fault injector, experiment
harness).  Three cooperating pieces, owned by one
:class:`TelemetrySession`:

* :mod:`~repro.telemetry.registry` — a zero-dependency metrics registry
  (counters / gauges / histograms with labels) exporting Prometheus text
  and JSON;
* :mod:`~repro.telemetry.tracing` — span-based tracing of each control
  period (``sample → optimize → hw.step → actuate.hw → sw.step →
  actuate.sw``, plus the per-period ``sim`` span), emitted as JSONL and
  Chrome ``trace_event`` JSON (Perfetto-loadable).  A banked run
  (:func:`~repro.experiments.bank_runner.run_cells_banked`) emits one
  ``hw.step``/``sw.step`` span per design group per bank period, with a
  ``lanes`` attribute (same-design SSV lanes step as one group, every
  other controller as a group of one); the other phase spans and the
  per-lane ``record_period`` snapshots are unchanged;
* :mod:`~repro.telemetry.flight` — a bounded ring buffer of per-period
  state snapshots, dumped automatically on supervisor transitions and
  fault-injection events.

Telemetry is **off by default**: instrumented call sites hold a session
reference that is ``None`` and guard with a single ``is not None`` check,
so the uninstrumented loop pays (nearly) nothing —
``benchmarks/bench_telemetry.py`` holds that bound at <5 %.  Enable it by
passing a session explicitly or installing one process-wide::

    from repro.telemetry import TelemetrySession, activate

    with activate(TelemetrySession("telemetry-out")) as tel:
        run_workload("yukta-hwssv-osssv", "gamess", context)

or from the CLI with ``python -m repro <cmd> --telemetry DIR``; inspect a
finished directory with ``python -m repro trace DIR``.
"""

from .flight import FlightRecorder, jsonable
from .merge import merge_metrics_dicts, merge_worker_dirs
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .session import (
    TelemetrySession,
    activate,
    active_session,
    deactivate,
)
from .summarize import load_flight_dumps, load_spans, summarize_dir
from .tracing import NULL_SPAN, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Tracer",
    "NULL_SPAN",
    "FlightRecorder",
    "jsonable",
    "TelemetrySession",
    "activate",
    "deactivate",
    "active_session",
    "load_spans",
    "load_flight_dumps",
    "summarize_dir",
    "merge_worker_dirs",
    "merge_metrics_dicts",
]
