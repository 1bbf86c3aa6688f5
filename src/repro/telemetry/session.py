"""The telemetry session: registry + tracer + flight recorder + exporters.

One :class:`TelemetrySession` owns everything a run emits.  Instrumented
code never imports a concrete sink — it holds a session reference (or
``None``, the default) and guards every touch with ``if tel is not None``,
which keeps the disabled path at a single attribute check per call site.

Sessions can be passed explicitly (``run_workload(...,
telemetry=session)``) or installed process-wide with :func:`activate`;
constructors of instrumented objects fall back to :func:`active_session`
so a CLI ``--telemetry DIR`` flag reaches every layer without threading a
parameter through the whole call graph.

With an output directory, closing the session writes:

* ``metrics.prom`` / ``metrics.json`` — final metrics snapshot;
* ``spans.jsonl`` / ``trace.json`` — the span trace (streamed during the
  run; ``trace.json`` loads in ``chrome://tracing`` / Perfetto);
* ``flight-*.json`` — any triggered flight-recorder dumps.
"""

from __future__ import annotations

from pathlib import Path

from .flight import FlightRecorder
from .registry import MetricsRegistry
from .tracing import NULL_SPAN, Tracer

__all__ = [
    "TelemetrySession",
    "activate",
    "deactivate",
    "active_session",
]

_ACTIVE = None

# Supervisor states as gauge values (docs/OBSERVABILITY.md).
STATE_VALUES = {"NOMINAL": 0, "DEGRADED": 1, "RECOVERING": 2}


def activate(session):
    """Install a session as the process-wide default; returns it."""
    global _ACTIVE
    _ACTIVE = session
    return session


def deactivate():
    """Clear the process-wide session (does not close it)."""
    global _ACTIVE
    _ACTIVE = None


def active_session():
    """The process-wide session, or ``None`` (telemetry disabled)."""
    return _ACTIVE


class TelemetrySession:
    """Everything one instrumented run emits, plus its exporters."""

    def __init__(self, out_dir=None, flight_capacity=64, span_keep=8192,
                 profile=False, profile_sample=1):
        self.out_dir = None
        jsonl = chrome = None
        if out_dir is not None:
            self.out_dir = Path(out_dir)
            self.out_dir.mkdir(parents=True, exist_ok=True)
            jsonl = self.out_dir / "spans.jsonl"
            chrome = self.out_dir / "trace.json"
        self.registry = MetricsRegistry()
        self.tracer = Tracer(jsonl_path=jsonl, chrome_path=chrome,
                             keep=span_keep)
        self.flight = FlightRecorder(capacity=flight_capacity,
                                     out_dir=self.out_dir)
        self.closed = False
        # Optional per-phase control-loop profiler (``--profile``):
        # aggregates span durations into the control_phase_seconds
        # histogram; ``profile_sample=N`` keeps one period in N.
        self.profiler = None
        if profile:
            from ..obs.profiler import PhaseProfiler

            self.profiler = PhaseProfiler(self.registry,
                                          sample_every=profile_sample)
            self.tracer.profiler = self.profiler
        reg = self.registry
        # --- the shared metric families (one handle each, created once) ---
        self.periods = reg.counter(
            "control_periods_total", "control periods executed")
        self.exd_gauge = reg.gauge(
            "exd_proxy", "optimizer ExD proxy (Power / Perf^2), last period")
        self.trips = reg.counter(
            "supervisor_trips_total", "NOMINAL->DEGRADED trips by cause",
            labels=("cause",))
        self.transitions = reg.counter(
            "supervisor_transitions_total",
            "supervisor state-machine transitions", labels=("transition",))
        self.state_gauge = reg.gauge(
            "supervisor_state", "0=NOMINAL 1=DEGRADED 2=RECOVERING")
        self.rejected = reg.counter(
            "actuations_rejected_total",
            "commands rejected or clamped by the board actuation API",
            labels=("kind",))
        self.nonfinite = reg.counter(
            "actuations_nonfinite_total",
            "non-finite commands dropped by the board actuation API",
            labels=("kind",))
        self.tmu_trips = reg.counter(
            "tmu_trips_total", "emergency-firmware trips", labels=("type",))
        self.tmu_throttle = reg.counter(
            "tmu_throttle_periods_total",
            "control periods with the emergency firmware throttling")
        self.opt_moves = reg.counter(
            "optimizer_moves_total", "ExD optimizer target moves",
            labels=("layer",))
        self.opt_reverts = reg.counter(
            "optimizer_reverts_total", "ExD optimizer reverted moves",
            labels=("layer",))
        self.fault_events = reg.counter(
            "fault_events_total", "fault-injector event edges",
            labels=("kind", "phase"))
        self.invariant_violations = reg.counter(
            "invariant_violations_total",
            "runtime invariant-monitor violations", labels=("check",))
        self.flight_dumps = reg.counter(
            "flight_dumps_total", "flight-recorder dumps", labels=("reason",))
        self.bank_windows = reg.counter(
            "bank_windows_total",
            "vectorized lockstep windows executed by BoardBank")
        self.bank_board_ticks = reg.counter(
            "bank_board_ticks_total",
            "board-ticks advanced by the bank's vectorized kernel")
        self.bank_scalar_ticks = reg.counter(
            "bank_scalar_ticks_total",
            "board-ticks finished via the bank's scalar fallback")
        self.bank_events = reg.counter(
            "bank_window_events_total",
            "events that ended or refused a lockstep window",
            labels=("reason",))
        self.cell_retries = reg.counter(
            "cell_retries_total",
            "campaign cell attempts re-queued by the supervised executor",
            labels=("reason",))
        self.cell_failures = reg.counter(
            "cell_failures_total",
            "campaign cells that exhausted their retry budget",
            labels=("reason",))
        self.cell_timeouts = reg.counter(
            "cell_timeouts_total",
            "campaign cells killed for exceeding their wall-clock deadline")
        self.worker_restarts = reg.counter(
            "worker_restarts_total",
            "supervised workers reaped and respawned", labels=("reason",))
        self.checkpoint_cells = reg.counter(
            "checkpoint_cells_total",
            "checkpoint-journal activity by event", labels=("event",))
        self.control_step_hist = reg.histogram(
            "control_step_seconds", "wall-clock time of one control step")
        self.sim_period_hist = reg.histogram(
            "sim_period_seconds",
            "wall-clock time simulating one control period of board steps")

    # ------------------------------------------------------------------
    # Tracing passthroughs
    # ------------------------------------------------------------------
    def begin_period(self, board_time=None):
        """Open the next trace period (correlates spans/flight/metrics)."""
        return self.tracer.begin_period(board_time)

    @property
    def period(self):
        return self.tracer.trace_id

    def span(self, name, cat="control", **attrs):
        if self.closed:
            return NULL_SPAN
        return self.tracer.span(name, cat=cat, **attrs)

    def instant(self, name, cat="event", **attrs):
        if not self.closed:
            self.tracer.instant(name, cat=cat, **attrs)

    # ------------------------------------------------------------------
    # Flight recorder
    # ------------------------------------------------------------------
    def record_period(self, snapshot):
        self.flight.record(snapshot)

    def dump_flight(self, reason, extra=None):
        """Trigger a flight-recorder dump (and count + mark it in the trace)."""
        self.flight_dumps.labels(reason=reason).inc()
        self.instant("flight.dump", cat="flight", reason=reason)
        payload = self.flight.dump(reason, extra=extra)
        self.tracer.flush()  # dumps are rare; persist the lead-up spans too
        return payload

    # ------------------------------------------------------------------
    # Export / lifecycle
    # ------------------------------------------------------------------
    def render_prometheus(self):
        return self.registry.render_prometheus()

    def flush(self):
        """Write the current metrics snapshot (and flush trace sinks)."""
        if self.out_dir is not None:
            # Atomic writes: a run killed mid-flush (worker SIGKILL, chaos
            # harness) must never leave a truncated snapshot behind.
            from ..cache import atomic_write_text

            atomic_write_text(self.out_dir / "metrics.prom",
                              self.registry.render_prometheus(), fsync=False)
            import json

            atomic_write_text(self.out_dir / "metrics.json",
                              json.dumps(self.registry.to_dict(), indent=1),
                              fsync=False)
        self.tracer.flush()

    def close(self):
        """Final metrics snapshot + finalize the trace files.

        The workers of a parallel campaign record into ``worker-*``
        subdirectories; closing folds them into this directory's
        ``metrics.*`` and ``spans.jsonl`` beside this session's own.
        """
        if self.closed:
            return
        self.flush()
        workers = (sorted(p for p in self.out_dir.glob("worker-*")
                          if p.is_dir())
                   if self.out_dir is not None else [])
        own_spans = list(self.tracer._iter_records()) if workers else ()
        self.tracer.close()
        if workers:
            from .merge import merge_worker_dirs

            merge_worker_dirs(self.out_dir, workers,
                              snapshot=self.registry.to_dict(),
                              spans=own_spans)
        self.closed = True
        if active_session() is self:
            deactivate()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
