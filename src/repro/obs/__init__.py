"""Observability analytics: quality KPIs, phase profiling, campaign health.

``repro.obs`` turns the raw artifacts the telemetry substrate records —
board traces, span streams, metrics snapshots, checkpoint journals —
into *verdicts*:

* :mod:`~repro.obs.quality` — control-theoretic KPIs (settling time,
  overshoot, cap-violation exposure, actuation churn, supervisor
  residency, E×D timeline) as JSON-serializable
  :class:`~repro.obs.quality.QualityReport` objects, computed from any
  recorded trace — scalar, fastpath, or bank lane alike;
* :mod:`~repro.obs.profiler` — a sampling per-phase profiler of the
  control period (sensing / controller / optimizer / actuation /
  plant_step / telemetry) exporting p50/p90/p99 summaries through the
  metrics registry;
* :mod:`~repro.obs.events` / :mod:`~repro.obs.health` — the structured
  campaign event stream (``events.jsonl``) and its progress / ETA /
  retry / failure analysis, behind ``repro status``;
* :mod:`~repro.obs.report` — the combined markdown/HTML report of a
  campaign or telemetry directory behind ``repro report`` (alias
  ``repro trace``), and the span / flight-dump loaders it reads with.

Everything here is read-side or behind the same is-``None`` fast path as
telemetry: with no session and no checkpoint directory, nothing is
computed, written, or changed.
"""

from .events import CampaignEvents, events_path, read_events
from .health import CampaignHealth, analyze_events, load_health, render_status
from .profiler import PhaseProfiler, phase_summary
from .quality import (
    Exposure,
    QualityReport,
    RackQuality,
    StepResponse,
    analyze_matrix,
    analyze_rack,
    analyze_run,
    analyze_trace,
    exposure,
    step_response,
    transition_count,
)
from .report import build_report, load_flight_dumps, load_spans, to_html

__all__ = [
    "CampaignEvents",
    "CampaignHealth",
    "Exposure",
    "PhaseProfiler",
    "QualityReport",
    "RackQuality",
    "StepResponse",
    "analyze_events",
    "analyze_matrix",
    "analyze_rack",
    "analyze_run",
    "analyze_trace",
    "build_report",
    "events_path",
    "exposure",
    "load_flight_dumps",
    "load_health",
    "load_spans",
    "phase_summary",
    "read_events",
    "render_status",
    "step_response",
    "to_html",
    "transition_count",
]
