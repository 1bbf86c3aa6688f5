"""``repro report``: one markdown/HTML verdict for a run directory.

The one reader and renderer for what a campaign or a ``--telemetry``
run recorded — finished or in-flight (``repro trace`` is an alias):

* **health** — progress/ETA/retry/failure from ``events.jsonl``
  (:mod:`repro.obs.health`);
* **quality** — per-cell control-quality KPIs
  (:mod:`repro.obs.quality`) recovered from the checkpoint journal's
  cell payloads: full :class:`QualityReport` tables for cells that
  carried a board trace, summary rows otherwise;
* **profile** — the per-phase control-loop latency summary
  (:mod:`repro.obs.profiler`) from the recorded ``metrics.json``;
* **spans** — where control-loop wall-clock time went, per span name,
  from ``spans.jsonl``, plus the fault-injection instants;
* **flight dumps** — every ``flight-*.json`` with its window and
  supervisor states;
* **metrics** — every sample of the ``metrics.json`` snapshot, and a
  pointer to the Perfetto-loadable ``trace.json``.

Sections degrade independently: a directory holding only telemetry still
yields a span+metrics report, a bare checkpoint dir still yields
health+quality, and a torn artifact is skipped with a warning rather
than taking the other sections down.  The markdown renders standalone;
:func:`to_html` wraps it in a minimal self-contained page for sharing.
"""

from __future__ import annotations

import html as _html
import json
import warnings
from pathlib import Path

from ..cache import read_jsonl
from .events import EVENTS_FILENAME
from .health import load_health, render_status
from .profiler import phase_summary
from .quality import analyze_run

__all__ = ["build_report", "to_html", "quality_rows", "load_spans",
           "load_flight_dumps"]


def _md_table(headers, rows):
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


def quality_rows(directory, spec=None):
    """Quality-KPI rows recovered from a checkpoint journal.

    Returns ``(headers, rows, reports)`` where ``reports`` maps cell
    labels to full :class:`~repro.obs.quality.QualityReport` objects for
    the cells whose payloads carried a board trace.  Dict-shaped cells
    (the resilience sweep) contribute summary rows from their scalar
    KPIs.
    """
    from ..runtime import CellFailure, CheckpointJournal

    journal = CheckpointJournal(directory)
    entries = journal.index()
    if not entries:
        return None, [], {}
    if spec is None:
        from ..board import default_xu3_spec

        spec = default_xu3_spec()
    headers = ["cell", "ExD (J·s)", "done", "cap viol (s)", ">limit °C (s)",
               "DVFS/s", "settle (s)"]
    rows = []
    reports = {}

    def _add(label, value, lane=None):
        name = label if lane is None else f"{label}[{lane}]"
        if isinstance(value, CellFailure):
            rows.append([name, "-", f"FAILED ({value.reason})",
                         "-", "-", "-", "-"])
            return
        if hasattr(value, "execution_time"):  # RunMetrics-shaped
            if getattr(value, "trace", None):
                report = analyze_run(value, spec)
                reports[name] = report
                settle = next(
                    (r.settling_time for r in report.responses
                     if r.signal == "power_big"), None)
                rows.append([
                    name, f"{report.exd:.0f}",
                    "yes" if report.completed else "no",
                    f"{report.power_cap.time_above:.2f}",
                    f"{report.thermal.time_above:.2f}",
                    f"{report.dvfs_per_sec:.2f}",
                    f"{settle:.1f}" if settle is not None else "-",
                ])
            else:
                rows.append([
                    name, f"{value.energy * value.execution_time:.0f}",
                    "yes" if value.completed else "no", "-", "-", "-", "-",
                ])
            return
        if isinstance(value, dict) and "exd" in value:  # resilience cell
            rows.append([
                name, f"{value['exd']:.0f}",
                "yes" if value.get("completed") else "no",
                f"{value.get('power_violation_time', 0.0):.2f}",
                f"{value.get('temp_violation_time', 0.0):.2f}",
                "-", "-",
            ])
            return
        rows.append([name, "-", "?", "-", "-", "-", "-"])

    for key, entry in sorted(entries.items(),
                             key=lambda kv: kv[1].get("meta", {})
                             .get("label", kv[0])):
        value = journal.get(key, entry.get("sha256"))
        from ..cache import MISS

        label = entry.get("meta", {}).get("label", key[:12])
        if value is MISS:
            rows.append([label, "-", "corrupt payload", "-", "-", "-", "-"])
            continue
        if isinstance(value, list):
            for lane, item in enumerate(value):
                _add(label, item, lane=lane)
        else:
            _add(label, value)
    return headers, rows, reports


def load_spans(directory):
    """The ``spans.jsonl`` records of a run directory (none if absent).

    A session killed mid-write (SIGKILL, full disk, chaos harness) leaves
    a torn final line; corrupt lines are skipped with a counted warning so
    the surviving records stay readable.
    """
    path = Path(directory) / "spans.jsonl"
    try:
        records, skipped = read_jsonl(path)
    except FileNotFoundError:
        return []
    if skipped:
        warnings.warn(f"skipped {skipped} torn/corrupt line(s) in {path}",
                      RuntimeWarning, stacklevel=2)
    return records


def load_flight_dumps(directory):
    """Every ``flight-*.json`` payload, in sequence order.

    A dump torn mid-write is skipped with a counted warning — the
    recorder dumps exactly because something is going wrong, so partial
    artifacts are expected, not exceptional.
    """
    dumps = []
    skipped = 0
    for path in sorted(Path(directory).glob("flight-*.json")):
        try:
            payload = json.loads(path.read_text())
        except (ValueError, OSError):
            skipped += 1
            continue
        if not isinstance(payload, dict) or "sequence" not in payload:
            skipped += 1
            continue
        payload["_path"] = path.name
        dumps.append(payload)
    if skipped:
        warnings.warn(
            f"skipped {skipped} torn/corrupt flight dump(s) in {directory}",
            RuntimeWarning, stacklevel=2)
    return dumps


def _load_metrics(path):
    """The ``metrics.json`` snapshot at ``path``, or ``None``.

    A torn or corrupt snapshot is skipped with a warning, and the caller
    says so in the report.
    """
    try:
        metrics = json.loads(path.read_text())
    except (ValueError, OSError):
        metrics = None
    if not isinstance(metrics, dict):
        warnings.warn(f"skipped torn/corrupt metrics snapshot {path}",
                      RuntimeWarning, stacklevel=2)
        return None
    return metrics


def _percentile(sorted_values, q):
    return sorted_values[int(q * (len(sorted_values) - 1) + 0.5)]


def _span_section(spans, n_dumps):
    """Per-span-name wall-clock totals, slowest first."""
    by_name = {}
    for record in spans:
        if record.get("phase") == "span" and "dur_us" in record:
            by_name.setdefault(record.get("name", "?"), []).append(
                record["dur_us"])
    n_spans = sum(len(durs) for durs in by_name.values())
    # Period ids restart in every worker of a merged directory.
    n_periods = len({(r.get("worker"), r["trace_id"]) for r in spans
                     if r.get("trace_id")})
    lines = ["## Control-loop time by span", "",
             f"periods traced: {n_periods} · spans: {n_spans} · "
             f"instant events: {len(spans) - n_spans} · "
             f"flight dumps: {n_dumps}", ""]
    rows = []
    for name in sorted(by_name, key=lambda n: -sum(by_name[n])):
        durs = sorted(by_name[name])
        total = sum(durs)
        rows.append([name, len(durs), f"{total / 1000:.2f}",
                     f"{total / len(durs):.1f}",
                     f"{_percentile(durs, 0.95):.1f}", f"{durs[-1]:.1f}"])
    if rows:
        lines += _md_table(["span", "count", "total ms", "mean µs",
                            "p95 µs", "max µs"], rows)
        lines.append("")
    return lines


def _flight_line(payload):
    snaps = payload.get("snapshots", [])
    times = [s.get("time") for s in snaps
             if isinstance(s.get("time"), (int, float))]
    window = f" t=[{min(times):.1f}s..{max(times):.1f}s]" if times else ""
    states = {s.get("supervisor_state") for s in snaps
              if s.get("supervisor_state")}
    state_note = f" states={sorted(states)}" if states else ""
    return (f"- #{payload['sequence']:02d} {payload.get('reason', '?')}: "
            f"{len(snaps)} period(s){window}{state_note} "
            f"[{payload['_path']}]")


def _metric_rows(metrics):
    """One ``[metric, value]`` row per sample of every family."""
    rows = []
    for name in sorted(metrics):
        family = metrics[name]
        for sample in family.get("values", ()):
            labels = sample.get("labels") or {}
            suffix = ("{" + ",".join(f"{k}={v}"
                                     for k, v in sorted(labels.items())) + "}"
                      if labels else "")
            if family.get("type") == "histogram":
                count = sample.get("count", 0)
                mean = sample.get("sum", 0.0) / count * 1e3 if count else 0.0
                value = f"count={count} mean={mean:.3f} ms"
            else:
                value = sample.get("value", 0)
                value = (int(value) if float(value).is_integer()
                         else round(value, 6))
            rows.append([f"{name}{suffix}", value])
    return rows


def build_report(directory, spec=None, title=None):
    """Render the combined campaign report (markdown) for one directory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"not a campaign directory: {directory}")
    lines = [f"# Campaign report: {title or directory.name}", ""]
    found = False

    # --- health -------------------------------------------------------
    if (directory / EVENTS_FILENAME).is_file():
        found = True
        health = load_health(directory)
        state = "finished" if health.finished else "in-flight"
        lines += ["## Health", ""]
        lines += _md_table(
            ["state", "progress", "fresh", "resumed", "failed", "retries",
             "timeouts", "runs"],
            [[state,
              f"{health.done}/{health.total or '?'}",
              health.completed, health.resumed, health.failed,
              health.retries, health.timeouts, health.runs]])
        if health.failures:
            lines += ["", "Failures:", ""]
            for failure in health.failures:
                lines.append(f"- `{failure['label']}` — {failure['reason']}"
                             + (f" after {failure['attempts']} attempt(s)"
                                if failure.get("attempts") else ""))
        lines.append("")

    # --- quality ------------------------------------------------------
    headers, rows, reports = (None, [], {})
    if (directory / "journal.jsonl").is_file():
        headers, rows, reports = quality_rows(directory, spec=spec)
    if rows:
        found = True
        lines += ["## Control quality", ""]
        lines += _md_table(headers, rows)
        lines.append("")
        for name, report in reports.items():
            lines += [f"### {name}", "", "```", report.render(), "```", ""]

    # --- profile ------------------------------------------------------
    metrics_path = directory / "metrics.json"
    metrics = _load_metrics(metrics_path) if metrics_path.exists() else None
    if metrics is not None:
        found = True
        phases = phase_summary(metrics)
        if phases:
            lines += ["## Control-loop phase profile", ""]
            lines += _md_table(
                ["phase", "count", "mean µs", "p50 µs", "p90 µs", "p99 µs"],
                [[phase, entry["count"], f"{entry['mean_us']:.1f}",
                  f"{entry.get('p50_us', 0):.1f}",
                  f"{entry.get('p90_us', 0):.1f}",
                  f"{entry.get('p99_us', 0):.1f}"]
                 for phase, entry in sorted(phases.items())])
            lines.append("")

    # --- spans, faults, flight dumps -----------------------------------
    spans = load_spans(directory)
    dumps = load_flight_dumps(directory)
    if spans:
        found = True
        lines += _span_section(spans, len(dumps))
    faults = [r for r in spans if r.get("cat") == "fault"]
    if faults:
        lines += ["## Fault-injection events", ""]
        lines += [f"- period {r.get('trace_id', '?')}: {r.get('name', '?')} "
                  f"kind={r.get('kind', '?')}" for r in faults]
        lines.append("")
    if dumps:
        found = True
        lines += ["## Flight-recorder dumps", ""]
        lines += [_flight_line(payload) for payload in dumps]
        lines.append("")

    # --- metrics ------------------------------------------------------
    if metrics is not None:
        metric_rows = _metric_rows(metrics)
        lines += ["## Metrics", ""]
        lines += (_md_table(["metric", "value"], metric_rows) if metric_rows
                  else ["Empty registry."])
        lines.append("")
    elif metrics_path.exists():
        lines += ["## Metrics", "",
                  f"`{metrics_path.name}` is torn or corrupt; skipped.", ""]
    if (directory / "trace.json").is_file():
        lines += ["## Trace", "",
                  f"Load `{directory / 'trace.json'}` in chrome://tracing "
                  "or https://ui.perfetto.dev", ""]

    if not found:
        if metrics_path.exists():
            raise FileNotFoundError(
                f"no readable campaign artifacts in {directory}: "
                f"{metrics_path.name} is torn or corrupt")
        raise FileNotFoundError(
            f"no campaign artifacts (events.jsonl / journal.jsonl / "
            f"spans.jsonl / metrics.json / flight-*.json) in {directory}")
    return "\n".join(lines).rstrip() + "\n"


def to_html(markdown, title="repro campaign report"):
    """A minimal, dependency-free HTML wrapping of the markdown report.

    Handles exactly the constructs :func:`build_report` emits — ATX
    headers, pipe tables, fenced code blocks, bullet lists, paragraphs —
    which keeps this a renderer for our own reports, not a markdown
    engine.
    """
    out = ["<!DOCTYPE html>", "<html><head>",
           f"<title>{_html.escape(title)}</title>",
           "<meta charset='utf-8'>",
           "<style>body{font-family:sans-serif;max-width:72em;margin:2em "
           "auto;padding:0 1em}table{border-collapse:collapse}td,th{border:"
           "1px solid #999;padding:.25em .6em;text-align:right}th{background:"
           "#eee}td:first-child,th:first-child{text-align:left}pre{background:"
           "#f6f6f6;padding:.8em;overflow-x:auto}</style>",
           "</head><body>"]
    in_code = False
    in_table = False
    in_list = False

    def _close_blocks():
        nonlocal in_table, in_list
        if in_table:
            out.append("</table>")
            in_table = False
        if in_list:
            out.append("</ul>")
            in_list = False

    for raw in markdown.splitlines():
        line = raw.rstrip()
        if line.startswith("```"):
            _close_blocks()
            out.append("</pre>" if in_code else "<pre>")
            in_code = not in_code
            continue
        if in_code:
            out.append(_html.escape(line))
            continue
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if all(set(c) <= {"-"} and c for c in cells):
                continue  # separator row
            if not in_table:
                _close_blocks()
                out.append("<table>")
                in_table = True
                tag = "th"
            else:
                tag = "td"
            out.append("<tr>" + "".join(
                f"<{tag}>{_html.escape(c)}</{tag}>" for c in cells) + "</tr>")
            continue
        if line.startswith("#"):
            _close_blocks()
            level = len(line) - len(line.lstrip("#"))
            text = _html.escape(line[level:].strip())
            out.append(f"<h{min(level, 6)}>{text}</h{min(level, 6)}>")
            continue
        if line.startswith("- "):
            if not in_list:
                _close_blocks()
                out.append("<ul>")
                in_list = True
            out.append(f"<li>{_html.escape(line[2:])}</li>")
            continue
        _close_blocks()
        if line:
            out.append(f"<p>{_html.escape(line)}</p>")
    _close_blocks()
    if in_code:
        out.append("</pre>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"
