"""Span-based tracing of the control loop.

A :class:`Tracer` records *spans* (named, timed phases — ``sample``,
``hw.step``, ``actuate.hw``, …) and *instant events* (fault injections,
supervisor transitions).  Every record carries a ``trace_id`` — the
control-period index set via :meth:`Tracer.begin_period` — so spans,
metrics snapshots, and flight-recorder dumps from the same period can be
correlated across layers.

Output sinks:

* ``spans.jsonl`` — one JSON object per line; the primary
  machine-readable schema (see docs/OBSERVABILITY.md).  Records are
  buffered in memory and serialized in batches (every
  ``flush_every`` records, on :meth:`flush`, and on :meth:`close`), so
  the recording hot path only appends a tuple of what it measured —
  building the record dict, rounding, JSON encoding and file I/O all
  wait until records are read or flushed.  Call
  :meth:`flush` at interesting moments (the flight recorder does) to
  bound data loss from a crash.
* ``trace.json`` — Chrome ``trace_event`` JSON array, loadable directly
  in ``chrome://tracing`` or https://ui.perfetto.dev.  Synthesized from
  the span stream at :meth:`close` so each record is converted exactly
  once, after the run (this is what keeps enabled-telemetry overhead
  inside the <5 % budget of ``benchmarks/bench_telemetry.py``).

With no output paths the tracer keeps a bounded in-memory deque of recent
records — what the tests consume.
"""

from __future__ import annotations

import json
from collections import deque
from time import perf_counter

__all__ = ["Tracer", "NULL_SPAN", "chrome_event"]


class _NullSpan:
    """Reusable no-op context manager: the disabled-telemetry fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        pass


NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records on ``__exit__``."""

    __slots__ = ("_tracer", "name", "cat", "trace_id", "attrs", "_t0")

    def __init__(self, tracer, name, cat, trace_id, attrs):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.trace_id = trace_id
        self.attrs = attrs

    def set(self, **attrs):
        """Attach attributes mid-span."""
        self.attrs.update(attrs)

    def __enter__(self):
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = perf_counter()
        tracer = self._tracer
        tracer._emit((self.name, self.cat, self.trace_id, self._t0, t1,
                      "span", self.attrs))
        if tracer.profiler is not None:
            tracer.profiler.observe(self.name,
                                    round((t1 - self._t0) * 1e6, 1),
                                    self.trace_id)
        return False


def _record(raw, origin):
    """The record dict of one raw ``(name, cat, trace_id, t0, t1, phase,
    attrs)`` tuple (``perf_counter`` times; ``origin`` is the tracer's)."""
    name, cat, trace_id, t0, t1, phase, attrs = raw
    record = {
        "name": name,
        "cat": cat,
        "trace_id": trace_id,
        "ts_us": round((t0 - origin) * 1e6, 1),
        "dur_us": round((t1 - t0) * 1e6, 1) if phase == "span" else 0.0,
        "phase": phase,
    }
    if attrs:
        record.update(attrs)
    return record


def chrome_event(record):
    """Convert one span/instant record to a Chrome ``trace_event`` dict."""
    args = {
        k: v for k, v in record.items()
        if k not in ("name", "cat", "ts_us", "dur_us", "phase")
    }
    event = {
        "name": record["name"],
        "cat": record["cat"],
        "ph": "X" if record.get("phase") == "span" else "i",
        "pid": 1,
        "tid": 1,
        "ts": record["ts_us"],
        "args": args,
    }
    if event["ph"] == "X":
        event["dur"] = record["dur_us"]
    else:
        event["s"] = "p"  # process-scoped instant
    return event


class Tracer:
    """Records spans and instant events; streams JSONL, exports Chrome."""

    def __init__(self, jsonl_path=None, chrome_path=None, keep=8192,
                 flush_every=4096):
        self._jsonl_path = jsonl_path
        self._chrome_path = chrome_path
        self._jsonl = None
        self._pending = []  # raw records not yet serialized to disk
        self._flush_every = flush_every
        self._origin = perf_counter()
        self.trace_id = 0
        self._recent = deque(maxlen=keep)  # recent raw records (spans)
        self.span_count = 0
        self.closed = False
        # Optional per-phase profiler (repro.obs.profiler.PhaseProfiler);
        # None keeps the finish path at one attribute check.
        self.profiler = None

    # ------------------------------------------------------------------
    def begin_period(self, board_time=None):
        """Start a new trace period; returns the new period index."""
        self.trace_id += 1
        if board_time is not None:
            self.instant("period.begin", cat="period", board_time=board_time)
        return self.trace_id

    @property
    def spans(self):
        """The recent records (at most ``keep``), oldest first."""
        return [_record(raw, self._origin) for raw in self._recent]

    def span(self, name, cat="control", trace_id=None, **attrs):
        """A context manager timing one phase of the loop."""
        return _Span(
            self, name, cat,
            self.trace_id if trace_id is None else trace_id, attrs,
        )

    def instant(self, name, cat="event", trace_id=None, **attrs):
        """A zero-duration marker event."""
        t = perf_counter()
        self._emit((name, cat,
                    self.trace_id if trace_id is None else trace_id,
                    t, t, "instant", attrs))

    # ------------------------------------------------------------------
    def _emit(self, raw):
        self._recent.append(raw)
        self.span_count += 1
        if self._jsonl_path is not None and not self.closed:
            self._pending.append(raw)
            if len(self._pending) >= self._flush_every:
                self._write_pending()

    # ------------------------------------------------------------------
    def _write_pending(self):
        if not self._pending:
            return
        if self._jsonl is None:
            self._jsonl = open(self._jsonl_path, "w")
        self._jsonl.write(
            "".join(json.dumps(_record(raw, self._origin)) + "\n"
                    for raw in self._pending)
        )
        self._pending.clear()

    def flush(self):
        """Serialize buffered records and flush the JSONL stream."""
        self._write_pending()
        if self._jsonl is not None:
            self._jsonl.flush()

    def _iter_records(self):
        """Every record of the run: from disk when streamed, else memory."""
        if self._jsonl_path is not None:
            self.flush()
        if self._jsonl is not None:
            with open(self._jsonl_path) as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        yield json.loads(line)
        else:
            for raw in self._recent:
                yield _record(raw, self._origin)

    def close(self):
        """Finalize sinks: writes ``trace.json`` and closes the stream."""
        if self.closed:
            return
        self.flush()
        if self._chrome_path is not None:
            # Spans are recorded at *finish* time, so a nested span lands
            # before its enclosing parent; sort by start timestamp so the
            # exported array is ts-monotonic (what trace viewers and the
            # schema tests expect).
            events = sorted(
                (chrome_event(record) for record in self._iter_records()),
                key=lambda e: e["ts"],
            )
            with open(self._chrome_path, "w") as chrome:
                chrome.write("[\n")
                chrome.write(",\n".join(json.dumps(e) for e in events))
                chrome.write("\n]\n")
        if self._jsonl is not None:
            self._jsonl.close()
        self.closed = True
