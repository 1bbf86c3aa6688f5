"""Structured campaign event stream: ``events.jsonl``.

Long checkpointed campaigns (``repro.runtime``) run for hours and die in
interesting ways; the journal makes them resumable, but "how is it
going?" needed an artifact of its own.  The engine and the supervised
executor emit one JSON object per line — campaign begin/end, cell
started / completed / resumed / retried / timed-out / failed /
checkpointed — into ``events.jsonl`` next to the checkpoint journal (or
the telemetry directory when no journal is active).  ``repro status``
and ``repro report`` read the stream back for progress, ETA, and
retry/failure health, for finished *and* in-flight campaigns.

Design rules:

* **single writer** — only the campaign parent process appends (workers
  report through their pipes), and a lock serializes its threads (the
  supervisor thread emits beside the caller), so lines never interleave;
* **append-only, flushed per event** — a reader polling a live campaign
  sees every completed line; a killed run leaves at most one torn tail
  line, which :func:`read_events` skips with a count (same contract as
  the checkpoint journal);
* **never fatal** — emission failures (disk full, permissions) are
  swallowed: observability must not take the campaign down.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from ..cache import read_jsonl

__all__ = ["CampaignEvents", "read_events", "events_path", "EVENTS_FILENAME"]

EVENTS_FILENAME = "events.jsonl"


def events_path(directory):
    """The event-stream path inside a campaign/telemetry directory."""
    return Path(directory) / EVENTS_FILENAME


class CampaignEvents:
    """Append-only JSONL event writer for one campaign directory."""

    def __init__(self, path):
        self.path = Path(path)
        self._fh = None
        self._lock = threading.Lock()
        self.emitted = 0
        self.failed = False  # a write failed; stop trying, keep running

    def emit(self, event, **fields):
        """Append one event line (wall-clock stamped, flushed)."""
        if self.failed:
            return
        record = {"event": event, "t": round(time.time(), 3)}
        record.update(fields)
        with self._lock:
            try:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fh = open(self.path, "a")
                self._fh.write(json.dumps(record) + "\n")
                self._fh.flush()
            except (OSError, TypeError, ValueError):
                self.failed = True
                return
            self.emitted += 1

    def close(self):
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_events(source):
    """Parse an event stream; returns ``(records, skipped)``.

    ``source`` is an ``events.jsonl`` path or a directory containing one.
    Torn or corrupt lines — the tail a SIGKILLed campaign leaves behind —
    are counted in ``skipped`` instead of raising, so a live or crashed
    campaign is always readable.
    """
    path = Path(source)
    if path.is_dir():
        path = path / EVENTS_FILENAME
    try:
        return read_jsonl(path, require="event")
    except OSError:
        raise FileNotFoundError(f"no campaign event stream at {path}")
