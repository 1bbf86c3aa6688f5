"""Campaign checkpointing: an append-only journal of completed cells.

A campaign (scheme × workload × seed matrix, resilience sweep, figure
sweep) is a list of independent engine tasks.  The journal makes that list
*resumable*: every completed cell is persisted as it finishes, so a run
killed hours in — worker crash, OOM, SIGKILL, power loss — replays only
the missing cells on ``--resume`` and still produces bit-identical results
(pickle round-trips preserve float bits, and every cell carries its own
explicit seed).

Layout and durability
---------------------
``<root>/cells/<key>.pkl``
    One pickled payload per completed cell, written atomically
    (:func:`repro.cache.atomic_write_bytes`), where ``<key>`` is the
    cell's SHA-256 design fingerprint (:func:`task_key`).
``<root>/journal.jsonl``
    The append-only index.  A line is appended (flushed + fsynced) only
    *after* its payload file is durable, so a torn write can at worst lose
    the final in-flight cell — never corrupt an earlier one.  Each line
    records the payload's own SHA-256 digest; a corrupted or truncated
    payload (the chaos harness injects both) is detected on load and the
    cell is simply re-run.

Malformed journal lines (the tail of an interrupted append) are skipped,
and the last record for a key wins, so re-running a partially-complete
campaign against the same directory is always safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path

from ..cache import MISS, atomic_write_bytes, fingerprint, read_jsonl

__all__ = ["CheckpointJournal", "task_key"]


def task_key(context, task):
    """The SHA-256 identity of one engine task under one design context.

    Two tasks share a key exactly when they are guaranteed to produce the
    same result: same characterization fingerprint and design overrides
    (the :class:`~repro.experiments.schemes.DesignContext` identity), and
    same cell parameters.  ``("cell", ...)`` tasks hash their (scheme,
    workload, seed, horizon, record) tuple; ``("call", ...)`` tasks hash
    the target function's qualified name plus its canonicalized arguments.
    """
    kind, payload = task
    if kind == "cell":
        from ..experiments.runner import workload_name

        scheme, workload, seed, max_time, record = payload
        ident = ("cell", scheme, workload_name(workload), seed, max_time,
                 bool(record))
    elif kind == "call":
        fn, args, kwargs = payload
        ident = ("call", f"{fn.__module__}.{fn.__qualname__}", args, kwargs)
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return fingerprint(
        "task",
        getattr(context, "char_fingerprint", ""),
        getattr(context, "overrides", {}),
        ident,
    )


class CheckpointJournal:
    """Append-only, atomically-written record of completed campaign cells."""

    def __init__(self, root):
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.journal_path = self.root / "journal.jsonl"
        self.recorded = 0  # cells persisted by this instance
        self.resumed = 0  # cells served back from disk
        self.corrupt = 0  # entries rejected (bad digest / torn payload)

    @classmethod
    def resolve(cls, checkpoint):
        """Normalize a user-facing checkpoint argument.

        ``None``/``False`` disable checkpointing; a path-like opens that
        directory; an existing journal passes through.
        """
        if checkpoint is None or checkpoint is False:
            return None
        if isinstance(checkpoint, cls):
            return checkpoint
        return cls(checkpoint)

    # ------------------------------------------------------------------
    def _cell_path(self, key):
        return self.cells_dir / f"{key}.pkl"

    def record(self, key, value, meta=None):
        """Persist one completed cell: payload first, then the journal line."""
        payload = pickle.dumps({"key": key, "value": value},
                               protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        atomic_write_bytes(self._cell_path(key), payload)
        line = json.dumps(
            {"key": key, "sha256": digest, "meta": meta or {}},
            sort_keys=True,
        )
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.journal_path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self.recorded += 1

    def index(self):
        """``{key: journal record}`` for every parseable line (last wins).

        Unparseable lines — typically the torn tail of an append that was
        killed mid-write — are skipped silently: losing the in-flight cell
        is the designed failure mode, it just gets re-run.
        """
        try:
            records, _ = read_jsonl(self.journal_path, require="key")
        except OSError:
            return {}
        return {record["key"]: record for record in records}

    def get(self, key, expected_sha=None):
        """The journaled value for ``key``, or :data:`~repro.cache.MISS`.

        Every failure mode — missing or truncated payload, digest mismatch
        (a corrupted entry), unpicklable bytes, key mismatch — counts as a
        miss, so callers fall back to re-running the cell.
        """
        try:
            payload = self._cell_path(key).read_bytes()
        except OSError:
            self.corrupt += 1
            return MISS
        if expected_sha is not None:
            if hashlib.sha256(payload).hexdigest() != expected_sha:
                self.corrupt += 1
                return MISS
        try:
            record = pickle.loads(payload)
            if not isinstance(record, dict) or record.get("key") != key:
                raise ValueError("checkpoint payload / key mismatch")
        except Exception:
            self.corrupt += 1
            return MISS
        self.resumed += 1
        return record["value"]

    def completed_keys(self):
        """Keys with a journal entry (payloads verified lazily by get)."""
        return set(self.index())

    def clear(self):
        """Delete every journaled cell and the journal; returns count."""
        removed = 0
        if self.cells_dir.is_dir():
            for path in self.cells_dir.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        try:
            self.journal_path.unlink()
        except OSError:
            pass
        return removed

    def stats(self):
        return {
            "recorded": self.recorded,
            "resumed": self.resumed,
            "corrupt": self.corrupt,
        }
