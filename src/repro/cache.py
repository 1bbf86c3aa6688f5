"""Persistent design-artifact cache (characterization + synthesis results).

Building a :class:`~repro.experiments.DesignContext` means re-running the
training campaign and re-solving the D-K/mu syntheses and LQG Riccati
equations — seconds to minutes of work that is a pure function of the board
spec, the characterization parameters, and the scheme knobs.  This module
memoizes those artifacts to an on-disk cache so repeat sweeps (and every
worker of the parallel experiment engine) skip re-synthesis entirely.

Keying and invalidation
-----------------------
Entries are keyed by a SHA-256 *fingerprint* of the canonicalized inputs
(:func:`fingerprint`), and every stored payload is stamped with
``repro.__version__``: bumping the package version invalidates the whole
cache, and any fingerprint-relevant input change produces a new key.
Corrupted or stale entries are never fatal — a failed load is treated as a
miss (the entry is deleted best-effort and the artifact recomputed).

The cache root resolves, in order: an explicit path, ``$REPRO_CACHE_DIR``,
``~/.cache/repro``.  ``python -m repro cache info|clear`` inspects and
clears it from the command line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

import numpy as np

from . import __version__

__all__ = [
    "DesignCache",
    "fingerprint",
    "default_cache_dir",
    "MISS",
    "atomic_write_bytes",
    "atomic_write_text",
    "read_jsonl",
]

# Sentinel distinguishing "no cached value" from a cached None.
MISS = object()


def atomic_write_bytes(path, data, fsync=True):
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    A reader — or a run interrupted by a crash or SIGKILL — never observes
    a partial file: the bytes land in a sibling temp file first, are
    (optionally) fsynced, and only then renamed over the destination.  The
    temp file is unlinked on any failure.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path, text, fsync=True):
    """Atomic UTF-8 text counterpart of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def read_jsonl(path, require=None):
    """Parse an append-only JSONL file; returns ``(records, skipped)``.

    The one reader for every JSONL artifact a run leaves (spans, campaign
    events, the checkpoint journal).  A writer killed mid-append leaves a
    torn final line; it and any other unparsable, non-object or (when
    ``require`` names a key) keyless line is counted in ``skipped``
    instead of raising, so the surviving records stay readable.  What to
    do with the count is the caller's policy.  A missing file raises
    :class:`FileNotFoundError`.
    """
    records = []
    skipped = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(record, dict) and (require is None
                                             or require in record):
                records.append(record)
            else:
                skipped += 1
    return records, skipped


def default_cache_dir():
    """The default on-disk cache root (``$REPRO_CACHE_DIR`` overrides)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _canonical(obj):
    """A stable, hash-friendly representation of design inputs.

    Handles the types that appear in cache keys: dataclasses (BoardSpec,
    ClusterSpec), plain attribute objects (QuantizedRange), numpy values,
    and ordinary containers.  Floats go through ``repr`` so equal values
    hash equally regardless of formatting.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return repr(obj.item())
    if isinstance(obj, np.ndarray):
        return f"ndarray{obj.shape}:" + _canonical(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        return f"{type(obj).__name__}(" + _canonical(fields) + ")"
    if isinstance(obj, dict):
        items = sorted((str(k), _canonical(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}={v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if hasattr(obj, "__dict__"):
        public = {
            k: v for k, v in vars(obj).items() if not k.startswith("__")
        }
        return f"{type(obj).__name__}(" + _canonical(public) + ")"
    return repr(obj)


def fingerprint(*parts):
    """SHA-256 hex digest of the canonicalized parts (the cache key core)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(_canonical(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class DesignCache:
    """A directory of version-stamped pickled design artifacts."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    @classmethod
    def resolve(cls, cache):
        """Normalize a user-facing cache argument.

        ``None``/``False`` disable caching; ``True`` uses the default
        location; a path-like opens that directory; an existing
        :class:`DesignCache` passes through.
        """
        if cache is None or cache is False:
            return None
        if cache is True:
            return cls()
        if isinstance(cache, cls):
            return cache
        return cls(cache)

    # ------------------------------------------------------------------
    def _path(self, key):
        return self.root / f"{key}.pkl"

    def get(self, key):
        """The cached value for ``key``, or :data:`MISS`.

        Any failure — unreadable file, truncated pickle, version or key
        mismatch — counts as a miss; corrupted entries are deleted
        best-effort so the rewrite starts clean.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (
                not isinstance(payload, dict)
                or payload.get("version") != __version__
                or payload.get("key") != key
            ):
                raise ValueError("stale or mismatched cache entry")
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except Exception:
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return MISS
        self.hits += 1
        return payload["value"]

    def put(self, key, value):
        """Store ``value`` under ``key`` (atomic, best-effort).

        Write failures (read-only filesystem, unpicklable artifact) are
        swallowed: the cache accelerates, it must never break a run.
        """
        payload = {"version": __version__, "key": key, "value": value}
        try:
            atomic_write_bytes(
                self._path(key),
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
                fsync=False,
            )
        except Exception:
            return False
        return True

    def fetch(self, key, builder):
        """Cached value for ``key``, building and storing it on a miss."""
        value = self.get(key)
        if value is MISS:
            value = builder()
            self.put(key, value)
        return value

    # ------------------------------------------------------------------
    def entries(self):
        """``(name, bytes, mtime)`` for every entry, newest first."""
        if not self.root.is_dir():
            return []
        out = []
        for path in self.root.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path.stem, stat.st_size, stat.st_mtime))
        out.sort(key=lambda e: e[2], reverse=True)
        return out

    def info(self):
        """Human-readable summary of the cache directory."""
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        lines = [
            f"cache dir: {self.root}",
            f"entries: {len(entries)}  total: {total / 1e6:.2f} MB  "
            f"(version stamp: {__version__})",
        ]
        for name, size, _ in entries:
            lines.append(f"  {name[:16]}...  {size / 1e3:.1f} kB")
        return "\n".join(lines)

    def clear(self):
        """Delete every cache entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.pkl") if self.root.is_dir() else []:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
