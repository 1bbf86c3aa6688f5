"""Merging per-worker telemetry directories into one coherent session dir.

The parallel experiment engine gives every worker process its own
:class:`~repro.telemetry.TelemetrySession` rooted at
``<parent>/worker-<n>/``: sessions are process-local by design, so workers
never contend on shared files.  When the pool joins, :func:`merge_worker_dirs`
folds the worker outputs back into the parent directory:

* ``metrics.json`` — counters and histograms are *summed* across workers
  (counts, sums, and per-bucket cumulative totals); gauges keep the value
  from the last worker that reported the family (gauges are "last write
  wins" within a process, and the same holds across the merge).
* ``spans.jsonl`` — concatenated in worker order, each span annotated with
  a ``worker`` attribute so interleaved timelines stay attributable.
* ``metrics.prom`` — re-rendered from the merged JSON snapshot by the
  same :func:`~repro.telemetry.registry.render_prometheus` a live
  registry uses.

Worker directories are left in place (they are the ground truth for
debugging a single worker); the merged artifacts land next to them.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..cache import atomic_write_text, read_jsonl
from .registry import quantiles_from_buckets, render_prometheus

__all__ = ["merge_worker_dirs", "merge_metrics_dicts"]


def _merge_values(kind, base_values, new_values):
    """Fold one family's value list from a worker into the accumulator."""
    by_labels = {
        json.dumps(v["labels"], sort_keys=True): v for v in base_values
    }
    for value in new_values:
        key = json.dumps(value["labels"], sort_keys=True)
        seen = by_labels.get(key)
        if seen is None:
            by_labels[key] = json.loads(json.dumps(value))
            continue
        if kind == "histogram":
            seen["sum"] += value["sum"]
            seen["count"] += value["count"]
            mine = {b["le"]: b for b in seen["buckets"]}
            for bucket in value["buckets"]:
                if bucket["le"] in mine:
                    mine[bucket["le"]]["cumulative"] += bucket["cumulative"]
                else:
                    seen["buckets"].append(dict(bucket))
        elif kind == "counter":
            seen["value"] += value["value"]
        else:  # gauge: last writer wins
            seen["value"] = value["value"]
    return list(by_labels.values())


def merge_metrics_dicts(dicts):
    """Merge several ``MetricsRegistry.to_dict()`` snapshots into one."""
    merged = {}
    for snapshot in dicts:
        for name, family in snapshot.items():
            seen = merged.get(name)
            if seen is None:
                merged[name] = json.loads(json.dumps(family))
                continue
            seen["values"] = _merge_values(
                family.get("type", "counter"), seen["values"],
                family["values"],
            )
    # Quantile summaries cannot be merged sample-wise; re-estimate them
    # from the merged cumulative buckets.
    for family in merged.values():
        if family.get("type") != "histogram":
            continue
        for value in family["values"]:
            if "quantiles" in value:
                value["quantiles"] = quantiles_from_buckets(
                    value.get("buckets", ()), value.get("count", 0))
    return dict(sorted(merged.items()))


def merge_worker_dirs(parent_dir, worker_dirs=None, snapshot=None,
                      spans=()):
    """Merge worker telemetry into ``parent_dir``; returns the merged dict.

    ``worker_dirs`` defaults to every ``worker-*`` subdirectory of the
    parent, sorted by name (deterministic merge order).  Missing or
    unparsable worker artifacts are skipped — a crashed worker must not
    take the merged report down with it.  ``snapshot`` and ``spans`` are
    the parent's own metrics and span records, when a session records
    beside its workers; they merge in first.
    """
    parent = Path(parent_dir)
    if worker_dirs is None:
        worker_dirs = sorted(p for p in parent.glob("worker-*") if p.is_dir())
    else:
        worker_dirs = [Path(p) for p in worker_dirs]

    snapshots = [] if snapshot is None else [snapshot]
    span_lines = [json.dumps(span) for span in spans]
    for worker in worker_dirs:
        metrics_path = worker / "metrics.json"
        if metrics_path.is_file():
            try:
                snapshots.append(json.loads(metrics_path.read_text()))
            except (json.JSONDecodeError, OSError):
                pass
        try:
            records, _ = read_jsonl(worker / "spans.jsonl")
        except OSError:
            continue
        for span in records:
            span["worker"] = worker.name
            span_lines.append(json.dumps(span))

    merged = merge_metrics_dicts(snapshots)
    atomic_write_text(parent / "metrics.json", json.dumps(merged, indent=1),
                      fsync=False)
    atomic_write_text(parent / "metrics.prom", render_prometheus(merged),
                      fsync=False)
    if span_lines:
        atomic_write_text(parent / "spans.jsonl",
                          "\n".join(span_lines) + "\n", fsync=False)
    return merged
