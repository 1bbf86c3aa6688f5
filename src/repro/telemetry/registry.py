"""Process-local metrics registry (counters, gauges, histograms).

A zero-dependency, Prometheus-shaped metrics store.  Instrumented code
registers *families* (``registry.counter("supervisor_trips_total",
labels=("cause",))``) and updates *children* obtained via
:meth:`MetricFamily.labels`; unlabeled families expose ``inc``/``set``/
``observe`` directly.  Snapshots export as Prometheus text exposition
format (:meth:`MetricsRegistry.render_prometheus`) or plain JSON-able
dicts (:meth:`MetricsRegistry.to_dict`) — no client library required.

Registration is idempotent: asking for an existing family with the same
kind and label names returns the cached family, so call sites do not need
to coordinate.  Re-registering under a different kind or label set is a
programming error and raises.
"""

from __future__ import annotations

import bisect

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "EXPORT_QUANTILES",
    "quantiles_from_buckets",
    "render_prometheus",
]

# Quantile summaries attached to every exported histogram, as
# ``<name>_p50``/``_p90``/``_p99`` samples (Prometheus) and a
# ``"quantiles"`` dict (JSON).
EXPORT_QUANTILES = (0.5, 0.9, 0.99)

# Latency buckets (seconds) sized for a software control loop: 100 us
# resolution at the bottom, multi-second synthesis phases at the top.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """Freely settable value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = float(value)

    def inc(self, amount=1.0):
        self.value += amount

    def dec(self, amount=1.0):
        self.value -= amount


class Histogram:
    """Bucketed distribution with sum and count."""

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets=DEFAULT_TIME_BUCKETS):
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        value = float(value)
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self):
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        total = 0
        out = []
        for bound, n in zip(self.buckets + (float("inf"),), self.counts):
            total += n
            out.append((bound, total))
        return out

    def quantile(self, q):
        """Estimated ``q``-quantile by bucket interpolation.

        Prometheus ``histogram_quantile`` semantics: linear interpolation
        inside the bucket the rank falls into, the lowest bucket
        interpolates from 0, and a rank in the +Inf bucket returns the
        highest finite bound (the estimate cannot exceed what the buckets
        resolve — heavy tails saturate there).  Empty histograms return
        0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        prev_bound, prev_cum = 0.0, 0
        for bound, cum in self.cumulative():
            if cum >= rank:
                if bound == float("inf"):
                    return self.buckets[-1]
                width = cum - prev_cum
                if width == 0:
                    return bound
                frac = (rank - prev_cum) / width
                return prev_bound + (bound - prev_bound) * frac
            prev_bound, prev_cum = bound, cum
        return self.buckets[-1]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with zero or more label dimensions."""

    __slots__ = ("name", "help", "kind", "labelnames", "_children", "_kwargs")

    def __init__(self, name, kind, help="", labelnames=(), **kwargs):
        _validate_name(name)
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _validate_name(label)
        self._children = {}
        self._kwargs = kwargs
        if not self.labelnames:
            self._children[()] = _KINDS[kind](**kwargs)

    def labels(self, **labelvalues):
        """The child metric for one label-value combination."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _KINDS[self.kind](**self._kwargs)
        return child

    @property
    def _default(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled; use .labels(...)")
        return self._children[()]

    # Unlabeled convenience passthroughs.
    def inc(self, amount=1.0):
        self._default.inc(amount)

    def dec(self, amount=1.0):
        self._default.dec(amount)

    def set(self, value):
        self._default.set(value)

    def observe(self, value):
        self._default.observe(value)

    @property
    def value(self):
        return self._default.value

    def samples(self):
        """Iterate ``(label_dict, child)`` pairs in insertion order."""
        for key, child in self._children.items():
            yield dict(zip(self.labelnames, key)), child


class MetricsRegistry:
    """A process-local collection of metric families."""

    def __init__(self):
        self._families = {}

    # -- registration --------------------------------------------------
    def counter(self, name, help="", labels=()):
        return self._register(name, "counter", help, labels)

    def gauge(self, name, help="", labels=()):
        return self._register(name, "gauge", help, labels)

    def histogram(self, name, help="", labels=(), buckets=DEFAULT_TIME_BUCKETS):
        return self._register(name, "histogram", help, labels, buckets=buckets)

    def _register(self, name, kind, help, labels, **kwargs):
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames}"
                )
            return family
        family = MetricFamily(name, kind, help=help, labelnames=labels, **kwargs)
        self._families[name] = family
        return family

    def get(self, name):
        return self._families[name]

    def __contains__(self, name):
        return name in self._families

    def families(self):
        return [self._families[name] for name in sorted(self._families)]

    def value(self, name, **labelvalues):
        """Test/convenience accessor: current value of one child."""
        family = self._families[name]
        child = family.labels(**labelvalues) if labelvalues else family._default
        return child.value if family.kind != "histogram" else child.count

    # -- export --------------------------------------------------------
    def render_prometheus(self):
        """The registry in Prometheus text exposition format."""
        return render_prometheus(self.to_dict())

    def to_dict(self):
        """The registry as a JSON-able dict."""
        out = {}
        for family in self.families():
            values = []
            for labels, child in family.samples():
                if family.kind == "histogram":
                    values.append({
                        "labels": labels,
                        "sum": child.sum,
                        "count": child.count,
                        "buckets": [
                            {"le": b, "cumulative": c}
                            for b, c in child.cumulative()
                            if b != float("inf")
                        ],
                        "quantiles": {
                            f"p{int(q * 100)}": child.quantile(q)
                            for q in EXPORT_QUANTILES
                        },
                    })
                else:
                    values.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "values": values,
            }
        return out


def render_prometheus(snapshot):
    """Prometheus text exposition of a :meth:`MetricsRegistry.to_dict`
    snapshot — a live registry's or a merged one's.

    Each histogram child ends its buckets with ``le="+Inf"`` at its
    ``count`` (the snapshot keeps finite bounds only), then its sum,
    count and quantile samples.
    """
    lines = []
    for name, family in snapshot.items():
        kind = family.get("type", "counter")
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for value in family["values"]:
            labels = value["labels"]
            base = _label_str(labels)
            if kind == "histogram":
                for bucket in value["buckets"]:
                    bl = _label_str({**labels, "le": _fmt(bucket["le"])})
                    lines.append(f"{name}_bucket{bl} {bucket['cumulative']}")
                inf = _label_str({**labels, "le": "+Inf"})
                lines.append(f"{name}_bucket{inf} {value['count']}")
                lines.append(f"{name}_sum{base} {_fmt(value['sum'])}")
                lines.append(f"{name}_count{base} {value['count']}")
                for key, quantile in value.get("quantiles", {}).items():
                    lines.append(f"{name}_{key}{base} {_fmt(quantile)}")
            else:
                lines.append(f"{name}{base} {_fmt(value['value'])}")
    return "\n".join(lines) + "\n"


def quantiles_from_buckets(buckets, count, quantiles=EXPORT_QUANTILES):
    """Quantile estimates from exported bucket dicts (offline path).

    ``buckets`` is the JSON form — ``[{"le": bound, "cumulative": n},
    ...]`` with finite bounds only — and ``count`` the total sample
    count; same interpolation as :meth:`Histogram.quantile`.  Used to
    (re)compute summaries for merged or historical ``metrics.json``
    snapshots.
    """
    pairs = sorted((float(b["le"]), int(b["cumulative"])) for b in buckets)
    out = {}
    for q in quantiles:
        key = f"p{int(q * 100)}"
        if count == 0 or not pairs:
            out[key] = 0.0
            continue
        rank = q * count
        prev_bound, prev_cum = 0.0, 0
        value = pairs[-1][0]  # +Inf-bucket ranks saturate at the top bound
        for bound, cum in pairs:
            if cum >= rank:
                width = cum - prev_cum
                frac = (rank - prev_cum) / width if width else 1.0
                value = prev_bound + (bound - prev_bound) * frac
                break
            prev_bound, prev_cum = bound, cum
        out[key] = value
    return out


def _validate_name(name):
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric/label name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric/label name cannot start with a digit: {name!r}")


def _fmt(value):
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text):
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label(text):
    return (
        str(text).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _label_str(labels):
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels.items())
    return "{" + inner + "}"
