"""Wire protocol for the control-plane service: requests, results, identity.

The service speaks JSON over HTTP, but its *identity* model is the repo's
existing content-addressed one: a run request normalizes to exactly the
engine task tuple the batch CLI would execute (``("cell", (scheme,
workload, seed, max_time, record))``) and its fingerprint is
:func:`repro.runtime.task_key` under the server's
:class:`~repro.experiments.DesignContext` — the same SHA-256 identity the
checkpoint journal uses.  Two requests coalesce exactly when a checkpoint
would have deduplicated them, and a served response is bit-identical to
the CLI run of the same cell (the ``serve-vs-cli`` oracle in ``repro
verify`` holds the contract).

Bit-exactness across JSON relies on Python's shortest-round-trip float
repr: ``json.dumps``/``loads`` preserve every finite float64 exactly, and
the stdlib encoder's ``NaN``/``Infinity`` extension covers the non-finite
values fault scenarios can produce.

A second request kind, ``sleep``, executes a pure wall-clock delay in the
worker.  It exists for deterministic tests and load probes of the queueing
path (admission, deadlines, coalescing) without simulating anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..experiments.runner import instantiate_workload, workload_name
from ..experiments.schemes import SCHEMES
from ..runtime.executor import CellFailure

__all__ = [
    "ProtocolError",
    "ServeRequest",
    "parse_request",
    "jsonable",
    "metrics_to_wire",
    "metrics_from_wire",
    "failure_to_wire",
    "sleep_cell",
]


class ProtocolError(ValueError):
    """A malformed or unserviceable request (HTTP 400)."""


def jsonable(obj):
    """Recursively convert a result payload to JSON-safe builtins.

    Numpy scalars become Python numbers, arrays become lists, tuples
    become lists (JSON has no tuple), dict keys become strings.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return repr(obj)


def sleep_cell(context, duration, nonce):
    """Engine ``("call", ...)`` target: a pure wall-clock delay.

    Returns a small wire-ready dict so the response pipeline treats it
    like any other result.
    """
    time.sleep(float(duration))
    return {"kind": "sleep", "duration": float(duration), "nonce": nonce}


@dataclass(frozen=True)
class ServeRequest:
    """One normalized, validated service request."""

    kind: str  # "run" | "sleep"
    scheme: str = ""
    workload: str = ""
    seed: int = 7
    max_time: float = 600.0
    record: bool = False
    duration: float = 0.0  # sleep kind only
    nonce: str = ""  # sleep kind only
    deadline_s: float = None  # admission + completion deadline
    no_cache: bool = False  # skip the persistent result store (still coalesces)

    @property
    def bank_group(self):
        """Cells bank together only when their loop horizons agree."""
        return (self.max_time, self.record)

    def task(self):
        """The engine task tuple this request executes — the CLI's own."""
        if self.kind == "run":
            return ("cell", (self.scheme, self.workload, self.seed,
                             self.max_time, self.record))
        return ("call", (sleep_cell, (self.duration, self.nonce), {}))

    def fingerprint(self, context):
        """Content-addressed identity under ``context`` (coalescing key)."""
        from ..runtime import task_key

        return task_key(context, self.task())

    def label(self):
        if self.kind == "run":
            return f"{self.scheme}:{self.workload}:s{self.seed}"
        return f"sleep:{self.duration:g}:{self.nonce}"

    def to_dict(self):
        out = {"kind": self.kind}
        if self.kind == "run":
            out.update(scheme=self.scheme, workload=self.workload,
                       seed=self.seed, max_time=self.max_time,
                       record=self.record)
        else:
            out.update(duration=self.duration, nonce=self.nonce)
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        if self.no_cache:
            out["no_cache"] = True
        return out


def _number(payload, name, default, minimum=None):
    value = payload.get(name, default)
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"field {name!r} must be a number, "
                            f"got {value!r}")
    if minimum is not None and value < minimum:
        raise ProtocolError(f"field {name!r} must be >= {minimum}, "
                            f"got {value!r}")
    return value


def parse_request(payload):
    """Validate a decoded JSON body into a :class:`ServeRequest`.

    Raises :class:`ProtocolError` with a client-actionable message on any
    malformed field — the server maps that to HTTP 400.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    kind = payload.get("kind", "run")
    if kind not in ("run", "sleep"):
        raise ProtocolError(f"unknown request kind {kind!r} "
                            "(expected 'run' or 'sleep')")
    deadline = payload.get("deadline_s")
    if deadline is not None:
        deadline = _number(payload, "deadline_s", None, minimum=0.0)
    no_cache = bool(payload.get("no_cache", False))

    if kind == "sleep":
        return ServeRequest(
            kind="sleep",
            duration=_number(payload, "duration", 0.0, minimum=0.0),
            nonce=str(payload.get("nonce", "")),
            deadline_s=deadline,
            no_cache=no_cache,
        )

    scheme = payload.get("scheme")
    if scheme not in SCHEMES:
        raise ProtocolError(f"unknown scheme {scheme!r} "
                            f"(expected one of {', '.join(SCHEMES)})")
    workload = payload.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ProtocolError("field 'workload' must be a non-empty string")
    try:
        instantiate_workload(workload)
    except Exception:
        raise ProtocolError(f"unknown workload {workload!r}")
    seed = payload.get("seed", 7)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError(f"field 'seed' must be an integer, got {seed!r}")
    return ServeRequest(
        kind="run",
        scheme=scheme,
        workload=workload_name(workload),
        seed=seed,
        max_time=_number(payload, "max_time", 600.0, minimum=0.0),
        record=bool(payload.get("record", False)),
        deadline_s=deadline,
        no_cache=no_cache,
    )


# ---------------------------------------------------------------------------
# Result wire formats
# ---------------------------------------------------------------------------
def metrics_to_wire(metrics):
    """A :class:`~repro.experiments.metrics.RunMetrics` as a JSON dict.

    The ``bank`` note — the lockstep runner's lane/tick diagnostic — is
    dropped: a response must be a pure function of the request
    fingerprint, indistinguishable whether the cell ran solo, rode a
    shared bank, or came back warm from the store.  Execution-path
    diagnostics stay observable via ``/stats`` and the event stream.
    """
    notes = dict(metrics.notes or {})
    notes.pop("bank", None)
    return {
        "type": "run_metrics",
        "scheme": metrics.scheme,
        "workload": metrics.workload,
        "execution_time": float(metrics.execution_time),
        "energy": float(metrics.energy),
        "completed": bool(metrics.completed),
        "trace": {name: jsonable(np.asarray(arr).tolist())
                  for name, arr in (metrics.trace or {}).items()},
        "notes": jsonable(notes),
    }


def metrics_from_wire(wire):
    """Rebuild :class:`RunMetrics` from its wire dict (floats bit-exact)."""
    from ..experiments.metrics import RunMetrics

    return RunMetrics(
        scheme=wire["scheme"],
        workload=wire["workload"],
        execution_time=float(wire["execution_time"]),
        energy=float(wire["energy"]),
        completed=bool(wire["completed"]),
        trace={name: np.asarray(values, dtype=float)
               for name, values in (wire.get("trace") or {}).items()},
        notes=wire.get("notes") or {},
    )


def failure_to_wire(failure):
    """A structured :class:`CellFailure` as a JSON dict (HTTP 500 body)."""
    return {
        "type": "cell_failure",
        "label": failure.label,
        "reason": failure.reason,
        "attempts": failure.attempts,
        "error": failure.error,
        "elapsed": failure.elapsed,
    }


def result_to_wire(result):
    """Dispatch any executed task result to its wire form."""
    from ..experiments.metrics import RunMetrics

    if isinstance(result, RunMetrics):
        return metrics_to_wire(result)
    if isinstance(result, CellFailure):
        return failure_to_wire(result)
    return jsonable(result)
