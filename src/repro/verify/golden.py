"""Golden-trace regression suite: canonical runs as reviewed artifacts.

A *golden trace* is the recorded behavior of one canonical
(scheme, workload) cell — sub-sampled board trace plus run summary —
checked into ``tests/golden/`` as JSON.  The comparator replays the cell
and diffs the fresh trace against the golden one with per-signal
tolerances, so any behavioral drift (a model change, a solver change, an
accidental semantics change in the fastpath) shows up as a reviewable
diff instead of silently shifting every downstream figure.

The canonical matrix holds heuristic cells, which need no synthesized
artifacts, and SSV cells (``yukta-hwssv-osheur``/``yukta-hwssv-osssv``),
whose controllers come out of gray-box identification and mu-synthesis,
so an SSV cell pins the design flow as well as the closed loop.  Every
cell replays against the design context built from ``GOLDEN_DESIGN``,
whatever context the caller holds, so ``repro verify --quick`` and the
test suite check the same synthesized controllers.

Tolerance: every cell, synthesized or not, uses the same rtol 1e-9 /
atol 1e-12.  Identification and synthesis are deterministic for a given
NumPy/LAPACK build, so on one platform an SSV cell replays bit-identical.
A solver change that moves a synthesized gain even in its last bits can
flip a quantized DVFS or placement decision, which no finite tolerance
absorbs; such drift is reported, reviewed and re-minted like any other
behavior change.

Regenerate after an *intentional* behavior change with::

    python -m repro verify --regen-golden

and commit the resulting JSON diff alongside the code change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .oracles import ulp_distance

__all__ = [
    "GOLDEN_DESIGN",
    "GOLDEN_DIR",
    "GOLDEN_MATRIX",
    "GOLDEN_SIGNALS",
    "TraceMismatch",
    "capture_trace",
    "capture_traces_batched",
    "compare_traces",
    "golden_context",
    "golden_path",
    "load_golden",
    "write_golden",
    "verify_goldens",
    "regen_goldens",
    "RACK_GOLDEN_MATRIX",
    "RACK_GOLDEN_SIGNALS",
    "capture_rack_trace",
    "regen_rack_goldens",
    "verify_rack_goldens",
]

GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

# The canonical scheme x workload matrix (kept deliberately small: these
# run on every CI push).  max_time bounds the simulated horizon so a cell
# costs well under a second of wall clock.
GOLDEN_MATRIX = (
    ("coordinated-heuristic", "blackscholes"),
    ("coordinated-heuristic", "mcf"),
    ("decoupled-heuristic", "blackscholes"),
    ("yukta-hwssv-osheur", "blackscholes"),
    ("yukta-hwssv-osheur", "mcf"),
    ("yukta-hwssv-osssv", "blackscholes"),
    ("yukta-hwssv-osssv", "mcf"),
)

# The characterization campaign the SSV cells' controllers are designed
# from (the test suite's shared design context).
GOLDEN_DESIGN = {"samples_per_program": 120, "seed": 99}

# Which BoardTrace signals are pinned, sub-sampled every ``stride`` steps.
GOLDEN_SIGNALS = (
    "times", "power_big", "power_little", "temperature", "bips_total",
    "freq_big", "freq_little", "cores_big", "cores_little",
)

_FORMAT = 1
_DEFAULT_RTOL = 1e-9
_DEFAULT_ATOL = 1e-12


@dataclass
class TraceMismatch:
    """One golden-vs-fresh disagreement beyond tolerance."""

    location: str  # e.g. "signals.power_big[12]" or "summary.energy"
    golden: float
    fresh: float
    ulp: float

    def __str__(self):
        return (
            f"{self.location}: golden {self.golden!r} vs fresh "
            f"{self.fresh!r} ({self.ulp} ULP)"
        )


def golden_path(scheme, workload, golden_dir=None):
    root = Path(golden_dir) if golden_dir is not None else GOLDEN_DIR
    return root / f"{scheme}__{workload}.json"


def golden_context(context):
    """The design context golden cells replay against.

    ``context`` itself when it was built from :data:`GOLDEN_DESIGN` with
    no design overrides, else a context built from that campaign for the
    same spec (heuristic cells read only the spec).
    """
    from ..cache import fingerprint
    from ..experiments.schemes import DesignContext

    fp = fingerprint("characterization", context.spec,
                     GOLDEN_DESIGN["samples_per_program"],
                     GOLDEN_DESIGN["seed"])
    if context.char_fingerprint == fp and not any(context.overrides.values()):
        return context
    return DesignContext.create(spec=context.spec, cache=context.cache,
                                **GOLDEN_DESIGN)


def _package_trace(metrics, scheme, workload, context, seed, max_time,
                   stride):
    """Shape one run's metrics into the golden-trace JSON dict."""
    signals = {}
    for name in GOLDEN_SIGNALS:
        arr = np.asarray(metrics.trace.get(name, ()), dtype=float)
        signals[name] = [float(v) for v in arr[::stride]]
    return {
        "format": _FORMAT,
        "meta": {
            "scheme": scheme,
            "workload": workload,
            "seed": seed,
            "max_time": max_time,
            "stride": stride,
            "sim_dt": context.spec.sim_dt,
            "control_period": context.spec.control_period,
        },
        "summary": {
            "execution_time": float(metrics.execution_time),
            "energy": float(metrics.energy),
            "completed": bool(metrics.completed),
            "emergency_trips": int(metrics.notes.get("emergency_trips", 0)),
        },
        "signals": signals,
    }


def capture_trace(scheme, workload, context, seed=7, max_time=20.0,
                  stride=10):
    """Run one canonical cell and package its trace as a JSON-able dict."""
    from ..experiments.runner import run_workload

    metrics = run_workload(scheme, workload, context, seed=seed,
                           max_time=max_time, record=True, telemetry=None)
    return _package_trace(metrics, scheme, workload, context, seed, max_time,
                          stride)


def capture_traces_batched(matrix, context, seed=7, max_time=20.0,
                           stride=10):
    """Run canonical cells as one lockstep board bank; ordered trace dicts.

    The banked runner is bit-identical to :func:`capture_trace`'s serial
    path per cell, so the returned dicts match the serial captures (and
    the pinned goldens) exactly — :func:`verify_goldens` with
    ``batched=True`` asserts precisely that.
    """
    from ..experiments.bank_runner import run_cells_banked

    cells = [(scheme, workload, seed) for scheme, workload in matrix]
    results = run_cells_banked(cells, context, max_time=max_time,
                               record=True, telemetry=None)
    return [
        _package_trace(metrics, scheme, workload, context, seed, max_time,
                       stride)
        for (scheme, workload), metrics in zip(matrix, results)
    ]


def compare_traces(golden, fresh, rtol=_DEFAULT_RTOL, atol=_DEFAULT_ATOL,
                   max_mismatches=20):
    """Diff two trace dicts; returns a list of :class:`TraceMismatch`.

    ``rtol``/``atol`` absorb harmless last-bit float drift (e.g. a libm
    difference between the machine that minted the golden and the one
    verifying it) while still catching any genuine model change, which
    moves signals by orders of magnitude more.
    """
    mismatches = []

    def _check(location, a, b):
        if len(mismatches) >= max_mismatches:
            return
        if isinstance(a, bool) or isinstance(b, bool):
            if bool(a) != bool(b):
                mismatches.append(TraceMismatch(location, float(a), float(b),
                                                float("inf")))
            return
        a, b = float(a), float(b)
        if a == b:
            return
        if not (np.isfinite(a) and np.isfinite(b)):
            if not (np.isnan(a) and np.isnan(b)):
                mismatches.append(
                    TraceMismatch(location, a, b, ulp_distance(a, b))
                )
            return
        if abs(a - b) > atol + rtol * max(abs(a), abs(b)):
            mismatches.append(TraceMismatch(location, a, b, ulp_distance(a, b)))

    for key in sorted(set(golden.get("summary", {})) | set(fresh.get("summary", {}))):
        ga = golden.get("summary", {}).get(key)
        fa = fresh.get("summary", {}).get(key)
        if ga is None or fa is None:
            mismatches.append(TraceMismatch(f"summary.{key}",
                                            float("nan"), float("nan"),
                                            float("inf")))
            continue
        _check(f"summary.{key}", ga, fa)
    golden_signals = golden.get("signals", {})
    fresh_signals = fresh.get("signals", {})
    for name in sorted(set(golden_signals) | set(fresh_signals)):
        ga = golden_signals.get(name)
        fa = fresh_signals.get(name)
        if ga is None or fa is None or len(ga) != len(fa):
            mismatches.append(TraceMismatch(
                f"signals.{name}.length",
                float(len(ga)) if ga is not None else float("nan"),
                float(len(fa)) if fa is not None else float("nan"),
                float("inf"),
            ))
            continue
        for i, (a, b) in enumerate(zip(ga, fa)):
            if len(mismatches) >= max_mismatches:
                break
            _check(f"signals.{name}[{i}]", a, b)
    return mismatches


def write_golden(trace, scheme, workload, golden_dir=None):
    """Serialize one golden trace (full float precision); returns its path."""
    path = golden_path(scheme, workload, golden_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, indent=1, sort_keys=True) + "\n")
    return path


def load_golden(scheme, workload, golden_dir=None):
    """Load one golden trace, or ``None`` if it has not been minted."""
    path = golden_path(scheme, workload, golden_dir)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def regen_goldens(context, golden_dir=None, matrix=None, log=None):
    """Re-mint every golden trace in the canonical matrix."""
    context = golden_context(context)
    paths = []
    for scheme, workload in (matrix or GOLDEN_MATRIX):
        trace = capture_trace(scheme, workload, context)
        paths.append(write_golden(trace, scheme, workload, golden_dir))
        if log is not None:
            log(f"golden regenerated: {paths[-1]}")
    return paths


def verify_goldens(context, golden_dir=None, matrix=None, rtol=_DEFAULT_RTOL,
                   atol=_DEFAULT_ATOL, batched=False):
    """Replay the canonical matrix against the checked-in goldens.

    Returns ``{cell_name: [TraceMismatch, ...]}``; a missing golden file is
    reported as a single synthetic mismatch so CI fails loudly rather than
    skipping silently.  ``batched=True`` replays the cells through the
    lockstep board bank (the engine's ``--batch`` path) instead of the
    serial runner — the goldens pin both paths to the same behavior.
    """
    matrix = list(matrix or GOLDEN_MATRIX)
    context = golden_context(context)
    results = {}
    goldens = {}
    groups = {}  # (seed, max_time, stride) -> [(scheme, workload)]
    for scheme, workload in matrix:
        cell = f"{scheme}/{workload}"
        golden = load_golden(scheme, workload, golden_dir)
        if golden is None:
            results[cell] = [TraceMismatch(
                "golden-file-missing", float("nan"), float("nan"),
                float("inf"),
            )]
            continue
        goldens[(scheme, workload)] = golden
        meta = golden.get("meta", {})
        params = (meta.get("seed", 7), meta.get("max_time", 20.0),
                  meta.get("stride", 10))
        if batched:
            groups.setdefault(params, []).append((scheme, workload))
        else:
            fresh = capture_trace(scheme, workload, context, seed=params[0],
                                  max_time=params[1], stride=params[2])
            results[cell] = compare_traces(golden, fresh, rtol=rtol,
                                           atol=atol)
    for (seed, max_time, stride), cells in groups.items():
        fresh_traces = capture_traces_batched(cells, context, seed=seed,
                                              max_time=max_time,
                                              stride=stride)
        for (scheme, workload), fresh in zip(cells, fresh_traces):
            results[f"{scheme}/{workload}"] = compare_traces(
                goldens[(scheme, workload)], fresh, rtol=rtol, atol=atol
            )
    return results


# ---------------------------------------------------------------------------
# Rack goldens: canonical third-layer campaigns as reviewed artifacts
# ---------------------------------------------------------------------------
# controller x scenario; "fault" drops board 1 offline mid-campaign.
RACK_GOLDEN_MATRIX = (
    ("rack-ssv", "stream"),
    ("rack-uniform", "stream"),
    ("rack-ssv", "fault"),
)

RACK_GOLDEN_SIGNALS = (
    "times", "cap_eff", "power_true", "budget_total", "inlet",
    "queue_depth", "churn", "online",
)


def _rack_scenario(scenario, seed):
    """The canonical rack plant for one golden scenario."""
    from ..rack import JobSpec, RackBoardFault, heterogeneous_rack_spec

    workloads = ("blackscholes@0.08", "mcf@0.1", "streamcluster@0.08",
                 "x264@0.08", "canneal@0.08", "bodytrack@0.1")
    jobs = tuple(
        JobSpec(name=f"j{i}", workload=workloads[i % len(workloads)],
                arrival=3.0 * i, sla=70.0)
        for i in range(6)
    )
    faults = ()
    if scenario == "fault":
        faults = (RackBoardFault(board=1, start=10.0, duration=12.0,
                                 kind="offline"),)
    elif scenario != "stream":
        raise ValueError(f"unknown rack golden scenario {scenario!r}")
    return heterogeneous_rack_spec(n_boards=4, jobs=jobs, faults=faults)


def capture_rack_trace(controller, scenario, seed=7, max_time=200.0):
    """Run one canonical rack cell and package it as a JSON-able dict."""
    from ..experiments.rack import make_rack_controller
    from ..rack import Rack

    spec = _rack_scenario(scenario, seed)
    rack = Rack(spec, controller=make_rack_controller(controller, spec),
                use_bank=True, record=True, seed=seed, telemetry=None)
    result = rack.run(max_time=max_time)
    arrays = result.trace.as_arrays()
    signals = {
        name: [float(v) for v in arrays[name]]
        for name in RACK_GOLDEN_SIGNALS
    }
    for k in range(spec.n_boards):
        signals[f"budget_{k}"] = [float(v) for v in arrays["budgets"][:, k]]
    return {
        "format": _FORMAT,
        "meta": {
            "controller": controller,
            "scenario": scenario,
            "seed": seed,
            "max_time": max_time,
            "boards": spec.n_boards,
            "rack_period": spec.rack_period,
            "power_cap": spec.power_cap,
        },
        "summary": {
            "periods": int(result.periods),
            "energy": float(result.energy),
            "makespan": float(result.makespan),
            "jobs_completed": int(result.jobs_completed),
            "sla_misses": int(result.sla_misses),
            "requeues": int(result.requeues),
        },
        "signals": signals,
    }


def regen_rack_goldens(golden_dir=None, matrix=None, log=None):
    """Re-mint every rack golden trace in the canonical matrix."""
    paths = []
    for controller, scenario in (matrix or RACK_GOLDEN_MATRIX):
        trace = capture_rack_trace(controller, scenario)
        paths.append(write_golden(trace, controller, scenario, golden_dir))
        if log is not None:
            log(f"golden regenerated: {paths[-1]}")
    return paths


def verify_rack_goldens(golden_dir=None, matrix=None, rtol=_DEFAULT_RTOL,
                        atol=_DEFAULT_ATOL):
    """Replay the rack matrix against its goldens; missing files are loud."""
    results = {}
    for controller, scenario in (matrix or RACK_GOLDEN_MATRIX):
        cell = f"{controller}/{scenario}"
        golden = load_golden(controller, scenario, golden_dir)
        if golden is None:
            results[cell] = [TraceMismatch(
                "golden-file-missing", float("nan"), float("nan"),
                float("inf"),
            )]
            continue
        fresh = capture_rack_trace(controller, scenario)
        results[cell] = compare_traces(golden, fresh, rtol=rtol, atol=atol)
    return results
