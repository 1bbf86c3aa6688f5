"""Span tracing from outside the program, and the arithmetic on spans.

The benchmark never edits ``src/``: a :class:`Tracer` replaces a public
function or method *in memory* with a wrapper that records one span
``(id, name, start, end, parent id, thread id)`` per call while the
tracer is active, and passes straight through otherwise.  Spans stay in
memory and are written out once, at the end (:func:`dump`).

:func:`attribute` turns spans into per-layer self times that add back up
to the traced wall time exactly: every instant of a traced window is
charged to one span -- the innermost (latest-started) one active at that
instant, preferring any span over a low-priority one such as the event
loop's I/O wait -- or, when no span covers it, to ``unattributed``.  For
properly nested spans on one thread this is the usual "duration minus the
time child spans cover"; for spans that overlap across threads it still
never counts an instant twice.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import importlib
import itertools
import json
import math
import sys
import threading
import time

__all__ = ["LAYER_MAP", "IO_WAIT", "IMPORT", "layer_names", "Tracer",
           "call_cost", "dump", "attribute", "percentile", "PeriodProbe"]

# (span name, module, attribute) for every wrapped public entry point.
# Several entries may share a span name; that layer's figures sum them.
LAYER_MAP = (
    ("board.run_period", "repro.board.board", "Board.run_period"),
    ("board.bank_period", "repro.board.bank", "BoardBank.run_period_bank"),
    ("board.bank_schedule", "repro.board.bank",
     "BoardBank.run_schedule_bank"),
    ("core.control_step", "repro.core.coordinator",
     "MultilayerCoordinator.control_step"),
    ("core.sample_signals", "repro.core.characterize", "sample_signals"),
    ("core.optimizer_update", "repro.core.optimizer", "ExDOptimizer.update"),
    ("core.ssv_step", "repro.core.controller", "RuntimeController.step"),
    ("baselines.heuristic_step", "repro.baselines.heuristics",
     "CoordinatedHeuristicHW.step"),
    ("baselines.heuristic_step", "repro.baselines.heuristics",
     "CoordinatedHeuristicOS.step"),
    ("baselines.heuristic_step", "repro.baselines.heuristics",
     "DecoupledHeuristicHW.step"),
    ("baselines.heuristic_step", "repro.baselines.heuristics",
     "DecoupledHeuristicOS.step"),
    ("baselines.lqg_step", "repro.baselines.lqg_runtime",
     "LQGLayerController.step"),
    ("baselines.lqg_step", "repro.baselines.lqg_runtime",
     "MonolithicLQGAdapter.step_joint"),
    ("experiments.run_workload", "repro.experiments.runner", "run_workload"),
    ("experiments.run_cells_banked", "repro.experiments.bank_runner",
     "run_cells_banked"),
    ("experiments.build_session", "repro.experiments.schemes",
     "build_session"),
    ("engine.execute", "repro.experiments.engine", "execute_task"),
    ("rack.run", "repro.rack.rack", "Rack.run"),
    ("rack.controller_step", "repro.rack.controllers",
     "SSVRackController.step"),
    ("rack.governor_command", "repro.rack.controllers",
     "BudgetGovernor.command"),
    ("serve.parse", "repro.serve.protocol", "parse_request"),
    ("serve.fingerprint", "repro.serve.protocol", "ServeRequest.fingerprint"),
    ("serve.encode", "repro.serve.protocol", "result_to_wire"),
    ("cache.get", "repro.cache", "DesignCache.get"),
    ("cache.put", "repro.cache", "DesignCache.put"),
    ("obs.emit", "repro.obs.events", "CampaignEvents.emit"),
    ("setup.characterize", "repro.core.characterize", "characterize_board"),
    ("setup.ssv_synthesis", "repro.experiments.schemes",
     "DesignContext.get_hw_design"),
    ("setup.ssv_synthesis", "repro.experiments.schemes",
     "DesignContext.get_sw_design"),
    ("setup.lqg_synthesis", "repro.experiments.schemes",
     "DesignContext.get_lqg_hw"),
    ("setup.lqg_synthesis", "repro.experiments.schemes",
     "DesignContext.get_lqg_sw"),
    ("setup.lqg_synthesis", "repro.experiments.schemes",
     "DesignContext.get_lqg_mono"),
    ("setup.rack_mu", "repro.rack.controllers", "select_integral_gain"),
)

# The server's event loop blocked in select(): idle, so it yields every
# instant to any other span active at the same time (see attribute()).
IO_WAIT = ("serve.io_wait", "selectors", "EpollSelector.select")

# Recorded by hand around the server's own imports (serve_traced.py).
IMPORT = "setup.import"


def layer_names():
    """Every span name a trace can report, sorted."""
    return sorted({name for name, _m, _a in LAYER_MAP}
                  | {IO_WAIT[0], IMPORT})


def _patch(module_name, attr, make_wrapper, patches):
    """Replace one function or method with ``make_wrapper(original)``.

    A method is replaced on its class.  A module-level function is
    replaced in every loaded ``repro`` module that holds it under any
    name, since ``from x import f`` copies the reference.  Each change is
    appended to ``patches`` as ``(owner, key, original)`` for
    :func:`_restore`.
    """
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        original = owner.__dict__[leaf]
        sites = [(owner, leaf)]
    else:
        original = getattr(owner, leaf)
        sites = [
            (mod, key)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None
            and (mod_name == "repro" or mod_name.startswith("repro."))
            for key, value in list(vars(mod).items())
            if value is original
        ]
    wrapped = make_wrapper(original)
    for site, key in sites:
        patches.append((site, key, original))
        setattr(site, key, wrapped)


def _restore(patches):
    while patches:
        owner, key, original = patches.pop()
        setattr(owner, key, original)


class Tracer:
    """Records spans around wrapped functions while :attr:`active`."""

    def __init__(self):
        self.spans = []
        self.windows = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    # -- wrapping ---------------------------------------------------------
    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name, fn):
        tracer = self
        perf = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, ident()))

        return traced

    def install(self, targets=LAYER_MAP):
        """Wrap every target; module-level functions are replaced in every
        loaded ``repro`` module that imported them by name."""
        for name, module_name, attr in targets:
            _patch(module_name, attr,
                   functools.partial(self._wrap, name), self._patches)
        return self

    def uninstall(self):
        _restore(self._patches)

    # -- windows ------------------------------------------------------------
    def start(self):
        self.active = True
        self._window_start = time.perf_counter()

    def stop(self):
        self.windows.append((self._window_start, time.perf_counter()))
        self.active = False


def call_cost(n=50_000):
    """Seconds one recorded call adds to a call of a no-op function."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap("cost", noop)
    tracer.active = True
    perf = time.perf_counter
    t0 = perf()
    for _ in range(n):
        traced()
    t1 = perf()
    for _ in range(n):
        noop()
    t2 = perf()
    return max((t1 - t0) - (t2 - t1), 0.0) / n


def dump(path, span_list, windows):
    """Write spans, as ``(id, name, start, end, parent id, thread id)``
    rows, and the traced windows as one JSON document."""
    with open(path, "w") as fh:
        json.dump({"windows": windows, "spans": span_list}, fh)


def attribute(spans, windows, low_priority=(IO_WAIT[0],)):
    """Charge each instant of ``windows`` to exactly one span.

    Returns ``(layers, unattributed_s, wall_s)`` where ``layers`` maps a
    span name to ``{"calls", "self_s"}``.  ``calls`` counts spans that
    start inside a window.  The self times plus ``unattributed_s`` equal
    ``wall_s`` (the summed window lengths) up to float rounding.
    """
    windows = sorted(windows)
    starts = [w0 for w0, _w1 in windows]
    wall = sum(end - start for start, end in windows)
    layers = {}
    events = []
    for sid, name, start, end, _parent, _tid in spans:
        entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
        j = max(bisect.bisect_right(starts, start) - 1, 0)
        if j < len(windows) and windows[j][0] <= start < windows[j][1]:
            entry["calls"] += 1
        # Higher priority, then later start, then later id wins an instant.
        rank = (-(name not in low_priority), -start, -sid)
        while j < len(windows) and windows[j][0] < end:
            s, e = max(start, windows[j][0]), min(end, windows[j][1])
            if e > s:
                events.append((s, 1, (rank, j), name))
                events.append((e, 0, (rank, j), name))
            j += 1
    events.sort(key=lambda ev: (ev[0], ev[1]))
    heap = []
    ended = set()
    prev = None
    for t, starting, key, name in events:
        if prev is not None and t > prev:
            while heap and heap[0][0] in ended:
                heapq.heappop(heap)
            if heap:
                layers[heap[0][1]]["self_s"] += t - prev
        if starting:
            heapq.heappush(heap, (key, name))
        else:
            ended.add(key)
        prev = t
    covered = sum(entry["self_s"] for entry in layers.values())
    return layers, wall - covered, wall


def percentile(values, q, min_beyond=10):
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``.

    Raises :class:`ValueError` unless at least ``min_beyond`` samples lie
    beyond the returned rank, so a reported tail always rests on data.
    """
    n = len(values)
    rank = max(math.ceil(q * n), 1)
    if n == 0 or n - rank < min_beyond:
        raise ValueError(f"p{q * 100:g} of {n} samples has {n - rank} "
                         f"beyond it; need {min_beyond}")
    return sorted(values)[rank - 1]


class PeriodProbe:
    """Host time per control period, from call timestamps alone.

    ``tick`` is the method called once per control period; ``group`` the
    call that owns a run of periods (a bank, a rack campaign).  A period's
    latency is the gap between consecutive ticks of one group call; the
    last period of a group has no closing tick and is not counted.  The
    probe hands each latency to a :class:`hostspeed.Clock` and lets the
    clock pause for a reading between two periods; it records no spans.
    """

    def __init__(self, group, tick):
        self._targets = (group, tick)
        self._patches = []
        self._last = None
        self.ticks = 0

    def install(self, clock):
        probe = self
        perf = time.perf_counter

        def group(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                probe._last = None
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe._last = None
            return wrapper

        def tick(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                probe.ticks += 1
                if probe._last is not None:
                    clock.op(perf() - probe._last)
                    clock.tick()
                probe._last = perf()
                return fn(*args, **kwargs)
            return wrapper

        (g_mod, g_attr), (t_mod, t_attr) = self._targets
        _patch(g_mod, g_attr, group, self._patches)
        _patch(t_mod, t_attr, tick, self._patches)
        return self

    def uninstall(self):
        _restore(self._patches)
