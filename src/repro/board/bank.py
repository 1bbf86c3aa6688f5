"""Batched board bank: structure-of-arrays lockstep simulation.

Yukta's evaluation is dominated by simulating many *independent* board
instances — (scheme × workload × seed) matrix cells, fault-campaign
replicas, and the excitation experiments behind characterization.  The
single-board fast path (:mod:`repro.board.fastpath`) already hoists the
step-invariants of one board out of the tick loop; :class:`BoardBank`
goes one axis further and advances ``B`` boards *in lockstep*, holding
the genuinely sequential per-tick state as structure-of-arrays (one
NumPy lane per board) so each tick is a handful of vectorized kernels
instead of ``B`` Python interpreter passes:

* hot-spot temperature, dynamic/leakage/idle power, and energy
  integrate as ``(2, B)`` / ``(B,)`` arrays (clusters stacked on the
  leading axis);
* the windowed power sensors and performance counters update under
  boolean latch masks;
* only the last temperature-sensor reading survives a window, so each
  board draws its noise once, when its lane leaves: one batch of exactly
  as many draws as the lane ran ticks, from the board's own generator
  (NumPy ``Generator`` draws are bit-identical whether batched or
  sequential — asserted by the test suite), so RNG streams match scalar
  stepping;
* the emergency-firmware threshold state machine runs as masked array
  updates — with a fixed-point temperature bound that proves, up front,
  that no lane can trip, collapsing the machine to one vector op per
  tick in the common case;
* application crediting runs as one unbuffered add-at per tick over a
  flat cell array (threads' barrier budgets, apps' shared pools,
  completed instructions) for as long as a conservatively computed per-lane
  horizon guarantees no budget can clamp or run dry — the exact
  floating-point subtraction sequence scalar ``Application.execute``
  performs (the cell layout and the horizon rule are
  :mod:`repro.board.credit`'s, shared with the single-board fast path).

Planning is also amortized (:meth:`BoardBank._plan_for`).  A lane keeps
its plans for a whole membership generation, found by placement
identity and operating point, so a lane re-plans only what changed; and
the plan arithmetic goes through a shared memo of the fast path's
per-cluster pieces, so boards at the same operating point (same spec
object, effective frequencies, core counts, and per-core phase
characteristics) reuse it across lanes *and* across control periods.

One kernel does all vectorized stepping: it advances a lane set under
one plan per lane, gathering board state once, stepping, and writing
each lane back once, when it leaves.  :meth:`BoardBank.run_period_bank`
hands it each lane's tick budget; lanes re-plan inside the window.

Exactness contract
------------------
Every lane performs, per tick, the *same floating-point operations in
the same order* as that board's scalar :meth:`Board.step` (equivalently
the single-board fast path) would, so each board's resulting state —
time, energy, temperatures, sensor windows, RNG stream, traces,
application progress, emergency timers — is **bit-identical** to running
the ``B`` boards independently:

* a lane with a draining hotplug/migration stall runs that tick on the
  planner's one-tick stall plan (``events["stall_tick"]``), crediting the
  cells of its steady plan, and switches to that plan at the next tick
  inside the same window (while a stall remains it re-plans instead);
* boards with fault hooks or a registered per-tick hook (e.g. a fault
  injector's ``advance``) are masked out of the lockstep kernel and run
  the scalar per-tick loop;
* mid-window, the moment a board's emergency firmware changes state or
  an application's runnable-thread set changes, that lane alone re-plans
  after the offending tick (the tick itself is still exact): its
  emergency state and credit cells are written back, the new plan's
  terms and cells are spliced into its column, and every lane runs on.
  Noise is unaffected (it does not depend on the plan).  Only a lane
  whose re-plan is refused — its program finished, nothing runnable —
  leaves the window early (``events["lane_exit"]``); its column is
  written back and masked out, and the caller finishes it through the
  scalar/fastpath machinery or drops it.
"""

from __future__ import annotations

import math

import numpy as np

from .credit import _NO_CELLS, _LaneCells
from .fastpath import (
    WindowPlan,
    _arithmetic,
    _bandwidth_scale,
    _cluster,
    _cluster_memo,
    _drain_hotplug,
    _emergency_snapshot,
    _layout,
    _membership,
    _refused,
    _stall_pending,
)
from .power import _REFERENCE_TEMP
from .specs import BIG, LITTLE

__all__ = ["BoardBank"]


# The emergency snapshot (fastpath._emergency_snapshot) of a board whose
# firmware caps neither frequency nor cores.
_UNTHROTTLED = (False, False, False)


def _power_emergency_cap(spec, name):
    """The constant frequency the firmware clamps to on a power trip."""
    cspec = spec.cluster(name)
    return cspec.freq_range.snap(
        cspec.freq_range.low + 0.3 * cspec.freq_range.span
    )


class _MembershipGuard:
    """Cheap exact re-derivation of fastpath's ``_membership_changed``.

    Runnable-thread sets only change through ``Application.execute`` side
    effects (phase advancement, barrier threads finishing), and the bank
    is the only caller of ``execute`` mid-window — so instead of
    rebuilding the runnable list every tick, it suffices to watch each
    planned app's phase index / done flag, plus (for barrier phases) the
    snapshot threads' remaining budgets hitting zero.
    """

    __slots__ = ("entries",)

    def __init__(self, plan):
        self.entries = [
            (app, app.phase_index, app.current_phase.barrier, snapshot)
            for app, snapshot in plan.apps
        ]

    def changed(self):
        for app, phase_index, barrier, snapshot in self.entries:
            if app.done or app.phase_index != phase_index:
                return True
            if barrier:
                for thread in snapshot:
                    if thread.remaining <= 0:
                        return True
        return False


def _term_rows(big, little):
    """One lane's plan terms in the window's row order.

    Dynamic power, leakage base, leakage temperature coefficient, idle
    power and instructions per tick, each big then little.
    """
    return (big.dyn, little.dyn, big.leak_base, little.leak_base,
            big.leak_temp_coeff, little.leak_temp_coeff,
            big.idle, little.idle, big.instructions, little.instructions)


def _term_matrix(plans):
    """The plans' terms (:func:`_term_rows`), one column per plan.

    Row-major, so each term row the tick loop reads is contiguous.
    """
    return np.array(list(zip(*[_term_rows(plan.big, plan.little)
                              for plan in plans])))


def _pad(values, n, fill):
    """``values`` (a list) padded with ``fill`` to length ``n``."""
    return values + [fill] * (n - len(values))


def _placement_key(board):
    """The board's placement by thread identity: each core's ``id()``s.

    Only compared against placements a :class:`_Lane` recorded, whose
    threads it keeps alive (:class:`_Placement`), so equal keys mean the
    very same objects on the very same cores.
    """
    assignment = board.placement.assignment
    return (tuple([tuple(map(id, core)) for core in assignment[BIG]]),
            tuple([tuple(map(id, core)) for core in assignment[LITTLE]]))


def _shared(table, value):
    """``value`` (a tuple, nested or not) with every nested tuple taken
    from ``table``: equal signatures of many layouts share one object."""
    if type(value) is tuple:
        found = table.get(value)
        if found is None:
            found = tuple([_shared(table, item) for item in value])
            table[found] = found
        return found
    return value


class _Credits:
    """A plan's credit list as a view: ``(app, thread, done)`` for every
    computed thread, in credit order, over its layout's apps and threads
    and the plan's amounts ``done``."""

    __slots__ = ("apps", "threads", "done")

    def __init__(self, apps, threads, done):
        self.apps = apps
        self.threads = threads
        self.done = done

    def __iter__(self):
        return zip(self.apps, self.threads, self.done)


class _PlanLayout:
    """One placement at one pair of effective core counts, ready to price.

    ``fast`` is the fastpath layout (:func:`~repro.board.fastpath._layout`)
    with its phase signatures shared through the bank's table;
    ``threads`` holds each cluster's computed threads in credit order
    (big, then little), ``flat`` all of them and ``apps`` their apps, and
    ``cells`` the credit cells every plan over this layout shares (only
    the amounts differ: :meth:`_LaneCells.priced`).  ``clear`` is the
    placement epoch at which the layout was last found stall-free.
    """

    __slots__ = ("fast", "threads", "flat", "apps", "cells", "clear")

    def __init__(self, fast, phase_of, sigs):
        self.fast = {name: (cores, per_core, _shared(sigs, sig))
                     for name, (cores, per_core, sig) in fast.items()}
        self.threads = tuple(
            tuple(t for core in fast[name][1] for t, _ in core)
            for name in (BIG, LITTLE))
        self.flat = self.threads[0] + self.threads[1]
        self.apps = tuple(phase_of[t][0] for t in self.flat)
        self.cells = _LaneCells(self.credits([0.0] * len(self.flat)))
        self.clear = None

    def credits(self, done):
        """The credit list for per-thread amounts ``done``."""
        return _Credits(self.apps, self.flat, done)

    def plan(self, clusters, lane, ems, **fields):
        """A plan over this layout from each cluster's ``(plan, works,
        bips)``, big then little."""
        (big, works_big, bips_big), (little, works_little, bips_little) = (
            clusters)
        done = [*works_big, *works_little]
        return WindowPlan(
            big=big,
            little=little,
            credits=self.credits(done),
            bips={BIG: bips_big, LITTLE: bips_little},
            apps=lane.apps,
            emergency_snapshot=ems,
            **fields,
        )


class _Placement:
    """One placement's layouts (by effective core counts) and steady plans
    (by operating point) within a :class:`_Lane`.

    ``threads`` keeps every placed thread alive, so no other object can
    take an ``id()`` in this placement's key while the lane holds it.
    """

    __slots__ = ("threads", "layouts", "plans")

    def __init__(self, board):
        assignment = board.placement.assignment
        self.threads = [t for name in (BIG, LITTLE)
                        for core in assignment[name] for t in core]
        self.layouts = {}
        self.plans = {}


class _Lane:
    """One board's plan entry for one membership generation.

    ``apps``/``phase_of`` are the generation's runnable threads (see
    :func:`~repro.board.fastpath._membership`), ``places`` its placements
    by :func:`_placement_key`; ``place`` is the placement at placement
    epoch ``pepoch``, and ``plan`` the plan returned last, still valid at
    actuation epoch ``epoch`` (``None`` after a stall plan with no
    ``then``).
    """

    __slots__ = ("apps", "phase_of", "places", "place", "pepoch", "plan",
                 "epoch")

    def __init__(self, apps, phase_of):
        self.apps = apps
        self.phase_of = phase_of
        self.places = {}
        self.place = None
        self.pepoch = None
        self.plan = None
        self.epoch = None


class _CreditSchedule:
    """Vectorized replay of per-tick application crediting, lane by lane.

    Each lane's cells (:class:`_LaneCells`) occupy one row of ``vals``.
    A tick is one unbuffered ``np.add.at`` over every lane's credits in
    slot-major order (slot = position in the per-board credit list), so
    each cell sees exactly the sequence of additions scalar
    ``Application.execute`` performs.

    Each lane has its own horizon (:meth:`_LaneCells.horizon`): the
    number of ticks its cells provably credit exactly.  At its horizon
    the caller releases the lane (:meth:`release`), which writes its
    cells back into the Python objects; the lane then credits through
    ordinary ``execute`` calls until a re-plan installs new cells
    (:meth:`splice`).  A
    released lane's row is a dead copy: the ticks may keep moving it, and
    nothing reads it until :meth:`splice` or :meth:`reload` re-reads it.

    The schedule outlives its window: :meth:`reload` starts the next
    window over the same lane set, rewriting only the rows of lanes whose
    cells changed.
    """

    __slots__ = ("lanes", "vector", "vals", "decs", "vrow", "drow", "w",
                 "flat", "ids", "ws", "cell_ids")

    def __init__(self, lanes):
        # An empty schedule (every lane without cells), then the first
        # window's lanes, all changed.
        B = len(lanes)
        self.lanes = [_NO_CELLS] * B
        self.vector = [True] * B
        self.vals = np.zeros((B, 1))
        self.decs = np.zeros((B, 1))
        self.vrow = np.zeros((B, 0), dtype=np.intp)
        self.drow = np.zeros((B, 0), dtype=np.intp)
        self.w = np.zeros((B, 0))
        self._derive()
        self.cell_ids = None
        self.reload(lanes)

    def _derive(self):
        """Flat credit indices and signed weights, one row per slot."""
        B, rows = self.vals.shape
        base = (np.arange(B, dtype=np.intp) * rows)[:, None]
        w = np.where(np.array(self.vector)[:, None], self.w, 0.0)
        self.ids = np.concatenate([(self.vrow + base).T,
                                   (self.drow + base).T], axis=1)
        self.ws = np.concatenate([-w.T, w.T], axis=1)
        self.flat = self.vals.reshape(-1)

    def _index_cells(self):
        """``flat`` positions of every lane's cells, lane by lane."""
        counts = np.array([len(lane.cells) for lane in self.lanes])
        row = np.arange(self.vals.shape[1])
        self.cell_ids = np.flatnonzero((row >= 1) & (row <= counts[:, None]))

    def _grow(self, need_rows, need_width):
        """Pad the rows or slots out to fit larger cells; ``True`` if
        anything grew (the flat indices must then be re-derived)."""
        rows = self.vals.shape[1]
        width = self.w.shape[1]
        if need_rows > rows:
            extra = ((0, 0), (0, need_rows - rows))
            self.vals = np.pad(self.vals, extra)
            self.decs = np.pad(self.decs, extra)
        if need_width > width:
            extra = ((0, 0), (0, need_width - width))
            self.vrow = np.pad(self.vrow, extra)
            self.drow = np.pad(self.drow, extra)
            self.w = np.pad(self.w, extra)
        return need_rows > rows or need_width > width

    def _index(self, col):
        """Re-derive one lane's flat credit indices (no row grew)."""
        B, rows = self.vals.shape
        self.ids[:, col] = self.vrow[col] + col * rows
        self.ids[:, B + col] = self.drow[col] + col * rows

    def reload(self, lanes):
        """Start a window over ``lanes``, one per column as before.

        Columns whose cells changed get their rows rewritten (a new
        layout's indices too, column by column unless the rows grew;
        cells priced over the same layout share them); every column
        re-reads its live values and credits vectorized again.
        """
        old = self.lanes
        changed = [col for col, lane in enumerate(lanes)
                   if lane is not old[col]]
        self.vector = [True] * len(lanes)
        grew = False
        if changed:
            # Cells priced over one layout share its vrow, so only a moved
            # column can grow the rows or change its cell count.
            moved = [col for col in changed
                     if lanes[col].vrow is not old[col].vrow]
            if moved:
                grew = self._grow(
                    1 + max(len(lanes[col].cells) for col in moved),
                    max(len(lanes[col].vrow) for col in moved))
            rows = self.vals.shape[1]
            width = self.w.shape[1]
            new = [lanes[col] for col in changed]
            self.w[changed] = [_pad(lane.done, width, 0.0) for lane in new]
            self.decs[changed] = [_pad(lane.decs, rows, 0.0) for lane in new]
            if moved:
                self.vrow[moved] = [_pad(lanes[col].vrow, width, 0)
                                    for col in moved]
                self.drow[moved] = [_pad(lanes[col].drow, width, 0)
                                    for col in moved]
                if not grew:
                    for col in moved:
                        self._index(col)
                if grew or any(len(lanes[col].cells) != len(old[col].cells)
                               for col in moved):
                    self.cell_ids = None
            self.lanes = list(lanes)
        if grew:
            self._derive()
        else:
            self.ws = np.concatenate([-self.w.T, self.w.T], axis=1)
        if self.cell_ids is None:
            self._index_cells()
        values = []
        for lane in lanes:
            values += lane.read()
        self.flat[self.cell_ids] = values

    def horizons(self):
        """Each lane's safe tick count from now (``None``: unbounded)."""
        q = np.divide(self.vals, self.decs, out=np.full(self.vals.shape,
                                                         np.inf),
                      where=self.decs > 0.0)
        return [lane.horizon(m)
                for lane, m in zip(self.lanes, q.min(axis=1).tolist())]

    def tick(self):
        # ufunc.at applies its operands in index order, unbuffered.
        np.add.at(self.flat, self.ids.reshape(-1), self.ws.reshape(-1))

    def weigh(self, col, done):
        """Credit a vectorized lane ``done`` per slot from the next tick."""
        if self.vector[col]:
            n = len(done)
            self.ws[:n, col] = [-d for d in done]
            self.ws[:n, len(self.lanes) + col] = done

    def release(self, col):
        """Hand one lane's crediting back to the live objects."""
        if self.vector[col]:
            self.lanes[col].write(self.vals[col].tolist())
            self.vector[col] = False

    def splice(self, col, lane):
        """Install a released lane's new cells; returns its horizon.

        The lane credits vectorized again unless its horizon is 0.
        """
        grow = self._grow(1 + len(lane.cells), len(lane.vrow))
        self.cell_ids = None
        B = self.vals.shape[0]
        need_rows = 1 + len(lane.cells)
        self.lanes[col] = lane
        n = len(lane.vrow)
        self.vals[col] = 0.0
        self.vals[col, 1:need_rows] = lane.read()
        self.decs[col] = 0.0
        self.decs[col, :need_rows] = lane.decs
        for target, values in ((self.vrow, lane.vrow),
                               (self.drow, lane.drow), (self.w, lane.done)):
            target[col] = 0
            target[col, :n] = values
        decs = self.decs[col]
        mask = decs > 0.0
        ratio = (self.vals[col][mask] / decs[mask]).min() if mask.any() else (
            math.inf)
        horizon = lane.horizon(float(ratio))
        self.vector[col] = horizon != 0
        if grow:
            self._derive()
        else:
            self._index(col)
            w = self.w[col] if self.vector[col] else 0.0
            self.ws[:, col] = -w
            self.ws[:, B + col] = w
        return horizon


class _Resident:
    """One lane set's window inputs, kept from one window to the next.

    ``plans`` are the plans the lanes ended the last window on, ``P``
    their terms (:func:`_term_rows`, one column per lane) and
    ``schedule`` the credit schedule over their cells.
    """

    __slots__ = ("key", "plans", "P", "schedule")

    def __init__(self, key, plans, cells):
        self.key = key
        self.plans = plans
        self.P = _term_matrix(plans)
        self.schedule = _CreditSchedule(cells)


# The constants a no-trip bound reads (see BoardBank._no_trip_bound).
_BOUND_SLICES = ("ambient", "resistance", "lweight", "temp_trip", "thresh",
                 "limit")


class BoardBank:
    """Advance ``B`` independent boards in vectorized lockstep.

    Every vectorized tick runs in one lane×tick kernel
    (:meth:`_run_vector_window`) that advances a lane set under one plan
    per lane, each lane with its own tick budget.  The emergency state
    machine, Python crediting past each lane's credit horizon, membership
    guards and in-window re-plans run inside it, unless a fixed-point
    no-trip bound (:meth:`_no_trip_bound`) proves the firmware inert.

    ``track_violations`` additionally accumulates per-board seconds with
    the *true* die temperature above ``spec.temp_limit`` and big-cluster
    instantaneous power above ``spec.power_limit_big`` (what the
    resilience experiment's per-tick clocks measure), on both the
    vectorized and the scalar-fallback paths.  A board with
    ``enable_fast_path = False`` always takes the scalar path.
    """

    def __init__(self, boards, telemetry=None, track_violations=False):
        if telemetry is None:
            from ..telemetry import active_session

            telemetry = active_session()
        self.telemetry = telemetry
        self.boards = list(boards)
        if not self.boards:
            raise ValueError("a BoardBank needs at least one board")
        dts = {board.spec.sim_dt for board in self.boards}
        if len(dts) != 1:
            raise ValueError(
                f"lockstep stepping requires one shared sim_dt, got {sorted(dts)}"
            )
        self._dt = self.boards[0].spec.sim_dt
        self.track_violations = track_violations
        n = len(self.boards)
        self.temp_violation_time = np.zeros(n)
        self.power_violation_time = np.zeros(n)
        self._tick_hooks = {}
        self._plan_memo = {}
        # Plan reuse state (see _plan_for): _replan_cache holds each
        # board's _Lane entry for its current membership generation.
        self._replan_cache = {}
        self._sigs = {}  # phase signatures shared by layouts (_shared)
        self._slice_cache = {}
        # The last window's lane set and inputs, kept for the next window
        # over the same lanes (see _window_inputs).
        self._resident = None
        self._build_constants()
        # Introspection counters (mirrored into telemetry when enabled).
        self.vector_ticks = 0  # board-ticks executed by the vector kernel
        self.scalar_ticks = 0  # board-ticks finished via scalar/fastpath
        self.windows = 0  # vectorized windows executed (kernel calls)
        self.events = {"emergency": 0, "membership": 0, "plan_refused": 0,
                       "stall_tick": 0, "lane_exit": 0}
        # How each _plan_for call got its plan (see _plan_for).
        self.plans = {"tier1": 0, "tier2": 0, "layout": 0, "full": 0,
                      "revisit": 0, "stall": 0}

    def _build_constants(self):
        """Per-board spec/model constants, gathered once as full arrays."""
        boards = self.boards
        dt = self._dt
        specs = [b.spec for b in boards]

        def pair(fn_big, fn_little):
            return np.array([[fn_big(s) for s in specs],
                             [fn_little(s) for s in specs]])

        c = {}
        c["static"] = np.array([s.board_static_power for s in specs])
        c["ambient"] = np.array([b.thermal.ambient for b in boards])
        c["resistance"] = np.array([b.thermal.resistance for b in boards])
        c["lweight"] = np.array([b.thermal.little_weight for b in boards])
        c["alpha"] = np.array(
            [min(dt / max(b.thermal.tau, 1e-9), 1.0) for b in boards]
        )
        c["temp_trip"] = np.array([s.emergency_temp_trip for s in specs])
        c["temp_clear"] = np.array([s.emergency_temp_clear for s in specs])
        c["temp_limit"] = np.array([s.temp_limit for s in specs])
        c["throttle_freq"] = np.array(
            [s.emergency_throttle_freq for s in specs]
        )
        c["limit"] = pair(lambda s: s.power_limit_big,
                          lambda s: s.power_limit_little)
        c["thresh"] = pair(
            lambda s: s.power_limit_big * s.emergency_power_factor,
            lambda s: s.power_limit_little * s.emergency_power_factor,
        )
        c["pcap"] = pair(lambda s: _power_emergency_cap(s, BIG),
                         lambda s: _power_emergency_cap(s, LITTLE))
        c["sdt"] = np.array(
            [[b.power_sensors[BIG].dt for b in boards],
             [b.power_sensors[LITTLE].dt for b in boards]]
        )
        c["speriod"] = np.array(
            [[b.power_sensors[BIG].period for b in boards],
             [b.power_sensors[LITTLE].period for b in boards]]
        )
        ems = [type(b.emergency) for b in boards]
        c["trip_delay"] = np.array([[e.POWER_TRIP_DELAY for e in ems]] * 2)
        c["clear_delay"] = np.array([[e.POWER_CLEAR_DELAY for e in ems]] * 2)
        c["min_hold"] = np.array([[e.MIN_HOLD for e in ems]] * 2)
        c["noise_rms"] = np.array(
            [b.temp_sensor.noise_rms for b in boards]
        )
        # _no_trip_bound relies on the thermal/power fixed point being
        # monotone in temperature.
        c["monotone"] = bool(
            (c["resistance"] >= 0).all()
            and (c["lweight"] >= 0).all()
            and all(
                s.big.leak_temp_coeff >= 0 and s.little.leak_temp_coeff >= 0
                for s in specs
            )
        )
        self._const = c

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self.boards)

    @property
    def done(self):
        return all(board.done for board in self.boards)

    def set_tick_hook(self, index, hook):
        """Register ``hook(board)`` to run after every tick of one board.

        A hooked board always advances through the scalar per-tick path
        (the hook may mutate arbitrary state between ticks — exactly the
        contract a fault injector's ``advance`` needs).  ``hook=None``
        removes the registration.
        """
        if hook is None:
            self._tick_hooks.pop(index, None)
        else:
            self._tick_hooks[index] = hook

    def invalidate_board(self, index):
        """Retire every cached plan and schedule for one board.

        Plan reuse (:meth:`_plan_for`) is conditioned on the board's
        actuation/placement epochs and on membership-guard evictions —
        none of which tick when a caller mutates the board's workload
        out-of-band (e.g. a rack dispatcher appending a freshly arrived
        job's applications, or detaching an abandoned one).  Any such
        caller must invalidate the lane before the next bank window, or
        a provably-stale cached plan could keep crediting the old thread
        set.
        """
        self._replan_cache.pop(index, None)

    def counters(self):
        """Snapshot of the bank's lockstep/fallback accounting."""
        return {
            "boards": len(self.boards),
            "vector_ticks": self.vector_ticks,
            "scalar_ticks": self.scalar_ticks,
            "windows": self.windows,
            # The traced benchmark's board.fused_tick_frac reads this key.
            "fused_ticks": 0,
            "events": dict(self.events),
            "plans": dict(self.plans),
        }

    def _event(self, reason, n=1):
        """Count ``n`` lane events of one kind (and mirror to telemetry)."""
        self.events[reason] += n
        if self.telemetry is not None:
            self.telemetry.bank_events.labels(reason=reason).inc(n)

    def _planned(self, tier):
        """Count one plan obtained through ``tier`` (and mirror it)."""
        self.plans[tier] += 1
        if self.telemetry is not None:
            self.telemetry.bank_plans.labels(tier=tier).inc()

    def step_bank(self):
        """Advance every unfinished board by exactly one tick."""
        return self.run_period_bank(1)

    def run_period_bank(self, n_steps, only=None):
        """Advance up to ``n_steps`` ticks on every selected board.

        ``only`` restricts stepping to an iterable of board indices
        (default: every board).  Returns a list with the number of ticks
        each board actually executed — the same counts per board as
        calling :meth:`Board.run_period` individually, and bit-identical
        resulting board state.
        """
        executed = [0] * len(self.boards)
        if n_steps < 1:
            return executed  # a stall plan drains as it plans: plan nothing
        if only is None:
            selected = range(len(self.boards))
        else:
            selected = list(only)
        memo = self._plan_memo
        if len(memo) > 4096:  # runaway-key backstop; plans re-memoize
            memo.clear()
            self._replan_cache.clear()
            self._sigs.clear()
        if self.telemetry is None:
            pending, plans, scalar = self._plan_pass(selected)
        else:
            with self.telemetry.span("board.plan", cat="board"):
                pending, plans, scalar = self._plan_pass(selected)
        for i in scalar:
            executed[i] = self._run_scalar(i, n_steps)
        if pending:
            ran = self._run_vector_window(pending, plans, n_steps)
            # Only lanes whose in-window re-plan was refused come back
            # early; the scalar path finishes them.
            for i, r in zip(pending, ran):
                executed[i] = r
                if r < n_steps and not self.boards[i].done:
                    executed[i] += self._run_scalar(i, n_steps - r)
        return executed

    def _plan_pass(self, selected):
        """Plan every selected unfinished board for one period.

        Returns the lanes with a plan, their plans, and the lanes the
        scalar path must advance (tick hooks, fast path off, refusals).
        """
        pending = []
        plans = []
        scalar = []
        for i in selected:
            board = self.boards[i]
            if board.done:
                continue
            plan = None
            if i not in self._tick_hooks and board.enable_fast_path:
                plan = self._plan_for(i)
                if plan is None:
                    self._event("plan_refused")
            if plan is None:
                scalar.append(i)
            else:
                pending.append(i)
                plans.append(plan)
        return pending, plans, scalar

    def run_schedule_bank(self, freqs_big, freqs_little, only=None):
        """Advance every selected board through a shared DVFS schedule.

        ``freqs_big``/``freqs_little`` are per-period frequency commands
        (GHz): period ``p`` issues ``set_cluster_frequency`` with both
        values on every selected board, then one :meth:`run_period_bank`
        period.  Returns the per-board executed tick counts.  The
        end-to-end benchmark's span tracer wraps this method by name.
        """
        fb_list = list(freqs_big)
        fl_list = list(freqs_little)
        if len(fb_list) != len(fl_list):
            raise ValueError(
                f"schedule length mismatch: {len(fb_list)} big vs "
                f"{len(fl_list)} little entries"
            )
        executed = [0] * len(self.boards)
        if only is None:
            selected = list(range(len(self.boards)))
        else:
            selected = list(only)
        selected = [i for i in selected if not self.boards[i].done]
        if not selected or not fb_list:
            return executed
        steps = {self.boards[i].spec.period_steps() for i in selected}
        if len(steps) != 1:
            raise ValueError(
                f"lockstep schedule requires one shared period length, "
                f"got {sorted(steps)}"
            )
        period_steps = steps.pop()
        for fb, fl in zip(fb_list, fl_list):
            if not selected:
                break
            for i in selected:
                board = self.boards[i]
                board.set_cluster_frequency(BIG, fb)
                board.set_cluster_frequency(LITTLE, fl)
            ran = self.run_period_bank(period_steps, only=selected)
            for i in selected:
                executed[i] += ran[i]
            selected = [i for i in selected if not self.boards[i].done]
        return executed

    # ------------------------------------------------------------------
    # Planning with reuse
    # ------------------------------------------------------------------
    def _plan_for(self, index):
        """Window plan for one board, re-planning only what changed.

        Each board's :class:`_Lane` entry lives for one membership
        generation: from a full re-plan until a membership guard fires,
        :meth:`invalidate_board` runs, a scalar fallback runs, or the
        memo backstop clears every entry.  Each call counts once in
        ``plans`` as the first step that answers it:

        1. ``tier1``: nothing changed (no actuation, same emergency
           throttles), so the previous plan is returned;
        2. ``tier2``: the placement, found by thread identity
           (:func:`_placement_key`: the very ``Thread`` objects on each
           core, never their values; threads re-created on a phase entry
           belong to a new generation), has a steady plan cached for the
           operating point (effective frequencies and core counts,
           emergency snapshot);
        3. ``layout``: no such plan yet, so one is built from the
           placement's layout at these core counts through the memo's
           per-cluster arithmetic (a cluster whose knobs did not move is a
           sub-memo hit);
        4. ``full``: no entry, so the board's runnable threads are
           gathered and its placement refreshed, as
           :func:`~repro.board.fastpath.plan_window` does, and steps 2-3
           follow in the new generation.  Refusals count here too.

        A placement seen before in the generation is found again
        (``plans["revisit"]``); a new one first gets the membership
        refresh ``plan_window`` performs.  A pending hotplug or migration
        stall turns the result into a one-tick stall plan built from the
        same layout (:meth:`_stall_tick`; ``plans["stall"]`` counts those
        served within a generation) whose ``then`` is the steady plan.
        Every cached plan is stall-free arithmetic, and every lookup past
        tier 1 checks for a stall, unless its layout was found stall-free
        at the current placement epoch; tier 1 needs no check, because
        only an actuation charges a stall, and every actuation that does
        moves the placement epoch.
        """
        board = self.boards[index]
        if _refused(board):
            self._replan_cache.pop(index, None)
            self._planned("full")
            return None
        lane = self._replan_cache.get(index)
        ems = _emergency_snapshot(board)
        full = lane is None
        if full:
            board._refresh_placement_membership()
            apps, phase_of = _membership(board)
            if not phase_of:
                self._planned("full")
                return None
            lane = self._replan_cache[index] = _Lane(apps, phase_of)
        else:
            plan = lane.plan
            if (plan is not None and board._actuation_epoch == lane.epoch
                    and ems == plan.emergency_snapshot):
                self._planned("tier1")
                return plan
        if board._placement_epoch != lane.pepoch:
            self._find_placement(board, lane, full)
        place = lane.place
        if ems == _UNTHROTTLED:  # no emergency cap applies
            clusters = board.clusters
            fb = clusters[BIG].frequency
            fl = clusters[LITTLE].frequency
            cores = (clusters[BIG].cores_on, clusters[LITTLE].cores_on)
        else:
            fb = board._effective_frequency(BIG)
            fl = board._effective_frequency(LITTLE)
            cores = (board._effective_cores(BIG),
                     board._effective_cores(LITTLE))
        layout = place.layouts.get(cores)
        if layout is None:
            layout = place.layouts[cores] = _PlanLayout(
                _layout(board, lane.phase_of, cores), lane.phase_of,
                self._sigs)
        vkey = (fb, fl, cores, ems)
        steady = place.plans.get(vkey)
        self._planned("full" if full else "layout" if steady is None
                      else "tier2")
        lane.epoch = board._actuation_epoch
        # Every site that charges a stall moves the placement epoch, so a
        # layout found stall-free at this epoch still is.
        epoch = board._placement_epoch
        if layout.clear == epoch or not _stall_pending(board, layout.fast):
            layout.clear = epoch
            if steady is None:
                steady = self._steady(board, lane, place, layout, vkey)
            lane.plan = steady
            return steady
        plan = self._stall_tick(board, lane, place, layout, vkey, steady)
        self._event("stall_tick")
        if not full:
            self._planned("stall")
        lane.plan = plan.then
        return plan

    def _steady(self, board, lane, place, layout, vkey):
        """Build and cache the steady plan of ``layout`` at operating
        point ``vkey`` (no computed thread may be stalled)."""
        fb, fl, _, ems = vkey
        parts, bw_scale = _arithmetic(board, layout.fast, (fb, fl),
                                      self._plan_memo)
        plan = place.plans[vkey] = layout.plan(parts, lane, ems, parts=parts,
                                               bw_scale=bw_scale)
        plan.cells = layout.cells.priced(plan.credits.done)
        return plan

    def _find_placement(self, board, lane, fresh):
        """Point ``lane`` at the board's current placement, by identity.

        A placement not seen in this generation gets the membership
        refresh ``plan_window`` performs (a ``fresh`` lane just had it);
        one seen before was recorded after a refresh, over this
        generation's threads, so its refresh is a no-op.
        """
        key = _placement_key(board)
        place = lane.places.get(key)
        if place is not None:
            self._planned("revisit")
        else:
            if not fresh:
                epoch = board._placement_epoch
                board._refresh_placement_membership()
                if board._placement_epoch != epoch:
                    key = _placement_key(board)
                    place = lane.places.get(key)
            if place is None:
                place = lane.places[key] = _Placement(board)
        lane.place = place
        lane.pepoch = board._placement_epoch

    def _stall_tick(self, board, lane, place, layout, vkey, steady):
        """The one-tick plan of a tick that drains a stall.

        Mirrors ``plan_window``'s stall plan from the lane's layout.  A
        draining cluster drains its hotplug stall and runs
        ``core_execution`` at the tick time left, which drains its
        threads' migration stalls; it does so first, so no stalled thread
        reaches the steady arithmetic, whose ``core_execution`` would
        drain it too.  A cluster that drains nothing computes exactly the
        steady arithmetic (a zero hotplug drain leaves ``dt`` unchanged,
        and no thread takes the migration branch), so it takes the steady
        plan's terms and credits — built now if none is cached and no
        stall remains, else the cluster sub-memo's.  ``then`` is the
        steady plan unless a stall remains.
        """
        spec = board.spec
        memo = self._plan_memo
        runtimes = board.clusters
        fb, fl, _, ems = vkey
        freqs = (fb, fl)
        bw_scale = (_bandwidth_scale(board, layout.fast, freqs, memo)
                    if steady is None else steady.bw_scale)
        drained = {}
        for name, freq, threads in zip((BIG, LITTLE), freqs,
                                       layout.threads):
            if runtimes[name].pending_hotplug_stall > 0 or any(
                    t.migration_stall > 0 for t in threads):
                cores_active, per_core, _ = layout.fast[name]
                drained[name] = _cluster(spec, name, freq, cores_active,
                                         per_core, _drain_hotplug(board, name),
                                         bw_scale)
        stalled = _stall_pending(board, layout.fast)
        if steady is None and not stalled:
            steady = self._steady(board, lane, place, layout, vkey)
        parts = []
        for i, (name, freq) in enumerate(zip((BIG, LITTLE), freqs)):
            if name in drained:
                parts.append(drained[name])
            elif steady is not None:
                parts.append(steady.parts[i])
            else:
                parts.append(_cluster_memo(spec, name, freq,
                                           layout.fast[name], bw_scale, memo))
        return layout.plan(parts, lane, ems, stall_tick=True,
                           then=None if stalled else steady)

    # ------------------------------------------------------------------
    # Scalar fallback
    # ------------------------------------------------------------------
    def _run_scalar(self, index, n_steps):
        """Finish one board via the existing scalar/fastpath machinery."""
        self._replan_cache.pop(index, None)  # scalar ticks can change anything
        board = self.boards[index]
        hook = self._tick_hooks.get(index)
        if hook is None and not self.track_violations:
            ran = board.run_period(n_steps)
            self.scalar_ticks += ran
            if self.telemetry is not None and ran:
                self.telemetry.bank_scalar_ticks.inc(ran)
            return ran
        spec = board.spec
        dt = spec.sim_dt
        ran = 0
        while ran < n_steps and not board.done:
            board.step()
            ran += 1
            if hook is not None:
                hook(board)
            if self.track_violations:
                if board.thermal.temperature > spec.temp_limit:
                    self.temp_violation_time[index] += dt
                if board._instant_power[BIG] > spec.power_limit_big:
                    self.power_violation_time[index] += dt
        self.scalar_ticks += ran
        if self.telemetry is not None and ran:
            self.telemetry.bank_scalar_ticks.inc(ran)
        return ran

    # ------------------------------------------------------------------
    # Per-window inputs: constants, plan terms, credits, no-trip bound
    # ------------------------------------------------------------------
    def _slices(self, key_boards, boards):
        """Model constants and per-lane objects, sliced to one lane set."""
        S = self._slice_cache.get(key_boards)
        if S is not None:
            return S
        ix = np.asarray(key_boards, dtype=np.intp)
        C = self._const
        S = {
            name: C[name][ix]
            for name in ("static", "ambient", "resistance", "lweight",
                         "alpha", "temp_trip", "temp_clear",
                         "throttle_freq", "temp_limit", "noise_rms")
        }
        for name in ("limit", "thresh", "pcap", "sdt", "speriod",
                     "trip_delay", "clear_delay", "min_hold"):
            S[name] = C[name][:, ix]
        S["ix"] = ix
        # Per-lane object lists (board identity is fixed for the
        # bank's lifetime, so these are as cacheable as the consts).
        S["thermals"] = [b.thermal for b in boards]
        S["sens_b"] = [b.power_sensors[BIG] for b in boards]
        S["sens_l"] = [b.power_sensors[LITTLE] for b in boards]
        S["pc_b"] = [b.perf_counters[BIG] for b in boards]
        S["pc_l"] = [b.perf_counters[LITTLE] for b in boards]
        S["em"] = [b.emergency for b in boards]
        if len(self._slice_cache) > 64:
            self._slice_cache.clear()
        self._slice_cache[key_boards] = S
        return S

    def _window_inputs(self, key_boards, plans):
        """Each lane's terms and credit schedule for one window.

        A window over the lane set of the one before re-derives only what
        changed: the term columns of lanes whose plan changed and the
        schedule rows of lanes whose cells changed
        (:meth:`_CreditSchedule.reload`); a lane that kept its plan costs
        a re-read of its cell values.  Returns the inputs, whose ``plans``
        the window then updates in place: the plans its lanes end on.
        """
        cells = [self._cells(plan) for plan in plans]
        res = self._resident
        self._resident = None  # until the window completes
        if res is None or res.key != key_boards:
            return _Resident(key_boards, plans, cells)
        changed = [col for col, (plan, old) in enumerate(zip(plans,
                                                               res.plans))
                   if plan is not old]
        if changed:
            res.P[:, changed] = _term_matrix([plans[col] for col in changed])
        res.plans = plans
        res.schedule.reload(cells)
        return res

    @staticmethod
    def _cells(plan):
        """The plan's :class:`_LaneCells`.

        A stall plan uses its ``then`` plan's (the same credit layout);
        without one it has none and credits through Python.
        """
        if plan.stall_tick:
            return _NO_CELLS if plan.then is None else plan.then.cells
        return plan.cells

    def _quiet(self, S, P, plans, T, cols):
        """Whether no lane of ``cols`` can trip under its plan's terms.

        A plan keeps the ceiling proven for its terms on its lane
        (``WindowPlan.bound``; a one-tick stall plan is never asked
        again, so it keeps none), valid for any later start at or below
        it.  Unless every lane of ``cols`` starts at or below its own,
        they are all proven anew in one :meth:`_no_trip_bound` pass.
        """
        temps = T.tolist()
        if all(plans[col].bound is not None
               and temps[col] <= plans[col].bound for col in cols):
            return True
        cols = list(cols)
        if len(cols) < len(temps):
            S = {name: S[name][..., cols] for name in _BOUND_SLICES}
            P = P[:, cols]
            T = T[cols]
        X = self._no_trip_bound(S, P, T)
        if X is None:
            return False
        for col, x in zip(cols, X.tolist()):
            if not plans[col].stall_tick:
                plans[col].bound = x
        return True

    def _no_trip_bound(self, S, P, T):
        """A temperature ceiling proving no lane can trip, or ``None``.

        ``P`` holds the lanes' plan terms (:func:`_term_rows`, one column
        per lane), ``S`` their constants (:meth:`_slices`) and ``T``
        their temperatures.  Power is monotone nondecreasing in
        temperature (spec constants and leakage terms checked), so
        iterating ``X <- max(X, target(X))`` over the lanes' RC targets
        yields an ``X`` with ``target(X) <= X``, which by induction
        bounds each lane's temperature trajectory under these terms from
        any start at or below it.  If ``X`` and the power at ``X`` clear
        the trip thresholds (with an absolute margin crushing per-tick
        rounding), the emergency firmware provably stays inert.  Every
        check is lane by lane, so each lane's entry of ``X`` is a ceiling
        for that lane alone.
        """
        dyn_m, leak_m, ltc_m, idle_m = P[0:2], P[2:4], P[4:6], P[6:8]
        if not self._const["monotone"] or not bool((leak_m >= 0.0).all()):
            return None
        ambient = S["ambient"]
        resistance = S["resistance"]
        lweight = S["lweight"]

        def power(X):
            factor = 1.0 + ltc_m * (X - _REFERENCE_TEMP)
            return dyn_m + leak_m * np.maximum(factor, 0.2) + idle_m

        def target(p_m):
            return ambient + resistance * (p_m[0] + lweight * p_m[1])

        X = T
        for _ in range(6):
            p_m = power(X)
            t_e = target(p_m)
            if (t_e <= X).all():
                break
            X = np.maximum(X, t_e)
        else:
            # X was raised on the last pass, so re-verify there first.  If
            # float arithmetic still hasn't closed (the gap contracts
            # geometrically but float equality can take a dozen passes),
            # any X with target(X) <= X bounds the trajectory by the same
            # induction: pad past the fixed point and verify once.
            p_m = power(X)
            t_e = target(p_m)
            if not (t_e <= X).all():
                gap = float((t_e - X).max())
                if not gap < 1e-3:
                    return None  # no contraction
                X = X + 2.0 * gap + 1e-9
                p_m = power(X)
                if not (target(p_m) <= X).all():
                    return None
        if not (
            (X < S["temp_trip"] - 1e-9).all()
            and (p_m < S["thresh"] - 1e-9).all()
            and (p_m < S["limit"] - 1e-9).all()
        ):
            return None
        return X

    # ------------------------------------------------------------------
    # The lane×tick kernel
    # ------------------------------------------------------------------
    @staticmethod
    def _gather(boards, S):
        """The lanes' mutable board state: floats, emergency flags, trips.

        One array build for all the float lanes, updated in place for
        the whole window.  Rows 6..12 (retired instructions,
        sensor-elapsed, time, under-limit clocks) advance by a constant
        each tick, laid out contiguously so the tick loop bumps them
        with a single fused in-place add.
        """
        sens_b = S["sens_b"]
        sens_l = S["sens_l"]
        em = S["em"]
        g = np.array([
            [t.temperature for t in S["thermals"]],
            [b.energy for b in boards],
            [s._accumulated for s in sens_b],
            [s._accumulated for s in sens_l],
            [s._latched for s in sens_b],
            [s._latched for s in sens_l],
            [c.total_giga for c in S["pc_b"]],
            [c.total_giga for c in S["pc_l"]],
            [s._elapsed for s in sens_b],
            [s._elapsed for s in sens_l],
            [b.time for b in boards],
            [e._under_power_time[BIG] for e in em],
            [e._under_power_time[LITTLE] for e in em],
            [e._over_power_time[BIG] for e in em],
            [e._over_power_time[LITTLE] for e in em],
            [e._hold_time[BIG] for e in em],
            [e._hold_time[LITTLE] for e in em],
            [e.state.throttle_time for e in em],
        ])
        flags = np.array([
            [e.state.thermal_throttled for e in em],
            [e.state.power_throttled[BIG] for e in em],
            [e.state.power_throttled[LITTLE] for e in em],
        ], dtype=bool)
        trip_count = np.array([e.state.trip_count for e in em],
                              dtype=np.int64)
        return g, flags, trip_count

    def _run_vector_window(self, indices, plans, n_steps):
        """Advance every lane up to ``n_steps`` ticks in vectorized lockstep.

        ``plans`` holds each lane's plan, in ``indices`` order.  Board
        state is gathered into the lane matrix once, stepped tick by tick,
        and each lane's column is written back once, when the lane leaves
        the window.  A proven no-trip bound (:meth:`_no_trip_bound`) runs
        the window *quiet*, without the emergency state machine.

        Events are lane-local.  When a lane's emergency firmware changes
        state or its membership guard fires, that lane alone re-plans
        after the offending tick (exactly where scalar stepping would):
        its emergency state and credit cells are written back, the new
        plan's terms and cells are spliced into its column, and every lane
        runs on.  A lane on a one-tick stall plan switches to the plan's
        ``then`` after that tick (it re-plans the same way if it has
        none).  A lane leaves the window early only when its re-plan is
        refused (program finished, nothing runnable); its column is then
        written back and masked out.

        Returns the number of ticks each lane executed, in ``indices``
        order.
        """
        boards = [self.boards[i] for i in indices]
        B = len(boards)
        dt = self._dt
        key_boards = tuple(indices)

        # --- constants, sliced to this window's lanes (cached) ----------
        S = self._slices(key_boards, boards)
        ix = S["ix"]
        static = S["static"]
        ambient = S["ambient"]
        resistance = S["resistance"]
        lweight = S["lweight"]
        alpha = S["alpha"]
        temp_trip = S["temp_trip"]
        temp_clear = S["temp_clear"]
        throttle_freq = S["throttle_freq"]
        limit_m = S["limit"]
        thresh_m = S["thresh"]
        sdt_m = S["sdt"]
        speriod_m = S["speriod"]
        trip_delay = S["trip_delay"]
        clear_delay = S["clear_delay"]
        min_hold = S["min_hold"]

        # --- mutable board state, copied into lanes ---------------------
        em = S["em"]
        g, flags, trip_count = self._gather(boards, S)
        T = g[0]
        energy = g[1]
        acc_m = g[2:4]
        latch_m = g[4:6]
        elap_m = g[8:10]
        time_arr = g[10]
        under_m = g[11:13]
        over_m = g[13:15]
        hold_m = g[15:17]
        throttle_time = g[17]
        th = flags[0]
        pth_m = flags[1:3]
        trip = np.empty_like(flags)
        clear = np.empty_like(flags)
        has_trip_cb = any(e.on_trip is not None for e in em)
        inc = np.empty((7, B))
        inc[2:4] = sdt_m
        inc[4:7] = dt

        # --- per-lane plans: terms, credit cells, crediting mode --------
        # dyn, leak, leak temp coefficient, idle and instructions, two
        # rows each, and the credit schedule: kept from the last window
        # over these lanes, and re-planned lanes splice into them.
        res = self._window_inputs(key_boards, list(plans))
        plans = res.plans
        P = res.P
        schedule = res.schedule
        dyn_m, leak_m, ltc_m, idle_m = P[0:2], P[2:4], P[4:6], P[6:8]
        inc[0:2] = P[8:10]
        # A proven no-trip bound collapses the per-tick firmware machine
        # to the under-limit clocks (already rows of ``g``).
        quiet = not flags.any() and self._quiet(S, P, plans, T, range(B))
        ran = [0] * B
        live = list(range(B))
        alive = np.ones(B, dtype=bool)  # left lanes keep computing, masked
        # A lane credits vectorized until its horizon tick, then through
        # Python ``execute`` calls (watching its membership guard).
        n_vec = [0] * B
        guards = [None] * B
        python = []
        for col, h in enumerate(schedule.horizons()):
            plan = plans[col]
            if plan.stall_tick and plan.then is None:
                h = 0
            n_vec[col] = n_steps if h is None else min(h, n_steps)
            if n_vec[col] == 0:
                schedule.release(col)
                python.append(col)
                guards[col] = _MembershipGuard(plan)
            elif plan.stall_tick:
                # The stall tick's own, smaller amounts on the cells of
                # the plan after it: the horizon stays conservative.
                schedule.weigh(col, [done for _, _, done in plan.credits])

        track = self.track_violations
        temp_limit = S["temp_limit"] if track else None
        tv = self.temp_violation_time
        pv = self.power_violation_time
        any_record = any(b.trace is not None for b in boards)
        if any_record:
            pcap_m = S["pcap"]
            no_emergency = np.zeros(B, dtype=bool)
            hist = {name: [] for name in (
                "power", "temperature", "time",
                "freq_big", "freq_little", "emergency",
            )}
            # (first row, bips) of each plan a lane ran, in order.
            bips_runs = [[(0, plan.bips)] for plan in plans]
            freq_b = np.array([b.clusters[BIG].frequency for b in boards])
            freq_l = np.array([b.clusters[LITTLE].frequency for b in boards])

        def install(col, plan):
            """Switch one lane to a new plan's terms from this tick on."""
            nonlocal quiet
            plans[col] = plan
            if any_record:
                bips_runs[col].append((len(hist["time"]), plan.bips))
            P[:, col] = _term_rows(plan.big, plan.little)
            inc[0:2, col] = P[8:10, col]
            if quiet and not self._quiet(S, P, plans, T, (col,)):
                # The new terms may trip: run the firmware machine for
                # everyone from here (every quiet tick so far zeroed the
                # over-threshold timers).
                quiet = False
                over_m[...] = 0.0

        def leave(cols):
            """Write lanes back into their boards; they leave the window."""
            if any_record:
                for col in cols:
                    if boards[col].trace is not None:
                        self._extend_trace(boards[col], col, hist,
                                           bips_runs[col])
            self._write_back(schedule, [boards[col] for col in cols], S,
                             cols, (g, flags, trip_count, p_m), quiet, t,
                             [plans[col].bips for col in cols])
            for col in cols:
                ran[col] = t
                alive[col] = False
                live.remove(col)

        t = 0
        p_m = None
        any_active = None  # None while no lane is throttled
        while live:
            stop = n_steps
            vectorized = False
            for col in live:
                if plans[col].stall_tick:
                    stop = t + 1
                if schedule.vector[col]:
                    vectorized = True
                    if n_vec[col] < stop:
                        stop = n_vec[col]
            replan = []
            while t < stop:
                # Exact replay of cluster_power().total per lane: dynamic
                # and idle are plan constants, leakage tracks the hot
                # spot.  (Unpowered clusters have all-zero plan terms, so
                # the same expression reproduces their exact 0.0 W.)
                factor = 1.0 + ltc_m * (T - _REFERENCE_TEMP)
                p_m = dyn_m + leak_m * np.maximum(factor, 0.2) + idle_m
                p_b = p_m[0]
                p_l = p_m[1]
                # Application crediting (scalar stepping credits with the
                # tick-start time plus dt; the vectorized schedule replays
                # the same subtractions/additions inside each lane's
                # horizon).
                if vectorized:
                    schedule.tick()
                if python:
                    now = time_arr + dt
                    for col in python:
                        t_now = float(now[col])
                        for app, thread, done in plans[col].credits:
                            app.execute(thread, done, t_now)
                # Thermal RC fixed point, energy, sensors, counters.
                target = ambient + resistance * (p_b + lweight * p_l)
                T += alpha * (target - T)
                energy += (p_b + p_l + static) * dt
                acc_m += p_m * sdt_m
                # Fused constant-rate clocks: retired instructions and
                # sensor elapsed always; plus time and the under-limit
                # clocks on the proven-quiet path (no trip callback can
                # observe time mid-tick there, and power <= limit holds
                # lane-wide).
                if quiet:
                    g[6:13] += inc
                else:
                    g[6:10] += inc[0:4]
                latching = elap_m + 1e-12 >= speriod_m
                if latching.any():
                    np.copyto(latch_m, acc_m / elap_m, where=latching)
                    acc_m[latching] = 0.0
                    elap_m[latching] = 0.0
                # Emergency firmware state machine (quiet: provably inert),
                # the thermal flag and both power flags stacked in rows:
                # a trip needs the flag clear and a clear needs it set,
                # so a flag flips exactly where ``trip | clear``.
                if not quiet:
                    is_over = p_m > thresh_m
                    # Exact: (over + dt) * 0.0 is +0.0, like the reset.
                    np.multiply(over_m + dt, is_over, out=over_m)
                    np.add(under_m, dt, out=under_m, where=p_m <= limit_m)
                    np.copyto(under_m, 0.0, where=is_over)
                    np.add(hold_m, dt, out=hold_m, where=pth_m)
                    np.greater_equal(T, temp_trip, out=trip[0])
                    np.greater_equal(over_m, trip_delay, out=trip[1:])
                    np.greater(trip, flags, out=trip)  # trip & ~flags
                    np.less_equal(T, temp_clear, out=clear[0])
                    np.logical_and(hold_m >= min_hold,
                                   under_m >= clear_delay, out=clear[1:])
                    clear &= flags
                    changed = trip | clear
                    if changed.any():
                        hold_m[trip[1:]] = 0.0
                        trip_count += trip.sum(axis=0)
                        if has_trip_cb and trip.any():
                            for k in np.nonzero(trip.any(axis=0)
                                                & alive)[0]:
                                if em[k].on_trip is not None:
                                    boards[k].time = float(time_arr[k])
                                    if trip[0, k]:
                                        em[k].on_trip("thermal")
                                    if trip[1, k]:
                                        em[k].on_trip(f"power-{BIG}")
                                    if trip[2, k]:
                                        em[k].on_trip(f"power-{LITTLE}")
                        flags ^= changed
                        # Lane events: the offending tick completes first
                        # (exactly like scalar stepping), then the lane
                        # re-plans.
                        replan = np.nonzero(changed.any(axis=0)
                                            & alive)[0].tolist()
                    any_active = None
                    if flags.any():
                        any_active = flags.any(axis=0)
                        np.add(throttle_time, dt, out=throttle_time,
                               where=any_active)
                    time_arr += dt
                t += 1
                if track:
                    hot = (T > temp_limit) & alive
                    loud = (p_b > limit_m[0]) & alive
                    if hot.any():
                        tv[ix[hot]] += dt
                    if loud.any():
                        pv[ix[loud]] += dt
                if any_record:
                    # Effective (emergency-capped) frequencies, post-update
                    # — exactly what Board._record reads at tick end.
                    if any_active is None:
                        hist["freq_big"].append(freq_b)
                        hist["freq_little"].append(freq_l)
                        hist["emergency"].append(no_emergency)
                    else:
                        cap = np.where(th, throttle_freq, np.inf)
                        cap = np.where(pth_m[0], np.minimum(cap, pcap_m[0]),
                                       cap)
                        hist["freq_big"].append(
                            np.where(np.isinf(cap), freq_b,
                                     np.minimum(freq_b, cap))
                        )
                        cap_l = np.where(pth_m[1], pcap_m[1], np.inf)
                        hist["freq_little"].append(
                            np.where(np.isinf(cap_l), freq_l,
                                     np.minimum(freq_l, cap_l))
                        )
                        hist["emergency"].append(any_active)
                    hist["power"].append(p_m)
                    hist["temperature"].append(T.copy())
                    hist["time"].append(time_arr.copy())
                if replan:
                    self._event("emergency", len(replan))
                # Membership can only change once a lane credits through
                # Python: its horizon proves no budget hits its clamp or
                # advance threshold before then.
                for col in python:
                    if guards[col].changed():
                        self._replan_cache.pop(indices[col], None)
                        self._event("membership")
                        if col not in replan:
                            replan.append(col)
                if replan:
                    break

            # --- at tick t: departures, re-plans, horizons ---------------
            if t == n_steps:
                leave(list(live))  # the caller's next plan sees any event
                break
            # A stall plan is spent after its one tick: the lane moves on
            # to the plan built with it, or re-plans while a stall remains.
            for col in live:
                plan = plans[col]
                if plan.stall_tick and col not in replan:
                    if plan.then is None:
                        replan.append(col)
                    else:
                        install(col, plan.then)
                        schedule.weigh(col, schedule.lanes[col].done)
            leaving = []
            for col in replan:
                i = indices[col]
                board = boards[col]
                # Write back what the planner reads, and re-plan.
                schedule.release(col)
                if col in python:
                    python.remove(col)
                state = em[col].state
                (state.thermal_throttled, state.power_throttled[BIG],
                 state.power_throttled[LITTLE]) = flags[:, col].tolist()
                plan = None if board.done else self._plan_for(i)
                if plan is None:
                    self._event("lane_exit")
                    leaving.append(col)
                    continue
                install(col, plan)
                horizon = 0 if plan.stall_tick else schedule.splice(
                    col, self._cells(plan))
                n_vec[col] = n_steps if horizon is None else min(
                    t + horizon, n_steps)
                if not schedule.vector[col]:
                    python.append(col)
                    guards[col] = _MembershipGuard(plan)
            for col in live:
                if schedule.vector[col] and n_vec[col] == t:
                    schedule.release(col)
                    python.append(col)
                    guards[col] = _MembershipGuard(plans[col])
            if leaving:
                for col in leaving:
                    if col in python:
                        python.remove(col)
                leave(leaving)

        self._resident = res
        self.windows += 1
        board_ticks = sum(ran)
        self.vector_ticks += board_ticks
        if self.telemetry is not None:
            self.telemetry.bank_windows.inc()
            self.telemetry.bank_board_ticks.inc(board_ticks)
        return ran

    @staticmethod
    def _write_back(schedule, boards, S, cols, state, quiet, ticks, bips):
        """Store the columns ``cols`` of a window's lane state (``g``,
        ``flags``, ``trip_count`` and the last tick's powers ``p_m``) and
        their credit cells (``schedule``) into ``boards``, after ``ticks``
        ticks; ``bips`` is each one's rate."""
        for col in cols:
            schedule.release(col)
        g, flags, trip_count, p_m = state
        G = g[:, cols].T.tolist()
        F = flags[:, cols].T.tolist()
        trips = trip_count[cols].tolist()
        powers = p_m[:, cols].T.tolist()
        noise_rms = S["noise_rms"][cols].tolist()
        for j, (col, board) in enumerate(zip(cols, boards)):
            (temp, energy_k, acc_b, acc_l, latch_b, latch_l, instr_b,
             instr_l, elap_b, elap_l, time_k, under_b, under_l,
             over_b, over_l, hold_b, hold_l, throttled_s) = G[j]
            S["thermals"][col].temperature = temp
            board.energy = energy_k
            board.time = time_k
            sensor = S["sens_b"][col]
            sensor._accumulated = acc_b
            sensor._elapsed = elap_b
            sensor._latched = latch_b
            sensor = S["sens_l"][col]
            sensor._accumulated = acc_l
            sensor._elapsed = elap_l
            sensor._latched = latch_l
            S["pc_b"][col].total_giga = instr_b
            S["pc_l"][col].total_giga = instr_l
            # The last sensed temperature: the final true temperature plus
            # the last of this lane's noise draws, drawn here in one batch
            # (batched == sequential draws, so the RNG stream matches
            # scalar stepping).
            noise = 0.0
            if noise_rms[j] > 0:
                noise = float(board.temp_sensor._rng.normal(
                    scale=noise_rms[j], size=ticks)[-1])
            board.temp_sensor._last = temp + noise
            e = S["em"][col]
            e._under_power_time[BIG] = under_b
            e._under_power_time[LITTLE] = under_l
            if quiet:
                # Scalar stepping zeroes the over-threshold timers on every
                # under-threshold tick, and every quiet tick is under
                # threshold; throttle flags, trip counts, and hold clocks
                # provably did not move.
                e._over_power_time[BIG] = 0.0
                e._over_power_time[LITTLE] = 0.0
            else:
                flag = e.state
                flag.thermal_throttled = F[j][0]
                flag.power_throttled[BIG] = F[j][1]
                flag.power_throttled[LITTLE] = F[j][2]
                flag.trip_count = trips[j]
                flag.throttle_time = throttled_s
                e._over_power_time[BIG] = over_b
                e._over_power_time[LITTLE] = over_l
                e._hold_time[BIG] = hold_b
                e._hold_time[LITTLE] = hold_l
            board._instant_power = {BIG: powers[j][0], LITTLE: powers[j][1]}
            board._instant_bips = bips[j]

    @staticmethod
    def _extend_trace(board, lane, hist, bips_runs):
        """Append one lane's history rows to its trace.

        ``bips_runs`` holds ``(first row, bips)`` for each plan the lane
        ran in the window, in order.
        """
        trace = board.trace
        times = hist["time"]
        ticks = len(times)
        trace.times.extend(float(row[lane]) for row in times)
        power = hist["power"]
        trace.power_big.extend(float(row[0][lane]) for row in power)
        trace.power_little.extend(float(row[1][lane]) for row in power)
        trace.temperature.extend(
            float(row[lane]) for row in hist["temperature"]
        )
        ends = [start for start, _ in bips_runs[1:]] + [ticks]
        for (start, bips), end in zip(bips_runs, ends):
            bips_big = bips[BIG]
            bips_little = bips[LITTLE]
            trace.bips_big.extend([bips_big] * (end - start))
            trace.bips_little.extend([bips_little] * (end - start))
            trace.bips_total.extend([bips_big + bips_little] * (end - start))
        trace.freq_big.extend(float(row[lane]) for row in hist["freq_big"])
        trace.freq_little.extend(
            float(row[lane]) for row in hist["freq_little"]
        )
        trace.cores_big.extend([board.clusters[BIG].cores_on] * ticks)
        trace.cores_little.extend([board.clusters[LITTLE].cores_on] * ticks)
        trace.emergency.extend(bool(row[lane]) for row in hist["emergency"])
