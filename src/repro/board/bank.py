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
* per-board temperature-sensor noise is pre-drawn in blocks from each
  board's own generator (NumPy ``Generator`` draws are bit-identical
  whether batched or sequential — asserted by the test suite) and the
  generator is rewound to the exact number of draws consumed, so RNG
  streams match scalar stepping;
* the emergency-firmware threshold state machine runs as masked array
  updates — with a fixed-point temperature bound that proves, up front,
  that no lane can trip, collapsing the machine to one vector op per
  tick in the common case;
* application crediting runs as per-slot scatter-adds over a flat cell
  array (threads' barrier budgets, apps' shared pools, completed
  instructions) for as long as a conservatively computed horizon
  guarantees no budget can clamp or run dry — the exact floating-point
  subtraction sequence scalar ``Application.execute`` performs.

Planning is also amortized: the bank passes a shared memo to
:func:`repro.board.fastpath.plan_window`, so boards at the same
operating point (same spec object, effective frequencies, core counts,
and per-core phase characteristics) reuse one window plan's math
across lanes *and* across control periods.

One kernel does all vectorized stepping: it advances a lane set through
a list of segments (stretches of ticks under fixed plans), gathering
board state once, stepping, and writing it back once.
:meth:`BoardBank.run_period_bank` hands it one segment per window.
:meth:`BoardBank.run_schedule_bank` *fuses* whole DVFS schedules: it
validates and snaps up to ``block_periods`` upcoming frequency commands
at once, plans every lane for every distinct operating point in the
block, proves one no-trip temperature bound and one credit horizon for
the whole block, and hands the kernel one segment per period — so no
per-board Python actuation code runs between fused periods.  Blocks
that cannot be proven quiet fall back to the exact per-period path one
period at a time and retry fusing from the next period.

Exactness contract
------------------
Every lane performs, per tick, the *same floating-point operations in
the same order* as that board's scalar :meth:`Board.step` (equivalently
the single-board fast path) would, so each board's resulting state —
time, energy, temperatures, sensor windows, RNG stream, traces,
application progress, emergency timers — is **bit-identical** to running
the ``B`` boards independently.  Boards that diverge into scalar-only
territory are masked out of the lockstep kernel and finished through
the existing scalar/fastpath machinery:

* a lane with a draining hotplug/migration stall peels exactly the
  stalled ticks through the scalar stepper, then rejoins the lockstep
  kernel the moment the planner accepts it again (lanes whose placement
  epoch is unchanged since their last stall-free check skip the scan
  entirely);
* boards with fault hooks or a registered per-tick hook (e.g. a fault
  injector's ``advance``) always run the scalar per-tick loop;
* mid-window, the moment a board's emergency firmware changes state or
  an application's runnable-thread set changes, the lockstep window ends
  (the offending tick is still exact), only that board's plan is
  invalidated, and every lane — including the divergent one, under its
  refreshed plan — re-enters the vector kernel at the next window.
"""

from __future__ import annotations

import numpy as np

from .fastpath import (
    WindowPlan,
    _emergency_snapshot,
    _membership_changed,
    plan_window,
    run_window,
)
from .power import _REFERENCE_TEMP
from .specs import BIG, LITTLE

__all__ = ["BoardBank"]


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


class _CreditSchedule:
    """Vectorized replay of one window's per-tick application crediting.

    Scalar stepping calls ``app.execute(thread, done, now)`` for every
    planned credit, every tick — a min-clamp, one subtraction from the
    thread's barrier budget or the app's shared pool, one addition to the
    app's completed-instruction counter, and a phase-advance check.  Far
    from exhaustion none of the clamps or advances can fire, so the whole
    tick reduces to the same subtractions/additions on a flat float
    array: one scatter-add per credit *slot* (position in the per-board
    credit list) covers every board at once while preserving the exact
    per-cell operation order.

    ``horizon`` is the number of ticks this is provably safe for: each
    budget cell keeps at least three full ticks of decrement in reserve
    (crushing both the ``min(done, remaining)`` clamp and the ``1e-12``
    phase-advance threshold, with orders of magnitude to spare over
    accumulated rounding).  At the horizon the caller scatters the cells
    back into the Python objects and finishes the window with ordinary
    ``execute`` calls.
    """

    __slots__ = ("cells", "vals", "slots", "value_decs", "horizon",
                 "scattered", "plan_ident", "_dec_idx", "_dec_arr")

    _THREAD = 0
    _POOL = 1
    _DONE = 2

    def __init__(self, indices, plans):
        cells = []  # (kind, object)
        decs = []
        index = {}
        slot_ids = []
        slot_ws = []
        for i in indices:
            for j, (app, thread, done) in enumerate(plans[i].credits):
                if j >= len(slot_ids):
                    slot_ids.append([])
                    slot_ws.append([])
                if app.current_phase.barrier:
                    vkey = id(thread)
                    if vkey not in index:
                        index[vkey] = len(cells)
                        cells.append((self._THREAD, thread))
                        decs.append(0.0)
                else:
                    vkey = -1 - id(app)  # disjoint from thread id keys
                    if vkey not in index:
                        index[vkey] = len(cells)
                        cells.append((self._POOL, app))
                        decs.append(0.0)
                vc = index[vkey]
                ckey = ("c", id(app))
                if ckey not in index:
                    index[ckey] = len(cells)
                    cells.append((self._DONE, app))
                    decs.append(0.0)
                decs[vc] += done
                slot_ids[j].append(vc)
                slot_ids[j].append(index[ckey])
                slot_ws[j].append(-done)
                slot_ws[j].append(done)
        self.cells = cells
        self.value_decs = [
            (c, decs[c]) for c, (kind, _) in enumerate(cells)
            if kind != self._DONE and decs[c] > 0.0
        ]
        self.slots = [
            (np.array(ids, dtype=np.intp), np.array(ws))
            for ids, ws in zip(slot_ids, slot_ws)
        ]
        if self.value_decs:
            self._dec_idx = np.array(
                [c for c, _ in self.value_decs], dtype=np.intp
            )
            self._dec_arr = np.array([d for _, d in self.value_decs])
        else:
            self._dec_idx = None
            self._dec_arr = None
        self.plan_ident = None  # set by the bank's schedule cache
        self.refresh()

    def refresh(self):
        """Re-read the live cell values (the structure is state-free)."""
        _thread = self._THREAD
        _pool = self._POOL
        vals = [
            obj.remaining if kind == _thread
            else obj.pool_remaining if kind == _pool
            else obj.completed_instructions
            for kind, obj in self.cells
        ]
        self.vals = np.array(vals) if vals else None
        if self._dec_idx is not None:
            # Truncation is monotone, so int(min(v/d)) == min(int(v/d)).
            self.horizon = max(
                int((self.vals[self._dec_idx] / self._dec_arr).min()) - 3, 0
            )
        else:
            self.horizon = None
        self.scattered = False

    def safe_ticks(self, max_ticks):
        return max_ticks if self.horizon is None else min(self.horizon,
                                                          max_ticks)

    def tick(self):
        vals = self.vals
        for ids, ws in self.slots:
            vals[ids] += ws

    def scatter(self):
        """Write the cell lanes back into the live application objects."""
        if self.scattered or self.vals is None:
            self.scattered = True
            return
        out = self.vals.tolist()
        for c, (kind, obj) in enumerate(self.cells):
            if kind == self._THREAD:
                obj.remaining = out[c]
            elif kind == self._POOL:
                obj.pool_remaining = out[c]
            else:
                obj.completed_instructions = out[c]
        self.scattered = True


class _Segment:
    """A stretch of lockstep ticks under one set of per-lane plans.

    ``freqs`` is the ``(big, little)`` frequency pair recorded on every
    lane's trace, or ``None`` to record each board's own setting.
    """

    __slots__ = ("plans", "terms", "schedule", "guards", "ticks", "freqs")

    def __init__(self, plans, terms, schedule, guards, ticks, freqs):
        self.plans = plans
        self.terms = terms
        self.schedule = schedule
        self.guards = guards
        self.ticks = ticks
        self.freqs = freqs


def _any_throttled(em):
    """Is any lane's emergency firmware currently throttling?"""
    for e in em:
        state = e.state
        if (
            state.thermal_throttled
            or state.power_throttled[BIG]
            or state.power_throttled[LITTLE]
        ):
            return True
    return False


class BoardBank:
    """Advance ``B`` independent boards in vectorized lockstep.

    Every vectorized tick runs in one lane×tick kernel
    (:meth:`_run_vector_window`) that advances a lane set through a list
    of *segments* — stretches of ticks under fixed per-lane plans.
    :meth:`run_period_bank` passes one segment per window, with the
    emergency state machine, Python crediting past the credit horizon and
    membership guards live; :meth:`run_schedule_bank` passes the ``K``
    period segments of a block it has proven quiet.  One fixed-point
    no-trip bound (:meth:`_no_trip_bound`, one cache) serves both.

    ``track_violations`` additionally accumulates per-board seconds with
    the *true* die temperature above ``spec.temp_limit`` and big-cluster
    instantaneous power above ``spec.power_limit_big`` (what the
    resilience experiment's per-tick clocks measure), on both the
    vectorized and the scalar-fallback paths.  A board with
    ``enable_fast_path = False`` always takes the scalar path.
    """

    # Entries the lane-term cache holds before it is dropped and rebuilt.
    lane_cache_limit = 256

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
        # Plan/schedule reuse state (see _plan_for and _credit_schedule_for):
        # _replan_cache holds each board's last WindowPlan plus the change
        # counters it is conditioned on; _board_gen ticks whenever a
        # board's thread/app identity may have changed (full replans);
        # _plan_gen ticks when the memo is cleared (invalidates every
        # id()-keyed derived cache at once).
        self._replan_cache = {}
        self._board_gen = [0] * n
        self._plan_gen = 0
        self._sched_cache = {}
        self._lane_cache = {}
        self._slice_cache = {}
        # Last placement epoch at which each lane was verified stall-free:
        # every stall-charging path (hotplug, placement apply) bumps the
        # board's _placement_epoch, so an unchanged epoch proves the
        # stall-peel pre-pass has nothing to drain and can be skipped.
        self._stall_free = [None] * n
        # Validated/snapped schedule entries keyed by raw command pair,
        # and proven no-trip temperature bounds keyed by lane set and
        # operating-point set (see _no_trip_bound).
        self._snap_cache = {}
        self._ub_cache = {}
        self._build_constants()
        # Introspection counters (mirrored into telemetry when enabled).
        self.vector_ticks = 0  # board-ticks executed by the vector kernel
        self.scalar_ticks = 0  # board-ticks finished via scalar/fastpath
        self.windows = 0  # vectorized windows executed
        self.fused_blocks = 0  # multi-period fused blocks executed
        self.fused_ticks = 0  # board-ticks executed inside fused blocks
        self.events = {"emergency": 0, "membership": 0, "plan_refused": 0,
                       "stall_peel": 0}

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
        self._board_gen[index] += 1
        self._stall_free[index] = None

    def counters(self):
        """Snapshot of the bank's lockstep/fallback accounting."""
        return {
            "boards": len(self.boards),
            "vector_ticks": self.vector_ticks,
            "scalar_ticks": self.scalar_ticks,
            "windows": self.windows,
            "fused_blocks": self.fused_blocks,
            "fused_ticks": self.fused_ticks,
            "events": dict(self.events),
        }

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
        if only is None:
            selected = range(len(self.boards))
        else:
            selected = list(only)
        pending = []
        remaining = {}
        for i in selected:
            board = self.boards[i]
            if board.done:
                continue
            if i in self._tick_hooks or not board.enable_fast_path:
                executed[i] = self._run_scalar(i, n_steps)
            else:
                pending.append(i)
                remaining[i] = n_steps
        while pending:
            # Stall-peel pre-pass: a draining hotplug/migration stall would
            # refuse a plan for only a tick or two, so drain it with single
            # scalar ticks *before* planning — the peeled lanes then rejoin
            # the same vector window as everyone else (keeping the window's
            # lane set stable for the slice/lane/schedule caches) instead
            # of dropping to the scalar path for the whole call.
            still = []
            stall_free = self._stall_free
            for i in pending:
                board = self.boards[i]
                # Stalls are only ever charged by paths that bump the
                # board's _placement_epoch, so a lane verified stall-free
                # at its current epoch needs no scan at all.
                if stall_free[i] != board._placement_epoch:
                    while (
                        remaining[i] > 0
                        and not board.done
                        and self._transient_refusal(i)
                    ):
                        self.events["plan_refused"] += 1
                        self.events["stall_peel"] += 1
                        if self.telemetry is not None:
                            self.telemetry.bank_events.labels(
                                reason="plan_refused"
                            ).inc()
                        executed[i] += self._peel_tick(i)
                        remaining[i] -= 1
                    if remaining[i] > 0 or board.done:
                        # (remaining == 0 means the loop may have exited
                        # with the stall still draining — don't record.)
                        stall_free[i] = board._placement_epoch
                if remaining[i] > 0 and not board.done:
                    still.append(i)
            pending = still
            plans = {}
            memo = self._plan_memo
            if len(memo) > 4096:  # runaway-key backstop; plans re-memoize
                memo.clear()
                self._plan_gen += 1
                self._replan_cache.clear()
                self._sched_cache.clear()
                self._lane_cache.clear()
            retry = []
            for i in pending:
                plan = self._plan_for(i)
                if plan is None:
                    self.events["plan_refused"] += 1
                    if self.telemetry is not None:
                        self.telemetry.bank_events.labels(
                            reason="plan_refused"
                        ).inc()
                    if self._transient_refusal(i):
                        # A draining hotplug/migration stall refuses a plan
                        # for only a tick or two: peel exactly one scalar
                        # tick (which drains min(stall, dt)) and retry the
                        # planner, instead of condemning the lane to the
                        # scalar path for the whole call.
                        self.events["stall_peel"] += 1
                        executed[i] += self._peel_tick(i)
                        remaining[i] -= 1
                        if remaining[i] > 0 and not self.boards[i].done:
                            retry.append(i)
                    else:
                        executed[i] += self._run_scalar(i, remaining[i])
                else:
                    plans[i] = plan
            pending = [i for i in pending if i in plans]
            if not pending:
                pending = retry  # only peeled lanes left: re-plan them
                continue
            window = min(remaining[i] for i in pending)
            if window < 4:
                # Tiny remainder (stall peels de-sync lanes by a tick or
                # two): per-lane fastpath stepping beats the vector
                # window's fixed gather/scatter cost at this size.  Only
                # the de-synced lanes take it, though — clamping *every*
                # lane to the shortest remainder would collapse the whole
                # bank to scalar stepping each time a single lane peels
                # (each board's float sequence is independent of how
                # lanes are grouped, so the split is bit-exact).
                tiny = [i for i in pending if remaining[i] < 4]
                pending = [i for i in pending if remaining[i] >= 4]
                for i in tiny:
                    ran = self._run_tiny(i, plans[i], remaining[i])
                    executed[i] += ran
                    remaining[i] -= ran
                    if remaining[i] > 0 and not self.boards[i].done:
                        retry.append(i)
                if not pending:
                    pending = retry
                    continue
                window = min(remaining[i] for i in pending)
            ran = self._run_vector_window(
                pending, [self._segment(tuple(pending), pending, plans,
                                        window)]
            )
            survivors = []
            for i in pending:
                executed[i] += ran
                remaining[i] -= ran
                if remaining[i] > 0 and not self.boards[i].done:
                    survivors.append(i)
            pending = survivors + retry
        return executed

    # ------------------------------------------------------------------
    # Planning with reuse
    # ------------------------------------------------------------------
    def _plan_for(self, index):
        """Window plan for one board, reusing prior plans when provably valid.

        A cached plan depends only on (a) the actuation state, tracked by
        the board's monotonic epochs, (b) the emergency throttle flags
        (which determine the effective frequency/core caps), (c) placement
        membership — invalidated through :attr:`_replan_cache` eviction the
        moment a membership guard fires — and (d) the absence of fault
        hooks and draining stalls, re-checked here because they can appear
        without an actuation call.  Two reuse tiers, then a full replan:

        1. nothing changed → return the previous plan object;
        2. only the operating point changed (DVFS and/or emergency caps,
           same placement and core counts) → return this entry's plan for
           that operating point, or rebuild the key from the cached
           placement layout and hit the value memo, reassembling credits
           from live thread objects;
        3. otherwise → full :func:`plan_window` (which re-derives refusal
           conditions and performs the placement-membership refresh).

        Every reused plan lives in this board's :attr:`_replan_cache`
        entry, which a membership change evicts; no plan is looked up by
        thread values, so threads re-created on a phase entry never match
        a plan built for their predecessors.
        """
        board = self.boards[index]
        entry = self._replan_cache.get(index)
        sensors = board.power_sensors
        runtimes = board.clusters
        clean = (
            board.fault_hooks is None
            and board.temp_sensor.fault_hook is None
            and sensors[BIG].fault_hook is None
            and sensors[LITTLE].fault_hook is None
            and runtimes[BIG].pending_hotplug_stall <= 0
            and runtimes[LITTLE].pending_hotplug_stall <= 0
        )
        if entry is not None and clean:
            plan = entry["plan"]
            ems = _emergency_snapshot(board)
            if (
                board._actuation_epoch == entry["epoch"]
                and ems == plan.emergency_snapshot
            ):
                return plan
            if board._placement_epoch == entry["pepoch"]:
                fb = board._effective_frequency(BIG)
                cb = board._effective_cores(BIG)
                fl = board._effective_frequency(LITTLE)
                cl = board._effective_cores(LITTLE)
                if (cb, cl) == entry["cores"]:
                    # Operating points recur (DVFS sweeps cycle a small
                    # set): a plan rebuilt here earlier is valid verbatim
                    # as long as this entry lives — membership, placement,
                    # and thread identity are unchanged by construction —
                    # so keep the rebuilt plans keyed by operating point.
                    vkey = (fb, fl, cb, cl, ems)
                    variants = entry["variants"]
                    vplan = variants.get(vkey)
                    if vplan is not None:
                        entry["plan"] = vplan
                        entry["epoch"] = board._actuation_epoch
                        return vplan
                    layout = plan.layout
                    key = (id(board.spec), fb, cb, layout[BIG][1],
                           fl, cl, layout[LITTLE][1])
                    cached = self._plan_memo.get(key)
                    if cached is not None and cached[0] is board.spec:
                        _, cplans, bips, works = cached
                        credits = []
                        for name in (BIG, LITTLE):
                            for pairs, work in zip(layout[name][0],
                                                   works[name]):
                                for (thread, app), done in zip(pairs, work):
                                    credits.append((app, thread, done))
                        new_plan = WindowPlan(
                            big=cplans[BIG],
                            little=cplans[LITTLE],
                            credits=credits,
                            bips=bips,
                            apps=plan.apps,
                            emergency_snapshot=ems,
                            works=works,
                            layout=layout,
                        )
                        entry["plan"] = new_plan
                        entry["epoch"] = board._actuation_epoch
                        variants[vkey] = new_plan
                        return new_plan
        plan = plan_window(board, memo=self._plan_memo)
        if plan is None:
            self._replan_cache.pop(index, None)
            return None
        # Thread/app identity may have changed on a full replan: retire
        # every schedule built against the old identity.
        self._board_gen[index] += 1
        self._replan_cache[index] = {
            "plan": plan,
            "epoch": board._actuation_epoch,
            "pepoch": board._placement_epoch,
            "cores": (
                board._effective_cores(BIG),
                board._effective_cores(LITTLE),
            ),
            "variants": {},
        }
        return plan

    def _transient_refusal(self, index):
        """Was this plan refusal caused only by a draining stall?

        Hotplug stalls drain by ``min(stall, dt)`` per tick and migration
        stalls drain inside ``core_execution`` the same way, so a refusal
        caused by either clears within a tick or two — unlike fault hooks
        (installed for a whole faulted region) or an empty runnable set
        (which no amount of stepping resolves until an app event).
        """
        board = self.boards[index]
        if board.fault_hooks is not None:
            return False
        if board.temp_sensor.fault_hook is not None:
            return False
        sensors = board.power_sensors
        if sensors[BIG].fault_hook is not None:
            return False
        if sensors[LITTLE].fault_hook is not None:
            return False
        stalled = (
            board.clusters[BIG].pending_hotplug_stall > 0
            or board.clusters[LITTLE].pending_hotplug_stall > 0
        )
        migrating = False
        runnable = False
        for app in board.applications:
            if app.done:
                continue
            for thread in app.runnable_threads():
                runnable = True
                if thread.migration_stall > 0:
                    migrating = True
                    break
            if migrating:
                break
        return runnable and (stalled or migrating)

    def _peel_tick(self, index):
        """Advance one board exactly one scalar tick (stall drain)."""
        self._replan_cache.pop(index, None)
        board = self.boards[index]
        board.step()
        if self.track_violations:
            spec = board.spec
            if board.thermal.temperature > spec.temp_limit:
                self.temp_violation_time[index] += spec.sim_dt
            if board._instant_power[BIG] > spec.power_limit_big:
                self.power_violation_time[index] += spec.sim_dt
        self.scalar_ticks += 1
        if self.telemetry is not None:
            self.telemetry.bank_scalar_ticks.inc(1)
        return 1

    def _run_tiny(self, index, plan, n_ticks):
        """Advance one board ``<= n_ticks`` ticks under its window plan.

        The per-lane fastpath (:func:`run_window`) performs exactly the
        same float operations as the vector window, tick for tick, so it
        is interchangeable bit-for-bit — and for one or two ticks it skips
        the vector window's fixed per-call gather/scatter cost.  Mirrors
        the vector window's bookkeeping: event counters, replan-cache
        eviction on membership change, and violation clocks.
        """
        board = self.boards[index]
        spec = board.spec
        track = self.track_violations
        ran = 0
        while ran < n_ticks:
            step = run_window(board, plan, 1 if track else n_ticks - ran)
            ran += step
            if track:
                if board.thermal.temperature > spec.temp_limit:
                    self.temp_violation_time[index] += spec.sim_dt
                if board._instant_power[BIG] > spec.power_limit_big:
                    self.power_violation_time[index] += spec.sim_dt
            stop = False
            if _emergency_snapshot(board) != plan.emergency_snapshot:
                self.events["emergency"] += 1
                if self.telemetry is not None:
                    self.telemetry.bank_events.labels(
                        reason="emergency"
                    ).inc()
                stop = True
            if _membership_changed(plan.apps):
                self._replan_cache.pop(index, None)
                self.events["membership"] += 1
                if self.telemetry is not None:
                    self.telemetry.bank_events.labels(
                        reason="membership"
                    ).inc()
                stop = True
            if stop or step == 0:
                break
        self.scalar_ticks += ran
        if self.telemetry is not None and ran:
            self.telemetry.bank_scalar_ticks.inc(ran)
        return ran

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

    def _lane_terms(self, key_boards, indices, plans):
        """Per-lane step-invariant plan terms, clusters stacked on axis 0.

        Cached against the identity of the (memo-owned) cluster plans;
        the cache entry holds references to those plans, so an id() match
        on live objects can only mean the very same plans.
        """
        pb = [plans[i].big for i in indices]
        pl = [plans[i].little for i in indices]
        lane_key = (key_boards, self._plan_gen,
                    tuple(map(id, pb)), tuple(map(id, pl)))
        lanes = self._lane_cache.get(lane_key)
        if lanes is None:
            leak_arr = np.array([[p.leak_base for p in pb],
                                 [p.leak_base for p in pl]])
            lanes = (
                pb, pl,
                np.array([[p.dyn for p in pb], [p.dyn for p in pl]]),
                leak_arr,
                np.array([[p.leak_temp_coeff for p in pb],
                          [p.leak_temp_coeff for p in pl]]),
                np.array([[p.idle for p in pb], [p.idle for p in pl]]),
                np.array([[p.instructions for p in pb],
                          [p.instructions for p in pl]]),
                bool((leak_arr >= 0.0).all()),
            )
            if len(self._lane_cache) > self.lane_cache_limit:
                self._lane_cache.clear()
            self._lane_cache[lane_key] = lanes
        return lanes

    def _credit_schedule_for(self, key_boards, indices, plans):
        """A cached, freshly refreshed credit schedule plus membership guards.

        Keyed by the identity of each board's credit amounts plus its
        membership generation; verified against the live works objects
        (held by the cached schedule) so id() reuse cannot alias.
        """
        works_list = [plans[i].works for i in indices]
        board_gen = self._board_gen
        sched_key = (key_boards, self._plan_gen,
                     tuple((i, id(w), board_gen[i])
                           for i, w in zip(indices, works_list)))
        cached = self._sched_cache.get(sched_key)
        if (
            cached is not None
            and all(a is b for a, b in zip(cached[0].plan_ident, works_list))
        ):
            cached[0].refresh()
            return cached
        schedule = _CreditSchedule(indices, plans)
        schedule.plan_ident = works_list
        guards = [_MembershipGuard(plans[i]) for i in indices]
        if len(self._sched_cache) > 256:
            self._sched_cache.clear()
        self._sched_cache[sched_key] = (schedule, guards)
        return schedule, guards

    def _segment(self, key_boards, indices, plans, ticks, freqs=None):
        """A :class:`_Segment` of ``ticks`` ticks under one set of plans."""
        schedule, guards = self._credit_schedule_for(key_boards, indices,
                                                     plans)
        return _Segment(plans, self._lane_terms(key_boards, indices, plans),
                        schedule, guards, ticks, freqs)

    def _no_trip_bound(self, key_boards, S, terms_list, T):
        """A temperature ceiling proving no lane can trip, or ``None``.

        ``terms_list`` holds the lane terms of every operating point the
        lanes may run under, in any order and mix.  Power is monotone
        nondecreasing in temperature (spec constants and leakage terms
        checked), so iterating ``X <- max(X, target(X))`` over the
        elementwise max of every op's RC target yields an ``X`` with
        ``target_e(X) <= X`` for every op, which by induction bounds the
        temperature trajectory through any op sequence starting at or
        below it.  If ``X`` and every op's power at ``X`` clear the trip
        thresholds (with an absolute margin crushing per-tick rounding),
        the emergency firmware provably stays inert.

        A proven bound is cached per lane set and op set: it stays a
        valid ceiling for any later start at or below it, which skips the
        iteration entirely.  The key uses id() of the lane terms, so the
        cache entry keeps the terms alive — once the lane cache drops
        them, their ids cannot be recycled into a key that finds this
        (then stale) bound.
        """
        if not self._const["monotone"] or not all(t[7] for t in terms_list):
            return None
        key = (key_boards, self._plan_gen, tuple(map(id, terms_list)))
        cached = self._ub_cache.get(key)
        if cached is not None and bool((T <= cached[0]).all()):
            return cached[0]
        ambient = S["ambient"]
        resistance = S["resistance"]
        lweight = S["lweight"]

        def powers(X):
            out = []
            for _, _, dyn_m, leak_m, ltc_m, idle_m, _, _ in terms_list:
                factor = 1.0 + ltc_m * (X - _REFERENCE_TEMP)
                out.append(dyn_m + leak_m * np.maximum(factor, 0.2) + idle_m)
            return out

        def target(p_list):
            out = None
            for p_m in p_list:
                t_e = ambient + resistance * (p_m[0] + lweight * p_m[1])
                out = t_e if out is None else np.maximum(out, t_e)
            return out

        X = T
        for _ in range(6):
            p_list = powers(X)
            t_max = target(p_list)
            if (t_max <= X).all():
                break
            X = np.maximum(X, t_max)
        else:
            # X was raised on the last pass, so re-verify there first.  If
            # float arithmetic still hasn't closed (the gap contracts
            # geometrically but float equality can take a dozen passes),
            # any X with target(X) <= X bounds the trajectory by the same
            # induction: pad past the fixed point and verify once.
            p_list = powers(X)
            t_max = target(p_list)
            if not (t_max <= X).all():
                gap = float((t_max - X).max())
                if not gap < 1e-3:
                    return None  # no contraction
                X = X + 2.0 * gap + 1e-9
                p_list = powers(X)
                if not (target(p_list) <= X).all():
                    return None
        if not (
            (X < S["temp_trip"] - 1e-9).all()
            and all((p_m < S["thresh"] - 1e-9).all()
                    and (p_m < S["limit"] - 1e-9).all() for p_m in p_list)
        ):
            return None
        if len(self._ub_cache) > 256:
            self._ub_cache.clear()
        self._ub_cache[key] = (X, terms_list)
        return X

    # ------------------------------------------------------------------
    # Fused multi-period kernel
    # ------------------------------------------------------------------
    def run_schedule_bank(self, freqs_big, freqs_little, only=None,
                          block_periods=32):
        """Advance every selected board through a shared DVFS schedule.

        ``freqs_big``/``freqs_little`` are per-period frequency commands
        (GHz): period ``p`` issues ``set_cluster_frequency`` with both
        values on every selected board, then advances one control period
        — exactly the campaign loop callers write by hand around
        :meth:`run_period_bank`, with bit-identical resulting board state.

        The win is *fusion*: the kernel precompiles up to ``block_periods``
        upcoming periods at a time — actuation commands validated and
        snapped once per distinct ``(big, little)`` pair, window plans
        resolved per distinct operating point, per-core credit vectors and
        the no-trip emergency bound proven for the whole block — and then
        advances all lanes the whole block in one resident pass: board
        state is gathered into the lane matrix once per block instead of
        once per period, and no Python-level driver code runs between
        periods.  Whenever a block cannot be proven quiet (a throttled
        lane, a draining stall, an application within its phase-budget
        horizon, a fault hook, mixed board specs, a non-finite command),
        the kernel falls back to the per-period path for one period and
        retries fusing from the next — per-lane re-plans, never full-bank
        bailout.

        Returns the per-board executed tick counts, like
        :meth:`run_period_bank`.
        """
        fb_list = list(freqs_big)
        fl_list = list(freqs_little)
        if len(fb_list) != len(fl_list):
            raise ValueError(
                f"schedule length mismatch: {len(fb_list)} big vs "
                f"{len(fl_list)} little entries"
            )
        P = len(fb_list)
        executed = [0] * len(self.boards)
        if only is None:
            selected = list(range(len(self.boards)))
        else:
            selected = list(only)
        selected = [i for i in selected if not self.boards[i].done]
        if not selected or P == 0:
            return executed
        steps = {self.boards[i].spec.period_steps() for i in selected}
        if len(steps) != 1:
            raise ValueError(
                f"lockstep schedule requires one shared period length, "
                f"got {sorted(steps)}"
            )
        period_steps = steps.pop()
        p = 0
        while p < P and selected:
            fused = 0
            if block_periods > 0:
                fused = self._run_fused_schedule(
                    selected, fb_list, fl_list, p,
                    min(block_periods, P - p), period_steps, executed,
                )
            if fused == 0:
                # Exact per-period fallback: real actuation calls, then
                # the (churn-tolerant) per-period vector path.
                for i in selected:
                    board = self.boards[i]
                    board.set_cluster_frequency(BIG, fb_list[p])
                    board.set_cluster_frequency(LITTLE, fl_list[p])
                ran = self.run_period_bank(period_steps, only=selected)
                for i in selected:
                    executed[i] += ran[i]
                p += 1
            else:
                p += fused
            selected = [i for i in selected if not self.boards[i].done]
        return executed

    def _resolve_entry(self, spec, raw_big, raw_little):
        """Replicate ``_validate_command`` + DVFS snap for one schedule
        entry; returns ``(fb, fl, rejected_big, rejected_little)`` or
        ``None`` for a non-finite command (which the exact path must
        handle: the previous frequency survives, making the effective
        schedule state-dependent)."""
        key = (id(spec), raw_big, raw_little)
        cached = self._snap_cache.get(key)
        if cached is not None and cached[0] is spec:
            return cached[1]
        out = []
        rej = []
        for name, raw in ((BIG, raw_big), (LITTLE, raw_little)):
            rng = spec.cluster(name).freq_range
            try:
                value = float(raw)
                finite = bool(np.isfinite(value))
            except (TypeError, ValueError):
                finite = False
            if not finite:
                return None  # not cacheable: NaN keys never match
            if value < rng.low - 1e-9 or value > rng.high + 1e-9:
                rej.append(1)
                value = float(min(max(value, rng.low), rng.high))
            else:
                rej.append(0)
            out.append(rng.snap(value))
        entry = (out[0], out[1], rej[0], rej[1])
        if len(self._snap_cache) > 1024:
            self._snap_cache.clear()
        self._snap_cache[key] = (spec, entry)
        return entry

    def _set_frequency_raw(self, board, fb, fl):
        """Write already-snapped frequencies with epoch semantics."""
        for name, f in ((BIG, fb), (LITTLE, fl)):
            runtime = board.clusters[name]
            if f != runtime.frequency:
                board._actuation_epoch += 1
                runtime.frequency = f

    def _run_fused_schedule(self, indices, fb_list, fl_list, p, K,
                            period_steps, executed):
        """Fuse up to ``K`` periods of the schedule starting at ``p``.

        Returns the number of periods actually fused (0 = the caller must
        fall back to the exact per-period path for period ``p``).  Only
        mutates board state when it returns nonzero — except the
        actuation/placement epochs and plan caches, which are
        cache-bookkeeping and may tick conservatively during probing.
        """
        boards = self.boards
        spec0 = boards[indices[0]].spec
        for i in indices:
            board = boards[i]
            if (
                board.spec is not spec0
                or i in self._tick_hooks
                or not board.enable_fast_path
                or board.fault_hooks is not None
            ):
                return 0
        key_boards = tuple(indices)
        S = self._slices(key_boards, [boards[i] for i in indices])
        if _any_throttled(S["em"]):
            return 0

        # --- resolve + dedup the block's schedule entries ---------------
        entries = []
        for q in range(p, p + K):
            ent = self._resolve_entry(spec0, fb_list[q], fl_list[q])
            if ent is None:
                break  # non-finite command: exact path owns carry-forward
            entries.append(ent)
        if not entries:
            return 0
        op_index = {}
        ops = []
        op_of = []
        for fb, fl, _, _ in entries:
            okey = (fb, fl)
            if okey not in op_index:
                op_index[okey] = len(ops)
                ops.append(okey)
            op_of.append(op_index[okey])

        f_initial = [
            (boards[i].clusters[BIG].frequency,
             boards[i].clusters[LITTLE].frequency)
            for i in indices
        ]
        segments = self._probe_block(indices, key_boards, S, ops, op_of,
                                     period_steps)
        if not segments:
            for i, (fb, fl) in zip(indices, f_initial):
                self._set_frequency_raw(boards[i], fb, fl)
            return 0

        # --- commit: leave each board at the last fused period's op -----
        k_fused = len(segments)
        fb_last, fl_last = segments[-1].freqs
        for i in indices:
            self._set_frequency_raw(boards[i], fb_last, fl_last)
        # Rejected-command bookkeeping, exactly one increment per clamped
        # command per board per period (integer adds commute with the
        # stepping, so batching them is exact).
        rej_b = sum(entries[q][2] for q in range(k_fused))
        rej_l = sum(entries[q][3] for q in range(k_fused))
        if rej_b or rej_l:
            for i in indices:
                board = boards[i]
                board.rejected_actuations["frequency"] += rej_b + rej_l
                if board.telemetry is not None:
                    board.telemetry.rejected.labels(kind="frequency").inc(
                        rej_b + rej_l
                    )

        ticks = self._run_vector_window(indices, segments, quiet=True)
        self.fused_blocks += 1
        self.fused_ticks += ticks * len(indices)
        for i in indices:
            executed[i] += ticks
        return k_fused

    def _probe_block(self, indices, key_boards, S, ops, op_of, period_steps):
        """Plan a block at every operating point and prove it quiet.

        Returns the block's per-period segments, cut to the credit
        horizon, or ``[]`` when any lane refuses a plan or the block
        cannot be proven emergency-quiet.  Planning needs each board *at*
        the operating point, so probing writes the snapped frequencies
        (epoch semantics preserved); the caller restores or commits them.
        Plans come from the tier caches — after the first block a steady
        schedule costs one dict hit per lane per distinct op.
        """
        boards = self.boards
        plans_by_op = []
        for fb, fl in ops:
            plans = {}
            for i in indices:
                self._set_frequency_raw(boards[i], fb, fl)
                plan = self._plan_for(i)
                if plan is None:
                    return []  # stall draining / membership refusal
                plans[i] = plan
            plans_by_op.append(plans)
        # Segments only after every op is planned: a full re-plan bumps the
        # board's generation, which keys the credit-schedule cache.
        by_op = [self._segment(key_boards, indices, plans, period_steps, op)
                 for plans, op in zip(plans_by_op, ops)]

        # One credit schedule per op; the cell lists are structurally
        # identical (same threads, same placement — only the per-tick
        # amounts differ with frequency), so they share one live value
        # array and the most conservative horizon bounds the whole block.
        total = len(op_of) * period_steps
        base = by_op[0].schedule
        safe = base.safe_ticks(total)
        for seg in by_op[1:]:
            sched = seg.schedule
            if len(sched.cells) != len(base.cells) or any(
                a is not b
                for (_, a), (_, b) in zip(sched.cells, base.cells)
            ):
                return []  # structure diverged: stay exact per period
            safe = min(safe, sched.safe_ticks(total))
            sched.vals = base.vals
        k_fused = min(len(op_of), safe // period_steps)
        if k_fused == 0:
            return []
        T0 = np.array([t.temperature for t in S["thermals"]])
        if self._no_trip_bound(key_boards, S, [seg.terms for seg in by_op],
                               T0) is None:
            return []
        return [by_op[e] for e in op_of[:k_fused]]

    # ------------------------------------------------------------------
    # The lane×tick kernel
    # ------------------------------------------------------------------
    def _run_vector_window(self, indices, segments, quiet=None):
        """Advance every lane through ``segments`` in vectorized lockstep.

        Each :class:`_Segment` is a stretch of ticks under fixed plans.
        The per-period path passes one; the fused path passes one per
        period of a block it has already proven emergency-quiet
        (``quiet=True``) and inside the credit horizon, with every
        segment's schedule sharing one live cell array.  Board state is
        gathered into the lane matrix once, stepped tick by tick with the
        plan-constant matrices rebound per segment, and written back once;
        traces are flushed once per segment.  ``quiet=None`` proves (or
        fails to prove) the no-trip bound here.

        Returns the number of ticks executed (shared across lanes: the
        window ends for everyone at the first board event, after the
        offending tick — exactly where scalar stepping would re-plan).
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
        noise_rms = S["noise_rms"]

        # --- mutable board state, copied into lanes ---------------------
        # One array build for all the float lanes.  Rows 6..12 (retired
        # instructions, sensor-elapsed, time, under-limit clocks) advance
        # by a per-segment constant each tick, laid out contiguously so
        # the tick loop bumps them with a single fused in-place add; those
        # stay views of ``g`` for the whole window.  The rest may rebind.
        sens_b = S["sens_b"]
        sens_l = S["sens_l"]
        thermals = S["thermals"]
        em = S["em"]
        g = np.array([
            [t.temperature for t in thermals],
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
        ])
        T = g[0]
        energy = g[1]
        acc_m = g[2:4]
        latch_m = g[4:6]
        itotal_m = g[6:8]
        elap_m = g[8:10]
        time_arr = g[10]
        under_m = g[11:13]
        inc = np.empty((7, B))
        inc[2:4] = sdt_m
        inc[4:7] = dt

        # A proven no-trip bound collapses the per-tick firmware machine
        # to the under-limit clocks (already rows of ``g``), so the quiet
        # path skips gathering (and later writing back) the rest of it.
        if quiet is None:
            quiet = not _any_throttled(em) and self._no_trip_bound(
                key_boards, S, [seg.terms for seg in segments], T
            ) is not None
        if not quiet:
            th = np.array(
                [e.state.thermal_throttled for e in em], dtype=bool
            )
            pth_m = np.array(
                [[e.state.power_throttled[BIG] for e in em],
                 [e.state.power_throttled[LITTLE] for e in em]], dtype=bool
            )
            trip_count = np.array(
                [e.state.trip_count for e in em], dtype=np.int64
            )
            throttle_time = np.array([e.state.throttle_time for e in em])
            over_m = np.array(
                [[e._over_power_time[BIG] for e in em],
                 [e._over_power_time[LITTLE] for e in em]]
            )
            hold_m = np.array(
                [[e._hold_time[BIG] for e in em],
                 [e._hold_time[LITTLE] for e in em]]
            )
            trip_delay = S["trip_delay"]
            clear_delay = S["clear_delay"]
            min_hold = S["min_hold"]
            has_trip_cb = any(e.on_trip is not None for e in em)

        # --- per-board RNG noise blocks ---------------------------------
        max_ticks = sum(seg.ticks for seg in segments)
        noise = np.zeros((B, max_ticks))
        rng_states = [None] * B
        for k, board in enumerate(boards):
            if noise_rms[k] > 0:
                rng = board.temp_sensor._rng
                rng_states[k] = rng.bit_generator.state
                noise[k] = rng.normal(scale=noise_rms[k], size=max_ticks)

        track = self.track_violations
        temp_limit = S["temp_limit"] if track else None
        tv = self.temp_violation_time
        pv = self.power_violation_time
        any_record = any(b.trace is not None for b in boards)
        if any_record:
            pcap_m = S["pcap"]
            no_emergency = np.zeros(B, dtype=bool)

        ticks = 0
        emergency_changed = None
        any_active = None  # stays None on the proven-quiet path
        stop = False
        for seg in segments:
            _, _, dyn_m, leak_m, ltc_m, idle_m, instr_m, _ = seg.terms
            inc[0:2] = instr_m
            schedule = seg.schedule
            n_vec = schedule.safe_ticks(seg.ticks)
            credits = None
            if any_record:
                hist = {name: [] for name in (
                    "power", "temperature", "time",
                    "freq_big", "freq_little", "emergency",
                )}
                if seg.freqs is None:
                    freq_b = np.array([b.clusters[BIG].frequency
                                       for b in boards])
                    freq_l = np.array([b.clusters[LITTLE].frequency
                                       for b in boards])
                else:
                    freq_b = np.full(B, seg.freqs[0])
                    freq_l = np.full(B, seg.freqs[1])
            t = 0
            while t < seg.ticks:
                # Exact replay of cluster_power().total per lane: dynamic
                # and idle are segment constants, leakage tracks the hot
                # spot.  (Unpowered clusters have all-zero plan terms, so
                # the same expression reproduces their exact 0.0 W.)
                factor = 1.0 + ltc_m * (T - _REFERENCE_TEMP)
                p_m = dyn_m + leak_m * np.maximum(factor, 0.2) + idle_m
                p_b = p_m[0]
                p_l = p_m[1]
                # Application crediting (scalar stepping credits with the
                # tick-start time plus dt; the vectorized schedule replays
                # the same subtractions/additions while its horizon holds).
                if t < n_vec:
                    schedule.tick()
                else:
                    if credits is None:
                        schedule.scatter()
                        credits = [seg.plans[i].credits for i in indices]
                    now = time_arr + dt
                    for k in range(B):
                        t_now = float(now[k])
                        for app, thread, done in credits[k]:
                            app.execute(thread, done, t_now)
                # Thermal RC fixed point, energy, sensors, counters.
                target = ambient + resistance * (p_b + lweight * p_l)
                T = T + alpha * (target - T)
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
                    latch_m = np.where(latching, acc_m / elap_m, latch_m)
                    acc_m[latching] = 0.0
                    elap_m[latching] = 0.0
                # Emergency firmware state machine (quiet: provably inert).
                if not quiet:
                    trip_th = (~th) & (T >= temp_trip)
                    clear_th = th & (T <= temp_clear)
                    new_th = (th | trip_th) & ~clear_th
                    is_over = p_m > thresh_m
                    over_m = np.where(is_over, over_m + dt, 0.0)
                    under_m = np.where(
                        is_over, 0.0,
                        np.where(p_m <= limit_m, under_m + dt, under_m),
                    )
                    hold_m = np.where(pth_m, hold_m + dt, hold_m)
                    trip_p = (~pth_m) & (over_m >= trip_delay)
                    clear_p = (
                        pth_m & (hold_m >= min_hold)
                        & (under_m >= clear_delay)
                    )
                    hold_m = np.where(trip_p, 0.0, hold_m)
                    new_pth = (pth_m | trip_p) & ~clear_p
                    trip_count += trip_th
                    trip_count += trip_p[0]
                    trip_count += trip_p[1]
                    if has_trip_cb and (trip_th.any() or trip_p.any()):
                        fired = trip_th | trip_p[0] | trip_p[1]
                        for k in np.nonzero(fired)[0]:
                            if em[k].on_trip is not None:
                                boards[k].time = float(time_arr[k])
                                if trip_th[k]:
                                    em[k].on_trip("thermal")
                                if trip_p[0][k]:
                                    em[k].on_trip(f"power-{BIG}")
                                if trip_p[1][k]:
                                    em[k].on_trip(f"power-{LITTLE}")
                    emergency_changed = (
                        (new_th != th) | (new_pth[0] != pth_m[0])
                        | (new_pth[1] != pth_m[1])
                    )
                    th = new_th
                    pth_m = new_pth
                    any_active = th | pth_m[0] | pth_m[1]
                    if any_active.any():
                        throttle_time = np.where(
                            any_active, throttle_time + dt, throttle_time
                        )
                    time_arr = time_arr + dt
                t += 1
                if track:
                    hot = T > temp_limit
                    if hot.any():
                        tv[ix[hot]] += dt
                    loud = p_b > limit_m[0]
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
                    hist["temperature"].append(T)
                    # On the quiet path time_arr is a live view of g.
                    hist["time"].append(
                        time_arr.copy() if quiet else time_arr
                    )
                # Window-ending events: the offending tick is complete
                # (exactly like scalar stepping), everyone re-plans here.
                if not quiet and emergency_changed.any():
                    count = int(emergency_changed.sum())
                    self.events["emergency"] += count
                    if self.telemetry is not None:
                        self.telemetry.bank_events.labels(
                            reason="emergency"
                        ).inc(count)
                    stop = True
                if t > n_vec:
                    # Membership can only change once python crediting
                    # runs: the schedule's horizon proves no budget hits
                    # its clamp or advance threshold before then.  Check
                    # every guard (not just the first) so each affected
                    # board's cached plan is retired.
                    for g_k, guard in enumerate(seg.guards):
                        if guard.changed():
                            self._replan_cache.pop(indices[g_k], None)
                            self.events["membership"] += 1
                            if self.telemetry is not None:
                                self.telemetry.bank_events.labels(
                                    reason="membership"
                                ).inc()
                            stop = True
                if stop:
                    break
            ticks += t
            if any_record:
                for k, board in enumerate(boards):
                    if board.trace is not None:
                        self._extend_trace(board, k, hist, t,
                                           seg.plans[indices[k]])
            if stop:
                break

        # Segments share one cell array (one schedule when there is only
        # one segment), so the last one writes every cell back.
        schedule.scatter()
        # The last sensed temperature: final true temperature plus the
        # final tick's noise draw (T is not rebound after its update, so
        # computing this once here matches the per-tick value exactly).
        last_temp = T + noise[:, ticks - 1]

        # --- write the lanes back into the Python board objects ---------
        T_out = T.tolist()
        energy_out = energy.tolist()
        time_out = time_arr.tolist()
        acc_out = acc_m.tolist()
        elap_out = elap_m.tolist()
        latch_out = latch_m.tolist()
        itotal_out = itotal_m.tolist()
        last_out = last_temp.tolist()
        under_out = under_m.tolist()
        if not quiet:
            th_out = th.tolist()
            pth_out = pth_m.tolist()
            tc_out = trip_count.tolist()
            tt_out = throttle_time.tolist()
            over_out = over_m.tolist()
            hold_out = hold_m.tolist()
        pb_out = p_m[0].tolist()
        pl_out = p_m[1].tolist()
        for k, board in enumerate(boards):
            thermals[k].temperature = T_out[k]
            board.energy = energy_out[k]
            board.time = time_out[k]
            sensor = sens_b[k]
            sensor._accumulated = acc_out[0][k]
            sensor._elapsed = elap_out[0][k]
            sensor._latched = latch_out[0][k]
            sensor = sens_l[k]
            sensor._accumulated = acc_out[1][k]
            sensor._elapsed = elap_out[1][k]
            sensor._latched = latch_out[1][k]
            S["pc_b"][k].total_giga = itotal_out[0][k]
            S["pc_l"][k].total_giga = itotal_out[1][k]
            board.temp_sensor._last = last_out[k]
            if rng_states[k] is not None and ticks < max_ticks:
                # Rewind the generator and consume exactly the draws the
                # scalar path would have (batched == sequential draws).
                rng = board.temp_sensor._rng
                rng.bit_generator.state = rng_states[k]
                rng.normal(scale=noise_rms[k], size=ticks)
            e = em[k]
            e._under_power_time[BIG] = under_out[0][k]
            e._under_power_time[LITTLE] = under_out[1][k]
            if quiet:
                # Scalar stepping zeroes the over-threshold timers on
                # every under-threshold tick, and every quiet tick is
                # under threshold; throttle flags, trip counts, and hold
                # clocks provably did not move.
                e._over_power_time[BIG] = 0.0
                e._over_power_time[LITTLE] = 0.0
            else:
                state = e.state
                state.thermal_throttled = th_out[k]
                state.power_throttled[BIG] = pth_out[0][k]
                state.power_throttled[LITTLE] = pth_out[1][k]
                state.trip_count = tc_out[k]
                state.throttle_time = tt_out[k]
                e._over_power_time[BIG] = over_out[0][k]
                e._over_power_time[LITTLE] = over_out[1][k]
                e._hold_time[BIG] = hold_out[0][k]
                e._hold_time[LITTLE] = hold_out[1][k]
            board._instant_power = {BIG: pb_out[k], LITTLE: pl_out[k]}
            board._instant_bips = seg.plans[indices[k]].bips
        self.windows += 1
        self.vector_ticks += ticks * B
        if self.telemetry is not None:
            self.telemetry.bank_windows.inc()
            self.telemetry.bank_board_ticks.inc(ticks * B)
        return ticks

    @staticmethod
    def _extend_trace(board, lane, hist, ticks, plan):
        """Append this window's per-tick history to one board's trace."""
        trace = board.trace
        trace.times.extend(float(row[lane]) for row in hist["time"])
        trace.power_big.extend(float(row[0][lane]) for row in hist["power"])
        trace.power_little.extend(
            float(row[1][lane]) for row in hist["power"]
        )
        trace.temperature.extend(
            float(row[lane]) for row in hist["temperature"]
        )
        bips_big = plan.bips[BIG]
        bips_little = plan.bips[LITTLE]
        trace.bips_big.extend([bips_big] * ticks)
        trace.bips_little.extend([bips_little] * ticks)
        trace.bips_total.extend([bips_big + bips_little] * ticks)
        trace.freq_big.extend(float(row[lane]) for row in hist["freq_big"])
        trace.freq_little.extend(
            float(row[lane]) for row in hist["freq_little"]
        )
        trace.cores_big.extend([board.clusters[BIG].cores_on] * ticks)
        trace.cores_little.extend([board.clusters[LITTLE].cores_on] * ticks)
        trace.emergency.extend(bool(row[lane]) for row in hist["emergency"])
