"""Vectorized control-period stepping (the board simulation fast path).

:meth:`~repro.board.Board.run_period` advances a whole control period at
once.  Almost everything :meth:`Board.step` computes is invariant across
the ticks of one period — the placement membership, the per-core execution
rates, the DRAM-contention factor, and the dynamic/idle power terms only
change when a controller actuates, a fault fires, the emergency firmware
trips, or an application changes phase, none of which happen mid-period in
the common case.  The fast path therefore *plans* the period once (hoisting
all of that out of the tick loop, including the numpy reductions in
``core_execution``/``cluster_power``) and then advances only the genuinely
sequential state per tick: the thermal/leakage fixed point, the windowed
power sensors, the RNG noise draw, the emergency-firmware timers, and the
instruction crediting.

Exactness contract
------------------
``run_window`` performs, per tick, the *same floating-point operations in
the same order* as ``Board.step`` would, so the resulting board state —
time, energy, temperatures, sensor windows, RNG stream, traces, application
progress — is bit-identical to scalar stepping.

* A tick that drains a hotplug or thread-migration stall gets a one-tick
  plan (``WindowPlan.stall_tick``): the planner applies the drains scalar
  stepping applies at the top of that tick (``pending_hotplug_stall`` per
  cluster, ``migration_stall`` inside ``core_execution``) and computes its
  rates with the same arithmetic.  Such a plan is never memoized, and
  ``run_window`` runs it for exactly one tick.  Nothing that tick changes
  feeds the ordinary plan after it, so when no stall remains the planner
  builds that plan in the same call (``WindowPlan.then``) and
  ``run_window`` carries on under it.
* Whenever exactness cannot be guaranteed — a fault-injection hook is
  installed (sensor or actuator), or nothing is runnable — the planner
  refuses (returns ``None``) and the caller falls back to scalar ``step()``.
* Mid-window, the moment an application changes phase / finishes a thread
  or the emergency firmware changes state, the window ends and the next
  tick is re-planned (the tick that *caused* the change is still exact:
  scalar stepping reads rates at the top of the tick too).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cores import _sum_small, core_execution
from .power import _REFERENCE_TEMP
from .specs import BIG, LITTLE

__all__ = ["plan_window", "run_window", "WindowPlan"]


@dataclass
class _ClusterPlan:
    """Step-invariant per-cluster terms of one planned window."""

    dyn: float  # dynamic power (W), constant while rates hold
    leak_base: float  # cores_on * leak_coeff * voltage (W per temp factor)
    leak_temp_coeff: float
    idle: float  # idle power (W)
    instructions: float  # giga-instructions retired per tick
    powered: bool  # False replicates the cores_on<=0 / freq<=0 guard


@dataclass
class WindowPlan:
    """Everything ``run_window`` needs to replay ticks without re-planning."""

    big: _ClusterPlan
    little: _ClusterPlan
    credits: list  # [(app, thread, giga_instructions_per_tick), ...] in order
    bips: dict  # the constant _instant_bips payload
    apps: list  # [(app, runnable-thread snapshot), ...] membership guard
    emergency_snapshot: tuple  # (thermal, power big, power little) throttles
    # True for a one-tick plan whose arithmetic already drained a stall;
    # then: the plan for the ticks after it, built with it (None while a
    # stall remains after this tick).
    stall_tick: bool = False
    then: object = None
    # Plan-reuse metadata (consumed by BoardBank._plan_for):
    # works: the memo-cached per-cluster credit amounts this plan's credits
    # were built from; layout: {cluster: (per-core [(thread, app)], sig)};
    # cells: the bank's credit-cell layout of ``credits``, built on first use.
    works: dict = None
    layout: dict = None
    cells: object = None


def _emergency_snapshot(board):
    state = board.emergency.state
    return (
        state.thermal_throttled,
        state.power_throttled[BIG],
        state.power_throttled[LITTLE],
    )


def plan_window(board, memo=None):
    """Plan a fast window from the board's current state (or ``None``).

    Mirrors the top half of :meth:`Board.step` exactly — including the
    one side effect scalar stepping performs there, the placement-membership
    refresh — and captures every step-invariant quantity.

    ``memo`` (an ordinary dict owned by the caller, e.g. a
    :class:`~repro.board.bank.BoardBank`) caches the plan *arithmetic* —
    the per-cluster power constants, retired-instruction rates, and
    per-thread credit amounts — keyed by the values it depends on: the
    spec object, each cluster's effective frequency and core count, and
    the (cpi_scale, mpki, activity) characteristics of every placed
    thread's current phase, in placement order.  Boards at the same
    operating point (across lanes of a bank *and* across control periods)
    then skip ``core_execution`` / bandwidth modelling entirely; only the
    board-specific credit list, membership snapshot, and emergency
    snapshot are rebuilt.  Cache hits are exact by construction: the
    cached numbers are pure functions of the key.

    When a hotplug stall is pending, or a thread on a computed core has a
    migration stall, the plan is a one-tick stall plan: planning drains
    the stalls exactly as the top of ``Board.step`` would, so the plan
    must be run, for one tick, right away.  If no stall remains after
    that tick, the plan's ``then`` is the ordinary plan for the ticks
    after it.
    """
    # Any installed fault hook means per-tick fault semantics may apply;
    # stay on the scalar path for the whole faulted region.
    if board.fault_hooks is not None:
        return None
    if board.temp_sensor.fault_hook is not None:
        return None
    if any(s.fault_hook is not None for s in board.power_sensors.values()):
        return None
    board._refresh_placement_membership()
    phase_of = {}
    apps = []
    for app in board.applications:
        if app.done:
            continue
        runnable = app.runnable_threads()
        apps.append((app, runnable))
        for thread in runnable:
            phase_of[thread] = (app, app.current_phase)
    if not phase_of:
        return None
    spec = board.spec
    # Collect the live (thread, phase) placement per computed core — the
    # basis of both the memo key and (on a miss) the plan arithmetic.
    # Cores at index >= cores_active contribute exactly 0.0 activity and
    # no credits, so only the computed prefix matters.
    layout = {}
    for name in (BIG, LITTLE):
        cspec = spec.cluster(name)
        freq = board._effective_frequency(name)
        cores_active = board._effective_cores(name)
        assignment = board.placement.assignment[name]
        per_core = []
        sig = []
        for idx in range(min(cores_active, cspec.n_cores)):
            core_threads = [
                (t, phase_of[t][1]) for t in assignment[idx] if t in phase_of
            ]
            per_core.append(core_threads)
            sig.append(tuple(
                (p.cpi_scale, p.mpki, p.activity) for _, p in core_threads
            ))
        layout[name] = (freq, cores_active, per_core, tuple(sig))
    if not _stall_pending(board, layout):
        return _build(board, layout, phase_of, apps, memo)
    # A stall tick's arithmetic holds for this tick only: never memoized.
    plan = _build(board, layout, phase_of, apps, None, stall_tick=True)
    if not _stall_pending(board, layout):
        # The stall tick changes nothing the ordinary plan reads, so the
        # plan for the ticks after it can be built now.
        plan.then = _build(board, layout, phase_of, apps, memo)
    return plan


def _stall_pending(board, layout):
    """Does the next tick drain a hotplug or a computed thread's migration?"""
    runtimes = board.clusters
    if (runtimes[BIG].pending_hotplug_stall > 0
            or runtimes[LITTLE].pending_hotplug_stall > 0):
        return True
    for name in (BIG, LITTLE):
        for core in layout[name][2]:
            for thread, _ in core:
                if thread.migration_stall > 0:
                    return True
    return False


def _build(board, layout, phase_of, apps, memo, stall_tick=False):
    """The plan arithmetic of :func:`plan_window` for one placement layout.

    ``stall_tick`` applies the stall drains ``Board.step`` applies at the
    top of a tick and plans that one tick (``memo`` must be ``None``).
    """
    spec = board.spec
    dt = spec.sim_dt
    cached = None
    key = None
    if memo is not None:
        fb, cb, _, sb = layout[BIG]
        fl, cl, _, sl = layout[LITTLE]
        key = (id(spec), fb, cb, sb, fl, cl, sl)
        cached = memo.get(key)
        if cached is not None and cached[0] is not spec:
            cached = None  # id() reuse after GC; never serve a stale spec
    if cached is not None:
        _, plans, bips, works = cached
        credits = []
        for name in (BIG, LITTLE):
            per_core = layout[name][2]
            for core_threads, work in zip(per_core, works[name]):
                for (thread, _), done in zip(core_threads, work):
                    credits.append((phase_of[thread][0], thread, done))
    else:
        # The joint key above misses whenever *any* knob moved, but each
        # quantity below depends on only a slice of it, so sub-memo the
        # slices: the DRAM-contention factor is a pure function of the
        # placed phase characteristics, and each cluster's plan/credit
        # arithmetic is a pure function of that cluster's operating point
        # plus the shared contention factor.  Exact for the same reason
        # the joint memo is: cached numbers are pure functions of the key.
        bw_scale = None
        if memo is not None:
            bw_key = ("bw", id(spec), sb, sl)
            bw_cached = memo.get(bw_key)
            if bw_cached is not None and bw_cached[0] is spec:
                bw_scale = bw_cached[1]
        if bw_scale is None:
            bw_scale = board._bandwidth_scale(phase_of)
            if memo is not None:
                memo[bw_key] = (spec, bw_scale)
        plans = {}
        credits = []
        bips = {}
        works = {}
        for name in (BIG, LITTLE):
            cspec = spec.cluster(name)
            freq, cores_active, per_core, sig = layout[name]
            centry = None
            if memo is not None:
                ckey = ("cluster", id(spec), name, freq, cores_active,
                        sig, bw_scale)
                centry = memo.get(ckey)
                if centry is not None and centry[0] is not spec:
                    centry = None
            if centry is not None:
                _, plans[name], cluster_works, bips[name] = centry
                works[name] = cluster_works
                for core_threads, work in zip(per_core, cluster_works):
                    for (thread, _), done in zip(core_threads, work):
                        credits.append((phase_of[thread][0], thread, done))
                continue
            tick_dt = dt
            if stall_tick:
                # Board.step drains min(stall, dt) of the hotplug stall at
                # the top of the tick; core_execution drains migrations.
                runtime = board.clusters[name]
                drained = min(runtime.pending_hotplug_stall, dt)
                runtime.pending_hotplug_stall -= drained
                tick_dt = dt - drained
            busy_activity = []
            instructions = 0.0
            cluster_works = []
            for core_threads in per_core:
                work, busy, activity = core_execution(
                    cspec, freq, core_threads, tick_dt,
                    spec.mem_latency_ns, bw_scale,
                )
                cluster_works.append(tuple(work))
                for (thread, _), done in zip(core_threads, work):
                    credits.append((phase_of[thread][0], thread, done))
                    instructions += done
                busy_activity.append(busy * activity)
            works[name] = cluster_works
            if cores_active <= 0 or freq <= 0:
                plans[name] = _ClusterPlan(
                    0.0, 0.0, 0.0, 0.0, instructions, False
                )
            else:
                voltage = cspec.voltage(freq)
                activity_sum = (
                    _sum_small(busy_activity[:cores_active])
                    if len(busy_activity) else 0.0
                )
                plans[name] = _ClusterPlan(
                    dyn=float(
                        cspec.ceff_dynamic * voltage**2 * freq * activity_sum
                    ),
                    leak_base=cores_active * cspec.leak_coeff * voltage,
                    leak_temp_coeff=cspec.leak_temp_coeff,
                    idle=float(cores_active * cspec.idle_power),
                    instructions=instructions,
                    powered=True,
                )
            bips[name] = instructions / dt
            if memo is not None:
                memo[ckey] = (spec, plans[name], cluster_works, bips[name])
        if memo is not None:
            memo[key] = (spec, plans, bips, works)
    return WindowPlan(
        big=plans[BIG],
        little=plans[LITTLE],
        credits=credits,
        bips=bips,
        apps=apps,
        emergency_snapshot=_emergency_snapshot(board),
        stall_tick=stall_tick,
        works=works if memo is not None else None,
        layout={
            name: (
                [[(t, phase_of[t][0]) for t, _ in core]
                 for core in layout[name][2]],
                layout[name][3],
            )
            for name in (BIG, LITTLE)
        } if memo is not None else None,
    )


def _membership_changed(apps):
    """Did any application's runnable-thread set change since planning?"""
    for app, snapshot in apps:
        if app.done:
            return True
        runnable = app.runnable_threads()
        if len(runnable) != len(snapshot):
            return True
        for now, then in zip(runnable, snapshot):
            if now is not then:
                return True
    return False


def run_window(board, plan, max_steps):
    """Advance up to ``max_steps`` ticks under ``plan``; returns ticks run.

    Stops early (after completing the offending tick, exactly like scalar
    stepping would) when an application event or an emergency-firmware
    state change invalidates the plan.  A stall plan runs one tick, then
    its ``then`` plan (or stops, if it has none).
    """
    spec = board.spec
    dt = spec.sim_dt
    static_power = spec.board_static_power
    thermal = board.thermal
    emergency = board.emergency
    temp_sensor = board.temp_sensor
    sensor_big = board.power_sensors[BIG]
    sensor_little = board.power_sensors[LITTLE]
    counter_big = board.perf_counters[BIG]
    counter_little = board.perf_counters[LITTLE]
    pb, pl = plan.big, plan.little
    credits = plan.credits
    snapshot = plan.emergency_snapshot
    # Hoisted is-None checks: whether the board records a trace is fixed
    # for the board's lifetime, so the disabled path pays one branch per
    # window instead of one per tick.
    record = board.trace is not None
    steps = 0
    while steps < max_steps:
        temperature = thermal.temperature
        # Exact replay of cluster_power().total for each cluster: dynamic
        # and idle are constants, leakage tracks the hot-spot temperature.
        if pb.powered:
            factor = 1.0 + pb.leak_temp_coeff * (temperature - _REFERENCE_TEMP)
            power_big = pb.dyn + pb.leak_base * max(factor, 0.2) + pb.idle
        else:
            power_big = 0.0
        if pl.powered:
            factor = 1.0 + pl.leak_temp_coeff * (temperature - _REFERENCE_TEMP)
            power_little = pl.dyn + pl.leak_base * max(factor, 0.2) + pl.idle
        else:
            power_little = 0.0
        # Application crediting (scalar stepping credits with the tick-start
        # time plus dt; clamping and phase advancement live in execute()).
        now = board.time + dt
        for app, thread, done in credits:
            app.execute(thread, done, now)
        power = {BIG: power_big, LITTLE: power_little}
        thermal.step(power_big, power_little, dt)
        total_power = power_big + power_little + static_power
        board.energy += total_power * dt
        sensor_big.update(power_big)
        counter_big.add(pb.instructions)
        sensor_little.update(power_little)
        counter_little.add(pl.instructions)
        temp_sensor.update(thermal.temperature)
        emergency.update(thermal.temperature, power, dt)
        board._instant_power = power
        board._instant_bips = plan.bips
        board.time += dt
        if record:
            board._record(power)
        steps += 1
        if _emergency_snapshot(board) != snapshot:
            break
        if _membership_changed(plan.apps):
            break
        if plan.stall_tick:
            plan = plan.then
            if plan is None:
                break
            pb, pl = plan.big, plan.little
            credits = plan.credits
    return steps
