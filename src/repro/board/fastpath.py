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
  rates with the same arithmetic, and ``run_window`` runs it for exactly
  one tick.  Nothing that tick changes feeds the ordinary plan after it,
  so when no stall remains the planner builds that plan in the same call
  (``WindowPlan.then``) and ``run_window`` carries on under it.
  :func:`plan_window` re-plans for it from scratch;
  :class:`~repro.board.bank.BoardBank` builds it from a lane's known
  layout, computing only the draining cluster.
* Whenever exactness cannot be guaranteed — a fault-injection hook is
  installed (sensor or actuator), or nothing is runnable — the planner
  refuses (returns ``None``) and the caller falls back to scalar ``step()``.
* Mid-window, the moment an application changes phase / finishes a thread
  or the emergency firmware changes state, the window ends and the next
  tick is re-planned (the tick that *caused* the change is still exact:
  scalar stepping reads rates at the top of the tick too).
* A steady plan's first ticks credit in bulk, through the credit cells of
  :mod:`repro.board.credit`: for as many ticks as the cells' horizon
  proves that no budget can clamp or fall to the phase-advance threshold,
  a tick's crediting is the fixed sequence of subtractions and additions
  ``Application.execute`` would make, replayed on a row of floats and
  written back at the horizon, at an emergency break, or at the window's
  end (nothing else in the tick reads application state).  Runnable-thread
  sets only change when a budget runs out, so those ticks skip the
  membership check too.  Ticks past the horizon, and stall ticks, credit
  through ``execute`` and check membership after every tick.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cores import (
    _sum_small,
    core_execution,
    memory_traffic_gbs,
    thread_rate_gips,
)
from .credit import _LaneCells
from .power import _REFERENCE_TEMP
from .specs import BIG, LITTLE

__all__ = ["plan_window", "run_window", "WindowPlan"]


@dataclass(slots=True)
class _ClusterPlan:
    """Step-invariant per-cluster terms of one planned window."""

    dyn: float  # dynamic power (W), constant while rates hold
    leak_base: float  # cores_on * leak_coeff * voltage (W per temp factor)
    leak_temp_coeff: float
    idle: float  # idle power (W)
    instructions: float  # giga-instructions retired per tick
    powered: bool  # False replicates the cores_on<=0 / freq<=0 guard


@dataclass(slots=True)
class WindowPlan:
    """Everything ``run_window`` needs to replay ticks without re-planning."""

    big: _ClusterPlan
    little: _ClusterPlan
    credits: list  # iterable of (app, thread, giga_instructions_per_tick)
    bips: dict  # the constant _instant_bips payload
    apps: list  # [(app, runnable-thread snapshot), ...] membership guard
    emergency_snapshot: tuple  # (thermal, power big, power little) throttles
    # True for a one-tick plan whose arithmetic already drained a stall;
    # then: the plan for the ticks after it, built with it (None while a
    # stall remains after this tick).
    stall_tick: bool = False
    then: object = None
    # Bank metadata: parts is each cluster's memoized (plan, per-thread
    # credit amounts, bips) (see _arithmetic), bw_scale the DRAM
    # contention factor they were computed under, cells the credit-cell
    # layout of ``credits``, bound the no-trip temperature ceiling proven
    # for these terms on the plan's lane (see BoardBank._quiet).
    parts: tuple = None
    bw_scale: float = None
    cells: object = None
    bound: float = None


def _emergency_snapshot(board):
    state = board.emergency.state
    return (
        state.thermal_throttled,
        state.power_throttled[BIG],
        state.power_throttled[LITTLE],
    )


def _refused(board):
    """Does an installed fault hook keep this board off the fast path?"""
    # Any installed fault hook means per-tick fault semantics may apply;
    # stay on the scalar path for the whole faulted region.
    sensors = board.power_sensors
    return (board.fault_hooks is not None
            or board.temp_sensor.fault_hook is not None
            or sensors[BIG].fault_hook is not None
            or sensors[LITTLE].fault_hook is not None)


def _membership(board):
    """``(apps, phase_of)``: each live app's runnable threads, and the
    ``(app, phase)`` of every runnable thread."""
    phase_of = {}
    apps = []
    for app in board.applications:
        if app.done:
            continue
        runnable = app.runnable_threads()
        apps.append((app, runnable))
        for thread in runnable:
            phase_of[thread] = (app, app.current_phase)
    return apps, phase_of


def _layout(board, phase_of, cores):
    """The live ``(thread, phase)`` placement per computed core.

    ``cores`` holds the effective core count of each cluster.  Returns
    ``{cluster: (cores_active, per_core, sig)}``, ``sig`` being the
    (cpi_scale, mpki, activity) of every placed thread per core.  Cores
    at index >= cores_active contribute exactly 0.0 activity and no
    credits, so only the computed prefix matters.
    """
    spec = board.spec
    layout = {}
    for name, cores_active in zip((BIG, LITTLE), cores):
        assignment = board.placement.assignment[name]
        per_core = []
        sig = []
        for idx in range(min(cores_active, spec.cluster(name).n_cores)):
            core_threads = [
                (t, phase_of[t][1]) for t in assignment[idx] if t in phase_of
            ]
            per_core.append(core_threads)
            sig.append(tuple(
                (p.cpi_scale, p.mpki, p.activity) for _, p in core_threads
            ))
        layout[name] = (cores_active, per_core, tuple(sig))
    return layout


def plan_window(board):
    """Plan a fast window from the board's current state (or ``None``).

    Mirrors the top half of :meth:`Board.step` exactly — including the
    one side effect scalar stepping performs there, the placement-membership
    refresh — and captures every step-invariant quantity.  (The bank
    plans from the same pieces through a memo: :func:`_arithmetic`.)

    When a hotplug stall is pending, or a thread on a computed core has a
    migration stall, the plan is a one-tick stall plan: planning drains
    the stalls exactly as the top of ``Board.step`` would, so the plan
    must be run, for one tick, right away.  If no stall remains after
    that tick, the plan's ``then`` is the ordinary plan for the ticks
    after it.
    """
    if _refused(board):
        return None
    board._refresh_placement_membership()
    apps, phase_of = _membership(board)
    if not phase_of:
        return None
    freqs = (board._effective_frequency(BIG),
             board._effective_frequency(LITTLE))
    layout = _layout(board, phase_of, (board._effective_cores(BIG),
                                       board._effective_cores(LITTLE)))
    if not _stall_pending(board, layout):
        return _build(board, layout, freqs, phase_of, apps)
    plan = _build(board, layout, freqs, phase_of, apps, stall_tick=True)
    if not _stall_pending(board, layout):
        # The stall tick changes nothing the ordinary plan reads, so the
        # plan for the ticks after it can be built now.
        plan.then = _build(board, layout, freqs, phase_of, apps)
    return plan


def _stall_pending(board, layout):
    """Does the next tick drain a hotplug or a computed thread's migration?"""
    runtimes = board.clusters
    if (runtimes[BIG].pending_hotplug_stall > 0
            or runtimes[LITTLE].pending_hotplug_stall > 0):
        return True
    for name in (BIG, LITTLE):
        for core in layout[name][1]:
            for thread, _ in core:
                if thread.migration_stall > 0:
                    return True
    return False


def _drain_hotplug(board, name):
    """Drain the hotplug stall ``Board.step`` drains at the top of a tick;
    returns the tick time left for execution."""
    dt = board.spec.sim_dt
    runtime = board.clusters[name]
    drained = min(runtime.pending_hotplug_stall, dt)
    runtime.pending_hotplug_stall -= drained
    return dt - drained


def _cluster(spec, name, freq, cores_active, per_core, tick_dt, bw_scale):
    """One cluster's plan arithmetic: ``(plan, works, bips)``.

    ``works`` holds every computed thread's credit amount in credit
    order (core by core).  ``core_execution`` drains the migration stall
    of each thread it computes, as scalar stepping does.
    """
    cspec = spec.cluster(name)
    busy_activity = []
    instructions = 0.0
    works = []
    for core_threads in per_core:
        work, busy, activity = core_execution(
            cspec, freq, core_threads, tick_dt,
            spec.mem_latency_ns, bw_scale,
        )
        for done in work:
            instructions += done
        works.extend(work)
        busy_activity.append(busy * activity)
    if cores_active <= 0 or freq <= 0:
        plan = _ClusterPlan(0.0, 0.0, 0.0, 0.0, instructions, False)
    else:
        voltage = cspec.voltage(freq)
        activity_sum = (
            _sum_small(busy_activity[:cores_active])
            if len(busy_activity) else 0.0
        )
        plan = _ClusterPlan(
            dyn=float(cspec.ceff_dynamic * voltage**2 * freq * activity_sum),
            leak_base=cores_active * cspec.leak_coeff * voltage,
            leak_temp_coeff=cspec.leak_temp_coeff,
            idle=float(cores_active * cspec.idle_power),
            instructions=instructions,
            powered=True,
        )
    return plan, tuple(works), instructions / spec.sim_dt


def _traffic(spec, name, freq, per_core):
    """Each computed thread's DRAM traffic term, in ``Board._bandwidth_scale``
    order (the saturating bandwidth model sums them left to right)."""
    cspec = spec.cluster(name)
    terms = []
    for core_threads in per_core:
        if not core_threads:
            continue
        share = 1.0 / len(core_threads)
        for _, phase in core_threads:
            rate = thread_rate_gips(cspec, freq, phase, spec.mem_latency_ns,
                                    share)
            terms.append(memory_traffic_gbs(((phase, rate),)))
    return tuple(terms)


def _bandwidth_scale(board, layout, freqs, memo):
    """``Board._bandwidth_scale`` from per-cluster memoized traffic terms.

    A cluster's terms are a pure function of its frequency and placed
    phase characteristics, so a knob moved on one cluster reuses the
    other's.  ``0.0 + t == t``, so summing the cached single-demand terms
    left to right replays ``memory_traffic_gbs`` over all of them.
    """
    spec = board.spec
    traffic = 0.0
    for name, freq in zip((BIG, LITTLE), freqs):
        _, per_core, sig = layout[name]
        key = ("traffic", id(spec), name, freq, sig)
        cached = memo.get(key)
        if cached is None or cached[0] is not spec:
            cached = memo[key] = (spec, _traffic(spec, name, freq, per_core))
        for term in cached[1]:
            traffic += term
    if traffic <= spec.mem_bandwidth_gbs:
        return 1.0
    return float(spec.mem_bandwidth_gbs / traffic)


def _arithmetic(board, layout, freqs, memo):
    """``(parts, bw_scale)`` of a stall-free tick, memoized.

    ``parts`` holds each cluster's :func:`_cluster` result, big then
    little.  Memoized per cluster, by the values each piece depends on:
    the DRAM contention factor by both clusters' traffic terms
    (:func:`_bandwidth_scale`), then each cluster's arithmetic by its
    operating point and that factor (:func:`_cluster_memo`).  Boards at
    the same operating point (across lanes of a bank *and* across
    control periods) skip ``core_execution`` and bandwidth modelling, and
    a knob moved on one cluster reuses the other's.  Hits are exact by
    construction: the cached numbers are pure functions of the key.  No
    computed thread may have a migration stall.
    """
    spec = board.spec
    bw_scale = _bandwidth_scale(board, layout, freqs, memo)
    parts = tuple([
        _cluster_memo(spec, name, freq, layout[name], bw_scale, memo)
        for name, freq in zip((BIG, LITTLE), freqs)
    ])
    return parts, bw_scale


def _cluster_memo(spec, name, freq, cluster_layout, bw_scale, memo):
    """:func:`_cluster` of a stall-free tick, memoized by its inputs: the
    spec object, the cluster's frequency and core count, the (cpi_scale,
    mpki, activity) of every placed thread per computed core, and the
    contention factor.

    Only for a cluster none of whose computed threads has a migration
    stall: ``core_execution`` would drain it.
    """
    cores_active, per_core, sig = cluster_layout
    key = ("cluster", id(spec), name, freq, cores_active, sig, bw_scale)
    cached = memo.get(key)
    if cached is None or cached[0] is not spec:
        cached = memo[key] = (spec, _cluster(
            spec, name, freq, cores_active, per_core, spec.sim_dt, bw_scale))
    return cached[1]


def _build(board, layout, freqs, phase_of, apps, stall_tick=False):
    """The plan of :func:`plan_window` for one placement layout.

    ``stall_tick`` applies the stall drains ``Board.step`` applies at the
    top of a tick and plans that one tick.
    """
    spec = board.spec
    bw_scale = board._bandwidth_scale(phase_of)
    plans = {}
    bips = {}
    works = {}
    for name, freq in zip((BIG, LITTLE), freqs):
        cores_active, per_core, _ = layout[name]
        tick_dt = _drain_hotplug(board, name) if stall_tick else spec.sim_dt
        plans[name], works[name], bips[name] = _cluster(
            spec, name, freq, cores_active, per_core, tick_dt, bw_scale)
    credits = []
    for name in (BIG, LITTLE):
        threads = [t for core in layout[name][1] for t, _ in core]
        for thread, done in zip(threads, works[name]):
            credits.append((phase_of[thread][0], thread, done))
    return WindowPlan(
        big=plans[BIG],
        little=plans[LITTLE],
        credits=credits,
        bips=bips,
        apps=apps,
        emergency_snapshot=_emergency_snapshot(board),
        stall_tick=stall_tick,
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


def _bulk(plan, start, max_steps):
    """``(cells, row, end)``: ``plan``'s credit cells and a row of their
    live values, credited in bulk from tick ``start`` to tick ``end``
    (its horizon, capped at ``max_steps``; ``end == start`` for a stall
    plan, which credits through ``execute``)."""
    if plan.stall_tick:
        return None, None, start
    cells = _LaneCells(plan.credits)
    row = cells.row()
    horizon = cells.horizon(cells.ratio(row))
    if horizon is None:
        return cells, row, max_steps
    return cells, row, min(start + horizon, max_steps)


def run_window(board, plan, max_steps):
    """Advance up to ``max_steps`` ticks under ``plan``; returns ticks run.

    Stops early (after completing the offending tick, exactly like scalar
    stepping would) when an application event or an emergency-firmware
    state change invalidates the plan.  A stall plan runs one tick, then
    its ``then`` plan (or stops, if it has none).  Inside a plan's credit
    horizon the ticks credit in bulk (see the module docstring).
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
    # Ticks start..end-1 credit in bulk, written back once they are done.
    start = 0
    cells, row, end = _bulk(plan, start, max_steps)
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
        # Application crediting past the horizon (scalar stepping credits
        # with the tick-start time plus dt; clamping and phase advancement
        # live in execute()).
        if steps >= end:
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
        if steps == end:
            cells.replay(row, end - start)
        if _emergency_snapshot(board) != snapshot:
            break
        if steps > end and _membership_changed(plan.apps):
            break
        if plan.stall_tick:
            plan = plan.then
            if plan is None:
                break
            pb, pl = plan.big, plan.little
            credits = plan.credits
            start = steps
            cells, row, end = _bulk(plan, start, max_steps)
    if steps < end:  # an emergency inside the horizon
        cells.replay(row, steps - start)
    return steps
