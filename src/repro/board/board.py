"""The simulated ODROID XU3 board.

:class:`Board` glues together the cluster performance model, power model,
thermal model, sensors, emergency firmware, and thread placement into one
discrete-time simulator with the actuation/sensing interface the paper's
controllers use:

* actuation: per-cluster frequency (cpufreq), per-cluster powered-core
  count (hotplug), and thread placement (sched_setaffinity);
* sensing: 260 ms-windowed power sensors, a noisy temperature sensor, and
  per-cluster retired-instruction counters.

The board runs one or more :class:`~repro.workloads.app.Application`
instances concurrently and records full traces for the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cores import core_execution, memory_traffic_gbs, thread_rate_gips
from .fastpath import keep, plan_window, reuse, run_window
from .placement import PlacementState, plan_placement, spare_capacity
from .power import cluster_power_total
from .sensors import PerformanceCounter, TemperatureSensor, WindowedPowerSensor
from .specs import BIG, LITTLE, BoardSpec, default_xu3_spec
from .thermal import ThermalModel
from .tmu import EmergencyManager

__all__ = ["Board", "BoardTrace", "ClusterRuntime"]


@dataclass
class ClusterRuntime:
    """Mutable runtime state of one cluster."""

    frequency: float
    cores_on: int
    pending_hotplug_stall: float = 0.0


@dataclass
class BoardTrace:
    """Per-step history recorded during a run."""

    times: list = field(default_factory=list)
    power_big: list = field(default_factory=list)
    power_little: list = field(default_factory=list)
    temperature: list = field(default_factory=list)
    bips_total: list = field(default_factory=list)
    bips_big: list = field(default_factory=list)
    bips_little: list = field(default_factory=list)
    freq_big: list = field(default_factory=list)
    freq_little: list = field(default_factory=list)
    cores_big: list = field(default_factory=list)
    cores_little: list = field(default_factory=list)
    emergency: list = field(default_factory=list)

    def as_arrays(self):
        return {name: np.asarray(values) for name, values in vars(self).items()}


def _same_objects(a, b):
    """Whether two value-equal assignments hold the very same threads."""
    return all(x is y for name in (BIG, LITTLE)
               for core_a, core_b in zip(a[name], b[name])
               for x, y in zip(core_a, core_b))


class Board:
    """Discrete-time simulator of the 8-core big.LITTLE board.

    ``telemetry`` is an optional
    :class:`~repro.telemetry.TelemetrySession`; when omitted the board
    picks up the process-wide session (usually ``None`` — telemetry
    disabled), and every instrumented path stays behind a single
    ``is not None`` check.

    ``enable_fast_path`` (class attribute, overridable per instance)
    controls whether :meth:`run_period` may use the vectorized window
    stepping of :mod:`repro.board.fastpath`; disabling it forces scalar
    :meth:`step` everywhere (used by benchmarks to measure the speedup).
    """

    enable_fast_path = True

    def __init__(self, applications, spec: BoardSpec = None, seed=0, record=True,
                 telemetry=None):
        if telemetry is None:
            from ..telemetry import active_session

            telemetry = active_session()
        self.telemetry = telemetry
        self.spec = spec or default_xu3_spec()
        self._rng = np.random.default_rng(seed)
        if not isinstance(applications, (list, tuple)):
            applications = [applications]
        self.applications = list(applications)
        self.time = 0.0
        self.energy = 0.0
        self.clusters = {
            BIG: ClusterRuntime(self.spec.big.freq_range.high, self.spec.big.n_cores),
            LITTLE: ClusterRuntime(
                self.spec.little.freq_range.high, self.spec.little.n_cores
            ),
        }
        self.placement = PlacementState()
        self.thermal = ThermalModel(
            self.spec.ambient_temp,
            self.spec.thermal_resistance,
            self.spec.thermal_tau,
            self.spec.thermal_weight_little,
        )
        # Workloads arrive warm: start near a plausible loaded temperature.
        self.thermal.reset(self.spec.ambient_temp + 15.0)
        self.emergency = EmergencyManager(self.spec)
        self.power_sensors = {
            BIG: WindowedPowerSensor(self.spec.power_sensor_period, self.spec.sim_dt),
            LITTLE: WindowedPowerSensor(self.spec.power_sensor_period, self.spec.sim_dt),
        }
        self.temp_sensor = TemperatureSensor(self.spec.temp_sensor_noise, self._rng)
        self.perf_counters = {BIG: PerformanceCounter(), LITTLE: PerformanceCounter()}
        self.trace = BoardTrace() if record else None
        # Actuator-fault hook layer (installed by repro.faults.FaultInjector):
        # any object with blocks_dvfs/blocks_hotplug/blocks_placement.
        self.fault_hooks = None
        # Commands rejected (non-finite) or clamped (out of range) by the
        # actuation API; the safe-mode supervisor monitors these counters.
        # ``nonfinite_commands`` counts the dropped-outright subset.
        # Read them through :meth:`counters`.
        self.rejected_actuations = {"frequency": 0, "cores": 0, "placement": 0}
        self.nonfinite_commands = {"frequency": 0, "cores": 0, "placement": 0}
        if self.telemetry is not None:
            self.emergency.on_trip = self._tmu_trip
        self._instant_power = {BIG: 0.0, LITTLE: 0.0}
        self._instant_bips = {BIG: 0.0, LITTLE: 0.0}
        # Reused per-tick scratch (step() runs millions of times; fresh
        # dicts/lists per tick dominated its allocation profile).  The
        # power/bips buffers are published via _instant_power/_instant_bips,
        # which consumers read between ticks and never retain.
        self._phase_of_buf = {}
        self._instr_buf = {BIG: 0.0, LITTLE: 0.0}
        self._power_buf = {BIG: 0.0, LITTLE: 0.0}
        self._bips_buf = {BIG: 0.0, LITTLE: 0.0}
        self._busy_buf = {BIG: [], LITTLE: []}
        # Monotonic change counters consumed by BoardBank's plan-reuse
        # logic: _actuation_epoch ticks on every actuation call that lands
        # a real state change, _placement_epoch only on calls that can
        # move threads or cores (DVFS leaves thread placement — and hence
        # the plan's placement layout — untouched).  No-op commands
        # (repeating the current frequency/count, an identical placement
        # deal, a rejected value) change nothing a plan depends on, so
        # they must not invalidate cached plans; every stall-charging
        # path bumps _placement_epoch, which the bank also uses to skip
        # redundant stall scans.
        self._actuation_epoch = 0
        self._placement_epoch = 0
        # Derivations that repeat unchanged between placement moves, keyed
        # on the placement epoch and powered-core counts (see
        # observe_placement and set_placement_knobs); _knob_threads keeps
        # the threads whose id()s _knob_key holds alive.
        self._observed = (None, None)
        self._knob_key = None
        self._knob_threads = None
        # The steady plan run_period's last window ran to the end, kept for
        # the next period (fastpath.keep/reuse); plans counts run_period's
        # plans by how they were obtained (see counters()).
        self._kept = None
        self._plans = {"reused": 0, "built": 0}
        self._default_placement()

    # ------------------------------------------------------------------
    # Actuation interface (what controllers may call)
    # ------------------------------------------------------------------
    def _validate_command(self, kind, value, low, high):
        """Validate one actuation command against its legal range.

        Non-finite commands are rejected outright (returns ``None``; the
        previous setting survives) and out-of-range commands clamp to the
        legal range — both increment ``rejected_actuations[kind]`` instead
        of silently producing undefined board states.
        """
        try:
            value = float(value)
            finite = math.isfinite(value)
        except (TypeError, ValueError):
            finite = False
        if not finite:
            self.rejected_actuations[kind] += 1
            self.nonfinite_commands[kind] += 1
            if self.telemetry is not None:
                self.telemetry.rejected.labels(kind=kind).inc()
                self.telemetry.nonfinite.labels(kind=kind).inc()
            return None
        if value < low - 1e-9 or value > high + 1e-9:
            self.rejected_actuations[kind] += 1
            if self.telemetry is not None:
                self.telemetry.rejected.labels(kind=kind).inc()
            return float(min(max(value, low), high))
        return value

    def set_cluster_frequency(self, cluster_name, freq_ghz):
        """Request a cluster frequency; snapped to the DVFS table.

        Invalid commands are clamped-and-counted (see ``_validate_command``);
        a non-finite command leaves the current frequency untouched.
        """
        spec = self.spec.cluster(cluster_name)
        freq_ghz = self._validate_command(
            "frequency", freq_ghz, spec.freq_range.low, spec.freq_range.high
        )
        if freq_ghz is None:
            return
        if self.fault_hooks is not None and self.fault_hooks.blocks_dvfs(cluster_name):
            return  # DVFS write silently dropped (injected actuator fault)
        runtime = self.clusters[cluster_name]
        snapped = spec.freq_range.snap(freq_ghz)
        if snapped != runtime.frequency:
            # Re-commanding the current frequency is a no-op and must not
            # invalidate cached plans (excitation sequences hold levels).
            self._actuation_epoch += 1
            runtime.frequency = snapped

    def set_active_cores(self, cluster_name, count):
        """Hotplug cores on/off; clamped to [1, 4]; charges a stall."""
        spec = self.spec.cluster(cluster_name)
        runtime = self.clusters[cluster_name]
        count = self._validate_command("cores", count, 1, spec.n_cores)
        if count is None:
            return
        if self.fault_hooks is not None and self.fault_hooks.blocks_hotplug(
            cluster_name
        ):
            return  # hotplug request silently dropped (injected fault)
        count = int(round(count))
        if count != runtime.cores_on:
            # Only a real hotplug moves threads; repeating the current
            # count is a no-op and must not invalidate cached plans.
            self._actuation_epoch += 1
            self._placement_epoch += 1
            runtime.pending_hotplug_stall += self.spec.hotplug_cost_s
            runtime.cores_on = count
            self._repack_overflow(cluster_name)

    def set_placement_knobs(self, n_threads_big, tpc_big, tpc_little):
        """Software-layer actuation: the three aggregate placement knobs."""
        total_cores = self.spec.big.n_cores + self.spec.little.n_cores
        n_threads_big = self._validate_command(
            "placement", n_threads_big, 0, 4 * total_cores
        )
        tpc_big = self._validate_command("placement", tpc_big, 1.0, 8.0)
        tpc_little = self._validate_command("placement", tpc_little, 1.0, 8.0)
        if n_threads_big is None or tpc_big is None or tpc_little is None:
            return
        if self.fault_hooks is not None and self.fault_hooks.blocks_placement():
            return  # placement knobs stuck (injected fault)
        threads = self._gather_runnable_threads()
        cores_big = self.clusters[BIG].cores_on
        cores_little = self.clusters[LITTLE].cores_on
        # The deal is a function of these; the placement holds the very
        # objects the recorded key's deal placed until the epoch moves.
        key = (self._placement_epoch, cores_big, cores_little, n_threads_big,
               tpc_big, tpc_little, tuple(map(id, threads)))
        if key == self._knob_key:
            return  # the same deal of the same objects: a no-op
        new_assignment = plan_placement(
            threads,
            n_threads_big,
            tpc_big,
            tpc_little,
            cores_big,
            cores_little,
        )
        if new_assignment == self.placement.assignment:
            # Identical deal: no migrations, keep cached plans valid.
            # Equal by value need not mean the same objects (threads
            # re-created on a phase entry), so only those repeat.
            if _same_objects(new_assignment, self.placement.assignment):
                self._knob_key = key
                self._knob_threads = threads
            return
        self._actuation_epoch += 1
        self._placement_epoch += 1
        self.placement.apply(new_assignment, self.spec.migration_cost_s)
        self._knob_key = (self._placement_epoch,) + key[1:]
        self._knob_threads = threads

    def set_raw_placement(self, assignment):
        """Direct per-core assignment (used by heuristic OS controllers)."""
        if assignment == self.placement.assignment:
            return  # identical deal: no migrations, keep cached plans valid
        self._actuation_epoch += 1
        self._placement_epoch += 1
        self.placement.apply(assignment, self.spec.migration_cost_s)

    # ------------------------------------------------------------------
    # Sensing interface
    # ------------------------------------------------------------------
    def read_power(self, cluster_name):
        return self.power_sensors[cluster_name].read()

    def read_temperature(self):
        return self.temp_sensor.read()

    def read_instructions_delta(self, cluster_name):
        """Giga-instructions retired since the last delta read."""
        return self.perf_counters[cluster_name].read_delta()

    def observe_placement(self):
        """What the layers can see of the current placement (Eq. 2 inputs).

        The result is shared until the placement epoch or a powered-core
        count moves (every placement change ticks the epoch); callers
        must not mutate it.
        """
        key = (self._placement_epoch, self.clusters[BIG].cores_on,
               self.clusters[LITTLE].cores_on)
        if key == self._observed[0]:
            return self._observed[1]
        result = {}
        for name in (BIG, LITTLE):
            threads = self.placement.threads_on(name)
            busy = self.placement.busy_cores(name)
            cores_on = self.clusters[name].cores_on
            result[name] = {
                "n_threads": len(threads),
                "busy_cores": busy,
                "cores_on": cores_on,
                "threads_per_busy_core": len(threads) / busy if busy else 0.0,
                "spare_capacity": spare_capacity(len(threads), busy, cores_on),
            }
        self._observed = (key, result)
        return result

    def runnable_thread_count(self):
        return len(self._gather_runnable_threads())

    def counters(self):
        """Public snapshot of the board's actuation-health counters.

        ``rejected`` counts every command the actuation API refused or
        clamped (the superset); ``nonfinite`` counts the dropped-outright
        NaN/inf subset.  ``tmu_trips`` / ``tmu_throttle_time`` expose the
        emergency firmware's interventions.  ``plans`` counts the window
        plans of :meth:`run_period`: ``reused`` from the period before,
        ``built`` by ``fastpath.plan_window``.
        """
        return {
            "rejected": dict(self.rejected_actuations),
            "nonfinite": dict(self.nonfinite_commands),
            "tmu_trips": self.emergency.state.trip_count,
            "tmu_throttle_time": self.emergency.state.throttle_time,
            "plans": dict(self._plans),
        }

    def reset_counters(self):
        """Zero the rejected/non-finite actuation counters."""
        for counter in (self.rejected_actuations, self.nonfinite_commands):
            for key in counter:
                counter[key] = 0

    @property
    def done(self):
        for app in self.applications:
            if not app.done:
                return False
        return True

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self):
        """Advance the board by one simulator step."""
        dt = self.spec.sim_dt
        self._kept = None
        self._refresh_placement_membership()
        phase_of = self._phase_of_buf
        phase_of.clear()
        for app in self.applications:
            if app.done:
                continue
            for thread in app.runnable_threads():
                phase_of[thread] = (app, app.current_phase)
        # --- bandwidth contention (one global saturating DRAM model) ----
        bw_scale = self._bandwidth_scale(phase_of)
        instructions = self._instr_buf
        instructions[BIG] = 0.0
        instructions[LITTLE] = 0.0
        power = self._power_buf
        for name in (BIG, LITTLE):
            spec = self.spec.cluster(name)
            runtime = self.clusters[name]
            freq = self._effective_frequency(name)
            cores_active = self._effective_cores(name)
            busy_activity = self._busy_buf[name]
            del busy_activity[:]
            stall = min(runtime.pending_hotplug_stall, dt)
            runtime.pending_hotplug_stall -= stall
            effective_dt = dt - stall
            for idx in range(spec.n_cores):
                if idx >= cores_active:
                    busy_activity.append(0.0)
                    continue
                core_threads = [
                    (t, phase_of[t][1])
                    for t in self.placement.assignment[name][idx]
                    if t in phase_of
                ]
                work, busy, activity = core_execution(
                    spec, freq, core_threads, effective_dt,
                    self.spec.mem_latency_ns, bw_scale,
                )
                for (thread, _), done in zip(core_threads, work):
                    app, _ = phase_of[thread]
                    app.execute(thread, done, self.time + dt)
                    instructions[name] += done
                busy_activity.append(busy * activity)
            power[name] = cluster_power_total(
                spec, freq, cores_active, busy_activity, self.thermal.temperature
            )
        # --- thermal, sensors, firmware ---------------------------------
        self.thermal.step(power[BIG], power[LITTLE], dt)
        total_power = power[BIG] + power[LITTLE] + self.spec.board_static_power
        self.energy += total_power * dt
        for name in (BIG, LITTLE):
            self.power_sensors[name].update(power[name])
            self.perf_counters[name].add(instructions[name])
        self.temp_sensor.update(self.thermal.temperature)
        self.emergency.update(self.thermal.temperature, power, dt)
        self._instant_power = power
        bips = self._bips_buf
        bips[BIG] = instructions[BIG] / dt
        bips[LITTLE] = instructions[LITTLE] / dt
        self._instant_bips = bips
        self.time += dt
        if self.trace is not None:
            self._record(power)

    def run_period(self, n_steps):
        """Advance up to ``n_steps`` ticks (typically one control period).

        Uses the vectorized fast path of :mod:`repro.board.fastpath`,
        re-planning at emergency-firmware transitions and application
        phase changes and running a draining stall's tick on its own
        one-tick plan; only fault hooks (or nothing runnable) fall back to
        scalar :meth:`step`.  A period whose plan inputs did not move
        since the last window ran to its end reuses that window's plan
        (``fastpath.reuse``).  The resulting board
        state is bit-identical to calling :meth:`step` ``n_steps`` times
        (stopping when all applications finish); returns the number of
        ticks actually executed.
        """
        executed = 0
        fast = self.enable_fast_path  # hoisted: one attribute read per call
        while executed < n_steps and not self.done:
            plan = None
            if fast:
                kept = self._kept
                if kept is not None:
                    plan = reuse(self, kept)
                if plan is not None:
                    self._planned("reused")
                else:
                    plan = plan_window(self)
                    if plan is not None:
                        self._planned("built")
            if plan is None:
                self.step()
                executed += 1
                continue
            left = n_steps - executed
            ran = run_window(self, plan, left)
            executed += ran
            steady = plan.then if plan.stall_tick else plan
            self._kept = (keep(self, steady)
                          if ran == left and steady is not None else None)
        return executed

    def run(self, duration=None, max_time=1e9, callback=None):
        """Step until all applications finish (or limits hit).

        ``callback(board)`` fires after every step; controllers are driven
        by the experiment runner instead, so this is mostly for tests.
        """
        end = self.time + duration if duration is not None else max_time
        if callback is None:
            # Hoisted is-None check: the common no-callback loop pays no
            # per-tick branch for the disabled path.
            while self.time < end:
                if duration is None and self.done:
                    break
                self.step()
        else:
            while self.time < end:
                if duration is None and self.done:
                    break
                self.step()
                callback(self)
        return self

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _planned(self, kind):
        """Count one run_period plan of ``kind`` (and mirror it)."""
        self._plans[kind] += 1
        if self.telemetry is not None:
            self.telemetry.board_plans.labels(kind=kind).inc()

    def _tmu_trip(self, kind):
        """Emergency-firmware trip callback (installed when telemetry is on)."""
        tel = self.telemetry
        if tel is not None:
            tel.tmu_trips.labels(type=kind).inc()
            tel.instant("tmu.trip", cat="firmware", kind=kind,
                        board_time=self.time)

    def _effective_frequency(self, cluster_name):
        freq = self.clusters[cluster_name].frequency
        cap = self.emergency.frequency_cap(cluster_name)
        if cap is not None:
            freq = min(freq, cap)
        return freq

    def _effective_cores(self, cluster_name):
        cores = self.clusters[cluster_name].cores_on
        cap = self.emergency.core_cap(cluster_name)
        if cap is not None:
            cores = min(cores, cap)
        return cores

    def _gather_runnable_threads(self):
        threads = []
        for app in self.applications:
            threads.extend(app.runnable_threads())
        return threads

    def _default_placement(self):
        threads = self._gather_runnable_threads()
        assignment = plan_placement(
            threads,
            n_threads_big=min(len(threads), self.clusters[BIG].cores_on),
            threads_per_core_big=1,
            threads_per_core_little=1,
            cores_on_big=self.clusters[BIG].cores_on,
            cores_on_little=self.clusters[LITTLE].cores_on,
        )
        self.placement.assignment = assignment

    def _refresh_placement_membership(self):
        """Drop finished threads; pick up threads from new phases."""
        live = set(self._gather_runnable_threads())
        placed = set(self.placement.all_threads())
        if placed == live:
            return
        self._placement_epoch += 1
        # Keep surviving threads where they are; deal new ones round-robin
        # over the busiest-available cores (cheap, deterministic).
        for name in (BIG, LITTLE):
            for core in self.placement.assignment[name]:
                core[:] = [t for t in core if t in live]
        new_threads = sorted(live - placed, key=lambda t: (t.app_name, t.thread_id))
        if new_threads:
            slots = []
            for name in (BIG, LITTLE):
                for idx in range(self.clusters[name].cores_on):
                    slots.append((len(self.placement.assignment[name][idx]), name, idx))
            slots.sort()
            for i, thread in enumerate(new_threads):
                _, name, idx = slots[i % len(slots)]
                self.placement.assignment[name][idx].append(thread)

    def _repack_overflow(self, cluster_name):
        """Move threads off hotplugged-out cores onto remaining ones."""
        runtime = self.clusters[cluster_name]
        cores = self.placement.assignment[cluster_name]
        overflow = []
        for idx in range(runtime.cores_on, len(cores)):
            overflow.extend(cores[idx])
            cores[idx] = []
        for i, thread in enumerate(overflow):
            cores[i % runtime.cores_on].append(thread)
            thread.migration_stall += self.spec.migration_cost_s

    def _bandwidth_scale(self, phase_of):
        """Global DRAM-saturation factor from the would-be traffic."""
        demands = []
        for name in (BIG, LITTLE):
            spec = self.spec.cluster(name)
            freq = self._effective_frequency(name)
            for idx in range(self._effective_cores(name)):
                core_threads = self.placement.assignment[name][idx]
                live = [t for t in core_threads if t in phase_of]
                if not live:
                    continue
                share = 1.0 / len(live)
                for t in live:
                    phase = phase_of[t][1]
                    rate = thread_rate_gips(
                        spec, freq, phase, self.spec.mem_latency_ns, share
                    )
                    demands.append((phase, rate))
        traffic = memory_traffic_gbs(demands)
        if traffic <= self.spec.mem_bandwidth_gbs:
            return 1.0
        return float(self.spec.mem_bandwidth_gbs / traffic)

    def _record(self, power):
        trace = self.trace
        trace.times.append(self.time)
        trace.power_big.append(power[BIG])
        trace.power_little.append(power[LITTLE])
        trace.temperature.append(self.thermal.temperature)
        trace.bips_big.append(self._instant_bips[BIG])
        trace.bips_little.append(self._instant_bips[LITTLE])
        trace.bips_total.append(self._instant_bips[BIG] + self._instant_bips[LITTLE])
        trace.freq_big.append(self._effective_frequency(BIG))
        trace.freq_little.append(self._effective_frequency(LITTLE))
        trace.cores_big.append(self.clusters[BIG].cores_on)
        trace.cores_little.append(self.clusters[LITTLE].cores_on)
        trace.emergency.append(self.emergency.state.any_active)
