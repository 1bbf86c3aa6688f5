"""Emergency thermal/power firmware heuristics (the stock TMU).

The ODROID ships threshold-rule firmware that trips when temperature or
power exceed preset values for a while, force-throttling the big cluster
(and hotplugging cores if that is not enough).  These heuristics run *under*
any controller, exactly as on the real board: the paper's evaluation limits
(3.3 W / 0.33 W / 79 degC) sit below the trip points, so well-behaved
controllers never hit them — while the decoupled heuristic trips them
continuously, producing the Fig. 10(b) oscillations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .specs import BIG, LITTLE, BoardSpec

__all__ = ["EmergencyManager", "EmergencyState"]


@dataclass
class EmergencyState:
    """Externally visible record of emergency actions."""

    thermal_throttled: bool = False
    power_throttled: dict = field(default_factory=lambda: {BIG: False, LITTLE: False})
    trip_count: int = 0
    throttle_time: float = 0.0  # cumulative seconds with any override active

    @property
    def any_active(self):
        return self.thermal_throttled or any(self.power_throttled.values())


class EmergencyManager:
    """Threshold firmware: monitors sensors, overrides cluster frequency."""

    # Power must exceed the emergency threshold this long before tripping.
    POWER_TRIP_DELAY = 0.5  # seconds
    POWER_CLEAR_DELAY = 1.0  # seconds below the limit before releasing
    MIN_HOLD = 3.0  # seconds an emergency stays engaged once tripped

    def __init__(self, spec: BoardSpec):
        self._spec = spec
        self.state = EmergencyState()
        # Optional trip observer (installed by the telemetry layer): called
        # with "thermal" / "power-big" / "power-little" on each trip edge.
        self.on_trip = None
        self._over_power_time = {BIG: 0.0, LITTLE: 0.0}
        self._under_power_time = {BIG: 0.0, LITTLE: 0.0}
        self._hold_time = {BIG: 0.0, LITTLE: 0.0}

    def frequency_cap(self, cluster_name):
        """Current emergency frequency cap for a cluster (GHz, or None)."""
        thermal = self.state.thermal_throttled and cluster_name == BIG
        power = self.state.power_throttled[cluster_name]
        if not (thermal or power):
            return None  # the common case: every planner asks every period
        spec = self._spec.cluster(cluster_name)
        caps = []
        if thermal:
            caps.append(self._spec.emergency_throttle_freq)
        if power:
            # Power emergencies clamp deep into the range: firmware is
            # deliberately conservative, which is exactly what costs the
            # decoupled scheme its Fig. 10(b) valleys.
            caps.append(spec.freq_range.snap(spec.freq_range.low
                                             + 0.3 * spec.freq_range.span))
        return min(caps)

    def core_cap(self, cluster_name):
        """Emergency hotplug cap: firmware parks big cores while tripped."""
        if cluster_name == BIG and (
            self.state.thermal_throttled or self.state.power_throttled[BIG]
        ):
            return 2
        if cluster_name == LITTLE and self.state.power_throttled[LITTLE]:
            return 2
        return None

    def update(self, temperature, power_by_cluster, dt):
        """Advance the firmware state machine one simulator step."""
        spec = self._spec
        # --- Thermal trip with hysteresis -----------------------------
        if not self.state.thermal_throttled:
            if temperature >= spec.emergency_temp_trip:
                self.state.thermal_throttled = True
                self.state.trip_count += 1
                if self.on_trip is not None:
                    self.on_trip("thermal")
        else:
            if temperature <= spec.emergency_temp_clear:
                self.state.thermal_throttled = False
        # --- Power trips per cluster -----------------------------------
        for name in (BIG, LITTLE):
            limit = (
                spec.power_limit_big if name == BIG else spec.power_limit_little
            )
            threshold = limit * spec.emergency_power_factor
            power = power_by_cluster[name]
            if power > threshold:
                self._over_power_time[name] += dt
                self._under_power_time[name] = 0.0
            else:
                self._over_power_time[name] = 0.0
                if power <= limit:
                    self._under_power_time[name] += dt
            if self.state.power_throttled[name]:
                self._hold_time[name] += dt
            if (
                not self.state.power_throttled[name]
                and self._over_power_time[name] >= self.POWER_TRIP_DELAY
            ):
                self.state.power_throttled[name] = True
                self.state.trip_count += 1
                self._hold_time[name] = 0.0
                if self.on_trip is not None:
                    self.on_trip(f"power-{name}")
            elif (
                self.state.power_throttled[name]
                and self._hold_time[name] >= self.MIN_HOLD
                and self._under_power_time[name] >= self.POWER_CLEAR_DELAY
            ):
                self.state.power_throttled[name] = False
        if self.state.any_active:
            self.state.throttle_time += dt
        return self.state
