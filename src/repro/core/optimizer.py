"""The ExD target optimizer (Sec. IV-D).

Each Yukta controller is paired with an optimizer that walks the output
targets downhill in Energy x Delay.  Since ExD is proportional to
Power / Perf^2, the optimizer's asymmetric move is: raise the performance
target a lot while nudging the power targets; when a move makes ExD worse,
revert it and step the other way.  Three practical refinements keep the
walk honest on a noisy, quantized system:

* ExD samples are averaged over the settle window between moves, so a
  single noisy sample cannot flip the direction;
* each move *anchors* the new targets at the currently observed outputs
  plus a directional offset — target vectors therefore always describe a
  physically co-achievable operating point near the present one, never an
  arbitrary (performance, power) pair the plant cannot realize jointly
  (which would wedge the multivariable controller in a corner);
* the offset *grows* while successive moves in the same direction keep
  being accepted (and resets on a revert) — without growth, a fixed
  anchored step smaller than the plant's actuation deadband freezes the
  walk at a fixed point one quantization notch away from where it started.

Targets are clamped to designer envelopes — for the hardware controller
those are the paper's limits (3.3 W / 0.33 W / 79 degC).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TargetChannel", "ExDOptimizer", "exd_metric"]


def exd_metric(power, performance):
    """The optimizer's instantaneous ExD proxy: Power / Perf^2."""
    return float(power) / max(float(performance), 1e-6) ** 2


@dataclass
class TargetChannel:
    """One output target the optimizer is allowed to move.

    ``role`` determines the step pattern: "performance" channels take a
    large forward step and a small backward one, "power" channels take
    small near-symmetric steps, "balance" channels drift with the current
    direction, and "fixed" channels (temperature in the prototype) never
    move.
    """

    name: str
    initial: float
    low: float
    high: float
    role: str = "power"  # "performance" | "power" | "fixed" | "balance"
    forward_step: float = None  # fraction of (high - low) per move
    backward_step: float = None
    max_lead: float = None  # cap on |target - observation| as span fraction

    def __post_init__(self):
        if self.high <= self.low and self.role != "fixed":
            raise ValueError(f"channel {self.name}: high must exceed low")
        defaults = {
            "performance": (0.10, 0.04, 0.60),
            "power": (0.05, 0.06, 0.22),
            "balance": (0.08, 0.08, 1.0),
            "fixed": (0.0, 0.0, 0.0),
        }
        fwd, back, lead = defaults[self.role]
        if self.forward_step is None:
            self.forward_step = fwd
        if self.backward_step is None:
            self.backward_step = back
        if self.max_lead is None:
            # Growth exists to escape actuation deadbands, not to let a
            # target run away from the plant: critical (power) channels keep
            # their lead inside the runtime's exhaustion thresholds.
            self.max_lead = lead

    def clamp(self, value):
        return float(min(max(value, self.low), self.high))


class ExDOptimizer:
    """Greedy asymmetric hill descent on ExD over a target vector."""

    GROWTH_PER_ACCEPT = 0.8  # offset multiplier growth per accepted move
    MAX_GROWTH = 5.0  # cap on the offset multiplier
    WORSE_TOLERANCE = 1.01  # ExD ratio above which a move counts as worse

    def __init__(self, channels, settle_periods=3, upward_bias=True):
        self.channels = list(channels)
        self.targets = np.array([c.initial for c in self.channels], dtype=float)
        self.settle_periods = int(settle_periods)
        # The paper's goal is "minimize ExD *subject to* limits": where the
        # ExD landscape is flat, more performance under the limits is
        # strictly preferable, so accepted moves re-arm the upward
        # direction instead of letting the walk wander.
        self.upward_bias = bool(upward_bias)
        self.reset()

    def reset(self):
        self.targets = np.array([c.initial for c in self.channels], dtype=float)
        self._countdown = self.settle_periods
        self._window = []
        self._last_exd = None
        self._direction = +1.0
        self._prev_targets = self.targets.copy()
        self._last_outputs = None
        self._streak = 0
        # Walk statistics (surfaced as optimizer_* telemetry counters):
        # moves = target moves issued, reverts = moves judged worse and
        # undone, accepts = moves whose settle window came back no-worse.
        self.moves = 0
        self.reverts = 0
        self.accepts = 0

    def current_targets(self):
        return self.targets.copy()

    def update(self, exd_value, outputs=None):
        """Feed one control period's ExD sample (and the raw outputs, for
        anchoring); returns the current targets.

        Moves happen every ``settle_periods`` invocations, judged on the
        mean ExD of the window since the previous move.
        """
        self._window.append(float(exd_value))
        if outputs is not None:
            self._last_outputs = np.asarray(outputs, dtype=float).copy()
        self._countdown -= 1
        if self._countdown > 0:
            return self.targets.copy()
        self._countdown = self.settle_periods
        window_exd = float(np.mean(self._window))
        self._window.clear()
        if self._last_exd is not None:
            if window_exd > self._last_exd * self.WORSE_TOLERANCE:
                # The last move hurt: revert it, flip, restart the streak.
                self.targets = self._prev_targets.copy()
                self._direction = -self._direction
                self._streak = 0
                self.reverts += 1
            else:
                self._streak += 1
                self.accepts += 1
                if self.upward_bias and self._direction < 0:
                    # A successful backoff re-arms upward exploration.
                    self._direction = +1.0
                    self._streak = 0
        self._last_exd = window_exd
        self._prev_targets = self.targets.copy()
        self._move(self._direction)
        return self.targets.copy()

    def _growth(self):
        return min(1.0 + self.GROWTH_PER_ACCEPT * self._streak, self.MAX_GROWTH)

    def _move(self, direction):
        self.moves += 1
        anchor = self._last_outputs
        growth = self._growth()
        for i, channel in enumerate(self.channels):
            if channel.role == "fixed":
                continue
            span = channel.high - channel.low
            if direction > 0:
                step = channel.forward_step * span * growth
            else:
                step = -channel.backward_step * span * growth
            lead_cap = channel.max_lead * span
            step = min(max(step, -lead_cap), lead_cap)
            if channel.role == "balance":
                # Balance channels walk their own target (no natural anchor
                # in the outputs would preserve exploration).
                self.targets[i] = channel.clamp(self.targets[i] + step)
                continue
            base = (
                anchor[i]
                if anchor is not None and i < anchor.size
                else self.targets[i]
            )
            self.targets[i] = channel.clamp(base + step)
