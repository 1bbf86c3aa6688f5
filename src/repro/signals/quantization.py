"""Saturation and quantization of actuated signals.

SSV design takes, for every input, the discrete values the platform allows
(Sec. II-B).  :class:`QuantizedRange` is that description: an inclusive range
plus a step (or an explicit level list), with helpers to clamp-and-snap
continuous controller commands onto legal platform settings.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

__all__ = ["QuantizedRange"]


class QuantizedRange:
    """An inclusive, discretized range of allowed values.

    Parameters
    ----------
    low, high:
        Saturation limits (inclusive).
    step:
        Spacing between allowed levels.  Mutually exclusive with ``levels``.
    levels:
        Explicit sorted sequence of allowed values (overrides low/high/step
        derivation but must lie within [low, high]).
    """

    def __init__(self, low, high, step=None, levels=None):
        if high < low:
            raise ValueError(f"high ({high}) must be >= low ({low})")
        self.low = float(low)
        self.high = float(high)
        if levels is not None:
            arr = np.asarray(sorted(float(v) for v in levels))
            if arr.size == 0:
                raise ValueError("levels must be non-empty")
            if arr[0] < self.low - 1e-12 or arr[-1] > self.high + 1e-12:
                raise ValueError("levels must lie within [low, high]")
            self._levels = arr
            self.step = float(np.min(np.diff(arr))) if arr.size > 1 else 0.0
        else:
            if step is None:
                raise ValueError("provide either step or levels")
            if step <= 0:
                raise ValueError(f"step must be positive, got {step}")
            self.step = float(step)
            count = int(math.floor((self.high - self.low) / self.step + 1e-9)) + 1
            self._levels = self.low + self.step * np.arange(count)
        # Plain-list mirror for snap(): controllers snap every actuation,
        # and a bisect on a Python list beats an argmin dispatch ~5x.
        self._levels_list = [float(v) for v in self._levels]

    @property
    def levels(self):
        """The allowed discrete values, ascending."""
        return self._levels.copy()

    @property
    def n_levels(self):
        return int(self._levels.size)

    @property
    def span(self):
        """Width of the saturation range."""
        return self.high - self.low

    @property
    def midpoint(self):
        return 0.5 * (self.low + self.high)

    def clamp(self, value):
        """Saturate a continuous value into [low, high]."""
        return float(min(max(value, self.low), self.high))

    def snap(self, value):
        """Clamp then round to the nearest allowed level.

        Equivalent to ``levels[argmin(|levels - value|)]`` (ties resolve to
        the lower level, matching argmin's first-minimum rule) but via
        bisect on the sorted levels — this sits on every actuation path.
        """
        value = float(min(max(value, self.low), self.high))  # clamp()
        levels = self._levels_list
        i = bisect_left(levels, value)
        if i == 0:
            return levels[0]
        if i == len(levels):
            return levels[-1]
        below, above = levels[i - 1], levels[i]
        return below if value - below <= above - value else above

    def snap_index(self, value):
        """Index of the (first) level equal to what :meth:`snap` returns."""
        return bisect_left(self._levels_list, self.snap(value))

    def contains(self, value, tol=1e-9):
        """Whether ``value`` is (within tolerance) an allowed level."""
        return bool(np.any(np.abs(self._levels - value) <= tol))

    def quantization_radius(self):
        """Worst-case distance between a clamped command and its snap.

        Used to size the input-discretization uncertainty in the SSV design
        (the Delta_in block of Fig. 1).  With a single allowed level the
        whole saturation range may separate a command from that level.
        """
        boundary_slack = max(self.high - self._levels[-1],
                             self._levels[0] - self.low, 0.0)
        if self._levels.size < 2:
            return float(boundary_slack)
        half_gap = float(np.max(np.diff(self._levels)) / 2.0)
        return max(half_gap, float(boundary_slack))

    def __contains__(self, value):
        return self.contains(value)

    def __iter__(self):
        return iter(self._levels)

    def __len__(self):
        return self.n_levels

    def __eq__(self, other):
        if not isinstance(other, QuantizedRange):
            return NotImplemented
        return (
            self.low == other.low
            and self.high == other.high
            and self._levels.shape == other._levels.shape
            and bool(np.allclose(self._levels, other._levels))
        )

    def __repr__(self):
        return (
            f"QuantizedRange(low={self.low}, high={self.high}, "
            f"n_levels={self.n_levels})"
        )
