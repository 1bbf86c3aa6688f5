"""Runtime SSV controller: the Eq. 3-4 state machine plus its wrappers.

The synthesized continuous controller is discretized, composed with the
discrete measurement filters its design assumed, and wrapped with the
normalization, saturation/quantization snapping, and guardband-exhaustion
detection needed to drive the real (simulated) board.  The resulting object
implements exactly the paper's hardware form:

    x(T+1) = A x(T) + B dy(T)
    u(T)   = C x(T) + D dy(T)

where ``dy`` stacks the output deviations from their targets and the
external signals (O + E entries) and ``u`` is the new input vector.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from ..lti import StateSpace, append, continuous_to_discrete, series, ss
from ..robust import AugmentedPlant

__all__ = [
    "RuntimeController",
    "STACK_MIN_LANES",
    "assemble_runtime_controller",
    "step_stacked",
]

# Below this many lanes a same-design group is cheaper to step lane by
# lane: the stacked pass's fixed cost (stacking and some 25 NumPy calls)
# outweighs the per-lane Python it saves (docs/PERFORMANCE.md,
# "Controller bank").
STACK_MIN_LANES = 3


def _norm(x):
    """``np.linalg.norm(x)`` of a real float vector, without its dispatch.

    The same operations: ``sqrt`` of ``x.dot(x)`` over the ``ravel('K')``
    copy (a view for a contiguous ``x``), so the same float.
    """
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _discrete_lag(pole_hz, dt, channels):
    """Discrete first-order unity-DC-gain lag bank (one per channel)."""
    # Continuous: a/(s+a); Tustin-discretized to match the synthesis model.
    a = pole_hz
    single = ss([[-a]], [[a]], [[1.0]], [[0.0]])
    single_d = continuous_to_discrete(single, dt)
    return append(*[single_d for _ in range(channels)])


class _DesignConstants:
    """What :meth:`RuntimeController.step` derives from the design alone.

    Built once per design (:attr:`RuntimeController.constants`) instead
    of once per step.  ``half_gaps`` holds each knob's sigma-delta
    residual bound, or ``None`` for a knob that snaps plainly.
    """

    def __init__(self, ctrl):
        # One-sided error clip for limit-style outputs (see step()).
        self.err_high = np.where(ctrl.limit_mask, 0.05, 0.6)
        margin = 1.0 + ctrl.guardband
        self.critical = ctrl.bound_fractions <= ctrl._CRITICAL_BOUND
        self.thresholds = ctrl.bound_fractions * margin * 1.5
        self.innovation_threshold = 2.0 * (1.0 + ctrl.guardband)
        self.half_gaps = [
            max(rng.quantization_radius(), 1e-9) if dither else None
            for rng, dither in zip(ctrl.input_ranges, ctrl.dither_mask)
        ]
        # The same, laid out for step_stacked(): one row per knob.
        ranges = ctrl.input_ranges
        self.dither = np.asarray(ctrl.dither_mask, dtype=bool)
        self.gap_bound = np.array([g or 0.0 for g in self.half_gaps])
        self.lows = np.array([rng.low for rng in ranges])
        self.highs = np.array([rng.high for rng in ranges])
        # Levels padded with each knob's top level to a common width (at
        # least 2, so a one-level knob reads its level on both sides).
        width = max(2, max(rng.n_levels for rng in ranges))
        self.level_table = np.array([
            np.pad(rng.levels, (0, width - rng.n_levels), mode="edge")
            for rng in ranges
        ])
        self.level_flat = self.level_table.ravel()
        self.table_offsets = width * np.arange(len(ranges))
        self.top_index = np.array([rng.n_levels - 1 for rng in ranges])


@dataclass
class RuntimeController:
    """A deployable Yukta layer controller.

    Attributes
    ----------
    state_machine:
        Discrete system mapping ``[err_norm; ext_norm] -> u_norm``.
    input_ranges:
        One :class:`~repro.signals.QuantizedRange` per actuated input.
    targets:
        Current output targets in physical units (set by the optimizer).
    """

    name: str
    state_machine: StateSpace
    input_ranges: list
    input_offsets: np.ndarray
    input_scales: np.ndarray
    output_offsets: np.ndarray
    output_scales: np.ndarray
    external_offsets: np.ndarray
    external_scales: np.ndarray
    bound_fractions: np.ndarray
    targets: np.ndarray
    guardband: float = 0.4
    limit_mask: np.ndarray = None  # True for limit-style (one-sided) outputs
    dither_mask: np.ndarray = None  # True for knobs cheap enough to dither
    model_gain: np.ndarray = None  # normalized DC gain (n_y x n_u), for the
    # guardband-exhaustion innovation monitor
    state: np.ndarray = None
    guardband_exhausted: bool = False
    _violation_streak: int = 0
    _state_norm_cap: float = 25.0

    def __post_init__(self):
        if self.state is None:
            self.state = np.zeros(self.state_machine.n_states)
        self.targets = np.asarray(self.targets, dtype=float).copy()
        if self.limit_mask is None:
            self.limit_mask = np.zeros(len(self.output_scales), dtype=bool)
        if self.dither_mask is None:
            self.dither_mask = np.zeros(self.n_inputs, dtype=bool)
        self._snap_residual = np.zeros(self.n_inputs)
        self._prev_u_norm = None
        self._prev_y_norm = None
        self._innovation_ema = 0.0
        self._innovation_streak = 0

    @property
    def n_inputs(self):
        return len(self.input_ranges)

    @property
    def n_outputs(self):
        return len(self.output_scales)

    def set_targets(self, targets):
        self.targets = np.asarray(targets, dtype=float).copy()

    def reset(self):
        self.state = np.zeros(self.state_machine.n_states)
        self.guardband_exhausted = False
        self._violation_streak = 0
        self._snap_residual = np.zeros(self.n_inputs)
        self._prev_u_norm = None
        self._prev_y_norm = None
        self._innovation_ema = 0.0
        self._innovation_streak = 0

    @property
    def constants(self):
        """The per-design :class:`_DesignConstants`, built on first use.

        Read once: the masks, bounds, guardband and knob ranges must not
        change after the first step.
        """
        consts = getattr(self, "_constants", None)
        if consts is None:
            consts = self._constants = _DesignConstants(self)
        return consts

    def fresh_copy(self):
        """A reset deep copy sharing this controller's immutable design.

        The state machine, knob ranges, normalization arrays, model gain
        and :attr:`constants` are shared, not copied, so copies of one
        design are recognizable by ``id(state_machine)`` and can step
        together in :func:`step_stacked`.
        """
        shared = (
            self.state_machine, self.input_ranges, self.input_offsets,
            self.input_scales, self.output_offsets, self.output_scales,
            self.external_offsets, self.external_scales,
            self.bound_fractions, self.limit_mask, self.dither_mask,
            self.model_gain, self.constants,
        )
        memo = {id(part): part for part in shared if part is not None}
        clone = copy.deepcopy(self, memo)
        clone.reset()
        return clone

    def step(self, outputs, externals):
        """One control period: measurements in, snapped actuation out.

        Parameters
        ----------
        outputs:
            Measured output vector (physical units).
        externals:
            External-signal vector (physical units, may be empty).

        Returns
        -------
        List of snapped physical input values, one per actuated knob.
        """
        consts = self.constants
        outputs = np.asarray(outputs, dtype=float)
        externals = np.asarray(externals, dtype=float)
        y_norm = (outputs - self.output_offsets) / self.output_scales
        r_norm = (self.targets - self.output_offsets) / self.output_scales
        # Clamp the error so unreachable targets degrade into bounded,
        # proportional pressure instead of tearing the linear controller
        # between irreconcilable extremes.  Limit-style outputs (e.g. the
        # temperature constraint) are one-sided: full authority to pull an
        # over-limit output down, almost none to push it up from below.
        # minimum(maximum()) is np.clip here: the bounds are nonzero, and
        # both propagate NaN.
        err = np.minimum(np.maximum(r_norm - y_norm, -0.6), consts.err_high)
        e_norm = (
            (externals - self.external_offsets) / self.external_scales
            if externals.size
            else np.zeros(0)
        )
        dy = np.concatenate([err, e_norm])
        self.state, u_norm = self.state_machine.step(self.state, dy)
        # Mild state-norm clamp: keeps the (validated-stable) state machine
        # from winding up when actuators sit saturated for long stretches.
        norm = _norm(self.state)
        if norm > self._state_norm_cap:
            self.state *= self._state_norm_cap / norm
        u_phys = self.input_offsets + self.input_scales * u_norm
        # Sigma-delta quantization on the *cheap* knobs (frequencies): carry
        # the snap residual into the next period so persistent sub-notch
        # pressure eventually crosses a level boundary (dithering between
        # adjacent DVFS levels realizes the average command) instead of
        # being discarded forever.  Expensive knobs (hotplug, migrations)
        # snap plainly — dithering them would cost a stall every period.
        snapped = []
        for i, (rng, value) in enumerate(zip(self.input_ranges, u_phys)):
            half_gap = consts.half_gaps[i]
            if half_gap is not None:
                candidate = value + self._snap_residual[i]
                level = rng.snap(candidate)
                # min/max is np.clip for a scalar, NaN included.
                self._snap_residual[i] = min(
                    max(candidate - level, -half_gap), half_gap)
            else:
                level = rng.snap(value)
            snapped.append(level)
        self._update_guardband_monitor(
            bool((consts.critical & (np.abs(err) > consts.thresholds)).any()))
        u_norm_applied = (np.asarray(snapped) - self.input_offsets) / self.input_scales
        self._update_innovation_monitor(y_norm, u_norm_applied)
        return snapped

    # Only outputs with bounds at or below this fraction participate in
    # the exhaustion monitor: those are the critical outputs whose targets
    # the optimizer never deliberately leads (it walks performance targets
    # ahead of the observation by design, which is not a fault).
    _CRITICAL_BOUND = 0.12

    def _update_guardband_monitor(self, violated):
        """Detect guardband exhaustion (Sec. II-B).

        ``violated`` says whether a *critical* output's deviation exceeds
        its designed bound by more than the modelling guardband allows
        (with a 1.5x noise margin; :class:`_DesignConstants`).  When that
        persists, the runtime flags that the declared Delta was too small.
        """
        if violated:
            self._violation_streak += 1
        else:
            self._violation_streak = 0
        if self._violation_streak >= 8:
            self.guardband_exhausted = True

    # The innovation monitor needs a minimum actuation move to attribute an
    # output change to the inputs rather than to plant noise.
    _INNOVATION_MIN_MOVE = 0.05
    _INNOVATION_EMA_ALPHA = 0.25
    _INNOVATION_STREAK = 6

    def _update_innovation_monitor(self, y_norm, u_norm):
        """Detect guardband exhaustion by model-innovation excess.

        Compares the measured output change against the identified model's
        predicted change for the applied input move; a prediction error
        persistently exceeding the declared guardband (with margin) means
        the true plant has left the designed-for uncertainty set.
        """
        prev_u, prev_y = self._prev_u_norm, self._prev_y_norm
        self._prev_u_norm = np.asarray(u_norm, dtype=float).copy()
        self._prev_y_norm = np.asarray(y_norm, dtype=float).copy()
        if self.model_gain is None or prev_u is None:
            return
        du = self._prev_u_norm - prev_u
        if _norm(du) < self._INNOVATION_MIN_MOVE:
            return
        predicted = self.model_gain @ du
        actual = self._prev_y_norm - prev_y
        scale = max(_norm(predicted), 0.05)
        ratio = float(_norm(actual - predicted) / scale)
        alpha = self._INNOVATION_EMA_ALPHA
        self._innovation_ema = (1 - alpha) * self._innovation_ema + alpha * ratio
        if self._innovation_ema > self.constants.innovation_threshold:
            self._innovation_streak += 1
        else:
            self._innovation_streak = max(self._innovation_streak - 1, 0)
        if self._innovation_streak >= self._INNOVATION_STREAK:
            self.guardband_exhausted = True


def step_stacked(controllers, outputs, externals):
    """:meth:`RuntimeController.step` for a same-design group, stacked.

    ``controllers`` are copies of one design
    (:meth:`~RuntimeController.fresh_copy`), ``outputs``/``externals``
    their per-lane ``step`` arguments; returns one snapped list per lane.
    Every lane's result and state are bit-identical to its own ``step``,
    NaN measurements included (a NaN's payload may differ, as NumPy's
    one-element and vector loops may carry a different NaN operand).  No lane state is written until every
    array is computed, so a raise leaves all lanes as they were.

    Each line is the lane-wise twin of one in ``step``: elementwise
    arithmetic over stacked rows rounds exactly as over one row, and the
    broadcast ``A @ X[:, :, None]`` runs the same matrix-vector product
    per lane as ``A @ x`` (``X @ A.T`` would not).  The state-norm clamp
    and the innovation monitor stay per lane to keep their norms' float
    order.
    """
    lead = controllers[0]
    consts = lead.constants
    sm = lead.state_machine
    y_norm = (np.array(outputs, dtype=float) - lead.output_offsets) / lead.output_scales
    targets = np.array([ctrl.targets for ctrl in controllers])
    r_norm = (targets - lead.output_offsets) / lead.output_scales
    err = np.minimum(np.maximum(r_norm - y_norm, -0.6), consts.err_high)
    ext = np.array(externals, dtype=float).reshape(len(controllers), -1)
    e_norm = (ext - lead.external_offsets) / lead.external_scales if ext.size else ext
    dy = np.concatenate([err, e_norm], axis=1)[:, :, None]
    x = np.array([ctrl.state for ctrl in controllers])[:, :, None]
    u_norm = (sm.C @ x + sm.D @ dy)[:, :, 0]
    states = (sm.A @ x + sm.B @ dy)[:, :, 0]
    u_phys = lead.input_offsets + lead.input_scales * u_norm
    residuals = np.array([ctrl._snap_residual for ctrl in controllers])
    candidate = np.where(consts.dither, u_phys + residuals, u_phys)
    snapped = _snap_stacked(consts, candidate)
    residuals = np.where(
        consts.dither,
        np.minimum(np.maximum(candidate - snapped, -consts.gap_bound),
                   consts.gap_bound),
        residuals)
    violated = (consts.critical
                & (np.abs(err) > consts.thresholds)).any(axis=1).tolist()
    u_applied = (snapped - lead.input_offsets) / lead.input_scales
    for k, ctrl in enumerate(controllers):
        state = states[k]
        norm = _norm(state)
        if norm > ctrl._state_norm_cap:
            state *= ctrl._state_norm_cap / norm
        ctrl.state = state
        ctrl._snap_residual = residuals[k]
        ctrl._update_guardband_monitor(violated[k])
        ctrl._update_innovation_monitor(y_norm[k], u_applied[k])
    return snapped.tolist()


def _snap_stacked(consts, values):
    """``QuantizedRange.snap`` of an (L, knobs) array, every knob at once.

    ``snap`` clamps, then takes ``bisect_left``'s index ``i`` (the count
    of levels below the value) and keeps the nearer of levels ``i-1`` and
    ``i``, the lower one on a tie.  Counting against the padded level
    table reproduces ``i`` for all knobs in one comparison, NaN included
    (it counts nothing, like bisect, where ``searchsorted`` would sort it
    last).  Clipping ``i`` to ``[1, n-1]`` lets the nearer-of-two rule
    return the end levels outside the range, and writing the tie rule as
    "not farther" sends a NaN to the lowest level as ``snap`` does.
    """
    clamped = np.minimum(np.maximum(values, consts.lows), consts.highs)
    below_count = (consts.level_table < clamped[:, :, None]).sum(axis=2)
    upper = np.maximum(np.minimum(below_count, consts.top_index), 1)
    upper += consts.table_offsets
    below = consts.level_flat[upper - 1]
    above = consts.level_flat[upper]
    return np.where(clamped - below > above - clamped, above, below)


def assemble_runtime_controller(
    name,
    synthesized_continuous: StateSpace,
    augmented: AugmentedPlant,
    input_ranges,
    initial_targets,
    guardband,
    reduce_to=None,
    limit_mask=None,
    dither_mask=None,
    model_gain=None,
) -> RuntimeController:
    """Build a deployable controller from a synthesis result.

    Discretizes the continuous controller at the control period, prepends
    the measurement-filter bank the design assumed, optionally reduces the
    composite order by balanced truncation, and wraps everything with the
    plant's normalization metadata.
    """
    dt = augmented.dt
    if not np.isfinite(dt):
        raise ValueError("augmented plant lacks a sampling period")
    k_d = continuous_to_discrete(synthesized_continuous, dt)
    n_y = augmented.channels.n_y
    n_e = augmented.channels.n_e
    pole = augmented.notes["measurement_pole"]
    filters = _discrete_lag(pole, dt, n_y + n_e)
    composite = series(filters, k_d)  # filters first, then the controller
    if reduce_to is not None and composite.is_stable() and reduce_to < composite.n_states:
        from ..lti import balanced_truncation

        composite, _ = balanced_truncation(composite, reduce_to)
    return RuntimeController(
        name=name,
        state_machine=composite,
        input_ranges=list(input_ranges),
        input_offsets=augmented.input_offsets,
        input_scales=augmented.input_scales,
        output_offsets=augmented.output_offsets,
        output_scales=augmented.output_scales,
        external_offsets=augmented.external_offsets,
        external_scales=augmented.external_scales,
        bound_fractions=augmented.bound_fractions,
        targets=initial_targets,
        guardband=guardband,
        limit_mask=(
            np.asarray(limit_mask, dtype=bool) if limit_mask is not None else None
        ),
        dither_mask=(
            np.asarray(dither_mask, dtype=bool) if dither_mask is not None else None
        ),
        model_gain=(
            np.asarray(model_gain, dtype=float) if model_gain is not None else None
        ),
    )
