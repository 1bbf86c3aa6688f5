"""The fault injector: replays a campaign against a live board.

The injector owns every mutation a fault makes — sensor hooks, actuator
flags, and (revertible) plant-parameter changes — so transient faults can
be cleanly undone and experiment code never edits board state by hand.
Call :meth:`FaultInjector.advance` after each simulator step (or at least
once per control period); it applies events whose start time has passed
and reverts transient events whose window has closed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..board.specs import BIG, LITTLE
from .events import FaultCampaign, FaultEvent
from .hooks import ActuatorFaultState, SensorFault

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a :class:`~repro.faults.events.FaultCampaign` to a board.

    Parameters
    ----------
    board:
        The live :class:`~repro.board.Board`.
    campaign:
        The fault schedule; a bare :class:`FaultEvent` is promoted to a
        one-event campaign.
    seed:
        Seeds the per-event RNGs of ``temp-noise`` faults, so two
        identically-seeded injectors produce identical noisy traces.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetrySession`; defaults to
        the process-wide session.  Each apply/revert edge is counted,
        marked in the span trace, and triggers a flight-recorder dump.
    """

    def __init__(self, board, campaign, seed=0, telemetry=None):
        if isinstance(campaign, FaultEvent):
            campaign = FaultCampaign([campaign])
        self.board = board
        self.campaign = campaign
        self.seed = int(seed)
        if telemetry is None:
            from ..telemetry import active_session

            telemetry = active_session()
        self.telemetry = telemetry
        # Reuse an actuator-fault state another injector already installed
        # so stacked injectors (e.g. the legacy one-shot helpers) compose.
        if isinstance(getattr(board, "fault_hooks", None), ActuatorFaultState):
            self._actuators = board.fault_hooks
        else:
            self._actuators = ActuatorFaultState()
            board.fault_hooks = self._actuators
        self._reverters = {}  # event -> callable undoing its effect
        self._done = set()  # transient events already applied and reverted
        # The board's shared spec, kept while it runs on a board-local copy
        # that holds a plant fault (see _set_cluster_spec).
        self._shared_spec = None

    # ------------------------------------------------------------------
    @property
    def active_events(self):
        return [e for e in self._reverters]

    def advance(self):
        """Apply newly-due events; revert transient events whose window closed."""
        now = self.board.time
        for index, event in enumerate(self.campaign):
            applied = event in self._reverters
            if not applied and event not in self._done and event.active_at(now):
                self._reverters[event] = self._apply(event, index)
                self._note(event, "applied")
            elif applied and not event.active_at(now):
                self._reverters.pop(event)()
                self._done.add(event)
                self._note(event, "reverted")
        return self

    def _note(self, event, phase):
        """Publish one fault edge through telemetry (no-op when disabled)."""
        tel = self.telemetry
        if tel is None:
            return
        tel.fault_events.labels(kind=event.kind, phase=phase).inc()
        tel.instant(f"fault.{phase}", cat="fault", kind=event.kind,
                    cluster=event.cluster, board_time=self.board.time)
        tel.dump_flight(f"fault-{phase}-{event.kind}",
                        extra={"event": event.describe()})

    def detach(self):
        """Revert every active event and unhook from the board."""
        for event in list(self._reverters):
            self._reverters.pop(event)()
            self._done.add(event)
        if self.board.fault_hooks is self._actuators and not self._actuators.any_active:
            self.board.fault_hooks = None
        return self

    # ------------------------------------------------------------------
    # Per-kind application (each returns a reverter closure)
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent, index):
        kind = event.kind
        if kind.startswith("temp-"):
            fault = self._sensor_fault(kind[len("temp-"):], event, index)
            return _install_sensor_hook(self.board.temp_sensor, fault)
        if kind.startswith("power-"):
            fault = self._sensor_fault(kind[len("power-"):], event, index)
            return _install_sensor_hook(
                self.board.power_sensors[event.cluster], fault
            )
        if kind == "dvfs-ignored":
            self._actuators.set_dvfs_ignored(event.cluster, True)
            return lambda: self._actuators.set_dvfs_ignored(event.cluster, False)
        if kind == "hotplug-stuck":
            self._actuators.set_hotplug_stuck(event.cluster, True)
            return lambda: self._actuators.set_hotplug_stuck(event.cluster, False)
        if kind == "placement-stuck":
            self._actuators.set_placement_stuck(True)
            return lambda: self._actuators.set_placement_stuck(False)
        if kind == "heatsink-detach":
            thermal = self.board.thermal
            original = thermal.resistance
            thermal.resistance = original * event.magnitude
            def revert():
                thermal.resistance = original
            return revert
        if kind == "capacitance-aging":
            spec = self.board.spec
            original = spec.cluster(event.cluster)
            aged = replace(
                original, ceff_dynamic=original.ceff_dynamic * event.magnitude
            )
            self._set_cluster_spec(event.cluster, aged)
            return lambda: self._set_cluster_spec(event.cluster, original)
        raise ValueError(f"unhandled fault kind {kind!r}")  # pragma: no cover

    def _sensor_fault(self, mode, event, index):
        rng = None
        if mode == "noise":
            rng = np.random.default_rng(self.seed + index)
        return SensorFault(mode, magnitude=event.magnitude or 0.0, rng=rng)

    def _set_cluster_spec(self, cluster_name, cluster_spec):
        """Give the board a spec whose ``cluster_name`` is ``cluster_spec``.

        The board's spec is usually shared (a design context's spec, every
        lane of a bank), so a plant fault never writes into it: it swaps in
        a board-local copy, and once both clusters are back to the shared
        spec's own, the shared object itself is restored.
        """
        board = self.board
        if self._shared_spec is None:
            self._shared_spec = board.spec
        shared = self._shared_spec
        spec = replace(board.spec, **{
            "big" if cluster_name == BIG else "little": cluster_spec})
        if spec.big is shared.big and spec.little is shared.little:
            spec = shared
            self._shared_spec = None
        board.spec = spec


def _install_sensor_hook(sensor, fault):
    """Chain a fault hook onto a sensor; returns the reverter."""
    previous = sensor.fault_hook
    if previous is None:
        sensor.fault_hook = fault
    else:
        sensor.fault_hook = lambda value: fault(previous(value))

    def revert():
        sensor.fault_hook = previous

    return revert
