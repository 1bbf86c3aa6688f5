"""Coordination-channel ablation: what do the external signals buy?

The external signals are the paper's coordination mechanism (Sec. III-B).
This ablation runs the full *Yukta: HW SSV + OS SSV* scheme twice on each
workload — once with the cross-layer external signals wired normally, and
once with each controller's externals frozen at their design midpoints
(the controllers are otherwise identical) — and reports the ExD and
control-quality cost of severing the channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..board import Board
from .metrics import oscillation_stats
from .report import render_table
from .runner import cell_metrics, drive, instantiate_workload
from .schemes import YUKTA_HW_SSV_OS_SSV, DesignContext, build_session

__all__ = ["AblationResult", "run", "FrozenExternalsController"]


class FrozenExternalsController:
    """Wrap a runtime controller, replacing its externals with constants.

    The wrapped controller still *has* external-signal inputs (it was
    synthesized with them); it simply receives their design midpoints every
    period — information-free coordination.
    """

    def __init__(self, inner):
        self.inner = inner
        self._frozen = (
            inner.external_offsets.copy()
            if getattr(inner, "external_offsets", None) is not None
            else None
        )

    @property
    def targets(self):
        return self.inner.targets

    @property
    def guardband_exhausted(self):
        return getattr(self.inner, "guardband_exhausted", False)

    @guardband_exhausted.setter
    def guardband_exhausted(self, value):
        self.inner.guardband_exhausted = value

    def set_targets(self, targets):
        self.inner.set_targets(targets)

    def reset(self):
        self.inner.reset()

    def step(self, outputs, externals):
        frozen = self._frozen if self._frozen is not None else externals
        return self.inner.step(outputs, frozen)


@dataclass
class AblationResult:
    workloads: list
    exd_ratio: dict = field(default_factory=dict)  # frozen / coordinated
    ripple_ratio: dict = field(default_factory=dict)

    def rows(self):
        rows = [
            [w, self.exd_ratio[w], self.ripple_ratio[w]] for w in self.workloads
        ]
        rows.append([
            "mean",
            float(np.mean(list(self.exd_ratio.values()))),
            float(np.mean(list(self.ripple_ratio.values()))),
        ])
        return rows

    def render(self):
        return render_table(
            ["workload", "ExD (frozen/coordinated)",
             "power ripple (frozen/coordinated)"],
            self.rows(),
            "Ablation: severing the external-signal coordination channel",
        )


def _run(context, workload, freeze, seed, max_time=600.0):
    session = build_session(YUKTA_HW_SSV_OS_SSV, context)
    if freeze:
        session.hw_controller = FrozenExternalsController(session.hw_controller)
        session.sw_controller = FrozenExternalsController(session.sw_controller)
    coordinator = session.coordinator()
    board = Board(instantiate_workload(workload), spec=context.spec, seed=seed)
    drive(board, coordinator.control_step, max_time)
    return cell_metrics("frozen" if freeze else "coordinated", workload,
                        board, coordinator, record=True)


def run(context: DesignContext = None,
        workloads=("blackscholes", "gamess", "x264"), seed=7,
        jobs=None) -> AblationResult:
    """Run the coordinated/frozen pair on each workload."""
    from .engine import parallel_map

    context = context or DesignContext.create()
    result = AblationResult(list(workloads))
    tasks = [
        ("call", (_run, (workload,), {"freeze": freeze, "seed": seed}))
        for workload in workloads
        for freeze in (False, True)
    ]
    flat = parallel_map(tasks, context, jobs=jobs)
    it = iter(flat)
    for workload in workloads:
        coordinated, frozen = next(it), next(it)
        result.exd_ratio[workload] = frozen.exd / coordinated.exd
        ripple_c = oscillation_stats(coordinated.trace["power_big"])["ripple"]
        ripple_f = oscillation_stats(frozen.trace["power_big"])["ripple"]
        result.ripple_ratio[workload] = ripple_f / max(ripple_c, 1e-9)
    return result
