"""Figures 12 and 13: comparison against LQG-based designs.

ExD (Fig. 12) and execution time (Fig. 13) of Coordinated heuristic,
Decoupled HW LQG + OS LQG, Monolithic LQG, and Yukta HW SSV + OS SSV —
normalized to the heuristic baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..workloads import program_names
from .engine import run_scheme_matrix
from .metrics import normalize_to
from .report import render_table
from .schemes import (
    COORDINATED_HEURISTIC,
    DECOUPLED_LQG,
    MONOLITHIC_LQG,
    YUKTA_HW_SSV_OS_SSV,
    DesignContext,
)

__all__ = ["Fig1213Result", "run", "LQG_COMPARISON_SCHEMES"]

LQG_COMPARISON_SCHEMES = [
    COORDINATED_HEURISTIC,
    DECOUPLED_LQG,
    MONOLITHIC_LQG,
    YUKTA_HW_SSV_OS_SSV,
]

QUICK_WORKLOADS = ["mcf", "gamess", "blackscholes", "bodytrack", "x264"]


@dataclass
class Fig1213Result:
    schemes: list
    workloads: list
    exd: dict = field(default_factory=dict)
    time: dict = field(default_factory=dict)

    def averages(self, attr="exd"):
        data = getattr(self, attr)
        return {
            s: float(np.mean([data[a][s] for a in self.workloads]))
            for s in self.schemes
        }

    def rows(self, attr="exd"):
        data = getattr(self, attr)
        rows = [[a] + [data[a][s] for s in self.schemes] for a in self.workloads]
        avg = self.averages(attr)
        rows.append(["Avg"] + [avg[s] for s in self.schemes])
        return rows

    def render(self):
        parts = [
            render_table(["workload"] + self.schemes, self.rows("exd"),
                         "Figure 12: normalized ExD vs LQG designs"),
            render_table(["workload"] + self.schemes, self.rows("time"),
                         "Figure 13: normalized execution time vs LQG designs"),
        ]
        return "\n\n".join(parts)


def run(context: DesignContext = None, quick=True, seed=7,
        jobs=None) -> Fig1213Result:
    context = context or DesignContext.create()
    workloads = QUICK_WORKLOADS if quick else program_names("evaluation")
    results = run_scheme_matrix(LQG_COMPARISON_SCHEMES, workloads, context,
                                seed=seed, jobs=jobs)
    out = Fig1213Result(LQG_COMPARISON_SCHEMES, list(results))
    for app, per_scheme in results.items():
        out.exd[app] = normalize_to(per_scheme, COORDINATED_HEURISTIC, "exd")
        out.time[app] = normalize_to(per_scheme, COORDINATED_HEURISTIC,
                                     "execution_time")
    return out
