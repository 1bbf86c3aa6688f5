"""Figure 14: ExD of the four heterogeneous workload mixes.

Runs blmc / stga / blst / mcga (PARSEC@4t + SPEC@4copies combinations)
under every scheme in the registry, normalized to Coordinated heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..workloads import mix_names
from .engine import run_scheme_matrix
from .metrics import normalize_to
from .report import render_table
from .schemes import COORDINATED_HEURISTIC, SCHEMES, DesignContext

__all__ = ["Fig14Result", "run"]


@dataclass
class Fig14Result:
    schemes: list
    mixes: list
    exd: dict = field(default_factory=dict)

    def averages(self):
        return {
            s: float(np.mean([self.exd[m][s] for m in self.mixes]))
            for s in self.schemes
        }

    def rows(self):
        rows = [[m] + [self.exd[m][s] for s in self.schemes] for m in self.mixes]
        avg = self.averages()
        rows.append(["Avg"] + [avg[s] for s in self.schemes])
        return rows

    def render(self):
        return render_table(
            ["mix"] + self.schemes, self.rows(),
            "Figure 14: normalized ExD on heterogeneous mixes",
        )


def run(context: DesignContext = None, schemes=None, seed=7,
        jobs=None) -> Fig14Result:
    context = context or DesignContext.create()
    schemes = schemes or SCHEMES
    results = run_scheme_matrix(schemes, mix_names(), context, seed=seed,
                                jobs=jobs)
    out = Fig14Result(list(schemes), list(results))
    for mix, per_scheme in results.items():
        out.exd[mix] = normalize_to(per_scheme, COORDINATED_HEURISTIC, "exd")
    return out
