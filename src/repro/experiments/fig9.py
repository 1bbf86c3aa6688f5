"""Figure 9: ExD and execution time of the four two-layer schemes.

Runs the Table IV schemes over the evaluation programs and reports bars
normalized to *Coordinated heuristic*, with SPEC / PARSEC / overall
averages (the SAv / PAv / Avg bars of the paper's figure).
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
    DECOUPLED_HEURISTIC,
    YUKTA_HW_SSV_OS_HEUR,
    YUKTA_HW_SSV_OS_SSV,
    DesignContext,
)

__all__ = ["Fig9Result", "run", "TABLE_IV_SCHEMES"]

TABLE_IV_SCHEMES = [
    COORDINATED_HEURISTIC,
    DECOUPLED_HEURISTIC,
    YUKTA_HW_SSV_OS_HEUR,
    YUKTA_HW_SSV_OS_SSV,
]

QUICK_WORKLOADS = ["mcf", "gamess", "blackscholes", "x264", "streamcluster"]


@dataclass
class Fig9Result:
    """Normalized ExD (a) and execution time (b) per app and scheme."""

    schemes: list
    workloads: list
    exd: dict = field(default_factory=dict)  # app -> {scheme: normalized}
    time: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def averages(self, attr="exd"):
        data = getattr(self, attr)
        spec_apps = [w for w in self.workloads if w in program_names("spec")]
        parsec_apps = [w for w in self.workloads if w in program_names("parsec")]
        result = {}
        for label, apps in (("SAv", spec_apps), ("PAv", parsec_apps),
                            ("Avg", self.workloads)):
            if not apps:
                continue
            result[label] = {
                s: float(np.mean([data[a][s] for a in apps])) for s in self.schemes
            }
        return result

    def rows(self, attr="exd"):
        data = getattr(self, attr)
        rows = []
        for app in self.workloads:
            rows.append([app] + [data[app][s] for s in self.schemes])
        for label, values in self.averages(attr).items():
            rows.append([label] + [values[s] for s in self.schemes])
        return rows

    def render(self):
        parts = []
        for attr, label in (("exd", "Figure 9(a): normalized ExD"),
                            ("time", "Figure 9(b): normalized execution time")):
            parts.append(
                render_table(["workload"] + self.schemes, self.rows(attr), label)
            )
        return "\n\n".join(parts)


def run(context: DesignContext = None, quick=True, seed=7,
        jobs=None, batch=None) -> Fig9Result:
    """Regenerate Figure 9.  ``quick`` restricts the workload list.

    ``batch`` packs layered-scheme cells into lockstep board banks
    (bit-identical results; see :func:`run_scheme_matrix`).
    """
    context = context or DesignContext.create()
    workloads = QUICK_WORKLOADS if quick else program_names("evaluation")
    results = run_scheme_matrix(TABLE_IV_SCHEMES, workloads, context, seed=seed,
                                jobs=jobs, batch=batch)
    out = Fig9Result(TABLE_IV_SCHEMES, list(results))
    for app, per_scheme in results.items():
        out.exd[app] = normalize_to(per_scheme, COORDINATED_HEURISTIC, "exd")
        out.time[app] = normalize_to(per_scheme, COORDINATED_HEURISTIC,
                                     "execution_time")
        out.raw[app] = per_scheme
    return out
