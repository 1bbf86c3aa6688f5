"""Figures 10 and 11: blackscholes time series under the four schemes.

Figure 10 plots the big-cluster power versus time (peaks/valleys against
the 3.3 W limit); Figure 11 plots total BIPS versus time and the completion
times.  Both come from the same four runs, so one module produces both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import run_scheme_matrix
from .metrics import oscillation_stats
from .report import render_series, render_table
from .schemes import DesignContext
from .fig9 import TABLE_IV_SCHEMES

__all__ = ["Fig1011Result", "run"]


@dataclass
class Fig1011Result:
    """Traces and summary statistics for the four schemes."""

    workload: str
    power_limit: float
    traces: dict = field(default_factory=dict)  # scheme -> trace arrays
    completion: dict = field(default_factory=dict)  # scheme -> seconds
    power_stats: dict = field(default_factory=dict)

    def rows(self):
        rows = []
        for scheme in self.traces:
            stats = self.power_stats[scheme]
            rows.append(
                [
                    scheme,
                    self.completion[scheme],
                    stats["peaks_over_limit"],
                    stats["ripple"],
                    stats["steady_mean"],
                ]
            )
        return rows

    def render(self):
        parts = [
            render_table(
                ["scheme", "completion (s)", "peaks>limit", "power ripple (W)",
                 "steady P_big (W)"],
                self.rows(),
                f"Figures 10/11 summary ({self.workload}, limit "
                f"{self.power_limit} W)",
            )
        ]
        for scheme, trace in self.traces.items():
            parts.append(
                render_series(
                    trace["times"], trace["power_big"],
                    f"Figure 10: P_big(t) under {scheme}",
                )
            )
            parts.append(
                render_series(
                    trace["times"], trace["bips_total"],
                    f"Figure 11: BIPS(t) under {scheme}",
                )
            )
        return "\n\n".join(parts)


def run(context: DesignContext = None, workload="blackscholes", seed=7,
        jobs=None):
    """Regenerate Figures 10 and 11 (``jobs`` fans the four runs out)."""
    context = context or DesignContext.create()
    result = Fig1011Result(workload, context.spec.power_limit_big)
    matrix = run_scheme_matrix(TABLE_IV_SCHEMES, [workload], context,
                               seed=seed, record=True, jobs=jobs)
    per_scheme = next(iter(matrix.values()))
    for scheme in TABLE_IV_SCHEMES:
        metrics = per_scheme[scheme]
        result.traces[scheme] = metrics.trace
        result.completion[scheme] = metrics.execution_time
        result.power_stats[scheme] = oscillation_stats(
            metrics.trace["power_big"], limit=context.spec.power_limit_big
        )
    return result
