"""The ``repro verify`` orchestrator: monitor + oracles + goldens.

One entry point, :func:`run_verify`, exercises all three verification
pillars and folds the outcomes into a :class:`VerifyReport`:

1. **Invariant monitoring** — nominal fault-free runs (heuristic always;
   plus the full Yukta SSV scheme when not ``--quick``) execute under an
   active :class:`~repro.verify.invariants.InvariantMonitor`; any
   violation fails the report.
2. **Differential oracles** — fastpath vs scalar, parallel vs serial,
   interrupted+resumed vs uninterrupted, cached vs fresh synthesis, the
   control-plane service (coalescing + bank batching + JSON wire, and
   again with a worker SIGKILLed mid-bank-batch) vs direct execution (all
   bit-exact), and LQG vs the textbook Riccati
   recursion (documented relative tolerance).
3. **Golden traces** — the canonical matrix replayed against
   ``tests/golden/`` (or re-minted with ``regen_golden=True``).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field

from .golden import (
    GOLDEN_DIR,
    golden_context,
    regen_goldens,
    regen_rack_goldens,
    verify_goldens,
    verify_rack_goldens,
)
from .invariants import InvariantMonitor, activate_monitor, deactivate_monitor
from .oracles import (
    oracle_bank,
    oracle_bank_matrix,
    oracle_cache,
    oracle_fastpath,
    oracle_lqg_reference,
    oracle_parallel_matrix,
    oracle_rack,
    oracle_rack_resume,
    oracle_resume,
    oracle_serve,
    oracle_serve_chaos,
)

__all__ = ["VerifyReport", "run_verify"]


@dataclass
class VerifyReport:
    """Aggregated outcome of one verification pass."""

    quick: bool
    monitor: InvariantMonitor = None
    monitored_runs: list = field(default_factory=list)  # (scheme, workload)
    oracles: list = field(default_factory=list)  # [OracleResult]
    golden: dict = field(default_factory=dict)  # cell -> [TraceMismatch]
    regenerated: list = field(default_factory=list)  # paths, if regen ran
    elapsed: float = 0.0

    @property
    def ok(self):
        if self.monitor is not None and not self.monitor.ok:
            return False
        if any(not oracle.agree for oracle in self.oracles):
            return False
        if any(self.golden.values()):
            return False
        return True

    def render(self):
        mode = "quick" if self.quick else "full"
        lines = [f"repro verify ({mode} mode, {self.elapsed:.1f}s)", ""]
        if self.monitor is not None:
            runs = ", ".join(f"{s}/{w}" for s, w in self.monitored_runs)
            lines.append(f"[1/3] invariant monitor over nominal runs: {runs}")
            lines.append("  " + self.monitor.summary().replace("\n", "\n  "))
            lines.append("")
        lines.append("[2/3] differential oracles")
        for oracle in self.oracles:
            lines.append("  " + oracle.render().replace("\n", "\n  "))
        lines.append("")
        if self.regenerated:
            lines.append(f"[3/3] golden traces: regenerated "
                         f"{len(self.regenerated)} file(s)")
            lines.extend(f"  {path}" for path in self.regenerated)
        else:
            lines.append("[3/3] golden traces")
            for cell in sorted(self.golden):
                mismatches = self.golden[cell]
                if not mismatches:
                    lines.append(f"  {cell}: OK")
                else:
                    lines.append(f"  {cell}: {len(mismatches)} mismatch(es)")
                    lines.extend(f"    {m}" for m in mismatches[:5])
        lines.append("")
        lines.append("VERIFY: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_verify(quick=True, regen_golden=False, golden_dir=None, samples=None,
               seed=99, jobs=2, telemetry=None, log=None):
    """Run the full verification pass; returns a :class:`VerifyReport`.

    ``quick`` trims the characterization budget, skips the (synthesis-
    heavy) SSV monitored run, and shortens the simulated horizons —
    the CI smoke configuration.  ``regen_golden`` re-mints the golden
    files instead of comparing against them.
    """
    from ..experiments.runner import run_workload
    from ..experiments.schemes import DesignContext

    def _log(message):
        if log is not None:
            log(message)

    t0 = time.perf_counter()
    report = VerifyReport(quick=quick)
    golden_dir = golden_dir if golden_dir is not None else GOLDEN_DIR
    samples = samples if samples is not None else (48 if quick else 120)

    _log("verify: building design context "
         f"(samples_per_program={samples}, seed={seed})...")
    context = DesignContext.create(samples_per_program=samples, seed=seed)

    # --- pillar 1: invariant monitor over nominal fault-free runs -------
    monitor = InvariantMonitor(telemetry=telemetry)
    report.monitor = monitor
    monitored = [("coordinated-heuristic", "blackscholes"),
                 ("decoupled-heuristic", "mcf")]
    if not quick:
        monitored.append(("yukta-hwssv-osssv", "blackscholes"))
    horizon = 20.0 if quick else 60.0
    activate_monitor(monitor)
    try:
        for scheme, workload in monitored:
            _log(f"verify: monitored nominal run {scheme}/{workload}...")
            run_workload(scheme, workload, context, seed=7,
                         max_time=horizon, record=False)
            report.monitored_runs.append((scheme, workload))
        # The rack layer checks its conservation invariants through the
        # same active monitor (sum of budgets <= cap, floors respected,
        # jobs neither lost nor duplicated).
        _log("verify: monitored nominal rack campaign...")
        from ..rack import JobSpec, Rack, default_rack_spec

        rack_jobs = tuple(
            JobSpec(name=f"j{i}", workload="mcf@0.08", arrival=3.0 * i,
                    sla=60.0)
            for i in range(3)
        )
        rack = Rack(default_rack_spec(n_boards=2, jobs=rack_jobs), seed=7,
                    telemetry=None)
        rack.run(max_time=60.0 if quick else 120.0)
        report.monitored_runs.append(("rack-ssv", "job-stream"))
    finally:
        deactivate_monitor()
    _log("verify: " + monitor.summary().splitlines()[0])

    # --- pillar 2: differential oracles ---------------------------------
    _log("verify: oracle fastpath-vs-scalar...")
    report.oracles.append(
        oracle_fastpath(spec=context.spec, periods=20 if quick else 60)
    )
    _log("verify: oracle bank-vs-scalar...")
    report.oracles.append(
        oracle_bank(spec=context.spec, periods=15 if quick else 40)
    )
    _log("verify: oracle bank-matrix-vs-serial...")
    report.oracles.append(
        oracle_bank_matrix(context, max_time=8.0 if quick else 20.0)
    )
    _log("verify: oracle parallel-vs-serial...")
    report.oracles.append(
        oracle_parallel_matrix(context, max_time=8.0 if quick else 20.0,
                               jobs=jobs)
    )
    _log("verify: oracle resume-vs-fresh...")
    with tempfile.TemporaryDirectory(prefix="repro-verify-ckpt-") as tmp:
        report.oracles.append(
            oracle_resume(context, max_time=8.0 if quick else 20.0,
                          jobs=jobs, checkpoint_dir=tmp)
        )
    _log("verify: oracle serve-vs-direct...")
    with tempfile.TemporaryDirectory(prefix="repro-verify-serve-") as tmp:
        report.oracles.append(
            oracle_serve(context, max_time=8.0 if quick else 20.0,
                         cache_dir=tmp)
        )
    _log("verify: oracle serve-chaos-vs-direct...")
    with tempfile.TemporaryDirectory(prefix="repro-verify-serve-") as tmp:
        report.oracles.append(
            oracle_serve_chaos(context, max_time=8.0 if quick else 20.0,
                               cache_dir=tmp)
        )
    _log("verify: oracle rack-bank-vs-scalar...")
    report.oracles.append(
        oracle_rack(max_time=80.0 if quick else 160.0)
    )
    _log("verify: oracle rack-resume-vs-fresh...")
    with tempfile.TemporaryDirectory(prefix="repro-verify-rack-") as tmp:
        report.oracles.append(
            oracle_rack_resume(max_time=120.0 if quick else 240.0,
                               jobs=jobs, checkpoint_dir=tmp)
        )
    _log("verify: oracle cache-vs-fresh...")
    with tempfile.TemporaryDirectory(prefix="repro-verify-cache-") as tmp:
        report.oracles.append(
            oracle_cache(tmp, samples=24 if quick else 48)
        )
    _log("verify: oracle lqg-vs-textbook...")
    report.oracles.append(oracle_lqg_reference())
    for oracle in report.oracles:
        _log("verify: " + oracle.render().splitlines()[0])

    # --- pillar 3: golden traces ----------------------------------------
    context = golden_context(context)
    if regen_golden:
        _log("verify: regenerating golden traces...")
        report.regenerated = regen_goldens(context, golden_dir, log=_log)
        _log("verify: regenerating rack golden traces...")
        report.regenerated.extend(regen_rack_goldens(golden_dir, log=_log))
    else:
        _log("verify: comparing golden traces...")
        report.golden = verify_goldens(context, golden_dir)
        _log("verify: comparing golden traces (banked --batch path)...")
        batched = verify_goldens(context, golden_dir, batched=True)
        report.golden.update({
            f"{cell} [batch]": mismatches
            for cell, mismatches in batched.items()
        })
        _log("verify: comparing rack golden traces...")
        report.golden.update(verify_rack_goldens(golden_dir))

    report.elapsed = time.perf_counter() - t0
    return report
