"""Core performance model.

A thread's instruction rate on a core follows a two-term latency model:

``seconds/instruction = cpi_execute / f  +  exposed_memory_stall``

where the execute term scales with frequency and the memory term is a
constant wall-clock cost per instruction (misses/instruction x DRAM latency
x the fraction of latency the core cannot hide).  This gives the classic
behaviour the controllers must cope with: compute-bound code scales with
frequency while memory-bound code saturates — which is why a formal
optimizer finds lower-energy operating points that heuristics miss.

Threads sharing a core time-multiplex it equally.  A cluster-wide memory
bandwidth cap (saturating) adds cross-core contention.
"""

from __future__ import annotations

import numpy as np

from .specs import ClusterSpec

__all__ = ["thread_rate_gips", "core_execution", "memory_traffic_gbs"]

_CACHE_LINE_BYTES = 64.0


def _sum_small(values):
    """Bit-exact sum of a small sequence, without NumPy dispatch overhead.

    ``np.sum`` accumulates sequentially (left to right) below its 8-element
    pairwise/unrolled threshold, so a plain Python loop reproduces it
    bit-for-bit there — and a 1-element-at-a-time loop costs ~20x less than
    a ufunc dispatch.  At >= 8 elements NumPy's 8-way unrolled reduction
    reassociates, so we must fall back to ``np.sum`` itself to preserve the
    historical bit pattern.  Pinned by tests/test_board_bank.py.
    """
    if len(values) < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    return float(np.sum(values))


def thread_rate_gips(cluster: ClusterSpec, freq_ghz, phase, mem_latency_ns,
                     time_share=1.0, bandwidth_scale=1.0):
    """Instruction rate (giga-instructions/s) of one thread on a core.

    ``time_share`` is the fraction of core time the thread receives when the
    core is shared; ``bandwidth_scale`` (<= 1) models DRAM contention.
    """
    if freq_ghz <= 0 or time_share <= 0:
        return 0.0
    cpi = cluster.cpi_execute * phase.cpi_scale
    exec_ns = cpi / freq_ghz
    mem_ns = (phase.mpki / 1000.0) * mem_latency_ns * cluster.mem_stall_factor
    mem_ns /= max(bandwidth_scale, 1e-3)
    return time_share / (exec_ns + mem_ns)


def core_execution(cluster: ClusterSpec, freq_ghz, threads_phases, dt,
                   mem_latency_ns, bandwidth_scale=1.0):
    """Execute one simulator step on a single core.

    Parameters
    ----------
    threads_phases:
        List of ``(thread, phase)`` pairs currently placed on this core.
    bandwidth_scale:
        <= 1; throttle applied by the cluster-level bandwidth model.

    Returns
    -------
    ``(work, busy_fraction, activity)`` where ``work`` is a list of
    giga-instructions executed per thread, ``busy_fraction`` is the fraction
    of the step the core was busy, and ``activity`` is the
    switching-activity factor for the power model (stall cycles switch less).
    A zero-length step (a hotplug stall that drains the whole tick) does
    no work and keeps the core idle.
    """
    if not threads_phases or freq_ghz <= 0:
        return [], 0.0, 0.0
    if dt <= 0:
        return [0.0] * len(threads_phases), 0.0, 0.0
    n = len(threads_phases)
    share = 1.0 / n
    work = []
    total_active_ns = 0.0
    total_exec_ns = 0.0
    for thread, phase in threads_phases:
        available = dt * share
        # Migration penalty eats into this thread's share.
        if thread.migration_stall > 0:
            stall = min(thread.migration_stall, available)
            thread.migration_stall -= stall
            available -= stall
        cpi = cluster.cpi_execute * phase.cpi_scale
        exec_ns = cpi / freq_ghz
        mem_ns = (phase.mpki / 1000.0) * mem_latency_ns * cluster.mem_stall_factor
        mem_ns /= max(bandwidth_scale, 1e-3)
        ns_per_inst = exec_ns + mem_ns
        rate_gips = 1.0 / ns_per_inst  # giga-instructions per second
        done = rate_gips * available
        work.append(done)
        total_active_ns += available * 1e9
        total_exec_ns += done * exec_ns * 1e9
    share_dt = dt / n
    busy_sum = 0.0
    for _ in range(n):
        busy_sum += share_dt
    busy = min(busy_sum, dt) / dt
    # Activity: fraction of busy time actually switching (executing), scaled
    # by the phase's intrinsic activity factor.  _sum_small / min / max
    # reproduce np.mean / np.clip bit-for-bit (see _sum_small).
    mean_activity = _sum_small([p.activity for _, p in threads_phases]) / n
    exec_fraction = total_exec_ns / max(total_active_ns, 1e-30)
    if exec_fraction < 0.05:
        exec_fraction = 0.05
    elif exec_fraction > 1.0:
        exec_fraction = 1.0
    activity = float(mean_activity * exec_fraction)
    return work, busy, activity


def memory_traffic_gbs(threads_phases_rates):
    """Aggregate DRAM traffic (GB/s) from (phase, rate_gips) pairs."""
    traffic = 0.0
    for phase, rate_gips in threads_phases_rates:
        misses_per_s = (phase.mpki / 1000.0) * rate_gips * 1e9
        traffic += misses_per_s * _CACHE_LINE_BYTES / 1e9
    return traffic
