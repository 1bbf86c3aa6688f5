"""Board characterization: the training runs behind System Identification.

Implements the data-collection half of Sec. IV-C: run the training programs
on the (simulated) board while driving every actuated knob and every
external signal through excitation sequences, sampling all controller-
visible signals at the 500 ms control period.  The resulting
:class:`~repro.sysid.ExperimentData` records feed the model fits, and the
observed output ranges feed the deviation-bound scaling of Sec. IV-A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..board import BIG, LITTLE, Board
from ..sysid import ExperimentData, merge_experiments, multilevel_random
from ..workloads import make_application
from .layer import HW_OUTPUTS, SW_OUTPUTS

__all__ = ["CharacterizationResult", "characterize_board", "sample_signals"]


@dataclass
class CharacterizationResult:
    """Everything the two design teams extract from the training runs."""

    hw_data: ExperimentData
    hw_boundaries: list
    sw_data: ExperimentData
    sw_boundaries: list
    output_ranges: dict  # signal name -> (low, high)
    output_mids: dict
    joint_data: ExperimentData = None  # all 7 knobs -> all 7 outputs
    joint_boundaries: list = None

    def range_of(self, name):
        low, high = self.output_ranges[name]
        return high - low

    def mid_of(self, name):
        low, high = self.output_ranges[name]
        return 0.5 * (low + high)


def sample_signals(board: Board, period_steps):
    """Read the full controller-visible signal set after a control period."""
    dt = board.spec.sim_dt * period_steps
    bips_big = board.read_instructions_delta(BIG) / dt
    bips_little = board.read_instructions_delta(LITTLE) / dt
    placement = board.observe_placement()
    return {
        "bips_total": bips_big + bips_little,
        "bips_big": bips_big,
        "bips_little": bips_little,
        "power_big": board.read_power(BIG),
        "power_little": board.read_power(LITTLE),
        "temperature": board.read_temperature(),
        "n_threads_big": placement[BIG]["n_threads"],
        "tpc_big": max(placement[BIG]["threads_per_busy_core"], 1.0),
        "tpc_little": max(placement[LITTLE]["threads_per_busy_core"], 1.0),
        "delta_spare_capacity": (
            placement[BIG]["spare_capacity"] - placement[LITTLE]["spare_capacity"]
        ),
        "n_big_cores": board.clusters[BIG].cores_on,
        "n_little_cores": board.clusters[LITTLE].cores_on,
        "freq_big": board.clusters[BIG].frequency,
        "freq_little": board.clusters[LITTLE].frequency,
    }


def _excitation_seqs(spec, samples, seed, focus):
    """The per-knob excitation sequences of one training campaign.

    ``focus`` selects whose knobs get the informative excitation — each
    design team runs its own campaign (Fig. 3):

    * ``"hardware"`` — core counts and frequencies sweep their full ranges
      while the placement stays in the thread-rich regime a real scheduler
      produces (so core-count effects are identifiable);
    * ``"software"`` — the placement knobs sweep their full ranges while
      the hardware knobs stay in sane mid-to-high configurations.
    """
    big_levels = spec.big.freq_range.levels
    little_levels = spec.little.freq_range.levels
    if focus == "hardware":
        seqs = {
            "n_big": multilevel_random(samples, [1, 2, 3, 4], 6, seed=seed + 1),
            "n_little": multilevel_random(samples, [1, 2, 3, 4], 8, seed=seed + 2),
            "f_big": multilevel_random(samples, big_levels[4:], 4, seed=seed + 3),
            "f_little": multilevel_random(samples, little_levels[3:], 5, seed=seed + 4),
            "t_big": multilevel_random(samples, [4, 5, 6, 8], 11, seed=seed + 5),
            "tpc_b": multilevel_random(samples, [1, 1.5, 2], 13, seed=seed + 6),
            "tpc_l": multilevel_random(samples, [1, 1.5, 2], 14, seed=seed + 7),
        }
    elif focus == "software":
        seqs = {
            "n_big": multilevel_random(samples, [2, 3, 4], 12, seed=seed + 1),
            "n_little": multilevel_random(samples, [2, 3, 4], 13, seed=seed + 2),
            "f_big": multilevel_random(samples, big_levels[8:], 9, seed=seed + 3),
            "f_little": multilevel_random(samples, little_levels[6:], 10, seed=seed + 4),
            "t_big": multilevel_random(samples, [0, 2, 4, 6, 8], 5, seed=seed + 5),
            "tpc_b": multilevel_random(samples, [1, 1.5, 2, 3, 4], 6, seed=seed + 6),
            "tpc_l": multilevel_random(samples, [1, 1.5, 2, 3, 4], 7, seed=seed + 7),
        }
    else:
        raise ValueError(f"unknown focus {focus!r}")
    return seqs


def _actuate_sample(board, seqs, k):
    board.set_active_cores(BIG, int(seqs["n_big"][k]))
    board.set_active_cores(LITTLE, int(seqs["n_little"][k]))
    board.set_cluster_frequency(BIG, seqs["f_big"][k])
    board.set_cluster_frequency(LITTLE, seqs["f_little"][k])
    board.set_placement_knobs(seqs["t_big"][k], seqs["tpc_b"][k],
                              seqs["tpc_l"][k])


def _training_run(program, spec, samples, seed, focus):
    """One training program under excitation; returns per-sample signal rows.

    Reference (scalar) campaign loop; :func:`_training_runs_banked` runs
    the same campaigns bit-identically through a lockstep board bank.
    """
    board = Board(make_application(program), spec=spec, seed=seed, record=False)
    period_steps = spec.period_steps()
    seqs = _excitation_seqs(spec, samples, seed, focus)
    rows = []
    for k in range(samples):
        _actuate_sample(board, seqs, k)
        board.run_period(period_steps)
        rows.append(sample_signals(board, period_steps))
        if board.done:
            break
    return rows


def _training_runs_banked(spec, run_specs):
    """Run several excitation campaigns as one lockstep board bank.

    ``run_specs`` is a list of ``(program, samples, seed, focus)`` tuples;
    returns the per-campaign row lists, in order, bit-identical to calling
    :func:`_training_run` once per campaign: every board sees the exact
    same actuate → run_period → sample sequence it would see alone, the
    bank merely advances the periods in lockstep (and stops sampling a
    board the moment its program completes, like the scalar loop's
    early break).
    """
    from ..board.bank import BoardBank

    boards = [
        Board(make_application(program), spec=spec, seed=seed, record=False)
        for program, _, seed, _ in run_specs
    ]
    seqs = [
        _excitation_seqs(spec, samples, seed, focus)
        for _, samples, seed, focus in run_specs
    ]
    bank = BoardBank(boards)
    period_steps = spec.period_steps()
    rows = [[] for _ in run_specs]
    active = list(range(len(run_specs)))
    k = 0
    while active:
        selected = [i for i in active if k < run_specs[i][1]]
        if not selected:
            break
        for i in selected:
            _actuate_sample(boards[i], seqs[i], k)
        bank.run_period_bank(period_steps, only=selected)
        for i in selected:
            rows[i].append(sample_signals(boards[i], period_steps))
        active = [i for i in selected if not boards[i].done]
        k += 1
    return rows


def characterize_board(
    spec,
    programs=("swaptions", "vips", "astar", "perlbench", "milc", "namd"),
    samples_per_program=240,
    seed=1234,
    banked=True,
) -> CharacterizationResult:
    """Run the full training campaign and package the identification data.

    ``banked`` (the default) advances all ``2 x len(programs)`` excitation
    campaigns as one lockstep :class:`~repro.board.bank.BoardBank`; the
    rows — and therefore every downstream model fit and deviation bound —
    are bit-identical to the per-campaign scalar loop (``banked=False``,
    kept as the differential reference).  The excitation re-actuates
    cores and placement every control period; the bank runs each lane's
    stall tick on a one-tick plan inside the vector window and re-plans
    only the churned lane, which keeps the campaign >= 1.5x faster than the
    scalar loop at this default width (floor measured by
    ``benchmarks/bench_perf.py``).
    """
    hw_inputs = ["n_big_cores", "n_little_cores", "freq_big", "freq_little",
                 "n_threads_big", "tpc_big", "tpc_little"]
    sw_inputs = ["n_threads_big", "tpc_big", "tpc_little",
                 "n_big_cores", "n_little_cores", "freq_big", "freq_little"]
    if banked:
        run_specs = []
        for i, program in enumerate(programs):
            run_specs.append((program, samples_per_program,
                              seed + 1000 * i, "hardware"))
            run_specs.append((program, samples_per_program,
                              seed + 1000 * i + 500, "software"))
        banked_rows = _training_runs_banked(spec, run_specs)
    hw_runs = []
    sw_runs = []
    joint_runs = []
    all_rows = []
    for i, program in enumerate(programs):
        if banked:
            hw_rows = banked_rows[2 * i]
            sw_rows = banked_rows[2 * i + 1]
        else:
            hw_rows = _training_run(
                program, spec, samples_per_program, seed + 1000 * i,
                focus="hardware",
            )
            sw_rows = _training_run(
                program, spec, samples_per_program, seed + 1000 * i + 500,
                focus="software",
            )
        if len(hw_rows) >= 24:
            all_rows.extend(hw_rows)
            hw_u = np.array([[r[k] for k in hw_inputs] for r in hw_rows])
            hw_y = np.array([[r[k] for k in HW_OUTPUTS] for r in hw_rows])
            hw_runs.append(
                ExperimentData(hw_u, hw_y, spec.control_period, label=program)
            )
        if len(sw_rows) >= 24:
            all_rows.extend(sw_rows)
            sw_u = np.array([[r[k] for k in sw_inputs] for r in sw_rows])
            sw_y = np.array([[r[k] for k in SW_OUTPUTS] for r in sw_rows])
            sw_runs.append(
                ExperimentData(sw_u, sw_y, spec.control_period, label=program)
            )
        # A monolithic designer sees everything at once: all 7 knobs to all
        # 7 outputs, built from both campaigns' rows.
        joint_rows = hw_rows + sw_rows
        if len(joint_rows) >= 24:
            joint_u = np.array([[r[k] for k in hw_inputs] for r in joint_rows])
            joint_y = np.array(
                [[r[k] for k in list(HW_OUTPUTS) + list(SW_OUTPUTS)]
                 for r in joint_rows]
            )
            joint_runs.append(
                ExperimentData(joint_u, joint_y, spec.control_period, label=program)
            )
    if not hw_runs:
        raise RuntimeError("characterization produced no usable training runs")
    hw_data, hw_bounds = merge_experiments(hw_runs)
    sw_data, sw_bounds = merge_experiments(sw_runs)
    joint_data, joint_bounds = merge_experiments(joint_runs)
    ranges = {}
    mids = {}
    for name in set(HW_OUTPUTS) | set(SW_OUTPUTS):
        values = np.array([r[name] for r in all_rows])
        # Robust (percentile) range: a handful of extreme training samples
        # must not inflate an output's range, or the normalized tracking
        # errors on that output shrink into insignificance.
        low, high = (float(v) for v in np.percentile(values, [2.0, 98.0]))
        if high - low < 1e-6:
            high = low + 1.0
        ranges[name] = (low, high)
        mids[name] = 0.5 * (low + high)
    return CharacterizationResult(
        hw_data, hw_bounds, sw_data, sw_bounds, ranges, mids,
        joint_data, joint_bounds,
    )
