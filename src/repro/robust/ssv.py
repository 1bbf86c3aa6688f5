"""Structured singular value (SSV / mu) bounds.

For a constant complex matrix ``M`` and a block structure ``Delta``, the SSV
is ``mu(M) = 1 / min{ sigma_max(Delta) : det(I - M Delta) = 0 }`` (Eq. 1 of
the paper, rearranged).  Exact computation is NP-hard; as in standard
practice we compute:

* an **upper bound** — ``min_D sigma_max(D M D^{-1})`` over block-compatible
  diagonal scalings, minimized by coordinate descent on log-scales seeded by
  an Osborne-style balancing pass;
* a **lower bound** — the largest spectral radius ``rho(M U)`` found over
  randomized structured unitary perturbations (a randomized stand-in for the
  Packard-Doyle power iteration, cheap and good enough for validation).

System-level robustness is assessed by sweeping these bounds over a
frequency grid of the closed loop's perturbation channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lti import StateSpace, frequency_grid, grid_chunks
from .uncertainty import BlockStructure

__all__ = [
    "mu_upper_bound",
    "mu_upper_bounds",
    "mu_lower_bound",
    "mu_bounds_over_frequency",
    "MuAnalysis",
]


def _scaled_norms(Ms, structure, log_scales):
    """``sigma_max(D_left M D_right^-1)``, stacked over leading dimensions."""
    d_left, d_right_inv = structure.scaling_matrices(log_scales)
    return np.linalg.svd(d_left @ Ms @ d_right_inv, compute_uv=False)[..., 0]


def _osborne_seed(M, structure):
    """Log-scales balancing the block row/column norms of one matrix."""
    log_scales = np.zeros(len(structure))
    norms = [
        (np.linalg.norm(M[row_sl, :]), np.linalg.norm(M[:, col_sl]))
        for _, row_sl, col_sl in structure.block_slices()
    ]
    for _ in range(10):
        for i, (row_base, col_base) in enumerate(norms):
            row_norm = row_base * np.exp(log_scales[i])
            col_norm = col_base * np.exp(-log_scales[i])
            if row_norm > 1e-14 and col_norm > 1e-14:
                log_scales[i] += 0.5 * (np.log(col_norm) - np.log(row_norm))
    log_scales -= log_scales[-1]  # pin the last block's scale
    return log_scales


def mu_upper_bounds(Ms, structure: BlockStructure, iterations=60):
    """D-scaled upper bounds of a ``(k, rows, cols)`` stack of matrices.

    Returns ``(bounds, log_scales)`` with shapes ``(k,)``/``(k, n_blocks)``.
    The coordinate descents run in lockstep: every trial is one stacked SVD
    over the matrices whose descent has not stopped yet, and each matrix
    keeps its own step and ``improved`` state, so row ``j`` is exactly
    what :func:`mu_upper_bound` returns for ``Ms[j]`` alone.
    """
    Ms = np.asarray(Ms, dtype=complex)
    if Ms.shape[1:] != (structure.total_rows, structure.total_cols):
        # mu convention: Delta maps f -> d, M maps d -> f, so M is rows x cols.
        raise ValueError(
            f"M shape {Ms.shape[1:]} does not match structure "
            f"({structure.total_rows}x{structure.total_cols})"
        )
    n_blocks = len(structure)
    log_scales = np.zeros((len(Ms), n_blocks))
    if n_blocks == 1:
        return np.linalg.svd(Ms, compute_uv=False)[:, 0], log_scales
    for j, M in enumerate(Ms):
        log_scales[j] = _osborne_seed(M, structure)
    best = _scaled_norms(Ms, structure, log_scales)
    # Coordinate descent with shrinking step.
    step = np.full(len(Ms), 0.5)
    active = np.arange(len(Ms))
    for _ in range(iterations):
        if not active.size:
            break
        M_act, scales = Ms[active], log_scales[active]
        low, steps = best[active], step[active]
        improved = np.zeros(active.size, dtype=bool)
        for i in range(n_blocks - 1):  # last scale pinned
            for direction in (+1.0, -1.0):
                trial = scales.copy()
                trial[:, i] += direction * steps
                value = _scaled_norms(M_act, structure, trial)
                better = value < low - 1e-12
                low[better] = value[better]
                scales[better] = trial[better]
                improved |= better
        best[active], log_scales[active] = low, scales
        steps[~improved] *= 0.5
        step[active] = steps
        active = active[steps >= 1e-4]
    return best, log_scales


def mu_upper_bound(M, structure: BlockStructure, iterations=60):
    """D-scaled upper bound on mu for a constant matrix.

    Returns ``(bound, log_scales)`` so callers (the D-K iteration) can reuse
    the optimal scalings.
    """
    M = np.asarray(M, dtype=complex)
    bounds, log_scales = mu_upper_bounds(M[None], structure, iterations)
    return float(bounds[0]), log_scales[0]


def _structured_unitaries(structure: BlockStructure, samples, seed):
    """``samples`` random structured unitaries drawn from ``default_rng(seed)``.

    With only full blocks the draws are one ``normal`` call, split in the
    order per-sample, per-block draws would take them, and each block's
    ``qr`` runs once over all samples.  A repeated block interleaves a
    ``uniform`` draw, so such structures draw sample by sample.
    """
    rng = np.random.default_rng(seed)
    U = np.zeros((samples, structure.total_cols, structure.total_rows), dtype=complex)
    if all(block.kind == "full" for block in structure.blocks):
        sizes = [block.cols * block.rows for block in structure.blocks]
        draws = rng.normal(size=(samples, 2 * sum(sizes)))
        offset = 0
        for (block, row_sl, col_sl), size in zip(structure.block_slices(), sizes):
            shape = (samples, block.cols, block.rows)
            real = draws[:, offset : offset + size].reshape(shape)
            imag = draws[:, offset + size : offset + 2 * size].reshape(shape)
            q, _ = np.linalg.qr(real + 1j * imag)
            U[:, col_sl, row_sl] = q[:, : block.cols, : block.rows]
            offset += 2 * size
        return U
    for u in U:
        for block, row_sl, col_sl in structure.block_slices():
            if block.kind == "repeated":
                phase = np.exp(2j * np.pi * rng.uniform())
                u[col_sl, row_sl] = phase * np.eye(block.rows)
            else:
                raw = rng.normal(size=(block.cols, block.rows)) + 1j * rng.normal(
                    size=(block.cols, block.rows)
                )
                q, _ = np.linalg.qr(raw)
                u[col_sl, row_sl] = q[: block.cols, : block.rows]
    return U


def mu_lower_bound(M, structure: BlockStructure, samples=60, seed=0):
    """Randomized lower bound: max spectral radius over structured unitaries."""
    M = np.asarray(M, dtype=complex)
    U = _structured_unitaries(structure, samples, seed)
    radii = np.max(np.abs(np.linalg.eigvals(M @ U)), axis=-1)
    # Folds like a running max() from 0: a NaN radius is skipped and no
    # samples give 0, where np.max would propagate or raise.
    return float(np.fmax.reduce(radii, initial=0.0))


@dataclass
class MuAnalysis:
    """mu bounds of a perturbation channel swept over frequency."""

    omegas: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    peak_upper: float
    peak_omega: float
    scales_at_peak: np.ndarray
    scales: np.ndarray = None  # (n_freq, n_blocks) optimal log-scales

    @property
    def robust(self):
        """Whether the SSV condition mu <= 1 holds at every grid point."""
        return bool(self.peak_upper <= 1.0)

    def tolerated_fraction(self):
        """Largest uniform scaling of the declared Delta that is tolerated.

        This is the paper's min(s): values above 1 mean the requested
        guardband/bounds/weights are met with margin.
        """
        return float(1.0 / max(self.peak_upper, 1e-12))


def mu_bounds_over_frequency(
    channel: StateSpace,
    structure: BlockStructure,
    omegas=None,
    points=60,
    lower_samples=20,
):
    """Sweep mu bounds of an LTI perturbation channel over frequency.

    ``channel`` maps the perturbation inputs d to the perturbation outputs f
    (plus, for robust performance, the performance channel folded in as one
    more full block in ``structure``).
    """
    if omegas is None:
        omegas = frequency_grid(channel, points)
        omegas = np.concatenate([[omegas[0] * 0.1], omegas])
    omegas = np.asarray(omegas)
    uppers = np.zeros(len(omegas))
    lowers = np.zeros(len(omegas))
    all_scales = np.zeros((len(omegas), len(structure)))
    for chunk in grid_chunks(len(omegas)):
        Ms = channel.at_frequencies(omegas[chunk])
        uppers[chunk], all_scales[chunk] = mu_upper_bounds(Ms, structure)
        for i, M in enumerate(Ms, start=chunk.start):
            lowers[i] = mu_lower_bound(M, structure, samples=lower_samples, seed=i)
    best_scales = None
    peak = -np.inf
    peak_omega = omegas[0]
    for i, upper in enumerate(uppers):
        if upper > peak:
            peak = upper
            peak_omega = omegas[i]
            best_scales = all_scales[i].copy()
    return MuAnalysis(
        omegas, uppers, lowers, float(peak), float(peak_omega),
        best_scales, all_scales,
    )
