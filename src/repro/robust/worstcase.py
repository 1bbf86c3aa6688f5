"""Worst-case uncertainty analysis.

The SSV upper bound says what the controller *tolerates*; this module goes
the other way and *constructs* bad perturbations:

* :func:`worst_case_delta` — search (randomized + coordinate polish) for
  the structured, norm-bounded Delta that maximizes the perturbed
  closed-loop gain at a frequency;
* :func:`worst_case_gain` — sweep that search over frequency to estimate
  the worst-case closed-loop H-infinity norm inside the declared guardband
  (MATLAB's ``wcgain`` analogue);
* :func:`destabilizing_radius` — the smallest uniform Delta scaling that
  destabilizes the loop, i.e. 1/mu at the critical frequency, verified by
  closing the constructed Delta around the state-space loop.

These are what let the repo *test* the guardband semantics instead of
merely asserting them: a perturbation inside the guardband must keep the
verified loop stable; the constructed destabilizing one (outside) must not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lti import StateSpace, lft_upper, matrix_lft_upper, PartitionedSystem
from .uncertainty import BlockStructure

__all__ = [
    "worst_case_delta",
    "worst_case_gain",
    "destabilizing_radius",
    "WorstCaseResult",
]


def _structured_from_flat(structure: BlockStructure, blocks):
    delta = np.zeros((structure.total_cols, structure.total_rows), dtype=complex)
    r = c = 0
    for block, value in zip(structure.blocks, blocks):
        delta[c : c + block.cols, r : r + block.rows] = value
        r += block.rows
        c += block.cols
    return delta


def worst_case_delta(M, structure: BlockStructure, n_d, n_f, radius=1.0,
                     samples=150, polish_iterations=40, seed=0):
    """Find a structured Delta (each block norm <= radius) maximizing the
    perturbed gain ``sigma_max(F_u(M, Delta))`` for a constant matrix M.

    ``M`` maps [d; w] -> [f; z] with the perturbation ports first.
    Returns ``(delta, gain)``.
    """
    M = np.asarray(M, dtype=complex)
    rng = np.random.default_rng(seed)

    def gain_of(delta):
        try:
            closed = matrix_lft_upper(M, delta, n_d=n_d, n_f=n_f)
        except np.linalg.LinAlgError:
            return np.inf
        if not np.all(np.isfinite(closed)):
            return np.inf
        return float(np.linalg.svd(closed, compute_uv=False)[0])

    best_delta = np.zeros((n_d, n_f), dtype=complex)
    best_gain = gain_of(best_delta)
    # Randomized search over boundary perturbations (worst case sits on the
    # boundary of the uncertainty ball for rank-one-ish problems).
    for _ in range(samples):
        delta = structure.random_sample(rng, radius=radius)
        # Push blocks to the boundary.
        scaled = []
        r = c = 0
        for block in structure.blocks:
            sub = delta[c : c + block.cols, r : r + block.rows]
            norm = np.linalg.svd(sub, compute_uv=False)[0] if sub.size else 1.0
            scaled.append(sub / max(norm, 1e-12) * radius)
            r += block.rows
            c += block.cols
        delta = _structured_from_flat(structure, scaled)
        gain = gain_of(delta)
        if np.isfinite(gain) and gain > best_gain:
            best_gain = gain
            best_delta = delta
    # Coordinate polish: random phase/direction tweaks on the best found.
    step = 0.4
    for _ in range(polish_iterations):
        tweak = structure.random_sample(rng, radius=step * radius)
        candidate = best_delta + tweak
        # Renormalize blocks onto the boundary.
        scaled = []
        r = c = 0
        for block in structure.blocks:
            sub = candidate[c : c + block.cols, r : r + block.rows]
            norm = np.linalg.svd(sub, compute_uv=False)[0] if sub.size else 1.0
            scaled.append(sub / max(norm, 1e-12) * radius)
            r += block.rows
            c += block.cols
        candidate = _structured_from_flat(structure, scaled)
        gain = gain_of(candidate)
        if np.isfinite(gain) and gain > best_gain:
            best_gain = gain
            best_delta = candidate
        else:
            step *= 0.8
    return best_delta, best_gain


@dataclass
class WorstCaseResult:
    """Outcome of a worst-case gain sweep."""

    nominal_peak: float
    worst_gain: float
    worst_omega: float
    worst_delta: np.ndarray

    @property
    def degradation(self):
        """Worst-case over nominal gain ratio within the guardband."""
        return self.worst_gain / max(self.nominal_peak, 1e-12)

    def summary(self):
        return (
            f"worst-case gain {self.worst_gain:.3f} at w={self.worst_omega:.4f} "
            f"rad/s (nominal peak {self.nominal_peak:.3f}, degradation "
            f"x{self.degradation:.2f})"
        )


def worst_case_gain(channel: StateSpace, structure: BlockStructure, n_d, n_f,
                    radius=1.0, points=30, samples=60, seed=0):
    """Estimate the worst-case gain of the performance channel over all
    structured perturbations of norm <= radius (lower bound by construction).

    ``channel`` maps [d; w] -> [f; z]; the performance gain is measured on
    the LFT-closed w -> z map.
    """
    from ..lti import frequency_grid, grid_chunks

    omegas = frequency_grid(channel, points)
    nominal_peak = 0.0
    worst = (0.0, omegas[0], np.zeros((n_d, n_f), dtype=complex))
    for chunk in grid_chunks(len(omegas)):
        Ms = channel.at_frequencies(omegas[chunk])
        nominal = np.linalg.svd(Ms[:, n_f:, n_d:], compute_uv=False)
        if nominal.shape[1]:
            # fmax skips a NaN gain, as a running max() does.
            nominal_peak = np.fmax.reduce(nominal[:, 0], initial=nominal_peak)
        for i, M in enumerate(Ms, start=chunk.start):
            delta, gain = worst_case_delta(
                M, structure, n_d, n_f, radius=radius, samples=samples,
                polish_iterations=15, seed=seed + i,
            )
            if np.isfinite(gain) and gain > worst[0]:
                worst = (gain, float(omegas[i]), delta)
    return WorstCaseResult(float(nominal_peak), worst[0], worst[1], worst[2])


def destabilizing_radius(channel: StateSpace, structure: BlockStructure,
                         mu_analysis=None, points=30, verify=True):
    """Smallest uniform scaling of the declared Delta that can destabilize.

    By the main loop theorem this is ``1 / peak mu`` of the perturbation
    channel.  With ``verify=True`` a constant real-ified Delta at the
    critical frequency is closed around the loop to confirm instability
    appears near that radius (within a factor-two band: the constructed
    constant Delta is a lower-bound certificate, not exact).
    """
    from .ssv import mu_bounds_over_frequency

    if mu_analysis is None:
        mu_analysis = mu_bounds_over_frequency(channel, structure, points=points)
    radius = 1.0 / max(mu_analysis.peak_upper, 1e-12)
    certified = None
    if verify:
        certified = _verify_destabilization(channel, structure, radius)
    return radius, mu_analysis, certified


def _verify_destabilization(channel, structure, radius, max_scale=8.0):
    """Find a real constant structured Delta that destabilizes the loop.

    Returns the scaling (relative to ``radius``) at which instability was
    certified, or None if none was found up to ``max_scale``.
    """
    n_f = structure.total_rows
    n_d = structure.total_cols
    rng = np.random.default_rng(0)
    scale = 1.0
    while scale <= max_scale:
        for _ in range(40):
            delta = structure.random_sample(rng, radius=radius * scale).real
            from ..lti import static_gain

            delta_sys = static_gain(delta, dt=channel.dt)
            part = PartitionedSystem(channel, n_w=n_d, n_z=n_f)
            try:
                closed = lft_upper(part, delta_sys)
            except (ValueError, np.linalg.LinAlgError):
                return scale
            if not closed.is_stable(tol=1e-9):
                return scale
        scale *= 1.4
    return None
