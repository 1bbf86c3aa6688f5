"""System norms: H2, H-infinity, and frequency-gridded singular values.

The H-infinity norm is the workhorse of the robust stack: synthesis results
are *validated* by computing the achieved closed-loop norm rather than
trusting the synthesis formulas.  We therefore implement both a fast
bisection based on Hamiltonian / symplectic eigenvalue tests and a gridded
fallback that is immune to the edge cases of the eigenvalue test.
"""

from __future__ import annotations

import numpy as np

from .lyapunov import controllability_gramian
from .statespace import StateSpace, grid_chunks

__all__ = [
    "h2_norm",
    "hinf_norm",
    "frequency_grid",
    "singular_value_plot",
    "linf_norm_grid",
]


def h2_norm(system: StateSpace):
    """H2 norm of a stable, strictly proper (continuous) or proper (discrete) system."""
    if not system.is_stable():
        return np.inf
    if not system.is_discrete and np.any(system.D != 0.0):
        return np.inf
    gram = controllability_gramian(system)
    value = np.trace(system.C @ gram @ system.C.T)
    if system.is_discrete:
        value += np.trace(system.D @ system.D.T)
    return float(np.sqrt(max(value, 0.0)))


def frequency_grid(system: StateSpace, points=400):
    """A log-spaced frequency grid adapted to the system's pole locations."""
    poles = system.poles()
    if system.is_discrete:
        nyquist = np.pi / system.dt
        low = nyquist * 1e-4
        return np.logspace(np.log10(low), np.log10(nyquist * 0.999), points)
    magnitudes = np.abs(poles[np.abs(poles) > 1e-12]) if poles.size else np.array([])
    low = 0.01 * magnitudes.min() if magnitudes.size else 1e-3
    high = 100.0 * magnitudes.max() if magnitudes.size else 1e3
    return np.logspace(np.log10(low), np.log10(high), points)


def singular_value_plot(system: StateSpace, omegas=None):
    """Maximum singular value of the transfer matrix over a frequency grid."""
    if omegas is None:
        omegas = frequency_grid(system)
    omegas = np.asarray(omegas)
    gains = np.empty(len(omegas))
    for chunk in grid_chunks(len(omegas)):
        responses = system.at_frequencies(omegas[chunk])
        gains[chunk] = np.linalg.svd(responses, compute_uv=False)[:, 0]
    return omegas, gains


# Below this peak the Frobenius norms' squares could underflow, so the
# SVD-skipping bound in linf_norm_grid is not trusted.
_SKIP_FLOOR = 1e-100


def linf_norm_grid(system: StateSpace, points=600):
    """Peak gain over a frequency grid (cheap lower bound on the Hinf norm)."""
    omegas = frequency_grid(system, points)
    if system.is_discrete:
        omegas = np.append(omegas, 0.0)  # include DC explicitly
    peak = 0.0
    for chunk in grid_chunks(len(omegas)):
        responses = system.at_frequencies(omegas[chunk])
        if peak > _SKIP_FLOOR:
            # sigma_max <= Frobenius norm: a point whose norm is clearly
            # below the running peak cannot raise it, so its SVD is
            # skipped (a NaN norm keeps the point).
            frobenius = np.linalg.norm(responses, axis=(1, 2))
            responses = responses[~(frobenius * (1.0 + 1e-6) < peak)]
        gains = np.linalg.svd(responses, compute_uv=False)[:, 0]
        # fmax skips a NaN gain, as a running max() does; np.max would
        # propagate it.
        peak = np.fmax.reduce(gains, initial=peak)
    return float(peak)


def _has_unit_circle_eigs(A, B, C, D, gamma, dt):
    """Symplectic-pencil test: does the discrete system hit gain gamma?"""
    m = B.shape[1]
    p = C.shape[0]
    n = A.shape[0]
    R = gamma * gamma * np.eye(m) - D.T @ D
    try:
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        return True
    # Build the symplectic pencil (Hinf characterization, e.g. Hung 1989).
    S = gamma * gamma * np.eye(p) - D @ D.T
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        return True
    E = np.block(
        [
            [np.eye(n), -B @ R_inv @ B.T],
            [np.zeros((n, n)), (A + B @ R_inv @ D.T @ C).T],
        ]
    )
    F = np.block(
        [
            [A + B @ R_inv @ D.T @ C, np.zeros((n, n))],
            [-C.T @ S_inv @ C, np.eye(n)],
        ]
    )
    try:
        from scipy.linalg import eig

        eigvals = eig(F, E, right=False)
    except Exception:  # pragma: no cover - LAPACK failure fallback
        return True
    finite = eigvals[np.isfinite(eigvals)]
    return bool(np.any(np.abs(np.abs(finite) - 1.0) < 1e-7))


def _hamiltonian_has_imag_eigs(A, B, C, D, gamma):
    """Hamiltonian test for continuous-time systems (Boyd-Balakrishnan)."""
    m = B.shape[1]
    R = gamma * gamma * np.eye(m) - D.T @ D
    try:
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        return True
    H11 = A + B @ R_inv @ D.T @ C
    H12 = B @ R_inv @ B.T
    H21 = -C.T @ (np.eye(C.shape[0]) + D @ R_inv @ D.T) @ C
    H = np.block([[H11, H12], [H21, -H11.T]])
    eigvals = np.linalg.eigvals(H)
    return bool(np.any(np.abs(eigvals.real) < 1e-7 * max(1.0, np.max(np.abs(eigvals)))))


def hinf_norm(system: StateSpace, tol=1e-4, max_iter=80):
    """H-infinity norm of a stable system via bisection.

    Returns ``inf`` for unstable systems.  The bisection bracket is seeded by
    a gridded peak-gain lower bound; the eigenvalue test refines it.
    """
    if not system.is_stable():
        return np.inf
    if system.n_states == 0:
        if system.D.size == 0:
            return 0.0
        return float(np.linalg.svd(system.D, compute_uv=False)[0])
    lower = max(linf_norm_grid(system), 1e-12)
    upper = 2.0 * lower + 1.0
    # Grow the upper bracket until the gain test passes.
    for _ in range(60):
        if system.is_discrete:
            crosses = _has_unit_circle_eigs(
                system.A, system.B, system.C, system.D, upper, system.dt
            )
        else:
            crosses = _hamiltonian_has_imag_eigs(
                system.A, system.B, system.C, system.D, upper
            )
        if not crosses:
            break
        upper *= 2.0
    else:
        return float(lower)
    for _ in range(max_iter):
        if upper - lower <= tol * max(1.0, lower):
            break
        mid = 0.5 * (lower + upper)
        if system.is_discrete:
            crosses = _has_unit_circle_eigs(
                system.A, system.B, system.C, system.D, mid, system.dt
            )
        else:
            crosses = _hamiltonian_has_imag_eigs(
                system.A, system.B, system.C, system.D, mid
            )
        if crosses:
            lower = mid
        else:
            upper = mid
    return float(0.5 * (lower + upper))
