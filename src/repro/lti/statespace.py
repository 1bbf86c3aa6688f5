"""Linear time-invariant state-space systems.

This module is the numerical foundation of the repository.  It provides a
:class:`StateSpace` type for both continuous-time and discrete-time systems,
plus the interconnections (series, parallel, feedback, linear fractional
transformations) that robust-control synthesis is built from.

The conventions follow Skogestad & Postlethwaite, *Multivariable Feedback
Control*:

* continuous time:  ``dx/dt = A x + B u``,  ``y = C x + D u``
* discrete time:    ``x[k+1] = A x[k] + B u[k]``,  ``y[k] = C x[k] + D u[k]``

A discrete system carries its sampling period ``dt``; continuous systems have
``dt is None``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "StateSpace",
    "ss",
    "series",
    "parallel",
    "feedback",
    "append",
    "static_gain",
    "grid_chunks",
]


def _as_2d(matrix, rows=None, cols=None, name="matrix"):
    """Coerce ``matrix`` to a float 2-D array, validating its shape."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    return arr


class StateSpace:
    """A (possibly MIMO) linear time-invariant system in state-space form.

    Parameters
    ----------
    A, B, C, D:
        System matrices.  ``D`` may be given as ``None`` for a zero
        feed-through of the appropriate shape.
    dt:
        ``None`` for a continuous-time system, or a positive sampling
        period in seconds for a discrete-time system.
    """

    def __init__(self, A, B, C, D=None, dt=None):
        A = _as_2d(A, name="A")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        B = _as_2d(B, rows=n, name="B") if n else np.zeros((0, np.atleast_2d(B).shape[1]))
        C = _as_2d(C, cols=n, name="C") if n else np.zeros((np.atleast_2d(C).shape[0], 0))
        m = B.shape[1]
        p = C.shape[0]
        if D is None:
            D = np.zeros((p, m))
        D = _as_2d(D, rows=p, cols=m, name="D")
        if dt is not None and dt <= 0:
            raise ValueError(f"dt must be positive or None, got {dt}")
        self.A = A
        self.B = B
        self.C = C
        self.D = D
        self.dt = dt

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_states(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    @property
    def is_discrete(self):
        return self.dt is not None

    def poles(self):
        """Eigenvalues of ``A``."""
        if self.n_states == 0:
            return np.array([])
        return np.linalg.eigvals(self.A)

    def is_stable(self, tol=1e-9):
        """Whether the system is internally (asymptotically) stable."""
        if self.n_states == 0:
            return True
        poles = self.poles()
        if self.is_discrete:
            return bool(np.max(np.abs(poles)) < 1.0 - tol)
        return bool(np.max(poles.real) < -tol)

    def spectral_radius(self):
        """Spectral radius of ``A`` (useful for discrete stability margins)."""
        if self.n_states == 0:
            return 0.0
        return float(np.max(np.abs(self.poles())))

    # ------------------------------------------------------------------
    # Evaluation and simulation
    # ------------------------------------------------------------------
    def frequency_response(self, s):
        """Evaluate the transfer matrix at one complex frequency point.

        For discrete systems pass ``z`` (a point on or near the unit circle);
        for continuous systems pass ``s`` (a point on the imaginary axis).
        """
        n = self.n_states
        if n == 0:
            return self.D.astype(complex)
        resolvent = np.linalg.solve(s * np.eye(n) - self.A, self.B)
        return self.C @ resolvent + self.D

    def at_frequency(self, omega):
        """Transfer matrix at angular frequency ``omega`` (rad/s)."""
        if self.is_discrete:
            return self.frequency_response(np.exp(1j * omega * self.dt))
        return self.frequency_response(1j * omega)

    def at_frequencies(self, omegas):
        """Transfer matrices at a stack of angular frequencies, ``(k, p, m)``.

        One stacked ``solve`` runs the same per-matrix LAPACK routine as
        :meth:`frequency_response`, so slice ``i`` equals
        ``at_frequency(omegas[i])`` bit for bit.  Callers sweeping a long
        grid take it :func:`grid_chunks` at a time.
        """
        omegas = np.asarray(omegas, dtype=float)
        points = np.exp(1j * omegas * self.dt) if self.is_discrete else 1j * omegas
        n = self.n_states
        if n == 0:
            return np.repeat(self.D.astype(complex)[None], points.size, axis=0)
        # ``s * np.eye(n) - A`` for every point, the same products and
        # differences, with the subtraction done in place.
        pencils = np.multiply.outer(points, np.eye(n, dtype=complex))
        pencils -= self.A
        resolvents = np.linalg.solve(
            pencils, np.broadcast_to(self.B, (points.size,) + self.B.shape)
        )
        return self.C @ resolvents + self.D

    def dc_gain(self):
        """Steady-state gain matrix (z=1 for discrete, s=0 for continuous)."""
        point = 1.0 if self.is_discrete else 0.0
        return self.frequency_response(point + 0j).real

    def step(self, x, u):
        """Advance a discrete system one step: returns ``(x_next, y)``."""
        if not self.is_discrete:
            raise ValueError("step() is only defined for discrete-time systems")
        x = np.asarray(x, dtype=float).reshape(self.n_states)
        u = np.asarray(u, dtype=float).reshape(self.n_inputs)
        y = self.C @ x + self.D @ u
        x_next = self.A @ x + self.B @ u
        return x_next, y

    def simulate(self, u_sequence, x0=None):
        """Simulate a discrete system over an input sequence.

        Parameters
        ----------
        u_sequence:
            Array of shape ``(T, n_inputs)``.
        x0:
            Initial state (defaults to zero).

        Returns
        -------
        ``(x_trajectory, y_trajectory)`` with shapes ``(T+1, n)``/``(T, p)``.
        """
        if not self.is_discrete:
            raise ValueError("simulate() is only defined for discrete systems")
        u_sequence = np.atleast_2d(np.asarray(u_sequence, dtype=float))
        if u_sequence.shape[1] != self.n_inputs:
            raise ValueError(
                f"input sequence has {u_sequence.shape[1]} channels, "
                f"system expects {self.n_inputs}"
            )
        steps = u_sequence.shape[0]
        x = np.zeros(self.n_states) if x0 is None else np.asarray(x0, float).copy()
        xs = np.zeros((steps + 1, self.n_states))
        ys = np.zeros((steps, self.n_outputs))
        xs[0] = x
        for k in range(steps):
            x, y = self.step(x, u_sequence[k])
            xs[k + 1] = x
            ys[k] = y
        return xs, ys

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def discretize(self, dt, method="zoh"):
        """Discretize a continuous system (zero-order hold or Tustin)."""
        if self.is_discrete:
            raise ValueError("system is already discrete")
        n = self.n_states
        if method == "zoh":
            from scipy.linalg import expm

            # Van Loan block-matrix exponential for exact ZOH.
            block = np.zeros((n + self.n_inputs, n + self.n_inputs))
            block[:n, :n] = self.A * dt
            block[:n, n:] = self.B * dt
            exp_block = expm(block)
            Ad = exp_block[:n, :n]
            Bd = exp_block[:n, n:]
            return StateSpace(Ad, Bd, self.C, self.D, dt=dt)
        if method == "tustin":
            eye = np.eye(n)
            alpha = dt / 2.0
            inv = np.linalg.inv(eye - alpha * self.A)
            Ad = inv @ (eye + alpha * self.A)
            Bd = inv @ self.B * dt
            Cd = self.C @ inv
            Dd = self.D + alpha * self.C @ inv @ self.B
            return StateSpace(Ad, Bd, Cd, Dd, dt=dt)
        raise ValueError(f"unknown discretization method {method!r}")

    def transpose(self):
        """Dual system (A', C', B', D')."""
        return StateSpace(self.A.T, self.C.T, self.B.T, self.D.T, dt=self.dt)

    def subsystem(self, outputs=None, inputs=None):
        """Select a subset of input/output channels (state is shared)."""
        out_idx = np.arange(self.n_outputs) if outputs is None else np.asarray(outputs)
        in_idx = np.arange(self.n_inputs) if inputs is None else np.asarray(inputs)
        return StateSpace(
            self.A,
            self.B[:, in_idx],
            self.C[out_idx, :],
            self.D[np.ix_(out_idx, in_idx)],
            dt=self.dt,
        )

    def similarity_transform(self, T):
        """Change of state coordinates ``x_new = T x``."""
        T = _as_2d(T, rows=self.n_states, cols=self.n_states, name="T")
        T_inv = np.linalg.inv(T)
        return StateSpace(
            T @ self.A @ T_inv, T @ self.B, self.C @ T_inv, self.D, dt=self.dt
        )

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _check_compatible(self, other):
        if self.dt != other.dt:
            raise ValueError(
                f"cannot combine systems with different dt ({self.dt} vs {other.dt})"
            )

    def __neg__(self):
        return StateSpace(self.A, self.B, -self.C, -self.D, dt=self.dt)

    def __add__(self, other):
        other = _coerce_system(other, like=self)
        self._check_compatible(other)
        if (self.n_inputs, self.n_outputs) != (other.n_inputs, other.n_outputs):
            raise ValueError("parallel connection requires matching dimensions")
        n1, n2 = self.n_states, other.n_states
        A = np.block(
            [
                [self.A, np.zeros((n1, n2))],
                [np.zeros((n2, n1)), other.A],
            ]
        )
        B = np.vstack([self.B, other.B])
        C = np.hstack([self.C, other.C])
        D = self.D + other.D
        return StateSpace(A, B, C, D, dt=self.dt)

    def __sub__(self, other):
        other = _coerce_system(other, like=self)
        return self + (-other)

    def __mul__(self, other):
        """Series connection ``self * other``: output of ``other`` feeds self."""
        other = _coerce_system(other, like=self)
        self._check_compatible(other)
        if self.n_inputs != other.n_outputs:
            raise ValueError(
                f"series connection mismatch: {self.n_inputs} inputs vs "
                f"{other.n_outputs} outputs"
            )
        n1, n2 = self.n_states, other.n_states
        A = np.block(
            [
                [self.A, self.B @ other.C],
                [np.zeros((n2, n1)), other.A],
            ]
        )
        B = np.vstack([self.B @ other.D, other.B])
        C = np.hstack([self.C, self.D @ other.C])
        D = self.D @ other.D
        return StateSpace(A, B, C, D, dt=self.dt)

    def __rmul__(self, other):
        other = _coerce_system(other, like=self)
        return other * self

    def __repr__(self):
        kind = f"dt={self.dt}" if self.is_discrete else "continuous"
        return (
            f"StateSpace(n={self.n_states}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs}, {kind})"
        )


def _coerce_system(value, like):
    """Turn scalars / matrices into static-gain systems matching ``like``."""
    if isinstance(value, StateSpace):
        return value
    gain = np.atleast_2d(np.asarray(value, dtype=float))
    if gain.shape == (1, 1):
        gain = gain[0, 0] * np.eye(like.n_outputs)
    return static_gain(gain, dt=like.dt)


# Frequencies per stacked evaluation.  Evaluating a whole 601-point grid
# of the SSV closed loops at once raised a cold design build's peak RSS
# from 76 to 92 MB; 32 at a time keeps it where the point-by-point loop
# had it (docs/PERFORMANCE.md).
_GRID_CHUNK = 32


def grid_chunks(count):
    """Slices covering ``range(count)`` in order, a bounded stack at a time."""
    return [slice(lo, min(lo + _GRID_CHUNK, count))
            for lo in range(0, count, _GRID_CHUNK)]


def ss(A, B, C, D=None, dt=None):
    """Convenience constructor for :class:`StateSpace`."""
    return StateSpace(A, B, C, D, dt=dt)


def static_gain(gain, dt=None):
    """A memoryless system ``y = G u``."""
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    p, m = gain.shape
    return StateSpace(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), gain, dt=dt)


def series(*systems):
    """Chain systems so the signal flows left to right: ``u -> s1 -> s2 ...``"""
    if not systems:
        raise ValueError("series() needs at least one system")
    result = systems[0]
    for sys_k in systems[1:]:
        result = sys_k * result
    return result


def parallel(*systems):
    """Sum of systems sharing the same input."""
    if not systems:
        raise ValueError("parallel() needs at least one system")
    result = systems[0]
    for sys_k in systems[1:]:
        result = result + sys_k
    return result


def feedback(forward, backward=None, sign=-1):
    """Close a loop around ``forward`` with ``backward`` in the return path.

    Computes ``forward (I - sign * backward * forward)^{-1}`` in transfer
    terms; ``sign=-1`` (default) gives classical negative feedback.
    """
    if backward is None:
        backward = static_gain(np.eye(forward.n_outputs), dt=forward.dt)
    backward = _coerce_system(backward, like=forward)
    forward._check_compatible(backward)
    if forward.n_outputs != backward.n_inputs or backward.n_outputs != forward.n_inputs:
        raise ValueError("feedback dimensions are inconsistent")
    D1, D2 = forward.D, backward.D
    loop_gain = np.eye(forward.n_inputs) - sign * D2 @ D1
    try:
        loop_inv = np.linalg.inv(loop_gain)
    except np.linalg.LinAlgError as exc:
        raise ValueError("algebraic loop: I - sign*D2*D1 is singular") from exc
    n1, n2 = forward.n_states, backward.n_states
    A1, B1, C1 = forward.A, forward.B, forward.C
    A2, B2, C2 = backward.A, backward.B, backward.C
    s = sign
    A = np.block(
        [
            [A1 + s * B1 @ loop_inv @ D2 @ C1, s * B1 @ loop_inv @ C2],
            [B2 @ (C1 + s * D1 @ loop_inv @ D2 @ C1), A2 + s * B2 @ D1 @ loop_inv @ C2],
        ]
    )
    B = np.vstack([B1 @ loop_inv, B2 @ D1 @ loop_inv])
    C = np.hstack([C1 + s * D1 @ loop_inv @ D2 @ C1, s * D1 @ loop_inv @ C2])
    D = D1 @ loop_inv
    return StateSpace(A, B, C, D, dt=forward.dt)


def append(*systems):
    """Block-diagonal concatenation: inputs and outputs are stacked."""
    if not systems:
        raise ValueError("append() needs at least one system")
    dt = systems[0].dt
    for sys_k in systems:
        if sys_k.dt != dt:
            raise ValueError("all systems must share the same dt")
    n = sum(s.n_states for s in systems)
    m = sum(s.n_inputs for s in systems)
    p = sum(s.n_outputs for s in systems)
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    C = np.zeros((p, n))
    D = np.zeros((p, m))
    i = j = k = 0
    for sys_k in systems:
        ni, mi, pi = sys_k.n_states, sys_k.n_inputs, sys_k.n_outputs
        A[i : i + ni, i : i + ni] = sys_k.A
        B[i : i + ni, j : j + mi] = sys_k.B
        C[k : k + pi, i : i + ni] = sys_k.C
        D[k : k + pi, j : j + mi] = sys_k.D
        i += ni
        j += mi
        k += pi
    return StateSpace(A, B, C, D, dt=dt)
