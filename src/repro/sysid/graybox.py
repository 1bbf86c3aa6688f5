"""Gray-box identification: static gain matrix behind per-output lags.

The board's sampled dynamics are dominated by static maps (performance and
power respond within a sample) seen through first-order lags (the windowed
power sensors, the thermal RC).  That structure — ``y_i`` following
``(G0 u)_i`` through a one-pole lag — is fit here by alternating least
squares:

1. estimate each output's pole from the partial autocorrelation of the
   output, given the current gain estimate;
2. filter the inputs through each output's lag and re-estimate the gain
   matrix row by ordinary least squares;
3. repeat.

Per-run centering removes program-specific offsets before fitting (merged
training runs have wildly different operating points), which is what keeps
the estimated DC gains unbiased where one-shot ARX fits are badly shrunk.
The result is a dimension-``n_y`` state-space model — the paper's
"dimension four" for the four-output hardware layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lti import StateSpace
from .experiment import ExperimentData

__all__ = ["GrayBoxModel", "fit_graybox", "center_per_run"]


@dataclass
class GrayBoxModel:
    """y_i[t+1] = a_i y_i[t] + (1 - a_i) (G0 u[t])_i."""

    gain: np.ndarray  # (n_y, n_u) static gain
    poles: np.ndarray  # (n_y,) in [0, 1)
    dt: float
    residual_rms: np.ndarray = None

    @property
    def n_outputs(self):
        return self.gain.shape[0]

    @property
    def n_inputs(self):
        return self.gain.shape[1]

    def to_statespace(self):
        A = np.diag(self.poles)
        B = np.diag(1.0 - self.poles) @ self.gain
        C = np.eye(self.n_outputs)
        D = np.zeros_like(self.gain)
        return StateSpace(A, B, C, D, dt=self.dt)

    def simulate(self, u_sequence, y0=None):
        u_sequence = np.atleast_2d(np.asarray(u_sequence, dtype=float))
        ys = np.zeros((len(u_sequence), self.n_outputs))
        state = np.zeros(self.n_outputs) if y0 is None else np.asarray(y0[0], float).copy()
        for t in range(len(u_sequence)):
            ys[t] = state
            drive = self.gain @ u_sequence[t]
            state = self.poles * state + (1.0 - self.poles) * drive
        return ys


def center_per_run(data: ExperimentData, boundaries):
    """Subtract each training run's mean from its inputs and outputs."""
    u = data.inputs.copy()
    y = data.outputs.copy()
    edges = sorted(boundaries) + [data.n_samples]
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            u[a:b] -= u[a:b].mean(axis=0)
            y[a:b] -= y[a:b].mean(axis=0)
    return ExperimentData(u, y, data.dt, data.input_names, data.output_names,
                          data.label + ":centered")


def _lag(x, a, init, boundaries):
    """Yield ``(t, s)``: ``s = a s + (1 - a) x[t]`` after each ``t`` with a
    successor in its run, from ``init[lo]``; ``a`` broadcasts over lanes."""
    edges = sorted(boundaries) + [len(x)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        s = init[lo]
        for t in range(lo, hi - 1):
            s = a * s + (1.0 - a) * x[t]
            yield t, s


def _fit_gain_given_poles(u, y, poles, boundaries, ridge):
    """OLS for G0 rows with inputs pre-filtered through each output's lag."""
    lag = list(_lag(u, np.asarray(poles, float)[:, None], np.zeros(len(u)),
                    boundaries))
    if not lag:
        raise ValueError("gray-box fit needs a run of two or more samples")
    steps, filt = map(np.array, zip(*lag))  # filt: (steps, outputs, inputs)
    gain = np.zeros((y.shape[1], u.shape[1]))
    for i in range(y.shape[1]):
        Phi = np.ascontiguousarray(filt[:, i])
        gram = Phi.T @ Phi + ridge * np.eye(u.shape[1])
        gain[i] = np.linalg.solve(gram, Phi.T @ y[steps + 1, i])
    return gain


def _fit_poles_given_gain(u, y, gain, boundaries, pole_grid):
    """Grid search per output for the best lag pole (first strict minimum)."""
    grid = np.asarray(pole_grid, dtype=float)
    drives = u @ gain.T
    err = np.zeros((len(grid), y.shape[1]))  # summed over time in order
    for t, s in _lag(drives, grid[:, None], y, boundaries):
        r = y[t + 1] - s
        err += r * r
    # r * r is within an ulp of a scalar loop's r ** 2 (libm pow): re-sum
    # with ** 2 any output whose distinct poles that bound cannot order.
    tol = err * (len(u) + 4) * 2.0**-51 + len(u) * 2.0**-1070
    best, cols = np.argmin(err, axis=0), np.arange(err.shape[1])
    near = (err <= (err + tol)[best, cols] + tol) & (
        grid.view(np.int64)[:, None] != grid.view(np.int64)[best])
    for i in np.flatnonzero(near.any(0) | ~np.isfinite(err + tol).all(0)):
        lag = _lag(drives[:, i], grid, y[:, i], boundaries)
        r = np.reshape([y[t + 1, i] - s for t, s in lag], (-1, len(grid)))
        sq = np.reshape([v**2 for v in r.flat], r.shape)
        err[:, i] = sum(sq, np.zeros(len(grid)))
    err[np.isnan(err)] = np.inf  # a NaN error never wins
    best = np.argmin(err, axis=0)
    return np.where(err[best, cols] < np.inf, grid[best], 0.0)


def fit_graybox(
    data: ExperimentData,
    boundaries=None,
    iterations=3,
    ridge=1e-6,
    pole_grid=None,
    center=True,
) -> GrayBoxModel:
    """Fit the lag-plus-static-gain model by alternating least squares."""
    boundaries = list(boundaries or [0])
    if center:
        data = center_per_run(data, boundaries)
    u, y = data.inputs, data.outputs
    if pole_grid is None:
        pole_grid = np.concatenate([[0.0], np.linspace(0.05, 0.97, 24)])
    poles = np.full(y.shape[1], 0.3)
    for _ in range(iterations):
        gain = _fit_gain_given_poles(u, y, poles, boundaries, ridge)
        poles = _fit_poles_given_gain(u, y, gain, boundaries, pole_grid)
    gain = _fit_gain_given_poles(u, y, poles, boundaries, ridge)
    model = GrayBoxModel(gain, poles, data.dt)
    residual = y - model.simulate(u, y0=y[:1])
    model.residual_rms = np.sqrt(np.mean(residual**2, axis=0))
    return model
