"""Tests for the system-identification substrate."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lti import StateSpace
from repro.sysid import (
    ExperimentData,
    center_per_run,
    fit_arx,
    fit_box_jenkins,
    fit_graybox,
    fit_percent,
    fit_subspace,
    final_prediction_error,
    graybox,
    merge_experiments,
    multilevel_random,
    prbs,
    staircase,
    validate_model,
)


@pytest.fixture
def toy_system():
    return StateSpace([[0.8, 0.1], [0.0, 0.6]], [[1.0, 0.0], [0.5, 1.0]],
                      [[1.0, 0.0], [0.2, 1.0]], None, dt=0.5)


@pytest.fixture
def toy_data(toy_system, rng):
    u = np.column_stack([
        prbs(900, -1, 1, seed=2, dwell=3),
        multilevel_random(900, [-1, -0.5, 0, 0.5, 1], 4, seed=3),
    ])
    _, y = toy_system.simulate(u)
    y += 0.01 * rng.normal(size=y.shape)
    return ExperimentData(u, y, dt=0.5, label="toy")


class TestExcitation:
    def test_prbs_levels_and_length(self):
        sig = prbs(100, -1.0, 2.0, seed=1, dwell=4)
        assert sig.shape == (100,)
        assert set(np.unique(sig)) <= {-1.0, 2.0}

    def test_prbs_dwell(self):
        sig = prbs(100, 0, 1, seed=1, dwell=5)
        changes = np.nonzero(np.diff(sig))[0] + 1
        assert all(c % 5 == 0 for c in changes)

    def test_staircase_cycles(self):
        sig = staircase(10, [1, 2, 3], dwell=2)
        assert list(sig[:6]) == [1, 1, 2, 2, 3, 3]
        assert list(sig[6:8]) == [1, 1]

    def test_multilevel_values(self):
        sig = multilevel_random(60, [1.0, 2.0, 4.0], 3, seed=0)
        assert set(np.unique(sig)) <= {1.0, 2.0, 4.0}

    def test_bad_dwell_rejected(self):
        with pytest.raises(ValueError):
            prbs(10, 0, 1, dwell=0)
        with pytest.raises(ValueError):
            staircase(10, [1], dwell=0)


class TestExperimentData:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExperimentData(np.zeros((5, 1)), np.zeros((4, 1)), dt=1.0)

    def test_normalized_stats(self, toy_data):
        norm, u_scale, y_scale, u_off, y_off = toy_data.normalized()
        assert np.allclose(norm.inputs.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(norm.outputs.std(axis=0), 1.0, atol=1e-6)

    def test_split_chronological(self, toy_data):
        train, valid = toy_data.split(0.8)
        assert train.n_samples == int(0.8 * toy_data.n_samples)
        assert train.n_samples + valid.n_samples == toy_data.n_samples

    def test_merge_tracks_boundaries(self, toy_data):
        merged, boundaries = merge_experiments([toy_data, toy_data])
        assert merged.n_samples == 2 * toy_data.n_samples
        assert boundaries == [0, toy_data.n_samples]

    def test_merge_rejects_mixed_dt(self, toy_data):
        other = ExperimentData(toy_data.inputs, toy_data.outputs, dt=1.0)
        with pytest.raises(ValueError, match="dt"):
            merge_experiments([toy_data, other])

    def test_center_per_run(self, toy_data):
        merged, bounds = merge_experiments([toy_data, toy_data])
        centered = center_per_run(merged, bounds)
        first = centered.outputs[: toy_data.n_samples]
        assert np.allclose(first.mean(axis=0), 0.0, atol=1e-9)


class TestARX:
    def test_one_step_fit_good(self, toy_data):
        model = fit_arx(toy_data, na=3, nb=3, delay=1)
        report = validate_model(model, toy_data)
        assert report.mean_fit > 90.0

    def test_statespace_realization_matches_freerun(self, toy_data):
        model = fit_arx(toy_data, na=3, nb=3, delay=1)
        sys_ = model.to_statespace()
        _, y_ss = sys_.simulate(toy_data.inputs)
        fits = fit_percent(toy_data.outputs, y_ss)
        assert np.mean(fits) > 80.0

    def test_boundaries_respected(self, toy_data):
        merged, bounds = merge_experiments([toy_data, toy_data])
        model = fit_arx(merged, na=2, nb=2, delay=1, boundaries=bounds)
        assert model.n_outputs == 2

    def test_insufficient_data_raises(self):
        tiny = ExperimentData(np.zeros((3, 1)), np.zeros((3, 1)), dt=1.0)
        with pytest.raises(ValueError):
            fit_arx(tiny, na=4, nb=4, delay=1)


class TestBoxJenkins:
    def test_refinement_not_worse_than_arx(self, toy_data):
        bj = fit_box_jenkins(toy_data, na=3, nb=3, nc=2, delay=1)
        arx = fit_arx(toy_data, na=3, nb=3, delay=1)
        bj_report = validate_model(bj, toy_data)
        arx_report = validate_model(arx, toy_data)
        assert bj_report.mean_fit >= arx_report.mean_fit - 2.0

    def test_exposes_deterministic_statespace(self, toy_data):
        bj = fit_box_jenkins(toy_data, na=2, nb=2, nc=1, delay=1)
        assert bj.to_statespace().is_discrete


class TestSubspace:
    def test_recovers_low_order_model(self, toy_data):
        model, svals = fit_subspace(toy_data, order=2)
        assert model.n_states == 2
        _, y_hat = model.simulate(toy_data.inputs)
        assert np.mean(fit_percent(toy_data.outputs, y_hat)) > 85.0

    def test_singular_values_reveal_order(self, toy_data):
        _, svals = fit_subspace(toy_data, order=4)
        assert svals[1] / max(svals[2], 1e-12) > 10.0

    def test_stability_clamped(self, toy_data):
        model, _ = fit_subspace(toy_data, order=3)
        assert model.spectral_radius() < 1.0


class TestGraybox:
    def test_recovers_static_gain(self, rng):
        # y = G0 u through known lag 0.5.
        G0 = np.array([[1.0, -0.5], [0.3, 2.0]])
        pole = 0.5
        u = rng.normal(size=(1200, 2))
        y = np.zeros((1200, 2))
        state = np.zeros(2)
        for t in range(1200):
            y[t] = state
            state = pole * state + (1 - pole) * (G0 @ u[t])
        data = ExperimentData(u, y, dt=0.5)
        model = fit_graybox(data, center=False)
        assert model.gain == pytest.approx(G0, abs=0.05)
        assert model.poles == pytest.approx([pole, pole], abs=0.08)

    def test_statespace_is_diagonal_lag(self, toy_data):
        model = fit_graybox(toy_data)
        sys_ = model.to_statespace()
        assert sys_.n_states == toy_data.n_outputs
        assert np.allclose(sys_.A, np.diag(np.diag(sys_.A)))


# Scalar-loop reference implementations of the gray-box fitters.  The
# vectorised fitters in repro.sysid.graybox must reproduce them bit for bit:
# same accumulation order over t and runs, same first-strict-minimum rule
# over the pole grid, same NaN behaviour.
def _ref_fit_gain_given_poles(u, y, poles, boundaries, ridge):
    n_y = y.shape[1]
    n_u = u.shape[1]
    gain = np.zeros((n_y, n_u))
    edges = sorted(boundaries) + [u.shape[0]]
    for i in range(n_y):
        a = poles[i]
        rows_u = []
        rows_y = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            filt = np.zeros(n_u)
            for t in range(lo, hi):
                filt = a * filt + (1.0 - a) * u[t]
                if t + 1 < hi:
                    rows_u.append(filt.copy())
                    rows_y.append(y[t + 1, i])
        Phi = np.asarray(rows_u)
        target = np.asarray(rows_y)
        gram = Phi.T @ Phi + ridge * np.eye(n_u)
        gain[i] = np.linalg.solve(gram, Phi.T @ target)
    return gain


def _ref_fit_poles_given_gain(u, y, gain, boundaries, pole_grid):
    n_y = y.shape[1]
    poles = np.zeros(n_y)
    edges = sorted(boundaries) + [u.shape[0]]
    drives = u @ gain.T  # (T, n_y)
    for i in range(n_y):
        best_err = np.inf
        best_a = 0.0
        for a in pole_grid:
            err = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                state = y[lo, i]
                for t in range(lo, hi - 1):
                    state = a * state + (1.0 - a) * drives[t, i]
                    err += (y[t + 1, i] - state) ** 2
            if err < best_err:
                best_err = err
                best_a = a
        poles[i] = best_a
    return poles


def _outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("raised", exception type)``."""
    with np.errstate(all="ignore"):
        try:
            return "ok", fn(*args, **kwargs)
        except ValueError as exc:  # np.linalg.LinAlgError included
            return "raised", type(exc)


def _ref_fit_graybox(data, **kwargs):
    with mock.patch.multiple(
        graybox,
        _fit_gain_given_poles=_ref_fit_gain_given_poles,
        _fit_poles_given_gain=_ref_fit_poles_given_gain,
    ):
        return _outcome(fit_graybox, data, **kwargs)


def _assert_same_model(ref, new):
    assert ref[0] == new[0], (ref, new)
    if ref[0] == "raised":
        assert ref[1] is new[1]
        return
    for field in ("gain", "poles", "residual_rms"):
        a, b = getattr(ref[1], field), getattr(new[1], field)
        assert np.array_equal(a, b, equal_nan=True), field


_SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300, 1e-300)


@st.composite
def _graybox_problems(draw):
    """Small identification problems with awkward runs, grids and data."""
    T = draw(st.integers(2, 40))
    n_u = draw(st.integers(1, 3))
    n_y = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    u = scale * rng.normal(size=(T, n_u))
    y = scale * rng.normal(size=(T, n_y))
    for _ in range(draw(st.integers(0, 3))):  # NaN/inf/huge entries
        target = u if draw(st.booleans()) else y
        row = draw(st.integers(0, T - 1))
        col = draw(st.integers(0, target.shape[1] - 1))
        target[row, col] = draw(st.sampled_from(_SPECIALS))
    # Run starts from gaps of 0 (a duplicate: an empty run), 1 and 2
    # samples, shuffled: runs of length 0, 1, 2 and longer.  A first start
    # past 0 leaves the leading samples out of every fit.
    gaps = draw(st.lists(st.integers(0, 6), max_size=6))
    first = draw(st.integers(0, 2))
    starts = [b for b in np.cumsum([first] + gaps).tolist() if b < T]
    boundaries = draw(st.permutations(starts))
    grid = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 0.97]),
                 min_size=1, max_size=8),
        st.lists(st.floats(0.0, 0.99), min_size=1, max_size=8),
    ))
    return ExperimentData(u, y, dt=0.5), boundaries, grid


class TestGrayboxExactness:
    @settings(max_examples=200, deadline=None)
    @given(problem=_graybox_problems(), center=st.booleans(),
           iterations=st.integers(0, 3))
    def test_fit_graybox_matches_scalar_loops(self, problem, center,
                                              iterations):
        data, boundaries, grid = problem
        kwargs = dict(boundaries=boundaries, pole_grid=grid, center=center,
                      iterations=iterations)
        _assert_same_model(_ref_fit_graybox(data, **kwargs),
                           _outcome(fit_graybox, data, **kwargs))

    @settings(max_examples=200, deadline=None)
    @given(problem=_graybox_problems(), seed=st.integers(0, 2**32 - 1))
    def test_helpers_match_scalar_loops(self, problem, seed):
        data, boundaries, grid = problem
        u, y = data.inputs, data.outputs
        rng = np.random.default_rng(seed)
        grid = grid or [0.0, 0.3, 0.3, 0.9]
        gain = rng.normal(size=(y.shape[1], u.shape[1]))
        ref = _outcome(_ref_fit_poles_given_gain, u, y, gain, boundaries,
                       grid)
        new = _outcome(graybox._fit_poles_given_gain, u, y, gain,
                       boundaries, grid)
        assert ref[0] == new[0] == "ok"
        assert np.array_equal(ref[1], new[1], equal_nan=True)
        poles = rng.choice(grid, size=y.shape[1])
        ref = _outcome(_ref_fit_gain_given_poles, u, y, poles, boundaries,
                       1e-6)
        new = _outcome(graybox._fit_gain_given_poles, u, y, poles,
                       boundaries, 1e-6)
        assert ref[0] == new[0]
        if ref[0] == "raised":
            # No run of two samples (or a singular system): both refuse.
            assert ref[1] is new[1]
        else:
            assert np.array_equal(ref[1], new[1], equal_nan=True)

    def test_tie_takes_first_grid_point(self):
        # Constant outputs and zero drive: every pole fits exactly, so the
        # first grid point wins, duplicates included.
        u = np.zeros((12, 1))
        y = np.ones((12, 2))
        gain = np.zeros((2, 1))
        for grid in ([0.5, 0.3, 0.5], [0.9, 0.9, 0.0]):
            poles = graybox._fit_poles_given_gain(u, y, gain, [0], grid)
            assert np.array_equal(poles, [grid[0]] * 2)
            assert np.array_equal(
                poles, _ref_fit_poles_given_gain(u, y, gain, [0], grid))

    def test_nan_errors_never_win(self):
        u = np.ones((10, 1))
        y = np.zeros((10, 1))
        gain = np.ones((1, 1))
        for grid in ([np.nan, 0.5], [np.nan]):
            ref = _ref_fit_poles_given_gain(u, y, gain, [0], grid)
            new = graybox._fit_poles_given_gain(u, y, gain, [0], grid)
            assert np.array_equal(ref, new)
        assert new[0] == 0.0  # all-NaN grid: no pole is ever chosen

    def test_merged_runs_match_scalar_loops(self, toy_data):
        merged, bounds = merge_experiments([toy_data, toy_data])
        _assert_same_model(_ref_fit_graybox(merged, boundaries=bounds),
                           _outcome(fit_graybox, merged, boundaries=bounds))


class TestValidation:
    def test_fit_percent_perfect(self):
        y = np.random.default_rng(0).normal(size=(50, 2))
        assert fit_percent(y, y) == pytest.approx([100.0, 100.0])

    def test_fit_percent_mean_model_is_zero(self):
        y = np.random.default_rng(0).normal(size=(200, 1))
        y_hat = np.full_like(y, y.mean())
        assert fit_percent(y, y_hat)[0] == pytest.approx(0.0, abs=1e-6)

    def test_fpe_penalizes_parameters(self):
        assert final_prediction_error(1.0, 100, 10) > 1.0
        assert final_prediction_error(1.0, 100, 200) == np.inf

    def test_validation_report_summary(self, toy_data):
        model = fit_arx(toy_data, na=2, nb=2, delay=1)
        report = validate_model(model, toy_data)
        assert "fit per output" in report.summary()
