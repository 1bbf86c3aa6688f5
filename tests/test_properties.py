"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.board import BIG, LITTLE, Board
from repro.board.specs import default_xu3_spec
from repro.lti import (
    StateSpace,
    feedback,
    frequency_grid,
    hinf_norm,
    linf_norm_grid,
    singular_value_plot,
    static_gain,
)
from repro.robust import (
    BlockStructure,
    MuAnalysis,
    UncertaintyBlock,
    mu_bounds_over_frequency,
    mu_lower_bound,
    mu_upper_bound,
)
from repro.signals import QuantizedRange

finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False)


class TestQuantizedRangeProperties:
    @given(
        low=st.floats(min_value=-10, max_value=10, allow_nan=False),
        span=st.floats(min_value=0.1, max_value=20, allow_nan=False),
        step=st.floats(min_value=0.01, max_value=5, allow_nan=False),
        value=finite_floats,
    )
    @settings(max_examples=150, deadline=None)
    def test_snap_always_legal_and_idempotent(self, low, span, step, value):
        qr = QuantizedRange(low, low + span, step=step)
        snapped = qr.snap(value)
        assert qr.low - 1e-9 <= snapped <= qr.high + 1e-9
        assert qr.contains(snapped)
        assert qr.snap(snapped) == pytest.approx(snapped)

    @given(
        low=st.floats(min_value=-10, max_value=10, allow_nan=False),
        span=st.floats(min_value=0.1, max_value=20, allow_nan=False),
        step=st.floats(min_value=0.01, max_value=5, allow_nan=False),
        value=finite_floats,
    )
    @settings(max_examples=150, deadline=None)
    def test_snap_error_within_radius(self, low, span, step, value):
        qr = QuantizedRange(low, low + span, step=step)
        clamped = qr.clamp(value)
        assert abs(qr.snap(value) - clamped) <= qr.quantization_radius() + 1e-9

    @given(
        levels=st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                        min_size=1, max_size=8, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_explicit_levels_sorted_and_snappable(self, levels):
        qr = QuantizedRange(min(levels), max(levels), levels=levels)
        assert np.all(np.diff(qr.levels) >= 0)
        for level in levels:
            assert qr.snap(level) == pytest.approx(level)

    @given(
        low=st.floats(min_value=-10, max_value=10, allow_nan=False),
        span=st.floats(min_value=0.1, max_value=20, allow_nan=False),
        step=st.floats(min_value=0.01, max_value=5, allow_nan=False),
        value=finite_floats,
    )
    @settings(max_examples=150, deadline=None)
    def test_quantize_dequantize_round_trip(self, low, span, step, value):
        """snap -> snap_index -> levels[idx] is a lossless round trip."""
        qr = QuantizedRange(low, low + span, step=step)
        snapped = qr.snap(value)
        idx = qr.snap_index(value)
        assert qr.levels[idx] == snapped  # exact: same float both ways
        # Dequantizing the index and re-quantizing lands on the same level.
        assert qr.snap_index(qr.levels[idx]) == idx

    @given(
        low=st.floats(min_value=-10, max_value=10, allow_nan=False),
        span=st.floats(min_value=0.1, max_value=20, allow_nan=False),
        step=st.floats(min_value=0.01, max_value=5, allow_nan=False),
        value=finite_floats,
    )
    @settings(max_examples=150, deadline=None)
    def test_snap_result_is_grid_member(self, low, span, step, value):
        qr = QuantizedRange(low, low + span, step=step)
        snapped = qr.snap(value)
        assert snapped in qr  # __contains__ tolerance membership
        assert any(snapped == lvl for lvl in qr.levels)

    @given(
        low=st.floats(min_value=-10, max_value=10, allow_nan=False),
        span=st.floats(min_value=0.1, max_value=20, allow_nan=False),
        step=st.floats(min_value=0.01, max_value=5, allow_nan=False),
        overshoot=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_saturation_snaps_to_boundary_levels(self, low, span, step,
                                                 overshoot):
        """Out-of-range commands saturate onto the extreme grid levels."""
        qr = QuantizedRange(low, low + span, step=step)
        assert qr.snap(qr.high + overshoot) == qr.levels[-1]
        assert qr.snap(qr.low - overshoot) == qr.levels[0]
        assert qr.clamp(qr.high + overshoot) == qr.high
        assert qr.clamp(qr.low - overshoot) == qr.low

    @given(
        levels=st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                        min_size=1, max_size=8, unique=True),
        pad=st.tuples(st.floats(min_value=0.0, max_value=3.0),
                      st.floats(min_value=0.0, max_value=3.0)),
        value=st.floats(),
    )
    @settings(max_examples=200, deadline=None)
    def test_snap_needs_no_clamp(self, levels, pad, value):
        """snap() skips clamp(): levels inside [low, high] make it a
        no-op for snapping, infinities and NaN included."""
        qr = QuantizedRange(min(levels) - pad[0], max(levels) + pad[1],
                            levels=levels)
        assert qr.snap(value) == qr.snap(qr.clamp(value))


# ----------------------------------------------------------------------
# Randomized board specs driven through the invariant monitor
# ----------------------------------------------------------------------
@st.composite
def board_specs(draw):
    """Randomized (but physically valid) variations of the XU3 spec."""
    base = default_xu3_spec()
    big = dataclasses.replace(
        base.big,
        n_cores=draw(st.integers(min_value=2, max_value=4)),
        freq_range=QuantizedRange(
            0.2, draw(st.sampled_from([1.2, 1.6, 2.0])), step=0.1
        ),
    )
    little = dataclasses.replace(
        base.little,
        n_cores=draw(st.integers(min_value=2, max_value=4)),
        freq_range=QuantizedRange(
            0.2, draw(st.sampled_from([0.8, 1.0, 1.4])), step=0.1
        ),
    )
    sim_dt = draw(st.sampled_from([0.05, 0.1]))
    return dataclasses.replace(
        base,
        big=big,
        little=little,
        sim_dt=sim_dt,
        control_period=sim_dt * draw(st.integers(min_value=4, max_value=10)),
        ambient_temp=draw(st.floats(min_value=30.0, max_value=50.0)),
        thermal_resistance=draw(st.floats(min_value=8.0, max_value=16.0)),
    )


class TestMonitorProperties:
    """Fault-free boards never violate the runtime invariants, whatever the
    spec and however (legally) they are actuated."""

    @given(spec=board_specs(), seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_spec_random_actuation_no_violations(self, spec, seed):
        from repro.verify import InvariantMonitor
        from repro.workloads import make_application

        board = Board([make_application("blackscholes")], spec=spec,
                      seed=seed)
        monitor = InvariantMonitor()
        rng = np.random.default_rng(seed)
        steps = spec.period_steps()
        for _ in range(6):
            for name in (BIG, LITTLE):
                cluster = spec.cluster(name)
                board.set_cluster_frequency(
                    name, float(rng.choice(cluster.freq_range.levels))
                )
                board.set_active_cores(
                    name, int(rng.integers(1, cluster.n_cores + 1))
                )
            board.run_period(steps)
            monitor.check_board(board)
        assert monitor.ok, monitor.summary()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        freq=st.floats(min_value=-1.0, max_value=5.0, allow_nan=False),
        cores=st.integers(min_value=-3, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_board_api_keeps_arbitrary_commands_legal(self, seed, freq,
                                                      cores):
        """The actuation API snaps/clamps anything, so whatever a (possibly
        buggy) controller commands, the monitor still sees a legal board."""
        from repro.verify import InvariantMonitor
        from repro.workloads import make_application

        spec = default_xu3_spec()
        board = Board([make_application("blackscholes")], spec=spec,
                      seed=seed)
        board.set_cluster_frequency(BIG, freq)
        board.set_active_cores(LITTLE, cores)
        board.run_period(spec.period_steps())
        monitor = InvariantMonitor()
        monitor.check_board(board)
        assert monitor.ok, monitor.summary()


def _random_stable(seed, n=3, dt=1.0):
    gen = np.random.default_rng(seed)
    A = gen.normal(size=(n, n))
    A *= 0.75 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
    return StateSpace(A, gen.normal(size=(n, 2)), gen.normal(size=(2, n)),
                      gen.normal(size=(2, 2)) * 0.1, dt=dt)


class TestSystemProperties:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_hinf_upper_bounds_grid(self, seed):
        sys_ = _random_stable(seed)
        # hinf_norm bisects to a 1e-4 relative tolerance, so allow that
        # much slack against the gridded lower bound.
        assert hinf_norm(sys_) >= linf_norm_grid(sys_, points=80) * (1 - 1e-3)

    @given(seed=st.integers(min_value=0, max_value=500),
           gain=st.floats(min_value=0.01, max_value=0.4))
    @settings(max_examples=30, deadline=None)
    def test_small_gain_feedback_stable(self, seed, gain):
        """Small-gain theorem: ||G|| < 1 loops close stably."""
        sys_ = _random_stable(seed)
        norm = hinf_norm(sys_)
        scaled = static_gain(np.eye(2) * (gain / max(norm, 1e-9)), dt=1.0)
        from repro.lti import series

        loop = series(scaled, sys_)
        closed = feedback(loop)
        assert closed.is_stable(tol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_series_norm_submultiplicative(self, seed):
        from repro.lti import series

        g1 = _random_stable(seed)
        g2 = _random_stable(seed + 1000)
        assert hinf_norm(series(g1, g2)) <= (
            hinf_norm(g1) * hinf_norm(g2) * (1 + 1e-3)
        )


class TestMuProperties:
    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_mu_sandwich(self, seed):
        """rho-type lower bound <= mu upper bound <= sigma_max."""
        gen = np.random.default_rng(seed)
        M = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        structure = BlockStructure([
            UncertaintyBlock("full", 2, 2),
            UncertaintyBlock("full", 2, 2),
        ])
        upper, _ = mu_upper_bound(M, structure)
        lower = mu_lower_bound(M, structure, samples=30, seed=seed)
        sigma = np.linalg.svd(M, compute_uv=False)[0]
        assert lower <= upper + 1e-9
        assert upper <= sigma + 1e-9

    @given(seed=st.integers(min_value=0, max_value=300),
           scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_mu_scales_linearly(self, seed, scale):
        gen = np.random.default_rng(seed)
        M = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        structure = BlockStructure([
            UncertaintyBlock("full", 1, 1),
            UncertaintyBlock("full", 2, 2),
        ])
        base, _ = mu_upper_bound(M, structure)
        scaled, _ = mu_upper_bound(scale * M, structure)
        assert scaled == pytest.approx(scale * base, rel=5e-2)


# Point-by-point reference implementations of the frequency-grid sweeps.
# The stacked versions in repro.lti and repro.robust must reproduce them bit
# for bit: same per-matrix LAPACK calls, same running max() over NaN, same
# random draws per frequency.
def _ref_linf_norm_grid(system, points=600):
    omegas = list(frequency_grid(system, points))
    if system.is_discrete:
        omegas.append(0.0)  # include DC explicitly
    peak = 0.0
    for omega in omegas:
        response = system.at_frequency(omega)
        gain = np.linalg.svd(response, compute_uv=False)[0]
        peak = max(peak, float(gain))
    return peak


def _ref_scaled_norm(M, structure, log_scales):
    scales = np.exp(np.asarray(log_scales, dtype=float))
    d_left = np.zeros(structure.total_rows)
    d_right = np.zeros(structure.total_cols)
    for (block, row_sl, col_sl), scale in zip(structure.block_slices(), scales):
        d_left[row_sl] = scale
        d_right[col_sl] = scale
    scaled = np.diag(d_left) @ M @ np.diag(1.0 / d_right)
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def _ref_mu_upper_bound(M, structure, iterations=60):
    M = np.asarray(M, dtype=complex)
    if M.shape != (structure.total_rows, structure.total_cols):
        raise ValueError("shape mismatch")
    n_blocks = len(structure)
    log_scales = np.zeros(n_blocks)
    if n_blocks == 1:
        return float(np.linalg.svd(M, compute_uv=False)[0]), log_scales
    for _ in range(10):
        for i, (block, row_sl, col_sl) in enumerate(structure.block_slices()):
            row_norm = np.linalg.norm(M[row_sl, :]) * np.exp(log_scales[i])
            col_norm = np.linalg.norm(M[:, col_sl]) * np.exp(-log_scales[i])
            if row_norm > 1e-14 and col_norm > 1e-14:
                log_scales[i] += 0.5 * (np.log(col_norm) - np.log(row_norm))
    log_scales -= log_scales[-1]
    best = _ref_scaled_norm(M, structure, log_scales)
    step = 0.5
    for _ in range(iterations):
        improved = False
        for i in range(n_blocks - 1):
            for direction in (+1.0, -1.0):
                trial = log_scales.copy()
                trial[i] += direction * step
                value = _ref_scaled_norm(M, structure, trial)
                if value < best - 1e-12:
                    best = value
                    log_scales = trial
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-4:
                break
    return float(best), log_scales


def _ref_mu_lower_bound(M, structure, samples=60, seed=0):
    M = np.asarray(M, dtype=complex)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        U = np.zeros((structure.total_cols, structure.total_rows), dtype=complex)
        r = c = 0
        for block in structure.blocks:
            if block.kind == "repeated":
                phase = np.exp(2j * np.pi * rng.uniform())
                U[c : c + block.cols, r : r + block.rows] = phase * np.eye(block.rows)
            else:
                raw = rng.normal(size=(block.cols, block.rows)) + 1j * rng.normal(
                    size=(block.cols, block.rows)
                )
                q, _ = np.linalg.qr(raw)
                U[c : c + block.cols, r : r + block.rows] = q[: block.cols, : block.rows]
            r += block.rows
            c += block.cols
        radius = float(np.max(np.abs(np.linalg.eigvals(M @ U))))
        best = max(best, radius)
    return best


def _ref_mu_bounds_over_frequency(channel, structure, omegas=None, points=60,
                                  lower_samples=20):
    if omegas is None:
        omegas = frequency_grid(channel, points)
        omegas = np.concatenate([[omegas[0] * 0.1], omegas])
    uppers = np.zeros(len(omegas))
    lowers = np.zeros(len(omegas))
    all_scales = np.zeros((len(omegas), len(structure)))
    best_scales = None
    peak = -np.inf
    peak_omega = omegas[0]
    for i, omega in enumerate(omegas):
        M = channel.at_frequency(omega)
        upper, scales = _ref_mu_upper_bound(M, structure)
        uppers[i] = upper
        all_scales[i] = scales
        lowers[i] = _ref_mu_lower_bound(M, structure, samples=lower_samples, seed=i)
        if upper > peak:
            peak = upper
            peak_omega = omega
            best_scales = scales
    return MuAnalysis(
        np.asarray(omegas), uppers, lowers, float(peak), float(peak_omega),
        best_scales, all_scales,
    )


def _grid_outcome(fn, *args, **kwargs):
    """``("ok", result)``, or ``("raised", None)`` for any ValueError.

    Where a bad point makes a sweep raise a LinAlgError, the stacked code
    may meet a different bad point first, so only the fact of raising is
    compared.
    """
    with np.errstate(all="ignore"):
        try:
            return "ok", fn(*args, **kwargs)
        except ValueError:
            return "raised", None


def _raw(value):
    """``_bits`` of the real and imaginary parts (signed zeros count)."""
    if value is None:
        return None
    arr = np.asarray(value)
    return _bits(arr.real), _bits(arr.imag), arr.shape


@st.composite
def _grid_systems(draw, outputs=None, inputs=None):
    """Random systems, some with non-finite, overflowing or tiny responses."""
    n = draw(st.integers(min_value=0, max_value=5))
    p = outputs or draw(st.integers(min_value=1, max_value=3))
    m = inputs or draw(st.integers(min_value=1, max_value=3))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = gen.normal(size=(n, n))
    B = gen.normal(size=(n, m))
    C = gen.normal(size=(p, n))
    D = gen.normal(size=(p, m))
    special = draw(st.sampled_from(
        ["none", "none", "inf_D", "nan_D", "overflow", "underflow"]))
    if special == "inf_D":
        D[0, 0] = np.inf
    elif special == "nan_D":
        D[0, 0] = np.nan
    elif special == "overflow":
        # Near-resonant points overflow to inf, the rest stay finite.
        C *= 1e306
        D *= 1e306
    elif special == "underflow":
        # Squared entries underflow, as in a Frobenius norm.
        C *= 1e-160
        D *= 1e-160
    dt = draw(st.sampled_from([None, 0.5]))
    return StateSpace(A, B, C, D, dt=dt)


_BLOCKS = st.one_of(
    # Full blocks at least as wide as tall, like the augmented plants'.
    st.tuples(st.integers(1, 3), st.integers(0, 2)).map(
        lambda rc: UncertaintyBlock("full", rc[0], rc[0] + rc[1])),
    st.integers(1, 3).map(lambda k: UncertaintyBlock("repeated", k, k)),
)
_STRUCTURES = st.lists(_BLOCKS, min_size=1, max_size=3).map(BlockStructure)


class TestGridExactness:
    """Stacked frequency sweeps match the point-by-point loops at 0 ULP."""

    @given(system=_grid_systems(), points=st.integers(min_value=1, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_grid_response_matches_per_point(self, system, points):
        omegas = list(frequency_grid(system, points))
        if system.is_discrete:
            omegas.append(0.0)
        got = _grid_outcome(system.at_frequencies, omegas)
        expected = _grid_outcome(
            lambda: np.stack([system.at_frequency(w) for w in omegas]))
        assert got[0] == expected[0]  # a singular pencil raises in both
        if got[0] == "ok":
            assert _raw(got[1]) == _raw(expected[1])

    def test_grid_response_without_states(self):
        system = static_gain([[1.0, -2.0], [0.5, 0.0]], dt=0.25)
        got = system.at_frequencies([0.0, 1.0, 3.0])
        assert got.shape == (3, 2, 2)
        for response in got:
            assert _raw(response) == _raw(system.at_frequency(1.0))

    @given(system=_grid_systems(), points=st.integers(min_value=1, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_linf_norm_grid_matches_reference(self, system, points):
        got = _grid_outcome(linf_norm_grid, system, points)
        expected = _grid_outcome(_ref_linf_norm_grid, system, points)
        assert got[0] == expected[0]
        if got[0] == "ok":
            assert _raw(got[1]) == _raw(expected[1])

    def test_linf_norm_grid_skips_nan_gains(self):
        # The response overflows to inf below the pole, where its SVD
        # returns NaN, and stays finite above it.
        system = StateSpace([[-1.0]], [[2.0]], [[1.5e308]], [[0.0]])
        with np.errstate(all="ignore"):
            _, gains = singular_value_plot(system, frequency_grid(system, 40))
            assert 0 < np.isnan(gains).sum() < gains.size
            peak = linf_norm_grid(system, points=40)
            assert peak == _ref_linf_norm_grid(system, points=40)
        assert peak == np.nanmax(gains)

    @given(system=_grid_systems(), points=st.integers(min_value=1, max_value=80))
    @settings(max_examples=30, deadline=None)
    def test_singular_value_plot_matches_per_point(self, system, points):
        omegas = frequency_grid(system, points)
        got = _grid_outcome(singular_value_plot, system, omegas)
        expected = _grid_outcome(lambda: [
            np.linalg.svd(system.at_frequency(w), compute_uv=False)[0]
            for w in omegas
        ])
        assert got[0] == expected[0]
        if got[0] == "ok":
            assert _raw(got[1][1]) == _raw(expected[1])

    def test_worst_case_gain_matches_per_point(self):
        from repro.robust import worst_case_delta, worst_case_gain

        structure = BlockStructure([UncertaintyBlock("full", 1, 1),
                                    UncertaintyBlock("repeated", 1, 1)])
        channel = _random_stable(3, n=4, dt=None)
        channel = StateSpace(channel.A - 2.0 * np.eye(4),
                             np.hstack([channel.B, channel.B[:, :1]]),
                             np.vstack([channel.C, channel.C[:1]]),
                             np.zeros((3, 3)))
        got = worst_case_gain(channel, structure, n_d=2, n_f=2, points=35,
                              samples=4, seed=5)
        nominal_peak = 0.0
        worst = (0.0, None, None)
        for i, omega in enumerate(frequency_grid(channel, 35)):
            M = channel.at_frequency(omega)
            nominal = np.linalg.svd(M[2:, 2:], compute_uv=False)
            nominal_peak = max(nominal_peak, float(nominal[0]))
            delta, gain = worst_case_delta(M, structure, 2, 2, samples=4,
                                           polish_iterations=15, seed=5 + i)
            if np.isfinite(gain) and gain > worst[0]:
                worst = (gain, float(omega), delta)
        assert _raw(got.nominal_peak) == _raw(nominal_peak)
        assert (got.worst_gain, got.worst_omega) == worst[:2]
        assert _raw(got.worst_delta) == _raw(worst[2])

    @given(data=st.data(), structure=_STRUCTURES,
           points=st.sampled_from([1, 5, 31, 32, 40, 63]),
           lower_samples=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_mu_sweep_matches_reference(self, data, structure, points,
                                        lower_samples):
        channel = data.draw(_grid_systems(outputs=structure.total_rows,
                                          inputs=structure.total_cols))
        got = _grid_outcome(mu_bounds_over_frequency, channel, structure,
                            points=points, lower_samples=lower_samples)
        expected = _grid_outcome(_ref_mu_bounds_over_frequency, channel,
                                 structure, points=points,
                                 lower_samples=lower_samples)
        assert got[0] == expected[0]
        if got[0] == "raised":
            return
        got, expected = got[1], expected[1]
        for field in ("omegas", "upper", "lower", "scales", "peak_upper",
                      "peak_omega", "scales_at_peak"):
            assert _raw(getattr(got, field)) == _raw(getattr(expected, field)), field
        if got.scales_at_peak is not None:
            assert not np.shares_memory(got.scales_at_peak, got.scales)

    @given(structure=_STRUCTURES, seed=st.integers(min_value=0, max_value=2**16),
           samples=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_single_point_bounds_match_reference(self, structure, seed, samples):
        gen = np.random.default_rng(seed)
        shape = (structure.total_rows, structure.total_cols)
        M = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        got = _grid_outcome(mu_upper_bound, M, structure)
        expected = _grid_outcome(_ref_mu_upper_bound, M, structure)
        assert got[0] == expected[0] == "ok"
        assert _raw(got[1][0]) == _raw(expected[1][0])
        assert _raw(got[1][1]) == _raw(expected[1][1])
        got = _grid_outcome(mu_lower_bound, M, structure, samples, seed)
        expected = _grid_outcome(_ref_mu_lower_bound, M, structure, samples, seed)
        assert got[0] == expected[0]
        if got[0] == "ok":
            assert _raw(got[1]) == _raw(expected[1])


class TestOptimizerProperties:
    @given(
        exd_seq=st.lists(st.floats(min_value=0.01, max_value=10.0),
                         min_size=5, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_targets_always_inside_envelopes(self, exd_seq):
        from repro.core import ExDOptimizer, TargetChannel

        opt = ExDOptimizer(
            [
                TargetChannel("p", 2.0, 0.5, 8.0, role="performance"),
                TargetChannel("w", 1.0, 0.1, 3.3, role="power"),
            ],
            settle_periods=1,
        )
        outputs = np.array([2.0, 1.0])
        for exd in exd_seq:
            targets = opt.update(exd, outputs=outputs)
            assert 0.5 <= targets[0] <= 8.0
            assert 0.1 <= targets[1] <= 3.3


class TestWorkloadProperties:
    @given(
        budget=st.floats(min_value=0.5, max_value=20.0),
        threads=st.integers(min_value=1, max_value=8),
        chunks=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_work_conservation(self, budget, threads, chunks):
        """Executing exactly the budget finishes the app, never overshoots."""
        from repro.workloads import Application, Phase

        app = Application("w", [Phase("p", threads, budget)])
        per_chunk = budget / chunks
        guard = 0
        while not app.done and guard < 10 * chunks:
            guard += 1
            runnable = app.runnable_threads()
            if not runnable:
                break
            app.execute(runnable[0], per_chunk, now=guard)
        assert app.completed_instructions == pytest.approx(budget, rel=1e-9)
        assert app.done


# ---------------------------------------------------------------------------
# Controller bank: the stacked pass against per-lane RuntimeController.step
# ---------------------------------------------------------------------------
def _bits(value):
    """Bit patterns of a float array, every NaN as one pattern.

    That is ``ulp_distance``'s 0 ULP made stricter on zeros: signed zeros
    must match too.  NaN payloads are left out because NumPy's one-element
    and vector loops may propagate a different NaN operand of the same sum.
    """
    arr = np.asarray(value, dtype=float)
    return np.where(np.isnan(arr), np.nan, arr).view(np.uint64).tolist()


def _lane_state(ctrl):
    """Everything a step leaves behind in one controller, bit for bit."""
    prev = [None if v is None else _bits(v)
            for v in (ctrl._prev_u_norm, ctrl._prev_y_norm)]
    return (_bits(ctrl.state), _bits(ctrl._snap_residual), prev,
            _bits(ctrl._innovation_ema), ctrl._innovation_streak,
            ctrl._violation_streak, ctrl.guardband_exhausted)


def _toy_design():
    """u = [err, ext]: commands that land exactly where the test puts them.

    The first knob dithers over quarter steps, so an error of k/8 sits
    exactly halfway between two levels; the second snaps plainly onto
    the explicit levels -1, -0.25 and 0.5, with a midpoint at 0.125.
    """
    from repro.core import RuntimeController

    sm = StateSpace(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)),
                    np.eye(2), dt=0.5)
    return RuntimeController(
        name="toy", state_machine=sm,
        input_ranges=[QuantizedRange(-0.5, 0.5, step=0.25),
                      QuantizedRange(-1.0, 1.0, levels=[-1.0, -0.25, 0.5])],
        input_offsets=np.zeros(2), input_scales=np.ones(2),
        output_offsets=np.zeros(1), output_scales=np.ones(1),
        external_offsets=np.zeros(1), external_scales=np.ones(1),
        bound_fractions=np.array([0.1]), targets=np.zeros(1),
        dither_mask=np.array([True, False]),
    )


# Measurements (in units of an output's scale around its offset): inside
# the operating range, far beyond saturation, exact level midpoints of the
# toy design, and non-finite sensor readings.
_READINGS = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.sampled_from([-40.0, 40.0, 0.125, -0.125, 0.375, 0.0, -0.0]),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


class TestControllerBankProperties:
    @given(
        design=st.sampled_from(["hw", "sw", "toy"]),
        lanes=st.integers(min_value=1, max_value=16),
        periods=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        state_scale=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        readings=st.lists(_READINGS, min_size=8, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_pass_matches_step_bit_for_bit(
            self, design_context, design, lanes, periods, seed,
            state_scale, readings):
        """0 ULP per lane: snapped outputs, state, residuals, monitors."""
        from repro.core.controller import step_stacked

        template = {
            "hw": lambda: design_context.get_hw_design().controller,
            "sw": lambda: design_context.get_sw_design().controller,
            "toy": _toy_design,
        }[design]()
        rng = np.random.default_rng(seed)
        ref = [template.fresh_copy() for _ in range(lanes)]
        stk = [template.fresh_copy() for _ in range(lanes)]
        gaps = np.array([g or 0.0 for g in template.constants.half_gaps])
        n_x = template.state_machine.n_states
        for a, b in zip(ref, stk):
            # Diverging targets, residuals and states; state_scale 2
            # starts lanes up to twice past the state-norm cap.
            targets = template.targets * rng.uniform(0.5, 1.5,
                                                     template.n_outputs)
            # Half the lanes start with no residual, so their first toy
            # command is exactly the reading (a level midpoint, say).
            residual = gaps * rng.uniform(-1.0, 1.0, gaps.size) * rng.integers(2)
            direction = rng.normal(size=n_x)
            state = (direction / max(np.linalg.norm(direction), 1e-12)
                     * template._state_norm_cap * state_scale
                     * rng.uniform(0.5, 1.0))
            for ctrl in (a, b):
                ctrl.set_targets(targets)
                ctrl._snap_residual = residual.copy()
                ctrl.state = state.copy()
        n_e = template.external_offsets.size
        for _ in range(periods):
            ys, es = [], []
            for _lane in range(lanes):
                z = rng.normal(0.0, 0.5, template.n_outputs + n_e)
                # Each reading lands on a random channel of this lane.
                for reading in readings[:int(rng.integers(0, 3))]:
                    z[rng.integers(z.size)] = reading
                if design == "toy":
                    z[0] = readings[int(rng.integers(len(readings)))]
                y = template.output_offsets + template.output_scales * z[:template.n_outputs]
                e = template.external_offsets + template.external_scales * z[template.n_outputs:]
                ys.append(y)
                es.append(list(e))
            with np.errstate(invalid="ignore", over="ignore"):
                expected = [c.step(y, e) for c, y, e in zip(ref, ys, es)]
                got = step_stacked(stk, ys, es)
            assert _bits(got) == _bits(expected)
            assert [type(v) for row in got for v in row] == [
                type(v) for row in expected for v in row]
            for k, (a, b) in enumerate(zip(ref, stk)):
                assert _lane_state(b) == _lane_state(a), k

    def test_nan_command_snaps_to_lowest_level(self):
        """searchsorted sorts NaN last; the kernel must follow bisect."""
        from repro.core.controller import step_stacked

        lanes = [_toy_design().fresh_copy() for _ in range(3)]
        ref = [_toy_design().fresh_copy() for _ in range(3)]
        ys = [np.array([np.nan])] * 3
        es = [[np.nan]] * 3
        with np.errstate(invalid="ignore"):
            got = step_stacked(lanes, ys, es)
            assert got == [c.step(y, e) for c, y, e in zip(ref, ys, es)]
        assert got == [[-0.5, -1.0]] * 3
