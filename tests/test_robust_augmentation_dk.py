"""Tests for generalized-plant construction and the D-K iteration."""

from unittest import mock

import numpy as np
import pytest

from repro.lti import StateSpace
from repro.robust import build_generalized_plant, dk_synthesize
from repro.sysid import ExperimentData, fit_arx, multilevel_random, prbs


@pytest.fixture(scope="module")
def identified_model():
    """A small identified model with one external signal."""
    rng = np.random.default_rng(7)
    true = StateSpace(
        [[0.7, 0.1, 0.0], [0.0, 0.5, 0.2], [0.0, 0.0, 0.9]],
        [[0.5, 0.1, 0.05], [0.2, 0.6, 0.1], [0.0, 0.1, 0.3]],
        [[1.0, 0.2, 0.1], [0.1, 1.0, 0.5]],
        None,
        dt=0.5,
    )
    u = np.column_stack([
        prbs(1000, -1, 1, seed=1, dwell=4),
        multilevel_random(1000, [-1, -0.5, 0, 0.5, 1], 5, seed=2),
        multilevel_random(1000, [-1, 0, 1], 8, seed=3),
    ])
    _, y = true.simulate(u)
    y += 0.02 * rng.normal(size=y.shape)
    arx = fit_arx(ExperimentData(u, y, dt=0.5), na=2, nb=2, delay=1)
    return arx.to_statespace()


@pytest.fixture(scope="module")
def augmented(identified_model):
    return build_generalized_plant(
        identified_model,
        n_u=2,
        input_spans=[1.0, 1.0],
        input_mids=[0.0, 0.0],
        output_ranges=[4.0, 4.0],
        output_mids=[0.0, 0.0],
        bound_fractions=[0.2, 0.1],
        input_weights=[1.0, 1.0],
        guardband=0.4,
        external_scales=[1.0],
        external_mids=[0.0],
    )


class TestAugmentation:
    def test_channel_bookkeeping(self, augmented):
        ch = augmented.channels
        assert ch.n_u == 2
        assert ch.n_y == 2
        assert ch.n_e == 1
        assert ch.n_w == 2 + 2 + 1 + 3  # d + r + e + noise
        assert ch.n_z == 2 + 2 + 2  # f + err + effort

    def test_plant_is_continuous(self, augmented):
        assert not augmented.plant.system.is_discrete

    def test_synthesis_assumptions_hold(self, augmented):
        _, B1, _, C1, _, D11, D12, D21, D22 = augmented.plant.blocks()
        assert np.abs(D11).max() == pytest.approx(0.0)
        assert np.abs(D22).max() == pytest.approx(0.0)
        assert np.linalg.matrix_rank(D12) == D12.shape[1]
        assert np.linalg.matrix_rank(D21) == D21.shape[0]
        assert np.abs(D12.T @ C1).max() < 1e-10
        assert np.abs(B1 @ D21.T).max() < 1e-10

    def test_uncertainty_radius_includes_quantization(self, identified_model):
        plain = build_generalized_plant(
            identified_model, n_u=2,
            input_spans=[1.0, 1.0], input_mids=[0, 0],
            output_ranges=[4.0, 4.0], output_mids=[0, 0],
            bound_fractions=[0.2, 0.1], input_weights=[1.0, 1.0],
            guardband=0.4, external_scales=[1.0],
        )
        quantized = build_generalized_plant(
            identified_model, n_u=2,
            input_spans=[1.0, 1.0], input_mids=[0, 0],
            output_ranges=[4.0, 4.0], output_mids=[0, 0],
            bound_fractions=[0.2, 0.1], input_weights=[1.0, 1.0],
            guardband=0.4, external_scales=[1.0],
            quantization_radii=[0.1, 0.05],
        )
        assert quantized.uncertainty_radius == pytest.approx(
            plain.uncertainty_radius + 0.1
        )

    def test_rejects_bad_metadata(self, identified_model):
        with pytest.raises(ValueError):
            build_generalized_plant(
                identified_model, n_u=2,
                input_spans=[1.0],  # wrong length
                input_mids=[0, 0],
                output_ranges=[4.0, 4.0], output_mids=[0, 0],
                bound_fractions=[0.2, 0.1], input_weights=[1.0, 1.0],
                guardband=0.4, external_scales=[1.0],
            )

    def test_structure_matches_closed_loop_dims(self, augmented):
        rows = augmented.structure.total_rows
        cols = augmented.structure.total_cols
        assert rows == augmented.channels.n_z
        assert cols == augmented.channels.n_w


class TestDKIteration:
    def test_produces_verified_controller(self, augmented):
        result = dk_synthesize(augmented, max_iterations=2, mu_points=15)
        assert result.controller.n_states > 0
        assert result.hinf.closed_loop.is_stable()
        assert result.mu.peak_upper > 0
        assert 0 < result.min_s <= 1e6

    def test_mu_history_monotone_ish(self, augmented):
        result = dk_synthesize(augmented, max_iterations=3, mu_points=15)
        # The kept result must be the best seen.
        assert result.mu.peak_upper == pytest.approx(
            min(result.peak_mu_history), rel=1e-9
        )

    def test_summary_mentions_robustness(self, augmented):
        result = dk_synthesize(augmented, max_iterations=1, mu_points=10)
        assert "mu" in result.summary()


@pytest.fixture(scope="module")
def sw_dk_problem(design_context):
    """The software layer's augmented plant and D-K arguments.

    Captured by redesigning the layer from the shared characterization in
    a context with no cache, so ``dk_synthesize`` really runs.
    """
    import repro.core.design as core_design
    from repro.experiments import DesignContext

    captured = []
    real = core_design.dk_synthesize

    def capture(augmented, **kwargs):
        result = real(augmented, **kwargs)
        captured.append((augmented, kwargs, result))
        return result

    fresh = DesignContext(spec=design_context.spec,
                          characterization=design_context.characterization)
    with mock.patch.object(core_design, "dk_synthesize", capture):
        fresh.get_sw_design()
    return captured[-1]


class TestDKDesignPin:
    """The stacked frequency sweeps leave the synthesized design unchanged."""

    def test_matches_point_by_point_reference(self, sw_dk_problem):
        import repro.lti.norms as norms
        import repro.robust.dk as dk

        from .test_properties import (
            _ref_linf_norm_grid,
            _ref_mu_bounds_over_frequency,
        )

        augmented, kwargs, got = sw_dk_problem
        with mock.patch.object(norms, "linf_norm_grid", _ref_linf_norm_grid), \
                mock.patch.object(dk, "mu_bounds_over_frequency",
                                  _ref_mu_bounds_over_frequency):
            ref = dk_synthesize(augmented, **kwargs)
        assert got.peak_mu_history == ref.peak_mu_history
        assert got.iterations == ref.iterations
        assert got.hinf.gamma == ref.hinf.gamma
        assert got.hinf.achieved_norm == ref.hinf.achieved_norm
        for field in ("upper", "lower", "scales", "omegas"):
            assert (getattr(got.mu, field).tobytes()
                    == getattr(ref.mu, field).tobytes()), field
        for name in "ABCD":
            assert (getattr(got.controller, name).tobytes()
                    == getattr(ref.controller, name).tobytes()), name
