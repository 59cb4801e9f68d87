"""Tests for covariance construction, the noise step and the samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from hybridloc.errors import DimensionMismatchError, NumericalError, ScenarioError
from hybridloc.noise import (
    NoiseConfig,
    add_noise,
    build_q,
    build_qs,
    dominant_bias_from_shape,
    dominant_shape,
    draw_dominant,
    draw_dominant_bias,
    sample_gaussian,
    sample_structured,
    sample_structured_scatterer,
    scatterer_sigma_components,
    sigma_components,
)


class TestConfig:
    def test_defaults_are_gaussian(self):
        cfg = NoiseConfig()
        assert cfg.mode == "gaussian"
        assert cfg.delta_d == pytest.approx(0.22)
        assert cfg.delta_a == pytest.approx(0.0175)

    def test_scaled_multiplies_both_deviations(self):
        cfg = NoiseConfig(delta_d=0.22, delta_a=0.0175).scaled(10.0)
        assert cfg.delta_d == pytest.approx(2.2)
        assert cfg.delta_a == pytest.approx(0.175)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ScenarioError):
            NoiseConfig(delta_d=0.0)
        with pytest.raises(ScenarioError):
            NoiseConfig(delta_a=-1.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ScenarioError):
            NoiseConfig(mode="pink")

    def test_structured_requires_ratio(self):
        with pytest.raises(ScenarioError):
            NoiseConfig(mode="structured")
        NoiseConfig(mode="structured", ratio=0.1)  # should not raise


class TestSigmaLayout:
    def test_layout_small_case(self):
        # n_a=2: [tdoa, fdoa, phi1, theta1, phi2, theta2]
        sd = sigma_components(2, NoiseConfig(delta_d=1.0, delta_a=1.0))
        np.testing.assert_allclose(sd, [1.0, 0.1, 1.0, 1.0, 1.0, 1.0])

    def test_length_matches_measurement_dim(self):
        for n_a in (2, 4, 6, 9):
            assert sigma_components(n_a, NoiseConfig()).size == 4 * n_a - 2

    def test_rejects_single_receiver(self):
        with pytest.raises(ScenarioError):
            sigma_components(1, NoiseConfig())


class TestBuildQ:
    def test_first_diagonal_entry(self):
        q = build_q(6, NoiseConfig(delta_d=0.22, delta_a=0.0175))
        assert q[0, 0] == pytest.approx(0.0484)
        assert q[1, 1] == pytest.approx(0.022**2)
        assert q[10, 10] == pytest.approx(0.0175**2)

    def test_is_diagonal(self):
        q = build_q(6, NoiseConfig())
        assert np.count_nonzero(q - np.diag(np.diag(q))) == 0

    def test_shape(self):
        assert build_q(6, NoiseConfig()).shape == (22, 22)
        assert build_q(9, NoiseConfig()).shape == (34, 34)

    def test_scatterer_covariance(self):
        qs = build_qs(NoiseConfig(delta_d=2.0, delta_a=0.5))
        np.testing.assert_allclose(np.diag(qs), [4.0, 0.04, 0.25, 0.25])
        assert np.count_nonzero(qs - np.diag(np.diag(qs))) == 0

    def test_scatterer_covariance_squares_as_python_floats(self):
        # The literal form build_qs replaced squares each deviation with a
        # Python float's ``**``; NumPy's ``array ** 2`` differs from it in
        # the last bit on 58 of these configs.
        rng = default_rng(0)
        for _ in range(20000):
            cfg = NoiseConfig(delta_d=10.0 ** rng.uniform(-150, 150),
                              delta_a=10.0 ** rng.uniform(-150, 150),
                              fdoa_factor=10.0 ** rng.uniform(-3, 3))
            literal = np.diag([cfg.delta_d**2, (cfg.fdoa_factor * cfg.delta_d) ** 2,
                               cfg.delta_a**2, cfg.delta_a**2])
            assert build_qs(cfg).tobytes() == literal.tobytes()


class TestGaussianSampler:
    def test_sample_statistics(self):
        # Sample mean ~= truth and sample covariance ~= Q at 1e5 draws.
        cfg = NoiseConfig(delta_d=0.22, delta_a=0.0175)
        q = build_q(2, cfg)
        m_true = np.arange(6, dtype=float)
        rng = default_rng(7)
        draws = np.array([sample_gaussian(m_true, q, rng) for _ in range(100_000)])
        np.testing.assert_allclose(draws.mean(axis=0), m_true, atol=4e-3)
        sample_cov = np.cov(draws.T)
        np.testing.assert_allclose(sample_cov, q, atol=4e-3)

    def test_seed_reproducibility(self):
        cfg = NoiseConfig()
        q = build_q(6, cfg)
        m = np.zeros(22)
        a = sample_gaussian(m, q, default_rng(123))
        b = sample_gaussian(m, q, default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            sample_gaussian(np.zeros(5), np.eye(4), default_rng(0))

    def test_indefinite_covariance_raises(self):
        q = np.diag([1.0, -1.0])
        with pytest.raises(NumericalError):
            sample_gaussian(np.zeros(2), q, default_rng(0))


class TestStructuredSampler:
    def test_bias_is_fixed_within_dataset(self):
        cfg = NoiseConfig(delta_d=3.0, delta_a=0.0175, mode="structured", ratio=0.001)
        bias = draw_dominant_bias(6, cfg, default_rng(5))
        rng = default_rng(6)
        m_true = np.zeros(22)
        draws = np.array([sample_structured(m_true, cfg, bias, rng) for _ in range(4000)])
        # With a tiny ratio every draw sits very close to truth + bias.
        np.testing.assert_allclose(draws.mean(axis=0), bias, atol=0.05 * np.abs(bias).max())

    def test_fluctuation_std_obeys_ratio(self):
        cfg = NoiseConfig(delta_d=3.0, delta_a=0.0525, mode="structured", ratio=0.1)
        bias = draw_dominant_bias(6, cfg, default_rng(11))
        rng = default_rng(12)
        m_true = np.zeros(22)
        draws = np.array([sample_structured(m_true, cfg, bias, rng) for _ in range(20000)])
        expected_sd = cfg.ratio * sigma_components(6, cfg)
        np.testing.assert_allclose(draws.std(axis=0), expected_sd, rtol=0.05)

    def test_shared_shape_scales_with_setting(self):
        # One environment shape reused across two noise settings produces
        # biases that are exact per-component rescalings of each other.
        shape = dominant_shape(22, default_rng(3))
        lo = dominant_bias_from_shape(shape, 6, NoiseConfig(delta_d=0.1, delta_a=0.0175))
        hi = dominant_bias_from_shape(shape, 6, NoiseConfig(delta_d=2.1, delta_a=0.0875))
        np.testing.assert_allclose(hi[0:10:2], lo[0:10:2] * 21.0)
        np.testing.assert_allclose(hi[10:], lo[10:] * 5.0)

    def test_bias_magnitude_tracks_sigma(self):
        # Across many dataset draws the bias std matches the dominant sigma.
        cfg = NoiseConfig(delta_d=3.0, delta_a=0.0525)
        rng = default_rng(21)
        biases = np.array([draw_dominant_bias(6, cfg, rng) for _ in range(20000)])
        np.testing.assert_allclose(biases.std(axis=0), sigma_components(6, cfg), rtol=0.05)

    def test_mismatched_bias_length_raises(self):
        cfg = NoiseConfig(mode="structured", ratio=0.1)
        with pytest.raises(DimensionMismatchError):
            sample_structured(np.zeros(22), cfg, np.zeros(6), default_rng(0))


class TestSamplerShapes:
    @pytest.mark.parametrize("size", [5, 20, 23])
    def test_structured_rejects_a_length_off_the_layout(self, size):
        cfg = NoiseConfig(mode="structured", ratio=0.1)
        with pytest.raises(DimensionMismatchError, match=f"shape \\({size},\\)"):
            sample_structured(np.zeros(size), cfg, np.zeros(size), default_rng(0))

    def test_gaussian_rejects_a_matrix(self):
        with pytest.raises(DimensionMismatchError, match=r"shape \(2, 3\)"):
            sample_gaussian(np.zeros((2, 3)), np.eye(6), default_rng(0))

    def test_scatterer_rejects_a_matrix(self):
        cfg = NoiseConfig(mode="structured", ratio=0.1)
        with pytest.raises(DimensionMismatchError, match=r"shape \(2, 2\)"):
            sample_structured_scatterer(np.zeros((2, 2)), cfg, np.zeros(4), default_rng(0))


class TestNoiseStep:
    @given(
        st.integers(2, 18),
        st.booleans(),
        st.floats(-2.0, 2.0).map(lambda k: 10.0**k),
        st.floats(0.001, 1.0),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_stacked_step_matches_the_samplers_row_by_row(
        self, n_a, scatterer, rho, ratio, rows, seed
    ):
        gaussian = NoiseConfig().scaled(rho)
        structured = NoiseConfig(mode="structured", ratio=ratio).scaled(rho)
        if scatterer:
            sd, q, sample = scatterer_sigma_components(gaussian), build_qs(gaussian), \
                sample_structured_scatterer
        else:
            sd, q, sample = sigma_components(n_a, gaussian), build_q(n_a, gaussian), \
                sample_structured
        rng = default_rng(seed)
        m_true = rng.normal(scale=100.0, size=(rows, sd.size))
        assert draw_dominant(gaussian, sd, rng) is None
        dominant = draw_dominant(structured, sd, rng)
        z = np.array([default_rng([seed, t]).standard_normal(sd.size) for t in range(rows)])
        noisy = add_noise(m_true, gaussian, sd, None, z)
        biased = add_noise(m_true, structured, sd, dominant, z)
        for t in range(rows):
            want = sample_gaussian(m_true[t], q, default_rng([seed, t]))
            assert np.array_equal(noisy[t], want)
            want = sample(m_true[t], structured, dominant, default_rng([seed, t]))
            assert np.array_equal(biased[t], want)

    def test_gaussian_mode_draws_no_bias(self):
        rng = default_rng(4)
        sd = sigma_components(6, NoiseConfig())
        assert draw_dominant(NoiseConfig(), sd, rng, pinned=np.ones(3)) is None
        assert rng.random() == default_rng(4).random()

    def test_pinned_bias_is_checked_against_the_layout(self):
        cfg = NoiseConfig(mode="structured", ratio=0.1)
        sd = sigma_components(6, cfg)
        assert np.array_equal(draw_dominant(cfg, sd, None, pinned=list(sd)), sd)
        with pytest.raises(DimensionMismatchError, match="22 entries"):
            draw_dominant(cfg, sd, None, pinned=np.zeros(18))
