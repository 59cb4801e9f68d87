"""Tests for the pseudo-linear system, its error linearization, and the solver."""

import numpy as np
import pytest
from numpy.random import default_rng

from hybridloc.crlb import crlb_ue, crlb_ue_position
from hybridloc.errors import DimensionMismatchError, SingularProblemError
from hybridloc.geometry import ue_measurement
from hybridloc.noise import NoiseConfig, build_q, sample_gaussian
from hybridloc.scenario import DEFAULT_RRHS, DEFAULT_UE_STATE, Scenario, sample_ue_state
from hybridloc.ue_wls import (
    WlsResult,
    build_b,
    build_system,
    residual_vector,
    solve_linear,
    unpack_measurement,
    wls_solve,
)

RRHS6 = DEFAULT_RRHS[:6]
X_TRUE = DEFAULT_UE_STATE
M_TRUE = ue_measurement(X_TRUE, RRHS6)
Q6 = build_q(6, NoiseConfig())


def fd_error_jacobian(m0, rrhs, x, step=1e-7):
    """Columnwise central differences of e(m) = h(m) - G(m) x at m0."""
    dim = m0.size
    jac = np.zeros((dim, dim))
    for k in range(dim):
        dm = np.zeros(dim)
        dm[k] = step
        e_plus = residual_vector(m0 + dm, rrhs, x)
        e_minus = residual_vector(m0 - dm, rrhs, x)
        jac[:, k] = (e_plus - e_minus) / (2 * step)
    return jac


class TestUnpack:
    def test_round_trip_layout(self):
        r_n1, rdot_n1, phi, theta = unpack_measurement(M_TRUE, 6)
        assert r_n1.shape == (5,) and rdot_n1.shape == (5,)
        assert phi.shape == (6,) and theta.shape == (6,)
        assert r_n1[0] == M_TRUE[0] and rdot_n1[0] == M_TRUE[1]
        assert phi[0] == M_TRUE[10] and theta[5] == M_TRUE[21]

    def test_wrong_length_raises(self):
        with pytest.raises(DimensionMismatchError):
            unpack_measurement(np.zeros(21), 6)


class TestBuildSystem:
    def test_dimensions(self):
        h, g = build_system(M_TRUE, RRHS6)
        assert h.shape == (22,) and g.shape == (22, 6)

    def test_noise_free_exactness(self):
        h, g = build_system(M_TRUE, RRHS6)
        residual = h - g @ X_TRUE
        assert np.abs(residual).max() <= 1e-8 * max(np.abs(h).max(), 1.0)

    def test_exactness_at_random_states(self):
        sc = Scenario()
        rng = default_rng(17)
        for _ in range(20):
            x = sample_ue_state(sc, rng)
            m = ue_measurement(x, RRHS6)
            res = residual_vector(m, RRHS6, x)
            h, _ = build_system(m, RRHS6)
            assert np.abs(res).max() <= 1e-8 * max(np.abs(h).max(), 1.0)

    def test_aoa_rows_have_zero_velocity_block(self):
        _, g = build_system(M_TRUE, RRHS6)
        np.testing.assert_array_equal(g[10:, 3:], 0.0)

    def test_tdoa_rows_have_zero_velocity_block(self):
        _, g = build_system(M_TRUE, RRHS6)
        np.testing.assert_array_equal(g[0:10:2, 3:], 0.0)


class TestBuildB:
    def test_matches_error_jacobian(self):
        b = build_b(X_TRUE, RRHS6)
        fd = fd_error_jacobian(M_TRUE, RRHS6, X_TRUE)
        assert np.abs(b - fd).max() / np.abs(fd).max() < 1e-5

    def test_matches_error_jacobian_at_random_states(self):
        sc = Scenario()
        rng = default_rng(29)
        for _ in range(5):
            x = sample_ue_state(sc, rng)
            m = ue_measurement(x, RRHS6)
            b = build_b(x, RRHS6)
            fd = fd_error_jacobian(m, RRHS6, x)
            assert np.abs(b - fd).max() / np.abs(fd).max() < 1e-5

    def test_linearization_remainder_decays_quadratically(self):
        b = build_b(X_TRUE, RRHS6)
        rng = default_rng(41)
        dm = rng.standard_normal(22) * np.concatenate([np.tile([0.1, 0.01], 5), np.full(12, 1e-3)])
        prev = None
        for _ in range(3):
            remainder = np.linalg.norm(residual_vector(M_TRUE + dm, RRHS6, X_TRUE) - b @ dm)
            if prev is not None:
                assert 3.5 <= prev / remainder <= 4.5
            prev = remainder
            dm = dm / 2.0

    def test_static_user_has_no_angle_coupling(self):
        x = np.array([250.0, 450.0, 0.0, 0.0, 0.0, 0.0])
        b = build_b(x, RRHS6)
        np.testing.assert_array_equal(b[0:10, 10:], 0.0)

    def test_invertible_and_block_triangular(self):
        b = build_b(X_TRUE, RRHS6)
        sign, logdet = np.linalg.slogdet(b)
        assert sign != 0 and np.isfinite(logdet)
        np.testing.assert_array_equal(b[10:, :10], 0.0)


class TestSolver:
    def test_zero_noise_recovers_state(self):
        result = wls_solve(M_TRUE, RRHS6, Q6, iters=2)
        assert isinstance(result, WlsResult)
        assert result.velocity_valid
        np.testing.assert_allclose(result.position, X_TRUE[:3], atol=1e-6)
        np.testing.assert_allclose(result.velocity, X_TRUE[3:], atol=1e-6)

    def test_single_pass_already_exact_at_zero_noise(self):
        result = wls_solve(M_TRUE, RRHS6, Q6, iters=1)
        np.testing.assert_allclose(result.x, X_TRUE, atol=1e-6)

    def test_covariance_matches_lower_bound_at_truth(self):
        result = wls_solve(M_TRUE, RRHS6, Q6, iters=2)
        bound = crlb_ue(X_TRUE, RRHS6, Q6)
        gap = np.linalg.norm(result.cov - bound) / np.linalg.norm(bound)
        assert gap < 1e-6

    def test_small_noise_estimates_stay_close(self):
        cfg = NoiseConfig(delta_d=0.022, delta_a=0.00175)
        q = build_q(6, cfg)
        rng = default_rng(53)
        for _ in range(50):
            m = sample_gaussian(M_TRUE, q, rng)
            result = wls_solve(m, RRHS6, q, iters=2)
            assert np.linalg.norm(result.position - X_TRUE[:3]) < 1.0
            assert np.linalg.norm(result.velocity - X_TRUE[3:]) < 0.5

    def test_two_receivers_fall_back_to_position_only(self):
        rrhs = DEFAULT_RRHS[:2]
        m = ue_measurement(X_TRUE, rrhs)
        result = wls_solve(m, rrhs, build_q(2, NoiseConfig()), iters=2)
        assert not result.velocity_valid
        np.testing.assert_allclose(result.position, X_TRUE[:3], atol=1e-6)
        assert np.all(np.isnan(result.velocity))
        assert np.all(np.isnan(result.cov[3:, 3:]))

    def test_three_receivers_fall_back_to_position_only(self):
        rrhs = DEFAULT_RRHS[:3]
        m = ue_measurement(X_TRUE, rrhs)
        result = wls_solve(m, rrhs, build_q(3, NoiseConfig()), iters=2)
        assert not result.velocity_valid
        np.testing.assert_allclose(result.position, X_TRUE[:3], atol=1e-6)

    def test_position_only_covariance_matches_its_bound(self):
        # The fallback solves with the TDOA and AOA rows only; at a
        # noise-free measurement its covariance is the bound of those rows.
        for n_a in (2, 3):
            rrhs = DEFAULT_RRHS[:n_a]
            q = build_q(n_a, NoiseConfig())
            result = wls_solve(ue_measurement(X_TRUE, rrhs), rrhs, q)
            np.testing.assert_allclose(
                result.cov[:3, :3], crlb_ue_position(X_TRUE, rrhs, q), rtol=1e-6
            )

    def test_four_receivers_identify_velocity(self):
        rrhs = DEFAULT_RRHS[:4]
        m = ue_measurement(X_TRUE, rrhs)
        result = wls_solve(m, rrhs, build_q(4, NoiseConfig()), iters=2)
        assert result.velocity_valid
        np.testing.assert_allclose(result.x, X_TRUE, atol=1e-6)

    def test_covariance_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            wls_solve(M_TRUE, RRHS6, np.eye(10), iters=2)


class TestSolveLinear:
    def test_rank_deficient_raises(self):
        g = np.zeros((8, 6))
        g[:, :3] = default_rng(0).standard_normal((8, 3))
        with pytest.raises(SingularProblemError):
            solve_linear(np.zeros(8), g, np.eye(8))

    def test_identity_weight_is_plain_least_squares(self):
        h, g = build_system(M_TRUE, RRHS6)
        x, _ = solve_linear(h, g, np.eye(22))
        expected, *_ = np.linalg.lstsq(g, h, rcond=None)
        np.testing.assert_allclose(x, expected, atol=1e-8)
