"""Tests for the reflected-path system, its linearization, and the solver."""

from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

import wls_oracle as oracle
from hybridloc.crlb import crlb_scatterer
from hybridloc.errors import (
    DegenerateGeometryError,
    DimensionMismatchError,
    SingularProblemError,
)
from hybridloc.geometry import scatterer_measurement
from hybridloc.noise import NoiseConfig, build_qs, sample_gaussian
from hybridloc.scatterer_wls import (
    ScattererResult,
    build_bs,
    build_scatterer_system,
    scatterer_wls_solve,
)
from hybridloc.scenario import (
    DEFAULT_RRHS,
    DEFAULT_SCATTERER_STATE,
    DEFAULT_UE_STATE,
    Scenario,
    load_scenario,
    sample_scatterer_state,
)

B_OBS = DEFAULT_RRHS[0]
B_REF = DEFAULT_RRHS[0]
UE = DEFAULT_UE_STATE
XS_TRUE = DEFAULT_SCATTERER_STATE
MS_TRUE = scatterer_measurement(XS_TRUE, UE, B_OBS, B_REF)
QS = build_qs(NoiseConfig())
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scatterer_residual(ms, b_n, b_1, ue, xs) -> np.ndarray:
    """Residual e = h - G T x for a reduced state x = [s, speed]."""
    h, gt = build_scatterer_system(ms, b_n, b_1, ue)
    return h - gt @ np.asarray(xs, dtype=float)


def fd_error_jacobian(ms0, xs, step=1e-7):
    jac = np.zeros((4, 4))
    for k in range(4):
        dm = np.zeros(4)
        dm[k] = step
        e_plus = scatterer_residual(ms0 + dm, B_OBS, B_REF, UE, xs)
        e_minus = scatterer_residual(ms0 - dm, B_OBS, B_REF, UE, xs)
        jac[:, k] = (e_plus - e_minus) / (2 * step)
    return jac


class TestSystem:
    def test_shapes(self):
        h, gt = build_scatterer_system(MS_TRUE, B_OBS, B_REF, UE)
        assert h.shape == (4,) and gt.shape == (4, 4)

    def test_noise_free_exactness(self):
        res = scatterer_residual(MS_TRUE, B_OBS, B_REF, UE, XS_TRUE)
        h, _ = build_scatterer_system(MS_TRUE, B_OBS, B_REF, UE)
        assert np.abs(res).max() <= 1e-8 * max(np.abs(h).max(), 1.0)

    def test_exactness_at_random_scatterers(self):
        sc = Scenario()
        rng = default_rng(61)
        for _ in range(20):
            xs = sample_scatterer_state(sc, rng)
            ms = scatterer_measurement(xs, UE, DEFAULT_RRHS[2], B_REF)
            res = scatterer_residual(ms, DEFAULT_RRHS[2], B_REF, UE, xs)
            h, _ = build_scatterer_system(ms, DEFAULT_RRHS[2], B_REF, UE)
            assert np.abs(res).max() <= 1e-8 * max(np.abs(h).max(), 1.0)

    def test_angle_rows_carry_no_velocity_columns(self):
        _, gt = build_scatterer_system(MS_TRUE, B_OBS, B_REF, UE)
        np.testing.assert_array_equal(gt[2:, 3], 0.0)

    def test_transform_maps_speed_along_user_direction(self):
        _, g, t = oracle.build_scatterer_system(MS_TRUE, B_OBS, B_REF, UE)
        n_v = UE[3:] / np.linalg.norm(UE[3:])
        mapped = t @ np.array([0.0, 0.0, 0.0, 2.0])
        np.testing.assert_allclose(mapped, np.concatenate([np.zeros(3), 2.0 * n_v]))
        _, gt = build_scatterer_system(MS_TRUE, B_OBS, B_REF, UE)
        np.testing.assert_array_equal(gt, g @ t)

    def test_static_user_raises(self):
        static = np.array([250.0, 450.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            build_scatterer_system(MS_TRUE, B_OBS, B_REF, static)

    def test_wrong_length_raises(self):
        with pytest.raises(DimensionMismatchError):
            build_scatterer_system(np.zeros(5), B_OBS, B_REF, UE)


class TestBuildBs:
    def test_matches_error_jacobian(self):
        bs = build_bs(XS_TRUE, B_OBS, UE)
        fd = fd_error_jacobian(MS_TRUE, XS_TRUE)
        assert np.abs(bs - fd).max() / np.abs(fd).max() < 1e-5

    def test_matches_error_jacobian_at_random_scatterers(self):
        sc = Scenario()
        rng = default_rng(71)
        for _ in range(5):
            xs = sample_scatterer_state(sc, rng)
            ms = scatterer_measurement(xs, UE, B_OBS, B_REF)
            bs = build_bs(xs, B_OBS, UE)

            def residual(ms_pert, xs=xs):
                return scatterer_residual(ms_pert, B_OBS, B_REF, UE, xs)

            fd = np.zeros((4, 4))
            for k in range(4):
                dm = np.zeros(4)
                dm[k] = 1e-7
                fd[:, k] = (residual(ms + dm) - residual(ms - dm)) / 2e-7
            assert np.abs(bs - fd).max() / np.abs(fd).max() < 1e-5

    def test_static_scatterer_rate_row(self):
        # A non-moving scatterer leaves only the rate-vs-rate entry and the
        # user-motion term in the first column of the rate row.
        xs = np.array([260.0, 700.0, 10.0, 0.0])
        bs = build_bs(xs, B_OBS, UE)
        assert bs[1, 2] == 0.0 and bs[1, 3] == 0.0
        d2 = np.linalg.norm(UE[:3] - xs[:3])
        assert bs[1, 1] == pytest.approx(d2)

    def test_invertible_at_default_geometry(self):
        sign, logdet = np.linalg.slogdet(build_bs(XS_TRUE, B_OBS, UE))
        assert sign != 0 and np.isfinite(logdet)


class TestSolver:
    def test_zero_noise_exact_recovery(self):
        result = scatterer_wls_solve(MS_TRUE, B_OBS, B_REF, UE, QS)
        assert isinstance(result, ScattererResult)
        np.testing.assert_allclose(result.position, XS_TRUE[:3], atol=1e-6)
        assert result.speed == pytest.approx(XS_TRUE[3], abs=1e-6)

    def test_negative_speed_recovered(self):
        xs = np.array([260.0, 700.0, 10.0, -4.0])
        ms = scatterer_measurement(xs, UE, B_OBS, B_REF)
        result = scatterer_wls_solve(ms, B_OBS, B_REF, UE, QS)
        assert result.speed == pytest.approx(-4.0, abs=1e-6)

    def test_estimate_solves_square_system(self):
        # The system is square, so the estimate is its exact solution
        # whatever the weighting.
        rng = default_rng(83)
        for _ in range(20):
            ms = sample_gaussian(MS_TRUE, QS, rng)
            h, gt = build_scatterer_system(ms, B_OBS, B_REF, UE)
            exact = np.linalg.solve(gt, h)
            result = scatterer_wls_solve(ms, B_OBS, B_REF, UE, QS)
            np.testing.assert_allclose(result.x, exact, rtol=1e-9)

    def test_covariance_matches_lower_bound_at_truth(self):
        result = scatterer_wls_solve(MS_TRUE, B_OBS, B_REF, UE, QS)
        bound = crlb_scatterer(XS_TRUE, B_OBS, UE, QS)
        gap = np.linalg.norm(result.cov - bound) / np.linalg.norm(bound)
        assert gap < 1e-6

    def test_ue_error_propagates_continuously(self):
        # Perturbing the user estimate must shift the output boundedly, not
        # blow it up; the pinned factor is generous versus the measured one.
        rng = default_rng(97)
        base = scatterer_wls_solve(MS_TRUE, B_OBS, B_REF, UE, QS)
        for _ in range(10):
            delta = rng.standard_normal(6)
            delta[:3] *= 1.0 / np.linalg.norm(delta[:3])
            delta[3:] *= 0.1 / np.linalg.norm(delta[3:])
            shifted = scatterer_wls_solve(MS_TRUE, B_OBS, B_REF, UE + delta, QS)
            assert np.all(np.isfinite(shifted.x))
            assert np.linalg.norm(shifted.x - base.x) <= 50.0

    def test_bad_covariance_shape_raises(self):
        with pytest.raises(DimensionMismatchError):
            scatterer_wls_solve(MS_TRUE, B_OBS, B_REF, UE, np.eye(3))

    def test_pinned_singular_trial_still_raises(self):
        # Trial 0 of crlb-attainment.yaml at seed 25 and rho 10: the square
        # system solves, but the covariance's normal matrix is singular.
        sc = load_scenario(SCENARIOS / "crlb-attainment.yaml")
        cfg = sc.noise.scaled(10.0)
        b_n, b_1 = sc.rrhs[sc.scatterer_rrh], sc.rrhs[0]
        ms_true = scatterer_measurement(sc.scatterer_true, sc.ue_true, b_n, b_1)
        ms = sample_gaussian(ms_true, build_qs(cfg), np.random.default_rng([25, 0]))
        with pytest.raises(SingularProblemError, match="singular"):
            scatterer_wls_solve(ms, b_n, b_1, sc.ue_true, build_qs(cfg))
