"""Tests for the noise-free forward model.

Analytic rates and angles are validated against central finite differences
of the corresponding range/angle functions along the motion trajectory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridloc import geometry
from hybridloc.errors import DegenerateGeometryError, GimbalLockError

RNG = np.random.default_rng(42)

# Desk scenario used throughout: receiver 1 position and a user state.
B1 = np.array([235.5042, 389.5038, 26.0])
B2 = np.array([287.5042, 389.5038, 32.0])
U = np.array([250.0, 450.0, 0.0])
UDOT = np.array([-10.0, 2.0, 5.0])


def tdoa_related(u, b_n, b_1) -> float:
    """Range difference ``||u - b_n|| - ||u - b_1||`` (meters)."""
    return geometry.los_range(u, b_n) - geometry.los_range(u, b_1)


def fdoa_related(u, udot, b_n, b_1) -> float:
    """Range-rate difference against the reference receiver (meters/second)."""
    return geometry.range_rate(u, udot, b_n) - geometry.range_rate(u, udot, b_1)


def random_state(rng):
    u = rng.uniform([240, 450, 0], [280, 850, 20])
    udot = rng.uniform(-10, 10, 3)
    return u, udot


coord = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(coord, coord, coord).map(np.array)


class TestRanges:
    def test_coincident_points_have_zero_range(self):
        assert geometry.los_range(B1, B1) == 0.0

    def test_unit_axis(self):
        assert geometry.los_range([1, 0, 0], [0, 0, 0]) == 1.0

    def test_desk_scenario_range(self):
        # Hand-evaluated Euclidean norm, frozen.
        assert geometry.los_range(U, B1) == pytest.approx(67.42342643384418, abs=1e-10)

    def test_tdoa_zero_for_identical_receivers(self):
        assert tdoa_related(U, B1, B1) == 0.0

    def test_tdoa_zero_on_bisector_plane(self):
        # Point equidistant from two receivers.
        mid = np.array([0.0, 5.0, 3.0])
        assert tdoa_related(mid, [1, 0, 0], [-1, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_tdoa_composes_two_ranges(self):
        expected = geometry.los_range(U, B2) - geometry.los_range(U, B1)
        assert tdoa_related(U, B2, B1) == pytest.approx(expected, abs=1e-12)

    @given(u=vec3, bn=vec3, b1=vec3)
    def test_tdoa_antisymmetry(self, u, bn, b1):
        assert tdoa_related(u, bn, b1) == pytest.approx(
            -tdoa_related(u, b1, bn), abs=1e-9
        )


class TestRangeRates:
    def test_tangential_motion_has_zero_rate(self):
        # Velocity perpendicular to the line of sight.
        assert geometry.range_rate([1, 0, 0], [0, 1, 0], [0, 0, 0]) == pytest.approx(0.0)

    def test_radial_motion_rate_equals_speed(self):
        assert geometry.range_rate([1, 0, 0], [3, 0, 0], [0, 0, 0]) == pytest.approx(3.0)

    def test_rate_bounded_by_speed(self):
        for _ in range(50):
            u, udot = random_state(RNG)
            assert abs(geometry.range_rate(u, udot, B1)) <= np.linalg.norm(udot) + 1e-12

    def test_finite_difference_oracle(self):
        delta = 1e-6
        fd = (geometry.los_range(U + delta * UDOT, B1) - geometry.los_range(U, B1)) / delta
        assert geometry.range_rate(U, UDOT, B1) == pytest.approx(fd, rel=1e-4)

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateGeometryError):
            geometry.range_rate(B1, UDOT, B1)


class TestFdoa:
    def test_identical_receivers_give_zero(self):
        assert fdoa_related(U, UDOT, B1, B1) == 0.0

    def test_static_user_gives_zero(self):
        assert fdoa_related(U, np.zeros(3), B2, B1) == 0.0

    def test_finite_difference_of_tdoa_over_time(self):
        delta = 1e-6
        fd = (
            tdoa_related(U + delta * UDOT, B2, B1)
            - tdoa_related(U, B2, B1)
        ) / delta
        assert fdoa_related(U, UDOT, B2, B1) == pytest.approx(fd, rel=1e-4)


class TestAoa:
    def test_plus_x_axis(self):
        assert geometry.aoa_los([1, 0, 0], [0, 0, 0]) == (0.0, 0.0)

    def test_zenith_uses_zero_azimuth_convention(self):
        phi, theta = geometry.aoa_los([0, 0, 5], [0, 0, 0])
        assert phi == 0.0
        assert theta == pytest.approx(np.pi / 2)

    def test_diagonal_ray(self):
        phi, theta = geometry.aoa_los([1, 1, np.sqrt(2)], [0, 0, 0])
        assert phi == pytest.approx(np.pi / 4)
        assert theta == pytest.approx(np.pi / 4)

    def test_reconstruction_identity(self):
        """b + range * direction(phi, theta) recovers the original point."""
        for _ in range(100):
            u, _ = random_state(RNG)
            b = RNG.uniform(-100, 100, 3)
            r = geometry.los_range(u, b)
            a, _, _ = geometry.angular_vectors(*geometry.aoa_los(u, b))
            np.testing.assert_allclose(b + r * a, u, rtol=1e-9, atol=1e-9)

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateGeometryError):
            geometry.aoa_los(B1, B1)


class TestAngularFrame:
    def test_frame_at_origin_angles(self):
        a, c, d = geometry.angular_vectors(0.0, 0.0)
        np.testing.assert_allclose(a, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(c, [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(d, [0, 0, 1], atol=1e-15)

    def test_quarter_turn_azimuth(self):
        a, _, _ = geometry.angular_vectors(np.pi / 2, 0.0)
        np.testing.assert_allclose(a, [0, 1, 0], atol=1e-15)

    @given(
        phi=st.floats(-np.pi, np.pi, allow_nan=False),
        theta=st.floats(-np.pi / 2, np.pi / 2, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_orthonormality(self, phi, theta):
        a, c, d = geometry.angular_vectors(phi, theta)
        gram = np.stack([a, c, d]) @ np.stack([a, c, d]).T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


class TestAngleRates:
    def test_static_user_has_zero_rates(self):
        assert geometry.angle_rates(U, np.zeros(3), B1) == (0.0, 0.0)

    def test_circular_motion(self):
        # Horizontal circle of radius r around the receiver: phidot = v / r.
        r, v = 20.0, 4.0
        u = np.array([r, 0.0, 0.0])
        udot = np.array([0.0, v, 0.0])
        phidot, thetadot = geometry.angle_rates(u, udot, np.zeros(3))
        assert phidot == pytest.approx(v / r)
        assert thetadot == pytest.approx(0.0, abs=1e-15)

    def test_finite_difference_oracle(self):
        delta = 1e-6
        for _ in range(20):
            u, udot = random_state(RNG)
            phi0, theta0 = geometry.aoa_los(u, B1)
            phi1, theta1 = geometry.aoa_los(u + delta * udot, B1)
            phidot, thetadot = geometry.angle_rates(u, udot, B1)
            assert phidot == pytest.approx((phi1 - phi0) / delta, rel=1e-4, abs=1e-10)
            assert thetadot == pytest.approx((theta1 - theta0) / delta, rel=1e-4, abs=1e-10)

    def test_vertical_ray_raises_gimbal_error(self):
        with pytest.raises(GimbalLockError):
            geometry.angle_rates([0, 0, 10], UDOT, [0, 0, 0])


class TestNlosParams:
    def test_scatterer_on_direct_path_matches_tdoa(self):
        # Degenerate scatterer placed on the segment user -> receiver.
        s = U + 0.4 * (B2 - U)
        rs_n1, _, _, _ = geometry.nlos_params(U, UDOT, s, np.zeros(3), B2, B1)
        assert rs_n1 == pytest.approx(tdoa_related(U, B2, B1), abs=1e-9)

    def test_all_static_gives_zero_rate(self):
        s = np.array([240.0, 600.0, -19.0])
        _, rsdot, _, _ = geometry.nlos_params(U, np.zeros(3), s, np.zeros(3), B2, B1)
        assert rsdot == pytest.approx(0.0, abs=1e-12)

    def test_rate_matches_finite_difference_of_path_length(self):
        delta = 1e-6
        s = np.array([240.0, 600.0, -19.0])
        sdot = 5.0 * UDOT / np.linalg.norm(UDOT)

        def path_minus_ref(t):
            ut, stt = U + t * UDOT, s + t * sdot
            return (
                geometry.los_range(ut, stt)
                + geometry.los_range(stt, B2)
                - geometry.los_range(ut, B1)
            )

        fd = (path_minus_ref(delta) - path_minus_ref(0.0)) / delta
        _, rsdot, _, _ = geometry.nlos_params(U, UDOT, s, sdot, B2, B1)
        assert rsdot == pytest.approx(fd, rel=1e-4)

    def test_triangle_inequality(self):
        for _ in range(50):
            u, udot = random_state(RNG)
            s = RNG.uniform([240, 450, 0], [280, 850, 20])
            rs_n1, _, _, _ = geometry.nlos_params(u, udot, s, np.zeros(3), B2, B1)
            r1 = geometry.los_range(u, B1)
            assert rs_n1 + r1 >= geometry.los_range(u, B2) - 1e-9


class TestMeasurementVector:
    def test_dimension(self):
        rrhs = RNG.uniform(-100, 100, (6, 3))
        assert geometry.ue_measurement(np.r_[U, UDOT], rrhs).shape == (22,)

    def test_entries_match_scalar_operations(self):
        rrhs = np.stack([B1, B2, [235.5042, 489.5038, 10.0]])
        m = geometry.ue_measurement(np.r_[U, UDOT], rrhs)
        assert m[0] == pytest.approx(tdoa_related(U, rrhs[1], rrhs[0]))
        assert m[1] == pytest.approx(fdoa_related(U, UDOT, rrhs[1], rrhs[0]))
        assert m[2] == pytest.approx(tdoa_related(U, rrhs[2], rrhs[0]))
        phi3, theta3 = geometry.aoa_los(U, rrhs[2])
        assert m[8] == pytest.approx(phi3)
        assert m[9] == pytest.approx(theta3)

    def test_scatterer_vector_matches_nlos_params(self):
        xs = np.array([240.0, 600.0, -19.0, 5.0])
        x = np.r_[U, UDOT]
        ms = geometry.scatterer_measurement(xs, x, B2, B1)
        n_v = UDOT / np.linalg.norm(UDOT)
        expected = geometry.nlos_params(U, UDOT, xs[:3], 5.0 * n_v, B2, B1)
        np.testing.assert_allclose(ms, expected, rtol=1e-12)

    def test_static_user_rejected_for_scatterer_vector(self):
        with pytest.raises(DegenerateGeometryError):
            geometry.scatterer_measurement(
                [240, 600, -19, 5.0], np.r_[U, np.zeros(3)], B2, B1
            )
