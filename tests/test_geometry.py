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
from hybridloc.ue_wls import build_b
from crlb_oracle import position_rows
from scalar_geometry import aoa_los, los_range, nlos_params, range_rate

RNG = np.random.default_rng(42)

# Desk scenario used throughout: receiver 1 position and a user state.
B1 = np.array([235.5042, 389.5038, 26.0])
B2 = np.array([287.5042, 389.5038, 32.0])
U = np.array([250.0, 450.0, 0.0])
UDOT = np.array([-10.0, 2.0, 5.0])


def ray_range(u, b):
    """Per-ray range ``||u - b||`` of stacked points and receivers."""
    return geometry.look_angles(np.asarray(u, dtype=float) - np.asarray(b, dtype=float))[0]


def tdoa_related(u, b_n, b_1) -> float:
    """Range difference ``||u - b_n|| - ||u - b_1||`` (meters)."""
    r = ray_range(u, np.array([b_n, b_1], dtype=float))
    return r[0] - r[1]


def fdoa_related(u, udot, b_n, b_1) -> float:
    """Range-rate difference against the reference receiver (meters/second)."""
    _, rdot, _, _ = geometry.direct_paths(np.r_[u, udot], np.array([b_n, b_1], dtype=float))
    return rdot[0] - rdot[1]


def rate(u, udot, b) -> float:
    return geometry.direct_paths(np.r_[u, udot], b)[1]


def angles(u, b):
    _, phi, theta = geometry.look_angles(np.asarray(u, dtype=float) - np.asarray(b, dtype=float))
    return phi, theta


def random_state(rng):
    u = rng.uniform([240, 450, 0], [280, 850, 20])
    udot = rng.uniform(-10, 10, 3)
    return u, udot


coord = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(coord, coord, coord).map(np.array)


class TestRanges:
    def test_coincident_points_have_zero_range(self):
        assert ray_range(B1, B1) == 0.0

    def test_unit_axis(self):
        assert ray_range([1, 0, 0], [0, 0, 0]) == 1.0

    def test_desk_scenario_range(self):
        # Hand-evaluated Euclidean norm, frozen.
        assert ray_range(U, B1) == pytest.approx(67.42342643384418, abs=1e-10)

    def test_tdoa_zero_for_identical_receivers(self):
        assert tdoa_related(U, B1, B1) == 0.0

    def test_tdoa_zero_on_bisector_plane(self):
        # Point equidistant from two receivers.
        mid = np.array([0.0, 5.0, 3.0])
        assert tdoa_related(mid, [1, 0, 0], [-1, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_tdoa_composes_two_ranges(self):
        expected = ray_range(U, B2) - ray_range(U, B1)
        assert tdoa_related(U, B2, B1) == pytest.approx(expected, abs=1e-12)

    @given(u=vec3, bn=vec3, b1=vec3)
    def test_tdoa_antisymmetry(self, u, bn, b1):
        assert tdoa_related(u, bn, b1) == pytest.approx(
            -tdoa_related(u, b1, bn), abs=1e-9
        )


class TestRangeRates:
    def test_tangential_motion_has_zero_rate(self):
        # Velocity perpendicular to the line of sight.
        assert rate([1, 0, 0], [0, 1, 0], [0, 0, 0]) == pytest.approx(0.0)

    def test_radial_motion_rate_equals_speed(self):
        assert rate([1, 0, 0], [3, 0, 0], [0, 0, 0]) == pytest.approx(3.0)

    def test_rate_bounded_by_speed(self):
        for _ in range(50):
            u, udot = random_state(RNG)
            assert abs(rate(u, udot, B1)) <= np.linalg.norm(udot) + 1e-12

    def test_finite_difference_oracle(self):
        delta = 1e-6
        fd = (ray_range(U + delta * UDOT, B1) - ray_range(U, B1)) / delta
        assert rate(U, UDOT, B1) == pytest.approx(fd, rel=1e-4)

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateGeometryError):
            geometry.ue_measurement(np.r_[B1, UDOT], np.array([B2, B1]))


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
        assert angles([1, 0, 0], [0, 0, 0]) == (0.0, 0.0)

    def test_zenith_uses_zero_azimuth_convention(self):
        phi, theta = angles([0, 0, 5], [0, 0, 0])
        assert phi == 0.0
        assert theta == pytest.approx(np.pi / 2)

    def test_diagonal_ray(self):
        phi, theta = angles([1, 1, np.sqrt(2)], [0, 0, 0])
        assert phi == pytest.approx(np.pi / 4)
        assert theta == pytest.approx(np.pi / 4)

    def test_reconstruction_identity(self):
        """b + range * direction(phi, theta) recovers the original point."""
        u = np.array([random_state(RNG)[0] for _ in range(100)])
        b = RNG.uniform(-100, 100, (100, 3))
        r, phi, theta = geometry.look_angles(u - b)
        a, _, _ = geometry.angular_vectors(phi, theta)
        np.testing.assert_allclose(b + r[:, None] * a, u, rtol=1e-9, atol=1e-9)

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateGeometryError):
            geometry.direct_paths(np.r_[B1, UDOT], np.array([B2, B1]))


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

    def test_stacked_frames_equal_single_frames(self):
        phi = RNG.uniform(-np.pi, np.pi, (4, 5))
        theta = RNG.uniform(-np.pi / 2, np.pi / 2, (4, 5))
        stacked = geometry.angular_vectors(phi, theta)
        for i, j in np.ndindex(phi.shape):
            single = geometry.angular_vectors(phi[i, j], theta[i, j])
            for v_stacked, v_single in zip(stacked, single):
                assert np.array_equal(v_stacked[i, j], v_single)


def look_rates_at(u, udot, b):
    r, phi, theta = geometry.look_angles(np.asarray(u, dtype=float) - b)
    return geometry.look_rates(r, phi, theta, udot)


class TestAngleRates:
    def test_static_user_has_zero_rates(self):
        assert look_rates_at(U, np.zeros(3), B1) == (0.0, 0.0)

    def test_circular_motion(self):
        # Horizontal circle of radius r around the receiver: phidot = v / r.
        r, v = 20.0, 4.0
        u = np.array([r, 0.0, 0.0])
        udot = np.array([0.0, v, 0.0])
        phidot, thetadot = look_rates_at(u, udot, np.zeros(3))
        assert phidot == pytest.approx(v / r)
        assert thetadot == pytest.approx(0.0, abs=1e-15)

    def test_finite_difference_oracle(self):
        delta = 1e-6
        for _ in range(20):
            u, udot = random_state(RNG)
            phi0, theta0 = angles(u, B1)
            phi1, theta1 = angles(u + delta * udot, B1)
            phidot, thetadot = look_rates_at(u, udot, B1)
            assert phidot == pytest.approx((phi1 - phi0) / delta, rel=1e-4, abs=1e-10)
            assert thetadot == pytest.approx((theta1 - theta0) / delta, rel=1e-4, abs=1e-10)

    def test_vertical_ray_raises_gimbal_error(self):
        # The reference receiver's angle rates enter the first-order noise map.
        with pytest.raises(GimbalLockError):
            build_b(np.r_[B1 + [0.0, 0.0, 10.0], UDOT], np.array([B1, B2]))


def reflected(u, udot, s, speed, b_n=B2, b_1=B1):
    return geometry.scatterer_measurement(np.r_[s, speed], np.r_[u, udot], b_n, b_1)


class TestNlosParams:
    def test_scatterer_on_direct_path_matches_tdoa(self):
        # Degenerate scatterer placed on the segment user -> receiver.
        s = U + 0.4 * (B2 - U)
        rs_n1 = reflected(U, UDOT, s, 0.0)[0]
        assert rs_n1 == pytest.approx(tdoa_related(U, B2, B1), abs=1e-9)

    def test_all_static_gives_zero_rate(self):
        # A static user has no scatterer velocity direction, so the user
        # moves at 1e-12 m/s: the rate vanishes with the velocities.
        s = np.array([240.0, 600.0, -19.0])
        rsdot = reflected(U, 1e-12 * UDOT, s, 0.0)[1]
        assert rsdot == pytest.approx(0.0, abs=1e-9)

    def test_rate_matches_finite_difference_of_path_length(self):
        delta = 1e-6
        s = np.array([240.0, 600.0, -19.0])
        sdot = 5.0 * UDOT / np.linalg.norm(UDOT)

        def path_minus_ref(t):
            ut, stt = U + t * UDOT, s + t * sdot
            return ray_range(ut, stt) + ray_range(stt, B2) - ray_range(ut, B1)

        fd = (path_minus_ref(delta) - path_minus_ref(0.0)) / delta
        rsdot = reflected(U, UDOT, s, 5.0)[1]
        assert rsdot == pytest.approx(fd, rel=1e-4)

    def test_triangle_inequality(self):
        for _ in range(50):
            u, udot = random_state(RNG)
            s = RNG.uniform([240, 450, 0], [280, 850, 20])
            rs_n1 = reflected(u, udot, s, 0.0)[0]
            assert rs_n1 + ray_range(u, B1) >= ray_range(u, B2) - 1e-9


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
        phi3, theta3 = angles(U, rrhs[2])
        assert m[8] == pytest.approx(phi3)
        assert m[9] == pytest.approx(theta3)

    def test_row_blocks_partition_the_layouts(self):
        layouts = [(1, 4, (np.s_[0:2:2], np.s_[1:2:2], np.s_[2::2], np.s_[3::2]))]  # a path
        for n in range(2, 19):  # the user seen by n receivers
            layouts.append((n - 1, 4 * n - 2, (np.s_[0 : 2 * n - 2 : 2], np.s_[1 : 2 * n - 2 : 2],
                                               np.s_[2 * n - 2 :: 2], np.s_[2 * n - 1 :: 2])))
        for pairs, dim, literal in layouts:
            rows = np.arange(dim)
            blocks = geometry.row_blocks(pairs)
            for block, expected in zip(blocks, literal, strict=True):
                assert np.array_equal(rows[block], rows[expected])
            assert np.array_equal(np.sort(np.concatenate([rows[b] for b in blocks])), rows)
        for n in range(2, 19):
            assert np.array_equal(geometry.position_rows(n), position_rows(n))

    def test_scatterer_vector_matches_nlos_params(self):
        # Bit for bit against the per-ray scalar form, one receiver per
        # scatterer as the selection simulator stacks them.
        rrhs = RNG.uniform([200, 350, 0], [300, 900, 40], (300, 3))
        xs = np.c_[RNG.uniform([230, 440, -20], [290, 860, 30], (300, 3)),
                   RNG.uniform(-10, 10, 300)]
        for _ in range(10):
            u, udot = random_state(RNG)
            ms = geometry.scatterer_measurement(xs, np.r_[u, udot], rrhs, B1)
            n_v = udot / np.linalg.norm(udot)
            expected = [nlos_params(u, udot, x[:3], x[3] * n_v, b, B1)
                        for x, b in zip(xs, rrhs)]
            assert np.array_equal(ms, expected)

    def test_static_user_rejected_for_scatterer_vector(self):
        with pytest.raises(DegenerateGeometryError,
                           match="scatterer velocity direction undefined for a static user"):
            geometry.scatterer_measurement(
                [240, 600, -19, 5.0], np.r_[U, np.zeros(3)], B2, B1
            )


class TestStackedMatchScalar:
    """The per-ray rounding of the stacked kernels equals the scalar norm."""

    def test_look_angles_and_direct_paths(self):
        x = np.r_[U, UDOT]
        rrhs = RNG.uniform(-1000, 1000, (2000, 3))
        r, rdot, phi, theta = geometry.direct_paths(x, rrhs)
        assert np.array_equal(r, [los_range(U, b) for b in rrhs])
        assert np.array_equal(rdot, [range_rate(U, UDOT, b) for b in rrhs])
        assert np.array_equal(np.c_[phi, theta], [aoa_los(U, b) for b in rrhs])
