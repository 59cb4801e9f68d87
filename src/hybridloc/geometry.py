"""Noise-free forward model for hybrid TDOA/FDOA/AOA localization.

All functions map receiver positions and user/scatterer kinematic states to
the measurement-domain quantities used by the estimators:

* range differences against a reference receiver (TDOA, in meters),
* range-rate differences (FDOA, in meters/second),
* azimuth/elevation angles of arrival (radians),
* the two-leg reflected-path counterparts for scatterers.

Conventions
-----------
* Azimuth is the quadrant-aware ``atan2(dy, dx)`` in ``(-pi, pi]``; a purely
  vertical ray has undefined azimuth and returns 0.0 by convention.
* Elevation is ``arcsin(dz / range)`` in ``[-pi/2, pi/2]``.
* The user state is the 6-vector ``x = [position, velocity]``; a scatterer
  state is the 4-vector ``[position, signed_speed]`` where the full velocity
  is ``signed_speed * n_v`` and ``n_v`` is the unit vector along the user's
  velocity.
* Measurement vectors are ordered ``[r_21, rdot_21, ..., r_N1, rdot_N1,
  phi_1, theta_1, ..., phi_N, theta_N]`` with receiver 1 as the reference.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometryError, GimbalLockError

#: Signal propagation speed in meters/second.
SPEED_OF_LIGHT = 299792458.0

# Below this |cos(elevation)| a ray counts as vertical: its azimuth rate
# (and the azimuth row of an angle Jacobian) is undefined.
MIN_COS_ELEVATION = 1e-12


def los_range(u, b) -> float:
    """Euclidean distance between a point ``u`` and a receiver at ``b``."""
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(u - b))


def range_rate(u, udot, b) -> float:
    """Rate of change of ``||u - b||`` for a point moving with velocity ``udot``.

    Equals the projection of ``udot`` onto the unit vector from ``b`` to
    ``u``, so its magnitude never exceeds ``||udot||``.
    """
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    udot = np.asarray(udot, dtype=float)
    diff = u - b
    r = np.linalg.norm(diff)
    if r == 0.0:
        raise DegenerateGeometryError("range rate undefined for coincident points")
    return float(udot @ diff / r)


def aoa_los(u, b) -> tuple[float, float]:
    """Azimuth and elevation of the ray from receiver ``b`` to point ``u``.

    Returns ``(phi, theta)`` with ``phi`` in ``(-pi, pi]`` and ``theta`` in
    ``[-pi/2, pi/2]``.  Reconstruction identity: ``b + ||u-b|| * a(phi,
    theta) == u`` where ``a`` is the unit direction vector from
    :func:`angular_vectors`.  For an exactly vertical ray the azimuth is 0 by
    convention.
    """
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = u - b
    r = np.linalg.norm(diff)
    if r == 0.0:
        raise DegenerateGeometryError("angles undefined for coincident points")
    if diff[0] == 0.0 and diff[1] == 0.0:
        phi = 0.0
    else:
        phi = float(np.arctan2(diff[1], diff[0]))
    theta = float(np.arcsin(np.clip(diff[2] / r, -1.0, 1.0)))
    return phi, theta


def angular_vectors(phi: float, theta: float):
    """Orthonormal direction frame attached to an arrival angle pair.

    Returns ``(a, c, d)`` where ``a`` is the unit ray direction,
    ``c = da/dphi / cos(theta)`` spans the azimuth direction and
    ``d = da/dtheta`` spans the elevation direction.  The three vectors are
    mutually orthonormal.  Arrays of angles (of one shape) give stacked
    frames, each vector on a last axis of length 3.
    """
    cp, sp = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    if np.ndim(cp) == 0 and np.ndim(ct) == 0:
        a = np.array([ct * cp, ct * sp, st])
        c = np.array([-sp, cp, 0.0])
        d = np.array([-st * cp, -st * sp, ct])
        return a, c, d
    a, c, d = np.zeros((3,) + np.shape(cp) + (3,))
    a[..., 0], a[..., 1], a[..., 2] = ct * cp, ct * sp, st
    c[..., 0], c[..., 1] = -sp, cp
    d[..., 0], d[..., 1], d[..., 2] = -st * cp, -st * sp, ct
    return a, c, d


def look_angles(diffs):
    """Range, azimuth and elevation of stacked rays, by :func:`aoa_los`'s rules.

    ``diffs`` holds point-minus-receiver vectors on a last axis of length
    3.  Each value is bit-identical to :func:`los_range` and
    :func:`aoa_los` on one ray.  A zero vector gives a zero range and a NaN
    elevation; callers reject zero ranges themselves.
    """
    diffs = np.asarray(diffs, dtype=float)
    r = np.sqrt(np.vecdot(diffs, diffs))
    dx, dy = diffs[..., 0], diffs[..., 1]
    phi = np.where((dx == 0.0) & (dy == 0.0), 0.0, np.arctan2(dy, dx))
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = np.arcsin(np.clip(diffs[..., 2] / r, -1.0, 1.0))
    return r, phi, theta


def angle_rates(u, udot, b) -> tuple[float, float]:
    """Time derivatives of the azimuth/elevation seen from receiver ``b``.

    ``phidot = c^T udot / (r cos(theta))`` and ``thetadot = d^T udot / r``
    along the straight-line trajectory ``u(t) = u + t * udot``.
    """
    u = np.asarray(u, dtype=float)
    udot = np.asarray(udot, dtype=float)
    b = np.asarray(b, dtype=float)
    r = los_range(u, b)
    if r == 0.0:
        raise DegenerateGeometryError("angle rates undefined for coincident points")
    phi, theta = aoa_los(u, b)
    _, c, d = angular_vectors(phi, theta)
    ct = np.cos(theta)
    if abs(ct) < MIN_COS_ELEVATION:
        raise GimbalLockError("azimuth rate undefined at +/-90 degrees elevation")
    phidot = float(c @ udot / (r * ct))
    thetadot = float(d @ udot / r)
    return phidot, thetadot


def nlos_params(u, udot, s, sdot_vec, b_n, b_1, r_1=None, rdot_1=None):
    """Reflected-path parameters for a scatterer at ``s`` moving with ``sdot_vec``.

    The path is user -> scatterer -> receiver ``n``; delay and Doppler are
    differenced against the reference receiver's direct path.  ``r_1`` and
    ``rdot_1`` default to the direct-path values computed from ``u``/``udot``
    but may be passed explicitly (e.g. recomputed from an estimated user
    state).

    Returns ``(rs_n1, rsdot_n1, phi_s, theta_s)``: the two-leg range minus
    ``r_1``, its rate minus ``rdot_1``, and the arrival angles of the
    scatterer seen from receiver ``n``.
    """
    u = np.asarray(u, dtype=float)
    udot = np.asarray(udot, dtype=float)
    s = np.asarray(s, dtype=float)
    sdot_vec = np.asarray(sdot_vec, dtype=float)
    b_n = np.asarray(b_n, dtype=float)

    d1 = los_range(s, b_n)  # scatterer -> receiver leg
    d2 = los_range(u, s)    # user -> scatterer leg
    if d1 == 0.0 or d2 == 0.0:
        raise DegenerateGeometryError("scatterer coincides with user or receiver")
    if r_1 is None:
        r_1 = los_range(u, b_1)
    if rdot_1 is None:
        rdot_1 = range_rate(u, udot, b_1)

    rs = d1 + d2
    rsdot = float((udot - sdot_vec) @ (u - s) / d2 + sdot_vec @ (s - b_n) / d1)
    phi_s, theta_s = aoa_los(s, b_n)
    return rs - r_1, rsdot - rdot_1, phi_s, theta_s


def measurement_dim(n_receivers: int) -> int:
    """Length of the hybrid measurement vector for ``n_receivers`` receivers."""
    return 4 * n_receivers - 2


def ue_measurement(x, rrhs) -> np.ndarray:
    """Noise-free hybrid measurement vector for user state ``x`` (6-vector).

    Layout: ``(n-1)`` TDOA/FDOA pairs for receivers 2..n against receiver 1,
    followed by ``n`` azimuth/elevation pairs for receivers 1..n.  ``x``
    may carry leading batch axes; each vector then equals the one a single
    state gives.
    """
    x = np.asarray(x, dtype=float)
    rrhs = np.atleast_2d(np.asarray(rrhs, dtype=float))
    u, udot = x[..., :3], x[..., 3:]
    n = rrhs.shape[0]

    diffs = u[..., None, :] - rrhs            # (..., n, 3)
    r = np.linalg.norm(diffs, axis=-1)
    if np.any(r == 0.0):
        raise DegenerateGeometryError("user position coincides with a receiver")
    rdot = (diffs @ udot[..., None])[..., 0] / r

    m = np.empty(x.shape[:-1] + (measurement_dim(n),))
    m[..., 0 : 2 * n - 2 : 2] = r[..., 1:] - r[..., :1]
    m[..., 1 : 2 * n - 2 : 2] = rdot[..., 1:] - rdot[..., :1]
    dx, dy = diffs[..., 0], diffs[..., 1]
    horiz = np.hypot(dx, dy)
    phi = np.where(horiz > 0.0, np.arctan2(dy, dx), 0.0)
    theta = np.arcsin(np.clip(diffs[..., 2] / r, -1.0, 1.0))
    m[..., 2 * n - 2 :: 2] = phi
    m[..., 2 * n - 1 :: 2] = theta
    return m


def scatterer_measurement(xs, x_ue, b_n, b_1) -> np.ndarray:
    """Noise-free 4-vector ``[rs_n1, rsdot_n1, phi_s, theta_s]`` for one scatterer.

    ``xs`` is the 4-vector ``[s, signed_speed]``, or a stack of them on
    leading batch axes; the scatterer velocity direction is taken from the
    user velocity in ``x_ue``.  Each vector equals :func:`nlos_params` for
    its scatterer.
    """
    xs = np.asarray(xs, dtype=float)
    x_ue = np.asarray(x_ue, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    u, udot = x_ue[:3], x_ue[3:]
    speed = np.linalg.norm(udot)
    if speed == 0.0:
        raise DegenerateGeometryError(
            "scatterer velocity direction undefined for a static user"
        )
    s = xs[..., :3]
    sdot_vec = xs[..., 3:] * (udot / speed)
    d1, phi_s, theta_s = look_angles(s - b_n)  # scatterer -> receiver leg
    d2 = np.sqrt(np.vecdot(u - s, u - s))      # user -> scatterer leg
    if np.any(d1 == 0.0) or np.any(d2 == 0.0):
        raise DegenerateGeometryError("scatterer coincides with user or receiver")
    rsdot = np.vecdot(udot - sdot_vec, u - s) / d2 + np.vecdot(sdot_vec, s - b_n) / d1
    return np.stack(
        [d1 + d2 - los_range(u, b_1), rsdot - range_rate(u, udot, b_1), phi_s, theta_s],
        axis=-1,
    )
