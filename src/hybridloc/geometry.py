"""Noise-free forward model for hybrid TDOA/FDOA/AOA localization.

All functions map receiver positions and user/scatterer kinematic states to
the measurement-domain quantities used by the estimators:

* range differences against a reference receiver (TDOA, in meters),
* range-rate differences (FDOA, in meters/second),
* azimuth/elevation angles of arrival (radians),
* the two-leg reflected-path counterparts for scatterers.

Every function takes stacked rays or states: point-minus-receiver vectors,
states and angles carry leading batch axes.

Conventions
-----------
* Azimuth is the quadrant-aware ``atan2(dy, dx)`` in ``(-pi, pi]``; a purely
  vertical ray has undefined azimuth and returns 0.0 by convention.
* Elevation is ``arcsin(dz / range)`` in ``[-pi/2, pi/2]``.
* The user state is the 6-vector ``x = [position, velocity]``; a scatterer
  state is the 4-vector ``[position, signed_speed]`` where the full velocity
  is ``signed_speed * n_v`` and ``n_v`` is the unit vector along the user's
  velocity (:func:`velocity_direction`).
* Measurement vectors are ordered ``[r_21, rdot_21, ..., r_N1, rdot_N1,
  phi_1, theta_1, ..., phi_N, theta_N]`` with receiver 1 as the reference
  (a reflected path: one pair, then its angles); only :func:`row_blocks`
  and :func:`position_rows` spell that order out for the other modules.

Range roundings
---------------
A range is rounded one of two ways, and the two differ in the last bit for
about one range in eight:

* per ray, ``sqrt(d . d)`` as one dot product: the norm of a single
  vector, as :func:`look_angles` and :func:`scatterer_legs` round it.
  Angles, angle rates, both scatterer legs and their range rates (which
  divide by these leg ranges) and :func:`direct_paths` (the selection
  simulator's rays, the scatterer paths' reference receiver) use it.
* summed along the last axis, ``sqrt(add.reduce(d * d, axis=-1))``, which
  is what ``np.linalg.norm(d, axis=-1)`` computes: the user's ranges and
  range rates from :func:`user_rays`, which the measurement vector, the
  WLS error map and the CRLB Jacobian all read.

Changing an entry point from one to the other changes its output bits.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometryError

#: Signal propagation speed in meters/second.
SPEED_OF_LIGHT = 299792458.0

# Below this |cos(elevation)| a ray counts as vertical: its azimuth rate
# (and the azimuth row of an angle Jacobian) is undefined.
MIN_COS_ELEVATION = 1e-12

# The user velocity enters the pseudo-linear system and the Jacobian only on
# the n - 1 FDOA rows, so it is identifiable from this many receivers up;
# with fewer, every joint normal or information matrix is singular.
MIN_VELOCITY_RECEIVERS = 4


def angular_vectors(phi, theta):
    """Orthonormal direction frames attached to arrival angle pairs.

    Returns ``(a, c, d)`` where ``a`` is the unit ray direction,
    ``c = da/dphi / cos(theta)`` spans the azimuth direction and
    ``d = da/dtheta`` spans the elevation direction.  The three vectors are
    mutually orthonormal.  ``phi`` and ``theta`` share one shape (a scalar
    pair gives one frame); each vector adds a last axis of length 3.
    """
    cp, sp = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    a, c, d = np.zeros((3,) + np.shape(cp) + (3,))
    a[..., 0], a[..., 1], a[..., 2] = ct * cp, ct * sp, st
    c[..., 0], c[..., 1] = -sp, cp
    d[..., 0], d[..., 1], d[..., 2] = -st * cp, -st * sp, ct
    return a, c, d


def look_angles(diffs):
    """Range, azimuth and elevation of stacked rays.

    ``diffs`` holds point-minus-receiver vectors on a last axis of length
    3.  Reconstruction identity: ``r * a(phi, theta)`` is the vector
    again, ``a`` from :func:`angular_vectors`.  A zero vector gives a zero
    range and a NaN elevation; callers reject zero ranges themselves.
    """
    diffs = np.asarray(diffs, dtype=float)
    r = np.sqrt(np.vecdot(diffs, diffs))
    dx, dy = diffs[..., 0], diffs[..., 1]
    phi = np.where((dx == 0.0) & (dy == 0.0), 0.0, np.arctan2(dy, dx))
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = np.arcsin(np.minimum(np.maximum(diffs[..., 2] / r, -1.0), 1.0))
    return r, phi, theta


def look_rates(r, phi, theta, vel):
    """Azimuth and elevation rates of rays whose far end moves with ``vel``.

    ``phidot = c . vel / (r cos(theta))`` and ``thetadot = d . vel / r``
    for rays of range ``r`` and angles ``phi``/``theta`` (as from
    :func:`look_angles`), all broadcast over leading axes.  A zero range or
    a vertical ray gives a non-finite or meaningless rate; callers reject
    those themselves.
    """
    _, c, d = angular_vectors(phi, theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.vecdot(c, vel) / (r * np.cos(theta)), np.vecdot(d, vel) / r


def direct_paths(x, rrhs):
    """Range, range rate, azimuth and elevation of the direct paths to ``rrhs``.

    ``x`` is the 6-D user state and ``rrhs`` one receiver position or a
    stack of them; each returned array has ``rrhs``'s leading shape.  The
    range is rounded per ray (see the module notes) and the rate is the
    projection of the user velocity on the receiver-to-user direction.
    """
    x = np.asarray(x, dtype=float)
    diffs = x[:3] - np.asarray(rrhs, dtype=float)
    r, phi, theta = look_angles(diffs)
    if np.any(r == 0.0):
        raise DegenerateGeometryError("user position coincides with a receiver")
    return r, np.vecdot(diffs, x[3:]) / r, phi, theta


def velocity_direction(x_ue) -> np.ndarray:
    """Unit vector along the user velocity: the direction a scatterer moves in."""
    udot = np.asarray(x_ue, dtype=float)[3:]
    speed = np.sqrt(udot.dot(udot))
    if speed == 0.0:
        raise DegenerateGeometryError(
            "scatterer velocity direction undefined for a static user"
        )
    return udot / speed


def user_rays(x, rrhs):
    """``(diffs, r, rdot)``: the receiver-to-user vectors of user states ``x``
    (a float array (..., 6)) seen from receivers ``rrhs`` (n, 3), their
    ranges and their range rates, over the states' leading axes and then
    the receivers.

    Ranges are summed along the last axis (see the module notes).  A state
    on a receiver gives a zero range and a non-finite rate there; callers
    reject zero ranges themselves.
    """
    diffs = x[..., None, :3] - rrhs
    r = np.sqrt(np.add.reduce(diffs * diffs, axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        rdot = (diffs @ x[..., 3:, None])[..., 0] / r
    return diffs, r, rdot


def scatterer_legs(xs, x_ue, b_n):
    """The two legs of reflected paths user -> scatterer -> receiver ``b_n``.

    Returns ``(n_v, sdot, leg1, d1, phi, theta, leg2, d2, ddot1, ddot2)``:
    the unit vector ``n_v`` along the user velocity (:func:`velocity_direction`
    raises for a static user), the scatterer velocity ``speed * n_v``, the
    receiver-to-scatterer leg with its range and arrival angles
    (:func:`look_angles`), the scatterer-to-user leg with its range, and
    the legs' range rates ``sdot . leg1 / d1`` and ``(udot - sdot) . leg2
    / d2``, all ranges per ray.  ``xs`` is a float 4-vector ``[s,
    signed_speed]`` or a stack of them, which ``b_n`` may share, and
    ``x_ue`` the float user state.  A zero leg gives a zero range and a
    non-finite rate; callers reject it themselves.
    """
    s = xs[..., :3]
    n_v = velocity_direction(x_ue)
    sdot = xs[..., 3:] * n_v
    leg1 = s - b_n
    d1, phi, theta = look_angles(leg1)
    leg2 = x_ue[:3] - s
    d2 = np.sqrt(np.vecdot(leg2, leg2))
    with np.errstate(invalid="ignore", divide="ignore"):
        ddot1 = np.vecdot(sdot, leg1) / d1
        ddot2 = np.vecdot(x_ue[3:] - sdot, leg2) / d2
    return n_v, sdot, leg1, d1, phi, theta, leg2, d2, ddot1, ddot2


def measurement_dim(n_receivers: int) -> int:
    """Length of the hybrid measurement vector for ``n_receivers`` receivers."""
    return 4 * n_receivers - 2


def row_blocks(pairs: int):
    """``(tdoa, fdoa, azimuth, elevation)``: the row slices of each kind in
    a measurement vector of ``pairs`` TDOA/FDOA pairs (``n - 1`` for the
    user seen by ``n`` receivers, one for a reflected path).  The four
    slices partition the rows."""
    k = 2 * pairs
    return slice(0, k, 2), slice(1, k, 2), slice(k, None, 2), slice(k + 1, None, 2)


def position_rows(n_receivers: int) -> np.ndarray:
    """Mask of the user rows that carry no velocity: all but the FDOA rows."""
    rows = np.ones(measurement_dim(n_receivers), dtype=bool)
    rows[row_blocks(n_receivers - 1)[1]] = False
    return rows


def ue_measurement(x, rrhs) -> np.ndarray:
    """Noise-free hybrid measurement vector for user state ``x`` (6-vector).

    Layout: ``(n-1)`` TDOA/FDOA pairs for receivers 2..n against receiver 1,
    followed by ``n`` azimuth/elevation pairs for receivers 1..n.  ``x``
    may carry leading batch axes; each vector then equals the one a single
    state gives.  Ranges are summed along the last axis (see the module
    notes).
    """
    x = np.asarray(x, dtype=float)
    rrhs = np.atleast_2d(np.asarray(rrhs, dtype=float))
    n = rrhs.shape[0]
    diffs, r, rdot = user_rays(x, rrhs)
    if np.any(r == 0.0):
        raise DegenerateGeometryError("user position coincides with a receiver")

    tdoa, fdoa, azimuth, elevation = row_blocks(n - 1)
    m = np.empty(x.shape[:-1] + (measurement_dim(n),))
    m[..., tdoa] = r[..., 1:] - r[..., :1]
    m[..., fdoa] = rdot[..., 1:] - rdot[..., :1]
    dx, dy = diffs[..., 0], diffs[..., 1]
    horiz = np.hypot(dx, dy)
    m[..., azimuth] = np.where(horiz > 0.0, np.arctan2(dy, dx), 0.0)
    m[..., elevation] = np.arcsin(np.minimum(np.maximum(diffs[..., 2] / r, -1.0), 1.0))
    return m


def scatterer_measurement(xs, x_ue, b_n, b_1) -> np.ndarray:
    """Noise-free 4-vector ``[rs_n1, rsdot_n1, phi_s, theta_s]`` of reflected paths.

    The path runs user -> scatterer -> receiver ``b_n``; its delay and
    Doppler are differenced against the reference receiver ``b_1``'s direct
    path, and the angles are those of the scatterer seen from ``b_n``.
    ``xs`` is the 4-vector ``[s, signed_speed]``, or a stack of them on
    leading batch axes, which ``b_n`` may share (one receiver per
    scatterer); the scatterer velocity direction is taken from the user
    velocity in ``x_ue``.
    """
    xs = np.asarray(xs, dtype=float)
    x_ue = np.asarray(x_ue, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    _, _, _, d1, phi_s, theta_s, _, d2, ddot1, ddot2 = scatterer_legs(xs, x_ue, b_n)
    if np.any(d1 == 0.0) or np.any(d2 == 0.0):
        raise DegenerateGeometryError("scatterer coincides with user or receiver")
    r_1, rdot_1, _, _ = direct_paths(x_ue, b_1)
    rsdot = ddot2 + ddot1
    m = np.empty(rsdot.shape + (4,))
    m[..., 0] = d1 + d2 - r_1
    m[..., 1] = rsdot - rdot_1
    m[..., 2] = phi_s
    m[..., 3] = theta_s
    return m
