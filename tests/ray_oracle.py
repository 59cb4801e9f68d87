"""Retired forms of the kernels that now read ``geometry.user_rays`` and
``geometry.scatterer_legs``, kept as the test oracle; one form per kernel.

Each derives its own ranges, rates and legs, as the stacked code did
before the ray geometry had one derivation: ``ue_measurement``,
``b_bands`` (whose ``build_b`` is the solver's error map),
``scatterer_measurement``, ``bs_bands`` and ``jacobian_scatterer``.  The
learning oracle's dataset builders measure through them, and
``crlb_oracle.crlb_scatterer`` bounds through ``jacobian_scatterer``.  The
user Jacobian's retired ``_range_gradients`` path is
``crlb_oracle.jacobian_ue``.  The error maps keep a second, dense form in
``wls_oracle.build_b`` and ``build_bs``, which the banded ones here match
only to rounding.
"""

import numpy as np

from hybridloc.errors import DegenerateGeometryError, GimbalLockError
from hybridloc.geometry import (
    MIN_COS_ELEVATION,
    angular_vectors,
    direct_paths,
    look_angles,
    look_rates,
    measurement_dim,
    velocity_direction,
)
from hybridloc.ue_wls import _fail, _square


def ue_measurement(x, rrhs):
    x = np.asarray(x, dtype=float)
    rrhs = np.atleast_2d(np.asarray(rrhs, dtype=float))
    u, udot = x[..., :3], x[..., 3:]
    n = rrhs.shape[0]
    diffs = u[..., None, :] - rrhs
    r = np.sqrt(np.add.reduce(diffs * diffs, axis=-1))
    if np.any(r == 0.0):
        raise DegenerateGeometryError("user position coincides with a receiver")
    rdot = (diffs @ udot[..., None])[..., 0] / r
    m = np.empty(x.shape[:-1] + (measurement_dim(n),))
    m[..., 0 : 2 * n - 2 : 2] = r[..., 1:] - r[..., :1]
    m[..., 1 : 2 * n - 2 : 2] = rdot[..., 1:] - rdot[..., :1]
    dx, dy = diffs[..., 0], diffs[..., 1]
    horiz = np.hypot(dx, dy)
    phi = np.where(horiz > 0.0, np.arctan2(dy, dx), 0.0)
    theta = np.arcsin(np.minimum(np.maximum(diffs[..., 2] / r, -1.0), 1.0))
    m[..., 2 * n - 2 :: 2] = phi
    m[..., 2 * n - 1 :: 2] = theta
    return m


def b_bands(x, rrhs, errors=None):
    x = np.asarray(x, dtype=float)
    rrhs = np.asarray(rrhs, dtype=float)
    n = rrhs.shape[0]
    udot = x[..., 3:]
    diffs = x[..., None, :3] - rrhs
    r = np.sqrt(np.add.reduce(diffs * diffs, axis=-1))
    coincident = np.any(r <= 0.0, axis=-1)
    _fail(errors, coincident, DegenerateGeometryError, "state coincides with a receiver")
    r_ray, phi, theta = look_angles(diffs)
    cos_t = np.cos(theta)
    _fail(
        errors,
        ~coincident & (np.abs(cos_t[..., 0]) < MIN_COS_ELEVATION),
        GimbalLockError,
        "azimuth rate undefined at +/-90 degrees elevation",
    )
    phidot1, thetadot1 = look_rates(r_ray[..., 0], phi[..., 0], theta[..., 0], udot)
    with np.errstate(invalid="ignore", divide="ignore"):
        rdot = (diffs @ udot[..., None])[..., 0] / r
    base = 2 * n - 2
    r_0, r_i = r[..., :1], r[..., 1:]
    r_i1 = r_i - r_0
    diag = np.empty(x.shape[:-1] + (measurement_dim(n),))
    diag[..., 0:base:2] = 2.0 * r_i
    diag[..., 1:base:2] = r_i
    diag[..., base::2] = r * cos_t
    diag[..., base + 1 :: 2] = r
    low = np.empty(r_i.shape + (3,))
    low[..., 0] = rdot[..., 1:]
    low[..., 1] = r_0 * r_i1 * phidot1[..., None] * _square(cos_t[..., :1])
    low[..., 2] = r_0 * r_i1 * thetadot1[..., None]
    return diag, low


def scatterer_measurement(xs, x_ue, b_n, b_1):
    xs = np.asarray(xs, dtype=float)
    x_ue = np.asarray(x_ue, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    u, udot = x_ue[:3], x_ue[3:]
    s = xs[..., :3]
    sdot_vec = xs[..., 3:] * velocity_direction(x_ue)
    d1, phi_s, theta_s = look_angles(s - b_n)
    d2 = np.sqrt(np.vecdot(u - s, u - s))
    if np.any(d1 == 0.0) or np.any(d2 == 0.0):
        raise DegenerateGeometryError("scatterer coincides with user or receiver")
    r_1, rdot_1, _, _ = direct_paths(x_ue, b_1)
    rsdot = np.vecdot(udot - sdot_vec, u - s) / d2 + np.vecdot(sdot_vec, s - b_n) / d1
    m = np.empty(rsdot.shape + (4,))
    m[..., 0] = d1 + d2 - r_1
    m[..., 1] = rsdot - rdot_1
    m[..., 2] = phi_s
    m[..., 3] = theta_s
    return m


def bs_bands(xs, b_n, ue, errors=None):
    xs = np.asarray(xs, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    ue = np.asarray(ue, dtype=float)
    s, speed = xs[..., :3], xs[..., 3:]
    u, udot = ue[:3], ue[3:]
    sdot_vec = speed * velocity_direction(ue)
    d1, phi_s, theta_s = look_angles(s - b_n)
    d2 = np.sqrt(np.vecdot(u - s, u - s))
    coincident = (d1 <= 0.0) | (d2 <= 0.0)
    _fail(errors, coincident, DegenerateGeometryError,
          "scatterer coincides with receiver or user")
    cos_t = np.cos(theta_s)
    _fail(
        errors,
        ~coincident & (np.abs(cos_t) < MIN_COS_ELEVATION),
        GimbalLockError,
        "azimuth rate undefined at +/-90 degrees elevation",
    )
    r_s = d1 + d2
    phidot_s, thetadot_s = look_rates(d1, phi_s, theta_s, sdot_vec)
    with np.errstate(invalid="ignore", divide="ignore"):
        ddot2 = np.vecdot(udot - sdot_vec, u - s) / d2
    diag = np.empty(r_s.shape + (4,))
    diag[..., 0] = 2.0 * d2
    diag[..., 1] = d2
    diag[..., 2] = d1 * cos_t
    diag[..., 3] = d1
    low = np.empty(r_s.shape + (1, 3))
    low[..., 0, 0] = ddot2
    low[..., 0, 1] = -r_s * d1 * phidot_s * _square(cos_t)
    low[..., 0, 2] = -r_s * d1 * thetadot_s
    return diag, low


def jacobian_scatterer(xs, b_n, ue):
    xs = np.asarray(xs, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    ue = np.asarray(ue, dtype=float)
    s, speed = xs[:3], xs[3]
    u, udot = ue[:3], ue[3:]
    n_v = velocity_direction(ue)
    sdot_vec = speed * n_v
    leg1 = s - b_n
    d1, phi_s, theta_s = look_angles(leg1)
    leg2 = u - s
    d2 = np.sqrt(leg2.dot(leg2))
    if d1 <= 0.0 or d2 <= 0.0:
        raise DegenerateGeometryError("scatterer coincides with receiver or user")
    a_s = leg1 / d1
    e2 = leg2 / d2
    ddot1 = sdot_vec @ leg1 / d1
    ddot2 = (udot - sdot_vec) @ leg2 / d2
    cos_theta = np.cos(theta_s)
    if abs(cos_theta) < MIN_COS_ELEVATION:
        raise GimbalLockError("receiver sees the scatterer at zenith")
    _, c_s, d_s = angular_vectors(phi_s, theta_s)
    jac = np.zeros((4, 4))
    jac[0, :3] = a_s - e2
    jac[1, :3] = (sdot_vec - ddot1 * a_s) / d1 + (-(udot - sdot_vec) + ddot2 * e2) / d2
    jac[1, 3] = n_v @ leg1 / d1 - n_v @ leg2 / d2
    jac[2, :3] = c_s / (d1 * cos_theta)
    jac[3, :3] = d_s / d1
    return jac
