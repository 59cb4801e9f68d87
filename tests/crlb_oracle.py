"""Per-receiver loop versions of the CRLB Jacobians, kept as the test oracle.

These are the scalar forms of ``jacobian_ue`` and ``jacobian_scatterer``
in ``hybridloc.crlb``: one receiver per loop step, on the per-ray geometry
of ``scalar_geometry``.  ``range_gradients`` is the retired
``_range_gradients``, whose ranges and rates ``geometry.user_rays`` now
derives.

``bound``, ``crlb_ue_traces`` and ``crlb_scatterer`` are the retired
one-covariance forms of the bounds, kept as the oracle of the stacked ones:
one solve, one information matrix and one inversion per covariance.
``crlb_ue_traces_joint_first`` is the retired stacked form, which takes the
joint bound at every receiver count and reaches the position bound below
four receivers only through a singular joint information matrix.
"""

import numpy as np

from hybridloc import crlb as stacked
from hybridloc.errors import DegenerateGeometryError, GimbalLockError, SingularProblemError
from hybridloc.geometry import MIN_COS_ELEVATION
from hybridloc.ue_wls import _invert_normal, _position_row_mask
from scalar_geometry import angular_vectors, aoa_los


def range_gradients(u, udot, rrhs):
    diffs = u - rrhs
    r = np.linalg.norm(diffs, axis=1)
    if np.any(r <= 0.0):
        raise DegenerateGeometryError("state coincides with a receiver")
    rdot = diffs @ udot / r
    grad_r = diffs / r[:, None]
    grad_rdot = udot / r[:, None] - (rdot / r**2)[:, None] * diffs
    return r, rdot, grad_r, grad_rdot


def jacobian_ue(x, rrhs):
    x = np.asarray(x, dtype=float)
    rrhs = np.asarray(rrhs, dtype=float)
    u, udot = x[:3], x[3:]
    n = rrhs.shape[0]
    r, _, grad_r, grad_rdot = range_gradients(u, udot, rrhs)
    jac = np.zeros((4 * n - 2, 6))
    jac[0 : 2 * n - 2 : 2, :3] = grad_r[1:] - grad_r[0]
    jac[1 : 2 * n - 2 : 2, :3] = grad_rdot[1:] - grad_rdot[0]
    jac[1 : 2 * n - 2 : 2, 3:] = grad_r[1:] - grad_r[0]
    for j in range(n):
        phi, theta = aoa_los(u, rrhs[j])
        cos_theta = np.cos(theta)
        if abs(cos_theta) < MIN_COS_ELEVATION:
            raise GimbalLockError(f"receiver {j} sees the state at zenith")
        _, c_vec, d_vec = angular_vectors(phi, theta)
        jac[2 * n - 2 + 2 * j, :3] = c_vec / (r[j] * cos_theta)
        jac[2 * n - 2 + 2 * j + 1, :3] = d_vec / r[j]
    return jac


def jacobian_scatterer(xs, b_n, ue):
    xs = np.asarray(xs, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    ue = np.asarray(ue, dtype=float)
    s, speed = xs[:3], xs[3]
    u, udot = ue[:3], ue[3:]
    speed_u = np.linalg.norm(udot)
    if speed_u <= 0.0:
        raise DegenerateGeometryError("user velocity is zero")
    n_v = udot / speed_u
    sdot_vec = speed * n_v
    leg1 = s - b_n
    d1 = np.linalg.norm(leg1)
    leg2 = u - s
    d2 = np.linalg.norm(leg2)
    if d1 <= 0.0 or d2 <= 0.0:
        raise DegenerateGeometryError("scatterer coincides with receiver or user")
    a_s = leg1 / d1
    e2 = leg2 / d2
    ddot1 = sdot_vec @ leg1 / d1
    ddot2 = (udot - sdot_vec) @ leg2 / d2
    phi_s, theta_s = aoa_los(s, b_n)
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


def information(jac, q):
    """``J' inv(Q) J`` of one covariance ``q``."""
    try:
        return jac.T @ np.linalg.solve(q, jac)
    except np.linalg.LinAlgError as exc:
        raise SingularProblemError("measurement covariance is singular") from exc


def bound(jac, q):
    """``inv(J' inv(Q) J)`` of one covariance ``q``, or ``SingularProblemError``."""
    fisher = information(jac, q)
    if not np.all(np.isfinite(fisher)):
        raise SingularProblemError("information matrix has non-finite entries")
    inv, singular = _invert_normal(fisher)
    if singular:
        raise SingularProblemError(
            "information matrix is singular; geometry does not identify the state"
        )
    return inv


def crlb_ue_traces(x, rrhs, q):
    """(position, velocity or None) traces of the user bound under one ``q``."""
    jac = jacobian_ue(x, rrhs)
    q = np.asarray(q, dtype=float)
    try:
        cov = bound(jac, q)
    except SingularProblemError:
        information(jac, q)
        rows = _position_row_mask(len(rrhs))
        position = bound(jac[np.ix_(rows, [0, 1, 2])], q[np.ix_(rows, rows)])
        return float(np.trace(position)), None
    return float(np.trace(cov[:3, :3])), float(np.trace(cov[3:, 3:]))


def crlb_ue_traces_joint_first(x, rrhs, q):
    """``crlb.crlb_ue_traces`` as it was: the joint bound of every member
    first, then the position bound of the members whose joint one failed."""
    jac = stacked.jacobian_ue(x, rrhs)
    q = np.asarray(q, dtype=float)
    stack = q.reshape((-1,) + q.shape[-2:])
    cov, failed = stacked._bounds(jac, stack)
    traces = [(stacked.position_trace(c), stacked.velocity_trace(c)) for c in cov]
    unobservable = np.not_equal(failed, None)
    if unobservable.any():
        position = stacked._position_bound(jac, stack[unobservable])
        for r, p in zip(np.flatnonzero(unobservable), position):
            traces[r] = stacked.position_trace(p), None
    return traces if q.ndim == 3 else traces[0]


def crlb_scatterer(xs, b_n, ue, qs):
    """The scatterer bound under one covariance ``qs``."""
    return bound(jacobian_scatterer(xs, b_n, ue), np.asarray(qs, dtype=float))
