"""Lower bounds on estimator covariance, via analytic measurement Jacobians.

For a Gaussian measurement model the bound is ``inv(D' inv(Q) D)`` where
``D`` is the Jacobian of the noise-free measurement vector with respect to
the unknown state.  Row order matches the measurement layout documented in
:mod:`hybridloc.geometry`; state columns are position-then-velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, GimbalLockError, SingularProblemError
from .geometry import MIN_COS_ELEVATION, angle_rates, angular_vectors, aoa_los
from .ue_wls import _COND_LIMIT, _position_row_mask


def _invert_information(fisher: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(fisher)):
        raise SingularProblemError("information matrix has non-finite entries")
    if np.linalg.cond(fisher) > _COND_LIMIT:
        raise SingularProblemError(
            "information matrix is singular; geometry does not identify the state"
        )
    return np.linalg.inv(fisher)


def _range_gradients(u, udot, rrhs):
    """Per-receiver gradients of range and range rate w.r.t. position."""
    diffs = u - rrhs
    r = np.linalg.norm(diffs, axis=1)
    if np.any(r <= 0.0):
        raise DegenerateGeometryError("state coincides with a receiver")
    rdot = diffs @ udot / r
    grad_r = diffs / r[:, None]
    grad_rdot = udot / r[:, None] - (rdot / r**2)[:, None] * diffs
    return r, rdot, grad_r, grad_rdot


def jacobian_ue(x, rrhs) -> np.ndarray:
    """Jacobian of the hybrid measurement vector w.r.t. the 6-D state.

    TDOA rows and AOA rows have zero velocity blocks; each FDOA row's
    velocity block equals the corresponding TDOA row's position block.
    """
    x = np.asarray(x, dtype=float)
    rrhs = np.asarray(rrhs, dtype=float)
    u, udot = x[:3], x[3:]
    n = rrhs.shape[0]
    r, _, grad_r, grad_rdot = _range_gradients(u, udot, rrhs)

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


def crlb_ue(x, rrhs, q) -> np.ndarray:
    """6x6 covariance lower bound for the joint position/velocity estimate."""
    jac = jacobian_ue(x, rrhs)
    fisher = jac.T @ np.linalg.solve(q, jac)
    return _invert_information(fisher)


def crlb_ue_position(x, rrhs, q) -> np.ndarray:
    """3x3 position bound of the TDOA and AOA rows.

    Below four receivers the joint 6-D information matrix is singular
    (velocity is unidentifiable) and ``wls_solve`` falls back to these rows,
    which carry no velocity; this is the bound that fallback can attain.
    """
    rows = _position_row_mask(np.asarray(rrhs).shape[0])
    jac = jacobian_ue(x, rrhs)[np.ix_(rows, [0, 1, 2])]
    q = np.asarray(q, dtype=float)[np.ix_(rows, rows)]
    fisher = jac.T @ np.linalg.solve(q, jac)
    return _invert_information(fisher)


def jacobian_scatterer(xs, b_n, ue) -> np.ndarray:
    """4x4 Jacobian of one reflected-path measurement w.r.t. [s, speed].

    The user state ``ue`` is treated as known; the scatterer velocity is
    ``speed * n_v`` with ``n_v`` the unit vector along the user velocity.
    """
    xs = np.asarray(xs, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    ue = np.asarray(ue, dtype=float)
    s, speed = xs[:3], xs[3]
    u, udot = ue[:3], ue[3:]
    speed_u = np.linalg.norm(udot)
    if speed_u <= 0.0:
        raise DegenerateGeometryError("user velocity is zero; speed direction undefined")
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


def crlb_scatterer(xs, b_n, ue, qs) -> np.ndarray:
    """4x4 covariance lower bound for the scatterer position/speed estimate."""
    jac = jacobian_scatterer(xs, b_n, ue)
    fisher = jac.T @ np.linalg.solve(qs, jac)
    return _invert_information(fisher)


def position_trace(cov) -> float:
    """Trace of the position block (first three diagonal entries)."""
    return float(np.trace(cov[:3, :3]))


def velocity_trace(cov) -> float:
    """Trace of the velocity block (diagonal entries after the first three)."""
    return float(np.trace(cov[3:, 3:]))


@dataclass
class IdentityReport:
    """Largest relative deviations of the two Jacobian/system row identities."""

    max_dev_range: float
    max_dev_rate: float

    @property
    def max_deviation(self) -> float:
        return max(self.max_dev_range, self.max_dev_rate)


def verify_identities(x, rrhs) -> IdentityReport:
    """Check the row identities tying the pseudo-linear system to the Jacobian.

    For every non-reference receiver ``i``, with ``a1, c1, d1`` the angular
    frame at the reference receiver:

    * range rows:  r_i * d(r_i1)/du  ==  (b_1 - b_i)' - r_i1 * a1'
    * rate rows:   rdot_i * d(r_i1)/du + r_i * d(rdot_i1)/du
                   + r_i1 * (phidot_1 * cos(theta_1) * c1' + thetadot_1 * d1')
                   ==  -rdot_i1 * a1'

    These identities are why the iterated WLS covariance coincides with the
    covariance lower bound.  Deviations are relative to the row magnitude.
    """
    x = np.asarray(x, dtype=float)
    rrhs = np.asarray(rrhs, dtype=float)
    u, udot = x[:3], x[3:]
    r, rdot, _, _ = _range_gradients(u, udot, rrhs)
    jac = jacobian_ue(x, rrhs)

    phi1, theta1 = aoa_los(u, rrhs[0])
    a1, c1, d1 = angular_vectors(phi1, theta1)
    phidot1, thetadot1 = angle_rates(u, udot, rrhs[0])

    max_dev_range = 0.0
    max_dev_rate = 0.0
    n = rrhs.shape[0]
    for i in range(1, n):
        row_t = jac[2 * (i - 1), :3]
        row_f = jac[2 * (i - 1) + 1, :3]
        r_i1 = r[i] - r[0]
        rdot_i1 = rdot[i] - rdot[0]

        lhs_a = r[i] * row_t
        rhs_a = (rrhs[0] - rrhs[i]) - r_i1 * a1
        scale_a = max(np.abs(rhs_a).max(), 1.0)
        max_dev_range = max(max_dev_range, np.abs(lhs_a - rhs_a).max() / scale_a)

        lhs_b = (
            rdot[i] * row_t
            + r[i] * row_f
            + r_i1 * (phidot1 * np.cos(theta1) * c1 + thetadot1 * d1)
        )
        rhs_b = -rdot_i1 * a1
        scale_b = max(np.abs(rhs_b).max(), 1.0)
        max_dev_rate = max(max_dev_rate, np.abs(lhs_b - rhs_b).max() / scale_b)
    return IdentityReport(max_dev_range=max_dev_range, max_dev_rate=max_dev_rate)
