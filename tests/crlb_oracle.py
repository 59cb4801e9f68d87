"""Retired forms of the CRLB Jacobians and bounds, kept as the test oracle;
one form per kernel.

``jacobian_ue`` is the per-receiver loop form of ``crlb.jacobian_ue``:
one receiver per loop step, on the per-ray geometry of
``scalar_geometry``.  ``range_gradients`` is the retired
``_range_gradients``, whose ranges and rates ``geometry.user_rays`` now
derives.  The scatterer Jacobian's one retired form is
``ray_oracle.jacobian_scatterer``.  ``position_rows`` spells out the
velocity-free rows for this oracle and ``wls_oracle``, so neither reads
the package's layout.

``bound``, ``crlb_ue_traces`` and ``crlb_scatterer`` are the retired
one-covariance forms of the bounds: one solve, one information matrix and
one inversion per covariance.  Taken member by member over a stack of
covariances they are the oracle of every stacked bound, also of the user
bound below four receivers, which the package takes without a joint bound.
"""

import numpy as np

from hybridloc.errors import DegenerateGeometryError, GimbalLockError, SingularProblemError
from hybridloc.geometry import MIN_COS_ELEVATION
from hybridloc.ue_wls import _invert_normal
from ray_oracle import jacobian_scatterer
from scalar_geometry import angular_vectors, aoa_los


def position_rows(n):
    """The rows of ``n`` receivers' measurement vector without velocity:
    the TDOA rows and every angle row, spelled out for the oracle."""
    mask = np.zeros(4 * n - 2, dtype=bool)
    mask[0 : 2 * n - 2 : 2] = True
    mask[2 * n - 2 :] = True
    return mask


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
        rows = position_rows(len(rrhs))
        position = bound(jac[np.ix_(rows, [0, 1, 2])], q[np.ix_(rows, rows)])
        return float(np.trace(position)), None
    return float(np.trace(cov[:3, :3])), float(np.trace(cov[3:, 3:]))


def crlb_scatterer(xs, b_n, ue, qs):
    """The scatterer bound under one covariance ``qs``."""
    return bound(jacobian_scatterer(xs, b_n, ue), np.asarray(qs, dtype=float))
