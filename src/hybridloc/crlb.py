"""Lower bounds on estimator covariance, via analytic measurement Jacobians.

For a Gaussian measurement model the bound is ``inv(D' inv(Q) D)`` where
``D`` is the Jacobian of the noise-free measurement vector with respect to
the unknown state.  Row order matches the measurement layout documented in
:mod:`hybridloc.geometry`; state columns are position-then-velocity.

The bounds take one covariance or a stack of them, one per noise scale
of a grid: the Jacobian depends on the state alone, so one Jacobian, one
stacked solve and one stacked inversion serve the whole grid.  Each
member is decided as it would be alone, by the singular-matrix rule of
the WLS solves (``ue_wls._invert_normal``), and a single covariance is the
stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, GimbalLockError, SingularProblemError
from .geometry import (
    MIN_COS_ELEVATION,
    MIN_VELOCITY_RECEIVERS,
    angular_vectors,
    look_angles,
    measurement_dim,
    position_rows,
    row_blocks,
    scatterer_legs,
    ue_measurement,
    user_rays,
)
from .ue_wls import _invert_normal, build_b, build_system


def _information(jac: np.ndarray, q) -> np.ndarray:
    """``J' inv(Q) J`` under each covariance of ``q`` (..., d, d).

    A singular member of ``q`` raises ``SingularProblemError``.
    """
    try:
        return jac.T @ np.linalg.solve(q, jac)
    except np.linalg.LinAlgError as exc:
        raise SingularProblemError("measurement covariance is singular") from exc


_NON_FINITE = "information matrix has non-finite entries"
_SINGULAR = "information matrix is singular; geometry does not identify the state"


def _bounds(jac: np.ndarray, q: np.ndarray):
    """``(bound, failed)``: ``inv(J' inv(Q) J)`` under each covariance of the
    stack ``q`` (R, d, d), and per member the message of why it has none.

    A singular covariance raises ``SingularProblemError``.  A member whose
    information matrix is not finite, or is singular by the rule of the WLS
    solves (one ``ue_wls._invert_normal`` call on the finite ones), gets a
    NaN bound and its message in ``failed``; the others get None.
    """
    fisher = _information(jac, q)
    finite = np.isfinite(fisher).all(axis=(1, 2))
    bound, singular = _invert_normal(fisher, finite)
    failed = np.full(len(fisher), None, dtype=object)
    failed[~finite] = _NON_FINITE
    failed[singular] = _SINGULAR
    return bound, failed


def _bound(jac: np.ndarray, q) -> np.ndarray:
    """``inv(J' inv(Q) J)``: the bound of Jacobian ``jac`` under covariance
    ``q`` (d, d), or under each covariance of a stack ``q`` (R, d, d).

    A singular covariance, or an information matrix that is not finite or
    not invertible, raises ``SingularProblemError`` (the first such member's
    message); the information matrix is singular by the rule of the WLS
    solves (``ue_wls._invert_normal``).
    """
    q = np.asarray(q, dtype=float)
    bound, failed = _bounds(jac, q.reshape((-1,) + q.shape[-2:]))
    for message in failed:
        if message is not None:
            raise SingularProblemError(message)
    return bound.reshape(q.shape[:-2] + bound.shape[-2:])


def jacobian_ue(x, rrhs) -> np.ndarray:
    """Jacobian of the hybrid measurement vector w.r.t. the 6-D state.

    TDOA rows and AOA rows have zero velocity blocks; each FDOA row's
    velocity block equals the corresponding TDOA row's position block.
    Ranges and rates are :func:`geometry.user_rays`', the ones the
    measurement vector and the WLS error map ``ue_wls.build_b`` read.  A
    state on a receiver raises ``DegenerateGeometryError``, and one that a
    receiver sees at zenith ``GimbalLockError``.
    """
    x = np.asarray(x, dtype=float)
    rrhs = np.asarray(rrhs, dtype=float)
    udot = x[3:]
    n = rrhs.shape[0]
    diffs, r, rdot = user_rays(x, rrhs)
    if np.any(r <= 0.0):
        raise DegenerateGeometryError("state coincides with a receiver")
    grad_r = diffs / r[:, None]
    grad_rdot = udot / r[:, None] - (rdot / r**2)[:, None] * diffs

    tdoa, fdoa, azimuth, elevation = row_blocks(n - 1)
    jac = np.zeros((measurement_dim(n), 6))
    jac[tdoa, :3] = grad_r[1:] - grad_r[0]
    jac[fdoa, :3] = grad_rdot[1:] - grad_rdot[0]
    jac[fdoa, 3:] = grad_r[1:] - grad_r[0]
    _, phi, theta = look_angles(diffs)
    cos_theta = np.cos(theta)
    zenith = np.flatnonzero(np.abs(cos_theta) < MIN_COS_ELEVATION)
    if zenith.size:
        raise GimbalLockError(f"receiver {zenith[0]} sees the state at zenith")
    _, c_vec, d_vec = angular_vectors(phi, theta)
    jac[azimuth, :3] = c_vec / (r * cos_theta)[:, None]
    jac[elevation, :3] = d_vec / r[:, None]
    return jac


def crlb_ue(x, rrhs, q) -> np.ndarray:
    """6x6 covariance lower bound for the joint position/velocity estimate
    (a stack of them for a stack of covariances ``q``)."""
    return _bound(jacobian_ue(x, rrhs), q)


def crlb_ue_position(x, rrhs, q) -> np.ndarray:
    """3x3 position bound of the TDOA and AOA rows.

    Below four receivers the joint 6-D information matrix is singular
    (velocity is unidentifiable) and ``wls_solve`` solves on these rows,
    which carry no velocity; this is the bound that fallback can attain.
    A stack of covariances ``q`` gives a stack of bounds.
    """
    return _position_bound(jacobian_ue(x, rrhs), np.asarray(q, dtype=float), len(rrhs))


def _position_bound(jac: np.ndarray, q: np.ndarray, n_receivers: int) -> np.ndarray:
    """The bound of the position columns of ``jac``'s TDOA and AOA rows
    (``geometry.position_rows``), under ``q`` (..., d, d)."""
    rows = position_rows(n_receivers)
    return _bound(jac[np.ix_(rows, [0, 1, 2])], q[..., rows, :][..., rows])


def jacobian_scatterer(xs, b_n, ue) -> np.ndarray:
    """4x4 Jacobian of one reflected-path measurement w.r.t. [s, speed].

    The user state ``ue`` is treated as known; the scatterer velocity is
    ``speed * n_v`` with ``n_v`` the unit vector along the user velocity.
    The legs and their rates are :func:`geometry.scatterer_legs`', the
    ones the path measurement and the scatterer solver's ``bs_bands``
    read.  A static user, or a scatterer on the receiver or the user,
    raises ``DegenerateGeometryError``; one the receiver sees at zenith
    ``GimbalLockError``.
    """
    xs = np.asarray(xs, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    ue = np.asarray(ue, dtype=float)
    udot = ue[3:]
    n_v, sdot_vec, leg1, d1, phi_s, theta_s, leg2, d2, ddot1, ddot2 = scatterer_legs(xs, ue, b_n)
    if d1 <= 0.0 or d2 <= 0.0:
        raise DegenerateGeometryError("scatterer coincides with receiver or user")
    a_s = leg1 / d1
    e2 = leg2 / d2

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
    """4x4 covariance lower bound for the scatterer position/speed estimate.

    A stack of covariances ``qs`` (R, 4, 4) gives the (R, 4, 4) stack of
    bounds, from one Jacobian.
    """
    return _bound(jacobian_scatterer(xs, b_n, ue), qs)


def position_trace(cov) -> float:
    """Trace of the position block (first three diagonal entries)."""
    return float(np.trace(cov[:3, :3]))


def velocity_trace(cov) -> float:
    """Trace of the velocity block (diagonal entries after the first three)."""
    return float(np.trace(cov[3:, 3:]))


def crlb_ue_traces(x, rrhs, q):
    """Position and velocity traces of the user bound; velocity None if unobservable.

    Velocity is observable exactly when the joint information matrix is
    invertible, the rule ``wls_solve`` applies when it falls back to
    position only; the position trace then comes from
    :func:`crlb_ue_position`.  Below four receivers
    (``MIN_VELOCITY_RECEIVERS``) the joint information matrix is singular
    by construction, so every member takes the position bound without a
    joint one.  A singular ``q`` raises ``SingularProblemError`` at any
    receiver count: its zero variances would otherwise pass for
    unobservable velocity when they sit on the FDOA rows.

    ``q`` is one covariance (d, d), giving one ``(position, velocity)``
    pair, or a stack (R, d, d), giving a list of R pairs from one Jacobian,
    each what the call with that member alone returns.
    """
    jac = jacobian_ue(x, rrhs)
    q = np.asarray(q, dtype=float)
    stack = q.reshape((-1,) + q.shape[-2:])
    if len(rrhs) < MIN_VELOCITY_RECEIVERS:
        _information(jac, stack)  # a singular covariance raises
        traces = [None] * len(stack)
        unobservable = np.ones(len(stack), dtype=bool)
    else:
        cov, failed = _bounds(jac, stack)
        traces = [(position_trace(c), velocity_trace(c)) for c in cov]
        unobservable = np.not_equal(failed, None)
    if unobservable.any():
        position = _position_bound(jac, stack[unobservable], len(rrhs))
        for r, p in zip(np.flatnonzero(unobservable), position):
            traces[r] = position_trace(p), None
    return traces if q.ndim == 3 else traces[0]


@dataclass
class IdentityReport:
    """Largest relative deviations of ``B J = G``, row by row, from
    :func:`verify_identities`: over the TDOA and AOA rows
    (``max_dev_range``) and over the FDOA rows (``max_dev_rate``)."""

    max_dev_range: float
    max_dev_rate: float

    @property
    def max_deviation(self) -> float:
        return max(self.max_dev_range, self.max_dev_rate)


def verify_identities(x, rrhs) -> IdentityReport:
    """Check ``B J = G`` on the WLS solver's own matrices at the true state.

    ``B`` is the solver's first-order error map (``ue_wls.build_b``), ``G``
    its system matrix built from the noise-free measurement
    (``ue_wls.build_system`` of ``geometry.ue_measurement``) and ``J`` the
    measurement Jacobian (:func:`jacobian_ue`).  ``B`` is the derivative of
    the residual ``h(m) - G(m) x`` in ``m``, which vanishes at ``m(x)``, so
    ``B J = G``; that is why ``inv(G' inv(B Q B') G)``, the iterated WLS
    covariance, coincides with the bound ``inv(J' inv(Q) J)``.  Each row's deviation is relative to
    the largest entry of its row of ``G`` (at least 1).  The failures are
    :func:`jacobian_ue`'s.
    """
    x = np.asarray(x, dtype=float)
    rrhs = np.asarray(rrhs, dtype=float)
    jac = jacobian_ue(x, rrhs)
    _, g = build_system(ue_measurement(x, rrhs), rrhs)
    scale = np.maximum(np.abs(g).max(axis=1), 1.0)
    dev = np.abs(build_b(x, rrhs) @ jac - g).max(axis=1) / scale
    rows = position_rows(rrhs.shape[0])
    return IdentityReport(
        max_dev_range=float(dev[rows].max(initial=0.0)),
        max_dev_rate=float(dev[~rows].max(initial=0.0)),
    )
