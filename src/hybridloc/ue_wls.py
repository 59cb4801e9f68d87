"""Closed-form weighted least-squares estimation of the user state.

The hybrid measurement vector is recast as an overdetermined linear system
``h = G x`` in the 6-D state ``x = [position, velocity]`` by substituting
measured quantities for true ones:

* each TDOA entry yields a row quadratic in ranges that linearizes against
  both receiver positions,
* each FDOA entry yields a row coupling position and velocity,
* each AOA pair yields two rows expressing that the tangent/normal vectors
  of the measured direction are orthogonal to the receiver-to-user ray.

Measurement noise enters ``(h, G)`` multiplicatively, so the residual
``e = h - G x_true`` is, to first order, ``B @ dm`` with ``B`` computable
from the (estimated) state.  The solver therefore iterates: solve with
``W = inv(Q)``, rebuild ``B`` at the new state, re-solve with
``W = inv(B Q B')``.  Two passes suffice; the returned covariance is the
first-order one, which coincides with the Gaussian lower bound.

Below four receivers the velocity is unidentifiable; the solver then falls
back to a position-only system (TDOA and AOA rows only) and flags the
velocity entries as invalid (NaN).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DimensionMismatchError,
    NumericalError,
    SingularProblemError,
)
from .geometry import angle_rates, angular_vectors, aoa_los, measurement_dim

# Condition number beyond which a normal or information matrix counts as
# singular (SingularProblemError) or, for ENN-B's weighting, gets a ridge.
_COND_LIMIT = 1e12


@dataclass
class WlsResult:
    """Solution of one weighted least-squares estimation.

    ``x`` is the 6-D state estimate (velocity entries NaN when
    ``velocity_valid`` is False); ``cov`` the first-order covariance with
    the same NaN convention; ``iterations`` the number of solves performed.
    """

    x: np.ndarray
    cov: np.ndarray
    velocity_valid: bool
    iterations: int

    @property
    def position(self) -> np.ndarray:
        return self.x[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.x[3:]


def unpack_measurement(m, n_receivers: int):
    """Split a measurement vector into (r_n1, rdot_n1, phi, theta) arrays."""
    m = np.asarray(m, dtype=float)
    if m.shape != (measurement_dim(n_receivers),):
        raise DimensionMismatchError(
            f"measurement length {m.size} does not match {n_receivers} receivers"
        )
    k = 2 * n_receivers - 2
    return m[0:k:2], m[1:k:2], m[k::2], m[k + 1 :: 2]


def build_system(m, rrhs):
    """Assemble the pseudo-linear pair (h, G) from a noisy measurement vector."""
    rrhs = np.asarray(rrhs, dtype=float)
    n = rrhs.shape[0]
    r_n1, rdot_n1, phi, theta = unpack_measurement(m, n)

    b_1 = rrhs[0]
    a_1, _, _ = angular_vectors(phi[0], theta[0])

    dim = measurement_dim(n)
    h = np.empty(dim)
    g = np.zeros((dim, 6))
    for i in range(1, n):
        b_n = rrhs[i]
        t_row = 2 * (i - 1)
        h[t_row] = r_n1[i - 1] ** 2 - 2.0 * r_n1[i - 1] * (a_1 @ b_1) - b_n @ b_n + b_1 @ b_1
        g[t_row, :3] = 2.0 * ((b_1 - b_n) - r_n1[i - 1] * a_1)
        f_row = t_row + 1
        h[f_row] = rdot_n1[i - 1] * r_n1[i - 1] - rdot_n1[i - 1] * (a_1 @ b_1)
        g[f_row, :3] = -rdot_n1[i - 1] * a_1
        g[f_row, 3:] = (b_1 - b_n) - r_n1[i - 1] * a_1
    base = 2 * n - 2
    for j in range(n):
        _, c_j, d_j = angular_vectors(phi[j], theta[j])
        h[base + 2 * j] = c_j @ rrhs[j]
        g[base + 2 * j, :3] = c_j
        h[base + 2 * j + 1] = d_j @ rrhs[j]
        g[base + 2 * j + 1, :3] = d_j
    return h, g


def residual_vector(m, rrhs, x) -> np.ndarray:
    """Residual e = h(m) - G(m) x; zero when m is noise-free and x is true."""
    h, g = build_system(m, rrhs)
    return h - g @ np.asarray(x, dtype=float)


def build_b(x, rrhs) -> np.ndarray:
    """First-order map from measurement noise to the residual, at state x.

    Layout (matching the measurement vector): one 2x2 lower-triangular block
    per non-reference receiver on the TDOA/FDOA rows, a coupling of the FDOA
    rows into the reference receiver's two angle columns, and a diagonal over
    the AOA rows.  Invertible whenever ranges are positive and no receiver
    sees the user at zenith.
    """
    x = np.asarray(x, dtype=float)
    rrhs = np.asarray(rrhs, dtype=float)
    u, udot = x[:3], x[3:]
    n = rrhs.shape[0]

    diffs = u - rrhs
    r = np.linalg.norm(diffs, axis=1)
    if np.any(r <= 0.0):
        raise DegenerateGeometryError("state coincides with a receiver")
    rdot = diffs @ udot / r

    phi1, theta1 = aoa_los(u, rrhs[0])
    phidot1, thetadot1 = angle_rates(u, udot, rrhs[0])
    cos_t1 = np.cos(theta1)

    dim = measurement_dim(n)
    b = np.zeros((dim, dim))
    base = 2 * n - 2
    for i in range(1, n):
        t_row = 2 * (i - 1)
        f_row = t_row + 1
        b[t_row, t_row] = 2.0 * r[i]
        b[f_row, t_row] = rdot[i]
        b[f_row, f_row] = r[i]
        r_i1 = r[i] - r[0]
        b[f_row, base] = r[0] * r_i1 * phidot1 * cos_t1**2
        b[f_row, base + 1] = r[0] * r_i1 * thetadot1
    for j in range(n):
        phi_j, theta_j = aoa_los(u, rrhs[j])
        b[base + 2 * j, base + 2 * j] = r[j] * np.cos(theta_j)
        b[base + 2 * j + 1, base + 2 * j + 1] = r[j]
    return b


def solve_linear(h, g, w):
    """One weighted solve of h = G x; returns (x, covariance-shaped inverse).

    The second return value is ``inv(G' W G)``, which is the estimator
    covariance only when ``W`` is the inverse covariance of ``h``'s error.
    """
    normal = g.T @ w @ g
    if not np.all(np.isfinite(normal)):
        raise NumericalError("normal equations contain non-finite entries")
    if np.linalg.cond(normal) > _COND_LIMIT:
        raise SingularProblemError("normal equations are singular or near-singular")
    inv_normal = np.linalg.inv(normal)
    x = inv_normal @ (g.T @ w @ h)
    if not np.all(np.isfinite(x)):
        raise NumericalError("solution contains non-finite entries")
    return x, inv_normal


def _position_row_mask(n: int) -> np.ndarray:
    """Rows carrying no velocity information: TDOA rows plus all AOA rows."""
    mask = np.zeros(measurement_dim(n), dtype=bool)
    mask[0 : 2 * n - 2 : 2] = True
    mask[2 * n - 2 :] = True
    return mask


def _solve_position_only(h, g, q, rrhs, iters):
    n = rrhs.shape[0]
    rows = _position_row_mask(n)
    h_p = h[rows]
    g_p = g[np.ix_(rows, [0, 1, 2])]
    q_p = q[np.ix_(rows, rows)]
    w = np.linalg.inv(q_p)
    pos = None
    for it in range(iters):
        if it > 0:
            # Restricted rows of B touch only their own columns, so the
            # sub-block is the full first-order map for this system.
            x_full = np.concatenate([pos, np.zeros(3)])
            b_sub = build_b(x_full, rrhs)[np.ix_(rows, rows)]
            w = np.linalg.inv(b_sub @ q_p @ b_sub.T)
        pos, cov_pos = solve_linear(h_p, g_p, w)
    x = np.concatenate([pos, np.full(3, np.nan)])
    cov = np.full((6, 6), np.nan)
    cov[:3, :3] = cov_pos
    return WlsResult(x=x, cov=cov, velocity_valid=False, iterations=iters)


def wls_solve(m, rrhs, q, iters: int = 2) -> WlsResult:
    """Iterated WLS estimate of the 6-D user state.

    ``iters`` solves are performed (default 2), the first with ``W =
    inv(Q)`` and subsequent ones with ``W = inv(B Q B')`` rebuilt at the
    current state.  The returned covariance is evaluated at the final state.
    """
    rrhs = np.asarray(rrhs, dtype=float)
    q = np.asarray(q, dtype=float)
    h, g = build_system(m, rrhs)
    if q.shape != (h.size, h.size):
        raise DimensionMismatchError("covariance does not match measurement size")

    try:
        w = np.linalg.inv(q)
        x = None
        for it in range(iters):
            if it > 0:
                b = build_b(x, rrhs)
                w = np.linalg.inv(b @ q @ b.T)
            x, _ = solve_linear(h, g, w)
        b = build_b(x, rrhs)
        w = np.linalg.inv(b @ q @ b.T)
        _, cov = solve_linear(h, g, w)
    except SingularProblemError:
        # Velocity unidentifiable (fewer than four receivers in general
        # position): fall back to the position-only system.
        return _solve_position_only(h, g, q, rrhs, iters)
    return WlsResult(x=x, cov=cov, velocity_valid=True, iterations=iters)
