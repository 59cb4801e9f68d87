"""WLS estimation of a scatterer's position and signed speed from one path.

Each reflected path supplies four measurements (delay difference, rate
difference, two arrival angles at the observing receiver) and the unknown
is four-dimensional: position plus a signed speed along the user's velocity
direction.  With the user state taken from the preceding estimation step,
the pseudo-linear system is square; the weighting matrix therefore affects
only the reported covariance, not the estimate itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, DimensionMismatchError
from .geometry import angle_rates, angular_vectors, aoa_los, los_range, range_rate
from .ue_wls import solve_linear


@dataclass
class ScattererResult:
    """Estimated scatterer state: x = [position (3), signed speed]."""

    x: np.ndarray
    cov: np.ndarray

    @property
    def position(self) -> np.ndarray:
        return self.x[:3]

    @property
    def speed(self) -> float:
        return float(self.x[3])


def _unit_velocity(ue: np.ndarray) -> np.ndarray:
    udot = ue[3:]
    speed = np.linalg.norm(udot)
    if speed <= 0.0:
        raise DegenerateGeometryError(
            "user velocity is zero; scatterer speed direction undefined"
        )
    return udot / speed


def build_scatterer_system(ms, b_n, b_1, ue):
    """Assemble (h, G, T) for one reflected path.

    ``ms`` is the 4-entry path measurement; ``b_n`` the observing receiver;
    ``b_1`` the reference receiver (whose direct-path range/rate, recomputed
    from the user state ``ue``, undoes the differencing); ``T`` maps the
    reduced state [s, speed] to [s, speed * n_v].
    """
    ms = np.asarray(ms, dtype=float)
    if ms.shape != (4,):
        raise DimensionMismatchError("path measurement must have 4 entries")
    b_n = np.asarray(b_n, dtype=float)
    b_1 = np.asarray(b_1, dtype=float)
    ue = np.asarray(ue, dtype=float)
    u, udot = ue[:3], ue[3:]
    n_v = _unit_velocity(ue)

    r_1 = los_range(u, b_1)
    rdot_1 = range_rate(u, udot, b_1)
    r_s = ms[0] + r_1
    rdot_s = ms[1] + rdot_1
    a_s, c_s, d_s = angular_vectors(ms[2], ms[3])

    h = np.array(
        [
            r_s**2 + 2.0 * r_s * (a_s @ b_n) - u @ u + b_n @ b_n,
            r_s * rdot_s + rdot_s * (a_s @ b_n) - udot @ u,
            c_s @ b_n,
            d_s @ b_n,
        ]
    )
    g = np.zeros((4, 6))
    g[0, :3] = 2.0 * (b_n - u + r_s * a_s)
    g[1, :3] = rdot_s * a_s - udot
    g[1, 3:] = r_s * a_s + b_n - u
    g[2, :3] = c_s
    g[3, :3] = d_s

    t = np.zeros((6, 4))
    t[:3, :3] = np.eye(3)
    t[3:, 3] = n_v
    return h, g, t


def scatterer_residual(ms, b_n, b_1, ue, xs) -> np.ndarray:
    """Residual e = h - G T x for a reduced state x = [s, speed]."""
    h, g, t = build_scatterer_system(ms, b_n, b_1, ue)
    return h - (g @ t) @ np.asarray(xs, dtype=float)


def build_bs(xs, b_n, ue) -> np.ndarray:
    """First-order map from path-measurement noise to the residual.

    Rows follow the measurement order (delay, rate, azimuth, elevation);
    the rate row couples into the two angle columns through the scatterer's
    apparent angular rates seen from the receiver.
    """
    xs = np.asarray(xs, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    ue = np.asarray(ue, dtype=float)
    s, speed = xs[:3], xs[3]
    u, udot = ue[:3], ue[3:]
    n_v = _unit_velocity(ue)
    sdot_vec = speed * n_v

    d1 = los_range(s, b_n)
    d2 = los_range(u, s)
    if d1 <= 0.0 or d2 <= 0.0:
        raise DegenerateGeometryError("scatterer coincides with receiver or user")
    r_s = d1 + d2
    ddot2 = (udot - sdot_vec) @ (u - s) / d2

    phi_s, theta_s = aoa_los(s, b_n)
    cos_t = np.cos(theta_s)
    phidot_s, thetadot_s = angle_rates(s, sdot_vec, b_n)

    b = np.zeros((4, 4))
    b[0, 0] = 2.0 * d2
    b[1, 0] = ddot2
    b[1, 1] = d2
    b[1, 2] = -r_s * d1 * phidot_s * cos_t**2
    b[1, 3] = -r_s * d1 * thetadot_s
    b[2, 2] = d1 * cos_t
    b[3, 3] = d1
    return b


def scatterer_wls_solve(ms, b_n, b_1, ue, qs) -> ScattererResult:
    """WLS estimate of [scatterer position, signed speed] and its covariance.

    The system is square, so the weighting cannot move the estimate: one
    solve with ``W = inv(Qs)`` gives it, and the first-order covariance is
    ``inv(G' W G)`` with ``W = inv(Bs Qs Bs')`` at that estimate.
    """
    qs = np.asarray(qs, dtype=float)
    if qs.shape != (4, 4):
        raise DimensionMismatchError("path covariance must be 4x4")
    h, g, t = build_scatterer_system(ms, b_n, b_1, ue)
    gt = g @ t
    xs, _ = solve_linear(h, gt, np.linalg.inv(qs))
    bs = build_bs(xs, b_n, ue)
    _, cov = solve_linear(h, gt, np.linalg.inv(bs @ qs @ bs.T))
    return ScattererResult(x=xs, cov=cov)
