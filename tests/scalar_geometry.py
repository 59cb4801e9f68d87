"""Per-ray scalar forward model, kept for the test oracles.

These are the one-ray forms of the stacked kernels in ``hybridloc.geometry``
(``look_angles``, ``look_rates``, ``direct_paths``,
``scatterer_measurement`` and a scalar ``angular_vectors``), so that an
oracle never calls the code it checks.  Ranges are ``np.linalg.norm`` of
one vector, which the stacked per-ray rounding reproduces bit for bit.
"""

import numpy as np

from hybridloc.errors import DegenerateGeometryError, GimbalLockError
from hybridloc.geometry import MIN_COS_ELEVATION


def los_range(u, b) -> float:
    """Euclidean distance between a point ``u`` and a receiver at ``b``."""
    return float(np.linalg.norm(np.asarray(u, dtype=float) - np.asarray(b, dtype=float)))


def range_rate(u, udot, b) -> float:
    """Rate of change of ``||u - b||`` for a point moving with velocity ``udot``."""
    diff = np.asarray(u, dtype=float) - np.asarray(b, dtype=float)
    r = np.linalg.norm(diff)
    if r == 0.0:
        raise DegenerateGeometryError("range rate undefined for coincident points")
    return float(np.asarray(udot, dtype=float) @ diff / r)


def aoa_los(u, b) -> tuple:
    """Azimuth and elevation of the ray from receiver ``b`` to point ``u``."""
    diff = np.asarray(u, dtype=float) - np.asarray(b, dtype=float)
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
    """Direction, azimuth and elevation unit vectors of one angle pair."""
    cp, sp = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    a = np.array([ct * cp, ct * sp, st])
    c = np.array([-sp, cp, 0.0])
    d = np.array([-st * cp, -st * sp, ct])
    return a, c, d


def angle_rates(u, udot, b) -> tuple:
    """Azimuth and elevation rates seen from ``b`` of a point moving with ``udot``."""
    udot = np.asarray(udot, dtype=float)
    r = los_range(u, b)
    if r == 0.0:
        raise DegenerateGeometryError("angle rates undefined for coincident points")
    phi, theta = aoa_los(u, b)
    _, c, d = angular_vectors(phi, theta)
    ct = np.cos(theta)
    if abs(ct) < MIN_COS_ELEVATION:
        raise GimbalLockError("azimuth rate undefined at +/-90 degrees elevation")
    return float(c @ udot / (r * ct)), float(d @ udot / r)


def nlos_params(u, udot, s, sdot_vec, b_n, b_1):
    """``(rs_n1, rsdot_n1, phi_s, theta_s)`` of the path user -> ``s`` -> ``b_n``."""
    u, udot, s, sdot_vec, b_n = (
        np.asarray(v, dtype=float) for v in (u, udot, s, sdot_vec, b_n)
    )
    d1 = los_range(s, b_n)
    d2 = los_range(u, s)
    if d1 == 0.0 or d2 == 0.0:
        raise DegenerateGeometryError("scatterer coincides with user or receiver")
    rsdot = float((udot - sdot_vec) @ (u - s) / d2 + sdot_vec @ (s - b_n) / d1)
    phi_s, theta_s = aoa_los(s, b_n)
    return d1 + d2 - los_range(u, b_1), rsdot - range_rate(u, udot, b_1), phi_s, theta_s
