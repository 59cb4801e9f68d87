"""Per-receiver loop versions of the WLS solvers, kept as the test oracle.

These are the scalar forms of the stacked core in ``hybridloc.ue_wls`` and
``hybridloc.scatterer_wls``: one receiver per loop step in ``build_system``
and ``build_b``, and one SVD condition number plus one ``inv`` per weighted
solve, on the per-ray geometry of ``scalar_geometry``.  They raise on
the first failure, as one trial of the stacked solvers fails.  Where a
weighting ``B Q B'`` is exactly singular, ``inv`` raises a bare
``LinAlgError`` here; the stacked solvers turn that into the trial's
``SingularProblemError``.
"""

import numpy as np

from hybridloc.errors import DegenerateGeometryError, NumericalError, SingularProblemError
from hybridloc.geometry import measurement_dim
from hybridloc.ue_wls import _COND_LIMIT, _position_row_mask
from scalar_geometry import angle_rates, angular_vectors, aoa_los, los_range, range_rate


def build_system(m, rrhs):
    rrhs = np.asarray(rrhs, dtype=float)
    m = np.asarray(m, dtype=float)
    n = rrhs.shape[0]
    k = 2 * n - 2
    r_n1, rdot_n1, phi, theta = m[0:k:2], m[1:k:2], m[k::2], m[k + 1 :: 2]
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
    for j in range(n):
        _, c_j, d_j = angular_vectors(phi[j], theta[j])
        h[k + 2 * j] = c_j @ rrhs[j]
        g[k + 2 * j, :3] = c_j
        h[k + 2 * j + 1] = d_j @ rrhs[j]
        g[k + 2 * j + 1, :3] = d_j
    return h, g


def build_b(x, rrhs):
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


def _solve_position_only(h, g, q, rrhs, iters):
    rows = _position_row_mask(rrhs.shape[0])
    h_p = h[rows]
    g_p = g[np.ix_(rows, [0, 1, 2])]
    q_p = q[np.ix_(rows, rows)]
    w = np.linalg.inv(q_p)
    pos = None
    for it in range(iters):
        if it > 0:
            x_full = np.concatenate([pos, np.zeros(3)])
            b_sub = build_b(x_full, rrhs)[np.ix_(rows, rows)]
            w = np.linalg.inv(b_sub @ q_p @ b_sub.T)
        pos, cov_pos = solve_linear(h_p, g_p, w)
    x = np.concatenate([pos, np.full(3, np.nan)])
    cov = np.full((6, 6), np.nan)
    cov[:3, :3] = cov_pos
    return x, cov, False


def wls_solve(m, rrhs, q, iters=2):
    """(x, cov, velocity_valid) of one trial, or the error it raises."""
    rrhs = np.asarray(rrhs, dtype=float)
    q = np.asarray(q, dtype=float)
    h, g = build_system(m, rrhs)
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
        return _solve_position_only(h, g, q, rrhs, iters)
    return x, cov, True


def _unit_velocity(ue):
    udot = ue[3:]
    speed = np.linalg.norm(udot)
    if speed <= 0.0:
        raise DegenerateGeometryError("user velocity is zero")
    return udot / speed


def build_scatterer_system(ms, b_n, b_1, ue):
    ms = np.asarray(ms, dtype=float)
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


def build_bs(xs, b_n, ue):
    xs = np.asarray(xs, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    ue = np.asarray(ue, dtype=float)
    s, speed = xs[:3], xs[3]
    u, udot = ue[:3], ue[3:]
    sdot_vec = speed * _unit_velocity(ue)
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


def scatterer_wls_solve(ms, b_n, b_1, ue, qs):
    """(x, cov) of one reflected path, or the error it raises."""
    qs = np.asarray(qs, dtype=float)
    h, g, t = build_scatterer_system(ms, b_n, b_1, ue)
    gt = g @ t
    xs, _ = solve_linear(h, gt, np.linalg.inv(qs))
    bs = build_bs(xs, b_n, ue)
    _, cov = solve_linear(h, gt, np.linalg.inv(bs @ qs @ bs.T))
    return xs, cov
