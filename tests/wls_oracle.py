"""Per-receiver loop versions of the WLS solvers, kept as the test oracle.

These are the scalar forms of the stacked core in ``hybridloc.ue_wls`` and
``hybridloc.scatterer_wls``: one receiver per loop step in ``build_system``,
``build_b`` and the whitening, and one SVD condition number plus one
``inv`` per weighted solve, on the per-ray geometry of ``scalar_geometry``.
Each re-weighted solve is the solve of the whitened system ``(inv(B) h,
inv(B) G)`` with ``W = inv(Q)``, which equals the solve of ``(h, G)`` with
``W = inv(B Q B')``; ``inv(B)`` is applied row by row through B's
sparsity, and a zero or non-finite pivot raises ``SingularProblemError``.
They raise on the first failure, as one trial of the stacked solvers fails.

Four retired forms are kept here only as oracles:
``solve_normal_cond_first`` takes every live member's SVD condition number
before inverting; ``wls_solve_batch_joint_first`` attempts the joint solve
at every receiver count, and so reaches the position-only rows below four
receivers only through a singular joint normal matrix;
``run_wls_campaign_per_rho`` and
``run_scatterer_campaign_per_rho`` run one noise scale per call on
``(trials, dim)`` stacks, as ``hybridloc simulate`` used to call them once
per scale, with one bound per scale; and ``compute_metrics`` takes each
metric from its own ``np.mean``, ``np.linalg.norm`` or ``ndarray.std``
call.

Each kernel keeps one retired form, except two pairs where no single form
is bitwise on every case the tests run: the loop ``wls_solve``, compared
within a tolerance on random trials, beside ``wls_solve_batch_joint_first``,
compared bit for bit below four receivers; and the dense ``build_b`` and
``build_bs`` here, compared within a tolerance, beside the banded
``ray_oracle.b_bands`` and ``bs_bands``, compared bit for bit.
"""

import functools

import numpy as np

from hybridloc import harness
from hybridloc import ue_wls as stacked
from hybridloc.errors import (
    CampaignFailedError,
    DegenerateGeometryError,
    NumericalError,
    SingularProblemError,
)
from hybridloc.geometry import measurement_dim, scatterer_measurement, ue_measurement
from hybridloc.noise import (
    add_noise,
    build_q,
    build_qs,
    draw_dominant,
    scatterer_sigma_components,
    sigma_components,
)
from hybridloc.scatterer_wls import scatterer_wls_solve_batch
from hybridloc.ue_wls import _COND_LIMIT, _fail, wls_solve_batch
from crlb_oracle import crlb_scatterer, crlb_ue_traces, position_rows
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


def whiten(b, h, g, k):
    """``(inv(B) h, inv(B) G)`` for a B whose only off-diagonal entries sit
    in the FDOA rows ``1, 3, ..., k - 1``: on the row's TDOA partner's
    column and on columns ``k`` and ``k + 1`` (the reference angle pair)."""
    diag = np.diag(b)
    pattern = np.diag(diag)
    for f in range(1, k, 2):
        pattern[f, [f - 1, k, k + 1]] = b[f, [f - 1, k, k + 1]]
    assert np.array_equal(pattern, b, equal_nan=True), "B has entries off the pattern"
    if not np.all(np.isfinite(diag)) or np.any(diag == 0.0):
        raise SingularProblemError("weighting matrix is singular")
    v = np.column_stack([g, h])
    y = v / diag[:, None]
    for f in range(1, k, 2):
        y[f] = (v[f] - b[f, f - 1] * y[f - 1] - b[f, k] * y[k] - b[f, k + 1] * y[k + 1]) / b[f, f]
    return y[:, -1], y[:, :-1]


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
    rows = position_rows(rrhs.shape[0])
    h_p = h[rows]
    g_p = g[np.ix_(rows, [0, 1, 2])]
    q_p = q[np.ix_(rows, rows)]
    w = np.linalg.inv(q_p)
    pos = None
    for it in range(iters):
        h_w, g_w = h_p, g_p
        if it > 0:
            x_full = np.concatenate([pos, np.zeros(3)])
            b_sub = build_b(x_full, rrhs)[np.ix_(rows, rows)]
            h_w, g_w = whiten(b_sub, h_p, g_p, 0)
        pos, cov_pos = solve_linear(h_w, g_w, w)
    x = np.concatenate([pos, np.full(3, np.nan)])
    cov = np.full((6, 6), np.nan)
    cov[:3, :3] = cov_pos
    return x, cov, False


def wls_solve(m, rrhs, q, iters=2):
    """(x, cov, velocity_valid) of one trial, or the error it raises."""
    rrhs = np.asarray(rrhs, dtype=float)
    q = np.asarray(q, dtype=float)
    h, g = build_system(m, rrhs)
    k = 2 * rrhs.shape[0] - 2
    w = np.linalg.inv(q)
    try:
        x = None
        for it in range(iters):
            h_w, g_w = h, g
            if it > 0:
                h_w, g_w = whiten(build_b(x, rrhs), h, g, k)
            x, _ = solve_linear(h_w, g_w, w)
        _, cov = solve_linear(*whiten(build_b(x, rrhs), h, g, k), w)
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
    w = np.linalg.inv(qs)
    xs, _ = solve_linear(h, gt, w)
    _, cov = solve_linear(*whiten(build_bs(xs, b_n, ue), h, gt, 2), w)
    return xs, cov


def _on_live(fn, a, live, item_shape):
    """``fn`` over the live members of the stack ``a``, NaN for the others."""
    if live.all():
        return fn(a)
    out = np.full(live.shape + item_shape, np.nan)
    if live.any():
        out[live] = fn(a[live])
    return out


def solve_normal_cond_first(normal, rhs, errors=None):
    """``ue_wls.solve_normal`` as it was: cond of every live member, then inv."""
    live = np.isfinite(normal).all(axis=(-2, -1))
    _fail(errors, ~live, NumericalError, "normal equations contain non-finite entries")
    if errors is not None:
        live = live & np.equal(errors, None)
    singular = live & (_on_live(np.linalg.cond, normal, live, ()) > _COND_LIMIT)
    _fail(errors, singular, SingularProblemError, "normal equations are singular or near-singular")
    live = live & ~singular
    inv_normal = _on_live(np.linalg.inv, normal, live, normal.shape[-2:])
    x = (inv_normal @ rhs)[..., 0]
    blown = live & ~np.isfinite(x).all(axis=-1)
    _fail(errors, blown, NumericalError, "solution contains non-finite entries")
    if blown.any():
        x[blown] = np.nan
        inv_normal[blown] = np.nan
    return x, inv_normal


def wls_solve_batch_joint_first(ms, rrhs, q, iters=2):
    """``ue_wls.wls_solve_batch`` as it was: the joint solve first at every
    receiver count, then the position-only rows for the trials whose joint
    normal matrix was singular."""
    rrhs = np.asarray(rrhs, dtype=float)
    ms = np.asarray(ms, dtype=float)
    h, g = stacked.build_system(ms, rrhs)
    q = stacked._stacked_covariance(q, h.shape, "covariance does not match measurement size")
    errors = np.full(h.shape[:-1], None, dtype=object)
    x, cov = stacked._iterated_solve(
        h, g, q, lambda x, e: stacked.b_bands(x, rrhs, e), iters, True, errors
    )
    valid = np.equal(errors, None)
    if not valid.all():
        fallback = np.array(
            [isinstance(e, SingularProblemError) for e in errors.flat], dtype=bool
        ).reshape(errors.shape)
        if fallback.any():
            rows = np.flatnonzero(position_rows(rrhs.shape[0]))
            pos_errors = np.full(errors.shape, None, dtype=object)

            def pos_bands(pos, e):
                full = np.concatenate([pos, np.zeros_like(pos)], axis=-1)
                diag, low = stacked.b_bands(full, rrhs, e)
                return diag[..., rows], low[..., :0, :]

            pos, cov_pos = stacked._iterated_solve(
                h[..., rows], g[..., rows, :3], q[..., rows[:, None], rows],
                pos_bands, iters, False, pos_errors,
            )
            errors[fallback] = pos_errors[fallback]
            x[fallback] = np.nan
            x[fallback, :3] = pos[fallback]
            cov[fallback] = np.nan
            cov[fallback, :3, :3] = cov_pos[fallback]
        failed = ~np.equal(errors, None)
        x[failed] = np.nan
        cov[failed] = np.nan
    return stacked.WlsBatch(x=x, cov=cov, velocity_valid=valid, failures=errors)


def _solve_in_blocks(sc, m_true, sd, normals, solve):
    normals = harness._campaign_normals(sc, sd.size, normals)
    dominant = draw_dominant(
        sc.noise, sd,
        functools.partial(np.random.default_rng, [sc.seed, harness._DOMINANT_STREAM]),
    )
    return [
        solve(add_noise(m_true, sc.noise, sd, dominant, normals[lo : lo + harness._BLOCK]))
        for lo in range(0, sc.trials, harness._BLOCK)
    ]


def run_wls_campaign_per_rho(sc, collect_trials=False, normals=None):
    """``harness.run_wls_campaign`` of one noise scale, ``sc.noise``."""
    rrhs = sc.selected_rrhs()
    q = build_q(sc.n_a, sc.noise)
    batches = _solve_in_blocks(
        sc,
        ue_measurement(sc.ue_true, rrhs),
        sigma_components(sc.n_a, sc.noise),
        normals,
        lambda ms: wls_solve_batch(ms, rrhs, q, iters=sc.wls_iters),
    )
    x = np.concatenate([b.x for b in batches])
    valid = np.concatenate([b.velocity_valid for b in batches])
    failures = np.concatenate([b.failures for b in batches])
    ok = np.equal(failures, None)
    if not ok.any():
        raise CampaignFailedError(f"every trial failed numerically; trial 0: {failures[0]}")
    rows = []
    if collect_trials:
        for t in range(sc.trials):
            if ok[t]:
                rows.append({
                    "trial": t,
                    "status": "ok",
                    "error_position": float(np.linalg.norm(x[t, :3] - sc.ue_true[:3])),
                    "error_velocity": float(np.linalg.norm(x[t, 3:] - sc.ue_true[3:])),
                })
            else:
                rows.append({"trial": t, "status": "fail", "detail": str(failures[t])})
    estimates = x[ok]
    if valid[ok].all():
        report = compute_metrics(estimates, np.tile(sc.ue_true, (len(estimates), 1)))
    else:
        report = compute_metrics(
            estimates[:, :3], np.tile(sc.ue_true[:3], (len(estimates), 1))
        )
        if valid.any():
            with_velocity = x[valid]
            velocity = compute_metrics(
                with_velocity, np.tile(sc.ue_true, (len(with_velocity), 1))
            )
            report.rmse_velocity = velocity.rmse_velocity
            report.mae_velocity = velocity.mae_velocity
    report.crlb_trace_position, report.crlb_trace_velocity = crlb_ue_traces(
        sc.ue_true, rrhs, q
    )
    report.failure_rate = int(np.count_nonzero(~ok)) / sc.trials
    report.trials = sc.trials
    return (report, rows) if collect_trials else report


def run_scatterer_campaign_per_rho(sc, normals=None):
    """``harness.run_scatterer_campaign`` of one noise scale, ``sc.noise``."""
    b_n = sc.rrhs[sc.scatterer_rrh]
    b_1 = sc.rrhs[0]
    qs = build_qs(sc.noise)
    batches = _solve_in_blocks(
        sc,
        scatterer_measurement(sc.scatterer_true, sc.ue_true, b_n, b_1),
        scatterer_sigma_components(sc.noise),
        normals,
        lambda ms: scatterer_wls_solve_batch(ms, b_n, b_1, sc.ue_true, qs),
    )
    x = np.concatenate([b.x for b in batches])
    failures = np.concatenate([b.failures for b in batches])
    ok = np.equal(failures, None)
    if not ok.any():
        raise CampaignFailedError(f"every trial failed numerically; trial 0: {failures[0]}")
    estimates = x[ok]
    truths = np.tile(sc.scatterer_true, (len(estimates), 1))
    crlb = crlb_scatterer(sc.scatterer_true, b_n, sc.ue_true, qs)
    report = compute_metrics(estimates, truths)
    report.crlb_trace_position = float(np.trace(crlb[:3, :3]))
    report.crlb_trace_velocity = float(np.trace(crlb[3:, 3:]))
    report.failure_rate = int(np.count_nonzero(~ok)) / sc.trials
    report.trials = sc.trials
    return report


def compute_metrics(estimates, truths):
    """``harness.compute_metrics`` with one NumPy reduction call per metric."""
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truths = np.atleast_2d(np.asarray(truths, dtype=float))
    err = estimates - truths
    pos = err[:, :3]
    vel = err[:, 3:]
    report = harness.MetricReport(
        rmse_position=float(np.sqrt(np.mean(np.sum(pos**2, axis=1)))),
        mae_position=float(np.mean(np.linalg.norm(pos, axis=1))),
        bias_per_component=err.mean(axis=0),
        std_per_component=err.std(axis=0),
        trials=estimates.shape[0],
    )
    if vel.shape[1] and not np.any(np.isnan(vel)):
        report.rmse_velocity = float(np.sqrt(np.mean(np.sum(vel**2, axis=1))))
        report.mae_velocity = float(np.mean(np.linalg.norm(vel, axis=1)))
    return report
