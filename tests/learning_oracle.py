"""Per-sample dense versions of the learning estimators and dataset builders,
kept as the test oracle.

These are the forms the closed-form kernels in ``hybridloc.nn`` and
``hybridloc.ensemble`` replaced: each estimate inverts its dim x dim
weighting (``(êêᵀ + εI)⁻¹`` for NN-WLS, the ridged member average for
ENN-B) and solves once through ``solve_linear``; each dataset sample is
drawn, measured and labelled alone through the noise samplers.  They
raise on the first failure, as one sample of the stacked maps fails.
The forward models are ``ray_oracle``'s, the one retired form kept of
each.  ``StubNet`` is the fake network the learning tests share.
"""

import warnings

import numpy as np

from hybridloc.errors import NumericalError
from hybridloc.geometry import measurement_dim
from hybridloc.nn import Dataset
from hybridloc.noise import (
    build_q,
    build_qs,
    dominant_shape,
    draw_dominant_bias,
    sample_gaussian,
    sample_structured,
    sample_structured_scatterer,
    scatterer_sigma_components,
)
from hybridloc.scatterer_wls import build_scatterer_system
from hybridloc.scenario import sample_scatterer_state, sample_ue_state
from hybridloc.ue_wls import _COND_LIMIT, build_system, solve_linear
from ray_oracle import scatterer_measurement, ue_measurement


class StubNet:
    """Predicts a fixed vector for every sample; stands in for a trained
    model.  As ``Mlp.predict``: one vector in, one prediction out; an
    (N, dim) stack in, an (N, out) stack out."""

    def __init__(self, e_hat):
        self.e_hat = np.asarray(e_hat, dtype=float)

    def predict(self, m):
        lead = np.shape(m)[:-1]
        return np.broadcast_to(self.e_hat, lead + self.e_hat.shape).copy()


def make_dataset(sc, n_samples, rng, dominant_bias=None):
    rrhs = sc.selected_rrhs()
    n_a = rrhs.shape[0]
    dim = measurement_dim(n_a)
    cfg = sc.noise
    q = build_q(n_a, cfg)
    dominant = None
    if cfg.mode == "structured":
        if dominant_bias is not None:
            dominant = np.asarray(dominant_bias, dtype=float)
        else:
            dominant = draw_dominant_bias(n_a, cfg, rng)
    m_all = np.empty((n_samples, dim))
    e_all = np.empty((n_samples, dim))
    x_all = np.empty((n_samples, 6))
    for i in range(n_samples):
        x = sample_ue_state(sc, rng)
        m_true = ue_measurement(x, rrhs)
        if cfg.mode == "structured":
            m = sample_structured(m_true, cfg, dominant, rng)
        else:
            m = sample_gaussian(m_true, q, rng)
        h, g = build_system(m, rrhs)
        m_all[i] = m
        e_all[i] = h - g @ x
        x_all[i] = x
    return Dataset(m_all, e_all, x_all)


def make_scatterer_dataset(sc, n_samples, rng):
    b_n = sc.rrhs[sc.scatterer_rrh]
    b_1 = sc.rrhs[0]
    ue = sc.ue_true
    cfg = sc.noise
    qs = build_qs(cfg)
    dominant = None
    if cfg.mode == "structured":
        dominant = dominant_shape(4, rng) * scatterer_sigma_components(cfg)
    m_all = np.empty((n_samples, 4))
    e_all = np.empty((n_samples, 4))
    x_all = np.empty((n_samples, 4))
    for i in range(n_samples):
        xs = sample_scatterer_state(sc, rng)
        ms_true = scatterer_measurement(xs, ue, b_n, b_1)
        if cfg.mode == "structured":
            ms = sample_structured_scatterer(ms_true, cfg, dominant, rng)
        else:
            ms = sample_gaussian(ms_true, qs, rng)
        h, gt = build_scatterer_system(ms, b_n, b_1, ue)
        m_all[i] = ms
        e_all[i] = h - gt @ xs
        x_all[i] = xs
    return Dataset(m_all, e_all, x_all)


def residual_weight(e_hat, eps):
    if eps <= 0.0:
        raise NumericalError("ridge parameter must be positive")
    e_hat = np.asarray(e_hat, dtype=float)
    return np.linalg.inv(np.outer(e_hat, e_hat) + eps * np.eye(e_hat.shape[0]))


def rows_weighted_solve(e, h, g, ridge):
    """The dense solve weighted by ``inv(ridge·I + EᵀE)`` for residual
    rows ``E`` (k, dim); returns (x, inv(G'WG))."""
    w = np.linalg.inv(ridge * np.eye(e.shape[1]) + e.T @ e)
    return solve_linear(h, g, w)


def weighted_solve(e_hat, h, g, eps):
    """The dense NN-WLS solve; returns (x, the normal matrix G'WG)."""
    w = residual_weight(e_hat, eps)
    x, _ = solve_linear(h, g, w)
    return x, g.T @ w @ g


def nn_wls_estimate(net, m, rrhs, eps=0.1):
    m = np.asarray(m, dtype=float)
    e_hat = net.predict(m)
    h, g = build_system(m, np.asarray(rrhs, dtype=float))
    return weighted_solve(e_hat, h, g, eps)[0]


def nn_ls_estimate(net, m, rrhs):
    m = np.asarray(m, dtype=float)
    e_hat = net.predict(m)
    h, g = build_system(m, np.asarray(rrhs, dtype=float))
    x, _ = solve_linear(h - e_hat, g, np.eye(h.shape[0]))
    return x


def blackbox_estimate(net_bb, m):
    x = net_bb.predict(np.asarray(m, dtype=float))
    if not np.all(np.isfinite(x)):
        raise NumericalError("black-box estimate contains non-finite entries")
    return x


def member_states(nets, m, rrhs, eps=0.1):
    m = np.asarray(m, dtype=float)
    h, g = build_system(m, np.asarray(rrhs, dtype=float))
    return np.array([weighted_solve(net.predict(m), h, g, eps)[0] for net in nets])


def _densities(preds, r_a):
    diff = preds[:, None, :] - preds[None, :, :]
    return np.sum(np.exp(-np.sum(diff**2, axis=2) / (r_a / 2.0) ** 2), axis=1)


def enn_a_wls(nets, m, rrhs, eps=0.1, r_a=0.1):
    states = member_states(nets, m, rrhs, eps)
    pos = states[int(np.argmax(_densities(states[:, :3], r_a))), :3]
    vel = states[int(np.argmax(_densities(states[:, 3:], r_a))), 3:]
    return np.concatenate([pos, vel])


def enn_m_wls(nets, m, rrhs, eps=0.1):
    return member_states(nets, m, rrhs, eps).mean(axis=0)


def invert_weighting(avg, ridge_scale=1e-4):
    dim = avg.shape[0]
    if np.linalg.cond(avg) < _COND_LIMIT:
        return np.linalg.inv(avg), False
    eps = ridge_scale * max(np.trace(avg) / dim, np.finfo(float).tiny)
    return np.linalg.inv(avg + eps * np.eye(dim)), True


def enn_b_wls(nets, m, rrhs, ridge_scale=1e-4):
    m = np.asarray(m, dtype=float)
    e_hats = np.array([net.predict(m) for net in nets])
    w, engaged = invert_weighting(e_hats.T @ e_hats / len(e_hats), ridge_scale)
    if engaged:
        warnings.warn("averaged residual weighting was singular; ridge engaged", RuntimeWarning)
    h, g = build_system(m, np.asarray(rrhs, dtype=float))
    x, _ = solve_linear(h, g, w)
    return x
