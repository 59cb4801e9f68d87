"""Ensembles of residual networks: density vote, averaged weighting, mean.

Members share topology and data and differ only by weight initialization.
ENN-A votes among the member state predictions with subtractive clustering,
ENN-B averages the members' residual outer products into one weighting
matrix, ENN-M is the plain mean of member predictions.  Each combiner is
a stack map over measurements (``*_batch``) that returns the WLS solver's
``WlsBatch``, without a covariance; the per-sample combiners are those
stack maps run on one sample, and raise that sample's failure.  The
members' own states (``member_states_batch``) are an intermediate (N, P,
6) stack, returned with the failures as a pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ScenarioError
from .nn import (
    MlpConfig,
    _no_failures,
    _one,
    _stack_inputs,
    _train_stack,
    residual_solve,
)
from .ue_wls import WlsBatch, _invert_normal, solve_linear

# ENN-B's ridge on the averaged outer product, relative to its mean diagonal.
_RIDGE_SCALE = 1e-4


@dataclass
class EnsembleConfig:
    p: int = 20
    r_a: float = 0.1
    seeds: tuple | None = None

    def __post_init__(self):
        if self.p < 2:
            raise ScenarioError("ensembles need at least two members")
        if not 0 < self.r_a < np.inf:
            raise ScenarioError(f"clustering radius must be finite and positive, got {self.r_a}")
        if self.seeds is None:
            self.seeds = tuple(range(self.p))
        else:
            self.seeds = tuple(int(s) for s in self.seeds)
        if len(self.seeds) != self.p:
            raise ScenarioError(
                f"need {self.p} member seeds, got {len(self.seeds)}"
            )


def train_ensemble(base: MlpConfig, ens: EnsembleConfig, train_set, val_set):
    """Train P members differing only in their initialization seed.

    The members train in lockstep; each is bit for bit the network
    ``nn.train`` would return for its seed.
    """
    configs = [base.replace(seed=s) for s in ens.seeds]
    return _train_stack(configs, train_set.m, train_set.e, val_set.m, val_set.e)


def _densities(preds: np.ndarray, r_a: float) -> np.ndarray:
    """Density of each prediction (sum of Gaussian kernels over all of them,
    its own included) among the predictions on the second-to-last axis."""
    diff = preds[..., :, None, :] - preds[..., None, :, :]
    d2 = np.sum(diff**2, axis=-1)
    return np.sum(np.exp(-d2 / (r_a / 2.0) ** 2), axis=-1)


def subtractive_pick(preds, r_a: float) -> np.ndarray:
    """The input prediction with the highest density; ties go to the
    lowest index (np.argmax returns the first maximum).

    ``preds`` (P, d) may carry leading batch axes: each stack of P
    predictions then gets its own pick.
    """
    preds = np.atleast_2d(np.asarray(preds, dtype=float))
    if preds.shape[-2] == 0:
        raise DimensionMismatchError("need at least one prediction")
    pick = np.argmax(_densities(preds, r_a), axis=-1).reshape(-1)
    flat = preds.reshape((len(pick),) + preds.shape[-2:])
    return flat[np.arange(len(pick)), pick].reshape(preds.shape[:-2] + preds.shape[-1:])


def member_states_batch(nets, ms, rrhs, eps: float = 0.1):
    """Per-member NN-WLS states of stacked measurements ``ms`` (N, dim).

    Returns ``(states, failures)``: states (N, P, 6), and per sample the
    error of its first failing member or None (its rows are then NaN).
    The systems are built once for all members, and all members are
    solved in one stack.
    """
    e_hats, h, g = _stack_inputs(nets, ms, rrhs)
    errors = np.full(e_hats.shape[:-1], None, dtype=object)
    states, _ = residual_solve(
        h[:, None, :], g[:, None, :, :], e_hats[:, :, None, :], eps, errors
    )
    failures = _no_failures(len(h))
    failed = ~np.equal(errors, None)
    if failed.any():
        for i, j in np.argwhere(failed)[::-1]:  # last to first: the first member wins
            failures[i] = errors[i, j]
        states[failed.any(axis=1)] = np.nan
    return states, failures


def member_states(nets, m, rrhs, eps: float = 0.1) -> np.ndarray:
    """Stack of per-member NN-WLS state estimates, one row per net:
    :func:`member_states_batch` on the one sample ``m``.

    Row i equals ``nn.nn_wls_estimate(nets[i], m, rrhs, eps)``, and the
    first failing member's error is raised.
    """
    states, failures = member_states_batch(nets, np.asarray(m, dtype=float)[None], rrhs, eps)
    if failures[0] is not None:
        raise failures[0]
    return states[0]


def enn_a_wls_batch(nets, ms, rrhs, eps: float = 0.1, r_a: float = 0.1) -> WlsBatch:
    """ENN-A estimates of stacked measurements, as ``nn.nn_wls_batch``: a
    density vote among the member states, run separately on positions and
    velocities."""
    states, failures = member_states_batch(nets, ms, rrhs, eps)
    x = np.concatenate(
        [subtractive_pick(states[..., :3], r_a), subtractive_pick(states[..., 3:], r_a)],
        axis=-1,
    )
    return WlsBatch(x=x, failures=failures)


def enn_a_wls(nets, m, rrhs, eps: float = 0.1, r_a: float = 0.1) -> np.ndarray:
    """Density vote: :func:`enn_a_wls_batch` on the one sample ``m``."""
    return _one(enn_a_wls_batch, nets, m, rrhs, eps, r_a)


def enn_m_wls_batch(nets, ms, rrhs, eps: float = 0.1) -> WlsBatch:
    """ENN-M estimates of stacked measurements, as ``nn.nn_wls_batch``: the
    plain mean of the member states."""
    states, failures = member_states_batch(nets, ms, rrhs, eps)
    return WlsBatch(x=states.mean(axis=-2), failures=failures)


def enn_m_wls(nets, m, rrhs, eps: float = 0.1) -> np.ndarray:
    """Plain mean: :func:`enn_m_wls_batch` on the one sample ``m``."""
    return _one(enn_m_wls_batch, nets, m, rrhs, eps)


def average_outer(e_hats) -> np.ndarray:
    """P⁻¹ Σ ê êᵀ over member residual predictions ``e_hats`` (..., P, dim)."""
    e_hats = np.atleast_2d(np.asarray(e_hats, dtype=float))
    return np.swapaxes(e_hats, -1, -2) @ e_hats / e_hats.shape[-2]


def invert_weighting(avg: np.ndarray):
    """Invert averaged outer products ``avg`` (..., dim, dim), ridging only
    the singular ones (by ``ue_wls._invert_normal``'s rule).

    Returns (W, engaged); ``engaged`` flags the members that needed the
    ridge, scaled to the matrix (``_RIDGE_SCALE`` * trace/dim), and is a
    bool for one matrix.  A non-finite member gets a NaN ``W``, no ridge.
    """
    w, engaged = _invert_normal(avg)
    if engaged.any():
        ridged, dim = avg[engaged], avg.shape[-1]
        trace = np.trace(ridged, axis1=-2, axis2=-1)
        eps = _RIDGE_SCALE * np.maximum(trace / dim, np.finfo(float).tiny)
        w[engaged] = np.linalg.inv(ridged + eps[:, None, None] * np.eye(dim))
    return w, engaged if avg.ndim > 2 else bool(engaged)


def enn_b_wls_batch(nets, ms, rrhs) -> WlsBatch:
    """ENN-B estimates of stacked measurements, as ``nn.nn_wls_batch``: one
    WLS solve per sample weighted by the averaged residual outer product.

    With fewer members P than measurement rows the averaged outer product
    ``EᵀE/P`` has rank at most P, so its ridge ``δ = _RIDGE_SCALE·trace/dim``
    always engages, and ``(δI + EᵀE/P)⁻¹`` is applied through the P×P
    system ``δP·I + EEᵀ`` (``nn.residual_solve``; scaling the weighting
    by P leaves the estimate as it is).  From P = dim on, every sample's
    average is inverted and decided in one :func:`invert_weighting` call,
    and a sample whose average is not finite gets a NaN weighting and
    fails with ``NumericalError``.  Warns (RuntimeWarning) once per call
    when a ridge engaged.
    """
    e_hats, h, g = _stack_inputs(nets, ms, rrhs)
    errors = _no_failures(len(h))
    p, dim = e_hats.shape[-2:]
    if p < dim:
        trace = np.sum(e_hats * e_hats, axis=(-2, -1)) / p
        delta = _RIDGE_SCALE * np.maximum(trace / dim, np.finfo(float).tiny)
        x, _ = residual_solve(h, g, e_hats, delta * p, errors)
        engaged = True
    else:
        w, engaged = invert_weighting(average_outer(e_hats))
        x, _ = solve_linear(h, g, w, errors)
    if np.any(engaged):
        warnings.warn(
            "averaged residual weighting was singular; ridge engaged",
            RuntimeWarning,
            stacklevel=2,
        )
    return WlsBatch(x=x, failures=errors)


def enn_b_wls(nets, m, rrhs) -> np.ndarray:
    """Single WLS solve weighted by the averaged residual outer product:
    :func:`enn_b_wls_batch` on the one sample ``m``."""
    return _one(enn_b_wls_batch, nets, m, rrhs)
