"""Residual-learning networks and the estimators built on top of them.

A small fully-connected network (ReLU hidden layers, sigmoid or linear
output) is trained to predict the equation-error vector of the linearized
localization system directly from the measurement vector.  The predicted
residual either supplies the weighting matrix for a single weighted solve
(NN-WLS), is subtracted before an ordinary least-squares solve (NN-LS), or
is bypassed entirely by a network that regresses the state itself
(black box).  Each of these maps a stack of measurements at once
(``nn_wls_batch``, ``nn_ls_batch``, ``blackbox_batch``) to the WLS
solver's ``WlsBatch``, without a covariance; the per-sample estimators
are those stack maps run on one sample, and raise that sample's failure.

Everything here is plain numpy: forward pass, backpropagation, and the
ADAM optimizer are written out explicitly so the training path has no
external dependencies and stays deterministic for a given seed.
"""

from __future__ import annotations

import contextlib
import json
import zipfile
from copy import deepcopy
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .errors import DimensionMismatchError, NumericalError, ScenarioError
from .geometry import scatterer_measurement, ue_measurement
from .noise import add_noise, draw_dominant, scatterer_sigma_components, sigma_components
from .scenario import Scenario, sample_scatterer_state, sample_ue_state
from .scatterer_wls import build_scatterer_system
from .ue_wls import WlsBatch, _fail, build_system, solve_normal
from .ue_wls import solve_linear  # noqa: F401  perfbench's tracer expects nn to bind it

_MODEL_FORMAT_VERSION = 1

# Samples a dataset builder computes together.
_BLOCK = 64

_RIDGE_MESSAGE = "ridge parameter must be positive"


@dataclass
class MlpConfig:
    """Topology and training hyperparameters for one network.

    ``lr_schedule`` and ``loss_weighting`` are opt-in refinements of the
    plain recipe: "cosine" anneals the learning rate toward lr/100 over the
    run, and "raw" weights each output component of the MSE by its
    normalizer span squared, which makes the training loss equal (up to a
    constant) to the MSE in physical units instead of normalized ones.
    Both default to the plain behavior.
    """

    layer_widths: tuple = (22, 32, 32, 22)
    output_activation: str = "sigmoid"  # "sigmoid" or "linear"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    epochs: int = 200
    batch_size: int = 64
    seed: int = 0
    lr_schedule: str = "constant"  # "constant" or "cosine"
    loss_weighting: str = "normalized"  # "normalized" or "raw"

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise DimensionMismatchError("need at least input and output layers")
        if any(w < 1 for w in self.layer_widths):
            raise DimensionMismatchError("layer widths must be positive")
        for name, allowed in (("output_activation", ("sigmoid", "linear")),
                              ("lr_schedule", ("constant", "cosine")),
                              ("loss_weighting", ("normalized", "raw"))):
            if getattr(self, name) not in allowed:
                raise ScenarioError(f"unknown {name} {getattr(self, name)!r}")
        for name, ok in (("lr", 0.0 < self.lr < np.inf),
                         ("eps_adam", 0.0 < self.eps_adam < np.inf),
                         ("beta1", 0.0 <= self.beta1 < 1.0),
                         ("beta2", 0.0 <= self.beta2 < 1.0)):
            if not ok:
                raise ScenarioError(f"{name} = {getattr(self, name)} is out of range")
        if self.batch_size < 1:
            raise ScenarioError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ScenarioError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")

    def replace(self, **kw) -> "MlpConfig":
        return dc_replace(self, **kw)


class Normalizer:
    """Per-component min-max scaling into [0, 1], fitted on training data.

    Constant components get unit span so the round trip stays exact.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.asarray(lo, dtype=float)
        span = np.asarray(hi, dtype=float) - self.lo
        self.span = np.where(span > 0.0, span, 1.0)

    @classmethod
    def fit(cls, data: np.ndarray) -> "Normalizer":
        return cls(data.min(axis=0), data.max(axis=0))

    def transform(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v, dtype=float) - self.lo) / self.span

    def inverse(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=float) * self.span + self.lo


@dataclass
class Dataset:
    """Aligned measurement / residual-label / true-state arrays."""

    m: np.ndarray  # (n, dim) measurement vectors
    e: np.ndarray  # (n, dim) equation-error labels
    x: np.ndarray  # (n, state_dim) true states
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m.shape[0] != self.e.shape[0] or self.m.shape[0] != self.x.shape[0]:
            raise DimensionMismatchError("dataset arrays must share sample count")
        if self.m.shape != self.e.shape:
            raise DimensionMismatchError("labels must match measurement dimension")

    def __len__(self) -> int:
        return self.m.shape[0]

    def subset(self, sl: slice) -> "Dataset":
        return Dataset(self.m[sl], self.e[sl], self.x[sl], dict(self.metadata))


def _activations(weights, biases, z, sigmoid: bool) -> list:
    """Layer activations in normalized units, input first.

    Serves one network (weights (fan_out, fan_in), biases (fan_out,), ``z``
    (batch, fan_in)) and a stack of K networks alike (weights
    (K, fan_out, fan_in), biases (K, fan_out), ``z`` (K, batch, fan_in) or
    a (batch, fan_in) batch shared by every member).
    """
    acts = [z]
    h = z
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        pre = h @ w.swapaxes(-1, -2) + b[..., None, :]
        if k < last:
            h = np.maximum(pre, 0.0)
        elif sigmoid:
            h = 1.0 / (1.0 + np.exp(-pre))
        else:
            h = pre
        acts.append(h)
    return acts


def _backprop(weights, acts, t, loss_weights, sigmoid: bool, grads_w, grads_b):
    """(Optionally component-weighted) MSE of ``acts[-1]`` against ``t``.

    Writes the gradients into ``grads_w`` / ``grads_b`` (arrays shaped like
    the weights and biases) and returns the loss of each network: a scalar
    for one network, shape (K,) for a stack.  Each network's loss and
    gradients are those of its own (batch, out) slice.
    """
    out = acts[-1]
    diff = out - t
    size = diff.shape[-2] * diff.shape[-1]
    if loss_weights is None:
        loss = np.mean(diff**2, axis=(-2, -1))
        grad = 2.0 * diff / size
    else:
        loss = np.mean(loss_weights * diff**2, axis=(-2, -1))
        grad = 2.0 * loss_weights * diff / size
    if sigmoid:
        grad = grad * out * (1.0 - out)
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(grad.swapaxes(-1, -2), acts[k], out=grads_w[k])
        grad.sum(axis=-2, out=grads_b[k])
        if k > 0:
            grad = (grad @ weights[k]) * (acts[k] > 0.0)
    return loss


class Mlp:
    """Fully-connected network with ReLU hidden layers.

    ``weights[k]`` has shape (fan_out, fan_in); forward maps rows of a
    (batch, fan_in) matrix.  Normalizers for inputs and targets travel with
    the model so callers deal only in physical units.  A trained model also
    carries ``val_curve``, its validation loss before training and after
    each epoch, and ``best_epoch``, the number of epochs behind the kept
    snapshot (so ``val_curve[best_epoch]`` is the curve's first minimum);
    both are ``None`` for an untrained model.
    """

    def __init__(self, config: MlpConfig, weights, biases,
                 in_norm: Normalizer, out_norm: Normalizer,
                 val_curve=None, best_epoch=None):
        self.config = config
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.in_norm = in_norm
        self.out_norm = out_norm
        self.val_curve = None if val_curve is None else np.asarray(val_curve, dtype=float)
        self.best_epoch = None if best_epoch is None else int(best_epoch)

    @classmethod
    def initialize(cls, config: MlpConfig, in_norm: Normalizer,
                   out_norm: Normalizer) -> "Mlp":
        rng = np.random.default_rng(config.seed)
        weights, biases = [], []
        widths = config.layer_widths
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(config, weights, biases, in_norm, out_norm)

    def loss_and_gradients(self, z: np.ndarray, t: np.ndarray, weights=None):
        """(Optionally component-weighted) MSE and gradients on a batch.

        ``weights`` is a per-output-component vector; ``None`` means the
        plain unweighted mean of squares.
        """
        grads_w = [np.empty(w.shape) for w in self.weights]
        grads_b = [np.empty(b.shape) for b in self.biases]
        sigmoid = self.config.output_activation == "sigmoid"
        loss = _backprop(self.weights, _activations(self.weights, self.biases, z, sigmoid),
                         t, weights, sigmoid, grads_w, grads_b)
        return float(loss), grads_w, grads_b

    def predict(self, m: np.ndarray) -> np.ndarray:
        """Physical-unit prediction for one vector or a batch.

        Raises ``DimensionMismatchError`` when the measurement dimension is
        not the network's input width.
        """
        m = np.asarray(m, dtype=float)
        if m.shape[-1:] != (self.config.layer_widths[0],):
            raise DimensionMismatchError(
                f"measurement dimension {m.shape[-1] if m.ndim else 0} does not "
                f"match the network's input width {self.config.layer_widths[0]}"
            )
        single = m.ndim == 1
        z = self.in_norm.transform(np.atleast_2d(m))
        out = _activations(self.weights, self.biases, z,
                           self.config.output_activation == "sigmoid")[-1]
        pred = self.out_norm.inverse(out)
        return pred[0] if single else pred


def _layer_views(flat: np.ndarray, widths) -> tuple:
    """Per-layer (K, fan_out, fan_in) weight and (K, fan_out) bias views of
    a (K, n_params) array holding one network per row."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[:, at:at + fan_out * fan_in].reshape(-1, fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[:, at:at + fan_out])
        at += fan_out
    return weights, biases


def _train_stack(configs, m_tr, y_tr, m_va, y_va) -> list:
    """Minibatch-ADAM training of one network per config, in lockstep.

    The configs may differ in ``seed`` only.  Member i is bit for bit the
    network ``configs[i]`` would train alone: its own initialization, its
    own minibatch order, its own best-validation snapshot.  All members'
    parameters live in one (K, n_params) array, so one ADAM update covers
    the whole stack.  Inputs and targets are in physical units.
    """
    config = configs[0]
    if any(c.replace(seed=config.seed) != config for c in configs):
        raise ScenarioError("networks trained together may differ only in seed")
    m_tr = np.asarray(m_tr, dtype=float)
    y_tr = np.asarray(y_tr, dtype=float)
    widths = config.layer_widths
    if widths[0] != m_tr.shape[1]:
        raise DimensionMismatchError(
            f"input width {widths[0]} does not match data "
            f"dimension {m_tr.shape[1]}"
        )
    if widths[-1] != y_tr.shape[1]:
        raise DimensionMismatchError(
            f"output width {widths[-1]} does not match label "
            f"dimension {y_tr.shape[1]}"
        )
    in_norm = Normalizer.fit(m_tr)
    out_norm = Normalizer.fit(y_tr)
    z_tr = in_norm.transform(m_tr)
    t_tr = out_norm.transform(y_tr)
    z_va = in_norm.transform(m_va)
    t_va = out_norm.transform(y_va)
    sigmoid = config.output_activation == "sigmoid"

    n_params = sum(fo * (fi + 1) for fi, fo in zip(widths[:-1], widths[1:]))
    params = np.empty((len(configs), n_params))
    weights, biases = _layer_views(params, widths)
    for i, cfg in enumerate(configs):
        net = Mlp.initialize(cfg, in_norm, out_norm)
        for w, b, w_i, b_i in zip(weights, biases, net.weights, net.biases):
            w[i] = w_i
            b[i] = b_i
    grads = np.empty_like(params)
    grads_w, grads_b = _layer_views(grads, widths)
    mom = np.zeros_like(params)
    vel = np.zeros_like(params)
    step = 0
    lr = config.lr
    rngs = [np.random.default_rng([cfg.seed, 0x5E5]) for cfg in configs]

    loss_weights = None
    if config.loss_weighting == "raw":
        loss_weights = out_norm.span**2
        loss_weights = loss_weights / loss_weights.mean()

    def val_losses():
        # Snapshot selection always uses the plain normalized MSE, reduced
        # over each member's own (n_val, out) slice.
        sq = (_activations(weights, biases, z_va, sigmoid)[-1] - t_va) ** 2
        return [float(np.mean(s)) for s in sq]

    # An overflow ends in the non-finite loss's NumericalError, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        curve = [val_losses()]
        best_loss = list(curve[0])
        best_epoch = [0] * len(configs)
        best = params.copy()
        n = z_tr.shape[0]
        for epoch in range(config.epochs):
            if config.lr_schedule == "cosine":
                floor = 1e-2 * config.lr
                lr = floor + 0.5 * (config.lr - floor) * (
                    1.0 + np.cos(np.pi * epoch / config.epochs)
                )
            order = np.stack([rng.permutation(n) for rng in rngs])
            for start in range(0, n, config.batch_size):
                idx = order[:, start:start + config.batch_size]
                acts = _activations(weights, biases, z_tr[idx], sigmoid)
                loss = _backprop(weights, acts, t_tr[idx], loss_weights, sigmoid,
                                 grads_w, grads_b)
                finite = np.isfinite(loss)
                if not finite.all():
                    raise NumericalError(
                        f"training diverged at epoch {epoch}: "
                        f"loss={loss[np.argmin(finite)]}"
                    )
                step += 1
                mom *= config.beta1
                mom += (1.0 - config.beta1) * grads
                vel *= config.beta2
                vel += (1.0 - config.beta2) * grads * grads
                params -= lr * (mom / (1.0 - config.beta1**step)) / (
                    np.sqrt(vel / (1.0 - config.beta2**step)) + config.eps_adam
                )
            curve.append(val_losses())
            for i, current in enumerate(curve[-1]):
                if current < best_loss[i]:
                    best_loss[i] = current
                    best_epoch[i] = epoch + 1
                    best[i] = params[i]

    curve = np.array(curve)
    best_w, best_b = _layer_views(best, widths)
    # Each member owns a copy of the normalizers fitted above.
    return [
        Mlp(cfg, [w[i].copy() for w in best_w], [b[i].copy() for b in best_b],
            deepcopy(in_norm), deepcopy(out_norm),
            val_curve=curve[:, i].copy(), best_epoch=best_epoch[i])
        for i, cfg in enumerate(configs)
    ]


def train(config: MlpConfig, train_set: Dataset, val_set: Dataset) -> Mlp:
    """Train a residual network, returning the best-validation snapshot."""
    return _train_stack([config], train_set.m, train_set.e, val_set.m, val_set.e)[0]


def train_blackbox(config: MlpConfig, train_set: Dataset, val_set: Dataset) -> Mlp:
    """Train a direct state-regression network (linear output head)."""
    cfg = config.replace(
        layer_widths=tuple(config.layer_widths[:-1]) + (train_set.x.shape[1],),
        output_activation="linear",
    )
    return _train_stack([cfg], train_set.m, train_set.x, val_set.m, val_set.x)[0]


def _build_in_blocks(sc: Scenario, n_samples: int, rng, sample_state, state_dim: int,
                     sd, measure, system, meta: dict, pinned=None) -> Dataset:
    """Both builders' dataset: ``n_samples`` states ``sample_state(sc, rng)``,
    measured by ``measure(x)`` with noise on the layout ``sd`` and labeled
    ``h - G x`` by ``(h, G) = system(m)``; ``meta`` gains the noise settings.

    The dominant bias (``pinned``, else drawn) comes first; then each sample
    draws its state and ``len(sd)`` unit normals from ``rng``, in sample
    order, and the rest is computed ``_BLOCK`` samples at a time.
    """
    cfg = sc.noise
    dominant = draw_dominant(cfg, sd, rng, pinned=pinned)
    dim = sd.shape[0]
    m_all = np.empty((n_samples, dim))
    e_all = np.empty((n_samples, dim))
    x_all = np.empty((n_samples, state_dim))
    for lo in range(0, n_samples, _BLOCK):
        hi = min(lo + _BLOCK, n_samples)
        for i in range(lo, hi):
            x_all[i] = sample_state(sc, rng)
            m_all[i] = rng.standard_normal(dim)  # the noise's normals, for now
        x = x_all[lo:hi]
        m = add_noise(measure(x), cfg, sd, dominant, m_all[lo:hi])
        h, g = system(m)
        m_all[lo:hi] = m
        e_all[lo:hi] = h - (g @ x[..., None])[..., 0]
    meta["noise"] = {"delta_d": cfg.delta_d, "delta_a": cfg.delta_a,
                     "mode": cfg.mode, "ratio": cfg.ratio}
    if dominant is not None:
        meta["dominant_bias"] = dominant.tolist()
    return Dataset(m_all, e_all, x_all, meta)


def make_dataset(sc: Scenario, n_samples: int, rng, dominant_bias=None) -> Dataset:
    """Synthesize (measurement, equation-error, state) training samples.

    User states are drawn uniformly in the scenario boxes; each sample gets
    an independent noise draw.  Structured noise re-uses one dominant-bias
    vector for the whole dataset, mimicking a fixed systematic offset, with
    the small fluctuation resampled per sample.  Passing ``dominant_bias``
    pins that offset instead of drawing it, which lets several datasets at
    different noise levels share one scaled bias pattern.  Draws and blocks
    as :func:`_build_in_blocks` does.
    """
    rrhs = sc.selected_rrhs()
    n_a = rrhs.shape[0]
    return _build_in_blocks(
        sc, n_samples, rng, sample_ue_state, 6, sigma_components(n_a, sc.noise),
        lambda x: ue_measurement(x, rrhs), lambda m: build_system(m, rrhs),
        {"kind": "ue", "n_a": n_a}, pinned=dominant_bias,
    )


def make_scatterer_dataset(sc: Scenario, n_samples: int, rng) -> Dataset:
    """Scatterer analogue of make_dataset on the 4-dimensional system.

    The observing receiver and the differencing reference are fixed by the
    scenario; the user state is held at its true value (labels describe
    measurement error, not user error).  Draws and blocks as
    :func:`_build_in_blocks` does, on :func:`build_scatterer_system`'s ``(h, G·T)``.
    """
    b_n = sc.rrhs[sc.scatterer_rrh]
    b_1 = sc.rrhs[0]
    return _build_in_blocks(
        sc, n_samples, rng, sample_scatterer_state, 4, scatterer_sigma_components(sc.noise),
        lambda xs: scatterer_measurement(xs, sc.ue_true, b_n, b_1),
        lambda ms: build_scatterer_system(ms, b_n, b_1, sc.ue_true),
        {"kind": "scatterer", "rrh": int(sc.scatterer_rrh)},
    )


def residual_weight(e_hat: np.ndarray, eps: float) -> np.ndarray:
    """Weighting matrix from a predicted residual: inverse of êêᵀ + εI.

    The estimators never form it: :func:`residual_solve` applies it in
    closed form.
    """
    if eps <= 0.0:
        raise NumericalError(_RIDGE_MESSAGE)
    e_hat = np.asarray(e_hat, dtype=float)
    dim = e_hat.shape[0]
    return np.linalg.inv(np.outer(e_hat, e_hat) + eps * np.eye(dim))


def residual_solve(h, g, e=None, ridge=1.0, errors=None):
    """Solve ``h = G x`` weighted by ``W = (ridge·I + EᵀE)⁻¹``; returns
    (x, inv(GᵀWG)).

    ``E`` (..., k, dim) holds k residual rows per system; ``e`` None solves
    unweighted.  ``W`` is never formed.  With ``Q`` an orthonormal basis of
    the rows of ``E`` (``Eᵀ = Q R``; for k = 1, NN-WLS's ``ê``, simply
    ``ê/‖ê‖`` and ``R = ‖ê‖``), Woodbury (Sherman–Morrison for k = 1) gives

        W = (I − QQᵀ) / ridge + Q (ridge·I + RRᵀ)⁻¹ Qᵀ,

    so the normal equations need only the projection ``A⊥ = A − Q QᵀA`` of
    ``A = [G | h]`` and the r×r system, r = min(k, dim): ``[G | h]ᵀ W
    [G | h] = A⊥ᵀA⊥ / ridge + (QᵀA)ᵀ (ridge·I + RRᵀ)⁻¹ QᵀA``.  With more
    rows than dim, ``Q`` is square and ``A⊥`` vanishes.  Subtracting the
    projected part instead, as ``(AᵀA − FᵀK⁻¹F)/ridge`` with ``F = EA``
    and ``K = ridge·I + EEᵀ`` (for NN-WLS ``GᵀG − ggᵀ/(ε + ‖ê‖²)``,
    ``g = Gᵀê``), is the same identity but cancels where ``G`` leans on
    the rows of ``E``: against a 40-digit reference its states erred by up
    to 7e-12 relative, this form's by 3e-13 and the dense inverse's by
    2e-11.

    ``h``, ``G``, ``E`` and ``ridge`` broadcast over leading batch axes, and
    ``errors`` follows :func:`ue_wls.solve_linear`'s rules; a ridge that is
    not positive fails its members with ``NumericalError``.
    """
    a = np.concatenate([g, h[..., None]], axis=-1)
    if e is None:
        normal = np.swapaxes(a, -1, -2) @ a
    else:
        ridge = np.asarray(ridge, dtype=float)
        bad = ridge <= 0.0
        if bad.any():
            if errors is not None:
                bad = np.broadcast_to(bad, errors.shape)
            _fail(errors, bad, NumericalError, _RIDGE_MESSAGE)
            ridge = np.where(ridge > 0.0, ridge, 1.0)
        ridge = ridge[..., None, None]
        if e.shape[-2] == 1:
            et = np.swapaxes(e, -1, -2)
            norm2 = e @ et
            q = et / np.where(norm2 > 0.0, np.sqrt(norm2), 1.0)
            qa = np.swapaxes(q, -1, -2) @ a
            inner_qa = qa / (ridge + norm2)
        else:
            q, r = np.linalg.qr(np.swapaxes(e, -1, -2))
            qa = np.swapaxes(q, -1, -2) @ a
            inner = r @ np.swapaxes(r, -1, -2) + ridge * np.eye(r.shape[-2])
            inner_qa = np.linalg.solve(inner, qa)  # inner >= ridge·I: never singular
        perp = a - q @ qa
        normal = (np.swapaxes(perp, -1, -2) @ perp / ridge
                  + np.swapaxes(qa, -1, -2) @ inner_qa)
    n = g.shape[-1]
    return solve_normal(normal[..., :n, :n], normal[..., :n, n:], errors)


def _stacked(ms) -> np.ndarray:
    ms = np.asarray(ms, dtype=float)
    if ms.ndim != 2:
        raise DimensionMismatchError("measurements must be stacked as (samples, length)")
    return ms


def _no_failures(n: int) -> np.ndarray:
    return np.full(n, None, dtype=object)


def _one(batch, model, m, *args):
    """Row 0 of the stack map ``batch`` run on the one sample ``m``; the
    sample's failure is raised instead."""
    return batch(model, np.asarray(m, dtype=float)[None], *args).first().x


def _stack_inputs(nets, ms, rrhs):
    """(N, P, dim) predictions of P nets, one ``predict`` per net, and the
    systems (h, G) of stacked measurements."""
    ms = _stacked(ms)
    e_hats = np.stack([net.predict(ms) for net in nets], axis=1)
    return (e_hats,) + build_system(ms, np.asarray(rrhs, dtype=float))


def nn_wls_batch(net: Mlp, ms, rrhs, eps: float = 0.1) -> WlsBatch:
    """NN-WLS estimates of stacked measurements ``ms`` (N, dim).

    Returns the (N, 6) states and, per sample, the ``HybridlocError`` its
    solve raised or None, as a ``WlsBatch`` without a covariance.  One
    ``predict`` call serves the stack.
    """
    e_hat, h, g = _stack_inputs([net], ms, rrhs)
    errors = _no_failures(len(h))
    x, _ = residual_solve(h, g, e_hat, eps, errors)
    return WlsBatch(x=x, failures=errors)


def nn_wls_estimate(net: Mlp, m, rrhs, eps: float = 0.1):
    """Single weighted solve with the learned residual covariance:
    :func:`nn_wls_batch` on the one sample ``m``."""
    return _one(nn_wls_batch, net, m, rrhs, eps)


def nn_ls_batch(net: Mlp, ms, rrhs) -> WlsBatch:
    """NN-LS estimates of stacked measurements, as :func:`nn_wls_batch`."""
    e_hat, h, g = _stack_inputs([net], ms, rrhs)
    errors = _no_failures(len(h))
    x, _ = residual_solve(h - e_hat[:, 0], g, errors=errors)
    return WlsBatch(x=x, failures=errors)


def nn_ls_estimate(net: Mlp, m, rrhs):
    """Ordinary least squares after subtracting the predicted residual:
    :func:`nn_ls_batch` on the one sample ``m``."""
    return _one(nn_ls_batch, net, m, rrhs)


def blackbox_batch(net_bb: Mlp, ms) -> WlsBatch:
    """Black-box estimates of stacked measurements, as :func:`nn_wls_batch`.

    A sample whose output is non-finite (e.g. from non-finite weights)
    fails with ``NumericalError``, as the geometric estimators' solves do.
    """
    ms = _stacked(ms)
    x = np.array(net_bb.predict(ms), dtype=float)
    errors = _no_failures(len(ms))
    _fail(errors, ~np.isfinite(x).all(axis=1), NumericalError,
          "black-box estimate contains non-finite entries")
    return WlsBatch(x=x, failures=errors)


def blackbox_estimate(net_bb: Mlp, m):
    """Direct state regression, no geometric model involved:
    :func:`blackbox_batch` on the one sample ``m``."""
    return _one(blackbox_batch, net_bb, m)


def save_model(net: Mlp, path) -> None:
    """Persist a model as a flat .npz archive (weights + normalizers).

    A trained model's validation curve and best epoch ride along as the
    optional keys ``val_curve`` and ``best_epoch``.
    """
    payload = {
        "format_version": np.array(_MODEL_FORMAT_VERSION),
        "layer_widths": np.array(net.config.layer_widths),
        "output_activation": np.array(net.config.output_activation),
        "seed": np.array(net.config.seed),
        "in_lo": net.in_norm.lo,
        "in_span": net.in_norm.span,
        "out_lo": net.out_norm.lo,
        "out_span": net.out_norm.span,
    }
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"w{k}"] = w
        payload[f"b{k}"] = b
    if net.val_curve is not None:
        payload["val_curve"] = net.val_curve
    if net.best_epoch is not None:
        payload["best_epoch"] = np.array(net.best_epoch)
    np.savez(path, **payload)


@contextlib.contextmanager
def _archive(path, kind: str):
    """The ``kind`` ("model" or "dataset") .npz archive at ``path``, open for
    the ``with`` block that reads it.  A file that is not such an archive,
    or lacks or mangles an entry the block reads (pickled data included), or
    has an unknown format version, is a ``ScenarioError`` naming it."""
    try:
        with np.lib.npyio.NpzFile(path) as data:
            version = int(data["format_version"])
            if version != _MODEL_FORMAT_VERSION:
                raise ScenarioError(
                    f"cannot read {kind} file {path}: unsupported format version {version}"
                )
            yield data
    except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ScenarioError(f"cannot read {kind} file {path}: {exc}") from exc


def load_model(path) -> Mlp:
    with _archive(path, "model") as data:
        widths = tuple(int(w) for w in data["layer_widths"])
        config = MlpConfig(
            layer_widths=widths,
            output_activation=str(data["output_activation"]),
            seed=int(data["seed"]),
        )
        n_layers = len(widths) - 1
        weights = [data[f"w{k}"] for k in range(n_layers)]
        biases = [data[f"b{k}"] for k in range(n_layers)]
        in_norm = Normalizer(data["in_lo"], data["in_lo"] + data["in_span"])
        out_norm = Normalizer(data["out_lo"], data["out_lo"] + data["out_span"])
        # Files written before training history was recorded lack these.
        val_curve = data["val_curve"] if "val_curve" in data.files else None
        best_epoch = data["best_epoch"] if "best_epoch" in data.files else None
    return Mlp(config, weights, biases, in_norm, out_norm, val_curve, best_epoch)


def save_dataset(ds: Dataset, path) -> None:
    """Persist a dataset as .npz; metadata rides along as sorted JSON."""
    np.savez(
        path,
        format_version=np.array(_MODEL_FORMAT_VERSION),
        m=ds.m,
        e=ds.e,
        x=ds.x,
        metadata=np.array(json.dumps(ds.metadata, sort_keys=True)),
    )


def load_dataset(path) -> Dataset:
    with _archive(path, "dataset") as data:
        return Dataset(
            data["m"], data["e"], data["x"], json.loads(str(data["metadata"]))
        )
