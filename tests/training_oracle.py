"""Per-network training loop with per-array ADAM, kept as the test oracle.

These are the plain forms of the lockstep trainer in ``hybridloc.nn``,
its one retired form: forward and backward passes on one network's 2-D
weights, one ADAM update per parameter array, and ensemble members
trained one after another.  The
package's ``Mlp.initialize`` and ``Normalizer`` supply the starting point,
so both trainers begin from the same draw; nothing else of the package's
training code is used.  Besides the trained network, ``train_on`` returns
the validation loss before training and after each epoch and the number of
epochs behind the kept snapshot.
"""

import numpy as np

from hybridloc.errors import DimensionMismatchError, NumericalError
from hybridloc.nn import Mlp, MlpConfig, Normalizer


def forward(net: Mlp, z):
    acts = [z]
    h = z
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = h @ w.T + b
        if k < last:
            h = np.maximum(pre, 0.0)
        elif net.config.output_activation == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-pre))
        else:
            h = pre
        acts.append(h)
    return acts


def loss_and_gradients(net: Mlp, z, t, weights=None):
    acts = forward(net, z)
    out = acts[-1]
    diff = out - t
    if weights is None:
        loss = float(np.mean(diff**2))
        grad = 2.0 * diff / diff.size
    else:
        loss = float(np.mean(weights * diff**2))
        grad = 2.0 * weights * diff / diff.size
    if net.config.output_activation == "sigmoid":
        grad = grad * out * (1.0 - out)
    grads_w, grads_b = [], []
    for k in range(len(net.weights) - 1, -1, -1):
        grads_w.append(grad.T @ acts[k])
        grads_b.append(grad.sum(axis=0))
        if k > 0:
            grad = (grad @ net.weights[k]) * (acts[k] > 0.0)
    grads_w.reverse()
    grads_b.reverse()
    return loss, grads_w, grads_b


class Adam:
    def __init__(self, shapes, lr, beta1, beta2, eps):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def copy_weights(net: Mlp):
    return [w.copy() for w in net.weights], [b.copy() for b in net.biases]


def train_on(config: MlpConfig, m_tr, y_tr, m_va, y_va):
    """(net, validation curve, best epoch) for one network."""
    m_tr = np.asarray(m_tr, dtype=float)
    y_tr = np.asarray(y_tr, dtype=float)
    if config.layer_widths[0] != m_tr.shape[1]:
        raise DimensionMismatchError("input width does not match the data")
    if config.layer_widths[-1] != y_tr.shape[1]:
        raise DimensionMismatchError("output width does not match the labels")
    in_norm = Normalizer.fit(m_tr)
    out_norm = Normalizer.fit(y_tr)
    net = Mlp.initialize(config, in_norm, out_norm)
    z_tr = in_norm.transform(m_tr)
    t_tr = out_norm.transform(y_tr)
    z_va = in_norm.transform(m_va)
    t_va = out_norm.transform(y_va)
    params = net.weights + net.biases
    adam = Adam([p.shape for p in params], config.lr, config.beta1,
                config.beta2, config.eps_adam)
    rng = np.random.default_rng([config.seed, 0x5E5])

    weights = None
    if config.loss_weighting == "raw":
        weights = out_norm.span**2
        weights = weights / weights.mean()

    def val_loss():
        return float(np.mean((forward(net, z_va)[-1] - t_va) ** 2))

    curve = [val_loss()]
    best = (curve[0], *copy_weights(net))
    best_epoch = 0
    n = z_tr.shape[0]
    for epoch in range(config.epochs):
        if config.lr_schedule == "cosine":
            floor = 1e-2 * config.lr
            adam.lr = floor + 0.5 * (config.lr - floor) * (
                1.0 + np.cos(np.pi * epoch / config.epochs)
            )
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, gw, gb = loss_and_gradients(net, z_tr[idx], t_tr[idx], weights)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged at epoch {epoch}: loss={loss}"
                )
            adam.step(params, gw + gb)
        current = val_loss()
        curve.append(current)
        if current < best[0]:
            best = (current, *copy_weights(net))
            best_epoch = epoch + 1
    net.weights, net.biases = best[1], best[2]
    return net, np.array(curve), best_epoch


def train(config: MlpConfig, train_set, val_set):
    return train_on(config, train_set.m, train_set.e, val_set.m, val_set.e)


def train_blackbox(config: MlpConfig, train_set, val_set):
    cfg = config.replace(
        layer_widths=tuple(config.layer_widths[:-1]) + (train_set.x.shape[1],),
        output_activation="linear",
    )
    return train_on(cfg, train_set.m, train_set.x, val_set.m, val_set.x)


def train_ensemble(base: MlpConfig, seeds, train_set, val_set):
    return [train(base.replace(seed=s), train_set, val_set) for s in seeds]
