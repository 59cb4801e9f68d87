"""Ensembles of residual networks: density vote, averaged weighting, mean.

Members share topology and data and differ only by weight initialization.
ENN-A votes among the member state predictions with subtractive clustering,
ENN-B averages the members' residual outer products into one weighting
matrix, ENN-M is the plain mean of member predictions.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ScenarioError
from .nn import MlpConfig, _train_stack, _weighted_solve, load_model, save_model
from .ue_wls import _COND_LIMIT, build_system, solve_linear


@dataclass
class EnsembleConfig:
    p: int = 20
    r_a: float = 0.1
    seeds: tuple | None = None

    def __post_init__(self):
        if self.p < 2:
            raise ScenarioError("ensembles need at least two members")
        if self.r_a <= 0:
            raise ScenarioError("clustering radius must be positive")
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


def density_measure(preds, p: int, r_a: float) -> float:
    """Density of prediction ``p``: sum of Gaussian kernels over all members.

    The self term is included, so identical predictions all score P.
    """
    preds = np.atleast_2d(np.asarray(preds, dtype=float))
    d2 = np.sum((preds - preds[p]) ** 2, axis=1)
    return float(np.sum(np.exp(-d2 / (r_a / 2.0) ** 2)))


def _densities(preds: np.ndarray, r_a: float) -> np.ndarray:
    diff = preds[:, None, :] - preds[None, :, :]
    d2 = np.sum(diff**2, axis=2)
    return np.sum(np.exp(-d2 / (r_a / 2.0) ** 2), axis=1)


def subtractive_pick(preds, r_a: float) -> np.ndarray:
    """The input prediction with the highest density; ties go to the
    lowest index (np.argmax returns the first maximum)."""
    preds = np.atleast_2d(np.asarray(preds, dtype=float))
    if preds.shape[0] == 0:
        raise DimensionMismatchError("need at least one prediction")
    return preds[int(np.argmax(_densities(preds, r_a)))].copy()


def member_states(nets, m, rrhs, eps: float = 0.1) -> np.ndarray:
    """Stack of per-member NN-WLS state estimates, one row per net.

    Row i equals ``nn.nn_wls_estimate(nets[i], m, rrhs, eps)``; the
    pseudo-linear system is built once for all members.
    """
    m = np.asarray(m, dtype=float)
    h, g = build_system(m, np.asarray(rrhs, dtype=float))
    return np.array([_weighted_solve(net.predict(m), h, g, eps) for net in nets])


def enn_a_wls(nets, m, rrhs, eps: float = 0.1, r_a: float = 0.1) -> np.ndarray:
    """Density vote, run separately on positions and velocities."""
    states = member_states(nets, m, rrhs, eps)
    pos = subtractive_pick(states[:, :3], r_a)
    vel = subtractive_pick(states[:, 3:], r_a)
    return np.concatenate([pos, vel])


def enn_m_wls(nets, m, rrhs, eps: float = 0.1) -> np.ndarray:
    """Plain mean of the member state estimates."""
    return member_states(nets, m, rrhs, eps).mean(axis=0)


def average_outer(e_hats) -> np.ndarray:
    """P⁻¹ Σ ê êᵀ over member residual predictions."""
    e_hats = np.atleast_2d(np.asarray(e_hats, dtype=float))
    return e_hats.T @ e_hats / e_hats.shape[0]


def invert_weighting(avg: np.ndarray, ridge_scale: float = 1e-4):
    """Invert the averaged outer product, ridging only when singular.

    Returns (W, engaged); ``engaged`` is True when the ridge was needed,
    scaled to the matrix (ridge_scale * trace/dim).
    """
    dim = avg.shape[0]
    if np.linalg.cond(avg) < _COND_LIMIT:
        return np.linalg.inv(avg), False
    eps = ridge_scale * max(np.trace(avg) / dim, np.finfo(float).tiny)
    return np.linalg.inv(avg + eps * np.eye(dim)), True


def enn_b_wls(nets, m, rrhs, ridge_scale: float = 1e-4) -> np.ndarray:
    """Single WLS solve weighted by the averaged residual outer product."""
    m = np.asarray(m, dtype=float)
    e_hats = [net.predict(m) for net in nets]
    w, engaged = invert_weighting(average_outer(e_hats), ridge_scale)
    if engaged:
        warnings.warn(
            "averaged residual weighting was singular; ridge engaged",
            RuntimeWarning,
            stacklevel=2,
        )
    h, g = build_system(m, np.asarray(rrhs, dtype=float))
    x, _ = solve_linear(h, g, w)
    return x


def save_ensemble(nets, ens: EnsembleConfig, directory) -> str:
    """Write member models plus a manifest; returns the manifest path."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    members = []
    for k, net in enumerate(nets):
        name = f"member_{k:03d}.npz"
        save_model(net, directory / name)
        members.append(name)
    manifest = {
        "format_version": 1,
        "p": ens.p,
        "r_a": ens.r_a,
        "seeds": list(ens.seeds),
        "members": members,
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return str(path)


def load_ensemble(manifest_path):
    """Read a manifest back into (nets, EnsembleConfig)."""
    from pathlib import Path

    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    ens = EnsembleConfig(
        p=manifest["p"], r_a=manifest["r_a"], seeds=manifest["seeds"]
    )
    nets = [load_model(manifest_path.parent / name) for name in manifest["members"]]
    return nets, ens
