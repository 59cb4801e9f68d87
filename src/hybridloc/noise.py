"""Measurement-noise models: covariance construction and samplers.

Two modes are supported:

* ``gaussian`` -- zero-mean Gaussian noise with the block-diagonal
  covariance ``Q`` built by :func:`build_q`: one ``diag(delta_d^2,
  (0.1*delta_d)^2)`` block per TDOA/FDOA pair and one ``diag(delta_a^2,
  delta_a^2)`` block per AOA pair.
* ``structured`` -- a fixed "dominant" bias drawn once per dataset plus a
  small Gaussian "fluctuating" part whose standard deviation is ``ratio``
  times the dominant one, mimicking environment-induced errors that are
  repeatable across samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NumericalError, ScenarioError


@dataclass
class NoiseConfig:
    """Noise model parameters.

    ``delta_d`` is the TDOA standard deviation in meters, ``delta_a`` the
    AOA standard deviation in radians; the FDOA standard deviation is
    ``fdoa_factor * delta_d``.  In ``structured`` mode ``ratio`` scales the
    fluctuating part relative to the dominant part.
    """

    delta_d: float = 0.22
    delta_a: float = 0.0175
    fdoa_factor: float = 0.1
    mode: str = "gaussian"
    ratio: float | None = None

    def __post_init__(self):
        if self.delta_d <= 0 or self.delta_a <= 0:
            raise ScenarioError("noise standard deviations must be positive")
        if self.mode not in ("gaussian", "structured"):
            raise ScenarioError(f"unknown noise mode {self.mode!r}")
        if self.mode == "structured" and (self.ratio is None or self.ratio <= 0):
            raise ScenarioError("structured noise requires ratio > 0")

    def scaled(self, rho: float) -> "NoiseConfig":
        """Config with both standard deviations multiplied by ``rho``."""
        return NoiseConfig(
            delta_d=self.delta_d * rho,
            delta_a=self.delta_a * rho,
            fdoa_factor=self.fdoa_factor,
            mode=self.mode,
            ratio=self.ratio,
        )


def sigma_components(n_a: int, cfg: NoiseConfig) -> np.ndarray:
    """Per-component standard deviations in measurement-vector order."""
    if n_a < 2:
        raise ScenarioError("at least two receivers are required")
    sd = np.empty(4 * n_a - 2)
    sd[0 : 2 * n_a - 2 : 2] = cfg.delta_d
    sd[1 : 2 * n_a - 2 : 2] = cfg.fdoa_factor * cfg.delta_d
    sd[2 * n_a - 2 :] = cfg.delta_a
    return sd


def build_q(n_a: int, cfg: NoiseConfig) -> np.ndarray:
    """Block-diagonal measurement covariance for ``n_a`` selected receivers."""
    return np.diag(sigma_components(n_a, cfg) ** 2)


def build_qs(cfg: NoiseConfig) -> np.ndarray:
    """4x4 covariance for a single scatterer measurement vector."""
    return np.diag(
        [
            cfg.delta_d**2,
            (cfg.fdoa_factor * cfg.delta_d) ** 2,
            cfg.delta_a**2,
            cfg.delta_a**2,
        ]
    )


def sample_gaussian(m_true, q, rng) -> np.ndarray:
    """One noisy measurement draw ``m_true + N(0, q)`` via the Cholesky factor."""
    m_true = np.asarray(m_true, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape != (m_true.size, m_true.size):
        raise DimensionMismatchError(
            f"covariance {q.shape} does not match measurement size {m_true.size}"
        )
    try:
        chol = np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance matrix is not positive definite") from exc
    return m_true + chol @ rng.standard_normal(m_true.size)


def dominant_shape(dim: int, rng) -> np.ndarray:
    """Unit-variance shape vector of the dominant bias (one draw per dataset)."""
    return rng.standard_normal(dim)


def dominant_bias_from_shape(shape: np.ndarray, n_a: int, cfg: NoiseConfig) -> np.ndarray:
    """Scale a shape vector by the per-component dominant standard deviations.

    Reusing the same shape across different ``delta_d``/``delta_a`` settings
    models one physical environment observed at several noise levels.
    """
    shape = np.asarray(shape, dtype=float)
    sigma = sigma_components(n_a, cfg)
    if shape.size != sigma.size:
        raise DimensionMismatchError("bias shape length does not match layout")
    return shape * sigma


def draw_dominant_bias(n_a: int, cfg: NoiseConfig, rng) -> np.ndarray:
    """Dominant (fixed) error vector for one structured-noise dataset."""
    return dominant_bias_from_shape(dominant_shape(4 * n_a - 2, rng), n_a, cfg)


def sample_structured(m_true, cfg: NoiseConfig, dominant_bias, rng) -> np.ndarray:
    """One structured-noise draw: fixed bias plus scaled Gaussian fluctuation."""
    m_true = np.asarray(m_true, dtype=float)
    dominant_bias = np.asarray(dominant_bias, dtype=float)
    if dominant_bias.size != m_true.size:
        raise DimensionMismatchError("dominant bias length does not match measurement")
    if cfg.ratio is None:
        raise ScenarioError("structured sampling requires a ratio")
    n_a = (m_true.size + 2) // 4
    fluct_sd = cfg.ratio * sigma_components(n_a, cfg)
    return m_true + dominant_bias + fluct_sd * rng.standard_normal(m_true.size)


def scatterer_sigma_components(cfg: NoiseConfig) -> np.ndarray:
    """Per-component standard deviations of one reflected-path measurement."""
    return np.array(
        [cfg.delta_d, cfg.fdoa_factor * cfg.delta_d, cfg.delta_a, cfg.delta_a]
    )


def draw_dominant_bias_scatterer(cfg: NoiseConfig, rng) -> np.ndarray:
    """Dominant error vector for one structured scatterer dataset."""
    return dominant_shape(4, rng) * scatterer_sigma_components(cfg)


def sample_structured_scatterer(ms_true, cfg: NoiseConfig, dominant_bias, rng) -> np.ndarray:
    """Structured draw on the 4-entry reflected-path layout."""
    ms_true = np.asarray(ms_true, dtype=float)
    dominant_bias = np.asarray(dominant_bias, dtype=float)
    if dominant_bias.size != 4 or ms_true.size != 4:
        raise DimensionMismatchError("scatterer measurements have 4 entries")
    if cfg.ratio is None:
        raise ScenarioError("structured sampling requires a ratio")
    fluct_sd = cfg.ratio * scatterer_sigma_components(cfg)
    return ms_true + dominant_bias + fluct_sd * rng.standard_normal(4)
