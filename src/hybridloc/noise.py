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

The mode is decided here and nowhere else.  A layout is its per-component
deviations ``sd`` (:func:`sigma_components` or
:func:`scatterer_sigma_components`); :func:`draw_dominant` draws a
campaign's or dataset's bias on it (None in Gaussian mode) and
:func:`add_noise` maps a stack of unit normals to noisy measurements.
The per-sample samplers are that step on one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalError, ScenarioError
from .geometry import measurement_dim, row_blocks


@dataclass
class NoiseConfig:
    """Noise model parameters.

    ``delta_d`` is the TDOA standard deviation in meters, ``delta_a`` the
    AOA standard deviation in radians; the FDOA standard deviation is
    ``fdoa_factor * delta_d``.  In ``structured`` mode ``ratio`` scales the
    fluctuating part relative to the dominant part.  Each of these, and
    each of the three variances, must be finite and positive, so that the
    covariance ``Q`` is invertible.
    """

    delta_d: float = 0.22
    delta_a: float = 0.0175
    fdoa_factor: float = 0.1
    mode: str = "gaussian"
    ratio: float | None = None

    def __post_init__(self):
        scales = {"delta_d": self.delta_d, "delta_a": self.delta_a,
                  "fdoa_factor": self.fdoa_factor, "ratio": self.ratio}
        for name, value in scales.items():
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ScenarioError(f"noise {name} must be finite and positive, got {value}")
        for sd in (self.delta_d, self.fdoa_factor * self.delta_d, self.delta_a):
            if not 0.0 < sd * sd < math.inf:
                raise ScenarioError(
                    f"noise standard deviation {sd} has no finite positive variance"
                )
        if self.mode not in ("gaussian", "structured"):
            raise ScenarioError(f"unknown noise mode {self.mode!r}")
        if self.mode == "structured" and self.ratio is None:
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
    tdoa, fdoa, azimuth, _ = row_blocks(n_a - 1)
    sd = np.empty(measurement_dim(n_a))
    sd[tdoa] = cfg.delta_d
    sd[fdoa] = cfg.fdoa_factor * cfg.delta_d
    sd[azimuth.start :] = cfg.delta_a
    return sd


def build_q(n_a: int, cfg: NoiseConfig) -> np.ndarray:
    """Block-diagonal measurement covariance for ``n_a`` selected receivers."""
    return np.diag(sigma_components(n_a, cfg) ** 2)


def build_qs(cfg: NoiseConfig) -> np.ndarray:
    """4x4 covariance of one path measurement, squared by ``pow`` as Python floats are."""
    return np.diag(np.float_power(scatterer_sigma_components(cfg), 2))


def sample_gaussian(m_true, q, rng) -> np.ndarray:
    """One noisy measurement draw ``m_true + N(0, q)`` via the Cholesky factor."""
    m_true = np.asarray(m_true, dtype=float)
    q = np.asarray(q, dtype=float)
    if m_true.ndim != 1:
        raise DimensionMismatchError(f"measurement of shape {m_true.shape} is not a vector")
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
    return dominant_bias_from_shape(dominant_shape(measurement_dim(n_a), rng), n_a, cfg)


def draw_dominant(cfg: NoiseConfig, sd, rng, pinned=None) -> np.ndarray | None:
    """The dominant bias one campaign or dataset shares, on the layout ``sd``.

    None in Gaussian mode, which draws nothing from ``rng``.  In structured
    mode it is ``pinned`` when given, checked against the layout, and else
    ``sd.shape[-1]`` normals from ``rng`` scaled by ``sd``; a stack of
    layouts ``sd`` (one per noise scale) scales one draw.  ``rng`` may also
    be a function that builds the generator; it is called only to draw.
    """
    if cfg.mode == "gaussian":
        return None
    if pinned is None:
        return dominant_shape(sd.shape[-1], rng() if callable(rng) else rng) * sd
    pinned = np.asarray(pinned, dtype=float)
    if pinned.shape != sd.shape:
        raise DimensionMismatchError(
            f"dominant bias must have {sd.size} entries, got {pinned.shape}"
        )
    return pinned


def add_noise(m_true, cfg: NoiseConfig, sd, dominant, z) -> np.ndarray:
    """Noisy measurements from unit normals ``z`` (..., ``sd.size``).

    ``m_true + sd*z`` without a dominant bias, else ``m_true + dominant +
    ratio*sd*z``.  For the diagonal covariances of :func:`build_q` and
    :func:`build_qs`, ``sd*z`` equals :func:`sample_gaussian`'s Cholesky
    draw bit for bit.
    """
    if dominant is None:
        return m_true + sd * z
    return m_true + dominant + cfg.ratio * sd * z


def sample_structured(m_true, cfg: NoiseConfig, dominant_bias, rng) -> np.ndarray:
    """One structured-noise draw: fixed bias plus scaled Gaussian fluctuation."""
    m_true = np.asarray(m_true, dtype=float)
    dominant_bias = np.asarray(dominant_bias, dtype=float)
    if m_true.ndim != 1 or m_true.size < 6 or (m_true.size + 2) % 4:
        raise DimensionMismatchError(
            f"a measurement has 4*n_a - 2 entries for n_a >= 2, got shape {m_true.shape}"
        )
    if dominant_bias.shape != m_true.shape:
        raise DimensionMismatchError("dominant bias length does not match measurement")
    if cfg.ratio is None:
        raise ScenarioError("structured sampling requires a ratio")
    sd = sigma_components((m_true.size + 2) // 4, cfg)
    return add_noise(m_true, cfg, sd, dominant_bias, rng.standard_normal(m_true.size))


def scatterer_sigma_components(cfg: NoiseConfig) -> np.ndarray:
    """Per-component standard deviations of one reflected-path measurement."""
    return np.array(
        [cfg.delta_d, cfg.fdoa_factor * cfg.delta_d, cfg.delta_a, cfg.delta_a]
    )


def sample_structured_scatterer(ms_true, cfg: NoiseConfig, dominant_bias, rng) -> np.ndarray:
    """Structured draw on the 4-entry reflected-path layout."""
    ms_true = np.asarray(ms_true, dtype=float)
    dominant_bias = np.asarray(dominant_bias, dtype=float)
    if dominant_bias.shape != (4,) or ms_true.shape != (4,):
        raise DimensionMismatchError(
            f"scatterer measurements have 4 entries, got shape {ms_true.shape} "
            f"and bias shape {dominant_bias.shape}"
        )
    if cfg.ratio is None:
        raise ScenarioError("structured sampling requires a ratio")
    sd = scatterer_sigma_components(cfg)
    return add_noise(ms_true, cfg, sd, dominant_bias, rng.standard_normal(4))
