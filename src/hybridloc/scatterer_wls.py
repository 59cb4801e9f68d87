"""WLS estimation of a scatterer's position and signed speed from one path.

Each reflected path supplies four measurements (delay difference, rate
difference, two arrival angles at the observing receiver) and the unknown
is four-dimensional: position plus a signed speed along the user's velocity
direction.  With the user state taken from the preceding estimation step,
the pseudo-linear system is square; the weighting matrix therefore affects
only the reported covariance, not the estimate itself.

``scatterer_wls_solve_batch`` solves a stack of paths at once, each trial
failing alone; ``scatterer_wls_solve`` is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, DimensionMismatchError, GimbalLockError
from .geometry import (
    MIN_COS_ELEVATION,
    angular_vectors,
    direct_paths,
    look_rates,
    scatterer_legs,
    velocity_direction,
)
from .ue_wls import _dense, _fail, _iterated_solve, _square, _stacked_covariance
from .ue_wls import solve_linear  # noqa: F401  perfbench's tracer expects scatterer_wls to bind it


@dataclass
class ScattererResult:
    """Estimated scatterer state: x = [position (3), signed speed]."""

    x: np.ndarray
    cov: np.ndarray

    @property
    def position(self) -> np.ndarray:
        return self.x[:3]

    @property
    def speed(self) -> float:
        return float(self.x[3])


@dataclass
class ScattererBatch:
    """Estimates of a stack of paths, one row per trial.

    ``x`` (T, 4) and ``cov`` (T, 4, 4) as in :class:`ScattererResult`;
    ``failures`` (an object array) holds the ``HybridlocError`` each failed
    trial raised, or None, and a failed trial's rows are NaN.
    """

    x: np.ndarray
    cov: np.ndarray
    failures: np.ndarray


def build_scatterer_system(ms, b_n, b_1, ue):
    """Assemble the square pair (h, G·T) for reflected paths.

    ``ms`` is the 4-entry path measurement, or a stack of them on leading
    batch axes (``h`` and ``G·T`` then carry the same axes); ``b_n`` the
    observing receiver; ``b_1`` the reference receiver (whose direct-path
    range/rate, recomputed from the user state ``ue``, undoes the
    differencing).  ``G`` acts on [s, sdot] and ``T`` maps the reduced
    state [s, speed] to it, ``sdot = speed * n_v``.
    """
    ms = np.asarray(ms, dtype=float)
    if ms.shape[-1:] != (4,):
        raise DimensionMismatchError("path measurement must have 4 entries")
    b_n = np.asarray(b_n, dtype=float)
    b_1 = np.asarray(b_1, dtype=float)
    ue = np.asarray(ue, dtype=float)
    u, udot = ue[:3], ue[3:]
    n_v = velocity_direction(ue)

    r_1, rdot_1, _, _ = direct_paths(ue, b_1)
    r_s = ms[..., 0] + r_1
    rdot_s = ms[..., 1] + rdot_1
    a_s, c_s, d_s = angular_vectors(ms[..., 2], ms[..., 3])
    as_bn = np.vecdot(a_s, b_n)

    h = np.empty(ms.shape)
    h[..., 0] = _square(r_s) + 2.0 * r_s * as_bn - u @ u + b_n @ b_n
    h[..., 1] = r_s * rdot_s + rdot_s * as_bn - udot @ u
    h[..., 2] = np.vecdot(c_s, b_n)
    h[..., 3] = np.vecdot(d_s, b_n)
    g = np.zeros(ms.shape[:-1] + (4, 6))
    r_s, rdot_s = r_s[..., None], rdot_s[..., None]
    g[..., 0, :3] = 2.0 * (b_n - u + r_s * a_s)
    g[..., 1, :3] = rdot_s * a_s - udot
    g[..., 1, 3:] = r_s * a_s + b_n - u
    g[..., 2, :3] = c_s
    g[..., 3, :3] = d_s

    t = np.eye(6, 4)
    t[3:, 3] = n_v
    return h, g @ t


def bs_bands(xs, b_n, ue, errors=None):
    """The entries of :func:`build_bs`'s ``Bs`` at xs, as ``(diag, low)``.

    ``diag`` (..., 4) is Bs's diagonal and ``low`` (..., 1, 3) the rate
    row's entries on the delay column (``geometry.scatterer_legs``'
    ``ddot2``) and the two angle columns: :func:`ue_wls.b_bands`' layout.

    ``xs`` may carry leading batch axes.  A scatterer on the receiver or
    the user, or straight above the receiver, raises; with ``errors`` (an
    object array over the batch axes) it is recorded there instead.
    """
    xs = np.asarray(xs, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    ue = np.asarray(ue, dtype=float)
    _, sdot_vec, _, d1, phi_s, theta_s, _, d2, _, ddot2 = scatterer_legs(xs, ue, b_n)
    coincident = (d1 <= 0.0) | (d2 <= 0.0)
    _fail(errors, coincident, DegenerateGeometryError,
          "scatterer coincides with receiver or user")
    cos_t = np.cos(theta_s)
    _fail(
        errors,
        ~coincident & (np.abs(cos_t) < MIN_COS_ELEVATION),
        GimbalLockError,
        "azimuth rate undefined at +/-90 degrees elevation",
    )
    r_s = d1 + d2
    phidot_s, thetadot_s = look_rates(d1, phi_s, theta_s, sdot_vec)

    diag = np.empty(r_s.shape + (4,))
    diag[..., 0] = 2.0 * d2
    diag[..., 1] = d2
    diag[..., 2] = d1 * cos_t
    diag[..., 3] = d1
    low = np.empty(r_s.shape + (1, 3))
    low[..., 0, 0] = ddot2
    low[..., 0, 1] = -r_s * d1 * phidot_s * _square(cos_t)
    low[..., 0, 2] = -r_s * d1 * thetadot_s
    return diag, low


def build_bs(xs, b_n, ue, errors=None) -> np.ndarray:
    """First-order map from path-measurement noise to the residual.

    Rows follow the measurement order (delay, rate, azimuth, elevation);
    the rate row couples into the two angle columns through the scatterer's
    apparent angular rates seen from the receiver.  The solver never forms
    this matrix: it applies ``inv(Bs)`` through :func:`bs_bands`.  ``xs``
    and ``errors`` are as in :func:`bs_bands`.
    """
    return _dense(bs_bands(xs, b_n, ue, errors))


def scatterer_wls_solve_batch(ms, b_n, b_1, ue, qs) -> ScattererBatch:
    """WLS estimates of a stack of path measurements ``ms`` (..., T, 4).

    ``ms`` carries one or more leading batch axes, and the covariance
    ``qs`` is (4, 4) or a stack whose leading axes broadcast against them,
    as in ``ue_wls.wls_solve_batch``.  Each trial runs as
    :func:`scatterer_wls_solve` would run it alone, and fails alone.  This
    is the user's iterated solve with one iteration and the covariance at
    the estimate, on :func:`build_scatterer_system`'s pair ``(h, G·T)``.
    """
    ms = np.asarray(ms, dtype=float)
    if ms.ndim < 2:
        raise DimensionMismatchError("path measurements must be stacked as (..., trials, 4)")
    qs = _stacked_covariance(qs, ms.shape[:-1] + (4,), "path covariance must be 4x4")
    h, gt = build_scatterer_system(ms, b_n, b_1, ue)
    errors = np.full(h.shape[:-1], None, dtype=object)
    xs, cov = _iterated_solve(
        h, gt, qs, lambda x, e: bs_bands(x, b_n, ue, e), 1, True, errors
    )
    failed = ~np.equal(errors, None)
    xs[failed] = np.nan
    cov[failed] = np.nan
    return ScattererBatch(x=xs, cov=cov, failures=errors)


def scatterer_wls_solve(ms, b_n, b_1, ue, qs) -> ScattererResult:
    """WLS estimate of [scatterer position, signed speed] and its covariance.

    The system is square, so the weighting cannot move the estimate: one
    solve with ``W = inv(Qs)`` gives it.  The first-order covariance is
    ``inv(G' inv(Bs Qs Bs') G)`` at that estimate, computed as the solve of
    the whitened system ``(inv(Bs) h, inv(Bs) G)`` with ``W = inv(Qs)``
    (:func:`bs_bands`, ``ue_wls._whiten``).  This is
    :func:`scatterer_wls_solve_batch` on a batch of one; its failure is
    raised.
    """
    batch = scatterer_wls_solve_batch(np.asarray(ms, dtype=float)[None], b_n, b_1, ue, qs)
    if batch.failures[0] is not None:
        raise batch.failures[0]
    return ScattererResult(x=batch.x[0], cov=batch.cov[0])
