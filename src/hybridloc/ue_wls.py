"""Closed-form weighted least-squares estimation of the user state.

The hybrid measurement vector is recast as an overdetermined linear system
``h = G x`` in the 6-D state ``x = [position, velocity]`` by substituting
measured quantities for true ones:

* each TDOA entry yields a row quadratic in ranges that linearizes against
  both receiver positions,
* each FDOA entry yields a row coupling position and velocity,
* each AOA pair yields two rows expressing that the tangent/normal vectors
  of the measured direction are orthogonal to the receiver-to-user ray.

Measurement noise enters ``(h, G)`` multiplicatively, so the residual
``e = h - G x_true`` is, to first order, ``B @ dm`` with ``B`` computable
from the (estimated) state.  The solver therefore iterates: solve with
``W = inv(Q)``, rebuild ``B`` at the new state, re-solve with
``W = inv(B Q B')``.  Two passes suffice; the returned covariance is the
first-order one, which coincides with the Gaussian lower bound.

The re-weighted solves never form ``B Q B'``.  Every off-diagonal entry of
``B`` sits in an FDOA row, on its TDOA partner's column and on the
reference receiver's angle pair, so ``inv(B) v`` is a divide of the other
rows by their pivots followed by one update of the FDOA rows
(:func:`_whiten` on :func:`b_bands`).  Each re-weighted pass solves the
whitened system ``(inv(B) h, inv(B) G)`` with ``W = inv(Q)``, the same
estimator; ``inv(Q)`` is computed once per call.

Below four receivers (``MIN_VELOCITY_RECEIVERS``) the velocity is
unidentifiable: it enters ``G`` only on the n - 1 FDOA rows, so every joint
normal matrix is singular.  The solver then goes straight to a
position-only system (TDOA and AOA rows only) and flags the velocity
entries as invalid (NaN).  From four receivers up, a trial whose joint
normal matrix is singular falls back to the same system.

The core works on stacks of trials: ``build_system``, ``build_b`` and
``solve_linear`` accept leading batch axes, and ``wls_solve_batch`` solves
a stack of measurements at once, each trial failing alone.  ``wls_solve``
is its batch of one.  The stack may carry several batch axes, such as
(R, T, dim) for T trials at R noise scales, with a stack of covariances
whose leading axes broadcast against them, such as (R, 1, dim, dim): each
distinct covariance is inverted once, and each trial's products are the
ones it gets alone.

Each normal matrix is factored once (:func:`_invert_normal`, which also
decides the bounds of :mod:`hybridloc.crlb` and ENN-B's weighting): the
stack is inverted, and ``cond > _COND_LIMIT`` is screened from that
inverse by the 1-norm condition number, which bounds the 2-norm one within
a factor n either way; only the members the screen cannot decide take the
SVD of ``np.linalg.cond``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DimensionMismatchError,
    GimbalLockError,
    NumericalError,
    SingularProblemError,
)
from .geometry import (
    MIN_COS_ELEVATION,
    MIN_VELOCITY_RECEIVERS,
    angular_vectors,
    look_angles,
    look_rates,
    measurement_dim,
    position_rows,
    row_blocks,
    user_rays,
)

# Condition number beyond which a normal or information matrix counts as
# singular (SingularProblemError) or, for ENN-B's weighting, gets a ridge.
_COND_LIMIT = 1e12

_NON_FINITE_NORMAL = "normal equations contain non-finite entries"


@dataclass
class WlsResult:
    """Solution of one weighted least-squares estimation.

    ``x`` is the state estimate: 6 entries for the user (velocity entries
    NaN when ``velocity_valid`` is False), 4 for a scatterer (position and
    signed speed, so ``velocity`` holds the speed).  ``cov`` is the
    first-order covariance with the same NaN convention (None when
    :class:`WlsBatch` has none).
    """

    x: np.ndarray
    cov: np.ndarray
    velocity_valid: bool

    @property
    def position(self) -> np.ndarray:
        return self.x[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.x[3:]


@dataclass
class WlsBatch:
    """Estimates of a stack of trials, the result of every stack estimator.

    ``x`` (..., d) holds the states over the measurements' batch axes (d =
    6 for the user, 4 for a scatterer) and ``failures`` the
    ``HybridlocError`` each failed trial raised, or None; a failed trial's
    rows of ``x`` and ``cov`` are made NaN here.  ``cov`` (..., d, d) is
    the first-order covariance, None for the learned estimators, and
    ``velocity_valid`` defaults to the successful trials.
    """

    x: np.ndarray
    failures: np.ndarray
    cov: np.ndarray | None = None
    velocity_valid: np.ndarray | None = None

    def __post_init__(self):
        ok = np.equal(self.failures, None)
        if not ok.all():
            self.x[~ok] = np.nan
            if self.cov is not None:
                self.cov[~ok] = np.nan
        if self.velocity_valid is None:
            self.velocity_valid = ok

    def first(self) -> WlsResult:
        """Row 0 as a :class:`WlsResult`; its failure is raised instead."""
        if self.failures[0] is not None:
            raise self.failures[0]
        cov = None if self.cov is None else self.cov[0]
        return WlsResult(x=self.x[0], cov=cov, velocity_valid=bool(self.velocity_valid[0]))


def _square(a):
    """``a ** 2`` rounded as one float64 squares: the stacked systems stay
    bit-identical to solving each trial alone (``array ** 2`` is ``a * a``,
    which differs from ``pow`` in the last bit of about 0.1 % of values)."""
    return np.float_power(a, 2)


def _fail(errors, mask, exc_type, message: str) -> None:
    """Give the members flagged in ``mask`` the error ``exc_type(message)``.

    With ``errors`` None the error is raised; otherwise each flagged member
    that holds no error yet gets its own instance.
    """
    if not mask.any():
        return
    if errors is None:
        raise exc_type(message)
    for i in np.flatnonzero(mask):
        if errors.flat[i] is None:
            errors.flat[i] = exc_type(message)


def _invert(q):
    """Inverse of the covariance ``q``; a singular one raises
    ``SingularProblemError``."""
    try:
        return np.linalg.inv(q)
    except np.linalg.LinAlgError:
        raise SingularProblemError("weighting matrix is singular") from None


def _stacked_covariance(q, shape, message: str) -> np.ndarray:
    """``q`` as a float array that fits measurements of stack ``shape``.

    ``q`` is (dim, dim) for the last entry ``dim`` of ``shape``, or a stack
    of them whose leading axes broadcast against ``shape[:-1]``; otherwise
    ``DimensionMismatchError(message)`` is raised.
    """
    q = np.asarray(q, dtype=float)
    lead, dim = shape[:-1], shape[-1]
    try:
        fits = q.shape[-2:] == (dim, dim) and np.broadcast_shapes(q.shape[:-2], lead) == lead
    except ValueError:
        fits = False
    if not fits:
        raise DimensionMismatchError(message)
    return q


def unpack_measurement(m, n_receivers: int):
    """Split measurement vectors into (r_n1, rdot_n1, phi, theta) arrays.

    ``m`` may carry leading batch axes; the split is along the last one.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-1:] != (measurement_dim(n_receivers),):
        raise DimensionMismatchError(
            f"measurement length {m.shape[-1] if m.ndim else m.size} does not "
            f"match {n_receivers} receivers"
        )
    return tuple(m[..., rows] for rows in row_blocks(n_receivers - 1))


def build_system(m, rrhs):
    """Assemble the pseudo-linear pair (h, G) from noisy measurement vectors.

    ``m`` may carry leading batch axes: ``h`` then has the shape of ``m``
    and ``G`` one more axis of length 6.
    """
    rrhs = np.asarray(rrhs, dtype=float)
    n = rrhs.shape[0]
    r_n1, rdot_n1, phi, theta = unpack_measurement(m, n)
    a, c, d = angular_vectors(phi, theta)
    a_1, b_1, b_n = a[..., :1, :], rrhs[0], rrhs[1:]
    a1_b1 = np.vecdot(a_1, b_1)
    # Row i of lever is (b_1 - b_i) - r_i1 a_1, shared by the TDOA and FDOA rows.
    lever = (b_1 - b_n) - r_n1[..., None] * a_1

    tdoa, fdoa, azimuth, elevation = row_blocks(n - 1)
    h = np.empty(r_n1.shape[:-1] + (measurement_dim(n),))
    g = np.zeros(h.shape + (6,))
    h[..., tdoa] = (
        _square(r_n1) - 2.0 * r_n1 * a1_b1 - np.vecdot(b_n, b_n) + b_1 @ b_1
    )
    g[..., tdoa, :3] = 2.0 * lever
    h[..., fdoa] = rdot_n1 * r_n1 - rdot_n1 * a1_b1
    g[..., fdoa, :3] = -rdot_n1[..., None] * a_1
    g[..., fdoa, 3:] = lever
    h[..., azimuth] = np.vecdot(c, rrhs)
    g[..., azimuth, :3] = c
    h[..., elevation] = np.vecdot(d, rrhs)
    g[..., elevation, :3] = d
    return h, g


def residual_vector(m, rrhs, x) -> np.ndarray:
    """Residual e = h(m) - G(m) x; zero when m is noise-free and x is true."""
    h, g = build_system(m, rrhs)
    return h - g @ np.asarray(x, dtype=float)


def _b_diagonal(x, rrhs, errors):
    """``(diag, r, rdot, r_ray, phi, theta, cos_t)``: B's diagonal at float
    states x and receivers rrhs, and the rays it reads; fails as b_bands."""
    n = rrhs.shape[0]
    diffs, r, rdot = user_rays(x, rrhs)
    coincident = np.any(r <= 0.0, axis=-1)
    _fail(errors, coincident, DegenerateGeometryError, "state coincides with a receiver")
    # TDOA/FDOA entries use the summed range r; the angles and the reference
    # angle rates use look_angles' per-ray range (geometry's two roundings).
    r_ray, phi, theta = look_angles(diffs)
    cos_t = np.cos(theta)
    _fail(
        errors,
        ~coincident & (np.abs(cos_t[..., 0]) < MIN_COS_ELEVATION),
        GimbalLockError,
        "azimuth rate undefined at +/-90 degrees elevation",
    )
    tdoa, fdoa, azimuth, elevation = row_blocks(n - 1)
    diag = np.empty(x.shape[:-1] + (measurement_dim(n),))
    diag[..., tdoa] = 2.0 * r[..., 1:]
    diag[..., fdoa] = r[..., 1:]
    diag[..., azimuth] = r * cos_t
    diag[..., elevation] = r
    return diag, r, rdot, r_ray, phi, theta, cos_t


def b_bands(x, rrhs, errors=None):
    """The entries of :func:`build_b`'s ``B`` at state x, as ``(diag, low)``.

    ``diag`` (..., dim) is B's diagonal (:func:`_b_diagonal`, all that the
    position-only solve reads).  ``low`` (..., n - 1, 3) holds B's only
    other nonzero entries, in the FDOA rows: on each one's TDOA partner's
    column and on the reference receiver's azimuth and elevation columns.

    ``x`` may carry leading batch axes.  A state on a receiver, or straight
    above the reference receiver, raises; with ``errors`` (an object array
    over the batch axes) it is recorded there instead.
    """
    x = np.asarray(x, dtype=float)
    rrhs = np.asarray(rrhs, dtype=float)
    diag, r, rdot, r_ray, phi, theta, cos_t = _b_diagonal(x, rrhs, errors)
    phidot1, thetadot1 = look_rates(r_ray[..., 0], phi[..., 0], theta[..., 0], x[..., 3:])
    r_0 = r[..., :1]
    r_i1 = r[..., 1:] - r_0
    low = np.empty(r_i1.shape + (3,))
    low[..., 0] = rdot[..., 1:]
    low[..., 1] = r_0 * r_i1 * phidot1[..., None] * _square(cos_t[..., :1])
    low[..., 2] = r_0 * r_i1 * thetadot1[..., None]
    return diag, low


def _dense(bands) -> np.ndarray:
    """The dense matrix of ``(diag, low)`` bands (:func:`b_bands`' layout)."""
    diag, low = bands
    dim = diag.shape[-1]
    tdoa, fdoa, azimuth, elevation = row_blocks(low.shape[-2])
    b = np.zeros(diag.shape + (dim,))
    rows = np.arange(dim)
    b[..., rows, rows] = diag
    b[..., rows[fdoa], rows[tdoa]] = low[..., 0]
    b[..., rows[fdoa], azimuth.start] = low[..., 1]
    b[..., rows[fdoa], elevation.start] = low[..., 2]
    return b


def build_b(x, rrhs, errors=None) -> np.ndarray:
    """First-order map from measurement noise to the residual, at state x:
    the dense matrix of :func:`b_bands`, which places its entries.

    Invertible whenever ranges are positive and no receiver sees the user
    at zenith.  The solver never forms this matrix: it applies ``inv(B)``
    through :func:`b_bands` and :func:`_whiten`.  ``x`` and ``errors`` are
    as in :func:`b_bands`.
    """
    return _dense(b_bands(x, rrhs, errors))


def _whiten(bands, v) -> np.ndarray:
    """``inv(B) @ v`` for the ``(diag, low)`` bands of B (:func:`b_bands`).

    ``v`` is (..., dim, p).  Each non-FDOA row is divided by its pivot;
    each FDOA row then takes its partner's and the reference angle pair's
    results off and is divided by its own pivot (rows as
    :func:`geometry.row_blocks` of ``low``'s pairs).  With no FDOA rows
    (``low`` of length 0) B is diagonal.  The pivots must be finite and
    nonzero; :func:`_iterated_solve` checks them.
    """
    diag, low = bands
    tdoa, fdoa, azimuth, elevation = row_blocks(low.shape[-2])
    y = v / diag[..., None]
    y[..., fdoa, :] = (
        v[..., fdoa, :]
        - low[..., 0:1] * y[..., tdoa, :]
        - low[..., 1:2] * y[..., azimuth.start, None, :]
        - low[..., 2:3] * y[..., elevation.start, None, :]
    ) / diag[..., fdoa, None]
    return y


def solve_linear(h, g, w, errors=None):
    """One weighted solve of h = G x; returns (x, covariance-shaped inverse).

    The second return value is ``inv(G' W G)``, which is the estimator
    covariance only when ``W`` is the inverse covariance of ``h``'s error.

    ``h``, ``g`` and ``w`` may carry leading batch axes (one ``w`` may serve
    the whole stack).  A failing member raises; with ``errors`` (an object
    array over the batch axes) its error is recorded there instead, members
    that already hold one are skipped, and both results are NaN for every
    skipped or failing member.
    """
    gtw = np.swapaxes(g, -1, -2) @ w
    return solve_normal(gtw @ g, gtw @ h[..., None], errors)


def _norm1(a):
    """The 1-norm (largest absolute column sum) of each matrix of ``a``."""
    return np.maximum.reduce(np.add.reduce(np.abs(a), axis=-2), axis=-1)


def _exactly_singular(a):
    """Flags the members of ``a`` (..., n, n) that make ``np.linalg.inv`` or
    ``solve`` raise: an exactly zero pivot of the same LU factorization."""
    return np.linalg.slogdet(a)[0] == 0


def _invert_normal(normal, live=None):
    """``(inv(normal), singular)`` for the ``live`` members of ``normal``
    (..., n, n), by default the finite ones; the others get a NaN inverse.

    ``singular`` flags the live members whose 2-norm condition number, as
    ``np.linalg.cond`` computes it, exceeds ``_COND_LIMIT``; their inverse
    is NaN.  Each matrix is factored once: the stack is inverted first, and
    ``k1 = |N|_1 |inv(N)|_1`` screens it.  The 2-norm condition number lies
    between ``k1 / n`` and ``n k1``, so a member with ``k1`` below
    ``_COND_LIMIT / (4n)`` is regular and one with a finite ``k1`` above
    ``4n _COND_LIMIT`` singular; only the members in between, or with a
    non-finite ``k1``, take the SVD of ``np.linalg.cond``.  When the
    inversion raises, the members with an exactly zero LU pivot are
    singular and the others are decided as one stack.
    """
    if live is None:
        live = np.isfinite(normal).all(axis=(-2, -1))
    if not live.all():
        inv_normal = np.full(normal.shape, np.nan)
        singular = np.zeros(live.shape, dtype=bool)
        if live.any():
            inv_normal[live], singular[live] = _invert_normal(normal[live], live[live])
        return inv_normal, singular
    try:
        inv_normal = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        exact = _exactly_singular(normal)  # some member: its zero pivot made inv raise
        inv_normal, singular = _invert_normal(normal, ~exact)
        return inv_normal, singular | exact
    n = normal.shape[-1]
    with np.errstate(over="ignore"):
        k1 = _norm1(normal) * _norm1(inv_normal)
    regular = k1 < _COND_LIMIT / (4 * n)
    if regular.all():
        return inv_normal, ~regular
    singular = np.asarray(~regular & np.isfinite(k1) & (k1 > 4 * n * _COND_LIMIT))
    unsure = ~regular & ~singular
    if unsure.any():
        singular[unsure] = np.linalg.cond(normal[unsure]) > _COND_LIMIT
    inv_normal[singular] = np.nan
    return inv_normal, singular


def solve_normal(normal, rhs, errors=None):
    """Solve the normal equations ``normal x = rhs``; returns (x, inv(normal)).

    ``normal`` (..., n, n) and ``rhs`` (..., n, 1) may carry leading batch
    axes, and ``errors`` follows :func:`solve_linear`'s rules: each member
    is checked for non-finite entries, then for a condition number beyond
    ``_COND_LIMIT`` (:func:`_invert_normal`, which inverts the live members
    once), then for a non-finite solution.
    """
    live = np.isfinite(normal).all(axis=(-2, -1))
    _fail(errors, ~live, NumericalError, _NON_FINITE_NORMAL)
    if errors is not None:
        live = live & np.equal(errors, None)
    inv_normal, singular = _invert_normal(normal, live)
    _fail(errors, singular, SingularProblemError, "normal equations are singular or near-singular")
    live = live & ~singular
    x = (inv_normal @ rhs)[..., 0]
    blown = live & ~np.isfinite(x).all(axis=-1)
    _fail(errors, blown, NumericalError, "solution contains non-finite entries")
    if blown.any():
        x[blown] = np.nan
        inv_normal[blown] = np.nan
    return x, inv_normal


def _iterated_solve(h, g, q, bands, iters: int, covariance_at_estimate: bool, errors):
    """Iterated weighted solves of a stack; failures go to ``errors``.

    The first solve uses ``W = inv(Q)``.  Each further one is the solve
    with ``W = inv(B Q B')``, made as the equal solve of the whitened
    system ``(inv(B) h, inv(B) G)`` with ``W = inv(Q)``; ``bands(x,
    errors)`` gives B's :func:`b_bands` at the current estimates, and a
    member with a zero or non-finite pivot fails with
    ``SingularProblemError``.  The covariance is the last solve's, after
    one more solve at the final estimates when ``covariance_at_estimate``
    is set.  Once every member has failed, the NaN rows in hand are
    returned without further solves.
    """
    w = _invert(q)
    system = np.concatenate([g, h[..., None]], axis=-1)
    x = cov = None
    for it in range(iters + covariance_at_estimate):
        if it > 0:
            if not np.equal(errors, None).any():
                break
            diag, low = bands(x, errors)
            pivots_ok = (np.isfinite(diag) & (diag != 0.0)).all(axis=-1)
            if not pivots_ok.all():
                _fail(errors, ~pivots_ok, SingularProblemError, "weighting matrix is singular")
                diag = np.where(pivots_ok[..., None], diag, np.nan)  # quiet NaN rows
            white = _whiten((diag, low), system)
            h, g = white[..., -1], white[..., :-1]
        x_it, cov = solve_linear(h, g, w, errors)
        if it < iters:
            x = x_it
    return x, cov


def wls_solve_batch(ms, rrhs, q, iters: int = 2) -> WlsBatch:
    """Iterated WLS estimates of a stack of measurements ``ms`` (..., T, dim).

    ``ms`` carries one or more leading batch axes, for instance (R, T,
    dim) for T trials at R noise scales.  The covariance ``q`` is (dim,
    dim) or a stack whose leading axes broadcast against those of ``ms``,
    such as (R, 1, dim, dim); each distinct covariance is inverted once.
    Each trial runs as :func:`wls_solve` would run it alone, and fails
    alone.

    From four receivers up (``MIN_VELOCITY_RECEIVERS``), the stack is
    solved jointly; when any trial's joint normal matrix is singular, the
    whole stack is solved again on the position-only rows, and those
    results are kept for the trials that fell back.  Below four receivers
    every joint normal matrix is singular, so the joint solve is skipped
    and every trial is solved on the position-only rows.  The joint
    attempt's two other outcomes stay: a singular ``q`` raises
    ``SingularProblemError``, and a trial whose joint normal matrix is not
    finite fails with ``NumericalError``.
    """
    rrhs = np.asarray(rrhs, dtype=float)
    ms = np.asarray(ms, dtype=float)
    if ms.ndim < 2:
        raise DimensionMismatchError("measurements must be stacked as (..., trials, length)")
    h, g = build_system(ms, rrhs)
    q = _stacked_covariance(q, h.shape, "covariance does not match measurement size")

    errors = np.full(h.shape[:-1], None, dtype=object)
    if rrhs.shape[0] < MIN_VELOCITY_RECEIVERS:
        gtw = np.swapaxes(g, -1, -2) @ _invert(q)
        _fail(errors, ~np.isfinite(gtw @ g).all(axis=(-2, -1)), NumericalError,
              _NON_FINITE_NORMAL)
        valid = np.zeros(errors.shape, dtype=bool)
        fallback = np.equal(errors, None)
        x = np.full(errors.shape + (6,), np.nan)
        cov = np.full(x.shape + (6,), np.nan)
    else:
        x, cov = _iterated_solve(
            h, g, q, lambda x, e: b_bands(x, rrhs, e), iters, True, errors
        )
        valid = np.equal(errors, None)
        if valid.all():
            return WlsBatch(x=x, failures=errors, cov=cov)
        fallback = np.array(
            [isinstance(e, SingularProblemError) for e in errors.flat], dtype=bool
        ).reshape(errors.shape)
    if fallback.any():
        # The whole stack is solved on the position-only rows, so that each
        # distinct sub-covariance is inverted once.
        rows = np.flatnonzero(position_rows(rrhs.shape[0]))
        pos_errors = np.full(errors.shape, None, dtype=object)

        def pos_bands(pos, e):
            # The restricted rows of B are its TDOA and AOA rows, which hold
            # only their diagonal: the sub-block is diagonal.
            full = np.concatenate([pos, np.zeros_like(pos)], axis=-1)
            diag = _b_diagonal(full, rrhs, e)[0]
            return diag[..., rows], np.empty(pos.shape[:-1] + (0, 3))

        pos, cov_pos = _iterated_solve(
            h[..., rows], g[..., rows, :3], q[..., rows[:, None], rows],
            pos_bands, iters, False, pos_errors,
        )
        errors[fallback] = pos_errors[fallback]
        x[fallback] = np.nan
        x[fallback, :3] = pos[fallback]
        cov[fallback] = np.nan
        cov[fallback, :3, :3] = cov_pos[fallback]
    return WlsBatch(x=x, failures=errors, cov=cov, velocity_valid=valid)


def wls_solve(m, rrhs, q, iters: int = 2) -> WlsResult:
    """Iterated WLS estimate of the 6-D user state.

    ``iters`` solves give the estimate (default 2), the first with ``W =
    inv(Q)`` and subsequent ones with ``W = inv(B Q B')`` rebuilt at the
    current state, each made as the solve of the whitened system ``(inv(B)
    h, inv(B) G)`` with ``W = inv(Q)``; one more at the final state gives
    the covariance.  This is :func:`wls_solve_batch` on a batch of one,
    position-only fallback included; its failure is raised.
    """
    return wls_solve_batch(np.asarray(m, dtype=float)[None], rrhs, q, iters).first()
