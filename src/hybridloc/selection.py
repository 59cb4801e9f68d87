"""Direct-path selection: pick, cluster, and rank candidate paths per receiver.

Each receiver reports a set of detected paths (angles, delay, rate,
energy).  The earliest-arriving path per receiver is taken as its
direct-path candidate; a rough single-receiver position fix is computed by
walking the measured ray for the measured delay; the fixes are split into
two clusters; and receivers are ranked by the distance of their fix to the
direct-path cluster center.  The best-ranked receivers form the selected
set, reordered so the highest-energy selection comes first (it becomes the
differencing reference downstream).

Delays include the unknown receiver/user clock offset, which slides every
rough fix outward along its measured ray, so a plain cluster mean drifts
away from the user as the offset grows and reflected fixes leak into the
top ranks.  The ranking center is therefore refined after clustering:
candidate centers are fitted to the measured rays (offset-free) with
iteratively trimmed least squares from several deterministic starting
points, and the winner is the candidate whose induced selection is most
self-consistent -- its members' rays nearly meet at one point and their
measured ranges agree with that point up to a single common offset.

The fits run in two stages of two: from the cluster center and the median
fix, then from the two best-scoring seeds among the ray-pair midpoints and
the first two fits.  A ray's miss is ``|d - (d.a) a|`` and each reweighted
normal matrix is ``sum(w P)`` with ``P = I - a a^T``, so the fits of one
stage share one weighted product and one batched 3x3 solve per step.  The
fit and seed kernels hold rays, seeds and fits as contiguous x, y and z
planes, ``(3, ...)`` arrays, and run each step on buffers allocated once
per call and overwritten in place (``out=``, in-place operators,
``np.copyto(..., where=)``); each dot and norm is summed in the fixed
order its kernel's docstring names.  Each ray's ``[P | P o]`` row is built
once per call into a ray table, from which every round of the trimmed
fits gathers its kept rays.  Candidates that induce the same member set
are scored once, for the first candidate that reached it, so rounding in
the order of summation cannot pick between them.

A selection runs in two stages.  :func:`los_candidates` does everything
that does not depend on the number of selected receivers -- the picks,
rough fixes, clustering, the four trimmed fits and the finish at every
selection size -- and returns a :class:`LosCandidates` record.  The finish
ranks the receivers by distance from each candidate center; at each size s
from 2 to the pick count, each center's s nearest receivers form its member
set, and the record keeps which center's set scores best.  The member sets
of all sizes are the prefixes of one stable order per center, so their fits
are cumulative sums along it, and a center repeats an earlier one at size s
when none of its s nearest ranks s or later from the earlier center.
:func:`select_los` checks its ``n_a``, looks its winner up in the record
and builds the result; given the record, it skips the first stage, so one
trial is selected at several ``n_a`` for the cost of one first stage.

:func:`los_candidates_batch` builds the records of many trials at once.
Picks run per trial; the trials with the same pick count then form a
group whose rays come from one ``angular_vectors`` call and whose rough
fixes are clustered in lockstep, one two-center Lloyd run over the
group's ``(T, n, 3)`` fixes.  The fit kernels take a leading trial axis --
``(T, n, 3)`` rays, ``(T, K, 3)`` starts -- and flatten it into their
stack of fits, so the trimmed fits of a group share one batched solve per
step; a fit that stops moving stays in the stack, masked from further
updates.  The seed pick scores every ray pair of the group's trials (a
pair without a usable midpoint scores +inf) on ``(T, C, n)`` planes, a
fixed number of seed-ray cells at a time; the finish scores the group's
distinct member sets in one stack.  Each trial's clustering steps and each
fit's steps and freezing are its own, and every stacked kernel rounds each
trial's numbers as a solo call does, so a trial gets the same record in a
batch as alone; :func:`los_candidates` is the batch of one.

:func:`simulate_paths_batch` draws a block of trials, each from its own
stream in the order :func:`simulate_paths` (its batch of one) draws, and
evaluates the block's paths at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import DimensionMismatchError, HybridlocError, NumericalError, ScenarioError
from .geometry import (
    SPEED_OF_LIGHT,
    angular_vectors,
    direct_paths,
    scatterer_measurement,
)
from .scenario import scatterer_states
from .ue_wls import _exactly_singular, _square


@dataclass
class PathMeasurement:
    """One detected path at one receiver.

    ``tau`` is the absolute delay in seconds (clock offset included);
    ``nu`` is the Doppler expressed as a range rate in m/s; ``energy`` is a
    relative path power used for thresholding and reference choice.
    """

    phi: float
    theta: float
    tau: float
    nu: float
    energy: float
    rrh_index: int
    is_los: bool = False  # ground-truth tag, used only for scoring


@dataclass
class SelectionResult:
    los_set: list  # one PathMeasurement per selected receiver, reference first
    nlos_sets: dict  # rrh_index -> remaining PathMeasurements
    c_los: np.ndarray = field(default=None)
    c_nlos: np.ndarray = field(default=None)
    distances: dict = field(default_factory=dict)  # rrh_index -> ranking distance

    @property
    def selected_indices(self) -> list:
        return [p.rrh_index for p in self.los_set]

    def all_selected_are_los(self) -> bool:
        return all(p.is_los for p in self.los_set)


def rough_fix(p: PathMeasurement, b_n) -> np.ndarray:
    """Position reached by walking the measured ray for the measured delay."""
    a, _, _ = angular_vectors(p.phi, p.theta)
    return np.asarray(b_n, dtype=float) + SPEED_OF_LIGHT * p.tau * a


def _cluster_variance(points: np.ndarray, center: np.ndarray) -> float:
    if points.shape[0] == 0:
        return np.inf
    return float(np.mean(np.sum((points - center) ** 2, axis=1)))


def kmeans2(points, max_iters: int = 100):
    """Two-center Lloyd clustering of 3-D points.

    Centers start at the two points farthest apart.  Returns
    ``(c_los, c_nlos, labels)`` where the direct-path cluster is the one
    with more members (ties break toward the tighter cluster) and
    ``labels[i]`` is True for members of that cluster.  It is the stack of
    one of :func:`_kmeans2_stack`.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise ScenarioError("clustering needs at least two 3-D points")
    c_los, c_nlos, labels = _kmeans2_stack(pts[None], max_iters)
    return c_los[0], c_nlos[0], labels[0]


def _kmeans2_stack(pts, max_iters: int = 100):
    """:func:`kmeans2` of a ``(T, n, 3)`` stack of point sets, in lockstep.

    Returns ``(T, 3)`` direct-path and reflected-path centers and ``(T,
    n)`` labels.  Once a trial's assignment repeats, its step reproduces
    its assignment and centers exactly, so the stack steps until every
    trial has converged and each trial ends where it ends alone.  Member
    sums add the points in order, with 0.0 for each non-member, which
    rounds as summing the members alone does.  The emptied-cluster re-seed
    and the size/variance tie-break run per trial, on the trials that need
    them.
    """
    rows, n = np.arange(len(pts)), pts.shape[1]
    # Farthest-pair initialization (point counts here are tiny).
    d2 = np.sum((pts[:, :, None, :] - pts[:, None, :, :]) ** 2, axis=3)
    i, j = np.divmod(np.argmax(d2.reshape(len(pts), -1), axis=1), n)
    centers = np.stack([pts[rows, i], pts[rows, j]], axis=1)

    assign = np.zeros(pts.shape[:2], dtype=int)
    for it in range(max_iters):
        diff = pts[:, :, None, :] - centers[:, None, :, :]
        dist = np.sqrt(np.add.reduce(diff * diff, axis=3))  # as np.linalg.norm rounds
        new_assign = np.argmin(dist, axis=2)
        size1 = new_assign.sum(axis=1)
        for t in np.flatnonzero((size1 == 0) | (size1 == n)):
            # Re-seed the emptied cluster k with the point farthest from
            # the surviving center.
            k = int(size1[t] == 0)
            new_assign[t, np.argmax(dist[t, :, 1 - k])] = k
        if it > 0 and (new_assign == assign).all():
            break
        assign = new_assign
        members = assign[..., None] == (0, 1)
        sums = np.where(members[..., None], pts[:, :, None, :], 0.0).sum(axis=1)
        centers = sums / members.sum(axis=1)[..., None]  # as np.mean rounds

    size0 = n - assign.sum(axis=1)
    los_k = (2 * size0 < n).astype(int)
    for t in np.flatnonzero(2 * size0 == n):
        var0, var1 = (_cluster_variance(pts[t, assign[t] == k], centers[t, k]) for k in (0, 1))
        los_k[t] = 0 if var0 <= var1 else 1
    return centers[rows, los_k], centers[rows, 1 - los_k], assign == los_k[:, None]


def _solve_3x3(normal, rhs):
    """Solve a ``(K, 3, 3)`` stack of systems; returns ``(x, ok)``.

    Rows whose system is singular or whose solution is not finite are
    flagged in ``ok`` and must not be used.  When an exactly zero pivot
    makes the batched solve raise, the other members are solved again.
    """
    try:
        x = np.linalg.solve(normal, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(rhs.shape, np.nan)
        live = ~_exactly_singular(normal)
        x[live] = np.linalg.solve(normal[live], rhs[live, :, None])[..., 0]
    return x, np.isfinite(x).all(axis=1)


def _planes(v):
    """The x, y and z planes of stacked 3-vectors: ``(3, ...)`` views."""
    return v.transpose(-1, *range(v.ndim - 1))


def _dot3(u, v):
    """Dot products of ``(3, ...)`` planes, summed as ``np.sum(axis=-1)`` of
    stacked 3-vectors rounds: ``(x + y) + z``."""
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


def _median(v):
    """Medians along the last axis, rounded as ``np.median`` rounds them:
    the middle value, or half the sum of the two middle values."""
    lo, hi = (v.shape[-1] - 1) // 2, v.shape[-1] // 2
    part = np.partition(v, (lo, hi), axis=-1)
    return 0.5 * (part[..., lo] + part[..., hi])


def _pair_midpoints(origins, dirs):
    """Closest-approach midpoints of all ray pairs, and which of them count.

    ``origins`` and ``dirs`` are ``(..., n, 3)``; pairs come in ``(i, j)``,
    ``i < j`` row-major order.  Returns the ``(..., P, 3)`` midpoints and a
    ``(..., P)`` mask that is False for pairs whose rays are near-parallel
    or do not both point toward their midpoint; those midpoints mean
    nothing.
    """
    i, j = np.triu_indices(origins.shape[-2], 1)
    o, d = _planes(origins), _planes(dirs)
    a, b = d[..., i], d[..., j]
    ab = _dot3(a, b)
    den = 1.0 - ab * ab
    stable = den >= 1e-9  # near-parallel rays have no stable midpoint
    w = o[..., j] - o[..., i]
    wa, wb = _dot3(w, a), _dot3(w, b)
    den = np.where(stable, den, 1.0)
    t1 = (wa - ab * wb) / den
    t2 = (ab * wa - wb) / den
    usable = stable & (t1 > 0.0) & (t2 > 0.0)
    mids = 0.5 * (o[..., i] + t1 * a + o[..., j] + t2 * b)
    return np.moveaxis(mids, 0, -1), usable


def _stable_near(dray, cut, k: int):
    """The ``k`` entries of each row that a stable sort puts first, given
    each row's ``k``-th smallest value ``cut``: those below the cut, then the
    earliest at it."""
    nearer, tied = dray < cut, dray == cut
    return nearer | (tied & (np.cumsum(tied, axis=-1) <= k - nearer.sum(-1, keepdims=True)))


def _seed_scores(s, o, a, ranges, k: int) -> np.ndarray:
    """Scale-free consistency score of candidate centers (lower is better).

    Per ray: perpendicular distance to the candidate (distance to the
    receiver itself when the candidate lies behind it) plus the deviation
    of the measured range from the candidate's distance after removing a
    shared offset fitted on the k nearest rays.  The score is the k-th
    smallest combined term, so it ignores however many rays disagree.

    ``s`` holds the x, y and z planes ``(3, ..., C)`` of the seeds, ``o``
    and ``a`` the ``(3, ..., n)`` planes of the ray origins and directions,
    and ``ranges`` is ``(..., n)``; the ``(..., C)`` scores are computed on
    ``(..., C, n)`` planes, in place: two ``(3, ..., C, n)`` buffers and
    three ``(..., C, n)`` ones hold the elementwise steps.  A norm is summed
    ``(x² + y²) + z²``, as ``np.linalg.norm`` along a length-3 axis rounds,
    and the along-ray dot ``(x + z) + y``, as ``np.einsum`` contracts one.
    The k nearest rays are those a stable sort puts first: the rays no
    farther than the k-th nearest distance, or :func:`_stable_near` in the
    rows where another ray ties with it.
    """
    d = s[..., :, None] - o[..., None, :]
    a = a[..., None, :]
    p = d * a
    along = p[0] + p[2]
    along += p[1]
    np.multiply(a, along, out=p)
    np.subtract(d, p, out=p)
    p *= p
    dray = p[0] + p[1]
    dray += p[2]
    np.sqrt(dray, out=dray)
    d *= d
    dist = d[0] + d[1]
    dist += d[2]
    np.sqrt(dist, out=dist)
    # The perpendicular distance where the candidate is ahead of the ray,
    # else the distance to its receiver; a NaN along counts as behind.
    np.copyto(dray, dist, where=np.logical_not(np.greater(along, 0.0)))
    offset = np.subtract(ranges[..., None, :], dist, out=dist)
    kk = min(k, dray.shape[-1])
    cut = np.partition(dray, kk - 1, axis=-1)[..., kk - 1 : kk]
    near = dray <= cut
    tied = near.sum(axis=-1) != kk
    if tied.any():
        near[tied] = _stable_near(dray[tied], cut[tied], kk)
    shared = _median(offset[near].reshape(*near.shape[:-1], kk))
    combined = np.subtract(offset, shared[..., None], out=offset)
    np.abs(combined, out=combined)
    combined += dray
    combined.partition(kk - 1, axis=-1)
    return combined[..., kk - 1]


def _misses(c, o, a, d, p, out):
    """Distances from points to the lines of rays, written to ``out``.

    ``c`` holds the ``(3, ...)`` planes of the points and ``o`` and ``a``
    those of the ray origins and unit directions, which broadcast against
    ``c[..., None]``; ``d`` and ``p`` are scratch planes of the broadcast
    shape.  A miss is ``|d - (d.a) a|`` with ``d = c - o``; the dot and the
    squared norm are summed ``(x + z) + y``, as ``np.einsum`` contracts a
    length-3 axis.
    """
    np.subtract(c[..., None], o, out=d)
    np.multiply(d, a, out=p)
    along = np.add(p[0], p[2], out=out)
    along += p[1]
    np.multiply(a, along, out=p)
    np.subtract(d, p, out=p)
    p *= p
    miss = np.add(p[0], p[2], out=out)
    miss += p[1]
    return np.sqrt(miss, out=miss)


def _ray_table(origins, dirs):
    """Every ray's ``[P | P o]`` row and its origin and direction planes.

    Takes ``(T, n, 3)`` rays and returns the ``(T, n, 12)`` rows -- the
    projector ``P = I - a a^T`` flattened, then ``P o``, its dot summed
    ``(x + z) + y`` -- and the ``(6, T, n)`` planes of the origins and
    directions.  A fit's normal equations are the weighted sums of its
    rays' rows, so the table is built once per call and gathered per fit.
    """
    planes = np.concatenate([_planes(origins), _planes(dirs)])
    o, a = planes[:3], planes[3:]
    po = o * a
    along = po[0] + po[2]
    along += po[1]
    np.multiply(a, along, out=po)
    np.subtract(o, po, out=po)
    proj = np.eye(3) - dirs[..., :, None] * dirs[..., None, :]
    rows = np.concatenate([proj.reshape(*dirs.shape[:-1], 9), np.moveaxis(po, 0, -1)], axis=-1)
    return rows, planes


def _fit_rays(table, kept, c, miss=None, iters: int = 8, floor: float = 1.0):
    """Run reweighted least-squares fits from ``c``, in place.

    ``table`` is :func:`_ray_table` of T trials, ``kept`` the ``(T, K,
    m)`` ray indices of each trial's K fits and ``c`` the contiguous ``(3,
    T*K)`` planes of their starts, which end as the fits.  ``miss``, when
    given, holds the ``(T*K, m)`` misses of the kept rays from the starts
    and is overwritten.  A step weighs every ray by ``w = 1/max(miss,
    floor)`` and solves ``sum(w P) c = sum(w P o)``: one product of each
    fit's ``w`` with its gathered rows and one batched 3x3 solve, on planes
    and buffers allocated once per call.  A fit is frozen when its step is
    below 1e-9 m (keeping the new point) or its solve fails (keeping the
    last); it stays in the stack, but its point is never updated again.
    """
    rows, planes = table
    m = kept.shape[-1]
    flat = kept + planes.shape[-1] * np.arange(len(kept))[:, None, None]
    rows = np.take(rows.reshape(-1, 12), flat, axis=0).reshape(-1, m, 12)
    o, a = np.take(planes.reshape(6, -1), flat, axis=1).reshape(2, 3, -1, m)
    d, p = np.empty((2, *o.shape))
    w = np.empty(o.shape[1:]) if miss is None else miss
    sums = np.empty((len(rows), 1, 12))
    step = np.empty_like(c)
    live = np.ones(c.shape[1], dtype=bool)
    for it in range(iters):
        if it or miss is None:
            _misses(c, o, a, d, p, out=w)
        np.maximum(w, floor, out=w)
        np.divide(1.0, w, out=w)
        np.matmul(w[:, None, :], rows, out=sums)
        c_new, ok = _solve_3x3(sums[:, 0, :9].reshape(-1, 3, 3), sums[:, 0, 9:])
        ok &= live
        np.subtract(c_new.T, c, out=step)
        step *= step
        moved = np.add(step[0], step[2], out=step[0])
        moved += step[1]
        live = ok & (np.sqrt(moved, out=moved) >= 1e-9)
        np.copyto(c, c_new.T, where=ok)
        if not live.any():
            break


def _trimmed_ray_points(origins, dirs, c0, keep: int, rounds: int = 4):
    """Alternate between keeping each start's closest rays and refitting it.

    Takes the ``(T, n, 3)`` rays of T trials and the ``(T, K, 3)`` starts of
    each trial's K fits.  The ray table is built once; each round measures
    every start's misses on ``(3, T, K, n)`` buffers, keeps the nearest
    rays by a stable sort, and steps the fits from the kept rays' misses,
    which are those of their first step.
    """
    table = _ray_table(origins, dirs)
    o, a = table[1][:3, :, None], table[1][3:, :, None]
    c = np.ascontiguousarray(_planes(np.array(c0, dtype=float)))
    fits = c.reshape(3, -1)
    d, p = np.empty((2, *c.shape, origins.shape[-2]))
    dray = np.empty(d.shape[1:])
    # Where each fit's misses start in the flattened (T, K, n) misses.
    firsts = dray.shape[-1] * np.arange(fits.shape[1]).reshape(*c.shape[1:], 1)
    for _ in range(rounds):
        _misses(c, o, a, d, p, out=dray)
        kept = np.argsort(dray, axis=-1, kind="stable")[..., : max(keep, 3)]
        _fit_rays(table, kept, fits, np.take(dray, kept + firsts).reshape(fits.shape[1], -1))
    return np.moveaxis(c, 0, -1).copy()


def _subset_scores(origins, dirs, ranges, near, rows) -> np.ndarray:
    """Self-consistency of candidate selections (lower is better).

    ``near`` holds ``(T, K, n)`` rankings of the receivers of T trials,
    whose rays are the ``(T, n, 3)`` origins and unit directions and whose
    measured ranges are ``(T, n)``; ``rows`` is ``(t, k, size)``, index
    arrays naming N selections: the ``size`` first receivers of ranking
    ``[t, k]``.  For each selection, fits the single point nearest its
    rays, then scores the worst perpendicular miss plus the spread of
    (measured range - distance to the point), which a shared clock offset
    cannot inflate.  An unsolvable fit scores inf.

    The fits' sums accumulate along each ranking, so each rounds as a sum
    over its selection in ranking order; the dots and norms are summed
    ``(x + z) + y``, as ``np.einsum`` contracts a length-3 axis.
    """
    t, k, size = rows
    lead = np.arange(len(near))[:, None, None]
    o, a = (np.ascontiguousarray(_planes(v))[:, lead, near] for v in (origins, dirs))
    along = (o[0] * a[0] + o[2] * a[2]) + o[1] * a[1]
    terms = np.concatenate([(a[:, None] * a).reshape(9, *near.shape), o - along * a])
    sums = np.cumsum(terms, axis=-1)[:, t, k, size - 1]
    normal = size[:, None, None] * np.eye(3) - sums[:9].T.reshape(-1, 3, 3)
    point, ok = _solve_3x3(normal, sums[9:].T)
    o, a = o[:, t, k], a[:, t, k]
    d = point.T[..., None] - o
    along = (d[0] * a[0] + d[2] * a[2]) + d[1] * a[1]
    p = d - along * a
    p *= p
    d *= d
    inside = np.arange(near.shape[-1]) < size[:, None]
    miss = np.where(inside, np.sqrt((p[0] + p[2]) + p[1]), -np.inf)
    offsets = ranges[lead, near][t, k] - np.sqrt((d[0] + d[2]) + d[1])
    spread = (
        np.where(inside, offsets, -np.inf).max(axis=1)
        - np.where(inside, offsets, np.inf).min(axis=1)
    )
    return np.where(ok, miss.max(axis=1) + spread, np.inf)


# Seed-ray cells (seeds x rays) scored at once by the seed pick: two trials
# of 18 rays, which keeps its temporaries under 1 MiB whatever the block size.
_SEED_CELLS = 6000


def _best_seeds(origins, dirs, ranges, centers):
    """Each trial's two best-scoring seeds among its pair midpoints and
    ``centers``.

    Takes ``(T, n, 3)`` rays, ``(T, n)`` ranges and ``(T, 2, 3)`` centers,
    and scores the trials in chunks of ``_SEED_CELLS``.  Every pair is
    scored and one without a usable midpoint scores +inf, so the stable
    order of the usable midpoints, followed by the centers, is that of a
    trial scored alone.
    """
    mids, usable = _pair_midpoints(origins, dirs)
    seeds = np.concatenate([mids, centers], axis=-2)
    planes = [np.ascontiguousarray(_planes(v)) for v in (seeds, origins, dirs)]
    step = max(1, _SEED_CELLS // (seeds.shape[1] * origins.shape[1]))
    scores = np.concatenate([
        _seed_scores(*(v[:, lo:lo + step] for v in planes), ranges[lo:lo + step], k=6)
        for lo in range(0, len(seeds), step)
    ])
    scores[:, : usable.shape[1]][~usable] = np.inf
    best = np.argsort(scores, axis=-1, kind="stable")[:, :2]
    return np.take_along_axis(seeds, best[..., None], axis=-2)


def _trimmed_centers(fixes, origins, dirs, ranges, c_cluster):
    """The four candidate ranking centers, in the order they are tried.

    Trimmed ray fits start from the cluster center and the median fix, then
    from the two best-scoring seeds among the pair midpoints and those two
    fits.  Every argument carries a leading axis of T trials of one ray
    count (``(T, n, 3)`` rays, ``(T, n)`` ranges, ``(T, 3)`` cluster
    centers); both fit stages and the seed pick run stacked over the
    trials, and the result is ``(T, 4, 3)``.
    """
    keep = max(3, origins.shape[-2] // 2)
    starts = np.stack([c_cluster, _median(np.moveaxis(fixes, -2, -1))], axis=-2)
    centers = _trimmed_ray_points(origins, dirs, starts, keep)
    best_seeds = _best_seeds(origins, dirs, ranges, centers)
    return np.concatenate(
        [centers, _trimmed_ray_points(origins, dirs, best_seeds, keep)], axis=-2
    )


def _rank_receivers(centers, fixes, origins, dirs, ranges):
    """Every center's ranking of its trial's receivers, and the winning
    center at every selection size.

    Takes ``(T, K, 3)`` centers, ``(T, n, 3)`` fixes and rays and ``(T,
    n)`` ranges.  At size s a center induces the selection of its s nearest
    fixes, a prefix of one stable order.  The first center to reach each
    member set stands for it, and the center whose set scores lowest wins,
    the earlier one on a tie.  Center k reaches center j's set when none of
    its s nearest ranks s or later from j.  Returns the ``(T, K, n)``
    distances and micrometer-quantized orders and the ``(T, n - 1)`` winners
    at sizes 2 to n.
    """
    n, stack = fixes.shape[-2], centers.shape[:2]
    d = _planes(fixes)[:, :, None] - _planes(centers)[..., None]
    d *= d
    dist = np.sqrt((d[0] + d[1]) + d[2])  # as np.linalg.norm rounds
    near = np.argsort(dist, axis=-1, kind="stable")
    rank = np.argsort(near, axis=-1)
    reach = np.maximum.accumulate(
        np.take_along_axis(rank[:, None], near[:, :, None], axis=-1), axis=-1
    )  # [t, k, j, i]: the worst rank from j among k's i + 1 nearest
    repeat = (reach == np.arange(n)) & np.tri(stack[1], k=-1, dtype=bool)[..., None]
    t, k, s = np.nonzero(~repeat.any(axis=2)[..., 1:])
    scores = np.full((*stack, n - 1), np.inf)
    scores[t, k, s] = _subset_scores(origins, dirs, ranges, near, (t, k, s + 2))
    # Micrometer quantization so exactly-tied distances rank in receiver
    # order instead of by floating-point jitter.
    order = np.argsort(np.round(dist, 6), axis=-1, kind="stable")
    return dist, order, np.argmin(scores, axis=1)


@dataclass
class LosCandidates:
    """A trial's picks, candidate centers and their rankings at every size.

    ``picks`` holds ``(receiver index, earliest path)`` per reporting
    receiver; ``fixes``, ``origins``, ``dirs`` and ``ranges`` are their
    ``(n, 3)`` rough fixes, receiver positions and unit ray directions and
    ``(n,)`` measured ranges; ``c_nlos`` is the center of the reflected-
    path cluster and ``centers`` are the four trimmed ray fits the ranking
    center is chosen from.  ``distances`` and ``orders`` are each center's
    ``(4, n)`` distances to the fixes and micrometer-quantized ranking, and
    ``winners[s - 2]`` is the index of the ranking center of a selection of
    s receivers, for s from 2 to n.
    """

    picks: list
    fixes: np.ndarray
    origins: np.ndarray
    dirs: np.ndarray
    ranges: np.ndarray
    c_nlos: np.ndarray
    centers: np.ndarray
    distances: np.ndarray
    orders: np.ndarray
    winners: np.ndarray


_TAU = attrgetter("tau")
_RAY = attrgetter("phi", "theta", "tau")


def _picks(paths_by_rrh) -> list:
    """``(receiver index, earliest path)`` of every reporting receiver.

    A pick whose azimuth, elevation or delay is not finite raises
    ``NumericalError``: its ray and rough fix would be undefined.
    """
    picks = [(idx, min(paths, key=_TAU)) for idx, paths in enumerate(paths_by_rrh) if paths]
    if len(picks) < 2:
        raise ScenarioError("selection needs paths from at least two receivers")
    if not all(math.isfinite(v) for _, pick in picks for v in _RAY(pick)):
        raise NumericalError("a receiver's earliest path has a non-finite angle or delay")
    return picks


def los_candidates_batch(paths_list, rrhs) -> list:
    """:func:`los_candidates` of many trials, stacked by pick count.

    Returns one entry per trial of ``paths_list``: its
    :class:`LosCandidates`, or the :class:`HybridlocError` its picks
    raised.  Picks run per trial; trials with equal pick counts share one
    ray build and the lockstep clustering, stacked trimmed fits, seed pick
    and rankings, which give each trial the record it gets alone.
    ``rrhs`` must be (N, 3), with one path list per receiver in every
    trial; otherwise the call raises ``DimensionMismatchError``.
    """
    rrhs = np.asarray(rrhs, dtype=float)
    if rrhs.ndim != 2 or rrhs.shape[1] != 3:
        raise DimensionMismatchError(f"rrhs of shape {rrhs.shape} is not (N, 3)")
    if any(len(paths_by_rrh) != len(rrhs) for paths_by_rrh in paths_list):
        raise DimensionMismatchError(f"path lists do not match {len(rrhs)} receivers")
    entries = [None] * len(paths_list)
    groups = {}  # pick count -> [(trial, picks)]
    for t, paths_by_rrh in enumerate(paths_list):
        try:
            picks = _picks(paths_by_rrh)
        except HybridlocError as exc:
            entries[t] = exc
            continue
        groups.setdefault(len(picks), []).append((t, picks))
    for members in groups.values():
        phi, theta, tau = np.moveaxis(
            np.array([[_RAY(pick) for _, pick in picks] for _, picks in members]), -1, 0
        )
        origins = rrhs[[[idx for idx, _ in picks] for _, picks in members]]
        dirs = angular_vectors(phi, theta)[0]
        ranges = SPEED_OF_LIGHT * tau
        fixes = origins + ranges[..., None] * dirs  # rough_fix of every pick
        c_cluster, c_nlos, _ = _kmeans2_stack(fixes)
        rays = (fixes, origins, dirs, ranges)
        centers = _trimmed_centers(*rays, c_cluster)
        for (t, picks), *fields in zip(members, *rays, c_nlos, centers,
                                       *_rank_receivers(centers, *rays)):
            entries[t] = LosCandidates(picks, *fields)
    return entries


def los_candidates(paths_by_rrh, rrhs) -> LosCandidates:
    """Picks, rough fixes, clusters, candidate centers and rankings of one
    trial.

    Every selection of the trial, whatever its ``n_a``, is read from this
    record.  It is the batch of one.
    """
    (entry,) = los_candidates_batch([paths_by_rrh], rrhs)
    if isinstance(entry, HybridlocError):
        raise entry
    return entry


def select_los(
    paths_by_rrh,
    rrhs,
    n_a: int | None = None,
    candidates: LosCandidates | None = None,
) -> SelectionResult:
    """Select the receivers whose earliest paths look direct.

    ``paths_by_rrh`` is a sequence (one entry per receiver) of path lists;
    receivers with empty lists are skipped.  With ``n_a`` given (an integer
    from 2 to the number of reporting receivers), exactly that many
    receivers are selected by ascending cluster distance; without it, picks
    below half the maximum pick energy are discarded and the rest are
    selected.  ``candidates`` is the trial's :func:`los_candidates`
    record, built here when not given; building it checks ``rrhs``
    (N, 3) against the N path lists.
    """
    if n_a is not None and (
        isinstance(n_a, bool) or not isinstance(n_a, numbers.Integral) or n_a < 2
    ):
        raise ScenarioError(f"n_a must be None or an integer >= 2, not {n_a!r}")
    if candidates is None:
        candidates = los_candidates(paths_by_rrh, rrhs)
    picks = candidates.picks
    if n_a is not None and n_a > len(picks):
        raise ScenarioError(f"cannot select {n_a} receivers from {len(picks)} reporting")

    subset_size = n_a if n_a is not None else min(6, len(picks))
    best = candidates.winners[subset_size - 2]
    order = candidates.orders[best].tolist()
    if n_a is not None:
        chosen = order[:n_a]
    else:
        p_max = max(pick.energy for _, pick in picks)
        chosen = [k for k in order if picks[k][1].energy >= 0.5 * p_max]
        if len(chosen) < 2:
            raise ScenarioError("energy threshold left fewer than two receivers")

    # Reference first: the highest-energy pick among those selected.
    ref_pos = max(range(len(chosen)), key=lambda i: picks[chosen[i]][1].energy)
    chosen[0], chosen[ref_pos] = chosen[ref_pos], chosen[0]

    chosen_set = set(chosen)
    los_set = [picks[k][1] for k in chosen]
    nlos_sets = {}
    for pos, (idx, pick) in enumerate(picks):
        rest = [p for p in paths_by_rrh[idx] if p is not pick]
        if pos not in chosen_set:
            rest = [pick] + rest
        if rest:
            nlos_sets[idx] = rest

    distances = dict(zip((idx for idx, _ in picks), candidates.distances[best].tolist()))
    return SelectionResult(
        los_set=los_set,
        nlos_sets=nlos_sets,
        c_los=candidates.centers[best],
        c_nlos=candidates.c_nlos,
        distances=distances,
    )


def simulate_paths_batch(sc, streams) -> list:
    """Synthesize per-receiver path lists for a block of selection trials.

    Trial ``t`` draws from ``streams[t]``.  Each receiver detects its
    direct path with probability ``sc.p_d`` and always detects one
    reflected path from a scatterer drawn uniformly in the scenario box.
    Delays carry the common clock offset plus Gaussian noise with the
    scenario's delay deviation; angles and rates are likewise perturbed.
    Path energy falls with the square of total path length, reflections
    attenuated a further factor of ten.

    Each trial takes its draws receiver by receiver (detection, direct-path
    noise if detected, scatterer, reflected-path noise); the paths are then
    evaluated at once: the noise-free direct paths, which every trial
    shares, once, and the reflected paths and noisy fields of the whole
    block as arrays.
    """
    rrhs = np.asarray(sc.rrhs, dtype=float)
    n = rrhs.shape[0]
    detected = np.zeros((len(streams), n), dtype=bool)
    los_noise, uniforms, nlos_noise = np.zeros((3, len(streams), n, 4))
    for t, rng in enumerate(streams):
        for idx in range(n):
            detected[t, idx] = rng.random() < sc.p_d
            if detected[t, idx]:
                rng.standard_normal(out=los_noise[t, idx])
            rng.random(out=uniforms[t, idx])
            rng.standard_normal(out=nlos_noise[t, idx])

    r, rdot, phi, theta = direct_paths(sc.ue_true, rrhs)
    rs_n1, rsdot_n1, phi_s, theta_s = np.moveaxis(
        scatterer_measurement(scatterer_states(sc, uniforms), sc.ue_true, rrhs, rrhs[0]), -1, 0
    )
    los = _noisy_paths(sc, phi, theta, r, rdot, los_noise, 1.0)
    nlos = _noisy_paths(sc, phi_s, theta_s, rs_n1 + r[0], rsdot_n1 + rdot[0], nlos_noise, 0.1)
    return [
        [
            [PathMeasurement(*los[t][idx], idx, True), PathMeasurement(*nlos[t][idx], idx)]
            if detected[t, idx] else [PathMeasurement(*nlos[t][idx], idx)]
            for idx in range(n)
        ]
        for t in range(len(streams))
    ]


def _noisy_paths(sc, phi, theta, r, rdot, noise, attenuation) -> list:
    """Nested lists of ``(phi, theta, tau, nu, energy)`` of paths of range
    ``r`` and rate ``rdot`` under unit ``noise`` (..., 4)."""
    delta_d = sc.noise.delta_d
    return np.stack([
        phi + sc.noise.delta_a * noise[..., 0],
        theta + sc.noise.delta_a * noise[..., 1],
        (r + sc.clock_bias_m + delta_d * noise[..., 2]) / SPEED_OF_LIGHT,
        rdot + sc.noise.fdoa_factor * delta_d * noise[..., 3],
        attenuation * _square(100.0 / np.broadcast_to(r, noise.shape[:-1])),
    ], axis=-1).tolist()


def simulate_paths(sc, rng) -> list:
    """One selection trial's path lists, drawn from ``rng``: the block of
    one of :func:`simulate_paths_batch`."""
    (paths_by_rrh,) = simulate_paths_batch(sc, [rng])
    return paths_by_rrh
