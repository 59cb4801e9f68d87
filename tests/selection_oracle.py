"""Retired forms of the selection kernels, kept as the test oracle.

Most are loop forms, the per-trial forms of the stacked kernels in
``hybridloc.selection``: one 3x3 projector ``I - a a^T`` per ray, one fit
at a time (its sums over the kept rays taken as one reduction) and one
``np.linalg.solve`` per fit step.  The loop forms share no code with the
package's kernels.  ``pick_center`` keys its duplicate
check on the member set, as the package does.  ``seed_scores`` scores one
trial's seeds on ``(C, n, 3)`` differences, with an ``einsum`` along-ray
dot, norms along the length-3 axis and a stable sort for the nearest rays.

Both arithmetic orders round differently, so a decision between two values
that are equal up to rounding (a ray at the edge of a trimmed set, a
receiver at the edge of a selection, two equal scores) may fall either
way.  Pair midpoints make such ties common: a midpoint is equidistant from
its two rays, so they may sit either side of the edge of a trimmed set or
of a seed's six nearest rays.  ``trimmed_ray_point``, ``best_seeds``,
``candidate_centers`` and ``pick_center`` therefore append the relative gap
at each such decision to ``gaps`` when given a list.

``solve_3x3`` is the retired form of ``selection._solve_3x3``: when the
batched solve raises, every row is solved again alone.

``simulate_paths`` is the receiver-by-receiver form of the trial
simulator, on the per-ray geometry of ``scalar_geometry``, and ``kmeans2``
the one-trial form of the lockstep two-center clustering: one Lloyd loop
per point set, member sums over the members alone.

``stacked_ray_points``, ``stacked_trimmed_ray_points`` and
``stacked_seed_scores`` are the retired stacked forms of the ray fits
(``test_selection.ray_points``, over ``_fit_rays``),
``_trimmed_ray_points`` and ``_seed_scores``: fresh temporaries at every
step, the fits' ``[P | P o]`` table rebuilt from the gathered rays at
every call, and the fits' along-ray dots and norms taken by
``np.einsum``.  The package's kernels must equal them bit for bit.  They
call the package's ``_solve_3x3``, ``_median`` and ``_stable_near``, which
the comparisons of ``_solve_3x3`` and of the seed pick with the loop forms
pin bit for bit.  These three kernels keep two retired forms
each: the loop forms stay because ``candidate_centers`` and
``refine_center`` need a per-trial control flow of their own, and the loop
forms match the stacked ones only up to rounding.
"""

import numpy as np

from hybridloc.geometry import SPEED_OF_LIGHT
from hybridloc.scenario import sample_scatterer_state
from hybridloc.selection import PathMeasurement, _median, _solve_3x3, _stable_near
from scalar_geometry import aoa_los, los_range, nlos_params, range_rate


def cluster_variance(points, center) -> float:
    if points.shape[0] == 0:
        return np.inf
    return float(np.mean(np.sum((points - center) ** 2, axis=1)))


def kmeans2(points, max_iters: int = 100):
    """Two-center Lloyd clustering of one ``(n, 3)`` point set: ``(c_los,
    c_nlos, labels)``, the larger cluster (the tighter on a size tie)
    first."""
    pts = np.asarray(points, dtype=float)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
    centers = np.array([pts[i], pts[j]], dtype=float)

    assign = np.zeros(pts.shape[0], dtype=int)
    for it in range(max_iters):
        diff = pts[:, None, :] - centers[None, :, :]
        dist = np.sqrt(np.add.reduce(diff * diff, axis=2))
        new_assign = np.argmin(dist, axis=1)
        if not 0 < new_assign.sum() < len(pts):
            for k in (0, 1):
                if not np.any(new_assign == k):
                    far = np.argmax(dist[:, 1 - k])
                    new_assign[far] = k
        if it > 0 and (new_assign == assign).all():
            break
        assign = new_assign
        for k, members in enumerate((assign == 0, assign == 1)):
            centers[k] = pts[members].sum(axis=0) / members.sum()

    size0 = int(np.sum(assign == 0))
    size1 = pts.shape[0] - size0
    if size0 != size1:
        los_k = 0 if size0 > size1 else 1
    else:
        var0 = cluster_variance(pts[assign == 0], centers[0])
        var1 = cluster_variance(pts[assign == 1], centers[1])
        los_k = 0 if var0 <= var1 else 1
    return centers[los_k], centers[1 - los_k], assign == los_k


def projectors(dirs):
    """The ``(n, 3, 3)`` stack of one projector ``I - a a^T`` per ray."""
    return np.eye(3) - dirs[:, :, None] * dirs[:, None, :]


def ray_misses(origins, projs, c):
    """Distance from ``c`` to each of the lines, ``(n,)``."""
    return np.linalg.norm((projs @ (c - origins)[:, :, None])[:, :, 0], axis=1)


def pair_midpoints(origins, dirs) -> list:
    mids = []
    n = origins.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = dirs[i], dirs[j]
            ab = float(a @ b)
            den = 1.0 - ab * ab
            if den < 1e-9:
                continue
            w = origins[j] - origins[i]
            t1 = (w @ a - ab * (w @ b)) / den
            t2 = (ab * (w @ a) - (w @ b)) / den
            if t1 <= 0.0 or t2 <= 0.0:
                continue
            mids.append(0.5 * (origins[i] + t1 * a + origins[j] + t2 * b))
    return mids


def ray_point(origins, projs, idx, c0, iters: int = 8, floor: float = 1.0):
    """One fit over the rays ``idx``: each step solves the normal equations
    of the rays weighted by the inverse of their misses (at least
    ``floor``), and stops on a singular or non-finite solve or a step
    below 1e-9."""
    c = np.array(c0, dtype=float)
    idx = np.asarray(idx)
    origins, projs = origins[idx], projs[idx]
    through = (projs @ origins[:, :, None])[:, :, 0]
    for _ in range(iters):
        w = 1.0 / np.maximum(ray_misses(origins, projs, c), floor)
        normal = np.einsum("k,kij->ij", w, projs)
        rhs = w @ through
        try:
            c_new = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError:
            return c
        if not np.all(np.isfinite(c_new)):
            return c
        if np.linalg.norm(c_new - c) < 1e-9:
            return c_new
        c = c_new
    return c


def solve_3x3(normal, rhs):
    """``selection._solve_3x3`` as it was: a raising batched solve retried
    row by row, a singular row left NaN."""
    try:
        x = np.linalg.solve(normal, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(rhs.shape, np.nan)
        for k in range(rhs.shape[0]):
            try:
                x[k] = np.linalg.solve(normal[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
    return x, np.isfinite(x).all(axis=1)


def _perp(diff, dirs):
    """Parts of ``diff`` perpendicular to ``dirs``: ``d - (d.a) a``, broadcast."""
    return diff - np.einsum("...i,...i->...", diff, dirs)[..., None] * dirs


def _norm(v):
    """Euclidean norms along the last axis."""
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def stacked_ray_points(origins, dirs, kept, c0, iters: int = 8, floor: float = 1.0):
    """The ray fits as they were: ``(T, n, 3)`` rays, ``(T, K, m)``
    kept rays and ``(T, K, 3)`` starts, the T*K fits stepped as one stack
    on fresh temporaries, frozen by mask."""
    lead, m = kept.shape[:-1], kept.shape[-1]
    kept = kept + origins.shape[1] * np.arange(origins.shape[0])[:, None, None]
    o = origins.reshape(-1, 3)[kept].reshape(-1, m, 3)
    a = dirs.reshape(-1, 3)[kept].reshape(-1, m, 3)
    proj = np.eye(3) - a[..., :, None] * a[..., None, :]
    table = np.concatenate([proj.reshape(-1, m, 9), _perp(o, a)], axis=-1)
    c = np.array(c0, dtype=float).reshape(-1, 3)
    live = np.ones(len(c), dtype=bool)
    for _ in range(iters):
        w = 1.0 / np.maximum(_norm(_perp(c[:, None, :] - o, a)), floor)
        sums = (w[:, None, :] @ table)[:, 0]
        c_new, ok = _solve_3x3(sums[:, :9].reshape(-1, 3, 3), sums[:, 9:])
        ok &= live
        live = ok & (_norm(c_new - c) >= 1e-9)
        c = np.where(ok[:, None], c_new, c)
        if not live.any():
            break
    return c.reshape(*lead, 3)


def stacked_trimmed_ray_points(origins, dirs, c0, keep: int, rounds: int = 4):
    """``selection._trimmed_ray_points`` as it was: each round's misses on
    ``(T, K, n, 3)`` differences, then ``stacked_ray_points`` of the kept rays."""
    c = np.array(c0, dtype=float)
    for _ in range(rounds):
        dray = _norm(_perp(c[..., None, :] - origins[..., None, :, :], dirs[..., None, :, :]))
        kept = np.argsort(dray, axis=-1, kind="stable")[..., : max(keep, 3)]
        c = stacked_ray_points(origins, dirs, kept, c)
    return c


def stacked_seed_scores(s, o, a, ranges, k: int) -> np.ndarray:
    """``selection._seed_scores`` as it was: ``(3, ..., C)`` seed planes
    against ``(3, ..., n)`` ray planes, on fresh ``(..., C, n)`` planes."""
    d = s[..., :, None] - o[..., None, :]
    a = a[..., None, :]
    along = (d[0] * a[0] + d[2] * a[2]) + d[1] * a[1]
    p = d - along * a
    p *= p
    perp = np.sqrt((p[0] + p[1]) + p[2])
    d *= d
    dist = np.sqrt((d[0] + d[1]) + d[2])
    dray = np.where(along > 0.0, perp, dist)
    offset = ranges[..., None, :] - dist
    kk = min(k, dray.shape[-1])
    cut = np.partition(dray, kk - 1, axis=-1)[..., kk - 1 : kk]
    near = dray <= cut
    tied = near.sum(axis=-1) != kk
    if tied.any():
        near[tied] = _stable_near(dray[tied], cut[tied], kk)
    shared = _median(offset[near].reshape(*near.shape[:-1], kk))
    combined = dray + np.abs(offset - shared[..., None])
    return np.partition(combined, kk - 1, axis=-1)[..., kk - 1]


def relative_gap(values, rank: int) -> float:
    """Gap between the ``rank``-th smallest value and the next, relative."""
    v = np.sort(np.asarray(values, dtype=float))
    if rank >= v.size or not np.isfinite(v[rank]):
        return np.inf
    return (v[rank] - v[rank - 1]) / max(abs(v[rank]), 1.0)


def trimmed_ray_point(origins, projs, c0, keep: int, rounds: int = 4, gaps=None):
    c = np.asarray(c0, dtype=float)
    for _ in range(rounds):
        dray = ray_misses(origins, projs, c)
        kept = np.argsort(dray, kind="stable")[: max(keep, 3)]
        if gaps is not None:
            gaps.append(relative_gap(dray, max(keep, 3)))
        c = ray_point(origins, projs, kept, c)
    return c


def subset_score(idx, origins, projs, ranges) -> float:
    normal = np.zeros((3, 3))
    rhs = np.zeros(3)
    for i in idx:
        normal += projs[i]
        rhs += projs[i] @ origins[i]
    try:
        point = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError:
        return np.inf
    if not np.all(np.isfinite(point)):
        return np.inf
    miss = [float(np.linalg.norm(projs[i] @ (point - origins[i]))) for i in idx]
    offsets = [float(ranges[i] - np.linalg.norm(point - origins[i])) for i in idx]
    return max(miss) + (max(offsets) - min(offsets))


def seed_scores(seeds, origins, dirs, ranges, k: int) -> np.ndarray:
    """Loop form of ``_seed_scores`` on one trial's ``(C, 3)`` seeds."""
    diff = seeds[:, None, :] - origins[None, :, :]
    along = np.einsum("cnd,nd->cn", diff, dirs)
    perp = np.linalg.norm(diff - along[..., None] * dirs[None], axis=2)
    dist = np.linalg.norm(diff, axis=2)
    dray = np.where(along > 0.0, perp, dist)
    offset = ranges[None, :] - dist
    kk = min(k, dray.shape[1])
    near = np.argsort(dray, axis=1, kind="stable")[:, :kk]
    shared = np.median(np.take_along_axis(offset, near, axis=1), axis=1)
    combined = dray + np.abs(offset - shared[:, None])
    return np.sort(combined, axis=1)[:, kk - 1]


def best_seeds(seeds, origins, dirs, ranges, gaps=None) -> list:
    """The two best-scoring of one trial's ``seeds``, earlier on a tie."""
    scores = seed_scores(np.array(seeds), origins, dirs, ranges, k=6)
    if gaps is not None:
        gaps.append(relative_gap(scores, 2))
    return [seeds[i] for i in np.argsort(scores, kind="stable")[:2]]


def candidate_centers(fixes, origins, dirs, ranges, c_cluster,
                      midpoints=pair_midpoints, gaps=None) -> list:
    """Loop form of ``_trimmed_centers``: the four centers, which do not
    depend on the selection size.

    ``midpoints`` may be a function giving the package's midpoints, so
    that both forms score bitwise-equal seeds.
    """
    projs = projectors(dirs)
    keep = max(3, origins.shape[0] // 2)
    centers = [
        trimmed_ray_point(origins, projs, c_cluster, keep, gaps=gaps),
        trimmed_ray_point(origins, projs, np.median(fixes, axis=0), keep, gaps=gaps),
    ]
    seeds = list(midpoints(origins, dirs)) + [np.array(c) for c in centers]
    for seed in best_seeds(seeds, origins, dirs, ranges, gaps):
        centers.append(trimmed_ray_point(origins, projs, seed, keep, gaps=gaps))
    return centers


def pick_center(centers, fixes, origins, dirs, ranges, subset_size: int, gaps=None):
    """Loop form of ``_best_center``: the center whose induced selection of
    ``subset_size`` fixes scores lowest, each member set scored once."""
    projs = projectors(dirs)
    best_center = None
    best_score = np.inf
    seen = set()
    scored = []
    for c in centers:
        d = np.linalg.norm(fixes - c, axis=1)
        subset = tuple(np.argsort(d, kind="stable")[:subset_size])
        if gaps is not None:
            gaps.append(relative_gap(d, subset_size))
        key = tuple(sorted(subset))
        if key in seen:
            continue
        seen.add(key)
        score = subset_score(subset, origins, projs, ranges)
        scored.append(score)
        if score < best_score:
            best_score = score
            best_center = c
    if gaps is not None:
        gaps.append(relative_gap(scored, 1))
    return best_center


def refine_center(fixes, origins, dirs, ranges, c_cluster, subset_size: int,
                  midpoints=pair_midpoints, gaps=None):
    """Loop form of ``_trimmed_centers`` followed by ``_best_center``."""
    centers = candidate_centers(fixes, origins, dirs, ranges, c_cluster, midpoints, gaps)
    return pick_center(centers, fixes, origins, dirs, ranges, subset_size, gaps)


def simulate_paths(sc, rng) -> list:
    u, udot = sc.ue_true[:3], sc.ue_true[3:]
    n_v = udot / np.linalg.norm(udot)
    delta_d = sc.noise.delta_d
    delta_nu = sc.noise.fdoa_factor * sc.noise.delta_d
    delta_a = sc.noise.delta_a

    paths_by_rrh = []
    for idx, b_n in enumerate(sc.rrhs):
        paths = []
        if rng.random() < sc.p_d:
            r = los_range(u, b_n)
            rdot = range_rate(u, udot, b_n)
            phi, theta = aoa_los(u, b_n)
            paths.append(
                PathMeasurement(
                    phi=phi + delta_a * rng.standard_normal(),
                    theta=theta + delta_a * rng.standard_normal(),
                    tau=(r + sc.clock_bias_m + delta_d * rng.standard_normal())
                    / SPEED_OF_LIGHT,
                    nu=rdot + delta_nu * rng.standard_normal(),
                    energy=(100.0 / r) ** 2,
                    rrh_index=idx,
                    is_los=True,
                )
            )
        xs = sample_scatterer_state(sc, rng)
        rs_n1, rsdot_n1, phi_s, theta_s = nlos_params(
            u, udot, xs[:3], xs[3] * n_v, b_n, sc.rrhs[0]
        )
        r_1 = los_range(u, sc.rrhs[0])
        rdot_1 = range_rate(u, udot, sc.rrhs[0])
        total = rs_n1 + r_1
        paths.append(
            PathMeasurement(
                phi=phi_s + delta_a * rng.standard_normal(),
                theta=theta_s + delta_a * rng.standard_normal(),
                tau=(total + sc.clock_bias_m + delta_d * rng.standard_normal())
                / SPEED_OF_LIGHT,
                nu=rsdot_n1 + rdot_1 + delta_nu * rng.standard_normal(),
                energy=0.1 * (100.0 / total) ** 2,
                rrh_index=idx,
                is_los=False,
            )
        )
        paths_by_rrh.append(paths)
    return paths_by_rrh
