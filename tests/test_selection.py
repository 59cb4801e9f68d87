"""Direct-path selection: rough fixes, clustering, ranking, and simulation."""

import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import selection_oracle as oracle
from hybridloc import selection
from hybridloc.errors import DimensionMismatchError, NumericalError, ScenarioError
from hybridloc.geometry import SPEED_OF_LIGHT
from hybridloc.noise import NoiseConfig
from hybridloc.scenario import DEFAULT_RRHS, Scenario
from hybridloc.selection import (
    PathMeasurement,
    kmeans2,
    los_candidates,
    los_candidates_batch,
    rough_fix,
    select_los,
    simulate_paths,
    simulate_paths_batch,
)
from scalar_geometry import aoa_los, los_range

U = np.array([250.0, 450.0, 0.0])
RRHS = np.asarray(DEFAULT_RRHS, dtype=float)


def los_path(b_n, idx, bias_m=0.0, energy=1.0):
    """Noise-free direct path from the default user to receiver idx."""
    r = los_range(U, b_n)
    phi, theta = aoa_los(U, b_n)
    return PathMeasurement(
        phi=phi,
        theta=theta,
        tau=(r + bias_m) / SPEED_OF_LIGHT,
        nu=0.0,
        energy=energy,
        rrh_index=idx,
        is_los=True,
    )


def detour_path(b_n, idx, via, bias_m=0.0, energy=0.01):
    """Noise-free reflected path through a scatterer at ``via``."""
    via = np.asarray(via, dtype=float)
    total = np.linalg.norm(via - b_n) + np.linalg.norm(U - via)
    phi, theta = aoa_los(via, b_n)
    return PathMeasurement(
        phi=phi,
        theta=theta,
        tau=(total + bias_m) / SPEED_OF_LIGHT,
        nu=0.0,
        energy=energy,
        rrh_index=idx,
        is_los=False,
    )


class TestRoughFix:
    def test_zero_delay_returns_receiver(self):
        p = PathMeasurement(phi=0.3, theta=-0.2, tau=0.0, nu=0.0, energy=1.0, rrh_index=0)
        assert np.allclose(rough_fix(p, RRHS[0]), RRHS[0])

    def test_noise_free_los_inverts_forward_model(self):
        for idx in range(6):
            fix = rough_fix(los_path(RRHS[idx], idx), RRHS[idx])
            assert np.allclose(fix, U, atol=1e-9)

    def test_clock_bias_displaces_along_ray(self):
        idx = 2
        fix0 = rough_fix(los_path(RRHS[idx], idx), RRHS[idx])
        fix1 = rough_fix(los_path(RRHS[idx], idx, bias_m=100.0), RRHS[idx])
        delta = fix1 - fix0
        assert np.isclose(np.linalg.norm(delta), 100.0, atol=1e-9)
        ray = (U - RRHS[idx]) / np.linalg.norm(U - RRHS[idx])
        assert np.allclose(delta / 100.0, ray, atol=1e-12)


POINT_SETS = ("scatter", "duplicates", "identical", "exact blobs", "blobs", "fixes")


def point_set(seed, n, kind):
    """``n`` 3-D points of one kind.

    "duplicates" repeats a few points; "identical" is one point n times;
    "exact blobs" are two equal-size sets of copies of one point each, and
    "blobs" two equal-size spreads, so both need the size tie-break (the
    first by a variance tie); "fixes" are the rough fixes of a ray bundle
    with a third of them slid outward, as reflections are.
    """
    rng = np.random.default_rng(seed)
    if kind == "scatter":
        return U + rng.normal(0.0, 100.0, (n, 3))
    if kind == "duplicates":
        few = U + rng.normal(0.0, 100.0, (max(1, n // 3), 3))
        return few[rng.integers(0, len(few), n)]
    if kind == "identical":
        return np.tile(U + rng.normal(0.0, 100.0, 3), (n, 1))
    half = np.arange(n) < n // 2
    if kind == "exact blobs":
        return np.where(half[:, None], U, U + rng.normal(0.0, 100.0, 3))
    if kind == "blobs":
        spread = np.where(half[:, None], 1.0, 3.0) * rng.normal(0.0, 1.0, (n, 3))
        return np.where(half[:, None], U, U + 50.0) + spread
    origins, dirs, ranges, _ = ray_bundle(seed, n, False, False, False)
    return origins + (ranges + 150.0 * (rng.random(n) < 1 / 3))[:, None] * dirs


def assert_lockstep_equals_loop(pts, max_iters=100):
    c_los, c_nlos, labels = selection._kmeans2_stack(pts, max_iters)
    for t, row in enumerate(pts):
        old = oracle.kmeans2(row, max_iters)
        for new, ref in zip((c_los[t], c_nlos[t], labels[t]), old):
            assert np.array_equal(new, ref), t


class TestKmeans2:
    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(5)
        blob_a = rng.normal([0.0, 0.0, 0.0], 0.5, size=(12, 3))
        blob_b = rng.normal([50.0, 0.0, 0.0], 0.5, size=(5, 3))
        c_los, c_nlos, labels = kmeans2(np.vstack([blob_a, blob_b]))
        assert np.linalg.norm(c_los - blob_a.mean(axis=0)) < 0.5
        assert np.linalg.norm(c_nlos - blob_b.mean(axis=0)) < 0.5
        assert labels[:12].all() and not labels[12:].any()

    def test_identical_points(self):
        pts = np.tile([1.0, 2.0, 3.0], (6, 1))
        c_los, c_nlos, labels = kmeans2(pts)
        assert np.allclose(c_los, [1.0, 2.0, 3.0])
        assert np.allclose(c_nlos, [1.0, 2.0, 3.0])

    def test_six_close_two_far(self):
        fixes = [rough_fix(los_path(RRHS[i], i), RRHS[i]) for i in range(6)]
        fixes.append(np.array([240.0, 800.0, 10.0]))
        fixes.append(np.array([270.0, 700.0, 15.0]))
        _, _, labels = kmeans2(np.array(fixes))
        assert labels[:6].all()
        assert labels.sum() == 6

    def test_too_few_points_raises(self):
        with pytest.raises(ScenarioError):
            kmeans2(np.zeros((1, 3)))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 18),
        st.lists(st.sampled_from(POINT_SETS), min_size=1, max_size=12),
    )
    @settings(max_examples=200)
    def test_lockstep_equals_loop_trial_by_trial(self, seed, n, kinds):
        pts = np.array([point_set(seed + t, n, kind) for t, kind in enumerate(kinds)])
        assert_lockstep_equals_loop(pts)

    def test_trials_converging_at_different_steps(self):
        # Point sets whose centers settle after one to four updates, with
        # the exact blobs (one update); capping the steps stops the stack
        # with some trials settled and others moving.
        pts = np.array(
            [point_set(seed, 12, "scatter") for seed in (0, 3, 8, 107)]
            + [point_set(3, 12, "exact blobs")]
        )
        final = [oracle.kmeans2(row) for row in pts]
        settled = [
            next(
                cap for cap in range(1, 101)
                if all(np.array_equal(a, b) for a, b in zip(oracle.kmeans2(row, cap), ref))
            )
            for row, ref in zip(pts, final)
        ]
        assert settled == [1, 2, 3, 4, 1]
        for cap in range(1, 7):
            assert_lockstep_equals_loop(pts, cap)


class TestSelectLos:
    def test_all_los_noise_free_success(self):
        paths = [[los_path(RRHS[i], i, energy=1.0 + 0.1 * i)] for i in range(6)]
        sel = select_los(paths, RRHS[:6], n_a=6)
        assert sel.all_selected_are_los()
        assert sorted(sel.selected_indices) == list(range(6))
        # Reference (first entry) is the highest-energy pick.
        assert sel.los_set[0].rrh_index == 5

    def test_detour_excluded(self):
        paths = []
        for i in range(6):
            paths.append([los_path(RRHS[i], i)])
        # Receiver 6 only sees a reflection with a long detour.
        paths.append([detour_path(RRHS[6], 6, via=[260.0, 700.0, 10.0])])
        sel = select_los(paths, RRHS[:7], n_a=6)
        assert sel.all_selected_are_los()
        assert 6 not in sel.selected_indices
        assert 6 in sel.nlos_sets

    def test_no_duplicate_receivers(self):
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), n_a=4, p_d=0.5)
        for t in range(25):
            rng = np.random.default_rng([11, t])
            sel = select_los(simulate_paths(sc, rng), sc.rrhs, n_a=4)
            idx = sel.selected_indices
            assert len(idx) == len(set(idx)) == 4

    def test_selected_and_remainder_disjoint(self):
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), n_a=4, p_d=0.5)
        rng = np.random.default_rng(13)
        paths = simulate_paths(sc, rng)
        sel = select_los(paths, sc.rrhs, n_a=4)
        selected = {id(p) for p in sel.los_set}
        remainder = {id(p) for ps in sel.nlos_sets.values() for p in ps}
        assert not selected & remainder
        total = sum(len(ps) for ps in paths)
        assert len(selected) + len(remainder) == total

    def test_clock_bias_invariance_noise_free(self):
        # All receivers see the direct path only; a common clock offset
        # slides every rough fix along its own ray and must not change
        # which receivers are picked.
        for n_a in (4, 6):
            sels = []
            for bias in (0.0, 100.0):
                paths = [
                    [los_path(RRHS[i], i, bias_m=bias, energy=1.0 + 0.05 * i)]
                    for i in range(9)
                ]
                sels.append(select_los(paths, RRHS[:9], n_a=n_a))
            assert sels[0].selected_indices == sels[1].selected_indices

    def test_energy_threshold_mode(self):
        paths = [[los_path(RRHS[i], i, energy=1.0)] for i in range(5)]
        paths.append([los_path(RRHS[5], 5, energy=0.2)])  # below half of max
        sel = select_los(paths, RRHS[:6], n_a=None)
        assert 5 not in sel.selected_indices
        assert sorted(sel.selected_indices) == list(range(5))

    def test_insufficient_receivers_raise(self):
        paths = [[los_path(RRHS[0], 0)], []]
        with pytest.raises(ScenarioError):
            select_los(paths, RRHS[:2], n_a=2)

    def test_n_a_larger_than_reporting_raises(self):
        paths = [[los_path(RRHS[i], i)] for i in range(3)]
        with pytest.raises(ScenarioError):
            select_los(paths, RRHS[:3], n_a=4)

    @pytest.mark.parametrize("n_a", [0, 1, -1, 1.5, 4.0, True, "4"])
    def test_n_a_must_be_an_integer_of_at_least_two(self, n_a):
        # 0 used to fail inside numpy, -1 to select all but one receiver
        # and 1.5 to raise TypeError.
        paths = [[los_path(RRHS[i], i)] for i in range(18)]
        candidates = los_candidates(paths, RRHS)
        for given in (None, candidates):
            with pytest.raises(ScenarioError, match="n_a must be None or an integer >= 2"):
                select_los(paths, RRHS, n_a=n_a, candidates=given)

    @pytest.mark.parametrize("rrhs", [RRHS[:8], RRHS[:9, :2], RRHS[:9].ravel()],
                             ids=["too_few_rows", "two_columns", "flat"])
    def test_rrhs_must_match_the_path_lists(self, rrhs):
        # Too few rows used to raise IndexError, two columns a broadcast
        # ValueError.
        paths = [[los_path(RRHS[i], i)] for i in range(9)]
        with pytest.raises(DimensionMismatchError):
            select_los(paths, rrhs, n_a=4)
        with pytest.raises(DimensionMismatchError):
            los_candidates_batch([paths, paths], rrhs)

    def test_numpy_integer_n_a_selects_as_int(self):
        paths = [[los_path(RRHS[i], i, energy=1.0 + 0.1 * i)] for i in range(9)]
        for n_a in (2, 4, 9):
            sel = select_los(paths, RRHS[:9], n_a=np.int64(n_a))
            assert sel.selected_indices == select_los(paths, RRHS[:9], n_a=n_a).selected_indices


class TestSimulatePaths:
    def test_path_counts_and_tags(self):
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), p_d=0.5)
        rng = np.random.default_rng(2)
        paths = simulate_paths(sc, rng)
        assert len(paths) == 18
        for per_rrh in paths:
            assert len(per_rrh) in (1, 2)
            # Exactly one reflected path per receiver.
            assert sum(not p.is_los for p in per_rrh) == 1

    def test_los_fraction_tracks_p_d(self):
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), p_d=0.5)
        rng = np.random.default_rng(8)
        los = sum(
            any(p.is_los for p in per)
            for _ in range(300)
            for per in simulate_paths(sc, rng)
        )
        assert 0.45 < los / (300 * 18) < 0.55

    def test_reflection_always_slower(self):
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), p_d=1.0)
        rng = np.random.default_rng(21)
        for per_rrh in simulate_paths(sc, rng):
            direct = [p for p in per_rrh if p.is_los]
            reflected = [p for p in per_rrh if not p.is_los]
            assert direct and reflected
            assert reflected[0].tau > direct[0].tau
            assert reflected[0].energy < direct[0].energy

    @pytest.mark.parametrize("p_d", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("bias", [0.0, 100.0])
    def test_equals_receiver_loop_field_for_field(self, p_d, bias):
        sc = Scenario(
            noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), p_d=p_d, clock_bias_m=bias
        )
        for t in range(60):
            stacked = simulate_paths(sc, np.random.default_rng([53, t]))
            loop = oracle.simulate_paths(sc, np.random.default_rng([53, t]))
            assert stacked == loop, (p_d, bias, t)

    @pytest.mark.parametrize("p_d", [0.3, 1.0])
    @pytest.mark.parametrize("bias", [0.0, 100.0])
    def test_block_equals_trials_alone(self, p_d, bias):
        sc = Scenario(
            noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), p_d=p_d, clock_bias_m=bias
        )
        streams = [np.random.default_rng([59, t]) for t in range(25)]
        block = simulate_paths_batch(sc, streams)
        assert len(block) == 25
        for t, paths in enumerate(block):
            assert paths == simulate_paths(sc, np.random.default_rng([59, t])), (p_d, bias, t)

    def test_success_rate_meets_target(self):
        # Operating point: 4 selected of 18 receivers, small noise, half
        # detection, with and without a 100 m shared clock offset.
        trials = 400
        rates = {}
        for bias in (0.0, 100.0):
            sc = Scenario(
                noise=NoiseConfig(delta_d=0.1, delta_a=0.0175),
                n_a=4,
                p_d=0.5,
                clock_bias_m=bias,
            )
            wins = 0
            for t in range(trials):
                rng = np.random.default_rng([17, t])
                sel = select_los(simulate_paths(sc, rng), sc.rrhs, n_a=4)
                wins += sel.all_selected_are_los()
            rates[bias] = wins / trials
        assert rates[0.0] > 0.78
        assert rates[100.0] > 0.78


def assert_same_record(new, old):
    """Two LosCandidates records hold the same picks and equal arrays."""
    assert [(i, id(p)) for i, p in new.picks] == [(i, id(p)) for i, p in old.picks]
    names = ("fixes", "origins", "dirs", "ranges", "c_nlos", "centers", "distances", "orders")
    for name in (*names, "winners"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name


def outcome(select):
    """A selection's fields, or the class and message of what it raised."""
    try:
        sel = select()
    except ScenarioError as exc:
        return type(exc), str(exc)
    return (
        sel.selected_indices,
        [id(p) for p in sel.los_set],
        sel.c_los.tolist(),
        sel.c_nlos.tolist(),
        sel.distances,
        {k: [id(p) for p in ps] for k, ps in sel.nlos_sets.items()},
    )


class TestLosCandidates:
    @pytest.mark.parametrize("p_d", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("bias", [0.0, 100.0])
    def test_one_record_serves_every_n_a(self, p_d, bias):
        # One record is reused across the whole grid, so a finish that
        # altered it would show up in the later counts.
        sc = Scenario(
            noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), p_d=p_d, clock_bias_m=bias
        )
        for t in range(15):
            paths = simulate_paths(sc, np.random.default_rng([61, t]))
            candidates = los_candidates(paths, sc.rrhs)
            for n_a in (2, 3, 4, 5, 6, None):
                alone = outcome(lambda: select_los(paths, sc.rrhs, n_a=n_a))
                shared = outcome(
                    lambda: select_los(paths, sc.rrhs, n_a=n_a, candidates=candidates)
                )
                assert shared == alone, (p_d, bias, t, n_a)

    def test_energy_threshold_mode_from_candidates(self):
        # Simulated trials often leave fewer than two receivers above the
        # energy gate and raise; here five of six pass it.
        paths = [[los_path(RRHS[i], i, energy=1.0)] for i in range(5)]
        paths.append([los_path(RRHS[5], 5, energy=0.2)])
        candidates = los_candidates(paths, RRHS[:6])
        alone = outcome(lambda: select_los(paths, RRHS[:6]))
        assert outcome(lambda: select_los(paths, RRHS[:6], candidates=candidates)) == alone
        assert sorted(alone[0]) == list(range(5))

    def test_n_a_above_reporting_raises_with_candidates(self):
        paths = [[los_path(RRHS[i], i)] for i in range(3)]
        candidates = los_candidates(paths, RRHS[:3])
        with pytest.raises(ScenarioError, match="cannot select 4 receivers from 3"):
            select_los(paths, RRHS[:3], n_a=4, candidates=candidates)

    def test_too_few_reporting_raises(self):
        with pytest.raises(ScenarioError, match="at least two receivers"):
            los_candidates([[los_path(RRHS[0], 0)], []], RRHS[:2])

    @pytest.mark.parametrize("p_d", [0.3, 1.0])
    @pytest.mark.parametrize("bias", [0.0, 100.0])
    def test_fixes_are_the_rough_fixes(self, p_d, bias):
        sc = Scenario(
            noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), p_d=p_d, clock_bias_m=bias
        )
        for t in range(15):
            paths = simulate_paths(sc, np.random.default_rng([67, t]))
            c = los_candidates(paths, sc.rrhs)
            fixes = [rough_fix(pick, sc.rrhs[idx]) for idx, pick in c.picks]
            assert np.array_equal(c.fixes, np.array(fixes)), (p_d, bias, t)

    @pytest.mark.parametrize("field, value", [("phi", np.nan), ("theta", np.nan),
                                              ("tau", np.inf), ("tau", -np.inf)])
    def test_non_finite_pick_fails_its_trial_alone(self, field, value):
        # A NaN angle or an infinite delay used to reach the seed pick and
        # raise numpy's reshape ValueError for the whole block.
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), p_d=0.5)
        block = [simulate_paths(sc, np.random.default_rng([73, t])) for t in range(4)]
        alone = [los_candidates(paths, RRHS) for paths in block]
        poisoned = [list(paths) for paths in block[1]]
        receiver = next(i for i, paths in enumerate(poisoned) if paths)
        # The receiver's only path, so that it is the pick.
        poisoned[receiver] = [dataclasses.replace(poisoned[receiver][0], **{field: value})]
        block[1] = poisoned
        entries = los_candidates_batch(block, RRHS)
        assert isinstance(entries[1], NumericalError)
        assert "non-finite" in str(entries[1])
        for t in (0, 2, 3):
            assert_same_record(entries[t], alone[t])
        for n_a in (4, None):
            with pytest.raises(NumericalError, match="non-finite"):
                select_los(poisoned, RRHS, n_a=n_a)

    def test_block_isolates_its_trials(self):
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), p_d=0.5)
        normal = simulate_paths(sc, np.random.default_rng([71, 0]))
        solo = [[] for _ in RRHS]
        solo[4] = normal[4]
        one_silent = simulate_paths(sc, np.random.default_rng([71, 1]))
        one_silent[7] = []
        pair = [paths if i in (0, 1) else [] for i, paths in enumerate(normal)]
        # Receivers 6 and 12 share a site; one ray along +x from both makes
        # every fit of this trial singular, so the stacked solves of its
        # group (it and ``pair``) fall back to row by row.
        copies = [[] for _ in RRHS]
        for i in (6, 12):
            copies[i] = [PathMeasurement(0.0, 0.0, 300.0 / SPEED_OF_LIGHT, 0.0, 1.0, i)]
        block = [normal, solo, one_silent, pair, copies]
        entries = los_candidates_batch(block, RRHS)
        for paths, entry in zip(block, entries):
            if paths is solo:
                assert isinstance(entry, ScenarioError)
                with pytest.raises(ScenarioError, match=re.escape(str(entry))):
                    los_candidates(paths, RRHS)
            else:
                assert_same_record(entry, los_candidates(paths, RRHS))
        assert [len(e.picks) for e in entries if e is not entries[1]] == [18, 17, 2, 2]
        # The singular fits never leave their start, the common fix.
        c = entries[4]
        assert np.array_equal(c.centers, np.tile(c.fixes[0], (4, 1)))


# ---------------------------------------------------------------------------
# Stacked ray kernels against the per-ray loop oracle


def ray_bundle(seed, n, near_parallel, behind, coincident, copies=0):
    """Receivers around the default array, rays aimed near a common point.

    The flags add the awkward cases a selection meets: a near-parallel
    pair, rays pointing away from the common point, and two receivers at
    one site (as rows 6 and 12 of ``DEFAULT_RRHS``).  Rays 1 to ``copies``
    - 1 are copies of ray 0, so distances to them tie.
    """
    rng = np.random.default_rng(seed)
    origins = RRHS[rng.integers(0, len(RRHS), n)] + rng.normal(0.0, 30.0, (n, 3))
    target = U + rng.normal(0.0, 50.0, 3)
    dirs = target - origins + rng.normal(0.0, 20.0, (n, 3))
    if near_parallel:
        origins[1] = origins[0] + rng.normal(0.0, 1.0, 3)
        dirs[1] = dirs[0] / np.linalg.norm(dirs[0]) + rng.normal(0.0, 1e-6, 3)
    if behind:
        dirs[-1] = -dirs[-1]
    if coincident:
        origins[n // 2] = origins[0]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origins[1:copies], dirs[1:copies] = origins[0], dirs[0]
    ranges = np.linalg.norm(target - origins, axis=1) + rng.normal(0.0, 5.0, n)
    return origins, dirs, ranges, rng


bundles = st.builds(
    ray_bundle,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 18),
    near_parallel=st.booleans(),
    behind=st.booleans(),
    coincident=st.booleans(),
)


def ray_stack(seed, n, flags, copies):
    """T = len(flags) bundles of n rays, each with its own awkward cases and
    ``copies`` copies of ray 0: ``(T, n, 3)`` origins and dirs, ``(T, n)``
    ranges and a generator."""
    stack = [ray_bundle(seed + t, n, *f, copies) for t, f in enumerate(flags)]
    return (*(np.array([b[i] for b in stack]) for i in range(3)), np.random.default_rng(seed))


ray_stacks = st.builds(
    ray_stack,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 18),
    flags=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=4),
    copies=st.integers(0, 8),
)


def assert_close(new, old, scale):
    np.testing.assert_allclose(new, old, rtol=1e-9, atol=1e-9 * scale)


def usable_midpoints(origins, dirs):
    """The package's midpoints of the pairs that count, ``(M, 3)``."""
    mids, usable = selection._pair_midpoints(origins, dirs)
    return mids[usable]


def ray_points(origins, dirs, kept, c0):
    """The package's fits from ``(T, K, 3)`` starts ``c0``: ``_fit_rays`` of
    the ``(T, K, m)`` ray indices ``kept``, on the ray table of ``(T, n, 3)``
    rays, from the starts' own misses; ``(T, K, 3)`` points."""
    c = np.ascontiguousarray(selection._planes(np.array(c0, dtype=float)))
    selection._fit_rays(selection._ray_table(origins, dirs), kept, c.reshape(3, -1))
    return np.moveaxis(c, 0, -1).copy()


class TestStackedKernelsMatchLoops:
    @given(bundles)
    @settings(max_examples=150)
    def test_pair_midpoints(self, bundle):
        origins, dirs, _, _ = bundle
        new = usable_midpoints(origins, dirs)
        old = np.array(oracle.pair_midpoints(origins, dirs)).reshape(-1, 3)
        assert new.shape == old.shape
        assert_close(new, old, 1e3)

    @given(bundles, st.integers(1, 4))
    @settings(max_examples=150)
    def test_ray_points(self, bundle, k):
        origins, dirs, _, rng = bundle
        m = min(origins.shape[0], 3 + int(rng.integers(0, 4)))
        kept = np.array([rng.permutation(origins.shape[0])[:m] for _ in range(k)])
        starts = U + rng.normal(0.0, 100.0, (k, 3))
        (new,) = ray_points(origins[None], dirs[None], kept[None], starts[None])
        projs = oracle.projectors(dirs)
        for row in range(k):
            old = oracle.ray_point(origins, projs, kept[row], starts[row])
            assert_close(new[row], old, 1e3)

    @given(bundles, st.integers(1, 4))
    @settings(max_examples=150)
    def test_trimmed_ray_points(self, bundle, k):
        origins, dirs, _, rng = bundle
        keep = max(3, origins.shape[0] // 2)
        starts = U + rng.normal(0.0, 100.0, (k, 3))
        (new,) = selection._trimmed_ray_points(origins[None], dirs[None], starts[None], keep)
        projs = oracle.projectors(dirs)
        for row in range(k):
            gaps = []
            old = oracle.trimmed_ray_point(origins, projs, starts[row], keep, gaps=gaps)
            if min(gaps) > 1e-9:
                assert_close(new[row], old, 1e3)

    @given(bundles, st.integers(1, 4))
    @settings(max_examples=150)
    def test_subset_scores(self, bundle, k):
        origins, dirs, ranges, rng = bundle
        size = int(rng.integers(2, origins.shape[0] + 1))
        rankings = np.array([rng.permutation(origins.shape[0]) for _ in range(k)])
        rows = (np.zeros(k, dtype=int), np.arange(k), np.full(k, size))
        new = selection._subset_scores(
            *(v[None] for v in (origins, dirs, ranges, rankings)), rows
        )
        projs = oracle.projectors(dirs)
        for row, subset in enumerate(rankings[:, :size]):
            # A subset of only the near-parallel pair has no well-posed point.
            if np.linalg.cond(sum(projs[i] for i in subset)) < 1e6:
                old = oracle.subset_score(subset, origins, projs, ranges)
                assert_close(new[row], old, 1e3)

    @given(bundles, st.integers(2, 6))
    @settings(max_examples=100)
    def test_refine_center(self, bundle, subset_size):
        origins, dirs, ranges, _ = bundle
        fixes = origins + ranges[:, None] * dirs
        c_cluster = fixes[: max(2, origins.shape[0] // 2)].mean(axis=0)
        size = min(subset_size, origins.shape[0])
        args = (fixes, origins, dirs, ranges, c_cluster, size)
        gaps = []
        old = oracle.refine_center(*args, midpoints=usable_midpoints, gaps=gaps)
        # A decision between values equal up to rounding may go either way.
        assume(min(gaps) > 1e-9)
        rays = tuple(v[None] for v in (fixes, origins, dirs, ranges))
        centers = selection._trimmed_centers(*rays, c_cluster[None])
        (winners,) = selection._rank_receivers(centers, *rays)[2]
        assert_close(centers[0, winners[size - 2]], old, 1e3)

    @given(bundles, st.lists(st.integers(0, 3), min_size=4, max_size=4))
    @settings(max_examples=100)
    def test_rankings_at_every_size(self, bundle, copies):
        # Four centers near the rays' common point; ``copies[k]`` names an
        # earlier center that center k repeats (itself when not earlier),
        # so several centers often reach one member set.
        origins, dirs, ranges, rng = bundle
        n = origins.shape[0]
        fixes = origins + ranges[:, None] * dirs
        centers = U + rng.normal(0.0, 40.0, (4, 3))
        for k, j in enumerate(copies):
            centers[k] = centers[min(j, k)]
        dist, order, winners = (
            v[0]
            for v in selection._rank_receivers(
                *(v[None] for v in (centers, fixes, origins, dirs, ranges))
            )
        )
        assert winners.shape == (n - 1,)
        for k, c in enumerate(centers):
            d = np.linalg.norm(fixes - c, axis=1)
            assert np.array_equal(dist[k], d)
            assert np.array_equal(order[k], np.argsort(np.round(d, 6), kind="stable"))
        for size in range(2, n + 1):
            gaps = []
            old = oracle.pick_center(list(centers), fixes, origins, dirs, ranges, size, gaps)
            # A decision between values equal up to rounding may go either
            # way; an oracle that scored every set inf picks no center.
            if old is not None and min(gaps) > 1e-9:
                assert np.array_equal(centers[winners[size - 2]], old), size

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 18),
        st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=4),
        st.integers(1, 4),
    )
    @settings(max_examples=100)
    def test_trial_axis_matches_single_trials(self, seed, n, flags, k):
        # T = len(flags) bundles of n rays, each with its own awkward cases.
        bundles = [ray_bundle(seed + t, n, *f) for t, f in enumerate(flags)]
        trials = len(bundles)
        origins = np.array([b[0] for b in bundles])
        dirs = np.array([b[1] for b in bundles])
        rng = np.random.default_rng(seed)
        m = min(n, 3 + int(rng.integers(0, 4)))
        kept = np.array([[rng.permutation(n)[:m] for _ in range(k)] for _ in range(trials)])
        starts = U + rng.normal(0.0, 100.0, (trials, k, 3))
        keep = max(3, n // 2)
        points = ray_points(origins, dirs, kept, starts)
        trimmed = selection._trimmed_ray_points(origins, dirs, starts, keep)
        for t in range(trials):
            one = slice(t, t + 1)
            alone = ray_points(origins[one], dirs[one], kept[one], starts[one])
            assert np.array_equal(points[one], alone)
            alone = selection._trimmed_ray_points(origins[one], dirs[one], starts[one], keep)
            assert np.array_equal(trimmed[one], alone)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 18),
        st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=7),
        st.integers(1, 3000),
    )
    @settings(max_examples=100)
    def test_seed_pick_matches_trial_by_trial(self, seed, n, flags, cells):
        # T = len(flags) bundles; the cell budget sets chunks of 1 to T
        # trials, so T is often no multiple of the chunk.  Near-parallel
        # and backward rays leave pairs without a usable midpoint.
        bundles = [ray_bundle(seed + t, n, *f) for t, f in enumerate(flags)]
        origins, dirs, ranges = (np.array([b[i] for b in bundles]) for i in range(3))
        rng = np.random.default_rng(seed)
        centers = U + rng.normal(0.0, 100.0, (len(bundles), 2, 3))
        with mock.patch.object(selection, "_SEED_CELLS", cells):
            best = selection._best_seeds(origins, dirs, ranges, centers)
        for t in range(len(bundles)):
            seeds = list(usable_midpoints(origins[t], dirs[t])) + list(centers[t])
            old = oracle.best_seeds(seeds, origins[t], dirs[t], ranges[t])
            assert np.array_equal(best[t], np.array(old))

    def test_seed_pick_breaks_ties_by_seed_and_ray_order(self):
        # Rays 1-3 copy ray 0, so every seed is equally far from four rays,
        # for some seeds across the cut after the six nearest; each trial's
        # two centers are copies of one point, so their scores tie as well.
        origins, dirs, ranges, _ = ray_bundle(5, 10, False, False, False)
        origins[1:4], dirs[1:4] = origins[0], dirs[0]
        centers = np.array([[origins[0] + 50.0 * dirs[0]] * 2, [U, U]])
        origins, dirs, ranges = (np.array([v, v]) for v in (origins, dirs, ranges))
        best = selection._best_seeds(origins, dirs, ranges, centers)
        for t in range(2):
            seeds = list(usable_midpoints(origins[t], dirs[t])) + list(centers[t])
            old = oracle.best_seeds(seeds, origins[t], dirs[t], ranges[t])
            assert np.array_equal(best[t], np.array(old))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(8, 18),
        st.integers(7, 18),
        st.integers(1, 4),
    )
    @settings(max_examples=60)
    def test_seed_pick_with_tied_cuts(self, seed, n, copies, trials):
        # Rays 1 to copies - 1 copy ray 0 in every trial, and one center of
        # each sits on ray 0, so seven or more rays tie at its sixth
        # nearest distance and the stable tie rule picks the six.
        copies = min(copies, n)
        bundles = [ray_bundle(seed + t, n, False, False, False) for t in range(trials)]
        origins, dirs, ranges = (np.array([b[i] for b in bundles]) for i in range(3))
        origins[:, 1:copies], dirs[:, 1:copies] = origins[:, :1], dirs[:, :1]
        rng = np.random.default_rng(seed)
        centers = U + rng.normal(0.0, 100.0, (trials, 2, 3))
        centers[:, 0] = origins[:, 0] + rng.uniform(10.0, 500.0, (trials, 1)) * dirs[:, 0]
        with mock.patch.object(
            selection, "_stable_near", side_effect=selection._stable_near
        ) as tie_rule:
            best = selection._best_seeds(origins, dirs, ranges, centers)
        assert tie_rule.called
        for t in range(trials):
            seeds = list(usable_midpoints(origins[t], dirs[t])) + list(centers[t])
            old = oracle.best_seeds(seeds, origins[t], dirs[t], ranges[t])
            assert np.array_equal(best[t], np.array(old))

    def test_frozen_fits_stay_put(self, monkeypatch):
        # Row 0's rays are three copies of one ray along +x, so its first
        # solve is singular and it freezes at its start.  Row 1's rays meet
        # at one point, so its second step is below 1e-9 m and it freezes
        # there.  Rows 2 and 3 go on moving, with the frozen rows still in
        # the stack.
        origins, dirs, _, rng = ray_bundle(3, 8, False, False, False)
        origins[1:3], dirs[0:3] = origins[0], [1.0, 0.0, 0.0]
        dirs[3:6] = U - origins[3:6]
        dirs[3:6] /= np.linalg.norm(dirs[3:6], axis=1, keepdims=True)
        kept = np.array([[0, 1, 2], [3, 4, 5], [4, 5, 6], [5, 6, 7]])
        starts = U + rng.normal(0.0, 100.0, (4, 3))
        origins, dirs, kept, starts = (v[None] for v in (origins, dirs, kept, starts))
        solves = []
        real = selection._solve_3x3

        def shifted_after_two(normal, rhs):
            # Steps 3 on move every solution 1 m, which a frozen fit must
            # not take up.
            x, ok = real(normal, rhs)
            solves.append(x.copy())
            return x + (len(solves) > 2), ok

        monkeypatch.setattr(selection, "_solve_3x3", shifted_after_two)
        (new,) = ray_points(origins, dirs, kept, starts)
        assert len(solves) > 2 and all(len(x) == 4 for x in solves)
        assert np.array_equal(new[0], starts[0, 0])
        assert np.array_equal(new[1], solves[1][1])
        monkeypatch.setattr(selection, "_solve_3x3", real)
        (unshifted,) = ray_points(origins, dirs, kept, starts)
        assert np.array_equal(unshifted, oracle.stacked_ray_points(origins, dirs, kept, starts)[0])
        assert np.array_equal(unshifted[:2], new[:2])
        assert not np.array_equal(unshifted[2:], new[2:])
        for row in range(1, 4):
            one = slice(row, row + 1)
            (alone,) = ray_points(origins, dirs, kept[:, one], starts[:, one])
            assert np.array_equal(unshifted[row], alone[0])

    def test_singular_fit_keeps_last_estimate(self):
        # Three copies of one ray: every normal matrix is singular, so the
        # fit must stop at its start, as the per-ray loop does.
        origins = np.zeros((3, 3))
        dirs = np.tile([1.0, 0.0, 0.0], (3, 1))
        kept = np.array([[0, 1, 2], [0, 1, 2]])
        starts = np.array([[5.0, 1.0, 2.0], [7.0, -3.0, 0.5]])
        rays = (origins[None], dirs[None], kept[None], starts[None])
        (new,) = ray_points(*rays)
        assert np.array_equal(new, oracle.stacked_ray_points(*rays)[0])
        projs = oracle.projectors(dirs)
        for row in range(2):
            assert_close(new[row], oracle.ray_point(origins, projs, kept[row], starts[row]), 1.0)
        rows = (np.zeros(2, dtype=int), np.arange(2), np.full(2, 3))
        scores = selection._subset_scores(
            origins[None], dirs[None], np.ones((1, 3)), kept[None], rows
        )
        assert np.all(np.isinf(scores))

    @given(
        st.lists(st.sampled_from(["regular", "regular", "rank_two", "zero_row",
                                  "repeated_row", "near_singular"]),
                 min_size=1, max_size=12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_solve_3x3_matches_the_row_by_row_retry(self, kinds, seed):
        # From none to all rows exactly singular: the stacked re-solve of
        # the rows without a zero pivot gives the retired loop's rows bit
        # for bit.
        rng = np.random.default_rng(seed)
        normal = rng.normal(size=(len(kinds), 3, 3)) * 10.0 ** rng.uniform(-3, 3)
        for row, kind in zip(normal, kinds):
            if kind == "rank_two":
                row[:] = row @ np.diag([1.0, 1.0, 0.0]) @ row.T
            elif kind == "zero_row":
                row[rng.integers(3)] = 0.0
            elif kind == "repeated_row":
                row[2] = row[0]
            elif kind == "near_singular":
                row[2] = row[0] + 1e-15 * row[1]
        rhs = rng.normal(size=(len(kinds), 3))
        x, ok = selection._solve_3x3(normal, rhs)
        x_o, ok_o = oracle.solve_3x3(normal, rhs)
        assert np.array_equal(x, x_o, equal_nan=True)
        assert np.array_equal(ok, ok_o)


class TestKernelsMatchRetiredForms:
    """The fit and seed kernels against their retired stacked forms, bit for
    bit, on stacks of trials with near-parallel, backward, coincident and
    copied rays."""

    @given(ray_stacks, st.integers(1, 4))
    @settings(max_examples=150)
    def test_ray_points(self, stack, k):
        # Fit 0 of every trial keeps rays 0 to m - 1, so its normal matrix
        # is singular when they are all copies of ray 0.
        origins, dirs, _, rng = stack
        trials, n = origins.shape[:2]
        m = min(n, 3 + int(rng.integers(0, 4)))
        kept = np.array([[rng.permutation(n)[:m] for _ in range(k)] for _ in range(trials)])
        kept[:, 0] = np.arange(m)
        starts = U + rng.normal(0.0, 100.0, (trials, k, 3))
        new = ray_points(origins, dirs, kept, starts)
        assert np.array_equal(new, oracle.stacked_ray_points(origins, dirs, kept, starts))

    @given(ray_stacks, st.integers(1, 4))
    @settings(max_examples=150)
    def test_trimmed_ray_points(self, stack, k):
        # Start 0 sits on ray 0, whose copies then tie at the smallest miss.
        origins, dirs, _, rng = stack
        keep = max(3, origins.shape[1] // 2)
        starts = U + rng.normal(0.0, 100.0, (len(origins), k, 3))
        starts[:, 0] = origins[:, 0] + rng.uniform(10.0, 500.0, (len(origins), 1)) * dirs[:, 0]
        new = selection._trimmed_ray_points(origins, dirs, starts, keep)
        assert np.array_equal(new, oracle.stacked_trimmed_ray_points(origins, dirs, starts, keep))

    @given(ray_stacks)
    @settings(max_examples=100)
    def test_seed_scores(self, stack):
        # Every pair midpoint, usable or not, and two centers, one on ray 0,
        # whose sixth nearest distance ties when ray 0 has six copies.
        origins, dirs, ranges, rng = stack
        mids, _ = selection._pair_midpoints(origins, dirs)
        centers = U + rng.normal(0.0, 100.0, (len(origins), 2, 3))
        centers[:, 0] = origins[:, 0] + rng.uniform(10.0, 500.0, (len(origins), 1)) * dirs[:, 0]
        seeds = np.concatenate([mids, centers], axis=1)
        planes = [np.ascontiguousarray(np.moveaxis(v, -1, 0)) for v in (seeds, origins, dirs)]
        new = selection._seed_scores(*planes, ranges, k=6)
        assert np.array_equal(new, oracle.stacked_seed_scores(*planes, ranges, k=6))


def test_rounding_facts_the_plane_kernels_rely_on():
    """The kernels on planes round as their retired forms because of three
    NumPy facts; a NumPy that breaks one fails here, by name."""
    rng = np.random.default_rng(29)
    u, v = rng.normal(size=(2, 10, 2, 18, 3)) * 10.0 ** rng.uniform(-8, 8, (2, 10, 2, 18, 3))
    # np.einsum contracts a length-3 axis (x + z) + y, also against a
    # broadcast operand, as the retired fits' misses took it.
    for w in (v, v[:, :1]):
        x, y, z = np.moveaxis(u * w, -1, 0)
        assert np.array_equal(np.einsum("...i,...i->...", u, w), (x + z) + y)
    # np.where(cond, a, b) is np.copyto(a, b, where=~cond), NaN included.
    along, perp, dist = rng.normal(size=(3, 500))
    along[::7], along[::11], perp[::13], dist[::17] = np.nan, 0.0, np.nan, np.nan
    picked = perp.copy()
    np.copyto(picked, dist, where=np.logical_not(np.greater(along, 0.0)))
    assert np.array_equal(picked, np.where(along > 0.0, perp, dist), equal_nan=True)
    # Addition commutes bit for bit: dray + |o - s| is |o - s| + dray.
    a, b = rng.normal(size=(2, 500)) * 10.0 ** rng.uniform(-300, 300, (2, 500))
    a[::19], b[::23] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        assert np.array_equal(a + b, b + a, equal_nan=True)


class TestRefineCenterDeduplication:
    def test_first_center_reaching_a_member_set_wins(self, monkeypatch):
        # Centers 0 and 1 reach the members {0, 1, 2, 3} in different
        # orders, centers 2 and 3 the members {2, 3, 4, 5}.  Only the first
        # center of each set may be scored; the scorer below prefers later
        # rows, so scoring a repeat would hand it the win.
        fixes = np.array(
            [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0], [50.0, 0, 0], [60.0, 0, 0]]
        )
        fits = iter(
            [
                np.array([[[0.0, 0, 0], [1.1, 0, 0]]]),
                np.array([[[55.0, 0, 0], [58.0, 0, 0]]]),
            ]
        )
        monkeypatch.setattr(selection, "_trimmed_ray_points", lambda *a: next(fits))
        scored = []

        def later_scores_lower(origins, dirs, ranges, near, rows):
            scored.extend(tuple(near[t, k, :size].tolist()) for t, k, size in zip(*rows))
            return -np.arange(len(rows[0]), dtype=float)

        monkeypatch.setattr(selection, "_subset_scores", later_scores_lower)
        origins = np.zeros((6, 3))
        dirs = np.tile([1.0, 0.0, 0.0], (6, 1))
        rays = tuple(v[None] for v in (fixes, origins, dirs, np.ones(6)))
        centers = selection._trimmed_centers(*rays, fixes[None, 0])
        (winners,) = selection._rank_receivers(centers, *rays)[2]
        assert [s for s in scored if len(s) == 4] == [(0, 1, 2, 3), (4, 5, 3, 2)]
        assert np.array_equal(centers[0, winners[4 - 2]], [55.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def corpus():
    """``(bias, scenario, trials, records)`` per clock bias: 500 simulated
    trials (streams ``[31, t]``) and the record ``los_candidates`` gives
    each alone."""
    out = []
    for bias in (0.0, 100.0):
        sc = Scenario(
            noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), p_d=0.5, clock_bias_m=bias
        )
        trials = [simulate_paths(sc, np.random.default_rng([31, t])) for t in range(500)]
        out.append((bias, sc, trials, [los_candidates(paths, sc.rrhs) for paths in trials]))
    return out


def test_selection_corpus_block_matches_single_trials(corpus):
    """1000 simulated trials fitted in blocks: the records of single trials.

    Blocks of 64 are the harness's, blocks of 10 the size of one benchmark
    campaign; both must give every trial the record it gets alone, and so
    the same ordered receivers at every ``n_a``.
    """
    compared = 0
    for bias, sc, trials, alone in corpus:
        for size in (64, 10):
            blocked = []
            for lo in range(0, len(trials), size):
                blocked += los_candidates_batch(trials[lo:lo + size], sc.rrhs)
            for t, (paths, new, old) in enumerate(zip(trials, blocked, alone)):
                assert_same_record(new, old)
                for n_a in (4, 6):
                    a = select_los(paths, sc.rrhs, n_a=n_a, candidates=new)
                    b = select_los(paths, sc.rrhs, n_a=n_a, candidates=old)
                    assert a.selected_indices == b.selected_indices, (bias, size, t, n_a)
                compared += 1
    assert compared == 2000


def with_centers(record, centers):
    """``record`` with its candidate centers replaced by ``centers``, ranked
    anew."""
    new = dataclasses.replace(record, centers=np.array(centers))
    rays = (new.fixes, new.origins, new.dirs, new.ranges)
    tables = selection._rank_receivers(new.centers[None], *(v[None] for v in rays))
    new.distances, new.orders, new.winners = (v[0] for v in tables)
    return new


def test_selection_corpus_matches_loop_oracle_from_candidates(corpus):
    """The same 2000 selections, each finished from its trial's shared record.

    The loop oracle fits the four candidate centers once per trial from the
    record's fixes, rays and cluster center, and picks the ranking center
    among them at each n_a; ``select_los`` must then rank the same
    receivers from it, given as a record's only center, as from the
    stacked pick.  The first 100 trials per bias are also compared at every
    other size from 2 to the pick count, all read from the same record.
    """
    compared = others = 0
    for bias, sc, trials, records in corpus:
        for t, (paths, c) in enumerate(zip(trials, records)):
            rays = (c.fixes, c.origins, c.dirs, c.ranges)
            centers = oracle.candidate_centers(*rays, kmeans2(c.fixes)[0])
            for n_a in range(2, len(c.picks) + 1) if t < 100 else (4, 6):
                loop_center = oracle.pick_center(centers, *rays, n_a)
                new = select_los(paths, sc.rrhs, n_a=n_a, candidates=c)
                old = select_los(
                    paths, sc.rrhs, n_a=n_a, candidates=with_centers(c, [loop_center])
                )
                assert new.selected_indices == old.selected_indices, (bias, t, n_a)
                assert np.linalg.norm(new.c_los - old.c_los) <= 1e-6, (bias, t, n_a)
                if n_a in (4, 6):
                    compared += 1
                else:
                    others += 1
    assert compared == 2000
    assert others == 2 * 100 * 15  # 18 picks in every trial
