"""Tests for the ensemble combiners (density vote, averaged weighting, mean)."""

import math

import numpy as np
import pytest

from hybridloc import ensemble, nn
from hybridloc.errors import ScenarioError
from hybridloc.noise import NoiseConfig
from hybridloc.scenario import Scenario
from learning_oracle import StubNet


def density_measure(preds, p: int, r_a: float) -> float:
    """Density of prediction ``p``: sum of Gaussian kernels over all members.

    The self term is included, so identical predictions all score P.
    """
    preds = np.atleast_2d(np.asarray(preds, dtype=float))
    d2 = np.sum((preds - preds[p]) ** 2, axis=1)
    return float(np.sum(np.exp(-d2 / (r_a / 2.0) ** 2)))


def measurement_fixture(n=1, seed=5):
    sc = Scenario(
        noise=NoiseConfig(delta_d=3.0, delta_a=0.0175, mode="structured", ratio=0.01)
    )
    ds = nn.make_dataset(sc, n, np.random.default_rng(seed))
    return sc, ds


class TestDensityMeasure:
    def test_hand_computed_three_points(self):
        r_a = 2.0
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [20.0, 0.0, 0.0]])
        # kernel width (r_a/2)^2 = 1, squared distances 1, 361, 400
        d0 = 1.0 + math.exp(-1.0) + math.exp(-400.0)
        d1 = math.exp(-1.0) + 1.0 + math.exp(-361.0)
        d2 = math.exp(-400.0) + math.exp(-361.0) + 1.0
        assert density_measure(pts, 0, r_a) == pytest.approx(d0, rel=1e-12)
        assert density_measure(pts, 1, r_a) == pytest.approx(d1, rel=1e-12)
        assert density_measure(pts, 2, r_a) == pytest.approx(d2, rel=1e-12)

    def test_identical_predictions_score_p(self):
        pts = np.tile([3.0, 4.0, 5.0], (7, 1))
        for p in range(7):
            assert density_measure(pts, p, 0.5) == pytest.approx(7.0)

    def test_far_outlier_scores_near_one(self):
        pts = np.vstack([np.tile([0.0, 0.0, 0.0], (19, 1)), [[1000.0, 0.0, 0.0]]])
        assert density_measure(pts, 19, 0.1) == pytest.approx(1.0)
        assert density_measure(pts, 0, 0.1) == pytest.approx(19.0)

    def test_permutation_and_translation_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(9, 3))
        base = density_measure(pts, 2, 1.0)
        perm = rng.permutation(9)
        where = int(np.argwhere(perm == 2)[0][0])
        assert density_measure(pts[perm], where, 1.0) == pytest.approx(base)
        assert density_measure(pts + 17.5, 2, 1.0) == pytest.approx(base)


class TestSubtractivePick:
    def test_returns_an_input_point(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(12, 3))
        pick = ensemble.subtractive_pick(pts, 0.5)
        assert any(np.array_equal(pick, p) for p in pts)

    def test_single_prediction_returned(self):
        pts = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(ensemble.subtractive_pick(pts, 0.3), pts[0])

    def test_cluster_beats_outlier(self):
        rng = np.random.default_rng(2)
        cluster = rng.normal(scale=0.01, size=(19, 3))
        pts = np.vstack([cluster, [[500.0, 500.0, 500.0]]])
        pick = ensemble.subtractive_pick(pts, 0.5)
        assert np.linalg.norm(pick) < 1.0

    def test_tighter_cluster_wins(self):
        rng = np.random.default_rng(3)
        tight = rng.normal(scale=0.005, size=(10, 3))
        loose = rng.normal(scale=0.2, size=(10, 3)) + [10.0, 0.0, 0.0]
        pick = ensemble.subtractive_pick(np.vstack([tight, loose]), 0.5)
        assert np.linalg.norm(pick) < 1.0

    def test_exact_tie_goes_to_lowest_index(self):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        assert np.array_equal(ensemble.subtractive_pick(pts, 1.0), pts[0])


class TestDegenerateEnsemble:
    def test_identical_members_match_single_net(self):
        sc, ds = measurement_fixture()
        rrhs = sc.selected_rrhs()
        m = ds.m[0]
        stub = StubNet(ds.e[0])
        nets = [stub] * 5
        single = nn.nn_wls_estimate(stub, m, rrhs, eps=0.1)
        a = ensemble.enn_a_wls(nets, m, rrhs, eps=0.1, r_a=0.1)
        mean = ensemble.enn_m_wls(nets, m, rrhs, eps=0.1)
        assert np.max(np.abs(a - single)) < 1e-12
        assert np.max(np.abs(mean - single)) < 1e-12

    def test_identical_residuals_reduce_to_nn_wls_weighting(self):
        sc, ds = measurement_fixture()
        rrhs = sc.selected_rrhs()
        m, e = ds.m[0], ds.e[0]
        nets = [StubNet(e)] * 4
        with pytest.warns(RuntimeWarning):
            b = ensemble.enn_b_wls(nets, m, rrhs)
        single = nn.nn_wls_estimate(StubNet(e), m, rrhs, eps=0.1)
        # Different ridge magnitudes leave a small gap, not a structural one.
        assert np.linalg.norm(b[:3] - single[:3]) < 0.05


class TestMemberStates:
    def test_rows_equal_single_member_estimates(self):
        sc, ds = measurement_fixture(n=60)
        rrhs = sc.selected_rrhs()
        cfg = nn.MlpConfig(layer_widths=(22, 8, 22), epochs=2)
        nets = ensemble.train_ensemble(
            cfg, ensemble.EnsembleConfig(p=3), ds.subset(slice(0, 50)),
            ds.subset(slice(50, 55)),
        )
        for m in ds.m[55:]:
            states = ensemble.member_states(nets, m, rrhs, eps=0.1)
            for net, row in zip(nets, states):
                assert np.array_equal(row, nn.nn_wls_estimate(net, m, rrhs, 0.1))


class TestAveragedWeighting:
    def test_average_outer_hand_case(self):
        e = np.array([[1.0, 0.0], [0.0, 2.0]])
        expected = np.array([[0.5, 0.0], [0.0, 2.0]])
        assert np.allclose(ensemble.average_outer(e), expected, atol=1e-15)

    def test_full_rank_average_inverts_exactly(self):
        rng = np.random.default_rng(4)
        e = rng.normal(size=(50, 4))
        avg = ensemble.average_outer(e)
        w, engaged = ensemble.invert_weighting(avg)
        assert not engaged
        assert np.allclose(w @ avg, np.eye(4), atol=1e-9)

    def test_rank_deficient_average_engages_ridge(self):
        e = np.tile([1.0, 2.0, 3.0, 4.0], (6, 1))
        w, engaged = ensemble.invert_weighting(ensemble.average_outer(e))
        assert engaged
        assert np.allclose(w, w.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(w)) > 0.0

    def test_convergence_to_true_covariance(self):
        cov = np.diag([1.0, 4.0, 9.0])
        chol = np.sqrt(cov)
        gaps = []
        for p in (50, 400, 3200):
            rng = np.random.default_rng(p)
            e = rng.standard_normal((p, 3)) @ chol
            gaps.append(np.linalg.norm(ensemble.average_outer(e) - cov))
        assert gaps[2] < gaps[1] < gaps[0]
        w, engaged = ensemble.invert_weighting(
            ensemble.average_outer(
                np.random.default_rng(0).standard_normal((20000, 3)) @ chol
            )
        )
        assert not engaged
        assert np.allclose(w, np.linalg.inv(cov), atol=0.01)


class TestOutlierRobustness:
    def test_vote_ignores_one_corrupted_member(self):
        sc, ds = measurement_fixture()
        rrhs = sc.selected_rrhs()
        m, e = ds.m[0], ds.e[0]
        rng = np.random.default_rng(7)
        clean = [StubNet(e + rng.normal(scale=0.5, size=e.size)) for _ in range(19)]
        corrupted = clean + [StubNet(rng.normal(scale=5000.0, size=e.size))]
        a_clean = ensemble.enn_a_wls(clean, m, rrhs, eps=0.1, r_a=0.5)
        a_bad = ensemble.enn_a_wls(corrupted, m, rrhs, eps=0.1, r_a=0.5)
        m_clean = ensemble.enn_m_wls(clean, m, rrhs, eps=0.1)
        m_bad = ensemble.enn_m_wls(corrupted, m, rrhs, eps=0.1)
        vote_shift = np.linalg.norm(a_bad[:3] - a_clean[:3])
        mean_shift = np.linalg.norm(m_bad[:3] - m_clean[:3])
        assert vote_shift < 1e-9
        assert mean_shift > 10.0 * max(vote_shift, 1e-12)


class TestEnsembleConfig:
    def test_config_validation(self):
        with pytest.raises(ScenarioError):
            ensemble.EnsembleConfig(p=1)
        for r_a in (0.0, np.nan, np.inf):
            with pytest.raises(ScenarioError):
                ensemble.EnsembleConfig(r_a=r_a)
        with pytest.raises(ScenarioError):
            ensemble.EnsembleConfig(p=3, seeds=(1, 2))

    def test_default_seeds_fill_range(self):
        cfg = ensemble.EnsembleConfig(p=4)
        assert cfg.seeds == (0, 1, 2, 3)

    def test_train_ensemble_members_differ_by_seed(self):
        sc, _ = measurement_fixture()
        ds = nn.make_dataset(sc, 60, np.random.default_rng(8))
        tr, va = ds.subset(slice(0, 40)), ds.subset(slice(40, 60))
        base = nn.MlpConfig(layer_widths=(22, 8, 8, 22), epochs=2)
        nets = ensemble.train_ensemble(
            base, ensemble.EnsembleConfig(p=2, seeds=(1, 2)), tr, va
        )
        assert not np.array_equal(nets[0].weights[0], nets[1].weights[0])
        again = ensemble.train_ensemble(
            base, ensemble.EnsembleConfig(p=2, seeds=(1, 2)), tr, va
        )
        assert np.array_equal(nets[0].weights[0], again[0].weights[0])
