"""Tests for the Monte Carlo harness and metric computation."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wls_oracle
from hybridloc import harness, nn, selection
from hybridloc.crlb import crlb_scatterer, crlb_ue, position_trace, velocity_trace
from hybridloc.errors import (
    CampaignFailedError,
    DimensionMismatchError,
    HybridlocError,
    NumericalError,
    ScenarioError,
    SingularProblemError,
)
from hybridloc.geometry import scatterer_measurement, ue_measurement
from hybridloc.noise import (
    NoiseConfig,
    build_q,
    build_qs,
    dominant_shape,
    sample_gaussian,
    sample_structured,
    sample_structured_scatterer,
    scatterer_sigma_components,
    sigma_components,
)
from hybridloc.scatterer_wls import scatterer_wls_solve
from hybridloc.scenario import Scenario, load_scenario
from hybridloc.ue_wls import WlsBatch, wls_solve

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestComputeMetrics:
    def test_perfect_estimates_give_zeros(self):
        truths = np.arange(18.0).reshape(3, 6)
        report = harness.compute_metrics(truths.copy(), truths)
        assert report.rmse_position == 0.0
        assert report.rmse_velocity == 0.0
        assert report.mae_position == 0.0
        assert np.allclose(report.bias_per_component, 0.0)

    def test_single_unit_offset(self):
        truth = np.array([[10.0, 20.0, 30.0, 1.0, 2.0, 3.0]])
        est = truth + np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        report = harness.compute_metrics(est, truth)
        assert report.rmse_position == pytest.approx(1.0)
        assert report.mae_position == pytest.approx(1.0)
        assert report.rmse_velocity == pytest.approx(0.0)

    def test_hand_computed_table(self):
        # position error norms 3, 4 -> RMSE = sqrt((9+16)/2), MAE = 3.5
        truths = np.zeros((2, 6))
        est = np.array(
            [[3.0, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 4.0, 0.0, 0.0, 1.0, 0.0]]
        )
        report = harness.compute_metrics(est, truths)
        assert report.rmse_position == pytest.approx(np.sqrt(12.5))
        assert report.mae_position == pytest.approx(3.5)
        assert report.rmse_velocity == pytest.approx(1.0)
        assert report.mae_velocity == pytest.approx(1.0)
        assert np.allclose(report.bias_per_component, est.mean(axis=0))

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(0)
        est = rng.normal(size=(40, 6))
        report = harness.compute_metrics(est, np.zeros((40, 6)))
        assert report.rmse_position >= report.mae_position
        assert report.rmse_velocity >= report.mae_velocity

    def test_std_per_component(self):
        est = np.array([[1.0, 0, 0, 0, 0, 0], [3.0, 0, 0, 0, 0, 0]])
        report = harness.compute_metrics(est, np.zeros((2, 6)))
        assert report.std_per_component[0] == pytest.approx(1.0)
        assert np.allclose(report.std_per_component[1:], 0.0)

    def test_empty_input_rejected(self):
        with pytest.raises(DimensionMismatchError):
            harness.compute_metrics(np.empty((0, 6)), np.empty((0, 6)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            harness.compute_metrics(np.zeros((3, 6)), np.zeros((2, 6)))

    @pytest.mark.parametrize("width", [6, 4, 3])
    def test_one_truth_row_equals_the_tiled_truths(self, width):
        est = np.random.default_rng(5).normal(size=(7, width))
        truth = np.arange(1.0, width + 1.0)
        tiled = harness.compute_metrics(est, np.tile(truth, (7, 1)))
        for shared in (truth, truth[None]):
            assert repr(harness.compute_metrics(est, shared).to_dict()) == repr(tiled.to_dict())

    def test_scatterer_state_split(self):
        est = np.array([[1.0, 2.0, 3.0, 4.0]])
        report = harness.compute_metrics(est, np.zeros((1, 4)))
        assert report.rmse_position == pytest.approx(np.sqrt(14.0))
        assert report.rmse_velocity == pytest.approx(4.0)

    @pytest.mark.parametrize("trials", [1, 2, 7, 8, 9, 16, 17, 64, 65, 300, 1000])
    @pytest.mark.parametrize("width", [3, 4, 6])
    def test_every_field_equals_the_per_metric_oracle(self, trials, width):
        # Sizes around the 8-wide blocks of NumPy's pairwise summation,
        # shared and per-row truths, errors from 1e-3 to 1e3 and NaN velocity.
        rng = np.random.default_rng([trials, width])
        est = rng.normal(size=(trials, width)) * 10.0 ** rng.integers(-3, 4, size=(trials, width))
        per_row = rng.normal(size=(trials, width)) * 100.0
        cases = [(est, per_row), (est, per_row[0]), (est, per_row[:1])]
        if width > 3:
            nan_vel = est.copy()
            nan_vel[rng.integers(trials), 3 + rng.integers(width - 3)] = np.nan
            cases += [(nan_vel, per_row), (nan_vel, per_row[0])]
        for estimates, truths in cases:
            got = harness.compute_metrics(estimates, truths).to_dict()
            want = wls_oracle.compute_metrics(estimates, truths).to_dict()
            assert got.keys() == want.keys()
            for key in want:
                assert repr(got[key]) == repr(want[key]), key

    def test_report_serializes_to_plain_types(self):
        report = harness.compute_metrics(np.ones((2, 6)), np.zeros((2, 6)))
        data = report.to_dict()
        assert isinstance(data["bias_per_component"], list)
        assert isinstance(data["rmse_position"], float)


class TestWlsCampaign:
    def test_tiny_noise_rmse_near_zero(self):
        sc = Scenario(
            noise=NoiseConfig(delta_d=1e-10, delta_a=1e-10), trials=20, seed=3
        )
        report = harness.run_wls_campaign(sc)
        assert report.rmse_position < 1e-6
        assert report.rmse_velocity < 1e-6
        assert report.failure_rate == 0.0

    def test_reproducible(self):
        sc = Scenario(trials=30, seed=11)
        a = harness.run_wls_campaign(sc)
        b = harness.run_wls_campaign(sc)
        assert a.rmse_position == b.rmse_position
        assert a.rmse_velocity == b.rmse_velocity
        assert np.array_equal(a.bias_per_component, b.bias_per_component)

    def test_crlb_traces_reported(self):
        sc = Scenario(trials=10, seed=1)
        report = harness.run_wls_campaign(sc)
        assert report.crlb_trace_position > 0.0
        assert report.crlb_trace_velocity > 0.0
        assert report.rmse_over_crlb_position is not None

    def test_few_receivers_position_only(self):
        sc = Scenario(trials=10, seed=2, n_a=3)
        report = harness.run_wls_campaign(sc)
        assert report.rmse_position is not None
        assert report.rmse_velocity is None
        assert report.crlb_trace_velocity is None

    def test_trial_rows_collected(self):
        sc = Scenario(trials=8, seed=5)
        report, rows = harness.run_wls_campaign(sc, collect_trials=True)
        assert len(rows) == 8
        assert all(r["status"] == "ok" for r in rows)
        assert {"trial", "error_position", "error_velocity"} <= set(rows[0])

    def test_structured_noise_supported(self):
        sc = Scenario(
            noise=NoiseConfig(
                delta_d=1.0, delta_a=0.0175, mode="structured", ratio=0.01
            ),
            trials=10,
            seed=7,
        )
        report = harness.run_wls_campaign(sc)
        assert report.rmse_position > 0.0


class TestVelocityMetricsWithFallbacks:
    def test_velocity_reported_over_trials_that_kept_it(self):
        # At n_a = 4 and rho = 30 a few trials fall back to position only.
        sc = load_scenario(SCENARIOS / "crlb-attainment.yaml").replace(n_a=4)
        sc = sc.replace(noise=sc.noise.scaled(30.0))
        report, rows = harness.run_wls_campaign(sc, collect_trials=True)
        ok = [r for r in rows if r["status"] == "ok"]
        velocity = np.array([r["error_velocity"] for r in ok])
        kept = velocity[np.isfinite(velocity)]
        assert 0 < len(kept) < len(ok)

        position = np.array([r["error_position"] for r in ok])
        assert report.rmse_position == pytest.approx(np.sqrt(np.mean(position**2)), rel=1e-12)
        assert report.rmse_velocity == pytest.approx(np.sqrt(np.mean(kept**2)), rel=1e-12)
        assert report.mae_velocity == pytest.approx(np.mean(kept), rel=1e-12)
        bound = crlb_ue(sc.ue_true, sc.selected_rrhs(), build_q(4, sc.noise))
        assert report.crlb_trace_position == position_trace(bound)
        assert report.crlb_trace_velocity == velocity_trace(bound)


class TestReport:
    """``_report`` alone decides which trials of a batch count; on a batch
    with a position-only row and a failed row it equals the formulas the
    WLS campaign applied itself: position metrics over the successes (a
    3-entry bias), velocity RMSE and MAE over the valid rows."""

    @staticmethod
    def _batch():
        x = np.random.default_rng(4).normal(size=(6, 6))
        x[1, 3:] = np.nan  # solved position-only
        failures = np.full(6, None, dtype=object)
        failures[3] = SingularProblemError("singular")
        valid = np.ones(6, dtype=bool)
        valid[[1, 3]] = False
        return WlsBatch(x=x, failures=failures, velocity_valid=valid)

    @staticmethod
    def _report(batch, truths):
        return harness._report(batch.x, batch.failures, batch.velocity_valid, truths)

    @pytest.mark.parametrize("per_row", [False, True])
    def test_mixed_velocity_equals_the_campaign_formulas(self, per_row):
        batch = self._batch()
        truths = np.random.default_rng(5).normal(size=(6, 6) if per_row else 6)
        report = self._report(batch, truths)

        ok = np.equal(batch.failures, None)
        valid = batch.velocity_valid

        def rows(mask):
            return truths[mask] if per_row else truths

        expected = harness.compute_metrics(batch.x[:, :3][ok], rows(ok)[..., :3])
        velocity = harness.compute_metrics(batch.x[valid], rows(valid))
        expected.rmse_velocity = velocity.rmse_velocity
        expected.mae_velocity = velocity.mae_velocity
        expected.failure_rate = 1 / 6
        expected.trials = 6
        assert report.to_dict() == expected.to_dict()
        assert len(report.bias_per_component) == 3
        assert report.rmse_velocity is not None

    @pytest.mark.parametrize("per_row", [False, True])
    def test_every_success_valid_scores_the_whole_state(self, per_row):
        batch = self._batch()
        batch.velocity_valid = np.equal(batch.failures, None)
        batch.x[1, 3:] = 0.5
        truths = np.random.default_rng(5).normal(size=(6, 6) if per_row else 6)
        ok = batch.velocity_valid
        expected = harness.compute_metrics(batch.x[ok], truths[ok] if per_row else truths)
        expected.failure_rate = 1 / 6
        expected.trials = 6
        assert self._report(batch, truths).to_dict() == expected.to_dict()

    def test_no_valid_velocity_reports_position_only(self):
        batch = self._batch()
        batch.velocity_valid[:] = False
        report = self._report(batch, np.zeros(6))
        assert len(report.bias_per_component) == 3
        assert report.rmse_velocity is None and report.mae_velocity is None

    def test_every_trial_failed_raises(self):
        failures = np.array([SingularProblemError("first"), NumericalError("second")])
        with pytest.raises(CampaignFailedError, match="trial 0: first"):
            self._report(WlsBatch(x=np.zeros((2, 6)), failures=failures), np.zeros(6))


class TestScattererCampaign:
    def test_tiny_noise_near_exact(self):
        sc = Scenario(
            noise=NoiseConfig(delta_d=1e-10, delta_a=1e-10), trials=10, seed=4
        )
        report = harness.run_scatterer_campaign(sc)
        assert report.rmse_position < 1e-5
        assert report.crlb_trace_position > 0.0

    def test_reproducible(self):
        sc = Scenario(trials=20, seed=9)
        a = harness.run_scatterer_campaign(sc)
        b = harness.run_scatterer_campaign(sc)
        assert a.rmse_position == b.rmse_position

    def test_crlb_traces_are_the_bound_blocks(self):
        sc = Scenario(trials=5, seed=9)
        rhos = [0.1, 1.0, 10.0]
        for rho, report in zip(rhos, harness.run_scatterer_campaign(sc, rhos=rhos)):
            bound = crlb_scatterer(
                sc.scatterer_true, sc.rrhs[sc.scatterer_rrh], sc.ue_true,
                build_qs(sc.noise.scaled(rho)),
            )
            assert report.crlb_trace_position == float(np.trace(bound[:3, :3]))
            assert report.crlb_trace_velocity == float(np.trace(bound[3:, 3:]))


NOISE_MODES = [
    NoiseConfig(delta_d=2.0, delta_a=0.0175),
    NoiseConfig(delta_d=2.0, delta_a=0.0175, mode="structured", ratio=0.1),
]


def _per_trial_draw(sc, m_true, q, sd, sample):
    """One trial's measurement drawn alone: ``sample_gaussian``, or the
    structured ``sample`` around the campaign's bias on the layout ``sd``."""
    if sc.noise.mode == "gaussian":
        return lambda rng: sample_gaussian(m_true, q, rng)
    bias_rng = np.random.default_rng([sc.seed, harness._DOMINANT_STREAM])
    bias = dominant_shape(sd.size, bias_rng) * sd
    return lambda rng: sample(m_true, sc.noise, bias, rng)


class TestCampaignDraws:
    """70 trials span two solve blocks; each trial still gets the draw and
    the estimate it gets alone."""

    @pytest.mark.parametrize("noise", NOISE_MODES, ids=["gaussian", "structured"])
    def test_wls_rows_equal_a_per_trial_loop(self, noise):
        sc = Scenario(noise=noise, trials=70, seed=17)
        rrhs, q = sc.selected_rrhs(), build_q(sc.n_a, noise)
        m_true = ue_measurement(sc.ue_true, rrhs)
        draw = _per_trial_draw(sc, m_true, q, sigma_components(sc.n_a, noise), sample_structured)
        expected = []
        for t in range(sc.trials):
            m = draw(np.random.default_rng([sc.seed, t]))
            try:
                x = wls_solve(m, rrhs, q, iters=sc.wls_iters).x
            except HybridlocError as exc:
                expected.append({"trial": t, "status": "fail", "detail": str(exc)})
                continue
            expected.append({
                "trial": t,
                "status": "ok",
                "error_position": float(np.linalg.norm(x[:3] - sc.ue_true[:3])),
                "error_velocity": float(np.linalg.norm(x[3:] - sc.ue_true[3:])),
            })
        _, rows = harness.run_wls_campaign(sc, collect_trials=True)
        assert rows == expected

    @pytest.mark.parametrize("noise", NOISE_MODES, ids=["gaussian", "structured"])
    def test_scatterer_metrics_equal_a_per_trial_loop(self, noise):
        sc = Scenario(noise=noise, trials=70, seed=17)
        b_n, b_1, qs = sc.rrhs[sc.scatterer_rrh], sc.rrhs[0], build_qs(noise)
        ms_true = scatterer_measurement(sc.scatterer_true, sc.ue_true, b_n, b_1)
        draw = _per_trial_draw(
            sc, ms_true, qs, scatterer_sigma_components(noise), sample_structured_scatterer
        )
        estimates = [
            scatterer_wls_solve(draw(np.random.default_rng([sc.seed, t])), b_n, b_1,
                                sc.ue_true, qs).x
            for t in range(sc.trials)
        ]
        expected = harness.compute_metrics(estimates, np.tile(sc.scatterer_true, (sc.trials, 1)))
        bound = crlb_scatterer(sc.scatterer_true, b_n, sc.ue_true, qs)
        expected.crlb_trace_position = position_trace(bound)
        expected.crlb_trace_velocity = velocity_trace(bound)
        assert harness.run_scatterer_campaign(sc).to_dict() == expected.to_dict()


class TestSharedNormals:
    """One normals draw per trial serves every noise scale and both campaigns."""

    def test_a_stream_fills_in_sequence(self):
        # The first four normals of a 34-wide draw (n_a = 9) are the
        # scatterer layout's four, bit for bit.
        for seed in (0, 1, 25, 12345, 2**31 - 1):
            for t in range(200):
                wide = np.random.default_rng([seed, t]).standard_normal(34)
                narrow = np.random.default_rng([seed, t]).standard_normal(4)
                assert np.array_equal(narrow, wide[:4])

    def test_trial_normals_rows_are_the_trial_streams(self):
        sc = Scenario(n_a=4, trials=5, seed=3)
        z = harness.trial_normals(sc)
        assert z.shape == (5, 14)
        for t in range(5):
            assert np.array_equal(z[t], np.random.default_rng([3, t]).standard_normal(14))
        assert np.array_equal(harness.trial_normals(sc, 4), z[:, :4])

    @pytest.mark.parametrize("noise", NOISE_MODES, ids=["gaussian", "structured"])
    def test_campaigns_given_normals_equal_their_own_draws(self, noise):
        sc = Scenario(noise=noise, trials=70, seed=17)
        z = harness.trial_normals(sc)
        for rho in (0.1, 1.0, 10.0):
            sc_r = sc.replace(noise=noise.scaled(rho))
            _, own = harness.run_wls_campaign(sc_r, collect_trials=True)
            _, given = harness.run_wls_campaign(sc_r, collect_trials=True, normals=z)
            assert given == own
            own = harness.run_scatterer_campaign(sc_r).to_dict()
            given = harness.run_scatterer_campaign(sc_r, normals=z).to_dict()
            assert given == own

    @pytest.mark.parametrize("shape", [(5, 22), (7, 21), (6,), (6, 3)])
    def test_normals_not_covering_the_campaign_rejected(self, shape):
        sc = Scenario(trials=6, seed=1)
        z = np.zeros(shape)
        campaign = harness.run_scatterer_campaign if shape == (6, 3) else harness.run_wls_campaign
        with pytest.raises(DimensionMismatchError, match="normals"):
            campaign(sc, normals=z)


def _outcome(run):
    """What ``run()`` returns, or the class and message of what it raised."""
    try:
        return run()
    except HybridlocError as exc:
        return type(exc), str(exc)


def _fields(report):
    """A report's fields, with every float as its repr."""
    return repr(sorted(report.to_dict().items()))


GRID_NOISES = [
    NoiseConfig(),
    NoiseConfig(mode="structured", ratio=0.1),
]


class TestRhoGrid:
    """A campaign over a grid of noise scales is the per-scale campaigns,
    bit for bit: the grid's (R, block) stacks solve each trial as the
    per-scale (block,) stacks did."""

    @settings(max_examples=30)
    @given(
        st.sampled_from(GRID_NOISES),
        st.sampled_from([3, 4, 6]),
        st.integers(1, 140),
        st.integers(0, 2**31 - 1),
        st.lists(st.sampled_from([0.1, 0.3, 1.0, 3.0, 10.0]), min_size=1, max_size=4),
    )
    @example(GRID_NOISES[0], 6, 4, 25, [10.0])
    @example(GRID_NOISES[0], 6, 1, 25, [0.1, 10.0])
    @example(GRID_NOISES[1], 3, 70, 25, [0.1, 1.0, 10.0])
    def test_grid_equals_per_rho_campaigns(self, noise, n_a, trials, seed, rhos):
        sc = load_scenario(SCENARIOS / "crlb-attainment.yaml").replace(
            noise=noise, n_a=n_a, trials=trials, seed=seed
        )
        z = harness.trial_normals(sc)
        scaled = [sc.replace(noise=noise.scaled(rho)) for rho in rhos]

        def ue_entries(results):
            return [(_fields(report), repr(rows)) for report, rows in results]

        grid = _outcome(lambda: ue_entries(
            harness.run_wls_campaign(sc, collect_trials=True, normals=z, rhos=rhos)))
        single = _outcome(lambda: ue_entries(
            wls_oracle.run_wls_campaign_per_rho(sc_r, collect_trials=True, normals=z)
            for sc_r in scaled))
        assert grid == single
        grid = _outcome(lambda: [
            _fields(r) for r in harness.run_scatterer_campaign(sc, normals=z, rhos=rhos)])
        single = _outcome(lambda: [
            _fields(wls_oracle.run_scatterer_campaign_per_rho(sc_r, normals=z))
            for sc_r in scaled])
        assert grid == single

    def test_pinned_scatterer_failure_over_the_grid(self):
        sc = load_scenario(SCENARIOS / "crlb-attainment.yaml").replace(trials=4, seed=25)
        reports = harness.run_scatterer_campaign(sc, rhos=[0.1, 1.0, 10.0])
        assert [r.failure_rate for r in reports] == [0.0, 0.0, 0.25]
        with pytest.raises(CampaignFailedError, match="every trial failed"):
            harness.run_scatterer_campaign(sc.replace(trials=1), rhos=[0.1, 10.0])

    def test_without_rhos_is_the_grid_of_sc_noise(self):
        sc = Scenario(trials=5, seed=3)
        (alone, rows), = harness.run_wls_campaign(sc, collect_trials=True, rhos=[1.0])
        report, given_rows = harness.run_wls_campaign(sc, collect_trials=True)
        assert _fields(report) == _fields(alone) and given_rows == rows
        (alone,) = harness.run_scatterer_campaign(sc, rhos=[1.0])
        assert _fields(harness.run_scatterer_campaign(sc)) == _fields(alone)


def _every_trial_singular(solve):
    """A batch solver that runs ``solve`` and then fails every trial."""

    def solve_and_fail(*args, **kwargs):
        batch = solve(*args, **kwargs)
        for t in range(len(batch.failures)):
            batch.failures[t] = SingularProblemError(f"normal equations are singular ({t})")
        return batch

    return solve_and_fail


class TestEveryTrialFailed:
    def test_wls_campaign_raises_numerical_error(self, monkeypatch):
        monkeypatch.setattr(
            harness, "wls_solve_batch", _every_trial_singular(harness.wls_solve_batch)
        )
        with pytest.raises(NumericalError, match=r"every trial failed.*singular \(0\)"):
            harness.run_wls_campaign(Scenario(trials=3, seed=1))

    def test_scatterer_campaign_raises_numerical_error(self, monkeypatch):
        monkeypatch.setattr(
            harness,
            "scatterer_wls_solve_batch",
            _every_trial_singular(harness.scatterer_wls_solve_batch),
        )
        with pytest.raises(NumericalError, match=r"every trial failed.*singular \(0\)"):
            harness.run_scatterer_campaign(Scenario(trials=3, seed=1))


class TestLaterBlockFailure:
    """One trial of a later block fails at one noise scale: the joined
    blocks put its failure in that scale's report and its per-trial row,
    at its own index, and leave the other trials and the other scale alone."""

    FAILED = 66  # one of trials 64-69, block 1 of a 70-trial campaign
    RHOS = [0.3, 3.0]

    def _failing_at_scale_1(self, monkeypatch, solver):
        """Patch ``harness.<solver>`` to fail trial FAILED at scale 1 only;
        returns the list the solver's own (R, block) estimates go into."""
        solve = getattr(harness, solver)
        estimates = []

        def solve_and_fail(*args, **kwargs):
            batch = solve(*args, **kwargs)
            estimates.append(batch.x.copy())
            lo = harness._BLOCK * (len(estimates) - 1)
            if lo <= self.FAILED < lo + batch.x.shape[1]:
                failures = batch.failures.copy()
                valid = batch.velocity_valid.copy()
                failures[1, self.FAILED - lo] = SingularProblemError(f"trial {self.FAILED}")
                valid[1, self.FAILED - lo] = False
                return WlsBatch(x=batch.x, failures=failures, cov=batch.cov,
                                velocity_valid=valid)
            return batch

        monkeypatch.setattr(harness, solver, solve_and_fail)
        return estimates

    @pytest.mark.parametrize("campaign, solver, truth", [
        ("run_wls_campaign", "wls_solve_batch", "ue_true"),
        ("run_scatterer_campaign", "scatterer_wls_solve_batch", "scatterer_true"),
    ])
    def test_failure_lands_in_its_scale_and_row(self, monkeypatch, campaign, solver, truth):
        sc = Scenario(trials=70, seed=8)
        run = getattr(harness, campaign)
        kwargs = {"collect_trials": True} if campaign == "run_wls_campaign" else {}
        clean = run(sc, rhos=self.RHOS, **kwargs)
        estimates = self._failing_at_scale_1(monkeypatch, solver)
        failed = run(sc, rhos=self.RHOS, **kwargs)
        assert len(estimates) == 2
        if kwargs:
            (clean_0, _), (clean_1, clean_rows) = clean
            (report_0, _), (report_1, rows) = failed
            assert rows[self.FAILED] == {
                "trial": self.FAILED, "status": "fail", "detail": f"trial {self.FAILED}"}
            others = [r for r in rows if r["trial"] != self.FAILED]
            assert others == [r for r in clean_rows if r["trial"] != self.FAILED]
        else:
            clean_0, clean_1 = clean
            report_0, report_1 = failed
        assert _fields(report_0) == _fields(clean_0)
        assert clean_1.failure_rate == 0.0 and report_1.failure_rate == 1 / 70

        x = np.concatenate(estimates, axis=1)[1]
        expected = harness.compute_metrics(np.delete(x, self.FAILED, axis=0),
                                           getattr(sc, truth))
        expected.crlb_trace_position = clean_1.crlb_trace_position
        expected.crlb_trace_velocity = clean_1.crlb_trace_velocity
        expected.failure_rate = 1 / 70
        expected.trials = 70
        assert _fields(report_1) == _fields(expected)


class TestSrCampaign:
    def test_all_los_tiny_noise_perfect(self):
        sc = Scenario(
            noise=NoiseConfig(delta_d=1e-9, delta_a=1e-9),
            p_d=1.0,
            trials=25,
            seed=21,
        )
        report = harness.run_sr_campaign(sc)
        assert report.success_rate == 1.0
        assert report.trials == 25

    def test_reproducible(self):
        sc = Scenario(trials=40, seed=13, n_a=4)
        a = harness.run_sr_campaign(sc)
        b = harness.run_sr_campaign(sc)
        assert a.success_rate == b.success_rate
        assert a.failure_rate == 0.0

    def test_raising_selection_counts_as_failed_miss(self, monkeypatch):
        sc = Scenario(
            noise=NoiseConfig(delta_d=1e-9, delta_a=1e-9), p_d=1.0, trials=8, seed=21
        )
        real = harness.select_los
        calls = []

        def every_other_raises(*args, **kwargs):
            calls.append(None)
            if len(calls) % 2:
                raise SingularProblemError("no solvable ray fit")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "select_los", every_other_raises)
        report = harness.run_sr_campaign(sc)
        assert report.failure_rate == 0.5
        assert report.success_rate == 0.5

    def test_non_finite_pick_counts_as_failed(self, monkeypatch):
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), trials=8, seed=5)
        clean = harness.run_sr_campaign(sc, [4, 6])
        paths = selection.simulate_paths(sc, np.random.default_rng([sc.seed, 2]))
        hits = [selection.select_los(paths, sc.rrhs, n_a=na).all_selected_are_los()
                for na in (4, 6)]
        real = harness.simulate_paths_batch

        def nan_angles_in_trial_2(sc, streams):
            block = real(sc, streams)
            block[2] = [[dataclasses.replace(p, phi=np.nan) for p in ps] for ps in block[2]]
            return block

        monkeypatch.setattr(harness, "simulate_paths_batch", nan_angles_in_trial_2)
        for before, after, hit in zip(clean, harness.run_sr_campaign(sc, [4, 6]), hits):
            assert after.failure_rate == before.failure_rate + 1 / 8
            assert after.success_rate == before.success_rate - hit / 8

    def test_grid_equals_single_campaigns(self):
        # 70 trials span two blocks of harness._BLOCK.
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), trials=70, seed=5)
        grid = harness.run_sr_campaign(sc, [4, 6])
        for na, report in zip((4, 6), grid):
            single = harness.run_sr_campaign(sc.replace(n_a=na))
            assert report.success_rate == single.success_rate
            assert report.failure_rate == single.failure_rate
            assert report.trials == 70
        assert grid[0].success_rate != grid[1].success_rate

    def test_grid_equals_per_trial_selections(self):
        # 70 trials span two blocks of harness._BLOCK, fitted in one batch
        # each; the loop fits every trial alone.
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), trials=70, seed=9)
        grid = harness.run_sr_campaign(sc, [4, 6])
        for na, report in zip((4, 6), grid):
            hits = failed = 0
            for t in range(sc.trials):
                paths = selection.simulate_paths(sc, np.random.default_rng([sc.seed, t]))
                try:
                    hits += selection.select_los(paths, sc.rrhs, n_a=na).all_selected_are_los()
                except HybridlocError:
                    failed += 1
            assert report.success_rate == hits / sc.trials
            assert report.failure_rate == failed / sc.trials

    def test_selects_by_n_a_within_each_block(self, monkeypatch):
        sc = Scenario(noise=NoiseConfig(delta_d=0.1, delta_a=0.0175), trials=70, seed=5)
        real = harness.select_los
        order = []

        def recording(*args, **kwargs):
            order.append(kwargs["n_a"])
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "select_los", recording)
        harness.run_sr_campaign(sc, [4, 6])
        assert order == [4] * 64 + [6] * 64 + [4] * 6 + [6] * 6

    def test_raising_candidates_fail_the_trial_at_every_n_a(self, monkeypatch):
        sc = Scenario(
            noise=NoiseConfig(delta_d=1e-9, delta_a=1e-9), p_d=1.0, trials=8, seed=21
        )
        assert [r.success_rate for r in harness.run_sr_campaign(sc, [3, 5])] == [1.0, 1.0]
        real = harness.simulate_paths_batch

        def nan_azimuth_in_trial_3(sc, streams):
            block = real(sc, streams)
            min(block[3][0], key=lambda p: p.tau).phi = np.nan
            return block

        # Trial 3's picks raise NumericalError in the campaign's block and
        # again in each select_los, which gets no record for it.
        monkeypatch.setattr(harness, "simulate_paths_batch", nan_azimuth_in_trial_3)
        for report in harness.run_sr_campaign(sc, [3, 5]):
            assert report.failure_rate == 1 / 8
            assert report.success_rate == 7 / 8

    def test_whole_grid_checked_before_any_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "simulate_paths_batch", no_trials)
        with pytest.raises(ScenarioError, match="n_a must satisfy"):
            harness.run_sr_campaign(Scenario(trials=3), [4, 19])
        # A count that is no integer used to fail inside the first trial's
        # selection, with numpy's TypeError.
        with pytest.raises(ScenarioError, match="n_a must be an integer"):
            harness.run_sr_campaign(Scenario(trials=3), [4, 4.5])


class TestNnCampaign:
    def _datasets(self, sc, n=80):
        ds = nn.make_dataset(sc, n, np.random.default_rng(6))
        third = n // 4
        return {
            "train": ds.subset(slice(0, n - 2 * third)),
            "val": ds.subset(slice(n - 2 * third, n - third)),
            "test": ds.subset(slice(n - third, n)),
        }

    def test_wls_and_nn_wls_pipelines_run(self):
        sc = Scenario(
            noise=NoiseConfig(
                delta_d=3.0, delta_a=0.0175, mode="structured", ratio=0.01
            ),
            seed=3,
        )
        datasets = self._datasets(sc)
        cfg = nn.MlpConfig(layer_widths=(22, 8, 8, 22), seed=1, epochs=3)
        a = harness.run_nn_campaign(sc, "wls", datasets)
        b = harness.run_nn_campaign(sc, "nn_wls", datasets, mlp_config=cfg)
        assert a.mae_position > 0.0 and b.mae_position > 0.0
        assert a.trials == b.trials == len(datasets["test"])

    def test_unknown_pipeline_rejected(self):
        sc = Scenario()
        with pytest.raises(ScenarioError):
            harness.run_nn_campaign(sc, "magic", {})

    def test_missing_split_rejected(self):
        sc = Scenario()
        with pytest.raises(ScenarioError):
            harness.run_nn_campaign(sc, "wls", {"train": None, "val": None})

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ScenarioError):
            harness.estimator("magic", Scenario())

    @staticmethod
    def _net(*widths):
        return nn.Mlp.initialize(
            nn.MlpConfig(layer_widths=widths),
            nn.Normalizer.fit(np.zeros((1, widths[0]))),
            nn.Normalizer.fit(np.zeros((1, widths[-1]))),
        )

    @pytest.mark.filterwarnings("ignore:averaged residual weighting:RuntimeWarning")
    @pytest.mark.parametrize("listed", [False, True], ids=["one_net", "list"])
    @pytest.mark.parametrize("pipeline", list(harness.PIPELINES))
    def test_model_must_be_one_net_or_a_list_as_the_pipeline_takes(self, pipeline, listed):
        sc = Scenario()
        kind = harness.PIPELINES[pipeline]
        net = self._net(22, 4, 6 if kind == "state" else 22)
        model = [net, net] if listed else net
        if kind is not None and listed != (kind == "ensemble"):
            with pytest.raises(DimensionMismatchError, match=f"pipeline '{pipeline}' needs"):
                harness.estimator(pipeline, sc, model)
            return
        ms = ue_measurement(sc.ue_true, sc.selected_rrhs())[None]
        assert type(harness.estimator(pipeline, sc, model)(ms)) is WlsBatch

    def test_model_output_must_suit_the_pipeline(self):
        sc = Scenario()
        residual, blackbox = self._net(22, 4, 22), self._net(22, 4, 6)
        for pipeline, model in (("nn_wls", blackbox), ("nn_ls", blackbox),
                                ("enn_b", [residual, blackbox]), ("blackbox", residual)):
            with pytest.raises(DimensionMismatchError, match=f"pipeline '{pipeline}'"):
                harness.estimator(pipeline, sc, model)
        for pipeline, model in (("nn_wls", residual), ("enn_a", [residual, residual]),
                                ("blackbox", blackbox), ("wls", blackbox)):
            harness.estimator(pipeline, sc, model)
        with pytest.raises(ScenarioError, match="unknown pipeline"):
            harness.estimator("magic", sc, blackbox)

