"""The closed-form learning estimators, the stack maps and the blocked
dataset builders against the per-sample dense oracle."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import learning_oracle as oracle
from hybridloc import ensemble, harness, nn
from hybridloc.errors import (
    DimensionMismatchError,
    HybridlocError,
    NumericalError,
    SingularProblemError,
)
from hybridloc.geometry import ue_measurement
from hybridloc.noise import NoiseConfig, build_q
from hybridloc.scenario import Scenario
from hybridloc.ue_wls import _COND_LIMIT, WlsBatch, build_system, wls_solve
from learning_oracle import StubNet

STRUCTURED = NoiseConfig(delta_d=3.0, delta_a=0.0175, mode="structured", ratio=0.01)
SC = Scenario(noise=STRUCTURED)
RRHS = SC.selected_rrhs()
MARK = 12345.0  # a first measurement entry that poisons a PoisonNet's prediction


class PoisonNet:
    """A trained net whose prediction is NaN for rows starting with MARK;
    it has the net's ``config``, which ``harness.estimator`` checks."""

    def __init__(self, net):
        self.net = net
        self.config = net.config

    def predict(self, m):
        out = np.array(self.net.predict(m), dtype=float)
        out[np.asarray(m)[..., 0] == MARK] = np.nan
        return out


def _rel(actual, expected) -> float:
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


def _draw(seed: int, scale_exp: float, along_label: bool):
    """A measurement and a predicted residual ê: the true label perturbed
    and scaled, or a random direction."""
    rng = np.random.default_rng(seed)
    ds = nn.make_dataset(SC, 1, rng)
    scale = 10.0**scale_exp
    if along_label:
        e_hat = ds.e[0] * (1.0 + rng.normal(scale=0.3, size=22)) * scale
    else:
        e_hat = rng.normal(size=22) * scale
    return ds.m[0], e_hat


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularProblemError as exc:
        return exc


def _assert_agree(got_fn, e_hat, h, g, eps):
    """The closed form against the dense oracle: states within the
    tolerance rule, or both singular, unless the dense normal matrix sits
    within a factor 1e3 of the singularity limit, where the two roundings
    may decide apart."""
    normal = g.T @ oracle.residual_weight(e_hat, eps) @ g
    got = _outcome(got_fn)
    expected = _outcome(lambda: oracle.weighted_solve(e_hat, h, g, eps)[0])
    cond = np.linalg.cond(normal)
    if isinstance(got, Exception) or isinstance(expected, Exception):
        assert type(got) is type(expected) or cond > _COND_LIMIT / 1e3
        return
    cond_w = 1.0 + e_hat @ e_hat / eps
    assert _rel(got, expected) <= _tolerance(cond, cond_w)


def _tolerance(*conds) -> float:
    """1e-9 relative in the state norm, except on ill-conditioned draws:
    the dense oracle's own error grows as 1e-16 times the condition number
    of its normal matrix times that of its weighting, so beyond a product
    of 1e6 the bound is 1e-15 times that product."""
    return 1e-15 * max(1e6, float(np.prod(conds)))


seeds = st.integers(0, 2**32 - 1)
scales = st.floats(-3.0, 3.0)
ridges = st.floats(-3.0, 1.0).map(lambda k: 10.0**k)


class TestDatasetsMatchOracle:
    @given(seeds, st.integers(1, 150), st.sampled_from(["gaussian", "structured"]))
    @settings(max_examples=40)
    def test_ue_dataset_bit_identical(self, seed, n, mode):
        noise = STRUCTURED if mode == "structured" else NoiseConfig(delta_d=3.0, delta_a=0.02)
        sc = Scenario(noise=noise, n_a=int(np.random.default_rng(seed).integers(2, 10)))
        got = nn.make_dataset(sc, n, np.random.default_rng(seed))
        want = oracle.make_dataset(sc, n, np.random.default_rng(seed))
        for a, b in ((got.m, want.m), (got.e, want.e), (got.x, want.x)):
            assert np.array_equal(a, b)

    @given(seeds, st.integers(1, 150))
    @settings(max_examples=15)
    def test_pinned_bias_bit_identical(self, seed, n):
        bias = np.random.default_rng(seed).normal(size=22)
        got = nn.make_dataset(SC, n, np.random.default_rng(seed), dominant_bias=bias)
        want = oracle.make_dataset(SC, n, np.random.default_rng(seed), dominant_bias=bias)
        assert np.array_equal(got.m, want.m) and np.array_equal(got.e, want.e)
        assert got.metadata["dominant_bias"] == bias.tolist()

    @given(seeds, st.integers(1, 150), st.sampled_from(["gaussian", "structured"]),
           st.integers(0, 17))
    @settings(max_examples=40)
    def test_scatterer_dataset_bit_identical(self, seed, n, mode, rrh):
        noise = STRUCTURED if mode == "structured" else NoiseConfig(delta_d=3.0, delta_a=0.02)
        sc = Scenario(noise=noise, scatterer_rrh=rrh)
        got = nn.make_scatterer_dataset(sc, n, np.random.default_rng(seed))
        want = oracle.make_scatterer_dataset(sc, n, np.random.default_rng(seed))
        for a, b in ((got.m, want.m), (got.e, want.e), (got.x, want.x)):
            assert np.array_equal(a, b)


class TestClosedFormsMatchOracle:
    @given(seeds, scales, st.booleans(), ridges)
    @settings(max_examples=200)
    def test_nn_wls(self, seed, scale_exp, along_label, eps):
        m, e_hat = _draw(seed, scale_exp, along_label)
        _assert_agree(lambda: nn.nn_wls_estimate(StubNet(e_hat), m, RRHS, eps),
                      e_hat, *build_system(m, RRHS), eps)

    @given(seeds, scales, st.booleans())
    @settings(max_examples=100)
    def test_nn_ls(self, seed, scale_exp, along_label):
        m, e_hat = _draw(seed, scale_exp, along_label)
        expected = oracle.nn_ls_estimate(StubNet(e_hat), m, RRHS)
        got = nn.nn_ls_estimate(StubNet(e_hat), m, RRHS)
        _, g = build_system(m, RRHS)
        assert _rel(got, expected) <= _tolerance(np.linalg.cond(g.T @ g))

    @given(seeds, st.lists(scales, min_size=1, max_size=6), ridges)
    @settings(max_examples=60)
    def test_member_rows(self, seed, scale_exps, eps):
        rng = np.random.default_rng(seed)
        m, base = _draw(seed, 0.0, True)
        nets = [StubNet(base * (1.0 + rng.normal(scale=0.1, size=22)) * 10.0**k)
                for k in scale_exps]
        h, g = build_system(m, RRHS)
        states = _outcome(ensemble.member_states, nets, m, RRHS, eps)
        if isinstance(states, Exception):
            # A member's dense normal matrix sits at the singularity limit.
            conds = [np.linalg.cond(g.T @ oracle.residual_weight(net.e_hat, eps) @ g)
                     for net in nets]
            assert max(conds) > _COND_LIMIT / 1e3
            return
        for net, row in zip(nets, states):
            assert np.array_equal(row, nn.nn_wls_estimate(net, m, RRHS, eps))
            _assert_agree(lambda: row, net.e_hat, h, g, eps)

    @given(seeds, st.integers(2, 8), scales, st.floats(-4.0, 0.0), st.booleans())
    @settings(max_examples=100)
    def test_enn_b(self, seed, p, scale_exp, spread_exp, along_label):
        rng = np.random.default_rng(seed)
        m, base = _draw(seed, scale_exp, along_label)
        nets = [StubNet(base * (1.0 + rng.normal(scale=10.0**spread_exp, size=22)))
                for _ in range(p)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = oracle.enn_b_wls(nets, m, RRHS)
            got = ensemble.enn_b_wls(nets, m, RRHS)
        assert _rel(got, expected) <= 1e-7

    @given(seeds, st.integers(1, 3), ridges)
    @settings(max_examples=60)
    def test_residual_solve_with_more_rows_than_dim(self, seed, extra, ridge):
        # k = dim + extra residual rows: the k×k system is dim×dim.
        rng = np.random.default_rng(seed)
        m, base = _draw(seed, 0.0, True)
        h, g = build_system(m, RRHS)
        e = base * (1.0 + rng.normal(scale=0.1, size=(g.shape[0] + extra, g.shape[0])))
        x, cov = nn.residual_solve(h, g, e, ridge)
        x_dense, cov_dense = oracle.rows_weighted_solve(e, h, g, ridge)
        cond = np.linalg.cond(np.linalg.inv(cov_dense))
        tol = _tolerance(cond, np.linalg.cond(ridge * np.eye(g.shape[0]) + e.T @ e))
        assert _rel(x, x_dense) <= tol
        assert _rel(cov, cov_dense) <= tol

    def test_enn_b_with_members_beyond_rows_keeps_dense_path(self):
        rng = np.random.default_rng(3)
        m, base = _draw(3, 0.0, True)
        nets = [StubNet(base + rng.normal(size=22)) for _ in range(30)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = ensemble.enn_b_wls(nets, m, RRHS)
            expected = oracle.enn_b_wls(nets, m, RRHS)
        assert np.array_equal(got, expected)


@pytest.fixture(scope="module")
def trained():
    ds = nn.make_dataset(SC, 140, np.random.default_rng(11))
    tr, va, te = ds.subset(slice(0, 100)), ds.subset(slice(100, 120)), ds.subset(slice(120, 140))
    cfg = nn.MlpConfig(layer_widths=(22, 8, 22), epochs=3, seed=2)
    return {
        "net": nn.train(cfg, tr, va),
        "bb": nn.train_blackbox(cfg, tr, va),
        "nets": ensemble.train_ensemble(cfg, ensemble.EnsembleConfig(p=3), tr, va),
        "test": te,
    }


PIPELINES = ["wls", "blackbox", "nn_wls", "nn_ls", "enn_a", "enn_b", "enn_m"]


def _model(trained, pipeline):
    return {"wls": None, "blackbox": trained["bb"], "nn_wls": trained["net"],
            "nn_ls": trained["net"]}.get(pipeline, trained["nets"])


def _per_sample(pipeline, model, m):
    """The per-sample call of a pipeline: its estimate or the error raised."""
    call = {
        "wls": lambda: wls_solve(m, RRHS, build_q(SC.n_a, SC.noise), SC.wls_iters).x,
        "blackbox": lambda: nn.blackbox_estimate(model, m),
        "nn_wls": lambda: nn.nn_wls_estimate(model, m, RRHS),
        "nn_ls": lambda: nn.nn_ls_estimate(model, m, RRHS),
        "enn_a": lambda: ensemble.enn_a_wls(model, m, RRHS),
        "enn_b": lambda: ensemble.enn_b_wls(model, m, RRHS),
        "enn_m": lambda: ensemble.enn_m_wls(model, m, RRHS),
    }[pipeline]
    try:
        return call()
    except HybridlocError as exc:
        return exc


@pytest.fixture(autouse=True)
def _quiet_ridge():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


class TestStackMaps:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_rows_match_per_sample_calls(self, trained, pipeline):
        model, te = _model(trained, pipeline), trained["test"]
        batch = harness.estimator(pipeline, SC, model)(te.m)
        x, failures = batch.x, batch.failures
        assert x.shape == (len(te), 6) and failures.shape == (len(te),)
        for m, row, failure in zip(te.m, x, failures):
            single = _per_sample(pipeline, model, m)
            assert failure is None and not isinstance(single, HybridlocError)
            assert _rel(row, single) <= 1e-9

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_only_poisoned_samples_fail_alike(self, trained, pipeline):
        model, te = _model(trained, pipeline), trained["test"]
        if pipeline in ("blackbox", "nn_wls", "nn_ls"):
            model = PoisonNet(model)
        elif pipeline != "wls":
            model = list(model[:-1]) + [PoisonNet(model[-1])]
        ms = te.m.copy()
        ms[3, 0] = MARK  # a non-finite prediction (WLS: an ordinary sample)
        ms[7] = np.nan  # a non-finite measurement
        poisoned = {7} if pipeline == "wls" else {3, 7}
        batch = harness.estimator(pipeline, SC, model)(ms)
        x, failures = batch.x, batch.failures
        for i, (m, failure) in enumerate(zip(ms, failures)):
            single = _per_sample(pipeline, model, m)
            if i in poisoned:
                assert isinstance(failure, NumericalError)
                assert type(failure) is type(single) and str(failure) == str(single)
                assert np.isnan(x[i]).all()
            else:
                assert failure is None and np.isfinite(x[i]).all()

    def test_evaluate_counts_failed_samples(self, trained):
        te = trained["test"]
        ms = te.m.copy()
        ms[[2, 5]] = np.nan
        poisoned = nn.Dataset(ms, te.e, te.x)
        report = harness.evaluate(harness.estimator("nn_wls", SC, trained["net"]), poisoned)
        assert report.failure_rate == 2 / len(te) and report.trials == len(te)
        ok = np.ones(len(te), dtype=bool)
        ok[[2, 5]] = False
        clean = harness.evaluate(harness.estimator("nn_wls", SC, trained["net"]),
                                 te.subset(ok))
        assert report.mae_position == clean.mae_position

    def test_enn_b_map_warns_once_per_call(self, trained):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            harness.estimator("enn_b", SC, trained["nets"])(trained["test"].m)
        assert [w.category for w in caught] == [RuntimeWarning]


class InfStub(StubNet):
    """A ``StubNet`` with the ``config`` that ``harness.estimator`` checks,
    whose prediction is +inf on rows that start with MARK."""

    def __init__(self, e_hat):
        super().__init__(e_hat)
        self.config = nn.MlpConfig(layer_widths=(22, self.e_hat.size))

    def predict(self, m):
        out = super().predict(m)
        out[np.asarray(m)[..., 0] == MARK] = np.inf
        return out


class TestOneResultType:
    """Every pipeline's stack map returns a ``WlsBatch`` whose failed rows
    are NaN and whose ``velocity_valid`` is the success mask."""

    @given(st.sampled_from(PIPELINES),
           st.lists(st.sampled_from(["ok", "mark", "nan"]), min_size=1, max_size=6), seeds)
    @settings(max_examples=60)
    def test_every_map_returns_a_wls_batch(self, pipeline, kinds, seed):
        rng = np.random.default_rng(seed)
        ds = nn.make_dataset(SC, len(kinds), rng)
        ms = ds.m.copy()
        kinds = np.array(kinds)
        ms[kinds == "mark", 0] = MARK  # a +inf prediction (WLS: an ordinary sample)
        ms[kinds == "nan"] = np.nan  # a non-finite measurement
        labels = ds.e.mean(axis=0)
        model = {
            "wls": None,
            "blackbox": InfStub(ds.x.mean(axis=0)),
            "nn_wls": InfStub(labels),
            "nn_ls": InfStub(labels),
        }.get(pipeline, [InfStub(labels * (1.0 + 0.1 * k)) for k in range(3)])
        batch = harness.estimator(pipeline, SC, model)(ms)
        assert type(batch) is WlsBatch
        ok = np.equal(batch.failures, None)
        assert np.array_equal(batch.velocity_valid, ok)
        assert np.isnan(batch.x[~ok]).all() and np.isfinite(batch.x[ok]).all()
        assert (batch.cov is None) == (pipeline != "wls")
        failed = kinds == "nan" if pipeline == "wls" else kinds != "ok"
        if pipeline == "blackbox":
            failed = kinds == "mark"  # a constant net ignores the measurement
        assert np.array_equal(~ok, failed)


PER_SAMPLE = {  # each per-sample estimator and the model it takes
    nn.nn_wls_estimate: "net",
    nn.nn_ls_estimate: "net",
    nn.blackbox_estimate: "bb",
    ensemble.member_states: "nets",
    ensemble.enn_a_wls: "nets",
    ensemble.enn_m_wls: "nets",
    ensemble.enn_b_wls: "nets",
}


@pytest.mark.parametrize("estimate", PER_SAMPLE, ids=lambda f: f.__name__)
def test_per_sample_estimator_rejects_a_stack(trained, estimate):
    # Each per-sample estimator is its stack map on one sample, so a stack
    # of samples is one malformed sample, not N of them.
    model = PER_SAMPLE[estimate]
    args = () if model == "bb" else (RRHS,)
    with pytest.raises(DimensionMismatchError):
        estimate(trained[model], trained["test"].m, *args)


@pytest.mark.parametrize("estimate", PER_SAMPLE, ids=lambda f: f.__name__)
@pytest.mark.parametrize("receivers", [6, 5])
def test_per_sample_estimator_rejects_a_measurement_of_the_wrong_width(
    trained, estimate, receivers
):
    # 20 entries against 6 receivers, or a well-formed 18-entry measurement
    # of 5 receivers against networks that take 22 inputs.
    model = PER_SAMPLE[estimate]
    m = trained["test"].m[0, :20] if receivers == 6 else ue_measurement(SC.ue_true, RRHS[:5])
    args = () if model == "bb" else (RRHS[:receivers],)
    with pytest.raises(DimensionMismatchError):
        estimate(trained[model], m, *args)


def test_width_check_accepts_a_config_built_with_a_list(trained):
    net = trained["net"]
    config = dataclasses.replace(net.config, layer_widths=list(net.config.layer_widths))
    listed = nn.Mlp(config, net.weights, net.biases, net.in_norm, net.out_norm)
    m = trained["test"].m[:3]
    assert np.array_equal(listed.predict(m), net.predict(m))
    assert np.array_equal(listed.predict(m[0]), net.predict(m[0]))
    with pytest.raises(DimensionMismatchError):
        listed.predict(m[:, :20])


class TestRidgeCheck:
    MESSAGE = "ridge parameter must be positive"

    def test_nn_wls_estimate(self, trained):
        with pytest.raises(NumericalError, match=self.MESSAGE):
            nn.nn_wls_estimate(trained["net"], trained["test"].m[0], RRHS, eps=0.0)

    @pytest.mark.parametrize("combine", [ensemble.member_states, ensemble.enn_a_wls,
                                         ensemble.enn_m_wls])
    def test_member_paths(self, trained, combine):
        with pytest.raises(NumericalError, match=self.MESSAGE):
            combine(trained["nets"], trained["test"].m[0], RRHS, 0.0)

    @pytest.mark.parametrize("pipeline", ["nn_wls", "enn_a", "enn_m"])
    def test_stack_maps_fail_every_sample(self, trained, pipeline):
        model = _model(trained, pipeline)
        batch = harness.estimator(pipeline, SC, model, eps=-0.5)(trained["test"].m)
        assert np.isnan(batch.x).all()
        assert all(type(f) is NumericalError and str(f) == self.MESSAGE for f in batch.failures)


class RowNet:
    """Predicts a stored vector for each stored measurement row, so that
    the members of a stack map disagree differently on every sample."""

    def __init__(self, ms, preds):
        self.rows = {m.tobytes(): e for m, e in zip(ms, preds)}

    def predict(self, m):
        m = np.asarray(m, dtype=float)
        rows = [self.rows[r.tobytes()] for r in m.reshape(-1, m.shape[-1])]
        return np.array(rows).reshape(m.shape[:-1] + (-1,))


def _dense_stack(kinds, p, seed):
    """Measurements (N, 22) and member predictions (N, P, 22), one sample
    per kind: "regular" (a full-rank average), "ranked" (rank below 22,
    ridged), "zero_column" (an exactly singular average, ridged) or
    "non_finite" (a NaN or inf prediction)."""
    rng = np.random.default_rng(seed)
    ms = nn.make_dataset(SC, len(kinds), rng).m
    preds = np.empty((len(kinds), p, 22))
    for e, kind in zip(preds, kinds):
        rank = int(rng.integers(1, 22)) if kind == "ranked" else 22
        e[:] = rng.normal(size=(p, rank)) @ rng.normal(size=(rank, 22))
        e *= 10.0 ** rng.uniform(-2, 2)
        if kind == "zero_column":
            e[:, rng.integers(22)] = 0.0
        elif kind == "non_finite":
            e[rng.integers(p), rng.integers(22)] = rng.choice([np.nan, np.inf, -np.inf])
    return ms, preds


class TestDenseEnnB:
    """From P = dim members on, ENN-B decides and inverts every sample's
    averaged weighting in one stack; each sample gets what the per-sample
    dense oracle gives it, bit for bit."""

    KINDS = ["regular", "regular", "ranked", "zero_column", "non_finite"]

    @given(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6), st.integers(22, 30),
           seeds)
    @settings(max_examples=60)
    def test_matches_the_per_sample_oracle(self, kinds, p, seed):
        ms, preds = _dense_stack(kinds, p, seed)
        nets = [RowNet(ms, preds[:, k]) for k in range(p)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = ensemble.enn_b_wls_batch(nets, ms, RRHS)
        x, failures = batch.x, batch.failures
        avg = ensemble.average_outer(preds)
        w, engaged = ensemble.invert_weighting(avg)
        ridged = False
        for i, kind in enumerate(kinds):
            assert np.array_equal(avg[i], preds[i].T @ preds[i] / p, equal_nan=True)
            if kind == "non_finite":
                assert type(failures[i]) is NumericalError and np.isnan(x[i]).all()
                assert np.isnan(w[i]).all() and not engaged[i]
                continue
            w_o, engaged_o = oracle.invert_weighting(avg[i])
            assert np.array_equal(w[i], w_o) and engaged[i] == engaged_o
            assert ensemble.invert_weighting(avg[i])[1] is engaged_o
            ridged |= engaged_o
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = _outcome(oracle.enn_b_wls, nets, ms[i], RRHS)
            if isinstance(expected, Exception):
                assert repr(failures[i]) == repr(expected) and np.isnan(x[i]).all()
            else:
                assert failures[i] is None and np.array_equal(x[i], expected)
        ridge = [w for w in caught if "ridge engaged" in str(w.message)]
        assert len(ridge) == ridged

    @pytest.mark.parametrize("signs", ["equal", "mixed"])
    def test_overflowing_predictions_fail_quietly(self, capfd, signs):
        # Predictions of +-1e200 overflow the averaged outer product to inf
        # (equal signs) or to inf and NaN (mixed signs).  Its sample fails
        # on its non-finite weighting, without a ridge and without an SVD
        # of those entries, which prints LAPACK's DLASCL complaint on inf
        # and raises LinAlgError on NaN.
        ms, preds = _dense_stack(["regular", "regular"], 22, 5)
        preds[1] = (np.sign(preds[1]) if signs == "mixed" else 1.0) * 1e200
        nets = [RowNet(ms, preds[:, k]) for k in range(22)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = ensemble.enn_b_wls_batch(nets, ms, RRHS)
        x, failures = batch.x, batch.failures
        assert failures[0] is None
        assert np.array_equal(x[0], oracle.enn_b_wls(nets, ms[0], RRHS))
        assert type(failures[1]) is NumericalError and np.isnan(x[1]).all()
        messages = [str(w.message) for w in caught]
        assert not any("ridge engaged" in m for m in messages)
        assert any("overflow encountered in matmul" in m for m in messages)
        assert "DLASCL" not in capfd.readouterr().err
