"""The lockstep trainer against the per-network loop in training_oracle.

Both trainers do the same arithmetic in the same order, so every weight,
bias and validation loss must match bit for bit.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import training_oracle as oracle
from hybridloc import ensemble, nn
from hybridloc.errors import NumericalError, ScenarioError
from hybridloc.noise import NoiseConfig
from hybridloc.scenario import Scenario


def split(n_train, n_val=20, seed=5):
    sc = Scenario(
        noise=NoiseConfig(delta_d=3.0, delta_a=0.0175, mode="structured", ratio=0.01)
    )
    ds = nn.make_dataset(sc, n_train + n_val, np.random.default_rng(seed))
    return ds.subset(slice(0, n_train)), ds.subset(slice(n_train, n_train + n_val))


def assert_same(net, expected):
    ref, curve, best_epoch = expected
    assert len(net.weights) == len(ref.weights)
    for got, want in zip(net.weights + net.biases, ref.weights + ref.biases):
        assert np.array_equal(got, want)
    assert np.array_equal(net.val_curve, curve)
    assert net.best_epoch == best_epoch


RECIPES = [
    dict(),
    dict(output_activation="linear"),
    dict(lr_schedule="cosine"),
    dict(loss_weighting="raw"),
    dict(output_activation="linear", lr_schedule="cosine", loss_weighting="raw"),
]


@pytest.mark.parametrize("recipe", RECIPES)
@pytest.mark.parametrize("n_train", [90, 40, 128, 65])
def test_train_matches_oracle(recipe, n_train):
    # 90 and 65 leave a short last batch (65: a batch of one), 40 is below
    # the batch size and 128 fills two batches exactly.
    tr, va = split(n_train)
    cfg = nn.MlpConfig(layer_widths=(22, 12, 9, 22), epochs=6, seed=7, **recipe)
    assert_same(nn.train(cfg, tr, va), oracle.train(cfg, tr, va))


@pytest.mark.parametrize("recipe", RECIPES[:2] + RECIPES[-1:])
def test_train_blackbox_matches_oracle(recipe):
    tr, va = split(90)
    cfg = nn.MlpConfig(layer_widths=(22, 12, 22), epochs=6, seed=2, **recipe)
    net = nn.train_blackbox(cfg, tr, va)
    assert net.config.layer_widths == (22, 12, 6)
    assert_same(net, oracle.train_blackbox(cfg, tr, va))


@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("recipe", RECIPES[:1] + RECIPES[-1:])
def test_train_ensemble_matches_oracle(p, recipe):
    # A one-member stack is what nn.train runs; EnsembleConfig needs p >= 2.
    tr, va = split(90)
    cfg = nn.MlpConfig(layer_widths=(22, 10, 10, 22), epochs=5, **recipe)
    ens = ensemble.EnsembleConfig(p=p, seeds=tuple(range(11, 11 + p)))
    nets = ensemble.train_ensemble(cfg, ens, tr, va)
    expected = oracle.train_ensemble(cfg, ens.seeds, tr, va)
    assert [net.config.seed for net in nets] == list(ens.seeds)
    for net, want in zip(nets, expected):
        assert_same(net, want)


def test_best_snapshot_before_last_epoch_matches_oracle():
    # A large step on few samples overfits, so validation loss bottoms out
    # early and the kept snapshot is not the final state.
    tr, va = split(30, n_val=30)
    cfg = nn.MlpConfig(layer_widths=(22, 32, 32, 22), epochs=40, lr=3e-2,
                       batch_size=8, output_activation="linear")
    ens = ensemble.EnsembleConfig(p=3, seeds=(0, 1, 2))
    nets = ensemble.train_ensemble(cfg, ens, tr, va)
    expected = oracle.train_ensemble(cfg, ens.seeds, tr, va)
    for net, want in zip(nets, expected):
        assert 0 < net.best_epoch < cfg.epochs
        assert net.best_epoch == int(np.argmin(net.val_curve))
        assert_same(net, want)
    assert len({net.best_epoch for net in nets}) > 1


@settings(max_examples=100)
@given(
    hidden=st.lists(st.integers(1, 12), min_size=0, max_size=2),
    n_in=st.integers(1, 6),
    n_out=st.integers(1, 6),
    n_train=st.integers(1, 40),
    n_val=st.integers(1, 8),
    batch_size=st.integers(1, 16),
    epochs=st.integers(0, 4),
    seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4),
    data_seed=st.integers(0, 2**31),
    sigmoid=st.booleans(),
    cosine=st.booleans(),
    raw=st.booleans(),
)
def test_random_stacks_match_oracle(hidden, n_in, n_out, n_train, n_val,
                                    batch_size, epochs, seeds, data_seed,
                                    sigmoid, cosine, raw):
    rng = np.random.default_rng(data_seed)
    m = rng.normal(scale=50.0, size=(n_train + n_val, n_in))
    y = rng.normal(size=(n_train + n_val, n_out)) * rng.uniform(0.1, 100.0, n_out)
    cfg = nn.MlpConfig(
        layer_widths=(n_in, *hidden, n_out),
        output_activation="sigmoid" if sigmoid else "linear",
        lr=1e-2,
        epochs=epochs,
        batch_size=batch_size,
        lr_schedule="cosine" if cosine else "constant",
        loss_weighting="raw" if raw else "normalized",
    )
    configs = [cfg.replace(seed=s) for s in seeds]
    nets = nn._train_stack(configs, m[:n_train], y[:n_train], m[n_train:], y[n_train:])
    for net, c in zip(nets, configs):
        assert_same(net, oracle.train_on(c, m[:n_train], y[:n_train],
                                         m[n_train:], y[n_train:]))


def test_diverging_stack_raises_numerical_error():
    tr, va = split(40)
    cfg = nn.MlpConfig(layer_widths=(22, 16, 16, 22), output_activation="linear",
                       lr=1e160, epochs=50)
    # Only the error reports the divergence: no overflow warning precedes it.
    with warnings.catch_warnings(), pytest.raises(
        NumericalError, match="training diverged at epoch"
    ):
        warnings.simplefilter("error", RuntimeWarning)
        ensemble.train_ensemble(cfg, ensemble.EnsembleConfig(p=3), tr, va)


@pytest.mark.parametrize("change", [
    dict(lr=2e-3),
    dict(epochs=4),
    dict(layer_widths=(22, 8, 22)),
    dict(output_activation="linear"),
    dict(lr_schedule="cosine"),
])
def test_stack_rejects_configs_differing_beyond_seed(change):
    tr, va = split(40)
    base = nn.MlpConfig(layer_widths=(22, 4, 22), epochs=3)
    configs = [base.replace(seed=1), base.replace(seed=2, **change)]
    with pytest.raises(ScenarioError):
        nn._train_stack(configs, tr.m, tr.e, va.m, va.e)


def test_members_own_their_arrays_and_normalizers():
    tr, va = split(60)
    cfg = nn.MlpConfig(layer_widths=(22, 8, 22), epochs=2)
    nets = ensemble.train_ensemble(cfg, ensemble.EnsembleConfig(p=3), tr, va)
    before = [net.predict(va.m) for net in nets]
    nets[1].out_norm.lo += 500.0
    nets[1].in_norm.span *= 2.0
    nets[1].weights[0] += 1.0
    nets[1].biases[-1] -= 1.0
    after = [net.predict(va.m) for net in nets]
    assert np.array_equal(after[0], before[0])
    assert np.array_equal(after[2], before[2])
    assert not np.array_equal(after[1], before[1])
