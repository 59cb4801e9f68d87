"""Tests for the residual-learning networks and the estimators on top."""

import warnings

import numpy as np
import pytest

from hybridloc import nn
from hybridloc.errors import DimensionMismatchError, NumericalError, ScenarioError
from hybridloc.noise import NoiseConfig, build_qs
from hybridloc.scenario import Scenario
from hybridloc.scatterer_wls import build_scatterer_system, scatterer_wls_solve
from hybridloc.ue_wls import build_system, solve_linear
from learning_oracle import StubNet


def small_dataset(n=120, seed=5, ratio=0.01):
    sc = Scenario(
        noise=NoiseConfig(delta_d=3.0, delta_a=0.0175, mode="structured", ratio=ratio)
    )
    return sc, nn.make_dataset(sc, n, np.random.default_rng(seed))


class TestNormalizer:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(-500.0, 2000.0, size=(40, 7))
        norm = nn.Normalizer.fit(data)
        back = norm.inverse(norm.transform(data))
        assert np.max(np.abs(back - data)) < 1e-12 * np.max(np.abs(data))

    def test_min_max_map_to_unit_interval(self):
        data = np.array([[1.0, -3.0], [5.0, -1.0], [3.0, -2.0]])
        z = nn.Normalizer.fit(data).transform(data)
        assert z.min() == 0.0 and z.max() == 1.0
        assert np.all(z >= 0.0) and np.all(z <= 1.0)

    def test_constant_component_round_trips(self):
        data = np.column_stack([np.full(10, 4.2), np.arange(10.0)])
        norm = nn.Normalizer.fit(data)
        back = norm.inverse(norm.transform(data))
        assert np.allclose(back, data, atol=1e-12)


class TestDataset:
    def test_labels_are_equation_errors(self):
        sc, ds = small_dataset(n=10)
        rrhs = sc.selected_rrhs()
        for i in (0, 7):
            h, g = build_system(ds.m[i], rrhs)
            assert np.allclose(ds.e[i], h - g @ ds.x[i], atol=1e-9)

    def test_near_zero_noise_gives_near_zero_labels(self):
        sc = Scenario(noise=NoiseConfig(delta_d=1e-12, delta_a=1e-12))
        ds = nn.make_dataset(sc, 10, np.random.default_rng(1))
        assert np.max(np.abs(ds.e)) < 1e-6

    def test_small_ratio_labels_nearly_constant_at_fixed_state(self):
        point = np.array([[250.0, 250.0], [450.0, 450.0], [5.0, 5.0]])
        still = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        sc = Scenario(
            ue_box=point,
            ue_velocity_box=still,
            noise=NoiseConfig(
                delta_d=3.0, delta_a=0.0175, mode="structured", ratio=0.001
            ),
        )
        ds = nn.make_dataset(sc, 60, np.random.default_rng(3))
        spread = ds.e.std(axis=0)
        scale = np.abs(ds.e.mean(axis=0)) + 1.0
        assert np.all(spread <= 0.02 * scale)

    def test_reproducible_for_same_seed(self):
        _, a = small_dataset(seed=11)
        _, b = small_dataset(seed=11)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.e, b.e)

    def test_different_seeds_differ(self):
        _, a = small_dataset(seed=11)
        _, b = small_dataset(seed=12)
        assert not np.array_equal(a.m, b.m)

    def test_subset_slicing(self):
        _, ds = small_dataset(n=50)
        head = ds.subset(slice(0, 30))
        tail = ds.subset(slice(30, 50))
        assert len(head) == 30 and len(tail) == 20
        assert np.array_equal(np.vstack([head.m, tail.m]), ds.m)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(DimensionMismatchError):
            nn.Dataset(np.zeros((5, 22)), np.zeros((4, 22)), np.zeros((5, 6)))


class TestGradients:
    def _fd_check(self, output_activation, weighted=False):
        _, ds = small_dataset(n=16)
        cfg = nn.MlpConfig(
            layer_widths=(22, 8, 8, 22),
            output_activation=output_activation,
            seed=9,
        )
        in_n = nn.Normalizer.fit(ds.m)
        out_n = nn.Normalizer.fit(ds.e)
        net = nn.Mlp.initialize(cfg, in_n, out_n)
        z = in_n.transform(ds.m[:5])
        t = out_n.transform(ds.e[:5])
        cw = None
        if weighted:
            # Moderate weights: the span**2 production weights have ~1e8
            # dynamic range, which pushes small-weight components below
            # finite-difference resolution without changing the math.
            cw = np.linspace(0.5, 3.0, 22)
            cw = cw / cw.mean()
        _, gw, gb = net.loss_and_gradients(z, t, cw)
        params = net.weights + net.biases
        grads = gw + gb
        step = 1e-6
        rng = np.random.default_rng(2)
        worst = 0.0
        for p, g in zip(params, grads):
            flat = p.reshape(-1)
            for idx in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + step
                up = net.loss_and_gradients(z, t, cw)[0]
                flat[idx] = orig - step
                down = net.loss_and_gradients(z, t, cw)[0]
                flat[idx] = orig
                fd = (up - down) / (2.0 * step)
                an = g.reshape(-1)[idx]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-12))
        return worst

    def test_backprop_matches_finite_differences_sigmoid(self):
        assert self._fd_check("sigmoid") < 1e-4

    def test_backprop_matches_finite_differences_linear(self):
        assert self._fd_check("linear") < 1e-4

    def test_backprop_matches_finite_differences_weighted(self):
        assert self._fd_check("sigmoid", weighted=True) < 1e-4


class TestMlpConfig:
    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ScenarioError, match="batch_size"):
            nn.MlpConfig(batch_size=batch_size)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ScenarioError, match="epochs"):
            nn.MlpConfig(epochs=-3)

    def test_negative_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            nn.MlpConfig(seed=-1)

    def test_zero_epochs_keeps_the_initialization(self):
        _, ds = small_dataset(n=40)
        cfg = nn.MlpConfig(layer_widths=(22, 8, 22), epochs=0, batch_size=1, seed=3)
        net = nn.train(cfg, ds.subset(slice(0, 30)), ds.subset(slice(30, 40)))
        init = nn.Mlp.initialize(cfg, net.in_norm, net.out_norm)
        assert net.best_epoch == 0 and len(net.val_curve) == 1
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, init.weights))


class TestTraining:
    def test_same_seed_identical_weights(self):
        _, ds = small_dataset(n=100)
        tr, va = ds.subset(slice(0, 80)), ds.subset(slice(80, 100))
        cfg = nn.MlpConfig(layer_widths=(22, 16, 16, 22), seed=4, epochs=5)
        a = nn.train(cfg, tr, va)
        b = nn.train(cfg, tr, va)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))

    def test_different_seeds_differ(self):
        _, ds = small_dataset(n=100)
        tr, va = ds.subset(slice(0, 80)), ds.subset(slice(80, 100))
        cfg = nn.MlpConfig(layer_widths=(22, 16, 16, 22), epochs=2)
        a = nn.train(cfg.replace(seed=1), tr, va)
        b = nn.train(cfg.replace(seed=2), tr, va)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_constant_labels_converge(self):
        rng = np.random.default_rng(8)
        m = rng.uniform(0.0, 10.0, size=(200, 6))
        const = np.array([3.0, -1.0, 0.5, 7.0])
        e = np.tile(const, (200, 1))
        x = np.zeros((200, 4))
        ds = nn.Dataset(m[:, :4], e, x)
        tr = ds.subset(slice(0, 160))
        va = ds.subset(slice(160, 200))
        cfg = nn.MlpConfig(layer_widths=(4, 16, 16, 4), seed=0, epochs=200)
        net = nn.train(cfg, tr, va)
        pred = net.predict(va.m)
        # The sigmoid output approaches the constants asymptotically, so a
        # short run lands near them rather than exactly on them.
        assert np.max(np.abs(pred - const)) < 0.15

    def test_divergence_raises(self):
        _, ds = small_dataset(n=60)
        tr, va = ds.subset(slice(0, 40)), ds.subset(slice(40, 60))
        # Adam's normalized steps keep moderate blow-ups finite; an extreme
        # learning rate overflows the forward pass and must abort cleanly.
        cfg = nn.MlpConfig(
            layer_widths=(22, 16, 16, 22),
            output_activation="linear",
            lr=1e160,
            epochs=50,
            seed=1,
        )
        # Only the error reports the divergence: no overflow warning precedes it.
        with warnings.catch_warnings(), pytest.raises(NumericalError):
            warnings.simplefilter("error", RuntimeWarning)
            nn.train(cfg, tr, va)

    def test_width_mismatch_rejected(self):
        _, ds = small_dataset(n=40)
        tr, va = ds.subset(slice(0, 30)), ds.subset(slice(30, 40))
        cfg = nn.MlpConfig(layer_widths=(10, 8, 22), epochs=1)
        with pytest.raises(DimensionMismatchError):
            nn.train(cfg, tr, va)


class TestEstimators:
    def test_zero_residual_reduces_to_plain_ls(self):
        sc, ds = small_dataset(n=5)
        rrhs = sc.selected_rrhs()
        m = ds.m[0]
        h, g = build_system(m, rrhs)
        expected, _ = solve_linear(h, g, np.eye(h.size))
        got = nn.nn_wls_estimate(StubNet(np.zeros(22)), m, rrhs, eps=0.1)
        assert np.allclose(got, expected, atol=1e-8)

    def test_perfect_residual_recovers_state_via_ls(self):
        sc, ds = small_dataset(n=5)
        rrhs = sc.selected_rrhs()
        m, x, e = ds.m[2], ds.x[2], ds.e[2]
        got = nn.nn_ls_estimate(StubNet(e), m, rrhs)
        assert np.allclose(got, x, atol=1e-6)

    def test_perfect_residual_nn_wls_nearly_exact(self):
        sc, ds = small_dataset(n=5)
        rrhs = sc.selected_rrhs()
        m, x, e = ds.m[1], ds.x[1], ds.e[1]
        got = nn.nn_wls_estimate(StubNet(e), m, rrhs, eps=0.1)
        assert np.linalg.norm(got[:3] - x[:3]) < 0.01

    def test_weighting_matrix_spd(self):
        rng = np.random.default_rng(6)
        e_hat = rng.normal(size=22) * 100.0
        w = nn.residual_weight(e_hat, 0.1)
        assert np.allclose(w, w.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(w)) > 0.0

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(NumericalError):
            nn.residual_weight(np.ones(22), 0.0)

    def test_blackbox_regresses_full_state(self):
        _, ds = small_dataset(n=100)
        tr, va = ds.subset(slice(0, 80)), ds.subset(slice(80, 100))
        cfg = nn.MlpConfig(layer_widths=(22, 16, 16, 22), seed=3, epochs=3)
        bb = nn.train_blackbox(cfg, tr, va)
        assert bb.config.layer_widths == (22, 16, 16, 6)
        assert bb.config.output_activation == "linear"
        assert nn.blackbox_estimate(bb, ds.m[0]).shape == (6,)

    def test_scatterer_zero_noise_exact(self):
        sc = Scenario(noise=NoiseConfig(delta_d=1e-12, delta_a=1e-12))
        ds = nn.make_scatterer_dataset(sc, 4, np.random.default_rng(2))
        b_n = sc.rrhs[sc.scatterer_rrh]
        b_1 = sc.rrhs[0]
        xs = scatterer_wls_solve(ds.m[0], b_n, b_1, sc.ue_true, build_qs(sc.noise)).x
        assert np.allclose(xs, ds.x[0], atol=1e-4)

    def test_scatterer_labels_are_equation_errors(self):
        sc = Scenario(
            noise=NoiseConfig(delta_d=0.5, delta_a=0.0175)
        )
        ds = nn.make_scatterer_dataset(sc, 6, np.random.default_rng(9))
        b_n = sc.rrhs[sc.scatterer_rrh]
        b_1 = sc.rrhs[0]
        h, gt = build_scatterer_system(ds.m[3], b_n, b_1, sc.ue_true)
        assert np.allclose(ds.e[3], h - gt @ ds.x[3], atol=1e-9)


class TestPersistence:
    def _trained(self):
        _, ds = small_dataset(n=80)
        tr, va = ds.subset(slice(0, 60)), ds.subset(slice(60, 80))
        cfg = nn.MlpConfig(layer_widths=(22, 16, 16, 22), seed=2, epochs=3)
        return nn.train(cfg, tr, va), ds

    def test_round_trip(self, tmp_path):
        net, ds = self._trained()
        path = tmp_path / "model.npz"
        nn.save_model(net, path)
        loaded = nn.load_model(path)
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, loaded.weights))
        assert np.array_equal(net.in_norm.lo, loaded.in_norm.lo)
        assert np.allclose(net.predict(ds.m[0]), loaded.predict(ds.m[0]))

    def test_round_trip_keeps_training_history(self, tmp_path):
        net, _ = self._trained()
        assert net.val_curve.shape == (net.config.epochs + 1,)
        assert net.best_epoch == int(np.argmin(net.val_curve))
        path = tmp_path / "model.npz"
        nn.save_model(net, path)
        loaded = nn.load_model(path)
        assert np.array_equal(loaded.val_curve, net.val_curve)
        assert loaded.best_epoch == net.best_epoch

    def test_model_without_history_loads(self, tmp_path):
        net, ds = self._trained()
        path = tmp_path / "model.npz"
        nn.save_model(net, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files
                       if k not in ("val_curve", "best_epoch")}
        np.savez(path, **payload)
        loaded = nn.load_model(path)
        assert loaded.val_curve is None and loaded.best_epoch is None
        assert np.array_equal(loaded.predict(ds.m[0]), net.predict(ds.m[0]))

    def test_untrained_model_saves_without_history(self, tmp_path):
        _, ds = small_dataset(n=20)
        cfg = nn.MlpConfig(layer_widths=(22, 4, 22))
        net = nn.Mlp.initialize(cfg, nn.Normalizer.fit(ds.m), nn.Normalizer.fit(ds.e))
        path = tmp_path / "model.npz"
        nn.save_model(net, path)
        with np.load(path) as data:
            assert "val_curve" not in data.files and "best_epoch" not in data.files
        assert nn.load_model(path).val_curve is None

    def test_save_is_byte_stable(self, tmp_path):
        net, _ = self._trained()
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        nn.save_model(net, a)
        nn.save_model(net, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        net, _ = self._trained()
        path = tmp_path / "model.npz"
        nn.save_model(net, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["format_version"] = np.array(99)
        np.savez(path, **payload)
        with pytest.raises(ScenarioError) as exc:
            nn.load_model(path)
        assert str(path) in str(exc.value) and "version 99" in str(exc.value)


class TestConfig:
    def test_bad_widths_rejected(self):
        with pytest.raises(DimensionMismatchError):
            nn.MlpConfig(layer_widths=(22,))
        with pytest.raises(DimensionMismatchError):
            nn.MlpConfig(layer_widths=(22, 0, 22))

    def test_bad_activation_rejected(self):
        with pytest.raises(ScenarioError):
            nn.MlpConfig(output_activation="tanh")

    def test_bad_schedule_and_weighting_rejected(self):
        with pytest.raises(ScenarioError):
            nn.MlpConfig(lr_schedule="linear-decay")
        with pytest.raises(ScenarioError):
            nn.MlpConfig(loss_weighting="per-sample")

    @pytest.mark.parametrize("field, value", [
        ("lr", 0.0), ("lr", -1.0), ("lr", np.nan), ("lr", np.inf),
        ("eps_adam", 0.0), ("eps_adam", np.nan),
        ("beta1", -0.1), ("beta1", 1.0), ("beta1", 2.0), ("beta2", 1.0), ("beta2", np.nan),
    ])
    def test_adam_setting_out_of_range_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            nn.MlpConfig(**{field: value})

    def test_replace_keeps_other_fields(self):
        cfg = nn.MlpConfig(seed=5, epochs=7)
        other = cfg.replace(epochs=9)
        assert other.epochs == 9 and other.seed == 5 and cfg.epochs == 7

    def test_cosine_raw_training_runs_and_is_deterministic(self):
        _, ds = small_dataset(n=60)
        cfg = nn.MlpConfig(
            layer_widths=(22, 8, 8, 22),
            epochs=5,
            seed=3,
            lr_schedule="cosine",
            loss_weighting="raw",
        )
        tr, va = ds.subset(slice(0, 48)), ds.subset(slice(48, 60))
        a = nn.train(cfg, tr, va)
        b = nn.train(cfg, tr, va)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
