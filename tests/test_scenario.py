"""Scenario construction, validation, and YAML round trips."""

from pathlib import Path

import numpy as np
import pytest
import yaml

from hybridloc.errors import ScenarioError
from hybridloc.noise import NoiseConfig
from hybridloc.scenario import (
    DEFAULT_RRHS,
    DEFAULT_SCATTERER_BOX,
    DEFAULT_UE_STATE,
    Scenario,
    load_scenario,
    read_yaml,
    sample_scatterer_state,
    sample_ue_state,
    scenario_from_dict,
    scenario_to_dict,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestDefaults:
    def test_default_rrh_table(self):
        sc = Scenario()
        assert sc.rrhs.shape == (18, 3)
        assert np.allclose(sc.rrhs[0], [235.5042, 389.5038, 26.0])
        # Two x-columns only.
        assert set(np.round(sc.rrhs[:, 0], 4)) == {235.5042, 287.5042}

    def test_default_states(self):
        sc = Scenario()
        assert np.allclose(sc.ue_true, [250.0, 450.0, 0.0, -10.0, 2.0, 5.0])
        assert np.allclose(sc.scatterer_true, [240.0, 600.0, -19.0, 5.0])
        assert sc.n_a == 6
        assert sc.p_d == 0.5
        assert sc.clock_bias_m == 0.0

    def test_selected_rrhs_prefix(self):
        sc = Scenario(n_a=4)
        assert np.array_equal(sc.selected_rrhs(), sc.rrhs[:4])

    def test_replace_returns_modified_copy(self):
        sc = Scenario()
        sc2 = sc.replace(n_a=9)
        assert sc2.n_a == 9
        assert sc.n_a == 6
        assert np.array_equal(sc2.rrhs, sc.rrhs)


class TestValidation:
    def test_bad_rrh_shape(self):
        with pytest.raises(ScenarioError):
            Scenario(rrhs=np.zeros((4, 2)))

    def test_bad_ue_length(self):
        with pytest.raises(ScenarioError):
            Scenario(ue_true=np.zeros(5))

    def test_n_a_exceeds_rrhs(self):
        with pytest.raises(ScenarioError):
            Scenario(n_a=19)

    def test_n_a_below_two(self):
        with pytest.raises(ScenarioError):
            Scenario(n_a=1)

    @pytest.mark.parametrize("n_a", [4.5, 4.0, True, "4"])
    def test_n_a_not_an_integer(self, n_a):
        with pytest.raises(ScenarioError, match="n_a must be an integer"):
            Scenario(n_a=n_a)

    def test_n_a_numpy_integer_accepted(self):
        assert Scenario(n_a=np.int64(5)).n_a == 5

    def test_p_d_out_of_range(self):
        with pytest.raises(ScenarioError):
            Scenario(p_d=1.5)

    def test_inverted_box(self):
        box = np.array(DEFAULT_SCATTERER_BOX, dtype=float)
        box[0] = [280.0, 240.0]
        with pytest.raises(ScenarioError):
            Scenario(scatterer_box=box)

    def test_negative_seed(self):
        with pytest.raises(ScenarioError, match="seed must be >= 0"):
            Scenario().replace(seed=-1)

    @pytest.mark.parametrize("name", ["rrhs", "ue_true", "scatterer_true", "clock_bias_m"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field(self, name, value):
        field = np.array(getattr(Scenario(), name), dtype=float)
        field.flat[-1] = value
        with pytest.raises(ScenarioError, match=f"{name} must be finite"):
            Scenario().replace(**{name: field})


class TestSampling:
    def test_scatterer_sample_inside_box(self):
        sc = Scenario()
        rng = np.random.default_rng(3)
        for _ in range(200):
            xs = sample_scatterer_state(sc, rng)
            for axis in range(3):
                lo, hi = sc.scatterer_box[axis]
                assert lo <= xs[axis] <= hi
            lo, hi = sc.scatterer_speed_range
            assert lo <= xs[3] <= hi

    def test_ue_sample_inside_boxes(self):
        sc = Scenario()
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = sample_ue_state(sc, rng)
            for axis in range(3):
                lo, hi = sc.ue_box[axis]
                assert lo <= x[axis] <= hi
            for axis in range(3):
                lo, hi = sc.ue_velocity_box[axis]
                assert lo <= x[3 + axis] <= hi

    def test_sampling_reproducible(self):
        sc = Scenario()
        a = sample_ue_state(sc, np.random.default_rng(9))
        b = sample_ue_state(sc, np.random.default_rng(9))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "sc",
        [load_scenario(p) for p in sorted(SCENARIOS.glob("*.yaml"))]
        + [
            Scenario(),
            Scenario(
                scatterer_box=np.array([[250.0, 250.0], [-3.5, -3.5], [0.0, 0.0]]),
                scatterer_speed_range=(4.0, 4.0),
                ue_box=np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
                ue_velocity_box=np.array([[-7.0, -7.0], [0.0, 0.0], [1e-3, 1e-3]]),
            ),
        ],
    )
    def test_samplers_equal_generator_uniform(self, sc):
        def uniform_ue(rng):
            pos = rng.uniform(sc.ue_box[:, 0], sc.ue_box[:, 1])
            vel = rng.uniform(sc.ue_velocity_box[:, 0], sc.ue_velocity_box[:, 1])
            return np.concatenate([pos, vel])

        def uniform_scatterer(rng):
            pos = rng.uniform(sc.scatterer_box[:, 0], sc.scatterer_box[:, 1])
            return np.append(pos, rng.uniform(*sc.scatterer_speed_range))

        for sample, uniform in (
            (sample_ue_state, uniform_ue),
            (sample_scatterer_state, uniform_scatterer),
        ):
            new, old = np.random.default_rng(17), np.random.default_rng(17)
            for _ in range(2000):
                assert np.array_equal(sample(sc, new), uniform(old))
            assert new.random() == old.random()  # same number of draws taken


class TestSerialization:
    def test_round_trip_preserves_fields(self):
        sc = Scenario(
            n_a=4,
            p_d=0.7,
            clock_bias_m=100.0,
            trials=250,
            seed=99,
            noise=NoiseConfig(delta_d=1.1, delta_a=0.0525),
        )
        sc2 = scenario_from_dict(scenario_to_dict(sc))
        assert sc2.n_a == 4
        assert sc2.p_d == 0.7
        assert sc2.clock_bias_m == 100.0
        assert sc2.trials == 250
        assert sc2.seed == 99
        assert sc2.noise.delta_d == 1.1
        assert np.array_equal(sc2.rrhs, sc.rrhs)
        assert np.array_equal(sc2.ue_true, sc.ue_true)

    def test_dict_uses_plain_types(self):
        d = scenario_to_dict(Scenario())
        assert isinstance(d["rrhs"], list)
        assert isinstance(d["ue_true"], list)
        assert isinstance(d["noise"], dict)

    def test_unknown_key_rejected(self):
        d = scenario_to_dict(Scenario())
        d["spurious"] = 1
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)

    def test_default_rrh_shorthand(self):
        sc = scenario_from_dict({"rrhs": "default", "n_a": 5})
        assert np.array_equal(sc.rrhs, np.asarray(DEFAULT_RRHS, dtype=float))
        assert sc.n_a == 5

    def test_load_scenario_yaml(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text("n_a: 4\nclock_bias_m: 100.0\nnoise:\n  delta_d: 0.1\n")
        sc = load_scenario(path)
        assert sc.n_a == 4
        assert sc.clock_bias_m == 100.0
        assert sc.noise.delta_d == 0.1

    def test_load_scenario_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        sc = load_scenario(path)
        assert np.allclose(sc.ue_true, DEFAULT_UE_STATE)

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.yaml")

    def test_load_scenario_bad_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("n_a: [unclosed")
        with pytest.raises(ScenarioError, match="cannot parse scenario file"):
            load_scenario(path)

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.name)
    def test_read_yaml_equals_the_pure_python_safe_loader(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            expected = yaml.load(fh, Loader=yaml.SafeLoader)
        assert isinstance(expected, dict)
        assert read_yaml(path, "scenario") == expected

    def test_read_yaml_names_the_kind_of_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("epochs: {unclosed")
        with pytest.raises(ScenarioError, match="cannot parse config file"):
            read_yaml(path, "config")
        with pytest.raises(ScenarioError, match="cannot read config file"):
            read_yaml(tmp_path / "nope.yaml", "config")
