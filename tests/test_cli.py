"""End-to-end tests of the command-line interface.

Commands run in-process through ``cli.main`` so exit codes and stderr are
checked directly; every invocation uses small trial counts to stay fast.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from hybridloc import cli, crlb, harness, nn
from hybridloc.errors import EXIT_DIMENSION, EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE
from hybridloc.scenario import load_scenario


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run_cli(*argv):
    return cli.main(list(argv))


def write_scenario(path, body):
    path.write_text(body, encoding="utf-8")
    return str(path)


FAST_SCENARIO = """
noise: {delta_d: 0.22, delta_a: 0.0175}
trials: 10
seed: 7
"""


class TestSimulate:
    def test_reruns_are_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.yaml", FAST_SCENARIO)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--scenario", scenario, "--out", str(out_a)) == EXIT_OK
        assert run_cli("simulate", "--scenario", scenario, "--out", str(out_b)) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_rho_grid_rows_and_header(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.yaml", FAST_SCENARIO)
        out = tmp_path / "r.csv"
        assert (
            run_cli(
                "simulate", "--scenario", scenario, "--rho", "0.1", "1", "10",
                "--out", str(out),
            )
            == EXIT_OK
        )
        lines = out.read_text().splitlines()
        header_comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("config_sha256=" in l for l in header_comments)
        assert any("seed=7" in l for l in header_comments)
        assert data[0].startswith("rho,trials,rmse_position")
        assert len(data) == 1 + 3  # header row + one row per rho

    def test_json_format_mirrors_csv(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.yaml", FAST_SCENARIO)
        out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
        run_cli("simulate", "--scenario", scenario, "--out", str(out_csv))
        run_cli(
            "simulate", "--scenario", scenario, "--format", "json",
            "--out", str(out_json),
        )
        payload = json.loads(out_json.read_text())
        assert len(payload["rows"]) == 1
        csv_data = [
            l for l in out_csv.read_text().splitlines() if not l.startswith("#")
        ]
        row = dict(zip(csv_data[0].split(","), csv_data[1].split(",")))
        assert float(row["rmse_position"]) == pytest.approx(
            payload["rows"][0]["rmse_position"], rel=1e-9
        )
        assert payload["provenance"]["config_sha256"]

    def test_per_trial_table(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.yaml", FAST_SCENARIO)
        out, per = tmp_path / "r.csv", tmp_path / "trials.csv"
        assert (
            run_cli(
                "simulate", "--scenario", scenario, "--out", str(out),
                "--per-trial", str(per),
            )
            == EXIT_OK
        )
        rows = [l for l in per.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 10

    def test_missing_scenario_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.yaml")
        assert run_cli("simulate", "--scenario", missing) == EXIT_PARSE
        assert missing in capsys.readouterr().err

    def test_invalid_yaml_rejected(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "bad.yaml", "trials: [unclosed")
        assert run_cli("simulate", "--scenario", scenario) == EXIT_PARSE
        assert "cannot parse scenario file" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "bad.yaml", "velocity_box: 3")
        assert run_cli("simulate", "--scenario", scenario) == EXIT_PARSE
        assert "velocity_box" in capsys.readouterr().err

    def test_every_trial_failing_exits_numerical(self, tmp_path, capsys):
        # At rho 10, seed 25, the only scatterer trial hits a singular solve.
        code = run_cli(
            "simulate",
            "--scenario", str(SCENARIOS / "crlb-attainment.yaml"),
            "--rho", "10", "--seed", "25", "--trials", "1",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_NUMERICAL
        assert "every trial failed" in capsys.readouterr().err


def _simulate_json(tmp_path, scenario, rhos, *extra):
    """(summary rows, per-trial rows) of one JSON ``simulate`` run over ``rhos``."""
    tag = "-".join(rhos)
    out, per = tmp_path / f"s{tag}.json", tmp_path / f"t{tag}.json"
    code = run_cli("simulate", "--scenario", scenario, "--rho", *rhos,
                   "--format", "json", "--out", str(out), "--per-trial", str(per),
                   *extra)
    assert code == EXIT_OK
    return (json.loads(out.read_text())["rows"], json.loads(per.read_text())["rows"])


class TestSharedNoiseAcrossRhos:
    """A multi-rho run draws each trial's normals once; its rows are the
    rows of the same rhos run one at a time."""

    RHOS = ("0.1", "1", "10")

    def _check(self, tmp_path, scenario, *extra):
        rows, trials = _simulate_json(tmp_path, scenario, self.RHOS, *extra)
        one_at_a_time = [_simulate_json(tmp_path, scenario, (rho,), *extra)
                         for rho in self.RHOS]
        assert rows == [r for single, _ in one_at_a_time for r in single]
        assert trials == [t for _, single in one_at_a_time for t in single]

    @pytest.mark.parametrize("n_a", [3, 6, 9])
    def test_crlb_attainment(self, tmp_path, n_a):
        text = (SCENARIOS / "crlb-attainment.yaml").read_text(encoding="utf-8")
        scenario = write_scenario(tmp_path / "c.yaml", text.replace("n_a: 6\n", f"n_a: {n_a}\n"))
        assert load_scenario(scenario).n_a == n_a
        self._check(tmp_path, scenario, "--trials", "30", "--seed", "4")

    def test_structured_noise_takes_the_dominant_bias(self, tmp_path):
        self._check(tmp_path, str(SCENARIOS / "structured-noise.yaml"), "--trials", "30")

    def test_two_solve_blocks(self, tmp_path):
        self._check(tmp_path, str(SCENARIOS / "crlb-attainment.yaml"),
                    "--trials", "70", "--seed", "9")

    def test_one_stream_per_trial(self, tmp_path, monkeypatch):
        opened = []
        default_rng = np.random.default_rng

        def counting_rng(*args, **kwargs):
            opened.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        assert run_cli("simulate", "--scenario", str(SCENARIOS / "crlb-attainment.yaml"),
                       "--rho", "0.1", "1", "--trials", "20",
                       "--out", str(tmp_path / "s.csv")) == EXIT_OK
        assert sorted(opened) == [([12345, t],) for t in range(20)]

    @pytest.mark.parametrize("per_trial", [False, True])
    def test_each_campaign_runs_once_over_the_grid(self, tmp_path, monkeypatch, per_trial):
        calls = []
        for name in ("run_wls_campaign", "run_scatterer_campaign"):
            def spy(sc, *args, _name=name, _fn=getattr(harness, name), **kwargs):
                calls.append((_name, kwargs.get("rhos")))
                return _fn(sc, *args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        out = tmp_path / "s.json"
        extra = ("--per-trial", str(tmp_path / "t.json")) if per_trial else ()
        assert run_cli("simulate", "--rho", "0.1", "1", "10", "--trials", "3",
                       "--format", "json", "--out", str(out), *extra) == EXIT_OK
        grid = [0.1, 1.0, 10.0]
        assert calls == [("run_wls_campaign", grid), ("run_scatterer_campaign", grid)]
        rows = json.loads(out.read_text())["rows"]
        assert [row["rho"] for row in rows] == grid
        for row in rows:
            assert all(row[key] is not None for key in row if key.startswith("scat_"))

    @pytest.mark.parametrize("n_a", [3, 6])
    @pytest.mark.parametrize("rhos", [("1",), ("0.1", "1", "10"), ("0.1", "0.3", "1", "3", "10")])
    def test_one_jacobian_of_each_bound_per_call(self, tmp_path, monkeypatch, n_a, rhos):
        calls = []
        for name in ("jacobian_ue", "jacobian_scatterer"):
            def spy(*args, _name=name, _fn=getattr(crlb, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(crlb, name, spy)
        text = (SCENARIOS / "crlb-attainment.yaml").read_text(encoding="utf-8")
        scenario = write_scenario(tmp_path / "c.yaml", text.replace("n_a: 6\n", f"n_a: {n_a}\n"))
        assert run_cli("simulate", "--scenario", scenario, "--rho", *rhos, "--trials", "3",
                       "--out", str(tmp_path / "s.csv")) == EXIT_OK
        assert sorted(calls) == ["jacobian_scatterer", "jacobian_ue"]


class TestCrlb:
    def test_rho_grid_monotone(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("crlb", "--rho", "0.1", "1", "10", "--out", str(out)) == EXIT_OK
        rows = [
            l.split(",")
            for l in out.read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        traces = [float(r[2]) for r in rows]
        assert traces == sorted(traces) and traces[0] < traces[-1]

    def test_na_grid_non_increasing(self, tmp_path):
        out = tmp_path / "c.csv"
        assert (
            run_cli("crlb", "--na", "4", "6", "9", "--rho", "1", "--out", str(out))
            == EXIT_OK
        )
        rows = [
            l.split(",")
            for l in out.read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        traces = [float(r[2]) for r in rows]
        assert traces[0] >= traces[1] >= traces[2]

    def test_small_na_flags_velocity_unobservable(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("crlb", "--na", "3", "--rho", "1", "--out", str(out)) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["velocity_observable"] == "False"
        assert row["crlb_trace_velocity"] == ""
        assert float(row["crlb_trace_position"]) > 0.0

    def test_identity_check_reports_deviation(self, tmp_path):
        out = tmp_path / "c.csv"
        assert (
            run_cli("crlb", "--check-identities", "--rho", "1", "--out", str(out))
            == EXIT_OK
        )
        header = [
            l for l in out.read_text().splitlines()
            if l.startswith("# identity_max_deviation=")
        ]
        assert len(header) == 1
        assert float(header[0].split("=", 1)[1]) < 1e-9


class TestBadNoiseSettings:
    # Each setting leaves the covariance singular or not finite: a zero or
    # negative deviation, one that is not finite, or one whose square
    # underflows.
    @pytest.mark.parametrize("command", ["crlb", "simulate"])
    @pytest.mark.parametrize(
        "noise",
        [
            "{fdoa_factor: 0}",
            "{fdoa_factor: -0.1}",
            "{delta_d: .inf}",
            "{delta_d: .nan}",
            "{delta_a: .inf}",
            "{delta_d: 1.0e-170}",
            "{delta_a: 1.0e-170}",
            "{mode: structured, ratio: .inf}",
            "{ratio: .nan}",
        ],
    )
    def test_scenario_exits_parse(self, tmp_path, capsys, command, noise):
        scenario = write_scenario(tmp_path / "s.yaml", f"noise: {noise}\ntrials: 2\n")
        code = run_cli(command, "--scenario", scenario, "--out", str(tmp_path / "o.csv"))
        assert code == EXIT_PARSE
        assert "error: noise" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["crlb"], ["simulate", "--trials", "2"]], ids=["crlb", "simulate"]
    )
    def test_rho_whose_variance_underflows_exits_parse(self, tmp_path, capsys, command):
        code = run_cli(*command, "--rho", "1e-170", "--out", str(tmp_path / "o.csv"))
        assert code == EXIT_PARSE
        assert "error: noise" in capsys.readouterr().err


class TestNonFiniteScenarioOrNegativeSeed:
    @pytest.mark.parametrize("command", ["simulate", "select-sr", "crlb"])
    def test_negative_seed_exits_parse(self, tmp_path, capsys, command):
        code = run_cli(command, "--seed", "-1", "--out", str(tmp_path / "o.csv"))
        assert code == EXIT_PARSE
        assert "error: seed must be >= 0" in capsys.readouterr().err

    # Non-finite values, and numeric fields that hold no number or, in an
    # integer field, no integer.  Each file fails before any campaign runs.
    @pytest.mark.parametrize(
        "body, message",
        [
            ("clock_bias_m: .nan", "clock_bias_m must be finite"),
            ("ue_true: [.nan, 450.0, 0.0, -10.0, 2.0, 5.0]", "ue_true must be finite"),
            ("rrhs: [[235.5, 389.5, 26.0], [287.5, .nan, 32.0], [235.5, 489.5, 10.0],"
             " [287.5, 489.5, 40.0], [235.5, 589.5, 14.0], [287.5, 589.5, 50.0]]",
             "rrhs must be finite"),
            ("n_a: abc", "scenario field 'n_a' = 'abc'"),
            ("trials:", "scenario field 'trials' = None"),
            ("p_d: foo", "scenario field 'p_d' = 'foo'"),
            ("seed: default", "scenario field 'seed' = 'default'"),
            ("n_a: .inf", "scenario field 'n_a' = inf"),
            ("n_a: 4.7", "scenario field 'n_a' = 4.7"),
            ("clock_bias_m: [1]", "scenario field 'clock_bias_m' = [1]"),
            ("scatterer_box: {x: [240, 280], y: [450, 850], z: [0, 20], speed: 5}",
             "scatterer_box field 'speed' = 5"),
        ],
        ids=["clock_bias", "ue_true", "rrhs", "n_a-text", "trials-empty", "p_d-text",
             "seed-default", "n_a-inf", "n_a-fraction", "clock_bias-list", "speed-scalar"],
    )
    @pytest.mark.parametrize("command", ["simulate", "select-sr", "crlb"])
    def test_non_finite_scenario_exits_parse(self, tmp_path, capsys, command, body, message):
        scenario = write_scenario(tmp_path / "s.yaml", f"{body}\n")
        code = run_cli(command, "--scenario", scenario, "--out", str(tmp_path / "o.csv"))
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()


class TestSelectSr:
    def test_runs_and_reports_rate(self, tmp_path):
        scenario = write_scenario(
            tmp_path / "s.yaml", "trials: 20\nseed: 3\nn_a: 4\n"
        )
        out = tmp_path / "sr.csv"
        assert run_cli("select-sr", "--scenario", scenario, "--out", str(out)) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert 0.0 <= float(row["success_rate"]) <= 1.0
        assert row["trials"] == "20"

    def test_receiver_count_above_layout_exits_parse_before_any_output(
        self, tmp_path, capsys
    ):
        scenario = write_scenario(tmp_path / "s.yaml", "trials: 5\nseed: 3\n")
        code = run_cli("select-sr", "--scenario", scenario, "--na", "4", "19")
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert "n_a must satisfy 2 <= n_a <= number of receivers" in captured.err

    def test_repeated_receiver_count_prints_equal_rows(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.yaml", "trials: 12\nseed: 3\n")
        assert run_cli("select-sr", "--scenario", scenario, "--na", "4", "4") == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines[0].startswith("na,")
        assert len(lines) == 3
        assert lines[1] == lines[2]
        assert lines[1].startswith("4,")

    def test_static_user_exits_numerical_without_warning(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "s.yaml",
            "noise: {delta_d: 0.1, delta_a: 0.0175}\nn_a: 4\np_d: 0.5\ntrials: 3\n"
            "ue_true: [250, 450, 0, 0, 0, 0]\n",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("select-sr", "--scenario", scenario)
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "scatterer velocity direction undefined for a static user" in err
        # ``main`` prints its warnings as ``warning:`` lines instead of
        # passing them on, so both channels must stay empty.
        assert "warning:" not in err
        assert caught == []


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """gen-dataset -> train -> eval artifacts shared by round-trip tests."""
    root = tmp_path_factory.mktemp("pipeline")
    scenario = root / "s.yaml"
    scenario.write_text(
        "noise: {delta_d: 3.0, delta_a: 0.0175, mode: structured, ratio: 0.01}\n"
        "seed: 5\n",
        encoding="utf-8",
    )
    config = root / "mlp.yaml"
    config.write_text(
        "layer_widths: [22, 8, 8, 22]\nepochs: 5\nseed: 1\n", encoding="utf-8"
    )

    def build(tag: str) -> dict:
        paths = {
            name: root / f"{name}-{tag}.{ext}"
            for name, ext in (
                ("train", "npz"), ("val", "npz"), ("test", "npz"),
                ("model", "npz"), ("report", "csv"),
            )
        }
        for name, seed in (("train", 5), ("val", 6), ("test", 7)):
            code = run_cli(
                "gen-dataset", "--scenario", str(scenario), "--seed", str(seed),
                "--samples", "60", "--out", str(paths[name]),
            )
            assert code == EXIT_OK
        assert run_cli(
            "train", "--train", str(paths["train"]), "--val", str(paths["val"]),
            "--config", str(config), "--out", str(paths["model"]),
        ) == EXIT_OK
        assert run_cli(
            "eval", "--scenario", str(scenario), "--data", str(paths["test"]),
            "--model", str(paths["model"]), "--pipeline", "nn_wls",
            "--out", str(paths["report"]),
        ) == EXIT_OK
        return paths

    return {"scenario": scenario, "config": config, "a": build("a"), "b": build("b")}


@pytest.fixture(scope="module")
def blackbox_model(pipeline_dir):
    """A black-box model trained on ``pipeline_dir``'s first split."""
    paths = pipeline_dir["a"]
    model = paths["model"].with_name("blackbox-a.npz")
    assert run_cli(
        "train", "--train", str(paths["train"]), "--val", str(paths["val"]),
        "--pipeline", "blackbox", "--config", str(pipeline_dir["config"]),
        "--out", str(model),
    ) == EXIT_OK
    return model


class TestPipelineRoundTrip:
    def test_round_trip_reproduces_report(self, pipeline_dir):
        a = pipeline_dir["a"]["report"].read_bytes()
        b = pipeline_dir["b"]["report"].read_bytes()
        assert a == b

    def test_artifacts_byte_identical(self, pipeline_dir):
        for name in ("train", "val", "test", "model"):
            assert (
                pipeline_dir["a"][name].read_bytes()
                == pipeline_dir["b"][name].read_bytes()
            )

    def test_report_contains_finite_mae(self, pipeline_dir):
        lines = [
            l for l in pipeline_dir["a"]["report"].read_text().splitlines()
            if not l.startswith("#")
        ]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["pipeline"] == "nn_wls"
        assert np.isfinite(float(row["mae_position"]))

    def test_eval_wls_needs_no_model(self, pipeline_dir, tmp_path):
        out = tmp_path / "wls.csv"
        assert run_cli(
            "eval", "--scenario", str(pipeline_dir["scenario"]),
            "--data", str(pipeline_dir["a"]["test"]), "--pipeline", "wls",
            "--out", str(out),
        ) == EXIT_OK

    def test_eval_wrong_dimension_model(self, pipeline_dir, tmp_path, capsys):
        scat = tmp_path / "scat.npz"
        assert run_cli(
            "gen-dataset", "--scenario", str(pipeline_dir["scenario"]),
            "--samples", "20", "--target", "scatterer", "--out", str(scat),
        ) == EXIT_OK
        code = run_cli(
            "eval", "--scenario", str(pipeline_dir["scenario"]),
            "--data", str(scat), "--model", str(pipeline_dir["a"]["model"]),
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == EXIT_DIMENSION
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline", ["wls", "nn_wls", "nn_ls", "blackbox"])
    def test_eval_row_equals_harness_evaluate(self, pipeline_dir, tmp_path, pipeline):
        paths = pipeline_dir["a"]
        model = paths["model"]
        if pipeline == "blackbox":
            model = tmp_path / "bb.npz"
            assert run_cli(
                "train", "--train", str(paths["train"]), "--val", str(paths["val"]),
                "--pipeline", "blackbox", "--config", str(pipeline_dir["config"]),
                "--out", str(model),
            ) == EXIT_OK
        out = tmp_path / "r.csv"
        argv = ["eval", "--scenario", str(pipeline_dir["scenario"]),
                "--data", str(paths["test"]), "--pipeline", pipeline, "--out", str(out)]
        if pipeline != "wls":
            argv += ["--model", str(model)]
        assert run_cli(*argv) == EXIT_OK

        sc = load_scenario(pipeline_dir["scenario"])
        net = None if pipeline == "wls" else nn.load_model(model)
        report = harness.evaluate(
            harness.estimator(pipeline, sc, net), nn.load_dataset(paths["test"])
        )
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        expected = cli._metric_row(pipeline, report)
        assert row == {key: cli._fmt(value) for key, value in expected.items()}

    def test_eval_every_sample_failing_exits_numerical(self, pipeline_dir, tmp_path, capsys):
        net = nn.load_model(pipeline_dir["a"]["model"])
        net.weights[0][:] = np.nan
        broken = tmp_path / "nan.npz"
        nn.save_model(net, broken)
        code = run_cli(
            "eval", "--scenario", str(pipeline_dir["scenario"]),
            "--data", str(pipeline_dir["a"]["test"]), "--model", str(broken),
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "every trial failed numerically; trial 0:" in err and "non-finite" in err

    def test_eval_blackbox_non_finite_weights_exits_numerical(
        self, pipeline_dir, tmp_path, capsys
    ):
        paths = pipeline_dir["a"]
        model = tmp_path / "bb.npz"
        assert run_cli(
            "train", "--train", str(paths["train"]), "--val", str(paths["val"]),
            "--pipeline", "blackbox", "--config", str(pipeline_dir["config"]),
            "--out", str(model),
        ) == EXIT_OK
        net = nn.load_model(model)
        net.weights[0][:] = np.nan
        nn.save_model(net, model)
        code = run_cli(
            "eval", "--scenario", str(pipeline_dir["scenario"]),
            "--data", str(paths["test"]), "--model", str(model),
            "--pipeline", "blackbox", "--out", str(tmp_path / "r.csv"),
        )
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "every trial failed numerically; trial 0:" in err and "black-box" in err
        assert "non-finite" in err

    def _eval_mismatch(self, pipeline_dir, tmp_path, capsys, model, pipeline) -> str:
        """``eval`` of ``model`` under ``pipeline``: exit 3, no output file,
        one ``error:`` line, which is returned."""
        out = tmp_path / "r.csv"
        code = run_cli(
            "eval", "--scenario", str(pipeline_dir["scenario"]),
            "--data", str(pipeline_dir["a"]["test"]), "--model", str(model),
            "--pipeline", pipeline, "--out", str(out),
        )
        assert code == EXIT_DIMENSION
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"pipeline {pipeline!r}" in err
        return err

    @pytest.mark.parametrize("pipeline", ["nn_wls", "nn_ls"])
    def test_eval_residual_pipeline_rejects_a_blackbox_model(
        self, pipeline_dir, blackbox_model, tmp_path, capsys, pipeline
    ):
        err = self._eval_mismatch(pipeline_dir, tmp_path, capsys, blackbox_model, pipeline)
        assert "maps 22 entries to 6" in err

    def test_eval_blackbox_pipeline_rejects_a_residual_model(
        self, pipeline_dir, tmp_path, capsys
    ):
        err = self._eval_mismatch(
            pipeline_dir, tmp_path, capsys, pipeline_dir["a"]["model"], "blackbox"
        )
        assert "outputs 22 entries" in err

    def test_eval_without_model_rejected(self, pipeline_dir, tmp_path):
        assert run_cli(
            "eval", "--scenario", str(pipeline_dir["scenario"]),
            "--data", str(pipeline_dir["a"]["test"]),
            "--out", str(tmp_path / "r.csv"),
        ) == EXIT_PARSE

    # The config_sha256 of these runs on pipeline_dir's scenario without
    # --eps, as they were written before --eps entered the hash.
    DEFAULT_HASHES = {
        "eval": "6b76698505ead5cb199a3c137b16fd840c8a6cd83b3f4b71a0b74102371d4323",
        "ensemble-eval": "e58868c0078e0f2c7060c8c8a3a87536c667dcb5a32fed0b03824a143c94b1fe",
    }

    @pytest.mark.parametrize("command", ["eval", "ensemble-eval"])
    def test_eps_enters_the_hash_only_when_given(self, pipeline_dir, tmp_path, command):
        paths = pipeline_dir["a"]
        inputs = {
            "eval": ["--model", paths["model"]],
            "ensemble-eval": ["--train", paths["train"], "--val", paths["val"],
                              "--members", "2", "--config", pipeline_dir["config"]],
        }[command]
        tables = {}
        for eps in (None, "0.1", "5"):
            out = tmp_path / f"{eps}.csv"
            argv = [command, "--scenario", pipeline_dir["scenario"], "--data", paths["test"],
                    *inputs, *(("--eps", eps) if eps else ()), "--out", out]
            assert run_cli(*map(str, argv)) == EXIT_OK
            tables[eps] = out.read_text().splitlines()
        assert tables[None][0] == f"# config_sha256={self.DEFAULT_HASHES[command]}"
        assert len({lines[0] for lines in tables.values()}) == 3
        # Without --eps the estimators run at the default 0.1.
        rows = {eps: [l for l in lines if not l.startswith("#")] for eps, lines in tables.items()}
        assert rows[None] == rows["0.1"] != rows["5"]

    @pytest.mark.parametrize("option, kind", [
        ("--model", "dataset"), ("--data", "text"), ("--data", "truncated"),
        ("--data", "pickled"),
    ])
    def test_eval_of_an_unreadable_file_exits_parse(
        self, pipeline_dir, tmp_path, capsys, option, kind
    ):
        paths = pipeline_dir["a"]
        bad = tmp_path / f"{kind}.npz"
        if kind == "dataset":
            bad = paths["test"]  # a dataset has no model entries
        elif kind == "text":
            bad.write_text("not an archive\n", encoding="utf-8")
        elif kind == "truncated":
            data = paths["test"].read_bytes()
            bad.write_bytes(data[: len(data) // 2])
        else:
            np.savez(bad, format_version=np.array(1), m=np.array([{}], dtype=object))
        files = {"--data": paths["test"], "--model": paths["model"], option: bad}
        out = tmp_path / "r.csv"
        code = run_cli(
            "eval", "--scenario", str(pipeline_dir["scenario"]),
            *(str(a) for pair in files.items() for a in pair), "--out", str(out),
        )
        assert code == EXIT_PARSE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1
        assert str(bad) in err and "Traceback" not in err

    def test_train_divergence_maps_to_numerical_exit(self, pipeline_dir, tmp_path):
        config = tmp_path / "diverge.yaml"
        config.write_text(
            "layer_widths: [22, 8, 8, 22]\nepochs: 2\nlr: 1.0e160\n"
            "output_activation: linear\n",
            encoding="utf-8",
        )
        code = run_cli(
            "train", "--train", str(pipeline_dir["a"]["train"]),
            "--val", str(pipeline_dir["a"]["val"]), "--config", str(config),
            "--out", str(tmp_path / "m.npz"),
        )
        assert code == EXIT_NUMERICAL


    def test_train_malformed_config_exits_parse(self, pipeline_dir, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text("layer_widths: [22, 8\n", encoding="utf-8")
        code = run_cli(
            "train", "--train", str(pipeline_dir["a"]["train"]),
            "--val", str(pipeline_dir["a"]["val"]), "--config", str(config),
            "--out", str(tmp_path / "m.npz"),
        )
        assert code == EXIT_PARSE
        assert "cannot parse config file" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        "batch_size: 0", "batch_size: -2", "epochs: -3",
        "layer_widths: abc", "layer_widths: 5", "batch_size: .inf",
        "lr: .nan", "lr: -1.0", "eps_adam: 0.0", "beta1: 2.0", "beta2: 1.0",
        "output_activation: tanh",
    ])
    def test_train_rejects_bad_training_sizes(self, pipeline_dir, tmp_path, capsys, field):
        config = tmp_path / "bad.yaml"
        config.write_text(f"{field}\n", encoding="utf-8")
        model = tmp_path / "m.npz"
        code = run_cli(
            "train", "--train", str(pipeline_dir["a"]["train"]),
            "--val", str(pipeline_dir["a"]["val"]), "--config", str(config),
            "--out", str(model),
        )
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert field.split(":")[0] in err and "Traceback" not in err
        assert not model.exists()

    @pytest.mark.parametrize("argv", [
        ("eval", "--eps", "0"), ("eval", "--eps", "-1"),
        ("eval", "--eps", "nan"), ("eval", "--eps", "inf"),
        ("ensemble-eval", "--r-a", "nan"), ("ensemble-eval", "--r-a", "inf"),
        ("gen-dataset", "--samples", "-5"), ("gen-dataset", "--samples", "0"),
        ("gen-dataset", "--target", "scatterer", "--samples", "-5"),
        ("gen-dataset", "--target", "scatterer", "--samples", "0"),
    ], ids=" ".join)
    def test_bad_number_option_exits_parse(self, pipeline_dir, tmp_path, capsys, argv):
        paths = pipeline_dir["a"]
        data = {
            "eval": ["--data", paths["test"], "--model", paths["model"]],
            "ensemble-eval": ["--train", paths["train"], "--val", paths["val"],
                              "--data", paths["test"], "--members", "2"],
            "gen-dataset": [],
        }[argv[0]]
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--scenario", str(pipeline_dir["scenario"]),
                    *map(str, data), "--out", str(out))
        assert exc.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert argv[-2] in err and "Traceback" not in err
        assert not out.exists()


class TestEnsembleEval:
    def test_comparison_table(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "ens.csv"
        config = tmp_path / "mlp.yaml"
        config.write_text(
            "layer_widths: [22, 8, 8, 22]\nepochs: 2\n", encoding="utf-8"
        )
        code = run_cli(
            "ensemble-eval", "--scenario", str(pipeline_dir["scenario"]),
            "--train", str(pipeline_dir["a"]["train"]),
            "--val", str(pipeline_dir["a"]["val"]),
            "--data", str(pipeline_dir["a"]["test"]),
            "--members", "3", "--config", str(config), "--out", str(out),
        )
        assert code == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == ["nn_wls", "enn_a_wls", "enn_m_wls", "enn_b_wls"]
        # Three members average a singular weighting, so ENN-B's ridge
        # engages; its warning is one path-free line.
        err = capsys.readouterr().err
        assert err == "warning: averaged residual weighting was singular; ridge engaged\n"


class TestSplitDataset:
    def test_split_files_are_slices_of_one_draw(self, tmp_path):
        scenario = str(SCENARIOS / "structured-noise.yaml")
        assert run_cli("gen-dataset", "--scenario", scenario, "--split", "30,10,20",
                       "--out", str(tmp_path / "d.npz")) == EXIT_OK
        assert run_cli("gen-dataset", "--scenario", scenario, "--samples", "60",
                       "--out", str(tmp_path / "whole.npz")) == EXIT_OK
        whole = nn.load_dataset(tmp_path / "whole.npz")
        lo = 0
        for name, size in (("train", 30), ("val", 10), ("test", 20)):
            part = nn.load_dataset(tmp_path / f"d-{name}.npz")
            assert np.array_equal(part.m, whole.m[lo:lo + size])
            assert np.array_equal(part.e, whole.e[lo:lo + size])
            assert part.metadata == whole.metadata
            lo += size
        assert not (tmp_path / "d.npz").exists()

    @pytest.mark.parametrize("split", ["10,10", "10,0,5", "a,b,c", "1,2,3,4"])
    def test_malformed_split_exits_parse(self, tmp_path, split):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen-dataset", "--split", split, "--out", str(tmp_path / "d.npz"))
        assert exc.value.code == EXIT_PARSE

    def test_readme_learning_workflow_runs_verbatim(self, tmp_path, monkeypatch, capsys):
        """The README's learning commands, with smaller split and ensemble."""
        readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("# Learning pipeline")[1].split("```")[0]
        commands = block.replace("\\\n", " ").splitlines()[1:]
        commands = [c.split() for c in commands if c.strip()]
        assert [c[:2] for c in commands] == [
            ["hybridloc", "gen-dataset"], ["hybridloc", "train"],
            ["hybridloc", "eval"], ["hybridloc", "ensemble-eval"],
        ]
        small = {"2000,200,500": "150,30,40", "20": "2"}
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            argv = [small.get(a, a).replace("scenarios/", f"{SCENARIOS}/") for a in argv[1:]]
            assert run_cli(*argv) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["pipeline"] == "nn_wls" and np.isfinite(float(row["mae_position"]))
        rows = (tmp_path / "ensemble.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows if not r.startswith("#")][1:] == [
            "nn_wls", "enn_a_wls", "enn_m_wls", "enn_b_wls"]


class TestParsing:
    def test_gen_dataset_requires_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen-dataset")
        assert exc.value.code == EXIT_PARSE

    def test_unknown_subcommand_exits_parse(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == EXIT_PARSE

    @pytest.mark.parametrize("command, choices", [
        ("train", "'nn_wls', 'nn_ls', 'blackbox'"),
        ("eval", "'wls', 'nn_wls', 'nn_ls', 'blackbox'"),
    ])
    def test_pipeline_choices_keep_their_order(self, capsys, command, choices):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--pipeline", "magic")
        assert exc.value.code == EXIT_PARSE
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"hybridloc {command}: error: argument --pipeline: invalid choice: "
            f"'magic' (choose from {choices})"
        )

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0

    def test_bundled_scenarios_load(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
        from hybridloc.scenario import load_scenario

        for path in sorted(root.glob("*.yaml")):
            load_scenario(path)

    def test_one_parser_serves_subcommands_in_sequence(self, tmp_path):
        # The parser is built on the first call and kept for the process;
        # a subcommand run after another must write what it writes alone.
        scenario = write_scenario(tmp_path / "s.yaml", FAST_SCENARIO)
        commands = [
            ["select-sr", "--scenario", scenario, "--trials", "3", "--na", "4", "6"],
            ["crlb", "--scenario", scenario, "--rho", "1", "--format", "json"],
            ["simulate", "--scenario", scenario, "--trials", "3", "--seed", "9"],
            ["select-sr", "--scenario", scenario, "--trials", "2"],
        ]
        cli._parser.cache_clear()
        for k, argv in enumerate(commands):
            assert run_cli(*argv, "--out", str(tmp_path / f"seq{k}")) == EXIT_OK
        assert cli._parser.cache_info().misses == 1
        for k, argv in enumerate(commands):
            cli._parser.cache_clear()
            assert run_cli(*argv, "--out", str(tmp_path / f"fresh{k}")) == EXIT_OK
            assert (tmp_path / f"seq{k}").read_bytes() == (tmp_path / f"fresh{k}").read_bytes()
