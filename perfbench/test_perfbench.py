"""Quick runs of the benchmark, and its metric names against BENCHMARK.json.

These use ``--quick`` rounds so that they stay short inside the main test
suite; the benchmark proper runs through ``python3 perfbench/run.py``.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _quick(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--quick"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], result
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_quick_run_passes_checks_and_prints_per_layer_names(capsys, workload):
    result = _quick(capsys, workload, trace=1)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _names("per_layer")
    if workload == "montecarlo":
        # Per n_a and round, 2 x 2 x 60 seeded trials and 2 x 4 at rho = 10,
        # of which scatterer trial 0 fails: one operation in 248.
        assert result["failed"] * 248 == result["attempted"]
    else:
        assert result["failed"] == 0


def test_plain_run_prints_end_to_end_names(capsys):
    result = _quick(capsys, "los-selection", trace=0)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tracer_covers_every_binding_and_restores_it():
    import bench_tracing as tracing
    from hybridloc import ensemble, nn, scatterer_wls, ue_wls

    original = ue_wls.solve_linear
    tracer = tracing.Tracer()
    with tracer.installed(tracing.points_named("ue_wls.solve_linear")):
        bound = {m.solve_linear for m in (ue_wls, scatterer_wls, nn, ensemble)}
        assert len(bound) == 1 and original not in bound
    for module in (ue_wls, scatterer_wls, nn, ensemble):
        assert module.solve_linear is original


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "montecarlo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
