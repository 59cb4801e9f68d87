"""Run one benchmark workload against the hybridloc sources of this checkout.

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.  After set-up, the
workload runs whole rounds until ``--seconds`` have passed (at least one
round), then checks its outputs.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
and traced rounds, reports the per-layer metrics of the traced rounds (with
the tracing overhead against the plain ones) and writes every span to
``.perfbench-out/``.  The lines before the last give the workload's own
throughputs and accuracy figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5
# What a fresh interpreter imports before it can run any workload.
_IMPORTS = ("import numpy, yaml, hybridloc.cli, hybridloc.harness, "
            "hybridloc.nn, hybridloc.ensemble")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("montecarlo", "los-selection", "learning"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small rounds, for the benchmark's own tests")
    return parser.parse_args(argv)


def _program_present() -> bool:
    return (SRC / "hybridloc" / "__init__.py").is_file() and (ROOT / "scenarios").is_dir()


def _import_program() -> None:
    """A fresh interpreter that imports the program and exits."""
    subprocess.run([sys.executable, "-c", _IMPORTS], check=True, cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


def _set_up(workload, clock) -> None:
    with clock.part("setup"):
        _import_program()
        workload.setup()


def _run_rounds(workload, seconds, trace, totals, rounds, clocks):
    """Run whole rounds until ``seconds`` have passed; at least one.

    Set-up is timed again between rounds, at even steps through the run,
    so that its samples see the same spread of host speed as the rounds.
    With ``trace``, plain and traced rounds alternate and stop on an equal
    count, so that the overhead compares like with like; only the traced
    rounds record their spans, in the returned tracer.
    """
    import bench_tracing

    probe = bench_tracing.Tracer()
    tracer = bench_tracing.Tracer()
    start = perf_counter()
    while True:
        k = rounds["plain"] + rounds["traced"]
        phase = "traced" if trace and k % 2 == 1 else "plain"
        rec, points = (tracer, bench_tracing.POINTS) if phase == "traced" else (probe, workload.probes)
        with rec.installed(points), rec.span("bench.round"):
            attempted, failed = workload.run_round(k, rec, clocks[phase])
        rounds[phase] += 1
        totals["attempted"] += attempted
        totals["failed"] += failed
        elapsed = perf_counter() - start
        done = len(clocks["setup"].scaled["setup"])
        if done < SETUP_SAMPLES and elapsed >= seconds * done / SETUP_SAMPLES:
            _set_up(workload, clocks["setup"])
        if elapsed >= seconds and (not trace or k % 2 == 1):
            return tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _program_present():
        print(f"error: no hybridloc sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hybridloc
    if Path(hybridloc.__file__).resolve().parent != SRC / "hybridloc":
        print(f"error: hybridloc imported from {hybridloc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench_tracing
    from bench_clock import HostClock
    from bench_workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, OUT_DIR, args.seed, args.quick)
    clocks = {"setup": HostClock(), "plain": HostClock(), "traced": HostClock()}
    _set_up(workload, clocks["setup"])
    totals = {"attempted": 0, "failed": 0}
    rounds = {"plain": 0, "traced": 0}
    tracer = _run_rounds(workload, args.seconds, args.trace, totals, rounds, clocks)
    problems = workload.check()

    for name, (value, unit) in workload.throughputs(clocks["plain"]).items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for name, value in workload.fingerprint().items():
        print(f"{args.workload} {name} {value:.6g}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    plain = clocks["plain"].per_round(rounds["plain"])
    if args.trace:
        traced = clocks["traced"].per_round(rounds["traced"])
        values = bench_tracing.layer_metrics(
            tracer, rounds["traced"], workload.fingerprint(),
            100.0 * (traced - plain) / plain)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv")
    else:
        values = {
            "setup_s": statistics.median(clocks["setup"].scaled["setup"]),
            "run_s": plain,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, BENCHMARK.json names {sorted(units)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": not problems,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One worker, one BLAS thread: the benchmark measures a single caller.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["HYBRIDLOC_WORKERS"] = "1"
    sys.exit(main())
