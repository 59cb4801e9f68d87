"""Write the CLI outputs that a change to hybridloc must leave byte-identical.

    PYTHONPATH=src python tools/cli_outputs.py OUTDIR

runs, in process, on the bundled scenarios:

- ``select-sr --na 4 6 --trials 40`` at seeds 1000-1039, and ``--trials
  130`` (two full 64-trial blocks and a 2-trial tail, the campaign's block
  size) at seeds 2000 and 2001, at clock bias 0 and 100 m (copies of
  ``selection-sr.yaml``);
- ``simulate --rho 0.1 1 10 --trials 300 --per-trial`` on every scenario,
  and on copies of ``crlb-attainment.yaml`` at n_a 2 and 3 (the two
  layouts below four receivers, where every trial is solved position-only
  and the bound is the position-only one) and n_a 9;
- ``simulate --rho 10 --seed 25 --trials 4 --per-trial`` on copies of
  ``crlb-attainment.yaml`` at n_a 3, 6 and 9, the fixed call of perfbench's
  ``montecarlo`` workload, whose scatterer trial 0 fails;
- ``simulate --rho 30 --trials 200 --per-trial`` on a copy of
  ``crlb-attainment.yaml`` at n_a 4, where one trial falls back to a
  position-only solve: its report scores position over every success and
  velocity over the trials that kept it;
- ``crlb --rho 0.1 1 10 --na 2 3 4 6 9 --check-identities`` on every
  scenario, from the smallest position-only layout to the largest one;
- ``gen-dataset --samples 300`` for ``--target ue`` and ``--target
  scatterer`` on every scenario;
- the learning commands on ``structured-noise.yaml``: ``gen-dataset
  --split 300,50,100``, ``train`` for ``nn_wls``, ``nn_ls`` and
  ``blackbox`` on that split, ``eval`` of ``wls``, ``nn_wls``, ``nn_ls``
  (with the ``nn_wls`` model) and ``blackbox`` on its test set,
  ``ensemble-eval --members 3`` and ``--members 22`` (P = dim = 22
  members: ENN-B inverts its averaged weighting densely and ridges the
  samples where it is singular), and two ``eval`` runs that exit 3: the
  ``nn_wls`` model on the scenario's scatterer dataset, and ``--pipeline
  nn_wls`` of the ``blackbox`` model.

Each command's exit code, standard error and warnings go to
``<name>.status``, so a command that fails or warns is compared too.

Beside them, ``select-los-bias<b>-seed<s>.txt`` holds every selection the
40-trial ``select-sr`` runs make, through the public ``simulate_paths`` and
``select_los``: for each of the 40 trials of each seed and bias, the
ordered receivers at n_a 4 and 6 and the ranking center to the
millimetre (or the error a selection raised).  A ranking change that the
success rates hide shows there.

Running this against two checkouts (with ``PYTHONPATH`` naming each one's
``src``) and comparing the two directories checks that nothing the CLI
prints, and no selection, moved:

    PYTHONPATH=src python tools/cli_outputs.py --compare A B --rtol 1e-9

passes when both directories hold the same files, every CSV has the same
rows and cells, each numeric cell of B is within ``R`` relative of A's and
every other cell, and every other file, is byte-identical.  It prints the
largest relative deviation of each file, and for each file over the
tolerance its first line that differs, from both sides; it exits 1 on a
mismatch.  With ``--rtol 0`` it is ``diff -r``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import yaml

from hybridloc import cli
from hybridloc.errors import HybridlocError
from hybridloc.scenario import load_scenario
from hybridloc.selection import select_los, simulate_paths

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))


def _run(out: Path, name: str, argv) -> None:
    """One ``hybridloc`` command; its status goes to ``<name>.status``.

    Every warning is shown, whatever the warnings shown before: ``cli.main``
    prints each as a ``warning:`` line on standard error.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        code = cli.main([str(a) for a in argv])
    (out / f"{name}.status").write_text(f"exit {code}\n{err.getvalue()}", encoding="utf-8")


def _select_sr(out: Path, scratch: Path) -> None:
    src = ROOT / "scenarios" / "selection-sr.yaml"
    with open(src, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    for bias in (0, 100):
        scenario = scratch / f"selection-sr-bias{bias}.yaml"
        with open(scenario, "w", encoding="utf-8") as fh:
            yaml.safe_dump({**data, "clock_bias_m": float(bias)}, fh, sort_keys=True)
        runs = [(seed, 40) for seed in range(1000, 1040)] + [(2000, 130), (2001, 130)]
        for seed, trials in runs:
            name = f"select-sr-bias{bias}-seed{seed}"
            _run(out, name, ["select-sr", "--scenario", scenario, "--na", 4, 6,
                             "--trials", trials, "--seed", seed,
                             "--out", out / f"{name}.csv"])


def _simulate_grids(out: Path, scratch: Path) -> None:
    """``simulate`` grids on copies of ``crlb-attainment.yaml`` at other n_a."""
    src = ROOT / "scenarios" / "crlb-attainment.yaml"
    with open(src, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    for na, rhos, extra in (
        (2, (0.1, 1, 10), ("--trials", 300)),
        (3, (0.1, 1, 10), ("--trials", 300)),
        (9, (0.1, 1, 10), ("--trials", 300)),
        (3, (10,), ("--seed", 25, "--trials", 4)),
        (6, (10,), ("--seed", 25, "--trials", 4)),
        (9, (10,), ("--seed", 25, "--trials", 4)),
        (4, (30,), ("--trials", 200)),
    ):
        scenario = scratch / f"crlb-attainment-na{na}.yaml"
        with open(scenario, "w", encoding="utf-8") as fh:
            yaml.safe_dump({**data, "n_a": na}, fh, sort_keys=True)
        name = f"simulate-crlb-attainment-na{na}-rho{'-'.join(map(str, rhos))}"
        _run(out, name, ["simulate", "--scenario", scenario, "--rho", *rhos, *extra,
                         "--out", out / f"{name}.csv",
                         "--per-trial", out / f"{name}-trials.csv"])


def _selections(out: Path) -> None:
    """The selections behind ``_select_sr``'s runs, trial by trial."""
    base = load_scenario(ROOT / "scenarios" / "selection-sr.yaml")
    for bias in (0, 100):
        for seed in range(1000, 1040):
            sc = base.replace(clock_bias_m=float(bias), seed=seed, trials=40)
            lines = []
            for t in range(sc.trials):
                paths = simulate_paths(sc, np.random.default_rng([sc.seed, t]))
                for na in (4, 6):
                    try:
                        sel = select_los(paths, sc.rrhs, n_a=na)
                    except HybridlocError as exc:
                        lines.append(f"{t} {na} {type(exc).__name__}: {exc}")
                        continue
                    c_los = " ".join(f"{v:.3f}" for v in sel.c_los)
                    lines.append(f"{t} {na} {sel.selected_indices} {c_los}")
            (out / f"select-los-bias{bias}-seed{seed}.txt").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )


def _learning(out: Path) -> None:
    """The learning commands on ``structured-noise.yaml``; the width-mismatch
    ``eval`` reads the scatterer dataset that ``main`` writes first, and the
    model-mismatch ``eval`` gives ``nn_wls`` the black-box model."""
    scenario = ROOT / "scenarios" / "structured-noise.yaml"
    _run(out, "gen-dataset-split", ["gen-dataset", "--scenario", scenario,
                                    "--split", "300,50,100", "--out", out / "learning.npz"])
    split = {name: out / f"learning-{name}.npz" for name in ("train", "val", "test")}
    for pipeline in ("nn_wls", "nn_ls", "blackbox"):
        _run(out, f"train-{pipeline}", [
            "train", "--train", split["train"], "--val", split["val"],
            "--pipeline", pipeline, "--out", out / f"model-{pipeline}.npz"])
    for pipeline, model in (("wls", None), ("nn_wls", "nn_wls"), ("nn_ls", "nn_wls"),
                            ("blackbox", "blackbox")):
        name = f"eval-{pipeline}"
        _run(out, name, [
            "eval", "--scenario", scenario, "--data", split["test"], "--pipeline", pipeline,
            *(("--model", out / f"model-{model}.npz") if model else ()),
            "--out", out / f"{name}.csv"])
    for members, name in ((3, "ensemble-eval"), (22, "ensemble-eval-members22")):
        _run(out, name, [
            "ensemble-eval", "--scenario", scenario, "--train", split["train"],
            "--val", split["val"], "--data", split["test"], "--members", members,
            "--out", out / f"{name}.csv"])
    _run(out, "eval-width-mismatch", [
        "eval", "--scenario", scenario,
        "--data", out / "gen-dataset-scatterer-structured-noise.npz",
        "--model", out / "model-nn_wls.npz", "--out", out / "eval-width-mismatch.csv"])
    _run(out, "eval-model-mismatch", [
        "eval", "--scenario", scenario, "--data", split["test"], "--pipeline", "nn_wls",
        "--model", out / "model-blackbox.npz", "--out", out / "eval-model-mismatch.csv"])


def _number(cell: str):
    """The cell's value, or None when it is not a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def _deviation(a: str, b: str) -> float:
    """Relative deviation of cell b from cell a: 0 when they are the same
    text, inf when either is not a number or exactly one is NaN."""
    if a == b:
        return 0.0
    x, y = _number(a), _number(b)
    if x is None or y is None or math.isnan(x) != math.isnan(y):
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _csv_deviation(a: Path, b: Path) -> float:
    """Largest cell deviation of CSV b from CSV a; inf when their rows or
    cells do not line up."""
    rows_a, rows_b = (list(csv.reader(p.open(newline="", encoding="utf-8"))) for p in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    return max((_deviation(x, y) for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb)),
               default=0.0)


def _first_difference(a: Path, b: Path, rtol: float):
    """``(line number, A's line, B's line)`` of the first line that differs
    between files a and b, beyond ``rtol`` in a CSV row whose cells line
    up; a side past its last line reads None."""
    lines_a, lines_b = (p.read_text(encoding="utf-8", errors="replace").splitlines()
                        for p in (a, b))
    for number, (x, y) in enumerate(itertools.zip_longest(lines_a, lines_b), start=1):
        if x == y:
            continue
        if a.suffix == ".csv" and x is not None and y is not None:
            cells_a, cells_b = next(csv.reader([x])), next(csv.reader([y]))
            if len(cells_a) == len(cells_b) and all(
                    _deviation(u, v) <= rtol for u, v in zip(cells_a, cells_b)):
                continue
        return number, x, y
    return None


def _shown(line) -> str:
    """A compared line as printed: None as ``<no line>``, a line that is not
    printable text as its ``repr``, either cut at 160 characters."""
    if line is None:
        return "<no line>"
    text = line if line.isprintable() else repr(line)
    return text if len(text) <= 160 else text[:157] + "..."


def compare(a: Path, b: Path, rtol: float) -> int:
    """Report each file's deviation between output directories a and b;
    0 when every file agrees within ``rtol``, else 1."""
    names_a = {p.name for p in a.iterdir()}
    names_b = {p.name for p in b.iterdir()}
    bad = 0
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {a if name in names_a else b}")
        bad += 1
    for name in sorted(names_a & names_b):
        fa, fb = a / name, b / name
        if fa.read_bytes() == fb.read_bytes():
            dev = 0.0
        elif fa.suffix == ".csv":
            dev = _csv_deviation(fa, fb)
        else:
            dev = math.inf
        ok = dev <= rtol
        bad += not ok
        print(f"{name}: {'identical' if dev == 0.0 else f'max rel dev {dev:.3g}'}"
              f"{'' if ok else ' FAIL'}")
        first = None if ok else _first_difference(fa, fb, rtol)
        if first is not None:
            number, x, y = first
            print(f"  line {number} A: {_shown(x)}\n  line {number} B: {_shown(y)}")
    print(f"{len(names_a | names_b)} files, {bad} over rtol {rtol:g}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path, nargs="?",
                        help="directory to write (created empty)")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two written directories instead")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance of numeric CSV cells (default 0)")
    args = parser.parse_args(argv)
    if (args.outdir is None) == (args.compare is None):
        parser.error("give either OUTDIR or --compare A B")
    if args.compare:
        return compare(*args.compare, args.rtol)
    out = args.outdir
    out.mkdir(parents=True, exist_ok=False)
    with tempfile.TemporaryDirectory() as scratch:
        _select_sr(out, Path(scratch))
        _simulate_grids(out, Path(scratch))
    _selections(out)
    for scenario in SCENARIOS:
        stem = scenario.stem
        _run(out, f"simulate-{stem}", [
            "simulate", "--scenario", scenario, "--rho", 0.1, 1, 10, "--trials", 300,
            "--out", out / f"simulate-{stem}.csv",
            "--per-trial", out / f"simulate-{stem}-trials.csv"])
        _run(out, f"crlb-{stem}", [
            "crlb", "--scenario", scenario, "--rho", 0.1, 1, 10, "--na", 2, 3, 4, 6, 9,
            "--check-identities", "--out", out / f"crlb-{stem}.csv"])
        for target in ("ue", "scatterer"):
            name = f"gen-dataset-{target}-{stem}"
            _run(out, name, ["gen-dataset", "--scenario", scenario, "--samples", 300,
                             "--target", target, "--out", out / f"{name}.npz"])
    _learning(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
