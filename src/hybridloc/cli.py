"""Command-line front end: scenario files in, deterministic reports out.

Every subcommand reads an optional YAML scenario, applies the common
overrides, runs the corresponding harness campaign, and writes a table as
CSV or JSON.  Outputs carry a provenance header (configuration hash, seed,
library versions) and contain nothing time- or machine-dependent beyond
that, so identical invocations produce byte-identical files.

Exit codes: 0 on success, 2 for configuration/parse problems, 3 for
dimension mismatches, 4 for numerical failures.  Errors and warnings go
to standard error as one ``error: ...`` or ``warning: ...`` line each.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import operator
import platform
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import ensemble as ens_mod
from . import nn as nn_mod
from .crlb import crlb_ue_traces, verify_identities
from .errors import (
    EXIT_OK,
    EXIT_PARSE,
    HybridlocError,
    ScenarioError,
)
from .harness import (
    PIPELINES,
    estimator,
    evaluate,
    mlp_widths,
    pipelines,
    run_scatterer_campaign,
    run_sr_campaign,
    run_wls_campaign,
    train_model,
    trial_normals,
)
from .noise import build_q
from .scenario import Scenario, load_scenario, numeric_fields, read_yaml, scenario_to_dict


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if not np.isfinite(value):
            return ""
        return format(value, ".10g")
    return str(value)


def _render(columns, rows, provenance, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "provenance": provenance,
            "columns": list(columns),
            "rows": [
                {c: (None if _fmt(r.get(c)) == "" else r.get(c)) for c in columns}
                for r in rows
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"
    buf = io.StringIO()
    for key in sorted(provenance):
        buf.write(f"# {key}={provenance[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    return buf.getvalue()


def _write(args, sc: Scenario, rows, columns=None, out=None, **notes) -> None:
    """Write ``rows`` (columns: the first row's keys by default) to ``out``,
    default ``--out``, else stdout, under the provenance header: the hash of
    ``args.command``, ``sc`` and the given ``hashed`` options, then ``notes``."""
    config = {
        "command": args.command,
        "scenario": scenario_to_dict(sc),
        "overrides": {k: getattr(args, k) for k in args.hashed if getattr(args, k) is not None},
    }
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()
    prov = {
        "config_sha256": digest,
        "seed": sc.seed,
        "hybridloc_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        **notes,
    }
    text = _render(columns or list(rows[0].keys()), rows, prov, args.format)
    out = args.out if out is None else out
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write output file {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# scenario / override handling


def _load(args) -> Scenario:
    sc = load_scenario(args.scenario) if args.scenario else Scenario()
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        changes["trials"] = args.trials
    return sc.replace(**changes) if changes else sc


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    sc = _load(args)
    rhos = args.rho or [1.0]
    # Both campaigns solve the whole grid, from one draw of the trials' normals.
    normals = trial_normals(sc)
    ues = run_wls_campaign(sc, collect_trials=bool(args.per_trial), normals=normals, rhos=rhos)
    scats = run_scatterer_campaign(sc, normals=normals, rhos=rhos)
    rows = []
    trial_rows = []
    for rho, ue, scat in zip(rhos, ues, scats):
        if args.per_trial:
            ue, trials = ue
            trial_rows.extend({"rho": rho, **t} for t in trials)
        rows.append(
            {
                "rho": rho,
                "trials": sc.trials,
                "rmse_position": ue.rmse_position,
                "rmse_velocity": ue.rmse_velocity,
                "mae_position": ue.mae_position,
                "mae_velocity": ue.mae_velocity,
                "crlb_rms_position": np.sqrt(ue.crlb_trace_position),
                "crlb_rms_velocity": None
                if ue.crlb_trace_velocity is None
                else np.sqrt(ue.crlb_trace_velocity),
                "failure_rate": ue.failure_rate,
                "scat_rmse_position": scat.rmse_position,
                "scat_rmse_velocity": scat.rmse_velocity,
                "scat_crlb_rms_position": np.sqrt(scat.crlb_trace_position),
                "scat_crlb_rms_velocity": np.sqrt(scat.crlb_trace_velocity),
                "scat_failure_rate": scat.failure_rate,
            }
        )
    _write(args, sc, rows)
    if args.per_trial:
        trial_columns = ["rho", "trial", "status", "error_position",
                         "error_velocity", "detail"]
        _write(args, sc, trial_rows, trial_columns, args.per_trial)
    return EXIT_OK


def cmd_crlb(args) -> int:
    sc = _load(args)
    rhos = args.rho or [0.1, 1.0, 10.0]
    nas = args.na or [sc.n_a]
    rows = []
    for na in nas:
        sc_n = sc.replace(n_a=na)
        qs = np.stack([build_q(na, sc.noise.scaled(rho)) for rho in rhos])
        traces = crlb_ue_traces(sc.ue_true, sc_n.selected_rrhs(), qs)
        for rho, (pos, vel) in zip(rhos, traces):
            rows.append(
                {
                    "na": na,
                    "rho": rho,
                    "crlb_trace_position": pos,
                    "crlb_trace_velocity": vel,
                    "crlb_rms_position": np.sqrt(pos),
                    "crlb_rms_velocity": None if vel is None else np.sqrt(vel),
                    "velocity_observable": vel is not None,
                }
            )
    notes = {}
    if args.check_identities:
        report = verify_identities(sc.ue_true, sc.selected_rrhs())
        notes["identity_max_deviation"] = format(report.max_deviation, ".6e")
    _write(args, sc, rows, **notes)
    return EXIT_OK


def cmd_select_sr(args) -> int:
    sc = _load(args)
    nas = args.na or [sc.n_a]
    rows = [
        {
            "na": na,
            "p_d": sc.p_d,
            "clock_bias_m": sc.clock_bias_m,
            "trials": sc.trials,
            "success_rate": rep.success_rate,
        }
        for na, rep in zip(nas, run_sr_campaign(sc, nas))
    ]
    _write(args, sc, rows)
    return EXIT_OK


def _positive(cast):
    """The argparse type of a number that ``cast`` reads, finite and above zero."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = 0  # rejected below
        if not 0 < value < np.inf:
            raise argparse.ArgumentTypeError(
                f"expected a finite {cast.__name__} > 0, got {text!r}"
            )
        return value

    return parse


_SPLITS = ("train", "val", "test")


def _split_sizes(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != len(_SPLITS):
        raise argparse.ArgumentTypeError(
            f"expected three sample counts N_TRAIN,N_VAL,N_TEST, got {text!r}"
        )
    return tuple(map(_positive(int), parts))


def cmd_gen_dataset(args) -> int:
    sc = _load(args)
    rng = np.random.default_rng(sc.seed)
    n_samples = sum(args.split) if args.split else args.samples
    if args.target == "scatterer":
        ds = nn_mod.make_scatterer_dataset(sc, n_samples, rng)
    else:
        ds = nn_mod.make_dataset(sc, n_samples, rng)
    if not args.split:
        nn_mod.save_dataset(ds, args.out)
        return EXIT_OK
    # One draw, so the three files share the structured noise's dominant bias.
    out = Path(args.out)
    stem = out.with_suffix("") if out.suffix == ".npz" else out
    lo = 0
    for name, size in zip(_SPLITS, args.split):
        nn_mod.save_dataset(ds.subset(slice(lo, lo + size)), f"{stem}-{name}.npz")
        lo += size
    return EXIT_OK


def _mlp_config(args, train_set) -> nn_mod.MlpConfig:
    fields = {"layer_widths": mlp_widths(train_set)}
    if args.config:
        data = read_yaml(args.config, "config") or {}
        if not isinstance(data, dict):
            raise ScenarioError("mlp config file must contain a mapping")
        fields.update(data)
        fields.update(numeric_fields(data, {
            "layer_widths": lambda widths: tuple(map(operator.index, widths)),
            **dict.fromkeys(("lr", "beta1", "beta2", "eps_adam"), float),
            **dict.fromkeys(("epochs", "batch_size", "seed"), operator.index),
        }, "mlp config"))
    if getattr(args, "seed", None) is not None:
        fields["seed"] = args.seed
    try:
        return nn_mod.MlpConfig(**fields)
    except TypeError as exc:
        raise ScenarioError(f"bad mlp config: {exc}") from exc


def cmd_train(args) -> int:
    tr = nn_mod.load_dataset(args.train)
    va = nn_mod.load_dataset(args.val)
    net = train_model(PIPELINES[args.pipeline], _mlp_config(args, tr), tr, va)
    nn_mod.save_model(net, args.out)
    return EXIT_OK


def _metric_row(label, report) -> dict:
    return {
        "pipeline": label,
        "samples": report.trials,
        "mae_position": report.mae_position,
        "mae_velocity": report.mae_velocity,
        "rmse_position": report.rmse_position,
        "rmse_velocity": report.rmse_velocity,
        "failure_rate": report.failure_rate,
    }


def cmd_eval(args) -> int:
    sc = _load(args)
    te = nn_mod.load_dataset(args.data)
    net = None
    if PIPELINES[args.pipeline] is not None:
        if not args.model:
            raise ScenarioError(f"pipeline {args.pipeline!r} requires --model")
        net = nn_mod.load_model(args.model)
    eps = {} if args.eps is None else {"eps": args.eps}  # unless given, the estimator's default
    report = evaluate(estimator(args.pipeline, sc, net, **eps), te)
    _write(args, sc, [_metric_row(args.pipeline, report)])
    return EXIT_OK


def cmd_ensemble_eval(args) -> int:
    sc = _load(args)
    tr = nn_mod.load_dataset(args.train)
    va = nn_mod.load_dataset(args.val)
    te = nn_mod.load_dataset(args.data)
    base = _mlp_config(args, tr)
    ens_cfg = ens_mod.EnsembleConfig(p=args.members, r_a=args.r_a)
    nets = train_model("ensemble", base, tr, va, ens_cfg)
    eps = {} if args.eps is None else {"eps": args.eps}  # unless given, the estimator's default
    # NN-WLS on the first member, then each ensemble pipeline on them all.
    rows = [_metric_row("nn_wls", evaluate(estimator("nn_wls", sc, nets[0], **eps), te))]
    for pipeline in pipelines("ensemble"):
        estimate = estimator(pipeline, sc, nets, r_a=ens_cfg.r_a, **eps)
        rows.append(_metric_row(f"{pipeline}_wls", evaluate(estimate, te)))
    _write(args, sc, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridloc",
        description="Hybrid TDOA/FDOA/AOA localization experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("--scenario", help="YAML scenario file (defaults built in)")
        p.add_argument("--out", default=out_default, help="output path (default stdout)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )

    p = sub.add_parser("simulate", help="Monte Carlo of the WLS estimators")
    common(p)
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--rho", type=float, nargs="+", help="noise scale grid")
    p.add_argument("--per-trial", help="also write a per-trial table to this path")
    p.set_defaults(func=cmd_simulate, hashed=("seed", "trials", "rho"))

    p = sub.add_parser("crlb", help="lower-bound traces over noise/receiver grids")
    common(p)
    p.add_argument("--rho", type=float, nargs="+", help="noise scale grid")
    p.add_argument("--na", type=int, nargs="+", help="receiver-count grid")
    p.add_argument(
        "--check-identities",
        action="store_true",
        help="verify the closed-form row identities and report the deviation",
    )
    p.set_defaults(func=cmd_crlb, hashed=("seed", "rho", "na"))

    p = sub.add_parser("select-sr", help="LOS selection success rate")
    common(p)
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--na", type=int, nargs="+", help="receiver-count grid")
    p.set_defaults(func=cmd_select_sr, hashed=("seed", "trials", "na"))

    p = sub.add_parser("gen-dataset", help="synthesize a training dataset")
    common(p)
    p.add_argument("--samples", type=_positive(int), default=2700, help="sample count")
    p.add_argument(
        "--split",
        type=_split_sizes,
        metavar="N_TRAIN,N_VAL,N_TEST",
        help="draw N_TRAIN+N_VAL+N_TEST samples at once (instead of --samples) "
        "and write them to <stem>-train.npz, <stem>-val.npz and <stem>-test.npz, "
        "<stem> being --out without .npz",
    )
    p.add_argument(
        "--target",
        choices=("ue", "scatterer"),
        default="ue",
        help="which estimation problem the dataset is for",
    )
    p.set_defaults(func=cmd_gen_dataset)
    p.set_defaults(require_out=True)

    p = sub.add_parser("train", help="train a residual or black-box network")
    common(p)
    p.add_argument("--train", required=True, help="training dataset (.npz)")
    p.add_argument("--val", required=True, help="validation dataset (.npz)")
    p.add_argument(
        "--pipeline",
        choices=pipelines("residual", "state"),
        default="nn_wls",
        help="estimator the network is trained for",
    )
    p.add_argument("--config", help="YAML file of MlpConfig overrides")
    p.set_defaults(func=cmd_train)
    p.set_defaults(require_out=True)

    p = sub.add_parser("eval", help="evaluate an estimator on a dataset")
    common(p)
    p.add_argument("--data", required=True, help="test dataset (.npz)")
    p.add_argument("--model", help="trained model (.npz)")
    p.add_argument(
        "--pipeline",
        choices=pipelines(None, "residual", "state"),
        default="nn_wls",
    )
    p.add_argument("--eps", type=_positive(float), help="weighting ridge")
    p.set_defaults(func=cmd_eval, hashed=("seed", "pipeline", "eps"))

    p = sub.add_parser(
        "ensemble-eval", help="train an ensemble and compare combination rules"
    )
    common(p)
    p.add_argument("--train", required=True, help="training dataset (.npz)")
    p.add_argument("--val", required=True, help="validation dataset (.npz)")
    p.add_argument("--data", required=True, help="test dataset (.npz)")
    p.add_argument("--members", type=int, default=20, help="ensemble size")
    p.add_argument("--r-a", type=_positive(float), default=0.1, help="density kernel radius")
    p.add_argument("--eps", type=_positive(float), help="weighting ridge")
    p.add_argument("--config", help="YAML file of MlpConfig overrides")
    p.set_defaults(func=cmd_ensemble_eval, hashed=("seed", "members", "r_a", "eps"))
    p.set_defaults(require_out=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first :func:`main` call."""
    return build_parser()


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one ``warning: <message>`` line, naming no source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "require_out", False) and not args.out:
        parser.error(f"{args.command} requires --out")
    # The filters (``-W``, ``PYTHONWARNINGS``) still decide which warnings show.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except HybridlocError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
