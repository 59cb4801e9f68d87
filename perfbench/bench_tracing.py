"""Span recording around hybridloc's public functions, from outside the package.

A :class:`Tracer` replaces chosen functions with wrappers that record one
span per call (name, start, end, parent span, exception class, and an
optional note taken from the call) in plain lists, and puts the originals
back when the ``installed`` block ends.  A function is replaced in every
``hybridloc`` module namespace that binds it, so a name imported with
``from .ue_wls import solve_linear`` is traced as well.  Nothing inside
``src/`` is changed on disk.

:data:`POINTS` lists every traced function; :func:`layer_metrics` derives
the per-layer metrics named in ``BENCHMARK.json`` from the spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from hybridloc import (
    cli,
    crlb,
    ensemble,
    geometry,
    harness,
    nn,
    noise,
    scatterer_wls,
    scenario,
    selection,
    ue_wls,
)


@dataclass(frozen=True)
class Point:
    """One traced function: ``owner.attr`` recorded as span ``name``."""

    owner: object
    attr: str
    name: str
    note: Callable | None = None


def _rows(args, kwargs, result):
    return 1 if np.ndim(args[1]) == 1 else len(args[1])


def _n_samples(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n_samples"]


def _all_los(args, kwargs, result):
    return all(p.is_los for p in result.los_set)


# Functions without a metric of their own are traced too, so that the self
# time of their callers counts only the callers' own work.
POINTS = [
    Point(geometry, "ue_measurement", "geometry.ue_measurement"),
    Point(geometry, "scatterer_measurement", "geometry.scatterer_measurement"),
    Point(noise, "sample_gaussian", "noise.sample_gaussian"),
    Point(noise, "sample_structured", "noise.sample_structured"),
    Point(noise, "sample_structured_scatterer", "noise.sample_structured_scatterer"),
    Point(scenario, "load_scenario", "scenario.load_scenario"),
    Point(selection, "simulate_paths", "selection.simulate_paths"),
    Point(selection, "select_los", "selection.select_los", _all_los),
    Point(selection, "rough_fix", "selection.rough_fix"),
    Point(selection, "kmeans2", "selection.kmeans2"),
    Point(ue_wls, "wls_solve", "ue_wls.wls_solve", lambda a, k, r: r.velocity_valid),
    Point(ue_wls, "build_system", "ue_wls.build_system"),
    Point(ue_wls, "build_b", "ue_wls.build_b"),
    Point(ue_wls, "solve_linear", "ue_wls.solve_linear"),
    Point(scatterer_wls, "scatterer_wls_solve", "scatterer_wls.scatterer_wls_solve"),
    Point(scatterer_wls, "build_scatterer_system", "scatterer_wls.build_scatterer_system"),
    Point(scatterer_wls, "build_bs", "scatterer_wls.build_bs"),
    Point(crlb, "crlb_ue", "crlb.crlb_ue"),
    Point(crlb, "crlb_ue_position", "crlb.crlb_ue_position"),
    Point(crlb, "crlb_scatterer", "crlb.crlb_scatterer"),
    Point(nn, "make_dataset", "nn.make_dataset", _n_samples),
    Point(nn, "train", "nn.train"),
    Point(nn, "train_blackbox", "nn.train_blackbox"),
    Point(nn.Mlp, "loss_and_gradients", "nn.Mlp.loss_and_gradients"),
    Point(nn.Mlp, "predict", "nn.Mlp.predict", _rows),
    Point(nn, "nn_wls_estimate", "nn.nn_wls_estimate"),
    Point(nn, "nn_ls_estimate", "nn.nn_ls_estimate"),
    Point(nn, "blackbox_estimate", "nn.blackbox_estimate"),
    Point(nn, "residual_weight", "nn.residual_weight"),
    Point(ensemble, "train_ensemble", "ensemble.train_ensemble"),
    Point(ensemble, "member_states", "ensemble.member_states"),
    Point(ensemble, "enn_a_wls", "ensemble.enn_a_wls"),
    Point(ensemble, "enn_b_wls", "ensemble.enn_b_wls"),
    Point(ensemble, "enn_m_wls", "ensemble.enn_m_wls"),
    Point(ensemble, "invert_weighting", "ensemble.invert_weighting", lambda a, k, r: r[1]),
    Point(harness, "run_wls_campaign", "harness.run_wls_campaign"),
    Point(harness, "run_scatterer_campaign", "harness.run_scatterer_campaign"),
    Point(harness, "run_sr_campaign", "harness.run_sr_campaign"),
    Point(harness, "compute_metrics", "harness.compute_metrics"),
    Point(cli, "main", "cli.main"),
]


def points_named(*names) -> list:
    """The subset of :data:`POINTS` with the given span names."""
    chosen = [p for p in POINTS if p.name in names]
    if len(chosen) != len(names):
        raise KeyError(f"unknown trace points among {names}")
    return chosen


class Tracer:
    """In-memory span store; spans are indexed by call order."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.errors: list = []
        self.notes: list = []
        self._stack = [-1]
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.errors.append(None)
        self.notes.append(None)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.errors[idx] = type(exc).__name__
                raise
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.starts[idx] = start
                tracer._stack.pop()
            if note is not None:
                tracer.notes[idx] = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (e.g. one round)."""
        idx = self._open(name)
        self.starts[idx] = perf_counter()
        try:
            yield idx
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self, points):
        """Trace ``points`` for the duration of the block."""
        modules = [
            m for key, m in sys.modules.items()
            if key == "hybridloc" or key.startswith("hybridloc.")
        ]
        try:
            for p in points:
                if isinstance(p.owner, type):
                    original = p.owner.__dict__[p.attr]
                    targets = [p.owner]
                else:
                    original = getattr(p.owner, p.attr)
                    targets = modules
                wrapper = self._wrap(p.name, original, p.note)
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)
                            self._patches.append((target, key, original))
            yield self
        finally:
            for target, key, original in reversed(self._patches):
                setattr(target, key, original)
            self._patches.clear()

    def select(self, name: str, lo: int = 0) -> list:
        """Indices of the spans called ``name`` from span ``lo`` on."""
        return [i for i in range(lo, len(self.names)) if self.names[i] == name]

    def seconds(self, name: str, lo: int = 0) -> float:
        """Total duration of the spans called ``name`` from span ``lo`` on."""
        return sum(self.ends[i] - self.starts[i] for i in self.select(name, lo))

    def write(self, path) -> None:
        """Write every span as one CSV row (times relative to the first)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_us,end_us,parent,error,note\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{name},{(self.starts[i] - t0) * 1e6:.3f},"
                    f"{(self.ends[i] - t0) * 1e6:.3f},{self.parents[i]},"
                    f"{self.errors[i] or ''},"
                    f"{'' if self.notes[i] is None else self.notes[i]}\n"
                )


# Per-layer entries that come from the workload's outputs, not from spans.
FINGERPRINT = (
    "selection.success_rate",
    "nn.nn_wls_mae_position_m",
    "ensemble.enn_b_mae_position_m",
    "harness.ue_rmse_over_crlb_position",
    "harness.scatterer_rmse_over_crlb_position",
)

# Calls that turn one measurement into one state estimate.
_ESTIMATORS = frozenset({
    "ue_wls.wls_solve",
    "scatterer_wls.scatterer_wls_solve",
    "nn.nn_wls_estimate",
    "nn.nn_ls_estimate",
    "ensemble.enn_a_wls",
    "ensemble.enn_b_wls",
    "ensemble.enn_m_wls",
})


def layer_metrics(tracer: Tracer, rounds: int, fingerprint: dict,
                  overhead_pct: float) -> dict:
    """Every per-layer metric from the spans of ``rounds`` traced rounds.

    A layer the workload never calls reads 0.  Per-round figures divide by
    the number of traced rounds; self time is a span's duration minus the
    durations of its direct children.
    """
    names = np.array(tracer.names, dtype=object)
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    parents = np.array(tracer.parents, dtype=int)
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child
    by_name: dict = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)

    def idx(*span_names):
        return [i for n in span_names for i in by_name.get(n, ())]

    def mean(values, scale=1.0):
        return float(np.mean(values)) * scale if len(values) else 0.0

    def per_call(name, scale):
        return mean(dur[idx(name)], scale)

    def notes(name):
        return [tracer.notes[i] for i in idx(name) if tracer.notes[i] is not None]

    def per_round(count):
        return count / rounds

    top_estimates = 0
    for i in idx(*_ESTIMATORS):
        p = parents[i]
        while p >= 0 and names[p] not in _ESTIMATORS:
            p = parents[p]
        top_estimates += p < 0
    make_ds = idx("nn.make_dataset")
    samples = sum(notes("nn.make_dataset"))
    solves = idx("scatterer_wls.scatterer_wls_solve")
    harness_spans = [i for n, ids in by_name.items() if n.startswith("harness.") for i in ids]

    out = {
        "geometry.ue_measurement.us_per_call": per_call("geometry.ue_measurement", 1e6),
        "noise.sample.us_per_call": mean(dur[idx(
            "noise.sample_gaussian", "noise.sample_structured",
            "noise.sample_structured_scatterer")], 1e6),
        "ue_wls.wls_solve.us_per_call": per_call("ue_wls.wls_solve", 1e6),
        "ue_wls.build_system.us_per_call": per_call("ue_wls.build_system", 1e6),
        "ue_wls.build_b.us_per_call": per_call("ue_wls.build_b", 1e6),
        "ue_wls.solve_linear.us_per_call": per_call("ue_wls.solve_linear", 1e6),
        "ue_wls.solve_linear.calls_per_estimate":
            len(idx("ue_wls.solve_linear")) / top_estimates if top_estimates else 0.0,
        "ue_wls.position_only_fallbacks":
            per_round(sum(1 for v in notes("ue_wls.wls_solve") if not v)),
        "scatterer_wls.scatterer_wls_solve.us_per_call":
            per_call("scatterer_wls.scatterer_wls_solve", 1e6),
        "scatterer_wls.failures.SingularProblemError": per_round(sum(
            1 for i in solves if tracer.errors[i] == "SingularProblemError")),
        "crlb.crlb_ue.us_per_call": per_call("crlb.crlb_ue", 1e6),
        "selection.select_los.ms_per_call": per_call("selection.select_los", 1e3),
        "selection.select_los.self_ms_per_call":
            mean(self_t[idx("selection.select_los")], 1e3),
        "selection.kmeans2.us_per_call": per_call("selection.kmeans2", 1e6),
        "selection.simulate_paths.ms_per_call": per_call("selection.simulate_paths", 1e3),
        "nn.make_dataset.us_per_sample":
            float(dur[make_ds].sum()) * 1e6 / samples if samples else 0.0,
        "nn.train.s_per_call": per_call("nn.train", 1.0),
        "nn.train.self_s": per_round(float(self_t[idx("nn.train")].sum())),
        "nn.Mlp.loss_and_gradients.us_per_batch":
            per_call("nn.Mlp.loss_and_gradients", 1e6),
        "nn.Mlp.predict.us_per_call": per_call("nn.Mlp.predict", 1e6),
        "nn.Mlp.predict.rows_per_call": mean(notes("nn.Mlp.predict")),
        "nn.nn_wls_estimate.us_per_call": per_call("nn.nn_wls_estimate", 1e6),
        "nn.residual_weight.us_per_call": per_call("nn.residual_weight", 1e6),
        "ensemble.train_ensemble.s_per_call": per_call("ensemble.train_ensemble", 1.0),
        "ensemble.enn_a_wls.us_per_call": per_call("ensemble.enn_a_wls", 1e6),
        "ensemble.enn_b_wls.us_per_call": per_call("ensemble.enn_b_wls", 1e6),
        "ensemble.enn_m_wls.us_per_call": per_call("ensemble.enn_m_wls", 1e6),
        "ensemble.ridge_engaged_per_call":
            mean([float(v) for v in notes("ensemble.invert_weighting")]),
        "harness.self_ms": per_round(float(self_t[harness_spans].sum()) * 1e3),
        "cli.self_ms": per_round(float(self_t[idx("cli.main")].sum()) * 1e3),
        "trace.overhead_pct": overhead_pct,
        "trace.spans_per_round": per_round(
            len(tracer) - len(idx("bench.round"))),
    }
    for name in FINGERPRINT:
        out[name] = float(fingerprint.get(name, 0.0))
    return out
