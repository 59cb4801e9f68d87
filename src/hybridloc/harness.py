"""Seeded Monte Carlo campaigns and metric aggregation.

Every trial draws its randomness from ``default_rng([scenario.seed, trial])``
so results are reproducible and independent of execution order.  Campaigns
tolerate per-trial solver failures: failed trials are excluded from the
error statistics and surface as a failure rate instead.

The WLS and scatterer campaigns are one driver, :func:`_campaign`, given
each problem's measurement, noise layout, covariance, stacked solver and
bound.  They take each trial's unit normals from :func:`trial_normals`,
which opens every trial's stream once and draws at the user layout's
width; the scatterer layout uses the first four of them.  A caller that
runs both campaigns on one seed and trial count (``hybridloc simulate``)
draws them once and passes them to both.  Each campaign takes a grid of
noise scales ``rhos``: it turns a block of normals into noisy measurements
at every scale with one :func:`~hybridloc.noise.add_noise` step and solves
the (scales, block) stack at once, with one covariance per scale, and
returns one report per scale.  Without ``rhos`` it is the grid of
``sc.noise`` alone.  The report side takes the grid whole as well: the
blocks are joined once, one bound call on the stack of the scales'
covariances gives every scale's bound from one Jacobian, and
:func:`compute_metrics` takes each report's fields from a few shared sums.
The selection campaign simulates its trials and builds their n_a-free
records in blocks too, and takes an n_a grid.  Both campaigns, and
:func:`evaluate` of every learning pipeline's map (:func:`estimator`),
score a ``WlsBatch``'s fields with :func:`_report`, which alone decides
which trials count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import ensemble, nn
from .crlb import crlb_scatterer, crlb_ue_traces, position_trace, velocity_trace
from .errors import (
    CampaignFailedError,
    DimensionMismatchError,
    HybridlocError,
    ScenarioError,
)
from .geometry import measurement_dim, scatterer_measurement, ue_measurement
from .noise import (
    add_noise,
    build_q,
    build_qs,
    draw_dominant,
    scatterer_sigma_components,
    sigma_components,
)
from .scatterer_wls import scatterer_wls_solve_batch
from .scenario import Scenario
from .selection import los_candidates_batch, select_los, simulate_paths_batch
from .ue_wls import wls_solve_batch

# Stream tags keep the campaign-level draws (e.g. the dataset's dominant
# bias) out of the per-trial streams.
_DOMINANT_STREAM = 0xD0

# Trials a campaign solves together: the solve's working memory stays
# bounded whatever the trial count.
_BLOCK = 64


@dataclass
class MetricReport:
    """Aggregate metrics of one campaign; inapplicable fields stay None."""

    rmse_position: float | None = None
    rmse_velocity: float | None = None
    mae_position: float | None = None
    mae_velocity: float | None = None
    crlb_trace_position: float | None = None
    crlb_trace_velocity: float | None = None
    success_rate: float | None = None
    bias_per_component: np.ndarray | None = None
    std_per_component: np.ndarray | None = None
    failure_rate: float = 0.0
    trials: int = 0

    def to_dict(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            if isinstance(value, np.ndarray):
                out[key] = [float(v) for v in value]
            else:
                out[key] = value
        return out

    @property
    def rmse_over_crlb_position(self) -> float | None:
        if self.rmse_position is None or not self.crlb_trace_position:
            return None
        return self.rmse_position / np.sqrt(self.crlb_trace_position)

    @property
    def rmse_over_crlb_velocity(self) -> float | None:
        if self.rmse_velocity is None or not self.crlb_trace_velocity:
            return None
        return self.rmse_velocity / np.sqrt(self.crlb_trace_velocity)


def compute_metrics(estimates, truths) -> MetricReport:
    """RMSE/MAE/bias over paired estimates and truths.

    RMSE is the root of the mean squared error NORM, MAE the mean error
    norm, both split into position (the first three components) and
    velocity (the rest); velocity metrics stay None when any velocity
    error is NaN.  ``truths`` has one row per estimate, or a single row
    that every estimate shares.

    Every field comes from a few ``np.add.reduce`` sums, summed as
    ``np.mean``, ``np.linalg.norm`` and ``ndarray.std`` sum them, so each
    rounds as those would: the squared errors' row sums give both RMSE and
    MAE, and the column sums both the bias and the centre of the std.
    """
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truths = np.atleast_2d(np.asarray(truths, dtype=float))
    if estimates.size == 0 or truths.size == 0:
        raise DimensionMismatchError("metrics need at least one estimate")
    if truths.shape not in (estimates.shape, (1, estimates.shape[1])):
        raise DimensionMismatchError(
            f"estimates {estimates.shape} and truths {truths.shape} differ"
        )
    err = estimates - truths
    n = err.shape[0]
    bias = np.add.reduce(err, axis=0) / n
    centred = err - bias
    squares = err * err
    report = MetricReport(
        bias_per_component=bias,
        std_per_component=np.sqrt(np.add.reduce(centred * centred, axis=0) / n),
        trials=n,
    )
    report.rmse_position, report.mae_position = _rms_and_mean_norm(squares[:, :3], n)
    if err.shape[1] > 3:
        # A sum of squares is NaN exactly when one of them is: so are the
        # velocity RMSE and MAE.
        rmse, mae = _rms_and_mean_norm(squares[:, 3:], n)
        if not np.isnan(rmse):
            report.rmse_velocity, report.mae_velocity = rmse, mae
    return report


def _rms_and_mean_norm(squares, n: int) -> tuple:
    """The root mean and the mean of the norms whose squared entries are the
    rows of ``squares``, over ``n`` rows."""
    norms2 = np.add.reduce(squares, axis=1)
    return (float(np.sqrt(np.add.reduce(norms2) / n)),
            float(np.add.reduce(np.sqrt(norms2)) / n))


def trial_normals(sc: Scenario, width: int | None = None) -> np.ndarray:
    """Unit normals (trials, width): row ``t`` from trial ``t``'s stream ``[seed, t]``.

    ``width`` defaults to the user layout's ``4*n_a - 2``.  A stream fills
    its draws in sequence, so the first ``k`` columns equal a draw of width
    ``k`` bit for bit: one draw serves the user and the scatterer campaign.
    """
    width = measurement_dim(sc.n_a) if width is None else width
    return np.array([
        np.random.default_rng([sc.seed, t]).standard_normal(width)
        for t in range(sc.trials)
    ])


def _campaign_normals(sc: Scenario, width: int, normals) -> np.ndarray:
    """The first ``width`` columns of ``normals``, drawn when None."""
    if normals is None:
        return trial_normals(sc, width)
    normals = np.asarray(normals, dtype=float)
    if normals.ndim != 2 or normals.shape[0] != sc.trials or normals.shape[1] < width:
        raise DimensionMismatchError(
            f"normals of shape {normals.shape} do not cover {sc.trials} trials "
            f"of width {width}"
        )
    return normals[:, :width]


def _campaign(sc: Scenario, truth, m_true, layout, cov, solve, traces, normals, rhos,
              collect_trials: bool = False):
    """Noisy draws of ``m_true`` at every noise scale, solved and reported.

    The grid is ``sc.noise`` alone when ``rhos`` is None, else
    ``sc.noise.scaled(rho)`` for each of ``rhos``.  ``layout(noise)`` gives
    a scale's standard deviations and ``cov(noise)`` its covariance.  The
    trials' unit normals are the first columns of ``normals``, a
    :func:`trial_normals` array, drawn here when None; the dominant bias,
    in structured mode, comes from the campaign's stream, which is built
    only then and serves every scale.  Each ``_BLOCK`` of normals is noised
    at every scale and ``solve(ms, qs)`` gets the (R, block, width) stack
    with the (R, 1, d, d) covariances, returning a ``WlsBatch``.  The blocks'
    fields are joined once; each scale is then reported against ``truth``
    with its ``(position, velocity)`` pair from ``traces(qs)``, one bound
    call for the grid.  Returns what :func:`run_wls_campaign` documents.
    """
    noises = [sc.noise] if rhos is None else [sc.noise.scaled(rho) for rho in rhos]
    qs = np.stack([cov(noise) for noise in noises])
    sds = np.stack([layout(noise) for noise in noises])[:, None, :]
    normals = _campaign_normals(sc, sds.shape[-1], normals)
    dominant = draw_dominant(
        sc.noise, sds,
        functools.partial(np.random.default_rng, [sc.seed, _DOMINANT_STREAM]),
    )
    batches = [
        solve(add_noise(m_true, sc.noise, sds, dominant, normals[lo : lo + _BLOCK]), qs[:, None])
        for lo in range(0, sc.trials, _BLOCK)
    ]
    x, failures, valid = (np.concatenate([getattr(b, f) for b in batches], axis=1)
                          for f in ("x", "failures", "velocity_valid"))
    results = []
    for r, trace in enumerate(traces(qs)):
        report = _report(x[r], failures[r], valid[r], truth)
        report.crlb_trace_position, report.crlb_trace_velocity = trace
        results.append((report, _trial_rows(truth, x[r], failures[r]))
                       if collect_trials else report)
    return results[0] if rhos is None else results


def _report(x, failures, valid, truths) -> MetricReport:
    """The metrics of a ``WlsBatch``'s fields ``x``, ``failures`` and
    ``valid`` (its ``velocity_valid``) against ``truths`` (a row per trial,
    or one shared row); the failed share is ``failure_rate``, and if it is
    all, ``CampaignFailedError``.  Position is scored over every success
    and velocity over ``valid``: once a success has lost its velocity, the
    metrics (and bias) cover position only and the velocity RMSE and MAE
    come from the valid trials."""
    ok = np.equal(failures, None)
    if not ok.any():
        raise CampaignFailedError(f"every trial failed numerically; trial 0: {failures[0]}")

    def truth(rows):
        return truths[rows] if np.ndim(truths) == 2 else truths

    if valid[ok].all():
        report = compute_metrics(x[ok], truth(ok))
    else:
        report = compute_metrics(x[ok, :3], truth(ok)[..., :3])
        if valid.any():
            velocity = compute_metrics(x[valid], truth(valid))
            report.rmse_velocity = velocity.rmse_velocity
            report.mae_velocity = velocity.mae_velocity
    report.failure_rate = int(np.count_nonzero(~ok)) / len(failures)
    report.trials = len(failures)
    return report


def _trial_rows(truth, x, failures) -> list:
    """One row per trial: its errors against ``truth``, or its failure."""
    rows = []
    for t, failure in enumerate(failures):
        if failure is None:
            rows.append({
                "trial": t,
                "status": "ok",
                "error_position": float(np.linalg.norm(x[t, :3] - truth[:3])),
                "error_velocity": float(np.linalg.norm(x[t, 3:] - truth[3:])),
            })
        else:
            rows.append({"trial": t, "status": "fail", "detail": str(failure)})
    return rows


def run_wls_campaign(sc: Scenario, collect_trials: bool = False, normals=None, rhos=None):
    """Monte Carlo of the iterated WLS estimator at the true user state.

    Position metrics cover every successful trial, velocity metrics the
    ones whose velocity is valid (not solved position-only).  The bound is
    the joint one when velocity is observable at the true state, else the
    position bound of the TDOA and AOA rows; one :func:`crlb_ue_traces`
    call gives it at every noise scale.  ``normals`` is the
    :func:`trial_normals` array of ``sc``'s seed and trial count, drawn
    here when None.

    ``rhos`` is a grid of noise scales, solved as one stack per block of
    trials: the result is then a list with one entry per scale, each what
    the campaign returns on ``sc.replace(noise=sc.noise.scaled(rho))``.
    Without ``rhos`` it is the result at ``sc.noise``: the report, or
    ``(report, rows)`` with the per-trial rows when ``collect_trials`` is
    set.  The first scale whose trials all failed raises
    ``CampaignFailedError``.
    """
    rrhs = sc.selected_rrhs()
    return _campaign(
        sc, sc.ue_true, ue_measurement(sc.ue_true, rrhs),
        functools.partial(sigma_components, sc.n_a), functools.partial(build_q, sc.n_a),
        lambda ms, qs: wls_solve_batch(ms, rrhs, qs, iters=sc.wls_iters),
        lambda qs: crlb_ue_traces(sc.ue_true, rrhs, qs),
        normals, rhos, collect_trials,
    )


def run_scatterer_campaign(sc: Scenario, normals=None, rhos=None):
    """Monte Carlo of the single-receiver scatterer estimator.

    ``normals`` is a :func:`trial_normals` array of ``sc``'s seed and trial
    count, at least four wide (its first four columns are used), drawn
    here when None.  ``rhos`` is a grid of noise scales, as in
    :func:`run_wls_campaign`: with it the result is one report per scale,
    without it the report at ``sc.noise``.  One :func:`crlb_scatterer`
    call gives the bound at every scale.
    """
    b_n = sc.rrhs[sc.scatterer_rrh]
    b_1 = sc.rrhs[0]
    return _campaign(
        sc, sc.scatterer_true, scatterer_measurement(sc.scatterer_true, sc.ue_true, b_n, b_1),
        scatterer_sigma_components, build_qs,
        lambda ms, qs: scatterer_wls_solve_batch(ms, b_n, b_1, sc.ue_true, qs),
        lambda qs: [(position_trace(c), velocity_trace(c))
                    for c in crlb_scatterer(sc.scatterer_true, b_n, sc.ue_true, qs)],
        normals, rhos,
    )


def run_sr_campaign(sc: Scenario, nas=None):
    """Fraction of trials whose selected paths are all true direct paths.

    ``nas`` is a grid of receiver counts; each trial is simulated and its
    ``los_candidates`` built once, ``_BLOCK`` trials at a time (by
    ``simulate_paths_batch`` and ``los_candidates_batch``), then selected
    at every count by its own ``select_los`` call, which reads the count's
    ranking center from the record's all-size table.  Returns
    one report per entry of ``nas``, or the report at ``sc.n_a`` when
    ``nas`` is None.  Every count is checked
    against the scenario before any trial runs.  A selection that raises
    counts as a miss and in ``failure_rate``.
    """
    grid = [sc.n_a] if nas is None else [sc.replace(n_a=na).n_a for na in nas]
    hits = np.zeros(len(grid), dtype=int)
    failed = np.zeros(len(grid), dtype=int)
    for lo in range(0, sc.trials, _BLOCK):
        streams = [
            np.random.default_rng([sc.seed, t]) for t in range(lo, min(lo + _BLOCK, sc.trials))
        ]
        block = simulate_paths_batch(sc, streams)
        # A trial whose first stage failed is selected without a record, so
        # each of its selections raises its own error.
        entries = [
            None if isinstance(c, HybridlocError) else c
            for c in los_candidates_batch(block, sc.rrhs)
        ]
        for j, na in enumerate(grid):
            for paths, candidates in zip(block, entries):
                try:
                    sel = select_los(paths, sc.rrhs, n_a=na, candidates=candidates)
                    hits[j] += sel.all_selected_are_los()
                except HybridlocError:
                    failed[j] += 1
    reports = [
        MetricReport(
            success_rate=int(h) / sc.trials,
            failure_rate=int(f) / sc.trials,
            trials=sc.trials,
        )
        for h, f in zip(hits, failed)
    ]
    return reports[0] if nas is None else reports


# The learning pipelines, in the order the CLI offers and reports them, and
# the model each runs on: none, a "residual" net (one output per measurement
# entry), a "state" net (the 6-entry state) or an "ensemble" of residual nets.
PIPELINES = {
    "wls": None,
    **dict.fromkeys(("nn_wls", "nn_ls"), "residual"),
    "blackbox": "state",
    **dict.fromkeys(("enn_a", "enn_m", "enn_b"), "ensemble"),
}


def pipelines(*kinds) -> list:
    """The names of the pipelines that run on a model of one of ``kinds``, in order."""
    return [name for name, kind in PIPELINES.items() if kind in kinds]


def estimator(pipeline: str, sc: Scenario, model=None, eps: float = 0.1, r_a: float = 0.1):
    """The stack map of a learning pipeline on the scenario's receivers.

    The map takes stacked measurements (N, dim) and returns a ``WlsBatch``
    of (N, 6) estimates; only ``wls`` has a covariance.  ``model`` is the
    pipeline's model in :data:`PIPELINES`, the list of member nets for an
    ensemble; one of another shape, or a net whose output width does not
    suit it, raises ``DimensionMismatchError``.
    """
    if pipeline not in PIPELINES:
        raise ScenarioError(f"unknown pipeline {pipeline!r}")
    rrhs = sc.selected_rrhs()
    if model is not None:
        _check_outputs(pipeline, model)
    if pipeline == "wls":
        q = build_q(sc.n_a, sc.noise)
        return lambda ms: wls_solve_batch(ms, rrhs, q, iters=sc.wls_iters)
    return {
        "nn_wls": lambda ms: nn.nn_wls_batch(model, ms, rrhs, eps),
        "nn_ls": lambda ms: nn.nn_ls_batch(model, ms, rrhs),
        "blackbox": lambda ms: nn.blackbox_batch(model, ms),
        "enn_a": lambda ms: ensemble.enn_a_wls_batch(model, ms, rrhs, eps, r_a),
        "enn_m": lambda ms: ensemble.enn_m_wls_batch(model, ms, rrhs, eps),
        "enn_b": lambda ms: ensemble.enn_b_wls_batch(model, ms, rrhs),
    }[pipeline]


def _check_outputs(pipeline: str, model) -> None:
    """Raise ``DimensionMismatchError`` when ``model`` is not the one net or
    the list of nets that ``pipeline`` runs on, or a net of it has an output
    width that ``pipeline`` cannot use.  ``wls`` takes any model and ignores it."""
    kind = PIPELINES[pipeline]
    if kind is None:
        return
    listed = isinstance(model, (list, tuple))
    if listed != (kind == "ensemble"):
        needs = "one net, not a list" if listed else "a list of member nets"
        raise DimensionMismatchError(f"pipeline {pipeline!r} needs {needs}")
    for net in model if listed else [model]:
        width_in, width_out = net.config.layer_widths[0], net.config.layer_widths[-1]
        if kind == "state" and width_out != 6:
            raise DimensionMismatchError(
                f"pipeline {pipeline!r} needs a model that outputs the 6-entry state; "
                f"this model outputs {width_out} entries"
            )
        if kind in ("residual", "ensemble") and width_out != width_in:
            raise DimensionMismatchError(
                f"pipeline {pipeline!r} needs a residual model, whose output is as "
                f"wide as its input; this model maps {width_in} entries to {width_out}"
            )


def mlp_widths(train_set) -> tuple:
    """The default topology: two hidden layers of 32, ends as wide as the measurements."""
    dim = train_set.m.shape[1]
    return (dim, 32, 32, dim)


def train_model(kind, mlp_config, train_set, val_set, ensemble_config=None):
    """Train a model of the ``kind`` that :data:`PIPELINES` names: None
    trains nothing, and an ensemble has ``ensemble_config``'s members."""
    if kind == "residual":
        return nn.train(mlp_config, train_set, val_set)
    if kind == "state":
        return nn.train_blackbox(mlp_config, train_set, val_set)
    if kind == "ensemble":
        return ensemble.train_ensemble(mlp_config, ensemble_config, train_set, val_set)
    return None


def evaluate(estimate, test_set) -> MetricReport:
    """Metrics of the stack map ``estimate``, run once on a test set's
    measurements, against its states: :func:`_report`, one trial per sample."""
    batch = estimate(test_set.m)
    return _report(batch.x, batch.failures, batch.velocity_valid, test_set.x)


def run_nn_campaign(sc: Scenario, pipeline: str, datasets: dict, mlp_config=None) -> MetricReport:
    """MAE of a learning pipeline on a held-out test set.

    ``datasets`` maps "train"/"val"/"test" to Dataset objects; generating
    the test set under a different noise configuration than the training
    set gives the mismatched-noise robustness variant.  Ensembles and
    estimators take their default settings.
    """
    estimator(pipeline, sc)  # rejects an unknown pipeline before any training
    for key in ("train", "val", "test"):
        if key not in datasets:
            raise ScenarioError(f"datasets must include {key!r}")
    tr, va, te = datasets["train"], datasets["val"], datasets["test"]
    if mlp_config is None:
        mlp_config = nn.MlpConfig(layer_widths=mlp_widths(tr), seed=sc.seed)
    model = train_model(PIPELINES[pipeline], mlp_config, tr, va, ensemble.EnsembleConfig())
    return evaluate(estimator(pipeline, sc, model), te)
