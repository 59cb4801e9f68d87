"""The benchmark's workloads: inputs from the seed, rounds, outputs, checks.

Each workload runs whole rounds of the same operations.  ``setup`` is
repeated by the runner and must leave the workload ready for round 0;
``run_round`` performs one round through hybridloc's public interface and
returns ``(attempted, failed)``; ``check`` returns the list of failed
correctness checks over every round run.  The checks rest on computations
made here (finite-difference bounds, sample statistics, method
properties), not on stored copies of earlier output.  Rounds call the
program through module attributes (``ue_wls.wls_solve``), never through
names bound here, so that a traced round sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import yaml

from hybridloc import cli, ensemble, nn, ue_wls
from hybridloc.errors import HybridlocError
from hybridloc.geometry import scatterer_measurement, ue_measurement
from hybridloc.noise import NoiseConfig, draw_dominant_bias
from hybridloc.scatterer_wls import scatterer_wls_solve
from hybridloc.scenario import load_scenario

from bench_tracing import points_named


def _round_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _write_scenario(src: Path, dest: Path, **changes) -> str:
    with open(src, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data.update(changes)
    with open(dest, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)
    return str(dest)


def _cli_json(argv) -> dict:
    """Run one ``hybridloc`` command in process and parse its JSON report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv) + ["--format", "json"])
    if code != 0:
        raise RuntimeError(f"hybridloc {' '.join(argv)} exited with {code}")
    return json.loads(buf.getvalue())


def _sigmas(n_a: int, cfg: NoiseConfig) -> np.ndarray:
    """Per-entry noise deviations in measurement order (TDOA/FDOA pairs, AOA)."""
    k = 2 * n_a - 2
    sd = np.full(4 * n_a - 2, cfg.delta_a)
    sd[0:k:2] = cfg.delta_d
    sd[1:k:2] = cfg.fdoa_factor * cfg.delta_d
    return sd


def _scatterer_sigmas(cfg: NoiseConfig) -> np.ndarray:
    return np.array([cfg.delta_d, cfg.fdoa_factor * cfg.delta_d, cfg.delta_a, cfg.delta_a])


def _central_jacobian(f, x, rel: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = rel * max(1.0, abs(x[i]))
        cols.append((f(x + step) - f(x - step)) / (2.0 * step[i]))
    return np.array(cols).T


def _bound(jac: np.ndarray, sd: np.ndarray) -> np.ndarray:
    j = jac / sd[:, None]
    return np.linalg.inv(j.T @ j)


def _rel_err(est, truth) -> float:
    return float(np.linalg.norm(np.asarray(est) - truth) / np.linalg.norm(truth))


def _mae(est: np.ndarray, truth: np.ndarray, cols: slice) -> float:
    """Mean error norm over the rows that hold an estimate (failed rows are NaN)."""
    return float(np.nanmean(np.linalg.norm(est[:, cols] - truth[:, cols], axis=1)))


POS, VEL = slice(0, 3), slice(3, 6)


class MonteCarlo:
    """``hybridloc simulate`` over rho x n_a on crlb-attainment.yaml.

    Per n_a, one call runs rho = 0.1 and 1 at the round's seed, and one
    call runs rho = 10 at the fixed seed 25 over trials 0-3.  Scatterer
    trial 0 there fails every time: its first solve returns a wild speed,
    the re-weighting built at that state is near-singular, and
    ``solve_linear`` raises.  So every round fails exactly one scatterer
    trial per n_a, whatever the workload seed.  Seeded rho = 10 trials are
    left out because the same fault hits about 0.3 % of them at random.
    """

    name = "montecarlo"
    probes = points_named("harness.run_wls_campaign", "harness.run_scatterer_campaign")
    NAS = (3, 6, 9)
    SEEDED_RHOS = ("0.1", "1")
    FIXED_RHO, FIXED_SEED, FIXED_TRIALS = "10", 25, 4
    RATIO_TOL = 0.15

    def __init__(self, root: Path, workdir: Path, seed: int, quick: bool):
        self.root, self.workdir, self.seed = root, workdir, seed
        self.trials = 60 if quick else 20
        self.rows: list = []  # (n_a, row) for every seeded rho = 0.1 row
        self.ue_trials = self.scat_trials = 0
        self.ue_s = self.scat_s = 0.0

    def setup(self):
        src = self.root / "scenarios" / "crlb-attainment.yaml"
        self.sc = load_scenario(src)
        self.paths = {
            na: _write_scenario(src, self.workdir / f"crlb-attainment-na{na}.yaml", n_a=na)
            for na in self.NAS
        }
        _cli_json(["simulate", "--scenario", self.paths[6], "--rho", "0.1",
                   "--trials", "2"])

    def run_round(self, k: int, tracer, clock):
        lo = len(tracer)
        attempted = failed = 0
        with clock.part("round"):
            for na in self.NAS:
                for rhos, seed, trials in (
                    (self.SEEDED_RHOS, _round_seed(self.seed, k), self.trials),
                    ((self.FIXED_RHO,), self.FIXED_SEED, self.FIXED_TRIALS),
                ):
                    report = _cli_json(["simulate", "--scenario", self.paths[na],
                                        "--rho", *rhos, "--seed", str(seed),
                                        "--trials", str(trials)])
                    for row in report["rows"]:
                        attempted += 2 * trials
                        failed += round(row["failure_rate"] * trials)
                        failed += round(row["scat_failure_rate"] * trials)
                        self.ue_trials += trials
                        self.scat_trials += trials
                        if row["rho"] == 0.1:
                            self.rows.append((na, row))
        self.ue_s += tracer.seconds("harness.run_wls_campaign", lo)
        self.scat_s += tracer.seconds("harness.run_scatterer_campaign", lo)
        return attempted, failed

    def _bounds(self, na: int, rho: float):
        """(position, velocity or None) bound traces from finite differences."""
        rrhs = self.sc.rrhs[:na]
        x = self.sc.ue_true
        jac = _central_jacobian(lambda s: ue_measurement(s, rrhs), x)
        sd = _sigmas(na, self.sc.noise.scaled(rho))
        if na >= 4:
            cov = _bound(jac, sd)
            return float(np.trace(cov[POS, POS])), float(np.trace(cov[VEL, VEL]))
        # Position-only estimator: TDOA and AOA rows, position columns.
        rows = np.ones(sd.size, dtype=bool)
        rows[1 : 2 * na - 2 : 2] = False
        return float(np.trace(_bound(jac[rows][:, POS], sd[rows]))), None

    def _scatterer_bound(self, rho: float) -> float:
        sc = self.sc
        b_n, b_1 = sc.rrhs[sc.scatterer_rrh], sc.rrhs[0]
        jac = _central_jacobian(
            lambda s: scatterer_measurement(s, sc.ue_true, b_n, b_1), sc.scatterer_true)
        return float(np.trace(_bound(jac, _scatterer_sigmas(sc.noise.scaled(rho)))[POS, POS]))

    def _pooled_rmse(self, na: int, key: str) -> float:
        rows = [r for n, r in self.rows if n == na]
        return math.sqrt(sum(r["trials"] * r[key] ** 2 for r in rows)
                         / sum(r["trials"] for r in rows))

    def check(self) -> list:
        problems = []
        sc = self.sc
        b_n, b_1 = sc.rrhs[sc.scatterer_rrh], sc.rrhs[0]
        for rho in (0.1, 1.0, 10.0):
            cfg = sc.noise.scaled(rho)
            ms = scatterer_measurement(sc.scatterer_true, sc.ue_true, b_n, b_1)
            qs = np.diag(_scatterer_sigmas(cfg) ** 2)
            err = _rel_err(scatterer_wls_solve(ms, b_n, b_1, sc.ue_true, qs).x,
                           sc.scatterer_true)
            if err > 1e-6:
                problems.append(f"noise-free scatterer solve at rho={rho}: rel err {err:.2e}")
            for na in self.NAS:
                rrhs = sc.rrhs[:na]
                res = ue_wls.wls_solve(ue_measurement(sc.ue_true, rrhs), rrhs,
                                       np.diag(_sigmas(na, cfg) ** 2))
                cols = slice(0, 6) if na >= 4 else POS
                err = _rel_err(res.x[cols], sc.ue_true[cols])
                if err > 1e-6 or res.velocity_valid != (na >= 4):
                    problems.append(f"noise-free UE solve at rho={rho}, n_a={na}: "
                                    f"rel err {err:.2e}, velocity_valid={res.velocity_valid}")
        for na in self.NAS:
            pos, vel = self._bounds(na, 0.1)
            ratio = self._pooled_rmse(na, "rmse_position") / math.sqrt(pos)
            if abs(ratio - 1.0) > self.RATIO_TOL:
                problems.append(f"UE RMSE/sqrt(bound) at rho=0.1, n_a={na} is {ratio:.3f}")
            if na >= 4:
                for n, row in self.rows:
                    if n != na:
                        continue
                    for key, trace in (("crlb_rms_position", pos), ("crlb_rms_velocity", vel)):
                        if abs(row[key] / math.sqrt(trace) - 1.0) > 1e-6:
                            problems.append(f"CLI {key} at n_a={na} is {row[key]:.9g}, "
                                            f"finite-difference bound {math.sqrt(trace):.9g}")
        ratio = self._pooled_rmse(6, "scat_rmse_position") / math.sqrt(self._scatterer_bound(0.1))
        if abs(ratio - 1.0) > self.RATIO_TOL:
            problems.append(f"scatterer RMSE/sqrt(bound) at rho=0.1 is {ratio:.3f}")
        return problems

    def throughputs(self, clock) -> dict:
        return {
            "ue_trials_per_s": (self.ue_trials / self.ue_s, "trials/s"),
            "scatterer_trials_per_s": (self.scat_trials / self.scat_s, "trials/s"),
        }

    def fingerprint(self) -> dict:
        rows = [r for n, r in self.rows if n == 6]
        return {
            "harness.ue_rmse_over_crlb_position":
                self._pooled_rmse(6, "rmse_position") / rows[0]["crlb_rms_position"],
            "harness.scatterer_rmse_over_crlb_position":
                self._pooled_rmse(6, "scat_rmse_position") / rows[0]["scat_crlb_rms_position"],
        }


class LosSelection:
    """``hybridloc select-sr`` on selection-sr.yaml at n_a 4 and 6, bias 0 and 100 m."""

    name = "los-selection"
    probes = points_named("harness.run_sr_campaign", "selection.select_los")
    NAS = (4, 6)
    BIASES = (0.0, 100.0)
    RATE_FLOOR, BIAS_TOL = 0.80, 0.05

    def __init__(self, root: Path, workdir: Path, seed: int, quick: bool):
        self.root, self.workdir, self.seed = root, workdir, seed
        self.trials = 10
        # (bias, n_a) -> list of per-trial outcomes, trial order preserved
        self.outcomes = {(b, na): [] for b in self.BIASES for na in self.NAS}
        self.reported = {key: [] for key in self.outcomes}  # (rate, trials) per call
        self.sr_trials = 0
        self.sr_s = 0.0

    def setup(self):
        src = self.root / "scenarios" / "selection-sr.yaml"
        self.sc = load_scenario(src)
        self.paths = {
            b: _write_scenario(src, self.workdir / f"selection-sr-bias{int(b)}.yaml",
                               clock_bias_m=b)
            for b in self.BIASES
        }
        _cli_json(["select-sr", "--scenario", self.paths[0.0], "--trials", "1"])

    def run_round(self, k: int, tracer, clock):
        attempted = failed = 0
        with clock.part("round"):
            for bias in self.BIASES:
                lo = len(tracer)
                report = _cli_json(["select-sr", "--scenario", self.paths[bias],
                                    "--na", *map(str, self.NAS),
                                    "--seed", str(_round_seed(self.seed, k)),
                                    "--trials", str(self.trials)])
                calls = tracer.select("selection.select_los", lo)
                if len(calls) != len(self.NAS) * self.trials:
                    raise RuntimeError(f"expected {len(self.NAS) * self.trials} selections, "
                                       f"saw {len(calls)}")
                for j, na in enumerate(self.NAS):
                    mine = calls[j * self.trials:(j + 1) * self.trials]
                    self.outcomes[(bias, na)] += [bool(tracer.notes[i]) for i in mine]
                    failed += sum(tracer.errors[i] is not None for i in mine)
                for row in report["rows"]:
                    self.reported[(bias, row["na"])].append((row["success_rate"], row["trials"]))
                attempted += len(calls)
                self.sr_s += tracer.seconds("harness.run_sr_campaign", lo)
            self.sr_trials += attempted
        return attempted, failed

    def check(self) -> list:
        problems = []
        for key, outcomes in self.outcomes.items():
            tally = sum(round(rate * n) for rate, n in self.reported[key])
            if tally != sum(outcomes):
                problems.append(f"select-sr at bias {key[0]}, n_a={key[1]} reports "
                                f"{tally} successes, the selections hold {sum(outcomes)}")
        base = np.array(self.outcomes[(0.0, 4)])
        n = base.size
        floor = self.RATE_FLOOR - 3.0 * math.sqrt(self.RATE_FLOOR * (1 - self.RATE_FLOOR) / n)
        if base.mean() < floor:
            problems.append(f"success rate at n_a=4, bias 0 is {base.mean():.3f} < {floor:.3f}")
        for na in self.NAS:
            a = np.array(self.outcomes[(0.0, na)])
            b = np.array(self.outcomes[(100.0, na)])
            # Paired trials share every random draw; only discordant pairs
            # move the difference, so its standard error comes from them.
            d = a.astype(float) - b
            se = math.sqrt(max(np.sum(d * d) - np.sum(d) ** 2 / d.size, 0.0)) / d.size
            if abs(d.mean()) > self.BIAS_TOL + 3.0 * se:
                problems.append(f"n_a={na}: success rates at bias 0 and 100 m differ by "
                                f"{d.mean():+.3f} (paired SE {se:.3f})")
        return problems

    def throughputs(self, clock) -> dict:
        return {"sr_trials_per_s": (self.sr_trials / self.sr_s, "trials/s")}

    def fingerprint(self) -> dict:
        hits = [o for outcomes in self.outcomes.values() for o in outcomes]
        return {"selection.success_rate": sum(hits) / len(hits)}


class Learning:
    """Dataset, NN-WLS / black-box / ensemble training and test-set estimates.

    One dataset per round is split into train/val/test here, so the three
    parts share the dataset's systematic offset.  That offset is the
    scenario's own (drawn from its seed, as ``hybridloc gen-dataset``
    does); the round seed draws the states, the fluctuation and the
    network initialisations.
    """

    name = "learning"
    probes: list = []
    MEMBERS = 3  # fewer than the 22 measurement rows: ENN-B needs its ridge
    EPS = 0.1
    CHUNK = 50  # estimates timed together
    SINGLE = ("wls", "nn_wls", "nn_ls", "blackbox")
    ENSEMBLE = ("enn_a", "enn_b", "enn_m")
    TRAINING = ("train", "train_blackbox", "train_ensemble")

    def __init__(self, root: Path, workdir: Path, seed: int, quick: bool):
        self.root, self.seed = root, seed
        self.split = (600, 100, 200) if quick else (2000, 200, 500)
        self.members = 2 if quick else self.MEMBERS
        self.results: list = []

    def setup(self):
        self.sc = load_scenario(self.root / "scenarios" / "structured-noise.yaml")
        sc = self.sc
        self.rrhs = sc.selected_rrhs()
        self.q = np.diag(_sigmas(sc.n_a, sc.noise) ** 2)
        self.bias = draw_dominant_bias(sc.n_a, sc.noise, np.random.default_rng(sc.seed))
        dim = self.bias.size
        self.base = nn.MlpConfig(layer_widths=(dim, 32, 32, dim))
        warm = nn.make_dataset(sc, 16, np.random.default_rng(0), dominant_bias=self.bias)
        net = nn.train(self.base.replace(epochs=1), warm, warm)
        nn.nn_wls_estimate(net, warm.m[0], self.rrhs, self.EPS)

    def _estimate(self, label: str, fn, test, clock) -> tuple:
        est = np.full(test.x.shape, np.nan)
        failed = 0
        for lo in range(0, len(test), self.CHUNK):
            with clock.part(label):
                for i in range(lo, min(lo + self.CHUNK, len(test))):
                    try:
                        est[i] = fn(test.m[i])
                    except HybridlocError:
                        failed += 1
        return est, failed

    def run_round(self, k: int, tracer, clock):
        sc, rrhs, eps = self.sc, self.rrhs, self.EPS
        n_tr, n_va, n_te = self.split
        total = n_tr + n_va + n_te
        rng = np.random.default_rng([self.seed, k])
        with clock.part("dataset"):
            ds = nn.make_dataset(sc, total, rng, dominant_bias=self.bias)
        tr, va = ds.subset(slice(0, n_tr)), ds.subset(slice(n_tr, n_tr + n_va))
        te = ds.subset(slice(n_tr + n_va, total))
        cfg = self.base.replace(seed=_round_seed(self.seed, k))
        ens_cfg = ensemble.EnsembleConfig(
            p=self.members, seeds=tuple(cfg.seed * 100 + j for j in range(self.members)))
        with clock.part("train"):
            net = nn.train(cfg, tr, va)
        with clock.part("train_blackbox"):
            bb = nn.train_blackbox(cfg, tr, va)
        with clock.part("train_ensemble"):
            nets = ensemble.train_ensemble(cfg, ens_cfg, tr, va)
        estimators = {
            "wls": lambda m: ue_wls.wls_solve(m, rrhs, self.q, iters=sc.wls_iters).x,
            "nn_wls": lambda m: nn.nn_wls_estimate(net, m, rrhs, eps),
            "nn_ls": lambda m: nn.nn_ls_estimate(net, m, rrhs),
            "blackbox": lambda m: nn.blackbox_estimate(bb, m),
            "enn_a": lambda m: ensemble.enn_a_wls(nets, m, rrhs, eps, ens_cfg.r_a),
            "enn_b": lambda m: ensemble.enn_b_wls(nets, m, rrhs),
            "enn_m": lambda m: ensemble.enn_m_wls(nets, m, rrhs, eps),
        }
        estimates = {}
        failed = 0
        with warnings.catch_warnings():
            # enn_b_wls warns on every call when its ridge engages.
            warnings.simplefilter("ignore", RuntimeWarning)
            for label, fn in estimators.items():
                estimates[label], f = self._estimate(label, fn, te, clock)
                failed += f
        self.results.append({"dataset": ds, "test": te, "nets": nets, "est": estimates})
        attempted = 1 + 2 + self.members + len(estimators) * len(te)
        return attempted, failed

    def check(self) -> list:
        problems = []
        cfg = self.sc.noise
        fluct_sd = cfg.ratio * _sigmas(self.sc.n_a, cfg)
        for r, res in enumerate(self.results):
            ds, te, est = res["dataset"], res["test"], res["est"]
            recorded = np.asarray(ds.metadata["dominant_bias"])
            offset = np.mean(ds.m - np.array([ue_measurement(x, self.rrhs) for x in ds.x]), axis=0)
            z = np.abs(offset - recorded) / (fluct_sd / math.sqrt(len(ds)))
            if z.max() > 5.0 or not np.array_equal(recorded, self.bias):
                problems.append(f"round {r}: dataset offset departs from the recorded "
                                f"dominant bias by {z.max():.1f} standard errors")
            for label, e in est.items():
                if np.isinf(e).any():
                    problems.append(f"round {r}: {label} produced infinite estimates")
            mae = {label: (_mae(e, te.x, POS), _mae(e, te.x, VEL)) for label, e in est.items()}
            for part, name in ((0, "position"), (1, "velocity")):
                if mae["nn_wls"][part] > 0.5 * mae["wls"][part]:
                    problems.append(f"round {r}: NN-WLS {name} MAE {mae['nn_wls'][part]:.3f} "
                                    f"> 0.5 x WLS {mae['wls'][part]:.3f}")
            if mae["nn_wls"][0] >= mae["blackbox"][0]:
                problems.append(f"round {r}: NN-WLS position MAE {mae['nn_wls'][0]:.3f} not "
                                f"below black box {mae['blackbox'][0]:.3f}")
            members = np.array([[nn.nn_wls_estimate(net, m, self.rrhs, self.EPS)
                                 for m in te.m] for net in res["nets"]])
            for part, cols in ((0, POS), (1, VEL)):
                member_mae = np.mean([_mae(s, te.x, cols) for s in members])
                if mae["enn_m"][part] > member_mae + 1e-9:
                    problems.append(f"round {r}: ENN-M MAE {mae['enn_m'][part]:.4f} exceeds "
                                    f"the mean member MAE {member_mae:.4f}")
            diff = np.abs(members[:, :, POS] - est["enn_a"][None, :, POS]).max(axis=2)
            unmatched = int(np.sum(diff.min(axis=0) > 1e-9))
            if unmatched:
                problems.append(f"round {r}: {unmatched} ENN-A positions match no member")
        return problems

    def throughputs(self, clock) -> dict:
        n_tr, _, n_te = self.split
        sec = {key: sum(v) for key, v in clock.raw.items()}
        rounds = len(clock.raw["dataset"])
        runs = rounds * (2 + self.members)
        return {
            "dataset_samples_per_s": (rounds * sum(self.split) / sec["dataset"], "samples/s"),
            "train_sample_epochs_per_s": (runs * n_tr * self.base.epochs
                                          / sum(sec[k] for k in self.TRAINING),
                                          "sample-epochs/s"),
            "nn_estimates_per_s": (rounds * n_te * len(self.SINGLE)
                                   / sum(sec[k] for k in self.SINGLE), "estimates/s"),
            "ensemble_estimates_per_s": (rounds * n_te * len(self.ENSEMBLE)
                                         / sum(sec[k] for k in self.ENSEMBLE), "estimates/s"),
        }

    def fingerprint(self) -> dict:
        out = {}
        for key, label in (("nn.nn_wls_mae_position_m", "nn_wls"),
                           ("ensemble.enn_b_mae_position_m", "enn_b")):
            out[key] = float(np.mean([_mae(res["est"][label], res["test"].x, POS)
                                      for res in self.results]))
        return out


WORKLOADS = {w.name: w for w in (MonteCarlo, LosSelection, Learning)}
