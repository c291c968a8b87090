"""The three benchmark workloads: inputs from a seed, set-up, one job, checks.

Each workload turns the benchmark seed into plain configs and arrays
(``__init__``), constructs pnmkit's datasets and models (``setup``), lists
the pnmkit calls of one job (``calls``, the timed part) and turns their
return values into per-operation results (``extract``). ``check`` applies
the tolerance and invariance checks that hold on every seed. An operation
is one seed run, one simulator call or one CLI invocation.

pnmkit is reached only through module attributes (``harness.run``, not a
name imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from typing import Callable

import numpy as np

from pnmkit import cli, convergence, harness, noise, pacbayes, posterior, problems
from pnmkit.core import RngStream


class Failed(str):
    """An operation that raised; the text is the exception."""


def _seeds(seed: int, key: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, key])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _rate_in(value, lo, hi) -> bool:
    return _finite(value) and lo <= value <= hi


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Construct pnmkit's datasets and models for this seed."""

    def prepare(self) -> None:
        """Untimed work after set-up that the checks need."""

    def calls(self, rep: int) -> list[tuple[str, Callable[[], object]]]:
        """The named pnmkit calls of job ``rep``, run and timed in order."""
        raise NotImplementedError

    def op_names(self) -> list[str]:
        raise NotImplementedError

    def extract(self, raw: dict) -> dict:
        """Per-operation results from the calls' return values (or Failed)."""
        raise NotImplementedError

    def check(self, results: dict) -> dict[str, list[str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# mlp_label_noise
# ---------------------------------------------------------------------------

MLP_STEPS = 1000
MLP_SEEDS = 2
MLP_PNM = {"name": "pnm", "lr": 2.0, "beta0": 16.0, "beta1": 0.9,
           "weight_decay": {"mode": "decoupled", "lam": 1e-5}}
MLP_HB = {"name": "hb", "lr": 0.2, "beta1": 0.9, "beta3": 1.0,
          "weight_decay": {"mode": "l2", "lam": 1e-5}}


def _check_seed_row(row: dict) -> list[str]:
    problems_ = []
    if not (_finite(row.get("final_loss")) and row["final_loss"] > 0.0):
        problems_.append(f"final_loss {row.get('final_loss')!r} not finite and positive")
    if not (_finite(row.get("min_grad_norm_sq")) and row["min_grad_norm_sq"] >= 0.0):
        problems_.append(f"min_grad_norm_sq {row.get('min_grad_norm_sq')!r} invalid")
    for key in ("final_test_error", "best_test_error",
                "final_corrupted_train_error", "final_clean_train_error"):
        if not _rate_in(row.get(key), 0.0, 1.0):
            problems_.append(f"{key} {row.get(key)!r} not in [0, 1]")
    if not problems_ and row["best_test_error"] > row["final_test_error"]:
        problems_.append("best_test_error exceeds final_test_error")
    return problems_


class MlpLabelNoise(Workload):
    """Criterion-10 shape at a reduced step count, serial (threads=1).

    The job is kept under a second so that one run holds enough jobs for a
    steady median.
    """

    name = "mlp_label_noise"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.seeds = _seeds(seed, 10, MLP_SEEDS)
        self.config = {
            "problem": {"name": "two_moons_mlp", "n": 2000, "noise": 0.2, "hidden": 256,
                        "test_fraction": 0.9,
                        "label_noise": {"kind": "symmetric", "rate": 0.4}},
            "optimizer": MLP_HB,
            "batch_size": 64,
            "seeds": self.seeds,
            "steps": MLP_STEPS,
            "eval_every": MLP_STEPS,
            "lr_decay": {"milestones": [MLP_STEPS // 2, 3 * MLP_STEPS // 4], "factor": 0.1},
        }

    def setup(self):
        self.tasks = [harness.build_classification_task(self.config["problem"], s)
                      for s in self.seeds]

    def calls(self, rep):
        return [("label_noise_experiment",
                 lambda: harness.label_noise_experiment(self.config, MLP_PNM, MLP_HB, None, 1))]

    def extract(self, raw):
        report = raw["label_noise_experiment"]
        if isinstance(report, Failed):
            return {op: report for op in self.op_names()}
        return {f"{arm}.seed{row['seed']}": row
                for arm in ("a", "b") for row in report["per_seed"][arm]}

    def op_names(self):
        return [f"{arm}.seed{s}" for arm in ("a", "b") for s in self.seeds]

    def check(self, results):
        # At 2,000 steps under 40% label noise the test error of a single seed
        # ranges up to chance, so only the invariants are checked here.
        return {op: _check_seed_row(row) for op, row in results.items()}


# ---------------------------------------------------------------------------
# analysis_claims
# ---------------------------------------------------------------------------

AMP_STEPS = 400_000
AMP_BETA0 = (0.5, 1.0, 2.0)
STAT_ETA = 0.01
STAT_BURN_IN = 2_000
STAT_CHAINS = 64
STAT_SAMPLES = STAT_CHAINS * 8_000
SPECTRAL_ETA = 0.005
SPECTRAL_SAMPLES = 200_000
SPECTRAL_THIN = 200
# Relative tolerances on the stationary variance: at least 5 standard
# deviations of the seed-to-seed spread at this budget (pnm_momentum mixes
# slowest, so its estimate spreads most).
STAT_TOLERANCE = {"stationary.sgd": 0.1, "stationary.pnm": 0.1,
                  "stationary.pnm_momentum": 0.2}
CONV_HORIZONS = (100, 1000, 10000)
CONV_SEEDS = 4
COV_SAMPLES = 2_000
COV_BATCHES = (20, 40)
PACBAYES_ROWS = 4_000
README_PACBAYES = {"eta": 0.001, "batch_size": 128, "dataset_size": 50000, "lam": 1e-4,
                   "dim": 100, "delta": 0.05, "theta_norm_sq": 25.0}


def criterion6_hessian() -> np.ndarray:
    """The 5-D Hessian of acceptance criterion 6."""
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    H = Q @ np.diag([1.0, 1.3, 1.55, 1.8, 2.0]) @ Q.T
    return 0.5 * (H + H.T)


def _array_digest(values) -> str:
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


class AnalysisClaims(Workload):
    """Criteria 4, 5, 6, 8 and 9 at reduced budgets, plus a PAC-Bayes table."""

    name = "analysis_claims"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        keys = iter(_seeds(seed, 20, 32))
        self.amp_seeds = [next(keys) for _ in AMP_BETA0]
        self.stat_seeds = {kind: next(keys) for kind in ("sgd", "pnm", "pnm_momentum")}
        self.spectral_seed = next(keys)
        self.conv_seeds = [next(keys) for _ in range(CONV_SEEDS)]
        self.cov_seeds = {b: next(keys) for b in COV_BATCHES}
        data = np.random.default_rng([seed, 21])
        X = data.standard_normal((2000, 8)) * np.geomspace(0.4, 3.0, 8)
        w = data.standard_normal(8)
        self.cov_X = X
        self.cov_y = X @ w + data.standard_normal(2000)
        self.gammas = np.geomspace(1.0, 25.6, PACBAYES_ROWS).tolist()

    def setup(self):
        self.quad_1d = problems.QuadraticModel([0.0], [[1.0]])
        self.H5 = criterion6_hessian()
        self.quad_5d = problems.QuadraticModel(np.zeros(5), self.H5)
        self.conv_oracle = problems.AdditiveNoiseOracle(
            problems.QuadraticModel([0.0, 0.0], np.diag([1.0, 4.0])), 1.0)
        self.cov_problem = problems.LinearRegressionProblem(
            problems.FiniteDataset(self.cov_X, self.cov_y))
        X, y = self.cov_X, self.cov_y
        self.cov_theta = np.linalg.solve(X.T @ X, X.T @ y)
        self.pac_setting = pacbayes.PacBayesSetting(**README_PACBAYES)

    def calls(self, rep):
        return list(self._calls())

    def _calls(self):
        for b0, s in zip(AMP_BETA0, self.amp_seeds):
            yield f"amplification.beta0_{b0:g}", lambda b0=b0, s=s: noise.pair_amplification_ratio(
                0.9, b0, AMP_STEPS, RngStream(s))
        for kind, s in self.stat_seeds.items():
            yield f"stationary.{kind}", lambda kind=kind, s=s: posterior.simulate_stationary(
                self.quad_1d, 1.0, kind, STAT_ETA, burn_in=STAT_BURN_IN, samples=STAT_SAMPLES,
                rng=RngStream(s), chains=STAT_CHAINS, beta0=1.0, beta1=0.9)
        yield "spectral", lambda: posterior.simulate_sgd_spectral(
            self.quad_5d, 1.0, SPECTRAL_ETA, burn_in=2_000, samples=SPECTRAL_SAMPLES,
            rng=RngStream(self.spectral_seed), thin=SPECTRAL_THIN)
        yield "convergence", lambda: convergence.empirical_rate(
            self.conv_oracle, np.array([3.0, -2.0]), list(CONV_HORIZONS), self.conv_seeds,
            smoothness=4.0, step_constant=1.0, beta0=1.0, beta1=0.9)
        for b, s in self.cov_seeds.items():
            yield f"covariance.batch{b}", lambda b=b, s=s: noise.estimate_gradient_noise_covariance(
                self.cov_problem, self.cov_theta, b, COV_SAMPLES, RngStream(s))
        yield "pacbayes", lambda: pacbayes.bound_table(self.pac_setting, self.gammas)

    def op_names(self):
        return [name for name, _ in self._calls()]

    def extract(self, raw):
        res = {}
        for name, value in raw.items():
            if isinstance(value, Failed):
                res[name] = value
            elif name.startswith("amplification"):
                res[name] = {"ratio": value[0], "se": value[1]}
            elif name.startswith("stationary"):
                res[name] = {"variance": value.variance, "mean": float(value.mean[0]),
                             "retained": value.retained}
            elif name == "spectral":
                res[name] = {"covariance": value.covariance.ravel().tolist(),
                             "retained": value.retained}
            elif name == "convergence":
                res[name] = {"slope": value.slope, "mins": value.mean_min_grad_sq.tolist(),
                             "grad_bound": value.measured_grad_bound}
            elif name.startswith("covariance"):
                res[name] = {"diag": np.diag(value.matrix).tolist(), "trace": value.trace}
            else:  # pacbayes
                table = [[r["gamma"], r["kl"], r["kl_grad"], r["bound"]] for r in value]
                res[name] = {"rows": len(table), "sha256": _array_digest(table),
                             "bounds": [table[0][3], table[-1][3]],
                             "finite": bool(np.all(np.isfinite(table))),
                             "monotone": bool(np.all(np.diff([r[3] for r in table]) < 0)),
                             "min_kl": min(r[1] for r in table)}
        return res

    def check(self, results):
        out = {name: [] for name in results}

        def need(name, ok, text):
            if not ok:
                out[name].append(text)

        ou = posterior.discrete_ou_variance(1.0, STAT_ETA, 1.0)
        closed_forms = {
            "stationary.sgd": ou,
            "stationary.pnm": noise.amplification_factor(1.0) * ou,
            "stationary.pnm_momentum":
                posterior.pnm_momentum_stationary_variance_exact(1.0, STAT_ETA, 1.0, 0.9),
        }
        h_diag = np.diag(self.cov_problem.hessian())
        for name, r in results.items():
            kind = name.split(".")[0]
            if kind == "amplification":
                predicted = noise.amplification_factor(float(name.split("_")[-1]))
                need(name, _finite(r["ratio"]) and abs(r["ratio"] / predicted - 1.0) < 0.03,
                     f"ratio {r['ratio']} not within 3% of (1+b0)^2+b0^2 = {predicted}")
            elif kind == "stationary":
                v, value = r["variance"], closed_forms[name]
                tol = STAT_TOLERANCE[name]
                need(name, _finite(v) and abs(v / value - 1.0) < tol,
                     f"variance {v} not within {tol:.0%} of the closed form {value}")
            elif kind == "spectral":
                cov = np.array(r["covariance"]).reshape(5, 5)
                exact = posterior.sgd_discrete_stationary_covariance(
                    self.H5, SPECTRAL_ETA, np.eye(5))
                rel = float(np.linalg.norm(cov - exact) / np.linalg.norm(exact))
                resid = posterior.lyapunov_residual(cov, self.H5, SPECTRAL_ETA * np.eye(5))
                need(name, rel < 0.03 and resid < 0.1,
                     f"covariance off the discrete closed form by {rel:.4f} (< 0.03), "
                     f"Lyapunov residual {resid:.4f} (< 0.1)")
            elif kind == "convergence":
                # With 4 seeds the minimum of the seed-averaged curve is deflated
                # at long horizons (an order-statistic effect), so the slope sits
                # near -0.74 with sd 0.13 rather than at -1/2: the window keeps
                # the claim side at -0.3 and widens the other side to -1.3.
                need(name, _finite(r["slope"]) and -1.3 <= r["slope"] <= -0.3,
                     f"slope {r['slope']} not in [-1.3, -0.3]")
                inputs = convergence.ConvergenceBoundInputs(
                    smoothness=4.0, grad_bound=r["grad_bound"], sigma2=1.0, step_constant=1.0,
                    loss_gap=self.conv_oracle.full_gradient(np.array([3.0, -2.0]))[0],
                    beta1=0.9, beta0=1.0)
                bounds = [convergence.theorem1_bound(inputs, T - 1) for T in CONV_HORIZONS]
                need(name, all(m <= b for m, b in zip(r["mins"], bounds)),
                     f"empirical {r['mins']} exceeds the bound {bounds}")
            elif kind == "covariance":
                batch = int(name.removeprefix("covariance.batch"))
                pearson = float(np.corrcoef(r["diag"], h_diag / batch)[0, 1])
                need(name, pearson > 0.9, f"diag(C) vs diag(H)/B Pearson {pearson:.3f} (> 0.9)")
            else:
                # README setting: critical ratio < 1, so the bound falls on (1, 2 B lam / eta].
                need(name, r["rows"] == PACBAYES_ROWS and r["finite"] and r["monotone"]
                     and r["min_kl"] >= 0.0, f"bound table invalid: {r}")
        if "covariance.batch20" in results and "covariance.batch40" in results:
            ratio = results["covariance.batch20"]["trace"] / results["covariance.batch40"]["trace"]
            need("covariance.batch20", abs(ratio - 2.0) < 0.3,
                 f"trace ratio on halved batch {ratio:.3f} not within 0.3 of 2")
        return out


# ---------------------------------------------------------------------------
# cli_eval_parallel
# ---------------------------------------------------------------------------

CLI_SEEDS = 4
CLI_STEPS = 600
CLI_EVAL_EVERY = 5
CLI_THREADS = 2


class CliEvalParallel(Workload):
    """``pnmkit run`` in-process on two threads, evaluation-bound."""

    name = "cli_eval_parallel"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.seeds = _seeds(seed, 30, CLI_SEEDS)
        self.config = {
            "problem": {"name": "two_moons_mlp", "n": 4000, "noise": 0.2, "hidden": 32,
                        "test_fraction": 0.5},
            "optimizer": {"name": "pnm", "lr": 0.5, "beta0": 1.0, "beta1": 0.9},
            "steps": CLI_STEPS,
            "batch_size": 64,
            "eval_every": CLI_EVAL_EVERY,
            "seeds": self.seeds,
        }
        self.config_path = work_dir / "cli_config.json"

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config))
        self.tasks = [harness.build_classification_task(self.config["problem"], s)
                      for s in self.seeds]

    def prepare(self):
        summary = harness.run(self.config, None, threads=1)
        self.serial_results = {f"seed{r['seed']}": r for r in summary["results"]}

    def op_names(self):
        return ["run"]

    def calls(self, rep):
        return [("cli.main", lambda: self._invoke(rep))]

    def _invoke(self, rep):
        out = self.work_dir / f"cli_out_{rep}"
        argv = ["run", "--config", str(self.config_path), "--threads", str(CLI_THREADS),
                "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, out, stdout.getvalue(), stderr.getvalue()

    def extract(self, raw):
        if isinstance(raw["cli.main"], Failed):
            return {"run": raw["cli.main"]}
        code, out, stdout, stderr = raw["cli.main"]
        try:
            if code != 0:
                return {"run": Failed(f"exit {code}: {stderr.strip()}")}
            summaries = sorted(out.glob("summary_*.json"))
            if len(summaries) != 1:
                return {"run": Failed(f"expected one summary file, found {len(summaries)}")}
            summary = json.loads(summaries[0].read_text())
            rows = {}
            for path in sorted(out.glob("trajectory_*_seed*.csv")):
                lines = path.read_text().splitlines()
                seed = path.stem.rsplit("_seed", 1)[1]
                rows[f"seed{seed}"] = len(lines) - 2  # provenance comment + header
            return {"run": {
                "results": {f"seed{r['seed']}": r for r in summary["results"]},
                "csv_rows": rows,
                "stdout_ok": stdout.startswith(f"config {summary['config_digest']}:"),
            }}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check(self, results):
        r = results["run"]
        problems_ = []
        expected_rows = 1 + CLI_STEPS // CLI_EVAL_EVERY + (CLI_STEPS % CLI_EVAL_EVERY != 0)
        want = {f"seed{s}" for s in self.seeds}
        if set(r["results"]) != want:
            problems_.append(f"seeds {sorted(r['results'])} != {sorted(want)}")
        if r["csv_rows"] != {k: expected_rows for k in want}:
            problems_.append(f"trajectory rows {r['csv_rows']} != {expected_rows} per seed")
        if not r["stdout_ok"]:
            problems_.append("stdout does not start with the config digest line")
        for key, row in r["results"].items():
            problems_ += [f"{key}: {p}" for p in _check_seed_row(row)]
            if row != self.serial_results.get(key):
                problems_.append(f"{key}: --threads {CLI_THREADS} result differs from threads=1")
            elif row["final_test_error"] >= 0.25:
                problems_.append(f"{key}: final_test_error {row['final_test_error']} >= 0.25")
        return {"run": problems_}


WORKLOADS = {w.name: w for w in (MlpLabelNoise, AnalysisClaims, CliEvalParallel)}
