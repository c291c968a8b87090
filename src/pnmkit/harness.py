"""Experiment configuration, seed orchestration, and persistence.

Configs are JSON dicts with strict unknown-key rejection (a typo in a
hyperparameter name is an error, never a silent default). Every output
embeds the config digest, the seed, and the PRNG identifier; re-running a
config produces byte-identical summaries. Trajectory CSVs use the fixed
column order ``step,loss,grad_norm_sq[,test_error]``.

Comparative experiments (label-noise robustness, the beta0 sweep, the
lr x weight-decay grid) report seed-majority directional outcomes rather
than point values: at desk scale only the direction of the effect is
reproducible, so each comparison counts per-seed wins on paired runs that
share data, initialization, and minibatch sequence.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    RNG_ALGORITHM,
    DivergenceError,
    NonFiniteError,
    RngStream,
    Trajectory,
    config_digest,
)
from .optim import Optimizer, WeightDecay, make_optimizer
from .problems import (
    AdditiveNoiseOracle,
    FiniteDataset,
    LabelNoiseSpec,
    LinearRegressionProblem,
    QuadraticModel,
    RosenbrockProblem,
    TinyMlpProblem,
    apply_label_noise,
    load_csv_dataset,
    make_two_moons,
)


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def check_config_keys(d: dict, allowed: set[str], context: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {sorted(unknown)}")


def _weight_decay_from(cfg: Optional[dict]) -> WeightDecay:
    if cfg is None:
        return WeightDecay()
    check_config_keys(cfg, {"mode", "lam"}, "weight_decay")
    try:
        return WeightDecay(cfg.get("mode", "none"), float(cfg.get("lam", 0.0)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_OPTIMIZER_KEYS = {
    "name", "lr", "beta0", "beta1", "beta2", "beta3", "eps", "amsgrad",
    "weight_decay",
}


def build_optimizer(cfg: dict, dim: int) -> Optimizer:
    check_config_keys(cfg, _OPTIMIZER_KEYS, "optimizer")
    if "name" not in cfg or "lr" not in cfg:
        raise ConfigError("optimizer config needs 'name' and 'lr'")
    kwargs = {k: v for k, v in cfg.items() if k not in ("name", "weight_decay")}
    kwargs["weight_decay"] = _weight_decay_from(cfg.get("weight_decay"))
    try:
        return make_optimizer(cfg["name"], dim=dim, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimizer config: {exc}") from exc


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------

@dataclass
class ClassificationTask:
    """A train/test split with the clean-label bookkeeping the label-noise
    protocol needs: corruption applies to training labels only."""

    problem: TinyMlpProblem
    train: FiniteDataset
    test: FiniteDataset
    clean_train: FiniteDataset
    corrupted_mask: np.ndarray
    theta0: np.ndarray

    def train_errors(self, theta) -> tuple[float, float]:
        """Error on the (possibly corrupted) training labels, and on the
        training samples whose label was left intact."""
        corrupted = self.problem.error_rate(theta, self.train)
        clean_idx = np.flatnonzero(~self.corrupted_mask)
        if not clean_idx.size:
            return corrupted, corrupted
        return corrupted, self.problem.error_rate(theta, self.clean_train.subset(clean_idx))


def _split(dataset: FiniteDataset, test_fraction: float, rng: RngStream):
    n = dataset.n_samples
    n_test = int(round(test_fraction * n))
    if not 0 < n_test < n:
        raise ConfigError("test_fraction must leave both splits nonempty")
    perm = rng.permutation(n)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])


def build_classification_task(cfg: dict, seed: int) -> ClassificationTask:
    """Materialize a dataset + MLP task for one seed.

    Stream layout: spawn(0) generates the data, spawn(1) corrupts labels,
    spawn(2) initializes weights, spawn(4) draws the train/test split.
    The training loop owns spawn(3); distinct keys keep every source of
    randomness independent.
    """
    check_config_keys(cfg, {
        "name", "n", "noise", "hidden", "test_fraction", "label_noise",
        "init_scale", "csv_path",
    }, "problem")
    root = RngStream(seed)
    name = cfg["name"]
    if name == "two_moons_mlp":
        data = make_two_moons(int(cfg.get("n", 2000)), float(cfg.get("noise", 0.2)),
                              root.spawn(0))
    elif name == "csv_mlp":
        if "csv_path" not in cfg:
            raise ConfigError("csv_mlp needs 'csv_path'")
        data = load_csv_dataset(cfg["csv_path"], classification=True)
        data = data.subset(root.spawn(0).permutation(data.n_samples))
    else:
        raise ConfigError(f"not a classification problem: {name!r}")
    train, test = _split(data, float(cfg.get("test_fraction", 0.5)), root.spawn(4))
    clean_train = train
    mask = np.zeros(train.n_samples, dtype=bool)
    ln = cfg.get("label_noise")
    if ln is not None:
        check_config_keys(ln, {"kind", "rate"}, "label_noise")
        spec = LabelNoiseSpec(ln.get("kind", "symmetric"), float(ln.get("rate", 0.0)))
        train, mask = apply_label_noise(train, spec, root.spawn(1))
    problem = TinyMlpProblem(train, hidden=int(cfg.get("hidden", 16)))
    theta0 = problem.init_params(root.spawn(2), scale=float(cfg.get("init_scale", 0.5)))
    return ClassificationTask(problem, train, test, clean_train, mask, theta0)


def build_analytic_oracle(cfg: dict, seed: int):
    """Quadratic / Rosenbrock oracles with optional additive noise."""
    check_config_keys(cfg, {
        "name", "dim", "eigenvalues", "theta_star", "f0", "noise_sigma2", "theta0",
    }, "problem")
    name = cfg["name"]
    if name == "quadratic":
        eigs = cfg.get("eigenvalues")
        dim = int(cfg.get("dim", len(eigs) if eigs else 2))
        eigs = np.asarray(eigs if eigs is not None else np.ones(dim), dtype=np.float64)
        theta_star = np.asarray(cfg.get("theta_star", np.zeros(dim)), dtype=np.float64)
        base = QuadraticModel(theta_star, np.diag(eigs), float(cfg.get("f0", 0.0)))
        theta0 = np.asarray(cfg.get("theta0", np.ones(dim)), dtype=np.float64)
    elif name == "rosenbrock":
        base = RosenbrockProblem()
        theta0 = np.asarray(cfg.get("theta0", [-1.2, 1.0]), dtype=np.float64)
    elif name == "linear_regression":
        root = RngStream(seed).spawn(0)
        dim = int(cfg.get("dim", 5))
        n = int(cfg.get("n", 200))
        X = root.standard_normal((n, dim))
        w = root.standard_normal(dim)
        y = X @ w + 0.1 * root.standard_normal(n)
        base = LinearRegressionProblem(FiniteDataset(X, y))
        theta0 = np.asarray(cfg.get("theta0", np.zeros(dim)), dtype=np.float64)
    else:
        raise ConfigError(f"unknown problem {name!r}")
    sigma2 = float(cfg.get("noise_sigma2", 0.0))
    oracle = AdditiveNoiseOracle(base, sigma2) if sigma2 > 0 else base
    return oracle, theta0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Per-seed outcome. ``wall_clock`` is informational and excluded from
    the summary files so reruns stay byte-identical."""

    config_digest: str
    seed: int
    final_loss: float
    min_grad_norm_sq: float
    final_test_error: Optional[float] = None
    best_test_error: Optional[float] = None
    final_corrupted_train_error: Optional[float] = None
    final_clean_train_error: Optional[float] = None
    prng: str = RNG_ALGORITHM
    wall_clock: float = 0.0
    trajectory: Optional[Trajectory] = None

    def summary_fields(self) -> dict:
        out = {
            "seed": self.seed,
            "final_loss": self.final_loss,
            "min_grad_norm_sq": self.min_grad_norm_sq,
        }
        for key in ("final_test_error", "best_test_error",
                    "final_corrupted_train_error", "final_clean_train_error"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


_RUN_KEYS = {
    "problem", "optimizer", "steps", "batch_size", "seeds", "eval_every",
    "snapshots", "lr_decay",
}

#: Parameters beyond this magnitude (or non-finite) end a run as diverged.
_DIVERGENCE_BOUND = 1e10


def _int_value(value, key: str, minimum: int) -> int:
    """``value`` if it is an integer (JSON bools excluded) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"'{key}' must be an integer >= {minimum}, got {value!r}")
    return value


def _decay_schedule(cfg: dict) -> tuple[set[int], float]:
    """Piecewise-constant decay: multiply lr by ``factor`` at each milestone."""
    decay = cfg.get("lr_decay")
    if decay is None:
        return set(), 1.0
    if not isinstance(decay, dict):
        raise ConfigError("'lr_decay' must be an object")
    check_config_keys(decay, {"milestones", "factor"}, "lr_decay")
    milestones = decay.get("milestones", [])
    if not isinstance(milestones, list):
        raise ConfigError(f"'lr_decay.milestones' must be a list, got {milestones!r}")
    factor = decay.get("factor", 0.1)
    if isinstance(factor, bool) or not isinstance(factor, (int, float)) or not factor > 0:
        raise ConfigError(f"'lr_decay.factor' must be a number > 0, got {factor!r}")
    return {_int_value(m, "lr_decay.milestones", 1) for m in milestones}, float(factor)


_CLASSIFICATION_PROBLEMS = ("two_moons_mlp", "csv_mlp")


def validate_run_config(cfg: dict) -> None:
    check_config_keys(cfg, _RUN_KEYS, "config")
    for key in ("problem", "optimizer", "steps", "seeds"):
        if key not in cfg:
            raise ConfigError(f"config needs '{key}'")
    if not isinstance(cfg["seeds"], list) or not cfg["seeds"]:
        raise ConfigError("'seeds' must be a nonempty list of integers")
    for seed in cfg["seeds"]:
        _int_value(seed, "seeds", 0)
    _int_value(cfg["steps"], "steps", 1)
    for key in ("batch_size", "eval_every"):
        if key in cfg:
            _int_value(cfg[key], key, 1)
    _decay_schedule(cfg)
    if "name" not in cfg["problem"]:
        raise ConfigError("problem config needs 'name'")


def run_seed(cfg: dict, seed: int, digest: str, snapshots: bool = False) -> RunResult:
    """Train one seed of a validated run config.

    The per-problem parts (gradient sampler, test-error evaluation,
    defaults, final train errors) are chosen up front; one loop then steps
    every problem the same way. Parameters that turn non-finite or exceed
    1e10 in magnitude raise :class:`DivergenceError` naming the step.
    """
    t0 = time.perf_counter()
    steps = cfg["steps"]
    if cfg["problem"]["name"] in _CLASSIFICATION_PROBLEMS:
        task = build_classification_task(cfg["problem"], seed)
        oracle, theta = task.problem, task.theta0
        batch_size = cfg.get("batch_size", min(128, oracle.dataset_size))

        def sample(theta, rng):
            return oracle.minibatch_gradient(theta, batch_size, rng)

        def test_error(theta):
            return oracle.error_rate(theta, task.test)

        train_errors = task.train_errors
        eval_every = cfg.get("eval_every", max(1, steps // 50))
    else:
        oracle, theta = build_analytic_oracle(cfg["problem"], seed)
        sample = oracle.stochastic_gradient
        test_error = train_errors = None
        eval_every = cfg.get("eval_every", max(1, steps // 100))
    opt = build_optimizer(cfg["optimizer"], theta.shape[0])
    rng = RngStream(seed).spawn(3)
    milestones, factor = _decay_schedule(cfg)
    traj = Trajectory(seed=seed, config_digest=digest, keep_snapshots=snapshots)

    def evaluate(step: int) -> None:
        loss, grad = oracle.full_gradient(theta)
        err = None if test_error is None else test_error(theta)
        traj.append(step, loss, float(grad @ grad), theta if snapshots else None,
                    test_error=err)

    evaluate(0)
    for step in range(1, steps + 1):
        if step in milestones:
            opt.lr *= factor
        theta = opt.step(theta, sample(theta, rng))
        if not np.max(np.abs(theta)) <= _DIVERGENCE_BOUND:
            raise DivergenceError(
                f"run diverged at step {step}: parameters non-finite or "
                f"beyond {_DIVERGENCE_BOUND:g} in magnitude"
            )
        if step % eval_every == 0 or step == steps:
            evaluate(step)

    final = traj.records[-1]
    result = RunResult(
        config_digest=digest,
        seed=seed,
        final_loss=final.loss,
        min_grad_norm_sq=float(np.min(traj.grad_norms_sq)),
        trajectory=traj,
    )
    if test_error is not None:
        # The step-0 evaluation is the initialization, not a trained model.
        result.final_test_error = final.test_error
        result.best_test_error = min(r.test_error for r in traj.records[1:])
        (result.final_corrupted_train_error,
         result.final_clean_train_error) = train_errors(theta)
    result.wall_clock = time.perf_counter() - t0
    return result


def aggregate(values) -> dict:
    """Mean and population standard deviation, the reporting convention
    for all multi-seed tables."""
    arr = np.asarray(list(values), dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def run(cfg: dict, out_dir: Optional[Path] = None, threads: int = 1,
        snapshots: bool = False) -> dict:
    """Execute one config over its seeds; returns (and writes) a summary.

    Seeds may run on a thread pool; results are ordered by position in
    the seed list before any output is written, so parallelism never
    changes a byte of output.
    """
    validate_run_config(cfg)
    digest = config_digest(cfg)
    seeds = cfg["seeds"]
    snapshots = snapshots or bool(cfg.get("snapshots", False))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda s: run_seed(cfg, s, digest, snapshots), seeds))
    else:
        results = [run_seed(cfg, s, digest, snapshots) for s in seeds]

    summary = {
        "config": cfg,
        "config_digest": digest,
        "prng": RNG_ALGORITHM,
        "results": [r.summary_fields() for r in results],
    }
    metrics = {}
    metrics["final_loss"] = aggregate(r.final_loss for r in results)
    if results[0].final_test_error is not None:
        metrics["final_test_error"] = aggregate(r.final_test_error for r in results)
        metrics["best_test_error"] = aggregate(r.best_test_error for r in results)
    summary["aggregate"] = metrics

    if out_dir is not None:
        out_dir = write_report(out_dir, digest, {f"summary_{digest}.json": summary})
        for r in results:
            write_trajectory_csv(out_dir / f"trajectory_{digest}_seed{r.seed}.csv", r)
    return summary


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_report(out_dir, digest: str, json_files: dict[str, dict],
                 csv_files: Optional[dict[str, list[str]]] = None) -> Path:
    """Create ``out_dir`` and write each named JSON payload and CSV table
    into it. A CSV is given as its header line followed by its rows and
    is written after a ``# config_digest=... prng=...`` provenance line.
    Returns the directory as a :class:`Path`.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in json_files.items():
        write_json(out_dir / name, payload)
    for name, lines in (csv_files or {}).items():
        provenance = f"# config_digest={digest} prng={RNG_ALGORITHM}"
        (out_dir / name).write_text("\n".join([provenance, *lines]) + "\n")
    return out_dir


def write_trajectory_csv(path: Path, result: RunResult) -> None:
    traj = result.trajectory
    has_test = any(rec.test_error is not None for rec in traj.records)
    lines = [f"# config_digest={result.config_digest} seed={result.seed} prng={result.prng}"]
    header = "step,loss,grad_norm_sq" + (",test_error" if has_test else "")
    lines.append(header)
    for rec in traj.records:
        row = f"{rec.step},{rec.loss!r},{rec.grad_norm_sq!r}"
        if has_test:
            err = rec.test_error if rec.test_error is not None else float("nan")
            row += f",{err!r}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Comparative experiments
# ---------------------------------------------------------------------------

def seed_majority_wins(errors_a, errors_b) -> dict:
    """Count per-seed pairwise wins of A over B (lower error wins)."""
    a = np.asarray(list(errors_a), dtype=np.float64)
    b = np.asarray(list(errors_b), dtype=np.float64)
    wins = int(np.sum(a < b))
    losses = int(np.sum(a > b))
    return {"wins": wins, "losses": losses, "ties": int(a.size - wins - losses),
            "majority": wins > losses}


def _with_optimizer(cfg: dict, opt_cfg: dict) -> dict:
    new = dict(cfg)
    new["optimizer"] = opt_cfg
    return new


def label_noise_experiment(cfg: dict, optimizer_a: dict, optimizer_b: dict,
                           out_dir: Optional[Path] = None, threads: int = 1) -> dict:
    """Paired comparison of two optimizers on a label-corrupted task.

    Both optimizers see identical data, corruption, initialization, and
    minibatch sequences within each seed. Reports final clean-test error,
    corrupted-train error, and clean-subset train error per seed, plus the
    seed-majority outcome for A beating B on clean test error.
    """
    cfg_a = _with_optimizer(cfg, optimizer_a)
    cfg_b = _with_optimizer(cfg, optimizer_b)
    summary_a = run(cfg_a, None, threads)
    summary_b = run(cfg_b, None, threads)
    errs_a = [r["final_test_error"] for r in summary_a["results"]]
    errs_b = [r["final_test_error"] for r in summary_b["results"]]
    rate = (cfg["problem"].get("label_noise") or {}).get("rate", 0.0)
    report = {
        "label_noise_rate": rate,
        "no_corruption": rate == 0.0,
        "optimizer_a": optimizer_a,
        "optimizer_b": optimizer_b,
        "per_seed": {
            "a": summary_a["results"],
            "b": summary_b["results"],
        },
        "aggregate": {
            "a": summary_a["aggregate"],
            "b": summary_b["aggregate"],
        },
        "test_error_comparison": seed_majority_wins(errs_a, errs_b),
        "config_digest": config_digest(cfg),
        "prng": RNG_ALGORITHM,
    }
    if out_dir is not None:
        write_report(out_dir, report["config_digest"], {"label_noise_report.json": report})
    return report


def beta0_sweep(cfg: dict, beta0_grid, out_dir: Optional[Path] = None,
                threads: int = 1) -> dict:
    """Run the PNM config across a grid of beta0 values.

    The table carries mean/std test error per beta0; the flags record
    whether some beta0 > 0 beats every beta0 <= 0 by seed majority on the
    paired per-seed errors.
    """
    beta0_grid = [float(b) for b in beta0_grid]
    if not beta0_grid:
        raise ConfigError("beta0 grid must be nonempty")
    if cfg["optimizer"].get("name", "").lower() not in ("pnm", "adapnm"):
        raise ConfigError("beta0 sweep requires a pnm or adapnm optimizer")
    rows = []
    per_seed = {}
    for b0 in beta0_grid:
        opt_cfg = dict(cfg["optimizer"])
        opt_cfg["beta0"] = b0
        summary = run(_with_optimizer(cfg, opt_cfg), None, threads)
        errors = [r["final_test_error"] for r in summary["results"]]
        per_seed[b0] = errors
        rows.append({"beta0": b0, **aggregate(errors)})

    positive = [b for b in beta0_grid if b > 0]
    nonpositive = [b for b in beta0_grid if b <= 0]
    dominating = []
    for bp in positive:
        if all(seed_majority_wins(per_seed[bp], per_seed[bn])["majority"]
               for bn in nonpositive):
            dominating.append(bp)
    report = {
        "table": rows,
        "per_seed_errors": {str(k): v for k, v in per_seed.items()},
        "positive_beta0_dominates": bool(dominating) if nonpositive else False,
        "dominating_beta0": dominating,
        "config_digest": config_digest(cfg),
        "prng": RNG_ALGORITHM,
    }
    if out_dir is not None:
        table = ["beta0,mean_test_error,std_test_error"]
        table += [f"{row['beta0']!r},{row['mean']!r},{row['std']!r}" for row in rows]
        write_report(out_dir, report["config_digest"], {"beta0_sweep.json": report},
                     {"beta0_sweep.csv": table})
    return report


def lr_wd_grid(cfg: dict, lrs, lams, out_dir: Optional[Path] = None,
               threads: int = 1) -> dict:
    """Full-factorial learning-rate x weight-decay sweep.

    Diverging cells are marked, not reported as numbers.
    """
    lrs = [float(x) for x in lrs]
    lams = [float(x) for x in lams]
    if not lrs or not lams:
        raise ConfigError("grids must be nonempty")
    matrix = []
    for lr in lrs:
        row = []
        for lam in lams:
            opt_cfg = dict(cfg["optimizer"])
            opt_cfg["lr"] = lr
            wd = dict(opt_cfg.get("weight_decay") or {"mode": "decoupled"})
            wd["lam"] = lam
            opt_cfg["weight_decay"] = wd
            try:
                summary = run(_with_optimizer(cfg, opt_cfg), None, threads)
                agg = summary["aggregate"]
                metric = agg.get("final_test_error", agg["final_loss"])
                row.append(metric["mean"])
            except (DivergenceError, NonFiniteError):
                row.append("diverged")
        matrix.append(row)
    report = {
        "lrs": lrs,
        "lams": lams,
        "mean_test_error": matrix,
        "config_digest": config_digest(cfg),
        "prng": RNG_ALGORITHM,
    }
    if out_dir is not None:
        table = ["lr\\lam," + ",".join(repr(l) for l in lams)]
        for lr, row in zip(lrs, matrix):
            table.append(repr(lr) + "," + ",".join(
                c if isinstance(c, str) else repr(c) for c in row))
        write_report(out_dir, report["config_digest"], {"lr_wd_grid.json": report},
                     {"lr_wd_grid.csv": table})
    return report
