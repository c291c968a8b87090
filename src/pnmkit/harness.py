"""Experiment configuration, seed orchestration, and persistence.

Configs are JSON dicts read by :func:`read_config`, one key table per
section: an unknown key or a value of the wrong type is an error naming
the key, never a silent default or coercion. Every output
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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    RNG_ALGORITHM,
    DivergenceError,
    NonFiniteError,
    RngStream,
    TrajectoryRecord,
    config_digest,
)
from .optim import Optimizer, WeightDecay, make_optimizer
from .problems import (
    AdditiveNoiseOracle,
    DatasetProblem,
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


# ---------------------------------------------------------------------------
# Config reader
# ---------------------------------------------------------------------------

#: The default of a key that must be given.
REQUIRED = object()


def _kind(types, what: str, accept=lambda value: True, convert=lambda value: value):
    """A kind ``check(value, name)``: ``value`` if it has JSON type ``types``
    (a bool is never a number) and passes ``accept``; else an error naming the key."""
    def check(value, name):
        if (not isinstance(value, types) or (isinstance(value, bool) and types is not bool)
                or not accept(value)):
            raise ConfigError(f"'{name}' must be {what}, got {value!r}")
        return convert(value)
    return check


number = _kind((int, float), "a number in the finite float range",
               lambda value: abs(value) <= sys.float_info.max, float)
non_negative = _kind((int, float), "a number >= 0 in the finite float range",
                     lambda value: 0 <= value <= sys.float_info.max, float)
string = _kind(str, "a string")
boolean = _kind(bool, "true or false")
section = _kind(dict, "an object")


def integer(minimum: int):
    """Kind: an integer >= ``minimum``; a float such as 100.0 is not one."""
    return _kind(int, f"an integer >= {minimum}", lambda value: value >= minimum)


def list_of(kind, min_length: int = 1):
    """Kind: a list of at least ``min_length`` values of ``kind``."""
    def check(value, name):
        if not isinstance(value, list) or len(value) < min_length:
            raise ConfigError(
                f"'{name}' must be a list of at least {min_length} value(s), got {value!r}")
        return [kind(item, name) for item in value]
    return check


def _key(context: str, key: str) -> str:
    """``key`` of the section at dotted path ``context``, named from the root."""
    return f"{context}.{key}" if context else key


def read_config(cfg: dict, spec: dict, context: str = "") -> dict:
    """Check one config section against its key table; return it with
    every default filled in.

    ``spec`` maps each allowed key to ``(kind, default)``, where the
    default is :data:`REQUIRED` or what an absent or ``null`` key reads
    as. ``context`` is the section's dotted path ('' at the root), so an
    error names the dotted key, such as ``'optimizer.lr'``.
    """
    where = context or "config"
    unknown = set(section(cfg, where)) - set(spec)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, (kind, default) in spec.items():
        name = _key(context, key)
        if cfg.get(key) is not None:
            out[key] = kind(cfg[key], name)
        elif default is REQUIRED:
            raise ConfigError(f"config needs '{name}'")
        else:
            out[key] = default
    return out


SEEDS = list_of(integer(0))

# Defaults of None are worked out from the rest of the config where read.
RUN = {
    "problem": (section, REQUIRED), "optimizer": (section, REQUIRED),
    "steps": (integer(1), REQUIRED), "seeds": (SEEDS, REQUIRED),
    "batch_size": (integer(1), None), "eval_every": (integer(1), None),
    "lr_decay": (section, None),
}

# An absent hyperparameter takes the named optimizer's own default.
OPTIMIZER = {
    "name": (string, REQUIRED), "lr": (number, REQUIRED),
    "beta0": (number, None), "beta1": (number, None), "beta2": (number, None),
    "beta3": (number, None), "eps": (number, None), "amsgrad": (boolean, None),
    "weight_decay": (section, None),
}

WEIGHT_DECAY = {"mode": (string, "none"), "lam": (number, 0.0)}

LR_DECAY = {"milestones": (list_of(integer(1), min_length=0), []), "factor": (number, 0.1)}

CLASSIFICATION_PROBLEM = {
    "name": (string, REQUIRED), "n": (integer(1), 2000), "noise": (number, 0.2),
    "hidden": (integer(1), 16), "test_fraction": (number, 0.5), "init_scale": (number, 0.5),
    "label_noise": (section, None), "csv_path": (string, None),
}

LABEL_NOISE = {"kind": (string, "symmetric"), "rate": (number, 0.0)}

ANALYTIC_PROBLEM = {
    "name": (string, REQUIRED), "dim": (integer(1), None), "n": (integer(1), 200),
    "eigenvalues": (list_of(number), None), "theta_star": (list_of(number), None),
    "f0": (number, 0.0), "noise_sigma2": (non_negative, 0.0), "theta0": (list_of(number), None),
}


def build_optimizer(cfg: dict, dim: int, context: str = "optimizer") -> Optimizer:
    opt = read_config(cfg, OPTIMIZER, context)
    wd = read_config(opt.pop("weight_decay") or {}, WEIGHT_DECAY, _key(context, "weight_decay"))
    hparams = {k: v for k, v in opt.items() if v is not None and k != "name"}
    try:
        return make_optimizer(opt["name"], dim=dim, weight_decay=WeightDecay(**wd), **hparams)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimizer config '{context}': {exc}") from exc


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
    corrupted_mask: np.ndarray
    theta0: np.ndarray

    def train_errors(self, theta) -> tuple[float, float]:
        """Error on the (possibly corrupted) training labels, and on the
        training samples whose label was left intact (label noise keeps
        the features and leaves those labels as they were)."""
        corrupted = self.problem.error_rate(theta, self.train)
        clean_idx = np.flatnonzero(~self.corrupted_mask)
        if not clean_idx.size:
            return corrupted, corrupted
        return corrupted, self.problem.error_rate(theta, self.train.subset(clean_idx))


def _split(dataset: FiniteDataset, test_fraction: float, rng: RngStream, name: str):
    n = dataset.n_samples
    n_test = int(round(test_fraction * n))
    if not 0 < n_test < n:
        raise ConfigError(f"'{name}' must leave both splits nonempty")
    perm = rng.permutation(n)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])


def build_classification_task(cfg: dict, seed: int,
                              context: str = "problem") -> ClassificationTask:
    """Materialize a dataset + MLP task for one seed.

    Stream layout: spawn(0) generates the data, spawn(1) corrupts labels,
    spawn(2) initializes weights, spawn(4) draws the train/test split.
    The training loop owns spawn(3); distinct keys keep every source of
    randomness independent.
    """
    p = read_config(cfg, CLASSIFICATION_PROBLEM, context)
    root = RngStream(seed)
    if p["name"] == "two_moons_mlp":
        data = make_two_moons(p["n"], p["noise"], root.spawn(0))
    elif p["name"] == "csv_mlp":
        if p["csv_path"] is None:
            raise ConfigError(f"csv_mlp needs '{_key(context, 'csv_path')}'")
        data = load_csv_dataset(p["csv_path"], classification=True)
        data = data.subset(root.spawn(0).permutation(data.n_samples))
    else:
        raise ConfigError(f"'{_key(context, 'name')}' is not a classification problem: "
                          f"{p['name']!r}")
    train, test = _split(data, p["test_fraction"], root.spawn(4), _key(context, "test_fraction"))
    mask = np.zeros(train.n_samples, dtype=bool)
    if p["label_noise"] is not None:
        spec = LabelNoiseSpec(**read_config(p["label_noise"], LABEL_NOISE,
                                            _key(context, "label_noise")))
        train, mask = apply_label_noise(train, spec, root.spawn(1))
    problem = TinyMlpProblem(train, hidden=p["hidden"])
    theta0 = problem.init_params(root.spawn(2), scale=p["init_scale"])
    return ClassificationTask(problem, train, test, mask, theta0)


def build_analytic_oracle(cfg: dict, seed: int, context: str = "problem"):
    """Quadratic / Rosenbrock / linear-regression oracles with optional
    additive noise, and the starting point ``theta0``."""
    p = read_config(cfg, ANALYTIC_PROBLEM, context)
    if p["name"] == "quadratic":
        eigs = p["eigenvalues"]
        dim = p["dim"] or (len(eigs) if eigs else 2)
        eigs = np.asarray(eigs if eigs is not None else np.ones(dim), dtype=np.float64)
        theta_star = np.asarray(p["theta_star"] or np.zeros(dim), dtype=np.float64)
        base = QuadraticModel(theta_star, np.diag(eigs), p["f0"])
        theta0 = np.ones(dim)
    elif p["name"] == "rosenbrock":
        base = RosenbrockProblem()
        theta0 = [-1.2, 1.0]
    elif p["name"] == "linear_regression":
        root = RngStream(seed).spawn(0)
        dim, n = p["dim"] or 5, p["n"]
        X = root.standard_normal((n, dim))
        w = root.standard_normal(dim)
        y = X @ w + 0.1 * root.standard_normal(n)
        base = LinearRegressionProblem(FiniteDataset(X, y))
        theta0 = np.zeros(dim)
    else:
        raise ConfigError(f"'{_key(context, 'name')}' is an unknown problem: {p['name']!r}")
    start = np.asarray(theta0 if p["theta0"] is None else p["theta0"], dtype=np.float64)
    if start.shape != (base.dim,):
        raise ConfigError(f"'{_key(context, 'theta0')}' must be a list of {base.dim} numbers, "
                          f"got {p['theta0']!r}")
    sigma2 = p["noise_sigma2"]
    oracle = AdditiveNoiseOracle(base, sigma2) if sigma2 > 0 else base
    return oracle, start


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Per-seed outcome of one run config."""

    seed: int
    final_loss: float
    min_grad_norm_sq: float
    final_test_error: Optional[float] = None
    best_test_error: Optional[float] = None
    final_corrupted_train_error: Optional[float] = None
    final_clean_train_error: Optional[float] = None
    trajectory: Optional[list[TrajectoryRecord]] = None

    def summary_fields(self) -> dict:
        """The summary row: every metric the run has, without the trajectory."""
        return {key: value for key, value in vars(self).items()
                if value is not None and key != "trajectory"}


#: Parameters beyond this magnitude (or non-finite) end a run as diverged.
_DIVERGENCE_BOUND = 1e10


_CLASSIFICATION_PROBLEMS = ("two_moons_mlp", "csv_mlp")


def _require_test_error(cfg: dict, context: str) -> None:
    """Fail before any training when a protocol that compares test errors
    is given a problem that has none."""
    name = read_config(cfg, RUN, context)["problem"].get("name")
    if name not in _CLASSIFICATION_PROBLEMS:
        raise ConfigError(
            f"'{_key(context, 'problem.name')}' must be one of "
            f"{list(_CLASSIFICATION_PROBLEMS)} to report a test error, got {name!r}")


def run_seed(cfg: dict, seed: int, context: str = "") -> RunResult:
    """Train one seed of a run config.

    The per-problem parts (gradient sampler, test-error evaluation,
    defaults, final train errors) are chosen up front: every
    :class:`DatasetProblem` is minibatched with the config's
    ``batch_size`` (default ``min(128, N)``), any other oracle supplies its
    own ``stochastic_gradient`` and rejects a ``batch_size``. One loop then
    steps every problem the same way. Parameters that turn non-finite or exceed 1e10 in magnitude
    raise :class:`DivergenceError` naming the step and the seed. A config
    error names its key from the root of a config that holds ``cfg`` at
    dotted path ``context``.
    """
    run_cfg = read_config(cfg, RUN, context)
    steps = run_cfg["steps"]
    if run_cfg["problem"].get("name") in _CLASSIFICATION_PROBLEMS:
        task = build_classification_task(run_cfg["problem"], seed, _key(context, "problem"))
        oracle, theta = task.problem, task.theta0

        def test_error(theta):
            return oracle.error_rate(theta, task.test)

        train_errors = task.train_errors
        eval_every = run_cfg["eval_every"] or max(1, steps // 50)
    else:
        oracle, theta = build_analytic_oracle(run_cfg["problem"], seed, _key(context, "problem"))
        test_error = train_errors = None
        eval_every = run_cfg["eval_every"] or max(1, steps // 100)
    batch_size = run_cfg["batch_size"]
    if isinstance(oracle, DatasetProblem):
        batch_size = batch_size or min(128, oracle.dataset_size)

        def sample(theta, rng):
            return oracle.minibatch_gradient(theta, batch_size, rng)
    else:
        if batch_size is not None:
            raise ConfigError(
                f"'{_key(context, 'batch_size')}' is not read by problem "
                f"{run_cfg['problem']['name']!r}: "
                "its stochastic gradient is the full gradient (plus noise_sigma2 noise)")
        sample = oracle.stochastic_gradient
    opt = build_optimizer(run_cfg["optimizer"], theta.shape[0], _key(context, "optimizer"))
    rng = RngStream(seed).spawn(3)
    # Piecewise-constant decay: lr is multiplied by the factor at each milestone.
    decay = read_config(run_cfg["lr_decay"] or {}, LR_DECAY, _key(context, "lr_decay"))
    if not decay["factor"] > 0:
        raise ConfigError(f"'{_key(context, 'lr_decay.factor')}' must be a number > 0, "
                          f"got {decay['factor']!r}")
    milestones = set(decay["milestones"])
    traj = []

    def evaluate(step: int) -> None:
        loss, grad = oracle.full_gradient(theta)
        err = None if test_error is None else test_error(theta)
        traj.append(TrajectoryRecord(step, float(loss), float(grad @ grad), err))

    evaluate(0)
    for step in range(1, steps + 1):
        if step in milestones:
            opt.lr *= decay["factor"]
        theta = opt.step(theta, sample(theta, rng))
        if not np.abs(theta).max() <= _DIVERGENCE_BOUND:
            raise DivergenceError(
                f"run diverged at step {step} for seed {seed}: parameters non-finite or "
                f"beyond {_DIVERGENCE_BOUND:g} in magnitude"
            )
        if step % eval_every == 0 or step == steps:
            evaluate(step)

    final = traj[-1]
    result = RunResult(
        seed=seed,
        final_loss=final.loss,
        min_grad_norm_sq=min(r.grad_norm_sq for r in traj),
        trajectory=traj,
    )
    if test_error is not None:
        # The step-0 evaluation is the initialization, not a trained model.
        result.final_test_error = final.test_error
        result.best_test_error = min(r.test_error for r in traj[1:])
        (result.final_corrupted_train_error,
         result.final_clean_train_error) = train_errors(theta)
    return result


def aggregate(values) -> dict:
    """Mean and population standard deviation, the reporting convention
    for all multi-seed tables."""
    arr = np.asarray(list(values), dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def _summary(results: list[RunResult]) -> dict:
    """The per-seed rows of one arm and their aggregates."""
    metrics = {"final_loss": aggregate(r.final_loss for r in results)}
    if results[0].final_test_error is not None:
        metrics["final_test_error"] = aggregate(r.final_test_error for r in results)
        metrics["best_test_error"] = aggregate(r.best_test_error for r in results)
    return {"results": [r.summary_fields() for r in results], "aggregate": metrics}


def run_arms(cfgs: list[dict], threads: int, context: str = "") -> list:
    """Run every seed of every arm config as one job list on ``min(threads,
    jobs)`` threads (serially in this thread when that is 1), after building
    each arm's optimizer. Returns per arm its :class:`RunResult` list in seed
    order, or the divergence error of its first diverging seed. Config
    errors name keys as :func:`run_seed` does.
    """
    runs = [read_config(cfg, RUN, context) for cfg in cfgs]
    for run_cfg in runs:
        # A check; run_seed builds its own.
        build_optimizer(run_cfg["optimizer"], 1, _key(context, "optimizer"))
    jobs = [(cfg, seed, context) for cfg, run_cfg in zip(cfgs, runs)
            for seed in run_cfg["seeds"]]

    def job(args):
        try:
            return run_seed(*args)
        except (DivergenceError, NonFiniteError) as exc:
            return exc.with_traceback(None)  # frees the diverged run's frames

    if min(threads, len(jobs)) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            outcomes = pool.map(job, jobs)  # read in job order once the pool drains
    else:
        outcomes = map(job, jobs)
    arms = [list(islice(outcomes, len(run_cfg["seeds"]))) for run_cfg in runs]
    return [next((r for r in results if isinstance(r, Exception)), results) for results in arms]


def _completed(outcomes: list) -> list:
    """:func:`run_arms` outcomes; raises the first diverged arm's error."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def run(cfg: dict, out_dir: Optional[Path] = None, threads: int = 1) -> dict:
    """Execute one config over its seeds; returns (and writes) a summary.
    A diverging seed raises its error."""
    (results,) = _completed(run_arms([cfg], threads))
    digest = config_digest(cfg)
    summary = {"config": cfg, "config_digest": digest, "prng": RNG_ALGORITHM,
               **_summary(results)}
    if out_dir is not None:
        out_dir = write_report(out_dir, digest, {f"summary_{digest}.json": summary})
        for r in results:
            write_trajectory_csv(out_dir / f"trajectory_{digest}_seed{r.seed}.csv", r, digest)
    return summary


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


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


def write_trajectory_csv(path: Path, result: RunResult, digest: str) -> None:
    has_test = result.final_test_error is not None
    lines = [f"# config_digest={digest} seed={result.seed} prng={RNG_ALGORITHM}"]
    header = "step,loss,grad_norm_sq" + (",test_error" if has_test else "")
    lines.append(header)
    for rec in result.trajectory:
        row = f"{rec.step},{rec.loss!r},{rec.grad_norm_sq!r}"
        if has_test:
            row += f",{rec.test_error!r}"
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


def label_noise_experiment(cfg: dict, optimizer_a: dict, optimizer_b: dict,
                           out_dir: Optional[Path] = None, threads: int = 1) -> dict:
    """Paired comparison of two optimizers on a label-corrupted task.

    Both optimizers see identical data, corruption, initialization, and
    minibatch sequences within each seed. Reports final clean-test error,
    corrupted-train error, and clean-subset train error per seed, plus the
    seed-majority outcome for A beating B on clean test error.
    """
    # Each arm's optimizer is checked under its own name; the rest is 'base'.
    build_optimizer(optimizer_a, 1, "optimizer_a")
    build_optimizer(optimizer_b, 1, "optimizer_b")
    arms = [{**cfg, "optimizer": optimizer_a}, {**cfg, "optimizer": optimizer_b}]
    _require_test_error(arms[0], "base")
    summary_a, summary_b = map(_summary, _completed(run_arms(arms, threads, "base")))
    errs_a = [r["final_test_error"] for r in summary_a["results"]]
    errs_b = [r["final_test_error"] for r in summary_b["results"]]
    # The rate is reported as written, so an integer rate stays an integer.
    rate = (cfg["problem"].get("label_noise") or {}).get("rate")
    report = {
        "label_noise_rate": 0.0 if rate is None else rate,
        "no_corruption": not rate,
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
        "config_digest": config_digest(
            {"base": cfg, "optimizer_a": optimizer_a, "optimizer_b": optimizer_b}),
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
    beta0_grid = list_of(number)(beta0_grid, "beta0_grid")
    _require_test_error(cfg, "base")
    name = read_config(cfg["optimizer"], OPTIMIZER, "base.optimizer")["name"]
    if name.lower() not in ("pnm", "adapnm"):
        raise ConfigError(f"'base.optimizer.name' must be pnm or adapnm for a beta0 sweep, "
                          f"got {name!r}")
    arms = [{**cfg, "optimizer": {**cfg["optimizer"], "beta0": b0}} for b0 in beta0_grid]
    rows = []
    per_seed = {}
    for b0, results in zip(beta0_grid, _completed(run_arms(arms, threads, "base"))):
        errors = [r.final_test_error for r in results]
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
        "config_digest": config_digest({"base": cfg, "beta0_grid": beta0_grid}),
        "prng": RNG_ALGORITHM,
    }
    if out_dir is not None:
        table = ["beta0,mean_test_error,std_test_error"]
        table += [f"{row['beta0']!r},{row['mean']!r},{row['std']!r}" for row in rows]
        write_report(out_dir, report["config_digest"], {"beta0_sweep.json": report},
                     {"beta0_sweep.csv": table})
    return report


def _cell_mean(outcome) -> float | str:
    """A grid cell: its seeds' mean test error, else final loss, or "diverged"."""
    if isinstance(outcome, Exception):
        return "diverged"
    agg = _summary(outcome)["aggregate"]
    return agg.get("final_test_error", agg["final_loss"])["mean"]


def lr_wd_grid(cfg: dict, lrs, lams, out_dir: Optional[Path] = None,
               threads: int = 1) -> dict:
    """Full-factorial learning-rate x weight-decay sweep.

    Diverging cells are marked, not reported as numbers.
    """
    lrs = list_of(number)(lrs, "lrs")
    lams = list_of(number)(lams, "lams")
    # The grid sets lr per cell, so the base optimizer may leave it out.
    base = read_config(read_config(cfg, RUN, "base")["optimizer"],
                       {**OPTIMIZER, "lr": (number, None)}, "base.optimizer")
    # The grid sets lam per column, so its decay mode is decoupled unless given as l2.
    mode = _kind(str, "'l2' or 'decoupled' in a grid", lambda value: value in ("l2", "decoupled"))
    wd = read_config(base["weight_decay"] or {}, {**WEIGHT_DECAY, "mode": (mode, "decoupled")},
                     "base.optimizer.weight_decay")
    arms = [{**cfg, "optimizer": {**cfg["optimizer"], "lr": lr,
                                  "weight_decay": {**wd, "lam": lam}}}
            for lr in lrs for lam in lams]
    cells = map(_cell_mean, run_arms(arms, threads, "base"))
    matrix = [list(islice(cells, len(lams))) for _ in lrs]
    report = {
        "lrs": lrs,
        "lams": lams,
        "mean_test_error": matrix,
        "config_digest": config_digest({"base": cfg, "lrs": lrs, "lams": lams}),
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
