"""Experiment configuration, seed orchestration, and persistence.

Configs are JSON dicts read by :func:`read_config`, one key table per
section and per problem, optimizer, decay or noise name: an unknown key or
bad value is an error naming the key, never coerced or defaulted. Every output
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
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    RNG_ALGORITHM,
    ConfigError,
    DivergenceError,
    NonFiniteError,
    RngStream,
    TrajectoryRecord,
    config_digest,
)
from .optim import (
    AdaPnm, Adam, AmsGrad, HeavyBall, Optimizer, Pnm, WeightDecay, amplification_factor,
)
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
positive = _kind((int, float), "a number > 0 in the finite float range",
                 lambda value: 0 < value <= sys.float_info.max, float)
#: A label-noise rate, or a moment decay such as ``beta1``.
rate = _kind((int, float), "a number in [0, 1)", lambda value: 0 <= value < 1, float)
probability = _kind((int, float), "a number in (0, 1)", lambda value: 0 < value < 1, float)
beta3 = _kind((int, float), "a number in (0, 1]", lambda value: 0 < value <= 1, float)
string = _kind(str, "a string")
boolean = _kind(bool, "true or false")
section = _kind(dict, "an object")


def beta0(value, name):
    """Kind: a beta0 >= -1 whose (1 + beta0)^2 + beta0^2 is finite."""
    value = number(value, name)
    try:
        amplification_factor(value)
    except ValueError as exc:  # the sum overflows
        raise ConfigError(f"'{name}': {exc}") from None
    if value < -1:
        raise ConfigError(f"'{name}' must be a number >= -1, got {value!r}")
    return value


def integer(minimum: int):
    """Kind: an integer >= ``minimum``; a float such as 100.0 is not one."""
    return _kind(int, f"an integer >= {minimum}", lambda value: value >= minimum)


def one_of(*choices: str):
    """Kind: one of the strings ``choices``."""
    return _kind(str, f"one of {list(choices)}", lambda value: value in choices)


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


def read_named(cfg: dict, tables: dict, context: str, selector: str = "name",
               default=REQUIRED, names=None) -> dict:
    """Read the section at dotted path ``context`` against ``tables[choice]``: ``choice``
    is its ``selector`` key (``default`` if absent), one of ``names`` (or of ``tables``)."""
    spec = {selector: (one_of(*(names or tables)), default)}
    choice = read_config({selector: section(cfg, context or "config").get(selector)},
                         spec, context)[selector]
    return read_config(cfg, {**spec, **tables[choice]}, context)


def named(tables: dict, selector: str = "name", default=REQUIRED, names=None):
    """Kind: a section read by :func:`read_named` against ``tables``."""
    return lambda value, name: read_named(value, tables, name, selector, default, names)


SEEDS = list_of(integer(0))

LR_DECAY = {"milestones": (list_of(integer(1), min_length=0), []), "factor": (positive, 0.1)}

LABEL_NOISES = {"symmetric": {"rate": (rate, 0.0)}, "asymmetric": {"rate": (rate, 0.0)}}

_CLASSIFICATION_KEYS = {
    "hidden": (integer(1), 16), "test_fraction": (probability, 0.5), "init_scale": (number, 0.5),
    "label_noise": (named(LABEL_NOISES, "kind", "symmetric"), None),
}
_ANALYTIC_KEYS = {"noise_sigma2": (non_negative, 0.0), "theta0": (list_of(number), None)}

#: Each problem name's key table: a problem accepts only the keys it reads.
PROBLEMS = {
    "two_moons_mlp": {"n": (integer(2), 2000), "noise": (non_negative, 0.2),
                      **_CLASSIFICATION_KEYS},
    "csv_mlp": {"csv_path": (string, REQUIRED), **_CLASSIFICATION_KEYS},
    "quadratic": {"dim": (integer(1), None), "eigenvalues": (list_of(positive), None),
                  "theta_star": (list_of(number), None), "f0": (number, 0.0), **_ANALYTIC_KEYS},
    "rosenbrock": _ANALYTIC_KEYS,
    "linear_regression": {"dim": (integer(1), 5), "n": (integer(1), 200), **_ANALYTIC_KEYS},
}
_CLASSIFICATION_PROBLEMS = ("two_moons_mlp", "csv_mlp")

_LAM = {"lam": (non_negative, 0.0)}
#: Each weight-decay mode's key table: only a decay that acts reads a strength.
WEIGHT_DECAYS = {"none": {}, "l2": _LAM, "decoupled": _LAM}

_HEAVY_BALL = {"lr": (positive, REQUIRED), "beta1": (rate, None), "beta3": (beta3, None)}
_PNM = {"lr": (positive, REQUIRED), "beta0": (beta0, None), "beta1": (rate, None)}
_ADAM = {"lr": (positive, REQUIRED), "beta1": (rate, None), "beta2": (rate, None),
         "eps": (positive, None)}
#: Each optimizer name's class and key table: its constructor's parameters but dim, weight_decay.
OPTIMIZERS = {
    "sgd": (HeavyBall, {**_HEAVY_BALL, "beta1": (rate, 0.0)}),
    "hb": (HeavyBall, _HEAVY_BALL), "momentum": (HeavyBall, _HEAVY_BALL), "pnm": (Pnm, _PNM),
    "adapnm": (AdaPnm, {**_PNM, **_ADAM, "amsgrad": (boolean, None)}),
    "adam": (Adam, {**_ADAM, "amsgrad": (boolean, None)}), "amsgrad": (AmsGrad, _ADAM),
}
_OPTIMIZER_KEYS = {name: {**keys, "weight_decay": (named(WEIGHT_DECAYS, "mode", "none"), None)}
                   for name, (_, keys) in OPTIMIZERS.items()}

# Defaults of None are worked out from the rest of the config where read.
RUN = {
    "problem": (named(PROBLEMS), REQUIRED), "optimizer": (named(_OPTIMIZER_KEYS), REQUIRED),
    "steps": (integer(1), REQUIRED), "seeds": (SEEDS, REQUIRED),
    "batch_size": (integer(1), None), "eval_every": (integer(1), None),
    "lr_decay": (section, None),
}
# The protocols that compare test errors: only a classification problem reports them.
_COMPARED_RUN = {**RUN, "problem": (named(PROBLEMS, names=_CLASSIFICATION_PROBLEMS), REQUIRED)}


def build_optimizer(cfg: dict, dim: int, context: str = "optimizer") -> Optimizer:
    """The optimizer of the section at dotted path ``context``, on ``dim`` parameters."""
    opt = read_named(cfg, _OPTIMIZER_KEYS, context)
    cls, _ = OPTIMIZERS[opt.pop("name")]
    decay = WeightDecay(**(opt.pop("weight_decay") or {}))
    return cls(dim=dim, weight_decay=decay, **{k: v for k, v in opt.items() if v is not None})


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
        if clean_idx.size in (0, self.train.n_samples):  # no clean rows, or all of them
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
    p = read_named(cfg, PROBLEMS, context, names=_CLASSIFICATION_PROBLEMS)
    root = RngStream(seed)
    if p["name"] == "two_moons_mlp":
        data = make_two_moons(p["n"], p["noise"], root.spawn(0))
    else:
        try:
            data = load_csv_dataset(p["csv_path"], classification=True)
        except ValueError as exc:  # a malformed file; an OSError stays an I/O error
            raise ConfigError(f"'{_key(context, 'csv_path')}': {exc}") from exc
        data = data.subset(root.spawn(0).permutation(data.n_samples))
    train, test = _split(data, p["test_fraction"], root.spawn(4), _key(context, "test_fraction"))
    if train.labels.max() < 1:  # the MLP has labels.max() + 1 classes
        source = _key(context, "csv_path" if p["name"] == "csv_mlp" else "n")
        raise ConfigError(f"'{source}' gives a one-class training split; the MLP needs two")
    mask = np.zeros(train.n_samples, dtype=bool)
    if p["label_noise"] is not None:
        train, mask = apply_label_noise(train, LabelNoiseSpec(**p["label_noise"]), root.spawn(1))
    problem = TinyMlpProblem(train, hidden=p["hidden"])
    theta0 = problem.init_params(root.spawn(2), scale=p["init_scale"])
    return ClassificationTask(problem, train, test, mask, theta0)


def build_analytic_oracle(cfg: dict, seed: int, context: str = "problem"):
    """Quadratic / Rosenbrock / linear-regression oracles with optional
    additive noise, and the starting point ``theta0``."""
    p = read_named(cfg, PROBLEMS, context,
                   names=("quadratic", "rosenbrock", "linear_regression"))
    if p["name"] == "quadratic":
        eigs = p["eigenvalues"]
        dim = p["dim"] or (len(eigs) if eigs else 2)
        for key in ("eigenvalues", "theta_star"):
            if p[key] is not None and len(p[key]) != dim:
                raise ConfigError(f"'{_key(context, key)}' must be a list of "
                                  f"'{_key(context, 'dim')}' = {dim} numbers, got {p[key]!r}")
        eigs = np.asarray(eigs if eigs is not None else np.ones(dim), dtype=np.float64)
        theta_star = np.asarray(p["theta_star"] or np.zeros(dim), dtype=np.float64)
        base = QuadraticModel(theta_star, np.diag(eigs), p["f0"])
        theta0 = np.ones(dim)
    elif p["name"] == "rosenbrock":
        base = RosenbrockProblem()
        theta0 = [-1.2, 1.0]
    else:
        root = RngStream(seed).spawn(0)
        dim, n = p["dim"], p["n"]
        X = root.standard_normal((n, dim))
        w = root.standard_normal(dim)
        y = X @ w + 0.1 * root.standard_normal(n)
        base = LinearRegressionProblem(FiniteDataset(X, y))
        theta0 = np.zeros(dim)
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


@np.errstate(over="ignore", invalid="ignore")
def run_seed(cfg: dict, seed: int, context: str = "") -> RunResult:
    """Train one seed of a run config.

    The per-problem parts (gradient sampler, test-error evaluation,
    defaults, final train errors) are chosen up front: every
    :class:`DatasetProblem` is minibatched with the config's
    ``batch_size`` (default ``min(128, N)``), any other oracle supplies its
    own ``stochastic_gradient`` and rejects a ``batch_size``. One loop then
    steps every problem the same way. A non-finite gradient or parameters past 1e10 (or inf, nan)
    raise :class:`DivergenceError` naming the step and the seed; numpy need not warn. A config
    error names its key from the root of a config that holds ``cfg`` at
    dotted path ``context``.
    """
    run_cfg = read_config(cfg, RUN, context)
    steps = run_cfg["steps"]
    problem = run_cfg["problem"]
    if problem["name"] in _CLASSIFICATION_PROBLEMS:
        task = build_classification_task(problem, seed, _key(context, "problem"))
        oracle, theta = task.problem, task.theta0

        def test_error(theta):
            return oracle.error_rate(theta, task.test)

        train_errors = task.train_errors
        eval_every = run_cfg["eval_every"] or max(1, steps // 50)
    else:
        oracle, theta = build_analytic_oracle(problem, seed, _key(context, "problem"))
        test_error = train_errors = None
        eval_every = run_cfg["eval_every"] or max(1, steps // 100)
    batch_size = run_cfg["batch_size"]
    if isinstance(oracle, DatasetProblem):
        batch_size = batch_size or min(128, oracle.dataset_size)
        if batch_size > oracle.dataset_size:
            raise ConfigError(f"'{_key(context, 'batch_size')}' must be at most the "
                              f"{oracle.dataset_size} training samples, got {batch_size}")

        def sample(theta, rng):
            return oracle.minibatch_gradient(theta, batch_size, rng)
    else:
        if batch_size is not None:
            raise ConfigError(
                f"'{_key(context, 'batch_size')}' is not read by problem "
                f"{problem['name']!r}: "
                "its stochastic gradient is the full gradient (plus noise_sigma2 noise)")
        sample = oracle.stochastic_gradient
    opt = build_optimizer(run_cfg["optimizer"], theta.shape[0], _key(context, "optimizer"))
    rng = RngStream(seed).spawn(3)
    # Piecewise-constant decay: lr is multiplied by the factor at each milestone.
    decay = read_config(run_cfg["lr_decay"] or {}, LR_DECAY, _key(context, "lr_decay"))
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
        try:
            theta = opt.step(theta, sample(theta, rng))
        except NonFiniteError as exc:
            raise DivergenceError(f"run diverged at step {step} for seed {seed}: {exc}") from exc
        if not np.abs(theta).max() <= _DIVERGENCE_BOUND:
            raise DivergenceError(f"run diverged at step {step} for seed {seed}: parameters "
                                  f"non-finite or beyond {_DIVERGENCE_BOUND:g} in magnitude")
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


def _outcome(cfg: dict, seed: int, context: str):
    """One seed's :class:`RunResult`, or its :class:`DivergenceError` as a value."""
    try:
        return run_seed(cfg, seed, context)
    except DivergenceError as exc:
        return DivergenceError(*exc.args)  # a copy: the raised error holds the run's frames


def run_arms(cfgs: list[dict], threads: int, context: str = "") -> list:
    """Run every seed of every arm config in this thread, in order, after
    reading every arm's config; ``threads`` has no effect until jobs run on
    worker processes. Every job runs, even after a divergence. Returns per
    arm its :class:`RunResult` list in seed order, or the divergence error
    of its first diverging seed. Config errors name keys as :func:`run_seed` does.
    """
    runs = [read_config(cfg, RUN, context) for cfg in cfgs]
    arms = [[_outcome(cfg, seed, context) for seed in run_cfg["seeds"]]
            for cfg, run_cfg in zip(cfgs, runs)]
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

def _non_finite_fields(value, name: str = ""):
    """Dotted paths of the non-finite numbers in ``value``, in json's order."""
    if isinstance(value, float) and not math.isfinite(value):
        yield name
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _non_finite_fields(value[key], _key(name, str(key)))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _non_finite_fields(item, f"{name}[{i}]")


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as strict JSON. A non-finite number has no JSON
    token, so it raises a :class:`DivergenceError` naming file and field."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        field = next(_non_finite_fields(payload), None)
        if field is None:
            raise
        raise DivergenceError(f"'{field}' is not finite, so {path} cannot be written") from None
    Path(path).write_text(text + "\n")


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
    read_named(optimizer_a, _OPTIMIZER_KEYS, "optimizer_a")
    read_named(optimizer_b, _OPTIMIZER_KEYS, "optimizer_b")
    arms = [{**cfg, "optimizer": optimizer_a}, {**cfg, "optimizer": optimizer_b}]
    read_config(arms[0], _COMPARED_RUN, "base")
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
    beta0_grid = list_of(beta0)(beta0_grid, "beta0_grid")
    pnm = named(_OPTIMIZER_KEYS, names=("pnm", "adapnm"))
    read_config(cfg, {**_COMPARED_RUN, "optimizer": (pnm, REQUIRED)}, "base")
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
    lrs = list_of(positive)(lrs, "lrs")
    lams = list_of(non_negative)(lams, "lams")
    # Cells set lr and lam: the base may leave out lr, and decays decoupled unless l2.
    decay = named(WEIGHT_DECAYS, "mode", "decoupled", ("l2", "decoupled"))
    keys = {name: {**table, "lr": (positive, None), "weight_decay": (decay, {"mode": "decoupled"})}
            for name, table in _OPTIMIZER_KEYS.items()}
    base = read_config(cfg, {**RUN, "optimizer": (named(keys), REQUIRED)}, "base")["optimizer"]
    arms = [{**cfg, "optimizer": {**cfg["optimizer"], "lr": lr,
                                  "weight_decay": {**base["weight_decay"], "lam": lam}}}
            for lr in lrs for lam in lams]
    cells = [_cell_mean(outcome) for outcome in run_arms(arms, threads, "base")]
    matrix = [cells[i:i + len(lams)] for i in range(0, len(cells), len(lams))]
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
