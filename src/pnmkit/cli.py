"""Command-line entry point.

Subcommands: ``run``, ``sweep-beta0``, ``label-noise``, ``grid``,
``posterior``, ``pacbayes``, ``noise``, ``convergence``. Each reads a JSON
config against its key tables and writes CSV/JSON results into --out.
Exit codes: 0 success, 1 config or usage error (a :class:`ConfigError`,
which names the key at fault), 2 numerical divergence, 3 I/O error; any
other exception, a plain ``ValueError`` included, is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import convergence as conv
from . import harness, noise, pacbayes, posterior
from .core import DivergenceError, NonFiniteError, RngStream
from .harness import (
    REQUIRED, SEEDS, ConfigError, beta0, build_analytic_oracle, integer, list_of, named,
    non_negative, number, positive, probability, rate, read_config, section, write_report,
)
from .problems import AdditiveNoiseOracle, QuadraticModel

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3

# One key table per command config; run configs are read by harness.RUN.
SWEEP = {"base": (section, REQUIRED), "beta0_grid": (list_of(number), REQUIRED)}
LABEL_NOISE_ARMS = {"base": (section, REQUIRED), "optimizer_a": (section, REQUIRED),
                    "optimizer_b": (section, REQUIRED)}
GRID = {"base": (section, REQUIRED), "lrs": (list_of(number), REQUIRED),
        "lams": (list_of(number), REQUIRED)}

POSTERIOR = {
    "eigenvalues": (list_of(positive), [1.0]),
    "eta": (positive, REQUIRED), "noise_sigma2": (non_negative, 1.0),
    "burn_in": (integer(0), 10000), "samples": (integer(1), 1000000),
    "thin": (integer(1), 1), "chains": (integer(1), 64),
    "seed": (integer(0), 0), "batch_size": (integer(1), None),
}
_BETA0, _BETA1 = {"beta0": (beta0, 1.0)}, {"beta1": (rate, 0.9)}
#: Each posterior kind's key table: a kind reads only the betas its dynamics take.
POSTERIORS = {"sgd": POSTERIOR, "hb": {**POSTERIOR, **_BETA1}, "pnm": {**POSTERIOR, **_BETA0},
              "pnm_momentum": {**POSTERIOR, **_BETA0, **_BETA1}}

PACBAYES = {
    "eta": (positive, REQUIRED), "batch_size": (integer(1), REQUIRED),
    "dataset_size": (integer(2), REQUIRED), "lam": (positive, REQUIRED),
    "dim": (integer(1), REQUIRED), "delta": (probability, REQUIRED),
    "theta_norm_sq": (non_negative, 0.0), "gammas": (list_of(number), None),
}

NOISE = {
    "beta1": (rate, 0.9), "beta0_values": (list_of(beta0), [0.5, 1.0, 2.0]),
    "steps": (integer(1), 1000000), "dim": (integer(1), 1), "seed": (integer(0), 0),
}


def _seed_count_or_list(value, name) -> list[int]:
    """Kind: a count n >= 1 (seeds 0..n-1) or a nonempty list of seeds."""
    if isinstance(value, list):
        return SEEDS(value, name)
    return list(range(integer(1)(value, name)))


CONVERGENCE = {
    "problem": (named(harness.PROBLEMS, names=("quadratic",)), REQUIRED),
    "horizons": (list_of(integer(1), min_length=2), [100, 1000, 10000]),
    "seeds": (_seed_count_or_list, list(range(20))),
    "step_constant": (positive, 1.0), **_BETA0, **_BETA1,
}


def _load_config(args) -> dict:
    """The ``--config`` file, with ``--seed`` (if given) written at its command's seed key."""
    try:  # an OSError names the path and passes through
        payload = json.loads(Path(args.config).read_text())
    except ValueError as exc:  # not UTF-8, not JSON, or an integer json cannot read
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
    cfg = section(payload, "config")
    return cfg if args.seed is None else _with_seed(cfg, args.seed_key, args.seed)


def _with_seed(cfg: dict, key: str, seed: int) -> dict:
    """``cfg`` with ``seed`` written at the dotted ``key``, as a list at ``seeds``; a
    section on the way that is not an object is left for the key tables to name."""
    head, _, rest = key.partition(".")
    if not rest:
        return {**cfg, key: [seed] if key == "seeds" else seed}
    if not isinstance(cfg.get(head), dict):
        return cfg
    return {**cfg, head: _with_seed(cfg[head], rest, seed)}


def _cmd_run(cfg, args) -> None:
    summary = harness.run(cfg, Path(args.out), args.threads)
    agg = summary["aggregate"]
    print(f"config {summary['config_digest']}: "
          + ", ".join(f"{k} = {v['mean']:.6g} +- {v['std']:.3g}" for k, v in agg.items()))


def _cmd_sweep_beta0(cfg, args) -> None:
    cfg = read_config(cfg, SWEEP)
    report = harness.beta0_sweep(cfg["base"], cfg["beta0_grid"], Path(args.out), args.threads)
    for row in report["table"]:
        print(f"beta0 = {row['beta0']:+.4f}: test error "
              f"{row['mean']:.4f} +- {row['std']:.4f}")
    print(f"some beta0 > 0 dominates all beta0 <= 0: {report['positive_beta0_dominates']}")


def _cmd_label_noise(cfg, args) -> None:
    cfg = read_config(cfg, LABEL_NOISE_ARMS)
    report = harness.label_noise_experiment(
        cfg["base"], cfg["optimizer_a"], cfg["optimizer_b"], Path(args.out), args.threads)
    comp = report["test_error_comparison"]
    print(f"A beats B on clean test error in {comp['wins']}/"
          f"{comp['wins'] + comp['losses'] + comp['ties']} seeds")


def _cmd_grid(cfg, args) -> None:
    cfg = read_config(cfg, GRID)
    report = harness.lr_wd_grid(cfg["base"], cfg["lrs"], cfg["lams"], Path(args.out), args.threads)
    for lr, row in zip(report["config"]["lrs"], report["mean_test_error"]):
        cells = ", ".join(c if isinstance(c, str) else f"{c:.4f}" for c in row)
        print(f"lr = {lr:g}: {cells}")


def _cmd_posterior(cfg, args) -> None:
    c = harness.read_named(cfg, POSTERIORS, "", "kind", "sgd")
    betas = {key: c[key] for key in ("beta0", "beta1") if key in c}
    eigs = np.asarray(c["eigenvalues"], dtype=np.float64)
    model = QuadraticModel(np.zeros(eigs.size), np.diag(eigs))
    noise_cov = c["noise_sigma2"] * np.eye(eigs.size)
    # Before simulating, so an unstable config or a kind with no scale fails fast.
    extra = {"closed_form_covariance": posterior.stationary_covariance(
        c["kind"], model.H, c["eta"], noise_cov, **betas).ravel().tolist()}
    if c["batch_size"] is not None:
        if c["kind"] == "pnm_momentum":
            raise ConfigError("'batch_size' sets a theoretical_scale, which 'pnm_momentum' lacks")
        extra["theoretical_scale"] = posterior.theoretical_posterior_covariance(
            c["kind"], c["eta"], c["batch_size"], betas.get("beta0", 1.0))
    dynamics = ("kind", "eta", "burn_in", "samples", "thin", "chains")
    est = posterior.simulate_stationary(model, c["noise_sigma2"], rng=RngStream(c["seed"]),
                                        **{key: c[key] for key in dynamics}, **betas)
    payload = {
        **harness.provenance(cfg),
        "empirical_mean": est.mean.tolist(),
        "empirical_covariance": est.covariance.ravel().tolist(),
        "dim": eigs.size,
        "retained": est.retained,
        "lyapunov_residual": posterior.lyapunov_residual(est.covariance, model.H,
                                                         c["eta"] * noise_cov),
        **extra,
    }
    write_report(args.out, "posterior.json", payload)
    print(f"retained {est.retained} samples; "
          f"covariance trace {np.trace(est.covariance):.6g}; "
          f"lyapunov residual {payload['lyapunov_residual']:.4g}")


def _cmd_pacbayes(cfg, args) -> None:
    c = read_config(cfg, PACBAYES)
    gammas = c.pop("gammas")
    setting = pacbayes.PacBayesSetting(**c)
    for gamma in gammas or ():
        # The KL takes log(r) and its gradient 1 / gamma.
        r = pacbayes.variance_ratio(gamma, setting)
        if not all(0.0 < x < math.inf and 1.0 / x < math.inf for x in (gamma, r)):
            raise ConfigError(
                f"'gammas' must hold gammas > 0 with lam * gamma * eta / (2 batch_size) "
                f"finite, both with finite reciprocals, got {gamma!r}")
    choice = pacbayes.optimal_gamma(setting)
    if gammas is None:
        gammas = np.geomspace(1.0, max(2.0, choice.gamma), 50).tolist()
    columns = ["gamma", "kl", "kl_grad", "bound"]
    table = [columns, *([row[c] for c in columns] for row in pacbayes.bound_table(setting, gammas))]
    ratio = pacbayes.critical_ratio(setting.eta, setting.batch_size, setting.lam)
    write_report(args.out, "pacbayes_summary.json", {
        **harness.provenance(cfg),
        "critical_ratio": ratio,
        "optimal_gamma": choice.gamma,
        "improvement_predicted": choice.improvement_predicted,
        "kl_minimizing_gamma": pacbayes.kl_minimizing_gamma(setting),
    }, {"pacbayes_table.csv": table})
    print(f"critical ratio {ratio:.6g}; "
          f"guaranteed-improvement gamma up to {choice.gamma:.6g} "
          f"(predicted: {choice.improvement_predicted})")


def _cmd_noise(cfg, args) -> None:
    c = read_config(cfg, NOISE)
    pairs = noise.pair_amplification_ratios(
        c["beta1"], c["beta0_values"], c["steps"], RngStream(c["seed"]), c["dim"])
    results = [{"beta0": b0, "predicted": noise.amplification_factor(b0),
                "measured_ratio": ratio, "standard_error": se}
               for b0, (ratio, se) in zip(c["beta0_values"], pairs)]
    payload = {
        **harness.provenance(cfg),
        "buffer_variance_closed_form": noise.single_buffer_stationary_variance(c["beta1"]),
        "ratios": results,
    }
    write_report(args.out, "noise_ratios.json", payload)
    for row in results:
        print(f"beta0 = {row['beta0']:g}: measured {row['measured_ratio']:.4f}, "
              f"predicted {row['predicted']:.4f} (se {row['standard_error']:.4f})")


def _cmd_convergence(cfg, args) -> None:
    c = read_config(cfg, CONVERGENCE)
    oracle, theta0 = build_analytic_oracle(c["problem"], seed=0)
    base = oracle.base if isinstance(oracle, AdditiveNoiseOracle) else oracle
    smoothness = base.lambda_max
    hparams = {key: c[key] for key in ("step_constant", "beta0", "beta1")}
    est = conv.empirical_rate(oracle, theta0, c["horizons"], c["seeds"],
                              smoothness=smoothness, **hparams)
    loss0, _ = oracle.full_gradient(theta0)
    inputs = conv.ConvergenceBoundInputs(
        smoothness=smoothness, grad_bound=est.measured_grad_bound,
        sigma2=c["problem"]["noise_sigma2"], loss_gap=loss0 - base.f0, **hparams)
    bounds = est.bound_values(inputs)
    satisfied = bool(np.all(est.mean_min_grad_sq <= bounds))
    table = [["horizon", "step_size", "mean_min_grad_norm_sq", "theorem_bound"],
             *zip(est.horizons, est.step_sizes, est.mean_min_grad_sq, bounds)]
    write_report(args.out, "convergence_summary.json", {
        **harness.provenance(cfg),
        "slope": est.slope,
        "horizons": est.horizons,
        "mean_min_grad_norm_sq": est.mean_min_grad_sq.tolist(),
        "theorem_bounds": bounds.tolist(),
        "bound_satisfied": satisfied,
        "measured_grad_bound": est.measured_grad_bound,
    }, {"convergence_rate.csv": table})
    print(f"fitted log-log slope: {est.slope:.3f}; "
          f"bound satisfied at every horizon: {satisfied}")


def _flag_integer(minimum: int):
    """The ``type=`` of an integer flag: an integer >= ``minimum``."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnmkit",
        description="Positive-negative momentum optimizers and analysis harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command's handler and the config key its --seed writes, if it takes one.
    commands = {
        "run": (_cmd_run, "seeds"), "sweep-beta0": (_cmd_sweep_beta0, "base.seeds"),
        "label-noise": (_cmd_label_noise, "base.seeds"), "grid": (_cmd_grid, "base.seeds"),
        "posterior": (_cmd_posterior, "seed"), "pacbayes": (_cmd_pacbayes, None),
        "noise": (_cmd_noise, "seed"), "convergence": (_cmd_convergence, "seeds"),
    }
    # Each command registers only the flags its handler reads.
    for name, (fn, seed_key) in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        if seed_key:
            p.add_argument("--seed", type=_flag_integer(0),
                           help=f"write this one seed into the config as '{seed_key}'")
        p.add_argument("--out", default="results", help="output directory")
        if name in ("run", "sweep-beta0", "label-noise", "grid"):
            p.add_argument("--threads", type=_flag_integer(1), default=1,
                           help="accepted; every seed of every arm runs serially for now")
        p.set_defaults(handler=fn, seed_key=seed_key, seed=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the divergence code
        # here; --help exits 0.
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        args.handler(_load_config(args), args)
    except (DivergenceError, NonFiniteError) as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
