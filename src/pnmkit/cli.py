"""Command-line entry point.

Subcommands: ``run``, ``sweep-beta0``, ``label-noise``, ``grid``,
``posterior``, ``pacbayes``, ``noise``, ``convergence``. Each reads a JSON
config (strict: unknown keys are errors) and writes CSV/JSON results into
--out. Exit codes: 0 success, 1 config or usage error, 2 numerical
divergence, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import convergence as conv
from . import harness, noise, pacbayes, posterior
from .core import RNG_ALGORITHM, DivergenceError, NonFiniteError, RngStream, config_digest
from .harness import (
    ConfigError, build_analytic_oracle, check_config_keys, int_value, write_report,
)
from .problems import AdditiveNoiseOracle, QuadraticModel

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IOError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _apply_seed_override(cfg: dict, seed) -> dict:
    if seed is not None:
        cfg = dict(cfg)
        cfg["seeds"] = [int(seed)]
    return cfg


def _cmd_run(args) -> None:
    cfg = _apply_seed_override(_load_config(args.config), args.seed)
    summary = harness.run(cfg, Path(args.out), args.threads)
    agg = summary["aggregate"]
    print(f"config {summary['config_digest']}: "
          + ", ".join(f"{k} = {v['mean']:.6g} +- {v['std']:.3g}" for k, v in agg.items()))


def _cmd_sweep_beta0(args) -> None:
    cfg = _load_config(args.config)
    check_config_keys(cfg, {"base", "beta0_grid"}, "sweep config")
    base = _apply_seed_override(cfg["base"], args.seed)
    report = harness.beta0_sweep(base, cfg["beta0_grid"], Path(args.out), args.threads)
    for row in report["table"]:
        print(f"beta0 = {row['beta0']:+.4f}: test error "
              f"{row['mean']:.4f} +- {row['std']:.4f}")
    print(f"some beta0 > 0 dominates all beta0 <= 0: {report['positive_beta0_dominates']}")


def _cmd_label_noise(args) -> None:
    cfg = _load_config(args.config)
    check_config_keys(cfg, {"base", "optimizer_a", "optimizer_b"}, "label-noise config")
    base = _apply_seed_override(cfg["base"], args.seed)
    report = harness.label_noise_experiment(
        base, cfg["optimizer_a"], cfg["optimizer_b"], Path(args.out), args.threads)
    comp = report["test_error_comparison"]
    print(f"A beats B on clean test error in {comp['wins']}/"
          f"{comp['wins'] + comp['losses'] + comp['ties']} seeds")


def _cmd_grid(args) -> None:
    cfg = _load_config(args.config)
    check_config_keys(cfg, {"base", "lrs", "lams"}, "grid config")
    base = _apply_seed_override(cfg["base"], args.seed)
    report = harness.lr_wd_grid(base, cfg["lrs"], cfg["lams"], Path(args.out), args.threads)
    for lr, row in zip(report["lrs"], report["mean_test_error"]):
        cells = ", ".join(c if isinstance(c, str) else f"{c:.4f}" for c in row)
        print(f"lr = {lr:g}: {cells}")


def _cmd_posterior(args) -> None:
    cfg = _load_config(args.config)
    check_config_keys(cfg, {
        "kind", "eigenvalues", "eta", "noise_sigma2", "burn_in", "samples",
        "thin", "chains", "beta0", "beta1", "seed", "batch_size",
    }, "posterior config")
    eigs = np.asarray(cfg.get("eigenvalues", [1.0]), dtype=np.float64)
    model = QuadraticModel(np.zeros(eigs.size), np.diag(eigs))
    sigma2 = float(cfg.get("noise_sigma2", 1.0))
    seed = int(args.seed) if args.seed is not None else int(cfg.get("seed", 0))
    kind = cfg.get("kind", "sgd")
    extra = {}
    if "batch_size" in cfg:
        # Before the simulation, so a kind without a closed form fails fast.
        extra["theoretical_scale"] = posterior.theoretical_posterior_covariance(
            kind, float(cfg["eta"]), int(cfg["batch_size"]), float(cfg.get("beta0", 1.0)))
    est = posterior.simulate_stationary(
        model,
        sigma2,
        kind,
        float(cfg["eta"]),
        burn_in=int(cfg.get("burn_in", 10000)),
        samples=int(cfg.get("samples", 1000000)),
        rng=RngStream(seed),
        thin=int(cfg.get("thin", 1)),
        chains=int(cfg.get("chains", 64)),
        beta0=float(cfg.get("beta0", 1.0)),
        beta1=float(cfg.get("beta1", 0.9)),
    )
    eta_c = float(cfg["eta"]) * sigma2 * np.eye(eigs.size)
    payload = {
        "config": cfg,
        "config_digest": config_digest(cfg),
        "prng": RNG_ALGORITHM,
        "empirical_mean": est.mean.tolist(),
        "empirical_covariance": est.covariance.ravel().tolist(),
        "dim": int(eigs.size),
        "retained": est.retained,
        "lyapunov_residual": posterior.lyapunov_residual(est.covariance, model.H, eta_c),
        **extra,
    }
    if eigs.size == 1 and kind == "sgd":
        payload["closed_form_variance"] = posterior.discrete_ou_variance(
            float(eigs[0]), float(cfg["eta"]), sigma2)
    write_report(args.out, payload["config_digest"], {"posterior.json": payload})
    print(f"retained {est.retained} samples; "
          f"covariance trace {np.trace(est.covariance):.6g}; "
          f"lyapunov residual {payload['lyapunov_residual']:.4g}")


def _cmd_pacbayes(args) -> None:
    cfg = _load_config(args.config)
    check_config_keys(cfg, {
        "eta", "batch_size", "dataset_size", "lam", "dim", "delta",
        "theta_norm_sq", "gammas",
    }, "pacbayes config")
    setting = pacbayes.PacBayesSetting(
        eta=float(cfg["eta"]),
        batch_size=int(cfg["batch_size"]),
        dataset_size=int(cfg["dataset_size"]),
        lam=float(cfg["lam"]),
        dim=int(cfg["dim"]),
        delta=float(cfg["delta"]),
        theta_norm_sq=float(cfg.get("theta_norm_sq", 0.0)),
    )
    gammas = cfg.get("gammas")
    if gammas is None:
        top = max(2.0, pacbayes.optimal_gamma(setting).gamma)
        gammas = np.geomspace(1.0, top, 50).tolist()
    rows = pacbayes.bound_table(setting, gammas)
    table = ["gamma,kl,kl_grad,bound"]
    table += [f"{row['gamma']!r},{row['kl']!r},{row['kl_grad']!r},{row['bound']!r}"
              for row in rows]
    choice = pacbayes.optimal_gamma(setting)
    digest = config_digest(cfg)
    write_report(args.out, digest, {"pacbayes_summary.json": {
        "config": cfg,
        "config_digest": digest,
        "prng": RNG_ALGORITHM,
        "critical_ratio": pacbayes.critical_ratio(setting.eta, setting.batch_size, setting.lam),
        "optimal_gamma": choice.gamma,
        "improvement_predicted": choice.improvement_predicted,
        "kl_minimizing_gamma": pacbayes.kl_minimizing_gamma(setting),
    }}, {"pacbayes_table.csv": table})
    print(f"critical ratio {pacbayes.critical_ratio(setting.eta, setting.batch_size, setting.lam):.6g}; "
          f"guaranteed-improvement gamma up to {choice.gamma:.6g} "
          f"(predicted: {choice.improvement_predicted})")


def _cmd_noise(args) -> None:
    cfg = _load_config(args.config)
    check_config_keys(cfg, {"beta1", "beta0_values", "steps", "dim", "seed"}, "noise config")
    beta1 = float(cfg.get("beta1", 0.9))
    steps = int(cfg.get("steps", 1000000))
    dim = int(cfg.get("dim", 1))
    seed = int(args.seed) if args.seed is not None else int(cfg.get("seed", 0))
    results = []
    for b0 in cfg.get("beta0_values", [0.5, 1.0, 2.0]):
        ratio, se = noise.pair_amplification_ratio(
            beta1, float(b0), steps, RngStream(seed), dim)
        results.append({
            "beta0": float(b0),
            "predicted": noise.amplification_factor(float(b0)),
            "measured_ratio": ratio,
            "standard_error": se,
        })
    payload = {
        "config": cfg,
        "config_digest": config_digest(cfg),
        "prng": RNG_ALGORITHM,
        "buffer_variance_closed_form": noise.single_buffer_stationary_variance(beta1),
        "ratios": results,
    }
    write_report(args.out, payload["config_digest"], {"noise_ratios.json": payload})
    for row in results:
        print(f"beta0 = {row['beta0']:g}: measured {row['measured_ratio']:.4f}, "
              f"predicted {row['predicted']:.4f} (se {row['standard_error']:.4f})")


def _cmd_convergence(args) -> None:
    cfg = _load_config(args.config)
    check_config_keys(cfg, {
        "problem", "horizons", "seeds", "step_constant", "beta0", "beta1",
    }, "convergence config")
    seeds = cfg.get("seeds", 20)
    if not isinstance(seeds, list):
        seeds = list(range(int_value(seeds, "seeds", 1)))
    elif not seeds:
        raise ConfigError("'seeds' must be a count >= 1 or a nonempty list of integers")
    for seed in seeds:
        int_value(seed, "seeds", 0)
    horizons = cfg.get("horizons", [100, 1000, 10000])
    if not isinstance(horizons, list) or len(horizons) < 2:
        raise ConfigError(
            f"'horizons' must be a list of at least two integers, got {horizons!r}")
    for T in horizons:
        int_value(T, "horizons", 1)
    if args.seed is not None:
        seeds = [int(args.seed)]
    oracle, theta0 = build_analytic_oracle(cfg["problem"], seed=0)
    base = oracle.base if isinstance(oracle, AdditiveNoiseOracle) else oracle
    if not isinstance(base, QuadraticModel):
        raise ConfigError("convergence subcommand expects a quadratic problem")
    smoothness = base.lambda_max
    sigma2 = float(cfg["problem"].get("noise_sigma2", 0.0))
    est = conv.empirical_rate(
        oracle, theta0, horizons, seeds,
        smoothness=smoothness,
        step_constant=float(cfg.get("step_constant", 1.0)),
        beta0=float(cfg.get("beta0", 1.0)),
        beta1=float(cfg.get("beta1", 0.9)),
    )
    loss0, _ = oracle.full_gradient(theta0)
    inputs = conv.ConvergenceBoundInputs(
        smoothness=smoothness,
        grad_bound=est.measured_grad_bound,
        sigma2=sigma2,
        step_constant=float(cfg.get("step_constant", 1.0)),
        loss_gap=loss0 - base.f0,
        beta1=float(cfg.get("beta1", 0.9)),
        beta0=float(cfg.get("beta0", 1.0)),
    )
    bounds = est.bound_values(inputs)
    table = ["horizon,step_size,mean_min_grad_norm_sq,theorem_bound"]
    table += [f"{T},{eta0!r},{m!r},{b!r}" for T, eta0, m, b in
              zip(est.horizons, est.step_sizes, est.mean_min_grad_sq, bounds)]
    digest = config_digest(cfg)
    write_report(args.out, digest, {"convergence_summary.json": {
        "config": cfg,
        "config_digest": digest,
        "prng": RNG_ALGORITHM,
        "slope": est.slope,
        "horizons": est.horizons,
        "mean_min_grad_norm_sq": est.mean_min_grad_sq.tolist(),
        "theorem_bounds": bounds.tolist(),
        "bound_satisfied": bool(np.all(est.mean_min_grad_sq <= bounds)),
        "measured_grad_bound": est.measured_grad_bound,
    }}, {"convergence_rate.csv": table})
    print(f"fitted log-log slope: {est.slope:.3f}; "
          f"bound satisfied at every horizon: {bool(np.all(est.mean_min_grad_sq <= bounds))}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnmkit",
        description="Positive-negative momentum optimizers and analysis harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": _cmd_run,
        "sweep-beta0": _cmd_sweep_beta0,
        "label-noise": _cmd_label_noise,
        "grid": _cmd_grid,
        "posterior": _cmd_posterior,
        "pacbayes": _cmd_pacbayes,
        "noise": _cmd_noise,
        "convergence": _cmd_convergence,
    }
    # Each command registers only the flags its handler reads.
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        if name != "pacbayes":
            p.add_argument("--seed", type=int, default=None,
                           help="override the config's seed list with one seed")
        p.add_argument("--out", default="results", help="output directory")
        if name in ("run", "sweep-beta0", "label-noise", "grid"):
            p.add_argument("--threads", type=int, default=1)
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the divergence code
        # here; --help exits 0.
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        args.handler(args)
    except (ConfigError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, NonFiniteError) as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (IOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
