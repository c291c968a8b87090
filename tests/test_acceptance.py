"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantities. Tolerances and budgets are pinned here;
nothing is deferred to later calibration. Run with ``pytest -s
tests/test_acceptance.py`` to see the lines as they complete.
"""

import time

import numpy as np
import pytest

from pnmkit import harness
from pnmkit.convergence import ConvergenceBoundInputs, empirical_rate
from pnmkit.core import RngStream
from pnmkit.noise import (
    amplification_factor,
    estimate_gradient_noise_covariance,
    pair_amplification_ratio,
)
from pnmkit.optim import (
    AdaPnm,
    AmsGrad,
    HeavyBall,
    Pnm,
    momentum_recovery_beta0,
    pn_normalization,
)
from pnmkit.pacbayes import (
    PacBayesSetting,
    critical_ratio,
    kl_q_gamma,
    kl_q_gamma_grad,
    optimal_gamma,
    pac_bound,
)
from pnmkit.posterior import (
    discrete_ou_variance,
    lyapunov_residual,
    simulate_sgd_spectral,
    simulate_stationary,
)
from pnmkit.problems import (
    AdditiveNoiseOracle,
    FiniteDataset,
    LinearRegressionProblem,
    QuadraticModel,
    RosenbrockProblem,
)
from reference import GaussianDist, gaussian_kl, pnm_lemma1_residuals, record_pnm_run


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_momentum_recovery():
    """PNM at beta0 = -beta1/(1+beta1) with compensated lr equals Heavy
    Ball (beta3 = 0.1) to 1e-10 over 1000 deterministic Rosenbrock steps."""
    t0 = time.perf_counter()
    beta1 = 0.9
    b0 = momentum_recovery_beta0(beta1)
    scale = pn_normalization(b0)
    hb = HeavyBall(dim=2, lr=1e-3, beta1=beta1, beta3=0.1)
    pnm = Pnm(dim=2, lr=1e-3 * scale, beta0=b0, beta1=beta1)
    ros = RosenbrockProblem()
    th_h = np.array([-1.2, 1.0])
    th_p = th_h.copy()
    worst = 0.0
    for _ in range(1000):
        _, gh = ros.full_gradient(th_h)
        th_h = hb.step(th_h, gh)
        _, gp = ros.full_gradient(th_p)
        th_p = pnm.step(th_p, gp)
        worst = max(worst, float(np.max(np.abs(th_h - th_p))))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (momentum recovery)",
        worst <= 1e-10 and elapsed < 1.0,
        f"max entrywise diff {worst:.3e} over 1000 steps (tol 1e-10), "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_adam_recovery():
    """AdaPNM at the recovery beta0 matches AMSGrad to 1e-10 over 100
    deterministic steps."""
    t0 = time.perf_counter()
    beta1 = 0.9
    b0 = momentum_recovery_beta0(beta1)
    scale = pn_normalization(b0)
    ros = RosenbrockProblem()
    base = AmsGrad(dim=2, lr=1e-3)
    ada = AdaPnm(dim=2, lr=1e-3 * scale, beta0=b0, beta1=beta1, amsgrad=True)
    th_b = np.array([-1.2, 1.0])
    th_a = th_b.copy()
    worst = 0.0
    for _ in range(100):
        _, gb = ros.full_gradient(th_b)
        th_b = base.step(th_b, gb)
        _, ga = ros.full_gradient(th_a)
        th_a = ada.step(th_a, ga)
        worst = max(worst, float(np.max(np.abs(th_b - th_a))))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (adaptive recovery)",
        worst <= 1e-10 and elapsed < 1.0,
        f"max entrywise diff {worst:.3e} over 100 steps (tol 1e-10), "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_criterion_03_smoothed_difference_identity():
    """z_{t+1} - z_t = -(alpha/(1-beta)) g_t holds to 1e-10 at every step
    of a 1000-step stochastic PNM run."""
    lr, beta0, beta1 = 0.05, 1.0, 0.9
    quad = QuadraticModel([0.0, 0.0, 0.0], np.diag([1.0, 2.0, 3.0]))
    oracle = AdditiveNoiseOracle(quad, 1.0)
    opt = Pnm(dim=3, lr=lr, beta0=beta0, beta1=beta1)
    thetas, ms, grads = record_pnm_run(oracle, opt, np.ones(3), 1000, RngStream(42))
    residuals = pnm_lemma1_residuals(thetas, ms, grads, lr, beta0, beta1)
    worst = float(residuals.max())
    _report(
        "criterion 3 (smoothed-difference identity)",
        worst <= 1e-10,
        f"max per-step residual {worst:.3e} over 1000 stochastic steps (tol 1e-10)",
    )


def test_criterion_04_noise_amplification():
    """Stationary variance ratio of the PNM pair to a single buffer is
    within 2% of (1+beta0)^2 + beta0^2 for beta0 in {0.5, 1, 2} at 1e6
    pure-noise steps; beta0 = 1 gives 5."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for i, beta0 in enumerate((0.5, 1.0, 2.0)):
        ratio, _ = pair_amplification_ratio(0.9, beta0, 1_000_000, RngStream(2024 + i))
        predicted = amplification_factor(beta0)
        rel = abs(ratio / predicted - 1.0)
        ok = ok and rel < 0.02
        details.append(f"beta0={beta0:g}: {ratio:.4f} vs {predicted:g} ({rel:.3%})")
    assert amplification_factor(1.0) == 5.0
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (noise amplification)",
        ok and elapsed < 30.0,
        "; ".join(details) + f"; {elapsed:.1f}s (< 30s)",
    )


def test_criterion_05_posterior_scaling():
    """1-D quadratic: empirical SGD stationary variance within 5% of the
    discrete-OU closed form (~0.005025 at h=1, eta=0.01, sigma2=1), and
    the noise-amplified dynamics' variance ratio within 5% of 5 at
    beta0 = 1."""
    t0 = time.perf_counter()
    model = QuadraticModel([0.0], [[1.0]])
    closed = discrete_ou_variance(1.0, 0.01, 1.0)

    sgd = simulate_stationary(model, 1.0, "sgd", 0.01, burn_in=20_000,
                              samples=1_000_000, rng=RngStream(11), chains=64)
    rel_sgd = abs(sgd.variance / closed - 1.0)

    sgd2 = simulate_stationary(model, 1.0, "sgd", 0.01, burn_in=20_000,
                               samples=2_000_000, rng=RngStream(12), chains=64)
    pnm = simulate_stationary(model, 1.0, "pnm", 0.01, burn_in=20_000,
                              samples=2_000_000, rng=RngStream(13), chains=64,
                              beta0=1.0)
    ratio = pnm.variance / sgd2.variance
    rel_ratio = abs(ratio / 5.0 - 1.0)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5 (posterior scaling)",
        rel_sgd < 0.05 and rel_ratio < 0.05 and elapsed < 60.0,
        f"sgd variance {sgd.variance:.6f} vs {closed:.6f} ({rel_sgd:.2%}); "
        f"pnm/sgd ratio {ratio:.3f} vs 5 ({rel_ratio:.2%}); "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_06_lyapunov_residual():
    """||Sigma H + H Sigma - eta C||_F / ||eta C||_F < 0.1 for the
    empirical 5-D covariance at eta * lambda_max(H) = 0.01, and the
    residual does not grow when eta is reduced tenfold."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    H = Q @ np.diag([1.0, 1.3, 1.55, 1.8, 2.0]) @ Q.T
    H = 0.5 * (H + H.T)
    model = QuadraticModel(np.zeros(5), H)
    residuals = {}
    for eta, samples, thin, seed in ((0.005, 1_000_000, 200, 100),
                                     (0.0005, 4_000_000, 2000, 101)):
        est = simulate_sgd_spectral(model, 1.0, eta, burn_in=10_000,
                                    samples=samples, rng=RngStream(seed),
                                    thin=thin)
        residuals[eta] = lyapunov_residual(est.covariance, H, eta * np.eye(5))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6 (Lyapunov residual)",
        residuals[0.005] < 0.1 and residuals[0.0005] <= residuals[0.005],
        f"residual {residuals[0.005]:.4f} at eta=0.005 (< 0.1), "
        f"{residuals[0.0005]:.4f} at eta/10 (non-increasing); {elapsed:.1f}s",
    )


def test_criterion_07_pacbayes_consistency():
    """The gamma-family KL matches the generic Gaussian KL to 1e-10, its
    gradient matches finite differences to relative 1e-6,
    critical_ratio(0.001, 128, 1e-4) = 0.0390625 exactly, and the bound
    decreases on a 100-point gamma grid over (1, 25.6] for 20 random
    settings with ratio < 1."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_kl = 0.0
    worst_grad = 0.0
    for _ in range(40):
        setting = PacBayesSetting(
            eta=float(rng.uniform(1e-4, 0.1)),
            batch_size=int(rng.integers(8, 512)),
            dataset_size=int(rng.integers(100, 100_000)),
            lam=float(rng.uniform(1e-5, 1e-2)),
            dim=int(rng.integers(1, 40)),
            delta=float(rng.uniform(0.01, 0.2)),
            theta_norm_sq=float(rng.uniform(0.0, 50.0)),
        )
        gamma = float(rng.uniform(0.5, 50.0))
        n = setting.dim
        theta = np.zeros(n)
        theta[0] = np.sqrt(setting.theta_norm_sq)
        q = GaussianDist(theta, gamma * setting.sigma_scale * np.ones(n))
        p = GaussianDist(np.zeros(n), np.ones(n) / setting.lam)
        worst_kl = max(worst_kl, abs(kl_q_gamma(gamma, setting) - gaussian_kl(q, p)))
        h = 1e-6 * gamma
        fd = (kl_q_gamma(gamma + h, setting) - kl_q_gamma(gamma - h, setting)) / (2 * h)
        grad = kl_q_gamma_grad(gamma, setting)
        worst_grad = max(worst_grad, abs(grad - fd) / max(abs(fd), 1e-12))

    ratio_exact = critical_ratio(0.001, 128, 1e-4) == 0.0390625

    monotone = True
    checked = 0
    while checked < 20:
        setting = PacBayesSetting(
            eta=float(rng.uniform(1e-4, 0.05)),
            batch_size=int(rng.integers(16, 512)),
            dataset_size=int(rng.integers(1000, 100_000)),
            lam=float(rng.uniform(1e-5, 1e-2)),
            dim=int(rng.integers(2, 500)),
            delta=float(rng.uniform(0.01, 0.2)),
            theta_norm_sq=float(rng.uniform(0.0, 100.0)),
        )
        if critical_ratio(setting.eta, setting.batch_size, setting.lam) >= 1.0:
            continue
        checked += 1
        top = optimal_gamma(setting).gamma
        grid = np.linspace(1.0, top, 100)
        values = [pac_bound(kl_q_gamma(g, setting), setting.dataset_size, setting.delta)
                  for g in grid]
        monotone = monotone and bool(np.all(np.diff(values) < 0.0))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 7 (PAC-Bayes consistency)",
        worst_kl <= 1e-10 and worst_grad <= 1e-6 and ratio_exact and monotone
        and elapsed < 5.0,
        f"KL specialization gap {worst_kl:.2e} (tol 1e-10); gradient-vs-FD "
        f"{worst_grad:.2e} (tol 1e-6); critical ratio exact: {ratio_exact}; "
        f"bound decreasing on 20 random settings: {monotone}; "
        f"{elapsed:.1f}s (< 5s)",
    )


def test_criterion_08_convergence_rate():
    """Fitted log-log slope of the min expected squared gradient norm over
    horizons {1e2, 1e3, 1e4} lies in [-0.7, -0.3] with 20 seeds, and the
    empirical values never exceed the bound with measured constants."""
    t0 = time.perf_counter()
    base = QuadraticModel([0.0, 0.0], np.diag([1.0, 4.0]))
    oracle = AdditiveNoiseOracle(base, 1.0)
    theta0 = np.array([3.0, -2.0])
    est = empirical_rate(oracle, theta0, [100, 1000, 10000], list(range(20)),
                         smoothness=4.0, step_constant=1.0, beta0=1.0, beta1=0.9)
    loss0, _ = oracle.full_gradient(theta0)
    inputs = ConvergenceBoundInputs(
        smoothness=4.0, grad_bound=est.measured_grad_bound, sigma2=1.0,
        step_constant=1.0, loss_gap=loss0, beta1=0.9, beta0=1.0)
    bounds = est.bound_values(inputs)
    bound_ok = bool(np.all(est.mean_min_grad_sq <= bounds))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8 (convergence rate)",
        -0.7 <= est.slope <= -0.3 and bound_ok and elapsed < 300.0,
        f"slope {est.slope:.3f} in [-0.7, -0.3]; empirical <= bound at all "
        f"horizons: {bound_ok}; {elapsed:.1f}s (< 5min)",
    )


def test_criterion_09_covariance_structure():
    """diag of the estimated gradient-noise covariance correlates > 0.9
    with diag(H)/B on least squares, and the trace doubles within 10%
    when the batch size halves."""
    t0 = time.perf_counter()
    rng = RngStream(77)
    scales = np.geomspace(0.4, 3.0, 8)
    X = rng.standard_normal((2000, 8)) * scales
    w = rng.standard_normal(8)
    y = X @ w + rng.standard_normal(2000)
    prob = LinearRegressionProblem(FiniteDataset(X, y))
    theta_star = np.linalg.solve(X.T @ X, X.T @ y)

    est40 = estimate_gradient_noise_covariance(prob, theta_star, 40, 4000, RngStream(840))
    est20 = estimate_gradient_noise_covariance(prob, theta_star, 20, 4000, RngStream(820))
    pearson = float(np.corrcoef(np.diag(est20.matrix),
                                np.diag(prob.hessian()) / 20)[0, 1])
    trace_ratio = est20.trace / est40.trace
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 9 (covariance structure)",
        pearson > 0.9 and abs(trace_ratio - 2.0) < 0.2,
        f"diagonal Pearson {pearson:.4f} (> 0.9); trace ratio on halved "
        f"batch {trace_ratio:.3f} (2 within 10%); {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def label_noise_base():
    return {
        "problem": {"name": "two_moons_mlp", "n": 2000, "noise": 0.2,
                     "hidden": 256, "test_fraction": 0.9,
                     "label_noise": {"kind": "symmetric", "rate": 0.4}},
        "optimizer": {"name": "hb", "lr": 0.1},
        "batch_size": 64,
        "seeds": list(range(10)),
    }


def test_criterion_10_directional_generalization(label_noise_base):
    """On two-moons with 40% symmetric label noise, PNM with a large beta0
    beats SGD-with-momentum on clean test error in at least 8 of 10 paired
    seeds, and a beta0 sweep finds some beta0 > 0 beating every
    beta0 <= 0 by seed majority."""
    t0 = time.perf_counter()
    base = dict(label_noise_base)
    base["steps"] = 20000
    base["eval_every"] = 20000
    base["lr_decay"] = {"milestones": [10000, 15000], "factor": 0.1}
    sgd = {"name": "hb", "lr": 0.2, "beta1": 0.9, "beta3": 1.0,
           "weight_decay": {"mode": "l2", "lam": 1e-5}}
    pnm = {"name": "pnm", "lr": 2.0, "beta0": 16.0, "beta1": 0.9,
           "weight_decay": {"mode": "decoupled", "lam": 1e-5}}
    report = harness.label_noise_experiment(base, pnm, sgd)
    comp = report["test_error_comparison"]

    sweep_base = dict(base)
    sweep_base["steps"] = 12000
    sweep_base["eval_every"] = 12000
    sweep_base["lr_decay"] = {"milestones": [6000, 9000], "factor": 0.1}
    sweep_base["optimizer"] = {"name": "pnm", "lr": 1.0, "beta1": 0.9,
                                "weight_decay": {"mode": "decoupled", "lam": 1e-5}}
    grid = [momentum_recovery_beta0(0.9), 0.0, 1.0, 4.0, 16.0]
    sweep = harness.beta0_sweep(sweep_base, grid)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 10 (directional generalization)",
        comp["wins"] >= 8 and sweep["positive_beta0_dominates"] and elapsed < 600.0,
        f"PNM beats SGD on clean test error in {comp['wins']}/10 seeds "
        f"(need >= 8); beta0 > 0 dominating all beta0 <= 0: "
        f"{sweep['dominating_beta0']}; {elapsed:.0f}s (< 10min)",
    )
