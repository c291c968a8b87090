import math

import numpy as np
import pytest

from pnmkit.convergence import (
    ConvergenceBoundInputs,
    empirical_rate,
    theorem1_bound,
    theorem_step_size,
)
from pnmkit.core import DivergenceError, RngStream
from pnmkit.optim import Pnm, pn_normalization
from pnmkit.problems import AdditiveNoiseOracle, QuadraticModel, RosenbrockProblem


class TestTheorem1Bound:
    def test_hand_value(self):
        # beta = 0.81, beta0 = 1: pair weight (0.81 + 0.19)^2 = 1;
        # c1 = (1 * 2 + 0.19^2) / 0.19^2 = 2.0361 / 0.0361
        # bound(t=99) = 2/100 * max(2, 10) + c1 / 10
        inputs = ConvergenceBoundInputs(
            smoothness=1.0, grad_bound=1.0, sigma2=1.0, step_constant=1.0,
            loss_gap=1.0, beta1=0.9, beta0=1.0)
        c1 = (2.0 + 0.0361) / 0.0361
        expected = 0.02 * 10.0 + c1 / 10.0
        assert theorem1_bound(inputs, 99) == pytest.approx(expected, rel=1e-12)
        assert theorem1_bound(inputs, 99) == pytest.approx(5.8402, abs=2e-4)

    def test_deterministic_gd_limit(self):
        # sigma = G = 0 and beta = beta0 = 0 kill the noise term entirely
        inputs = ConvergenceBoundInputs(
            smoothness=2.0, grad_bound=0.0, sigma2=0.0, step_constant=0.5,
            loss_gap=3.0, beta1=0.0, beta0=0.0)
        t = 63
        expected = 2 * 3.0 / (t + 1) * max(4.0, np.sqrt(t + 1.0) / 0.5)
        assert theorem1_bound(inputs, t) == pytest.approx(expected, rel=1e-12)

    def test_nonincreasing_once_step_rule_binds(self):
        inputs = ConvergenceBoundInputs(
            smoothness=1.0, grad_bound=1.0, sigma2=1.0, step_constant=1.0,
            loss_gap=1.0, beta1=0.9, beta0=1.0)
        # sqrt(t+1)/C >= 2L from t + 1 >= 4 here
        vals = [theorem1_bound(inputs, t) for t in range(4, 200)]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ConvergenceBoundInputs(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ConvergenceBoundInputs(1.0, 1.0, 1.0, 1.0, -0.5)
        inputs = ConvergenceBoundInputs(1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            theorem1_bound(inputs, -1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_divergence(self):
        inputs = ConvergenceBoundInputs(
            smoothness=1e300, grad_bound=1e10, sigma2=1.0, step_constant=1.0,
            loss_gap=1.0, beta1=0.9, beta0=1.0)
        with pytest.raises(DivergenceError, match="bound at horizon 100 is not finite"):
            theorem1_bound(inputs, 99)


class TestStepRule:
    def test_saturates_at_inverse_smoothness(self):
        assert theorem_step_size(2.0, 10.0, 4) == 0.25  # 1 / (2 L)

    def test_scales_with_horizon(self):
        assert theorem_step_size(0.1, 1.0, 400) == pytest.approx(0.05)
        assert theorem_step_size(0.1, 1.0, 1600) == pytest.approx(0.025)


class TestEmpiricalRate:
    @pytest.fixture()
    def oracle(self):
        base = QuadraticModel([0.0, 0.0], np.diag([1.0, 4.0]))
        return AdditiveNoiseOracle(base, 1.0)

    def test_slope_is_negative_and_bound_holds(self, oracle):
        est = empirical_rate(oracle, [3.0, -2.0], [100, 1000], list(range(6)),
                             smoothness=4.0, step_constant=1.0)
        assert est.slope < 0
        loss0, _ = oracle.full_gradient(np.array([3.0, -2.0]))
        inputs = ConvergenceBoundInputs(
            smoothness=4.0, grad_bound=est.measured_grad_bound, sigma2=1.0,
            step_constant=1.0, loss_gap=loss0, beta1=0.9, beta0=1.0)
        assert np.all(est.mean_min_grad_sq <= est.bound_values(inputs))

    def test_deterministic_case_respects_bound(self):
        # zero noise on a strongly convex quadratic: the empirical minimum
        # must sit below the bound at every horizon
        base = QuadraticModel([0.0, 0.0], np.diag([1.0, 4.0]))
        oracle = AdditiveNoiseOracle(base, 0.0)
        est = empirical_rate(oracle, [3.0, -2.0], [100, 400], [0],
                             smoothness=4.0, step_constant=1.0)
        loss0, _ = oracle.full_gradient(np.array([3.0, -2.0]))
        inputs = ConvergenceBoundInputs(
            smoothness=4.0, grad_bound=est.measured_grad_bound, sigma2=0.0,
            step_constant=1.0, loss_gap=loss0, beta1=0.9, beta0=1.0)
        assert np.all(est.mean_min_grad_sq <= est.bound_values(inputs))

    def test_rosenbrock_bound_with_measured_constants(self):
        # measured (not assumed) gradient bound on the visited region; the
        # smoothness constant used by the step rule must dominate the
        # curvature actually encountered, which we verify post hoc
        L = 1500.0
        oracle = AdditiveNoiseOracle(RosenbrockProblem(), 0.25)
        theta0 = np.array([-1.2, 1.0])
        est = empirical_rate(oracle, theta0, [100, 1000], [0, 1, 2, 3, 4],
                             smoothness=L, step_constant=1.0)
        loss0, _ = oracle.full_gradient(theta0)
        inputs = ConvergenceBoundInputs(
            smoothness=L, grad_bound=est.measured_grad_bound, sigma2=0.25,
            step_constant=1.0, loss_gap=loss0, beta1=0.9, beta0=1.0)
        assert np.all(est.mean_min_grad_sq <= est.bound_values(inputs))

    def test_restarts_use_per_horizon_steps(self, oracle):
        est = empirical_rate(oracle, [1.0, 1.0], [64, 256], [0, 1],
                             smoothness=4.0, step_constant=0.8)
        assert est.step_sizes[0] == theorem_step_size(4.0, 0.8, 64)
        assert est.step_sizes[1] == theorem_step_size(4.0, 0.8, 256)

    def test_determinism(self, oracle):
        a = empirical_rate(oracle, [1.0, 1.0], [50, 200], [0, 1], smoothness=4.0)
        b = empirical_rate(oracle, [1.0, 1.0], [50, 200], [0, 1], smoothness=4.0)
        np.testing.assert_array_equal(a.mean_min_grad_sq, b.mean_min_grad_sq)
        assert a.slope == b.slope

    def test_needs_two_horizons(self, oracle):
        with pytest.raises(ValueError):
            empirical_rate(oracle, [1.0, 1.0], [100], [0], smoothness=4.0)

    @pytest.mark.parametrize("horizons,seeds", [
        ([100, 0], [0]),
        ([10.7, 100], [0]),
        ([True, 100], [0]),
        ([50, 100], []),
    ], ids=["zero_horizon", "float_horizon", "bool_horizon", "no_seeds"])
    def test_rejects_malformed_horizons_and_seeds(self, oracle, horizons, seeds):
        with pytest.raises(ValueError):
            empirical_rate(oracle, [1.0, 1.0], horizons, seeds, smoothness=4.0)


def _reference_rate(oracle, theta0, horizons, seeds, smoothness, step_constant=1.0,
                    beta0=1.0, beta1=0.9):
    """The per-seed loop that ``empirical_rate`` ran before it stacked the
    seeds: one ``(dim,)`` PNM run per (horizon, seed)."""
    theta0 = np.asarray(theta0, dtype=np.float64)
    mins = np.empty(len(horizons))
    g_max = 0.0
    steps = []
    for i, T in enumerate(horizons):
        eta0 = theorem_step_size(smoothness, step_constant, T)
        steps.append(eta0)
        acc = np.zeros(T)
        for seed in seeds:
            rng = RngStream(seed).spawn(i)
            opt = Pnm(dim=theta0.shape[0], lr=eta0 * pn_normalization(beta0),
                      beta0=beta0, beta1=beta1)
            theta = theta0.copy()
            curve = np.empty(T)
            for k in range(T):
                _, full = oracle.full_gradient(theta)
                curve[k] = full @ full
                theta = opt.step(theta, oracle.stochastic_gradient(theta, rng))
            acc += curve
            g_max = max(g_max, math.sqrt(float(curve.max())))
        mins[i] = acc.min() / len(seeds)
    slope = float(np.polyfit(np.log(horizons), np.log(mins), 1)[0])
    return mins, slope, g_max, steps


class _ShapeSpy:
    """Passes every call on to ``oracle``, records theta's shape on each
    loss-free gradient and forwards the oracle's noise map."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.noise = oracle.noise
        self.shapes = []

    def gradient(self, theta):
        self.shapes.append(theta.shape)
        return self.oracle.gradient(theta)


def _nondiagonal_setting():
    rng = RngStream(90)
    A = rng.standard_normal((5, 5))
    base = QuadraticModel(rng.standard_normal(5), A @ A.T + np.eye(5), f0=0.4)
    B = rng.standard_normal((5, 5))
    oracle = AdditiveNoiseOracle(base, B @ B.T)
    return oracle, rng.standard_normal(5), base.lambda_max


SETTINGS = {
    "isotropic_quadratic": lambda: (
        AdditiveNoiseOracle(QuadraticModel([0.0, 0.0], np.diag([1.0, 4.0])), 1.0),
        [3.0, -2.0], 4.0),
    # started next to the minimum, the largest gradient is the noise's,
    # late in the run and different per seed
    "noise_near_minimum": lambda: (
        AdditiveNoiseOracle(QuadraticModel([0.0, 0.0], np.diag([1.0, 4.0])), 1.0),
        [0.01, -0.01], 4.0),
    "zero_noise_quadratic": lambda: (
        QuadraticModel([0.0, 0.0], np.diag([1.0, 4.0])), [3.0, -2.0], 4.0),
    "nondiagonal_5d_full_covariance": _nondiagonal_setting,
    "rosenbrock": lambda: (
        AdditiveNoiseOracle(RosenbrockProblem(), 0.25), [-1.2, 1.0], 1500.0),
}


class TestSeedStacking:
    """``empirical_rate`` steps all seeds of a horizon as one stacked state
    and still reproduces the per-seed loop bit for bit."""

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_matches_per_seed_loop(self, name):
        oracle, theta0, L = SETTINGS[name]()
        horizons, seeds = [60, 250, 400], [0, 3, 11, 5]
        spy = _ShapeSpy(oracle)
        est = empirical_rate(spy, theta0, horizons, seeds, smoothness=L,
                             step_constant=0.8, beta0=0.7, beta1=0.85)
        mins, slope, g_max, steps = _reference_rate(
            oracle, theta0, horizons, seeds, L, step_constant=0.8, beta0=0.7, beta1=0.85)
        assert est.mean_min_grad_sq.tobytes() == mins.tobytes()
        assert est.slope == slope
        assert est.measured_grad_bound == g_max
        assert est.step_sizes == steps
        # one gradient per step, on every seed at once
        assert spy.shapes == [(len(seeds), len(theta0))] * sum(horizons)

    def test_divergence_names_first_diverging_seed(self):
        # Unstable quadratic started at its minimum: only the noise pushes
        # the iterates out, so the seeds leave the 1e8 box at different
        # steps; seed 0, listed first, is not among the earliest.
        oracle = AdditiveNoiseOracle(QuadraticModel([0.0], [[4.0]]), 1.0)
        seeds = [0, 2, 1, 4]
        eta0 = theorem_step_size(0.01, 20.0, 60)
        first = [_divergence_step(oracle, eta0, 60, seed) for seed in seeds]
        step = min(first)
        culprit = seeds[first.index(step)]
        assert culprit != seeds[0]
        with pytest.raises(DivergenceError) as info:
            empirical_rate(oracle, [0.0], [60, 61], seeds, smoothness=0.01,
                           step_constant=20.0)
        assert str(info.value) == (
            f"PNM diverged at step {step} for seed {culprit} (horizon 60, eta0 {eta0:g})")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gradient_norm_is_divergence(self):
        # The iterates stay tiny; only ||grad||^2 ~ 4e600 leaves the floats.
        oracle = QuadraticModel([0.0, 0.0], np.diag([1.0, 1e300]))
        with pytest.raises(DivergenceError,
                           match=r"at step 0 for seed 3 \(horizon 7, .*norm overflows"):
            empirical_rate(oracle, [3.0, -2.0], [7, 8], [3, 1], smoothness=1e300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_earlier_norm_overflow_is_named_before_iterate_divergence(self):
        # ||grad||^2 ~ 1e320 overflows at step 0; the step, ten times too
        # large for the 1e160 eigenvalue, takes the iterates past 1e8 only
        # at step 27.
        oracle = QuadraticModel([0.0, 0.0], np.diag([1.0, 1e160]))
        with pytest.raises(DivergenceError,
                           match=r"at step 0 for seed 3 \(horizon 30, .*norm overflows"):
            empirical_rate(oracle, [1.0, 1.0], [30, 31], [3, 1], smoothness=1e159)


def _divergence_step(oracle, eta0, horizon, seed):
    """First step at which a lone ``(1,)`` PNM run from 0 on the first
    horizon's stream leaves the 1e8 box."""
    rng = RngStream(seed).spawn(0)
    opt = Pnm(dim=1, lr=eta0 * pn_normalization(1.0), beta0=1.0, beta1=0.9)
    theta = np.zeros(1)
    for k in range(horizon):
        theta = opt.step(theta, oracle.stochastic_gradient(theta, rng))
        if not np.abs(theta).max() <= 1e8:
            return k
    raise AssertionError(f"seed {seed} stays bounded for {horizon} steps")
