import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnmkit import optim
from pnmkit.core import RngStream
from pnmkit.noise import (
    amplification_factor,
    default_burn_in,
    estimate_gradient_noise_covariance,
    pair_amplification_ratio,
    pnm_buffer_correlation,
    single_buffer_stationary_variance,
    _simulate_buffers,
)
from pnmkit.optim import Pnm
from pnmkit.problems import FiniteDataset, LinearRegressionProblem


class TestAmplificationFactor:
    def test_default_setting(self):
        assert amplification_factor(1.0) == 5.0

    def test_identity_at_zero(self):
        assert amplification_factor(0.0) == 1.0

    def test_momentum_recovery_point(self):
        # (10/19)^2 + (9/19)^2 = 181/361
        assert amplification_factor(-0.9 / 1.9) == pytest.approx(181.0 / 361.0)
        assert amplification_factor(-0.9 / 1.9) == pytest.approx(0.501385, abs=1e-6)

    def test_minimum_at_minus_half(self):
        assert amplification_factor(-0.5) == 0.5

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-20, 20, allow_nan=False))
    def test_symmetry_about_minus_half(self, x):
        assert amplification_factor(-0.5 + x) == pytest.approx(
            amplification_factor(-0.5 - x), rel=1e-12)
        assert amplification_factor(x) >= 0.5

    def test_one_home_in_optim(self):
        assert amplification_factor is optim.amplification_factor
        for beta0 in (-0.9 / 1.9, -0.5, 0.0, 0.3, 1.0, 7.25):
            # The normalizer is the factor's square root, bit for bit.
            assert optim.pn_normalization(beta0) == math.sqrt((1.0 + beta0) ** 2 + beta0 ** 2)
            assert optim.pn_normalization(beta0) == math.sqrt(amplification_factor(beta0))

    # 1e155 overflows a square; 1.2e154 squares finitely but the sum overflows.
    @pytest.mark.parametrize("beta0", [1e155, -1e155, 1.2e154])
    def test_overflow_names_beta0(self, beta0):
        for fn in (amplification_factor, optim.pn_normalization):
            with pytest.raises(ValueError, match="beta0 = "):
                fn(beta0)


class TestBufferSimulation:
    def test_matches_optimizer_exactly(self):
        # The IIR-filter simulation must replay the optimizer's own buffer
        # recursion on the same noise stream.
        m_sim, m_prev_sim = _simulate_buffers(0.9, 300, 2, RngStream(11))
        opt = Pnm(dim=2, lr=0.1, beta0=1.0, beta1=0.9)
        theta = np.zeros(2)
        rng = RngStream(11)
        for t in range(300):
            grad = rng.standard_normal(theta.shape)
            prev_before = opt.m.copy()
            theta = opt.step(theta, grad)
            np.testing.assert_allclose(opt.m, m_sim[t], atol=1e-14)
            np.testing.assert_allclose(prev_before, m_prev_sim[t], atol=1e-14)

    def test_single_buffer_variance_closed_form(self):
        # geometric series: (1 - beta)^2 / (1 - beta^2), beta = beta1^2
        assert single_buffer_stationary_variance(0.9) == pytest.approx(0.19 / 1.81)
        assert single_buffer_stationary_variance(0.9) == pytest.approx(0.104972, abs=1e-6)

    def test_estimated_buffer_variance(self):
        # The simulated buffer's post-burn-in variance sits within 4
        # batch-means standard errors of the geometric-series closed form.
        m, _ = _simulate_buffers(0.9, 300_000, 1, RngStream(21))
        tail = m[default_burn_in(0.9):, 0]
        block_vars = tail[:tail.size // 100 * 100].reshape(100, -1).var(axis=1)
        se = block_vars.std(ddof=1) / math.sqrt(100)
        assert abs(tail.var() - single_buffer_stationary_variance(0.9)) < 4 * se


class TestPairRatio:
    @pytest.mark.parametrize("beta0", [0.5, 1.0, 2.0])
    def test_ratio_matches_amplification(self, beta0):
        ratio, se = pair_amplification_ratio(0.9, beta0, 200_000, RngStream(31))
        assert abs(ratio - amplification_factor(beta0)) < max(4 * se, 0.02 * amplification_factor(beta0))

    def test_beta0_zero_ratio_one(self):
        ratio, se = pair_amplification_ratio(0.9, 0.0, 200_000, RngStream(32))
        assert abs(ratio - 1.0) < 4 * se + 1e-9

    @pytest.mark.parametrize("beta1", [1.0, -1.0, 1.5])
    def test_beta1_outside_unit_interval_rejected(self, beta1):
        # beta1 = +-1 used to end in a ZeroDivisionError traceback.
        with pytest.raises(ValueError, match="beta1"):
            pair_amplification_ratio(beta1, 1.0, 200, RngStream(0))

    def test_buffers_uncorrelated(self):
        assert abs(pnm_buffer_correlation(0.9, 1_000_000, RngStream(33))) < 0.01


class TestNoiseCovariance:
    @pytest.fixture()
    def problem(self):
        rng = RngStream(40)
        X = rng.standard_normal((400, 6)) * np.geomspace(0.5, 2.5, 6)
        y = X @ rng.standard_normal(6) + rng.standard_normal(400)
        return LinearRegressionProblem(FiniteDataset(X, y))

    def test_full_batch_degenerate(self, problem):
        est = estimate_gradient_noise_covariance(
            problem, np.zeros(6), 400, 10, RngStream(41))
        assert est.degenerate
        np.testing.assert_array_equal(est.matrix, 0.0)

    def test_hessian_proportionality(self, problem):
        theta_star = np.linalg.solve(
            problem.dataset.features.T @ problem.dataset.features,
            problem.dataset.features.T @ np.asarray(problem.dataset.labels, dtype=float))
        est = estimate_gradient_noise_covariance(
            problem, theta_star, 20, 2000, RngStream(42))
        r = np.corrcoef(np.diag(est.matrix), np.diag(problem.hessian()))[0, 1]
        assert r > 0.9

    def test_inverse_batch_scaling(self, problem):
        theta = np.zeros(6)
        big = estimate_gradient_noise_covariance(problem, theta, 40, 2500, RngStream(43))
        small = estimate_gradient_noise_covariance(problem, theta, 20, 2500, RngStream(44))
        assert small.trace / big.trace == pytest.approx(2.0, rel=0.1)

    def test_sample_count_validation(self, problem):
        with pytest.raises(ValueError):
            estimate_gradient_noise_covariance(problem, np.zeros(6), 20, 1, RngStream(0))
