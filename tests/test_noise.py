import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnmkit import noise, optim
from pnmkit.core import RngStream
from pnmkit.noise import (
    amplification_factor,
    default_burn_in,
    estimate_gradient_noise_covariance,
    pair_amplification_ratio,
    pair_amplification_ratios,
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
    @pytest.mark.parametrize("beta1, steps", [(0.9, 1), (0.9, 2), (0.9, 30_001), (0.9, 30_002),
                                              (0.99, 400_000), (0.0, 5_001)])
    def test_matches_lfilter_per_parity(self, beta1, steps):
        from scipy.signal import lfilter

        m, m_prev = _simulate_buffers(beta1, steps, 2, RngStream(12))
        xi, beta = RngStream(12).standard_normal((steps, 2)), beta1 * beta1
        want = np.empty_like(xi)
        for parity in (0, 1):
            want[parity::2] = lfilter([1.0 - beta], [1.0, -beta], xi[parity::2], axis=0)
        assert m.tobytes() == want.tobytes()
        assert m_prev.tobytes() == np.vstack([np.zeros((1, 2)), want[:-1]]).tobytes()

    def test_two_views_of_one_buffer(self):
        m, m_prev = _simulate_buffers(0.9, 1_001, 3, RngStream(13))
        assert np.shares_memory(m, m_prev) and m.shape == m_prev.shape == (1_001, 3)
        assert m_prev[0].tobytes() == np.zeros(3).tobytes()
        assert m_prev[1:].tobytes() == m[:-1].tobytes()

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


def _reference_ratios(beta1, beta0_values, steps, rng, dim):
    """The whole-array computation that ``pair_amplification_ratios`` ran
    before it kept its deviations in one scratch series: numpy's ``var`` on
    the buffers and on a pair built with a series-length ``beta0 m_prev``."""
    burn_in = min(default_burn_in(beta1), steps // 2)
    n_blocks = max(10, min(100, (steps - burn_in) // 1000))
    m, m_prev = _simulate_buffers(beta1, steps, dim, rng)
    m_tail, prev_tail = m[burn_in:], m_prev[burn_in:]
    usable = ((steps - burn_in) // n_blocks) * n_blocks
    m_var = m_tail.var(axis=0).mean()
    m_block_vars = m_tail[:usable].reshape(n_blocks, -1, dim).var(axis=1).mean(axis=1)
    results = []
    for beta0 in beta0_values:
        pair = (1.0 + beta0) * m_tail - beta0 * prev_tail
        ratio = float(pair.var(axis=0).mean() / m_var)
        pb = pair[:usable].reshape(n_blocks, -1, dim)
        block_ratios = pb.var(axis=1).mean(axis=1) / m_block_vars
        results.append((ratio, float(block_ratios.std(ddof=1) / math.sqrt(n_blocks))))
    return results


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

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_rejected(self, dim):
        # dim 0 used to warn "Mean of empty slice", dim -1 to fail in numpy.
        with pytest.raises(ValueError, match="dim must be >= 1"):
            pair_amplification_ratio(0.9, 1.0, 2_000, RngStream(0), dim=dim)


    def test_one_simulation_serves_every_beta0(self):
        beta0s = [0.5, 1.0, 2.0, -0.5]
        together = pair_amplification_ratios(0.9, beta0s, 20_001, RngStream(33), 2)
        alone = [pair_amplification_ratio(0.9, b0, 20_001, RngStream(33), 2) for b0 in beta0s]
        assert together == alone
        assert pair_amplification_ratios(0.9, iter(beta0s), 20_001, RngStream(33), 2) == alone

    def test_any_bad_beta0_fails_before_the_draw(self, monkeypatch):
        monkeypatch.setattr(noise, "_simulate_buffers",
                            lambda *a: pytest.fail("simulated before failing"))
        with pytest.raises(ValueError, match="beta0 = "):
            pair_amplification_ratios(0.9, [1.0, 1e155], 2_000, RngStream(0))

    @pytest.mark.parametrize("beta1, steps, dim", [(0.9, 40_001, 1), (0.9, 40_001, 3),
                                                   (0.0, 2_001, 3), (0.99, 123_457, 1)])
    def test_matches_whole_array_reference(self, beta1, steps, dim):
        beta0s = [0.5, 1.0, 2.0, -0.5]
        got = pair_amplification_ratios(beta1, beta0s, steps, RngStream(35), dim)
        want = _reference_ratios(beta1, beta0s, steps, RngStream(35), dim)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_memory_stays_near_two_series(self, traced_peak):
        # At the benchmark's 400,000 steps of three beta0 values, the buffer
        # and the scratch are each one series of steps x dim floats (3.05
        # MiB); beside them only slices and batch sums. A whole-series
        # temporary (np.var's deviations, beta0 * m_prev, a copy of the
        # buffers) or a pair per beta0 would pass 1 MiB over the two.
        steps = 400_000
        peak = traced_peak(lambda: pair_amplification_ratios(0.9, [0.5, 1.0, 2.0], steps,
                                                             RngStream(34)))
        assert peak < 2 * 8 * steps + (1 << 20)


class TestNoiseCovariance:
    @pytest.fixture()
    def problem(self):
        rng = RngStream(40)
        X = rng.standard_normal((400, 6)) * np.geomspace(0.5, 2.5, 6)
        y = X @ rng.standard_normal(6) + rng.standard_normal(400)
        return LinearRegressionProblem(FiniteDataset(X, y))

    def test_full_batch_degenerate(self, problem):
        # Every full-size minibatch is the full gradient, so no noise is left.
        est = estimate_gradient_noise_covariance(
            problem, np.zeros(6), 400, 10, RngStream(41))
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
