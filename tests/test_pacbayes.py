import math

import numpy as np
import pytest

from pnmkit.core import RngStream
from pnmkit.pacbayes import (
    PacBayesSetting,
    critical_ratio,
    kl_minimizing_gamma,
    kl_q_gamma,
    kl_q_gamma_grad,
    optimal_gamma,
    pac_bound,
)
from reference import GaussianDist, gaussian_kl


def _random_setting(rng):
    return PacBayesSetting(
        eta=float(rng.uniform(1e-4, 0.1)),
        batch_size=int(rng.integers(8, 512)),
        dataset_size=int(rng.integers(100, 100_000)),
        lam=float(rng.uniform(1e-5, 1e-2)),
        dim=int(rng.integers(1, 2000)),
        delta=float(rng.uniform(0.01, 0.2)),
        theta_norm_sq=float(rng.uniform(0.0, 50.0)),
    )


class TestGaussianKl:
    def test_identical_distributions(self):
        q = GaussianDist([1.0, -2.0], [0.5, 2.0])
        p = GaussianDist([1.0, -2.0], [0.5, 2.0])
        assert gaussian_kl(q, p) == pytest.approx(0.0, abs=1e-14)

    def test_one_dimensional_closed_form(self):
        # 0.5 (sigma^2 + mu^2 - 1 - ln sigma^2) with sigma = 1, mu = 1
        q = GaussianDist([1.0], [1.0])
        p = GaussianDist([0.0], [1.0])
        assert gaussian_kl(q, p) == pytest.approx(0.5, rel=1e-12)

    def test_one_dimensional_monte_carlo(self):
        # E_q[log q - log p] estimated by sampling is the independent
        # cross-check for the closed form.
        q_mean, q_var, p_var = 0.7, 1.8, 0.9
        q = GaussianDist([q_mean], [q_var])
        p = GaussianDist([0.0], [p_var])
        z = RngStream(2).standard_normal(200_000) * math.sqrt(q_var) + q_mean
        log_q = -0.5 * ((z - q_mean) ** 2 / q_var + math.log(2 * math.pi * q_var))
        log_p = -0.5 * (z ** 2 / p_var + math.log(2 * math.pi * p_var))
        mc = float(np.mean(log_q - log_p))
        se = float(np.std(log_q - log_p) / math.sqrt(z.size))
        assert abs(gaussian_kl(q, p) - mc) < 5 * se

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            q = GaussianDist(rng.standard_normal(n), rng.uniform(0.1, 5.0, n))
            p = GaussianDist(rng.standard_normal(n), rng.uniform(0.1, 5.0, n))
            assert gaussian_kl(q, p) >= -1e-12

    def test_non_spd_rejected(self):
        # Only a positive diagonal as long as the mean is a covariance.
        for cov in ([1.0, 0.0], [1.0, -2.0], 1.0, [[1.0, 0.0], [0.0, 1.0]], [1.0]):
            with pytest.raises(ValueError, match="covariance"):
                GaussianDist([0.0, 0.0], cov)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_kl(GaussianDist([0.0], [1.0]),
                        GaussianDist([0.0, 0.0], [1.0, 1.0]))


class TestKlQGamma:
    def test_matches_gaussian_kl_specialization(self):
        # The gamma-family KL must agree with the generic Gaussian KL on
        # N(theta*, gamma (eta/2B) I) vs N(0, lam^-1 I) to 1e-10.
        rng = np.random.default_rng(7)
        for _ in range(25):
            setting = _random_setting(rng)
            n = min(setting.dim, 40)
            setting = PacBayesSetting(
                setting.eta, setting.batch_size, setting.dataset_size,
                setting.lam, n, setting.delta, setting.theta_norm_sq)
            gamma = float(rng.uniform(0.5, 50.0))
            theta = np.zeros(n)
            theta[0] = math.sqrt(setting.theta_norm_sq)
            q = GaussianDist(theta, gamma * setting.sigma_scale * np.ones(n))
            p = GaussianDist(np.zeros(n), (1.0 / setting.lam) * np.ones(n))
            assert kl_q_gamma(gamma, setting) == pytest.approx(
                gaussian_kl(q, p), abs=1e-10, rel=1e-10)

    def test_zero_when_posterior_equals_prior(self):
        # gamma s = lam^-1 and theta* = 0 collapse Q onto P
        setting = PacBayesSetting(0.01, 50, 1000, 0.5, 12, 0.05, 0.0)
        gamma = 1.0 / (setting.lam * setting.sigma_scale)
        assert kl_q_gamma(gamma, setting) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decreasing_on_guaranteed_interval(self):
        setting = PacBayesSetting(0.001, 128, 50_000, 1e-4, 100, 0.05, 10.0)
        top = 2 * setting.batch_size * setting.lam / setting.eta
        grid = np.linspace(1.0, top, 200)
        vals = [kl_q_gamma(g, setting) for g in grid]
        assert np.all(np.diff(vals) < 0)

    def test_gamma_domain(self):
        setting = PacBayesSetting(0.001, 128, 1000, 1e-4, 2, 0.05)
        with pytest.raises(ValueError):
            kl_q_gamma(0.0, setting)


class TestKlGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            setting = _random_setting(rng)
            gamma = float(rng.uniform(0.5, 40.0))
            h = 1e-6 * gamma
            fd = (kl_q_gamma(gamma + h, setting) - kl_q_gamma(gamma - h, setting)) / (2 * h)
            grad = kl_q_gamma_grad(gamma, setting)
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_zero_at_kl_minimizing_gamma(self):
        setting = PacBayesSetting(0.001, 128, 1000, 1e-4, 7, 0.1, 3.0)
        gstar = kl_minimizing_gamma(setting)
        assert kl_q_gamma_grad(gstar, setting) == pytest.approx(0.0, abs=1e-15)
        # and it is a minimum on a surrounding grid
        for g in np.geomspace(gstar / 10, gstar * 10, 31):
            assert kl_q_gamma(gstar, setting) <= kl_q_gamma(g, setting) + 1e-12

    def test_closed_form_value(self):
        # n = 2, lam * eta / (2B) = 1e-4 * 0.001 / 256; at gamma = 1 the
        # derivative is (n/2)(lam eta / (2B) - 1) -- the tiny positive term
        # barely offsets -1.
        setting = PacBayesSetting(0.001, 128, 1000, 1e-4, 2, 0.1)
        expected = 1.0 * (1e-4 * 0.001 / 256.0 - 1.0)
        assert kl_q_gamma_grad(1.0, setting) == pytest.approx(expected, rel=1e-12)


class TestPacBound:
    def test_hand_value(self):
        # 4 sqrt(ln(4) / 2) computed by hand
        assert pac_bound(0.0, 2, 0.999999) == pytest.approx(
            4 * math.sqrt(math.log(4.0) / 2.0), rel=1e-5)
        assert pac_bound(0.0, 2, 1.0 - 1e-12) == pytest.approx(3.330218, abs=1e-4)

    def test_monotone_in_kl(self):
        vals = [pac_bound(k, 1000, 0.05) for k in (0.0, 1.0, 5.0, 50.0)]
        assert np.all(np.diff(vals) > 0)

    def test_vanishes_with_dataset_size(self):
        vals = [pac_bound(2.0, n, 0.05) for n in (10 ** 3, 10 ** 6, 10 ** 9)]
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 0.01

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            pac_bound(-1.0, 100, 0.05)
        with pytest.raises(ValueError):
            pac_bound(0.0, 1, 0.05)
        with pytest.raises(ValueError):
            pac_bound(0.0, 100, 1.0)


class TestCriticalRatio:
    def test_reference_setting(self):
        assert critical_ratio(0.001, 128, 1e-4) == 0.0390625

    def test_boundary(self):
        assert critical_ratio(0.0256, 128, 1e-3) == pytest.approx(0.1)
        assert critical_ratio(2 * 128 * 1e-4, 128, 1e-4) == 1.0

    def test_halves_with_batch_doubling(self):
        assert critical_ratio(0.001, 256, 1e-4) == critical_ratio(0.001, 128, 1e-4) / 2

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            critical_ratio(0.001, 0, 1e-4)


class TestOptimalGamma:
    def test_reference_setting(self):
        setting = PacBayesSetting(0.001, 128, 1000, 1e-4, 2, 0.1)
        choice = optimal_gamma(setting)
        assert choice.gamma == pytest.approx(25.6)
        assert choice.improvement_predicted

    def test_degenerate_ratio(self):
        # eta / (2 B lam) = 0.3 / 0.2 = 1.5 >= 1: no improvement predicted
        setting = PacBayesSetting(0.3, 1, 1000, 0.1, 2, 0.1)
        choice = optimal_gamma(setting)
        assert choice.gamma == 1.0
        assert not choice.improvement_predicted


class TestBoundMonotonicity:
    def test_amplification_always_tightens_bound_below_critical_ratio(self):
        # For random settings with ratio < 1 (and lam < 1), every gamma in
        # (1, 2 B lam / eta] must yield a strictly smaller bound than
        # gamma = 1, checked on a 100-point grid.
        rng = np.random.default_rng(9)
        found = 0
        while found < 20:
            setting = _random_setting(rng)
            if critical_ratio(setting.eta, setting.batch_size, setting.lam) >= 1.0:
                continue
            found += 1
            top = optimal_gamma(setting).gamma
            base = pac_bound(kl_q_gamma(1.0, setting), setting.dataset_size, setting.delta)
            grid = np.linspace(1.0, top, 100)[1:]
            for g in grid:
                assert pac_bound(kl_q_gamma(g, setting), setting.dataset_size,
                                 setting.delta) < base
