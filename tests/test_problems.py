import numpy as np
import pytest

from pnmkit.core import DimensionMismatchError, RngStream
from pnmkit.problems import (
    AdditiveNoiseOracle,
    FiniteDataset,
    LabelNoiseSpec,
    LinearRegressionProblem,
    LogisticRegressionProblem,
    PureNoiseOracle,
    QuadraticModel,
    RosenbrockProblem,
    TinyMlpProblem,
    apply_label_noise,
    fd_gradient_check,
    load_csv_dataset,
    make_two_moons,
    rosenbrock_eval,
)


def _random_quadratic(rng, dim):
    A = rng.standard_normal((dim, dim))
    H = A @ A.T + dim * np.eye(dim)
    return QuadraticModel(rng.standard_normal(dim), H, f0=0.3)


class TestQuadratic:
    def test_minimum(self):
        m = QuadraticModel([1.0, -2.0], [[2.0, 0.0], [0.0, 3.0]], f0=0.7)
        loss, grad = m.loss_and_gradient(m.theta_star)
        assert loss == 0.7
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_hand_value(self):
        # H = I, displacement (3, 4): loss = (9 + 16) / 2
        m = QuadraticModel([0.0, 0.0], np.eye(2))
        loss, grad = m.loss_and_gradient([3.0, 4.0])
        assert loss == pytest.approx(12.5)
        np.testing.assert_allclose(grad, [3.0, 4.0])

    def test_fd_agreement(self):
        rng = RngStream(3)
        m = _random_quadratic(rng, 4)
        for _ in range(20):
            theta = m.theta_star + rng.standard_normal(4)
            assert fd_gradient_check(m, theta, h=1e-5) < 1e-9

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError):
            QuadraticModel([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_indefinite_hessian_rejected(self):
        with pytest.raises(ValueError):
            QuadraticModel([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])

    def test_dim_mismatch(self):
        m = QuadraticModel([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatchError):
            m.loss_and_gradient([1.0, 2.0, 3.0])


class TestRosenbrock:
    def test_global_minimum(self):
        loss, grad = rosenbrock_eval([1.0, 1.0])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_origin(self):
        # f(0,0) = 1; df/dx = -2(1-x) - 400x(y-x^2) = -2 at the origin
        loss, grad = rosenbrock_eval([0.0, 0.0])
        assert loss == 1.0
        np.testing.assert_allclose(grad, [-2.0, 0.0])

    def test_fd_agreement(self):
        prob = RosenbrockProblem()
        rng = RngStream(4)
        for _ in range(20):
            theta = rng.standard_normal(2) * 1.5
            assert fd_gradient_check(prob, theta, h=1e-6) < 1e-6


class _LinearOracle(PureNoiseOracle):
    coef = np.array([2.0, -3.0, 0.5])

    def full_gradient(self, theta):
        return float(self.coef @ theta), self.coef.copy()


class TestFdGradientCheck:
    def test_linear_function_exact(self):
        # quadratic FD error vanishes for a linear function
        assert fd_gradient_check(_LinearOracle(3), np.array([1.0, 2.0, 3.0])) < 1e-10

    def test_planted_fault_detected(self):
        class Corrupted(QuadraticModel):
            def full_gradient(self, theta):
                loss, grad = self.loss_and_gradient(theta)
                grad = grad.copy()
                grad[0] *= 1.10
                return loss, grad

        m = Corrupted([0.0, 0.0], np.eye(2))
        err = fd_gradient_check(m, np.array([1.0, 1.0]), h=1e-5)
        assert 0.05 < err < 0.15


class TestTinyMlp:
    @pytest.fixture()
    def problem(self):
        data = make_two_moons(60, 0.15, RngStream(12))
        return TinyMlpProblem(data, hidden=8)

    def test_uniform_softmax_at_zero_weights(self, problem):
        loss, _ = problem.full_gradient(np.zeros(problem.dim))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_fd_agreement_at_random_points(self, problem):
        rng = RngStream(5)
        for _ in range(20):
            theta = 0.6 * rng.standard_normal(problem.dim)
            assert fd_gradient_check(problem, theta, h=1e-5) < 1e-5

    def test_sample_duplication_invariance(self, problem):
        data = problem.dataset
        doubled = FiniteDataset(
            np.vstack([data.features, data.features]),
            np.concatenate([data.labels, data.labels]),
        )
        doubled_prob = TinyMlpProblem(doubled, hidden=8)
        theta = 0.3 * RngStream(6).standard_normal(problem.dim)
        l1, g1 = problem.full_gradient(theta)
        l2, g2 = doubled_prob.full_gradient(theta)
        assert l1 == pytest.approx(l2, rel=1e-12)
        np.testing.assert_allclose(g1, g2, atol=1e-14)

    def test_error_rate(self, problem):
        theta = np.zeros(problem.dim)
        err = problem.error_rate(theta, problem.dataset)
        assert 0.0 <= err <= 1.0


class TestLogisticRegression:
    def test_fd_agreement(self):
        rng = RngStream(8)
        X = rng.standard_normal((40, 3))
        y = (X[:, 0] + 0.2 * rng.standard_normal(40) > 0).astype(np.int64)
        prob = LogisticRegressionProblem(FiniteDataset(X, y))
        for _ in range(20):
            theta = rng.standard_normal(3)
            assert fd_gradient_check(prob, theta, h=1e-5) < 1e-7

    def test_label_domain_enforced(self):
        with pytest.raises(ValueError):
            LogisticRegressionProblem(FiniteDataset(np.ones((3, 1)), [0, 1, 2]))


class TestLinearRegression:
    def test_hessian_is_gram_matrix(self):
        rng = RngStream(9)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        prob = LinearRegressionProblem(FiniteDataset(X, y))
        np.testing.assert_allclose(prob.hessian(), X.T @ X / 30, atol=1e-12)

    def test_fd_agreement(self):
        rng = RngStream(10)
        X = rng.standard_normal((25, 3))
        y = rng.standard_normal(25)
        prob = LinearRegressionProblem(FiniteDataset(X, y))
        for _ in range(20):
            theta = rng.standard_normal(3)
            assert fd_gradient_check(prob, theta, h=1e-6) < 1e-8


class TestMinibatch:
    @pytest.fixture()
    def problem(self):
        rng = RngStream(20)
        X = rng.standard_normal((100, 5))
        y = X @ rng.standard_normal(5) + 0.2 * rng.standard_normal(100)
        return LinearRegressionProblem(FiniteDataset(X, y))

    def test_full_batch_reproduces_full_gradient(self, problem):
        theta = RngStream(21).standard_normal(5)
        _, full = problem.full_gradient(theta)
        sample = problem.minibatch_gradient(theta, 100, RngStream(22))
        np.testing.assert_array_equal(sample.gradient, full)

    def test_unbiasedness(self, problem):
        # Mean of many minibatch gradients must sit within 5 standard
        # errors of the full gradient, per coordinate.
        theta = RngStream(23).standard_normal(5)
        _, full = problem.full_gradient(theta)
        rng = RngStream(24)
        n_draws = 100_000
        grads = np.empty((n_draws, 5))
        for i in range(n_draws):
            grads[i] = problem.minibatch_gradient(theta, 10, rng).gradient
        se = grads.std(axis=0, ddof=1) / np.sqrt(n_draws)
        assert np.all(np.abs(grads.mean(axis=0) - full) < 5 * se)

    def test_fixed_seed_reproduces_batches(self, problem):
        theta = np.zeros(5)
        g1 = problem.minibatch_gradient(theta, 7, RngStream(30)).gradient
        g2 = problem.minibatch_gradient(theta, 7, RngStream(30)).gradient
        np.testing.assert_array_equal(g1, g2)

    def test_mlp_minibatch_unbiasedness(self):
        data = make_two_moons(50, 0.2, RngStream(60))
        mlp = TinyMlpProblem(data, hidden=4)
        theta = 0.4 * RngStream(61).standard_normal(mlp.dim)
        _, full = mlp.full_gradient(theta)
        rng = RngStream(62)
        n_draws = 20_000
        grads = np.empty((n_draws, mlp.dim))
        for i in range(n_draws):
            grads[i] = mlp.minibatch_gradient(theta, 8, rng).gradient
        se = grads.std(axis=0, ddof=1) / np.sqrt(n_draws)
        assert np.all(np.abs(grads.mean(axis=0) - full) <= 5 * se + 1e-12)

    def test_bad_batch_sizes(self, problem):
        theta = np.zeros(5)
        with pytest.raises(ValueError):
            problem.minibatch_gradient(theta, 0, RngStream(0))
        with pytest.raises(ValueError):
            problem.minibatch_gradient(theta, 101, RngStream(0))


class TestNoiseOracles:
    def test_additive_noise_moments(self):
        base = QuadraticModel([0.0, 0.0], np.eye(2))
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        oracle = AdditiveNoiseOracle(base, cov)
        rng = RngStream(31)
        theta = np.array([1.0, -1.0])
        _, full = base.full_gradient(theta)
        draws = np.array([
            oracle.stochastic_gradient(theta, rng).gradient - full
            for _ in range(20_000)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.05)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.08)

    def test_pure_noise_zero_gradient(self):
        oracle = PureNoiseOracle(3, 2.0)
        _, full = oracle.full_gradient(np.zeros(3))
        np.testing.assert_array_equal(full, 0.0)
        g = oracle.stochastic_gradient(np.zeros(3), RngStream(1)).gradient
        assert g.shape == (3,)


class TestTwoMoons:
    def test_class_balance(self):
        data = make_two_moons(1001, 0.2, RngStream(40))
        counts = np.bincount(data.labels.astype(int))
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_seed_determinism(self):
        a = make_two_moons(200, 0.2, RngStream(41))
        b = make_two_moons(200, 0.2, RngStream(41))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestLabelNoise:
    def test_zero_rate_identity(self):
        data = make_two_moons(100, 0.1, RngStream(50))
        noisy, mask = apply_label_noise(data, LabelNoiseSpec("symmetric", 0.0), RngStream(51))
        np.testing.assert_array_equal(noisy.labels, data.labels)
        assert not mask.any()

    def test_symmetric_rate_concentration(self):
        # Binomial(10^4, 0.4): 0.4 +- 0.02 is a > 4-sigma band
        labels = np.repeat(np.arange(10), 1000)
        data = FiniteDataset(np.zeros((10_000, 1)), labels)
        noisy, mask = apply_label_noise(data, LabelNoiseSpec("symmetric", 0.4), RngStream(52))
        frac = mask.mean()
        assert abs(frac - 0.4) < 0.02
        # symmetric flips always change the label
        assert np.all(noisy.labels[mask] != data.labels[mask])

    def test_asymmetric_pattern(self):
        labels = np.repeat(np.arange(10), 200)
        data = FiniteDataset(np.zeros((2000, 1)), labels)
        noisy, mask = apply_label_noise(data, LabelNoiseSpec("asymmetric", 0.3), RngStream(53))
        np.testing.assert_array_equal(noisy.labels[mask], (data.labels[mask] + 1) % 10)
        np.testing.assert_array_equal(noisy.labels[~mask], data.labels[~mask])

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            LabelNoiseSpec("symmetric", 1.0)
        with pytest.raises(ValueError):
            LabelNoiseSpec("bogus", 0.1)


class TestCsv:
    def test_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2,label\n1.0,2.0,0\n3.5,-1.0,1\n")
        data = load_csv_dataset(path, classification=True)
        assert data.n_samples == 2 and data.n_features == 2
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_headerless(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0.5\n3.0,4.0,1.5\n")
        data = load_csv_dataset(path)
        np.testing.assert_allclose(data.labels, [0.5, 1.5])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,oops,1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(path)
