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

    @pytest.mark.parametrize("extra", [7, -1])
    def test_predict_checks_theta_length(self, problem, extra):
        theta = np.zeros(problem.dim + extra)
        with pytest.raises(DimensionMismatchError):
            problem.predict(theta, problem.dataset.features)
        with pytest.raises(DimensionMismatchError):
            problem.error_rate(theta, problem.dataset)


def _reference_forward(problem, theta, X):
    """The allocating forward pass the buffered kernel replaced."""
    d, h, k = problem.in_dim, problem.hidden, problem.n_classes
    W1 = theta[: d * h].reshape(d, h)
    b1 = theta[d * h : d * h + h]
    W2 = theta[d * h + h : d * h + h + h * k].reshape(h, k)
    b2 = theta[d * h + h + h * k :]
    A1 = np.tanh(X @ W1 + b1)
    Z2 = A1 @ W2 + b2
    Z2 -= Z2.max(axis=1, keepdims=True)
    expz = np.exp(Z2)
    P = expz / expz.sum(axis=1, keepdims=True)
    return W2, A1, Z2, P


def _reference_loss_gradient(problem, theta, idx):
    """The allocating batch loss and gradient the buffered kernel replaced."""
    X = problem.dataset.features[idx]
    y = np.asarray(problem.dataset.labels, dtype=np.int64)[idx]
    n = len(y)
    W2, A1, Z2, P = _reference_forward(problem, theta, X)
    logp = Z2 - np.log(np.exp(Z2).sum(axis=1, keepdims=True))
    loss = -float(logp[np.arange(n), y].mean())
    dZ2 = P.copy()
    dZ2[np.arange(n), y] -= 1.0
    dZ2 /= n
    dW2 = A1.T @ dZ2
    db2 = dZ2.sum(axis=0)
    dA1 = dZ2 @ W2.T
    dZ1 = dA1 * (1.0 - A1 * A1)
    dW1 = X.T @ dZ1
    db1 = dZ1.sum(axis=0)
    return loss, np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2])


class TestMlpKernel:
    """The buffered kernel reproduces the allocating one bit for bit while
    its scratch arrays grow (a predict on more rows than the dataset) and
    are reused at smaller row counts."""

    N = 90

    @pytest.fixture(scope="class")
    def data(self):
        train = make_two_moons(self.N, 0.2, RngStream(70))
        big = make_two_moons(250, 0.2, RngStream(71))
        return train, big

    @pytest.mark.parametrize("hidden", [7, 16, 256])
    def test_matches_reference_bit_for_bit(self, data, hidden):
        train, big = data
        problem = TinyMlpProblem(train, hidden=hidden)
        rng = RngStream(72 + hidden)
        for scale in (0.5, 4.0):
            theta = scale * rng.standard_normal(problem.dim)
            for batch in (1, 17, 64, self.N, 17, 1):
                idx = rng.choice_without_replacement(self.N, batch)
                loss, grad = problem.batch_loss_gradient(theta, idx)
                ref_loss, ref_grad = _reference_loss_gradient(problem, theta, idx)
                assert loss == ref_loss
                assert grad.tobytes() == ref_grad.tobytes()
                for X in (big.features, big.features[:batch]):
                    np.testing.assert_array_equal(
                        problem.predict(theta, X),
                        _reference_forward(problem, theta, X)[3].argmax(axis=1))
            loss, grad = problem.full_gradient(theta)
            ref_loss, ref_grad = _reference_loss_gradient(problem, theta, np.arange(self.N))
            assert loss == ref_loss
            assert grad.tobytes() == ref_grad.tobytes()

    def test_results_survive_later_calls(self, data):
        train, big = data
        problem = TinyMlpProblem(train, hidden=16)
        rng = RngStream(80)
        theta = rng.standard_normal(problem.dim)
        _, grad = problem.batch_loss_gradient(theta, np.arange(17))
        pred = problem.predict(theta, big.features[:40])
        kept_grad, kept_pred = grad.copy(), pred.copy()
        other = rng.standard_normal(problem.dim)
        for batch in (1, 64, self.N):
            problem.batch_loss_gradient(other, np.arange(batch))
            problem.predict(other, big.features[:batch])
        problem.predict(other, big.features)
        np.testing.assert_array_equal(grad, kept_grad)
        np.testing.assert_array_equal(pred, kept_pred)


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
        grad = problem.minibatch_gradient(theta, 100, RngStream(22))
        np.testing.assert_array_equal(grad, full)

    def test_unbiasedness(self, problem):
        # Mean of many minibatch gradients must sit within 5 standard
        # errors of the full gradient, per coordinate.
        theta = RngStream(23).standard_normal(5)
        _, full = problem.full_gradient(theta)
        rng = RngStream(24)
        n_draws = 100_000
        grads = np.empty((n_draws, 5))
        for i in range(n_draws):
            grads[i] = problem.minibatch_gradient(theta, 10, rng)
        se = grads.std(axis=0, ddof=1) / np.sqrt(n_draws)
        assert np.all(np.abs(grads.mean(axis=0) - full) < 5 * se)

    def test_fixed_seed_reproduces_batches(self, problem):
        theta = np.zeros(5)
        g1 = problem.minibatch_gradient(theta, 7, RngStream(30))
        g2 = problem.minibatch_gradient(theta, 7, RngStream(30))
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
            grads[i] = mlp.minibatch_gradient(theta, 8, rng)
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
            oracle.stochastic_gradient(theta, rng) - full
            for _ in range(20_000)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.05)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.08)

    def test_pure_noise_zero_gradient(self):
        oracle = PureNoiseOracle(3, 2.0)
        _, full = oracle.full_gradient(np.zeros(3))
        np.testing.assert_array_equal(full, 0.0)
        g = oracle.stochastic_gradient(np.zeros(3), RngStream(1))
        assert g.shape == (3,)


class TestGradientArrays:
    """Every stochastic gradient is a plain float64 array of shape (dim,)."""

    ORACLES = {
        "quadratic": lambda: QuadraticModel([0.0, 0.0], np.diag([1.0, 4.0])),
        "rosenbrock": RosenbrockProblem,
        "additive_noise": lambda: AdditiveNoiseOracle(
            QuadraticModel([0.0, 0.0], np.eye(2)), 0.5),
        "pure_noise": lambda: PureNoiseOracle(2, 1.0),
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_stochastic_gradient_is_array(self, name):
        oracle = self.ORACLES[name]()
        g = oracle.stochastic_gradient(np.array([0.5, -0.5]), RngStream(3))
        assert type(g) is np.ndarray
        assert g.dtype == np.float64 and g.shape == (oracle.dim,)

    @pytest.mark.parametrize("batch", [5, 40])
    def test_minibatch_gradient_is_array(self, batch):
        rng = RngStream(4)
        X = rng.standard_normal((40, 3))
        problem = LinearRegressionProblem(FiniteDataset(X, X @ np.ones(3)))
        g = problem.minibatch_gradient(np.zeros(3), batch, RngStream(5))
        assert type(g) is np.ndarray
        assert g.dtype == np.float64 and g.shape == (3,)


def _nondiagonal_covariance(dim):
    B = RngStream(40).standard_normal((dim, dim))
    return B @ B.T + 0.1 * np.eye(dim)


class TestStackedOracles:
    """A ``(k, dim)`` theta with one stream per row equals k row-by-row
    ``(dim,)`` calls bit for bit."""

    ORACLES = {
        "quadratic_5d": lambda: _random_quadratic(RngStream(41), 5),
        "rosenbrock": RosenbrockProblem,
        "isotropic_noise": lambda: AdditiveNoiseOracle(
            QuadraticModel([0.5, -1.0], np.diag([1.0, 4.0]), f0=0.2), 0.7),
        "full_covariance_noise": lambda: AdditiveNoiseOracle(
            _random_quadratic(RngStream(42), 5), _nondiagonal_covariance(5)),
        "noisy_rosenbrock": lambda: AdditiveNoiseOracle(RosenbrockProblem(), 0.25),
        "pure_noise": lambda: PureNoiseOracle(3, 2.0),
    }

    # Rosenbrock's scalar ``** 2`` and an array's square disagree in the
    # last bit on roughly one input in a thousand, so the stack is large
    # and spans many magnitudes.
    ROWS = 3000

    def _stack(self, dim):
        rng = RngStream(43)
        return rng.standard_normal((self.ROWS, dim)) * 10.0 ** rng.uniform(-2, 4, (self.ROWS, 1))

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_stacked_call_equals_rows(self, name):
        oracle = self.ORACLES[name]()
        theta = self._stack(oracle.dim)
        loss, grad = oracle.full_gradient(theta)
        assert loss.shape == (self.ROWS,) and grad.shape == theta.shape
        rows = [oracle.full_gradient(row) for row in theta]
        assert loss.tobytes() == np.array([l for l, _ in rows]).tobytes()
        assert grad.tobytes() == np.array([g for _, g in rows]).tobytes()

        stacked = oracle.stochastic_gradient(theta, [RngStream(i) for i in range(self.ROWS)])
        rows = [oracle.stochastic_gradient(row, RngStream(i)) for i, row in enumerate(theta)]
        assert type(stacked) is np.ndarray and stacked.shape == theta.shape
        assert stacked.tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("name", ["isotropic_noise", "pure_noise"])
    def test_stacked_call_needs_one_stream_per_row(self, name):
        oracle = self.ORACLES[name]()
        theta = np.zeros((3, oracle.dim))
        with pytest.raises(ValueError, match="3 RngStreams"):
            oracle.stochastic_gradient(theta, RngStream(0))
        with pytest.raises(ValueError, match="3 RngStreams"):
            oracle.stochastic_gradient(theta, [RngStream(0), RngStream(1)])

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 2)])
    def test_bad_stack_shapes_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            self.ORACLES["rosenbrock"]().full_gradient(np.zeros(shape))

    def test_dataset_problems_reject_stacked_theta(self):
        rng = RngStream(44)
        X = rng.standard_normal((30, 2))
        classes = (X[:, 0] > 0).astype(np.int64)
        problems = [
            LinearRegressionProblem(FiniteDataset(X, X @ np.ones(2))),
            LogisticRegressionProblem(FiniteDataset(X, classes)),
            TinyMlpProblem(FiniteDataset(X, classes), hidden=4),
        ]
        for problem in problems:
            theta = np.zeros((3, problem.dim))
            calls = [
                lambda: problem.full_gradient(theta),
                lambda: problem.batch_loss_gradient(theta, np.arange(5)),
                lambda: problem.minibatch_gradient(theta, 5, RngStream(0)),
            ]
            if isinstance(problem, TinyMlpProblem):
                calls += [lambda: problem.predict(theta, X),
                          lambda: problem.error_rate(theta, problem.dataset)]
            for call in calls:
                with pytest.raises(DimensionMismatchError):
                    call()
        noisy = AdditiveNoiseOracle(problems[0], 0.5)
        with pytest.raises(DimensionMismatchError):
            noisy.stochastic_gradient(np.zeros((3, 2)), [RngStream(i) for i in range(3)])


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
