import numpy as np
import pytest

from pnmkit.core import DimensionMismatchError, GradientOracle, RngStream
from pnmkit.problems import (
    AdditiveNoiseOracle,
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
from reference import fd_gradient_check


def _random_quadratic(rng, dim):
    A = rng.standard_normal((dim, dim))
    H = A @ A.T + dim * np.eye(dim)
    return QuadraticModel(rng.standard_normal(dim), H, f0=0.3)


class TestQuadratic:
    def test_minimum(self):
        m = QuadraticModel([1.0, -2.0], [[2.0, 0.0], [0.0, 3.0]], f0=0.7)
        loss, grad = m.full_gradient(m.theta_star)
        assert loss == 0.7
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_hand_value(self):
        # H = I, displacement (3, 4): loss = (9 + 16) / 2
        m = QuadraticModel([0.0, 0.0], np.eye(2))
        loss, grad = m.full_gradient([3.0, 4.0])
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
            m.full_gradient([1.0, 2.0, 3.0])


class TestRosenbrock:
    def test_global_minimum(self):
        loss, grad = RosenbrockProblem().full_gradient([1.0, 1.0])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_origin(self):
        # f(0,0) = 1; df/dx = -2(1-x) - 400x(y-x^2) = -2 at the origin
        loss, grad = RosenbrockProblem().full_gradient([0.0, 0.0])
        assert loss == 1.0
        np.testing.assert_allclose(grad, [-2.0, 0.0])

    def test_fd_agreement(self):
        prob = RosenbrockProblem()
        rng = RngStream(4)
        for _ in range(20):
            theta = rng.standard_normal(2) * 1.5
            assert fd_gradient_check(prob, theta, h=1e-6) < 1e-6


class _LinearOracle(GradientOracle):
    dim = 3
    coef = np.array([2.0, -3.0, 0.5])

    def full_gradient(self, theta):
        return float(self.coef @ theta), self.coef.copy()


class TestFdGradientCheck:
    def test_linear_function_exact(self):
        # quadratic FD error vanishes for a linear function
        assert fd_gradient_check(_LinearOracle(), np.array([1.0, 2.0, 3.0])) < 1e-10

    def test_planted_fault_detected(self):
        class Corrupted(QuadraticModel):
            def full_gradient(self, theta):
                loss, grad = super().full_gradient(theta)
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

    @pytest.mark.parametrize("shape", [(5, 3), (5, 1), (2,), (5, 2, 1), ()])
    def test_predict_checks_feature_shape(self, problem, shape):
        with pytest.raises(DimensionMismatchError, match=r"X must be \(n, 2\)"):
            problem.predict(np.zeros(problem.dim), np.zeros(shape))

    def test_negative_labels_rejected(self):
        # A label of -1 would index the last class through the flat
        # (k, n) label indices.
        with pytest.raises(ValueError, match="label -1 at row 2 "):
            TinyMlpProblem(FiniteDataset(np.zeros((5, 2)), [0, 1, -1, 1, -2]))

    @pytest.mark.parametrize("hidden", [0, -3])
    def test_hidden_below_one_rejected(self, hidden):
        with pytest.raises(ValueError, match=f"hidden must be >= 1, got {hidden}"):
            TinyMlpProblem(FiniteDataset(np.zeros((5, 2)), [0, 1, 0, 1, 1]), hidden=hidden)


class TestEvaluationMemory:
    """``predict`` runs in near-equal row blocks of at most
    ``max(3, 2**16 // hidden)`` rows, and the full gradient reads the
    training rows in place, so evaluation scratch stays bounded."""

    @staticmethod
    def one_shot(problem, theta, X):
        X1 = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
        return problem._forward(problem._unpack(theta), X1)[2].argmax(axis=0)

    @pytest.mark.parametrize("d,hidden,k", [(2, 256, 2), (2, 256, 7), (3, 16, 3),
                                            (5, 512, 20), (2, 32768, 2)])
    def test_blocked_predictions_equal_one_shot(self, monkeypatch, d, hidden, k):
        # 1,400 rows at hidden 256 or 512 is past both (d+1)*h*n and n*h*k = 10^6,
        # where OpenBLAS's one-shot products take the blocked gemm.
        rng = RngStream(150 + d + k)
        problem = TinyMlpProblem(FiniteDataset(rng.standard_normal((50, d)),
                                               np.arange(50) % k), hidden=hidden)
        block = max(3, 2**16 // hidden)
        sizes = []
        forward = problem._forward
        monkeypatch.setattr(problem, "_forward",
                            lambda w, X: sizes.append(X.shape[0]) or forward(w, X))
        for n in sorted({0, 1, 2, 4, 5, block - 1, block, block + 1, 1400}):
            if n * hidden > 1 << 22:  # keep the one-shot reference under 32 MiB
                continue
            X = rng.standard_normal((n, d))
            for scale in (0.5, 4.0):
                theta = scale * rng.standard_normal(problem.dim)
                sizes.clear()
                pred = problem.predict(theta, X)
                assert pred.dtype == np.intp and pred.shape == (n,)
                if n > 1:
                    assert min(sizes) >= 2 and max(sizes) - min(sizes) <= 1
                assert max(sizes) <= block and sum(sizes) == n
                np.testing.assert_array_equal(pred, self.one_shot(problem, theta, X))

    def test_predict_scratch_is_one_block(self):
        problem = TinyMlpProblem(make_two_moons(50, 0.2, RngStream(160)), hidden=256)
        theta = RngStream(161).standard_normal(problem.dim)
        problem.full_gradient(theta)
        problem.predict(theta, make_two_moons(10_000, 0.2, RngStream(162)).features)
        assert max(buf.shape[0] for buf in problem._scratch.values()) <= 256

    def test_full_gradient_reads_rows_in_place(self):
        problem = TinyMlpProblem(make_two_moons(200, 0.2, RngStream(163)), hidden=32)
        rng = RngStream(164)
        theta = rng.standard_normal(problem.dim)
        problem.batch_loss_gradient(theta, rng.choice_without_replacement(200, 64))
        loss, grad = problem.full_gradient(theta)
        assert problem._scratch["X"].shape[0] == 64
        ref_loss, ref_grad = problem.batch_loss_gradient(theta, np.arange(200))
        assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()


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
    are reused at smaller row counts, for two moons and for random data
    with 3 and 7 classes. From 8 classes numpy's row sum (in the
    reference) adds pairwise while the kernel's class-major sum adds
    class by class, so there the two agree to a few ulps.

    The kernel's ``[X|1]`` matmuls sum in another order than the
    reference's ``X @ W1 + b1`` and ``dZ1.sum(axis=0)`` in two regions of
    OpenBLAS 0.3.31's dispatch, where the two also agree to a few ulps:
    a one-row ``[X|1] @ [W1; b1]`` goes to gemv, which pairs the d + 1
    terms, so a 1-row batch differs for odd d; and above
    (d+1)*h*n = 10^6 the blocked gemm splits the n terms of
    ``[X|1]^T dZ1``. The predictions stay the same."""

    N = 90

    @pytest.fixture(scope="class")
    def data(self):
        train = make_two_moons(self.N, 0.2, RngStream(70))
        big = make_two_moons(250, 0.2, RngStream(71))
        return train, big

    @staticmethod
    def classes(k, n, seed):
        """``n`` random 3-feature samples; every one of the ``k`` labels occurs."""
        rng = RngStream(seed)
        return FiniteDataset(rng.standard_normal((n, 3)), rng.permutation(np.arange(n) % k))

    def check(self, problem, big, rng, exact):
        def same(loss, grad, ref_loss, ref_grad, exact=exact):
            if exact:
                assert loss == ref_loss
                assert grad.tobytes() == ref_grad.tobytes()
            else:
                assert loss == pytest.approx(ref_loss, rel=1e-13)
                np.testing.assert_allclose(grad, ref_grad, rtol=0,
                                           atol=1e-13 * np.abs(ref_grad).max())

        n = problem.dataset_size
        for scale in (0.5, 4.0):
            theta = scale * rng.standard_normal(problem.dim)
            for batch in (1, 17, 64, n, 17, 1):
                idx = rng.choice_without_replacement(n, batch)
                gemv_pairs = batch == 1 and problem.in_dim % 2 == 1
                same(*problem.batch_loss_gradient(theta, idx),
                     *_reference_loss_gradient(problem, theta, idx), exact and not gemv_pairs)
                for X in (big.features, big.features[:batch]):
                    np.testing.assert_array_equal(
                        problem.predict(theta, X),
                        _reference_forward(problem, theta, X)[3].argmax(axis=1))
            same(*problem.full_gradient(theta),
                 *_reference_loss_gradient(problem, theta, np.arange(n)))

    @pytest.mark.parametrize("hidden", [7, 16, 256])
    def test_matches_reference_bit_for_bit(self, data, hidden):
        # Except for 1-row batches of the 3-feature data, checked closely.
        train, big = data
        self.check(TinyMlpProblem(train, hidden=hidden), big, RngStream(72 + hidden), exact=True)
        for k in (3, 7):
            problem = TinyMlpProblem(self.classes(k, self.N, 90 + k), hidden=hidden)
            big = self.classes(k, 250, 100 + k)
            self.check(problem, big, RngStream(72 + hidden + k), exact=True)

    @pytest.mark.parametrize("k", [8, 12])
    def test_eight_or_more_classes_match_reference_closely(self, k):
        problem = TinyMlpProblem(self.classes(k, self.N, 90 + k), hidden=16)
        self.check(problem, self.classes(k, 250, 100 + k), RngStream(110 + k), exact=False)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_class_major_sum_is_numpys_row_reduce(self, k):
        # The kernel's softmax denominator reduces a class-major (k, n)
        # array over its first axis, adding the classes left to right;
        # numpy's row reduce of the (n, k) array does the same for fewer
        # than 8 classes. A numpy that changes either order fails here
        # instead of moving bytes.
        for n in (1, 17, 2000):
            P = np.exp(RngStream(120 + k).standard_normal((n, k)))
            acc = P[:, 0] + P[:, 1]
            for j in range(2, k):
                acc += P[:, j]
            class_major = np.add.reduce(np.ascontiguousarray(P.T), axis=0)
            assert class_major.tobytes() == acc.tobytes()
            assert class_major.tobytes() == np.add.reduce(P, axis=1).tobytes()

    def test_blocked_gemm_and_one_row_gemv_match_reference_closely(self, data):
        # 2 * 256 * 1,400 rows is under 10^6 and 3 * 256 * 1,400 is over, so
        # this full gradient takes the blocked gemm and the reference not.
        big = data[1]
        wide = TinyMlpProblem(make_two_moons(1400, 0.2, RngStream(73)), hidden=256)
        self.check(wide, big, RngStream(74), exact=False)
        odd = TinyMlpProblem(self.classes(3, self.N, 93), hidden=256)
        self.check(odd, self.classes(3, 250, 103), RngStream(75), exact=False)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_ones_column_row_is_numpys_row_reduce(self, d):
        # db1 is row d of [X|1]^T dZ1. While (d+1)*h*n <= 10^6 OpenBLAS
        # 0.3.31 takes its small-matrix gemm, which adds the n terms in
        # order, as np.add.reduce(dZ1, axis=0) does. A BLAS that changes
        # this fails here instead of moving bytes.
        rng = RngStream(130 + d)
        for h, n in ((7, 1), (16, 17), (32, 2000), (256, 200), (256, 1302)):
            if (d + 1) * h * n > 10**6:
                continue
            X1 = np.concatenate([rng.standard_normal((n, d)), np.ones((n, 1))], axis=1)
            dZ1 = rng.standard_normal((n, h))
            assert np.matmul(X1.T, dZ1)[d].tobytes() == np.add.reduce(dZ1, axis=0).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_ones_column_adds_b1_last(self, d):
        # [X|1] @ [W1; b1] adds its d + 1 terms in order, so b1 comes last,
        # as in X @ W1 + b1. One row goes to gemv instead, which pairs them.
        rng = RngStream(140 + d)
        for h, n in ((7, 2), (16, 17), (32, 2000), (256, 1400)):
            X = rng.standard_normal((n, d))
            W1b1 = rng.standard_normal((d + 1, h))
            X1 = np.concatenate([X, np.ones((n, 1))], axis=1)
            assert np.matmul(X1, W1b1).tobytes() == (X @ W1b1[:d] + W1b1[d]).tobytes()

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


class TestGradientArrays:
    """Every stochastic gradient is a plain float64 array of shape (dim,)."""

    ORACLES = {
        "quadratic": lambda: QuadraticModel([0.0, 0.0], np.diag([1.0, 4.0])),
        "rosenbrock": RosenbrockProblem,
        "additive_noise": lambda: AdditiveNoiseOracle(
            QuadraticModel([0.0, 0.0], np.eye(2)), 0.5),
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


NOISE_COVARIANCE = {"isotropic_noise": 0.7, "full_covariance_noise": _nondiagonal_covariance(5),
                    "noisy_rosenbrock": 0.25}


# Row-only formulas, written apart from the oracles' (..., dim) code, as the
# reference each (dim,) call must match bit for bit.
def _row_quadratic(m, theta):
    d = theta - m.theta_star
    Hd = m.H @ d
    return m.f0 + 0.5 * float(d @ Hd), Hd


def _row_rosenbrock(theta):
    x, y = theta
    loss = (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2
    gx = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x)
    gy = 200.0 * (y - x * x)
    return float(loss), np.array([gx, gy])


def _row_reference(name, oracle, theta, rng):
    """(loss, gradient, stochastic gradient) at a ``(dim,)`` theta, the
    noise drawn from ``rng``."""
    base = getattr(oracle, "base", oracle)
    loss, grad = _row_quadratic(base, theta) if isinstance(base, QuadraticModel) \
        else _row_rosenbrock(theta)
    cov = NOISE_COVARIANCE.get(name)
    if cov is None:
        return loss, grad, grad
    z = rng.standard_normal(oracle.dim)
    if np.ndim(cov) == 0:
        return loss, grad, grad + float(np.sqrt(cov)) * z
    w, V = np.linalg.eigh(cov)
    return loss, grad, grad + (V * np.sqrt(np.clip(w, 0.0, None))) @ z


class TestStackedOracles:
    """Each analytic oracle is one ``(..., dim)`` formula: a ``(dim,)``
    row equals the row-only formula, and a ``(k, dim)`` theta equals k
    row-by-row calls on the same stream, bit for bit."""

    ORACLES = {
        "quadratic_5d": lambda: _random_quadratic(RngStream(41), 5),
        "rosenbrock": RosenbrockProblem,
        "isotropic_noise": lambda: AdditiveNoiseOracle(
            QuadraticModel([0.5, -1.0], np.diag([1.0, 4.0]), f0=0.2),
            NOISE_COVARIANCE["isotropic_noise"]),
        "full_covariance_noise": lambda: AdditiveNoiseOracle(
            _random_quadratic(RngStream(42), 5), NOISE_COVARIANCE["full_covariance_noise"]),
        "noisy_rosenbrock": lambda: AdditiveNoiseOracle(
            RosenbrockProblem(), NOISE_COVARIANCE["noisy_rosenbrock"]),
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
        assert oracle.gradient(theta).tobytes() == grad.tobytes()  # the loss-free gradient

        stacked = oracle.stochastic_gradient(theta, RngStream(0))
        rng = RngStream(0)
        rows = [oracle.stochastic_gradient(row, rng) for row in theta]
        assert type(stacked) is np.ndarray and stacked.shape == theta.shape
        assert stacked.tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_rows_equal_the_row_formulas(self, name):
        oracle = self.ORACLES[name]()
        for i, row in enumerate(self._stack(oracle.dim)):
            want_loss, want_grad, want_noisy = _row_reference(name, oracle, row, RngStream(i))
            loss, grad = oracle.full_gradient(row)
            assert type(loss) is np.float64 and loss.tobytes() == np.float64(want_loss).tobytes()
            assert grad.tobytes() == want_grad.tobytes()
            assert oracle.gradient(row).tobytes() == want_grad.tobytes()
            noisy = oracle.stochastic_gradient(row, RngStream(i))
            assert noisy.tobytes() == want_noisy.tobytes()

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 2)])
    def test_bad_stack_shapes_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            self.ORACLES["rosenbrock"]().full_gradient(np.zeros(shape))
        with pytest.raises(DimensionMismatchError):
            self.ORACLES["isotropic_noise"]().gradient(np.zeros(shape))

    def test_dataset_problems_reject_stacked_theta(self):
        rng = RngStream(44)
        X = rng.standard_normal((30, 2))
        classes = (X[:, 0] > 0).astype(np.int64)
        problems = [
            LinearRegressionProblem(FiniteDataset(X, X @ np.ones(2))),
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
        data = load_csv_dataset(path)
        assert data.n_samples == 2 and data.n_features == 2
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_headerless(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        data = load_csv_dataset(path)
        assert data.n_samples == 2 and data.n_features == 2
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,oops,1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("column", [0, 2])
    def test_non_finite_cell_names_its_line(self, tmp_path, cell, column):
        path = tmp_path / "data.csv"
        row = ["3.0", "1.0", "1"]
        row[column] = cell
        path.write_text("x1,x2,label\n1.0,2.0,0\n" + ",".join(row) + "\n")
        with pytest.raises(ValueError, match="non-finite value at line 3"):
            load_csv_dataset(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(path)
