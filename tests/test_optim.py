import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnmkit.core import NonFiniteError, RngStream
from pnmkit.optim import (
    AdaPnm,
    Adam,
    HeavyBall,
    Pnm,
    WeightDecay,
    pn_normalization,
)
from pnmkit.problems import (
    AdditiveNoiseOracle,
    QuadraticModel,
    RosenbrockProblem,
)
from reference import (
    SeparateAdam,
    SeparateAdaPnm,
    momentum_recovery_beta0,
    pnm_lemma1_residuals,
    record_pnm_run,
)


class TestHeavyBall:
    def test_vanilla_sgd_special_case(self):
        opt = HeavyBall(dim=1, lr=0.1, beta1=0.0, beta3=1.0)
        theta = opt.step(np.array([0.0]), np.array([1.0]))
        np.testing.assert_allclose(theta, [-0.1])

    def test_zero_gradient_keeps_theta(self):
        opt = HeavyBall(dim=2, lr=0.1, beta1=0.9)
        theta = opt.step(np.array([1.0, 2.0]), np.zeros(2))
        np.testing.assert_array_equal(theta, [1.0, 2.0])

    def test_first_step_hand_value(self):
        # m = 0.9*0 + 0.1*1 = 0.1; delta = -0.1 * 0.1
        opt = HeavyBall(dim=1, lr=0.1, beta1=0.9, beta3=0.1)
        theta = opt.step(np.array([0.0]), np.array([1.0]))
        np.testing.assert_allclose(opt.m, [0.1])
        np.testing.assert_allclose(theta, [-0.01])

    def test_non_finite_gradient_reports_step(self):
        opt = HeavyBall(dim=1, lr=0.1)
        opt.step(np.zeros(1), np.ones(1))
        with pytest.raises(NonFiniteError, match="step 2"):
            opt.step(np.zeros(1), np.array([np.inf]))


class TestPnm:
    def test_first_step_hand_value(self):
        # m0 = 0.19, pair = 2 * 0.19, delta = -0.38 / sqrt(5)
        opt = Pnm(dim=1, lr=1.0, beta0=1.0, beta1=0.9)
        theta = opt.step(np.array([0.0]), np.array([1.0]))
        np.testing.assert_allclose(opt.m, [0.19])
        np.testing.assert_allclose(theta, [-0.38 / np.sqrt(5.0)])
        np.testing.assert_allclose(theta, [-0.1699411], atol=1e-7)

    def test_beta0_zero_reduces_to_buffer_step(self):
        opt = Pnm(dim=1, lr=0.5, beta0=0.0, beta1=0.9)
        theta = np.array([0.0])
        for g in ([1.0], [2.0], [-1.0]):
            before = theta.copy()
            theta = opt.step(theta, np.array(g))
            np.testing.assert_allclose(theta, before - 0.5 * opt.m)

    def test_invalid_beta0(self):
        with pytest.raises(ValueError):
            Pnm(dim=1, lr=0.1, beta0=-1.5)

    def test_momentum_recovery_on_rosenbrock(self):
        beta1 = 0.9
        b0 = momentum_recovery_beta0(beta1)
        scale = pn_normalization(b0)
        hb = HeavyBall(dim=2, lr=1e-3, beta1=beta1, beta3=1.0 - beta1)
        pnm = Pnm(dim=2, lr=1e-3 * scale, beta0=b0, beta1=beta1)
        ros = RosenbrockProblem()
        th_h = np.array([-1.2, 1.0])
        th_p = th_h.copy()
        for _ in range(1000):
            _, gh = ros.full_gradient(th_h)
            th_h = hb.step(th_h, gh)
            _, gp = ros.full_gradient(th_p)
            th_p = pnm.step(th_p, gp)
            assert np.max(np.abs(th_h - th_p)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=60),
           st.floats(0.0, 0.98))
    def test_momentum_recovery_for_arbitrary_gradients(self, grads, beta1):
        # The pair (m_t + beta1 m_{t-1}) / (1 + beta1) satisfies the Heavy
        # Ball recursion with beta3 = 1 - beta1, so the trajectories agree
        # for any gradient sequence.
        b0 = momentum_recovery_beta0(beta1)
        scale = pn_normalization(b0)
        hb = HeavyBall(dim=1, lr=0.05, beta1=beta1, beta3=1.0 - beta1)
        pnm = Pnm(dim=1, lr=0.05 * scale, beta0=b0, beta1=beta1)
        th_h = np.array([0.3])
        th_p = np.array([0.3])
        for g in grads:
            th_h = hb.step(th_h, np.array([g]))
            th_p = pnm.step(th_p, np.array([g]))
            assert abs(th_h[0] - th_p[0]) <= 1e-10


class TestAdaPnm:
    def test_first_step_hand_value(self):
        # m_hat = 0.38/0.1 = 3.8, v_hat = 1, delta = -eta*3.8/(sqrt(5)*(1+eps))
        opt = AdaPnm(dim=1, lr=0.001, beta0=1.0, beta1=0.9, beta2=0.999,
                     eps=1e-8, amsgrad=True)
        theta = opt.step(np.array([0.0]), np.array([1.0]))
        np.testing.assert_allclose(theta, [-0.0016994], atol=1e-7)

    def test_zero_gradient_stream_never_moves(self):
        for amsgrad in (True, False):
            opt = AdaPnm(dim=2, lr=0.01, amsgrad=amsgrad)
            theta = np.array([1.0, -2.0])
            for _ in range(5):
                theta = opt.step(theta, np.zeros(2))
            np.testing.assert_array_equal(theta, [1.0, -2.0])

    def test_vmax_retains_larger_value(self):
        opt = AdaPnm(dim=1, lr=0.001, amsgrad=True, beta2=0.9)
        opt.step(np.zeros(1), np.array([1.0]))
        v_after_big = opt.v_max.copy()
        opt.step(np.zeros(1), np.array([0.1]))
        assert opt.v_max[0] >= v_after_big[0]

    def test_vmax_nondecreasing_over_run(self):
        opt = AdaPnm(dim=3, lr=0.01, amsgrad=True)
        rng = RngStream(2)
        theta = np.zeros(3)
        prev = opt.v_max.copy()
        for _ in range(200):
            theta = opt.step(theta, rng.standard_normal(3))
            assert np.all(opt.v_max >= prev)
            prev = opt.v_max.copy()

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            AdaPnm(dim=1, lr=0.1, eps=0.0)

    def test_amsgrad_recovery(self):
        # At the recovery beta0 with compensated lr, AdaPNM follows the
        # AMSGrad baseline exactly (the baseline run is the oracle).
        b0 = momentum_recovery_beta0(0.9)
        scale = pn_normalization(b0)
        ros = RosenbrockProblem()
        base = Adam(dim=2, lr=1e-3, amsgrad=True)
        ada = AdaPnm(dim=2, lr=1e-3 * scale, beta0=b0, beta1=0.9, amsgrad=True)
        th_b = np.array([-1.2, 1.0])
        th_a = th_b.copy()
        for _ in range(100):
            _, gb = ros.full_gradient(th_b)
            th_b = base.step(th_b, gb)
            _, ga = ros.full_gradient(th_a)
            th_a = ada.step(th_a, ga)
            assert np.max(np.abs(th_b - th_a)) <= 1e-10

    def test_adam_recovery_without_amsgrad(self):
        b0 = momentum_recovery_beta0(0.9)
        scale = pn_normalization(b0)
        ros = RosenbrockProblem()
        base = Adam(dim=2, lr=1e-3)
        ada = AdaPnm(dim=2, lr=1e-3 * scale, beta0=b0, beta1=0.9, amsgrad=False)
        th_b = np.array([-1.2, 1.0])
        th_a = th_b.copy()
        for _ in range(100):
            _, gb = ros.full_gradient(th_b)
            th_b = base.step(th_b, gb)
            _, ga = ros.full_gradient(th_a)
            th_a = ada.step(th_a, ga)
            assert np.max(np.abs(th_b - th_a)) <= 1e-10


class TestAdam:
    def test_first_step_magnitude_near_lr(self):
        # bias correction makes the first update ~ lr * sign(g)
        for g in (0.3, -2.0, 10.0):
            opt = Adam(dim=1, lr=0.001)
            theta = opt.step(np.zeros(1), np.array([g]))
            assert abs(theta[0]) == pytest.approx(0.001, rel=1e-4)

    def test_zero_gradient_stream(self):
        opt = Adam(dim=2, lr=0.001)
        theta = np.array([0.5, -0.5])
        for _ in range(10):
            theta = opt.step(theta, np.zeros(2))
        np.testing.assert_array_equal(theta, [0.5, -0.5])


class TestAdaptiveBits:
    @pytest.mark.parametrize("decay", [
        WeightDecay(), WeightDecay("l2", 1e-2), WeightDecay("decoupled", 1e-2),
    ], ids=["none", "l2", "decoupled"])
    @pytest.mark.parametrize("cls,ref,kwargs", [
        (Adam, SeparateAdam, {}),
        (Adam, SeparateAdam, {"amsgrad": True}),
        (Adam, SeparateAdam, {"amsgrad": True, "beta1": 0.5, "beta2": 0.9}),
        *[(AdaPnm, SeparateAdaPnm, {"beta0": b0, "amsgrad": ams})
          for b0 in (1.0, 3.0, momentum_recovery_beta0(0.9)) for ams in (True, False)],
    ], ids=["adam", "amsgrad", "adam_amsgrad_betas",
            *[f"adapnm_b0_{b0}_{ams}" for b0 in ("1", "3", "recovery")
              for ams in ("amsgrad", "plain")]])
    def test_update_matches_separate_rules_bit_for_bit(self, cls, ref, kwargs, decay):
        # Every step's parameters and buffers equal the separately written
        # rule byte for byte, on a stacked state whose gradient entries
        # span 1e-3 to 1e3 in magnitude.
        k, dim, steps = 3, 5, 300
        rng = np.random.default_rng(11)
        theta = rng.standard_normal((k, dim))
        grads = (rng.standard_normal((steps, k, dim))
                 * 10.0 ** rng.uniform(-3.0, 3.0, (steps, k, dim)))
        opt = cls(dim=dim, lr=0.01, weight_decay=decay, **kwargs)
        other = ref(dim=dim, lr=0.01, weight_decay=decay, **{**kwargs, "amsgrad": opt.amsgrad})
        th_ref = theta
        for g in grads:
            theta = opt.step(theta, g)
            th_ref = other.step(th_ref, g)
            for name in ("m", "v", "v_max"):
                assert getattr(opt, name).tobytes() == getattr(other, name).tobytes(), name
            assert theta.tobytes() == th_ref.tobytes()


class TestWeightDecay:
    def test_lambda_zero_is_identity(self):
        for mode in ("l2", "decoupled"):
            opt = HeavyBall(dim=1, lr=0.1, beta1=0.0,
                            weight_decay=WeightDecay(mode, 0.0))
            ref = HeavyBall(dim=1, lr=0.1, beta1=0.0)
            theta = np.array([2.0])
            np.testing.assert_array_equal(
                opt.step(theta, np.array([1.0])), ref.step(theta, np.array([1.0])))

    def test_l2_shifts_gradient(self):
        # lam * theta = 1e-4 * 2 added to the gradient before momentum
        opt = HeavyBall(dim=1, lr=1.0, beta1=0.0,
                        weight_decay=WeightDecay("l2", 1e-4))
        theta = opt.step(np.array([2.0]), np.array([0.0]))
        np.testing.assert_allclose(theta, [2.0 - 2e-4])

    def test_decoupled_shrinkage(self):
        # theta = 1 shrinks by lr * lam = 5e-4 after a zero-gradient step
        opt = HeavyBall(dim=1, lr=0.001, beta1=0.0,
                        weight_decay=WeightDecay("decoupled", 0.5))
        theta = opt.step(np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(theta, [0.9995])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            WeightDecay("l2", -0.1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            WeightDecay("ridge", 0.1)


class TestTrajectoryIdentities:
    @pytest.mark.parametrize("beta0,beta1,lr", [
        (1.0, 0.9, 0.05),
        (2.0, 0.8, 0.02),
        (-0.4, 0.95, 0.01),
        (0.0, 0.5, 0.1),
    ])
    def test_recursion_and_smoothed_difference(self, beta0, beta1, lr):
        quad = QuadraticModel([0.0] * 3, np.diag([1.0, 2.0, 3.0]))
        oracle = AdditiveNoiseOracle(quad, 1.0)
        opt = Pnm(dim=3, lr=lr, beta0=beta0, beta1=beta1)
        thetas, ms, grads = record_pnm_run(
            oracle, opt, np.ones(3), 1000, RngStream(99))
        assert pnm_lemma1_residuals(thetas, ms, grads, lr, beta0, beta1).max() <= 1e-10

    def test_identities_on_pure_noise(self):
        class PureNoise:  # zero true gradient: every gradient is unit white noise
            def stochastic_gradient(self, theta, rng):
                return rng.standard_normal(theta.shape)

        oracle = PureNoise()
        opt = Pnm(dim=1, lr=0.1, beta0=1.0, beta1=0.9)
        thetas, ms, grads = record_pnm_run(
            oracle, opt, np.zeros(1), 500, RngStream(123))
        assert pnm_lemma1_residuals(thetas, ms, grads, 0.1, 1.0, 0.9).max() <= 1e-10

    @pytest.mark.parametrize("beta0,beta1,lr,dim", [(1.0, 0.9, 0.05, 3), (-0.4, 0.95, 0.01, 1)])
    def test_residuals_equal_the_per_step_loops(self, beta0, beta1, lr, dim):
        quad = QuadraticModel([0.0] * dim, np.diag(np.arange(1.0, dim + 1)))
        opt = Pnm(dim=dim, lr=lr, beta0=beta0, beta1=beta1)
        run = record_pnm_run(AdditiveNoiseOracle(quad, 1.0), opt, np.ones(dim), 1000,
                             RngStream(7))
        want = _reference_residuals(*run, lr, beta0, beta1)
        assert pnm_lemma1_residuals(*run, lr, beta0, beta1).tobytes() == want.tobytes()


def _reference_residuals(thetas, ms, grads, lr, beta0, beta1):
    """The step-by-step loop of the Lemma 1 residual: the reference its
    vectorized form must equal bit for bit."""
    eta0 = lr / pn_normalization(beta0)
    x = np.empty((thetas.shape[0] + 2, thetas.shape[1]))
    x[0] = x[1] = x[2] = thetas[0]
    for t in range(1, thetas.shape[0]):
        x[t + 2] = thetas[t] + eta0 * beta0 * ms[t - 1]
    beta = beta1 * beta1
    alpha = eta0 * (1.0 - beta)
    z = (x[2:] - beta * x[:-2]) / (1.0 - beta)
    lemma1 = np.empty(len(grads))
    for t in range(len(grads)):
        lemma1[t] = np.max(np.abs(z[t + 1] - z[t] + alpha / (1.0 - beta) * grads[t]))
    return lemma1


class TestDeterminism:
    def test_identical_seed_identical_trajectory(self):
        def run():
            oracle = AdditiveNoiseOracle(QuadraticModel([0.0], [[2.0]]), 1.0)
            opt = Pnm(dim=1, lr=0.05, beta0=1.0, beta1=0.9)
            rng = RngStream(7)
            theta = np.array([1.0])
            out = []
            for _ in range(50):
                theta = opt.step(theta, oracle.stochastic_gradient(theta, rng))
                out.append(theta[0])
            return np.array(out)

        np.testing.assert_array_equal(run(), run())


class TestBatchAxis:
    @pytest.mark.parametrize("make", [
        lambda: HeavyBall(dim=3, lr=0.05, beta1=0.9, beta3=0.1),
        lambda: HeavyBall(dim=3, lr=0.05, beta1=0.8,
                          weight_decay=WeightDecay("l2", 1e-2)),
        lambda: Pnm(dim=3, lr=0.05, beta0=1.0, beta1=0.9,
                    weight_decay=WeightDecay("decoupled", 1e-2)),
        lambda: AdaPnm(dim=3, lr=0.01, beta0=2.0, amsgrad=True),
        lambda: AdaPnm(dim=3, lr=0.01, beta0=2.0, amsgrad=False),
        lambda: Adam(dim=3, lr=0.01),
        lambda: Adam(dim=3, lr=0.01, amsgrad=True),
    ], ids=["hb", "hb_l2", "pnm_decoupled", "adapnm_amsgrad", "adapnm", "adam", "amsgrad"])
    def test_stacked_state_equals_separate_runs(self, make):
        # k replicas stepped as one (k, dim) state must equal k independent
        # (dim,) optimizers bit for bit.
        k, steps = 4, 50
        rng = RngStream(5)
        theta0 = rng.standard_normal((k, 3))
        grads = rng.standard_normal((steps, k, 3))
        batched = make()
        theta = theta0
        for g in grads:
            theta = batched.step(theta, g)
        for i in range(k):
            single = make()
            th = theta0[i]
            for g in grads:
                th = single.step(th, g[i])
            np.testing.assert_array_equal(theta[i], th)

    @pytest.mark.parametrize("theta_shape,grad_shape", [
        ((3,), (2,)),
        ((4, 3), (3,)),
        ((3,), (4, 3)),
        ((4, 2), (4, 2)),
    ])
    def test_gradient_shape_mismatch_rejected(self, theta_shape, grad_shape):
        opt = Pnm(dim=3, lr=0.1)
        with pytest.raises(ValueError, match="shape"):
            opt.step(np.zeros(theta_shape), np.zeros(grad_shape))

