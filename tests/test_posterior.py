import math
from itertools import product

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from pnmkit import optim
from pnmkit.core import _AR1_CHUNK, _NOISE_BLOCK, DivergenceError, NonFiniteError, RngStream
from pnmkit.optim import HeavyBall, Pnm, amplification_factor
from pnmkit.posterior import (
    _mode_system,
    check_stable,
    discrete_ou_variance,
    lyapunov_residual,
    pnm_momentum_stationary_variance_exact,
    sgd_discrete_stationary_covariance,
    simulate_sgd_spectral,
    simulate_stationary,
    stationary_covariance,
    theoretical_posterior_covariance,
)
from pnmkit.problems import QuadraticModel, gaussian_factor


def _rotated_spd(eigs, seed=3):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    H = Q @ np.diag(eigs) @ Q.T
    return 0.5 * (H + H.T)


class TestClosedForms:
    def test_discrete_ou_value(self):
        # eta^2 / (1 - 0.99^2) = 1e-4 / 0.0199
        assert discrete_ou_variance(1.0, 0.01, 1.0) == pytest.approx(0.005025, abs=1e-6)

    def test_discrete_ou_rejects_unstable(self):
        with pytest.raises(ValueError):
            discrete_ou_variance(1.0, 2.5, 1.0)

    def test_matrix_solution_reduces_to_scalar(self):
        S = sgd_discrete_stationary_covariance([[1.0]], 0.01, [[1.0]])
        assert S[0, 0] == pytest.approx(discrete_ou_variance(1.0, 0.01, 1.0), rel=1e-12)

    def test_theoretical_values(self):
        assert theoretical_posterior_covariance("sgd", 0.1, 100) == pytest.approx(5e-4)
        assert theoretical_posterior_covariance("hb", 0.1, 100) == \
            theoretical_posterior_covariance("sgd", 0.1, 100)
        assert theoretical_posterior_covariance("pnm", 0.1, 100, beta0=0.0) == \
            theoretical_posterior_covariance("sgd", 0.1, 100)
        assert theoretical_posterior_covariance("pnm", 0.1, 100, beta0=1.0) == \
            pytest.approx(5 * 5e-4)

    def test_theoretical_validation(self):
        with pytest.raises(ValueError):
            theoretical_posterior_covariance("sgd", 0.1, 0)


# The hand-derived closed forms the state-space solver replaced, kept as
# references: each raises ValueError where its own stability test fails.
def _ou_reference(h, eta, sigma2):
    contraction = (1.0 - eta * h) ** 2
    if contraction >= 1.0:
        raise ValueError("unstable")
    return eta * eta * sigma2 / (1.0 - contraction)


def _sgd_reference(H, eta, C):
    A = np.eye(H.shape[0]) - eta * H
    if np.max(np.abs(np.linalg.eigvalsh(A))) >= 1.0:
        raise ValueError("unstable")
    return solve_discrete_lyapunov(A, eta * eta * C)


def _pnm_momentum_reference(h, eta, beta0, beta1, sigma2):
    beta = beta1 * beta1
    eta0 = eta / math.sqrt(amplification_factor(beta0))
    A = np.array([
        [1.0 - eta0 * (1.0 + beta0) * (1.0 - beta) * h, eta0 * beta0,
         -eta0 * (1.0 + beta0) * beta],
        [(1.0 - beta) * h, 0.0, beta],
        [0.0, 1.0, 0.0],
    ])
    if np.max(np.abs(np.linalg.eigvals(A))) >= 1.0:
        raise ValueError("unstable")
    b = np.array([-eta0 * (1.0 + beta0) * (1.0 - beta), 1.0 - beta, 0.0]).reshape(3, 1)
    return solve_discrete_lyapunov(A, sigma2 * (b @ b.T))[0, 0]


def _dense_reference(kind, H, eta, C, beta0, beta1):
    """The lifted law the per-mode solver replaced: the theta block of one
    Lyapunov solve for A = kron(A0, I) + kron(A1, H), noise kron(B B^T, C)."""
    A0, A1, B = _mode_system(kind, eta, beta0, beta1)
    A = np.kron(A0, np.eye(len(H))) + np.kron(A1, H)
    return solve_discrete_lyapunov(A, np.kron(B @ B.T, C))[:len(H), :len(H)]


def _outcome(fn, *args):
    """``fn(*args)``, or None where it rejects the configuration as unstable."""
    try:
        return fn(*args)
    except ValueError:
        return None


KINDS = ["sgd", "pnm", "hb", "pnm_momentum"]

# (h, eta, beta0, beta1, sigma2): stable and unstable points for every kind.
GRID = list(product([0.5, 1.0, 4.0], [0.01, 0.3, 0.9, 2.5], [-0.4, 0.0, 1.0, 3.0],
                    [0.0, 0.5, 0.9], [0.25, 1.0]))


class TestStateSpaceSolver:
    def test_sgd_matches_the_scalar_formula(self):
        calls = 0
        for h, eta, _, _, sigma2 in GRID:
            ref = _outcome(_ou_reference, h, eta, sigma2)
            got = _outcome(stationary_covariance, "sgd", [[h]], eta, [[sigma2]])
            assert (ref is None) == (got is None), (h, eta)
            if ref is not None:
                calls += 1
                assert got[0, 0] == pytest.approx(ref, rel=1e-12)
                assert discrete_ou_variance(h, eta, sigma2) == pytest.approx(ref, rel=1e-12)
        assert 0 < calls < len(GRID)

    def test_pnm_momentum_matches_the_3x3_formula(self):
        calls = 0
        for h, eta, beta0, beta1, sigma2 in GRID:
            ref = _outcome(_pnm_momentum_reference, h, eta, beta0, beta1, sigma2)
            got = _outcome(stationary_covariance, "pnm_momentum", [[h]], eta, [[sigma2]],
                           beta0, beta1)
            assert (ref is None) == (got is None), (h, eta, beta0, beta1)
            if ref is not None:
                calls += 1
                assert got[0, 0] == pytest.approx(ref, rel=1e-12)
                assert pnm_momentum_stationary_variance_exact(
                    h, eta, beta0, beta1, sigma2) == pytest.approx(ref, rel=1e-12)
        assert 0 < calls < len(GRID)

    @pytest.mark.parametrize("eta", [0.005, 0.3, 0.99, 1.01])
    def test_sgd_matches_the_matrix_formula_in_5d(self, eta):
        H = _rotated_spd([1.0, 1.3, 1.55, 1.8, 2.0])
        G = np.random.default_rng(7).standard_normal((5, 5))
        C = G @ G.T + 0.1 * np.eye(5)
        ref = _outcome(_sgd_reference, H, eta, C)
        got = _outcome(stationary_covariance, "sgd", H, eta, C)
        assert (ref is None) == (got is None) == (eta * 2.0 >= 2.0)
        if ref is not None:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(sgd_discrete_stationary_covariance(H, eta, C), ref,
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("beta0", [-0.5, 0.0, 0.5, 1.0, 3.0])
    def test_pnm_over_sgd_is_the_amplification_factor(self, beta0):
        H = _rotated_spd([0.5, 1.0, 2.0])
        C = np.diag([1.0, 0.5, 2.0])
        ratio = (stationary_covariance("pnm", H, 0.1, C, beta0)
                 / stationary_covariance("sgd", H, 0.1, C))
        np.testing.assert_allclose(ratio, amplification_factor(beta0), rtol=1e-12)

    @pytest.mark.parametrize("kind,seed", [("hb", 30), ("pnm_momentum", 31)])
    def test_exact_law_matches_simulation_on_a_rotated_hessian(self, kind, seed):
        # At eta = 0.5 both laws sit 30% or more off SGD's; over 12 seeds the
        # simulation stayed within 1.7% of the exact law.
        H = np.array([[1.5, 0.5], [0.5, 1.0]])
        exact = stationary_covariance(kind, H, 0.5, np.eye(2), 1.0, 0.9)
        est = simulate_stationary(QuadraticModel(np.zeros(2), H), 1.0, kind, 0.5,
                                  burn_in=2000, samples=256_000, rng=RngStream(seed),
                                  chains=64, beta0=1.0, beta1=0.9)
        np.testing.assert_allclose(est.covariance, exact, rtol=0.0,
                                   atol=0.05 * np.max(np.abs(exact)))

    # Where k n >= 10 (dims 12 and 30, and 5 for 'hb' and 'pnm_momentum') the
    # dense side runs scipy's bilinear solver, else its direct one.
    @pytest.mark.parametrize("kind,dim", list(product(KINDS, [2, 5, 12, 30])))
    def test_matches_the_dense_lift(self, kind, dim):
        H = _rotated_spd(np.linspace(0.3, 2.0, dim), seed=dim)
        G = np.random.default_rng(dim + 100).standard_normal((dim, dim))
        C = G @ G.T + 0.1 * np.eye(dim)
        got = stationary_covariance(kind, H, 0.3, C, 0.8, 0.7)
        ref = _dense_reference(kind, H, 0.3, C, 0.8, 0.7)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-11

    def test_critically_damped_hb_mode(self):
        # Here A0 + h A1 has the double eigenvalue sqrt(beta1) and no
        # eigenbasis, which a solve per pair of modes does not need.
        beta1, eta = 0.9, 0.5
        h = (1.0 - math.sqrt(beta1)) ** 2 / (eta * (1.0 - beta1))
        assert h == pytest.approx(0.0526681, rel=1e-6)
        H = _rotated_spd([h, 0.3, 1.0])
        C = np.eye(3) + 0.2
        got = stationary_covariance("hb", H, eta, C, 1.0, beta1)
        ref = _dense_reference("hb", H, eta, C, 1.0, beta1)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-11

    @pytest.mark.parametrize("kind,dim", list(product(KINDS, [3, 5, 12, 50])))
    def test_diagonal_hessian_is_the_one_dimensional_law_per_mode(self, kind, dim):
        h = np.linspace(0.5, 3.0, dim)[::-1]
        S = stationary_covariance(kind, np.diag(h), 0.1, np.eye(dim), 0.8, 0.7)
        assert np.all(S[~np.eye(dim, dtype=bool)] == 0.0)
        one_d = [stationary_covariance(kind, [[x]], 0.1, [[1.0]], 0.8, 0.7)[0, 0] for x in h]
        assert np.diag(S).tobytes() == np.array(one_d).tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="nag"):
            check_stable("nag", [1.0], 0.01)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_map_is_unstable(self):
        # eta h = 1e600 overflows A0 + h A1; that reads as unstable, silently.
        for kind in ("sgd", "pnm", "hb", "pnm_momentum"):
            with pytest.raises(ValueError, match=f"{kind} dynamics unstable"):
                check_stable(kind, [1e300], 1e300)


class TestLyapunovResidual:
    def test_scalar_closed_form_is_exact(self):
        # 1-D: sigma = eta c / (2 h) solves 2 h sigma = eta c
        h, eta, c = 2.0, 0.05, 3.0
        sigma = np.array([[eta * c / (2 * h)]])
        assert lyapunov_residual(sigma, [[h]], [[eta * c]]) < 1e-14

    def test_identity_solution_for_hessian_noise(self):
        # Sigma = eta/(2B) I solves Sigma H + H Sigma = eta H / B exactly
        H = _rotated_spd([1.0, 2.0, 5.0])
        eta, B = 0.1, 8
        sigma = eta / (2 * B) * np.eye(3)
        assert lyapunov_residual(sigma, H, eta * H / B) < 1e-14

    def test_scale_invariant_up_to_the_float_limit(self):
        # Both norms used to overflow when squared, giving inf / inf = NaN.
        H = _rotated_spd([1.0, 2.0, 5.0])
        sigma, eta_c = 0.05 * np.eye(3) + 0.01 * H, 0.1 * H
        expected = lyapunov_residual(sigma, H, eta_c)
        assert 0.0 < expected < math.inf
        assert lyapunov_residual(np.ldexp(sigma, 1000), H, np.ldexp(eta_c, 1000)) == expected

    def test_zero_over_zero_guard(self):
        assert lyapunov_residual(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))) == 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_residual([[1.0, 0.2], [0.0, 1.0]], np.eye(2), np.eye(2))


class TestSimulateStationary:
    def test_noiseless_contracts_to_minimum(self):
        model = QuadraticModel([2.0, -1.0], np.diag([1.0, 0.5]))
        est = simulate_stationary(model, 0.0, "sgd", 0.1, burn_in=2000,
                                  samples=1000, rng=RngStream(1), chains=4)
        np.testing.assert_allclose(est.mean, model.theta_star, atol=1e-12)
        assert np.max(np.abs(est.covariance)) < 1e-20

    def test_sgd_variance_matches_closed_form(self):
        model = QuadraticModel([0.0], [[1.0]])
        est = simulate_stationary(model, 1.0, "sgd", 0.01, burn_in=5000,
                                  samples=500_000, rng=RngStream(2), chains=32)
        target = discrete_ou_variance(1.0, 0.01, 1.0)
        assert est.variance == pytest.approx(target, rel=0.05)

    def test_mean_within_four_standard_errors(self):
        model = QuadraticModel([3.0], [[1.0]])
        est = simulate_stationary(model, 1.0, "sgd", 0.01, burn_in=5000,
                                  samples=500_000, rng=RngStream(3), chains=32)
        assert abs(est.mean[0] - 3.0) < 4 * est.mean_se[0]

    @pytest.mark.parametrize("beta0,target", [(0.5, 2.5), (1.0, 5.0)])
    def test_pn_pair_scaling(self, beta0, target):
        model = QuadraticModel([0.0], [[1.0]])
        sgd = simulate_stationary(model, 1.0, "sgd", 0.01, burn_in=5000,
                                  samples=1_000_000, rng=RngStream(4), chains=32)
        pnm = simulate_stationary(model, 1.0, "pnm", 0.01, burn_in=5000,
                                  samples=1_000_000, rng=RngStream(5), chains=32,
                                  beta0=beta0)
        assert pnm.variance / sgd.variance == pytest.approx(target, rel=0.05)

    def test_hb_matches_sgd_scale(self):
        model = QuadraticModel([0.0], [[1.0]])
        sgd = simulate_stationary(model, 1.0, "sgd", 0.01, burn_in=10000,
                                  samples=500_000, rng=RngStream(6), chains=32)
        hb = simulate_stationary(model, 1.0, "hb", 0.01, burn_in=10000,
                                 samples=500_000, rng=RngStream(7), chains=32,
                                 beta1=0.9)
        assert hb.variance / sgd.variance == pytest.approx(1.0, rel=0.08)

    def test_buffer_pnm_matches_state_space_solution(self):
        # The buffer implementation has its own exact discrete stationary
        # variance (a 3x3 Lyapunov solve), distinct from the rescaled-noise
        # value: the alternating pair anticorrelates consecutive updates,
        # so the trajectory variance sits below the SGD level rather than
        # above it.
        model = QuadraticModel([0.0], [[1.0]])
        est = simulate_stationary(model, 1.0, "pnm_momentum", 0.01, burn_in=10000,
                                  samples=500_000, rng=RngStream(8), chains=32,
                                  beta0=1.0, beta1=0.9)
        exact = pnm_momentum_stationary_variance_exact(1.0, 0.01, 1.0, 0.9)
        assert est.variance == pytest.approx(exact, rel=0.05)
        assert exact < discrete_ou_variance(1.0, 0.01, 1.0)

    def test_unstable_sgd_rejected(self):
        model = QuadraticModel([0.0], [[1.0]])
        with pytest.raises(ValueError):
            simulate_stationary(model, 1.0, "sgd", 2.5, burn_in=10,
                                samples=10, rng=RngStream(9))

    @pytest.mark.parametrize("kind,eta", [("pnm", 5.0), ("hb", 50.0), ("pnm_momentum", 5.0)])
    def test_unstable_kind_rejected_before_any_step(self, monkeypatch, kind, eta):
        monkeypatch.setattr(optim.Optimizer, "step",
                            lambda *a, **k: pytest.fail("stepped before failing"))
        model = QuadraticModel([0.0, 0.0], np.diag([0.1, 1.0]))
        with pytest.raises(ValueError, match=f"{kind} dynamics unstable"):
            simulate_stationary(model, 1.0, kind, eta, burn_in=100000,
                                samples=1000, rng=RngStream(10), chains=2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_names_step(self):
        # Stable dynamics fed infinite noise: the non-finite backstop fires
        # on the first step, without a numpy warning before it.
        model = QuadraticModel([0.0], [[1.0]])
        with pytest.raises(DivergenceError,
                           match="^dynamics diverged at step 1 for pnm: non-finite gradient$"):
            simulate_stationary(model, math.inf, "pnm", 0.01, burn_in=10,
                                samples=10, rng=RngStream(10), chains=2)

    def test_huge_stable_noise_does_not_diverge(self):
        model = QuadraticModel([0.0], [[1.0]])
        est = simulate_stationary(model, 1e14, "sgd", 0.01, burn_in=1000,
                                  samples=64_000, rng=RngStream(14), chains=64)
        assert est.variance == pytest.approx(discrete_ou_variance(1.0, 0.01, 1e14), rel=0.1)

    def test_unknown_kind(self):
        model = QuadraticModel([0.0], [[1.0]])
        with pytest.raises(ValueError):
            simulate_stationary(model, 1.0, "nag", 0.01, burn_in=1,
                                samples=1, rng=RngStream(0))

    def test_asymmetric_noise_covariance_rejected(self):
        model = QuadraticModel([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            simulate_stationary(model, [[1.0, 0.1], [0.0, 1.0]], "sgd", 0.01, burn_in=1,
                                samples=1, rng=RngStream(0))


def _reference_stationary(model, noise_cov, kind, eta, burn_in, samples, rng, thin=1,
                          chains=64, beta0=1.0, beta1=0.9):
    """The per-step loop that ``simulate_stationary`` ran before it drew its
    noise in blocks: one ``(chains, n)`` draw per step, two for 'pnm'.
    Returns (mean, covariance, mean_se)."""
    n, H = model.dim, model.H
    L = gaussian_factor(noise_cov, n)
    if isinstance(L, float):
        L = L * np.eye(n)
    per_chain = -(-samples // chains)
    total_steps = burn_in + per_chain * thin
    if kind == "hb":
        opt = HeavyBall(n, eta, beta1=beta1, beta3=1.0 - beta1)
    elif kind == "pnm_momentum":
        opt = Pnm(n, eta, beta0=beta0, beta1=beta1)
    else:
        opt = HeavyBall(n, eta, beta1=0.0)
    dev = np.zeros((chains, n))
    kept = np.empty((per_chain, chains, n))
    k = 0
    for t in range(total_steps):
        xi = rng.standard_normal((chains, n)) @ L.T
        if kind == "pnm":
            xb = rng.standard_normal((chains, n)) @ L.T
            grad = dev @ H + (1.0 + beta0) * xi - beta0 * xb
        else:
            grad = dev @ H + xi
        try:
            dev = opt.step(dev, grad)
        except NonFiniteError as exc:
            raise DivergenceError(f"dynamics diverged at step {t + 1} for {kind}: "
                                  "non-finite gradient") from exc
        if t >= burn_in and (t - burn_in) % thin == 0:
            kept[k] = dev
            k += 1
    flat = kept[:k].reshape(-1, n)
    mean_dev = flat.mean(axis=0)
    centered = flat - mean_dev
    cov = centered.T @ centered / (flat.shape[0] - 1)
    n_blocks = max(4, min(50, k // 50)) if k >= 8 else 2
    usable = (k // n_blocks) * n_blocks
    block_means = kept[:usable].reshape(n_blocks, -1, n).mean(axis=1)
    mean_se = block_means.std(axis=0, ddof=1) / math.sqrt(n_blocks)
    return model.theta_star + mean_dev, 0.5 * (cov + cov.T), mean_se


def _block_setting(dim, cov_kind):
    rng = np.random.default_rng(dim)
    model = QuadraticModel(rng.standard_normal(dim),
                           _rotated_spd(np.linspace(0.5, 3.0, dim), seed=dim))
    B = rng.standard_normal((dim, dim))
    return model, 0.7 if cov_kind == "scalar" else B @ B.T


class TestBlockNoise:
    """``simulate_stationary`` draws its noise in blocks of at most
    ``_NOISE_BLOCK`` elements and still equals the per-step loop bit for
    bit. At 1,000 burn-in plus 500 (or 1,500 thinned) steps per chain every
    run ends in a partial block but the two 5-D 'pnm' runs with 64 chains
    (whole blocks of 25 steps), and a 64-chain 1-D run spans 6 to 20
    blocks."""

    @pytest.mark.parametrize("kind,dim,cov_kind,chains,thin", list(product(
        ["sgd", "hb", "pnm", "pnm_momentum"], [1, 5], ["scalar", "matrix"], [1, 7, 64], [1, 3])))
    def test_matches_per_step_loop(self, kind, dim, cov_kind, chains, thin):
        model, cov = _block_setting(dim, cov_kind)
        args = (model, cov, kind, 0.05, 1000, 500 * chains)
        hparams = {"thin": thin, "chains": chains, "beta0": 0.8, "beta1": 0.7}
        est = simulate_stationary(*args, rng=RngStream(dim * 100 + chains), **hparams)
        want = _reference_stationary(*args, rng=RngStream(dim * 100 + chains), **hparams)
        for got, ref in zip((est.mean, est.covariance, est.mean_se), want):
            assert got.tobytes() == ref.tobytes()

    def test_centers_the_kept_iterates_in_place(self, traced_peak):
        # The benchmark's 8,000 iterates of 64 chains: a centered copy of
        # them would double the kept array's bytes, and a noise block of 2^16
        # values (its draws and their product with L) would pass 0.5 MiB.
        model, per_chain, chains = QuadraticModel([0.0], [[1.0]]), 8_000, 64
        peak = traced_peak(lambda: simulate_stationary(
            model, 1.0, "sgd", 0.01, 2_000, per_chain * chains, RngStream(5), chains=chains))
        assert peak < 8 * per_chain * chains + (1 << 19)

    @pytest.mark.parametrize("kind", ["sgd", "pnm"])
    def test_draws_stay_within_the_block_budget(self, monkeypatch, kind):
        model, cov = _block_setting(1, "scalar")
        args = (model, cov, kind, 0.05, 1000, 64 * 500)
        want = _reference_stationary(*args, rng=RngStream(4), thin=3)
        sizes = []
        draw = RngStream.standard_normal

        def spy(self, size=None, out=None):
            sizes.append(int(np.prod(size)))
            return draw(self, size, out)

        monkeypatch.setattr(RngStream, "standard_normal", spy)
        est = simulate_stationary(*args, rng=RngStream(4), thin=3)
        assert est.mean.tobytes() == want[0].tobytes()
        assert max(sizes) <= _NOISE_BLOCK
        # 2,500 steps of 64 chains: at least three draws, the last a partial block.
        assert len(sizes) >= 3 and sizes[-1] < sizes[0]
        assert sum(sizes) == 2500 * 64 * (2 if kind == "pnm" else 1)


class TestSpectralPath:
    @pytest.mark.parametrize("thin, block", [(1, 2_000_000), (50, 5_000)])
    def test_matches_lfilter_per_mode(self, thin, block, monkeypatch):
        # The estimate of the per-mode lfilter loop, bit for bit: with long
        # memory one noise block on the per-column path, with short memory
        # (phi^50) blocked filter runs and their state carried across blocks.
        from scipy.signal import lfilter

        from pnmkit import posterior

        monkeypatch.setattr(posterior, "_SPECTRAL_BLOCK", block)
        H = _rotated_spd([1.0, 1.7, 2.0])
        model, eta, burn_in, samples = QuadraticModel(np.zeros(3), H), 0.02, 1_500, 11_000
        est = simulate_sgd_spectral(model, 1.3, eta, burn_in, samples, RngStream(14), thin=thin)
        lam, Q = np.linalg.eigh(H)
        phi, step_std = (1.0 - eta * lam) ** thin, eta * math.sqrt(1.3)
        std = np.sqrt(step_std ** 2 * (1.0 - phi ** 2) / (1.0 - (1.0 - eta * lam) ** 2))
        if thin == 1:
            std = np.full(3, step_std)
        rng, zi = RngStream(14), [np.zeros(1)] * 3
        mean_acc, outer_acc = np.zeros(3), np.zeros((3, 3))
        for seen in range(0, burn_in + samples, block):
            xi = rng.standard_normal((min(block, burn_in + samples - seen), 3))
            u = np.empty_like(xi)
            for i in range(3):
                u[:, i], zi[i] = lfilter([std[i]], [1.0, -phi[i]], xi[:, i], zi=zi[i])
            tail = u[max(burn_in - seen, 0):]
            mean_acc += tail.sum(axis=0)
            outer_acc += tail.T @ tail
        mean_u = mean_acc / samples
        cov = Q @ ((outer_acc - samples * np.outer(mean_u, mean_u)) / (samples - 1)) @ Q.T
        assert est.mean.tobytes() == (Q @ mean_u).tobytes()
        assert est.covariance.tobytes() == (0.5 * (cov + cov.T)).tobytes()
        assert est.retained == samples

    def test_filters_each_block_in_place(self, traced_peak):
        # The benchmark's call: 2,000 + 200,000 draws of 5 modes in one noise
        # block, which the filter overwrites; beside it only the filter's
        # chunk-sized scratch, where a filtered copy would add a block.
        model = QuadraticModel(np.zeros(5), _rotated_spd([1.0, 1.3, 1.55, 1.8, 2.0]))
        peak = traced_peak(lambda: simulate_sgd_spectral(
            model, 1.0, 0.005, burn_in=2_000, samples=200_000, rng=RngStream(16), thin=200))
        assert peak < 8 * 202_000 * 5 + 4 * 8 * _AR1_CHUNK

    @pytest.mark.parametrize("burn_in, samples", [(-5, 10), (0, 1), (10, 0)])
    def test_bad_counts_rejected_before_any_draw(self, burn_in, samples):
        # burn_in -5 used to keep 5 draws, not 10; samples 0 or 1 to warn.
        model, rng = QuadraticModel([0.0], [[1.0]]), RngStream(15)
        with pytest.raises(ValueError, match="burn_in >= 0 and samples >= 2"):
            simulate_sgd_spectral(model, 1.0, 0.1, burn_in, samples, rng)
        assert rng.standard_normal(4).tobytes() == RngStream(15).standard_normal(4).tobytes()

    def test_matches_loop_estimator(self):
        model = QuadraticModel([0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]])
        loop = simulate_stationary(model, 1.0, "sgd", 0.02, burn_in=5000,
                                   samples=400_000, rng=RngStream(11), chains=32)
        spec = simulate_sgd_spectral(model, 1.0, 0.02, burn_in=5000,
                                     samples=400_000, rng=RngStream(12))
        np.testing.assert_allclose(spec.covariance, loop.covariance, rtol=0.1,
                                   atol=1e-5)

    def test_thinned_matches_exact_covariance(self):
        # Stride thinning is an exact AR(1) reparameterization: the
        # estimated covariance must still converge to the discrete
        # stationary solution.
        H = _rotated_spd([1.0, 1.7, 2.0])
        model = QuadraticModel(np.zeros(3), H)
        est = simulate_sgd_spectral(model, 1.0, 0.005, burn_in=2000,
                                    samples=400_000, rng=RngStream(13), thin=200)
        exact = sgd_discrete_stationary_covariance(H, 0.005, np.eye(3))
        np.testing.assert_allclose(est.covariance, exact, rtol=0.05,
                                   atol=0.02 * np.max(np.abs(exact)))

    def test_residual_shrinks_with_eta(self):
        H = _rotated_spd([1.0, 1.3, 1.55, 1.8, 2.0])
        model = QuadraticModel(np.zeros(5), H)
        res = {}
        for eta, samples, thin, seed in ((0.005, 400_000, 200, 20),
                                         (0.0005, 1_500_000, 2000, 21)):
            est = simulate_sgd_spectral(model, 1.0, eta, burn_in=3000,
                                        samples=samples, rng=RngStream(seed),
                                        thin=thin)
            res[eta] = lyapunov_residual(est.covariance, H, eta * np.eye(5))
        assert res[0.005] < 0.1
        assert res[0.0005] <= res[0.005]
