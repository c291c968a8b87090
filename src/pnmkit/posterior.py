"""Stationary-distribution analysis near quadratic minima.

Constant-step stochastic gradient dynamics near a minimum settle into a
Gaussian stationary distribution whose covariance Sigma solves the
Lyapunov relation

    Sigma H + H Sigma = eta C,

with H the Hessian and C the gradient-noise covariance. This module
simulates the discrete dynamics directly (no SDE solver), estimates the
empirical posterior mean/covariance, and provides the oracles: the exact
finite-step stationary covariance of every dynamics kind, from per-mode
linear-Gaussian state-space solves, and the eta/(2B)-type identity-matrix
covariances that follow from the C = H/B noise structure.

The dynamics are the package's own optimizers stepping a (chains, dim)
state: 'sgd' and 'pnm' run ``optim.HeavyBall`` with beta1 = 0, 'hb' runs
``optim.HeavyBall`` with beta3 = 1 - beta1, and 'pnm_momentum' runs
``optim.Pnm``. Noise amplification enters through the 'pnm' kind: each
step feeds the optimizer the positive-negative average
(1 + beta0) g_a - beta0 g_b of two independent stochastic gradient
estimates, which rescales the gradient-noise covariance by
(1 + beta0)^2 + beta0^2 while leaving the expected step unchanged. This
is the noise model behind the rescaled posterior; the momentum-buffer
update ('pnm_momentum') has its own exact stationary law, which differs
from the rescaled-noise posterior because the buffers anticorrelate
consecutive updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _NOISE_BLOCK, ConfigError, DivergenceError, NonFiniteError, RngStream, ar1_filter
from .optim import HeavyBall, Pnm, amplification_factor, pn_normalization
from .problems import QuadraticModel, gaussian_factor


@dataclass
class StationaryEstimate:
    """Empirical mean and covariance of the post-burn-in iterates."""

    mean: np.ndarray
    covariance: np.ndarray
    retained: int
    mean_se: Optional[np.ndarray] = None  # set by simulate_stationary only

    @property
    def variance(self) -> float:
        """Convenience for 1-D runs: the single covariance entry."""
        return float(self.covariance[0, 0])


def _mode_system(kind: str, eta: float, beta0: float, beta1: float):
    """``kind`` on a Hessian mode of curvature h as (A0, A1, B): its state x obeys
    x' = (A0 + h A1) x + B xi; x is theta - theta* for 'sgd' and 'pnm' (with the pair's
    noise gain), (theta, m) for 'hb' and (theta, m_{t-1}, m_{t-2}) for 'pnm_momentum'."""
    if kind in ("sgd", "pnm"):
        A0, G = np.array([[1.0]]), np.array([[-eta]])
    elif kind == "hb":
        A0 = np.array([[1.0, -eta * beta1], [0.0, beta1]])
        G = np.array([[-eta * (1.0 - beta1)], [1.0 - beta1]])
    elif kind == "pnm_momentum":
        beta, eta0 = beta1 * beta1, eta / pn_normalization(beta0)
        A0 = np.array([[1.0, eta0 * beta0, -eta0 * (1.0 + beta0) * beta],
                       [0.0, 0.0, beta], [0.0, 1.0, 0.0]])
        G = np.array([[-eta0 * (1.0 + beta0) * (1.0 - beta)], [1.0 - beta], [0.0]])
    else:
        raise ValueError(f"unknown dynamics kind {kind!r}")
    # The gradient h theta + xi enters through one column G of the state.
    A1 = np.hstack([G, np.zeros((G.shape[0], G.shape[0] - 1))])
    gain = pn_normalization(beta0) if kind == "pnm" else 1.0
    return A0, A1, gain * G


def check_stable(kind: str, eigenvalues, eta: float, beta0: float = 1.0,
                 beta1: float = 0.9) -> np.ndarray:
    """``kind``'s per-mode maps A0 + h A1, shape (n, k, k), one per Hessian eigenvalue
    h. Raise a :class:`ConfigError` naming ``kind`` and ``'eta'`` unless its noiseless
    dynamics contract on every mode: each map's spectral radius must be < 1."""
    A0, A1, _ = _mode_system(kind, eta, beta0, beta1)
    h = np.asarray(eigenvalues, dtype=np.float64).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        maps = A0 + h[:, None, None] * A1
    finite = np.isfinite(maps).all(axis=(1, 2))  # a map that overflowed never contracts
    radii = np.abs(np.linalg.eigvals(np.where(finite[:, None, None], maps, 0.0))).max(axis=1)
    radii[~finite] = math.inf
    if not (radii < 1.0).all():
        i = int(np.argmin(radii < 1.0))  # the first unstable mode
        raise ConfigError(f"{kind} dynamics unstable at 'eta' = {eta!r}: spectral radius "
                          f"{radii[i]:.6g} >= 1 on the Hessian eigenvalue {h[i]:.6g}")
    return maps


def stationary_covariance(kind: str, H, eta: float, C, beta0: float = 1.0,
                          beta1: float = 0.9) -> np.ndarray:
    """Exact stationary covariance of theta under ``kind`` on a quadratic with
    symmetric Hessian H = Q diag(h) Q^T and gradient noise N(0, C). The states of
    modes i and j have the cross-covariance S_ij = M_i S_ij M_j^T + B B^T (Q^T C Q)_ij,
    M_i = A0 + h_i A1; row i is one batched k^2 x k^2 solve over j >= i, exact also
    where M_i is defective, in O(n k^4) memory. theta's part is Q [S_ij]_00 Q^T."""
    h, Q = np.linalg.eigh(np.asarray(H, dtype=np.float64))
    M = check_stable(kind, h, eta, beta0, beta1)
    (n, k, _), B = M.shape, _mode_system(kind, eta, beta0, beta1)[2]
    BB, Ct = (B @ B.T).ravel(), Q.T @ np.asarray(C, dtype=np.float64) @ Q
    S, eye = np.empty((n, n)), np.eye(k * k)
    for i in range(n):
        MM = (M[i, None, :, None, :, None] * M[i:, None, :, None, :]).reshape(n - i, k * k, -1)
        S[i, i:] = S[i:, i] = np.linalg.solve(eye - MM, (Ct[i, i:, None] * BB)[..., None])[:, 0, 0]
    return Q @ S @ Q.T


def discrete_ou_variance(h: float, eta: float, sigma2: float) -> float:
    """Exact stationary variance of 1-D SGD: theta' = (1 - eta h) theta - eta xi."""
    return float(stationary_covariance("sgd", [[h]], eta, [[sigma2]])[0, 0])


def sgd_discrete_stationary_covariance(H, eta: float, C) -> np.ndarray:
    """Sigma = A Sigma A^T + eta^2 C with A = I - eta H: SGD's exact law."""
    return stationary_covariance("sgd", H, eta, C)


def pnm_momentum_stationary_variance_exact(h: float, eta: float, beta0: float,
                                           beta1: float, sigma2: float = 1.0) -> float:
    """Exact stationary Var(theta) of buffer-based PNM on a 1-D quadratic."""
    return float(stationary_covariance("pnm_momentum", [[h]], eta, [[sigma2]], beta0, beta1)[0, 0])


def simulate_stationary(
    model: QuadraticModel,
    noise_cov,
    kind: str,
    eta: float,
    burn_in: int,
    samples: int,
    rng: RngStream,
    thin: int = 1,
    chains: int = 64,
    beta0: float = 1.0,
    beta1: float = 0.9,
) -> StationaryEstimate:
    """Estimate the stationary posterior of noisy gradient dynamics.

    Kinds: 'sgd' plain gradient steps (``HeavyBall`` with beta1 = 0);
    'hb' ``HeavyBall`` with beta3 = 1 - beta1; 'pnm' plain gradient steps
    on the positive-negative average of two independent gradient
    estimates (noise covariance scaled by (1 + beta0)^2 + beta0^2,
    learning rate used as given); and 'pnm_momentum' ``Pnm`` with its
    normalized rate.

    ``chains`` independent replicas run vectorized on one stream; mean and
    covariance pool all post-burn-in (thinned) iterates, and the mean's
    standard error comes from per-chain batch means, so each chain must
    keep at least 2 iterates (``samples > chains``). An unstable
    configuration (see :func:`check_stable`) and too few samples are
    rejected before the first step. The noise sets the iterates' scale, so only a
    non-finite gradient (naming its step) or covariance ends a run as diverged.

    The noise of a block of steps (at most ``_NOISE_BLOCK`` values, or one
    step's noise when that is more) is drawn at once, in the stream order
    of one draw per step, and stepped through in order, so the estimate
    equals that of drawing step by step bit for bit.
    """
    if thin < 1 or chains < 1 or samples < 1 or burn_in < 0:
        raise ValueError("burn_in/samples/thin/chains out of range")
    n = model.dim
    H = model.H
    check_stable(kind, np.linalg.eigvalsh(H), eta, beta0, beta1)
    L = gaussian_factor(noise_cov, n)
    if isinstance(L, float):  # isotropic noise, sigma I
        L = L * np.eye(n)
    per_chain = -(-samples // chains)  # ceil
    if per_chain < 2:
        raise ConfigError(f"'samples' = {samples} over 'chains' = {chains} keeps fewer than "
                          "2 iterates per chain; need samples > chains")
    total_steps = burn_in + per_chain * thin

    if kind == "hb":
        opt = HeavyBall(n, eta, beta1=beta1, beta3=1.0 - beta1)
    elif kind == "pnm_momentum":
        opt = Pnm(n, eta, beta0=beta0, beta1=beta1)
    else:  # sgd, and pnm on its two-sample pair gradient
        opt = HeavyBall(n, eta, beta1=0.0)

    # 'pnm' draws its pair (xi, xb) per step, weighted once per block; the
    # step adds (1 + beta0) xi, then subtracts beta0 xb, as one step did.
    draws = 2 if kind == "pnm" else 1
    block = max(1, _NOISE_BLOCK // (draws * chains * n))
    dev = np.zeros((chains, n))  # theta - theta*
    kept = np.empty((per_chain, chains, n))
    k = 0
    # Infinite noise makes inf - inf; the optimizer's non-finite check
    # reports it as a divergence, and finite iterates too large to square
    # give the non-finite covariance checked below, so numpy need not warn.
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, total_steps, block):
            noise = rng.standard_normal((min(block, total_steps - start), draws, chains, n)) @ L.T
            if kind == "pnm":
                noise[:, 0] *= 1.0 + beta0
                noise[:, 1] *= beta0
            for t, step_noise in enumerate(noise, start):
                grad = dev @ H + step_noise[0]
                if kind == "pnm":
                    grad -= step_noise[1]
                try:
                    dev = opt.step(dev, grad)
                except NonFiniteError as exc:
                    raise DivergenceError.at_step("dynamics", t + 1, kind, "gradient") from exc
                if t >= burn_in and (t - burn_in) % thin == 0:
                    kept[k] = dev
                    k += 1

        # SE of the mean from batch means along time, pooled over chains.
        n_blocks = max(4, min(50, k // 50)) if k >= 8 else 2
        usable = (k // n_blocks) * n_blocks
        block_means = kept[:usable].reshape(n_blocks, -1, n).mean(axis=1)
        mean_se = block_means.std(axis=0, ddof=1) / math.sqrt(n_blocks)

        # Centered in place, after the batch means have read the raw iterates.
        flat = kept[:k].reshape(-1, n)
        mean_dev = flat.mean(axis=0)
        flat -= mean_dev
        cov = flat.T @ flat / (flat.shape[0] - 1)
        cov = 0.5 * (cov + cov.T)
    if not np.all(np.isfinite(cov)):
        raise DivergenceError(f"{kind} dynamics: 'empirical_covariance' is not finite; "
                              "the iterates are too large to square")

    return StationaryEstimate(
        mean=model.theta_star + mean_dev,
        covariance=cov,
        retained=flat.shape[0],
        mean_se=mean_se,
    )


_SPECTRAL_BLOCK = 2_000_000


def simulate_sgd_spectral(
    model: QuadraticModel,
    sigma2: float,
    eta: float,
    burn_in: int,
    samples: int,
    rng: RngStream,
    thin: int = 1,
) -> StationaryEstimate:
    """Fast exact-in-law SGD simulation for isotropic gradient noise.

    In the Hessian eigenbasis the iterates decouple into independent
    scalar AR(1) recursions u' = (1 - eta lambda_i) u - eta xi, which
    :func:`~pnmkit.core.ar1_filter` evolves in bulk, every mode in one
    call; empirical moments are rotated back to the original coordinates.
    Observing an AR(1) every ``thin`` steps is again
    an AR(1) with coefficient phi^thin and the matching noise variance, so
    thinning is applied by exact recursion rather than by simulating and
    discarding; the retained samples have the same joint law either way.
    A test pins the agreement with the step-by-step loop.

    ``burn_in`` (>= 0) and ``samples`` (>= 2, for a covariance) count
    retained (post-thinning) draws; other values fail before the first draw.
    Noise is streamed in blocks of ``_SPECTRAL_BLOCK`` draws of all ``n``
    modes, filtered in place with the state carried across blocks: a block
    holds up to ``_SPECTRAL_BLOCK * n`` floats (80 MB at n = 5), whatever the
    budget, plus the filter's chunk-sized scratch.
    """
    if eta <= 0 or sigma2 < 0:
        raise ValueError("need eta > 0 and sigma2 >= 0")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if burn_in < 0 or samples < 2:
        raise ValueError(f"need burn_in >= 0 and samples >= 2, got burn_in = {burn_in}, "
                         f"samples = {samples}")
    n = model.dim
    lam, Q = np.linalg.eigh(model.H)
    phi = check_stable("sgd", lam, eta)[:, 0, 0]
    sigma = math.sqrt(sigma2)
    phi_s = phi ** thin
    # Exact noise std of the stride-thin subsampled chain per mode.
    step_var = (eta * sigma) ** 2
    if thin == 1:
        noise_std = np.full(n, eta * sigma)
    else:
        noise_std = np.sqrt(step_var * (1.0 - phi_s ** 2) / (1.0 - phi ** 2))

    state = np.zeros((1, n))
    total = burn_in + samples
    seen = 0
    count = 0
    mean_acc = np.zeros(n)
    outer_acc = np.zeros((n, n))
    while seen < total:
        m = int(min(_SPECTRAL_BLOCK, total - seen))
        u = rng.standard_normal((m, n))
        state = ar1_filter(u, noise_std, phi_s, state)[1]
        lo = max(burn_in - seen, 0)
        if lo < m:
            tail = u[lo:]
            mean_acc += tail.sum(axis=0)
            outer_acc += tail.T @ tail
            count += tail.shape[0]
        seen += m
    mean_u = mean_acc / count
    cov_u = (outer_acc - count * np.outer(mean_u, mean_u)) / (count - 1)
    cov = Q @ cov_u @ Q.T
    return StationaryEstimate(
        mean=model.theta_star + Q @ mean_u,
        covariance=0.5 * (cov + cov.T),
        retained=count,
    )


def lyapunov_residual(sigma, hessian, eta_c) -> float:
    """Relative Frobenius residual of Sigma H + H Sigma = eta C.

    ``eta_c`` is the already-scaled right-hand side. Returns 0 for the
    degenerate noiseless case (both sides zero).
    """
    S = np.asarray(sigma, dtype=np.float64)
    H = np.asarray(hessian, dtype=np.float64)
    R = np.asarray(eta_c, dtype=np.float64)
    for name, M in (("sigma", S), ("hessian", H), ("eta_c", R)):
        scale = max(float(np.max(np.abs(M))), 1.0)
        if not np.allclose(M, M.T, atol=1e-10 * scale, rtol=0.0):
            raise ValueError(f"{name} must be symmetric")
    num, num_exp = _frobenius(S @ H + H @ S - R)
    den, den_exp = _frobenius(R)
    if den == 0.0:
        # num_exp > 0 means an entry >= 1, far above the tolerance; below
        # that, ldexp cannot overflow.
        return 0.0 if num_exp <= 0 and math.ldexp(num, num_exp) < 1e-15 else math.inf
    return math.ldexp(num / den, num_exp - den_exp)


def _frobenius(M: np.ndarray) -> tuple[float, int]:
    """(f, e) with ||M||_F = f * 2**e. M is scaled by 2**-e, its largest
    entry's binary exponent, before the norm squares it, so a finite M near
    the float limit cannot overflow; power-of-two scaling is exact."""
    e = int(np.frexp(np.max(np.abs(M)))[1])
    return float(np.linalg.norm(np.ldexp(M, -e))), e


def theoretical_posterior_covariance(
    kind: str, eta: float, batch_size: int, beta0: float = 1.0
) -> float:
    """Scalar s such that Sigma = s I under the C = H / B noise structure.

    SGD and Heavy Ball give eta / (2B); the positive-negative dynamics
    rescale by (1 + beta0)^2 + beta0^2.
    """
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    base = eta / (2.0 * batch_size)
    if kind in ("sgd", "hb"):
        return base
    if kind == "pnm":
        return amplification_factor(beta0) * base
    raise ValueError(f"unknown kind {kind!r}")
