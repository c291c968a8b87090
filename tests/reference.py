"""Reference implementations that the tests compare pnmkit against.

None of these is reached by a command or the benchmark, so they live with
the tests: a diagonal-Gaussian KL (the closed form ``kl_q_gamma``
specializes), a central-finite-difference gradient check, the beta0 at
which PNM recovers plain momentum, the recorded PNM run plus the Lemma 1
residuals of its shifted iterates, and Adam and AdaPNM written out as two
separate update rules, each with its own second moment.
"""

import numpy as np

from pnmkit.core import GradientOracle, RngStream, as_param_vector
from pnmkit.optim import Optimizer, Pnm, pn_normalization


class GaussianDist:
    """A Gaussian with diagonal covariance, given as a 1-D positive diagonal."""

    def __init__(self, mean, cov):
        self.mean = as_param_vector(mean, name="mean")
        self.dim = self.mean.shape[0]
        self.diag = np.asarray(cov, dtype=np.float64)
        if self.diag.shape != self.mean.shape:
            raise ValueError("covariance must be a 1-D diagonal as long as the mean")
        if np.any(self.diag <= 0):
            raise ValueError("covariance diagonal must be positive")


def gaussian_kl(q: GaussianDist, p: GaussianDist) -> float:
    """KL(Q || P) between Gaussians of equal dimension (always >= 0)."""
    if q.dim != p.dim:
        raise ValueError("dimension mismatch")
    log_det_ratio = float(np.sum(np.log(p.diag)) - np.sum(np.log(q.diag)))
    trace = float(np.sum(q.diag / p.diag))
    delta = q.mean - p.mean
    quad = float(delta @ (delta / p.diag))
    return 0.5 * (log_det_ratio + trace + quad - q.dim)


def fd_gradient_check(oracle: GradientOracle, theta, h: float = 1e-5) -> float:
    """Worst relative disagreement between the oracle's analytic gradient
    and central finite differences of its loss, per coordinate.

    The denominator is guarded by the overall gradient scale so zero
    coordinates do not blow the ratio up.
    """
    if h <= 0:
        raise ValueError("step h must be > 0")
    theta = np.asarray(theta, dtype=np.float64)
    _, analytic = oracle.full_gradient(theta)
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        numeric[i] = (oracle.full_gradient(theta + e)[0]
                      - oracle.full_gradient(theta - e)[0]) / (2.0 * h)
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def momentum_recovery_beta0(beta1: float) -> float:
    """The beta0 at which the positive-negative pair collapses to a plain
    momentum buffer: -beta1 / (1 + beta1)."""
    return -beta1 / (1.0 + beta1)


def record_pnm_run(
    oracle: GradientOracle,
    opt: Pnm,
    theta0: np.ndarray,
    steps: int,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run PNM and record (thetas, ms, grads) for identity checks.

    ``thetas`` has shape (steps + 1, dim) with theta_0 first; ``ms[t]`` is
    the buffer value m_t written at step t; ``grads[t]`` is the gradient
    consumed at step t.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    thetas = [theta.copy()]
    ms, grads = [], []
    for _ in range(steps):
        grad = oracle.stochastic_gradient(theta, rng)
        theta = opt.step(theta, grad)
        grads.append(grad)
        ms.append(opt.m.copy())
        thetas.append(theta.copy())
    return np.array(thetas), np.array(ms), np.array(grads)


def pnm_lemma1_residuals(thetas, ms, grads, lr, beta0, beta1) -> np.ndarray:
    """Per-step residuals of z_{t+1} - z_t = -(alpha / (1 - beta)) g_t,
    where z_t = (x_t - beta x_{t-2}) / (1 - beta).

    x_t = theta_t + eta0 beta0 m_{t-1} are the shifted iterates of a PNM
    run, with x_{-2} = x_{-1} = theta_0 prepended. Substituting the update
    rule shows x absorbs the pair's cross term: x_{t+1} = x_t - eta0 m_t,
    which yields the clean two-step recursion
    x_{t+1} = x_t - alpha g_t + beta (x_{t-1} - x_{t-2}).
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    ms = np.asarray(ms, dtype=np.float64)
    eta0 = lr / pn_normalization(beta0)
    x = np.empty((thetas.shape[0] + 2, thetas.shape[1]))
    x[0] = x[1] = thetas[0]          # x_{-2}, x_{-1}
    x[2] = thetas[0]                 # x_0: m_{-1} = 0
    x[3:] = thetas[1:] + eta0 * beta0 * ms[:thetas.shape[0] - 1]
    beta = beta1 * beta1
    alpha = eta0 * (1.0 - beta)
    grads = np.asarray(grads, dtype=np.float64)
    z = (x[2:] - beta * x[:-2]) / (1.0 - beta)
    steps = grads.shape[0]
    return np.max(np.abs(z[1:steps + 1] - z[:steps] + alpha / (1.0 - beta) * grads), axis=1)


class SeparateAdam(Optimizer):
    """Adam (AMSGrad with ``amsgrad=True``) with its momentum and second
    moment written out in one ``_update``, for bit comparisons."""

    def __init__(self, dim, lr, beta1=0.9, beta2=0.999, eps=1e-8, amsgrad=False,
                 weight_decay=None):
        super().__init__(dim, lr, weight_decay)
        self.beta1, self.beta2, self.eps, self.amsgrad = beta1, beta2, eps, amsgrad
        self.m = np.zeros(self.dim)
        self.v = np.zeros(self.dim)
        self.v_max = np.zeros(self.dim)

    def _update(self, theta, grad):
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        if self.amsgrad:
            self.v_max = np.maximum(self.v_max, self.v)
            v_hat = self.v_max / (1.0 - self.beta2 ** self.t)
        else:
            v_hat = self.v / (1.0 - self.beta2 ** self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class SeparateAdaPnm(Optimizer):
    """AdaPNM with the buffer pair and second moment written out in one
    ``_update``, for bit comparisons. With ``amsgrad=True`` the pair
    normalization divides the learning rate, otherwise the momentum."""

    def __init__(self, dim, lr, beta0=1.0, beta1=0.9, beta2=0.999, eps=1e-8,
                 amsgrad=True, weight_decay=None):
        super().__init__(dim, lr, weight_decay)
        self.beta0, self.beta1, self.beta2, self.eps = beta0, beta1, beta2, eps
        self.amsgrad = amsgrad
        self.norm = pn_normalization(beta0)
        self.m = np.zeros(self.dim)
        self.m_prev = np.zeros(self.dim)
        self.v = np.zeros(self.dim)
        self.v_max = np.zeros(self.dim)

    def _update(self, theta, grad):
        bsq = self.beta1 * self.beta1
        m_new = bsq * self.m_prev + (1.0 - bsq) * grad
        pair = (1.0 + self.beta0) * m_new - self.beta0 * self.m
        self.m_prev = self.m
        self.m = m_new
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        if self.amsgrad:
            self.v_max = np.maximum(self.v_max, self.v)
            v_hat = self.v_max / bc2
            m_hat = pair / bc1
            return theta - (self.lr / self.norm) * m_hat / (np.sqrt(v_hat) + self.eps)
        v_hat = self.v / bc2
        m_hat = pair / (bc1 * self.norm)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
