"""First-order optimizers: Heavy Ball / SGD with momentum, positive-negative
momentum (PNM), its adaptive variants (AdaPNM with and without the AMSGrad
max-tracking), and Adam/AMSGrad baselines.

PNM keeps two momentum buffers fed by alternating steps,

    m_t = beta1^2 m_{t-2} + (1 - beta1^2) g_t,

and updates parameters with the positive-negative pair
(1 + beta0) m_t - beta0 m_{t-1}, with the learning rate normalized by
sqrt((1 + beta0)^2 + beta0^2) so the noise-to-step ratio stays comparable
across beta0. Setting beta0 = -beta1 / (1 + beta1) and pre-multiplying the
learning rate by the same normalizer reproduces conventional momentum (and
Adam/AMSGrad for the adaptive variants) exactly; the tests pin this to
1e-10 per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GradientOracle, NonFiniteError, RngStream


def amplification_factor(beta0: float) -> float:
    """(1 + beta0)^2 + beta0^2: the pair's variance amplification, minimized
    at beta0 = -1/2 with value 1/2; a ``ValueError`` if it overflows."""
    try:
        factor = (1.0 + beta0) ** 2 + beta0 ** 2
    except OverflowError:
        factor = math.inf
    if factor == math.inf:
        raise ValueError(f"beta0 = {beta0!r} overflows (1 + beta0)^2 + beta0^2")
    return factor


def pn_normalization(beta0: float) -> float:
    """sqrt((1 + beta0)^2 + beta0^2), the pair's noise-magnitude factor."""
    return math.sqrt(amplification_factor(beta0))


def momentum_recovery_beta0(beta1: float) -> float:
    """The beta0 at which the positive-negative pair collapses to a plain
    momentum buffer: -beta1 / (1 + beta1)."""
    return -beta1 / (1.0 + beta1)


@dataclass
class WeightDecay:
    """mode 'l2' adds lam * theta to the gradient before the momentum
    update; 'decoupled' shrinks parameters by lr * lam * theta after the
    step (using the base learning rate, not the PNM-normalized one)."""

    mode: str = "none"
    lam: float = 0.0

    def __post_init__(self):
        if self.mode not in ("none", "l2", "decoupled"):
            raise ValueError(f"unknown weight-decay mode {self.mode!r}")
        if self.lam < 0:
            raise ValueError("weight-decay strength must be >= 0")


class Optimizer:
    """Base class: owns the step counter, the weight-decay hooks, and the
    non-finite gradient guard. Subclasses implement :meth:`_update`."""

    def __init__(self, dim: int, lr: float, weight_decay: WeightDecay | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if lr <= 0:
            raise ValueError("learning rate must be > 0")
        self.dim = int(dim)
        self.lr = float(lr)
        self.weight_decay = weight_decay or WeightDecay()
        self.t = 0

    def _prepare_gradient(self, theta: np.ndarray, grad) -> np.ndarray:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != theta.shape or grad.shape[-1:] != (self.dim,):
            raise ValueError(
                f"gradient shape {grad.shape} must equal parameter shape "
                f"{theta.shape} with last axis {self.dim}"
            )
        if not np.isfinite(grad).all():
            raise NonFiniteError(
                f"non-finite gradient entries at step {self.t + 1}"
            )
        if self.weight_decay.mode == "l2" and self.weight_decay.lam > 0.0:
            grad = grad + self.weight_decay.lam * theta
        return grad

    def step(self, theta: np.ndarray, grad) -> np.ndarray:
        """Consume one gradient and return the updated parameters.

        ``theta`` has shape ``(..., dim)``: a leading axis stacks
        independent replicas (chains, seeds) that share the
        hyperparameters and step counter. ``grad`` must have the same
        shape; the state buffers broadcast to it on the first step, so a
        ``(k, dim)`` run equals k separate ``(dim,)`` runs bit for bit.
        """
        theta = np.asarray(theta, dtype=np.float64)
        grad = self._prepare_gradient(theta, grad)
        self.t += 1
        new_theta = self._update(theta, grad)
        if self.weight_decay.mode == "decoupled" and self.weight_decay.lam > 0.0:
            new_theta = new_theta - self.lr * self.weight_decay.lam * theta
        return new_theta

    def _update(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class HeavyBall(Optimizer):
    """m <- beta1 m + beta3 g; theta <- theta - lr m.

    beta1 = 0, beta3 = 1 is vanilla SGD; beta3 = 1 - beta1 is the
    Adam-style (EMA) momentum convention.
    """

    def __init__(self, dim, lr, beta1=0.9, beta3=1.0, weight_decay=None):
        super().__init__(dim, lr, weight_decay)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0.0 < beta3 <= 1.0:
            raise ValueError("beta3 must lie in (0, 1]")
        self.beta1 = float(beta1)
        self.beta3 = float(beta3)
        self.m = np.zeros(self.dim)

    def _update(self, theta, grad):
        self.m = self.beta1 * self.m + self.beta3 * grad
        return theta - self.lr * self.m


class Pnm(Optimizer):
    """Stochastic positive-negative momentum.

    Two buffers rotate so each is refreshed every other step; the update
    direction is the pair (1 + beta0) m_t - beta0 m_{t-1}, scaled by
    lr / sqrt((1 + beta0)^2 + beta0^2). Both buffers start at zero.
    """

    def __init__(self, dim, lr, beta0=1.0, beta1=0.9, weight_decay=None):
        super().__init__(dim, lr, weight_decay)
        if beta0 < -1.0:
            raise ValueError("beta0 must be >= -1")
        if not 0.0 <= beta1 < 1.0:
            raise ValueError("beta1 must lie in [0, 1)")
        self.beta0 = float(beta0)
        self.beta1 = float(beta1)
        self.norm = pn_normalization(self.beta0)
        self.m = np.zeros(self.dim)        # m_{t-1} before step, m_t after
        self.m_prev = np.zeros(self.dim)   # m_{t-2} before step, m_{t-1} after

    def _pair(self, grad):
        """Refresh the older buffer with ``grad``, rotate the two, and
        return the positive-negative pair (1 + beta0) m_t - beta0 m_{t-1}."""
        bsq = self.beta1 * self.beta1
        m_new = bsq * self.m_prev + (1.0 - bsq) * grad
        pair = (1.0 + self.beta0) * m_new - self.beta0 * self.m
        self.m_prev = self.m
        self.m = m_new
        return pair

    def _update(self, theta, grad):
        return theta - (self.lr / self.norm) * self._pair(grad)


class Adam(Optimizer):
    """Adam baseline with bias correction; ``amsgrad=True`` keeps the
    running entrywise maximum of the second-moment estimate."""

    def __init__(self, dim, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 amsgrad=False, weight_decay=None):
        super().__init__(dim, lr, weight_decay)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError("beta2 must lie in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be > 0")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.amsgrad = bool(amsgrad)
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


class AmsGrad(Adam):
    def __init__(self, dim, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=None):
        super().__init__(dim, lr, beta1, beta2, eps, amsgrad=True,
                         weight_decay=weight_decay)


class AdaPnm(Pnm):
    """Adaptive positive-negative momentum.

    The buffer pair is :class:`Pnm`'s. With ``amsgrad=True`` the second
    moment uses the running maximum and the pair normalization sits in
    the denominator; with ``amsgrad=False`` the raw bias-corrected second
    moment is used and the normalization is folded into the numerator.
    Both reduce to AMSGrad/Adam at beta0 = -beta1 / (1 + beta1) with a
    sqrt((1+beta0)^2+beta0^2)-scaled learning rate.
    """

    def __init__(self, dim, lr=1e-3, beta0=1.0, beta1=0.9, beta2=0.999,
                 eps=1e-8, amsgrad=True, weight_decay=None):
        super().__init__(dim, lr, beta0, beta1, weight_decay)
        if not 0.0 <= beta2 < 1.0:
            raise ValueError("beta2 must lie in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be > 0")
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.amsgrad = bool(amsgrad)
        self.v = np.zeros(self.dim)
        self.v_max = np.zeros(self.dim)

    def _update(self, theta, grad):
        pair = self._pair(grad)
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


_OPTIMIZERS = {
    "sgd": HeavyBall,
    "hb": HeavyBall,
    "momentum": HeavyBall,
    "pnm": Pnm,
    "adapnm": AdaPnm,
    "adam": Adam,
    "amsgrad": AmsGrad,
}


def make_optimizer(name: str, dim: int, **hparams) -> Optimizer:
    """Construct an optimizer by name; unknown names raise KeyError."""
    try:
        cls = _OPTIMIZERS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown optimizer {name!r}; known: {sorted(set(_OPTIMIZERS))}"
        ) from None
    if name.lower() == "sgd" and "beta1" not in hparams:
        hparams["beta1"] = 0.0
    return cls(dim=dim, **hparams)


# ---------------------------------------------------------------------------
# Trajectory identities
# ---------------------------------------------------------------------------

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


def pnm_auxiliary_sequence(thetas, ms, lr, beta0) -> np.ndarray:
    """The shifted iterates x_t = theta_t + eta0 beta0 m_{t-1} along a PNM
    run, with x_{-2} = x_{-1} = theta_0 prepended.

    Substituting the update rule shows x absorbs the pair's cross term:
    x_{t+1} = x_t - eta0 m_t, which yields the clean two-step recursion
    x_{t+1} = x_t - alpha g_t + beta (x_{t-1} - x_{t-2}) checked below.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    ms = np.asarray(ms, dtype=np.float64)
    eta0 = lr / pn_normalization(beta0)
    x = np.empty((thetas.shape[0] + 2, thetas.shape[1]))
    x[0] = x[1] = thetas[0]          # x_{-2}, x_{-1}
    x[2] = thetas[0]                 # x_0: m_{-1} = 0
    x[3:] = thetas[1:] + eta0 * beta0 * ms[:thetas.shape[0] - 1]
    return x


def pnm_recursion_residuals(thetas, ms, grads, lr, beta0, beta1) -> np.ndarray:
    """Per-step residuals of x_{t+1} = x_t - alpha g_t + beta (x_{t-1} - x_{t-2})."""
    x = pnm_auxiliary_sequence(thetas, ms, lr, beta0)
    beta = beta1 * beta1
    alpha = (lr / pn_normalization(beta0)) * (1.0 - beta)
    grads = np.asarray(grads, dtype=np.float64)
    steps = grads.shape[0]
    # x[t + 2] holds x_t
    pred = x[2:steps + 2] - alpha * grads + beta * (x[1:steps + 1] - x[:steps])
    return np.max(np.abs(x[3:steps + 3] - pred), axis=1)


def pnm_lemma1_residuals(thetas, ms, grads, lr, beta0, beta1) -> np.ndarray:
    """Per-step residuals of z_{t+1} - z_t = -(alpha / (1 - beta)) g_t,
    where z_t = (x_t - beta x_{t-2}) / (1 - beta)."""
    x = pnm_auxiliary_sequence(thetas, ms, lr, beta0)
    beta = beta1 * beta1
    alpha = (lr / pn_normalization(beta0)) * (1.0 - beta)
    grads = np.asarray(grads, dtype=np.float64)
    z = (x[2:] - beta * x[:-2]) / (1.0 - beta)
    steps = grads.shape[0]
    return np.max(np.abs(z[1:steps + 1] - z[:steps] + alpha / (1.0 - beta) * grads), axis=1)
