"""First-order optimizers: two momentum rules and one adaptive layer.

The momentum rules are Heavy Ball (SGD with momentum; Adam's EMA
convention at beta3 = 1 - beta1) and positive-negative momentum (PNM).
PNM keeps two momentum buffers fed by alternating steps,

    m_t = beta1^2 m_{t-2} + (1 - beta1^2) g_t,

and updates parameters with the positive-negative pair
(1 + beta0) m_t - beta0 m_{t-1}, with the learning rate normalized by
sqrt((1 + beta0)^2 + beta0^2) so the noise-to-step ratio stays comparable
across beta0. The adaptive layer divides either rule's bias-corrected
momentum by Adam's second moment (optionally its AMSGrad running
maximum): over Heavy Ball it is Adam/AMSGrad, over PNM it is AdaPNM.
Setting beta0 = -beta1 / (1 + beta1) and pre-multiplying the learning
rate by the same normalizer reproduces conventional momentum (and
Adam/AMSGrad for the adaptive variants) exactly; the tests pin this to
1e-10 per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NonFiniteError


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


def _unit_interval(name: str, value: float) -> float:
    """``value`` as a float; a ``ValueError`` naming it if it lies outside [0, 1)."""
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must lie in [0, 1)")
    return float(value)


class HeavyBall(Optimizer):
    """m <- beta1 m + beta3 g; theta <- theta - lr m.

    beta1 = 0, beta3 = 1 is vanilla SGD; beta3 = 1 - beta1 is the
    Adam-style (EMA) momentum convention.
    """

    norm = 1.0  # the momentum step is not rescaled

    def __init__(self, dim, lr, beta1=0.9, beta3=1.0, weight_decay=None):
        super().__init__(dim, lr, weight_decay)
        self.beta1 = _unit_interval("beta1", beta1)
        if not 0.0 < beta3 <= 1.0:
            raise ValueError("beta3 must lie in (0, 1]")
        self.beta3 = float(beta3)
        self.m = np.zeros(self.dim)

    def _momentum(self, grad):
        """Fold ``grad`` into the buffer and return it."""
        self.m = self.beta1 * self.m + self.beta3 * grad
        return self.m

    def _update(self, theta, grad):
        return theta - self.lr * self._momentum(grad)


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
        self.beta1 = _unit_interval("beta1", beta1)
        self.beta0 = float(beta0)
        self.norm = pn_normalization(self.beta0)
        self.m = np.zeros(self.dim)        # m_{t-1} before step, m_t after
        self.m_prev = np.zeros(self.dim)   # m_{t-2} before step, m_{t-1} after

    def _momentum(self, grad):
        """Refresh the older buffer with ``grad``, rotate the two, and
        return the positive-negative pair (1 + beta0) m_t - beta0 m_{t-1}."""
        bsq = self.beta1 * self.beta1
        m_new = bsq * self.m_prev + (1.0 - bsq) * grad
        pair = (1.0 + self.beta0) * m_new - self.beta0 * self.m
        self.m_prev = self.m
        self.m = m_new
        return pair

    def _update(self, theta, grad):
        return theta - (self.lr / self.norm) * self._momentum(grad)


class _Adaptive:
    """Adam's second moment over a momentum rule's ``_momentum`` and ``norm``.

    The bias-corrected momentum is divided by sqrt(v_hat) + eps. With
    ``amsgrad=True`` v_hat is the running entrywise maximum of the second
    moment and ``norm`` divides the learning rate; otherwise v_hat is the
    raw bias-corrected second moment and ``norm`` divides the momentum.
    At ``norm = 1`` both forms are Adam's (AMSGrad's) update.
    """

    def __init__(self, beta2, eps, amsgrad, *momentum_args):
        super().__init__(*momentum_args)
        self.beta2 = _unit_interval("beta2", beta2)
        if eps <= 0:
            raise ValueError("eps must be > 0")
        self.eps = float(eps)
        self.amsgrad = bool(amsgrad)
        self.v = np.zeros(self.dim)
        self.v_max = np.zeros(self.dim)

    def _update(self, theta, grad):
        m = self._momentum(grad)
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        if self.amsgrad:
            self.v_max = np.maximum(self.v_max, self.v)
            lr, m_hat, v = self.lr / self.norm, m / bc1, self.v_max
        else:
            lr, m_hat, v = self.lr, m / (bc1 * self.norm), self.v
        return theta - lr * m_hat / (np.sqrt(v / bc2) + self.eps)


class Adam(_Adaptive, HeavyBall):
    """Adam baseline: EMA momentum (beta3 = 1 - beta1) with bias correction;
    ``amsgrad=True`` is AMSGrad, which keeps the running entrywise maximum
    of the second moment."""

    def __init__(self, dim, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 amsgrad=False, weight_decay=None):
        super().__init__(beta2, eps, amsgrad, dim, lr, beta1, 1.0 - beta1, weight_decay)


class AdaPnm(_Adaptive, Pnm):
    """Adaptive positive-negative momentum: :class:`Pnm`'s buffer pair under
    Adam's second moment. Both forms reduce to AMSGrad/Adam at beta0 =
    -beta1 / (1 + beta1) with a sqrt((1+beta0)^2+beta0^2)-scaled learning rate."""

    def __init__(self, dim, lr=1e-3, beta0=1.0, beta1=0.9, beta2=0.999,
                 eps=1e-8, amsgrad=True, weight_decay=None):
        super().__init__(beta2, eps, amsgrad, dim, lr, beta0, beta1, weight_decay)
