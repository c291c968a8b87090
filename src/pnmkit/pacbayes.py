"""Closed-form PAC-Bayes machinery.

The generalization-gap bound for a posterior Q against a Gaussian prior
P = N(0, lam^-1 I) over N training samples at confidence 1 - delta is

    4 * sqrt((KL(Q || P) + ln(2N / delta)) / N).

The posterior family of interest is Q(gamma) = N(theta*, gamma * s * I)
with s = eta / (2B), the constant-step SGD posterior covariance scale
rescaled by the noise-amplification factor gamma. ``kl_q_gamma`` is the
exact Gaussian KL divergence of that family (the tests pin it to 1e-10
against the diagonal-Gaussian closed form in their reference module),
and ``kl_q_gamma_grad`` is its exact derivative in gamma, pinned against
central finite differences.

Whenever the ratio eta / (2 B lam) is below one (and lam <= 1), the bound
is strictly decreasing in gamma on (1, 2 B lam / eta], so any noise
amplification in that range provably tightens it relative to gamma = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import ConfigError


@dataclass
class PacBayesSetting:
    """The bound's inputs: step size eta, batch size B, dataset size N,
    prior precision lam, parameter count n, confidence delta, and the
    squared norm of the posterior mean."""

    eta: float
    batch_size: int
    dataset_size: int
    lam: float
    dim: int
    delta: float
    theta_norm_sq: float = 0.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.dataset_size < 2:
            raise ValueError("dataset size must be >= 2")
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.theta_norm_sq < 0:
            raise ValueError("theta_norm_sq must be >= 0")
        if not 0.0 < critical_ratio(self.eta, self.batch_size, self.lam) < math.inf:
            raise ConfigError("'eta', 'batch_size' and 'lam' must make eta / (2 batch_size lam) "
                              "finite and > 0")
        r = self.lam * self.sigma_scale  # kl_q_gamma takes log(r), kl_minimizing_gamma 1 / r
        if not (r > 0.0 and 1.0 / r < math.inf):
            raise ConfigError("'eta', 'batch_size' and 'lam' must give lam * eta / (2 batch_size) "
                              "a finite reciprocal")

    @property
    def sigma_scale(self) -> float:
        """s = eta / (2B), the per-coordinate posterior variance at gamma=1."""
        return self.eta / (2.0 * self.batch_size)


def variance_ratio(gamma: float, setting: PacBayesSetting) -> float:
    """r = lam * gamma * s, the variance of Q(gamma) over the prior's."""
    return setting.lam * gamma * setting.sigma_scale


def kl_q_gamma(gamma: float, setting: PacBayesSetting) -> float:
    """KL(Q(gamma) || P) for Q = N(theta*, gamma s I), P = N(0, lam^-1 I).

    Evaluated in log space as (n/2) (r - 1 - ln r) + (lam/2) ||theta*||^2
    with r = lam * gamma * s, which is exact for any dimension and never
    underflows for large n.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    r = variance_ratio(gamma, setting)
    return 0.5 * setting.dim * (r - 1.0 - math.log(r)) + 0.5 * setting.lam * setting.theta_norm_sq


def kl_q_gamma_grad(gamma: float, setting: PacBayesSetting) -> float:
    """Exact d/dgamma of :func:`kl_q_gamma`: (n/2)(lam eta / (2B) - 1/gamma)."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    return 0.5 * setting.dim * (setting.lam * setting.sigma_scale - 1.0 / gamma)


def pac_bound(kl: float, dataset_size: int, delta: float) -> float:
    """4 sqrt((kl + ln(2N/delta)) / N), the generalization-gap bound."""
    if kl < 0:
        raise ValueError("kl must be >= 0")
    if dataset_size < 2:
        raise ValueError("dataset size must be >= 2")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    n = float(dataset_size)
    return 4.0 * math.sqrt((kl + math.log(2.0 * n / delta)) / n)


def critical_ratio(eta: float, batch_size: int, lam: float) -> float:
    """eta / (2 B lam); below one, amplifying gamma above one helps."""
    if batch_size == 0 or lam == 0:
        raise ValueError("batch size and lam must be nonzero")
    if eta <= 0 or batch_size < 0 or lam < 0:
        raise ValueError("eta, batch size, lam must be positive")
    return eta / (2.0 * batch_size * lam)


class GammaChoice(NamedTuple):
    gamma: float
    improvement_predicted: bool


def optimal_gamma(setting: PacBayesSetting) -> GammaChoice:
    """2 B lam / eta, the top of the guaranteed-improvement interval.

    When critical_ratio < 1 (and lam <= 1) the bound decreases on all of
    (1, 2 B lam / eta], so any gamma there beats gamma = 1. If the ratio
    is >= 1 no improvement is predicted and gamma = 1 is returned with the
    flag cleared.
    """
    ratio = critical_ratio(setting.eta, setting.batch_size, setting.lam)
    if ratio >= 1.0:
        return GammaChoice(1.0, False)
    return GammaChoice(1.0 / ratio, True)


def kl_minimizing_gamma(setting: PacBayesSetting) -> float:
    """The exact argmin of kl_q_gamma: gamma with gamma s = lam^-1, i.e.
    the amplification at which posterior and prior variances coincide."""
    return 1.0 / (setting.lam * setting.sigma_scale)


def bound_table(setting: PacBayesSetting, gammas) -> list[dict]:
    """Rows of (gamma, kl, kl gradient, bound) for reporting."""
    rows = []
    for g in gammas:
        kl = kl_q_gamma(g, setting)
        rows.append({
            "gamma": float(g),
            "kl": kl,
            "kl_grad": kl_q_gamma_grad(g, setting),
            "bound": pac_bound(kl, setting.dataset_size, setting.delta),
        })
    return rows
