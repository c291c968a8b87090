"""Closed-form PAC-Bayes machinery.

The generalization-gap bound for a posterior Q against a Gaussian prior
P = N(0, lam^-1 I) over N training samples at confidence 1 - delta is

    4 * sqrt((KL(Q || P) + ln(2N / delta)) / N).

The posterior family of interest is Q(gamma) = N(theta*, gamma * s * I)
with s = eta / (2B), the constant-step SGD posterior covariance scale
rescaled by the noise-amplification factor gamma. ``kl_q_gamma`` is the
exact Gaussian KL divergence of that family (it matches
:func:`gaussian_kl` on the specialization to 1e-10; the tests pin this),
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

import numpy as np

from .core import as_param_vector


class GaussianDist:
    """A Gaussian with full, diagonal, or isotropic SPD covariance."""

    def __init__(self, mean, cov):
        self.mean = as_param_vector(mean, name="mean")
        n = self.mean.shape[0]
        cov = np.asarray(cov, dtype=np.float64)
        if cov.ndim == 0:
            cov = np.full(n, float(cov))
        if cov.ndim == 1:
            if cov.shape[0] != n:
                raise ValueError("diagonal covariance length mismatch")
            if np.any(cov <= 0):
                raise ValueError("covariance diagonal must be positive")
            self.diag = cov
            self.full = None
        elif cov.ndim == 2:
            if cov.shape != (n, n):
                raise ValueError("covariance shape mismatch")
            if not np.allclose(cov, cov.T, atol=1e-12 * max(1.0, np.max(np.abs(cov)))):
                raise ValueError("covariance must be symmetric")
            from scipy.linalg import cho_factor

            try:
                self._chol = cho_factor(cov, lower=True)
            except np.linalg.LinAlgError as exc:
                raise ValueError("covariance must be positive definite") from exc
            self.diag = None
            self.full = cov
        else:
            raise ValueError("covariance must be scalar, 1-D, or 2-D")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def log_det(self) -> float:
        if self.full is None:
            return float(np.sum(np.log(self.diag)))
        L = self._chol[0]
        return float(2.0 * np.sum(np.log(np.diag(L))))

    def solve(self, x: np.ndarray) -> np.ndarray:
        """Sigma^{-1} x (columns of x if 2-D)."""
        if self.full is None:
            return x / (self.diag if x.ndim == 1 else self.diag[:, None])
        from scipy.linalg import cho_solve

        return cho_solve(self._chol, x)


def gaussian_kl(q: GaussianDist, p: GaussianDist) -> float:
    """KL(Q || P) between Gaussians of equal dimension (always >= 0)."""
    if q.dim != p.dim:
        raise ValueError("dimension mismatch")
    n = q.dim
    if p.full is None and q.full is None:
        trace = float(np.sum(q.diag / p.diag))
    else:
        q_full = q.full if q.full is not None else np.diag(q.diag)
        trace = float(np.trace(p.solve(q_full)))
    delta = q.mean - p.mean
    quad = float(delta @ p.solve(delta))
    return 0.5 * (p.log_det() - q.log_det() + trace + quad - n)


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
            raise ValueError("eta / (2 batch_size lam) must be a positive finite number")
        r = self.lam * self.sigma_scale  # kl_q_gamma takes log(r), kl_minimizing_gamma 1 / r
        if not (r > 0.0 and 1.0 / r < math.inf):
            raise ValueError("lam * eta / (2 batch_size) must be > 0 with a finite reciprocal")

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


def bound_for_gamma(gamma: float, setting: PacBayesSetting) -> float:
    return pac_bound(kl_q_gamma(gamma, setting), setting.dataset_size, setting.delta)


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
