"""Empirical verification of the PNM convergence guarantee.

For an L-smooth lower-bounded objective with bounded gradients and
bounded-variance noise, running positive-negative momentum for T = t + 1
iterations with the normalized step min{1/(2L), C/sqrt(t+1)} bounds the
best expected squared gradient norm:

    min_k E||grad f(theta_k)||^2
        <= 2 (f(theta_0) - f*) / (t+1) * max{2L, sqrt(t+1)/C}
           + C1 / sqrt(t+1),

    C1 = C [L (beta + beta0 (1-beta))^2 (G^2 + sigma^2)
            + L (1-beta)^2 sigma^2] / (1-beta)^2,  beta = beta1^2.

Both terms are O(1/sqrt(t)) once sqrt(t+1)/C exceeds 2L, so the fitted
log-log slope of the empirical minimum against the horizon should sit
near -1/2. The expectation is approximated by averaging over seeds; each
horizon is re-run from theta_0 with its own constant step, exactly as the
step rule prescribes. The gradient-norm bound G is measured on the
visited iterates (a global bound does not exist for quadratics), which
keeps the bound comparison honest rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Sequence

import numpy as np

from .core import (
    _NOISE_BLOCK,
    DIVERGENCE_BOUND,
    ConfigError,
    DivergenceError,
    GradientOracle,
    NonFiniteError,
    RngStream,
)
from .optim import Pnm, pn_normalization


@dataclass
class ConvergenceBoundInputs:
    """Constants entering the horizon-T bound."""

    smoothness: float            # L
    grad_bound: float            # G
    sigma2: float                # noise variance bound
    step_constant: float         # C in the step rule
    loss_gap: float              # f(theta_0) - f*
    beta1: float = 0.9
    beta0: float = 1.0

    def __post_init__(self):
        if min(self.smoothness, self.step_constant) <= 0:
            raise ValueError("L and C must be > 0")
        if self.grad_bound < 0 or self.sigma2 < 0:
            raise ValueError("G and sigma2 must be >= 0")
        if self.loss_gap < 0:
            raise ValueError("f(theta_0) must be >= f*")

    @property
    def beta(self) -> float:
        return self.beta1 * self.beta1


def theorem1_bound(inputs: ConvergenceBoundInputs, t: int) -> float:
    """The bound after t + 1 iterations (see module docstring)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    L, C = inputs.smoothness, inputs.step_constant
    beta, beta0 = inputs.beta, inputs.beta0
    # Huge constants overflow to inf, checked below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        g2s2 = inputs.grad_bound ** 2 + inputs.sigma2
        c1 = C * (
            L * (beta + beta0 * (1.0 - beta)) ** 2 * g2s2
            + L * (1.0 - beta) ** 2 * inputs.sigma2
        ) / (1.0 - beta) ** 2
        sqrt_t1 = math.sqrt(t + 1.0)
        bound = (
            2.0 * inputs.loss_gap / (t + 1.0) * max(2.0 * L, sqrt_t1 / C)
            + c1 / sqrt_t1
        )
    if not math.isfinite(bound):
        raise DivergenceError(f"theorem 1 bound at horizon {t + 1} is not finite: "
                              "its constants overflow")
    return bound


def theorem_step_size(L: float, C: float, horizon: int) -> float:
    """Normalized step eta0 = min{1/(2L), C/sqrt(T)} for a T-step run."""
    return min(1.0 / (2.0 * L), C / math.sqrt(horizon))


@dataclass
class RateEstimate:
    """Per-horizon min-of-mean gradient norms plus the fitted slope.

    The expectation is taken first (seed average per iterate index), then
    the minimum over iterates, matching the quantity the bound controls;
    taking per-seed minima first would deflate the value by an
    order-statistic effect the bound says nothing about.
    """

    horizons: list[int]
    mean_min_grad_sq: np.ndarray          # min_k over the seed-averaged curve
    slope: float
    measured_grad_bound: float            # max ||grad f|| over visited iterates
    step_sizes: list[float] = field(default_factory=list)

    def bound_values(self, inputs: ConvergenceBoundInputs) -> np.ndarray:
        return np.array([theorem1_bound(inputs, T - 1) for T in self.horizons])


@np.errstate(over="ignore", invalid="ignore")
def _grad_sq_curves(
    oracle: GradientOracle,
    theta0: np.ndarray,
    horizon: int,
    eta0: float,
    beta0: float,
    beta1: float,
    seeds: list,
    key: int,
) -> np.ndarray:
    """One PNM run per seed, all stepped together as one ``(seeds, dim)``
    state; seed s draws its noise from ``RngStream(s).spawn(key)``.
    Returns ||grad f(theta_k)||^2 for k = 0..horizon-1, one row per seed.

    Each step evaluates one exact gradient, without the loss
    (``oracle.gradient``); the stochastic gradient is it
    plus ``oracle.noise`` of that step's standard normals (none when
    ``oracle.noise`` is None). Each stream draws its normals for a block
    of steps at once, in stream order, so the values equal those of one
    ``stochastic_gradient`` call per step.

    A non-finite gradient, iterates past the divergence bound and an overflowing
    squared gradient norm raise :class:`DivergenceError` at the first, naming seed and
    horizon, without numpy warnings; norms are checked once the run stops, off the hot loop.
    """

    def diverged(t: int, ok, cause: str) -> DivergenceError:
        # An earlier norm overflow is named instead, unless it is this non-finite gradient's.
        finite = np.isfinite(curves[:, :t - (cause == "gradient")])
        if not finite.all():
            t = int(np.argmin(finite.all(axis=0)))
            ok, cause = finite[:, t], "norm"
        return DivergenceError.at_step("PNM", t, f"seed {seeds[int(np.argmin(ok))]} "
                                       f"(horizon {horizon}, eta0 {eta0:g})", cause)

    streams = [RngStream(seed).spawn(key) for seed in seeds]
    lr = eta0 * pn_normalization(beta0)
    dim = theta0.shape[0]
    opt = Pnm(dim=dim, lr=lr, beta0=beta0, beta1=beta1)
    theta = np.tile(theta0, (len(seeds), 1))
    curves = np.empty((len(seeds), horizon))
    noise = oracle.noise
    block = max(1, _NOISE_BLOCK // (len(seeds) * dim))
    for start in range(0, horizon, block):
        steps = range(start, min(start + block, horizon))
        if noise is not None:
            z = np.empty((len(streams), len(steps), dim))
            for row, stream in zip(z, streams):
                stream.standard_normal(out=row)
            block_noise = noise(z)
        for k in steps:
            full = oracle.gradient(theta)
            curves[:, k] = np.vecdot(full, full)
            grad = full if noise is None else full + block_noise[:, k - start]
            try:
                theta = opt.step(theta, grad)
            except NonFiniteError as exc:
                raise diverged(k + 1, np.isfinite(grad).all(axis=1), "gradient") from exc
            # NaN fails ``<=`` too, so one comparison catches every divergence.
            if not np.abs(theta).max() <= DIVERGENCE_BOUND:
                raise diverged(k + 1, np.abs(theta).max(axis=1) <= DIVERGENCE_BOUND, "bound")
    if not np.isfinite(curves).all():
        raise diverged(horizon, None, "norm")  # names the overflow it finds
    return curves


def empirical_rate(
    oracle: GradientOracle,
    theta0,
    horizons: Sequence[int],
    seeds: Sequence[int],
    smoothness: float,
    step_constant: float = 1.0,
    beta0: float = 1.0,
    beta1: float = 0.9,
) -> RateEstimate:
    """min_k of the seed-averaged squared gradient norm per horizon, and
    the slope of its log-log fit against the horizon.

    Each (horizon, seed) pair restarts from ``theta0`` with the constant
    step the rule assigns to that horizon and an independent noise stream;
    the seeds of one horizon run together on a stacked state, so the
    oracle's ``gradient`` must take a ``(len(seeds), dim)`` theta and its
    gradient noise be ``oracle.noise`` (see :class:`~pnmkit.core.GradientOracle`).
    A minimum that is not > 0 has no logarithm, so it fails the fit.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    if any(isinstance(T, bool) or not isinstance(T, Integral) or T < 1 for T in horizons):
        raise ValueError(f"horizons must be integers >= 1, got {list(horizons)}")
    if len(set(horizons)) < 2:
        raise ConfigError(f"'horizons' needs at least two distinct values to fit a slope, "
                          f"got {list(horizons)}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    horizons = [int(T) for T in horizons]
    steps = [theorem_step_size(smoothness, step_constant, T) for T in horizons]
    if not min(steps) > 0:  # PNM needs a learning rate > 0
        raise ConfigError(f"'step_constant' = {step_constant!r} underflows a step size to 0")
    mins = np.empty(len(horizons))
    g_max = 0.0
    for i, (T, eta0) in enumerate(zip(horizons, steps)):
        curves = _grad_sq_curves(oracle, theta0, T, eta0, beta0, beta1, seeds, i)
        mins[i] = curves.sum(axis=0).min() / len(seeds)
        g_max = max(g_max, math.sqrt(float(curves.max())))
    for T, m in zip(horizons, mins.tolist()):
        if not m > 0:
            raise ConfigError(f"'horizons': horizon {T} has minimum squared gradient norm "
                              f"{m!r}; no log-log slope can be fitted through a value that "
                              "is not > 0")
    slope = float(np.polyfit(np.log(horizons), np.log(mins), 1)[0])
    return RateEstimate(horizons, mins, slope, g_max, steps)
