"""Empirical gradient-noise analysis.

Covers three claims about stochastic gradient noise (SGN):

* the positive-negative pair (1 + beta0) m_t - beta0 m_{t-1} amplifies the
  stationary noise variance of a single momentum buffer by exactly
  (1 + beta0)^2 + beta0^2, because the two buffers are fed by disjoint
  (hence independent) noise subsequences;
* a single buffer driven by unit white noise has stationary variance
  (1 - beta)^2 / (1 - beta^2) with beta = beta1^2 (geometric series);
* near a least-squares minimum the minibatch gradient-noise covariance is
  approximately proportional to the Hessian and inversely proportional to
  the batch size.

The stationary simulations evolve the same buffer recursion the optimizers
use, vectorized over time by :func:`~pnmkit.core.ar1_filter`, numpy's
exact AR(1) filter; a test pins bitwise-level agreement with the
step-by-step optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, RngStream, ar1_filter
from .optim import amplification_factor
from .problems import DatasetProblem


def single_buffer_stationary_variance(beta1: float, sigma2: float = 1.0) -> float:
    """Closed-form stationary variance of one PNM buffer under i.i.d. noise.

    The buffer is an AR(1) in its own update index with decay beta1^2 and
    input weight (1 - beta1^2), so summing the geometric series gives
    (1 - beta)^2 sigma^2 / (1 - beta^2) with beta = beta1^2.
    """
    beta = beta1 * beta1
    return (1.0 - beta) ** 2 * sigma2 / (1.0 - beta * beta)


def _simulate_buffers(beta1: float, steps: int, dim: int,
                      rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Evolve m_t = beta1^2 m_{t-2} + (1 - beta1^2) xi_t for ``steps`` steps
    of unit white noise xi.

    Returns (m, m_prev): the freshly updated buffer at each step and the
    other buffer's value (zero before the first step). Each parity track
    is an AR(1) in its own index, so :func:`~pnmkit.core.ar1_filter` computes
    the exact recursion, both tracks as the columns of one call: step pair
    k is row k, even steps first. The noise is drawn into rows 1 onward of
    one buffer with a zero first row and filtered in place, so m and m_prev
    are two views of it, one row apart. An odd run pads one step that
    nothing reads.
    """
    beta = beta1 * beta1
    half = -(-steps // 2)
    buf = np.zeros((1 + 2 * half, dim))
    rng.standard_normal(out=buf[1:1 + steps])
    xi = buf[1:].reshape(half, 2 * dim)
    ar1_filter(xi, 1.0 - beta, beta, np.zeros((1, 2 * dim)))
    return buf[1:1 + steps], buf[:steps]


def default_burn_in(beta1: float) -> int:
    """100 mixing times 1 / (1 - beta1^2) of the buffer recursion."""
    return int(math.ceil(100.0 * (1.0 / max(1.0 - beta1 * beta1, 1e-12))))


def pair_amplification_ratio(
    beta1: float,
    beta0: float,
    steps: int,
    rng: RngStream,
    dim: int = 1,
) -> tuple[float, float]:
    """Ratio Var(pair) / Var(single buffer) from one shared simulation, and a
    batch-means standard error for it: :func:`pair_amplification_ratios`
    for the one ``beta0``."""
    return pair_amplification_ratios(beta1, [beta0], steps, rng, dim)[0]


def pair_amplification_ratios(
    beta1: float,
    beta0_values,
    steps: int,
    rng: RngStream,
    dim: int = 1,
) -> list[tuple[float, float]]:
    """(ratio, standard error) of Var(pair) / Var(single buffer) for each
    beta0 in ``beta0_values``, all from one simulation.

    The buffer sequence does not depend on beta0 under pure noise, so every
    pair and the buffer are measured on the same trajectory; each standard
    error comes from batch means. A bad beta1, beta0 or ``dim``, or
    ``steps`` too few for 2 post-burn-in samples in each of the batches,
    fails before the first step.
    """
    if not 0.0 <= beta1 < 1.0:
        raise ValueError("beta1 must lie in [0, 1)")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    beta0_values = list(beta0_values)
    for beta0 in beta0_values:
        amplification_factor(beta0)
    burn_in = min(default_burn_in(beta1), steps // 2)
    n_blocks = max(10, min(100, (steps - burn_in) // 1000))
    if (steps - burn_in) // n_blocks < 2:
        raise ConfigError(f"'steps' = {steps} leaves fewer than 2 samples in each of "
                          f"{n_blocks} batches after a burn-in of {burn_in} steps")
    m, m_prev = _simulate_buffers(beta1, steps, dim, rng)
    m_tail, prev_tail = m[burn_in:], m_prev[burn_in:]
    usable = ((steps - burn_in) // n_blocks) * n_blocks
    m_var = m_tail.var(axis=0).mean()
    m_block_vars = m_tail[:usable].reshape(n_blocks, -1, dim).var(axis=1).mean(axis=1)
    # One pair array, rewritten for each beta0: memory does not grow with their count.
    results, pair = [], np.empty_like(m_tail)
    for beta0 in beta0_values:
        np.multiply(m_tail, 1.0 + beta0, out=pair)
        pair -= beta0 * prev_tail
        ratio = float(pair.var(axis=0).mean() / m_var)
        pb = pair[:usable].reshape(n_blocks, -1, dim)
        block_ratios = pb.var(axis=1).mean(axis=1) / m_block_vars
        results.append((ratio, float(block_ratios.std(ddof=1) / math.sqrt(n_blocks))))
    return results


@dataclass
class CovarianceEstimate:
    """Sample covariance of minibatch gradient noise at a fixed point."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        scale = max(float(np.max(np.abs(self.matrix))), 1.0)
        if not np.allclose(self.matrix, self.matrix.T, atol=1e-12 * scale, rtol=0.0):
            raise ValueError("covariance estimate must be symmetric")
        if np.linalg.eigvalsh(self.matrix)[0] < -1e-10 * scale:
            raise ValueError("covariance estimate must be numerically PSD")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


def estimate_gradient_noise_covariance(
    problem: DatasetProblem,
    theta,
    batch_size: int,
    samples: int,
    rng: RngStream,
) -> CovarianceEstimate:
    """Sample covariance of g - grad f over fresh minibatches at ``theta``.

    With batch_size equal to the dataset size every minibatch is the full
    gradient, so the estimate is the zero matrix.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    theta = np.asarray(theta, dtype=np.float64)
    _, full = problem.full_gradient(theta)
    deltas = np.empty((samples, problem.dim))
    for i in range(samples):
        deltas[i] = problem.minibatch_gradient(theta, batch_size, rng) - full
    deltas -= deltas.mean(axis=0)
    cov = deltas.T @ deltas / (samples - 1)
    cov = 0.5 * (cov + cov.T)
    return CovarianceEstimate(cov)
