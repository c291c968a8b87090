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

from .core import _NOISE_BLOCK, ConfigError, RngStream, ar1_filter
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

    def batches(a):
        return a[:usable].reshape(n_blocks, -1, dim)

    # One scratch series beside the buffers holds each variance's deviations
    # and each pair, which a variance overwrites: memory does not grow with
    # the count of beta0 values.
    scratch = np.empty_like(m_tail)
    m_var = _variance(m_tail, 0, scratch).mean()
    m_block_vars = _variance(batches(m_tail), 1, batches(scratch)).mean(axis=1)
    results = []
    for beta0 in beta0_values:
        pair = _pair(m_tail, prev_tail, beta0, scratch)
        ratio = float(_variance(pair, 0, pair).mean() / m_var)
        pair = batches(_pair(m_tail, prev_tail, beta0, scratch))
        block_ratios = _variance(pair, 1, pair).mean(axis=1) / m_block_vars
        results.append((ratio, float(block_ratios.std(ddof=1) / math.sqrt(n_blocks))))
    return results


def _pair(m, m_prev, beta0: float, out: np.ndarray) -> np.ndarray:
    """(1 + beta0) m - beta0 m_prev written into ``out``, the bits of the
    whole-array expression; ``beta0 m_prev`` is formed one row slice of
    ``_NOISE_BLOCK`` elements at a time."""
    np.multiply(m, 1.0 + beta0, out=out)
    rows = max(1, _NOISE_BLOCK // m.shape[1])
    for lo in range(0, m.shape[0], rows):
        out[lo:lo + rows] -= beta0 * m_prev[lo:lo + rows]
    return out


def _variance(x: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``x.var(axis=axis)`` bit for bit, with x's squared deviations written
    into ``out`` (shaped like x, and x itself if x may be overwritten) where
    numpy's ``var`` allocates them: the same ufuncs in the same order."""
    count = x.shape[axis]
    mean = np.add.reduce(x, axis=axis, keepdims=True)
    np.true_divide(mean, count, out=mean)
    np.subtract(x, mean, out=out)
    np.square(out, out=out)
    var = np.add.reduce(out, axis=axis)
    return np.true_divide(var, count, out=var)


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
