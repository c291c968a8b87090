"""Shared numeric types: parameter vectors, gradient oracles, seeded RNG
streams, and trajectory records.

All floating-point state is float64; the algebraic-identity tests in the
suite rely on ~1e-10 agreement, which float32 cannot deliver.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Identifier of the single PRNG used everywhere in this package. It is
#: written into every output file so results can be tied to the generator.
RNG_ALGORITHM = "pcg64"


class ConfigError(ValueError):
    """Invalid or unknown configuration content, named by its config key."""


class DimensionMismatchError(ValueError):
    """Raised when two vectors (or a vector and a matrix) disagree in size."""


class NonFiniteError(FloatingPointError):
    """Raised when a NaN/Inf shows up where finite values are required."""


class DivergenceError(RuntimeError):
    """Raised when an iterate escapes its stability region; carries the
    offending step index in the message."""


def as_param_vector(values, *, name: str = "vector") -> np.ndarray:
    """Coerce ``values`` to a finite, 1-D float64 array.

    Raises ``ValueError`` for empty input and ``NonFiniteError`` for
    NaN/Inf entries.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


class RngStream:
    """A seeded, single-owner random stream.

    Wraps ``numpy.random.Generator`` with the PCG64 bit generator. The same
    seed plus the same call sequence reproduces the same samples bit for
    bit. Streams must not be shared across concurrent tasks; derive
    independent children with :meth:`spawn` instead.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.algorithm = RNG_ALGORITHM
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, algorithm={self.algorithm!r})"

    def standard_normal(self, size=None, out=None) -> np.ndarray:
        """Standard normals of shape ``size``; with ``out``, written into it
        (the same draws that ``size=out.shape`` returns)."""
        return self._gen.standard_normal(size, out=out)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def spawn(self, key: int) -> "RngStream":
        """Derive an independent child stream.

        The child seed is produced deterministically from ``(seed, key)``
        via ``numpy.random.SeedSequence``, so spawning is reproducible and
        children with distinct keys are statistically independent.
        """
        child = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(key),))
        return RngStream(int(child.generate_state(1, dtype=np.uint64)[0]))


class GradientOracle(ABC):
    """Source of gradients for a fixed problem.

    Every gradient is a plain float64 array of shape ``(dim,)``.
    :meth:`full_gradient` returns the loss with the exact gradient.
    Oracles that sample without a batch size also define
    ``stochastic_gradient(theta, rng)``, an unbiased gradient sample;
    dataset problems draw minibatches with ``minibatch_gradient`` instead.

    The analytic oracles (quadratic, Rosenbrock and the additive-noise
    oracle) write each formula once on a ``(..., dim)`` theta, checked by
    :meth:`_check_stack`: for ``(dim,)`` the loss is a float64 scalar;
    for a stacked ``(k, dim)`` theta it is a ``(k,)`` array and the
    gradient ``(k, dim)``. Their gradient noise is one map, ``noise(z)``,
    from standard normals ``z`` shaped like theta to the noise added to
    the full gradient (``None`` on the noiseless quadratic and Rosenbrock),
    and ``stochastic_gradient`` applies it to the next draws of the one
    stream ``rng``, a stack's rows in row order, so a stacked call equals
    k row-by-row calls on that stream bit for bit.
    """

    dim: int

    @abstractmethod
    def full_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Return the loss and the exact gradient at ``theta``."""

    def _check_dim(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.dim,):
            raise DimensionMismatchError(
                f"theta has shape {theta.shape}, oracle dimension is {self.dim}"
            )
        return theta

    def _check_stack(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"theta has shape {theta.shape}, oracle takes ({self.dim},) "
                f"or (k, {self.dim})"
            )
        return theta


@dataclass
class TrajectoryRecord:
    """One evaluation point of an optimization run."""

    step: int
    loss: float
    grad_norm_sq: float
    test_error: Optional[float] = None


def config_digest(config: dict) -> str:
    """Stable hex digest of a JSON-serializable config dict."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
