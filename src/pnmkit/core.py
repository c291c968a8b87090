"""Shared numeric types: parameter vectors, gradient oracles, seeded RNG
streams, and trajectory records.

All floating-point state is float64; the algebraic-identity tests in the
suite rely on ~1e-10 agreement, which float32 cannot deliver.
"""

from __future__ import annotations

import hashlib
import json
import math
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
    :meth:`full_gradient` returns the loss with the exact gradient, and
    :meth:`gradient` the same gradient alone, and
    :meth:`stochastic_gradient` an unbiased sample of it; dataset problems
    sample through ``minibatch_gradient`` instead, which takes a batch size.

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
    noise = None

    @abstractmethod
    def full_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Return the loss and the exact gradient at ``theta``."""

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """The exact gradient alone, the bits of ``full_gradient(theta)[1]``;
        the quadratic overrides it to skip its loss."""
        return self.full_gradient(theta)[1]

    def stochastic_gradient(self, theta: np.ndarray, rng: RngStream) -> np.ndarray:
        """The exact gradient, plus ``noise`` of the next standard normals of ``rng`` if set."""
        grad = self.gradient(theta)
        return grad if self.noise is None else grad + self.noise(rng.standard_normal(grad.shape))

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


#: Significand bits of a float64. Two runs of an AR(1) from different states
#: see their gap shrink by |phi| per step, so they agree to the last bit after
#: about ``53 / -log2 |phi|`` steps, the span.
_COALESCE_BITS = 53
#: Steps between the bit comparisons of a block's rerun with its first run,
#: and the shortest block.
_COALESCE_CHECK = 16
#: Elements of one chunk of a blocked filter run (512 KiB of float64): its
#: time-major inputs and outputs stay this size at any series length.
_AR1_CHUNK = 1 << 16
#: Steps of one column slice on the per-column path: its Python float lists
#: stay this long at any series length.
_AR1_SLICE = 1 << 14
#: Element budget of one block of scratch in the simulators (128 KiB of
#: float64): a block of pre-drawn noise in the step-by-step simulators, about
#: 256 steps of 64 one-dimensional chains and one step per block once a step
#: alone needs as many, and a row slice of the noise amplification's pair.
_NOISE_BLOCK = 1 << 14


def ar1_filter(x, b0, phi, z) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.signal.lfilter([b0], [1, -phi], x, axis=0, zi=z)`` bit for bit,
    written over ``x``, for a series of at least one step: y[n] = b0 x[n] + s,
    then s = 0 x[n] - (-phi) y[n], from the start state s in ``z`` (shaped
    ``(1,) + x.shape[1:]``). Returns y (which is ``x``) and the final state,
    shaped like ``z``. ``b0`` and ``phi`` are scalars or one per column.

    ``x`` must be a writeable C-contiguous float64 array, so a caller holds
    one copy of a long series; one that needs its inputs passes a copy.

    A series of at least 32 blocks (see :func:`_ar1_blocked`) runs in chunks
    of at least 32 blocks and about ``_AR1_CHUNK`` elements; a shorter one,
    and any |phi| >= 1, steps a Python float per column in lfilter's own
    operations and order.
    """
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.flags.c_contiguous and x.flags.writeable):
        raise ValueError("x must be a writeable C-contiguous float64 array")
    tail = x.shape[1:]
    X, done = x.reshape(x.shape[0], math.prod(tail)), 0
    n, c = X.shape
    b0, phi = (np.broadcast_to(np.asarray(v, dtype=np.float64), tail).ravel() for v in (b0, phi))
    s = np.broadcast_to(np.asarray(z, dtype=np.float64), (1,) + tail).ravel()
    peak = float(np.abs(phi).max(initial=0.0))
    if peak < 1.0:
        # Blocks of twice the span a wrong start needs to reach equal bits.
        span = _COALESCE_BITS / -math.log2(peak) if peak > 0.0 else 0.0
        block = max(_COALESCE_CHECK, math.ceil(2.0 * span))
        chunks = min(n // (32 * block), max(1, n * c // _AR1_CHUNK))
        for i in range(chunks):
            lo, hi = n * i // chunks, n * (i + 1) // chunks
            end = _ar1_blocked(X[lo:hi], b0, phi, s, block)
            if end is None:
                break
            s, done = end, hi
    if done < n:
        s = _ar1_scalar(X[done:], b0, phi, s)
    return x, s.reshape((1,) + tail)


def _ar1_scalar(X, b0, phi, s) -> np.ndarray:
    """lfilter's own recurrence on one Python float per column, written over
    ``X`` one slice of ``_AR1_SLICE`` steps at a time; returns the final
    state."""
    end = s.copy()
    for j in range(X.shape[1]):
        b, a, state = float(b0[j]), -float(phi[j]), float(s[j])
        for lo in range(0, X.shape[0], _AR1_SLICE):
            col = []
            for xn in X[lo:lo + _AR1_SLICE, j].tolist():
                yn = b * xn + state
                col.append(yn)
                state = xn * 0.0 - yn * a
            X[lo:lo + _AR1_SLICE, j] = col
        end[j] = state
    return end


@np.errstate(over="ignore", invalid="ignore")
def _ar1_blocked(X, b0, phi, s, block: int):
    """Writes y[n] = b0 x[n] + s, s = phi y[n] over ``X``: the first
    ``len(X) % block`` steps one by one, then every ``block``-step block at
    once (:func:`_ar1_rounds`). Returns the final state in lfilter's terms.

    The step drops lfilter's ``0 x[n]``, which changes only the sign of a
    zero or a NaN, so an output that is zero or not finite (about which
    numpy need not warn) returns None instead, for the per-column path,
    with ``X`` not yet written: the inputs stay whole for that path.
    """
    n, c = X.shape
    head, count = n % block, n // block
    head_y, last = X[:head].copy(), X[-1] * 0.0
    s = _ar1_scalar(head_y, b0, phi, s)
    # Transposed column by column in tiles of blocks, which keeps the strided
    # side within a few pages; the gain then multiplies contiguous rows.
    bx, series, tile = np.empty((block, count, c)), X[head:].reshape(count, block, c), 32
    for k in range(0, count, tile):
        for j in range(c):
            bx[:, k:k + tile, j] = series[k:k + tile, :, j].T
    bx *= np.tile(b0, (count, 1))
    steps = _ar1_rounds(bx, phi, s)
    if not (np.isfinite(steps).all() and steps.all()):
        return None
    X[:head] = head_y
    for k in range(0, count, tile):
        for j in range(c):
            series[k:k + tile, :, j] = steps[:, k:k + tile, j].T
    return last - X[-1] * -phi


def _ar1_rounds(bx, phi, s) -> np.ndarray:
    """y = bx[t] + s, s = phi y for the time-major blocks ``bx`` (step t of
    every block is row t), so each step is two ufunc calls on one row.

    The first block starts from ``s``, every other one from a guessed zero.
    Each round reruns the blocks whose start is not phi times their
    predecessor's last output, until their outputs reach the bits of the run
    before: the step is deterministic, so equal bits mean an equal future.
    A block that never does moved its end, and the next round reruns its
    successor. The first rerun block's predecessor is always final, so the
    rounds end.
    """
    count, c = bx.shape[1:]
    steps, start, rates = np.empty_like(bx), np.zeros((count, c)), np.tile(phi, (count, 1))
    start[0] = s
    lo, rerun = 0, False
    while True:
        state, rate = start[lo:].copy(), rates[lo:]
        for t, (xt, yt) in enumerate(zip(bx[:, lo:], steps[:, lo:])):
            check = rerun and t % _COALESCE_CHECK == _COALESCE_CHECK - 1
            if check:
                before = yt.view(np.int64).copy()
            np.add(xt, state, out=yt)
            if check and (yt.view(np.int64) == before).all():
                break
            np.multiply(yt, rate, out=state)
        ends = steps[-1, :-1] * phi
        moved = (ends.view(np.int64) != start[1:].view(np.int64)).any(axis=1)
        if not moved.any():
            return steps
        lo, rerun = 1 + int(np.argmax(moved)), True
        start[1:] = ends


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
