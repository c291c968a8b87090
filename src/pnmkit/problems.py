"""Gradient oracles with known analytic structure.

Quadratics and Rosenbrock give closed-form gradients for the optimizer
identity and convergence checks; linear/logistic regression and a one-
hidden-layer tanh MLP over finite datasets supply minibatch gradients with
hand-derived backprop (no autodiff anywhere). A central-finite-difference
checker verifies every analytic gradient in the tests.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    DimensionMismatchError,
    GradientOracle,
    RngStream,
    as_param_vector,
)


# ---------------------------------------------------------------------------
# Analytic problems
# ---------------------------------------------------------------------------

def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for each row of a ``(dim,)`` or ``(k, dim)`` ``x``. The
    stacked form, matmul over a trailing unit axis, equals row-by-row
    ``A @ x`` bit for bit; ``x @ A.T`` and ``einsum`` do not."""
    if x.ndim == 1:
        return A @ x
    return np.matmul(A, x[..., None])[..., 0]


def _standard_normal_like(x: np.ndarray, rng) -> np.ndarray:
    """Standard-normal noise shaped like ``x``: one draw from the stream
    ``rng`` for a ``(dim,)`` ``x``; for ``(k, dim)``, ``rng`` is a
    sequence of k streams and row i is drawn from ``rng[i]``."""
    if x.ndim == 1:
        return rng.standard_gaussian_vector(x.shape[0])
    k, dim = x.shape
    if isinstance(rng, RngStream) or len(rng) != k:
        raise ValueError(f"a stack of {k} rows needs a sequence of {k} RngStreams")
    z = np.empty((k, dim))
    for i, r in enumerate(rng):
        r.standard_normal(out=z[i])
    return z


class QuadraticModel(GradientOracle):
    """f(theta) = f0 + 0.5 (theta - theta*)^T H (theta - theta*).

    H must be symmetric positive definite. The gradient H(theta - theta*)
    vanishes exactly at theta*.
    """

    def __init__(self, theta_star, hessian, f0: float = 0.0):
        self.theta_star = as_param_vector(theta_star, name="theta_star")
        H = np.asarray(hessian, dtype=np.float64)
        n = self.theta_star.shape[0]
        if H.shape != (n, n):
            raise DimensionMismatchError(
                f"Hessian shape {H.shape} does not match dimension {n}"
            )
        if not np.allclose(H, H.T, atol=1e-12, rtol=0.0):
            raise ValueError("Hessian must be symmetric to 1e-12")
        eigvals = np.linalg.eigvalsh(H)
        if eigvals[0] <= 0.0:
            raise ValueError(f"Hessian must be positive definite (min eig {eigvals[0]:g})")
        self.H = H
        self.f0 = float(f0)
        self.dim = n
        self._eigvals = eigvals

    @property
    def lambda_max(self) -> float:
        return float(self._eigvals[-1])

    @property
    def lambda_min(self) -> float:
        return float(self._eigvals[0])

    def loss_and_gradient(self, theta):
        theta = self._check_stack(theta)
        d = theta - self.theta_star
        Hd = _matvec(self.H, d)
        if d.ndim == 1:
            return self.f0 + 0.5 * float(d @ Hd), Hd
        return self.f0 + 0.5 * np.vecdot(d, Hd), Hd

    def full_gradient(self, theta):
        return self.loss_and_gradient(theta)

    def hessian(self, theta=None) -> np.ndarray:
        return self.H

    def stochastic_gradient(self, theta, rng) -> np.ndarray:
        return self.loss_and_gradient(theta)[1]


def rosenbrock_eval(theta) -> tuple[float, np.ndarray]:
    """Rosenbrock function f = (1-x)^2 + 100(y-x^2)^2 with its gradient."""
    theta = as_param_vector(theta, name="theta")
    if theta.shape[0] != 2:
        raise DimensionMismatchError("rosenbrock is defined on 2-vectors")
    x, y = theta
    loss = (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2
    gx = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x)
    gy = 200.0 * (y - x * x)
    return float(loss), np.array([gx, gy])


class RosenbrockProblem(GradientOracle):
    """Deterministic Rosenbrock oracle (smooth, nonconvex, 2-D)."""

    dim = 2

    def full_gradient(self, theta):
        theta = self._check_stack(theta)
        if theta.ndim == 1:
            return rosenbrock_eval(theta)
        # float_power calls libm pow, as the scalar ``** 2`` in
        # rosenbrock_eval does; an array ``** 2`` squares instead, which
        # differs in the last bit on some inputs.
        x, y = theta[:, 0], theta[:, 1]
        r = y - x * x
        loss = np.float_power(1.0 - x, 2.0) + 100.0 * np.float_power(r, 2.0)
        return loss, np.stack([-2.0 * (1.0 - x) - 400.0 * x * r, 200.0 * r], axis=1)

    def stochastic_gradient(self, theta, rng) -> np.ndarray:
        return self.full_gradient(theta)[1]


# ---------------------------------------------------------------------------
# Noise wrappers
# ---------------------------------------------------------------------------

class AdditiveNoiseOracle(GradientOracle):
    """Deterministic base oracle plus zero-mean Gaussian gradient noise.

    ``covariance`` is either a scalar sigma^2 (isotropic) or a full PSD
    matrix. Noise is drawn from the RngStream passed at call time (one
    stream per row for a stacked theta); the base oracle must take the
    same theta shape.
    """

    def __init__(self, base: GradientOracle, covariance):
        self.base = base
        self.dim = base.dim
        cov = np.asarray(covariance, dtype=np.float64)
        if cov.ndim == 0:
            if cov < 0:
                raise ValueError("scalar covariance must be >= 0")
            self.sigma = float(np.sqrt(cov))
            self._factor = None
            self.covariance = float(cov) * np.eye(self.dim)
        else:
            if cov.shape != (self.dim, self.dim):
                raise DimensionMismatchError("covariance shape mismatch")
            if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
                raise ValueError("covariance must be symmetric")
            w, V = np.linalg.eigh(cov)
            if w[0] < -1e-10:
                raise ValueError("covariance must be positive semidefinite")
            self._factor = V * np.sqrt(np.clip(w, 0.0, None))
            self.sigma = None
            self.covariance = cov

    def full_gradient(self, theta):
        return self.base.full_gradient(theta)

    def stochastic_gradient(self, theta, rng) -> np.ndarray:
        grad = self.base.full_gradient(theta)[1]
        z = _standard_normal_like(grad, rng)
        if self._factor is None:
            return grad + self.sigma * z
        return grad + _matvec(self._factor, z)


class PureNoiseOracle(GradientOracle):
    """Zero true gradient everywhere; stochastic gradients are pure noise.

    Used for stationary momentum-variance estimation, where the update
    direction statistics must be isolated from any drift.
    """

    def __init__(self, dim: int, sigma2: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        self.dim = int(dim)
        self.sigma2 = float(sigma2)
        self.sigma = float(np.sqrt(sigma2))

    def full_gradient(self, theta):
        theta = self._check_stack(theta)
        if theta.ndim == 1:
            return 0.0, np.zeros(self.dim)
        return np.zeros(theta.shape[0]), np.zeros(theta.shape)

    def stochastic_gradient(self, theta, rng) -> np.ndarray:
        return self.sigma * _standard_normal_like(self._check_stack(theta), rng)


# ---------------------------------------------------------------------------
# Finite datasets
# ---------------------------------------------------------------------------

@dataclass
class FiniteDataset:
    """N samples with d features each; labels are real or class indices."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be an N x d matrix")
        if self.labels.shape[0] != self.features.shape[0]:
            raise DimensionMismatchError("labels length must match feature rows")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "FiniteDataset":
        return FiniteDataset(self.features[idx], self.labels[idx])


def load_csv_dataset(path, *, classification: bool = False) -> FiniteDataset:
    """Read a dataset from CSV: numeric feature columns, label last.

    A single header row is allowed and detected by non-numeric cells.
    Malformed rows raise ValueError with the 1-based line number.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                values = [float(c) for c in row]
            except ValueError:
                if lineno == 1 and not rows:
                    continue  # header
                raise ValueError(f"{path}: malformed row at line {lineno}: {row!r}")
            if rows and len(values) != len(rows[0]):
                raise ValueError(
                    f"{path}: row at line {lineno} has {len(values)} columns, "
                    f"expected {len(rows[0])}"
                )
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column plus a label")
    features, labels = data[:, :-1], data[:, -1]
    if classification:
        rounded = np.rint(labels)
        if not np.allclose(labels, rounded, atol=1e-9):
            raise ValueError(f"{path}: class labels must be integers")
        labels = rounded.astype(np.int64)
    return FiniteDataset(features, labels)


def make_two_moons(n: int, noise: float, rng: RngStream) -> FiniteDataset:
    """Two interleaving half circles with Gaussian feature noise.

    Classes are balanced to within one sample; the angular positions are
    deterministic, only the added noise consumes random state.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    n_out = n // 2
    n_in = n - n_out
    t_out = np.linspace(0.0, np.pi, n_out)
    t_in = np.linspace(0.0, np.pi, n_in)
    X = np.empty((n, 2))
    X[:n_out, 0] = np.cos(t_out)
    X[:n_out, 1] = np.sin(t_out)
    X[n_out:, 0] = 1.0 - np.cos(t_in)
    X[n_out:, 1] = 0.5 - np.sin(t_in)
    X += noise * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
    perm = rng.permutation(n)
    return FiniteDataset(X[perm], y[perm])


@dataclass
class LabelNoiseSpec:
    """Symmetric noise flips to a uniformly random other class; asymmetric
    flips class i to (i+1) mod K. Rate is the flip probability per label."""

    kind: str = "symmetric"
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric"):
            raise ValueError(f"unknown label-noise kind {self.kind!r}")
        if not (0.0 <= self.rate < 1.0):
            raise ValueError("rate must lie in [0, 1)")


def apply_label_noise(
    dataset: FiniteDataset, spec: LabelNoiseSpec, rng: RngStream
) -> tuple[FiniteDataset, np.ndarray]:
    """Corrupt labels per ``spec``; returns the new dataset and a boolean
    mask that is True on samples whose label was altered."""
    labels = np.asarray(dataset.labels)
    if labels.dtype.kind not in "iu":
        raise ValueError("label noise requires integer class labels")
    labels = labels.astype(np.int64).copy()
    n_classes = int(labels.max()) + 1
    n = labels.shape[0]
    flip = rng.uniform(size=n) < spec.rate
    if spec.kind == "symmetric":
        # Uniform draw over the other K-1 classes via an offset in [1, K-1].
        offsets = rng.integers(1, n_classes, size=n)
        labels[flip] = (labels[flip] + offsets[flip]) % n_classes
    else:
        labels[flip] = (labels[flip] + 1) % n_classes
    return FiniteDataset(dataset.features, labels), flip


# ---------------------------------------------------------------------------
# Dataset-backed problems
# ---------------------------------------------------------------------------

class DatasetProblem(GradientOracle):
    """Common machinery for mean-loss problems over a finite dataset.

    Subclasses implement :meth:`batch_loss_gradient` on an index set; the
    full gradient is the batch over all samples. The stochastic gradient
    is :meth:`minibatch_gradient`, a plain float64 array of shape
    ``(dim,)`` for the batch size given per call. Minibatches are drawn
    uniformly without replacement within a batch and independently across
    steps.
    """

    def __init__(self, dataset: FiniteDataset):
        self.dataset = dataset
        self.dataset_size = dataset.n_samples

    def _validate_batch(self, b: int) -> None:
        if not (1 <= b <= self.dataset_size):
            raise ValueError(
                f"batch size must lie in [1, {self.dataset_size}], got {b}"
            )

    def batch_loss_gradient(self, theta, idx) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def full_gradient(self, theta):
        return self.batch_loss_gradient(theta, np.arange(self.dataset_size))

    def minibatch_gradient(self, theta, batch_size: int, rng: RngStream) -> np.ndarray:
        self._validate_batch(batch_size)
        if batch_size == self.dataset_size:
            return self.full_gradient(theta)[1]
        idx = rng.choice_without_replacement(self.dataset_size, batch_size)
        return self.batch_loss_gradient(theta, idx)[1]


class LinearRegressionProblem(DatasetProblem):
    """Mean squared-error regression, per-sample loss 0.5 (x^T theta - y)^2.

    The Hessian of the mean loss is X^T X / N, independent of theta.
    """

    def __init__(self, dataset: FiniteDataset):
        super().__init__(dataset)
        self.dim = dataset.n_features
        self._H = dataset.features.T @ dataset.features / dataset.n_samples

    def batch_loss_gradient(self, theta, idx):
        theta = self._check_dim(theta)
        X = self.dataset.features[idx]
        y = np.asarray(self.dataset.labels, dtype=np.float64)[idx]
        r = X @ theta - y
        loss = 0.5 * float(r @ r) / len(r)
        grad = X.T @ r / len(r)
        return loss, grad

    def hessian(self, theta=None):
        return self._H


class LogisticRegressionProblem(DatasetProblem):
    """Binary cross-entropy with sigmoid link; labels in {0, 1}."""

    def __init__(self, dataset: FiniteDataset):
        labels = np.asarray(dataset.labels)
        uniq = np.unique(labels)
        if not np.all(np.isin(uniq, [0, 1])):
            raise ValueError("logistic regression requires labels in {0, 1}")
        super().__init__(dataset)
        self.dim = dataset.n_features

    def batch_loss_gradient(self, theta, idx):
        theta = self._check_dim(theta)
        X = self.dataset.features[idx]
        y = np.asarray(self.dataset.labels, dtype=np.float64)[idx]
        z = X @ theta
        # log(1 + exp(z)) evaluated stably for large |z|
        softplus = np.logaddexp(0.0, z)
        loss = float(np.mean(softplus - y * z))
        p = 1.0 / (1.0 + np.exp(-z))
        grad = X.T @ (p - y) / len(y)
        return loss, grad


class TinyMlpProblem(DatasetProblem):
    """One-hidden-layer tanh network with softmax cross-entropy.

    Weights live in a single flat vector laid out as
    ``[W1 (d*h), b1 (h), W2 (h*k), b2 (k)]``. The backward pass is written
    out by hand so the gradients stay independently checkable against
    finite differences.

    The forward and backward passes run in scratch arrays that the
    instance owns, grown to the largest row count seen and used as
    ``[:n]`` views. A problem is therefore single-owner, like
    :class:`RngStream`: concurrent calls on one instance must not happen;
    give each task its own problem. Every returned gradient and
    prediction is a fresh array that later calls leave alone.
    """

    def __init__(
        self,
        dataset: FiniteDataset,
        hidden: int = 16,
        n_classes: Optional[int] = None,
    ):
        labels = np.asarray(dataset.labels)
        if labels.dtype.kind not in "iu":
            raise ValueError("MLP requires integer class labels")
        super().__init__(dataset)
        self.hidden = int(hidden)
        self.n_classes = int(n_classes if n_classes is not None else labels.max() + 1)
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        self.in_dim = dataset.n_features
        d, h, k = self.in_dim, self.hidden, self.n_classes
        self.dim = d * h + h + h * k + k
        self._labels = labels.astype(np.int64)
        self._scratch: dict[str, np.ndarray] = {}

    def _rows(self, name: str, n: int, cols: int) -> np.ndarray:
        """The first ``n`` rows of scratch array ``name``, regrown when
        a larger ``n`` arrives."""
        buf = self._scratch.get(name)
        if buf is None or buf.shape[0] < n:
            buf = self._scratch[name] = np.empty((n, cols))
        return buf[:n]

    def _unpack(self, theta):
        d, h, k = self.in_dim, self.hidden, self.n_classes
        i = 0
        W1 = theta[i : i + d * h].reshape(d, h); i += d * h
        b1 = theta[i : i + h]; i += h
        W2 = theta[i : i + h * k].reshape(h, k); i += h * k
        b2 = theta[i : i + k]
        return W1, b1, W2, b2

    def init_params(self, rng: RngStream, scale: float = 0.5) -> np.ndarray:
        """Gaussian init scaled by 1/sqrt(fan-in); biases start at zero."""
        d, h, k = self.in_dim, self.hidden, self.n_classes
        W1 = scale / np.sqrt(d) * rng.standard_normal((d, h))
        W2 = scale / np.sqrt(h) * rng.standard_normal((h, k))
        return np.concatenate([W1.ravel(), np.zeros(h), W2.ravel(), np.zeros(k)])

    def _forward(self, weights, X):
        """Hidden activations ``A1``, max-shifted logits ``Z2``, softmax
        ``P`` and its exp row sums ``s``, all scratch views. ``weights``
        is ``_unpack(theta)``. Reductions call ``ufunc.reduce`` directly,
        as ``np.sum``/``np.max``/``mean`` do after their Python wrappers."""
        W1, b1, W2, b2 = weights
        n, h, k = X.shape[0], self.hidden, self.n_classes
        A1 = np.matmul(X, W1, out=self._rows("A1", n, h))
        np.add(A1, b1, out=A1)
        np.tanh(A1, out=A1)
        Z2 = np.matmul(A1, W2, out=self._rows("Z2", n, k))
        np.add(Z2, b2, out=Z2)
        s = self._rows("s", n, 1)
        np.subtract(Z2, np.maximum.reduce(Z2, axis=1, keepdims=True, out=s), out=Z2)
        P = np.exp(Z2, out=self._rows("P", n, k))
        np.add.reduce(P, axis=1, keepdims=True, out=s)
        np.divide(P, s, out=P)
        return A1, Z2, P, s

    def batch_loss_gradient(self, theta, idx):
        theta = self._check_dim(theta)
        y = self._labels[idx]
        n = len(y)
        X = np.take(self.dataset.features, idx, axis=0,
                    out=self._rows("X", n, self.in_dim))
        weights = self._unpack(theta)
        A1, Z2, P, s = self._forward(weights, X)
        rows = np.arange(n)
        loss = -float(np.add.reduce(Z2[rows, y] - np.log(s[:, 0])) / n)

        grad = np.empty(self.dim)
        dW1, db1, dW2, db2 = self._unpack(grad)
        dZ2 = P
        dZ2[rows, y] -= 1.0
        dZ2 /= n
        np.matmul(A1.T, dZ2, out=dW2)
        np.add.reduce(dZ2, axis=0, out=db2)
        dZ1 = np.matmul(dZ2, weights[2].T, out=self._rows("dZ1", n, self.hidden))
        # A1 is spent after dW2: it becomes tanh' = 1 - A1^2 in place.
        np.multiply(A1, A1, out=A1)
        np.subtract(1.0, A1, out=A1)
        np.multiply(dZ1, A1, out=dZ1)
        np.matmul(X.T, dZ1, out=dW1)
        np.add.reduce(dZ1, axis=0, out=db1)
        return loss, grad

    def predict(self, theta, X) -> np.ndarray:
        P = self._forward(self._unpack(self._check_dim(theta)), X)[2]
        return P.argmax(axis=1)

    def error_rate(self, theta, dataset: FiniteDataset) -> float:
        pred = self.predict(theta, dataset.features)
        return float(np.mean(pred != np.asarray(dataset.labels)))


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def fd_gradient(fn: Callable[[np.ndarray], float], theta, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        grad[i] = (fn(theta + e) - fn(theta - e)) / (2.0 * h)
    return grad


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
    numeric = fd_gradient(lambda t: oracle.full_gradient(t)[0], theta, h)
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)
